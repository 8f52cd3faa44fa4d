//! The benchmark's own HTTP/1.1 client: one request per connection, as
//! the service's clients speak it. Owning it keeps what `service_mix`
//! measures independent of the program's client and load generator.

use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How long any one exchange may take before it counts as failed.
const TIMEOUT: Duration = Duration::from_secs(30);

/// A reply: status and raw body.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Reply {
    /// Whether the status is 2xx.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// The body as text (lossily; for parsing JSON envelopes).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Sends one request on a fresh connection and reads the whole reply.
///
/// # Errors
///
/// Returns the I/O error, or `InvalidData` for a reply that is not HTTP.
pub fn exchange(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    content_type: &str,
) -> io::Result<Reply> {
    let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_write_timeout(Some(TIMEOUT))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-type: {content_type}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse(&raw)
}

/// Splits a raw `connection: close` reply into status and body.
fn parse(raw: &[u8]) -> io::Result<Reply> {
    let bad = |why: &str| io::Error::new(io::ErrorKind::InvalidData, format!("bad reply: {why}"));
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("no end of headers"))?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| bad("head is not UTF-8"))?;
    let status = head
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| bad("no status line"))?;
    Ok(Reply {
        status,
        body: raw[split + 4..].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_body() {
        let reply = parse(b"HTTP/1.1 202 Accepted\r\ncontent-length: 2\r\n\r\n{}").unwrap();
        assert_eq!(reply.status, 202);
        assert_eq!(reply.body, b"{}");
        assert!(reply.is_success());
        assert!(!parse(b"HTTP/1.1 503 Busy\r\n\r\n").unwrap().is_success());
        assert!(parse(b"garbage").is_err());
    }
}
