//! The thread-pool HTTP server: a blocking accept loop feeding a fixed
//! pool of connection-handler threads, with cooperative shutdown from
//! three sources — an in-process [`ShutdownFlag`] (the `/v1/shutdown`
//! route), `SIGTERM`, and an idle timeout consulted against the handler.
//!
//! Nothing polls on the request path. The accept loop sleeps inside
//! `accept()`; whoever stops it sets a flag and then connects to the
//! listener once, so that `accept()` returns, the loop sees the flag,
//! drops the wake connection and exits.

use crate::fault::{panic_message, Fault, FaultPlan, FaultSite};
use crate::http::{read_request, ParseError, Request, Response};
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How the server should listen and bound its inputs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: SocketAddr,
    /// Connection-handler threads (requests parsed/answered concurrently).
    pub connection_threads: usize,
    /// Per-request body cap in bytes.
    pub max_body_bytes: usize,
    /// Shut down after this long without a request, once the handler
    /// reports itself idle. `None` runs until signalled.
    pub idle_shutdown: Option<Duration>,
    /// How long a connection may sit mid-request before it is cut off —
    /// the slow-loris bound: a peer trickling partial headers loses its
    /// pool slot after this long, it cannot pin the thread forever.
    pub read_timeout: Duration,
    /// A seeded fault-injection schedule for chaos testing; `None` (the
    /// production default) injects nothing.
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            connection_threads: 4,
            max_body_bytes: crate::http::DEFAULT_MAX_BODY_BYTES,
            idle_shutdown: None,
            read_timeout: Duration::from_secs(10),
            faults: None,
        }
    }
}

/// Fault counters the server maintains while running — shareable before
/// [`Server::run`] consumes the server, surfaced on the service's
/// `/metrics`.
#[derive(Debug, Default)]
pub struct ServerFaultStats {
    handler_panics: AtomicU64,
    dead_workers: AtomicU64,
}

impl ServerFaultStats {
    /// Handler panics caught and answered with a 500 (lifetime total).
    #[must_use]
    pub fn handler_panics(&self) -> u64 {
        self.handler_panics.load(Ordering::Relaxed)
    }

    /// Connection workers found dead at drain time (lifetime total) —
    /// each one was logged and skipped so the rest could drain.
    #[must_use]
    pub fn dead_workers(&self) -> u64 {
        self.dead_workers.load(Ordering::Relaxed)
    }
}

/// Routes one parsed request to a response. Handlers run concurrently on
/// the connection pool, so implementations must be internally simultaneous.
pub trait Handler: Send + Sync + 'static {
    /// Produces the response for `req`.
    fn handle(&self, req: &Request) -> Response;

    /// Whether the service has no in-flight work — consulted before an
    /// idle shutdown so a long simulation is never cut off between polls.
    fn is_idle(&self) -> bool {
        true
    }
}

/// A cooperative shutdown signal shared between the accept loop and
/// whoever wants to stop it (a route handler, a test, a signal).
#[derive(Debug, Default)]
pub struct ShutdownFlag {
    requested: AtomicBool,
    /// The listener [`request`](ShutdownFlag::request) connects to, so a
    /// blocked `accept()` returns; `None` for a free-standing flag.
    wake: Option<SocketAddr>,
}

/// How long a wake connect may take. It only waits on the kernel's
/// handshake with a listener on this host, never on the accept loop.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

impl ShutdownFlag {
    /// A flag that wakes the listener bound at `bound` when requested.
    fn waking(bound: SocketAddr) -> ShutdownFlag {
        let mut wake = bound;
        // A wildcard bind accepts on every interface; loopback reaches it.
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        ShutdownFlag {
            requested: AtomicBool::new(false),
            wake: Some(wake),
        }
    }

    /// Requests shutdown: sets the flag, then connects once to the
    /// server's listener so its blocked `accept()` returns and the loop
    /// exits at once. Later calls do nothing; a call after the server
    /// stopped costs one refused connect.
    pub fn request(&self) {
        if self.requested.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(addr) = self.wake {
            // The accept loop drops this connection unanswered.
            let _ = TcpStream::connect_timeout(&addr, WAKE_TIMEOUT);
        }
    }

    /// Whether shutdown was requested.
    #[must_use]
    pub fn is_requested(&self) -> bool {
        self.requested.load(Ordering::SeqCst)
    }
}

#[cfg(unix)]
mod sigterm {
    //! `SIGTERM` observation without a `libc` crate: Rust's `std` already
    //! links the platform C library on Unix, so the one symbol needed —
    //! `signal(2)` — is declared directly. The handler only stores to a
    //! process-global atomic, which is async-signal-safe.

    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Once;

    static RECEIVED: AtomicBool = AtomicBool::new(false);
    static INSTALL: Once = Once::new();

    extern "C" fn on_sigterm(_signum: i32) {
        RECEIVED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    /// Installs the handler once per process.
    pub fn install() {
        INSTALL.call_once(|| {
            const SIGTERM: i32 = 15;
            // SAFETY: `signal` is the C library's, present on every Unix
            // target std supports; the handler is async-signal-safe.
            unsafe {
                signal(SIGTERM, on_sigterm);
            }
        });
    }

    /// Whether `SIGTERM` arrived since [`install`].
    pub fn received() -> bool {
        RECEIVED.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sigterm {
    pub fn install() {}
    pub fn received() -> bool {
        false
    }
}

/// How often the lifecycle thread looks for `SIGTERM`. std cannot block
/// on a signal, so this one check is a bounded sleep; it is off the
/// request path and only sets how fast a signalled server starts its
/// drain.
const SIGNAL_CHECK: Duration = Duration::from_millis(100);

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
    handler: Arc<dyn Handler>,
    shutdown: Arc<ShutdownFlag>,
    faults: Arc<ServerFaultStats>,
}

impl Server {
    /// Binds the listener (resolving port 0 to a real port) and prepares
    /// the pool. `SIGTERM` handling is installed here, so even a server
    /// that is bound but not yet running shuts down cleanly.
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn bind(config: ServerConfig, handler: Arc<dyn Handler>) -> io::Result<Server> {
        let listener = TcpListener::bind(config.addr)?;
        sigterm::install();
        Ok(Server {
            shutdown: Arc::new(ShutdownFlag::waking(listener.local_addr()?)),
            listener,
            config,
            handler,
            faults: Arc::new(ServerFaultStats::default()),
        })
    }

    /// The fault counters, shareable before [`run`](Server::run)
    /// consumes the server.
    #[must_use]
    pub fn fault_stats(&self) -> Arc<ServerFaultStats> {
        Arc::clone(&self.faults)
    }

    /// The actually-bound address (the real port when configured with 0).
    ///
    /// # Panics
    ///
    /// Panics if the socket vanished (never after a successful bind).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener has addr")
    }

    /// The flag that stops [`run`](Server::run) from another thread or a
    /// route handler.
    #[must_use]
    pub fn shutdown_flag(&self) -> Arc<ShutdownFlag> {
        Arc::clone(&self.shutdown)
    }

    /// Serves until shutdown is requested (flag, `SIGTERM`, or idle
    /// timeout), then drains: every accepted connection is answered and
    /// pool threads joined before returning.
    ///
    /// # Errors
    ///
    /// Returns an accept error other than `Interrupted`, after the
    /// drain.
    pub fn run(self) -> io::Result<()> {
        let pool_size = self.config.connection_threads.max(1);
        // A rendezvous-ish channel: accepted connections queue only
        // shallowly (2× pool) so back-pressure reaches the TCP backlog
        // instead of ballooning a private buffer.
        let (tx, rx): (SyncSender<TcpStream>, Receiver<TcpStream>) = sync_channel(pool_size * 2);
        let rx = Arc::new(Mutex::new(rx));
        let last_activity = Arc::new(Mutex::new(Instant::now()));

        let pool: Vec<_> = (0..pool_size)
            .map(|_| {
                let rx = Arc::clone(&rx);
                let handler = Arc::clone(&self.handler);
                let last_activity = Arc::clone(&last_activity);
                let max_body = self.config.max_body_bytes;
                let read_timeout = self.config.read_timeout;
                let plan = self.config.faults.clone();
                let faults = Arc::clone(&self.faults);
                std::thread::spawn(move || loop {
                    // Hold the lock only for the dequeue, not the request.
                    let next = rx.lock().expect("connection queue poisoned").recv();
                    let Ok(mut stream) = next else { return };
                    *last_activity.lock().expect("activity clock poisoned") = Instant::now();
                    handle_connection(
                        &mut stream,
                        handler.as_ref(),
                        max_body,
                        read_timeout,
                        plan.as_deref(),
                        &faults,
                    );
                })
            })
            .collect();

        // Idle timeout and SIGTERM stop the loop through this private
        // flag, so the public one records only an external request.
        let stop = Arc::new(ShutdownFlag::waking(self.local_addr()));
        let lifecycle = {
            let stop = Arc::clone(&stop);
            let handler = Arc::clone(&self.handler);
            let last_activity = Arc::clone(&last_activity);
            let idle = self.config.idle_shutdown;
            std::thread::spawn(move || watch_lifecycle(&stop, idle, &last_activity, &*handler))
        };

        let mut outcome = Ok(());
        loop {
            let accepted = self.listener.accept();
            if self.shutdown.is_requested() || stop.is_requested() {
                // Whatever woke us (the wake connect or a late peer) is
                // dropped unanswered.
                break;
            }
            match accepted {
                // Blocks while the pool and its queue are full, so
                // back-pressure reaches the TCP backlog.
                Ok((stream, _peer)) => {
                    if tx.send(stream).is_err() {
                        // Every worker died; the drain below counts them.
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    outcome = Err(e);
                    break;
                }
            }
        }

        // Release the lifecycle thread without a wake connect: nothing
        // is blocked in `accept()` any more.
        stop.requested.store(true, Ordering::SeqCst);
        lifecycle.thread().unpark();
        let _ = lifecycle.join();

        // Drain: close the channel, let workers finish queued connections.
        // A worker that died (its thread panicked outside the isolated
        // handler path) is logged and counted, never allowed to abort
        // the drain of the healthy rest.
        drop(tx);
        for worker in pool {
            if worker.join().is_err() {
                self.faults.dead_workers.fetch_add(1, Ordering::Relaxed);
                eprintln!("tensordash-server: a connection worker died; draining the rest");
            }
        }
        outcome
    }
}

/// The lifecycle thread behind [`Server::run`]: requests `stop` on
/// `SIGTERM`, or once the server has been quiet for `idle` and the
/// handler reports itself idle. It sleeps until the idle deadline,
/// recomputed after every wake-up because each request moves it, but
/// never longer than [`SIGNAL_CHECK`]. `run` unparks it to exit.
fn watch_lifecycle(
    stop: &ShutdownFlag,
    idle: Option<Duration>,
    last_activity: &Mutex<Instant>,
    handler: &dyn Handler,
) {
    while !stop.is_requested() {
        if sigterm::received() {
            stop.request();
            return;
        }
        let mut nap = SIGNAL_CHECK;
        if let Some(idle) = idle {
            let quiet = last_activity
                .lock()
                .expect("activity clock poisoned")
                .elapsed();
            if quiet < idle {
                nap = nap.min(idle - quiet);
            } else if handler.is_idle() {
                stop.request();
                return;
            }
        }
        std::thread::park_timeout(nap);
    }
}

/// Parses one request and writes one response; parse failures get their
/// mapped 4xx when the connection can still be written to. The handler
/// itself runs under `catch_unwind`: a panicking route becomes a 500
/// with the panic message, never a dead pool thread.
fn handle_connection(
    stream: &mut TcpStream,
    handler: &dyn Handler,
    max_body_bytes: usize,
    read_timeout: Duration,
    plan: Option<&FaultPlan>,
    faults: &ServerFaultStats,
) {
    // A stuck or malicious peer must not pin a pool thread forever.
    let _ = stream.set_read_timeout(Some(read_timeout));
    let _ = stream.set_write_timeout(Some(read_timeout.max(Duration::from_secs(10))));
    if let Some(plan) = plan {
        // An injected read fault is a peer whose connection died before
        // the request arrived: drop it unanswered.
        if plan.decide(FaultSite::Read) == Fault::Error {
            return;
        }
    }
    let response = match read_request(stream, max_body_bytes) {
        Ok(request) => {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                if let Some(plan) = plan {
                    match plan.decide(FaultSite::Handle) {
                        Fault::Panic => panic!("injected handler panic"),
                        Fault::Delay(millis) => {
                            std::thread::sleep(Duration::from_millis(millis));
                        }
                        Fault::Error => return None,
                        Fault::None => {}
                    }
                }
                Some(handler.handle(&request))
            }));
            match outcome {
                Ok(Some(response)) => response,
                // An injected handler fault: the connection just dies,
                // as it would under a real mid-response crash.
                Ok(None) => return,
                Err(payload) => {
                    faults.handler_panics.fetch_add(1, Ordering::Relaxed);
                    let message = panic_message(&*payload);
                    eprintln!("tensordash-server: handler panicked: {message}");
                    Response::json(
                        500,
                        format!(
                            "{{\"error\": {}}}",
                            crate::http::json_escape(&format!("handler panicked: {message}"))
                        ),
                    )
                }
            }
        }
        Err(ParseError::ConnectionClosed | ParseError::Io(_)) => return,
        Err(e @ ParseError::HeadTooLarge) => error_response(431, &e),
        Err(e @ ParseError::BodyTooLarge(_)) => error_response(413, &e),
        Err(e @ ParseError::Malformed(_)) => error_response(400, &e),
    };
    if let Some(plan) = plan {
        if plan.decide(FaultSite::Write) == Fault::Error {
            return;
        }
    }
    let _ = response.write_to(stream);
}

fn error_response(status: u16, error: &ParseError) -> Response {
    Response::json(
        status,
        format!(
            "{{\"error\": {}}}",
            crate::http::json_escape(&error.to_string())
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::client_request;
    use std::sync::atomic::AtomicUsize;

    struct Echo {
        hits: AtomicUsize,
    }

    impl Handler for Echo {
        fn handle(&self, req: &Request) -> Response {
            self.hits.fetch_add(1, Ordering::SeqCst);
            Response::json(
                200,
                format!(
                    "{{\"path\": \"{}\", \"body_len\": {}}}",
                    req.path,
                    req.body.len()
                ),
            )
        }
    }

    fn spawn_echo(
        config: ServerConfig,
    ) -> (
        SocketAddr,
        Arc<ShutdownFlag>,
        std::thread::JoinHandle<io::Result<()>>,
    ) {
        let server = Server::bind(
            config,
            Arc::new(Echo {
                hits: AtomicUsize::new(0),
            }),
        )
        .unwrap();
        let addr = server.local_addr();
        let flag = server.shutdown_flag();
        let handle = std::thread::spawn(move || server.run());
        (addr, flag, handle)
    }

    #[test]
    fn serves_concurrent_clients_and_shuts_down_on_flag() {
        let (addr, flag, handle) = spawn_echo(ServerConfig::default());
        let clients: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    client_request(
                        addr,
                        "POST",
                        &format!("/c/{i}"),
                        Some("xyz"),
                        Duration::from_secs(10),
                    )
                    .unwrap()
                })
            })
            .collect();
        for (i, c) in clients.into_iter().enumerate() {
            let (status, body) = c.join().unwrap();
            assert_eq!(status, 200);
            assert!(body.contains(&format!("/c/{i}")), "{body}");
            assert!(body.contains("\"body_len\": 3"), "{body}");
        }
        flag.request();
        handle.join().unwrap().unwrap();
        // The port is released after shutdown: rebinding succeeds.
        let rebound = TcpListener::bind(addr);
        assert!(rebound.is_ok(), "{rebound:?}");
    }

    #[test]
    fn idle_timeout_shuts_the_server_down_by_itself() {
        let (addr, flag, handle) = spawn_echo(ServerConfig {
            idle_shutdown: Some(Duration::from_millis(120)),
            ..ServerConfig::default()
        });
        let (status, _) =
            client_request(addr, "GET", "/healthz", None, Duration::from_secs(10)).unwrap();
        assert_eq!(status, 200);
        handle.join().unwrap().unwrap();
        assert!(!flag.is_requested(), "idle exit needs no external flag");
    }

    /// Fresh connections are accepted as they arrive. A 20 ms accept
    /// tick would make these 100 requests take at least 2 s.
    #[test]
    fn sequential_fresh_connections_wait_on_no_tick() {
        let (addr, flag, handle) = spawn_echo(ServerConfig::default());
        let start = Instant::now();
        for i in 0..100 {
            let (status, body) = client_request(
                addr,
                "GET",
                &format!("/seq/{i}"),
                None,
                Duration::from_secs(10),
            )
            .unwrap();
            assert_eq!(status, 200, "{body}");
        }
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_secs(1),
            "100 requests took {elapsed:?}"
        );
        flag.request();
        handle.join().unwrap().unwrap();
    }

    /// With no traffic at all, the flag's wake connect alone unblocks
    /// `accept()`.
    #[test]
    fn an_idle_server_stops_promptly_on_the_flag() {
        let (_addr, flag, handle) = spawn_echo(ServerConfig::default());
        // Let the accept loop block first.
        std::thread::sleep(Duration::from_millis(50));
        let start = Instant::now();
        flag.request();
        handle.join().unwrap().unwrap();
        let elapsed = start.elapsed();
        assert!(elapsed < Duration::from_secs(1), "stop took {elapsed:?}");
    }

    /// A wildcard bind is woken through loopback.
    #[test]
    fn a_wildcard_bound_server_wakes_on_the_flag() {
        let (addr, flag, handle) = spawn_echo(ServerConfig {
            addr: SocketAddr::from(([0, 0, 0, 0], 0)),
            ..ServerConfig::default()
        });
        assert!(addr.ip().is_unspecified(), "{addr}");
        std::thread::sleep(Duration::from_millis(50));
        let start = Instant::now();
        flag.request();
        handle.join().unwrap().unwrap();
        let elapsed = start.elapsed();
        assert!(elapsed < Duration::from_secs(1), "stop took {elapsed:?}");
    }

    /// Panic isolation: a panicking route answers 500 with the panic
    /// message, the pool thread survives to serve the next request, and
    /// the panic is counted.
    #[test]
    fn a_panicking_handler_is_a_500_not_a_dead_server() {
        struct Flaky;
        impl Handler for Flaky {
            fn handle(&self, req: &Request) -> Response {
                assert!(req.path != "/panic", "route exploded");
                Response::json(200, "{\"ok\": true}")
            }
        }
        let server = Server::bind(
            ServerConfig {
                connection_threads: 1,
                ..ServerConfig::default()
            },
            Arc::new(Flaky),
        )
        .unwrap();
        let addr = server.local_addr();
        let flag = server.shutdown_flag();
        let faults = server.fault_stats();
        let handle = std::thread::spawn(move || server.run());

        let (status, body) =
            client_request(addr, "GET", "/panic", None, Duration::from_secs(10)).unwrap();
        assert_eq!(status, 500);
        assert!(body.contains("handler panicked: route exploded"), "{body}");
        // The same (only) pool thread answers the next request.
        let (status, _) =
            client_request(addr, "GET", "/fine", None, Duration::from_secs(10)).unwrap();
        assert_eq!(status, 200);
        assert_eq!(faults.handler_panics(), 1);
        assert_eq!(faults.dead_workers(), 0);
        flag.request();
        handle.join().unwrap().unwrap();
    }

    /// The slow-loris bound: a client trickling partial headers is cut
    /// off by the read timeout and frees its pool slot — a healthy
    /// request issued while the loris holds the *only* slot still
    /// succeeds.
    #[test]
    fn slow_loris_clients_are_cut_off_and_free_their_pool_slot() {
        use std::io::{Read, Write};
        let (addr, flag, handle) = spawn_echo(ServerConfig {
            connection_threads: 1,
            read_timeout: Duration::from_millis(200),
            ..ServerConfig::default()
        });
        let mut loris = TcpStream::connect(addr).unwrap();
        loris.write_all(b"GET /loris HTT").unwrap();
        loris.flush().unwrap();
        // Give the loris time to claim the single pool thread.
        std::thread::sleep(Duration::from_millis(50));
        let healthy = std::thread::spawn(move || {
            client_request(addr, "GET", "/healthy", None, Duration::from_secs(10)).unwrap()
        });
        // The server cuts the loris off at the read timeout...
        loris
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut sink = Vec::new();
        let _ = loris.read_to_end(&mut sink);
        assert!(sink.is_empty(), "a half-request must get no response");
        // ...freeing the slot for the healthy request.
        let (status, body) = healthy.join().unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("/healthy"), "{body}");
        flag.request();
        handle.join().unwrap().unwrap();
    }

    #[test]
    fn malformed_requests_get_4xx_not_a_hung_connection() {
        use std::io::{Read, Write};
        let (addr, flag, handle) = spawn_echo(ServerConfig::default());
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"BOGUS\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        flag.request();
        handle.join().unwrap().unwrap();
    }
}
