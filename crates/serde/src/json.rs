//! JSON writing and parsing for [`Value`] trees.

use crate::value::{Error, Value};

/// Renders `value` as pretty-printed JSON (2-space indent, ordered keys,
/// trailing newline).
///
/// Non-finite floats have no JSON representation and are written as
/// `null`; the workspace's report types only produce finite numbers.
#[must_use]
pub fn write(value: &Value) -> String {
    let mut out = String::new();
    write_value(value, 0, &mut out);
    out.push('\n');
    out
}

/// Renders `value` as single-line JSON without indentation — the wire
/// format for HTTP request/response bodies, where pretty-printing only
/// adds bytes. Parses back identically to [`write()`]'s output.
#[must_use]
pub fn write_compact(value: &Value) -> String {
    let mut out = String::new();
    write_value_compact(value, &mut out);
    out
}

fn write_value_compact(value: &Value, out: &mut String) {
    match value {
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_value_compact(item, out);
            }
            out.push(']');
        }
        Value::Table(entries) => {
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_string(key, out);
                out.push_str(": ");
                write_value_compact(item, out);
            }
            out.push('}');
        }
        scalar => write_value(scalar, 0, out),
    }
}

fn write_value(value: &Value, indent: usize, out: &mut String) {
    match value {
        Value::Unit => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::UInt(u) => out.push_str(&u.to_string()),
        Value::Float(f) => write_float(*f, out),
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                push_indent(indent + 1, out);
                write_value(item, indent + 1, out);
            }
            out.push('\n');
            push_indent(indent, out);
            out.push(']');
        }
        Value::Table(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                push_indent(indent + 1, out);
                write_string(key, out);
                out.push_str(": ");
                write_value(item, indent + 1, out);
            }
            out.push('\n');
            push_indent(indent, out);
            out.push('}');
        }
    }
}

fn push_indent(indent: usize, out: &mut String) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_float(f: f64, out: &mut String) {
    if !f.is_finite() {
        out.push_str("null");
    } else if f == f.trunc() {
        if f.abs() < 1e15 {
            // Keep a decimal point so the value parses back as a float.
            out.push_str(&format!("{f:.1}"));
        } else {
            // Exponent form keeps huge integral floats re-parsing as
            // floats (plain digits would read back as an integer — or
            // overflow i64 entirely).
            out.push_str(&format!("{f:e}"));
        }
    } else {
        // Rust's shortest-roundtrip formatting: parses back bit-identical.
        out.push_str(&f.to_string());
    }
}

pub(crate) fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns [`Error`] on malformed input or trailing garbage.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON document"));
    }
    Ok(value)
}

/// Nesting cap for both parsers: deep enough for any real document, small
/// enough that hostile input (`[[[[…`) errors instead of blowing the
/// stack through per-level recursion.
pub(crate) const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> Error {
        let line = self.bytes[..self.pos.min(self.bytes.len())]
            .iter()
            .filter(|&&b| b == b'\n')
            .count()
            + 1;
        Error::new(format!("JSON line {line}: {}", message.into()))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", byte as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        if self.depth > MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = match self.peek() {
            Some(b'{') => self.parse_table(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'n') => self.parse_keyword("null", Value::Unit),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => Err(self.err("expected a value")),
        };
        self.depth -= 1;
        value
    }

    fn parse_keyword(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{word}`")))
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number bytes"))?;
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| self.err(format!("invalid float `{text}`")))
        } else if let Ok(i) = text.parse::<i64>() {
            Ok(Value::Int(i))
        } else {
            // i64 overflow: a u64-sized unsigned integer (e.g. a seed).
            text.parse::<u64>()
                .map(Value::UInt)
                .map_err(|_| self.err(format!("invalid integer `{text}`")))
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let unit = self.read_hex4(self.pos + 1)?;
                            self.pos += 4;
                            let code = if (0xD800..=0xDBFF).contains(&unit) {
                                // High surrogate: JSON encodes non-BMP
                                // characters as a \uXXXX\uYYYY pair.
                                if self.bytes.get(self.pos + 1..self.pos + 3) != Some(b"\\u") {
                                    return Err(
                                        self.err("high surrogate not followed by a \\u escape")
                                    );
                                }
                                let low = self.read_hex4(self.pos + 3)?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                self.pos += 6;
                                0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                unit
                            };
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("non-scalar \\u escape"))?,
                            );
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().unwrap();
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Reads 4 hex digits starting at `start` (one `\uXXXX` code unit).
    fn read_hex4(&self, start: usize) -> Result<u32, Error> {
        let hex = self
            .bytes
            .get(start..start + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        std::str::from_utf8(hex)
            .ok()
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn parse_table(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Table(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Table(entries));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrips() {
        for text in ["true", "false", "null", "-42", "\"hi \\\"there\\\"\""] {
            let v = parse(text).unwrap();
            assert_eq!(parse(write(&v).trim()).unwrap(), v);
        }
    }

    #[test]
    fn float_formatting_keeps_floats_floats() {
        let v = Value::Float(2.0);
        let text = write(&v);
        assert_eq!(text.trim(), "2.0");
        assert_eq!(parse(&text).unwrap(), v);
        // Shortest-roundtrip path.
        let v = Value::Float(1.947_362_880_1);
        assert_eq!(parse(&write(&v)).unwrap(), v);
    }

    #[test]
    fn nested_structure_roundtrips() {
        let text = r#"{"a": [1, 2.5, {"b": "c"}], "d": {}, "e": []}"#;
        let v = parse(text).unwrap();
        assert_eq!(parse(&write(&v)).unwrap(), v);
    }

    #[test]
    fn compact_form_is_one_line_and_parses_back_identically() {
        let text = r#"{"a": [1, 2.5, {"b": "c\"q"}], "d": {}, "e": [], "f": -3.5}"#;
        let v = parse(text).unwrap();
        let compact = write_compact(&v);
        assert!(!compact.contains('\n'), "{compact}");
        assert_eq!(parse(&compact).unwrap(), v);
        assert_eq!(parse(&compact).unwrap(), parse(&write(&v)).unwrap());
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_fail() {
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap(),
            Value::Str("\u{1F600}".into())
        );
        // A lone high surrogate, or a pair with a bad low half, is invalid.
        assert!(parse(r#""\ud83d""#).is_err());
        assert!(parse(r#""\ud83dA""#).is_err());
    }

    #[test]
    fn hostile_nesting_errors_instead_of_overflowing() {
        let deep = "[".repeat(50_000);
        let err = parse(&deep).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
        // Balanced, so it survives the line joiner and hits the value
        // parser's own depth cap.
        let toml_deep = format!("a = {}{}", "[".repeat(50_000), "]".repeat(50_000));
        let err = crate::toml::parse(&toml_deep).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
        // Unbalanced input is caught even earlier, by the line joiner.
        let err = crate::toml::parse(&format!("a = {}", "[".repeat(50_000))).unwrap_err();
        assert!(err.to_string().contains("unterminated"), "{err}");
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse("{\n  \"a\": oops\n}").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }
}
