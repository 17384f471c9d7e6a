//! The load generator's HTTP client: one request per connection over
//! loopback, exactly what `curl` does against `ethpos-server` (which
//! speaks `Connection: close` only). Closed loop, one connection at a
//! time: the next request leaves when the previous reply is complete.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// A complete reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body bytes as text.
    pub body: String,
}

fn exchange(addr: SocketAddr, request: &[u8]) -> io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.write_all(request)?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| bad("no status line"))?;
    let split = raw.find("\r\n\r\n").ok_or_else(|| bad("no header end"))?;
    raw.drain(..split + 4);
    Ok(Response { status, body: raw })
}

/// `GET path`.
///
/// # Errors
///
/// Returns the socket error, or `InvalidData` for a reply that is not
/// HTTP.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<Response> {
    exchange(
        addr,
        format!("GET {path} HTTP/1.1\r\nhost: bench\r\n\r\n").as_bytes(),
    )
}

/// `POST path` with a JSON body.
///
/// # Errors
///
/// Same as [`get`].
pub fn post(addr: SocketAddr, path: &str, body: &str) -> io::Result<Response> {
    exchange(
        addr,
        format!(
            "POST {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\n\
             content-length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

/// The string value of top-level field `key` of a reply object,
/// unescaped — `None` when the field is absent or not a string.
///
/// The server's replies embed a whole document (up to ≈ 1 MB) as one
/// JSON string. The vendored `serde_json` shim decodes such a string in
/// seconds, not milliseconds, so the client reads the one field it
/// needs with this scanner instead. It relies on the reply layout: the
/// fields before `document` (`job`, `kind`, `status`, `artifact`,
/// `cached`) never contain a quoted key themselves.
pub fn string_field(reply: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":\"");
    let start = reply.find(&needle)? + needle.len();
    let mut out = String::new();
    let mut chars = reply[start..].chars();
    let hex4 = |chars: &mut std::str::Chars| -> Option<u32> {
        let digits: String = chars.take(4).collect();
        (digits.len() == 4)
            .then(|| u32::from_str_radix(&digits, 16).ok())
            .flatten()
    };
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                'r' => out.push('\r'),
                'b' => out.push('\u{8}'),
                'f' => out.push('\u{c}'),
                'u' => {
                    let mut code = hex4(&mut chars)?;
                    if (0xD800..0xDC00).contains(&code) {
                        // A surrogate pair: `\uD83D\uDE00`.
                        if chars.next()? != '\\' || chars.next()? != 'u' {
                            return None;
                        }
                        let low = hex4(&mut chars)?;
                        code = 0x10000 + ((code - 0xD800) << 10) + low.checked_sub(0xDC00)?;
                    }
                    out.push(char::from_u32(code)?);
                }
                literal @ ('"' | '\\' | '/') => out.push(literal),
                _ => return None,
            },
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::object;
    use serde_json::Value;

    #[test]
    fn string_field_undoes_what_the_server_writer_escapes() {
        let document = "line one\n\t\"quoted\" back\\slash / bell\u{7} é 😀\r\n";
        let reply = serde_json::to_string(&object([
            ("job", Value::U64(3)),
            ("status", Value::String("done".into())),
            ("document", Value::String(document.into())),
            ("stats", object([])),
        ]))
        .expect("serializes");
        assert_eq!(string_field(&reply, "document").as_deref(), Some(document));
        assert_eq!(string_field(&reply, "status").as_deref(), Some("done"));
        assert_eq!(string_field(&reply, "poll"), None);
        assert_eq!(string_field(&reply, "job"), None, "not a string");
        // Escapes a writer may also use.
        assert_eq!(
            string_field(r#"{"document":"\u00e9\ud83d\ude00\/"}"#, "document").as_deref(),
            Some("é😀/")
        );
        assert_eq!(
            string_field(r#"{"document":"unterminated"#, "document"),
            None
        );
    }
}
