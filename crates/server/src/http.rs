//! A deliberately minimal HTTP/1.1 layer: enough for a localhost
//! experiment service, nothing more.
//!
//! The build environment has no crates.io access (see
//! `vendor/README.md`), so like the vendored serde shims this
//! implements exactly the subset the service uses: one request per
//! connection (`Connection: close`), a request line, headers,
//! `Content-Length`-framed bodies. No chunked encoding, no keep-alive,
//! no TLS — callers needing those should put a reverse proxy in front.

use std::io::{self, BufRead, BufReader, Read};

/// Hard cap on the header block (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Hard cap on a request body. Requests are small spec JSON; a megabyte
/// is already generous.
pub(crate) const MAX_BODY_BYTES: usize = 1024 * 1024;

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Request {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// The request target (path + optional query), as sent.
    pub path: String,
    /// The body, if a `Content-Length` was supplied.
    pub body: String,
}

/// Why a connection's bytes never became a [`Request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum HttpError {
    /// Malformed request line, header, or framing — answer 400.
    Malformed(String),
    /// Body (declared or actual) above [`MAX_BODY_BYTES`] — answer 413.
    BodyTooLarge,
    /// The socket's read timeout expired mid-request; nothing to
    /// answer.
    TimedOut,
    /// Socket-level failure; nothing to answer.
    Io(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(msg) => write!(f, "malformed request: {msg}"),
            HttpError::BodyTooLarge => write!(f, "request body too large"),
            HttpError::TimedOut => write!(f, "timed out"),
            HttpError::Io(msg) => write!(f, "i/o error: {msg}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Whether a socket call gave up at its read or write timeout (Unix
/// reports `WouldBlock`, Windows `TimedOut`).
pub(crate) fn timed_out(error: &io::Error) -> bool {
    matches!(
        error.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn io_error(error: io::Error) -> HttpError {
    if timed_out(&error) {
        HttpError::TimedOut
    } else {
        HttpError::Io(error.to_string())
    }
}

/// Reads one request off the stream.
///
/// # Errors
///
/// Returns an [`HttpError`] on malformed framing, an oversized head or
/// body, a non-UTF-8 head or body, or a socket failure.
pub(crate) fn read_request(stream: &mut impl Read) -> Result<Request, HttpError> {
    let mut reader = BufReader::new(stream);
    let mut head = Vec::new();
    loop {
        // The cap holds while reading: a line never pulls more than the
        // head has room left for, plus the blank line that ends it.
        let start = head.len();
        let room = (MAX_HEAD_BYTES + 2 - start) as u64;
        let n = (&mut reader)
            .take(room)
            .read_until(b'\n', &mut head)
            .map_err(io_error)?;
        if n == 0 {
            return Err(HttpError::Malformed("connection closed mid-head".into()));
        }
        if head[start..] == *b"\r\n" || head[start..] == *b"\n" {
            head.truncate(start);
            break;
        }
        if head.len() > MAX_HEAD_BYTES {
            return Err(HttpError::Malformed("head too large".into()));
        }
    }
    let head =
        String::from_utf8(head).map_err(|_| HttpError::Malformed("head is not UTF-8".into()))?;
    let mut lines = head.lines();
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request".into()))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing method".into()))?
        .to_uppercase();
    let path = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing path".into()))?
        .to_string();

    let mut content_length = 0usize;
    for header in lines {
        let Some((name, value)) = header.split_once(':') else {
            return Err(HttpError::Malformed(format!("bad header `{header}`")));
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| HttpError::Malformed("bad content-length".into()))?;
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::BodyTooLarge);
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(io_error)?;
    let body =
        String::from_utf8(body).map_err(|_| HttpError::Malformed("body is not UTF-8".into()))?;
    Ok(Request { method, path, body })
}

/// A complete `Connection: close` response, head then body.
pub(crate) fn response_bytes(status: u16, content_type: &str, body: &str) -> Vec<u8> {
    let reason = match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        _ => "Internal Server Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\ncontent-type: {content_type}\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    );
    [head.as_bytes(), body.as_bytes()].concat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    /// Round-trips raw bytes through a real socket pair and parses them.
    fn parse(raw: &str) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let raw = raw.to_string();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(raw.as_bytes()).expect("write");
        });
        let (mut conn, _) = listener.accept().expect("accept");
        let parsed = read_request(&mut conn);
        writer.join().expect("writer");
        parsed
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse("POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody")
            .expect("parses");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/jobs");
        assert_eq!(req.body, "body");
    }

    #[test]
    fn parses_a_bodyless_get() {
        let req = parse("GET /healthz HTTP/1.1\r\n\r\n").expect("parses");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert_eq!(req.body, "");
    }

    #[test]
    fn rejects_garbage_and_oversized_declarations() {
        assert!(matches!(parse("\r\n\r\n"), Err(HttpError::Malformed(_))));
        assert!(matches!(
            parse("POST /v1/jobs HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(&format!(
                "POST /v1/jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY_BYTES + 1
            )),
            Err(HttpError::BodyTooLarge)
        ));
    }

    /// A reader that counts the bytes pulled out of it.
    struct Counting<R> {
        inner: R,
        pulled: usize,
    }

    impl<R: Read> Read for Counting<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.pulled += n;
            Ok(n)
        }
    }

    #[test]
    fn an_endless_head_is_cut_off_at_the_cap() {
        // 1 MiB with no newline: rejected after reading at most the cap
        // plus one `BufReader` buffer, not buffered whole.
        let mut endless = Counting {
            inner: std::io::repeat(b'a').take(1 << 20),
            pulled: 0,
        };
        assert_eq!(
            read_request(&mut endless),
            Err(HttpError::Malformed("head too large".into()))
        );
        assert!(
            endless.pulled <= MAX_HEAD_BYTES + 8 * 1024,
            "{}",
            endless.pulled
        );

        // Many short header lines trip the same cap.
        let mut lines = "GET / HTTP/1.1\r\n".to_string();
        lines.push_str(&"x: y\r\n".repeat(MAX_HEAD_BYTES / 6 + 1));
        lines.push_str("\r\n");
        assert_eq!(
            read_request(&mut lines.as_bytes()),
            Err(HttpError::Malformed("head too large".into()))
        );

        // A head exactly at the cap still parses, body and all.
        let request_line = "POST /v1/jobs HTTP/1.1\r\ncontent-length: 4\r\n";
        let filler = MAX_HEAD_BYTES - request_line.len() - "x: \r\n".len();
        let raw = format!("{request_line}x: {}\r\n\r\nbody", "f".repeat(filler));
        let req = read_request(&mut raw.as_bytes()).expect("a full head parses");
        assert_eq!((req.path.as_str(), req.body.as_str()), ("/v1/jobs", "body"));
        let over = format!("{request_line}x: {}f\r\n\r\nbody", "f".repeat(filler));
        assert_eq!(
            read_request(&mut over.as_bytes()),
            Err(HttpError::Malformed("head too large".into()))
        );
    }

    /// Pieces of junk lines: request-shaped fragments beside the raw
    /// bytes the generator splices between them.
    const PIECES: [&[u8]; 10] = [
        b"GET ",
        b"/v1/jobs",
        b" HTTP/1.1",
        b"\n",
        b":",
        b"content-length",
        "\u{e9}\u{df}".as_bytes(),
        b"\xff",
        b"\xc3",
        &[b'f'; 9000], // two of these overflow the head cap
    ];
    /// Declared body lengths, the cap's neighbours among them.
    const LENGTHS: [&str; 8] = [
        "0",
        "4",
        "1048576",
        "1048577",
        "18446744073709551616",
        "-1",
        " 4 ",
        "4x",
    ];

    /// One junk line: pieces, where an index past [`PIECES`] stands for
    /// its raw byte.
    fn junk(line: &[(usize, u8)]) -> Vec<u8> {
        line.iter()
            .flat_map(|&(k, byte)| PIECES.get(k).map_or(vec![byte], |piece| piece.to_vec()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Whatever bytes arrive, the parser returns instead of
        /// panicking, and a request it accepts keeps the body cap and an
        /// upper-case method. Inputs are mostly request-shaped — a request
        /// line, `Content-Length` headers, junk lines, a body, sometimes
        /// one byte over the cap — so they reach every branch.
        #[test]
        fn arbitrary_bytes_never_panic_the_parser(
            start in 0usize..3,
            first in proptest::collection::vec((0..2 * PIECES.len(), any::<u8>()), 0..6),
            headers in proptest::collection::vec(
                (
                    0usize..4,
                    0..LENGTHS.len(),
                    proptest::collection::vec((0..2 * PIECES.len(), any::<u8>()), 0..4),
                ),
                0..4,
            ),
            body in proptest::collection::vec(0u8..136, 0..8),
            over in 0u8..4,
        ) {
            let mut bytes = match start {
                0 => b"POST /v1/jobs HTTP/1.1".to_vec(),
                1 => b"get /healthz".to_vec(),
                _ => junk(&first),
            };
            for (kind, length, line) in &headers {
                bytes.extend_from_slice(b"\r\n");
                match kind {
                    0 => bytes.extend_from_slice(format!("Content-Length: {}", LENGTHS[*length]).as_bytes()),
                    1 => bytes.extend_from_slice(format!("content-length:{}", LENGTHS[*length]).as_bytes()),
                    2 => bytes.extend_from_slice(&[b"x-pad: ".as_slice(), &junk(line)].concat()),
                    _ => bytes.extend_from_slice(&junk(line)),
                }
            }
            bytes.extend_from_slice(b"\r\n\r\n");
            bytes.extend_from_slice(&body);
            if over == 0 {
                bytes.resize(bytes.len() + MAX_BODY_BYTES + 1, b'b');
            }
            if let Ok(request) = read_request(&mut bytes.as_slice()) {
                prop_assert!(request.body.len() <= MAX_BODY_BYTES);
                prop_assert_eq!(request.method.to_uppercase(), request.method.clone());
            }
        }
    }

    #[test]
    fn a_response_is_its_head_then_its_body() {
        let bytes = response_bytes(404, "text/plain", "gone\n");
        assert_eq!(
            String::from_utf8(bytes).expect("utf-8"),
            "HTTP/1.1 404 Not Found\r\ncontent-type: text/plain\r\n\
             content-length: 5\r\nconnection: close\r\n\r\ngone\n"
        );
    }
}
