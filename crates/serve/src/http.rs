//! Hand-rolled HTTP/1.1 subset over std TCP: request parsing with strict
//! limits, and persistent connections (RFC 9112 §9.3). Enough for the
//! kg-serve API; deliberately nothing more (no chunked encoding, no TLS).
//!
//! A connection stays open across exchanges unless the request opts out:
//! [`Request::keep_alive`] is false for `Connection: close`, and for
//! HTTP/1.0 without `Connection: keep-alive`. [`read_request`] consumes
//! exactly one request, so pipelined bytes stay in the caller's buffer
//! for the next call. [`write_response`] says `connection: close` or
//! `connection: keep-alive` accordingly.
//!
//! Hostile-client hardening lives here too: [`DeadlineStream`] enforces a
//! *whole-exchange* read deadline (a slowloris dribbling one byte per
//! second trips it just as surely as a silent peer), re-armed for each
//! exchange of a kept-alive connection, and the size caps surface as
//! [`HttpError::TooLarge`] so the server can answer 413.

use std::io::{self, BufRead, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Maximum bytes of request line + headers.
const MAX_HEAD: usize = 16 * 1024;
/// Maximum request body (a restore payload for a large session).
const MAX_BODY: usize = 64 * 1024 * 1024;

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// Decoded path segments (`/kg/7/estimate` → `["kg", "7", "estimate"]`).
    pub segments: Vec<String>,
    /// Query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// Raw body bytes.
    pub body: Vec<u8>,
    /// Whether the client lets the connection carry another exchange:
    /// false after `Connection: close`, and for HTTP/1.0 unless it sent
    /// `Connection: keep-alive`.
    pub keep_alive: bool,
}

impl Request {
    /// First query value under `key`.
    pub fn query_value(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed before sending a complete request line.
    Closed,
    /// Transport failure.
    Io(io::Error),
    /// The request violated the supported subset; respond 400 with this
    /// message.
    Bad(&'static str),
    /// The request exceeded a size cap; respond 413 with this message.
    TooLarge(&'static str),
}

impl HttpError {
    /// Whether the failure was a read-deadline expiry (respond 408).
    pub fn is_timeout(&self) -> bool {
        matches!(self, HttpError::Io(e) if e.kind() == io::ErrorKind::TimedOut)
    }
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Read one request. Nothing after its body is consumed, so the next
/// pipelined request is still in `stream` for the next call.
pub fn read_request(stream: &mut impl BufRead) -> Result<Request, HttpError> {
    let mut head = 0usize;
    let mut line = String::new();
    if stream.read_line(&mut line)? == 0 {
        return Err(HttpError::Closed);
    }
    head += line.len();
    if head > MAX_HEAD {
        return Err(HttpError::TooLarge("request line too long"));
    }
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or(HttpError::Bad("missing method"))?
        .to_string();
    let target = parts
        .next()
        .ok_or(HttpError::Bad("missing target"))?
        .to_string();
    let http10 = match parts.next() {
        Some("HTTP/1.1") => false,
        Some("HTTP/1.0") => true,
        _ => return Err(HttpError::Bad("unsupported HTTP version")),
    };

    let mut content_length = 0usize;
    let (mut close, mut keep) = (false, false);
    loop {
        let mut header = String::new();
        if stream.read_line(&mut header)? == 0 {
            return Err(HttpError::Bad("connection closed mid-headers"));
        }
        head += header.len();
        if head > MAX_HEAD {
            return Err(HttpError::TooLarge("headers too long"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| HttpError::Bad("bad content-length"))?;
                if content_length > MAX_BODY {
                    return Err(HttpError::TooLarge("body too large"));
                }
            }
            if name.eq_ignore_ascii_case("transfer-encoding") {
                return Err(HttpError::Bad("chunked bodies unsupported"));
            }
            if name.eq_ignore_ascii_case("connection") {
                for option in value.split(',').map(str::trim) {
                    close |= option.eq_ignore_ascii_case("close");
                    keep |= option.eq_ignore_ascii_case("keep-alive");
                }
            }
        }
    }

    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body)?;

    let (path, query_text) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target.as_str(), ""),
    };
    let segments = path
        .split('/')
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    let query = query_text
        .split('&')
        .filter(|s| !s.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (pair.to_string(), String::new()),
        })
        .collect();
    Ok(Request {
        method,
        segments,
        query,
        body,
        keep_alive: !close && (keep || !http10),
    })
}

/// Standard reason phrase for the statuses the API uses.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Write one JSON response, head and body in a single `write_all` so a
/// small response leaves as one segment (split writes on a kept-alive
/// socket meet Nagle and delayed ACKs: ~40 ms stalls). `keep_alive`
/// picks the `connection` header; extra headers carry e.g. `Retry-After`
/// on a load-shed 503.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    extra_headers: &[(&str, &str)],
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let mut out = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {}\r\n",
        status,
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in extra_headers {
        out.push_str(name);
        out.push_str(": ");
        out.push_str(value);
        out.push_str("\r\n");
    }
    out.push_str("\r\n");
    out.push_str(body);
    stream.write_all(out.as_bytes())?;
    stream.flush()
}

/// A [`TcpStream`] reader with a **whole-exchange** deadline: every read
/// re-arms the socket timeout to the time remaining, so a slowloris peer
/// dribbling one byte per timeout window still hits the wall at the
/// deadline (a fixed per-read timeout never would). Expiry surfaces as
/// [`io::ErrorKind::TimedOut`].
pub struct DeadlineStream {
    stream: TcpStream,
    deadline: Instant,
}

impl DeadlineStream {
    /// Wrap `stream`, allowing `budget` from now for the whole exchange.
    pub fn new(stream: TcpStream, budget: Duration) -> Self {
        DeadlineStream {
            stream,
            deadline: Instant::now() + budget,
        }
    }

    /// Start a fresh deadline, `budget` from now: the next exchange on a
    /// kept-alive connection, or the wait for it.
    pub fn rearm(&mut self, budget: Duration) {
        self.deadline = Instant::now() + budget;
    }
}

impl Read for DeadlineStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let now = Instant::now();
        let Some(remaining) = self
            .deadline
            .checked_duration_since(now)
            .filter(|d| !d.is_zero())
        else {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "read deadline exceeded",
            ));
        };
        self.stream.set_read_timeout(Some(remaining))?;
        match self.stream.read(buf) {
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "read deadline exceeded",
                ))
            }
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_target_query_and_body() {
        let req =
            parse("POST /kg/7/batch?units=300&seed=9 HTTP/1.1\r\ncontent-length: 4\r\n\r\nabcd")
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.segments, vec!["kg", "7", "batch"]);
        assert_eq!(req.query_value("units"), Some("300"));
        assert_eq!(req.query_value("seed"), Some("9"));
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn rejects_the_unsupported_subset() {
        assert!(matches!(parse(""), Err(HttpError::Closed)));
        assert!(matches!(parse("GET /\r\n\r\n"), Err(HttpError::Bad(_))));
        assert!(matches!(
            parse("GET / HTTP/2\r\n\r\n"),
            Err(HttpError::Bad(_))
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\ncontent-length: 99999999999\r\n\r\n"),
            Err(HttpError::TooLarge(_))
        ));
        let dribble = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(20 * 1024));
        assert!(matches!(parse(&dribble), Err(HttpError::TooLarge(_))));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n"),
            Err(HttpError::Bad(_))
        ));
    }

    #[test]
    fn deadline_stream_bounds_a_slowloris_dribble() {
        use std::io::BufReader;
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut peer = TcpStream::connect(addr).unwrap();
            // One byte every 25ms beats any 100ms *per-read* timeout
            // forever; the whole-exchange deadline must still fire.
            for chunk in ["G", "E", "T", " ", "/", " ", "H", "T", "T", "P"] {
                if peer.write_all(chunk.as_bytes()).is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(25));
            }
            // Never finish the request line; hold the socket open.
            std::thread::sleep(Duration::from_millis(500));
        });
        let (stream, _) = listener.accept().unwrap();
        let start = Instant::now();
        let mut reader = BufReader::new(DeadlineStream::new(stream, Duration::from_millis(100)));
        let result = read_request(&mut reader);
        let elapsed = start.elapsed();
        assert!(
            matches!(&result, Err(e) if e.is_timeout()),
            "wanted timeout, got {result:?}"
        );
        assert!(
            elapsed < Duration::from_millis(450),
            "deadline did not bound the dribble: {elapsed:?}"
        );
        writer.join().unwrap();
    }

    #[test]
    fn response_is_well_formed() {
        let mut out = Vec::new();
        write_response(&mut out, 404, &[], "{\"error\":\"x\"}", false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("content-length: 13\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("{\"error\":\"x\"}"));

        let mut out = Vec::new();
        write_response(&mut out, 200, &[], "{}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(!text.contains("close"));

        let mut out = Vec::new();
        write_response(&mut out, 503, &[("retry-after", "1")], "{}", false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
