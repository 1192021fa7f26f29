//! Property suite for `kg_serve::http::read_request`, the parser a
//! kept-alive connection loops on.
//!
//! 1. **Hostile bytes never panic** — arbitrary byte strings, raw and
//!    built from HTTP-shaped fragments, yield requests or a typed
//!    `HttpError`, and a read loop over them always ends.
//! 2. **Pipelining round-trips** — any sequence of valid requests,
//!    concatenated into one buffer, parses back in order with exact
//!    bodies, then reports `Closed`.
//! 3. **Connection semantics** — `close` and `keep-alive` in any letter
//!    case, HTTP/1.0 defaulting to close, HTTP/1.1 to keep-alive.

use kg_serve::http::{read_request, HttpError, Request};
use proptest::prelude::*;
use std::io::BufReader;

/// Read requests off `bytes` until the first error, which is returned
/// with the requests before it.
fn read_all(bytes: &[u8]) -> (Vec<Request>, HttpError) {
    // A tiny buffer makes every line and body straddle refills.
    let mut reader = BufReader::with_capacity(7, bytes);
    let mut requests = Vec::new();
    loop {
        match read_request(&mut reader) {
            Ok(request) => {
                assert!(
                    requests.len() <= bytes.len(),
                    "more requests than input bytes"
                );
                requests.push(request);
            }
            Err(e) => return (requests, e),
        }
    }
}

/// Flip the letter case of `text` where `flips` says so.
fn recase(text: &str, flips: &[bool]) -> String {
    text.chars()
        .zip(flips.iter().cycle())
        .map(|(c, &flip)| {
            if !flip {
                c
            } else if c.is_ascii_lowercase() {
                c.to_ascii_uppercase()
            } else {
                c.to_ascii_lowercase()
            }
        })
        .collect()
}

const FRAGMENTS: &[&str] = &[
    "GET",
    "POST",
    " ",
    "/",
    "kg",
    "7",
    "?",
    "=",
    "&",
    "HTTP/1.1",
    "HTTP/1.0",
    "HTTP/2",
    "\r\n",
    "\n",
    "content-length:",
    " 3",
    " 99999999999",
    " x",
    "connection:",
    " close",
    " keep-alive",
    "transfer-encoding: chunked",
    ":",
    "{}",
    "\r\n\r\n",
];

/// HTTP-shaped noise: fragments and raw bytes, interleaved.
fn shaped_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec((0..FRAGMENTS.len() + 1, any::<u8>()), 0..64).prop_map(|picks| {
        let mut out = Vec::new();
        for (pick, byte) in picks {
            match FRAGMENTS.get(pick) {
                Some(fragment) => out.extend_from_slice(fragment.as_bytes()),
                None => out.push(byte),
            }
        }
        out
    })
}

/// One valid request: its rendering and what it must parse back to
/// (method, segments, query, body, keep-alive).
#[derive(Debug, Clone)]
struct Valid {
    raw: Vec<u8>,
    method: String,
    segments: Vec<String>,
    query: Vec<(String, String)>,
    body: Vec<u8>,
    keep_alive: bool,
}

const WORDS: &[&str] = &["kg", "7", "estimate", "batch", "admin", "a-b", "x_1"];

fn word() -> impl Strategy<Value = String> {
    (0..WORDS.len()).prop_map(|i| WORDS[i].to_string())
}

fn valid_request() -> impl Strategy<Value = Valid> {
    (
        (0usize..3, prop::collection::vec(word(), 0..4)),
        prop::collection::vec((word(), word()), 0..3),
        prop::collection::vec(any::<u8>(), 0..40),
        (
            any::<bool>(),
            0usize..4,
            prop::collection::vec(any::<bool>(), 12),
        ),
    )
        .prop_map(
            |((method, segments), query, body, (http10, connection, flips))| {
                let method = ["GET", "POST", "DELETE"][method].to_string();
                let mut target = format!("/{}", segments.join("/"));
                if !query.is_empty() {
                    let pairs: Vec<String> =
                        query.iter().map(|(k, v)| format!("{k}={v}")).collect();
                    target.push('?');
                    target.push_str(&pairs.join("&"));
                }
                let version = if http10 { "HTTP/1.0" } else { "HTTP/1.1" };
                let mut raw = format!(
                    "{method} {target} {version}\r\n{}: kg\r\n{}: {}\r\n",
                    recase("host", &flips),
                    recase("content-length", &flips),
                    body.len()
                );
                let keep_alive = match connection {
                    0 => !http10,
                    1 => {
                        raw.push_str(&format!("connection: {}\r\n", recase("close", &flips)));
                        false
                    }
                    2 => {
                        raw.push_str(&format!(
                            "{}: {}\r\n",
                            recase("connection", &flips),
                            recase("keep-alive", &flips)
                        ));
                        true
                    }
                    _ => {
                        raw.push_str("connection: upgrade\r\n");
                        !http10
                    }
                };
                raw.push_str("\r\n");
                let mut raw = raw.into_bytes();
                raw.extend_from_slice(&body);
                Valid {
                    raw,
                    method,
                    segments,
                    query,
                    body,
                    keep_alive,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_parse_or_fail_typed(raw in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = read_all(&raw);
    }

    #[test]
    fn http_shaped_noise_parses_or_fails_typed(raw in shaped_bytes()) {
        let (requests, _) = read_all(&raw);
        let body_bytes: usize = requests.iter().map(|r| r.body.len()).sum();
        prop_assert!(body_bytes <= raw.len(), "bodies outgrew the input");
        for request in &requests {
            prop_assert!(!request.method.is_empty());
        }
    }

    #[test]
    fn pipelined_requests_parse_back_in_order(batch in prop::collection::vec(valid_request(), 1..6)) {
        let wire: Vec<u8> = batch.iter().flat_map(|v| v.raw.clone()).collect();
        let (requests, end) = read_all(&wire);
        prop_assert!(matches!(end, HttpError::Closed), "ended with {:?}", end);
        prop_assert_eq!(requests.len(), batch.len());
        for (got, want) in requests.iter().zip(&batch) {
            prop_assert_eq!(&got.method, &want.method);
            prop_assert_eq!(&got.segments, &want.segments);
            prop_assert_eq!(&got.query, &want.query);
            prop_assert_eq!(&got.body, &want.body);
            prop_assert_eq!(got.keep_alive, want.keep_alive);
        }
    }

    #[test]
    fn connection_header_decides_keep_alive(
        http10 in any::<bool>(),
        option in 0usize..5,
        flips in prop::collection::vec(any::<bool>(), 10),
    ) {
        let version = if http10 { "HTTP/1.0" } else { "HTTP/1.1" };
        let (header, want) = match option {
            0 => (String::new(), !http10),
            1 => (format!("Connection: {}\r\n", recase("close", &flips)), false),
            2 => (format!("connection: {}\r\n", recase("keep-alive", &flips)), true),
            // Both named: close wins.
            3 => (format!("connection: {}, close\r\n", recase("keep-alive", &flips)), false),
            _ => (format!("{}: Upgrade\r\n", recase("connection", &flips)), !http10),
        };
        let raw = format!("GET /healthz {version}\r\n{header}\r\n");
        let request = read_request(&mut raw.as_bytes()).expect("valid request");
        prop_assert_eq!(request.keep_alive, want, "{:?}", raw);
    }
}
