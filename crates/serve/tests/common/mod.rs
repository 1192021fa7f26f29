//! A kept-alive client for the serve tests: requests without
//! `connection: close`, responses read by `content-length`. Each test
//! binary uses part of it.

#![allow(dead_code)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One response: status, its `connection` header, body.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub connection: String,
    pub body: String,
}

/// A socket that carries request after request.
pub struct KeptAlive {
    pub reader: BufReader<TcpStream>,
    pub writer: TcpStream,
}

impl KeptAlive {
    pub fn connect(addr: &str) -> KeptAlive {
        let writer = TcpStream::connect(addr).expect("connect");
        writer
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("client read timeout");
        let reader = BufReader::new(writer.try_clone().expect("clone socket"));
        KeptAlive { reader, writer }
    }

    /// Send raw bytes as they are.
    pub fn send_raw(&mut self, bytes: &[u8]) {
        self.writer.write_all(bytes).expect("send");
    }

    /// Send one keep-alive request without waiting for its answer.
    pub fn send(&mut self, method: &str, path: &str, body: &str) {
        self.send_raw(request(method, path, body).as_bytes());
    }

    /// Send one request and read its response.
    pub fn exchange(&mut self, method: &str, path: &str, body: &str) -> Response {
        self.send(method, path, body);
        self.read_response()
    }

    /// Read the next response by its `content-length`.
    pub fn read_response(&mut self) -> Response {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("status line");
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad status line {line:?}"));
        let (mut length, mut connection) = (0usize, String::new());
        loop {
            let mut header = String::new();
            self.reader.read_line(&mut header).expect("header line");
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            let (name, value) = header.split_once(':').expect("name: value");
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse().expect("numeric content-length");
            } else if name.eq_ignore_ascii_case("connection") {
                connection = value.trim().to_ascii_lowercase();
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body).expect("body");
        Response {
            status,
            connection,
            body: String::from_utf8(body).expect("utf8 body"),
        }
    }

    /// Read until the server closes; returns what arrived before EOF.
    pub fn read_to_eof(&mut self) -> Vec<u8> {
        let mut rest = Vec::new();
        self.reader.read_to_end(&mut rest).expect("read to EOF");
        rest
    }
}

/// A request without `connection: close`.
pub fn request(method: &str, path: &str, body: &str) -> String {
    format!(
        "{method} {path} HTTP/1.1\r\nhost: kg-serve\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// A numeric field of a flat JSON object.
pub fn counter(body: &str, key: &str) -> u64 {
    let tag = format!("\"{key}\":");
    let start = body.find(&tag).unwrap_or_else(|| panic!("{key} in {body}")) + tag.len();
    let end = body[start..].find([',', '}']).expect("field terminator") + start;
    body[start..end].trim().parse().expect("numeric field")
}
