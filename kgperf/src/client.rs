//! A single-threaded HTTP/1.1 client that is ready for keep-alive: it
//! never asks the server to close, reads each response by
//! `content-length`, and reconnects only after the server answers
//! `connection: close`.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One response.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    /// Response bytes on the wire, head included.
    pub bytes: usize,
}

impl Response {
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    /// TCP connections opened so far.
    pub connects: u64,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Self {
        Client {
            addr,
            stream: None,
            buf: Vec::with_capacity(64 * 1024),
            connects: 0,
        }
    }

    /// Send one rendered request and read its response.
    pub fn exchange(&mut self, raw: &[u8]) -> io::Result<Response> {
        if let Some(stream) = self.stream.take() {
            // A reused connection the server has since closed fails before
            // any response byte arrives; only then resend on a fresh one.
            match self.exchange_on(stream, raw) {
                Err(_) if self.buf.is_empty() => {}
                other => return other,
            }
        }
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        self.connects += 1;
        self.exchange_on(stream, raw)
    }

    fn exchange_on(&mut self, mut stream: TcpStream, raw: &[u8]) -> io::Result<Response> {
        self.buf.clear();
        stream.write_all(raw)?;
        let head_end = loop {
            if let Some(pos) = find(&self.buf, b"\r\n\r\n") {
                break pos + 4;
            }
            read_more(&mut stream, &mut self.buf)?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| bad("response head is not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = None;
        let mut close = false;
        for line in lines {
            if let Some((name, value)) = line.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.parse::<usize>().ok();
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.eq_ignore_ascii_case("close");
                }
            }
        }
        let length = length.ok_or_else(|| bad("response without content-length"))?;
        while self.buf.len() < head_end + length {
            read_more(&mut stream, &mut self.buf)?;
        }
        let body = self.buf[head_end..head_end + length].to_vec();
        if !close {
            self.stream = Some(stream);
        }
        Ok(Response {
            status,
            body,
            bytes: head_end + length,
        })
    }
}

fn bad(what: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

fn read_more(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<()> {
    let mut chunk = [0u8; 16 * 1024];
    let n = stream.read(&mut chunk)?;
    if n == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed mid-response",
        ));
    }
    buf.extend_from_slice(&chunk[..n]);
    Ok(())
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// The raw text of a top-level field of a flat JSON object: a string's
/// contents, or a number's digits.
pub fn json_field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let rest = &body[body.find(&tag)? + tag.len()..];
    if let Some(s) = rest.strip_prefix('"') {
        return Some(&s[..s.find('"')?]);
    }
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_fields_are_extracted_raw() {
        let body = r#"{"mean":0.5,"mean_bits":"3fe0000000000000","units":42}"#;
        assert_eq!(json_field(body, "mean_bits"), Some("3fe0000000000000"));
        assert_eq!(json_field(body, "units"), Some("42"));
        assert_eq!(json_field(body, "mean"), Some("0.5"));
        assert_eq!(json_field(body, "var_bits"), None);
    }
}
