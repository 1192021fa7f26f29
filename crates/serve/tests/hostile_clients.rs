//! Hostile-client regressions: slowloris dribbles, oversized payloads,
//! peers that never read, load shedding, and the same abuse on the
//! second exchange of a kept-alive connection. Every scenario must
//! terminate within the configured deadlines with the right status, and
//! the registry must stay consistent throughout.

mod common;

use common::{counter, KeptAlive};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

const READ_TIMEOUT_MS: u64 = 400;

struct Server {
    child: Child,
    addr: String,
    #[allow(dead_code)]
    lines: std::io::Lines<BufReader<ChildStdout>>,
}

impl Server {
    fn spawn(extra_args: &[&str]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_kg-serve"))
            .args([
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--read-timeout-ms",
                &READ_TIMEOUT_MS.to_string(),
                "--write-timeout-ms",
                &READ_TIMEOUT_MS.to_string(),
            ])
            .args(extra_args)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn kg-serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let line = lines
            .next()
            .expect("kg-serve announces its address")
            .expect("readable stdout");
        let addr = line
            .strip_prefix("LISTENING ")
            .unwrap_or_else(|| panic!("unexpected announcement: {line}"))
            .to_string();
        Server { child, addr, lines }
    }

    fn request(&self, method: &str, path: &str, body: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(&self.addr).expect("connect");
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nhost: kg-serve\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
            body.len()
        )
        .expect("send request");
        read_status_and_body(stream)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn read_status_and_body(mut stream: TcpStream) -> (u16, String) {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("client read timeout");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn register_spec() -> String {
    let sizes: Vec<String> = (0..60).map(|i| (1 + i % 5).to_string()).collect();
    format!(
        r#"{{"kind":"reservoir","capacity":30,"m":4,"seed":7,"oracle_accuracy":0.9,"oracle_seed":2,"base_sizes":[{}]}}"#,
        sizes.join(",")
    )
}

/// Deadline bound every hostile exchange must respect: the server's read
/// deadline plus generous slack for process scheduling.
fn deadline() -> Duration {
    Duration::from_millis(READ_TIMEOUT_MS * 10)
}

#[test]
fn hostile_clients_are_bounded_and_do_not_wedge_the_server() {
    let server = Server::spawn(&[]);
    // A real tenant registered before the abuse; it must survive intact.
    let (status, body) = server.request("POST", "/kg", &register_spec());
    assert_eq!(status, 200, "{body}");

    // 1. Partial request line, then silence: 408 within the deadline.
    let start = Instant::now();
    let mut stream = TcpStream::connect(&server.addr).unwrap();
    stream.write_all(b"GET /hea").unwrap();
    let (status, _) = read_status_and_body(stream);
    assert_eq!(status, 408, "silent partial request line");
    assert!(start.elapsed() < deadline(), "{:?}", start.elapsed());

    // 2. Header dribble: one header byte per 50ms forever. A per-read
    //    timeout would never fire; the whole-exchange deadline must.
    let start = Instant::now();
    let mut stream = TcpStream::connect(&server.addr).unwrap();
    stream.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
    let reader = stream.try_clone().unwrap();
    let dribbler = std::thread::spawn(move || {
        for b in b"x-slow: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
            .iter()
            .cycle()
        {
            if stream.write_all(std::slice::from_ref(b)).is_err() {
                return; // server gave up on us — mission accomplished
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    });
    let (status, _) = read_status_and_body(reader);
    assert_eq!(status, 408, "header dribble");
    assert!(start.elapsed() < deadline(), "{:?}", start.elapsed());
    dribbler.join().unwrap();

    // 3. Oversized declared body: 413 immediately, nothing read.
    let mut stream = TcpStream::connect(&server.addr).unwrap();
    stream
        .write_all(b"POST /kg HTTP/1.1\r\ncontent-length: 99999999999\r\n\r\n")
        .unwrap();
    let (status, _) = read_status_and_body(stream);
    assert_eq!(status, 413, "oversized declared body");

    // 4. Oversized request line: 413, not an unbounded buffer.
    let mut stream = TcpStream::connect(&server.addr).unwrap();
    let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(64 * 1024));
    stream.write_all(long.as_bytes()).unwrap();
    let (status, _) = read_status_and_body(stream);
    assert_eq!(status, 413, "oversized request line");

    // 5. Body shorter than content-length, then silence: 408.
    let start = Instant::now();
    let mut stream = TcpStream::connect(&server.addr).unwrap();
    stream
        .write_all(b"POST /kg HTTP/1.1\r\ncontent-length: 1000\r\n\r\n{\"partial\":")
        .unwrap();
    let (status, _) = read_status_and_body(stream);
    assert_eq!(status, 408, "truncated body");
    assert!(start.elapsed() < deadline(), "{:?}", start.elapsed());

    // 6. A peer that sends a valid request but never reads the response:
    //    the write deadline cuts it off; nothing wedges.
    let mut stream = TcpStream::connect(&server.addr).unwrap();
    stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    // Hold the socket open without reading while the server times out.
    std::thread::sleep(Duration::from_millis(100));
    drop(stream);

    // The server is still fully functional and the tenant is untouched.
    let (status, listed) = server.request("GET", "/kg", "");
    assert_eq!(status, 200);
    assert!(listed.contains('1'), "tenant lost after abuse: {listed}");
    let (status, body) = server.request("GET", "/kg/1/estimate", "");
    assert_eq!(status, 200, "{body}");
    let (status, stats) = server.request("GET", "/admin/stats", "");
    assert_eq!(status, 200);
    let timeouts = counter(&stats, "timeouts");
    assert!(timeouts >= 3, "expected ≥3 deadline trips, got {stats}");
}

#[test]
fn load_shedding_answers_503_with_retry_after() {
    // max-in-flight 0 sheds every request deterministically.
    let server = Server::spawn(&["--max-in-flight", "0"]);
    let mut stream = TcpStream::connect(&server.addr).unwrap();
    stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    let mut response = String::new();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.read_to_string(&mut response).unwrap();
    assert!(
        response.starts_with("HTTP/1.1 503 "),
        "wanted shed, got {response}"
    );
    assert!(
        response.to_ascii_lowercase().contains("retry-after: 1"),
        "missing retry-after: {response}"
    );
}

#[test]
fn a_bad_request_mid_connection_answers_close_and_closes() {
    let server = Server::spawn(&[]);
    let mut conn = KeptAlive::connect(&server.addr);
    assert_eq!(conn.exchange("GET", "/healthz", "").status, 200);
    conn.send_raw(b"\x00\x01 garbage\r\n\r\n");
    let response = conn.read_response();
    assert_eq!(
        (response.status, response.connection.as_str()),
        (400, "close")
    );
    assert!(conn.read_to_eof().is_empty(), "bytes after the 400");
}

#[test]
fn an_idle_kept_alive_connection_is_closed_silently() {
    let server = Server::spawn(&[]);
    let (_, before) = server.request("GET", "/admin/stats", "");
    let mut conn = KeptAlive::connect(&server.addr);
    assert_eq!(
        conn.exchange("GET", "/healthz", "").connection,
        "keep-alive"
    );
    let start = Instant::now();
    let rest = conn.read_to_eof();
    let idle = start.elapsed();
    assert!(
        rest.is_empty(),
        "idle close sent {:?}",
        String::from_utf8_lossy(&rest)
    );
    assert!(
        idle >= Duration::from_millis(READ_TIMEOUT_MS / 2) && idle < deadline(),
        "closed after {idle:?}, read timeout {READ_TIMEOUT_MS} ms"
    );
    let (_, after) = server.request("GET", "/admin/stats", "");
    assert_eq!(
        counter(&after, "timeouts"),
        counter(&before, "timeouts"),
        "idleness is not a timeout: {after}"
    );
}

#[test]
fn a_slowloris_second_request_is_answered_408() {
    let server = Server::spawn(&[]);
    let mut conn = KeptAlive::connect(&server.addr);
    assert_eq!(conn.exchange("GET", "/healthz", "").status, 200);
    let mut writer = conn.writer.try_clone().unwrap();
    let start = Instant::now();
    let dribbler = std::thread::spawn(move || {
        for b in b"GET /healthz HTTP/1.1\r\nx-slow: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"
            .iter()
            .cycle()
        {
            if writer.write_all(std::slice::from_ref(b)).is_err() {
                return; // the server gave up on us
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    });
    let response = conn.read_response();
    assert_eq!(
        (response.status, response.connection.as_str()),
        (408, "close")
    );
    assert!(start.elapsed() < deadline(), "{:?}", start.elapsed());
    dribbler.join().unwrap();
}
