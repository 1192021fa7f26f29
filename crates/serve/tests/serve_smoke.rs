//! Cross-process smoke test: the signature invariant of the serving
//! layer. A monitor driven over HTTP, checkpointed mid-stream, and
//! restored in a **fresh server process** produces byte-identical
//! estimates to the uninterrupted run. Also the connection model:
//! keep-alive, pipelining, and `connection: close` clients.

mod common;

use common::{counter, KeptAlive};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Server {
    child: Child,
    addr: String,
    lines: std::io::Lines<BufReader<ChildStdout>>,
    stdin: Option<ChildStdin>,
}

impl Server {
    fn spawn() -> Server {
        Server::spawn_with(&[], false)
    }

    fn spawn_with(extra_args: &[&str], piped_stdin: bool) -> Server {
        let mut command = Command::new(env!("CARGO_BIN_EXE_kg-serve"));
        command
            .args(["--addr", "127.0.0.1:0", "--workers", "2"])
            .args(extra_args)
            .stdout(Stdio::piped());
        if piped_stdin {
            command.stdin(Stdio::piped());
        }
        let mut child = command.spawn().expect("spawn kg-serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let stdin = child.stdin.take();
        let mut lines = BufReader::new(stdout).lines();
        let line = lines
            .next()
            .expect("kg-serve announces its address")
            .expect("readable stdout");
        let addr = line
            .strip_prefix("LISTENING ")
            .unwrap_or_else(|| panic!("unexpected announcement: {line}"))
            .to_string();
        Server {
            child,
            addr,
            lines,
            stdin,
        }
    }

    /// Close the child's stdin pipe (the `--drain-on-stdin-eof` signal).
    fn close_stdin(&mut self) {
        self.stdin.take();
    }

    /// Wait for the `DRAINED <n>` announcement and process exit; returns
    /// the persisted-session count.
    fn wait_drained(mut self) -> usize {
        let drained = loop {
            let line = self
                .lines
                .next()
                .expect("kg-serve announces the drain before exiting")
                .expect("readable stdout");
            if let Some(n) = line.strip_prefix("DRAINED ") {
                break n.parse().expect("drained count");
            }
        };
        let status = self.child.wait().expect("wait for kg-serve");
        assert!(status.success(), "drained server must exit cleanly");
        drained
    }

    fn request(&self, method: &str, path: &str, body: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(&self.addr).expect("connect");
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nhost: kg-serve\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
            body.len()
        )
        .expect("send request");
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
            .expect("header/body separator")
            .1
            .to_string();
        (status, body)
    }

    fn ok(&self, method: &str, path: &str, body: &str) -> String {
        let (status, body) = self.request(method, path, body);
        assert_eq!(status, 200, "{method} {path}: {body}");
        body
    }

    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Pull a `"key":"value"` string field out of a flat JSON response.
fn str_field(body: &str, key: &str) -> String {
    let tag = format!("\"{key}\":\"");
    let start = body.find(&tag).unwrap_or_else(|| panic!("{key} in {body}")) + tag.len();
    let end = body[start..].find('"').expect("closing quote") + start;
    body[start..end].to_string()
}

fn num_field(body: &str, key: &str) -> String {
    let tag = format!("\"{key}\":");
    let start = body.find(&tag).unwrap_or_else(|| panic!("{key} in {body}")) + tag.len();
    let end = body[start..].find([',', '}']).expect("field terminator") + start;
    body[start..end].to_string()
}

const SPEC: &str = r#"{"kind":"reservoir","capacity":50,"m":5,"seed":20190923,"oracle_accuracy":0.9,"oracle_seed":17,"base_sizes":[SIZES]}"#;

fn spec() -> String {
    let sizes: Vec<String> = (0..300).map(|i| (1 + i % 8).to_string()).collect();
    SPEC.replace("SIZES", &sizes.join(","))
}

/// The scripted stream: inserts and churn, one event per request.
fn stream() -> Vec<(&'static str, String)> {
    vec![
        ("batch", r#"{"batches":[[3,3,3,3,3,3,3,3,3,3,3,3]]}"#.to_string()),
        (
            "events",
            r#"{"events":[{"op":"retract","entries":[{"cluster":301,"offsets":[0,1]}]}]}"#.to_string(),
        ),
        (
            "events",
            r#"{"events":[{"op":"revise","entries":[{"cluster":305,"offsets":[2]}],"sizes":[4,4,4,4,4]}]}"#
                .to_string(),
        ),
        ("batch", r#"{"batches":[[2,2,2,2,2,2,2,2]]}"#.to_string()),
    ]
}

fn estimate_bits(body: &str) -> (String, String, String) {
    (
        str_field(body, "mean_bits"),
        str_field(body, "var_bits"),
        num_field(body, "units"),
    )
}

#[test]
fn checkpoint_kill_restore_is_byte_identical_across_processes() {
    // Uninterrupted reference run.
    let reference = Server::spawn();
    let body = reference.ok("POST", "/kg", &spec());
    let ref_id = num_field(&body, "id");
    let mut want = Vec::new();
    for (endpoint, payload) in stream() {
        let body = reference.ok("POST", &format!("/kg/{ref_id}/{endpoint}"), &payload);
        want.push(estimate_bits(&body));
    }
    let final_reference =
        estimate_bits(&reference.ok("GET", &format!("/kg/{ref_id}/estimate"), ""));
    reference.kill();

    // Interrupted run: two events, checkpoint, kill the process.
    let first = Server::spawn();
    let body = first.ok("POST", "/kg", &spec());
    let id = num_field(&body, "id");
    let mut got = Vec::new();
    for (endpoint, payload) in &stream()[..2] {
        let body = first.ok("POST", &format!("/kg/{id}/{endpoint}"), payload);
        got.push(estimate_bits(&body));
    }
    let checkpoint = str_field(
        &first.ok("POST", &format!("/kg/{id}/checkpoint"), ""),
        "checkpoint",
    );
    first.kill();

    // Fresh process: restore and replay the tail of the stream.
    let second = Server::spawn();
    let body = second.ok(
        "POST",
        "/kg",
        &format!(r#"{{"checkpoint":"{checkpoint}"}}"#),
    );
    let id = num_field(&body, "id");
    for (endpoint, payload) in &stream()[2..] {
        let body = second.ok("POST", &format!("/kg/{id}/{endpoint}"), payload);
        got.push(estimate_bits(&body));
    }
    assert_eq!(got, want, "estimate stream diverged after restore");
    let final_restored = estimate_bits(&second.ok("GET", &format!("/kg/{id}/estimate"), ""));
    assert_eq!(final_restored, final_reference);

    // The audit endpoint works over the evolved population and is
    // deterministic for a fixed seed.
    let a = second.ok("GET", &format!("/kg/{id}/audit?units=300&seed=7"), "");
    let b = second.ok("GET", &format!("/kg/{id}/audit?units=300&seed=7"), "");
    assert_eq!(str_field(&a, "mean_bits"), str_field(&b, "mean_bits"));
    second.kill();
}

#[test]
fn server_survives_hostile_requests() {
    let server = Server::spawn();
    let (status, _) = server.request("POST", "/kg", "not json at all");
    assert_eq!(status, 400);
    let (status, _) = server.request("GET", "/kg/12345/estimate", "");
    assert_eq!(status, 404);
    let (status, _) = server.request("POST", "/kg", r#"{"checkpoint":"00ff00ff"}"#);
    assert_eq!(
        status, 400,
        "garbage checkpoint is a typed 400, not a crash"
    );
    let (status, _) = server.request("DELETE", "/kg", "");
    assert_eq!(status, 404);
    // Raw garbage on the socket.
    let mut stream = TcpStream::connect(&server.addr).expect("connect");
    stream.write_all(b"\x00\x01\x02 garbage\r\n\r\n").unwrap();
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    // And the server still answers.
    let body = server.ok("GET", "/healthz", "");
    assert!(body.contains("true"));
    server.kill();
}

#[test]
fn graceful_drain_and_restart_recover_every_session() {
    let dir = std::env::temp_dir().join(format!("kg-serve-drain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let state = dir.to_str().expect("utf8 temp path").to_string();

    // First life: three tenants, some churn, then an HTTP-triggered drain.
    let first = Server::spawn_with(&["--state-dir", &state], false);
    let mut ids = Vec::new();
    for seed in [1, 2, 3] {
        let body = first.ok(
            "POST",
            "/kg",
            &spec().replace("20190923", &seed.to_string()),
        );
        ids.push(num_field(&body, "id"));
    }
    for id in &ids {
        for (endpoint, payload) in &stream()[..2] {
            first.ok("POST", &format!("/kg/{id}/{endpoint}"), payload);
        }
    }
    let want: Vec<_> = ids
        .iter()
        .map(|id| estimate_bits(&first.ok("GET", &format!("/kg/{id}/estimate"), "")))
        .collect();
    let body = first.ok("POST", "/admin/drain", "");
    assert!(body.contains("true"), "{body}");
    assert_eq!(first.wait_drained(), 3, "drain must checkpoint all tenants");

    // Second life: everything is back, byte-identical, and still serving.
    let mut second = Server::spawn_with(&["--state-dir", &state, "--drain-on-stdin-eof"], true);
    let listed = second.ok("GET", "/kg", "");
    for id in &ids {
        assert!(
            listed.contains(id.as_str()),
            "session {id} missing after restart: {listed}"
        );
    }
    let got: Vec<_> = ids
        .iter()
        .map(|id| estimate_bits(&second.ok("GET", &format!("/kg/{id}/estimate"), "")))
        .collect();
    assert_eq!(got, want, "restart changed served estimates");
    // The revived tenants still advance their streams.
    for id in &ids {
        let (endpoint, payload) = &stream()[2];
        second.ok("POST", &format!("/kg/{id}/{endpoint}"), payload);
    }
    // Second drain signal: stdin EOF (the process-signal stand-in).
    second.close_stdin();
    assert_eq!(second.wait_drained(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_kept_alive_socket_carries_a_hundred_exchanges() {
    let server = Server::spawn();
    let before = server.ok("GET", "/admin/stats", "");
    let mut conn = KeptAlive::connect(&server.addr);
    for _ in 0..99 {
        let response = conn.exchange("GET", "/healthz", "");
        assert_eq!(response.status, 200, "{response:?}");
        assert_eq!(response.connection, "keep-alive");
    }
    let after = conn.exchange("GET", "/admin/stats", "");
    assert_eq!(after.status, 200);
    assert_eq!(
        counter(&after.body, "accepted"),
        counter(&before, "accepted") + 1,
        "one connection: {after:?}"
    );
    assert_eq!(
        counter(&after.body, "exchanges"),
        counter(&before, "exchanges") + 100,
        "a hundred exchanges: {after:?}"
    );
    server.kill();
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let server = Server::spawn();
    let mut conn = KeptAlive::connect(&server.addr);
    let both =
        common::request("GET", "/healthz", "") + &common::request("GET", "/kg/77/estimate", "");
    conn.send_raw(both.as_bytes());
    let first = conn.read_response();
    let second = conn.read_response();
    assert_eq!(
        (first.status, second.status),
        (200, 404),
        "{first:?} {second:?}"
    );
    assert!(first.body.contains("true"), "{first:?}");
    // The connection is still open for a third.
    assert_eq!(conn.exchange("GET", "/healthz", "").status, 200);
    server.kill();
}

#[test]
fn close_clients_get_exactly_one_exchange_per_connection() {
    let server = Server::spawn();
    let before = server.ok("GET", "/admin/stats", "");
    // A `connection: close` request with a second one pipelined behind
    // it: only the first is answered, then the server closes.
    let mut conn = KeptAlive::connect(&server.addr);
    let close = "GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n";
    conn.send_raw(format!("{close}{}", common::request("GET", "/healthz", "")).as_bytes());
    let response = conn.read_response();
    assert_eq!(
        (response.status, response.connection.as_str()),
        (200, "close")
    );
    assert!(
        conn.read_to_eof().is_empty(),
        "answered past connection: close"
    );
    // HTTP/1.0 closes by default.
    let mut conn = KeptAlive::connect(&server.addr);
    conn.send_raw(b"GET /healthz HTTP/1.0\r\n\r\n");
    assert_eq!(conn.read_response().connection, "close");
    assert!(conn.read_to_eof().is_empty());
    for _ in 0..3 {
        server.ok("GET", "/healthz", "");
    }
    let after = server.ok("GET", "/admin/stats", "");
    // Two raw connections, three close requests, and this stats read.
    for key in ["accepted", "exchanges"] {
        assert_eq!(
            counter(&after, key),
            counter(&before, key) + 6,
            "{key}: {after}"
        );
    }
    server.kill();
}

#[test]
fn drain_closes_idle_kept_alive_connections_without_waiting() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let config = kg_serve::ServerConfig {
        read_timeout: Duration::from_secs(5),
        ..kg_serve::ServerConfig::default()
    };
    let registry = Arc::new(kg_eval::session::SessionRegistry::new());
    let server = kg_serve::Server::start(listener, registry, config, None).expect("start");
    let addr = server.addr().to_string();
    let mut idle = KeptAlive::connect(&addr);
    assert_eq!(
        idle.exchange("GET", "/healthz", "").connection,
        "keep-alive"
    );
    let start = Instant::now();
    let outcome = server.drain();
    let elapsed = start.elapsed();
    assert_eq!(outcome.stragglers, 0, "an idle connection is no straggler");
    assert!(
        elapsed < Duration::from_secs(1),
        "drain waited on an idle connection: {elapsed:?}"
    );
    assert!(idle.read_to_eof().is_empty(), "idle connection got bytes");
}
