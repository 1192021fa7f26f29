//! Building, spawning, measuring and draining the release `kg-serve`
//! binary of the checkout the benchmark runs in.

use crate::client::Client;
use crate::script::http_request;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// Build `kg-serve` in release mode from the workspace in the current
/// directory and return the binary's path.
pub fn build() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "kg-serve",
            "--bin",
            "kg-serve",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building kg-serve failed: {status}"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let bin = Path::new(&target).join("release").join("kg-serve");
    if !bin.is_file() {
        return Err(format!("no kg-serve binary at {}", bin.display()));
    }
    Ok(bin)
}

/// A running `kg-serve` child. Dropping it kills the process and waits
/// for it, so no error path leaves a server behind.
pub struct Server {
    child: Child,
    /// Held open so the server's `DRAINED` line has a reader.
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawn the binary on an ephemeral loopback port, on the server's
    /// CPUs when the run is pinned, and wait for its `LISTENING` line.
    pub fn spawn(bin: &Path, extra: &[String]) -> Result<Server, String> {
        let mut command = match &crate::pin::placement() {
            Some(p) => {
                let mut taskset = Command::new("taskset");
                taskset.args(["-c", &p.server]).arg(bin);
                taskset
            }
            None => Command::new(bin),
        };
        let mut child = command
            .args(["--addr", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = Server {
            child,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        server
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading the LISTENING line: {e}"))?;
        server.addr = line
            .trim()
            .strip_prefix("LISTENING ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("kg-serve announced {line:?}, not LISTENING <addr>"))?;
        Ok(server)
    }

    /// The process's peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .ok_or_else(|| format!("no VmHWM in {path}"))?;
        Ok(kb / 1024.0)
    }

    /// Drain over HTTP and wait for the process to exit.
    pub fn drain(mut self) -> Result<(), String> {
        let response = Client::new(self.addr)
            .exchange(&http_request("POST", "/admin/drain", ""))
            .map_err(|e| format!("drain request: {e}"))?;
        if response.status != 200 {
            return Err(format!("drain answered {}", response.status));
        }
        let mut line = String::new();
        let _ = self.stdout.read_line(&mut line);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("kg-serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => thread::sleep(Duration::from_millis(2)),
                Ok(None) => return Err("kg-serve did not exit after draining".into()),
                Err(e) => return Err(format!("waiting for kg-serve: {e}")),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
