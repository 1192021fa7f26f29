//! Facts about the host and the code under test, recorded with every
//! result.

use crate::replay::digest;
use std::path::Path;
use std::process::Command;

fn first_line(text: &str) -> String {
    text.lines().next().unwrap_or("").trim().to_string()
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| first_line(&String::from_utf8_lossy(&out.stdout)))
}

fn cpuinfo_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Fingerprint of the workspace sources (`Cargo.*` and `crates/**`), for
/// checkouts that are not git repositories.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, files);
                }
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut all = Vec::new();
    for f in files {
        all.extend_from_slice(f.to_string_lossy().as_bytes());
        all.extend_from_slice(&std::fs::read(&f).unwrap_or_default());
    }
    format!("{:016x}", digest(&all))
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// One JSON object: core count, affinity, CPU, kernel, toolchain and the
/// commit under test.
pub fn facts() -> String {
    // The run's own mask is narrowed by pinning; report the mask it was
    // started with.
    let allowed = crate::pin::allowed_cpus();
    let nproc = allowed.len();
    let placement = crate::pin::placement();
    let cpus = |f: fn(&crate::pin::Placement) -> &String| {
        placement
            .as_ref()
            .map_or_else(|| "unpinned".to_string(), |p| f(p).clone())
    };
    let fields = [
        ("client_cpus", cpus(|p| &p.client)),
        ("server_cpus", cpus(|p| &p.server)),
        (
            "affinity",
            allowed
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(","),
        ),
        ("cpu_model", cpuinfo_model()),
        (
            "kernel",
            std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".into(), |s| first_line(&s)),
        ),
        (
            "rustc",
            command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
        ),
        (
            "commit",
            Path::new(".git")
                .exists()
                .then(|| command_line("git", &["rev-parse", "HEAD"]))
                .flatten()
                .unwrap_or_else(|| "unknown".into()),
        ),
        ("source_digest", source_digest()),
    ];
    let mut out = format!("{{\"nproc\":{nproc}");
    for (k, v) in fields {
        out.push_str(&format!(",\"{k}\":\"{}\"", escape(&v)));
    }
    out.push('}');
    out
}
