//! CPU placement. On a host with two or more allowed CPUs the client
//! runs on the first and the server on the rest, so scheduler migrations
//! between the two do not add run-to-run noise. Placement uses the
//! `taskset` tool; without it, or on one CPU, nothing is pinned.

use std::process::{exit, Command};

/// Set in the re-executed, pinned client process.
const PINNED_ENV: &str = "KGPERF_PINNED";

/// CPU lists for the client and the server, in `taskset -c` syntax.
pub struct Placement {
    pub client: String,
    pub server: String,
}

/// Parse a kernel CPU list such as `0-3,6`.
fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// The allowed CPUs of the original (unpinned) process: the client's
/// own mask is narrowed after re-execution, so it is passed down.
pub fn allowed_cpus() -> Vec<usize> {
    if let Ok(list) = std::env::var(PINNED_ENV) {
        return parse_cpu_list(&list);
    }
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map(parse_cpu_list)
        .unwrap_or_default()
}

fn have_taskset() -> bool {
    Command::new("taskset")
        .arg("-V")
        .output()
        .is_ok_and(|o| o.status.success())
}

/// The placement of this run, if it is pinned.
pub fn placement() -> Option<Placement> {
    let cpus = allowed_cpus();
    if cpus.len() < 2 || !(std::env::var_os(PINNED_ENV).is_some() || have_taskset()) {
        return None;
    }
    let list = |cpus: &[usize]| {
        cpus.iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(",")
    };
    Some(Placement {
        client: cpus[0].to_string(),
        server: list(&cpus[1..]),
    })
}

/// Re-run this process on the client CPU and exit with its status; a
/// no-op when already pinned or when the run is not pinned.
pub fn reexec_on_client_cpu() {
    if std::env::var_os(PINNED_ENV).is_some() {
        return;
    }
    let Some(placement) = placement() else { return };
    let Ok(exe) = std::env::current_exe() else {
        return;
    };
    let allowed = allowed_cpus()
        .iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let status = Command::new("taskset")
        .args(["-c", &placement.client])
        .arg(exe)
        .args(std::env::args_os().skip(1))
        .env(PINNED_ENV, allowed)
        .status();
    match status {
        Ok(status) => exit(status.code().unwrap_or(1)),
        Err(e) => {
            eprintln!("kgperf: cannot re-run on the client CPU: {e}");
            exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse_ranges_and_singletons() {
        assert_eq!(parse_cpu_list("0-1"), vec![0, 1]);
        assert_eq!(parse_cpu_list("0,2-4,7\n"), vec![0, 2, 3, 4, 7]);
        assert_eq!(parse_cpu_list(""), Vec::<usize>::new());
    }
}
