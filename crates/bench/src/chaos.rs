//! `--resilience` mode: deterministic chaos harness for the kg-serve
//! fault-tolerance stack.
//!
//! Runs the hardened in-process server ([`kg_serve::Server`]) with a
//! seeded [`FaultHook`] over a disk spill store, and drives a tenant
//! fleet through its churn scripts while the harness injects every fault
//! class the serving layer claims to survive:
//!
//! 1. **Connection faults** — a deterministic hash of the accept
//!    sequence number drops connections before the request is read,
//!    after it is read but before the response, or after a stall
//!    (a wedged server from the client's view). All faults fire
//!    *pre-dispatch*, so a faulted request never half-applies a
//!    mutation and the client's retry is exact-once in effect.
//! 2. **Process kills** — at scripted quiescent points the server is
//!    killed abruptly (no drain, no checkpoint sweep); the write-through
//!    lifecycle policy is what makes the restart lossless.
//! 3. **Spill-file sabotage** — while the process is down, scripted
//!    victim tenants have their spill records truncated or deleted.
//!    On restart the torn record must fail typed (500 then 404, never a
//!    panic, co-tenants untouched) and the client re-registers the
//!    tenant from its own earlier HTTP checkpoint.
//! 4. **Eviction churn** — `max_live` is far below the tenant count, so
//!    every phase runs over constant TTL/LRU spill-and-revive traffic.
//!
//! The client retries retriable outcomes (connect/read failures, 408,
//! 503) with capped exponential backoff and deterministic jitter, so
//! the whole run is replayable from `--seed`.
//!
//! **Checks** (all recorded in `BENCH_resilience.json`, schema
//! `kg-bench-resilience/v1`, and asserted by CI):
//! - *Zero served-estimate divergence*: every `200` estimate the fleet
//!   ever receives — after each event post, at end of run, and after
//!   the final drain→restart cycle — is byte-compared
//!   (`mean_bits`/`var_bits`/`units` and the bits of
//!   `cumulative_cost_seconds`) against a fault-free in-process
//!   `SessionRegistry` replay of the same specs and scripts. Cost is
//!   Definition 3 over each tenant's stream, so kills, spills and
//!   re-registrations from a client's checkpoint must not move it.
//! - *Full recovery*: the final graceful drain persists every live
//!   session, and the restarted server revives 100% of the fleet
//!   byte-identically.
//! - *Fault floor*: the run actually injected at least the scripted
//!   minimum number of faults (quick: 16, full: 50).

use kg_eval::session::{LifecyclePolicy, SessionRegistry};
use kg_eval::{CheckpointStore, TrialExecutor};
use kg_serve::json::Json;
use kg_serve::{FaultAction, FaultHook, Server, ServerConfig};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::serve::{
    events_body, local_bits, script_for, served_bits, spec_for, spec_json, splitmix64, Client,
    EstimateBits,
};
use crate::BenchOpts;

/// Everything the chaos harness measured and checked.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Quick mode?
    pub quick: bool,
    /// Base seed.
    pub seed: u64,
    /// Tenant sessions driven through the run.
    pub tenants: usize,
    /// Events per tenant script.
    pub rounds: usize,
    /// Resident-session cap forcing eviction churn.
    pub max_live: usize,
    /// Server lives (initial + one per kill + post-drain restart).
    pub lives: usize,
    /// Abrupt process kills (no drain, no checkpoint sweep).
    pub kills: usize,
    /// Spill records truncated while the server was down.
    pub torn_spills: usize,
    /// Spill records deleted while the server was down.
    pub vanished_spills: usize,
    /// Tenants the client re-registered from its own checkpoint after
    /// their spill record was sabotaged.
    pub reregistered: usize,
    /// HTTP requests issued (including retries).
    pub requests: u64,
    /// Retries forced by injected faults, shedding, or timeouts.
    pub retries: u64,
    /// Connections sacrificed by the fault hook, all lives summed.
    pub faults_injected: u64,
    /// Scripted minimum the run must inject to count as a chaos run.
    pub min_faults: u64,
    /// Connections shed with 503 across all lives.
    pub shed: u64,
    /// Exchanges cut off by the read deadline across all lives.
    pub timeouts: u64,
    /// Sessions spilled by TTL/LRU pressure, all lives summed.
    pub evictions: u64,
    /// Sessions revived from the spill store, all lives summed.
    pub revivals: u64,
    /// Poisoned spill records dropped (== torn + vanished victims hit).
    pub corrupt_dropped: u64,
    /// Served estimates byte-compared against the fault-free replay.
    pub estimates_checked: usize,
    /// Comparisons that diverged (must be 0).
    pub diverged: usize,
    /// `diverged == 0` over every comparison the run made.
    pub estimates_match: bool,
    /// Sessions the final graceful drain checkpointed.
    pub drain_persisted: usize,
    /// Sessions present after the post-drain restart.
    pub recovered: usize,
    /// Did the post-drain restart revive 100% of the fleet
    /// byte-identically?
    pub revived_all: bool,
    /// `faults_injected >= min_faults`.
    pub faults_floor_met: bool,
    /// Wall-clock for the whole run.
    pub elapsed_sec: f64,
}

/// Seeded per-connection fault plan: one connection in `period` is
/// sacrificed, cycling through the three abort flavours.
struct ChaosHook {
    seed: u64,
    period: u64,
}

impl FaultHook for ChaosHook {
    fn plan(&self, conn_seq: u64) -> FaultAction {
        let h = splitmix64(self.seed ^ conn_seq.wrapping_mul(0xA24B_AED4_963E_E407));
        if !h.is_multiple_of(self.period) {
            return FaultAction::None;
        }
        match (h >> 8) % 3 {
            0 => FaultAction::AbortBeforeRead,
            1 => FaultAction::AbortAfterRead,
            _ => FaultAction::StallThenAbort(Duration::from_millis(15)),
        }
    }
}

/// Per-kill sabotage script: which tenants lose their spill record, and
/// how.
struct KillPlan {
    /// Tenants whose spill file is truncated (typed 500 on first touch).
    torn: Vec<usize>,
    /// Tenant whose spill file is deleted (404 straight away).
    vanished: usize,
}

fn kill_plan(kill: usize, tenants: usize) -> KillPlan {
    let pick = |salt: usize| (salt + 13 * kill) % tenants;
    let torn = vec![pick(7), pick(29)];
    let mut vanished = pick(47);
    while torn.contains(&vanished) {
        vanished = (vanished + 1) % tenants;
    }
    KillPlan { torn, vanished }
}

/// Stats carried across server lives.
#[derive(Default)]
struct RunTotals {
    faults: u64,
    shed: u64,
    timeouts: u64,
    evictions: u64,
    revivals: u64,
    corrupt_dropped: u64,
}

impl RunTotals {
    fn absorb(&mut self, server: &Server, registry: &SessionRegistry) {
        let s = server.stats();
        self.faults += s.faults_injected;
        self.shed += s.shed;
        self.timeouts += s.timeouts;
        let r = registry.stats();
        self.evictions += r.evictions;
        self.revivals += r.revivals;
        self.corrupt_dropped += r.corrupt_dropped;
        assert_eq!(r.persist_failures, 0, "write-through persistence failed");
    }
}

/// Start one server life over the shared spill directory; returns the
/// handle, the registry, and how many sessions the store recovered.
fn start_life(
    dir: &Path,
    seed: u64,
    life: usize,
    max_live: usize,
    period: u64,
) -> (Server, Arc<SessionRegistry>, usize) {
    let store = CheckpointStore::open(dir).expect("open spill store");
    let policy = LifecyclePolicy {
        max_live: Some(max_live),
        idle_ttl: None,
        write_through: true,
    };
    let registry = Arc::new(SessionRegistry::with_lifecycle(
        TrialExecutor::new().with_workers(2),
        policy,
        store,
    ));
    let recovered = registry.recover_from_store().expect("recover spills");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let config = ServerConfig {
        read_timeout: Duration::from_secs(2),
        write_timeout: Duration::from_secs(2),
        max_in_flight: 64,
        drain_deadline: Duration::from_secs(5),
    };
    let hook: Arc<dyn FaultHook> = Arc::new(ChaosHook {
        seed: splitmix64(seed ^ (life as u64).wrapping_mul(0x5851_F42D_4C95_7F2D)),
        period,
    });
    let server =
        Server::start(listener, Arc::clone(&registry), config, Some(hook)).expect("start server");
    (server, registry, recovered)
}

fn scratch_dir(seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!("kg-chaos-{}-{seed:x}", std::process::id()))
}

/// Run the harness at the standard scale. Quick mode drives 120 tenants
/// through 1 kill instead of 600 through 2 (CI).
pub fn run(opts: &BenchOpts) -> ChaosReport {
    if opts.quick {
        run_scaled(opts, 120, 1, 24, 16, 16)
    } else {
        run_scaled(opts, 600, 2, 64, 16, 50)
    }
}

/// Run with explicit scales (unit tests use tiny ones).
#[allow(clippy::needless_range_loop)] // t/r index ids, scripts, and expected in lockstep
fn run_scaled(
    opts: &BenchOpts,
    tenants: usize,
    kills: usize,
    max_live: usize,
    period: u64,
    min_faults: u64,
) -> ChaosReport {
    let seed = opts.seed;
    let start = Instant::now();
    let dir = scratch_dir(seed);
    let _ = std::fs::remove_dir_all(&dir);

    // Fault-free in-process replay first: expected estimate bits for
    // every tenant after every round. The served run must match these
    // byte for byte, no matter what the fault plan does to it.
    let rounds = script_for(0).len();
    let local = SessionRegistry::new();
    let mut expected: Vec<Vec<EstimateBits>> = Vec::with_capacity(tenants);
    for t in 0..tenants {
        let lid = local.register(spec_for(seed, t)).expect("local register");
        let mut per_round = Vec::with_capacity(rounds);
        for event in script_for(t) {
            let rep = local
                .apply_events(lid, std::slice::from_ref(&event))
                .expect("local replay");
            per_round.push(local_bits(&rep));
        }
        expected.push(per_round);
    }

    let (mut server, mut registry, _) = start_life(&dir, seed, 0, max_live, period);
    let mut client = Client::new(server.addr().to_string(), seed);
    let mut totals = RunTotals::default();
    let mut lives = 1;
    let mut estimates_checked = 0usize;
    let mut diverged = 0usize;
    let mut torn_spills = 0usize;
    let mut vanished_spills = 0usize;
    let mut reregistered = 0usize;

    // Registration.
    let mut ids = vec![0u64; tenants];
    for (t, id) in ids.iter_mut().enumerate() {
        let body = client.ok("POST", "/kg", &spec_json(&spec_for(seed, t)));
        *id = body.get("id").and_then(Json::as_u64).expect("numeric id");
    }

    // Traffic rounds, with scripted kills at the quiescent points
    // between rounds.
    for r in 0..rounds {
        for t in 0..tenants {
            let body = events_body(std::slice::from_ref(&script_for(t)[r]));
            let resp = client.ok("POST", &format!("/kg/{}/events", ids[t]), &body);
            estimates_checked += 1;
            if served_bits(&resp) != expected[t][r] {
                diverged += 1;
            }
        }

        if r + 1 < rounds && r < kills {
            // The client snapshots the victims' state over HTTP before
            // the crash — the backup it later re-registers from.
            let plan = kill_plan(r, tenants);
            let mut backups = Vec::new();
            for &t in plan.torn.iter().chain(std::iter::once(&plan.vanished)) {
                let body = client.ok("POST", &format!("/kg/{}/checkpoint", ids[t]), "");
                let hex = body.get("checkpoint").and_then(Json::as_str);
                backups.push((t, hex.expect("checkpoint payload").to_string()));
            }

            // Crash: no drain, no checkpoint sweep. Write-through is the
            // only reason nothing is lost.
            totals.absorb(&server, &registry);
            server.kill();
            drop(registry);

            // Sabotage the spill records while the process is down.
            let store = CheckpointStore::open(&dir).expect("reopen store");
            for &t in &plan.torn {
                // Both slots, so no older copy of the record survives.
                for path in store.slot_paths(ids[t]) {
                    let Ok(full) = std::fs::read(&path) else {
                        continue;
                    };
                    std::fs::write(&path, &full[..full.len() / 3]).expect("tear spill slot");
                }
                torn_spills += 1;
            }
            std::fs::remove_file(store.path_for(ids[plan.vanished])).expect("delete spill record");
            vanished_spills += 1;

            // Restart over the sabotaged store and sweep the fleet.
            let (s, reg, recovered) = start_life(&dir, seed, lives, max_live, period);
            server = s;
            registry = reg;
            lives += 1;
            assert_eq!(
                recovered,
                tenants - 1,
                "restart must see every spill record except the deleted one"
            );
            client.addr = server.addr().to_string();
            for t in 0..tenants {
                let (status, _) = client.request("GET", &format!("/kg/{}/estimate", ids[t]), "");
                if status == 200 {
                    continue;
                }
                // Victims fail typed: torn records 500 (Codec) on first
                // touch, deleted records 404 — then the client restores
                // from its own backup under a fresh id.
                if plan.torn.contains(&t) {
                    assert_eq!(status, 500, "torn spill must fail typed for tenant {t}");
                    let (status, _) =
                        client.request("GET", &format!("/kg/{}/estimate", ids[t]), "");
                    assert_eq!(status, 404, "poisoned session must be dropped");
                } else {
                    assert_eq!(t, plan.vanished, "unexpected casualty: tenant {t}");
                    assert_eq!(status, 404, "deleted spill must read as unknown");
                }
                let (_, hex) = backups
                    .iter()
                    .find(|(bt, _)| *bt == t)
                    .expect("victim backup");
                let body = client.ok("POST", "/kg", &format!(r#"{{"checkpoint":"{hex}"}}"#));
                ids[t] = body.get("id").and_then(Json::as_u64).expect("numeric id");
                reregistered += 1;
            }
        }
    }

    // End-of-run estimates, byte-checked against the fault-free replay.
    let mut finals = Vec::with_capacity(tenants);
    for t in 0..tenants {
        let got = served_bits(&client.ok("GET", &format!("/kg/{}/estimate", ids[t]), ""));
        estimates_checked += 1;
        if got != expected[t][rounds - 1] {
            diverged += 1;
        }
        finals.push(got);
    }

    // Final cycle: graceful drain, restart, 100% byte-identical revival.
    totals.absorb(&server, &registry);
    let live_at_drain = registry.stats().live;
    drop(registry);
    let outcome = server.drain();
    assert_eq!(
        outcome.persisted, live_at_drain,
        "drain must checkpoint every live session"
    );

    let (server, registry, recovered) = start_life(&dir, seed, lives, max_live, period);
    lives += 1;
    client.addr = server.addr().to_string();
    let mut revived_all = recovered == tenants;
    for t in 0..tenants {
        let got = served_bits(&client.ok("GET", &format!("/kg/{}/estimate", ids[t]), ""));
        estimates_checked += 1;
        if got != expected[t][rounds - 1] {
            diverged += 1;
        }
        if got != finals[t] {
            revived_all = false;
        }
    }
    totals.absorb(&server, &registry);
    server.kill();
    drop(registry);
    let _ = std::fs::remove_dir_all(&dir);

    ChaosReport {
        quick: opts.quick,
        seed,
        tenants,
        rounds,
        max_live,
        lives,
        kills,
        torn_spills,
        vanished_spills,
        reregistered,
        requests: client.requests,
        retries: client.retries,
        faults_injected: totals.faults,
        min_faults,
        shed: totals.shed,
        timeouts: totals.timeouts,
        evictions: totals.evictions,
        revivals: totals.revivals,
        corrupt_dropped: totals.corrupt_dropped,
        estimates_checked,
        diverged,
        estimates_match: diverged == 0,
        drain_persisted: outcome.persisted,
        recovered,
        revived_all,
        faults_floor_met: totals.faults >= min_faults,
        elapsed_sec: start.elapsed().as_secs_f64(),
    }
}

/// Human-readable summary table.
pub fn render_table(r: &ChaosReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "chaos resilience — {} tenants × {} rounds, max_live {}, {} server lives{}\n",
        r.tenants,
        r.rounds,
        r.max_live,
        r.lives,
        if r.quick { " (quick)" } else { "" }
    ));
    out.push_str(&format!(
        "  faults injected   {:>8}  (floor {}, met: {})\n",
        r.faults_injected, r.min_faults, r.faults_floor_met
    ));
    out.push_str(&format!(
        "  kills / torn / vanished {:>2} / {} / {}  re-registered {}\n",
        r.kills, r.torn_spills, r.vanished_spills, r.reregistered
    ));
    out.push_str(&format!(
        "  requests          {:>8}  retries {}  shed {}  timeouts {}\n",
        r.requests, r.retries, r.shed, r.timeouts
    ));
    out.push_str(&format!(
        "  evictions         {:>8}  revivals {}  corrupt dropped {}\n",
        r.evictions, r.revivals, r.corrupt_dropped
    ));
    out.push_str(&format!(
        "  estimates checked {:>8}  diverged {}  match: {}\n",
        r.estimates_checked, r.diverged, r.estimates_match
    ));
    out.push_str(&format!(
        "  drain persisted   {:>8}  recovered {}  revived_all: {}\n",
        r.drain_persisted, r.recovered, r.revived_all
    ));
    out.push_str(&format!("  elapsed           {:>8.1}s\n", r.elapsed_sec));
    out
}

/// The tracked JSON artifact (schema `kg-bench-resilience/v1`).
pub fn to_json(r: &ChaosReport) -> String {
    format!(
        concat!(
            "{{\n",
            "  \"schema\": \"kg-bench-resilience/v1\",\n",
            "  \"quick\": {quick},\n",
            "  \"seed\": {seed},\n",
            "  \"tenants\": {tenants},\n",
            "  \"rounds\": {rounds},\n",
            "  \"max_live\": {max_live},\n",
            "  \"lives\": {lives},\n",
            "  \"faults\": {{\n",
            "    \"injected\": {faults_injected},\n",
            "    \"min_required\": {min_faults},\n",
            "    \"faults_floor_met\": {floor},\n",
            "    \"kills\": {kills},\n",
            "    \"torn_spills\": {torn},\n",
            "    \"vanished_spills\": {vanished},\n",
            "    \"client_retries\": {retries}\n",
            "  }},\n",
            "  \"traffic\": {{\n",
            "    \"requests\": {requests},\n",
            "    \"shed\": {shed},\n",
            "    \"timeouts\": {timeouts}\n",
            "  }},\n",
            "  \"lifecycle\": {{\n",
            "    \"evictions\": {evictions},\n",
            "    \"revivals\": {revivals},\n",
            "    \"corrupt_dropped\": {corrupt},\n",
            "    \"reregistered\": {rereg}\n",
            "  }},\n",
            "  \"checks\": {{\n",
            "    \"estimates_checked\": {checked},\n",
            "    \"diverged\": {diverged},\n",
            "    \"estimates_match\": {match_},\n",
            "    \"drain_persisted\": {persisted},\n",
            "    \"recovered\": {recovered},\n",
            "    \"revived_all\": {revived}\n",
            "  }},\n",
            "  \"elapsed_sec\": {elapsed:.3}\n",
            "}}\n",
        ),
        quick = r.quick,
        seed = r.seed,
        tenants = r.tenants,
        rounds = r.rounds,
        max_live = r.max_live,
        lives = r.lives,
        faults_injected = r.faults_injected,
        min_faults = r.min_faults,
        floor = r.faults_floor_met,
        kills = r.kills,
        torn = r.torn_spills,
        vanished = r.vanished_spills,
        retries = r.retries,
        requests = r.requests,
        shed = r.shed,
        timeouts = r.timeouts,
        evictions = r.evictions,
        revivals = r.revivals,
        corrupt = r.corrupt_dropped,
        rereg = r.reregistered,
        checked = r.estimates_checked,
        diverged = r.diverged,
        match_ = r.estimates_match,
        persisted = r.drain_persisted,
        recovered = r.recovered,
        revived = r.revived_all,
        elapsed = r.elapsed_sec,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_chaos_run_survives_and_stays_byte_identical() {
        // Aggressive fault period (1 in 4) over a tiny fleet: one kill,
        // sabotage, and the full drain→restart cycle.
        let opts = BenchOpts {
            quick: true,
            seed: 4242,
        };
        let r = run_scaled(&opts, 12, 1, 4, 4, 1);
        assert!(r.estimates_match, "diverged: {}", r.diverged);
        assert!(r.revived_all, "post-drain revival incomplete");
        assert!(r.faults_floor_met, "only {} faults", r.faults_injected);
        assert_eq!(r.torn_spills, 2);
        assert_eq!(r.vanished_spills, 1);
        assert_eq!(r.reregistered, 3);
        assert_eq!(r.recovered, 12);
        assert!(r.retries >= r.faults_injected.min(1));
        assert!(r.evictions > 0, "max_live 4 over 12 tenants must churn");
    }

    #[test]
    fn fault_plan_is_deterministic_and_covers_every_flavour() {
        let hook = ChaosHook {
            seed: 99,
            period: 4,
        };
        let plan: Vec<_> = (0..256).map(|c| hook.plan(c)).collect();
        let again: Vec<_> = (0..256).map(|c| hook.plan(c)).collect();
        assert_eq!(plan, again, "fault plan must be a pure function");
        let faults = plan.iter().filter(|a| **a != FaultAction::None).count();
        assert!(faults > 256 / 8, "period 4 must fire often: {faults}");
        for flavour in [
            FaultAction::AbortBeforeRead,
            FaultAction::AbortAfterRead,
            FaultAction::StallThenAbort(Duration::from_millis(15)),
        ] {
            assert!(plan.contains(&flavour), "missing {flavour:?}");
        }
    }
}
