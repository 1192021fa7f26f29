//! Served-estimate checks for the in-process kg-serve accept loop
//! (`kg_serve::serve`), driven over real TCP by eight client threads:
//!
//! 1. 1000 tenants are registered over the eight spec families of
//!    [`kg_bench::serve::spec_for`] and all stay held;
//! 2. every tenant runs its insert/retract/revise script one event per
//!    request, then reads its estimate;
//! 3. 16 sampled tenants' served estimates are byte-equal
//!    (`mean_bits`/`var_bits`/`units` and the bits of
//!    `cumulative_cost_seconds`) to an in-process `SessionRegistry`
//!    replay of the same spec and script, applied in one request: the
//!    cost does not depend on how the stream is split into requests;
//! 4. 8 tenants are checkpointed over HTTP, restored via `POST /kg`, and
//!    both sessions driven one more event must stay byte-identical, cost
//!    included: the checkpoint carries the annotation memo.
//!
//! Both samples cover every spec family. Served latency is kgperf's job
//! (`kgperf/README.md`); this test only asserts.

use kg_bench::serve::{
    events_body, local_bits, script_for, served_bits, spec_for, spec_json, Client, FAMILIES,
};
use kg_eval::session::SessionRegistry;
use kg_model::retract::KgEvent;
use kg_model::update::UpdateBatch;
use kg_serve::json::Json;
use std::collections::BTreeSet;
use std::net::TcpListener;
use std::sync::Arc;
use std::thread;

const SEED: u64 = 20190923;
const TENANTS: usize = 1000;
const CLIENTS: usize = 8;
const SAMPLED: usize = 16;
const RESTORED: usize = 8;

/// Start the production accept loop on an ephemeral port; it returns
/// once drained.
fn start_server(registry: &Arc<SessionRegistry>) -> (String, thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("bound address").to_string();
    let registry = Arc::clone(registry);
    let accept = thread::spawn(move || kg_serve::serve(listener, registry));
    (addr, accept)
}

/// Run `per_tenant` for every tenant, tenants partitioned over the client
/// threads so each tenant's requests stay in order. A fault-free server
/// must answer every request first time.
fn fan_out<R: Send>(addr: &str, per_tenant: impl Fn(&mut Client, usize) -> R + Sync) -> Vec<R> {
    let mut results: Vec<(usize, R)> = thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let per_tenant = &per_tenant;
                s.spawn(move || {
                    let mut client = Client::new(addr, SEED ^ c as u64);
                    let out: Vec<(usize, R)> = (c..TENANTS)
                        .step_by(CLIENTS)
                        .map(|t| (t, per_tenant(&mut client, t)))
                        .collect();
                    assert_eq!(client.retries, 0, "client {c} had to retry");
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    results.sort_by_key(|(t, _)| *t);
    results.into_iter().map(|(_, r)| r).collect()
}

fn family_key(t: usize) -> String {
    let spec = spec_for(SEED, t);
    format!(
        "{:?}/{:?}/{}/{}",
        spec.kind, spec.base_sizes, spec.oracle_accuracy, spec.oracle_seed
    )
}

fn families_of(tenants: &[usize]) -> usize {
    tenants
        .iter()
        .map(|&t| family_key(t))
        .collect::<BTreeSet<_>>()
        .len()
}

#[test]
fn thousand_tenant_fleet_serves_byte_identical_estimates_and_restores() {
    let registry = Arc::new(SessionRegistry::new());
    let (addr, accept) = start_server(&registry);

    // Registration and traffic: one event per request, then an estimate.
    let ids = fan_out(&addr, |client, t| {
        let reply = client.ok("POST", "/kg", &spec_json(&spec_for(SEED, t)));
        let id = reply.get("id").and_then(Json::as_u64).expect("numeric id");
        for event in script_for(t) {
            client.ok("POST", &format!("/kg/{id}/events"), &events_body(&[event]));
        }
        client.ok("GET", &format!("/kg/{id}/estimate"), "");
        id
    });
    assert_eq!(ids.iter().collect::<BTreeSet<_>>().len(), TENANTS);
    assert_eq!(registry.len(), TENANTS, "every tenant must stay held");
    let all: Vec<usize> = (0..TENANTS).collect();
    assert_eq!(families_of(&all), FAMILIES);

    let mut client = Client::new(addr, SEED);

    // Served estimates are byte-identical to an in-process replay.
    let stride = TENANTS / SAMPLED;
    let sampled: Vec<usize> = (0..SAMPLED).map(|k| k * stride + k % FAMILIES).collect();
    assert_eq!(families_of(&sampled), FAMILIES);
    let local = SessionRegistry::new();
    for &t in &sampled {
        let lid = local.register(spec_for(SEED, t)).expect("local register");
        local
            .apply_events(lid, &script_for(t))
            .expect("local replay");
        let want = local_bits(&local.estimate(lid).expect("local estimate"));
        let got = served_bits(&client.ok("GET", &format!("/kg/{}/estimate", ids[t]), ""));
        assert_eq!(got, want, "tenant {t}: served estimate diverged from local");
    }

    // Checkpoint → HTTP restore → one more event stays byte-identical.
    let rstride = TENANTS / RESTORED;
    let restored: Vec<usize> = (0..RESTORED).map(|k| (k * rstride + 1) % TENANTS).collect();
    assert_eq!(families_of(&restored), FAMILIES);
    let tail = events_body(&[KgEvent::Insert(
        UpdateBatch::from_sizes(vec![4, 4, 4]).expect("sizes"),
    )]);
    for &t in &restored {
        let id = ids[t];
        let checkpoint = client.ok("POST", &format!("/kg/{id}/checkpoint"), "");
        let hex = checkpoint
            .get("checkpoint")
            .and_then(Json::as_str)
            .expect("checkpoint payload");
        let restore = format!(r#"{{"checkpoint":"{hex}"}}"#);
        let rid = client
            .ok("POST", "/kg", &restore)
            .get("id")
            .and_then(Json::as_u64)
            .expect("restored id");
        let a = served_bits(&client.ok("POST", &format!("/kg/{id}/events"), &tail));
        let b = served_bits(&client.ok("POST", &format!("/kg/{rid}/events"), &tail));
        assert_eq!(
            a, b,
            "tenant {t}: restored session diverged from its source"
        );
    }
    assert_eq!(client.retries, 0);
    assert_eq!(registry.len(), TENANTS + RESTORED);

    client.ok("POST", "/admin/drain", "");
    accept.join().expect("accept loop");
}
