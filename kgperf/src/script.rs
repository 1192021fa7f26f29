//! Seeded workload scripts: the tenant specs a run registers and the
//! request sequence it sends. A script is a pure function of
//! `(workload, seed, timed request count)`; the server only ever sees the
//! rendered HTTP bytes.

use kg_model::retract::{KgEvent, Retraction};
use kg_model::update::UpdateBatch;
use std::collections::BTreeSet;

/// The traffic mixes the benchmark defines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Many young tenants, small requests: per-request fixed cost.
    Fleet,
    /// Few long-lived tenants: per-request cost growth with session age.
    Aging,
    /// Spill and revival on nearly every request.
    Spill,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "fleet" => Some(Workload::Fleet),
            "aging" => Some(Workload::Aging),
            "spill" => Some(Workload::Spill),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fleet => "fleet",
            Workload::Aging => "aging",
            Workload::Spill => "spill",
        }
    }

    /// Extra server arguments (besides the address).
    pub fn server_args(self) -> &'static [&'static str] {
        match self {
            Workload::Spill => &["--max-live", "4"],
            _ => &[],
        }
    }

    /// Whether the server runs with a spill store.
    pub fn needs_state_dir(self) -> bool {
        self == Workload::Spill
    }

    /// Requests per tenant-round sent before timing starts, in every
    /// repetition.
    pub fn warmup(self) -> usize {
        match self {
            Workload::Fleet => 1024,
            Workload::Aging => 256,
            Workload::Spill => 64,
        }
    }

    /// Timed requests each server process serves after its warm-up:
    /// one to two seconds' work on a 2-vCPU host at the commit that
    /// introduced the benchmark. The count, not a duration, is fixed, so
    /// every process of a seed serves byte-identical traffic and ends
    /// with identical exact counts.
    pub fn timed_requests(self) -> usize {
        match self {
            Workload::Fleet => 16_000,
            Workload::Aging => 4_000,
            Workload::Spill => 1_000,
        }
    }
}

/// SplitMix64: small, seedable, and stable across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6b67_7065_7266_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Seed-safe value for a JSON integer field (below 2^53).
    pub fn json_seed(&mut self) -> u64 {
        self.next_u64() >> 12
    }
}

/// A skewed cluster size: mostly small entities, a tail of large ones.
fn cluster_size(rng: &mut Rng) -> u32 {
    let small = rng.range(1, 8) as u32;
    if rng.below(5) == 0 {
        small + rng.range(0, 24) as u32
    } else {
        small
    }
}

fn cluster_sizes(rng: &mut Rng, n: usize) -> Vec<u32> {
    (0..n).map(|_| cluster_size(rng)).collect()
}

/// Which monitor a tenant runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Reservoir { capacity: u32 },
    Stratified,
}

/// A tenant registration. The body names no engine or offer mode, so
/// sessions run the service defaults.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    pub kind: Kind,
    pub m: u32,
    pub seed: u64,
    pub oracle_accuracy_pct: u32,
    pub oracle_seed: u64,
    pub base_sizes: Vec<u32>,
}

impl TenantSpec {
    pub fn oracle_accuracy(&self) -> f64 {
        f64::from(self.oracle_accuracy_pct) / 100.0
    }

    /// `POST /kg` body.
    pub fn body(&self) -> String {
        let kind = match self.kind {
            Kind::Reservoir { capacity } => {
                format!("\"kind\":\"reservoir\",\"capacity\":{capacity}")
            }
            Kind::Stratified => "\"kind\":\"stratified\"".to_string(),
        };
        format!(
            "{{{kind},\"m\":{},\"seed\":{},\"oracle_accuracy\":0.{:02},\"oracle_seed\":{},\"base_sizes\":{}}}",
            self.m,
            self.seed,
            self.oracle_accuracy_pct,
            self.oracle_seed,
            u32_array(&self.base_sizes)
        )
    }
}

/// One KG change inside an events request, in raw coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    Insert(Vec<u32>),
    Retract(Vec<(u32, Vec<u32>)>),
    Revise(Vec<(u32, Vec<u32>)>, Vec<u32>),
}

impl Event {
    pub fn to_kg(&self) -> KgEvent {
        let batch = |sizes: &Vec<u32>| {
            UpdateBatch::from_sizes(sizes.clone()).expect("script inserts positive sizes")
        };
        let retraction = |entries: &Vec<(u32, Vec<u32>)>| {
            Retraction::new(entries.clone()).expect("script retracts distinct live triples")
        };
        match self {
            Event::Insert(sizes) => KgEvent::Insert(batch(sizes)),
            Event::Retract(entries) => KgEvent::Retract(retraction(entries)),
            Event::Revise(entries, sizes) => KgEvent::Revise(retraction(entries), batch(sizes)),
        }
    }

    /// Insert batches this event carries.
    pub fn inserted(&self) -> Option<&[u32]> {
        match self {
            Event::Insert(sizes) | Event::Revise(_, sizes) => Some(sizes),
            Event::Retract(_) => None,
        }
    }

    fn json(&self) -> String {
        let entries = |entries: &Vec<(u32, Vec<u32>)>| {
            let items: Vec<String> = entries
                .iter()
                .map(|(c, offs)| format!("{{\"cluster\":{c},\"offsets\":{}}}", u32_array(offs)))
                .collect();
            format!("[{}]", items.join(","))
        };
        match self {
            Event::Insert(sizes) => format!("{{\"op\":\"insert\",\"sizes\":{}}}", u32_array(sizes)),
            Event::Retract(e) => format!("{{\"op\":\"retract\",\"entries\":{}}}", entries(e)),
            Event::Revise(e, sizes) => format!(
                "{{\"op\":\"revise\",\"entries\":{},\"sizes\":{}}}",
                entries(e),
                u32_array(sizes)
            ),
        }
    }
}

/// What a request does to its tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Events(Vec<Event>),
    Estimate,
    Checkpoint,
    Audit { units: u64, seed: u64 },
}

/// One scripted request against tenant `tenant` (an index into
/// [`Script::tenants`]).
#[derive(Debug, Clone)]
pub struct Request {
    pub tenant: usize,
    pub op: Op,
}

impl Request {
    /// The full HTTP/1.1 request against session `id`. No
    /// `connection: close`: the client reads by content-length and
    /// reconnects only when the server closes.
    pub fn http(&self, id: u64) -> Vec<u8> {
        let (method, path, body) = match &self.op {
            Op::Events(events) => {
                let items: Vec<String> = events.iter().map(Event::json).collect();
                (
                    "POST",
                    format!("/kg/{id}/events"),
                    format!("{{\"events\":[{}]}}", items.join(",")),
                )
            }
            Op::Estimate => ("GET", format!("/kg/{id}/estimate"), String::new()),
            Op::Checkpoint => ("POST", format!("/kg/{id}/checkpoint"), String::new()),
            Op::Audit { units, seed } => (
                "GET",
                format!("/kg/{id}/audit?units={units}&seed={seed}"),
                String::new(),
            ),
        };
        http_request(method, &path, &body)
    }
}

/// Render one HTTP/1.1 request.
pub fn http_request(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nhost: kgperf\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn u32_array(values: &[u32]) -> String {
    let items: Vec<String> = values.iter().map(u32::to_string).collect();
    format!("[{}]", items.join(","))
}

/// A workload instance: tenants to register, then `requests`, of which
/// the first `warmup` are sent before timing starts.
#[derive(Debug, Clone)]
pub struct Script {
    pub workload: Workload,
    pub tenants: Vec<TenantSpec>,
    pub warmup: usize,
    pub requests: Vec<Request>,
}

/// Per-tenant raw layout the generator tracks so every retraction names a
/// live triple.
struct Layout {
    sizes: Vec<u32>,
    dead: Vec<BTreeSet<u32>>,
}

impl Layout {
    fn new(base: &[u32]) -> Self {
        Layout {
            sizes: base.to_vec(),
            dead: vec![BTreeSet::new(); base.len()],
        }
    }

    fn insert(&mut self, sizes: &[u32]) {
        self.sizes.extend_from_slice(sizes);
        self.dead.resize(self.sizes.len(), BTreeSet::new());
    }

    /// Pick one live triple uniformly over clusters, then offsets, and
    /// mark it dead.
    fn retract_one(&mut self, rng: &mut Rng) -> Vec<(u32, Vec<u32>)> {
        loop {
            let c = rng.below(self.sizes.len() as u64) as usize;
            let size = self.sizes[c];
            if self.dead[c].len() as u32 >= size {
                continue;
            }
            loop {
                let off = rng.below(u64::from(size)) as u32;
                if self.dead[c].insert(off) {
                    return vec![(c as u32, vec![off])];
                }
            }
        }
    }
}

impl Script {
    /// Generate the script for `workload` with `timed` requests after the
    /// warm-up.
    ///
    /// The tenants are the same for every seed, so set-up work and the
    /// monitors' sampling regimes (whether a reservoir needs top-up
    /// units, which decides how much re-annotation a request pays) do not
    /// change between seeds; the seed draws the traffic.
    pub fn generate(workload: Workload, seed: u64, timed: usize) -> Script {
        let mut fixed = Rng::new(workload as u64);
        let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(workload as u64));
        match workload {
            Workload::Fleet => fleet(&mut fixed, &mut rng, timed),
            Workload::Aging => aging(&mut fixed, &mut rng, timed),
            Workload::Spill => spill(&mut fixed, &mut rng, timed),
        }
    }

    /// Every byte the script sends, for determinism checks.
    #[cfg(test)]
    pub fn render(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for t in &self.tenants {
            out.extend_from_slice(t.body().as_bytes());
            out.push(b'\n');
        }
        for (i, r) in self.requests.iter().enumerate() {
            out.extend_from_slice(&r.http(r.tenant as u64 + 1));
            out.extend_from_slice(format!("\n{i}\n").as_bytes());
        }
        out
    }
}

fn tenants(rng: &mut Rng, n: usize, clusters: (u64, u64), capacities: &[u32]) -> Vec<TenantSpec> {
    (0..n)
        .map(|i| {
            let kind = if i % 2 == 0 {
                Kind::Reservoir {
                    capacity: capacities[(i / 2) % capacities.len()],
                }
            } else {
                Kind::Stratified
            };
            // Size and accuracy are spread over their ranges by index, not
            // drawn, so every seed gets the same mix of easy and hard
            // tenants; the seed picks the clusters and sampling streams.
            let n_clusters =
                (clusters.0 + (i as u64 * 37) % (clusters.1 - clusters.0 + 1)) as usize;
            TenantSpec {
                kind,
                m: 5,
                seed: rng.json_seed(),
                oracle_accuracy_pct: 80 + (i as u32 * 7) % 16,
                oracle_seed: rng.json_seed(),
                base_sizes: cluster_sizes(rng, n_clusters),
            }
        })
        .collect()
}

/// 512 young tenants; ~70% small inserts, 5% retract/revise, 25%
/// estimate reads, tenants visited in a seeded round-robin order.
fn fleet(fixed: &mut Rng, rng: &mut Rng, timed: usize) -> Script {
    const TENANTS: usize = 512;
    let tenants = tenants(fixed, TENANTS, (100, 200), &[32, 48]);
    let mut layouts: Vec<Layout> = tenants.iter().map(|t| Layout::new(&t.base_sizes)).collect();
    let mut order: Vec<usize> = (0..TENANTS).collect();
    for i in (1..TENANTS).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let warmup = Workload::Fleet.warmup();
    let requests = (0..warmup + timed)
        .map(|i| {
            let tenant = order[i % TENANTS];
            let layout = &mut layouts[tenant];
            let roll = rng.below(100);
            let op = if roll < 70 {
                let n = rng.range(3, 6) as usize;
                let sizes = cluster_sizes(rng, n);
                layout.insert(&sizes);
                Op::Events(vec![Event::Insert(sizes)])
            } else if roll < 75 {
                let entries = layout.retract_one(rng);
                if roll.is_multiple_of(2) {
                    Op::Events(vec![Event::Retract(entries)])
                } else {
                    let n = rng.range(1, 3) as usize;
                    let sizes = cluster_sizes(rng, n);
                    layout.insert(&sizes);
                    Op::Events(vec![Event::Revise(entries, sizes)])
                }
            } else {
                Op::Estimate
            };
            Request { tenant, op }
        })
        .collect();
    Script {
        workload: Workload::Fleet,
        tenants,
        warmup,
        requests,
    }
}

/// 4 long-lived tenants on 20k-cluster bases; each request inserts 10
/// clusters and retracts one triple, and every 8th request per tenant is
/// an estimate read.
fn aging(fixed: &mut Rng, rng: &mut Rng, timed: usize) -> Script {
    const TENANTS: usize = 4;
    let tenants = tenants(fixed, TENANTS, (20_000, 20_000), &[32]);
    let mut layouts: Vec<Layout> = tenants.iter().map(|t| Layout::new(&t.base_sizes)).collect();
    let warmup = Workload::Aging.warmup();
    let requests = (0..warmup + timed)
        .map(|i| {
            let tenant = i % TENANTS;
            let op = if (i / TENANTS) % 8 == 7 {
                Op::Estimate
            } else {
                let layout = &mut layouts[tenant];
                let sizes = cluster_sizes(rng, 10);
                layout.insert(&sizes);
                let entries = layout.retract_one(rng);
                Op::Events(vec![Event::Insert(sizes), Event::Retract(entries)])
            };
            Request { tenant, op }
        })
        .collect();
    Script {
        workload: Workload::Aging,
        tenants,
        warmup,
        requests,
    }
}

/// 32 tenants on 2k-cluster bases behind `--max-live 4`; a strided visit
/// order makes nearly every request revive a spilled session. Requests
/// insert 200 clusters; every 16th checkpoints and every 32nd audits.
fn spill(fixed: &mut Rng, rng: &mut Rng, timed: usize) -> Script {
    const TENANTS: usize = 32;
    let tenants = tenants(fixed, TENANTS, (2_000, 2_000), &[48]);
    let stride = [3usize, 5, 7, 9, 11, 13][rng.below(6) as usize];
    let shift = rng.below(TENANTS as u64) as usize;
    let warmup = Workload::Spill.warmup();
    let requests = (0..warmup + timed)
        .map(|i| {
            let (round, pos) = (i / TENANTS, i % TENANTS);
            let tenant = (pos * stride + round + shift) % TENANTS;
            let op = if i % 32 == 31 {
                Op::Audit {
                    units: 200,
                    seed: rng.json_seed(),
                }
            } else if i % 16 == 15 {
                Op::Checkpoint
            } else {
                Op::Events(vec![Event::Insert(cluster_sizes(rng, 200))])
            };
            Request { tenant, op }
        })
        .collect();
    Script {
        workload: Workload::Spill,
        tenants,
        warmup,
        requests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_scripts() {
        for w in [Workload::Fleet, Workload::Aging, Workload::Spill] {
            let a = Script::generate(w, 7, 300).render();
            let b = Script::generate(w, 7, 300).render();
            assert_eq!(a, b, "{}", w.name());
        }
    }

    #[test]
    fn different_seeds_give_different_scripts() {
        for w in [Workload::Fleet, Workload::Aging, Workload::Spill] {
            let a = Script::generate(w, 7, 300).render();
            let b = Script::generate(w, 8, 300).render();
            assert_ne!(a, b, "{}", w.name());
        }
    }

    #[test]
    fn scripted_events_are_valid_kg_events() {
        for w in [Workload::Fleet, Workload::Aging, Workload::Spill] {
            let script = Script::generate(w, 3, 500);
            assert_eq!(script.requests.len(), script.warmup + 500);
            for r in &script.requests {
                if let Op::Events(events) = &r.op {
                    for e in events {
                        let _ = e.to_kg();
                    }
                }
            }
        }
    }

    #[test]
    fn registration_bodies_carry_no_test_knobs() {
        let script = Script::generate(Workload::Fleet, 1, 10);
        for t in &script.tenants {
            let body = t.body();
            assert!(
                !body.contains("engine") && !body.contains("offer_mode"),
                "{body}"
            );
        }
    }
}
