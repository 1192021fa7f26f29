//! Golden RS signatures of the per-item A-Res offer loop, shared by the
//! `offer_identity` and `churn_identity` tests. `rs_per_item.txt` holds
//! one line per input: a key naming it, then the signature words in hex.

use kg_bench::churn;

const FIXTURES: &str = include_str!("rs_per_item.txt");

/// `(key, signature)` for every fixture line.
pub fn fixtures() -> Vec<(&'static str, Vec<u64>)> {
    FIXTURES
        .lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| {
            let mut words = line.split_whitespace();
            let key = words.next().expect("fixture line has a key");
            let sig = words
                .map(|w| u64::from_str_radix(w, 16).expect("hex word"))
                .collect();
            (key, sig)
        })
        .collect()
}

pub fn fixture(key: &str) -> Vec<u64> {
    fixtures()
        .into_iter()
        .find(|(k, _)| *k == key)
        .unwrap_or_else(|| panic!("no fixture {key}"))
        .1
}

pub fn churn_key(target: u64, fraction: f64, seed: u64) -> String {
    format!("churn/{target}/{fraction}/{seed}")
}

/// Both engines' RS signatures of one churn replay equal its fixture.
pub fn assert_churn_matches(target: u64, fraction: f64, seed: u64) {
    let key = churn_key(target, fraction, seed);
    let want = fixture(&key);
    let [hash, dense] = churn::rs_signatures(target, fraction, seed);
    assert_eq!(
        hash, want,
        "{key}: hash diverged from the per-item reference"
    );
    assert_eq!(
        dense, want,
        "{key}: dense diverged from the per-item reference"
    );
}
