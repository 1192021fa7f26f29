//! In-memory spans, percentiles and self-time arithmetic.

use std::io::Write;
use std::time::Instant;

/// Nearest-rank percentile (`p` in `0..=100`) of unsorted samples; `NaN`
/// when there are none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Length of `[start, end)` not covered by any of `children`, each
/// clipped to the parent interval first. Overlapping children are
/// counted once.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start) - covered
}

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: usize,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1000.0
    }
}

/// Spans kept in memory for the whole traced run and written out at the
/// end.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tracer time of an instant taken after the tracer was created.
    pub fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Record an already-measured interval.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: usize,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Time `f` as a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.record(name, start, end, parent, request);
        out
    }

    /// Durations in µs of the spans named `name` whose request id passes
    /// `keep`, in recording order.
    pub fn micros(&self, name: &str, keep: impl Fn(usize) -> bool) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && keep(s.request))
            .map(Span::micros)
            .collect()
    }

    /// Per-request difference `a − b` in µs over requests with both spans.
    pub fn paired_difference(&self, a: &str, b: &str, keep: impl Fn(usize) -> bool) -> Vec<f64> {
        let mut by_request: std::collections::BTreeMap<usize, (f64, f64)> = Default::default();
        for s in self.spans.iter().filter(|s| keep(s.request)) {
            let entry = by_request.entry(s.request).or_insert((f64::NAN, f64::NAN));
            if s.name == a {
                entry.0 = s.micros();
            } else if s.name == b {
                entry.1 = s.micros();
            }
        }
        by_request
            .values()
            .map(|(x, y)| x - y)
            .filter(|d| !d.is_nan())
            .collect()
    }

    /// Write every span as one JSON line with its self time.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.request,
                s.start_ns,
                s.end_ns,
                self_time(s.start_ns, s.end_ns, &children[i])
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[3.0], 90.0), 3.0);
        assert_eq!(median(&[2.0, 1.0, 3.0]), 2.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn self_time_subtracts_the_union_of_clipped_children() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(10, 30), (50, 60)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time(0, 100, &[(10, 40), (20, 50)]), 60);
        // Children reaching outside the parent are clipped to it.
        assert_eq!(self_time(10, 20, &[(0, 15), (18, 40)]), 3);
        // A child that covers everything leaves nothing.
        assert_eq!(self_time(10, 20, &[(0, 40)]), 0);
        // Disjoint child outside the parent is ignored.
        assert_eq!(self_time(10, 20, &[(30, 40)]), 10);
    }

    #[test]
    fn written_spans_carry_self_time() {
        let mut t = Tracer::new();
        let root = t.record("request", 0, 100_000, None, 0);
        t.record("a", 10_000, 30_000, Some(root), 0);
        t.record("b", 20_000, 60_000, Some(root), 0);
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.lines().next().unwrap().contains("\"self_ns\":50000"),
            "{text}"
        );
        assert_eq!(t.paired_difference("b", "a", |_| true), vec![20.0]);
    }
}
