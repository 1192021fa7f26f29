//! Stratification machinery (§5.3 of the paper).
//!
//! * [`cum_sqrt_f_boundaries`] — the Dalenius–Hodges *cumulative square root
//!   of frequency* rule (paper reference \[12\]) used by the "Size
//!   Stratification" strategy: build a histogram of the stratification
//!   signal (cluster size), accumulate `√f` over bins, and cut the
//!   cumulative curve into `H` equal spans.
//! * [`Allocation`] — how to split a sample budget across strata:
//!   proportional to stratum population, Neyman-optimal (∝ `W_h·S_h`), or
//!   equal.

use crate::error::StatsError;

/// A half-open stratum range `[lo, hi)` over the stratification signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StratumBounds {
    /// Inclusive lower bound of the signal value.
    pub lo: u64,
    /// Exclusive upper bound (`u64::MAX` for the last stratum).
    pub hi: u64,
}

impl StratumBounds {
    /// Whether the signal value falls in this stratum.
    pub fn contains(&self, value: u64) -> bool {
        value >= self.lo && value < self.hi
    }
}

/// Dalenius–Hodges cumulative-√F stratum boundaries.
///
/// `values` are the stratification signal (e.g. cluster sizes); `strata` is
/// the desired number of strata `H ≥ 1`. Returns `H` contiguous
/// [`StratumBounds`] covering `[min(values), u64::MAX)`.
///
/// When the signal has fewer than `H` distinct values the result may contain
/// fewer strata (degenerate bins are merged), which callers must accept —
/// e.g. NELL's cluster sizes have ~98% of mass below 5 and the paper uses
/// only two strata there (Table 7 caption).
pub fn cum_sqrt_f_boundaries(
    values: &[u64],
    strata: usize,
) -> Result<Vec<StratumBounds>, StatsError> {
    if values.is_empty() {
        return Err(StatsError::EmptyInput("stratification signal"));
    }
    if strata == 0 {
        return Err(StatsError::invalid("strata", ">= 1", 0.0));
    }
    let min = *values.iter().min().expect("non-empty");
    let max = *values.iter().max().expect("non-empty");
    if strata == 1 || min == max {
        return Ok(vec![StratumBounds {
            lo: min,
            hi: u64::MAX,
        }]);
    }

    // Frequency per distinct signal value (signal domains here — cluster
    // sizes — are small integers, so a dense table keyed by value is fine;
    // cap the table to avoid pathological memory use for huge outliers by
    // bucketing the tail logarithmically).
    let span = max - min;
    let dense_ok = span <= 1_048_576;
    type BinOf = Box<dyn Fn(u64) -> usize>;
    type ValueOf = Box<dyn Fn(usize) -> u64>;
    let (bin_of, value_of): (BinOf, ValueOf) = if dense_ok {
        (
            Box::new(move |v: u64| (v - min) as usize),
            Box::new(move |b: usize| min + b as u64),
        )
    } else {
        // Logarithmic bins above 2^20 distinct values.
        let lo_f = min as f64;
        let ratio = (max as f64 / lo_f.max(1.0)).ln() / 1_048_576.0;
        (
            Box::new(move |v: u64| {
                (((v as f64 / lo_f.max(1.0)).ln() / ratio) as usize).min(1_048_575)
            }),
            Box::new(move |b: usize| (lo_f.max(1.0) * (ratio * b as f64).exp()).round() as u64),
        )
    };
    let nbins = if dense_ok {
        span as usize + 1
    } else {
        1_048_576
    };
    let mut freq = vec![0u64; nbins];
    for &v in values {
        freq[bin_of(v)] += 1;
    }

    // Cumulative sqrt(f) and equal cuts.
    let total_sqrt: f64 = freq.iter().map(|&f| (f as f64).sqrt()).sum();
    let step = total_sqrt / strata as f64;
    let mut bounds = Vec::with_capacity(strata);
    let mut acc = 0.0;
    let mut next_cut = step;
    let mut lo = min;
    for (b, &f) in freq.iter().enumerate() {
        acc += (f as f64).sqrt();
        if acc >= next_cut && bounds.len() + 1 < strata {
            let hi = value_of(b) + 1;
            if hi > lo {
                bounds.push(StratumBounds { lo, hi });
                lo = hi;
            }
            next_cut += step;
        }
    }
    bounds.push(StratumBounds { lo, hi: u64::MAX });
    Ok(bounds)
}

/// Assign each value to its stratum index given sorted contiguous bounds.
pub fn assign_strata(values: &[u64], bounds: &[StratumBounds]) -> Vec<usize> {
    values
        .iter()
        .map(|&v| {
            bounds
                .iter()
                .position(|b| b.contains(v))
                .unwrap_or(bounds.len() - 1)
        })
        .collect()
}

/// Sample-allocation policies across `H` strata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Allocation {
    /// `n_h ∝ W_h` (stratum population weight).
    Proportional,
    /// Neyman-optimal: `n_h ∝ W_h · S_h` using per-stratum standard
    /// deviations; falls back to proportional when all `S_h` are zero.
    Neyman,
    /// Equal split.
    Equal,
}

impl Allocation {
    /// Split a batch of `total` draws across strata.
    ///
    /// `weights` are stratum population weights `W_h` (summing to ~1);
    /// `stds` are per-stratum standard deviation estimates (used only by
    /// Neyman; pass `&[]` otherwise). Every stratum with positive weight
    /// gets at least one draw when `total >= H⁺` (the number of positive-
    /// weight strata); remainders go to the largest fractional shares.
    pub fn allocate(&self, total: usize, weights: &[f64], stds: &[f64]) -> Vec<usize> {
        let h = weights.len();
        if h == 0 || total == 0 {
            return vec![0; h];
        }
        let scores: Vec<f64> = match self {
            Allocation::Proportional => weights.to_vec(),
            Allocation::Equal => vec![1.0; h],
            Allocation::Neyman => {
                let s: Vec<f64> = (0..h)
                    .map(|i| weights[i] * stds.get(i).copied().unwrap_or(0.0))
                    .collect();
                if s.iter().all(|&x| x <= 0.0) {
                    weights.to_vec()
                } else {
                    s
                }
            }
        };
        let mass: f64 = scores.iter().filter(|&&s| s > 0.0).sum();
        if mass <= 0.0 {
            let mut out = vec![0; h];
            out[0] = total;
            return out;
        }
        // Largest-remainder apportionment.
        let mut out = vec![0usize; h];
        let mut fracs: Vec<(usize, f64)> = Vec::with_capacity(h);
        let mut assigned = 0usize;
        for i in 0..h {
            let share = scores[i].max(0.0) / mass * total as f64;
            out[i] = share.floor() as usize;
            assigned += out[i];
            fracs.push((i, share - share.floor()));
        }
        fracs.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite fractions"));
        let mut left = total - assigned;
        for (i, _) in fracs {
            if left == 0 {
                break;
            }
            out[i] += 1;
            left -= 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_cover_and_partition() {
        let values: Vec<u64> = (0..1000).map(|i| 1 + (i % 40)).collect();
        let bounds = cum_sqrt_f_boundaries(&values, 4).unwrap();
        assert!(bounds.len() <= 4 && !bounds.is_empty());
        // Contiguity + coverage.
        assert_eq!(bounds[0].lo, 1);
        for w in bounds.windows(2) {
            assert_eq!(w[0].hi, w[1].lo);
        }
        assert_eq!(bounds.last().unwrap().hi, u64::MAX);
        // Every value maps to exactly one stratum.
        for &v in &values {
            let n = bounds.iter().filter(|b| b.contains(v)).count();
            assert_eq!(n, 1, "value {v} in {n} strata");
        }
    }

    #[test]
    fn single_stratum_when_requested_or_degenerate() {
        let values = vec![7u64; 100];
        assert_eq!(cum_sqrt_f_boundaries(&values, 5).unwrap().len(), 1);
        let mixed: Vec<u64> = (1..100).collect();
        assert_eq!(cum_sqrt_f_boundaries(&mixed, 1).unwrap().len(), 1);
    }

    #[test]
    fn rejects_empty_and_zero_strata() {
        assert!(cum_sqrt_f_boundaries(&[], 3).is_err());
        assert!(cum_sqrt_f_boundaries(&[1, 2, 3], 0).is_err());
    }

    #[test]
    fn long_tail_splits_low_sizes_finely() {
        // NELL-like: 98% of clusters of size 1..5, a few huge.
        let mut values: Vec<u64> = (0..980).map(|i| 1 + (i as u64 % 5)).collect();
        values.extend(std::iter::repeat_n(100, 20));
        let bounds = cum_sqrt_f_boundaries(&values, 2).unwrap();
        assert_eq!(bounds.len(), 2);
        // The first cut should land within the dense low range.
        assert!(bounds[0].hi <= 10, "cut at {}", bounds[0].hi);
    }

    #[test]
    fn assignment_matches_contains() {
        let values = vec![1u64, 5, 9, 100, 3];
        let bounds = vec![
            StratumBounds { lo: 1, hi: 4 },
            StratumBounds { lo: 4, hi: 10 },
            StratumBounds {
                lo: 10,
                hi: u64::MAX,
            },
        ];
        assert_eq!(assign_strata(&values, &bounds), vec![0, 1, 1, 2, 0]);
    }

    #[test]
    fn proportional_allocation_sums_and_tracks_weights() {
        let alloc = Allocation::Proportional.allocate(100, &[0.5, 0.3, 0.2], &[]);
        assert_eq!(alloc.iter().sum::<usize>(), 100);
        assert_eq!(alloc, vec![50, 30, 20]);
    }

    #[test]
    fn neyman_prefers_high_variance_strata() {
        let alloc = Allocation::Neyman.allocate(100, &[0.5, 0.5], &[0.0, 0.4]);
        assert_eq!(alloc.iter().sum::<usize>(), 100);
        assert!(alloc[1] > alloc[0]);
        // All-zero stds fall back to proportional.
        let fb = Allocation::Neyman.allocate(10, &[0.9, 0.1], &[0.0, 0.0]);
        assert!(fb[0] > fb[1]);
    }

    #[test]
    fn equal_allocation_balances() {
        let alloc = Allocation::Equal.allocate(10, &[0.9, 0.05, 0.05], &[]);
        assert_eq!(alloc.iter().sum::<usize>(), 10);
        assert!(alloc.iter().all(|&n| n >= 3));
    }

    #[test]
    fn allocation_handles_zero_total_and_empty() {
        assert_eq!(Allocation::Proportional.allocate(0, &[1.0], &[]), vec![0]);
        assert!(Allocation::Proportional.allocate(5, &[], &[]).is_empty());
    }
}
