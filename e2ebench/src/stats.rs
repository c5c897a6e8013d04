//! The harness's arithmetic: percentiles under the sample-count rule,
//! failure accounting, histogram deltas and trace reconciliation. Pure
//! functions only, so every rule here is unit-tested.

use std::collections::BTreeMap;

use amp_obs::HistogramSnapshot;

/// Samples needed beyond a percentile before it may be reported.
const MIN_BEYOND: f64 = 10.0;

/// Nearest-rank quantile of `sorted` (ascending, non-empty).
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond quantile `q`.
pub fn supports(n: usize, q: f64) -> bool {
    n as f64 * (1.0 - q) >= MIN_BEYOND - 1e-9
}

/// The percentile rule: the quantile `n` samples may report when `q` is
/// asked for. The median needs one sample; a tail quantile needs ten
/// samples beyond it, else the highest of p99/p95/p90 that has them
/// stands in, else the median. `None` with no samples.
pub fn reportable(n: usize, q: f64) -> Option<f64> {
    if n == 0 {
        return None;
    }
    if q <= 0.5 || supports(n, q) {
        return Some(q);
    }
    Some(
        [0.99, 0.95, 0.90]
            .into_iter()
            .find(|&c| c < q && supports(n, c))
            .unwrap_or(0.5),
    )
}

/// A sample set (latencies, durations) read by nearest rank.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn new() -> Samples {
        Samples::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Nearest-rank quantile `q` (0 with no samples; apply
    /// [`reportable`] first to honour the percentile rule).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let mut v = self.values.clone();
        v.sort_by(|a, b| a.total_cmp(b));
        nearest_rank(&v, q)
    }
}

/// Median of a few per-round figures (rounds report one number each).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Failure accounting: every operation the harness attempts is counted
/// once, and each failure keeps its reason.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: BTreeMap<String, u64>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, reason: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        *self.reasons.entry(reason.into()).or_insert(0) += 1;
    }

    /// Record an outcome: `Ok` counts as attempted, `Err` as failed.
    pub fn record<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        match outcome {
            Ok(v) => {
                self.ok();
                Some(v)
            }
            Err(reason) => {
                self.fail(reason);
                None
            }
        }
    }

    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (k, v) in &other.reasons {
            *self.reasons.entry(k.clone()).or_insert(0) += v;
        }
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// `after - before` for one histogram: the observations made in between.
pub fn histogram_delta(before: &HistogramSnapshot, after: &HistogramSnapshot) -> HistogramSnapshot {
    let counts: Vec<u64> = after
        .counts
        .iter()
        .zip(&before.counts)
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    HistogramSnapshot {
        unit: after.unit,
        bounds: after.bounds.clone(),
        count: counts.iter().sum(),
        counts,
        sum: after.sum.saturating_sub(before.sum),
    }
}

/// A copy of a snapshot (the type itself is not `Clone`).
pub fn histogram_copy(h: &HistogramSnapshot) -> HistogramSnapshot {
    HistogramSnapshot {
        unit: h.unit,
        bounds: h.bounds.clone(),
        counts: h.counts.clone(),
        sum: h.sum,
        count: h.count,
    }
}

/// Merge histograms with identical bucket bounds (one route family made
/// of several patterns, one lock family made of several tables).
pub fn histogram_sum<'a>(
    parts: impl IntoIterator<Item = &'a HistogramSnapshot>,
) -> Option<HistogramSnapshot> {
    let mut out: Option<HistogramSnapshot> = None;
    for p in parts {
        match &mut out {
            None => out = Some(histogram_copy(p)),
            Some(acc) => {
                assert_eq!(acc.bounds, p.bounds, "merged histograms share bounds");
                for (a, c) in acc.counts.iter_mut().zip(&p.counts) {
                    *a += c;
                }
                acc.sum += p.sum;
                acc.count += p.count;
            }
        }
    }
    out
}

/// Mean observation of a histogram, or 0 with no observations.
pub fn histogram_mean(h: &HistogramSnapshot) -> f64 {
    if h.count == 0 {
        0.0
    } else {
        h.sum as f64 / h.count as f64
    }
}

/// Reconciliation of the traced parts against end-to-end wall time:
/// `|sum(parts) - wall| / wall`. The parts are disjoint top-level spans
/// issued one after another by a single driving thread, so their sum can
/// fall short of the wall time only by the harness's own bookkeeping.
pub fn reconcile_error(parts: &[f64], wall: f64) -> f64 {
    assert!(wall > 0.0, "reconciliation needs a positive wall time");
    (parts.iter().sum::<f64>() - wall).abs() / wall
}

/// `num / den`, or 0 when `den` is 0 (a layer the workload never ran).
pub fn per(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amp_obs::Unit;

    fn samples(n: usize) -> Samples {
        let mut s = Samples::new();
        for i in 1..=n {
            s.push(i as f64);
        }
        s
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(reportable(999, 0.99), Some(0.95));
        assert_eq!(reportable(1000, 0.99), Some(0.99));
        assert_eq!(samples(1000).quantile(0.99), 990.0);
        assert_eq!(samples(2000).quantile(0.99), 1980.0);
    }

    #[test]
    fn median_needs_one_sample() {
        assert_eq!(reportable(0, 0.5), None);
        assert_eq!(reportable(1, 0.5), Some(0.5));
        assert_eq!(samples(1).quantile(0.5), 1.0);
        assert_eq!(samples(4).quantile(0.5), 2.0);
        assert_eq!(samples(5).quantile(0.5), 3.0);
        assert_eq!(Samples::new().quantile(0.5), 0.0);
    }

    #[test]
    fn the_highest_supported_tail_stands_in() {
        assert_eq!(reportable(10_000, 0.999), Some(0.999));
        assert_eq!(reportable(1_500, 0.999), Some(0.99));
        assert_eq!(reportable(250, 0.99), Some(0.95));
        assert_eq!(reportable(100, 0.99), Some(0.90));
        assert_eq!(reportable(99, 0.99), Some(0.5));
    }

    #[test]
    fn supports_counts_samples_beyond() {
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(supports(10_000, 0.999));
        assert!(supports(200, 0.95));
    }

    #[test]
    fn median_of_rounds() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn tally_counts_every_attempt_once() {
        let mut t = Tally::default();
        t.ok();
        t.ok();
        t.fail("status 500");
        assert_eq!(t.record::<()>(Err("status 500".into())), None);
        assert_eq!(t.record(Ok(7)), Some(7));
        assert_eq!((t.attempted, t.failed), (5, 2));
        assert_eq!(t.reasons["status 500"], 2);
        assert!((t.share() - 0.4).abs() < 1e-12);

        let mut u = Tally::default();
        u.fail("hold");
        u.merge(&t);
        assert_eq!((u.attempted, u.failed), (6, 3));
        assert_eq!(u.reasons.len(), 2);
        assert_eq!(Tally::default().share(), 0.0);
    }

    fn hist(counts: &[u64], sum: u64) -> HistogramSnapshot {
        HistogramSnapshot {
            unit: Unit::Count,
            bounds: vec![1, 2, 4],
            counts: counts.to_vec(),
            sum,
            count: counts.iter().sum(),
        }
    }

    #[test]
    fn histogram_delta_and_sum() {
        let before = hist(&[1, 2, 0, 0], 5);
        let after = hist(&[1, 5, 2, 1], 30);
        let d = histogram_delta(&before, &after);
        assert_eq!(d.counts, vec![0, 3, 2, 1]);
        assert_eq!((d.count, d.sum), (6, 25));
        let s = histogram_sum([&d, &before]).unwrap();
        assert_eq!(s.counts, vec![1, 5, 2, 1]);
        assert_eq!((s.count, s.sum), (9, 30));
        assert!((histogram_mean(&d) - 25.0 / 6.0).abs() < 1e-12);
        assert!(histogram_sum(std::iter::empty()).is_none());
    }

    #[test]
    fn reconciliation_arithmetic() {
        assert_eq!(reconcile_error(&[2.0, 3.0, 5.0], 10.0), 0.0);
        assert!((reconcile_error(&[2.0, 3.0, 4.0], 10.0) - 0.1).abs() < 1e-12);
        // over-count (overlapping spans) is an error too
        assert!((reconcile_error(&[6.0, 6.0], 10.0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn per_guards_zero() {
        assert_eq!(per(3.0, 0.0), 0.0);
        assert_eq!(per(3.0, 2.0), 1.5);
    }
}
