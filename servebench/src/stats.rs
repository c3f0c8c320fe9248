//! Metric arithmetic: percentiles, latency from due time, SLO
//! attainment and level shares.
//!
//! Everything here is pure so the unit tests can pin the rules the
//! reported numbers rest on.

use std::time::{Duration, Instant};

/// Samples that must lie strictly beyond a reported percentile: a tail
/// estimate resting on fewer is noise.
pub const MIN_BEYOND: usize = 10;

/// The `p`-quantile (`0 < p < 1`) of `samples` by the nearest-rank rule,
/// or `None` when fewer than [`MIN_BEYOND`] samples lie beyond its rank.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile {p} outside (0, 1)");
    let n = samples.len();
    let rank = (p * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// [`percentile`], or an error naming the sample (`what`) when too few
/// samples lie beyond it.
pub fn checked_percentile(samples: &[f64], p: f64, what: &str) -> Result<f64, String> {
    percentile(samples, p).ok_or_else(|| {
        format!(
            "too few {what} samples ({}) for a p{}",
            samples.len(),
            p * 100.0
        )
    })
}

/// The median over `segments` of each segment's `p`-quantile: the tail
/// of a typical stretch of the run, so a few seconds of host contention
/// do not set it. Every segment must support the quantile.
pub fn segment_percentile(segments: &[Vec<f64>], p: f64, what: &str) -> Result<f64, String> {
    let per_segment = segments
        .iter()
        .map(|s| checked_percentile(s, p, what))
        .collect::<Result<Vec<f64>, String>>()?;
    median(&per_segment).ok_or_else(|| format!("no {what} segments"))
}

/// The median of `samples` (mean of the middle pair for even counts);
/// `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Open-loop latency of one request: from the time it was *due* to be
/// sent to the time its response was ready.
///
/// `sent` is when the generator actually called the server and `served`
/// the server-measured admission → response time, so a generator that
/// runs late charges its lateness to the request instead of hiding it.
pub fn latency_from_due(due: Instant, sent: Instant, served: Duration) -> Duration {
    sent.saturating_duration_since(due) + served
}

/// Share of `offered` requests that met the limit. `met` holds one entry
/// per *answered* request (`true` when it was correct and within the
/// limit); every offered request without an entry — rejected, shed,
/// expired or failed — counts as a miss.
pub fn slo_attainment(met: &[bool], offered: usize) -> f64 {
    assert!(met.len() <= offered, "more answers than offered requests");
    if offered == 0 {
        return 0.0;
    }
    met.iter().filter(|&&m| m).count() as f64 / offered as f64
}

/// Share of `levels` falling on each of `names.len()` level slots, where
/// `slot` maps a level to its index in `names`. The shares sum to 1 for
/// any non-empty input (every level must map to a slot).
pub fn level_shares(levels: &[usize], slots: usize, slot: impl Fn(usize) -> usize) -> Vec<f64> {
    let mut counts = vec![0usize; slots];
    for &l in levels {
        counts[slot(l)] += 1;
    }
    let total = levels.len().max(1) as f64;
    counts.into_iter().map(|c| c as f64 / total).collect()
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_its_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000 samples: rank 990, ten samples beyond it.
        assert_eq!(percentile(&v, 0.99), Some(990.0));
        // One sample fewer leaves only nine beyond: refused.
        assert_eq!(percentile(&v[..999], 0.99), None);
        assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let v: Vec<f64> = (0..100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(49.0));
    }

    #[test]
    fn segment_percentile_is_the_median_segment_tail() {
        let seg = |base: f64| -> Vec<f64> { (1..=20).map(|i| base + f64::from(i)).collect() };
        // Per-segment medians 10, 110 and 1010: the middle one is reported.
        let segments = [seg(0.0), seg(1000.0), seg(100.0)];
        assert_eq!(segment_percentile(&segments, 0.5, "t"), Ok(110.0));
        // One segment too small for its quantile fails the whole metric.
        let short = [seg(0.0), vec![1.0; 19]];
        assert!(segment_percentile(&short, 0.5, "t").is_err());
        assert!(segment_percentile(&[], 0.5, "t").is_err());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn latency_runs_from_due_time() {
        let due = Instant::now();
        let sent = due + Duration::from_millis(3);
        // A late send adds its lateness to the served time.
        assert_eq!(
            latency_from_due(due, sent, Duration::from_millis(5)),
            Duration::from_millis(8)
        );
        // A send at (or, by clock granularity, before) the due time adds
        // nothing.
        assert_eq!(
            latency_from_due(sent, due, Duration::from_millis(5)),
            Duration::from_millis(5)
        );
    }

    #[test]
    fn failures_count_as_slo_misses() {
        // Ten offered: four answered in time, one answered late, five
        // never answered (rejected, shed, expired or failed).
        let met = [true, true, true, true, false];
        assert_eq!(slo_attainment(&met, 10), 0.4);
        assert_eq!(slo_attainment(&[], 3), 0.0);
        assert_eq!(slo_attainment(&[true; 3], 3), 1.0);
    }

    #[test]
    fn level_shares_sum_to_one() {
        let levels = [7, 0, 0, 2, 7, 7, 1];
        let slot = |l: usize| if l == 7 { 0 } else { l + 1 };
        let shares = level_shares(&levels, 4, slot);
        assert_eq!(shares.len(), 4);
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(shares[0], 3.0 / 7.0);
        assert_eq!(level_shares(&[], 3, slot), vec![0.0; 3]);
    }
}
