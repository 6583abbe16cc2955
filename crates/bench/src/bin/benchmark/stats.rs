//! Exact order statistics over raw samples.
//!
//! The program's own `benes_obs::Histogram` has buckets up to 6.25%
//! wide, so its quantiles snap to bucket edges and read the same on
//! every run; it is also a layer later changes will touch. The
//! benchmark therefore keeps every sample and sorts it here.

/// The `q`-quantile (`0.0..=1.0`) of `samples` by the nearest-rank
/// rule: the smallest sample with at least `q·len` samples at or below
/// it. Sorts `samples` in place. `None` when there are no samples.
pub fn quantile(samples: &mut [u64], q: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    Some(samples[rank(samples.len(), q)])
}

/// The nearest-rank index of the `q`-quantile in a sorted slice of
/// `len > 0` samples.
fn rank(len: usize, q: f64) -> usize {
    let q = q.clamp(0.0, 1.0);
    let r = (q * len as f64).ceil() as usize;
    r.clamp(1, len) - 1
}

/// The `q`-quantile of floating-point readings (one per time window) by
/// the same nearest-rank rule as [`quantile`]. `None` when there are
/// none.
pub fn quantile_f64(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(v.len(), q)])
}

/// Median of a small set of floating-point readings (the set-up
/// launches); the mean of the middle pair for an even count.
pub fn median_f64(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// How many samples lie strictly above the `q`-quantile: the tail that
/// backs a reported percentile (at least ten for a trustworthy p99).
pub fn beyond(len: usize, q: f64) -> usize {
    if len == 0 {
        0
    } else {
        len - 1 - rank(len, q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_hand_computed_cases() {
        // 1..=10: p50 is the 5th value, p90 the 9th, p99 and p100 the 10th.
        let mut v: Vec<u64> = (1..=10).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), Some(5));
        assert_eq!(quantile(&mut v, 0.9), Some(9));
        assert_eq!(quantile(&mut v, 0.99), Some(10));
        assert_eq!(quantile(&mut v, 1.0), Some(10));
        assert_eq!(quantile(&mut v, 0.0), Some(1));
        // 1..=100: p99 is the 99th value, with one sample beyond it.
        let mut w: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&mut w, 0.99), Some(99));
        assert_eq!(beyond(100, 0.99), 1);
        assert_eq!(beyond(1000, 0.99), 10);
    }

    #[test]
    fn quantiles_resolve_between_bucket_edges() {
        // Values a log-bucketed histogram would merge stay distinct.
        let mut v = vec![8_126_463, 8_126_464, 8_126_470, 8_126_480, 8_126_490];
        assert_eq!(quantile(&mut v, 0.5), Some(8_126_470));
    }

    #[test]
    fn single_and_empty_inputs() {
        assert_eq!(quantile(&mut [], 0.5), None);
        assert_eq!(quantile(&mut [7], 0.99), Some(7));
        assert_eq!(beyond(0, 0.5), 0);
    }

    #[test]
    fn lower_quartile_of_window_readings() {
        // 20 windows: the lower quartile is the 5th smallest reading.
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(quantile_f64(&v, 0.25), Some(5.0));
        // 10 windows: the 3rd smallest (rank ceil(2.5)).
        assert_eq!(quantile_f64(&v[10..], 0.25), Some(3.0));
        assert_eq!(quantile_f64(&[2.5], 0.25), Some(2.5));
        assert_eq!(quantile_f64(&[], 0.25), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
