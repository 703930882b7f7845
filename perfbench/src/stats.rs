//! Order statistics over latency samples.
//!
//! A percentile is reported only when it is backed by data: at least ten
//! samples must lie strictly beyond it (so p99 needs 1000 samples, p50
//! needs 20). Below that the tail is a handful of outliers, not a
//! distribution.

/// Samples that must lie beyond a reported percentile.
const MIN_BEYOND: usize = 10;

/// Samples needed before percentile `p` (in percent) may be reported.
pub fn samples_needed(p: f64) -> usize {
    (1..)
        .find(|&n| percentile_index(n, p).is_some_and(|i| beyond(n, i) >= MIN_BEYOND))
        .expect("every percentile below 100 is reachable")
}

/// Nearest-rank index of percentile `p` in `n` sorted samples.
fn percentile_index(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let rank = (p / 100.0 * n as f64).ceil() as usize;
    Some(rank.clamp(1, n) - 1)
}

/// Percentile `p` (nearest rank) of ascending `sorted`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let i = percentile_index(sorted.len(), p)?;
    (beyond(sorted.len(), i) >= MIN_BEYOND).then_some(sorted[i])
}

/// Samples after index `i` of `n`.
fn beyond(n: usize, i: usize) -> usize {
    n - (i + 1)
}

/// Bytes per second of busy time over each whole pass of `n` consecutive
/// operations (`latencies_ns[i]` took `bytes[i]`); a trailing partial pass
/// is left out, so every rate covers the same inputs.
pub fn pass_rates(latencies_ns: &[u64], bytes: &[u64], n: usize) -> Vec<f64> {
    latencies_ns
        .chunks_exact(n.max(1))
        .zip(bytes.chunks_exact(n.max(1)))
        .map(|(l, b)| b.iter().sum::<u64>() as f64 / (l.iter().sum::<u64>().max(1) as f64 / 1e9))
        .collect()
}

/// Which slices of a measured phase to measure, given the share of host
/// CPU time stolen during each: every slice at or below `quiet`, or, when
/// those are fewer than half, the half with the least stolen (the earlier
/// slice first on ties).
pub fn quiet_slices(stolen: &[f64], quiet: f64) -> Vec<bool> {
    let half = stolen.len().div_ceil(2);
    let keep: Vec<bool> = stolen.iter().map(|&s| s <= quiet).collect();
    if keep.iter().filter(|&&k| k).count() >= half {
        return keep;
    }
    let mut order: Vec<usize> = (0..stolen.len()).collect();
    order.sort_by(|&a, &b| stolen[a].total_cmp(&stolen[b]));
    let mut keep = vec![false; stolen.len()];
    for &i in &order[..half] {
        keep[i] = true;
    }
    keep
}

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        let v: Vec<u64> = (1..=999).collect();
        assert_eq!(percentile(&v, 99.0), None, "only 9 samples beyond");
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 99.0), Some(990), "10 samples beyond");
        assert_eq!(samples_needed(99.0), 1000);
    }

    #[test]
    fn p50_needs_twenty_samples() {
        let v: Vec<u64> = (1..=19).collect();
        assert_eq!(percentile(&v, 50.0), None);
        let v: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&v, 50.0), Some(10));
        assert_eq!(samples_needed(50.0), 20);
        assert_eq!(samples_needed(90.0), 100);
    }

    #[test]
    fn empty_input_has_no_percentile() {
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn pass_rates_cover_whole_passes_only() {
        // Two passes of two operations, then half a pass.
        let latencies = [1_000_000_000, 1_000_000_000, 500_000_000, 500_000_000, 1];
        let bytes = [100, 300, 100, 300, 7];
        assert_eq!(pass_rates(&latencies, &bytes, 2), vec![200.0, 400.0]);
        assert!(pass_rates(&latencies[..1], &bytes[..1], 2).is_empty());
    }

    #[test]
    fn quiet_slices_keep_the_quiet_or_the_quieter_half() {
        let t = [true, true, true];
        assert_eq!(quiet_slices(&[0.0, 0.005, 0.01], 0.01), t);
        assert_eq!(
            quiet_slices(&[0.3, 0.0, 0.2, 0.02, 0.2], 0.01),
            [false, true, true, true, false],
            "one quiet slice of five: the three least stolen"
        );
        assert_eq!(quiet_slices(&[0.2, 0.2], 0.01), [true, false]);
        assert!(quiet_slices(&[], 0.01).is_empty());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
