//! Statistics the harness reports: nearest-rank percentiles guarded by
//! the ten-samples-beyond rule, open-loop lateness, and the oracle
//! comparison that turns a result into pass/fail.

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `samples`; `None` when
/// empty. Sorts a copy, so callers keep their arrival order.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of `samples` (the p50 nearest rank); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

/// Mean of the middle half of `samples` (a quarter, rounded down, is
/// dropped from each end); 0 when empty. Unlike the median it moves
/// smoothly when the samples fall into two clusters (worker processes
/// that ran while the host was slow and ones that ran while it was fast),
/// and unlike the mean one outlier cannot move it far.
pub fn interquartile_mean(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let mid = &sorted[cut..sorted.len() - cut];
    if mid.is_empty() {
        return 0.0;
    }
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Throughput robust to a transient stall: the ops (completed at
/// `end_s`, seconds from the loop start, ascending) are cut into `chunks`
/// runs of whole rounds of `round` ops, and the median of the chunks'
/// ops-per-second is returned. Fewer rounds than chunks: one chunk per
/// round. 0 when no round completed.
pub fn median_rate(end_s: &[f64], round: usize, chunks: usize) -> f64 {
    let rounds = end_s.len() / round;
    let chunks = chunks.min(rounds);
    if chunks == 0 {
        return 0.0;
    }
    let per_chunk = rounds / chunks * round;
    let mut rates = Vec::with_capacity(chunks);
    let mut t0 = 0.0;
    for c in 0..chunks {
        let t1 = end_s[(c + 1) * per_chunk - 1];
        rates.push(per_chunk as f64 / (t1 - t0));
        t0 = t1;
    }
    median(&rates)
}

/// Percentile `p` robust to a transient stall: the median of the
/// percentile of each of `chunks` consecutive runs of `samples`.
pub fn chunked_percentile(samples: &[f64], chunks: usize, p: f64) -> f64 {
    let len = samples.len() / chunks.max(1);
    if len == 0 {
        return percentile(samples, p).unwrap_or(0.0);
    }
    let per: Vec<f64> = samples
        .chunks_exact(len)
        .filter_map(|c| percentile(c, p))
        .collect();
    median(&per)
}

/// Whether `n` samples leave at least ten beyond percentile `p` — the
/// rule for reporting a tail percentile as a measurement rather than a
/// guess (p99 needs ≥ 1000 samples).
pub fn percentile_supported(n: usize, p: f64) -> bool {
    let beyond = n as f64 * (1.0 - p / 100.0);
    beyond + 1e-9 >= 10.0
}

/// How late an open-loop generator sent each request: `actual - intended`
/// per request, clamped at zero (sending early is impossible by
/// construction, but clocks are read twice).
pub fn lateness_ns(intended: &[u64], actual: &[u64]) -> Vec<f64> {
    intended
        .iter()
        .zip(actual)
        .map(|(&want, &got)| got.saturating_sub(want) as f64)
        .collect()
}

/// Counts the positions where `got` differs from `want`, including a
/// length difference (every missing or surplus element is one mismatch).
pub fn mismatches<T: PartialEq>(got: &[T], want: &[T]) -> u64 {
    let common = got.iter().zip(want).filter(|(g, w)| g != w).count();
    (common + got.len().abs_diff(want.len())) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Arrival order does not matter.
        let rev: Vec<f64> = v.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 99.0), Some(99.0));
    }

    #[test]
    fn interquartile_mean_drops_a_quarter_from_each_end() {
        assert_eq!(interquartile_mean(&[]), 0.0);
        assert_eq!(interquartile_mean(&[4.0, 1.0, 2.0]), 7.0 / 3.0);
        // One outlier of eight is dropped.
        let v = [10.0, 11.0, 9.0, 10.0, 1e9, 10.0, 11.0, 9.0];
        assert_eq!(interquartile_mean(&v), 10.25);
        // Two clusters: 5 slow and 10 fast workers land between them.
        let mut w = vec![40.0; 5];
        w.extend([70.0; 10]);
        assert!((interquartile_mean(&w) - (2.0 * 40.0 + 7.0 * 70.0) / 9.0).abs() < 1e-9);
    }

    #[test]
    fn median_rate_ignores_one_stalled_chunk() {
        // 10 ops a second, except one stall of 5 s in the third chunk.
        let mut end = Vec::new();
        let mut t = 0.0;
        for i in 0..50 {
            t += if i == 25 { 5.1 } else { 0.1 };
            end.push(t);
        }
        let rate = median_rate(&end, 2, 5);
        assert!((rate - 10.0).abs() < 1e-9, "{rate}");
        // Whole rounds only, and at most one chunk per round.
        assert_eq!(median_rate(&end[..1], 2, 5), 0.0);
        assert!((median_rate(&end[..4], 2, 5) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn chunked_percentile_is_the_median_of_chunk_percentiles() {
        let mut v: Vec<f64> = (0..4000).map(|i| f64::from(i % 100)).collect();
        // A burst of slow samples inside one chunk only.
        for x in &mut v[100..200] {
            *x = 1e6;
        }
        assert_eq!(chunked_percentile(&v, 4, 99.0), 98.0);
        assert_eq!(percentile(&v, 99.0), Some(1e6));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert!(!percentile_supported(999, 99.0));
        assert!(percentile_supported(1000, 99.0));
        assert!(percentile_supported(20, 50.0));
        assert!(!percentile_supported(19, 50.0));
        assert!(percentile_supported(10_000, 99.9));
        assert!(!percentile_supported(9_999, 99.9));
    }

    #[test]
    fn open_loop_lateness_is_measured_from_the_schedule() {
        let intended = [100, 200, 300, 400];
        // The generator stalled once: the third and fourth sends are late
        // even though they left back to back.
        let actual = [100, 205, 390, 391];
        assert_eq!(lateness_ns(&intended, &actual), vec![0.0, 5.0, 90.0, 0.0]);
        assert_eq!(
            percentile(&lateness_ns(&intended, &actual), 100.0),
            Some(90.0)
        );
    }

    #[test]
    fn oracle_comparison_counts_every_difference() {
        assert_eq!(mismatches(&[1, 2, 3], &[1, 2, 3]), 0);
        assert_eq!(mismatches(&[1, 9, 3], &[1, 2, 3]), 1);
        assert_eq!(mismatches(&[1, 2], &[1, 2, 3]), 1);
        assert_eq!(mismatches(&[1, 2, 3, 4, 5], &[1, 2, 3]), 2);
        assert_eq!(mismatches::<u64>(&[], &[]), 0);
    }
}
