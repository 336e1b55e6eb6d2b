//! Order statistics for timing samples.

/// Nearest-rank percentile `p` (0 <= p <= 100; 0 gives the minimum) of
/// `samples`; 0 for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples (the
/// tolerance keeps 99.9% of 10000 at 9990, not 9991).
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0) * n as f64 - 1e-9).ceil() as usize
}

/// The median of `samples` (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Percentile `p`, lowered where needed to the highest rank that still
/// leaves ten samples beyond it, but never below the median: a tail read
/// from fewer samples is one sample's noise. With 100 or more samples
/// p90 is the true p90; with 20 or fewer it is the median.
pub fn supported_percentile(samples: &[f64], p: f64) -> f64 {
    let n = samples.len();
    let floor = rank(50.0, n).max(1);
    let r = rank(p, n).min(n.saturating_sub(10).max(floor));
    percentile(samples, 100.0 * r as f64 / n.max(1) as f64)
}

/// The highest of p90, p99 and p99.9 that has at least ten samples
/// beyond it, as `(p, value)`; `None` when even p90 has fewer than ten.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    [99.9, 99.0, 90.0]
        .into_iter()
        .find(|&p| n.saturating_sub(rank(p, n)) >= 10)
        .map(|p| (p, percentile(samples, p)))
}

/// One line "p50 X, pNN Y, min A, max B (n samples)" in the samples'
/// unit.
pub fn describe(samples: &[f64]) -> String {
    let tail = match tail(samples) {
        Some((p, v)) => format!("p{p} {v:.3}"),
        None => "no tail percentile has 10 samples beyond it".to_string(),
    };
    format!(
        "p50 {:.3}, {tail}, min {:.3}, max {:.3} ({} samples)",
        median(samples),
        percentile(samples, 0.0),
        percentile(samples, 100.0),
        samples.len()
    )
}

/// Total length covered by the union of half-open intervals.
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            _ => {
                if let Some((cs, ce)) = cur {
                    covered += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail_follow_sample_count() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&hundred), 50.0);
        // p90 of 100 samples leaves exactly 10 beyond it; p99 only 1.
        assert_eq!(tail(&hundred), Some((90.0, 90.0)));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand), Some((99.0, 990.0)));
        let ten_thousand: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&ten_thousand), Some((99.9, 9990.0)));
        // 99 samples: p90 leaves 9 beyond, so no tail is supported.
        assert_eq!(tail(&hundred[..99]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
        // p90 holds from 100 samples; fewer lower it, down to the median.
        assert_eq!(supported_percentile(&hundred, 90.0), 90.0);
        assert_eq!(supported_percentile(&thousand, 90.0), 900.0);
        assert_eq!(supported_percentile(&hundred[..99], 90.0), 89.0);
        assert_eq!(supported_percentile(&hundred[..50], 90.0), 40.0);
        assert_eq!(supported_percentile(&hundred[..20], 90.0), 10.0);
        assert_eq!(supported_percentile(&hundred[..5], 90.0), 3.0);
        assert_eq!(supported_percentile(&[], 90.0), 0.0);
    }

    #[test]
    fn union_merges_overlaps() {
        let mut iv = vec![(5, 10), (0, 2), (1, 3), (8, 12), (20, 21)];
        assert_eq!(union_len(&mut iv), 3 + 7 + 1);
        assert_eq!(union_len(&mut []), 0);
    }
}
