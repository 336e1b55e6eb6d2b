//! Summary statistics and Monte-Carlo confidence machinery for the
//! experiment harness.

/// Median of a slice (average of middle two for even length).
///
/// Sorts a copy; inputs in this workspace are small (per-group estimates,
/// trial summaries).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    median_in_place(&mut v)
}

/// [`median`] over a caller-owned buffer, which it may reorder — the
/// allocation-free twin the finish path's buffered estimate sweeps use
/// (bit-for-bit the same result).
///
/// The reference is a stable sort: among equal values (`−0.0` and
/// `+0.0` compare equal) the one earlier in input order sorts first.
/// Short inputs — a median over an oracle's groups — skip the sort and
/// select by stable rank: element `i` lands at position
/// `#{j < i : x_j ≤ x_i} + #{j > i : x_j < x_i}` of the stable sort,
/// so the selected elements are the sorted buffer's middle ones.
pub fn median_in_place(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "median of empty slice");
    let n = xs.len();
    if n > 16 {
        xs.sort_by(|a, b| a.partial_cmp(b).expect("NaN in median input"));
        return if n % 2 == 1 {
            xs[n / 2]
        } else {
            0.5 * (xs[n / 2 - 1] + xs[n / 2])
        };
    }
    assert!(
        n == 1 || !xs.iter().any(|v| v.is_nan()),
        "NaN in median input"
    );
    let rank = |i: usize| {
        let v = xs[i];
        xs[..i].iter().filter(|&&u| u <= v).count() + xs[i + 1..].iter().filter(|&&u| u < v).count()
    };
    let at = |k: usize| xs[(0..n).find(|&i| rank(i) == k).expect("ranks permute 0..n")];
    if n % 2 == 1 {
        at(n / 2)
    } else {
        0.5 * (at(n / 2 - 1) + at(n / 2))
    }
}

/// Empirical quantile with linear interpolation, `q` in `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty());
    assert!((0.0..=1.0).contains(&q));
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        v[lo]
    } else {
        let frac = pos - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

/// Sample mean.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance (n−1 denominator); 0 for singleton input.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Maximum absolute value.
pub fn max_abs(xs: &[f64]) -> f64 {
    xs.iter().fold(0.0, |acc, &x| acc.max(x.abs()))
}

/// Wilson score interval for a binomial proportion: returns `(lo, hi)` at
/// `z` standard deviations (z = 1.96 for 95%).
///
/// Used by Monte-Carlo failure-probability measurements so experiment
/// output reports honest uncertainty rather than point estimates.
pub fn wilson_interval(successes: u64, trials: u64, z: f64) -> (f64, f64) {
    assert!(trials > 0, "Wilson interval needs at least one trial");
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let centre = p + z2 / (2.0 * n);
    let half = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    (
        ((centre - half) / denom).max(0.0),
        ((centre + half) / denom).min(1.0),
    )
}

/// Ordinary least squares slope of `log y` vs `log x` — the growth
/// exponent of a measured series, used to compare against theoretical
/// exponents (e.g. the 0.5 of `sqrt(n)` error growth).
pub fn loglog_slope(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    assert!(xs.len() >= 2, "need at least two points for a slope");
    let lx: Vec<f64> = xs
        .iter()
        .map(|&x| {
            assert!(x > 0.0, "loglog_slope needs positive x, got {x}");
            x.ln()
        })
        .collect();
    let ly: Vec<f64> = ys
        .iter()
        .map(|&y| {
            assert!(y > 0.0, "loglog_slope needs positive y, got {y}");
            y.ln()
        })
        .collect();
    let mx = mean(&lx);
    let my = mean(&ly);
    let cov: f64 = lx.iter().zip(&ly).map(|(&a, &b)| (a - mx) * (b - my)).sum();
    let var: f64 = lx.iter().map(|&a| (a - mx) * (a - mx)).sum();
    cov / var
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn rank_selection_equals_stable_sort() {
        // Values from a tiny pool with both zeros, so ties — and ±0.0
        // ties in particular — are common; lengths cover both paths.
        use rand::Rng;
        let pool = [-0.0, 0.0, 1.5, -2.0, 0.0, -0.0, 3.25];
        let mut rng = crate::rng::seeded_rng(1);
        for _ in 0..20_000 {
            let n = rng.gen_range(1..=20);
            let xs: Vec<f64> = (0..n).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
            let mut sorted = xs.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let want = if n % 2 == 1 {
                sorted[n / 2]
            } else {
                0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
            };
            let got = median_in_place(&mut xs.clone());
            assert_eq!(got.to_bits(), want.to_bits(), "{xs:?}");
        }
    }

    #[test]
    #[should_panic(expected = "NaN in median input")]
    fn median_rejects_nan() {
        median_in_place(&mut [1.0, f64::NAN, 2.0]);
    }

    #[test]
    fn quantile_endpoints() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(quantile(&xs, 0.5), 2.5);
    }

    #[test]
    fn variance_constant_is_zero() {
        assert_eq!(variance(&[5.0, 5.0, 5.0]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
        assert!((variance(&[1.0, 2.0, 3.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn wilson_contains_truth_mostly() {
        // For p = 0.3, n = 1000, the 95% interval should contain 0.3 when
        // successes = 300.
        let (lo, hi) = wilson_interval(300, 1000, 1.96);
        assert!(lo < 0.3 && 0.3 < hi);
        assert!(lo > 0.25 && hi < 0.35);
        // Degenerate extremes stay in [0,1].
        let (lo, hi) = wilson_interval(0, 10, 1.96);
        assert!(lo == 0.0 && hi < 0.5);
        let (lo, hi) = wilson_interval(10, 10, 1.96);
        assert!(hi == 1.0 && lo > 0.5);
    }

    #[test]
    fn loglog_slope_recovers_exponent() {
        let xs: Vec<f64> = (1..=10).map(|i| (i * i) as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 3.0 * x.powf(0.5)).collect();
        assert!((loglog_slope(&xs, &ys) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn max_abs_mixed_signs() {
        assert_eq!(max_abs(&[-3.0, 2.0, 1.0]), 3.0);
        assert_eq!(max_abs(&[]), 0.0);
    }
}
