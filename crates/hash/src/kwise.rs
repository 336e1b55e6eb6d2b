//! `k`-wise independent hashing via random polynomials over `F_p`.

use crate::field::{PrimeField, MERSENNE_P};
use hh_math::rng::{derive_seed, seeded_rng};
use rand::Rng;

/// A `k`-wise independent hash function `F_p → [range]`.
///
/// Realized as a uniformly random polynomial of degree `k − 1` over
/// `F_p = GF(2^61 − 1)`; over the field this family is *exactly* `k`-wise
/// independent, and the final `mod range` step introduces at most `range/p`
/// pointwise bias. When `range` is a power of two the reduction is the
/// mask `& (range − 1)`, which equals `% range` on every `u64`.
///
/// Evaluation is Horner's rule with lazy Mersenne reduction: the
/// accumulator is congruent mod `p` but not canonical between steps, and
/// one [`PrimeField::reduce64`] at the end returns the canonical field
/// value — the value a fully reduced Horner chain gives, hence the same
/// hash. A chain whose inputs are all below `2^32` folds each step's
/// product once (the accumulator stays below `2^63`); any larger input
/// folds it twice (below `2^62`). [`KWiseHash::hash_into`] runs four
/// independent chains side by side, hiding the multiply latency a single
/// chain waits on.
///
/// Inputs must be below `p = 2^61 − 1` (asserted); every domain in the
/// workspace satisfies this.
#[derive(Debug, Clone)]
pub struct KWiseHash {
    /// Polynomial coefficients, constant term first.
    coeffs: Vec<u64>,
    range: u64,
}

/// Independent Horner chains [`KWiseHash::hash_into`] interleaves.
const LANES: usize = 4;

/// Inputs below this bound keep a once-folded Horner accumulator below
/// `2^63` (see [`single_fold_step`]).
const SINGLE_FOLD_INPUT: u64 = 1 << 32;

/// One Horner step `acc·x + c` over `F_p` with a single 61-bit fold of
/// the product, congruent mod `p`. With `acc < 2^63` and `x < 2^32` the
/// product is below `2^95`, so the result is below
/// `2^61 + 2^34 + 2^61 < 2^63`: the accumulator stays in range for the
/// next step. With `acc < 2^62` and `x < 2^61` (any field input) the
/// product is below `2^123` and the result below `2^63`.
#[inline(always)]
fn single_fold_step(acc: u64, x: u64, c: u64) -> u64 {
    let prod = u128::from(acc) * u128::from(x);
    ((prod as u64) & MERSENNE_P) + (prod >> 61) as u64 + c
}

/// One Horner step `acc·x + c` for any field input: the single fold,
/// then a second fold that brings the result under `2^61 + 4`, so
/// `acc < 2^62` holds for the next step.
#[inline(always)]
fn lazy_horner_step(acc: u64, x: u64, c: u64) -> u64 {
    let v = single_fold_step(acc, x, c);
    (v & MERSENNE_P) + (v >> 61)
}

/// The canonical field values of the polynomial `rest ‖ lead` (constant
/// term first, `lead` highest) at each of `xs`: `N` interleaved Horner
/// chains, once-folded when every input is below `2^32`, twice-folded
/// otherwise.
#[inline(always)]
fn horner_lanes<const N: usize>(lead: u64, rest: &[u64], xs: [u64; N]) -> [u64; N] {
    let mut acc = [lead; N];
    if xs.iter().all(|&x| x < SINGLE_FOLD_INPUT) {
        for &c in rest.iter().rev() {
            for (a, &x) in acc.iter_mut().zip(&xs) {
                *a = single_fold_step(*a, x, c);
            }
        }
    } else {
        for &c in rest.iter().rev() {
            for (a, &x) in acc.iter_mut().zip(&xs) {
                *a = lazy_horner_step(*a, x, c);
            }
        }
    }
    acc.map(PrimeField::reduce64)
}

#[inline]
fn assert_in_field(x: u64) {
    assert!(x < MERSENNE_P, "input {x} outside F_p domain");
}

/// The `k` coefficients (constant term first) of the polynomial `seed`
/// selects, after checking `k` and `range` — the one draw every hash
/// type makes, so a pairwise hash equals the `k = 2` [`KWiseHash`] of
/// the same seed.
fn draw_coeffs(seed: u64, k: usize, range: u64) -> impl Iterator<Item = u64> {
    assert!(k >= 1, "independence level must be >= 1");
    assert!(range >= 1, "range must be nonempty");
    assert!(
        range <= 1 << 48,
        "range {range} too large for negligible modular bias"
    );
    let mut rng = seeded_rng(derive_seed(seed, 0x6B77_6973_6531)); // "kwise1"
    (0..k).map(move |_| rng.gen_range(0..MERSENNE_P))
}

/// Reduce a field value into `[0, range)`: a mask on power-of-two
/// ranges (every hot range is one), `%` otherwise — the same value.
#[inline]
fn reduce_range(v: u64, range: u64) -> u64 {
    if range.is_power_of_two() {
        v & (range - 1)
    } else {
        v % range
    }
}

impl KWiseHash {
    /// Sample a fresh `k`-wise independent function into `[range]`.
    pub fn new(seed: u64, k: usize, range: u64) -> Self {
        Self {
            coeffs: draw_coeffs(seed, k, range).collect(),
            range,
        }
    }

    /// Independence level `k`.
    pub fn independence(&self) -> usize {
        self.coeffs.len()
    }

    /// Output range size.
    pub fn range(&self) -> u64 {
        self.range
    }

    /// Raw polynomial evaluation in `F_p` (before range reduction), as a
    /// canonical value in `[0, p)`.
    #[inline]
    pub fn eval_field(&self, x: u64) -> u64 {
        assert_in_field(x);
        let (lead, rest) = self.split_lead();
        let [v] = horner_lanes(lead, rest, [x]);
        v
    }

    /// The leading coefficient, which starts every Horner chain (it is
    /// `0·x + c` without the multiply), and the coefficients below it.
    #[inline]
    fn split_lead(&self) -> (u64, &[u64]) {
        let (&lead, rest) = self.coeffs.split_last().expect("k >= 1");
        (lead, rest)
    }

    /// Polynomial coefficients, constant term first (read-only, for
    /// reference evaluations).
    pub fn coefficients(&self) -> &[u64] {
        &self.coeffs
    }

    /// Hash into `[0, range)`.
    #[inline]
    pub fn hash(&self, x: u64) -> u64 {
        reduce_range(self.eval_field(x), self.range)
    }

    /// [`KWiseHash::hash`] of every input: `out[i] = hash(xs[i])`.
    ///
    /// Groups of four inputs run their Horner chains interleaved — once
    /// folded per step when all four are below `2^32`, twice otherwise —
    /// and reach the same canonical field values as
    /// [`KWiseHash::eval_field`], so the hashes are identical; the tail
    /// runs the scalar hash. Every input is checked against the `< p`
    /// domain.
    pub fn hash_into(&self, xs: &[u64], out: &mut [u64]) {
        assert_eq!(
            xs.len(),
            out.len(),
            "hash_into: input/output lengths differ"
        );
        let (lead, rest) = self.split_lead();
        let mut groups = xs.chunks_exact(LANES);
        let mut outs = out.chunks_exact_mut(LANES);
        for (xg, og) in (&mut groups).zip(&mut outs) {
            let xg: [u64; LANES] = xg.try_into().expect("exact chunk");
            xg.iter().for_each(|&x| assert_in_field(x));
            for (o, v) in og.iter_mut().zip(horner_lanes(lead, rest, xg)) {
                *o = reduce_range(v, self.range);
            }
        }
        for (o, &x) in outs.into_remainder().iter_mut().zip(groups.remainder()) {
            *o = self.hash(x);
        }
    }
}

/// Pairwise independent hash (`k = 2`), the `h_m` functions of the paper.
///
/// The same function as the `k = 2` [`KWiseHash`] of its seed, with the
/// two coefficients held inline: an evaluation reads no heap memory.
#[derive(Debug, Clone)]
pub struct PairwiseHash {
    /// `[c₀, c₁]`: the polynomial `c₀ + c₁·x`.
    coeffs: [u64; 2],
    range: u64,
}

impl PairwiseHash {
    /// Sample a pairwise independent function into `[range]`.
    pub fn new(seed: u64, range: u64) -> Self {
        let mut draws = draw_coeffs(seed, 2, range);
        let coeffs = [(); 2].map(|()| draws.next().expect("two draws"));
        Self { coeffs, range }
    }

    /// Output range size.
    pub fn range(&self) -> u64 {
        self.range
    }

    /// Polynomial coefficients `[c₀, c₁]` (read-only, for reference
    /// evaluations).
    pub fn coefficients(&self) -> &[u64] {
        &self.coeffs
    }

    /// `c₀ + c₁·x` as a canonical value in `[0, p)`. One Horner step
    /// from `c₁ < 2^61`, once folded, is below `2^63`, and
    /// [`PrimeField::reduce64`] makes it canonical for every field input.
    #[inline]
    fn eval_field(&self, x: u64) -> u64 {
        assert_in_field(x);
        let [c0, c1] = self.coeffs;
        PrimeField::reduce64(single_fold_step(c1, x, c0))
    }

    /// Hash into `[0, range)`.
    #[inline]
    pub fn hash(&self, x: u64) -> u64 {
        reduce_range(self.eval_field(x), self.range)
    }

    /// [`PairwiseHash::hash`] over the run `start..start + len`, stepped
    /// as `v(x + 1) = v(x) + c₁ mod p`: one field addition per input,
    /// and the same canonical field value as Horner's rule, hence the
    /// same hashes. The `< p` domain check runs once, on the run's end.
    pub fn hash_run(&self, start: u64, len: usize) -> impl Iterator<Item = u64> + '_ {
        assert!(
            start
                .checked_add(len as u64)
                .is_some_and(|end| end <= MERSENNE_P),
            "run {start}+{len} outside F_p domain"
        );
        let first = if len == 0 { 0 } else { self.eval_field(start) };
        let step = self.coeffs[1];
        std::iter::successors(Some(first), move |&v| Some(PrimeField::add(v, step)))
            .take(len)
            .map(|v| reduce_range(v, self.range))
    }
}

/// Pairwise independent ±1 sign hash (used by count-sketch style oracles).
#[derive(Debug, Clone)]
pub struct SignHash {
    inner: PairwiseHash,
}

impl SignHash {
    /// Sample a fresh sign hash.
    pub fn new(seed: u64) -> Self {
        Self {
            // Range 2^32 then take a bit: avoids the tiny parity bias of
            // `mod 2` on a field of odd order.
            inner: PairwiseHash::new(seed, 1 << 32),
        }
    }

    /// Returns −1 or +1.
    #[inline]
    pub fn sign(&self, x: u64) -> i64 {
        parity_sign(self.inner.hash(x))
    }

    /// [`SignHash::sign`] over a run (see [`PairwiseHash::hash_run`]).
    pub fn sign_run(&self, start: u64, len: usize) -> impl Iterator<Item = i64> + '_ {
        self.inner.hash_run(start, len).map(parity_sign)
    }

    /// The underlying pairwise hash into `[2^32]`.
    pub fn as_pairwise(&self) -> &PairwiseHash {
        &self.inner
    }
}

/// `+1` for an even hash, `−1` for an odd one.
#[inline]
fn parity_sign(h: u64) -> i64 {
    1 - 2 * (h & 1) as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let h1 = KWiseHash::new(7, 4, 1000);
        let h2 = KWiseHash::new(7, 4, 1000);
        for x in 0..100u64 {
            assert_eq!(h1.hash(x), h2.hash(x));
        }
        let h3 = KWiseHash::new(8, 4, 1000);
        assert!((0..100u64).any(|x| h1.hash(x) != h3.hash(x)));
    }

    #[test]
    fn outputs_in_range() {
        let h = KWiseHash::new(3, 5, 17);
        for x in 0..10_000u64 {
            assert!(h.hash(x) < 17);
        }
    }

    #[test]
    fn marginal_uniformity() {
        // For a fixed input x, the hash value over random seeds should be
        // ~uniform on the range.
        let range = 8u64;
        let x = 123_456u64;
        let mut counts = vec![0u64; range as usize];
        let trials = 40_000u64;
        for seed in 0..trials {
            counts[KWiseHash::new(seed, 2, range).hash(x) as usize] += 1;
        }
        let expect = trials as f64 / range as f64;
        for (v, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expect).abs();
            assert!(
                dev < 6.0 * expect.sqrt(),
                "value {v}: count {c}, expect {expect}"
            );
        }
    }

    #[test]
    fn pairwise_collision_rate() {
        // Pr[h(x) = h(y)] ≈ 1/range for x != y, averaged over seeds.
        let range = 64u64;
        let trials = 30_000u64;
        let mut coll = 0u64;
        for seed in 0..trials {
            let h = PairwiseHash::new(seed, range);
            if h.hash(10) == h.hash(999) {
                coll += 1;
            }
        }
        let rate = coll as f64 / trials as f64;
        let expect = 1.0 / range as f64;
        assert!(
            (rate - expect).abs() < 6.0 * (expect / trials as f64).sqrt() + 1e-3,
            "collision rate {rate} vs {expect}"
        );
    }

    #[test]
    fn pairwise_joint_uniformity() {
        // (h(x), h(y)) jointly uniform on [r]×[r] over seeds: the defining
        // property of pairwise independence.
        let r = 4u64;
        let trials = 64_000u64;
        let mut joint = vec![0u64; (r * r) as usize];
        for seed in 0..trials {
            let h = PairwiseHash::new(seed, r);
            joint[(h.hash(5) * r + h.hash(77)) as usize] += 1;
        }
        let expect = trials as f64 / (r * r) as f64;
        for (cell, &c) in joint.iter().enumerate() {
            assert!(
                (c as f64 - expect).abs() < 6.0 * expect.sqrt(),
                "cell {cell}: {c} vs {expect}"
            );
        }
    }

    #[test]
    fn four_wise_third_moment_vanishes() {
        // For 4-wise independent ±1 signs s(x), E[s(a)s(b)s(c)] = 0 for
        // distinct a, b, c. Estimate over seeds.
        let trials = 60_000u64;
        let mut sum: i64 = 0;
        for seed in 0..trials {
            let h = KWiseHash::new(seed, 4, 1 << 32);
            let s = |x: u64| if h.hash(x) & 1 == 0 { 1i64 } else { -1 };
            sum += s(1) * s(2) * s(3);
        }
        let m = sum as f64 / trials as f64;
        assert!(
            m.abs() < 6.0 / (trials as f64).sqrt() + 0.01,
            "third moment {m}"
        );
    }

    #[test]
    fn sign_hash_balanced() {
        let trials = 40_000u64;
        let mut sum = 0i64;
        for seed in 0..trials {
            sum += SignHash::new(seed).sign(42);
        }
        assert!((sum as f64 / trials as f64).abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "outside F_p domain")]
    fn rejects_out_of_field_inputs() {
        let h = KWiseHash::new(1, 2, 10);
        let _ = h.hash(u64::MAX);
    }

    #[test]
    fn power_of_two_mask_equals_modulo() {
        for range in [2u64, 16, 4096, 1 << 32] {
            for seed in 0..200u64 {
                let h = KWiseHash::new(seed, 2, range);
                for x in [0u64, 1, 7, 4095, 65_535, 1 << 40, MERSENNE_P - 1] {
                    assert_eq!(h.hash(x), h.eval_field(x) % range, "range {range}");
                }
            }
        }
    }

    #[test]
    fn other_ranges_keep_modulo() {
        let range = 1000u64;
        let h = KWiseHash::new(5, 2, range);
        let mut mask_differs = false;
        for x in 0..1000u64 {
            let v = h.eval_field(x);
            assert_eq!(h.hash(x), v % range);
            mask_differs |= v & (range - 1) != v % range;
        }
        assert!(mask_differs, "a mask would have agreed by accident");
    }

    /// Reference evaluation, written independently of the field code:
    /// Horner over the coefficients with a u128 `%` after every step.
    fn reference_eval(coeffs: &[u64], x: u64) -> u64 {
        let p = u128::from(MERSENNE_P);
        coeffs
            .iter()
            .rev()
            .fold(0u128, |acc, &c| (acc * u128::from(x) + u128::from(c)) % p) as u64
    }

    #[test]
    fn lazy_horner_equals_reference() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(11);
        for k in [1usize, 2, 8, 40, 64] {
            let all_max = KWiseHash {
                coeffs: vec![MERSENNE_P - 1; k],
                range: 1000,
            };
            let mut hashes = vec![all_max];
            for seed in 0..4u64 {
                hashes.push(KWiseHash::new(seed, k, 1 << 20));
                hashes.push(KWiseHash::new(seed, k, 1000));
            }
            let mut xs = vec![0u64, 1, MERSENNE_P - 2, MERSENNE_P - 1];
            xs.extend((0..200).map(|_| rng.gen_range(0..MERSENNE_P)));
            for h in &hashes {
                for &x in &xs {
                    let want = reference_eval(h.coefficients(), x);
                    assert_eq!(h.eval_field(x), want, "k = {k}, x = {x}");
                    assert_eq!(h.hash(x), want % h.range(), "k = {k}, x = {x}");
                }
            }
        }
    }

    #[test]
    fn hash_into_equals_per_input_hash() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let mut rng = SmallRng::seed_from_u64(12);
        for k in [1usize, 2, 40] {
            for range in [1u64 << 20, 1000] {
                let h = KWiseHash::new(k as u64, k, range);
                for len in (0..=9).chain([63, 64, 65]) {
                    let mut xs: Vec<u64> = (0..len).map(|_| rng.gen_range(0..MERSENNE_P)).collect();
                    if let Some(last) = xs.last_mut() {
                        *last = MERSENNE_P - 1;
                    }
                    let mut out = vec![u64::MAX; len];
                    h.hash_into(&xs, &mut out);
                    let want: Vec<u64> = xs.iter().map(|&x| h.hash(x)).collect();
                    assert_eq!(out, want, "k = {k}, range = {range}, len = {len}");
                }
            }
        }
    }

    /// Canonical Horner over the field's own fully reduced operations.
    fn field_horner(coeffs: &[u64], x: u64) -> u64 {
        coeffs
            .iter()
            .rev()
            .fold(0, |acc, &c| PrimeField::add(PrimeField::mul(acc, x), c))
    }

    #[test]
    fn single_and_double_fold_groups_equal_the_field_horner() {
        // Lane groups all below 2^32 (single fold), mixed across the
        // boundary, and all above it (double fold), then tails of 1–3.
        let small = (1u64 << 32) - 1;
        let groups = [
            [small, small - 1, 0, 1],
            [small, 1 << 32, 5, small],
            [MERSENNE_P - 1, 0, small, 3],
            [1 << 32, (1 << 32) + 1, MERSENNE_P - 1, MERSENNE_P - 2],
        ];
        let tail = [small, 1 << 32, MERSENNE_P - 1];
        for k in [1usize, 2, 40, 64] {
            let mut hashes = vec![KWiseHash {
                coeffs: vec![MERSENNE_P - 1; k],
                range: 1 << 20,
            }];
            hashes.extend((0..4u64).map(|seed| KWiseHash::new(seed, k, 1000)));
            for h in &hashes {
                for t in 0..=tail.len() {
                    let mut xs: Vec<u64> = groups.concat();
                    xs.extend(&tail[..t]);
                    let mut out = vec![u64::MAX; xs.len()];
                    h.hash_into(&xs, &mut out);
                    for (&x, &o) in xs.iter().zip(&out) {
                        let want = field_horner(h.coefficients(), x);
                        assert_eq!(h.eval_field(x), want, "k = {k}, x = {x}");
                        assert_eq!(h.hash(x), want % h.range(), "k = {k}, x = {x}");
                        assert_eq!(o, want % h.range(), "k = {k}, x = {x}, tail {t}");
                    }
                }
            }
        }
        for seed in 0..8u64 {
            let h = PairwiseHash::new(seed, 1000);
            let s = SignHash::new(seed);
            for x in groups.concat() {
                assert_eq!(h.hash(x), field_horner(h.coefficients(), x) % 1000);
                let parity = field_horner(s.as_pairwise().coefficients(), x) % (1 << 32) % 2;
                assert_eq!(s.sign(x), 1 - 2 * parity as i64);
            }
        }
    }

    #[test]
    fn pairwise_hash_equals_the_degree_one_kwise_hash() {
        for seed in 0..50u64 {
            let h = PairwiseHash::new(seed, 4096);
            let k = KWiseHash::new(seed, 2, 4096);
            assert_eq!(h.coefficients(), k.coefficients());
            for x in [0u64, 1, 77, (1 << 32) - 1, 1 << 32, MERSENNE_P - 1] {
                assert_eq!(h.hash(x), k.hash(x));
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside F_p domain")]
    fn hash_into_rejects_out_of_field_input_in_a_lane_group() {
        let h = KWiseHash::new(1, 40, 16);
        let mut out = [0u64; 8];
        h.hash_into(&[0, 1, 2, 3, 4, MERSENNE_P, 6, 7], &mut out);
    }

    #[test]
    #[should_panic(expected = "outside F_p domain")]
    fn hash_into_rejects_out_of_field_input_in_the_tail() {
        let h = KWiseHash::new(1, 40, 16);
        let mut out = [0u64; 5];
        h.hash_into(&[0, 1, 2, 3, u64::MAX], &mut out);
    }

    #[test]
    fn stepped_runs_equal_per_input_hashes() {
        for seed in 0..20u64 {
            let h = PairwiseHash::new(seed, 4096);
            let odd = PairwiseHash::new(seed, 1000);
            let s = SignHash::new(seed);
            for start in [0u64, 1, 17, 4093, 1 << 33, MERSENNE_P - 300] {
                let len = 257usize;
                let xs = start..start + len as u64;
                assert!(h.hash_run(start, len).eq(xs.clone().map(|x| h.hash(x))));
                assert!(odd.hash_run(start, len).eq(xs.clone().map(|x| odd.hash(x))));
                assert!(s.sign_run(start, len).eq(xs.map(|x| s.sign(x))));
            }
        }
        let h = PairwiseHash::new(3, 16);
        assert_eq!(h.hash_run(5, 0).count(), 0);
        // A run ending exactly at p covers the last field element.
        assert_eq!(
            h.hash_run(MERSENNE_P - 1, 1).next(),
            Some(h.hash(MERSENNE_P - 1))
        );
    }

    #[test]
    #[should_panic(expected = "outside F_p domain")]
    fn stepped_run_past_p_panics() {
        let h = PairwiseHash::new(1, 16);
        let _ = h.hash_run(MERSENNE_P - 1, 2);
    }

    #[test]
    #[should_panic(expected = "outside F_p domain")]
    fn sign_run_past_p_panics() {
        let s = SignHash::new(1);
        let _ = s.sign_run(u64::MAX - 1, 4);
    }
}
