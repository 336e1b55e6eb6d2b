//! Parameterization of `PrivateExpanderSketch`.
//!
//! The paper's constants (`C_M, C_Y, C_ℓ, C_g, C_f, C_H`) are existential;
//! [`SketchParams::optimal`] keeps the *functional forms* of §3.3 —
//! `M ≈ log|X|/loglog|X|`, `Y` polylogarithmic, `B ≈ ε√n/polylog(|X|)`,
//! `ℓ ≈ log|X|` — with constants sized for real hardware, and derives the
//! stand-out threshold from the oracle's actual Hoeffding noise scale
//! instead of an unspecified `C_f` (both forms are exposed; the benches
//! compare them).
//!
//! A note on absolute magnitudes: this is an asymptotic-theory protocol,
//! and its honest constants are substantial — the detection threshold is
//! `Θ(c_{ε/2}·sqrt(n·M·log(cells/β)))`, roughly `100·sqrt(n)` at ε = 1.
//! The workloads in tests and benches are therefore sized against
//! [`SketchParams::detection_threshold`], and the *shape* claims (growth
//! in `n`, `ε`, `β`, `|X|`; the `sqrt(log(1/β))` separation from prior
//! work) are what the `exp_*` binaries reproduce (README, "Reproducing
//! the Table 1 experiments"), exactly as for the paper.

use hh_codes::ulrc::UlrcParams;
use hh_freq::calibrate;
use hh_freq::hashtogram::HashtogramParams;

/// Full configuration of one `PrivateExpanderSketch` instance.
#[derive(Debug, Clone)]
pub struct SketchParams {
    /// Expected number of users `n` (drives bucket counts/thresholds).
    pub n: u64,
    /// Domain is `{0, …, 2^domain_bits − 1}`.
    pub domain_bits: u32,
    /// Total per-user privacy budget ε.
    pub eps: f64,
    /// Fraction of ε spent on the per-coordinate report (the rest goes to
    /// the final frequency-oracle report). The paper uses 1/2; the
    /// ablation bench sweeps it.
    pub inner_eps_fraction: f64,
    /// Target failure probability β.
    pub beta: f64,
    /// Number of coordinates / user partitions `M`.
    pub num_coords: usize,
    /// Hash range `Y` per coordinate.
    pub y_range: u64,
    /// Group-hash range `B` (buckets of heavy hitters).
    pub num_buckets: u64,
    /// Stand-out list capacity `ℓ` per `(m, b)`.
    pub list_cap: usize,
    /// Expander degree `d`.
    pub degree: usize,
    /// Outer-code symbol width (GF(2^gf_bits)).
    pub gf_bits: u32,
    /// Independence of the group hash `g` (paper: `C_g·log|X|`-wise).
    pub g_independence: usize,
    /// Corruption tolerance `α` the decoder is run at.
    pub alpha: f64,
}

impl SketchParams {
    /// The paper's parameterization with practical constants.
    ///
    /// Supports domains up to 44 bits with the default GF(2^4) symbols
    /// (the Reed–Solomon block must fit `M <= 15`); larger domains need a
    /// wider field via the manual constructor.
    pub fn optimal(n: u64, domain_bits: u32, eps: f64, beta: f64) -> Self {
        assert!(n >= 16, "need at least a handful of users");
        assert!(
            (1..=44).contains(&domain_bits),
            "domain_bits in 1..=44 for the default profile (got {domain_bits})"
        );
        assert!(eps > 0.0 && eps <= 8.0, "eps in (0, 8]");
        assert!(beta > 0.0 && beta < 1.0);
        let gf_bits = 4u32;
        let k = domain_bits.div_ceil(gf_bits) as usize;
        // M ≈ max(rate-1/2 RS length, log|X|/loglog|X|), capped by the
        // field's block-length limit (15 for GF(2^4)).
        let log_x = f64::from(domain_bits).max(4.0);
        let m_paper = (log_x / log_x.log2().max(1.0)).ceil() as usize;
        let num_coords = (2 * k).max(m_paper).clamp((k + 4).min(15), 15);
        assert!(
            k + 2 <= num_coords,
            "domain_bits = {domain_bits} leaves no error-correction slack at gf_bits = 4"
        );
        // B ≈ ε√n / log^{3/2}|X|; Y = 8 keeps the inner-oracle domain
        // B·Y·Z = B·2^19 laptop-sized while still separating the O(1)
        // heavy elements per bucket that this B induces.
        let y_range = 8u64;
        let degree = 4usize;
        let b_raw = (eps * (n as f64).sqrt() / log_x.powf(1.5)).ceil() as u64;
        let num_buckets = b_raw.clamp(2, 16).next_power_of_two();
        let list_cap = (2.0 * log_x).ceil() as usize;
        // α: the decoder tolerates up to the RS erasure budget; run at a
        // comfortable margin below it.
        let alpha = (((num_coords - k) as f64 / num_coords as f64) * 0.75).min(0.34);
        Self {
            n,
            domain_bits,
            eps,
            inner_eps_fraction: 0.5,
            beta,
            num_coords,
            y_range,
            num_buckets,
            list_cap,
            degree,
            gf_bits,
            g_independence: (2 * domain_bits as usize).clamp(8, 64),
            alpha,
        }
    }

    /// ε spent on the per-coordinate (inner) report.
    pub fn inner_eps(&self) -> f64 {
        self.eps * self.inner_eps_fraction
    }

    /// ε spent on the final frequency-oracle (outer) report.
    pub fn outer_eps(&self) -> f64 {
        self.eps * (1.0 - self.inner_eps_fraction)
    }

    /// Cardinality of the packed `E~nc` component:
    /// `Z = 2^gf_bits · Y^d`.
    pub fn z_cardinality(&self) -> u64 {
        (1u64 << self.gf_bits) * self.y_range.pow(self.degree as u32)
    }

    /// The inner-oracle domain size `B·Y·Z` (cells per coordinate).
    pub fn inner_cells(&self) -> u64 {
        self.num_buckets * self.y_range * self.z_cardinality()
    }

    /// Pack a `(b, y, z)` triple into an inner-oracle cell id. The layout
    /// keeps `z` contiguous for a fixed `(b, y)`, which is what the
    /// server's argmax scan (step 3a) walks.
    pub fn cell_id(&self, b: u64, y: u64, z: u64) -> u64 {
        debug_assert!(b < self.num_buckets && y < self.y_range && z < self.z_cardinality());
        (b * self.y_range + y) * self.z_cardinality() + z
    }

    /// ULRC parameters induced by this configuration.
    pub fn ulrc_params(&self) -> UlrcParams {
        UlrcParams {
            num_coords: self.num_coords,
            y_range: self.y_range,
            degree: self.degree,
            gf_bits: self.gf_bits,
            domain_bits: self.domain_bits,
            alpha: self.alpha,
            cluster: Default::default(),
        }
    }

    /// Inner (per-coordinate) oracle configuration: the Theorem 3.8 direct
    /// variant over the `[B]×[Y]×[Z]` triple domain. A single group (no
    /// median) is used because the per-cell confidence comes from a union
    /// bound over the (small) cell space rather than median amplification.
    pub fn inner_oracle_params(&self) -> HashtogramParams {
        HashtogramParams {
            domain: self.inner_cells(),
            eps: self.inner_eps(),
            groups: 1,
            buckets: self.inner_cells().next_power_of_two(),
            hashed: false,
        }
    }

    /// Outer (final estimate) oracle configuration: the Theorem 3.7 hashed
    /// variant over the full domain.
    pub fn outer_oracle_params(&self) -> HashtogramParams {
        HashtogramParams::hashed(
            self.n,
            if self.domain_bits == 64 {
                u64::MAX
            } else {
                1u64 << self.domain_bits
            },
            self.outer_eps(),
            self.beta / 2.0,
        )
    }

    /// Expected users per coordinate `n/M`.
    pub fn users_per_coord(&self) -> f64 {
        self.n as f64 / self.num_coords as f64
    }

    /// One inner-oracle cell's noise width: the Hoeffding deviation with a
    /// union bound over all `M·B·Y·Z` cells at confidence `β/4`.
    pub fn cell_noise(&self) -> f64 {
        let cells = self.inner_cells() * self.num_coords as u64;
        calibrate::union_threshold(
            self.users_per_coord(),
            self.inner_eps(),
            self.beta / 4.0,
            cells,
        )
    }

    /// Oracle-calibrated stand-out threshold τ (step 3b): `1.25×` the cell
    /// noise — junk cells stay below it w.h.p., and a heavy element's cell
    /// clears it with one extra noise width of margin. The honest analogue
    /// of the paper's `C_f · loglog|X|/ε · sqrt(n/log|X|)`.
    pub fn standout_threshold(&self) -> f64 {
        1.25 * self.cell_noise()
    }

    /// The paper-form stand-out threshold for comparison benches.
    pub fn standout_threshold_paper_form(&self, c_f: f64) -> f64 {
        calibrate::threshold_paper_form(self.n, self.domain_bits, self.eps, c_f)
    }

    /// The detection threshold Δ (Theorem 3.13 item 2): elements at least
    /// this frequent are recovered.
    ///
    /// A `Δ`-heavy element contributes `≈ Δ/M` users to its cell in most
    /// coordinates (event E3 keeps a `0.65` fraction at these scales);
    /// that must clear `τ + cell_noise = 2.25·cell_noise`:
    /// `Δ = M · 2.25 · cell_noise / 0.65 ≈ 3.5·M·cell_noise`
    /// `  = Θ((1/ε)·sqrt(n·M·log(cells·M/β)))` — the Theorem 3.13 form
    /// with `M·log(cells) = O~(log|X|)`.
    pub fn detection_threshold(&self) -> f64 {
        3.5 * self.num_coords as f64 * self.cell_noise()
    }

    /// The estimation error bound (Theorem 3.13 item 1): the outer
    /// oracle's per-query error across the candidate list.
    pub fn estimation_error_bound(&self) -> f64 {
        let outer = self.outer_oracle_params();
        let queries = (self.num_buckets as usize * self.list_cap * 4).max(16) as u64;
        outer.error_bound(self.n, self.beta / (2.0 * queries as f64))
    }

    /// Keep-list cutoff: output candidates whose outer estimate exceeds
    /// this (half the detection threshold, so no Δ-heavy element is ever
    /// filtered while the list stays `O(n/Δ)`-sized).
    pub fn keep_threshold(&self) -> f64 {
        self.detection_threshold() / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimal_profile_is_feasible() {
        for &(n, bits) in &[
            (1u64 << 12, 16u32),
            (1 << 16, 24),
            (1 << 20, 32),
            (1 << 16, 40),
        ] {
            let p = SketchParams::optimal(n, bits, 1.0, 0.05);
            assert!(p.num_coords <= 15);
            assert!(
                p.inner_cells() <= 1 << 24,
                "inner domain too big: {}",
                p.inner_cells()
            );
            assert!(p.z_cardinality() >= 16);
            assert!(p.alpha > 0.05, "no corruption slack: {}", p.alpha);
            let k = bits.div_ceil(p.gf_bits) as usize;
            assert!(k + 2 <= p.num_coords);
            assert!((p.inner_eps() + p.outer_eps() - p.eps).abs() < 1e-12);
        }
    }

    #[test]
    fn cell_id_is_bijective() {
        let p = SketchParams::optimal(1 << 14, 24, 1.0, 0.1);
        let mut seen = std::collections::HashSet::new();
        for b in 0..p.num_buckets.min(4) {
            for y in 0..p.y_range {
                for z in (0..p.z_cardinality()).step_by(97) {
                    let id = p.cell_id(b, y, z);
                    assert!(id < p.inner_cells());
                    assert!(seen.insert(id));
                }
            }
        }
    }

    #[test]
    fn thresholds_scale_with_sqrt_n() {
        let a = SketchParams::optimal(1 << 14, 32, 1.0, 0.05);
        let b = SketchParams::optimal(1 << 18, 32, 1.0, 0.05);
        let ratio = b.detection_threshold() / a.detection_threshold();
        assert!(
            (3.0..6.0).contains(&ratio),
            "expected ~4 (sqrt of 16x n, same B regime): {ratio}"
        );
    }

    #[test]
    fn threshold_grows_mildly_in_beta() {
        let a = SketchParams::optimal(1 << 16, 32, 1.0, 0.1);
        let b = SketchParams::optimal(1 << 16, 32, 1.0, 1e-9);
        let ratio = b.detection_threshold() / a.detection_threshold();
        // sqrt(log) growth: a 10^8 drop in beta costs well under 2x here.
        assert!(ratio > 1.0 && ratio < 2.0, "beta scaling ratio {ratio}");
    }

    #[test]
    fn estimation_error_below_detection_threshold() {
        let p = SketchParams::optimal(1 << 16, 32, 1.0, 0.05);
        assert!(p.estimation_error_bound() < p.detection_threshold());
    }

    #[test]
    fn detection_threshold_is_usable_at_scale() {
        // The honest constants must leave room for actual experiments:
        // at bench scale (n = 2^18, eps = 2) the threshold should be a
        // strict minority of n, and it keeps improving with n.
        let p = SketchParams::optimal(1 << 18, 24, 2.0, 0.05);
        let frac = p.detection_threshold() / p.n as f64;
        assert!(frac < 0.5, "detection needs {frac} of all users");
        let q = SketchParams::optimal(1 << 22, 24, 2.0, 0.05);
        assert!(q.detection_threshold() / (q.n as f64) < frac);
    }

    #[test]
    #[should_panic(expected = "domain_bits in 1..=44")]
    fn rejects_oversized_domain() {
        let _ = SketchParams::optimal(1 << 16, 60, 1.0, 0.05);
    }
}
