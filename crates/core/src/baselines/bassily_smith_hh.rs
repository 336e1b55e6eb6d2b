//! The Bassily–Smith \[4\] column of Table 1 as a runnable heavy-hitters
//! protocol: their JL-projection frequency oracle with the heavy-hitter
//! search realized as a full domain scan.
//!
//! This is the "impractical baseline" the paper's introduction targets:
//! the oracle itself is fine (1-bit-ish reports, optimal error in n and
//! |X| at constant β), but *finding* the heavy hitters costs
//! `Θ(w·|X|) = Θ(n·|X|)` server work because every domain element must
//! be queried — versus `O~(n)` for `PrivateExpanderSketch`. The domain is
//! capped accordingly; the `exp_table1_resources` bench extrapolates the
//! full-domain cost.

use crate::traits::{Aggregator, FinishScratch, FrameError, HeavyHitterProtocol, WireFrames};
use hh_freq::bassily_smith::{BassilySmithOracle, BsReport, BsShard};
use hh_freq::calibrate;
use hh_freq::traits::FrequencyOracle;
use hh_math::par::{par_map_indexed, planned_threads};
use rand::Rng;

/// Configuration of [`BassilySmithHeavyHitters`].
#[derive(Debug, Clone)]
pub struct BsHhParams {
    /// Expected number of users.
    pub n: u64,
    /// Domain size (scanned exhaustively; capped at 2^18 — the point).
    pub domain: u64,
    /// Privacy budget ε.
    pub eps: f64,
    /// Failure probability β.
    pub beta: f64,
    /// Projection dimension `w` (their `Θ(n)`).
    pub projection_dim: u64,
}

impl BsHhParams {
    /// The faithful profile: `w = n`.
    pub fn optimal(n: u64, domain: u64, eps: f64, beta: f64) -> Self {
        assert!(
            domain <= 1 << 18,
            "the [4]-style scan beyond 2^18 is the impracticality this baseline exhibits"
        );
        Self {
            n,
            domain,
            eps,
            beta,
            projection_dim: n.max(64),
        }
    }

    /// Detection threshold: the oracle's per-query deviation with a union
    /// bound over the scanned domain. The projection's cross-term noise
    /// adds a `sqrt(1 + n/w)` factor (≈ √2 at `w = n`).
    pub fn detection_threshold(&self) -> f64 {
        let cross = (1.0 + self.n as f64 / self.projection_dim as f64).sqrt();
        3.0 * cross
            * calibrate::union_threshold(self.n as f64, self.eps, self.beta / 2.0, self.domain)
    }
}

/// Bassily–Smith-style heavy hitters: projection oracle + domain scan.
pub struct BassilySmithHeavyHitters {
    params: BsHhParams,
    oracle: BassilySmithOracle,
    finished: bool,
}

impl BassilySmithHeavyHitters {
    /// Instantiate from parameters and a public-randomness seed.
    pub fn new(params: BsHhParams, seed: u64) -> Self {
        let oracle =
            BassilySmithOracle::new(params.domain, params.eps, params.projection_dim, seed);
        Self {
            params,
            oracle,
            finished: false,
        }
    }

    /// Protocol parameters.
    pub fn params(&self) -> &BsHhParams {
        &self.params
    }
}

impl Aggregator for BassilySmithHeavyHitters {
    type Report = BsReport;
    type Shard = BsShard;

    fn respond<R: Rng + ?Sized>(&self, user_index: u64, x: u64, rng: &mut R) -> BsReport {
        self.oracle.respond(user_index, x, rng)
    }

    fn respond_encode_batch(
        &self,
        start_index: u64,
        xs: &[u64],
        client_seed: u64,
        out: &mut Vec<u8>,
    ) -> Vec<u32> {
        self.oracle
            .respond_encode_batch(start_index, xs, client_seed, out)
    }

    fn collect(&mut self, user_index: u64, report: BsReport) {
        assert!(!self.finished, "collect after finish");
        self.oracle.collect(user_index, report);
    }

    fn new_shard(&self) -> BsShard {
        self.oracle.new_shard()
    }

    fn absorb_wire(
        &self,
        shard: &mut BsShard,
        start_index: u64,
        frames: &WireFrames<'_>,
    ) -> Result<(), FrameError> {
        self.oracle.absorb_wire(shard, start_index, frames)
    }

    fn merge(&self, a: BsShard, b: BsShard) -> BsShard {
        self.oracle.merge(a, b)
    }

    fn finish_shard(&mut self, shard: BsShard) {
        assert!(!self.finished, "collect after finish");
        self.oracle.finish_shard(shard);
    }

    fn report_bits(&self) -> usize {
        self.oracle.report_bits()
    }

    fn memory_bytes(&self) -> usize {
        self.oracle.memory_bytes()
    }

    fn epsilon(&self) -> f64 {
        self.params.eps
    }
}

impl HeavyHitterProtocol for BassilySmithHeavyHitters {
    fn finish_with(&mut self, scratch: &mut FinishScratch) -> Vec<(u64, f64)> {
        assert!(!self.finished, "double finish");
        self.finished = true;
        let threads = scratch.threads;
        self.oracle.finalize_with(scratch);
        let keep = self.params.detection_threshold() / 2.0;
        let domain = self.params.domain;
        // The Θ(n·|X|) scan — the cost Table 1 indicts. Parallelism
        // spreads it over one contiguous span per worker (each query is an
        // allocation-free serial dot product, so the results are exactly
        // the serial scan's, reassembled in domain order).
        let workers = planned_threads(threads, domain as usize, 1);
        let span = (domain as usize).div_ceil(workers).max(1) as u64;
        let oracle = &self.oracle;
        let parts = par_map_indexed(workers, threads, |w| {
            let start = w as u64 * span;
            (start..(start + span).min(domain))
                .filter_map(|x| {
                    let f = oracle.estimate(x);
                    (f >= keep).then_some((x, f))
                })
                .collect::<Vec<(u64, f64)>>()
        });
        let mut est = Vec::new();
        for part in parts {
            est.extend_from_slice(&part);
        }
        est.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("finite estimates")
                .then_with(|| a.0.cmp(&b.0))
        });
        est
    }

    fn detection_threshold(&self) -> f64 {
        self.params.detection_threshold()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_math::rng::seeded_rng;

    #[test]
    fn finds_a_dominant_heavy_hitter_on_a_small_domain() {
        let n = 30_000u64;
        let domain = 1u64 << 10;
        let params = BsHhParams::optimal(n, domain, 2.0, 0.2);
        let delta = params.detection_threshold();
        assert!(delta < 0.5 * n as f64, "sizing: {delta}");
        let mut server = BassilySmithHeavyHitters::new(params, 1);
        let mut rng = seeded_rng(2);
        use rand::Rng;
        let heavy = 321u64;
        for i in 0..n {
            let x = if i % 2 == 0 {
                heavy
            } else {
                rng.gen_range(0..domain)
            };
            let rep = server.respond(i, x, &mut rng);
            server.collect(i, rep);
        }
        let est = server.finish();
        assert!(
            est.iter().any(|&(x, _)| x == heavy),
            "missed planted element: {:?}",
            est.iter().take(5).collect::<Vec<_>>()
        );
    }

    #[test]
    fn memory_is_linear_in_n_unlike_hashtogram() {
        let a = BassilySmithHeavyHitters::new(BsHhParams::optimal(1 << 12, 256, 1.0, 0.1), 3);
        let b = BassilySmithHeavyHitters::new(BsHhParams::optimal(1 << 16, 256, 1.0, 0.1), 3);
        // 16x users -> 16x memory: the Table 1 contrast with O~(sqrt n).
        assert_eq!(b.memory_bytes(), 16 * a.memory_bytes());
    }

    #[test]
    #[should_panic(expected = "impracticality")]
    fn refuses_large_domains() {
        let _ = BsHhParams::optimal(1 << 16, 1 << 30, 1.0, 0.1);
    }
}
