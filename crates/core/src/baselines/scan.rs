//! Frequency-oracle domain scan: the trivial reduction from heavy hitters
//! to a frequency oracle.
//!
//! Query the oracle on *every* domain element and return everything above
//! threshold. Exact recall, but `Ω(|X|)` server time — the impracticality
//! the paper's introduction highlights ("X may be the space of all
//! reasonable-length URL domains"). It is also the right algorithm when
//! `n > |X|` (the complementary regime noted under Theorem 3.13), and the
//! small-domain reference the benches use for ground truth.

use crate::traits::{Aggregator, FinishScratch, FrameError, HeavyHitterProtocol, WireFrames};
use hh_freq::hashtogram::{Hashtogram, HashtogramParams, HashtogramReport, HashtogramShard};
use hh_freq::traits::FrequencyOracle;
use hh_math::par::{par_map_owned, planned_threads};
use rand::Rng;

/// Configuration of [`ScanHeavyHitters`].
#[derive(Debug, Clone)]
pub struct ScanParams {
    /// Expected number of users.
    pub n: u64,
    /// Domain size `|X|` (scanned exhaustively; capped at 2^22).
    pub domain: u64,
    /// Privacy budget ε (single report; no split needed).
    pub eps: f64,
    /// Failure probability β.
    pub beta: f64,
}

impl ScanParams {
    /// Standard profile.
    pub fn new(n: u64, domain: u64, eps: f64, beta: f64) -> Self {
        assert!(domain <= 1 << 22, "domain scan beyond 2^22 is impractical");
        Self {
            n,
            domain,
            eps,
            beta,
        }
    }

    fn oracle_params(&self) -> HashtogramParams {
        if self.domain <= 4 * (self.n as f64).sqrt() as u64 {
            HashtogramParams::direct(self.domain, self.eps, self.beta / 2.0)
        } else {
            HashtogramParams::hashed(self.n, self.domain, self.eps, self.beta / 2.0)
        }
    }

    /// Detection threshold: the oracle's per-query error with a union
    /// bound over the whole domain, times a stand-out factor.
    pub fn detection_threshold(&self) -> f64 {
        let p = self.oracle_params();
        3.0 * p.error_bound(self.n, self.beta / (2.0 * self.domain as f64))
    }
}

/// Scan-based heavy hitters over a small domain.
pub struct ScanHeavyHitters {
    params: ScanParams,
    oracle: Hashtogram,
    finished: bool,
}

impl ScanHeavyHitters {
    /// Instantiate from parameters and a public-randomness seed.
    pub fn new(params: ScanParams, seed: u64) -> Self {
        let oracle = Hashtogram::new(params.oracle_params(), seed);
        Self {
            params,
            oracle,
            finished: false,
        }
    }

    /// Protocol parameters.
    pub fn params(&self) -> &ScanParams {
        &self.params
    }

    /// The underlying frequency oracle — exposed for audits and
    /// client-path benchmarks.
    pub fn oracle(&self) -> &Hashtogram {
        &self.oracle
    }
}

impl Aggregator for ScanHeavyHitters {
    type Report = HashtogramReport;
    type Shard = HashtogramShard;

    fn respond<R: Rng + ?Sized>(&self, user_index: u64, x: u64, rng: &mut R) -> HashtogramReport {
        self.oracle.respond(user_index, x, rng)
    }

    fn collect(&mut self, user_index: u64, report: HashtogramReport) {
        assert!(!self.finished, "collect after finish");
        self.oracle.collect(user_index, report);
    }

    fn new_shard(&self) -> HashtogramShard {
        self.oracle.new_shard()
    }

    fn absorb_wire(
        &self,
        shard: &mut HashtogramShard,
        start_index: u64,
        frames: &WireFrames<'_>,
    ) -> Result<(), FrameError> {
        self.oracle.absorb_wire(shard, start_index, frames)
    }

    fn merge(&self, a: HashtogramShard, b: HashtogramShard) -> HashtogramShard {
        self.oracle.merge(a, b)
    }

    fn finish_shard(&mut self, shard: HashtogramShard) {
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

impl HeavyHitterProtocol for ScanHeavyHitters {
    fn finish_with(&mut self, scratch: &mut FinishScratch) -> Vec<(u64, f64)> {
        assert!(!self.finished, "double finish");
        self.finished = true;
        let threads = scratch.threads;
        self.oracle.finalize_with(scratch);
        let keep = self.params.detection_threshold() / 2.0;
        let domain = self.params.domain;
        // Split the exhaustive domain scan into one contiguous span per
        // worker, each one tiled sweep of the oracle; spans are
        // reassembled in domain order, so the output is identical to the
        // serial scan.
        let workers = planned_threads(threads, domain as usize, 1);
        let span = (domain as usize).div_ceil(workers).max(1) as u64;
        let spans: Vec<(u64, Vec<f64>, Vec<f64>)> = (0..workers as u64)
            .map(|w| {
                (
                    (w * span).min(domain),
                    scratch.take_f64(),
                    scratch.take_f64(),
                )
            })
            .collect();
        let oracle = &self.oracle;
        let parts = par_map_owned(spans, threads, |_, (start, mut ests, mut tile)| {
            ests.resize(((start + span).min(domain) - start) as usize, 0.0);
            oracle.estimate_run(start, &mut ests, &mut tile);
            let part: Vec<(u64, f64)> = (start..)
                .zip(ests.iter().copied())
                .filter(|&(_, f)| f >= keep)
                .collect();
            (part, ests, tile)
        });
        let mut est = Vec::new();
        for (part, ests, tile) in parts {
            est.extend_from_slice(&part);
            scratch.put_f64(ests);
            scratch.put_f64(tile);
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
    fn finds_all_heavies_in_small_domain() {
        let n = 40_000usize;
        let domain = 128u64;
        let params = ScanParams::new(n as u64, domain, 2.0, 0.05);
        let delta = params.detection_threshold();
        assert!(delta < 0.3 * n as f64, "sizing: {delta}");
        let mut server = ScanHeavyHitters::new(params, 1);
        let mut rng = seeded_rng(2);
        use rand::Rng;
        let data: Vec<u64> = (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    7
                } else if i % 5 == 0 {
                    99
                } else {
                    rng.gen_range(0..domain)
                }
            })
            .collect();
        for (i, &x) in data.iter().enumerate() {
            let rep = server.respond(i as u64, x, &mut rng);
            server.collect(i as u64, rep);
        }
        let est = server.finish();
        let found: Vec<u64> = est.iter().map(|&(x, _)| x).collect();
        assert!(found.contains(&7), "missed 7: {found:?}");
        assert!(found.contains(&99), "missed 99: {found:?}");
        // Estimates are sorted descending.
        for w in est.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn n_bigger_than_domain_regime() {
        // The regime the paper notes under Theorem 3.13: when n > |X|,
        // just scan. Each element holds n/8 = 6250 users, above the
        // threshold at eps = 2.
        let n = 50_000usize;
        let domain = 8u64;
        let params = ScanParams::new(n as u64, domain, 2.0, 0.05);
        assert!(
            params.detection_threshold() < n as f64 / domain as f64 * 2.0,
            "sizing: {}",
            params.detection_threshold()
        );
        let mut server = ScanHeavyHitters::new(params, 3);
        let mut rng = seeded_rng(4);
        for i in 0..n {
            let x = (i % domain as usize) as u64; // uniform over the domain
            let rep = server.respond(i as u64, x, &mut rng);
            server.collect(i as u64, rep);
        }
        let est = server.finish();
        // Every element is n/8-heavy and should be reported.
        assert_eq!(est.len(), domain as usize, "got {est:?}");
    }

    #[test]
    fn finish_with_matches_per_x_reference_scan() {
        // A hashed-profile domain that splits unevenly into tiles and
        // worker spans.
        let n = 20_000u64;
        let domain = 1_000u64;
        let params = ScanParams::new(n, domain, 4.0, 0.05);
        assert!(params.oracle_params().hashed);
        let mut rng = seeded_rng(5);
        let data: Vec<u64> = (0..n)
            .map(|i| {
                if i % 4 == 0 {
                    17
                } else {
                    rng.gen_range(0..domain)
                }
            })
            .collect();
        let mut lists = Vec::new();
        for threads in [1, 2] {
            let mut server = ScanHeavyHitters::new(params.clone(), 6);
            let mut rng = seeded_rng(7);
            for (i, &x) in data.iter().enumerate() {
                let rep = server.respond(i as u64, x, &mut rng);
                server.collect(i as u64, rep);
            }
            let got = server.finish_with(&mut FinishScratch::with_threads(threads));
            // The reference: one point query per element, filtered and
            // ordered as the scan promises.
            let keep = params.detection_threshold() / 2.0;
            let mut want: Vec<(u64, f64)> = (0..domain)
                .map(|x| (x, server.oracle().estimate(x)))
                .filter(|&(_, f)| f >= keep)
                .collect();
            want.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
            assert!(!want.is_empty());
            let bits = |l: &[(u64, f64)]| -> Vec<(u64, u64)> {
                l.iter().map(|&(x, f)| (x, f.to_bits())).collect()
            };
            assert_eq!(bits(&got), bits(&want), "threads {threads}");
            lists.push(bits(&got));
        }
        assert_eq!(lists[0], lists[1]);
    }

    #[test]
    #[should_panic(expected = "impractical")]
    fn rejects_huge_domain() {
        let _ = ScanParams::new(1 << 20, 1 << 30, 1.0, 0.05);
    }
}
