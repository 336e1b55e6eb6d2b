//! The prior state of the art: Bassily–Nissim–Stemmer–Thakurta's
//! single-hash reduction with repetition (paper §3.1.1, Theorem 3.3).
//!
//! One repetition: a single public hash `h_t : X → [Y']` and a partition
//! of the repetition's users across the `M' = log|X|` *bit positions* of
//! the input. A user in bit-group `m` reports the pair
//! `(h_t(x), x[m]) ∈ [Y']×{0,1}` through a frequency oracle. For every
//! hash value `y`, the server reconstructs a candidate bit-by-bit:
//! `x̂(y)[m] = argmax_b f̂(y, b)` in group `m`.
//!
//! One repetition fails for a heavy hitter when other input mass collides
//! with it under `h_t`, which happens with constant probability at
//! `Y' = O(√n)`; driving the failure to `β` takes `T = Θ(log(1/β))`
//! independent repetitions, **splitting the users** `T` ways — which is
//! exactly where the sub-optimal `sqrt(log(1/β))` factor of Theorem 3.3
//! enters the error. `PrivateExpanderSketch` removes it; the
//! `exp_error_vs_beta` bench measures the two side by side.

use crate::traits::{
    Aggregator, FinishScratch, FrameError, HeavyHitterProtocol, WireError, WireFrames, WireReport,
    WireShard,
};
use hh_freq::calibrate;
use hh_freq::hashtogram::{Hashtogram, HashtogramParams, HashtogramReport, HashtogramShard};
use hh_freq::traits::FrequencyOracle;
use hh_freq::wire;
use hh_freq::wire::{varint_len, write_varint, ShardReader};
use hh_hash::family::labels;
use hh_hash::{HashFamily, PairwiseHash};
use hh_math::par::{par_chunk_zip_map, par_map_owned, planned_threads};
use hh_math::rng::derive_seed;
use rand::Rng;

/// Configuration of the [`Bitstogram`] baseline.
#[derive(Debug, Clone)]
pub struct BitstogramParams {
    /// Expected number of users.
    pub n: u64,
    /// Domain is `{0, …, 2^domain_bits − 1}`; also the bit-coordinate
    /// count `M'`.
    pub domain_bits: u32,
    /// Total per-user privacy budget ε (split ε/2 inner + ε/2 outer).
    pub eps: f64,
    /// Target failure probability β (drives the repetition count).
    pub beta: f64,
    /// Repetitions `T = Θ(log(1/β))`.
    pub repetitions: usize,
    /// Hash range `Y'` per repetition.
    pub hash_range: u64,
}

impl BitstogramParams {
    /// The Theorem 3.3 profile: `T = ceil(log₂(1/β))`, `Y' = Θ(√n)`.
    pub fn optimal(n: u64, domain_bits: u32, eps: f64, beta: f64) -> Self {
        assert!((1..=56).contains(&domain_bits));
        assert!(beta > 0.0 && beta < 1.0);
        let repetitions = ((1.0 / beta).log2().ceil() as usize).max(1);
        let hash_range = ((2.0 * (n as f64).sqrt()) as u64)
            .next_power_of_two()
            .max(16);
        Self {
            n,
            domain_bits,
            eps,
            beta,
            repetitions,
            hash_range,
        }
    }

    /// Inner-oracle cells per `(t, m)` group: `(y, bit)` pairs.
    pub fn inner_cells(&self) -> u64 {
        2 * self.hash_range
    }

    /// Number of user groups `T · M'`.
    pub fn num_groups(&self) -> usize {
        self.repetitions * self.domain_bits as usize
    }

    fn inner_oracle_params(&self) -> HashtogramParams {
        HashtogramParams {
            domain: self.inner_cells(),
            eps: self.eps / 2.0,
            groups: 1,
            buckets: self.inner_cells().next_power_of_two(),
            hashed: false,
        }
    }

    fn outer_oracle_params(&self) -> HashtogramParams {
        HashtogramParams::hashed(
            self.n,
            1u64 << self.domain_bits.min(63),
            self.eps / 2.0,
            self.beta / 2.0,
        )
    }

    /// Per-cell noise width with the union bound over all groups' cells.
    pub fn cell_noise(&self) -> f64 {
        let cells = self.inner_cells() * self.num_groups() as u64;
        calibrate::union_threshold(
            self.n as f64 / self.num_groups() as f64,
            self.eps / 2.0,
            self.beta / 4.0,
            cells,
        )
    }

    /// Detection threshold: the Theorem 3.3 item 2 analogue
    /// `Θ((1/ε)·sqrt(n·log(|X|/β)·log(1/β)))` — the per-group signal
    /// `f/(T·M')` must clear the stand-out margin, so the user split
    /// across `T` repetitions inflates the threshold by `sqrt(T)` relative
    /// to `PrivateExpanderSketch`.
    pub fn detection_threshold(&self) -> f64 {
        3.5 * self.num_groups() as f64 * self.cell_noise()
    }
}

/// A user's message: the inner pair report and the outer
/// frequency-oracle report. Her `(repetition, bit-coordinate)` group is
/// a public function of her index, recomputed server-side rather than
/// transported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitstogramReport {
    /// Report of the `(h_t(x), x[m])` pair.
    pub inner: HashtogramReport,
    /// Report of `x` for the final estimates.
    pub outer: HashtogramReport,
}

/// Wire format: the shared [`wire::encode_pair`] composite frame, the
/// same layout as `SketchReport` (one split byte, then each Hadamard
/// payload in its own minimal encoding).
impl WireReport for BitstogramReport {
    fn encoded_len(&self) -> usize {
        wire::pair_encoded_len(&self.inner, &self.outer)
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        wire::encode_pair(&self.inner, &self.outer, out);
    }

    fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let (inner, outer) = wire::decode_pair(bytes)?;
        Ok(BitstogramReport { inner, outer })
    }
}

/// Mergeable partial aggregate of a [`Bitstogram`]: one inner-oracle
/// tally shard per `(t, m)` group plus the outer oracle's. All of it is
/// integer tallies, so merge is a vector add and the size is fixed.
#[derive(Default)]
pub struct BitstogramShard {
    inner: Vec<HashtogramShard>,
    outer: HashtogramShard,
}

impl BitstogramShard {
    /// The `T·M'` inner shards in group order, then the outer one.
    fn parts(&self) -> impl Iterator<Item = &HashtogramShard> {
        self.inner.iter().chain([&self.outer])
    }
}

/// Snapshot codec: `[groups]`, then the `T·M'` inner shards in group
/// order and the outer one, each as `[len][HashtogramShard frame]`.
impl WireShard for BitstogramShard {
    fn shard_encoded_len(&self) -> usize {
        let framed = |s: &HashtogramShard| {
            let len = s.shard_encoded_len();
            varint_len(len as u64) + len
        };
        varint_len(self.inner.len() as u64) + self.parts().map(framed).sum::<usize>()
    }

    fn encode_shard_into(&self, out: &mut Vec<u8>) {
        write_varint(out, self.inner.len() as u64);
        for s in self.parts() {
            write_varint(out, s.shard_encoded_len() as u64);
            s.encode_shard_into(out);
        }
    }

    fn decode_shard(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = ShardReader::new(bytes);
        let groups = r.count()?;
        let mut read = || {
            let len = r.count()?;
            HashtogramShard::decode_shard(r.raw(len)?)
        };
        let inner = (0..groups).map(|_| read()).collect::<Result<_, _>>()?;
        let outer = read()?;
        r.finish()?;
        Ok(BitstogramShard { inner, outer })
    }
}

/// The Bitstogram protocol object.
pub struct Bitstogram {
    params: BitstogramParams,
    /// Derivation seed of the public group assignment, fixed at
    /// construction so no report re-derives it.
    group_seed: u64,
    hashes: Vec<PairwiseHash>,
    /// The inner oracles' public randomness: one group, identity buckets
    /// over the `2·Y'` cells.
    inner_proto: Hashtogram,
    /// The outer oracle's public randomness; its tallies are
    /// `shard.outer` until finish merges them in.
    outer: Hashtogram,
    /// The server's aggregate.
    shard: BitstogramShard,
    finished: bool,
}

impl Bitstogram {
    /// Instantiate from parameters and a public-randomness seed.
    pub fn new(params: BitstogramParams, seed: u64) -> Self {
        let family = HashFamily::new(seed);
        let hashes = (0..params.repetitions as u64)
            .map(|t| family.pairwise(labels::BITSTOGRAM_REP, t, params.hash_range))
            .collect();
        let inner_proto = Hashtogram::new(params.inner_oracle_params(), derive_seed(seed, 0xB175));
        let outer = Hashtogram::new(params.outer_oracle_params(), derive_seed(seed, 0x0074));
        let mut server = Self {
            params,
            group_seed: derive_seed(seed, 0x617),
            hashes,
            inner_proto,
            outer,
            shard: BitstogramShard::default(),
            finished: false,
        };
        server.shard = server.new_shard();
        server
    }

    /// Protocol parameters.
    pub fn params(&self) -> &BitstogramParams {
        &self.params
    }

    /// Public group assignment `i ↦ (t, m)` flattened.
    pub fn group_of(&self, user_index: u64) -> usize {
        (derive_seed(self.group_seed, user_index) % self.params.num_groups() as u64) as usize
    }

    /// The inner cell reported by a user holding `x` in group `(t, m)`.
    pub fn cell_of(&self, group: usize, x: u64) -> u64 {
        let t = group / self.params.domain_bits as usize;
        let m = (group % self.params.domain_bits as usize) as u32;
        let y = self.hashes[t].hash(x);
        let bit = (x >> m) & 1;
        2 * y + bit
    }
}

impl Aggregator for Bitstogram {
    type Report = BitstogramReport;
    type Shard = BitstogramShard;

    fn respond<R: Rng + ?Sized>(&self, user_index: u64, x: u64, rng: &mut R) -> BitstogramReport {
        let group = self.group_of(user_index);
        let cell = self.cell_of(group, x);
        BitstogramReport {
            inner: self.inner_proto.respond(user_index, cell, rng),
            outer: self.outer.respond(user_index, x, rng),
        }
    }

    fn collect(&mut self, user_index: u64, report: BitstogramReport) {
        assert!(!self.finished, "collect after finish");
        let group = self.group_of(user_index);
        let (inner, outer) = (self.inner_proto.absorber(), self.outer.absorber());
        inner.collect_one(&mut self.shard.inner[group], user_index, report.inner);
        outer.collect_one(&mut self.shard.outer, user_index, report.outer);
    }

    fn new_shard(&self) -> BitstogramShard {
        BitstogramShard {
            inner: vec![self.inner_proto.new_shard(); self.params.num_groups()],
            outer: self.outer.new_shard(),
        }
    }

    fn absorb_wire(
        &self,
        shard: &mut BitstogramShard,
        start_index: u64,
        frames: &WireFrames<'_>,
    ) -> Result<(), FrameError> {
        // Zero-copy: split each composite frame in place — the inner
        // report tallies into its (recomputed) group's shard, the outer
        // one into the outer shard, each through its oracle's hoisted
        // absorber. A frame is absorbed whole or not at all: the inner
        // row is checked before the outer report is absorbed (which
        // checks its own row first), so an `Err` leaves the shard holding
        // exactly the frames before it.
        let inner_absorber = self.inner_proto.absorber();
        let outer_absorber = self.outer.absorber();
        for (k, frame) in frames.iter().enumerate() {
            let (inner, outer) = wire::decode_pair::<HashtogramReport, HashtogramReport>(frame)
                .map_err(|e| frames.frame_error(k, e))?;
            let i = start_index + k as u64;
            inner_absorber
                .check(inner)
                .and_then(|()| outer_absorber.absorb_one(&mut shard.outer, i, outer))
                .map_err(|e| frames.frame_error(k, e))?;
            inner_absorber
                .absorb_one(&mut shard.inner[self.group_of(i)], i, inner)
                .expect("the inner row was checked above");
        }
        Ok(())
    }

    fn merge(&self, mut a: BitstogramShard, b: BitstogramShard) -> BitstogramShard {
        // Hard check — decoded snapshots are parameter-free, so a shard
        // with a different group count must not zip-truncate.
        assert_eq!(a.inner.len(), b.inner.len(), "shard shape mismatch");
        a.inner = a
            .inner
            .into_iter()
            .zip(b.inner)
            .map(|(x, y)| self.inner_proto.merge(x, y))
            .collect();
        a.outer = self.outer.merge(a.outer, b.outer);
        a
    }

    fn finish_shard(&mut self, shard: BitstogramShard) {
        assert!(!self.finished, "collect after finish");
        let own = std::mem::take(&mut self.shard);
        self.shard = self.merge(shard, own);
    }

    fn report_bits(&self) -> usize {
        // Exact worst-case wire size of the composite message, as for
        // `SketchReport`.
        wire::pair_wire_bits(self.inner_proto.report_bits(), self.outer.report_bits())
    }

    fn memory_bytes(&self) -> usize {
        // One inner oracle per `(t, m)` group + the outer oracle sketch.
        self.inner_proto.memory_bytes() * self.params.num_groups() + self.outer.memory_bytes()
    }

    fn epsilon(&self) -> f64 {
        self.params.eps
    }
}

impl HeavyHitterProtocol for Bitstogram {
    fn finish_with(&mut self, scratch: &mut FinishScratch) -> Vec<(u64, f64)> {
        assert!(!self.finished, "double finish");
        self.finished = true;
        let threads = scratch.threads;
        let p = self.params.clone();
        let m_bits = p.domain_bits as usize;
        let tau = 1.25 * p.cell_noise();
        // Inner decode: every (repetition, bit) group is an independent
        // oracle — materialize, finalize and sweep all of them on
        // parallel workers (results in group order, bit-for-bit the
        // serial loop's tables).
        let inner = std::mem::take(&mut self.shard.inner);
        let estimates = par_map_owned(inner, threads, |_, shard| {
            let mut oracle = self.inner_proto.clone();
            oracle.finish_shard(shard);
            oracle.finalize();
            let mut table = vec![0.0; p.inner_cells() as usize];
            oracle.estimate_run(0, &mut table, &mut Vec::new());
            table
        });
        // Reconstruct candidates repetition by repetition — the bit-wise
        // vote over the estimate tables is cheap and order-sensitive
        // (candidate order feeds the output), so it stays serial.
        let mut candidates: Vec<u64> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for t in 0..p.repetitions {
            let estimates = &estimates[t * m_bits..(t + 1) * m_bits];
            for y in 0..p.hash_range {
                let mut x = 0u64;
                let mut support = 0usize;
                for (m, est) in estimates.iter().enumerate() {
                    let f0 = est[(2 * y) as usize];
                    let f1 = est[(2 * y + 1) as usize];
                    if f1 > f0 {
                        x |= 1 << m;
                    }
                    if f0.max(f1) >= tau {
                        support += 1;
                    }
                }
                // A real heavy hitter stands out in (essentially) every
                // bit coordinate of the repetition.
                if support * 2 >= m_bits && seen.insert(x) {
                    candidates.push(x);
                }
            }
        }
        // Final estimates from the outer oracle, swept over candidate
        // chunks in parallel with pooled median workspaces.
        self.outer
            .finish_shard(std::mem::take(&mut self.shard.outer));
        self.outer.finalize_with(scratch);
        let keep = p.detection_threshold() / 2.0;
        let mut est: Vec<(u64, f64)> = Vec::with_capacity(candidates.len());
        if !candidates.is_empty() {
            let workers = planned_threads(threads, candidates.len(), 1);
            let chunk = candidates.len().div_ceil(workers).max(1);
            let num_chunks = candidates.len().div_ceil(chunk);
            let bufs: Vec<Vec<f64>> = (0..num_chunks).map(|_| scratch.take_f64()).collect();
            let parts = par_chunk_zip_map(&candidates, chunk, threads, bufs, |_, xs, mut buf| {
                let part: Vec<(u64, f64)> = xs
                    .iter()
                    .map(|&x| (x, self.outer.estimate_into(x, &mut buf)))
                    .filter(|&(_, f)| f >= keep)
                    .collect();
                (part, buf)
            });
            for (part, buf) in parts {
                est.extend_from_slice(&part);
                scratch.put_f64(buf);
            }
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

    fn planted(n: usize, domain_bits: u32, heavy: &[(u64, f64)], seed: u64) -> Vec<u64> {
        let mut rng = seeded_rng(seed);
        use rand::Rng;
        let domain = 1u64 << domain_bits;
        (0..n)
            .map(|_| {
                let u: f64 = rng.gen();
                let mut acc = 0.0;
                for &(x, frac) in heavy {
                    acc += frac;
                    if u < acc {
                        return x;
                    }
                }
                rng.gen_range(0..domain)
            })
            .collect()
    }

    #[test]
    fn threshold_carries_the_sqrt_log_beta_factor() {
        // The headline comparison: as beta shrinks, Bitstogram's threshold
        // grows ~sqrt(log(1/beta)) faster than PrivateExpanderSketch's.
        let n = 1u64 << 16;
        let ours_01 = crate::SketchParams::optimal(n, 24, 1.0, 0.1).detection_threshold();
        let ours_tiny = crate::SketchParams::optimal(n, 24, 1.0, 1e-8).detection_threshold();
        let theirs_01 = BitstogramParams::optimal(n, 24, 1.0, 0.1).detection_threshold();
        let theirs_tiny = BitstogramParams::optimal(n, 24, 1.0, 1e-8).detection_threshold();
        let ours_growth = ours_tiny / ours_01;
        let theirs_growth = theirs_tiny / theirs_01;
        assert!(
            theirs_growth > 1.8 * ours_growth,
            "expected clear separation: ours x{ours_growth:.2}, theirs x{theirs_growth:.2}"
        );
    }

    #[test]
    fn recovers_a_dominant_heavy_hitter() {
        // Bitstogram's constants are worse than the sketch's (that is the
        // point); size the test accordingly with a high-eps profile.
        let n = 1usize << 17;
        let mut params = BitstogramParams::optimal(n as u64, 12, 4.0, 0.5);
        params.repetitions = 1;
        let delta = params.detection_threshold();
        assert!(delta < 0.5 * n as f64, "sizing: delta = {delta}");
        let hx = 0xABCu64;
        let frac = (delta / n as f64) * 1.5;
        let data = planted(n, 12, &[(hx, frac)], 41);
        let mut server = Bitstogram::new(params, 42);
        let mut rng = seeded_rng(43);
        for (i, &x) in data.iter().enumerate() {
            let rep = server.respond(i as u64, x, &mut rng);
            server.collect(i as u64, rep);
        }
        let est = server.finish();
        assert!(
            est.iter().any(|&(x, _)| x == hx),
            "missed the planted element: {est:?}"
        );
    }

    #[test]
    fn group_assignment_covers_all_groups() {
        let params = BitstogramParams::optimal(1 << 14, 16, 1.0, 0.25);
        let server = Bitstogram::new(params.clone(), 5);
        let mut counts = vec![0u64; params.num_groups()];
        for i in 0..(1u64 << 14) {
            counts[server.group_of(i)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "empty group");
    }

    #[test]
    fn repetitions_grow_with_beta() {
        let a = BitstogramParams::optimal(1 << 16, 24, 1.0, 0.1);
        let b = BitstogramParams::optimal(1 << 16, 24, 1.0, 1e-6);
        assert!(b.repetitions > a.repetitions);
        assert_eq!(b.repetitions, 20);
    }
}
