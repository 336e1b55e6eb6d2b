//! Frequency oracle from generalized randomized response (small domains).
//!
//! The simplest LDP frequency oracle: every user sends an ε-GRR report of
//! her value; the server keeps a histogram and debiases. Error
//! `Θ((1/ε)·sqrt(n·k))` — competitive only for very small domains, which
//! is exactly the role it plays in the benches (and inside Section 5's
//! composition experiments).

use crate::randomizers::GeneralizedRandomizedResponse;
use crate::traits::{Aggregator, FinishScratch, FrequencyOracle, LocalRandomizer, RandomizerInput};
use crate::wire::{
    count_run_len, read_count_run, read_uint, varint_len, write_count_run, write_uint,
    write_varint, FrameError, ShardReader, WireError, WireFrames, WireShard,
};
use hh_math::sampler::ClientCoins;
use rand::Rng;

/// GRR-based frequency oracle over `[k]`.
#[derive(Debug, Clone)]
pub struct KrrOracle {
    grr: GeneralizedRandomizedResponse,
    k: u64,
    shard: KrrShard,
    finalized: bool,
}

impl KrrOracle {
    /// Oracle over a `k`-element domain with privacy ε.
    pub fn new(k: u64, eps: f64) -> Self {
        Self {
            grr: GeneralizedRandomizedResponse::new(k, eps),
            k,
            shard: KrrShard {
                counts: vec![0; k as usize],
                users: 0,
            },
            finalized: false,
        }
    }

    /// The underlying randomizer (for audits / GenProt wrapping).
    pub fn randomizer(&self) -> &GeneralizedRandomizedResponse {
        &self.grr
    }
}

/// Mergeable partial aggregate of a [`KrrOracle`]: a plain histogram of
/// received reports (merge is exact addition).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KrrShard {
    counts: Vec<u64>,
    users: u64,
}

/// Snapshot codec: `[users][counts run]`, canonical varints.
impl WireShard for KrrShard {
    fn shard_encoded_len(&self) -> usize {
        varint_len(self.users) + count_run_len(&self.counts)
    }

    fn encode_shard_into(&self, out: &mut Vec<u8>) {
        write_varint(out, self.users);
        write_count_run(out, &self.counts);
    }

    fn decode_shard(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = ShardReader::new(bytes);
        let users = r.u64()?;
        let counts = read_count_run(&mut r)?;
        r.finish()?;
        Ok(KrrShard { counts, users })
    }
}

impl Aggregator for KrrOracle {
    /// The GRR output itself — wire format is the minimal little-endian
    /// encoding of the value (`ceil(log2 k)` claimed bits).
    type Report = u64;
    type Shard = KrrShard;

    fn respond<R: Rng + ?Sized>(&self, _user_index: u64, x: u64, rng: &mut R) -> u64 {
        self.grr.sample(RandomizerInput::Value(x), rng)
    }

    fn respond_encode_batch(
        &self,
        start_index: u64,
        xs: &[u64],
        client_seed: u64,
        out: &mut Vec<u8>,
    ) -> Vec<u32> {
        // Fused: sample each GRR output straight into the wire buffer,
        // same per-user coin streams and keep-vs-lie kernel as the
        // scalar respond path (hoisted out of the per-user loop).
        let coins = ClientCoins::new(client_seed);
        let kernel = self.grr.kernel();
        xs.iter()
            .enumerate()
            .map(|(k, &x)| {
                assert!(x < self.k, "input {x} outside [k]");
                let mut rng = coins.user(start_index + k as u64);
                let v = kernel.sample(x, &mut rng);
                let before = out.len();
                write_uint(out, v);
                (out.len() - before) as u32
            })
            .collect()
    }

    fn collect(&mut self, _user_index: u64, report: u64) {
        assert!(!self.finalized);
        assert!(report < self.k);
        self.shard.counts[report as usize] += 1;
        self.shard.users += 1;
    }

    fn new_shard(&self) -> KrrShard {
        KrrShard {
            counts: vec![0; self.k as usize],
            users: 0,
        }
    }

    fn absorb_wire(
        &self,
        shard: &mut KrrShard,
        _start_index: u64,
        frames: &WireFrames<'_>,
    ) -> Result<(), FrameError> {
        // Zero-copy: each frame is the GRR value's minimal encoding —
        // read it and bump the histogram cell, no report vec.
        for (k, frame) in frames.iter().enumerate() {
            let v = read_uint(frame).map_err(|e| frames.frame_error(k, e))?;
            if v >= self.k {
                return Err(
                    frames.frame_error(k, WireError::Invalid("GRR report outside the domain"))
                );
            }
            shard.counts[v as usize] += 1;
        }
        shard.users += frames.len() as u64;
        Ok(())
    }

    fn merge(&self, mut a: KrrShard, b: KrrShard) -> KrrShard {
        // Hard check — see the HashtogramShard merge note: decoded
        // snapshots are parameter-free, so mismatches must not truncate.
        assert_eq!(a.counts.len(), b.counts.len(), "shard shape mismatch");
        for (acc, add) in a.counts.iter_mut().zip(&b.counts) {
            *acc += add;
        }
        a.users += b.users;
        a
    }

    fn finish_shard(&mut self, shard: KrrShard) {
        assert!(!self.finalized);
        let own = std::mem::take(&mut self.shard);
        self.shard = self.merge(shard, own);
    }

    fn report_bits(&self) -> usize {
        (64 - (self.k - 1).leading_zeros()) as usize
    }

    fn memory_bytes(&self) -> usize {
        self.shard.counts.len() * std::mem::size_of::<u64>()
    }

    fn epsilon(&self) -> f64 {
        self.grr.claimed_epsilon()
    }
}

impl FrequencyOracle for KrrOracle {
    fn finalize_with(&mut self, _scratch: &mut FinishScratch) {
        self.finalized = true;
    }

    fn estimate(&self, x: u64) -> f64 {
        assert!(self.finalized, "estimate before finalize");
        self.grr.debias(
            self.shard.counts[x as usize] as f64,
            self.shard.users as f64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_math::rng::seeded_rng;

    #[test]
    fn recovers_skewed_histogram() {
        let k = 10u64;
        let n = 60_000u64;
        let mut oracle = KrrOracle::new(k, 1.0);
        let mut rng = seeded_rng(1);
        for i in 0..n {
            let x = if i % 5 == 0 { 3 } else { i % k };
            let rep = oracle.respond(i, x, &mut rng);
            oracle.collect(i, rep);
        }
        oracle.finalize();
        // Element 3 holds 1/5 + 1/10·4/5 = 0.28 of the data.
        let est = oracle.estimate(3);
        let want = n as f64 * (0.2 + 0.8 / k as f64);
        assert!(
            (est - want).abs() < 0.1 * n as f64,
            "estimate {est} vs {want}"
        );
        // Estimates roughly sum to n.
        let total: f64 = (0..k).map(|x| oracle.estimate(x)).sum();
        assert!((total - n as f64).abs() < 1e-6 * n as f64);
    }

    #[test]
    fn report_bits_is_log_k() {
        assert_eq!(KrrOracle::new(16, 1.0).report_bits(), 4);
        assert_eq!(KrrOracle::new(17, 1.0).report_bits(), 5);
        assert_eq!(KrrOracle::new(2, 1.0).report_bits(), 1);
    }
}
