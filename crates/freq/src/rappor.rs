//! Basic one-hot RAPPOR (Erlingsson–Pihur–Korolova, CCS 2014).
//!
//! The industrial baseline cited by the paper's introduction: each user
//! one-hot encodes her value over the whole domain and flips every bit
//! independently. Flipping a one-hot vector has ℓ₁-sensitivity 2, so a
//! per-bit budget of ε/2 yields ε-LDP overall.
//!
//! Costs are the story here: Θ(|X|) user time and communication per
//! report, versus Hashtogram's `O~(1)` — the contrast the Table 1
//! communication rows of `exp_table1_resources` measure.

use crate::traits::{Aggregator, FinishScratch, FrequencyOracle};
use crate::wire::{
    count_run_len, read_count_run, varint_len, write_count_run, write_varint, FrameError,
    ShardReader, WireError, WireFrames, WireShard,
};
use hh_math::sampler::{Bernoulli, ClientCoins};
use rand::Rng;

/// Basic RAPPOR over a (small) domain.
#[derive(Debug, Clone)]
pub struct Rappor {
    domain: u64,
    eps: f64,
    /// Pr[bit transmitted truthfully].
    keep: f64,
    /// Word-level kernel flipping each bit with probability `1 - keep`.
    flip: Bernoulli,
    /// Accumulated ones per position and users seen.
    shard: RapporShard,
    finalized: bool,
}

impl Rappor {
    /// ε-LDP one-hot RAPPOR. `domain` is capped (the report is a dense
    /// bitvector; this protocol is the "doesn't scale" baseline).
    pub fn new(domain: u64, eps: f64) -> Self {
        assert!(domain >= 2);
        assert!(domain <= 1 << 22, "one-hot RAPPOR beyond 2^22 is pointless");
        assert!(eps > 0.0);
        let half = eps / 2.0;
        let keep = half.exp() / (half.exp() + 1.0);
        Self {
            domain,
            eps,
            keep,
            flip: Bernoulli::new(1.0 - keep),
            shard: RapporShard {
                ones: vec![0; domain as usize],
                users: 0,
            },
            finalized: false,
        }
    }

    /// Pr\[bit transmitted truthfully\] (`e^{ε/2}/(e^{ε/2}+1)`).
    pub fn keep_probability(&self) -> f64 {
        self.keep
    }

    fn q(&self) -> f64 {
        1.0 - self.keep
    }

    /// Sample the perturbed bitvector of a user holding `x` into `out`
    /// (exactly `domain.div_ceil(8)` bytes) — the one flip loop both
    /// [`FrequencyOracle::respond`] and the fused
    /// [`FrequencyOracle::respond_encode_batch`] run.
    ///
    /// Per 64 positions the report is `truth_word XOR flip_mask`, with
    /// the flip mask drawn by the bit-parallel Bernoulli kernel at flip
    /// probability `1 - keep` — a handful of words per 64 positions
    /// instead of one `f64` draw per position.
    fn respond_into<R: Rng + ?Sized>(&self, x: u64, rng: &mut R, out: &mut [u8]) {
        assert!(x < self.domain);
        debug_assert_eq!(out.len(), (self.domain as usize).div_ceil(8));
        let words = (self.domain as usize).div_ceil(64);
        for w in 0..words {
            let lo = (w as u64) * 64;
            let truth = if (lo..lo + 64).contains(&x) {
                1u64 << (x - lo)
            } else {
                0
            };
            let mut sent = truth ^ self.flip.sample_word(rng);
            let valid = (self.domain - lo).min(64);
            if valid < 64 {
                // Positions beyond the domain stay zero on the wire.
                sent &= (1u64 << valid) - 1;
            }
            let bytes = sent.to_le_bytes();
            let start = w * 8;
            let nb = (out.len() - start).min(8);
            out[start..start + nb].copy_from_slice(&bytes[..nb]);
        }
    }
}

/// Mergeable partial aggregate of a [`Rappor`] oracle: per-position
/// one-counts (merge is exact addition).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RapporShard {
    ones: Vec<u64>,
    users: u64,
}

/// Snapshot codec: `[users][ones run]`, canonical varints.
impl WireShard for RapporShard {
    fn shard_encoded_len(&self) -> usize {
        varint_len(self.users) + count_run_len(&self.ones)
    }

    fn encode_shard_into(&self, out: &mut Vec<u8>) {
        write_varint(out, self.users);
        write_count_run(out, &self.ones);
    }

    fn decode_shard(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = ShardReader::new(bytes);
        let users = r.u64()?;
        let ones = read_count_run(&mut r)?;
        r.finish()?;
        Ok(RapporShard { ones, users })
    }
}

impl Aggregator for Rappor {
    /// The perturbed bitvector, byte-packed — the report *is* its wire
    /// format (`ceil(domain / 8)` bytes against the `domain`-bit claim).
    type Report = Vec<u8>;
    type Shard = RapporShard;

    fn respond<R: Rng + ?Sized>(&self, _user_index: u64, x: u64, rng: &mut R) -> Vec<u8> {
        let mut out = vec![0u8; (self.domain as usize).div_ceil(8)];
        self.respond_into(x, rng, &mut out);
        out
    }

    fn respond_encode_batch(
        &self,
        start_index: u64,
        xs: &[u64],
        client_seed: u64,
        out: &mut Vec<u8>,
    ) -> Vec<u32> {
        // Fused: flip words straight into the wire buffer — the report
        // *is* its wire format, so this skips one dense bitvector
        // allocation per user, and `respond_into` is the same kernel
        // loop `respond` runs, word streams included.
        let coins = ClientCoins::new(client_seed);
        let len = (self.domain as usize).div_ceil(8);
        let mut lens = Vec::with_capacity(xs.len());
        for (k, &x) in xs.iter().enumerate() {
            let mut rng = coins.user(start_index + k as u64);
            let base = out.len();
            out.resize(base + len, 0);
            self.respond_into(x, &mut rng, &mut out[base..]);
            lens.push(len as u32);
        }
        lens
    }

    fn collect(&mut self, _user_index: u64, report: Vec<u8>) {
        assert!(!self.finalized);
        assert_eq!(report.len(), (self.domain as usize).div_ceil(8));
        for j in 0..self.domain {
            if report[(j / 8) as usize] >> (j % 8) & 1 == 1 {
                self.shard.ones[j as usize] += 1;
            }
        }
        self.shard.users += 1;
    }

    fn new_shard(&self) -> RapporShard {
        RapporShard {
            ones: vec![0; self.domain as usize],
            users: 0,
        }
    }

    fn absorb_wire(
        &self,
        shard: &mut RapporShard,
        _start_index: u64,
        frames: &WireFrames<'_>,
    ) -> Result<(), FrameError> {
        // Zero-copy: the frame *is* the perturbed bitvector — count the
        // ones straight off the borrowed bytes.
        let expect = (self.domain as usize).div_ceil(8);
        for (k, frame) in frames.iter().enumerate() {
            if frame.len() != expect {
                return Err(frames.frame_error(k, WireError::Invalid("bitvector length mismatch")));
            }
            for j in 0..self.domain {
                if frame[(j / 8) as usize] >> (j % 8) & 1 == 1 {
                    shard.ones[j as usize] += 1;
                }
            }
        }
        shard.users += frames.len() as u64;
        Ok(())
    }

    fn merge(&self, mut a: RapporShard, b: RapporShard) -> RapporShard {
        // Hard check — see the HashtogramShard merge note: decoded
        // snapshots are parameter-free, so mismatches must not truncate.
        assert_eq!(a.ones.len(), b.ones.len(), "shard shape mismatch");
        for (acc, add) in a.ones.iter_mut().zip(&b.ones) {
            *acc += add;
        }
        a.users += b.users;
        a
    }

    fn finish_shard(&mut self, shard: RapporShard) {
        assert!(!self.finalized);
        let own = std::mem::take(&mut self.shard);
        self.shard = self.merge(shard, own);
    }

    fn report_bits(&self) -> usize {
        self.domain as usize
    }

    fn memory_bytes(&self) -> usize {
        self.shard.ones.len() * std::mem::size_of::<u64>()
    }

    fn epsilon(&self) -> f64 {
        self.eps
    }
}

impl FrequencyOracle for Rappor {
    fn finalize_with(&mut self, _scratch: &mut FinishScratch) {
        self.finalized = true;
    }

    fn estimate(&self, x: u64) -> f64 {
        assert!(self.finalized, "estimate before finalize");
        let c = self.shard.ones[x as usize] as f64;
        let n = self.shard.users as f64;
        (c - n * self.q()) / (self.keep - self.q())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_math::rng::seeded_rng;

    #[test]
    fn recovers_point_mass() {
        let domain = 32u64;
        let n = 20_000u64;
        let mut oracle = Rappor::new(domain, 1.0);
        let mut rng = seeded_rng(2);
        for i in 0..n {
            let x = if i % 2 == 0 { 11 } else { i % domain };
            let rep = oracle.respond(i, x, &mut rng);
            oracle.collect(i, rep);
        }
        oracle.finalize();
        let est = oracle.estimate(11);
        let want = n as f64 * (0.5 + 0.5 / domain as f64);
        assert!((est - want).abs() < 0.08 * n as f64, "est {est} vs {want}");
    }

    #[test]
    fn per_user_cost_is_linear_in_domain() {
        let oracle = Rappor::new(1024, 1.0);
        assert_eq!(oracle.report_bits(), 1024);
    }

    #[test]
    fn estimate_of_absent_element_near_zero() {
        let domain = 64u64;
        let n = 30_000u64;
        let mut oracle = Rappor::new(domain, 2.0);
        let mut rng = seeded_rng(3);
        for i in 0..n {
            let rep = oracle.respond(i, 5, &mut rng);
            oracle.collect(i, rep);
        }
        oracle.finalize();
        let est = oracle.estimate(40);
        assert!(est.abs() < 0.05 * n as f64, "absent estimate {est}");
    }
}
