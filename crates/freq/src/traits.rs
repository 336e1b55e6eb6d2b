//! Core protocol abstractions: local randomizers, and the one
//! encoder/aggregator interface both protocol families share.
//!
//! # Encoder / aggregator architecture
//!
//! A heavy-hitters protocol (Definition 3.1) and a frequency oracle
//! (Definition 3.2) are the same machine up to the last step: one round,
//! one message per user, a server that folds the messages. That shared
//! half is the [`Aggregator`] trait, and it is two machines connected by
//! a wire:
//!
//! * the **encoder** (client side): [`Aggregator::respond`] turns one
//!   user's input into a `Report`, and every `Report` implements
//!   [`WireReport`] — an exact byte encoding, so the logarithmic-message
//!   claims are measured properties (`report_bits()` bounds the
//!   encoding up to byte alignment; pinned by the `wire_conformance`
//!   integration tests). The batch entry point
//!   [`Aggregator::respond_encode_batch`] samples a user range straight
//!   into a wire buffer (no intermediate report vec) — byte-identical to
//!   per-user `respond` + `encode_into`;
//! * the **aggregator** (server side): ingestion state is first-class
//!   and *mergeable*. An [`Aggregator::Shard`] is the self-contained
//!   partial aggregate one collector node holds;
//!   [`Aggregator::new_shard`] makes an empty one,
//!   [`Aggregator::absorb_wire`] folds borrowed wire frames
//!   ([`WireFrames`]) of a contiguous user range into it without
//!   constructing `Report` values, [`Aggregator::merge`] combines two
//!   shards, and [`Aggregator::finish_shard`] merges a shard into the
//!   server's own one: a server's pre-finish state *is* a value of its
//!   `Shard` type, which `collect` writes into. Shards hold exact
//!   integer state, so `merge` is associative
//!   and commutative (observationally) with `new_shard()` as identity:
//!   any shard tree over any partition of the reports leaves the server
//!   bit-for-bit identical to serial per-user [`Aggregator::collect`]
//!   calls (the `batch_equivalence` and `distributed_merge` integration
//!   tests pin this).
//!
//! Scalar `respond` + `collect` are the serial reference; the fused
//! `respond_encode_batch` + `absorb_wire` pair is the one batch path
//! every driver and the collector runtime (`hh_sim`) run. The families
//! add only their finish half: [`FrequencyOracle`] answers point
//! queries, `hh_core::traits::HeavyHitterProtocol` outputs a list.
//!
//! Reproducibility contract: user `i`'s client coins are always the
//! stream [`hh_math::rng::client_rng`]`(client_seed, i)` — a pure
//! function of the run seed and the user index — so reports, and
//! therefore every aggregate, do not depend on chunk boundaries, thread
//! count, collector assignment, or merge order.

use crate::wire::{FrameError, WireFrames, WireReport, WireShard};
use hh_math::sampler::ClientCoins;
use rand::Rng;

pub use hh_math::par::FinishScratch;

/// Input to a local randomizer: a real domain element or the null symbol
/// `⊥` used by GenProt's public sampling (Algorithm GenProt, step 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RandomizerInput {
    /// A domain element.
    Value(u64),
    /// The null input `⊥` (by convention, a canonical reference input; each
    /// randomizer documents its choice).
    Null,
}

impl From<u64> for RandomizerInput {
    fn from(x: u64) -> Self {
        RandomizerInput::Value(x)
    }
}

/// A single-message local randomizer with *computable output densities*.
///
/// Outputs are encoded as `u64` indices into a finite output space, which
/// lets the workspace (a) run GenProt's rejection sampling, which needs
/// exact density ratios, and (b) *audit* privacy claims exactly by
/// enumerating outputs (`hh-structure::audit`).
pub trait LocalRandomizer {
    /// Number of possible outputs (outputs are `0..output_cardinality()`).
    fn output_cardinality(&self) -> u64;

    /// Draw one output for the given input.
    fn sample<R: Rng + ?Sized>(&self, x: RandomizerInput, rng: &mut R) -> u64;

    /// `ln Pr[A(x) = y]`.
    fn log_density(&self, x: RandomizerInput, y: u64) -> f64;

    /// Draw one output per input, sharing `rng` sequentially.
    ///
    /// Draw-order identical to repeated [`LocalRandomizer::sample`]
    /// calls (the default — overrides may batch the arithmetic but must
    /// preserve the output stream). This is the bulk entry point for
    /// simulation-side consumers that draw many samples from one stream,
    /// e.g. GenProt's public candidate lists; the per-user protocol path
    /// keeps per-user coin streams instead.
    fn sample_batch<R: Rng + ?Sized>(&self, xs: &[RandomizerInput], rng: &mut R) -> Vec<u64> {
        xs.iter().map(|&x| self.sample(x, rng)).collect()
    }

    /// The pure-DP parameter the randomizer claims (`f64::INFINITY` for
    /// approximate-only randomizers).
    fn claimed_epsilon(&self) -> f64;

    /// The approximation parameter δ the randomizer claims (0 for pure).
    fn claimed_delta(&self) -> f64 {
        0.0
    }

    /// Exact output distribution for an input (enumerated).
    fn distribution(&self, x: RandomizerInput) -> Vec<f64> {
        (0..self.output_cardinality())
            .map(|y| self.log_density(x, y).exp())
            .collect()
    }
}

/// The ingest half both protocol families share: a wire-format encoder
/// and a mergeable aggregator (see the module docs).
///
/// The object holds the *public randomness* (derived from one seed) and
/// the server state; [`Aggregator::respond`] is the client algorithm (it
/// reads only public state and the user's own input, never other users'
/// reports — non-interactivity by construction).
pub trait Aggregator {
    /// The client's single message to the server, as it crosses the wire.
    type Report: WireReport;

    /// Self-contained, mergeable partial aggregation state: what one
    /// collector node holds after ingesting a subset of the reports.
    ///
    /// Shards are *durable artifacts*: every shard implements
    /// [`WireShard`], an exact byte codec, so a collector's partial
    /// aggregate can be checkpointed to stable storage and a crashed
    /// node recovered by decoding its last snapshot and replaying the
    /// reports since (see `hh_sim::pipeline`).
    ///
    /// Shards own their state outright (`'static`), so they can cross
    /// type-erasure boundaries — `hh_sim`'s object-safe protocol layer
    /// moves them as `Box<dyn Any>` behind byte-level wire interfaces.
    type Shard: Send + WireShard + 'static;

    /// Client: user `user_index` holding `x` produces her report.
    fn respond<R: Rng + ?Sized>(&self, user_index: u64, x: u64, rng: &mut R) -> Self::Report;

    /// Client, fused respond + encode: append the wire frames of the
    /// contiguous user range `start_index .. start_index + xs.len()` to
    /// `out`, returning each frame's length.
    ///
    /// User `start_index + k` must draw exactly the coins
    /// [`client_rng`](hh_math::rng::client_rng)`(client_seed, start_index + k)`,
    /// so the bytes equal per-user [`Aggregator::respond`] followed by
    /// `encode_into` (the `wire_conformance` proptests pin this) and any
    /// chunking of the population produces identical frames. `out` is
    /// typically a pooled buffer reused across batches, which makes the
    /// steady-state client phase allocation-free.
    ///
    /// The provided body is exactly that: `respond` on each user's coin
    /// stream, encoded straight into `out` with no intermediate report
    /// vec. A protocol overrides it to share work across users or to
    /// skip building the report.
    fn respond_encode_batch(
        &self,
        start_index: u64,
        xs: &[u64],
        client_seed: u64,
        out: &mut Vec<u8>,
    ) -> Vec<u32> {
        let coins = ClientCoins::new(client_seed);
        let mut lens = Vec::with_capacity(xs.len());
        for (k, &x) in xs.iter().enumerate() {
            let i = start_index + k as u64;
            let rep = self.respond(i, x, &mut coins.user(i));
            let before = out.len();
            rep.encode_into(out);
            lens.push((out.len() - before) as u32);
        }
        lens
    }

    /// Server: ingest one report. The semantic ground truth every shard
    /// path must match observationally.
    fn collect(&mut self, user_index: u64, report: Self::Report);

    /// An empty partial aggregate (the identity of
    /// [`Aggregator::merge`]).
    fn new_shard(&self) -> Self::Shard;

    /// Server, zero-copy: fold borrowed wire frames into `shard` without
    /// constructing `Report` values — frame `k` is user
    /// `start_index + k`'s report.
    ///
    /// Must be observationally identical to decoding every frame and
    /// calling [`Aggregator::collect`] per user (absorbed state is exact
    /// — integer tallies, never floats — so ranges may be absorbed in any
    /// order across any number of shards). A corrupt frame — undecodable
    /// bytes, or a decoded value outside the protocol's domain — returns
    /// a [`FrameError`] naming the frame and its byte offset; on `Err`
    /// the shard may hold a partial absorption and must be discarded.
    fn absorb_wire(
        &self,
        shard: &mut Self::Shard,
        start_index: u64,
        frames: &WireFrames<'_>,
    ) -> Result<(), FrameError>;

    /// Combine two partial aggregates. Associative and commutative
    /// (observationally), with [`Aggregator::new_shard`] as identity.
    fn merge(&self, a: Self::Shard, b: Self::Shard) -> Self::Shard;

    /// Fold a partial aggregate into the server state (before the
    /// family's finish step): [`Aggregator::merge`] it into the server's
    /// own shard. A shard of another shape — e.g. a decoded snapshot
    /// from a different configuration — panics with
    /// `"shard shape mismatch"` instead of folding in silently.
    fn finish_shard(&mut self, shard: Self::Shard);

    /// Communication per user in bits (for the Table 1 accounting). The
    /// wire encoding satisfies
    /// `encoded_len() <= report_bits().div_ceil(8)` — pinned by the
    /// `wire_conformance` integration tests.
    fn report_bits(&self) -> usize;

    /// Server working-memory estimate in bytes (sketch state only).
    fn memory_bytes(&self) -> usize;

    /// The per-user privacy parameter the protocol consumes.
    fn epsilon(&self) -> f64;
}

/// A one-round LDP frequency-oracle protocol (Definition 3.2): the
/// shared [`Aggregator`] ingest half plus point estimates.
pub trait FrequencyOracle: Aggregator {
    /// Server-side: finish ingestion (e.g. apply the inverse transform)
    /// with an explicit [`FinishScratch`] — the parallel,
    /// allocation-recycling finish path. Must be called before
    /// [`FrequencyOracle::estimate`].
    ///
    /// The scratch carries the worker-thread knob the debias/transform
    /// sweeps run under and pooled buffers reused across calls; neither
    /// may change the result: every [`FrequencyOracle::estimate`] answer
    /// is **bit-for-bit equal** for every scratch state and thread count
    /// (the `finish_equivalence` proptests pin every implementation).
    fn finalize_with(&mut self, scratch: &mut FinishScratch);

    /// Server-side: [`FrequencyOracle::finalize_with`] on one thread.
    fn finalize(&mut self) {
        self.finalize_with(&mut FinishScratch::serial());
    }

    /// Estimate `f_S(x)`.
    fn estimate(&self, x: u64) -> f64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn randomizer_input_from_u64() {
        assert_eq!(RandomizerInput::from(7), RandomizerInput::Value(7));
    }
}
