//! The type-erased protocol layer: object-safe twins of
//! [`HeavyHitterProtocol`] and [`FrequencyOracle`] with byte-level
//! shard/report passing. They are the one protocol surface of the
//! collector runtime ([`crate::pipeline`]) and the fleet drivers
//! ([`crate::run`]), and they let protocols be chosen by *runtime
//! configuration* (see [`crate::registry`]) instead of per-binary
//! monomorphized `match` arms.
//!
//! The generic traits are not object-safe: `respond` is generic over
//! the RNG, and reports/shards are associated types. The dyn layer
//! erases all of that at the *wire boundary*, which the zero-copy
//! refactors already made the native interface:
//!
//! * **reports** only ever cross as encoded frames —
//!   `respond_encode_batch` writes bytes, `absorb_wire` reads borrowed
//!   frames, so no `Report` type appears in a signature;
//! * **live shards** cross as [`DynShard`] (a `Box<dyn Any + Send>`
//!   owning the concrete shard), moved around opaquely and downcast
//!   only inside the owning protocol's wrapper;
//! * **durable shards** cross as their `WireShard` snapshot bytes via
//!   `encode_shard_into` / `decode_shard` through `&self`.
//!
//! [`Erased`] wraps a concrete protocol into the dyn traits — that is
//! how a typed protocol reaches the runtime and the fleet drivers:
//! `run_heavy_hitter_batched(&mut Erased(server), ..)`. It is a wrapper
//! struct rather than a blanket impl, so `finish()` et al. never become
//! ambiguous on concrete types. [`DynHhStream`] / [`DynOracleStream`]
//! adapt a `&dyn` protocol into [`StreamIngest`].

use crate::stream::{StreamIngest, HH_CLIENT_LABEL, ORACLE_CLIENT_LABEL};
use hh_core::traits::HeavyHitterProtocol;
use hh_freq::traits::FrequencyOracle;
use hh_freq::wire::{FrameError, WireError, WireFrames, WireShard};
use hh_math::par::FinishScratch;
use std::any::Any;

/// A type-erased live shard: the concrete `Shard` of whichever protocol
/// produced it, boxed. Only that protocol's [`Erased`] wrapper can look
/// inside; every other component moves it around opaquely (exactly what
/// a collector does with a partial aggregate).
pub struct DynShard(Box<dyn Any + Send>);

impl DynShard {
    fn new<S: Any + Send>(shard: S) -> Self {
        DynShard(Box::new(shard))
    }

    fn downcast<S: Any>(self, ctx: &str) -> S {
        *self.0.downcast::<S>().unwrap_or_else(|_| {
            panic!(
                "{ctx}: shard is not a {} — it was produced by a different protocol",
                std::any::type_name::<S>()
            )
        })
    }

    fn downcast_mut<S: Any>(&mut self, ctx: &str) -> &mut S {
        self.0.downcast_mut::<S>().unwrap_or_else(|| {
            panic!(
                "{ctx}: shard is not a {} — it was produced by a different protocol",
                std::any::type_name::<S>()
            )
        })
    }

    fn downcast_ref<S: Any>(&self, ctx: &str) -> &S {
        self.0.downcast_ref::<S>().unwrap_or_else(|| {
            panic!(
                "{ctx}: shard is not a {} — it was produced by a different protocol",
                std::any::type_name::<S>()
            )
        })
    }
}

/// Object-safe heavy-hitter protocol: the wire-native surface of
/// [`HeavyHitterProtocol`], with reports as encoded frames and shards as
/// [`DynShard`] / snapshot bytes. Obtain one with [`erase_hh`] or from
/// the [`crate::registry`].
pub trait DynHhProtocol: Send + Sync {
    /// Fused respond + encode for a contiguous user range (appends wire
    /// frames to `out`, returns each frame's length).
    fn respond_encode_batch(
        &self,
        start_index: u64,
        xs: &[u64],
        client_seed: u64,
        out: &mut Vec<u8>,
    ) -> Vec<u32>;
    /// An empty partial aggregate.
    fn new_shard(&self) -> DynShard;
    /// Zero-copy: fold borrowed wire frames into `shard`.
    fn absorb_wire(
        &self,
        shard: &mut DynShard,
        start_index: u64,
        frames: &WireFrames<'_>,
    ) -> Result<(), FrameError>;
    /// Combine two partial aggregates.
    fn merge(&self, a: DynShard, b: DynShard) -> DynShard;
    /// Exact byte length of `shard`'s snapshot encoding.
    fn shard_encoded_len(&self, shard: &DynShard) -> usize;
    /// Append `shard`'s snapshot encoding to `out`.
    fn encode_shard_into(&self, shard: &DynShard, out: &mut Vec<u8>);
    /// Decode a snapshot back into a live shard.
    fn decode_shard(&self, bytes: &[u8]) -> Result<DynShard, WireError>;
    /// Fold a partial aggregate into the server state.
    fn finish_shard(&mut self, shard: DynShard);
    /// Run the aggregation/decoding pipeline; the estimated heavy-hitter
    /// list, sorted by `(estimate desc, value asc)`.
    fn finish(&mut self) -> Vec<(u64, f64)>;
    /// [`DynHhProtocol::finish`] with caller-owned scratch (thread plan +
    /// reusable decode buffers); output is bit-for-bit identical to
    /// [`DynHhProtocol::finish`].
    fn finish_with(&mut self, scratch: &mut FinishScratch) -> Vec<(u64, f64)> {
        let _ = scratch;
        self.finish()
    }
    /// Communication per user in bits.
    fn report_bits(&self) -> usize;
    /// Server working-memory estimate in bytes.
    fn memory_bytes(&self) -> usize;
    /// Total per-user privacy budget consumed.
    fn epsilon(&self) -> f64;
    /// The protocol's detection threshold Δ.
    fn detection_threshold(&self) -> f64;
}

/// Object-safe frequency oracle: the wire-native surface of
/// [`FrequencyOracle`] (see [`DynHhProtocol`]). Obtain one with
/// [`erase_oracle`] or from the [`crate::registry`].
pub trait DynOracle: Send + Sync {
    /// Fused respond + encode for a contiguous user range.
    fn respond_encode_batch(
        &self,
        start_index: u64,
        xs: &[u64],
        client_seed: u64,
        out: &mut Vec<u8>,
    ) -> Vec<u32>;
    /// An empty partial aggregate.
    fn new_shard(&self) -> DynShard;
    /// Zero-copy: fold borrowed wire frames into `shard`.
    fn absorb_wire(
        &self,
        shard: &mut DynShard,
        start_index: u64,
        frames: &WireFrames<'_>,
    ) -> Result<(), FrameError>;
    /// Combine two partial aggregates.
    fn merge(&self, a: DynShard, b: DynShard) -> DynShard;
    /// Exact byte length of `shard`'s snapshot encoding.
    fn shard_encoded_len(&self, shard: &DynShard) -> usize;
    /// Append `shard`'s snapshot encoding to `out`.
    fn encode_shard_into(&self, shard: &DynShard, out: &mut Vec<u8>);
    /// Decode a snapshot back into a live shard.
    fn decode_shard(&self, bytes: &[u8]) -> Result<DynShard, WireError>;
    /// Fold a partial aggregate into the server state.
    fn finish_shard(&mut self, shard: DynShard);
    /// Finish ingestion; must be called before [`DynOracle::estimate`].
    fn finalize(&mut self);
    /// [`DynOracle::finalize`] with caller-owned scratch (thread plan +
    /// reusable decode buffers); resulting state is bit-for-bit identical
    /// to [`DynOracle::finalize`].
    fn finalize_with(&mut self, scratch: &mut FinishScratch) {
        let _ = scratch;
        self.finalize();
    }
    /// Estimate `f_S(x)`.
    fn estimate(&self, x: u64) -> f64;
    /// Communication per user in bits.
    fn report_bits(&self) -> usize;
    /// Server working-memory estimate in bytes.
    fn memory_bytes(&self) -> usize;
    /// The per-user privacy parameter the protocol consumes.
    fn epsilon(&self) -> f64;
}

/// Wraps a concrete protocol/oracle into its object-safe dyn trait.
///
/// A newtype rather than a blanket impl so the dyn methods can share
/// the generic traits' names without making calls on concrete types
/// ambiguous.
pub struct Erased<P>(pub P);

impl<P> DynHhProtocol for Erased<P>
where
    P: HeavyHitterProtocol + Send + Sync,
{
    fn respond_encode_batch(
        &self,
        start_index: u64,
        xs: &[u64],
        client_seed: u64,
        out: &mut Vec<u8>,
    ) -> Vec<u32> {
        self.0
            .respond_encode_batch(start_index, xs, client_seed, out)
    }

    fn new_shard(&self) -> DynShard {
        DynShard::new(self.0.new_shard())
    }

    fn absorb_wire(
        &self,
        shard: &mut DynShard,
        start_index: u64,
        frames: &WireFrames<'_>,
    ) -> Result<(), FrameError> {
        self.0
            .absorb_wire(shard.downcast_mut("absorb_wire"), start_index, frames)
    }

    fn merge(&self, a: DynShard, b: DynShard) -> DynShard {
        DynShard::new(self.0.merge(a.downcast("merge"), b.downcast("merge")))
    }

    fn shard_encoded_len(&self, shard: &DynShard) -> usize {
        shard
            .downcast_ref::<P::Shard>("shard_encoded_len")
            .shard_encoded_len()
    }

    fn encode_shard_into(&self, shard: &DynShard, out: &mut Vec<u8>) {
        shard
            .downcast_ref::<P::Shard>("encode_shard_into")
            .encode_shard_into(out);
    }

    fn decode_shard(&self, bytes: &[u8]) -> Result<DynShard, WireError> {
        P::Shard::decode_shard(bytes).map(DynShard::new)
    }

    fn finish_shard(&mut self, shard: DynShard) {
        self.0.finish_shard(shard.downcast("finish_shard"));
    }

    fn finish(&mut self) -> Vec<(u64, f64)> {
        self.0.finish()
    }

    fn finish_with(&mut self, scratch: &mut FinishScratch) -> Vec<(u64, f64)> {
        self.0.finish_with(scratch)
    }

    fn report_bits(&self) -> usize {
        self.0.report_bits()
    }

    fn memory_bytes(&self) -> usize {
        self.0.memory_bytes()
    }

    fn epsilon(&self) -> f64 {
        self.0.epsilon()
    }

    fn detection_threshold(&self) -> f64 {
        self.0.detection_threshold()
    }
}

impl<O> DynOracle for Erased<O>
where
    O: FrequencyOracle + Send + Sync,
{
    fn respond_encode_batch(
        &self,
        start_index: u64,
        xs: &[u64],
        client_seed: u64,
        out: &mut Vec<u8>,
    ) -> Vec<u32> {
        self.0
            .respond_encode_batch(start_index, xs, client_seed, out)
    }

    fn new_shard(&self) -> DynShard {
        DynShard::new(self.0.new_shard())
    }

    fn absorb_wire(
        &self,
        shard: &mut DynShard,
        start_index: u64,
        frames: &WireFrames<'_>,
    ) -> Result<(), FrameError> {
        self.0
            .absorb_wire(shard.downcast_mut("absorb_wire"), start_index, frames)
    }

    fn merge(&self, a: DynShard, b: DynShard) -> DynShard {
        DynShard::new(self.0.merge(a.downcast("merge"), b.downcast("merge")))
    }

    fn shard_encoded_len(&self, shard: &DynShard) -> usize {
        shard
            .downcast_ref::<O::Shard>("shard_encoded_len")
            .shard_encoded_len()
    }

    fn encode_shard_into(&self, shard: &DynShard, out: &mut Vec<u8>) {
        shard
            .downcast_ref::<O::Shard>("encode_shard_into")
            .encode_shard_into(out);
    }

    fn decode_shard(&self, bytes: &[u8]) -> Result<DynShard, WireError> {
        O::Shard::decode_shard(bytes).map(DynShard::new)
    }

    fn finish_shard(&mut self, shard: DynShard) {
        self.0.finish_shard(shard.downcast("finish_shard"));
    }

    fn finalize(&mut self) {
        self.0.finalize();
    }

    fn finalize_with(&mut self, scratch: &mut FinishScratch) {
        self.0.finalize_with(scratch);
    }

    fn estimate(&self, x: u64) -> f64 {
        self.0.estimate(x)
    }

    fn report_bits(&self) -> usize {
        self.0.report_bits()
    }

    fn memory_bytes(&self) -> usize {
        self.0.memory_bytes()
    }

    fn epsilon(&self) -> f64 {
        self.0.epsilon()
    }
}

/// Box a concrete heavy-hitter protocol behind the object-safe trait.
pub fn erase_hh<P>(protocol: P) -> Box<dyn DynHhProtocol>
where
    P: HeavyHitterProtocol + Send + Sync + 'static,
{
    Box::new(Erased(protocol))
}

/// Box a concrete frequency oracle behind the object-safe trait.
pub fn erase_oracle<O>(oracle: O) -> Box<dyn DynOracle>
where
    O: FrequencyOracle + Send + Sync + 'static,
{
    Box::new(Erased(oracle))
}

/// [`StreamIngest`] over a borrowed heavy-hitter protocol: what the
/// batched drivers and the collector runtime drive it through.
pub struct DynHhStream<'a>(pub &'a dyn DynHhProtocol);

impl StreamIngest for DynHhStream<'_> {
    const CLIENT_LABEL: u64 = HH_CLIENT_LABEL;

    fn respond_encode_batch(
        &self,
        start_index: u64,
        xs: &[u64],
        client_seed: u64,
        out: &mut Vec<u8>,
    ) -> Vec<u32> {
        self.0
            .respond_encode_batch(start_index, xs, client_seed, out)
    }

    fn new_shard(&self) -> DynShard {
        self.0.new_shard()
    }

    fn absorb_wire(
        &self,
        shard: &mut DynShard,
        start_index: u64,
        frames: &WireFrames<'_>,
    ) -> Result<(), FrameError> {
        self.0.absorb_wire(shard, start_index, frames)
    }

    fn merge(&self, a: DynShard, b: DynShard) -> DynShard {
        self.0.merge(a, b)
    }

    fn shard_encoded_len(&self, shard: &DynShard) -> usize {
        self.0.shard_encoded_len(shard)
    }

    fn encode_shard_into(&self, shard: &DynShard, out: &mut Vec<u8>) {
        self.0.encode_shard_into(shard, out);
    }

    fn decode_shard(&self, bytes: &[u8]) -> Result<DynShard, WireError> {
        self.0.decode_shard(bytes)
    }
}

/// [`StreamIngest`] over a borrowed frequency oracle (see
/// [`DynHhStream`]).
pub struct DynOracleStream<'a>(pub &'a dyn DynOracle);

impl StreamIngest for DynOracleStream<'_> {
    const CLIENT_LABEL: u64 = ORACLE_CLIENT_LABEL;

    fn respond_encode_batch(
        &self,
        start_index: u64,
        xs: &[u64],
        client_seed: u64,
        out: &mut Vec<u8>,
    ) -> Vec<u32> {
        self.0
            .respond_encode_batch(start_index, xs, client_seed, out)
    }

    fn new_shard(&self) -> DynShard {
        self.0.new_shard()
    }

    fn absorb_wire(
        &self,
        shard: &mut DynShard,
        start_index: u64,
        frames: &WireFrames<'_>,
    ) -> Result<(), FrameError> {
        self.0.absorb_wire(shard, start_index, frames)
    }

    fn merge(&self, a: DynShard, b: DynShard) -> DynShard {
        self.0.merge(a, b)
    }

    fn shard_encoded_len(&self, shard: &DynShard) -> usize {
        self.0.shard_encoded_len(shard)
    }

    fn encode_shard_into(&self, shard: &DynShard, out: &mut Vec<u8>) {
        self.0.encode_shard_into(shard, out);
    }

    fn decode_shard(&self, bytes: &[u8]) -> Result<DynShard, WireError> {
        self.0.decode_shard(bytes)
    }
}
