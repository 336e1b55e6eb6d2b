//! The streaming vocabulary: what the collector runtime in
//! [`crate::pipeline`] ingests through, how it is shaped, and the
//! durable-shard steps every collector runs.
//!
//! Real deployments of local-model heavy hitters ingest reports in
//! *rounds* from an open-ended population, checkpoint aggregator state,
//! and tolerate collector loss. The pieces here are that machine's parts:
//!
//! * [`StreamIngest`] — the wire-native protocol surface (fused
//!   `respond_encode_batch`, zero-copy `absorb_wire`, merge, and the
//!   `WireShard` snapshot codec over [`DynShard`]s), implemented by the
//!   [`DynHhStream`](crate::erased::DynHhStream) /
//!   [`DynOracleStream`](crate::erased::DynOracleStream) adapters over
//!   the dyn traits (a typed protocol joins through
//!   [`Erased`](crate::erased::Erased));
//! * [`StreamPlan`] — epoch size, checkpoint cadence and the collector
//!   fleet's [`DistPlan`] (none of it affects output);
//! * the collector steps — absorb a routed wire chunk, encode a
//!   snapshot (truncating the spool), rebuild a crashed collector from
//!   its last snapshot plus the spooled chunks since, and combine
//!   collector shards in the plan's [`MergeOrder`];
//! * the accounting — [`StreamStats`], [`CheckpointReport`],
//!   [`RecoveryReport`].
//!
//! **Equivalence guarantee:** because user `i`'s coins are a pure
//! function of `(seed, i)`, shards hold exact integer state, and the
//! snapshot codec round-trips bit-for-bit, a stream's final output
//! equals the serial one-shot run over the same population for *every*
//! epoch size, collector count, checkpoint cadence, kill schedule, and
//! merge order (pinned by `tests/streaming_equivalence.rs` and the
//! snapshot/replay proptests in `tests/shard_wire_conformance.rs`). The
//! distributed drivers in [`crate::run`] are single-epoch runs of the
//! same runtime — one ingestion path, not three.

use crate::erased::DynShard;
use crate::run::{DistPlan, MergeOrder};
use hh_freq::wire::{FrameError, WireError, WireFrames};
use hh_math::par::merge_tree;
use std::time::Duration;

/// Seed label for heavy-hitter client coins (one hop off the run seed).
pub(crate) const HH_CLIENT_LABEL: u64 = 0xC11E57;
/// Seed label for frequency-oracle client coins.
pub(crate) const ORACLE_CLIENT_LABEL: u64 = 0x04AC1E;

/// Execution shape of a stream.
#[derive(Debug, Clone)]
pub struct StreamPlan {
    /// Users per epoch for
    /// [`PipelineSession::ingest_all`](crate::pipeline::PipelineSession::ingest_all).
    /// Does not affect output.
    pub epoch_size: usize,
    /// Checkpoint every this many epochs (`0` = only on explicit
    /// [`PipelineSession::checkpoint`](crate::pipeline::PipelineSession::checkpoint)
    /// calls). Does not affect output.
    pub checkpoint_every: usize,
    /// Collector fleet shape (collectors, chunk size, threads, merge
    /// order). None of it affects output.
    pub dist: DistPlan,
}

impl Default for StreamPlan {
    fn default() -> Self {
        Self {
            epoch_size: 1 << 16,
            checkpoint_every: 1,
            dist: DistPlan::default(),
        }
    }
}

impl StreamPlan {
    /// The whole population in one epoch with no checkpoints — the shape
    /// the one-shot distributed drivers run.
    pub fn one_shot(dist: &DistPlan) -> Self {
        Self {
            epoch_size: usize::MAX,
            checkpoint_every: 0,
            dist: dist.clone(),
        }
    }

    /// Panic early (with a named field) on degenerate shapes instead of
    /// failing downstream in chunk division or shard merging.
    pub fn validate(&self) {
        assert!(
            self.epoch_size >= 1,
            "StreamPlan.epoch_size must be >= 1 (got 0)"
        );
        self.dist.validate();
    }
}

/// The protocol surface a stream ingests through: produce a user
/// range's wire frames, build/absorb/merge shards, and run the shard
/// snapshot codec. Implemented by
/// [`DynHhStream`](crate::erased::DynHhStream) and
/// [`DynOracleStream`](crate::erased::DynOracleStream), so one runtime
/// serves both protocol families.
///
/// The surface is *wire-native*: reports only ever appear as encoded
/// frames, live shards as opaque [`DynShard`]s, and durable ones as
/// their snapshot bytes.
pub trait StreamIngest {
    /// Seed-derivation label for this family's client coins — must match
    /// the serial reference driver so streams reproduce one-shot runs.
    const CLIENT_LABEL: u64;

    /// Fused respond + encode: append the wire frames of the contiguous
    /// user range `start_index .. start_index + xs.len()` to `out`,
    /// returning each frame's length.
    fn respond_encode_batch(
        &self,
        start_index: u64,
        xs: &[u64],
        client_seed: u64,
        out: &mut Vec<u8>,
    ) -> Vec<u32>;
    /// An empty partial aggregate.
    fn new_shard(&self) -> DynShard;
    /// Zero-copy: fold a chunk of borrowed wire frames into `shard` —
    /// bit-for-bit equal to decoding every frame and absorbing the
    /// reports.
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
    /// Append `shard`'s snapshot encoding to `out` (the durable artifact
    /// a collector checkpoints).
    fn encode_shard_into(&self, shard: &DynShard, out: &mut Vec<u8>);
    /// Decode a snapshot produced by [`StreamIngest::encode_shard_into`].
    fn decode_shard(&self, bytes: &[u8]) -> Result<DynShard, WireError>;
    /// Encode a shard snapshot into a fresh buffer.
    fn encode_shard(&self, shard: &DynShard) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.shard_encoded_len(shard));
        self.encode_shard_into(shard, &mut out);
        out
    }
}

/// One chunk of reports as owned framed wire bytes: the concatenated
/// encodings (written by the fused `respond_encode_batch` path), each
/// report's frame length, and the user index the chunk starts at. This
/// is both the simulated RPC to a collector and the spool entry
/// replayed on recovery. Byte buffers cycle through the session's pool
/// (pool → respond → spool → checkpoint → pool), so steady-state
/// epochs reuse capacity instead of allocating.
pub(crate) struct WireChunk {
    pub(crate) start: u64,
    pub(crate) bytes: Vec<u8>,
    pub(crate) frame_lens: Vec<u32>,
}

impl WireChunk {
    /// The borrowed frame view collectors absorb from — validated
    /// framing (no trailing garbage, no zero-length frames).
    pub(crate) fn frames(&self) -> Result<WireFrames<'_>, hh_freq::wire::WireError> {
        WireFrames::new(&self.bytes, &self.frame_lens)
    }

    /// Reclaim the chunk's byte buffer for the pool (cleared, capacity
    /// kept).
    pub(crate) fn into_buffer(mut self) -> Vec<u8> {
        self.bytes.clear();
        self.bytes
    }
}

/// Absorb one routed/spooled chunk into a shard through the zero-copy
/// wire path. The simulated wire and spool are lossless, so corruption
/// is a bug, not an operational event — but when it happens, the panic
/// names the collector, the chunk's start user, and (via [`FrameError`])
/// the frame index and byte offset, so a corrupt spool is diagnosable.
pub(crate) fn absorb_chunk<I: StreamIngest>(
    ingest: &I,
    shard: &mut DynShard,
    collector: usize,
    chunk: &WireChunk,
) {
    let frames = chunk.frames().unwrap_or_else(|e| {
        panic!(
            "collector {collector}: chunk starting at user {} is misframed: {e}",
            chunk.start
        )
    });
    ingest
        .absorb_wire(shard, chunk.start, &frames)
        .unwrap_or_else(|e| {
            panic!(
                "collector {collector}: chunk starting at user {} (frame user {}): {e}",
                chunk.start,
                chunk.start + e.frame as u64
            )
        });
}

/// Combine collector shards in the requested order (see [`MergeOrder`]).
pub(crate) fn combine_shards<S>(
    shards: Vec<S>,
    order: MergeOrder,
    mut merge: impl FnMut(S, S) -> S,
) -> S {
    match order {
        MergeOrder::Tree => merge_tree(shards, merge).expect("at least one shard"),
        MergeOrder::Sequential => shards
            .into_iter()
            .reduce(&mut merge)
            .expect("at least one shard"),
        MergeOrder::ReverseSequential => shards
            .into_iter()
            .rev()
            .reduce(merge)
            .expect("at least one shard"),
    }
}

/// A durable checkpoint of one collector's shard.
pub(crate) struct Snapshot {
    /// The `WireShard` encoding — what a real node would fsync.
    pub(crate) bytes: Vec<u8>,
    /// The epoch the snapshot was taken at.
    pub(crate) epoch: u64,
}

/// Encode `shard`'s durable snapshot, reusing the previous snapshot's
/// byte buffer (a checkpoint *replaces* the durable artifact, so
/// steady-state checkpointing allocates nothing once the buffer has
/// grown to the shard's encoded size).
pub(crate) fn encode_snapshot<I: StreamIngest>(
    ingest: &I,
    shard: &DynShard,
    previous: Option<Snapshot>,
    epoch: u64,
) -> Snapshot {
    let mut bytes = match previous {
        Some(old) => {
            let mut b = old.bytes;
            b.clear();
            b
        }
        None => Vec::with_capacity(ingest.shard_encoded_len(shard)),
    };
    ingest.encode_shard_into(shard, &mut bytes);
    Snapshot { bytes, epoch }
}

/// Rebuild a crashed collector's live shard: decode its last snapshot
/// (or start empty if it never checkpointed) and replay the spooled
/// chunks since. Returns the rebuilt shard, the snapshot's epoch, and
/// the number of replayed reports.
pub(crate) fn rebuild_shard<I: StreamIngest>(
    ingest: &I,
    collector: usize,
    snapshot: Option<&Snapshot>,
    log: &[WireChunk],
) -> (DynShard, Option<u64>, u64) {
    let (mut shard, from_epoch) = match snapshot {
        Some(snap) => (
            ingest.decode_shard(&snap.bytes).unwrap_or_else(|e| {
                panic!(
                    "collector {collector}: snapshot from epoch {} ({} bytes) failed to decode: {e}",
                    snap.epoch,
                    snap.bytes.len()
                )
            }),
            Some(snap.epoch),
        ),
        None => (ingest.new_shard(), None),
    };
    let mut replayed_reports = 0u64;
    for chunk in log {
        replayed_reports += chunk.frame_lens.len() as u64;
        absorb_chunk(ingest, &mut shard, collector, chunk);
    }
    (shard, from_epoch, replayed_reports)
}

/// Cumulative resource accounting of one stream.
#[derive(Debug, Clone, Default)]
pub struct StreamStats {
    /// Epochs ingested.
    pub epochs: u64,
    /// Users ingested.
    pub users: u64,
    /// Total bytes all reports occupied on the (simulated) wire.
    pub wire_bytes: u64,
    /// Wall-clock time the session spent in `ingest_epoch`: respond +
    /// encode, plus any time blocked on full collector queues.
    pub client_total: Duration,
    /// The collectors' summed busy time absorbing wire chunks (collector
    /// threads run concurrently, so this can exceed wall-clock time).
    pub ingest_total: Duration,
    /// Checkpoints requested (cadence and explicit).
    pub checkpoints: u64,
    /// The collectors' summed busy time encoding snapshots.
    pub checkpoint_total: Duration,
    /// Total snapshot bytes across collectors at the latest checkpoint.
    pub snapshot_bytes_last: u64,
    /// Recoveries performed (explicit, and at the end of the stream).
    pub recoveries: u64,
    /// The collectors' summed time decoding snapshots and replaying
    /// spools.
    pub recovery_total: Duration,
    /// Reports replayed from spools across all recoveries.
    pub replayed_reports: u64,
    /// Time to combine the collector shards at the end of the stream.
    pub merge_total: Duration,
    /// Threads the runtime ran: encoder workers plus collector actors.
    pub threads: usize,
    /// Backpressure high-water mark: the most wire chunks ever waiting
    /// in one collector's bounded queue.
    pub max_queue_occupancy: usize,
    /// Total time producers spent blocked on full collector queues (the
    /// backpressure cost).
    pub producer_stall: Duration,
    /// Mid-stream `finish_at_epoch` queries answered.
    pub finish_queries: u64,
    /// Total wall-clock time inside `finish_at_epoch` (fold + decode +
    /// estimate sweep + sort).
    pub finish_total: Duration,
    /// Time spent *folding* the durable view into finish state: decoding
    /// collector snapshots, merging them, and (re-)encoding the merged
    /// aggregate. Paid once per checkpoint stamp, not once per query —
    /// the incremental-finalization win.
    pub fold_total: Duration,
    /// `finish_at_epoch` queries answered from incrementally folded
    /// state (a memoized heavy-hitter list or the cached merged durable
    /// view) instead of a from-scratch decode + merge.
    pub finish_cache_hits: u64,
    /// Scratch-pool buffer handouts served by reuse (see
    /// [`hh_math::par::FinishScratch::handout_counts`]).
    pub scratch_reused: u64,
    /// Scratch-pool buffer handouts that had to allocate fresh.
    pub scratch_fresh: u64,
}

/// Outcome of one
/// [`PipelineSession::checkpoint`](crate::pipeline::PipelineSession::checkpoint).
#[derive(Debug, Clone, Copy)]
pub struct CheckpointReport {
    /// Bytes written across all snapshotted collectors.
    pub snapshot_bytes: u64,
    /// Collectors snapshotted (crashed nodes are skipped).
    pub collectors: usize,
    /// Wall-clock time from the request to the fleet's last reply.
    pub elapsed: Duration,
}

/// Outcome of one
/// [`PipelineSession::recover_collector`](crate::pipeline::PipelineSession::recover_collector).
#[derive(Debug, Clone, Copy)]
pub struct RecoveryReport {
    /// The epoch of the snapshot recovery started from (`None` = the
    /// node had never checkpointed; recovery replayed its whole spool).
    pub from_epoch: Option<u64>,
    /// Reports replayed from the spool.
    pub replayed_reports: u64,
    /// Wall-clock decode + replay time.
    pub elapsed: Duration,
}
