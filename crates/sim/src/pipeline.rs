//! The collector runtime: long-lived collector actors fed by bounded
//! channels, so ingest, absorption and checkpointing overlap.
//!
//! An epoch-at-a-time engine would run respond → barrier → absorb →
//! barrier → checkpoint: collectors idle while clients encode, clients
//! idle while collectors absorb, and everyone idles while snapshots
//! encode — exactly the central coordination the fully distributed
//! local model is supposed to avoid. This runtime has no barriers:
//!
//! * every collector is a **long-lived actor thread** owning its shard,
//!   snapshot and spool, fed by a **bounded** command queue
//!   (`std::sync::mpsc::sync_channel`, depth
//!   [`PipelineConfig::queue_depth`]);
//! * the session side encodes wire chunks (on
//!   [`PipelineConfig::workers`] encoder threads) and sends each chunk
//!   to its collector **the moment it is encoded** — collectors absorb
//!   epoch `e`'s chunks while the producers are still encoding the rest
//!   of `e` (or already `e+1`), and cadence checkpoints execute inside
//!   the collector threads while the producers keep going;
//! * a full queue applies **backpressure**: the producer blocks until
//!   the collector drains, and the stall is measured
//!   ([`StreamStats::producer_stall`], with the high-water mark in
//!   [`StreamStats::max_queue_occupancy`]);
//! * a crashed collector recovers by decoding its last snapshot and
//!   replaying only the chunks spooled since; mid-stream queries
//!   (`finish_at_epoch`) answer from the merged durable snapshots
//!   without consuming live shards, so the stream keeps running.
//!
//! # Schedule invariance
//!
//! Every chunk carries its **global sequence number**; chunk `s` routes
//! to collector `s % k`, and each collector holds a small reorder buffer
//! so it absorbs its chunks in increasing sequence order even when
//! concurrent encoder workers finish out of order. All of an epoch's
//! sends happen before the epoch-boundary command sends (checkpoint /
//! kill / recover), and `mpsc` queues are FIFO, so every collector
//! observes the same event sequence at any queue depth and worker
//! count: same chunks, same order, same checkpoint boundaries. Shards,
//! snapshots, recoveries and final output are therefore *bit-for-bit*
//! schedule-invariant and equal to the serial reference run — pinned by
//! the proptest grid in `tests/streaming_equivalence.rs`.
//!
//! # Use
//!
//! The actors borrow the protocol, so the runtime runs inside a scope:
//! [`run_pipelined`] takes the protocol as a [`DynHhStream`] or
//! [`DynOracleStream`] (a typed one wrapped in
//! [`Erased`](crate::erased::Erased)), spawns the fleet, hands a
//! [`PipelineSession`] to your closure (`ingest_epoch`, `checkpoint`,
//! `kill_collector`, `recover_collector`, `finish_at_epoch`), then shuts
//! the fleet down, merges the collector shards and returns the final
//! aggregate with its [`StreamStats`].

use crate::erased::{DynHhProtocol, DynHhStream, DynOracle, DynOracleStream, DynShard};
use crate::stream::{
    absorb_chunk, combine_shards, encode_snapshot, rebuild_shard, CheckpointReport, RecoveryReport,
    Snapshot, StreamIngest, StreamPlan, StreamStats, WireChunk,
};
use hh_math::par::{BufferPool, FinishScratch};
use hh_math::rng::derive_seed;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TrySendError};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Shape of the pipelined runtime: how deep the collector queues are and
/// how many encoder threads feed them. Neither affects output.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Bounded depth (in wire chunks) of each collector's command
    /// queue. A full queue blocks the producer — backpressure instead of
    /// unbounded buffering.
    pub queue_depth: usize,
    /// Encoder threads running the fused `respond_encode_batch` on the
    /// session side. `1` encodes on the session thread itself (no extra
    /// threads, still fully overlapped with the collector actors).
    pub workers: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            queue_depth: 4,
            workers: rayon::current_num_threads().max(1),
        }
    }
}

impl PipelineConfig {
    /// Panic early (with the field named) on degenerate shapes instead
    /// of deadlocking on an unusable channel or encoding nothing.
    pub fn validate(&self) {
        assert!(
            self.queue_depth >= 1,
            "PipelineConfig.queue_depth must be >= 1 (got 0)"
        );
        assert!(
            self.workers >= 1,
            "PipelineConfig.workers must be >= 1 (got 0)"
        );
    }
}

/// One command down a collector's queue, applied in send order.
enum Cmd {
    /// One routed wire chunk. `seq` is the chunk's global sequence
    /// number — the collector absorbs strictly in `seq` order.
    Chunk { seq: u64, chunk: WireChunk },
    /// Snapshot the live shard (no-op while crashed) and truncate the
    /// spool. `epoch` stamps the snapshot; `reply` is `false` for
    /// fire-and-forget cadence checkpoints.
    Checkpoint { epoch: u64, reply: bool },
    /// Crash: drop the live shard. The spool keeps receiving.
    Kill,
    /// Rebuild the live shard from the last snapshot plus the spool.
    Recover,
    /// Copy the latest snapshot's bytes into `buf` (pooled by the
    /// session) for a mid-stream query.
    Query { buf: Vec<u8> },
    /// End of stream: recover if crashed, then hand the live shard and
    /// the actor's accounting back and exit.
    Finish,
}

/// A collector's answer on the session's one reply channel, which lives
/// as long as the fleet: a fresh channel per call would allocate a new
/// waiter list whenever the session has to block on it, which depends on
/// timing.
enum Reply {
    Checkpoint(CollectorCheckpoint),
    Recovered(RecoveryReport),
    Query(QueryReply),
    /// The answer to [`Cmd::Finish`]: the collector's id, live shard and
    /// accounting.
    Done(usize, DynShard, CollectorTotals),
    /// The collector's thread is unwinding from a panic (see
    /// [`DeathNotice`]): the session must not wait for its replies.
    Died(usize),
}

/// Sends [`Reply::Died`] when a collector's thread unwinds, so a session
/// waiting on the shared reply channel panics naming the collector
/// instead of hanging.
struct DeathNotice<'a> {
    id: usize,
    reply_tx: &'a SyncSender<Reply>,
}

impl Drop for DeathNotice<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // The channel has room for every collector's last reply and
            // its notice, so this never blocks.
            let _ = self.reply_tx.try_send(Reply::Died(self.id));
        }
    }
}

/// Reply to [`Cmd::Checkpoint`] when a report was requested.
struct CollectorCheckpoint {
    /// Whether a snapshot was written (`false` while crashed).
    snapshotted: bool,
    /// Size of the written snapshot.
    snapshot_bytes: u64,
}

/// Reply to [`Cmd::Query`].
struct QueryReply {
    collector: usize,
    /// Epoch of the returned snapshot (`None` = never checkpointed; the
    /// buffer comes back unused).
    epoch: Option<u64>,
    buf: Vec<u8>,
}

/// The accounting one collector actor hands back at [`Cmd::Finish`].
#[derive(Default)]
struct CollectorTotals {
    ingest_total: Duration,
    checkpoint_total: Duration,
    snapshot_bytes_last: u64,
    recoveries: u64,
    recovery_total: Duration,
    replayed_reports: u64,
}

/// The state one collector actor owns.
struct CollectorActor<'a, I: StreamIngest> {
    ingest: &'a I,
    id: usize,
    k: usize,
    /// The in-memory partial aggregate; `None` while crashed.
    live: Option<DynShard>,
    snapshot: Option<Snapshot>,
    /// Spooled chunks since the last checkpoint, in sequence order.
    log: Vec<WireChunk>,
    /// Early arrivals from concurrent encoder workers, keyed by global
    /// sequence number, held until their predecessors are absorbed.
    pending: BTreeMap<u64, WireChunk>,
    /// The next global chunk sequence this collector will absorb
    /// (starts at `id`, steps by `k`).
    next_seq: u64,
    epoch: u64,
    pool_tx: Sender<Vec<u8>>,
    totals: CollectorTotals,
}

impl<'a, I: StreamIngest> CollectorActor<'a, I> {
    /// Absorb (if alive) and spool every pending chunk that is next in
    /// sequence order.
    fn drain_in_order(&mut self) {
        while let Some(chunk) = self.pending.remove(&self.next_seq) {
            self.next_seq += self.k as u64;
            if let Some(shard) = self.live.as_mut() {
                let t = Instant::now();
                absorb_chunk(self.ingest, shard, self.id, &chunk);
                self.totals.ingest_total += t.elapsed();
            }
            self.log.push(chunk);
        }
    }

    /// Snapshot the live shard (through the shared
    /// [`encode_snapshot`] sequence, reusing the previous snapshot's
    /// buffer) and truncate the spool — buffers go back to the
    /// session's pool.
    fn checkpoint(&mut self) -> CollectorCheckpoint {
        let Some(shard) = &self.live else {
            return CollectorCheckpoint {
                snapshotted: false,
                snapshot_bytes: 0,
            };
        };
        let t = Instant::now();
        let snap = encode_snapshot(self.ingest, shard, self.snapshot.take(), self.epoch);
        let snapshot_bytes = snap.bytes.len() as u64;
        self.snapshot = Some(snap);
        for chunk in self.log.drain(..) {
            // The session may have gone away on a panic path; losing
            // pooled buffers then is fine.
            let _ = self.pool_tx.send(chunk.into_buffer());
        }
        self.totals.checkpoint_total += t.elapsed();
        self.totals.snapshot_bytes_last = snapshot_bytes;
        CollectorCheckpoint {
            snapshotted: true,
            snapshot_bytes,
        }
    }

    /// Decode the last snapshot and replay the spool (the shared
    /// [`rebuild_shard`] sequence).
    fn recover(&mut self) -> RecoveryReport {
        assert!(
            self.live.is_none(),
            "collector {} is alive — nothing to recover",
            self.id
        );
        let t = Instant::now();
        let (shard, from_epoch, replayed_reports) =
            rebuild_shard(self.ingest, self.id, self.snapshot.as_ref(), &self.log);
        self.live = Some(shard);
        let elapsed = t.elapsed();
        self.totals.recoveries += 1;
        self.totals.recovery_total += elapsed;
        self.totals.replayed_reports += replayed_reports;
        RecoveryReport {
            from_epoch,
            replayed_reports,
            elapsed,
        }
    }
}

/// One collector actor's lifetime: receive commands until [`Cmd::Finish`]
/// (or the session disappears), then hand back the shard and accounting.
fn collector_loop<I: StreamIngest>(
    ingest: &I,
    id: usize,
    k: usize,
    rx: Receiver<Cmd>,
    reply_tx: SyncSender<Reply>,
    pool_tx: Sender<Vec<u8>>,
    occupancy: &AtomicUsize,
) {
    let _notice = DeathNotice {
        id,
        reply_tx: &reply_tx,
    };
    let mut actor = CollectorActor {
        ingest,
        id,
        k,
        live: Some(ingest.new_shard()),
        snapshot: None,
        log: Vec::new(),
        pending: BTreeMap::new(),
        next_seq: id as u64,
        epoch: 0,
        pool_tx,
        totals: CollectorTotals::default(),
    };
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Cmd::Chunk { seq, chunk } => {
                occupancy.fetch_sub(1, Ordering::Relaxed);
                actor.pending.insert(seq, chunk);
                actor.drain_in_order();
            }
            Cmd::Checkpoint { epoch, reply } => {
                debug_assert!(
                    actor.pending.is_empty(),
                    "collector {id}: checkpoint arrived before its epoch's chunks"
                );
                actor.epoch = epoch;
                let report = actor.checkpoint();
                if reply {
                    let _ = reply_tx.send(Reply::Checkpoint(report));
                }
            }
            Cmd::Kill => {
                assert!(actor.live.is_some(), "collector {id} is already dead");
                actor.live = None;
            }
            Cmd::Recover => {
                let _ = reply_tx.send(Reply::Recovered(actor.recover()));
            }
            Cmd::Query { mut buf } => {
                buf.clear();
                let epoch = actor.snapshot.as_ref().map(|snap| {
                    buf.extend_from_slice(&snap.bytes);
                    snap.epoch
                });
                let _ = reply_tx.send(Reply::Query(QueryReply {
                    collector: id,
                    epoch,
                    buf,
                }));
            }
            Cmd::Finish => {
                if actor.live.is_none() {
                    actor.recover();
                }
                let shard = actor.live.take().expect("just recovered");
                reply_tx
                    .send(Reply::Done(id, shard, actor.totals))
                    .expect("session hung up before collecting shards");
                return;
            }
        }
    }
    // Session dropped without Finish (panic unwinding): just exit.
}

/// Send `cmd` to collector `id`. A collector only hangs up by dying (it
/// runs until [`Cmd::Finish`]), so a failed send panics naming it, the
/// same way a [`Reply::Died`] does.
fn send(txs: &[SyncSender<Cmd>], id: usize, cmd: Cmd, during: &str) {
    if txs[id].send(cmd).is_err() {
        panic!("collector {id} died mid-{during}");
    }
}

/// Route one encoded chunk to its collector, counting occupancy and
/// blocking (with the stall measured) when the queue is full.
fn send_chunk(
    txs: &[SyncSender<Cmd>],
    occupancy: &[AtomicUsize],
    max_occupancy: &AtomicUsize,
    stall_nanos: &AtomicU64,
    seq: u64,
    chunk: WireChunk,
) {
    let id = (seq % txs.len() as u64) as usize;
    // Counted before the send so the consumer's decrement can never
    // observe a zero it would wrap below; the high-water mark therefore
    // includes the chunk currently being offered.
    let occ = occupancy[id].fetch_add(1, Ordering::Relaxed) + 1;
    max_occupancy.fetch_max(occ, Ordering::Relaxed);
    match txs[id].try_send(Cmd::Chunk { seq, chunk }) {
        Ok(()) => {}
        Err(TrySendError::Full(cmd)) => {
            let t = Instant::now();
            send(txs, id, cmd, "ingest");
            stall_nanos.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        Err(TrySendError::Disconnected(_)) => panic!("collector {id} died mid-ingest"),
    }
}

/// The driving half of the runtime (see the module docs): every call is
/// a message send into the running collector fleet. Obtained inside
/// [`run_pipelined`].
pub struct PipelineSession<'a, I: StreamIngest> {
    ingest: &'a I,
    plan: StreamPlan,
    config: PipelineConfig,
    client_seed: u64,
    txs: Vec<SyncSender<Cmd>>,
    /// The fleet's replies to every command but chunks and kills.
    replies: Receiver<Reply>,
    pool_rx: Receiver<Vec<u8>>,
    pool: BufferPool,
    /// Pooled reply buffers for snapshot queries, so repeated mid-stream
    /// `finish_at_epoch` calls reuse capacity instead of re-allocating
    /// per snapshot.
    query_bufs: Vec<Vec<u8>>,
    /// Mirror of each collector's crashed/alive state (exact, because
    /// commands are applied in send order).
    alive: Vec<bool>,
    /// Mirror of each collector's latest snapshot epoch, kept the same
    /// way: a checkpoint stamps every collector alive when it is sent.
    snapshot_epochs: Vec<Option<u64>>,
    epoch: u64,
    users: u64,
    next_chunk: u64,
    checkpoints: u64,
    client_total: Duration,
    wire_bytes: u64,
    /// The merged durable view, incrementally folded once per checkpoint
    /// stamp (`checkpoints` count — commands apply in send order, so the
    /// count keys exactly the fleet state a query would observe). Warm
    /// `finish_at_epoch` calls decode this single artifact instead of
    /// round-tripping a snapshot query through every collector actor.
    merged_bytes: Option<(u64, Vec<u8>)>,
    /// Memoized heavy-hitter answer per stamp (HH family only).
    cached_answer: Option<(u64, Vec<(u64, f64)>)>,
    /// Session-owned decode scratch for mid-stream queries.
    scratch: FinishScratch,
    finish_queries: u64,
    finish_total: Duration,
    fold_total: Duration,
    finish_cache_hits: u64,
    occupancy: &'a [AtomicUsize],
    max_occupancy: &'a AtomicUsize,
    stall_nanos: &'a AtomicU64,
}

impl<'a, I: StreamIngest + Sync> PipelineSession<'a, I> {
    /// Epochs ingested so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Users ingested so far.
    pub fn users(&self) -> u64 {
        self.users
    }

    /// Whether a collector currently holds a live shard.
    pub fn is_alive(&self, node: usize) -> bool {
        self.alive[node]
    }

    /// Per-collector epoch of the latest snapshot (`None` = the node has
    /// never checkpointed). Callers of [`PipelineSession::snapshot_shard`]
    /// / `finish_at_epoch` can check this to detect a *ragged* durable
    /// view: while a crashed node sits unrecovered across a checkpoint,
    /// its snapshot stays at an older epoch than its peers'.
    pub fn snapshot_epochs(&self) -> Vec<Option<u64>> {
        self.snapshot_epochs.clone()
    }

    /// Ingest one epoch: encode the next `xs.len()` users' wire chunks
    /// (on [`PipelineConfig::workers`] threads) and stream each chunk to
    /// its collector as soon as it is encoded. Returns once every chunk
    /// is *enqueued* — absorption proceeds concurrently in the collector
    /// actors. Auto-checkpoints on the [`StreamPlan::checkpoint_every`]
    /// cadence (also asynchronously, inside the actors).
    pub fn ingest_epoch(&mut self, xs: &[u64]) {
        let chunk_size = self.plan.dist.chunk_size;
        let t0 = Instant::now();
        // Reclaim the buffers collectors freed at their last checkpoints.
        while let Ok(buf) = self.pool_rx.try_recv() {
            self.pool.put(buf);
        }
        let num_chunks = xs.len().div_ceil(chunk_size);
        let workers = self.config.workers.min(num_chunks).max(1);
        let (ingest, client_seed) = (self.ingest, self.client_seed);
        let (start_user, base_seq) = (self.users, self.next_chunk);
        let (txs, occupancy) = (&self.txs, self.occupancy);
        let (max_occupancy, stall_nanos) = (self.max_occupancy, self.stall_nanos);
        // Encode chunk `c` into its pooled buffer and route it; returns
        // its wire bytes. The one chunk body of both encoder shapes.
        let encode_and_send = |c: usize, slice: &[u64], mut bytes: Vec<u8>| -> u64 {
            let start = start_user + (c * chunk_size) as u64;
            debug_assert!(bytes.is_empty(), "pooled buffer not cleared");
            let frame_lens = ingest.respond_encode_batch(start, slice, client_seed, &mut bytes);
            let len = bytes.len() as u64;
            let chunk = WireChunk {
                start,
                bytes,
                frame_lens,
            };
            send_chunk(
                txs,
                occupancy,
                max_occupancy,
                stall_nanos,
                base_seq + c as u64,
                chunk,
            );
            len
        };
        if workers <= 1 {
            for (c, slice) in xs.chunks(chunk_size).enumerate() {
                self.wire_bytes += encode_and_send(c, slice, self.pool.take());
            }
        } else {
            // Concurrent encoders share a claim queue and send each
            // chunk themselves; collectors reorder by sequence number.
            let buffers: Vec<Vec<u8>> = (0..num_chunks).map(|_| self.pool.take()).collect();
            let work = Mutex::new(xs.chunks(chunk_size).zip(buffers).enumerate());
            let wire_bytes = AtomicU64::new(0);
            let (work, wire_total, encode_and_send) = (&work, &wire_bytes, &encode_and_send);
            // Plain scoped OS threads, NOT a rayon pool: encoders block
            // on full collector queues (that's the backpressure), and a
            // blocked task would wedge a fixed work-stealing pool.
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(move || loop {
                        let next = work.lock().expect("encoder panicked").next();
                        let Some((c, (slice, bytes))) = next else {
                            break;
                        };
                        wire_total.fetch_add(encode_and_send(c, slice, bytes), Ordering::Relaxed);
                    });
                }
            });
            self.wire_bytes += wire_bytes.load(Ordering::Relaxed);
        }
        self.next_chunk += num_chunks as u64;
        self.users += xs.len() as u64;
        self.epoch += 1;
        self.client_total += t0.elapsed();
        if self.plan.checkpoint_every > 0
            && self.epoch.is_multiple_of(self.plan.checkpoint_every as u64)
        {
            // Fire-and-forget: the snapshots encode inside the collector
            // actors while the next epoch's encoding proceeds.
            self.send_checkpoint(false);
        }
    }

    /// Ingest a whole dataset in epochs of [`StreamPlan::epoch_size`].
    pub fn ingest_all(&mut self, data: &[u64]) {
        let mut off = 0;
        while off < data.len() {
            let hi = off.saturating_add(self.plan.epoch_size).min(data.len());
            self.ingest_epoch(&data[off..hi]);
            off = hi;
        }
    }

    fn send_checkpoint(&mut self, reply: bool) {
        self.checkpoints += 1;
        for (epoch, &alive) in self.snapshot_epochs.iter_mut().zip(&self.alive) {
            if alive {
                *epoch = Some(self.epoch);
            }
        }
        let epoch = self.epoch;
        for id in 0..self.txs.len() {
            send(
                &self.txs,
                id,
                Cmd::Checkpoint { epoch, reply },
                "checkpoint",
            );
        }
    }

    /// Checkpoint every live collector now and wait for the fleet's
    /// reports (cadence checkpoints don't wait). Crashed collectors are
    /// skipped: their last snapshot stays valid and their spool keeps
    /// growing until recovery.
    pub fn checkpoint(&mut self) -> CheckpointReport {
        let t = Instant::now();
        self.send_checkpoint(true);
        let mut snapshot_bytes = 0u64;
        let mut collectors = 0usize;
        for _ in 0..self.txs.len() {
            let Reply::Checkpoint(report) = self.reply("checkpoint") else {
                unreachable!("a collector answered a checkpoint out of turn")
            };
            if report.snapshotted {
                snapshot_bytes += report.snapshot_bytes;
                collectors += 1;
            }
        }
        CheckpointReport {
            snapshot_bytes,
            collectors,
            elapsed: t.elapsed(),
        }
    }

    /// Crash a collector: its live shard is lost once the command
    /// reaches it (after everything already queued, so at this epoch
    /// boundary). Its spool keeps receiving routed chunks, like a durable
    /// queue with its consumer down.
    pub fn kill_collector(&mut self, node: usize) {
        assert!(self.alive[node], "collector {node} is already dead");
        self.alive[node] = false;
        send(&self.txs, node, Cmd::Kill, "kill");
    }

    /// Recover a crashed collector (snapshot decode + spool replay, in
    /// the actor) and wait for its report. The rebuilt shard is
    /// bit-for-bit the shard an uninterrupted collector would hold.
    pub fn recover_collector(&mut self, node: usize) -> RecoveryReport {
        assert!(
            !self.alive[node],
            "collector {node} is alive — nothing to recover"
        );
        send(&self.txs, node, Cmd::Recover, "recovery");
        let Reply::Recovered(report) = self.reply("recovery") else {
            unreachable!("a collector answered a recovery out of turn")
        };
        self.alive[node] = true;
        report
    }

    /// The fleet's next reply. Panics, naming the collector, when one
    /// died.
    fn reply(&self, during: &str) -> Reply {
        match self.replies.recv() {
            Ok(Reply::Died(id)) => panic!("collector {id} died mid-{during}"),
            Ok(reply) => reply,
            Err(_) => panic!("the collectors hung up mid-{during}"),
        }
    }

    /// The durable mid-stream view: fetch every collector's latest
    /// snapshot (bytes copied into pooled buffers, reused across calls),
    /// decode and merge them in the plan's order. `None` before the
    /// first checkpoint. Live shards are untouched; the fleet keeps
    /// absorbing whatever is still queued while the session decodes.
    ///
    /// When every collector checkpointed at the same boundary (the
    /// normal cadence), this is exactly the aggregate of the users
    /// ingested by then. While a crashed node sits unrecovered across
    /// later checkpoints the view is *ragged* — see
    /// [`PipelineSession::snapshot_epochs`].
    pub fn snapshot_shard(&mut self) -> Option<DynShard> {
        for id in 0..self.txs.len() {
            let buf = self.query_bufs.pop().unwrap_or_default();
            send(&self.txs, id, Cmd::Query { buf }, "query");
        }
        let k = self.txs.len();
        let mut slots: Vec<Option<(u64, Vec<u8>)>> = (0..k).map(|_| None).collect();
        for _ in 0..k {
            let Reply::Query(reply) = self.reply("query") else {
                unreachable!("a collector answered a query out of turn")
            };
            match reply.epoch {
                Some(epoch) => slots[reply.collector] = Some((epoch, reply.buf)),
                None => self.query_bufs.push(reply.buf),
            }
        }
        let mut shards: Vec<DynShard> = Vec::new();
        for (id, slot) in slots.into_iter().enumerate() {
            if let Some((epoch, buf)) = slot {
                shards.push(self.ingest.decode_shard(&buf).unwrap_or_else(|e| {
                    panic!(
                        "collector {id}: snapshot from epoch {epoch} ({} bytes) failed to decode: {e}",
                        buf.len()
                    )
                }));
                self.query_bufs.push(buf);
            }
        }
        if shards.is_empty() {
            return None;
        }
        Some(combine_shards(shards, self.plan.dist.merge, |a, b| {
            self.ingest.merge(a, b)
        }))
    }

    /// [`PipelineSession::snapshot_shard`] through the incremental fold
    /// cache: the first query after a checkpoint pays the fleet-wide
    /// snapshot query, decode, and merge once and re-encodes the merged
    /// aggregate (reusing the previous buffer); subsequent queries at the
    /// same checkpoint count decode that single artifact without touching
    /// the collector actors. Values are bit-for-bit the uncached view's
    /// because the snapshot codec round-trips exactly.
    fn merged_durable_shard(&mut self) -> Option<DynShard> {
        let warm = matches!(&self.merged_bytes, Some((stamp, _)) if *stamp == self.checkpoints);
        if warm {
            self.finish_cache_hits += 1;
            let (_, bytes) = self.merged_bytes.as_ref().expect("warm cache");
            return Some(
                self.ingest
                    .decode_shard(bytes)
                    .expect("merged snapshot re-encoding round-trips"),
            );
        }
        let t = Instant::now();
        let merged = self.snapshot_shard()?;
        let mut bytes = match self.merged_bytes.take() {
            Some((_, mut b)) => {
                b.clear();
                b
            }
            None => Vec::with_capacity(self.ingest.shard_encoded_len(&merged)),
        };
        self.ingest.encode_shard_into(&merged, &mut bytes);
        self.merged_bytes = Some((self.checkpoints, bytes));
        self.fold_total += t.elapsed();
        Some(merged)
    }

    /// Shut the fleet down: every actor recovers if crashed, hands its
    /// shard back, and exits; the shards merge in the plan's order.
    fn finish(self) -> (DynShard, StreamStats) {
        let k = self.txs.len();
        for id in 0..k {
            send(&self.txs, id, Cmd::Finish, "finish");
        }
        let mut shard_slots: Vec<Option<DynShard>> = (0..k).map(|_| None).collect();
        let (scratch_reused, scratch_fresh) = self.scratch.handout_counts();
        let mut stats = StreamStats {
            epochs: self.epoch,
            users: self.users,
            wire_bytes: self.wire_bytes,
            client_total: self.client_total,
            checkpoints: self.checkpoints,
            threads: self.config.workers + k,
            finish_queries: self.finish_queries,
            finish_total: self.finish_total,
            fold_total: self.fold_total,
            finish_cache_hits: self.finish_cache_hits,
            scratch_reused,
            scratch_fresh,
            ..StreamStats::default()
        };
        for _ in 0..k {
            let Reply::Done(id, shard, totals) = self.reply("finish") else {
                unreachable!("a collector answered its finish out of turn")
            };
            shard_slots[id] = Some(shard);
            stats.ingest_total += totals.ingest_total;
            stats.checkpoint_total += totals.checkpoint_total;
            stats.snapshot_bytes_last += totals.snapshot_bytes_last;
            stats.recoveries += totals.recoveries;
            stats.recovery_total += totals.recovery_total;
            stats.replayed_reports += totals.replayed_reports;
        }
        stats.max_queue_occupancy = self.max_occupancy.load(Ordering::Relaxed);
        stats.producer_stall = Duration::from_nanos(self.stall_nanos.load(Ordering::Relaxed));
        let t = Instant::now();
        let shards: Vec<DynShard> = shard_slots
            .into_iter()
            .map(|s| s.expect("every collector reported"))
            .collect();
        let merged = combine_shards(shards, self.plan.dist.merge, |a, b| self.ingest.merge(a, b));
        stats.merge_total = t.elapsed();
        (merged, stats)
    }

    /// The folded durable view a mid-stream query answers from. Panics
    /// when users have been ingested but nothing was checkpointed yet —
    /// an empty answer there would be indistinguishable from a genuinely
    /// empty stream.
    fn query_view(&mut self) -> Option<DynShard> {
        let view = self.merged_durable_shard();
        assert!(
            view.is_some() || self.users == 0,
            "finish_at_epoch with {} users ingested but no checkpoint to answer from — \
             call checkpoint() first (checkpoint_every = 0 never auto-checkpoints)",
            self.users
        );
        view
    }
}

impl PipelineSession<'_, DynHhStream<'_>> {
    /// Answer a top-k query mid-stream from the merged decoded
    /// snapshots, without consuming the live shards. `fresh` must be a
    /// new instance built with the same parameters and public-randomness
    /// seed (for a registry protocol: the same
    /// [`ProtocolSpec`](crate::registry::ProtocolSpec)) as the streamed
    /// protocol.
    ///
    /// Incremental: the first query after a checkpoint folds the durable
    /// view (decode snapshots → merge → finish, through the session's
    /// [`FinishScratch`]) and memoizes the answer; repeated queries at an
    /// unchanged checkpoint count return the memoized list. Answers are
    /// bit-for-bit the from-scratch `finish_shard` + `finish` result.
    ///
    /// Panics when users have been ingested but no collector has
    /// checkpointed yet — call [`PipelineSession::checkpoint`] first (or
    /// set a [`StreamPlan::checkpoint_every`] cadence).
    pub fn finish_at_epoch(&mut self, fresh: &mut dyn DynHhProtocol) -> Vec<(u64, f64)> {
        let t = Instant::now();
        self.finish_queries += 1;
        let answer = match &self.cached_answer {
            Some((stamp, answer)) if *stamp == self.checkpoints => {
                self.finish_cache_hits += 1;
                answer.clone()
            }
            _ => {
                let view = self.query_view();
                let had_snapshot = view.is_some();
                if let Some(shard) = view {
                    fresh.finish_shard(shard);
                }
                let answer = fresh.finish_with(&mut self.scratch);
                if had_snapshot {
                    self.cached_answer = Some((self.checkpoints, answer.clone()));
                }
                answer
            }
        };
        self.finish_total += t.elapsed();
        answer
    }
}

impl PipelineSession<'_, DynOracleStream<'_>> {
    /// Prepare a mid-stream frequency oracle from the merged decoded
    /// snapshots, without consuming the live shards: folds the durable
    /// view into `fresh` and finalizes it through the session's
    /// [`FinishScratch`], so the caller can `estimate`. `fresh` must be a
    /// new instance built like the streamed oracle.
    ///
    /// Incremental: repeated queries at an unchanged checkpoint count
    /// decode the cached merged artifact instead of round-tripping the
    /// collector fleet (the oracle's state lives in `fresh`, so the fold
    /// into it still runs). Panics like the heavy-hitter query when
    /// nothing was checkpointed yet.
    pub fn finish_at_epoch(&mut self, fresh: &mut dyn DynOracle) {
        let t = Instant::now();
        self.finish_queries += 1;
        if let Some(shard) = self.query_view() {
            fresh.finish_shard(shard);
        }
        fresh.finalize_with(&mut self.scratch);
        self.finish_total += t.elapsed();
    }
}

/// Run the collector runtime: spawn `plan.dist.collectors`
/// long-lived collector actors (plus the session's encoder workers),
/// hand a [`PipelineSession`] to `drive`, then shut the fleet down and
/// return the merged final shard, the run's [`StreamStats`], and
/// `drive`'s own result.
///
/// Output is bit-for-bit identical for every queue depth and worker
/// count (see the module docs for why), and equal to the serial
/// reference run over the same users.
pub fn run_pipelined<I, R>(
    ingest: &I,
    plan: &StreamPlan,
    config: &PipelineConfig,
    seed: u64,
    drive: impl FnOnce(&mut PipelineSession<'_, I>) -> R,
) -> (DynShard, StreamStats, R)
where
    I: StreamIngest + Sync,
{
    plan.validate();
    config.validate();
    let k = plan.dist.collectors;
    let occupancy: Vec<AtomicUsize> = (0..k).map(|_| AtomicUsize::new(0)).collect();
    let max_occupancy = AtomicUsize::new(0);
    let stall_nanos = AtomicU64::new(0);
    // Plain scoped OS threads, NOT a rayon pool: a collector actor
    // blocks in `recv` for the lifetime of the stream, and lifetime-long
    // blocking tasks would occupy (and at k >= pool size, wedge) a
    // fixed work-stealing pool.
    std::thread::scope(|s| {
        let (pool_tx, pool_rx) = mpsc::channel();
        // Room for one reply and one death notice per collector.
        let (reply_tx, replies) = mpsc::sync_channel(2 * k);
        let mut txs = Vec::with_capacity(k);
        for (id, occ) in occupancy.iter().enumerate() {
            let (tx, rx) = mpsc::sync_channel(config.queue_depth);
            txs.push(tx);
            let (reply_tx, pool_tx) = (reply_tx.clone(), pool_tx.clone());
            s.spawn(move || collector_loop(ingest, id, k, rx, reply_tx, pool_tx, occ));
        }
        drop(pool_tx);
        drop(reply_tx);
        let mut session = PipelineSession {
            ingest,
            plan: plan.clone(),
            config: config.clone(),
            client_seed: derive_seed(seed, I::CLIENT_LABEL),
            txs,
            replies,
            pool_rx,
            pool: BufferPool::new(),
            query_bufs: Vec::new(),
            alive: vec![true; k],
            snapshot_epochs: vec![None; k],
            epoch: 0,
            users: 0,
            next_chunk: 0,
            checkpoints: 0,
            client_total: Duration::ZERO,
            wire_bytes: 0,
            merged_bytes: None,
            cached_answer: None,
            scratch: FinishScratch::default(),
            finish_queries: 0,
            finish_total: Duration::ZERO,
            fold_total: Duration::ZERO,
            finish_cache_hits: 0,
            occupancy: &occupancy,
            max_occupancy: &max_occupancy,
            stall_nanos: &stall_nanos,
        };
        let out = drive(&mut session);
        let (shard, stats) = session.finish();
        (shard, stats, out)
    })
}

/// Convenience: ingest `data` in [`StreamPlan::epoch_size`] epochs
/// through the runtime and return the merged final shard and stats.
pub fn run_pipelined_all<I>(
    ingest: &I,
    plan: &StreamPlan,
    config: &PipelineConfig,
    seed: u64,
    data: &[u64],
) -> (DynShard, StreamStats)
where
    I: StreamIngest + Sync,
{
    let (shard, stats, ()) = run_pipelined(ingest, plan, config, seed, |session| {
        session.ingest_all(data);
    });
    (shard, stats)
}
