//! Workload generation and protocol execution — serial and batched —
//! with the paper's Table 1 resource accounting.
//!
//! The paper's Table 1 compares protocols on seven metrics (server/user
//! time, server/user memory, communication, public randomness, error).
//! This crate is the harness that measures them on one machine, at
//! population scale:
//!
//! * [`workload`] generates the distributed inputs (planted heavy
//!   hitters, Zipf skew, the URL-telemetry mixture), and
//!   [`StreamWorkload`] cuts one of them into epochs with jittered
//!   arrival counts;
//! * [`run`] executes a protocol over the population and times each
//!   phase. Three drivers share one reproducibility contract and two
//!   ingest paths, the serial reference and the collector runtime:
//!   - [`run_heavy_hitter`] / [`run_oracle`] — the serial reference
//!     path, one user at a time through scalar `respond` + `collect`
//!     ([`run_dyn_heavy_hitter`] / [`run_dyn_oracle`] are the wire-path
//!     serial runs of a type-erased protocol);
//!   - [`run_heavy_hitter_distributed`] / [`run_oracle_distributed`] —
//!     a simulated collector fleet, a single-epoch run of [`pipeline`]:
//!     every report crosses the wire as a fused-encoded frame, chunks
//!     are routed to one of `k` collector nodes, folded there from
//!     borrowed frames, and the shards are merged (tree-wise by
//!     default) before `finish`. Configured by [`DistPlan`] (collector
//!     count, chunk size, threads, [`MergeOrder`] — none affects
//!     output); also accounts measured wire bytes;
//!   - [`run_heavy_hitter_batched`] / [`run_oracle_batched`] — the same
//!     fleet run, one-shot on the fleet [`BatchPlan::fleet`] derives
//!     from a [`BatchPlan`] (chunk size, thread count — neither affects
//!     output): one collector per worker thread, tree merge.
//!
//!   The batched and distributed drivers take a `&mut dyn`
//!   [`DynHhProtocol`] / [`DynOracle`]; a typed protocol runs on them
//!   wrapped in [`Erased`].
//! * [`pipeline`] is the one streaming engine: reports arrive in
//!   *epochs*, long-lived collector *actor* threads behind bounded
//!   queues absorb chunks, snapshot their shards to bytes at checkpoint
//!   boundaries (the `WireShard` codec) and replay recoveries
//!   concurrently with the client-side encoding, under backpressure; a
//!   killed collector recovers by decoding its last snapshot and
//!   replaying only the spooled reports since, and mid-stream queries
//!   are answered from the merged decoded snapshots without stopping
//!   the stream. Bit-for-bit schedule-invariant (chunk sequence numbers
//!   keep per-collector order exact). Configured by [`StreamPlan`]
//!   (epoch size, checkpoint cadence, the fleet's [`DistPlan`]) and
//!   [`PipelineConfig`] (queue depth, encoder workers) — none affects
//!   output.
//! * [`stream`] holds the vocabulary the engine runs on: the
//!   [`StreamIngest`] protocol surface, the collector snapshot/replay
//!   steps, and [`StreamStats`].
//! * [`erased`] is the object-safe protocol layer and the one protocol
//!   surface of the engine and the fleet drivers above —
//!   [`DynHhProtocol`] / [`DynOracle`] pass reports as wire frames and
//!   shards as opaque [`DynShard`]s or snapshot bytes, [`DynHhStream`] /
//!   [`DynOracleStream`] adapt them into [`StreamIngest`], and
//!   [`Erased`] wraps a typed protocol into them. So protocols chosen
//!   at *runtime* run everywhere; [`registry`] maps stable names to
//!   constructors from one [`ProtocolSpec`].
//! * [`metrics`] summarizes accuracy against ground truth.
//!
//! **Determinism:** user `i`'s client coins are the derived stream
//! `client_rng(client_seed, i)` in every driver, and every protocol
//! aggregates through order-exact integer shards, so for a fixed seed
//! the batched and distributed drivers are bit-for-bit equivalent to
//! the serial one at any chunk size, thread count, collector count and
//! merge order. This is load-bearing for the experiment harness (perf
//! changes can never silently change results) and is pinned by the
//! `batch_equivalence` and `distributed_merge` integration tests at the
//! workspace root.

pub mod erased;
pub mod metrics;
pub mod pipeline;
pub mod registry;
pub mod run;
pub mod stream;
pub mod workload;

pub use erased::{
    erase_hh, erase_oracle, DynHhProtocol, DynHhStream, DynOracle, DynOracleStream, DynShard,
    Erased,
};
pub use metrics::FinishPhase;
pub use pipeline::{run_pipelined, run_pipelined_all, PipelineConfig, PipelineSession};
pub use registry::{build_hh, build_oracle, ProtocolSpec};
/// The batched driver under its former `dyn` name: [`run_heavy_hitter_batched`]
/// takes `&mut dyn DynHhProtocol` directly.
pub use run::run_heavy_hitter_batched as run_dyn_heavy_hitter_batched;
pub use run::{
    run_dyn_heavy_hitter, run_dyn_oracle, run_heavy_hitter, run_heavy_hitter_batched,
    run_heavy_hitter_distributed, run_oracle, run_oracle_batched, run_oracle_distributed,
    BatchPlan, DistPlan, DistributedOracleRun, DistributedRun, MergeOrder, OracleRun, ProtocolRun,
};
pub use stream::{CheckpointReport, RecoveryReport, StreamIngest, StreamPlan, StreamStats};
pub use workload::{StreamWorkload, Workload};
