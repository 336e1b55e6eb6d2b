//! Protocol execution with the Table 1 resource accounting: a serial
//! reference driver and a collector-fleet driver, whose one-shot run on
//! a fleet sized to the machine is the batched driver — all with
//! identical output and one run record per family: [`ProtocolRun`] for
//! heavy hitters, [`OracleRun`] for frequency oracles.
//!
//! # The reproducibility contract
//!
//! Every driver gives user `i` the client coin stream
//! [`client_rng`]`(client_seed, i)` where `client_seed` is derived from
//! the run seed. A user's report is therefore a pure function of
//! `(seed, i, x)`: the serial runner, the batched runner at *any* chunk
//! size and thread count, and the distributed runner at *any* collector
//! count and merge order produce bit-for-bit identical reports — and,
//! because every protocol aggregates through order-exact integer
//! shards, bit-for-bit identical `finish()` output. The
//! `batch_equivalence` and `distributed_merge` integration tests pin
//! this down protocol by protocol.
//!
//! # The collector fleet
//!
//! [`run_heavy_hitter_distributed`] simulates a collector fleet. It is
//! a thin wrapper over the collector runtime
//! ([`run_pipelined`]) run as a single epoch:
//!
//! 1. **respond + encode** — the population is partitioned into chunks
//!    of [`DistPlan::chunk_size`]; encoder workers run the fused
//!    `respond_encode_batch`, sampling each user's report straight into
//!    its [`WireReport`] encoding (the client's message as it would
//!    leave the device — no intermediate `Report` vec), and send each
//!    chunk to its collector; total wire bytes are accounted;
//! 2. **collect** — chunk `c`'s bytes are routed to collector
//!    `c % collectors`; each collector actor folds its chunks' borrowed
//!    wire frames straight into its own shard while the rest are still
//!    being encoded (`absorb_wire` — collectors share nothing, and no
//!    `Report` values are ever materialized);
//! 3. **merge** — the collector shards are combined in the order given
//!    by [`MergeOrder`] (tree-wise by default) and folded into the
//!    server;
//! 4. **finish** — the scratch-threaded parallel decode
//!    ([`finish_with`](hh_core::traits::HeavyHitterProtocol::finish_with)),
//!    honoring the plan's thread policy; the serial drivers force the
//!    serial path (`FinishScratch::serial`). Thread count never changes
//!    output.
//!
//! The batched drivers ([`run_heavy_hitter_batched`],
//! [`run_oracle_batched`]) are this run on the fleet
//! [`BatchPlan::fleet`] derives: one collector per worker thread the
//! input gets, tree merge. Open-ended, multi-epoch ingestion — with
//! durable shard snapshots, crash recovery and mid-stream queries —
//! runs on the same runtime ([`crate::pipeline`]), so there is one
//! ingest path.
//!
//! # The serial reference
//!
//! The serial drivers run one user at a time on one collector. The
//! typed ones ([`run_heavy_hitter`], [`run_oracle`]) run scalar
//! `respond` + `collect`, the ground truth; the `dyn` ones
//! ([`run_dyn_heavy_hitter`], [`run_dyn_oracle`]) run the fused wire
//! path, through the same [`DynHhStream`] / [`DynOracleStream`]
//! adapter as the fleet. Every driver fills the same record, wire bytes
//! included. The fleet drivers take a `&mut dyn` [`DynHhProtocol`] /
//! [`DynOracle`]; a typed protocol runs on them wrapped in [`Erased`]:
//! `run_heavy_hitter_batched(&mut Erased(server), ..)`.

#[cfg(doc)]
use crate::erased::Erased;
use crate::erased::{DynHhProtocol, DynHhStream, DynOracle, DynOracleStream, DynShard};
use crate::pipeline::{run_pipelined, PipelineConfig};
use crate::stream::{StreamIngest, StreamPlan, StreamStats};
use crate::stream::{HH_CLIENT_LABEL, ORACLE_CLIENT_LABEL};
use hh_core::traits::HeavyHitterProtocol;
use hh_freq::traits::{Aggregator, FrequencyOracle};
use hh_freq::wire::{WireFrames, WireReport};
use hh_math::par::{planned_threads, FinishScratch};
use hh_math::rng::{client_rng, derive_seed};
use std::time::{Duration, Instant};

/// Execution shape of the batched drivers.
#[derive(Debug, Clone)]
pub struct BatchPlan {
    /// Users per chunk in the respond phase. Does not affect output.
    pub chunk_size: usize,
    /// Worker threads (`0` = available hardware parallelism). Does not
    /// affect output.
    pub threads: usize,
}

impl Default for BatchPlan {
    fn default() -> Self {
        Self {
            chunk_size: 1 << 15,
            threads: 0,
        }
    }
}

impl BatchPlan {
    /// A plan with an explicit chunk size, auto thread count.
    pub fn with_chunk_size(chunk_size: usize) -> Self {
        Self {
            chunk_size,
            ..Self::default()
        }
    }

    /// Panic early (with the field named) on degenerate shapes instead
    /// of failing downstream in chunk division.
    pub fn validate(&self) {
        assert!(
            self.chunk_size >= 1,
            "BatchPlan.chunk_size must be >= 1 (got 0)"
        );
    }

    /// The collector fleet a batched run of `n` users executes on: one
    /// collector per worker thread the input gets (as many as its chunks,
    /// at most the plan's thread policy), the plan's chunk size and
    /// thread policy, and a tree merge.
    pub fn fleet(&self, n: usize) -> DistPlan {
        self.validate();
        DistPlan {
            collectors: planned_threads(self.threads, n, self.chunk_size),
            chunk_size: self.chunk_size,
            threads: self.threads,
            merge: MergeOrder::Tree,
        }
    }
}

/// The order in which collector shards are combined. Every order yields
/// bit-for-bit identical output (`merge` is observationally associative
/// and commutative) — the drivers expose the choice so tests can prove
/// it and benches can measure the tree's latency advantage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeOrder {
    /// Pairwise rounds: `(s0+s1) + (s2+s3) + …` — `log2(k)` merge depth,
    /// what a collector fleet would do.
    Tree,
    /// Left fold: `((s0+s1)+s2)+…`.
    Sequential,
    /// Left fold over the shards in reverse arrival order
    /// (`((s_k+s_{k-1})+…)+s0`) — exercises commutativity.
    ReverseSequential,
}

/// Execution shape of the distributed drivers.
#[derive(Debug, Clone)]
pub struct DistPlan {
    /// Number of simulated collector nodes. Does not affect output.
    pub collectors: usize,
    /// Users per chunk in the respond phase (one chunk = one "RPC" of
    /// framed reports to a collector). Does not affect output.
    pub chunk_size: usize,
    /// Worker threads (`0` = available hardware parallelism). Does not
    /// affect output.
    pub threads: usize,
    /// Shard combination order. Does not affect output.
    pub merge: MergeOrder,
}

impl Default for DistPlan {
    fn default() -> Self {
        Self {
            collectors: 8,
            chunk_size: 1 << 15,
            threads: 0,
            merge: MergeOrder::Tree,
        }
    }
}

impl DistPlan {
    /// A plan with an explicit collector count, defaults elsewhere.
    pub fn with_collectors(collectors: usize) -> Self {
        Self {
            collectors,
            ..Self::default()
        }
    }

    /// Panic early (with the field named) on degenerate shapes instead
    /// of failing downstream in chunk division or empty shard merges.
    pub fn validate(&self) {
        assert!(
            self.collectors >= 1,
            "DistPlan.collectors must be >= 1 (got 0)"
        );
        assert!(
            self.chunk_size >= 1,
            "DistPlan.chunk_size must be >= 1 (got 0)"
        );
    }
}

/// Measured resources of one heavy-hitter protocol run, by any driver.
#[derive(Debug, Clone)]
pub struct ProtocolRun {
    /// The output list `Est` — bit-for-bit the same from every driver.
    pub estimates: Vec<(u64, f64)>,
    /// Number of users simulated.
    pub n: usize,
    /// Collector nodes the reports went to: 1 for the serial drivers.
    pub collectors: usize,
    /// Total bytes all reports occupied on the wire: the fused frames
    /// the `dyn` and fleet drivers write, the summed `encoded_len()` of
    /// the typed serial driver's reports.
    pub wire_bytes: u64,
    /// Client-side time. Serial drivers: summed per-user `respond` time
    /// (Table 1 "User time" is this divided by `n`). Fleet drivers:
    /// wall-clock time of the session's encode + enqueue phase,
    /// including time blocked on full collector queues (backpressure).
    pub client_total: Duration,
    /// Server-side ingestion time. Serial drivers: summed per-user
    /// collect. Fleet drivers: the collectors' summed decode + absorb
    /// busy time.
    pub server_ingest: Duration,
    /// Time to combine the collector shards and fold them into the
    /// server (zero for the typed serial driver, whose `collect` writes
    /// into the server itself).
    pub server_merge: Duration,
    /// Server-side aggregation/decoding time (finish).
    pub server_finish: Duration,
    /// Threads the run used: 1 for the serial drivers; encoder workers
    /// plus collector actors for the fleet drivers.
    pub threads: usize,
    /// Per-user communication claim in bits.
    pub report_bits: usize,
    /// Server working memory in bytes.
    pub memory_bytes: usize,
    /// The protocol's detection threshold Δ.
    pub detection_threshold: f64,
    /// Wall-clock time of the whole run, from driver entry to return.
    /// Not the sum of the phase times: the fleet's ingest overlaps its
    /// client phase and is summed over collector threads.
    pub wall: Duration,
}

impl ProtocolRun {
    /// Mean per-user client time (serial drivers) / mean wall-clock cost
    /// per user of the encode phase (fleet drivers).
    pub fn user_time(&self) -> Duration {
        self.client_total / self.n.max(1) as u32
    }

    /// Total server time (ingest + merge + finish).
    pub fn server_time(&self) -> Duration {
        self.server_ingest + self.server_merge + self.server_finish
    }

    /// Mean measured wire bytes per user.
    pub fn wire_bytes_per_user(&self) -> f64 {
        self.wire_bytes as f64 / self.n.max(1) as f64
    }
}

/// Measured resources of one frequency-oracle run, by any driver.
#[derive(Debug, Clone)]
pub struct OracleRun {
    /// Estimates for the queried elements, in query order — bit-for-bit
    /// the same from every driver.
    pub answers: Vec<f64>,
    /// Number of users simulated.
    pub n: usize,
    /// Collector nodes the reports went to, as in
    /// [`ProtocolRun::collectors`].
    pub collectors: usize,
    /// Total bytes all reports occupied on the wire, as in
    /// [`ProtocolRun::wire_bytes`].
    pub wire_bytes: u64,
    /// Client-side time (summed serial / wall-clock fleet, as in
    /// [`ProtocolRun::client_total`]).
    pub client_total: Duration,
    /// Server ingestion + merge + finalization time.
    pub server_build: Duration,
    /// Total query time.
    pub query_total: Duration,
    /// Threads the run used, as in [`ProtocolRun::threads`].
    pub threads: usize,
    /// Per-user communication claim in bits.
    pub report_bits: usize,
    /// Server memory bytes.
    pub memory_bytes: usize,
}

impl OracleRun {
    /// Mean measured wire bytes per user.
    pub fn wire_bytes_per_user(&self) -> f64 {
        self.wire_bytes as f64 / self.n.max(1) as f64
    }
}

/// The typed serial loop of both families: scalar `respond` + `collect`
/// one user at a time on the coin stream of `label`. Returns the summed
/// client and collect times and the reports' wire bytes (their
/// `encoded_len()`, added outside the timers).
fn serial_collect<A: Aggregator>(
    server: &mut A,
    label: u64,
    data: &[u64],
    seed: u64,
) -> (Duration, Duration, u64) {
    let client_seed = derive_seed(seed, label);
    let (mut client_total, mut server_ingest, mut wire_bytes) = (Duration::ZERO, Duration::ZERO, 0);
    for (i, &x) in data.iter().enumerate() {
        let t0 = Instant::now();
        let mut rng = client_rng(client_seed, i as u64);
        let report = server.respond(i as u64, x, &mut rng);
        client_total += t0.elapsed();
        wire_bytes += report.encoded_len() as u64;
        let t1 = Instant::now();
        server.collect(i as u64, report);
        server_ingest += t1.elapsed();
    }
    (client_total, server_ingest, wire_bytes)
}

/// The `dyn` serial loop of both families: the fused
/// `respond_encode_batch` + `absorb_wire` one user at a time, on the
/// coin stream of [`StreamIngest::CLIENT_LABEL`]. Returns the ingested
/// shard, the summed client and absorb times and the bytes written.
fn serial_wire<I: StreamIngest>(
    ingest: &I,
    data: &[u64],
    seed: u64,
) -> (DynShard, Duration, Duration, u64) {
    let client_seed = derive_seed(seed, I::CLIENT_LABEL);
    let (mut client_total, mut server_ingest, mut wire_bytes) = (Duration::ZERO, Duration::ZERO, 0);
    let mut shard = ingest.new_shard();
    let mut buf: Vec<u8> = Vec::new();
    for (i, &x) in data.iter().enumerate() {
        let t0 = Instant::now();
        buf.clear();
        let lens =
            ingest.respond_encode_batch(i as u64, std::slice::from_ref(&x), client_seed, &mut buf);
        client_total += t0.elapsed();
        let t1 = Instant::now();
        let frames = WireFrames::new(&buf, &lens)
            .unwrap_or_else(|e| panic!("user {i}: misframed report: {e}"));
        ingest
            .absorb_wire(&mut shard, i as u64, &frames)
            .unwrap_or_else(|e| panic!("user {i}: {e}"));
        server_ingest += t1.elapsed();
        wire_bytes += buf.len() as u64;
    }
    (shard, client_total, server_ingest, wire_bytes)
}

/// The shared collector-fleet ingest of both families: a single-epoch,
/// checkpoint-free run of the collector runtime, with as many encoder
/// workers as the plan's thread policy gives this input.
fn fleet_ingest<I: StreamIngest + Sync>(
    ingest: &I,
    data: &[u64],
    seed: u64,
    plan: &DistPlan,
) -> (DynShard, StreamStats) {
    let stream = StreamPlan {
        epoch_size: usize::MAX,
        checkpoint_every: 0,
        dist: plan.clone(),
    };
    let config = PipelineConfig {
        workers: planned_threads(plan.threads, data.len(), plan.chunk_size),
        ..PipelineConfig::default()
    };
    let (shard, stats, ()) = run_pipelined(ingest, &stream, &config, seed, |session| {
        session.ingest_all(data)
    });
    (shard, stats)
}

/// Run a heavy-hitter protocol over a dataset serially, timing each phase.
///
/// User `i` draws her coins from the stream `(seed, i)` (see the module
/// docs), so runs are exactly reproducible, each user's coins are
/// independent, and the output is identical to
/// [`run_heavy_hitter_batched`].
pub fn run_heavy_hitter<P: HeavyHitterProtocol>(
    server: &mut P,
    data: &[u64],
    seed: u64,
) -> ProtocolRun {
    let start = Instant::now();
    let (client_total, server_ingest, wire_bytes) =
        serial_collect(server, HH_CLIENT_LABEL, data, seed);
    let t2 = Instant::now();
    // Forced-serial decode: this driver is the timing reference the
    // batched/distributed speedups are measured against.
    let estimates = server.finish_with(&mut FinishScratch::serial());
    let server_finish = t2.elapsed();
    ProtocolRun {
        estimates,
        n: data.len(),
        collectors: 1,
        wire_bytes,
        client_total,
        server_ingest,
        server_merge: Duration::ZERO,
        server_finish,
        threads: 1,
        report_bits: server.report_bits(),
        memory_bytes: server.memory_bytes(),
        detection_threshold: server.detection_threshold(),
        wall: start.elapsed(),
    }
}

/// Run a type-erased heavy-hitter protocol serially — the dyn twin of
/// [`run_heavy_hitter`], used by registry-dispatched binaries.
///
/// Reports are produced and ingested through the wire-native surface
/// (per-user `respond_encode_batch` / `absorb_wire`) into one shard,
/// folded in once, so the coins — and therefore the estimates — are
/// bit-for-bit the typed serial run's.
pub fn run_dyn_heavy_hitter(
    server: &mut dyn DynHhProtocol,
    data: &[u64],
    seed: u64,
) -> ProtocolRun {
    let start = Instant::now();
    let (shard, client_total, server_ingest, wire_bytes) =
        serial_wire(&DynHhStream(&*server), data, seed);
    let t1 = Instant::now();
    server.finish_shard(shard);
    let server_merge = t1.elapsed();
    let t2 = Instant::now();
    // Forced-serial decode, like the typed serial reference.
    let estimates = server.finish_with(&mut FinishScratch::serial());
    let server_finish = t2.elapsed();
    ProtocolRun {
        estimates,
        n: data.len(),
        collectors: 1,
        wire_bytes,
        client_total,
        server_ingest,
        server_merge,
        server_finish,
        threads: 1,
        report_bits: server.report_bits(),
        memory_bytes: server.memory_bytes(),
        detection_threshold: server.detection_threshold(),
        wall: start.elapsed(),
    }
}

/// Run a heavy-hitter protocol as one batch: a one-shot run of
/// [`run_heavy_hitter_distributed`] on the fleet [`BatchPlan::fleet`]
/// derives for this input.
///
/// A typed protocol runs wrapped in [`Erased`]. Output is bit-for-bit
/// identical to [`run_heavy_hitter`] with the same `seed`, for every
/// `plan` (chunk size and thread count only change the schedule, never
/// the result).
pub fn run_heavy_hitter_batched(
    server: &mut dyn DynHhProtocol,
    data: &[u64],
    seed: u64,
    plan: &BatchPlan,
) -> ProtocolRun {
    run_heavy_hitter_distributed(server, data, seed, &plan.fleet(data.len()))
}

/// Run a heavy-hitter protocol across a simulated collector fleet — a
/// single-epoch run of the collector runtime ([`crate::pipeline`]).
///
/// Every report crosses a real serialization boundary (its
/// [`WireReport`] encoding) on the way to its collector; collectors
/// build independent shards which are merged and finished centrally.
/// Output is bit-for-bit identical to [`run_heavy_hitter`] with the
/// same `seed`, for every `plan` — collector count, chunk size, thread
/// count and merge order only change the schedule, never the result
/// (pinned by the `distributed_merge` integration tests). A typed
/// protocol runs wrapped in [`Erased`], as for
/// [`run_heavy_hitter_batched`].
pub fn run_heavy_hitter_distributed(
    server: &mut dyn DynHhProtocol,
    data: &[u64],
    seed: u64,
    plan: &DistPlan,
) -> ProtocolRun {
    let start = Instant::now();
    plan.validate();
    let (merged, stats) = fleet_ingest(&DynHhStream(&*server), data, seed, plan);

    // Fold the fleet's merged shard into the server.
    let t2 = Instant::now();
    server.finish_shard(merged);
    let server_merge = stats.merge_total + t2.elapsed();

    // Central aggregation/decoding, at the fleet plan's thread policy.
    let t3 = Instant::now();
    let estimates = server.finish_with(&mut FinishScratch::with_threads(plan.threads));
    let server_finish = t3.elapsed();

    ProtocolRun {
        estimates,
        n: data.len(),
        collectors: plan.collectors,
        wire_bytes: stats.wire_bytes,
        client_total: stats.client_total,
        server_ingest: stats.ingest_total,
        server_merge,
        server_finish,
        threads: stats.threads,
        report_bits: server.report_bits(),
        memory_bytes: server.memory_bytes(),
        detection_threshold: server.detection_threshold(),
        wall: start.elapsed(),
    }
}

/// Run a frequency oracle over a dataset and a query set, serially.
pub fn run_oracle<O: FrequencyOracle>(
    oracle: &mut O,
    data: &[u64],
    queries: &[u64],
    seed: u64,
) -> OracleRun {
    let (client_total, server_ingest, wire_bytes) =
        serial_collect(oracle, ORACLE_CLIENT_LABEL, data, seed);
    let t2 = Instant::now();
    // Forced-serial finalize: the serial timing reference.
    oracle.finalize_with(&mut FinishScratch::serial());
    let server_build = server_ingest + t2.elapsed();
    let t3 = Instant::now();
    let answers = queries.iter().map(|&q| oracle.estimate(q)).collect();
    let query_total = t3.elapsed();
    OracleRun {
        answers,
        n: data.len(),
        collectors: 1,
        wire_bytes,
        client_total,
        server_build,
        query_total,
        threads: 1,
        report_bits: oracle.report_bits(),
        memory_bytes: oracle.memory_bytes(),
    }
}

/// Run a type-erased frequency oracle serially — the dyn twin of
/// [`run_oracle`], on the wire path of [`run_dyn_heavy_hitter`].
pub fn run_dyn_oracle(
    oracle: &mut dyn DynOracle,
    data: &[u64],
    queries: &[u64],
    seed: u64,
) -> OracleRun {
    let (shard, client_total, server_ingest, wire_bytes) =
        serial_wire(&DynOracleStream(&*oracle), data, seed);
    let t2 = Instant::now();
    oracle.finish_shard(shard);
    // Forced-serial finalize, like the typed serial reference.
    oracle.finalize_with(&mut FinishScratch::serial());
    let server_build = server_ingest + t2.elapsed();
    let t3 = Instant::now();
    let answers = queries.iter().map(|&q| oracle.estimate(q)).collect();
    let query_total = t3.elapsed();
    OracleRun {
        answers,
        n: data.len(),
        collectors: 1,
        wire_bytes,
        client_total,
        server_build,
        query_total,
        threads: 1,
        report_bits: oracle.report_bits(),
        memory_bytes: oracle.memory_bytes(),
    }
}

/// Run a frequency oracle as one batch: a one-shot run of
/// [`run_oracle_distributed`] on the fleet [`BatchPlan::fleet`] derives
/// for this input.
///
/// A typed oracle runs wrapped in [`Erased`]. Output is bit-for-bit
/// identical to [`run_oracle`] with the same seed, for every `plan`.
pub fn run_oracle_batched(
    oracle: &mut dyn DynOracle,
    data: &[u64],
    queries: &[u64],
    seed: u64,
    plan: &BatchPlan,
) -> OracleRun {
    run_oracle_distributed(oracle, data, queries, seed, &plan.fleet(data.len()))
}

/// Run a frequency oracle across a simulated collector fleet — the
/// oracle-level analogue of [`run_heavy_hitter_distributed`] (the same
/// single-epoch run of the collector runtime), with the same wire
/// round-trip and merge guarantees: answers are bit-for-bit identical
/// to [`run_oracle`] for every `plan`. A typed oracle runs wrapped in
/// [`Erased`].
pub fn run_oracle_distributed(
    oracle: &mut dyn DynOracle,
    data: &[u64],
    queries: &[u64],
    seed: u64,
    plan: &DistPlan,
) -> OracleRun {
    plan.validate();
    let (merged, stats) = fleet_ingest(&DynOracleStream(&*oracle), data, seed, plan);

    let t1 = Instant::now();
    oracle.finish_shard(merged);
    oracle.finalize_with(&mut FinishScratch::with_threads(plan.threads));
    let server_build = stats.ingest_total + stats.merge_total + t1.elapsed();

    let t2 = Instant::now();
    let answers = queries.iter().map(|&q| oracle.estimate(q)).collect();
    let query_total = t2.elapsed();

    OracleRun {
        answers,
        n: data.len(),
        collectors: plan.collectors,
        wire_bytes: stats.wire_bytes,
        client_total: stats.client_total,
        server_build,
        query_total,
        threads: stats.threads,
        report_bits: oracle.report_bits(),
        memory_bytes: oracle.memory_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::erased::Erased;
    use crate::workload::Workload;
    use hh_core::baselines::scan::{ScanHeavyHitters, ScanParams};
    use hh_freq::hashtogram::{Hashtogram, HashtogramParams};

    #[test]
    fn heavy_hitter_run_accounts_resources() {
        let n = 20_000usize;
        let w = Workload::planted(256, vec![(3, 0.4)]);
        let data = w.generate(n, 1);
        let mut server = ScanHeavyHitters::new(ScanParams::new(n as u64, 256, 2.0, 0.1), 2);
        let run = run_heavy_hitter(&mut server, &data, 3);
        assert_eq!(run.n, n);
        assert!(run.estimates.iter().any(|&(x, _)| x == 3));
        assert!(run.report_bits > 0);
        assert!(run.memory_bytes > 0);
        assert!(run.server_time() > Duration::ZERO);
        assert!(run.user_time() < Duration::from_millis(10));
        assert_eq!(run.threads, 1);
    }

    #[test]
    fn oracle_run_answers_queries() {
        let n = 10_000usize;
        let w = Workload::planted(1 << 16, vec![(42, 0.5)]);
        let data = w.generate(n, 4);
        let mut oracle = Hashtogram::new(HashtogramParams::hashed(n as u64, 1 << 16, 1.0, 0.1), 5);
        let run = run_oracle(&mut oracle, &data, &[42, 77], 6);
        assert_eq!(run.answers.len(), 2);
        assert!(run.answers[0] > 0.3 * n as f64, "answer {}", run.answers[0]);
        assert!(run.answers[1] < 0.2 * n as f64);
    }

    #[test]
    fn runs_are_reproducible() {
        let n = 5_000usize;
        let w = Workload::zipf(1 << 12, 1.2);
        let data = w.generate(n, 7);
        let est1 = {
            let mut s = ScanHeavyHitters::new(ScanParams::new(n as u64, 1 << 12, 2.0, 0.1), 8);
            run_heavy_hitter(&mut s, &data, 9).estimates
        };
        let est2 = {
            let mut s = ScanHeavyHitters::new(ScanParams::new(n as u64, 1 << 12, 2.0, 0.1), 8);
            run_heavy_hitter(&mut s, &data, 9).estimates
        };
        assert_eq!(est1, est2);
    }

    #[test]
    fn batched_matches_serial_exactly() {
        let n = 12_000usize;
        let w = Workload::planted(512, vec![(9, 0.3), (100, 0.2)]);
        let data = w.generate(n, 11);
        let serial = {
            let mut s = ScanHeavyHitters::new(ScanParams::new(n as u64, 512, 2.0, 0.1), 12);
            run_heavy_hitter(&mut s, &data, 13).estimates
        };
        for chunk_size in [n, n / 2 + 1, n / 8, 777] {
            for threads in [0, 1, 2, 4] {
                let plan = BatchPlan {
                    chunk_size,
                    threads,
                };
                let mut s = Erased(ScanHeavyHitters::new(
                    ScanParams::new(n as u64, 512, 2.0, 0.1),
                    12,
                ));
                let run = run_heavy_hitter_batched(&mut s, &data, 13, &plan);
                assert_eq!(
                    run.estimates, serial,
                    "chunk_size {chunk_size}, threads {threads}"
                );
            }
        }
    }

    #[test]
    fn batched_oracle_matches_serial_exactly() {
        let n = 9_000usize;
        let w = Workload::zipf(1 << 14, 1.3);
        let data = w.generate(n, 17);
        let queries = [0u64, 1, 5, 1000];
        let params = || HashtogramParams::hashed(n as u64, 1 << 14, 1.0, 0.1);
        let serial = {
            let mut o = Hashtogram::new(params(), 18);
            run_oracle(&mut o, &data, &queries, 19).answers
        };
        for chunk_size in [n, 1 << 10, 333] {
            let mut o = Erased(Hashtogram::new(params(), 18));
            let run = run_oracle_batched(
                &mut o,
                &data,
                &queries,
                19,
                &BatchPlan::with_chunk_size(chunk_size),
            );
            assert_eq!(run.answers, serial, "chunk_size {chunk_size}");
        }
    }

    #[test]
    fn fleet_has_one_collector_per_worker_thread() {
        let plan = BatchPlan {
            chunk_size: 100,
            threads: 8,
        };
        assert_eq!(plan.fleet(100).collectors, 1);
        assert_eq!(plan.fleet(250).collectors, 3);
        assert_eq!(plan.fleet(10_000).collectors, 8);
        assert_eq!(plan.fleet(0).collectors, 1);
        let fleet = plan.fleet(10_000);
        assert_eq!((fleet.chunk_size, fleet.threads), (100, 8));
        assert_eq!(fleet.merge, MergeOrder::Tree);
    }

    #[test]
    fn wall_is_the_wall_clock_of_the_call() {
        let n = 20_000usize;
        let data = Workload::zipf(1 << 12, 1.2).generate(n, 21);
        let make = || ScanHeavyHitters::new(ScanParams::new(n as u64, 1 << 12, 2.0, 0.1), 22);
        let t = Instant::now();
        let run = run_heavy_hitter_distributed(
            &mut Erased(make()),
            &data,
            23,
            &DistPlan::with_collectors(8),
        );
        let outer = t.elapsed();
        assert!(run.wall <= outer, "{:?} > {outer:?}", run.wall);
        assert!(run.wall >= run.server_finish);
        let plan = BatchPlan::with_chunk_size(1 << 11);
        let t = Instant::now();
        let run = run_heavy_hitter_batched(&mut Erased(make()), &data, 23, &plan);
        let outer = t.elapsed();
        assert!(run.wall <= outer, "{:?} > {outer:?}", run.wall);
        assert!(run.wall >= run.server_finish);
    }
}
