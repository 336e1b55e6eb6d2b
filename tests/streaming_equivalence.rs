//! Streaming-vs-serial equivalence: for every heavy-hitter protocol and
//! frequency oracle, the collector runtime — which wire-encodes every
//! report, routes it to one of `k` collector actors, snapshots every
//! collector's shard to bytes at checkpoint boundaries, and recovers
//! killed collectors by decoding their last snapshot and replaying the
//! spooled reports since — must produce final output bit-for-bit
//! identical to the serial one-shot reference run for the same seed, at
//! **any** epoch size, collector count, checkpoint cadence, kill
//! schedule, merge order, queue depth and encoder worker count.
//!
//! This is the acceptance gate of the durable-shard runtime: epochs,
//! snapshots, crashes, replays and scheduling are pure
//! schedule/durability events, never result changes.

use ldp_heavy_hitters::core::baselines::{
    BassilySmithHeavyHitters, Bitstogram, BitstogramParams, BsHhParams, ScanHeavyHitters,
    ScanParams,
};
use ldp_heavy_hitters::freq::bassily_smith::BassilySmithOracle;
use ldp_heavy_hitters::freq::krr::KrrOracle;
use ldp_heavy_hitters::freq::rappor::Rappor;
use ldp_heavy_hitters::prelude::*;
use ldp_heavy_hitters::sim::{HhStream, OracleStream, StreamIngest, StreamPlan, StreamStats};

/// A crash in the schedule: kill `node` after `kill_after` epochs, and
/// (optionally) recover it explicitly after `recover_after` epochs —
/// otherwise it stays dead until the runtime's final recovery sweep.
#[derive(Clone, Copy)]
struct Crash {
    node: usize,
    kill_after: u64,
    recover_after: Option<u64>,
}

/// The stream shapes every protocol/oracle is exercised through: epoch
/// count ~ n/epoch_size, collector counts straddling the chunk count,
/// every merge order, checkpoint cadences including "never", and crash
/// schedules with and without explicit recovery.
fn stream_grid(n: usize) -> Vec<(StreamPlan, Vec<Crash>)> {
    let dist = |collectors: usize, merge: MergeOrder| DistPlan {
        collectors,
        chunk_size: n / 6 + 1,
        threads: 2,
        merge,
    };
    let plan =
        |epoch_size: usize, checkpoint_every: usize, collectors: usize, m: MergeOrder| StreamPlan {
            epoch_size,
            checkpoint_every,
            dist: dist(collectors, m),
        };
    vec![
        // One epoch, one collector: the degenerate serial-like shape.
        (plan(n, 1, 1, MergeOrder::Tree), vec![]),
        // Many ragged epochs, per-epoch checkpoints.
        (plan(n / 5 + 3, 1, 3, MergeOrder::Sequential), vec![]),
        // Checkpoint every 2 epochs; a crash between checkpoints forces
        // a snapshot decode + partial spool replay.
        (
            plan(n / 5 + 3, 2, 3, MergeOrder::Tree),
            vec![Crash {
                node: 1,
                kill_after: 3,
                recover_after: Some(4),
            }],
        ),
        // Never checkpoint; the crash replays the whole spool from an
        // empty shard, and a second node dies until the final sweep.
        (
            plan(n / 4 + 1, 0, 4, MergeOrder::ReverseSequential),
            vec![
                Crash {
                    node: 0,
                    kill_after: 1,
                    recover_after: Some(3),
                },
                Crash {
                    node: 3,
                    kill_after: 2,
                    recover_after: None,
                },
            ],
        ),
        // Tiny epochs (many boundaries), crash recovered right away.
        (
            plan(n / 9 + 1, 1, 2, MergeOrder::Tree),
            vec![Crash {
                node: 0,
                kill_after: 2,
                recover_after: Some(5),
            }],
        ),
    ]
}

/// Stream `input` through the collector runtime in `plan.epoch_size`
/// slices, applying the crash schedule at epoch boundaries; returns the
/// final merged shard and the run's stats.
fn run_stream<I: StreamIngest + Sync>(
    ingest: &I,
    plan: &StreamPlan,
    config: &PipelineConfig,
    seed: u64,
    input: &[u64],
    crashes: &[Crash],
) -> (I::Shard, StreamStats) {
    let (shard, stats, ()) = run_pipelined(ingest, plan, config, seed, |session| {
        for slice in input.chunks(plan.epoch_size) {
            session.ingest_epoch(slice);
            let epoch = session.epoch();
            for crash in crashes {
                if crash.kill_after == epoch && session.is_alive(crash.node) {
                    session.kill_collector(crash.node);
                }
                if crash.recover_after == Some(epoch) && !session.is_alive(crash.node) {
                    session.recover_collector(crash.node);
                }
            }
        }
    });
    (shard, stats)
}

/// A queue depth / encoder worker shape per grid shape, so the grid also
/// walks the runtime's scheduling knobs.
fn grid_config(shape: usize) -> PipelineConfig {
    PipelineConfig {
        queue_depth: 1 + shape % 3,
        workers: 1 + shape % 2,
    }
}

fn assert_stream_equivalent<P, F>(make: F, input: &[u64], seed: u64, protocol: &str)
where
    P: HeavyHitterProtocol + Sync,
    F: Fn() -> P,
{
    let serial = {
        let mut server = make();
        run_heavy_hitter(&mut server, input, seed).estimates
    };
    assert!(
        !serial.is_empty(),
        "{protocol}: serial run found nothing — test is vacuous"
    );
    for (i, (plan, crashes)) in stream_grid(input.len()).into_iter().enumerate() {
        let mut server = make();
        let (shard, stats) = run_stream(
            &HhStream(&server),
            &plan,
            &grid_config(i),
            seed,
            input,
            &crashes,
        );
        server.finish_shard(shard);
        assert_eq!(
            server.finish(),
            serial,
            "{protocol}: stream output diverged at grid shape {i}"
        );
        assert_eq!(stats.users as usize, input.len());
        assert!(stats.wire_bytes > 0, "{protocol}: nothing crossed the wire");
        if !crashes.is_empty() {
            assert!(
                stats.recoveries as usize >= crashes.len(),
                "{protocol}: expected every crash recovered at shape {i}"
            );
        }
    }
}

fn assert_oracle_stream_equivalent<O, F>(
    make: F,
    input: &[u64],
    queries: &[u64],
    seed: u64,
    oracle_name: &str,
) where
    O: FrequencyOracle + Sync,
    F: Fn() -> O,
{
    let serial = {
        let mut oracle = make();
        run_oracle(&mut oracle, input, queries, seed).answers
    };
    for (i, (plan, crashes)) in stream_grid(input.len()).into_iter().enumerate() {
        let mut oracle = make();
        let (shard, _) = run_stream(
            &OracleStream(&oracle),
            &plan,
            &grid_config(i),
            seed,
            input,
            &crashes,
        );
        oracle.finish_shard(shard);
        oracle.finalize();
        let answers: Vec<f64> = queries.iter().map(|&q| oracle.estimate(q)).collect();
        assert_eq!(
            answers, serial,
            "{oracle_name}: answers diverged at grid shape {i}"
        );
    }
}

#[test]
fn expander_sketch_streams_equal_serial() {
    let n = 1usize << 15;
    let input = Workload::planted(1 << 16, vec![(0xBEE, 0.45)]).generate(n, 91);
    let params = SketchParams::optimal(n as u64, 16, 4.0, 0.1);
    assert_stream_equivalent(
        || ExpanderSketch::new(params.clone(), 301),
        &input,
        302,
        "expander_sketch",
    );
}

#[test]
fn bitstogram_streams_equal_serial() {
    let n = 1usize << 15;
    let input = Workload::planted(1 << 16, vec![(0xBEE, 0.45)]).generate(n, 92);
    let mut params = BitstogramParams::optimal(n as u64, 16, 4.0, 0.5);
    params.repetitions = 1; // high-eps single-repetition profile, as in its unit tests
    assert_stream_equivalent(
        || Bitstogram::new(params.clone(), 303),
        &input,
        304,
        "bitstogram",
    );
}

#[test]
fn scan_streams_equal_serial() {
    let n = 1usize << 14;
    let input = Workload::planted(512, vec![(9, 0.3), (100, 0.2)]).generate(n, 93);
    let params = ScanParams::new(n as u64, 512, 4.0, 0.1);
    assert_stream_equivalent(
        || ScanHeavyHitters::new(params.clone(), 305),
        &input,
        306,
        "scan",
    );
}

#[test]
fn bassily_smith_streams_equal_serial() {
    let n = 1usize << 13;
    let input = Workload::planted(1 << 10, vec![(0x321, 0.5)]).generate(n, 94);
    let params = BsHhParams::optimal(n as u64, 1 << 10, 4.0, 0.2);
    assert_stream_equivalent(
        || BassilySmithHeavyHitters::new(params.clone(), 307),
        &input,
        308,
        "bassily_smith",
    );
}

#[test]
fn hashtogram_oracle_streams_equal_serial() {
    let n = 1usize << 14;
    let input = Workload::planted(1 << 16, vec![(0xBEE, 0.25)]).generate(n, 95);
    assert_oracle_stream_equivalent(
        || Hashtogram::new(HashtogramParams::hashed(n as u64, 1 << 16, 1.0, 0.05), 309),
        &input,
        &[0xBEEu64, 7, 60_000],
        310,
        "hashtogram",
    );
}

#[test]
fn bassily_smith_oracle_streams_equal_serial() {
    let n = 1usize << 13;
    let input = Workload::planted(1 << 16, vec![(0x44, 0.3)]).generate(n, 96);
    assert_oracle_stream_equivalent(
        || BassilySmithOracle::new(1 << 16, 1.0, n as u64 / 4, 311),
        &input,
        &[0x44u64, 5],
        312,
        "bassily_smith_oracle",
    );
}

#[test]
fn krr_oracle_streams_equal_serial() {
    let n = 1usize << 13;
    let input: Vec<u64> = Workload::planted(24, vec![(3, 0.4)]).generate(n, 97);
    assert_oracle_stream_equivalent(|| KrrOracle::new(24, 1.0), &input, &[3u64, 9], 313, "krr");
}

#[test]
fn rappor_streams_equal_serial() {
    let n = 1usize << 11;
    let input: Vec<u64> = Workload::planted(100, vec![(42, 0.4)]).generate(n, 98);
    assert_oracle_stream_equivalent(
        || Rappor::new(100, 1.0),
        &input,
        &[42u64, 17],
        314,
        "rappor",
    );
}

/// The fused crash grid: a chunk size far below the epoch (many pooled
/// buffers cycling per epoch), more collectors than chunks in the last
/// ragged epoch, a sparse checkpoint cadence, and the same node crashing
/// twice (the second recovery replays spooled chunks through
/// `absorb_wire` on top of a decoded snapshot). Must match the serial
/// one-shot run under `config`; returns the run's stats.
fn assert_crash_grid_matches_serial(config: &PipelineConfig) -> (StreamPlan, StreamStats) {
    let n = 1usize << 14;
    let input = Workload::planted(512, vec![(9, 0.3), (100, 0.2)]).generate(n, 103);
    let params = ScanParams::new(n as u64, 512, 4.0, 0.1);
    let make = || ScanHeavyHitters::new(params.clone(), 323);
    let seed = 324;
    let serial = {
        let mut s = make();
        run_heavy_hitter(&mut s, &input, seed).estimates
    };
    assert!(!serial.is_empty(), "serial run found nothing — vacuous");

    let plan = StreamPlan {
        epoch_size: n / 7 + 1,
        checkpoint_every: 3,
        dist: DistPlan {
            collectors: 5,
            chunk_size: n / 40 + 1,
            threads: 2,
            merge: MergeOrder::Sequential,
        },
    };
    let crashes = vec![
        Crash {
            node: 2,
            kill_after: 2,
            recover_after: Some(4),
        },
        Crash {
            node: 2,
            kill_after: 5,
            recover_after: Some(6),
        },
        Crash {
            node: 4,
            kill_after: 3,
            recover_after: None,
        },
    ];
    let mut server = make();
    let (shard, stats) = run_stream(&HhStream(&server), &plan, config, seed, &input, &crashes);
    server.finish_shard(shard);
    assert_eq!(server.finish(), serial, "crash grid diverged");
    assert_eq!(stats.users as usize, n);
    assert!(
        stats.recoveries >= 3,
        "expected all three crashes recovered"
    );
    assert!(stats.replayed_reports > 0, "recovery replayed nothing");
    (plan, stats)
}

#[test]
fn fused_ingest_crash_grid_matches_serial() {
    // Depth-1 queues fed by three concurrent encoders: the most
    // backpressure and the most out-of-order chunk arrivals.
    assert_crash_grid_matches_serial(&PipelineConfig {
        queue_depth: 1,
        workers: 3,
    });
}

/// `finish_at_epoch` answers from the merged decoded snapshots without
/// consuming live shards: right after each checkpoint it must equal the
/// serial one-shot run over exactly the ingested prefix — and the stream
/// must keep running unperturbed afterwards. Returns the four mid-stream
/// answers.
fn assert_mid_stream_queries_match_prefix_runs(
    n: usize,
    chunk_size: usize,
    config: PipelineConfig,
) -> Vec<Vec<(u64, f64)>> {
    let epoch_size = n / 4;
    let input = Workload::planted(512, vec![(9, 0.3), (100, 0.2)]).generate(n, 99);
    let params = ScanParams::new(n as u64, 512, 4.0, 0.1);
    let make = || ScanHeavyHitters::new(params.clone(), 315);
    let seed = 316;

    let plan = StreamPlan {
        epoch_size,
        checkpoint_every: 1,
        dist: DistPlan {
            collectors: 3,
            chunk_size,
            threads: 2,
            merge: MergeOrder::Tree,
        },
    };
    let mut server = make();
    let (shard, _, mids) = run_pipelined(&HhStream(&server), &plan, &config, seed, |session| {
        (0..4usize)
            .map(|e| {
                session.ingest_epoch(&input[e * epoch_size..(e + 1) * epoch_size]);
                let mid = session.finish_at_epoch(&mut make());
                let prefix = {
                    let mut s = make();
                    run_heavy_hitter(&mut s, &input[..(e + 1) * epoch_size], seed).estimates
                };
                assert_eq!(mid, prefix, "mid-stream query diverged after epoch {e}");
                mid
            })
            .collect::<Vec<_>>()
    });
    // The mid-stream queries did not perturb the live stream.
    server.finish_shard(shard);
    let serial = {
        let mut s = make();
        run_heavy_hitter(&mut s, &input, seed).estimates
    };
    assert_eq!(server.finish(), serial);
    mids
}

#[test]
fn mid_stream_queries_match_prefix_runs() {
    let mids = assert_mid_stream_queries_match_prefix_runs(
        1 << 14,
        1000,
        PipelineConfig {
            queue_depth: 1,
            workers: 2,
        },
    );
    assert!(
        mids[1..].iter().all(|mid| !mid.is_empty()),
        "vacuous mid-stream query"
    );
}

#[test]
fn oracle_mid_stream_queries_match_prefix_runs() {
    let n = 1usize << 13;
    let epoch_size = n / 4;
    let input = Workload::planted(1 << 12, vec![(0xAB, 0.3)]).generate(n, 100);
    let params = || HashtogramParams::hashed(n as u64, 1 << 12, 1.0, 0.1);
    let make = || Hashtogram::new(params(), 317);
    let seed = 318;
    let queries = [0xABu64, 5, 999];

    let oracle = make();
    let plan = StreamPlan {
        epoch_size,
        checkpoint_every: 1,
        dist: DistPlan::with_collectors(2),
    };
    let config = PipelineConfig::default();
    run_pipelined(&OracleStream(&oracle), &plan, &config, seed, |session| {
        for e in 0..4usize {
            session.ingest_epoch(&input[e * epoch_size..(e + 1) * epoch_size]);
            let mut mid = make();
            session.finish_at_epoch(&mut mid);
            let mid_answers: Vec<f64> = queries.iter().map(|&q| mid.estimate(q)).collect();
            let prefix = {
                let mut o = make();
                run_oracle(&mut o, &input[..(e + 1) * epoch_size], &queries, seed).answers
            };
            assert_eq!(
                mid_answers, prefix,
                "oracle mid-stream query diverged after epoch {e}"
            );
        }
    });
}

#[test]
#[should_panic(expected = "DistPlan.collectors must be >= 1")]
fn zero_collectors_is_rejected_up_front() {
    let mut params = ScanHeavyHitters::new(ScanParams::new(100, 64, 2.0, 0.1), 1);
    let plan = DistPlan {
        collectors: 0,
        ..DistPlan::default()
    };
    let _ = run_heavy_hitter_distributed(&mut params, &[1, 2, 3], 2, &plan);
}

#[test]
#[should_panic(expected = "DistPlan.chunk_size must be >= 1")]
fn zero_dist_chunk_size_is_rejected_up_front() {
    let mut params = ScanHeavyHitters::new(ScanParams::new(100, 64, 2.0, 0.1), 1);
    let plan = DistPlan {
        chunk_size: 0,
        ..DistPlan::default()
    };
    let _ = run_heavy_hitter_distributed(&mut params, &[1, 2, 3], 2, &plan);
}

#[test]
#[should_panic(expected = "BatchPlan.chunk_size must be >= 1")]
fn zero_batch_chunk_size_is_rejected_up_front() {
    let mut params = ScanHeavyHitters::new(ScanParams::new(100, 64, 2.0, 0.1), 1);
    let plan = BatchPlan {
        chunk_size: 0,
        threads: 2,
    };
    let _ = run_heavy_hitter_batched(&mut params, &[1, 2, 3], 2, &plan);
}

#[test]
#[should_panic(expected = "no checkpoint to answer from")]
fn mid_stream_query_without_checkpoint_panics() {
    // With checkpointing disabled, an "empty" mid-stream answer would be
    // indistinguishable from an empty stream — the session refuses.
    let n = 4_000usize;
    let input = Workload::planted(256, vec![(9, 0.35)]).generate(n, 101);
    let params = ScanParams::new(n as u64, 256, 4.0, 0.1);
    let make = || ScanHeavyHitters::new(params.clone(), 319);
    let server = make();
    let plan = StreamPlan {
        epoch_size: n,
        checkpoint_every: 0,
        ..StreamPlan::default()
    };
    let config = PipelineConfig::default();
    run_pipelined(&HhStream(&server), &plan, &config, 320, |session| {
        session.ingest_epoch(&input);
        let _ = session.finish_at_epoch(&mut make());
    });
}

#[test]
fn snapshot_epochs_expose_ragged_views() {
    // A crashed node misses a checkpoint: its snapshot epoch lags its
    // peers' — the signal callers use to detect a degraded durable view.
    let n = 4_000usize;
    let input = Workload::planted(256, vec![(9, 0.35)]).generate(n, 102);
    let params = ScanParams::new(n as u64, 256, 4.0, 0.1);
    let server = ScanHeavyHitters::new(params, 321);
    let plan = StreamPlan {
        epoch_size: n / 4,
        checkpoint_every: 1,
        dist: DistPlan {
            collectors: 2,
            chunk_size: 500,
            threads: 1,
            merge: MergeOrder::Tree,
        },
    };
    let config = PipelineConfig::default();
    run_pipelined(&HhStream(&server), &plan, &config, 322, |session| {
        assert_eq!(session.snapshot_epochs(), vec![None, None]);
        session.ingest_epoch(&input[..n / 4]);
        session.ingest_epoch(&input[n / 4..n / 2]);
        assert_eq!(session.snapshot_epochs(), vec![Some(2), Some(2)]);
        session.kill_collector(1);
        session.ingest_epoch(&input[n / 2..3 * n / 4]);
        // The dead node's snapshot stayed behind.
        assert_eq!(session.snapshot_epochs(), vec![Some(3), Some(2)]);
        // The mirror agrees with what the collectors actually hold: the
        // ragged view decodes node 1's epoch-2 snapshot.
        assert_eq!(
            session.recover_collector(1).from_epoch,
            Some(2),
            "recovery started from a different snapshot than the mirror shows"
        );
        session.ingest_epoch(&input[3 * n / 4..]);
        assert_eq!(session.snapshot_epochs(), vec![Some(4), Some(4)]);
    });
}

#[test]
#[should_panic(expected = "StreamPlan.epoch_size must be >= 1")]
fn zero_epoch_size_is_rejected_up_front() {
    let server = ScanHeavyHitters::new(ScanParams::new(100, 64, 2.0, 0.1), 1);
    let plan = StreamPlan {
        epoch_size: 0,
        ..StreamPlan::default()
    };
    run_pipelined(
        &HhStream(&server),
        &plan,
        &PipelineConfig::default(),
        2,
        |_| {},
    );
}

/// Schedule-level properties of the runtime: any queue depth and encoder
/// worker count gives the same bytes, and backpressure is accounted.
mod pipelined {
    use super::*;
    use ldp_heavy_hitters::sim::registry::{
        build_hh, build_oracle, hh_names, oracle_names, ProtocolSpec,
    };
    use ldp_heavy_hitters::sim::{
        run_dyn_heavy_hitter, run_dyn_oracle, DynHhStream, DynOracleStream,
    };
    use proptest::prelude::*;

    /// The crash schedule of one property case, clamped to the fleet.
    fn crash_schedule(case: u64, collectors: usize) -> Vec<Crash> {
        let node = |n: usize| n.min(collectors - 1);
        match case {
            0 => vec![],
            1 => vec![Crash {
                node: node(0),
                kill_after: 1,
                recover_after: Some(2),
            }],
            2 => vec![Crash {
                node: node(1),
                kill_after: 1,
                recover_after: None,
            }],
            _ => vec![
                Crash {
                    node: node(0),
                    kill_after: 1,
                    recover_after: Some(3),
                },
                Crash {
                    node: node(0),
                    kill_after: 4,
                    recover_after: Some(5),
                },
                Crash {
                    node: node(2),
                    kill_after: 2,
                    recover_after: None,
                },
            ],
        }
    }

    /// The fully serialized schedule every random one is compared with.
    const SERIALIZED: PipelineConfig = PipelineConfig {
        queue_depth: 1,
        workers: 1,
    };

    // Random registry protocol x collector count x queue depth x
    // encoder workers x epoch shape x checkpoint cadence x kill/recover
    // schedule: the finished output must equal the serial reference
    // run, and the final shard and durable snapshot sizes must be
    // byte-equal to the same plan run at queue depth 1 with one encoder
    // (schedule invariance).
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        #[test]
        fn pipelined_runtime_matches_serial_at_any_schedule(
            proto in 0usize..8,
            collectors in 1usize..5,
            queue_depth in 1usize..5,
            workers in 1usize..4,
            epoch_div in 1usize..7,
            cadence in 0usize..3,
            crash_case in 0u64..4,
            data_seed in 0u64..1_000,
        ) {
            let n = 1_400usize;
            let spec = ProtocolSpec {
                n: n as u64,
                domain: 256,
                eps: 4.0,
                beta: 0.2,
                seed: 900 + proto as u64,
            };
            let input = Workload::planted(spec.domain, vec![(17, 0.4)])
                .generate(n, 901 ^ data_seed);
            let plan = StreamPlan {
                epoch_size: n / epoch_div + 1,
                checkpoint_every: cadence,
                dist: DistPlan {
                    collectors,
                    chunk_size: n / 11 + 1,
                    threads: 2,
                    merge: MergeOrder::Tree,
                },
            };
            let config = PipelineConfig {
                queue_depth,
                workers,
            };
            let crashes = crash_schedule(crash_case, collectors);
            let seed = 902;

            let hh = hh_names();
            let oracles = oracle_names();
            if proto < hh.len() {
                let name = hh[proto];
                let serial = {
                    let mut s = build_hh(name, &spec).expect("registered");
                    run_dyn_heavy_hitter(s.as_mut(), &input, seed).estimates
                };
                let base_server = build_hh(name, &spec).expect("registered");
                let base = DynHhStream(base_server.as_ref());
                let (base_shard, base_stats) =
                    run_stream(&base, &plan, &SERIALIZED, seed, &input, &crashes);
                let mut server = build_hh(name, &spec).expect("registered");
                let (shard, stats) = run_stream(
                    &DynHhStream(server.as_ref()), &plan, &config, seed, &input, &crashes,
                );
                prop_assert_eq!(
                    base.encode_shard(&base_shard),
                    DynHhStream(server.as_ref()).encode_shard(&shard),
                    "{}: final shard bytes depend on the schedule", name
                );
                prop_assert_eq!(
                    base_stats.snapshot_bytes_last, stats.snapshot_bytes_last,
                    "{}: durable snapshot sizes depend on the schedule", name
                );
                prop_assert_eq!(stats.users, n as u64);
                prop_assert_eq!(base_stats.epochs, stats.epochs);
                server.finish_shard(shard);
                prop_assert_eq!(server.finish(), serial, "{}: estimates diverged from serial", name);
            } else {
                let name = oracles[proto - hh.len()];
                let queries = [17u64, 3, 250];
                let serial = {
                    let mut o = build_oracle(name, &spec).expect("registered");
                    run_dyn_oracle(o.as_mut(), &input, &queries, seed).answers
                };
                let base_oracle = build_oracle(name, &spec).expect("registered");
                let base = DynOracleStream(base_oracle.as_ref());
                let (base_shard, base_stats) =
                    run_stream(&base, &plan, &SERIALIZED, seed, &input, &crashes);
                let mut oracle = build_oracle(name, &spec).expect("registered");
                let (shard, stats) = run_stream(
                    &DynOracleStream(oracle.as_ref()), &plan, &config, seed, &input, &crashes,
                );
                prop_assert_eq!(
                    base.encode_shard(&base_shard),
                    DynOracleStream(oracle.as_ref()).encode_shard(&shard),
                    "{}: final shard bytes depend on the schedule", name
                );
                prop_assert_eq!(
                    base_stats.snapshot_bytes_last, stats.snapshot_bytes_last,
                    "{}: durable snapshot sizes depend on the schedule", name
                );
                oracle.finish_shard(shard);
                oracle.finalize();
                let answers: Vec<f64> = queries.iter().map(|&q| oracle.estimate(q)).collect();
                prop_assert_eq!(answers, serial, "{}: estimates diverged from serial", name);
            }
        }
    }

    /// The fused crash grid through a buffered queue and concurrent
    /// encoders: must still match the serial one-shot run, with its
    /// backpressure stats populated.
    #[test]
    fn pipelined_crash_grid_matches_serial() {
        let config = PipelineConfig {
            queue_depth: 2,
            workers: 2,
        };
        let (plan, stats) = assert_crash_grid_matches_serial(&config);
        assert!(
            stats.max_queue_occupancy >= 1,
            "chunks crossed queues — occupancy high-water mark must show it"
        );
        assert_eq!(stats.threads, config.workers + plan.dist.collectors);
    }

    /// Mid-stream queries with a single encoder on the session thread:
    /// answers come from pooled snapshot buffers and must not perturb
    /// the live stream.
    #[test]
    fn pipelined_mid_stream_queries_match_prefix_runs() {
        assert_mid_stream_queries_match_prefix_runs(
            1 << 13,
            700,
            PipelineConfig {
                queue_depth: 2,
                workers: 1,
            },
        );
    }

    #[test]
    #[should_panic(expected = "PipelineConfig.queue_depth must be >= 1")]
    fn zero_queue_depth_is_rejected_up_front() {
        let server = ScanHeavyHitters::new(ScanParams::new(100, 64, 2.0, 0.1), 1);
        let config = PipelineConfig {
            queue_depth: 0,
            workers: 1,
        };
        run_pipelined(
            &HhStream(&server),
            &StreamPlan::default(),
            &config,
            2,
            |_| {},
        );
    }

    #[test]
    #[should_panic(expected = "PipelineConfig.workers must be >= 1")]
    fn zero_workers_is_rejected_up_front() {
        let server = ScanHeavyHitters::new(ScanParams::new(100, 64, 2.0, 0.1), 1);
        let config = PipelineConfig {
            queue_depth: 4,
            workers: 0,
        };
        run_pipelined(
            &HhStream(&server),
            &StreamPlan::default(),
            &config,
            2,
            |_| {},
        );
    }
}
