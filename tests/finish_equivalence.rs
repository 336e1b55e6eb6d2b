//! Finish-path equivalence: the parallel, scratch-threaded decode
//! (`finish_with` / `finalize_with`) is bit-for-bit the serial decode,
//! for every registry protocol, across thread counts and shard splits —
//! and the session's *incremental* `finish_at_epoch` (fold cache +
//! memoized answers) equals a from-scratch finish over the same durable
//! view, across random crash/checkpoint schedules.
//!
//! This is the contract that makes the parallel finish path safe to use
//! everywhere by default: performance knobs (threads, scratch reuse,
//! incremental folding) can never change results.

use ldp_heavy_hitters::core::baselines::{ScanHeavyHitters, ScanParams};
use ldp_heavy_hitters::prelude::*;
use ldp_heavy_hitters::sim::registry::{hh_names, oracle_names};
use ldp_heavy_hitters::sim::{HhStream, StreamPlan};

const N: usize = 1_500;
const DOMAIN: u64 = 256;

fn spec(seed: u64) -> ProtocolSpec {
    ProtocolSpec {
        n: N as u64,
        domain: DOMAIN,
        eps: 4.0,
        beta: 0.1,
        seed,
    }
}

fn inputs(seed: u64) -> Vec<u64> {
    Workload::planted(DOMAIN, vec![(9, 0.3), (100, 0.2)]).generate(N, seed)
}

/// Ingest `input` through the wire path in `splits` independent shards
/// (the same fan-out a collector fleet produces), then fold them in.
fn ingest_split_hh(server: &mut dyn DynHhProtocol, input: &[u64], splits: usize, seed: u64) {
    let chunk = input.len().div_ceil(splits).max(1);
    let mut shards = Vec::new();
    let mut buf = Vec::new();
    for (c, slice) in input.chunks(chunk).enumerate() {
        buf.clear();
        let start = (c * chunk) as u64;
        let lens = server.respond_encode_batch(start, slice, seed, &mut buf);
        let frames = WireFrames::new(&buf, &lens).expect("well-framed");
        let mut shard = server.new_shard();
        server
            .absorb_wire(&mut shard, start, &frames)
            .expect("absorb");
        shards.push(shard);
    }
    for shard in shards {
        server.finish_shard(shard);
    }
}

fn ingest_split_oracle(oracle: &mut dyn DynOracle, input: &[u64], splits: usize, seed: u64) {
    let chunk = input.len().div_ceil(splits).max(1);
    let mut shards = Vec::new();
    let mut buf = Vec::new();
    for (c, slice) in input.chunks(chunk).enumerate() {
        buf.clear();
        let start = (c * chunk) as u64;
        let lens = oracle.respond_encode_batch(start, slice, seed, &mut buf);
        let frames = WireFrames::new(&buf, &lens).expect("well-framed");
        let mut shard = oracle.new_shard();
        oracle
            .absorb_wire(&mut shard, start, &frames)
            .expect("absorb");
        shards.push(shard);
    }
    for shard in shards {
        oracle.finish_shard(shard);
    }
}

mod parallel_equals_serial {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]

        // Every registry heavy-hitter protocol: parallel `finish_with`
        // at an arbitrary thread count over an arbitrary shard split
        // equals the forced-serial finish bit-for-bit. A second warm
        // pass through the *same* scratch must agree too (buffer reuse
        // cannot leak state between runs).
        #[test]
        fn hh_parallel_finish_matches_serial(
            seed in 0u64..500,
            threads in 0usize..5,
            splits in 1usize..5,
        ) {
            let input = inputs(seed ^ 0x51);
            let mut scratch = FinishScratch::with_threads(threads);
            for name in hh_names() {
                let serial = {
                    let mut server = build_hh(name, &spec(seed)).expect("registry name");
                    ingest_split_hh(server.as_mut(), &input, 1, seed ^ 0xF1);
                    server.finish_with(&mut FinishScratch::serial())
                };
                let mut server = build_hh(name, &spec(seed)).expect("registry name");
                ingest_split_hh(server.as_mut(), &input, splits, seed ^ 0xF1);
                let parallel = server.finish_with(&mut scratch);
                prop_assert_eq!(&parallel, &serial, "{}: parallel finish diverged", name);
                // Estimates sorted by (estimate desc, value asc).
                for w in parallel.windows(2) {
                    prop_assert!(
                        w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0),
                        "{}: tie-break order violated: {:?}", name, w
                    );
                }
            }
        }

        // Every registry frequency oracle: `finalize_with` at an
        // arbitrary thread count over an arbitrary shard split yields
        // bit-identical estimates to the forced-serial finalize.
        #[test]
        fn oracle_parallel_finalize_matches_serial(
            seed in 0u64..500,
            threads in 0usize..5,
            splits in 1usize..5,
        ) {
            let input = inputs(seed ^ 0x52);
            let queries = [0u64, 9, 100, DOMAIN / 2, DOMAIN - 1];
            let mut scratch = FinishScratch::with_threads(threads);
            for name in oracle_names() {
                let serial: Vec<f64> = {
                    let mut oracle = build_oracle(name, &spec(seed)).expect("registry name");
                    ingest_split_oracle(oracle.as_mut(), &input, 1, seed ^ 0xF2);
                    oracle.finalize_with(&mut FinishScratch::serial());
                    queries.iter().map(|&q| oracle.estimate(q)).collect()
                };
                let mut oracle = build_oracle(name, &spec(seed)).expect("registry name");
                ingest_split_oracle(oracle.as_mut(), &input, splits, seed ^ 0xF2);
                oracle.finalize_with(&mut scratch);
                let parallel: Vec<f64> = queries.iter().map(|&q| oracle.estimate(q)).collect();
                prop_assert_eq!(&parallel, &serial, "{}: parallel finalize diverged", name);
            }
        }
    }
}

mod incremental_equals_from_scratch {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        // Under a random epoch size, checkpoint cadence, and
        // crash/recover schedule, the session's incremental
        // `finish_at_epoch` — including warm repeat queries answered
        // from the memoized fold — equals a from-scratch finish over
        // the uncached durable view at every query point.
        #[test]
        fn incremental_queries_match_from_scratch(
            seed in 0u64..500,
            epoch_size in 300usize..900,
            checkpoint_every in 1usize..3,
            kill_epoch in 1u64..4,
            node in 0usize..3,
            recover_gap in 0u64..2,
        ) {
            // One element heavy enough that the durable views' answers
            // are non-empty: an empty list would pass for any cache bug.
            let input = Workload::planted(DOMAIN, vec![(9, 0.6)]).generate(N, seed ^ 0x53);
            let params = ScanParams::new(N as u64, DOMAIN, 4.0, 0.1);
            let make = || ScanHeavyHitters::new(params.clone(), seed ^ 0x61);
            let server = make();
            let plan = StreamPlan {
                epoch_size,
                checkpoint_every,
                dist: DistPlan {
                    collectors: 3,
                    chunk_size: 200,
                    threads: 2,
                    merge: MergeOrder::Tree,
                },
            };
            let config = PipelineConfig::default();
            let (_, stats, checked) = run_pipelined(
                &HhStream(&server),
                &plan,
                &config,
                seed ^ 0x62,
                |session| -> Result<bool, TestCaseError> {
                    let mut answered = false;
                    for slice in input.chunks(epoch_size) {
                        session.ingest_epoch(slice);
                        if session.epoch() == kill_epoch && session.is_alive(node) {
                            session.kill_collector(node);
                        }
                        if session.epoch() == kill_epoch + 1 + recover_gap && !session.is_alive(node) {
                            session.recover_collector(node);
                        }
                        // From-scratch reference: the pure, uncached durable view.
                        let reference = {
                            let mut fresh = make();
                            match session.snapshot_shard() {
                                Some(shard) => fresh.finish_shard(shard),
                                None => continue, // nothing durable yet this epoch
                            }
                            fresh.finish()
                        };
                        // Cold incremental query, then a warm repeat (memoized).
                        let cold = session.finish_at_epoch(&mut make());
                        prop_assert_eq!(&cold, &reference, "cold incremental query diverged");
                        let warm = session.finish_at_epoch(&mut make());
                        prop_assert_eq!(&warm, &reference, "warm incremental query diverged");
                        answered |= !reference.is_empty();
                    }
                    Ok(answered)
                },
            );
            prop_assert!(checked?, "every durable view answered empty — vacuous");
            prop_assert!(
                stats.finish_cache_hits > 0,
                "warm queries never hit the fold cache"
            );
        }
    }
}
