//! Distributed-vs-serial equivalence: for every heavy-hitter protocol
//! and frequency oracle, the distributed driver — which round-trips
//! every report through its wire encoding, fans chunks out to `k`
//! simulated collector nodes, and merges the collectors' shards — must
//! produce `finish()` output bit-for-bit identical to the serial
//! reference run for the same seed, for any collector count
//! (1, 2 and 8 here), chunk size, and merge order.
//!
//! This is the acceptance gate of the encoder/aggregator split: wire
//! serialization, collector assignment and shard-merge topology are
//! pure transport/schedule choices, never result changes.

use ldp_heavy_hitters::core::baselines::{
    BassilySmithHeavyHitters, Bitstogram, BitstogramParams, BsHhParams, ScanHeavyHitters,
    ScanParams,
};
use ldp_heavy_hitters::freq::bassily_smith::BassilySmithOracle;
use ldp_heavy_hitters::freq::krr::KrrOracle;
use ldp_heavy_hitters::freq::rappor::Rappor;
use ldp_heavy_hitters::prelude::*;

const ORDERS: [MergeOrder; 3] = [
    MergeOrder::Tree,
    MergeOrder::Sequential,
    MergeOrder::ReverseSequential,
];

fn assert_distributed_equivalent<P, F>(make: F, input: &[u64], seed: u64, protocol: &str)
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
    // Collector counts 1, 2, 8 under the default tree merge; every merge
    // order at 8 collectors; plus a ragged chunk size.
    let n = input.len();
    let mut plans: Vec<DistPlan> = [1usize, 2, 8]
        .iter()
        .map(|&k| DistPlan {
            collectors: k,
            chunk_size: n / 8,
            threads: 2,
            merge: MergeOrder::Tree,
        })
        .collect();
    for order in ORDERS {
        plans.push(DistPlan {
            collectors: 8,
            chunk_size: 3000,
            threads: 2,
            merge: order,
        });
    }
    for plan in &plans {
        let mut server = make();
        let run = run_heavy_hitter_distributed(&mut server, input, seed, plan);
        assert_eq!(
            run.estimates, serial,
            "{protocol}: distributed output diverged at {plan:?}"
        );
        assert!(
            run.wire_bytes > 0,
            "{protocol}: no bytes crossed the wire at {plan:?}"
        );
        // Every report stayed within the claimed size (byte-aligned).
        assert!(
            run.wire_bytes <= (run.n * run.report_bits.div_ceil(8)) as u64,
            "{protocol}: wire bytes {} exceed claim {} x {} bytes",
            run.wire_bytes,
            run.n,
            run.report_bits.div_ceil(8),
        );
    }
}

#[test]
fn expander_sketch_distributed_equals_serial() {
    let n = 1usize << 15;
    let input = Workload::planted(1 << 16, vec![(0xBEE, 0.45)]).generate(n, 81);
    let params = SketchParams::optimal(n as u64, 16, 4.0, 0.1);
    assert_distributed_equivalent(
        || ExpanderSketch::new(params.clone(), 201),
        &input,
        202,
        "expander_sketch",
    );
}

#[test]
fn bitstogram_distributed_equals_serial() {
    let n = 1usize << 15;
    let input = Workload::planted(1 << 16, vec![(0xBEE, 0.45)]).generate(n, 82);
    let mut params = BitstogramParams::optimal(n as u64, 16, 4.0, 0.5);
    params.repetitions = 1; // high-eps single-repetition profile, as in its unit tests
    assert_distributed_equivalent(
        || Bitstogram::new(params.clone(), 203),
        &input,
        204,
        "bitstogram",
    );
}

#[test]
fn scan_distributed_equals_serial() {
    let n = 1usize << 14;
    let input = Workload::planted(512, vec![(9, 0.3), (100, 0.2)]).generate(n, 83);
    let params = ScanParams::new(n as u64, 512, 4.0, 0.1);
    assert_distributed_equivalent(
        || ScanHeavyHitters::new(params.clone(), 205),
        &input,
        206,
        "scan",
    );
}

#[test]
fn bassily_smith_distributed_equals_serial() {
    let n = 1usize << 13;
    let input = Workload::planted(1 << 10, vec![(0x321, 0.5)]).generate(n, 84);
    let params = BsHhParams::optimal(n as u64, 1 << 10, 4.0, 0.2);
    assert_distributed_equivalent(
        || BassilySmithHeavyHitters::new(params.clone(), 207),
        &input,
        208,
        "bassily_smith",
    );
}

/// Oracle-side equivalence, generic over the oracle constructor.
fn assert_oracle_distributed_equivalent<O, F>(
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
    for k in [1usize, 2, 8] {
        for order in ORDERS {
            let plan = DistPlan {
                collectors: k,
                chunk_size: input.len() / 4 + 1,
                threads: 2,
                merge: order,
            };
            let mut oracle = make();
            let run = run_oracle_distributed(&mut oracle, input, queries, seed, &plan);
            assert_eq!(
                run.answers, serial,
                "{oracle_name}: answers diverged at k = {k}, {order:?}"
            );
        }
    }
}

#[test]
fn hashtogram_oracle_distributed_equals_serial() {
    let n = 1usize << 14;
    let input = Workload::planted(1 << 16, vec![(0xBEE, 0.25)]).generate(n, 85);
    assert_oracle_distributed_equivalent(
        || Hashtogram::new(HashtogramParams::hashed(n as u64, 1 << 16, 1.0, 0.05), 209),
        &input,
        &[0xBEEu64, 7, 60_000],
        210,
        "hashtogram",
    );
}

#[test]
fn bassily_smith_oracle_distributed_equals_serial() {
    let n = 1usize << 13;
    let input = Workload::planted(1 << 16, vec![(0x44, 0.3)]).generate(n, 86);
    assert_oracle_distributed_equivalent(
        || BassilySmithOracle::new(1 << 16, 1.0, n as u64 / 4, 211),
        &input,
        &[0x44u64, 5],
        212,
        "bassily_smith_oracle",
    );
}

#[test]
fn krr_oracle_distributed_equals_serial() {
    let n = 1usize << 13;
    let input: Vec<u64> = Workload::planted(24, vec![(3, 0.4)]).generate(n, 87);
    assert_oracle_distributed_equivalent(
        || KrrOracle::new(24, 1.0),
        &input,
        &[3u64, 9],
        213,
        "krr",
    );
}

#[test]
fn rappor_distributed_equals_serial() {
    let n = 1usize << 11;
    let input: Vec<u64> = Workload::planted(100, vec![(42, 0.4)]).generate(n, 88);
    assert_oracle_distributed_equivalent(
        || Rappor::new(100, 1.0),
        &input,
        &[42u64, 17],
        214,
        "rappor",
    );
}
