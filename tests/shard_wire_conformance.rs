//! Shard-codec conformance: for every heavy-hitter protocol and
//! frequency oracle, a collector shard survives the `WireShard`
//! encode → decode round trip *observationally* — merging and finishing
//! decoded shards is bit-for-bit identical to never-encoded shards —
//! `shard_encoded_len` is exact, re-encoding a decoded shard reproduces
//! the original bytes (the codec is canonical), and malformed snapshot
//! bytes are rejected rather than absorbed.
//!
//! The property half: snapshot + replay recovery from a random epoch
//! equals uninterrupted streaming, for random epoch sizes, checkpoint
//! cadences, crash times and crash nodes.
//!
//! This is what makes shards *durable artifacts*: a checkpoint written
//! as bytes is as good as the live aggregate it came from.

use ldp_heavy_hitters::core::baselines::{
    BassilySmithHeavyHitters, Bitstogram, BitstogramParams, BsHhParams, ScanHeavyHitters,
    ScanParams,
};
use ldp_heavy_hitters::core::SketchShard;
use ldp_heavy_hitters::freq::bassily_smith::BassilySmithOracle;
use ldp_heavy_hitters::freq::krr::KrrOracle;
use ldp_heavy_hitters::freq::rappor::Rappor;
use ldp_heavy_hitters::freq::HashtogramShard;
use ldp_heavy_hitters::prelude::*;

fn inputs(n: usize, domain: u64, seed: u64) -> Vec<u64> {
    Workload::planted(domain, vec![(domain / 3, 0.3)]).generate(n, seed)
}

/// Round-trip both shards through bytes, checking exact lengths and
/// canonical re-encoding; returns the decoded pair.
fn round_trip<S: WireShard>(sa: &S, sb: &S, protocol: &str) -> (S, S) {
    let mut decoded = Vec::new();
    for (which, s) in [("a", sa), ("b", sb)] {
        let bytes = s.encode_shard();
        assert_eq!(
            bytes.len(),
            s.shard_encoded_len(),
            "{protocol}: shard_encoded_len lied for shard {which}"
        );
        let d = S::decode_shard(&bytes)
            .unwrap_or_else(|e| panic!("{protocol}: shard {which} failed to decode: {e}"));
        assert_eq!(
            d.encode_shard(),
            bytes,
            "{protocol}: re-encoding shard {which} changed the bytes"
        );
        // Corrupting the frame must not decode silently.
        assert!(
            S::decode_shard(&bytes[..bytes.len() - 1]).is_err(),
            "{protocol}: truncated snapshot decoded"
        );
        let mut trailing = bytes.clone();
        trailing.push(0x00);
        assert!(
            S::decode_shard(&trailing).is_err(),
            "{protocol}: snapshot with trailing bytes decoded"
        );
        decoded.push(d);
    }
    let db = decoded.pop().expect("two shards");
    let da = decoded.pop().expect("two shards");
    (da, db)
}

/// Two shards over the ragged user ranges `0..cut` and `cut..`, each
/// fused-encoded and absorbed through the wire path.
fn two_shards<A: Aggregator>(
    server: &A,
    input: &[u64],
    client_seed: u64,
    cut: usize,
) -> (A::Shard, A::Shard) {
    let absorb = |lo: usize, hi: usize| {
        let mut bytes = Vec::new();
        let lens = server.respond_encode_batch(lo as u64, &input[lo..hi], client_seed, &mut bytes);
        let frames = WireFrames::new(&bytes, &lens).expect("well-framed");
        let mut shard = server.new_shard();
        server
            .absorb_wire(&mut shard, lo as u64, &frames)
            .expect("lossless chunk");
        shard
    };
    (absorb(0, cut), absorb(cut, input.len()))
}

/// Heavy-hitter side: `finish` over merged decoded shards must equal
/// `finish` over merged never-encoded shards, bit-for-bit.
fn conform_hh<P, F>(make: F, input: &[u64], protocol: &str)
where
    P: HeavyHitterProtocol,
    F: Fn() -> P,
{
    let server = make();
    let cut = input.len() / 3 + 1;
    let two_shards = || two_shards(&server, input, 0xC0FE, cut);
    let reference = {
        let (sa, sb) = two_shards();
        let mut s = make();
        let merged = s.merge(sa, sb);
        s.finish_shard(merged);
        s.finish()
    };
    assert!(
        !reference.is_empty(),
        "{protocol}: reference found nothing — test is vacuous"
    );
    let (sa, sb) = two_shards();
    let (da, db) = round_trip(&sa, &sb, protocol);
    // Decoded shards merge among themselves…
    let via_decoded = {
        let mut s = make();
        let merged = s.merge(da, db);
        s.finish_shard(merged);
        s.finish()
    };
    assert_eq!(
        via_decoded, reference,
        "{protocol}: decoded shards diverged from never-encoded shards"
    );
    // …and with live (never-encoded) shards, in either position.
    let (da, _) = round_trip(&sa, &sb, protocol);
    let via_mixed = {
        let mut s = make();
        let merged = s.merge(sb, da);
        s.finish_shard(merged);
        s.finish()
    };
    assert_eq!(
        via_mixed, reference,
        "{protocol}: decoded/live mixed merge diverged"
    );
}

/// Oracle side: estimates over merged decoded shards must equal
/// estimates over merged never-encoded shards, bit-for-bit.
fn conform_oracle<O, F>(make: F, input: &[u64], queries: &[u64], oracle_name: &str)
where
    O: FrequencyOracle,
    F: Fn() -> O,
{
    let oracle = make();
    let cut = input.len() / 3 + 1;
    let two_shards = || two_shards(&oracle, input, 0x0C0FE, cut);
    let answers = |shard: O::Shard| {
        let mut o = make();
        o.finish_shard(shard);
        o.finalize();
        queries.iter().map(|&q| o.estimate(q)).collect::<Vec<f64>>()
    };
    let reference = {
        let (sa, sb) = two_shards();
        answers(oracle.merge(sa, sb))
    };
    let (sa, sb) = two_shards();
    let (da, db) = round_trip(&sa, &sb, oracle_name);
    assert_eq!(
        answers(oracle.merge(da, db)),
        reference,
        "{oracle_name}: decoded shards diverged from never-encoded shards"
    );
    let (_, db) = round_trip(&sa, &sb, oracle_name);
    assert_eq!(
        answers(oracle.merge(db, sa)),
        reference,
        "{oracle_name}: decoded/live mixed merge diverged"
    );
}

#[test]
fn expander_sketch_shards_conform() {
    // Sized like the equivalence tests: at n = 2^15, eps = 4 a
    // 0.45-mass heavy element clears the keep threshold with margin.
    let n = 1u64 << 15;
    let params = SketchParams::optimal(n, 16, 4.0, 0.1);
    conform_hh(
        || ExpanderSketch::new(params.clone(), 31),
        &Workload::planted(1 << 16, vec![(0xBEE, 0.45)]).generate(n as usize, 32),
        "expander_sketch",
    );
}

#[test]
fn bitstogram_shards_conform() {
    let n = 1u64 << 15;
    let mut params = BitstogramParams::optimal(n, 16, 4.0, 0.5);
    params.repetitions = 1; // high-eps single-repetition profile, as in its unit tests
    conform_hh(
        || Bitstogram::new(params.clone(), 33),
        &Workload::planted(1 << 16, vec![(0xBEE, 0.45)]).generate(n as usize, 34),
        "bitstogram",
    );
}

#[test]
fn scan_shards_conform() {
    let n = 4_000u64;
    let params = ScanParams::new(n, 512, 4.0, 0.1);
    conform_hh(
        || ScanHeavyHitters::new(params.clone(), 35),
        &inputs(n as usize, 512, 36),
        "scan",
    );
}

#[test]
fn bassily_smith_hh_shards_conform() {
    let n = 4_000u64;
    let params = BsHhParams::optimal(n, 1 << 10, 4.0, 0.2);
    conform_hh(
        || BassilySmithHeavyHitters::new(params.clone(), 37),
        &inputs(n as usize, 1 << 10, 38),
        "bassily_smith_hh",
    );
}

#[test]
fn hashtogram_oracle_shards_conform() {
    let n = 4_000u64;
    for (name, params) in [
        (
            "hashtogram_hashed",
            HashtogramParams::hashed(n, 1 << 30, 1.0, 0.05),
        ),
        ("hashtogram_direct", HashtogramParams::direct(200, 1.0, 0.1)),
    ] {
        let domain = params.domain;
        conform_oracle(
            || Hashtogram::new(params.clone(), 39),
            &inputs(n as usize, domain, 40),
            &[domain / 3, 1, domain - 1],
            name,
        );
    }
}

#[test]
fn bassily_smith_oracle_shards_conform() {
    let n = 4_000u64;
    conform_oracle(
        || BassilySmithOracle::new(1 << 20, 1.0, n, 41),
        &inputs(n as usize, 1 << 20, 42),
        &[(1 << 20) / 3, 5],
        "bassily_smith_oracle",
    );
}

#[test]
fn krr_oracle_shards_conform() {
    let n = 4_000u64;
    conform_oracle(
        || KrrOracle::new(24, 1.0),
        &inputs(n as usize, 24, 43),
        &[8u64, 3],
        "krr",
    );
}

#[test]
fn rappor_shards_conform() {
    let n = 1_000u64;
    conform_oracle(
        || Rappor::new(100, 1.0),
        &inputs(n as usize, 100, 44),
        &[33u64, 7],
        "rappor",
    );
}

/// Fold a decoded snapshot of `other`'s shard — a configuration of
/// another shape — into `server`. With one collector the snapshot
/// reaches `finish_shard` without a merge, so `finish_shard` itself must
/// reject it rather than zip-truncate into a wrong aggregate.
fn fold_foreign_snapshot<A: Aggregator>(other: A, mut server: A) {
    let (shard, _) = two_shards(&other, &[0, 1, 2, 3], 7, 4);
    let snapshot = A::Shard::decode_shard(&shard.encode_shard()).expect("snapshot decodes");
    server.finish_shard(snapshot);
}

#[test]
#[should_panic(expected = "shard shape mismatch")]
fn krr_oracle_rejects_a_foreign_shard_shape() {
    fold_foreign_snapshot(KrrOracle::new(8, 1.0), KrrOracle::new(16, 1.0));
}

#[test]
#[should_panic(expected = "shard shape mismatch")]
fn rappor_rejects_a_foreign_shard_shape() {
    fold_foreign_snapshot(Rappor::new(8, 1.0), Rappor::new(16, 1.0));
}

#[test]
#[should_panic(expected = "shard shape mismatch")]
fn bassily_smith_oracle_rejects_a_foreign_shard_shape() {
    fold_foreign_snapshot(
        BassilySmithOracle::new(1 << 10, 1.0, 64, 5),
        BassilySmithOracle::new(1 << 10, 1.0, 128, 5),
    );
}

#[test]
fn malformed_snapshots_are_rejected() {
    // Structural corruption beyond truncation/trailing: composite inner
    // frames and non-canonical varints.
    assert!(HashtogramShard::decode_shard(&[]).is_err());
    // users = 0, then a group-count run claiming more elements than
    // remain.
    assert!(HashtogramShard::decode_shard(&[0, 5, 1]).is_err());
    // Zero-padded varint in the users field.
    assert!(HashtogramShard::decode_shard(&[0x80, 0x00, 0, 0]).is_err());
    // Tallies without groups: 0 users, 0 group counts, 3 tallies — the
    // shape no encoder produces; absorbing it would panic downstream.
    assert!(HashtogramShard::decode_shard(&[0, 0, 3, 2, 4, 6]).is_err());
    // The mirror: 2 groups but an empty tally run (0 divides anything).
    assert!(HashtogramShard::decode_shard(&[0, 2, 1, 1, 0]).is_err());
    // Tally rows that do not divide into the group count (2 groups,
    // 3 tallies).
    assert!(HashtogramShard::decode_shard(&[0, 2, 1, 1, 3, 2, 4, 6]).is_err());
    assert!(SketchShard::decode_shard(&[]).is_err());
    // users = 0, outer_len = 200 with nothing behind it.
    assert!(SketchShard::decode_shard(&[0, 200]).is_err());
}

mod snapshot_replay {
    //! Property: recovery from a snapshot plus spool replay, at a random
    //! crash point under a random stream shape, is indistinguishable
    //! from never crashing.

    use ldp_heavy_hitters::core::baselines::{ScanHeavyHitters, ScanParams};
    use ldp_heavy_hitters::prelude::*;
    use ldp_heavy_hitters::sim::{DynHhStream, StreamPlan};
    use proptest::prelude::*;

    const N: usize = 6_000;
    const COLLECTORS: usize = 3;

    fn run_stream(
        seed: u64,
        plan: &StreamPlan,
        crash: Option<(u64, usize, u64)>,
    ) -> Vec<(u64, f64)> {
        let input = Workload::planted(256, vec![(9, 0.35)]).generate(N, seed ^ 0x11);
        let mut server = Erased(ScanHeavyHitters::new(
            ScanParams::new(N as u64, 256, 4.0, 0.1),
            seed ^ 0x22,
        ));
        let config = PipelineConfig::default();
        let (shard, stats, ()) = run_pipelined(
            &DynHhStream(&server),
            plan,
            &config,
            seed ^ 0x33,
            |session| {
                for slice in input.chunks(plan.epoch_size) {
                    session.ingest_epoch(slice);
                    if let Some((kill_epoch, node, recover_epoch)) = crash {
                        if session.epoch() == kill_epoch && session.is_alive(node) {
                            session.kill_collector(node);
                        }
                        if session.epoch() == recover_epoch && !session.is_alive(node) {
                            session.recover_collector(node);
                        }
                    }
                }
            },
        );
        if crash.is_some() {
            assert_eq!(stats.recoveries, 1, "crash was never recovered");
        }
        server.finish_shard(shard);
        server.finish()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]

        #[test]
        fn snapshot_plus_replay_equals_uninterrupted(
            seed in 0u64..1000,
            epoch_size in 500usize..2500,
            checkpoint_every in 0usize..3,
            kill_epoch in 1u64..4,
            node in 0usize..COLLECTORS,
            recover_gap in 0u64..3,
        ) {
            let plan = StreamPlan {
                epoch_size,
                checkpoint_every,
                dist: DistPlan {
                    collectors: COLLECTORS,
                    chunk_size: 700,
                    threads: 2,
                    merge: MergeOrder::Tree,
                },
            };
            let uninterrupted = run_stream(seed, &plan, None);
            let crashed = run_stream(seed, &plan, Some((kill_epoch, node, kill_epoch + 1 + recover_gap)));
            prop_assert_eq!(crashed, uninterrupted);
        }
    }
}
