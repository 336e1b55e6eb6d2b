//! Batch-vs-serial equivalence: for every heavy-hitter protocol (and the
//! Hashtogram frequency oracle), `run_heavy_hitter_batched` must produce
//! `finish()` output bit-for-bit identical to the serial `run_heavy_hitter`
//! for the same seed — across 1, 2 and 8 chunks, and across thread counts.
//!
//! This is the acceptance gate of the batched driver: chunking and
//! parallelism are pure schedule changes, never result changes. It holds
//! because (a) user `i`'s client coins are a pure function of
//! `(seed, i)` in both drivers, and (b) servers ingest reports through
//! order-exact integer tallies, so shard merges cannot reassociate
//! floating-point sums.

use ldp_heavy_hitters::core::baselines::{
    BassilySmithHeavyHitters, Bitstogram, BitstogramParams, BsHhParams, ScanHeavyHitters,
    ScanParams,
};
use ldp_heavy_hitters::prelude::*;
use ldp_heavy_hitters::sim::{run_heavy_hitter_batched, run_oracle_batched, BatchPlan};

fn assert_equivalent<P, F>(
    make: F,
    input: &[u64],
    seed: u64,
    chunk_sizes: &[usize],
    threads: &[usize],
    protocol: &str,
) where
    P: HeavyHitterProtocol + Send + Sync,
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
    for &chunk_size in chunk_sizes {
        for &t in threads {
            let mut server = Erased(make());
            let plan = BatchPlan {
                chunk_size,
                threads: t,
            };
            let batched = run_heavy_hitter_batched(&mut server, input, seed, &plan).estimates;
            assert_eq!(
                batched, serial,
                "{protocol}: batched output diverged at chunk_size {chunk_size}, threads {t}"
            );
        }
    }
}

#[test]
fn expander_sketch_batched_equals_serial() {
    // Sized against the protocol's own threshold: at n = 2^15, eps = 4
    // the keep threshold sits at ~0.24 n, so a 0.45-mass heavy element
    // clears it with margin and the comparison is non-vacuous (checked by
    // the assert below; the run is fully deterministic).
    let n = 1usize << 15;
    let input = Workload::planted(1 << 16, vec![(0xBEE, 0.45)]).generate(n, 71);
    let params = SketchParams::optimal(n as u64, 16, 4.0, 0.1);
    // 1, 2 and 8 chunks.
    assert_equivalent(
        || ExpanderSketch::new(params.clone(), 101),
        &input,
        102,
        &[n, n / 2, n / 8],
        &[2],
        "expander_sketch",
    );
}

#[test]
fn bitstogram_batched_equals_serial() {
    let n = 1usize << 15;
    let input = Workload::planted(1 << 16, vec![(0xBEE, 0.45)]).generate(n, 72);
    let mut params = BitstogramParams::optimal(n as u64, 16, 4.0, 0.5);
    params.repetitions = 1; // high-eps single-repetition profile, as in its unit tests
    assert_equivalent(
        || Bitstogram::new(params.clone(), 103),
        &input,
        104,
        &[n, n / 2, n / 8],
        &[2],
        "bitstogram",
    );
}

#[test]
fn scan_batched_equals_serial() {
    let n = 1usize << 14;
    let input = Workload::planted(512, vec![(9, 0.3), (100, 0.2)]).generate(n, 73);
    let params = ScanParams::new(n as u64, 512, 4.0, 0.1);
    // 1, 2 and 8 chunks plus a ragged chunking and thread sweeps (cheap
    // protocol, so exercise the wider grid here).
    assert_equivalent(
        || ScanHeavyHitters::new(params.clone(), 105),
        &input,
        106,
        &[n, n / 2, n / 8, 3000],
        &[1, 2, 8],
        "scan",
    );
}

#[test]
fn bassily_smith_batched_equals_serial() {
    // Small instance: this baseline's finish() is the Θ(n·|X|) domain
    // scan the paper indicts, so the equivalence grid stays modest.
    let n = 1usize << 13;
    let input = Workload::planted(1 << 10, vec![(0x321, 0.5)]).generate(n, 74);
    let params = BsHhParams::optimal(n as u64, 1 << 10, 4.0, 0.2);
    assert_equivalent(
        || BassilySmithHeavyHitters::new(params.clone(), 107),
        &input,
        108,
        &[n, n / 2, n / 8, 3000],
        &[2],
        "bassily_smith",
    );
}

#[test]
fn hashtogram_oracle_batched_equals_serial() {
    let n = 1usize << 14;
    let input = Workload::planted(1 << 16, vec![(0xBEE, 0.25), (0x123, 0.15)]).generate(n, 75);
    let queries = [0xBEEu64, 0x123, 7, 60_000];
    let params = || HashtogramParams::hashed(n as u64, 1 << 16, 1.0, 0.05);
    let serial = {
        let mut o = Hashtogram::new(params(), 109);
        run_oracle(&mut o, &input, &queries, 110).answers
    };
    assert!(serial[0] > 0.1 * n as f64, "vacuous: {serial:?}");
    for chunk_size in [n, n / 2, n / 8, 3000] {
        for threads in [1usize, 4] {
            let mut o = Erased(Hashtogram::new(params(), 109));
            let plan = BatchPlan {
                chunk_size,
                threads,
            };
            let batched = run_oracle_batched(&mut o, &input, &queries, 110, &plan).answers;
            assert_eq!(
                batched, serial,
                "oracle diverged at chunk_size {chunk_size}, threads {threads}"
            );
        }
    }
}

mod shard_algebra {
    //! Property tests of the shard aggregation algebra: `merge` is
    //! associative and commutative (observationally) with `new_shard()`
    //! as identity, and any shard/merge tree over any partition of the
    //! reports yields output identical to serial `collect`.

    use ldp_heavy_hitters::core::baselines::{ScanHeavyHitters, ScanParams};
    use ldp_heavy_hitters::prelude::*;
    use proptest::prelude::*;

    const N: usize = 4_000;

    type Shard = <ScanHeavyHitters as Aggregator>::Shard;

    /// The server, its users' inputs, and their client seed.
    fn setup(seed: u64) -> (ScanHeavyHitters, Vec<u64>, u64) {
        let params = ScanParams::new(N as u64, 256, 4.0, 0.1);
        let input = Workload::planted(256, vec![(9, 0.35)]).generate(N, seed);
        let server = ScanHeavyHitters::new(params, seed ^ 0x5A);
        (server, input, seed ^ 0xC3)
    }

    fn serial_finish(seed: u64) -> Vec<(u64, f64)> {
        let (mut server, input, client_seed) = setup(seed);
        for (i, &x) in input.iter().enumerate() {
            let rep = server.respond(i as u64, x, &mut client_rng(client_seed, i as u64));
            server.collect(i as u64, rep);
        }
        server.finish()
    }

    /// Users `lo..hi` fused-encoded and absorbed into a fresh shard.
    fn absorb_range(
        server: &ScanHeavyHitters,
        input: &[u64],
        client_seed: u64,
        lo: usize,
        hi: usize,
    ) -> Shard {
        let mut bytes = Vec::new();
        let lens = server.respond_encode_batch(lo as u64, &input[lo..hi], client_seed, &mut bytes);
        let frames = WireFrames::new(&bytes, &lens).expect("well-framed");
        let mut shard = server.new_shard();
        server
            .absorb_wire(&mut shard, lo as u64, &frames)
            .expect("lossless chunk");
        shard
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn any_shard_tree_matches_serial_collect(
            seed in 0u64..1000,
            cut_a in 1usize..1999,
            cut_b in 2000usize..3999,
            tree in 0u8..3,
        ) {
            let truth = serial_finish(seed);
            let (mut server, input, client_seed) = setup(seed);
            // Partition the population into three ragged ranges and
            // absorb each into its own shard.
            let sa = absorb_range(&server, &input, client_seed, 0, cut_a);
            let sb = absorb_range(&server, &input, client_seed, cut_a, cut_b);
            let sc = absorb_range(&server, &input, client_seed, cut_b, N);
            // Three distinct merge trees/orders.
            let merged = match tree {
                0 => server.merge(server.merge(sa, sb), sc),
                1 => server.merge(sa, server.merge(sb, sc)),
                _ => server.merge(sc, server.merge(sb, sa)),
            };
            server.finish_shard(merged);
            prop_assert_eq!(server.finish(), truth, "tree {}", tree);
        }

        #[test]
        fn new_shard_is_the_merge_identity(seed in 0u64..1000, left in 0u8..2) {
            let truth = serial_finish(seed);
            let (mut server, input, client_seed) = setup(seed);
            let shard = absorb_range(&server, &input, client_seed, 0, N);
            let merged = if left == 0 {
                server.merge(server.new_shard(), shard)
            } else {
                server.merge(shard, server.new_shard())
            };
            server.finish_shard(merged);
            prop_assert_eq!(server.finish(), truth);
        }
    }
}
