//! Allocation regressions in the steady-state streaming paths, pinned
//! with a counting global allocator: repeated checkpoints reuse their
//! snapshot buffers, and repeated mid-stream queries (`finish_at_epoch`
//! / `snapshot_shard`) reuse their pooled decode buffers — per-call
//! allocation counts must stay flat, never grow with call count.
//!
//! This file holds exactly one `#[test]`: the harness runs a binary's
//! tests on concurrent threads, and a second test's allocations would
//! race the counters.

use ldp_heavy_hitters::prelude::*;
use ldp_heavy_hitters::sim::{run_pipelined, HhStream, PipelineConfig, StreamPlan};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// `System`, with every allocation event counted.
struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn events() -> u64 {
    ALLOC_EVENTS.load(Ordering::Relaxed)
}

/// Whether a per-call allocation series stays flat: no call allocates
/// more than `slack` events beyond the first call.
fn flat(series: &[u64], slack: u64) -> bool {
    series.iter().all(|&count| count <= series[0] + slack)
}

/// The slack of calls that round-trip the collector fleet. Each builds a
/// reply channel and wakes idle threads, and whether a thread has to
/// block — registering a waker, one allocation — depends on timing: the
/// session waiting for the fleet's replies, and the workers of a cold
/// query's parallel decode.
const FLEET_ROUND_TRIP_SLACK: u64 = 2;

#[test]
fn steady_state_checkpoints_and_queries_do_not_grow_allocations() {
    let n = 4_000usize;
    let input = Workload::planted(256, vec![(9, 0.4)]).generate(n, 641);
    let params = ScanParams::new(n as u64, 256, 4.0, 0.1);
    let make = || ScanHeavyHitters::new(params.clone(), 642);
    let seed = 643;
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
    // One encoder on the session thread. Collector actors allocate
    // deterministically too: every session call below is a synchronous
    // round-trip, so the actors are quiescent whenever we count.
    let config = PipelineConfig {
        queue_depth: 2,
        workers: 1,
    };
    let mut server = make();
    let (shard, _, (per_checkpoint, per_query, per_cold_query)) =
        run_pipelined(&HhStream(&server), &plan, &config, seed, |session| {
            session.ingest_all(&input);

            // Steady-state checkpoints with an unchanged stream: the
            // snapshot buffers were sized by the cadence checkpoints and
            // the spools are empty, so each collector re-encodes into its
            // old buffer. `checkpoint()` itself builds a reply channel per
            // call, so the count is not zero — but it must stay flat
            // across rounds.
            let _ = session.checkpoint(); // also drains the cadence backlog
            let per_checkpoint: Vec<u64> = (0..4)
                .map(|_| {
                    let before = events();
                    let report = session.checkpoint();
                    assert_eq!(report.collectors, 2, "a collector skipped the checkpoint");
                    events() - before
                })
                .collect();

            // Repeated mid-stream queries at one checkpoint: per-query
            // allocations (the fresh server's finish, the returned list)
            // are inherent, but the count must be *flat* across calls —
            // snapshot replies land in pooled buffers after the first.
            let _ = session.finish_at_epoch(&mut make()); // warm-up: sizes the buffer pool
            let _ = session.finish_at_epoch(&mut make());
            let per_query: Vec<u64> = (0..4)
                .map(|_| {
                    let mut fresh = make();
                    let before = events();
                    let estimates = session.finish_at_epoch(&mut fresh);
                    assert!(!estimates.is_empty(), "vacuous query");
                    events() - before
                })
                .collect();

            // Cold queries with a warm FinishScratch: a checkpoint between
            // queries invalidates the memoized answer, so each query
            // re-runs the fleet query and the full decode (`finish_with`)
            // — but through the session's warm scratch and pooled snapshot
            // buffers, which keep the per-query count flat across stamps.
            let _ = session.checkpoint();
            let _ = session.finish_at_epoch(&mut make()); // warm the scratch pool
            let per_cold_query: Vec<u64> = (0..4)
                .map(|_| {
                    let _ = session.checkpoint(); // new stamp: next query must re-decode
                    let mut fresh = make();
                    let before = events();
                    let estimates = session.finish_at_epoch(&mut fresh);
                    assert!(!estimates.is_empty(), "vacuous cold query");
                    events() - before
                })
                .collect();
            (per_checkpoint, per_query, per_cold_query)
        });
    assert!(
        flat(&per_checkpoint, FLEET_ROUND_TRIP_SLACK),
        "steady-state checkpoint allocations grew across rounds: {per_checkpoint:?}"
    );
    // Warm queries answer from the memoized fold without a fleet
    // round-trip, so they get no slack.
    assert!(
        flat(&per_query, 0),
        "finish_at_epoch allocations grew across queries: {per_query:?}"
    );
    assert!(
        flat(&per_cold_query, FLEET_ROUND_TRIP_SLACK),
        "warm-scratch cold finish_at_epoch allocations grew across stamps: {per_cold_query:?}"
    );

    // The counted run must still answer correctly.
    server.finish_shard(shard);
    let serial = {
        let mut s = make();
        run_heavy_hitter(&mut s, &input, seed).estimates
    };
    assert_eq!(server.finish(), serial);
}
