//! Allocation regressions in the steady-state streaming paths, pinned
//! with a counting global allocator: repeated checkpoints reuse their
//! snapshot buffers, and repeated mid-stream queries (`finish_at_epoch`
//! / `snapshot_shard`) reuse their pooled decode buffers — per-call
//! allocation counts must stay flat, never grow with call count.
//!
//! This file runs without libtest (`harness = false` in the root
//! `Cargo.toml`): `main` runs the one check on the process's main
//! thread. Under libtest a second thread — the harness's own, which
//! records the running test, queues its timeout and blocks in
//! `recv_timeout`, allocating as it goes — could land inside a counted
//! round when the CPU is contended. `main` takes libtest's list and
//! filter flags and prints its result lines, so `cargo test` drives this
//! binary like any other.

use ldp_heavy_hitters::prelude::*;
use ldp_heavy_hitters::sim::{run_pipelined, DynHhStream, PipelineConfig, StreamPlan};
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

/// The slack of calls that round-trip the collector fleet. They share
/// the session's one reply channel, but each wakes idle threads, and
/// whether a thread has to block — registering a waker, one allocation —
/// depends on timing: the session waiting for the fleet's replies, and
/// the workers of a cold query's parallel decode.
const FLEET_ROUND_TRIP_SLACK: u64 = 2;

/// The check's name, as libtest would report it.
const NAME: &str = "steady_state_checkpoints_and_queries_do_not_grow_allocations";

/// Run the check under a libtest-compatible command line: `--list`,
/// name filters (substring, or whole with `--exact`), `--skip <name>`,
/// `--ignored` (this check is not ignored) and `-q` / `--quiet`. Other
/// flags are accepted and ignored, with a value for those that take one.
fn main() {
    let (mut list, mut exact, mut quiet, mut ignored_only) = (false, false, false, false);
    let (mut filters, mut skips) = (Vec::new(), Vec::new());
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => list = true,
            "--exact" => exact = true,
            "-q" | "--quiet" => quiet = true,
            "--ignored" => ignored_only = true,
            "--skip" => skips.extend(args.next()),
            "--test-threads" | "--format" | "--color" | "--logfile" | "-Z" => {
                let _ = args.next();
            }
            flag if flag.starts_with('-') => {}
            filter => filters.push(filter.to_string()),
        }
    }
    let matches = |pattern: &String| {
        if exact {
            pattern == NAME
        } else {
            NAME.contains(pattern.as_str())
        }
    };
    let selected = !ignored_only
        && (filters.is_empty() || filters.iter().any(matches))
        && !skips.iter().any(matches);
    if list {
        if selected {
            println!("{NAME}: test");
        }
        return;
    }
    let (count, filtered_out) = if selected { (1, 0) } else { (0, 1) };
    println!("\nrunning {count} test{}", if selected { "" } else { "s" });
    if selected {
        if std::panic::catch_unwind(steady_state_checkpoints_and_queries_do_not_grow_allocations)
            .is_err()
        {
            println!("test {NAME} ... FAILED\n\ntest result: FAILED. 0 passed; 1 failed");
            std::process::exit(101);
        }
        if quiet {
            println!(".");
        } else {
            println!("test {NAME} ... ok");
        }
    }
    println!(
        "\ntest result: ok. {count} passed; 0 failed; 0 ignored; 0 measured; \
         {filtered_out} filtered out\n"
    );
}

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
    let mut server = Erased(make());
    let (shard, _, (per_checkpoint, per_query, per_cold_query)) =
        run_pipelined(&DynHhStream(&server), &plan, &config, seed, |session| {
            session.ingest_all(&input);

            // Steady-state checkpoints with an unchanged stream: the
            // snapshot buffers were sized by the cadence checkpoints and
            // the spools are empty, so each collector re-encodes into its
            // old buffer. The session waits on the fleet's one reply
            // channel, so beyond a timing-dependent waker (see
            // `FLEET_ROUND_TRIP_SLACK`) a round allocates nothing, and the
            // count must stay flat across rounds.
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
            let _ = session.finish_at_epoch(&mut Erased(make())); // warm-up: sizes the buffer pool
            let _ = session.finish_at_epoch(&mut Erased(make()));
            let per_query: Vec<u64> = (0..4)
                .map(|_| {
                    let mut fresh = Erased(make());
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
            let _ = session.finish_at_epoch(&mut Erased(make())); // warm the scratch pool
            let per_cold_query: Vec<u64> = (0..4)
                .map(|_| {
                    let _ = session.checkpoint(); // new stamp: next query must re-decode
                    let mut fresh = Erased(make());
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
