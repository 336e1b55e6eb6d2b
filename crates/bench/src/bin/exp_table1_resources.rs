//! Experiments T1.time / T1.mem / T1.comm — the resource rows of Table 1.
//!
//! Measures server time, per-user time, server memory, per-user
//! communication (claimed bits *and* measured wire bytes) and
//! public-randomness size for `PrivateExpanderSketch`, Bitstogram (\[3\])
//! and the Bassily–Smith-style projection oracle (\[4\], with its
//! heavy-hitter search realized as the domain scan the paper deems
//! impractical), across n. Expected shapes per Table 1: ours/\[3\]
//! near-linear server time and O~(1) user cost with O~(√n) memory;
//! \[4\] linear-in-n memory and a per-query cost that makes domain scans
//! explode.
//!
//! Every protocol in this binary is **registry-dispatched**: rows name
//! protocols by their `hh_sim::registry` names and run them through the
//! type-erased drivers, so adding a protocol to the registry adds it to
//! the harness with no per-binary plumbing.
//!
//! Flags (anything else exits with status 2 and prints the accepted
//! flags):
//!
//! * `--serial` — drive the table rows through the serial reference
//!   runner instead of the batched driver (the default: a one-shot run
//!   of the collector fleet, one collector per worker thread, every
//!   report round-tripped through its wire encoding on the way to a
//!   collector), for before/after comparison.
//! * `--stream` — additionally stream through the collector runtime
//!   (drifting workload, per-epoch checkpoints, one collector crash +
//!   recovery) and report snapshot bytes/collector, checkpoint +
//!   recovery time, and epoch throughput next to the wire column, plus
//!   a cold + warm mid-stream query pair whose finish-phase counters
//!   (fold time, cache hits, scratch reuse) land in the record.
//! * `--finish-bench` — measure the server-side finish (decode)
//!   wall-clock: the parallel scratch-threaded `finish_with` against
//!   the forced-serial path over the four registry heavy-hitter
//!   protocols (outputs checked bit-for-bit equal), plus incremental
//!   mid-stream finalization — `finish_at_epoch` cold (first query
//!   after a checkpoint, pays the fold once) and warm (memoized) against
//!   a from-scratch snapshot decode + finish.
//! * `--quick` — small-n profile (CI smoke runs).
//! * `--json` — additionally run the serial-vs-batched comparison and
//!   the collector-count merge-scaling sweep, imply `--stream` and
//!   `--finish-bench` (the document is always written whole), and write
//!   the machine-readable record (the perf-trajectory baseline tracked
//!   across PRs).
//! * `--json-out <path>` — `--json`, written to `<path>` instead of
//!   `BENCH_table1.json`.

use hh_bench::{banner, fmt_dur, json_array, JsonObject, Table};
use hh_freq::wire::WireFrames;
use hh_math::rng::derive_seed;
use hh_math::FinishScratch;
use hh_sim::registry::{build_hh, build_oracle, ProtocolSpec};
use hh_sim::{
    run_dyn_heavy_hitter, run_dyn_oracle, run_heavy_hitter_batched, run_heavy_hitter_distributed,
    run_oracle_distributed, run_pipelined, BatchPlan, DistPlan, DynHhProtocol, DynHhStream,
    FinishPhase, OracleRun, PipelineConfig, PipelineSession, ProtocolRun, StreamIngest, StreamPlan,
    StreamWorkload, Workload,
};
use std::time::Instant;

/// The accepted command line, for the usage line printed on a bad one.
const USAGE: &str = "usage: exp_table1_resources [--serial] [--stream] [--finish-bench] \
                     [--quick] [--json] [--json-out <path>]";

/// The parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Args {
    /// Drive the table rows through the serial reference driver instead
    /// of the batched one.
    serial: bool,
    stream: bool,
    finish_bench: bool,
    quick: bool,
    /// Where to write the JSON document (`None` = don't write one).
    json_out: Option<String>,
}

/// Parse the arguments after the program name. Any flag not in
/// [`USAGE`] is an error, so a script passing a removed mode fails
/// instead of silently measuring nothing.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args::default();
    let mut json = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--serial" => out.serial = true,
            "--stream" => out.stream = true,
            "--finish-bench" => out.finish_bench = true,
            "--quick" => out.quick = true,
            "--json" => json = true,
            "--json-out" => match it.next() {
                Some(path) if !path.starts_with("--") => out.json_out = Some(path.clone()),
                Some(path) => {
                    return Err(format!(
                        "--json-out needs a path, got flag-like value {path:?}"
                    ))
                }
                None => return Err("--json-out needs a path".to_string()),
            },
            other => return Err(format!("unrecognised argument {other:?}")),
        }
    }
    if json && out.json_out.is_none() {
        out.json_out = Some("BENCH_table1.json".to_string());
    }
    // The JSON document is written whole: every section is measured.
    if out.json_out.is_some() {
        out.stream = true;
        out.finish_bench = true;
    }
    Ok(out)
}

/// How many leading users the `--serial` rows sample to measure mean
/// wire bytes (the fleet measures end-to-end instead).
const WIRE_SAMPLE_CAP: usize = 1 << 13;
/// Client seed of the wire-size sample (any fixed value works — report
/// sizes concentrate; fixed so reruns print identical columns).
const WIRE_SAMPLE_SEED: u64 = 0x317E;

/// Mean encoded report size over a leading sample of the population,
/// measured through the fused wire path `encode` (`respond_encode_batch`
/// from user 0 at [`WIRE_SAMPLE_SEED`]).
fn sample_wire_bytes(data: &[u64], encode: impl FnOnce(&[u64], &mut Vec<u8>)) -> f64 {
    let sample = &data[..data.len().min(WIRE_SAMPLE_CAP)];
    let mut buf = Vec::new();
    encode(sample, &mut buf);
    buf.len() as f64 / sample.len().max(1) as f64
}

/// One table row's run and its mean wire bytes per user: measured end
/// to end through the fleet by default, sampled under `--serial`.
fn drive(
    server: &mut dyn DynHhProtocol,
    data: &[u64],
    seed: u64,
    serial: bool,
) -> (ProtocolRun, f64) {
    if serial {
        let wire = sample_wire_bytes(data, |xs, buf| {
            server.respond_encode_batch(0, xs, WIRE_SAMPLE_SEED, buf);
        });
        (run_dyn_heavy_hitter(server, data, seed), wire)
    } else {
        let plan = BatchPlan::default().fleet(data.len());
        let d = run_heavy_hitter_distributed(server, data, seed, &plan);
        let wire = d.wire_bytes_per_user();
        (d.into(), wire)
    }
}

/// One serial-vs-batched wall-clock comparison of a registry protocol.
/// Returns the JSON record and the serial estimates (reused by
/// [`merge_scaling`] as the equality reference, so the serial run
/// happens once).
fn compare_at_scale(
    name: &str,
    spec: &ProtocolSpec,
    data: &[u64],
    seed: u64,
) -> (String, Vec<(u64, f64)>) {
    let serial = {
        let mut s = build_hh(name, spec).expect("registered protocol");
        run_dyn_heavy_hitter(s.as_mut(), data, seed)
    };
    let plan = BatchPlan::default();
    let batched = {
        let mut s = build_hh(name, spec).expect("registered protocol");
        run_heavy_hitter_batched(s.as_mut(), data, seed, &plan)
    };
    assert_eq!(
        serial.estimates, batched.estimates,
        "{name}: batched output diverged from serial"
    );
    let speedup = serial.total_time().as_secs_f64() / batched.total_time().as_secs_f64();
    println!(
        "  {name:>16}: serial {} | batched {} ({} threads, chunk {}) | speedup x{speedup:.2}",
        fmt_dur(serial.total_time()),
        fmt_dur(batched.total_time()),
        batched.threads,
        plan.chunk_size,
    );
    let json = JsonObject::new()
        .str("protocol", name)
        .int("n", data.len() as u64)
        .int("threads", batched.threads as u64)
        .int("chunk_size", plan.chunk_size as u64)
        .num("serial_total_secs", serial.total_time().as_secs_f64())
        .num("serial_client_secs", serial.client_total.as_secs_f64())
        .num("serial_ingest_secs", serial.server_ingest.as_secs_f64())
        .num("serial_finish_secs", serial.server_finish.as_secs_f64())
        .num("batched_total_secs", batched.total_time().as_secs_f64())
        .num("batched_client_secs", batched.client_total.as_secs_f64())
        .num("batched_ingest_secs", batched.server_ingest.as_secs_f64())
        .num("batched_finish_secs", batched.server_finish.as_secs_f64())
        .num("speedup_total", speedup)
        .build();
    (json, serial.estimates)
}

/// Collector-count scaling: distributed runs at k ∈ {1, 2, 8}, each
/// checked bit-for-bit against the caller's serial reference estimates,
/// returned as JSON records.
fn merge_scaling(
    name: &str,
    spec: &ProtocolSpec,
    data: &[u64],
    seed: u64,
    serial: &[(u64, f64)],
) -> Vec<String> {
    let mut out = Vec::new();
    for collectors in [1usize, 2, 8] {
        let mut s = build_hh(name, spec).expect("registered protocol");
        let run = run_heavy_hitter_distributed(
            s.as_mut(),
            data,
            seed,
            &DistPlan::with_collectors(collectors),
        );
        assert_eq!(
            run.estimates, serial,
            "{name}: distributed output diverged at k = {collectors}"
        );
        println!(
            "  {name:>16} @ k={collectors}: wire {:.2} B/user | ingest {} | merge {} | total {}",
            run.wire_bytes_per_user(),
            fmt_dur(run.server_ingest),
            fmt_dur(run.server_merge),
            fmt_dur(run.total_time()),
        );
        out.push(
            JsonObject::new()
                .str("protocol", name)
                .int("n", data.len() as u64)
                .int("collectors", collectors as u64)
                .int("wire_bytes_total", run.wire_bytes)
                .num("wire_bytes_per_user", run.wire_bytes_per_user())
                .num("client_secs", run.client_total.as_secs_f64())
                .num("ingest_secs", run.server_ingest.as_secs_f64())
                .num("merge_secs", run.server_merge.as_secs_f64())
                .num("finish_secs", run.server_finish.as_secs_f64())
                .num("total_secs", run.total_time().as_secs_f64())
                .build(),
        );
    }
    out
}

/// One streaming measurement through the collector runtime: `epochs`
/// epochs of a drifting (Zipf-ramp, jittered-arrival) workload over a
/// `collectors`-node fleet with per-epoch checkpoints, one collector
/// crash after `epochs/2` epochs and recovery one epoch later — verified
/// bit-for-bit against the serial one-shot run, reported as a JSON
/// record.
fn stream_run(name: &str, spec: &ProtocolSpec, n_per_epoch: usize, seed: u64) -> String {
    let epochs = 6u64;
    let collectors = 4usize;
    let workload = StreamWorkload::zipf_ramp(spec.domain, 1.05, 1.4, epochs as usize, 0.15);
    let plan = StreamPlan {
        epoch_size: n_per_epoch,
        checkpoint_every: 1,
        dist: DistPlan {
            collectors,
            chunk_size: (n_per_epoch / 8).max(1),
            ..DistPlan::default()
        },
    };

    let mut server = build_hh(name, spec).expect("registered protocol");
    let mut all_data = Vec::new();
    let ingest = DynHhStream(server.as_ref());
    let config = PipelineConfig::default();
    let (shard, stats, (ingest_secs, recovery_secs)) =
        run_pipelined(&ingest, &plan, &config, seed, |session| {
            let t = Instant::now();
            let mut recovery_secs = 0.0;
            for epoch in 0..epochs {
                let batch = workload.generate_epoch(epoch, n_per_epoch, seed ^ 0x57);
                session.ingest_epoch(&batch);
                all_data.extend_from_slice(&batch);
                if epoch == epochs / 2 {
                    session.kill_collector(1);
                }
                if epoch == epochs / 2 + 1 {
                    recovery_secs = session.recover_collector(1).elapsed.as_secs_f64();
                }
            }
            // Ingest ends when every collector has absorbed and
            // checkpointed the last epoch: a synchronous checkpoint
            // waits for exactly that.
            session.checkpoint();
            let ingest_secs = t.elapsed().as_secs_f64();
            // A cold + warm mid-stream query pair: the cold query folds
            // the durable view at the current checkpoint stamp once, the
            // warm repeat answers from the memoized fold — their
            // finish-phase counters land in the record below.
            let mut probe = build_hh(name, spec).expect("registered protocol");
            let cold = session.finish_at_epoch(probe.as_mut());
            let mut probe = build_hh(name, spec).expect("registered protocol");
            let warm = session.finish_at_epoch(probe.as_mut());
            assert_eq!(cold, warm, "{name}: warm mid-stream query diverged");
            (ingest_secs, recovery_secs)
        });
    let snapshot_total = stats.snapshot_bytes_last;
    server.finish_shard(shard);
    let estimates = server.finish();

    let serial = {
        let mut s = build_hh(name, spec).expect("registered protocol");
        run_dyn_heavy_hitter(s.as_mut(), &all_data, seed).estimates
    };
    assert_eq!(estimates, serial, "{name}: streamed output diverged");

    let throughput = stats.users as f64 / ingest_secs.max(1e-9);
    let checkpoint_mean = stats.checkpoint_total.as_secs_f64() / stats.checkpoints.max(1) as f64;
    println!(
        "  {name:>16}: {} users / {} epochs | {:.0} users/s | snapshot {:.1} KiB/collector \
         | checkpoint {} (mean busy) | recovery {} ({} reports replayed)",
        stats.users,
        stats.epochs,
        throughput,
        snapshot_total as f64 / collectors as f64 / 1024.0,
        fmt_dur(std::time::Duration::from_secs_f64(checkpoint_mean)),
        fmt_dur(std::time::Duration::from_secs_f64(recovery_secs)),
        stats.replayed_reports,
    );
    let phase = FinishPhase::from_stats(&stats);
    println!(
        "  {:>16}  finish phase: {} queries ({} cached) | fold {} | scratch reuse {:.0}%",
        "",
        phase.queries,
        phase.cache_hits,
        fmt_dur(std::time::Duration::from_secs_f64(phase.fold_secs)),
        100.0 * phase.scratch_reuse_rate(),
    );
    JsonObject::new()
        .str("protocol", name)
        .int("n", stats.users)
        .int("epochs", stats.epochs)
        .int("collectors", collectors as u64)
        .int("wire_bytes_total", stats.wire_bytes)
        .num(
            "wire_bytes_per_user",
            stats.wire_bytes as f64 / stats.users.max(1) as f64,
        )
        .int("snapshot_bytes_total", snapshot_total)
        .num(
            "snapshot_bytes_per_collector",
            snapshot_total as f64 / collectors as f64,
        )
        .int("checkpoints", stats.checkpoints)
        .num(
            "checkpoint_secs_total",
            stats.checkpoint_total.as_secs_f64(),
        )
        .num("checkpoint_secs_mean", checkpoint_mean)
        .num("recovery_secs", recovery_secs)
        .int("replayed_reports", stats.replayed_reports)
        .num("epoch_ingest_secs", ingest_secs)
        .num("epoch_users_per_sec", throughput)
        .int("finish_queries", phase.queries)
        .num("finish_secs_total", phase.finish_secs)
        .num("fold_secs", phase.fold_secs)
        .int("finish_cache_hits", phase.cache_hits)
        .int("scratch_reused", phase.scratch_reused)
        .int("scratch_fresh", phase.scratch_fresh)
        .build()
}

/// One serial-vs-parallel finish (server decode) measurement of a
/// registry heavy-hitter protocol: the population is ingested once
/// through the fused wire path and the merged shard snapshot-encoded
/// once; each rep then rebuilds the server, re-decodes that snapshot
/// and times `finish_with` alone — the forced-serial scratch against
/// the auto-threaded one — order-alternated, median-of-REPS leg times
/// with the speedup taken as the median of per-rep paired ratios, after
/// an unmeasured warmup pair, with the two outputs checked bit-for-bit
/// equal.
fn finish_throughput(name: &str, spec: &ProtocolSpec, data: &[u64], seed: u64) -> Vec<String> {
    // Rep count adapts to the protocol's finish cost: the two legs run
    // identical instructions when the box has one hardware thread, so
    // the signal is at the noise floor and the paired-ratio median
    // needs as many pairs as a ~10 s budget affords (odd, so both
    // orderings of the alternating pair appear equally often up to one).
    const MIN_REPS: usize = 9;
    const MAX_REPS: usize = 41;
    const TARGET_SECS: f64 = 10.0;

    // Ingest once; every timed rep re-hydrates from this snapshot
    // instead of re-running the client + ingest phases, so the clock
    // covers exactly the decode the tentpole parallelized.
    let shard_bytes = {
        let server = build_hh(name, spec).expect("registered protocol");
        let ingest = DynHhStream(server.as_ref());
        let chunk = 1usize << 12;
        let mut shard = ingest.new_shard();
        let mut buf = Vec::new();
        for (c, xs) in data.chunks(chunk).enumerate() {
            let start = (c * chunk) as u64;
            buf.clear();
            let lens = ingest.respond_encode_batch(start, xs, seed, &mut buf);
            let frames = WireFrames::new(&buf, &lens).expect("well-framed chunk");
            ingest
                .absorb_wire(&mut shard, start, &frames)
                .expect("wire absorb");
        }
        let mut bytes = Vec::new();
        ingest.encode_shard_into(&shard, &mut bytes);
        bytes
    };

    // Both legs share ONE scratch and differ only in its `threads`
    // knob: with two scratch objects the comparison also measures the
    // heap/page placement their pooled buffers happened to get, which
    // shows up as a persistent phantom percent-level edge for one
    // object (an A/B control with identical knobs reproduces it).
    // `FINISH_BENCH_AB_CONTROL` keeps the "parallel" leg's knob serial
    // too — a harness self-check that must center on x1.00.
    let par_threads = if std::env::var_os("FINISH_BENCH_AB_CONTROL").is_some() {
        1
    } else {
        0
    };
    let mut scratch = FinishScratch::serial();
    let mut run = |threads: usize| {
        let mut server = build_hh(name, spec).expect("registered protocol");
        let shard = server.decode_shard(&shard_bytes).expect("snapshot decodes");
        server.finish_shard(shard);
        scratch.threads = threads;
        let t = Instant::now();
        let estimates = server.finish_with(&mut scratch);
        (t.elapsed().as_secs_f64(), estimates)
    };

    let (warmup_secs, reference) = run(1);
    let (_, par_est) = run(par_threads);
    assert_eq!(
        par_est, reference,
        "{name}: parallel finish diverged from serial"
    );
    let reps =
        ((TARGET_SECS / (2.0 * warmup_secs.max(1e-9))) as usize).clamp(MIN_REPS, MAX_REPS) | 1;
    let mut serial_samples = Vec::with_capacity(reps);
    let mut par_samples = Vec::with_capacity(reps);
    let mut pair_ratios = Vec::with_capacity(reps);
    // Alternate which leg runs first each rep: whichever run executes
    // second in a pair inherits the first's cache/allocator state, so a
    // fixed order shows a phantom percent-level edge for one leg. The
    // speedup is then the median of the *per-rep* serial/parallel
    // ratios — each ratio compares two adjacent-in-time runs (immune to
    // slow machine drift across the section) and the alternation puts
    // both legs in both positions, so position bias cancels at the
    // median. `FINISH_BENCH_TRACE=1` dumps every raw sample.
    for rep in 0..reps {
        let mut secs_of = [0.0f64; 2]; // [serial, parallel] this rep
        let legs: [(usize, usize, &str); 2] = if rep % 2 == 0 {
            [(1, 0, "serial"), (par_threads, 1, "parallel")]
        } else {
            [(par_threads, 1, "parallel"), (1, 0, "serial")]
        };
        for (pos, (threads, slot, leg)) in legs.into_iter().enumerate() {
            let (secs, est) = run(threads);
            if std::env::var_os("FINISH_BENCH_TRACE").is_some() {
                eprintln!("TRACE {name} rep={rep} pos={pos} leg={leg} secs={secs:.6}");
            }
            secs_of[slot] = secs;
            assert_eq!(est, reference, "{name}: {leg} finish diverged");
        }
        serial_samples.push(secs_of[0]);
        par_samples.push(secs_of[1]);
        pair_ratios.push(secs_of[0] / secs_of[1].max(1e-9));
    }
    let median = |samples: &mut Vec<f64>| {
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        samples[samples.len() / 2]
    };
    let serial_secs = median(&mut serial_samples);
    let par_secs = median(&mut par_samples);
    let speedup = median(&mut pair_ratios);

    println!(
        "  {name:>16}: serial finish {} | parallel finish {} ({} threads) | x{:.2}",
        fmt_dur(std::time::Duration::from_secs_f64(serial_secs)),
        fmt_dur(std::time::Duration::from_secs_f64(par_secs)),
        rayon::current_num_threads(),
        speedup,
    );
    let record = |path: &str, secs: f64| {
        JsonObject::new()
            .str("protocol", name)
            .str("path", path)
            .int("n", data.len() as u64)
            .int("domain", spec.domain)
            .num("finish_secs", secs)
    };
    vec![
        record("serial", serial_secs).build(),
        record("parallel", par_secs)
            .int("threads", rayon::current_num_threads() as u64)
            .num("speedup_vs_serial", speedup)
            .build(),
    ]
}

/// A from-scratch mid-stream answer — decode every collector's snapshot,
/// merge, fresh finish: what every query cost before the fold cache —
/// and its wall-clock time.
fn from_scratch_query(
    session: &mut PipelineSession<'_, DynHhStream<'_>>,
    name: &str,
    spec: &ProtocolSpec,
) -> (f64, Vec<(u64, f64)>) {
    let t = Instant::now();
    let mut s = build_hh(name, spec).expect("registered protocol");
    let shard = session.snapshot_shard().expect("cadence checkpointed");
    s.finish_shard(shard);
    let est = s.finish();
    (t.elapsed().as_secs_f64(), est)
}

/// Incremental vs from-scratch mid-stream finalization: ingest a
/// checkpointed stream once, then time three ways of answering the same
/// query — (a) from scratch ([`from_scratch_query`]), (b) the first
/// incremental `finish_at_epoch` at a new checkpoint stamp (pays the
/// fold once, into the warm scratch), and (c) a warm repeat (memoized
/// answer). Best-of-REPS each, all three outputs checked bit-for-bit
/// equal.
fn incremental_finish(
    name: &str,
    spec: &ProtocolSpec,
    n_per_epoch: usize,
    seed: u64,
) -> Vec<String> {
    const REPS: usize = 5;
    let collectors = 4usize;
    let server = build_hh(name, spec).expect("registered protocol");
    let plan = StreamPlan {
        epoch_size: n_per_epoch,
        checkpoint_every: 1,
        dist: DistPlan {
            collectors,
            chunk_size: (n_per_epoch / 8).max(1),
            ..DistPlan::default()
        },
    };
    let data = Workload::zipf(spec.domain, 1.2).generate(spec.n as usize, seed ^ 0x77);
    let fresh = || build_hh(name, spec).expect("registered protocol");
    let config = PipelineConfig::default();
    let (_, _, (scratch_secs, cold_secs, warm_secs)) = run_pipelined(
        &DynHhStream(server.as_ref()),
        &plan,
        &config,
        seed,
        |session| {
            session.ingest_all(&data);
            let (_, reference) = from_scratch_query(session, name, spec);
            let mut scratch_secs = f64::INFINITY;
            let mut cold_secs = f64::INFINITY;
            let mut warm_secs = f64::INFINITY;
            for _ in 0..REPS {
                let (secs, est) = from_scratch_query(session, name, spec);
                scratch_secs = scratch_secs.min(secs);
                assert_eq!(
                    est, reference,
                    "{name}: from-scratch query not reproducible"
                );
                // A checkpoint with an unchanged stream re-stamps the
                // durable view, so the next query is genuinely cold
                // (re-folds).
                session.checkpoint();
                let mut s = fresh();
                let t = Instant::now();
                let est = session.finish_at_epoch(s.as_mut());
                cold_secs = cold_secs.min(t.elapsed().as_secs_f64());
                assert_eq!(est, reference, "{name}: cold incremental query diverged");
                let mut s = fresh();
                let t = Instant::now();
                let est = session.finish_at_epoch(s.as_mut());
                warm_secs = warm_secs.min(t.elapsed().as_secs_f64());
                assert_eq!(est, reference, "{name}: warm incremental query diverged");
            }
            (scratch_secs, cold_secs, warm_secs)
        },
    );

    println!(
        "  {name:>16}: from-scratch {} | incremental cold {} (x{:.2}) | warm {} (x{:.0})",
        fmt_dur(std::time::Duration::from_secs_f64(scratch_secs)),
        fmt_dur(std::time::Duration::from_secs_f64(cold_secs)),
        scratch_secs / cold_secs.max(1e-9),
        fmt_dur(std::time::Duration::from_secs_f64(warm_secs)),
        scratch_secs / warm_secs.max(1e-9),
    );
    let record = |path: &str, secs: f64| {
        JsonObject::new()
            .str("protocol", name)
            .str("path", path)
            .int("n", spec.n)
            .int("domain", spec.domain)
            .int("collectors", collectors as u64)
            .num("finish_secs", secs)
            .num("speedup_vs_from_scratch", scratch_secs / secs.max(1e-9))
            .build()
    };
    vec![
        record("from_scratch", scratch_secs),
        record("incremental_cold", cold_secs),
        record("incremental_warm", warm_secs),
    ]
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("exp_table1_resources: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let (serial, quick) = (args.serial, args.quick);

    banner(
        "T1.time / T1.mem / T1.comm — Table 1 resource rows",
        "ours,[3]: O~(n) server, O~(1) user, O~(sqrt n) memory, O(1) comm; [4]: O(n) memory, O(n) per query",
    );
    println!(
        "driver: {}\n",
        if serial {
            "serial (--serial)"
        } else {
            "batched: one-shot collector fleet (default; wire round-trip, tree merge)"
        }
    );
    let bits = 20u32;
    let eps = 4.0;
    let beta = 0.1;
    let logns: &[u32] = if quick { &[12, 13] } else { &[14, 16, 18] };

    // The registry-dispatched heavy-hitter rows: display label, registry
    // name, construction seed, run seed, public-randomness note.
    let hh_rows: &[(&str, &str, u64, u64, &str)] = &[
        ("ours", "expander_sketch", 1, 2, "64 bits (one seed)"),
        ("bitstogram [3]", "bitstogram", 3, 4, "64 bits (one seed)"),
    ];

    let mut t = Table::new(&[
        "protocol",
        "n",
        "server",
        "user(mean)",
        "memory",
        "claim bits",
        "wire B/user",
        "pub rand",
    ]);
    for &logn in logns {
        let n = 1u64 << logn;
        let workload = Workload::zipf(1u64 << bits, 1.2);
        let data = workload.generate(n as usize, derive_seed(7, u64::from(logn)));
        let spec = |seed| ProtocolSpec {
            n,
            domain: 1u64 << bits,
            eps,
            beta,
            seed,
        };

        for &(display, name, build_seed, run_seed, pub_rand) in hh_rows {
            let mut s = build_hh(name, &spec(build_seed)).expect("registered protocol");
            let (run, wire) = drive(s.as_mut(), &data, run_seed, serial);
            t.row(&[
                display.into(),
                format!("2^{logn}"),
                fmt_dur(run.server_time()),
                fmt_dur(run.user_time()),
                format!("{} KiB", run.memory_bytes / 1024),
                run.report_bits.to_string(),
                format!("{wire:.2}"),
                pub_rand.into(),
            ]);
        }

        // Bassily–Smith FO with w = n rows; query cost O(n) each. A
        // full heavy-hitter scan would be n·|X| — measure a 512-query
        // slice and extrapolate.
        let mut o = build_oracle("bassily_smith", &spec(5)).expect("registered oracle");
        let queries: Vec<u64> = (0..512u64).collect();
        // Under the same driver as the other rows.
        let (run, wire): (OracleRun, f64) = if serial {
            let wire = sample_wire_bytes(&data, |xs, buf| {
                o.respond_encode_batch(0, xs, WIRE_SAMPLE_SEED, buf);
            });
            (run_dyn_oracle(o.as_mut(), &data, &queries, 6), wire)
        } else {
            let plan = BatchPlan::default().fleet(data.len());
            let d = run_oracle_distributed(o.as_mut(), &data, &queries, 6, &plan);
            let wire = d.wire_bytes_per_user();
            (d.into(), wire)
        };
        let full_scan = run.query_total.as_secs_f64() / 512.0 * (1u64 << bits) as f64;
        t.row(&[
            "bassily-smith [4]".into(),
            format!("2^{logn}"),
            format!(
                "{} (+{} scan-extrapolated)",
                fmt_dur(run.server_build),
                fmt_dur(std::time::Duration::from_secs_f64(full_scan))
            ),
            fmt_dur(std::time::Duration::from_nanos(
                (run.client_total.as_nanos() as u64) / n,
            )),
            format!("{} KiB", run.memory_bytes / 1024),
            run.report_bits.to_string(),
            format!("{wire:.2}"),
            "64 bits (hash-compressed Phi)".into(),
        ]);
    }
    t.print();
    println!("\nnotes:");
    if !serial {
        println!("  - batched driver: user(mean) is the encode phase's wall-clock / n, a lower");
        println!("    bound on per-user compute at >1 thread; use --serial for the paper's");
        println!("    per-user cost metric.");
    }
    println!("  - all rows dispatch through hh_sim::registry (type-erased protocols);");
    println!("    the serial driver ingests per-user through the same wire path.");
    println!("  - claim bits is report_bits() (the protocol's worst-case message claim);");
    println!("    wire B/user is the measured mean size of the actual encoded reports");
    println!("    (end-to-end through the collector fleet; a leading sample under");
    println!("    --serial). The wire_conformance tests pin wire <= ceil(claim / 8)");
    println!("    bytes per report.");
    println!("  - [4]'s Table-1 entries (n^1.5 user, n^2.5 server, n^1.5 public coins)");
    println!("    assume explicitly materialized public randomness; our implementation");
    println!("    hash-compresses Phi (the option their footnote 2 concedes), so the");
    println!("    measured gap shows in memory (linear in n) and the scan-extrapolated");
    println!("    heavy-hitter search time (linear in |X|), not in raw report cost.");
    println!("  - ours/[3]: user time flat in n, memory ~sqrt(n) — the Table 1 shapes.");

    let mut stream_records = Vec::new();
    if args.stream {
        let n_per_epoch = if quick { 1usize << 12 } else { 1 << 16 };
        let n_total = 6 * n_per_epoch;
        println!(
            "\n— streaming through the collector runtime (6 epochs x ~{n_per_epoch} users, 4 collectors, \
             Zipf-ramp drift, per-epoch checkpoints, 1 crash + recovery) —\n"
        );
        stream_records.push(stream_run(
            "expander_sketch",
            &ProtocolSpec {
                n: n_total as u64,
                domain: 1u64 << bits,
                eps,
                beta,
                seed: 21,
            },
            n_per_epoch,
            22,
        ));
        stream_records.push(stream_run(
            "scan",
            &ProtocolSpec {
                n: n_total as u64,
                domain: 1u64 << 16,
                eps,
                beta,
                seed: 23,
            },
            n_per_epoch,
            24,
        ));
    }

    let mut finish_records = Vec::new();
    if args.finish_bench {
        println!(
            "\n— finish (server decode) wall-clock: parallel `finish_with` vs forced-serial, \
             registry-dispatched; incremental mid-stream finalization vs from-scratch —\n"
        );
        let spec = |n: usize, domain, seed| ProtocolSpec {
            n: n as u64,
            domain,
            eps,
            beta,
            seed,
        };

        // 2^16 keeps the slowest row (the expander's list-recovery
        // decode, ~seconds per finish) stable without the whole sweep
        // taking minutes per rep.
        let n = if quick { 1usize << 13 } else { 1 << 16 };
        let data = Workload::zipf(1u64 << bits, 1.2).generate(n, 171);
        finish_records.extend(finish_throughput(
            "expander_sketch",
            &spec(n, 1u64 << bits, 61),
            &data,
            62,
        ));
        finish_records.extend(finish_throughput(
            "bitstogram",
            &spec(n, 1u64 << bits, 63),
            &data,
            64,
        ));
        let scan_domain = 1u64 << 16;
        let scan_data: Vec<u64> = data.iter().map(|&x| x & (scan_domain - 1)).collect();
        finish_records.extend(finish_throughput(
            "scan",
            &spec(n, scan_domain, 65),
            &scan_data,
            66,
        ));
        // Bassily–Smith's finish is the domain scan at O(w) = O(n) per
        // query — n·|X| total work; small n and domain keep the row
        // affordable while still timing the parallelized sweep.
        let bs_n = if quick { 1usize << 10 } else { 1 << 13 };
        let bs_domain = 1u64 << 10;
        let bs_data: Vec<u64> = data[..bs_n].iter().map(|&x| x & (bs_domain - 1)).collect();
        finish_records.extend(finish_throughput(
            "bassily_smith_hh",
            &spec(bs_n, bs_domain, 67),
            &bs_data,
            68,
        ));

        let inc_n = if quick { 1usize << 12 } else { 1 << 14 };
        finish_records.extend(incremental_finish(
            "expander_sketch",
            &spec(inc_n, 1u64 << bits, 69),
            inc_n / 4,
            70,
        ));
    }

    let mut runs = Vec::new();
    let mut scaling = Vec::new();
    if let Some(json_out) = &args.json_out {
        let n = if quick { 100_000usize } else { 1_000_000 };
        println!("\n— serial vs batched pipeline at n = {n} (planted workload) —\n");
        let workload = Workload::planted(1u64 << bits, vec![(0xBEEF, 0.3)]);
        let data = workload.generate(n, 97);

        let sketch_spec = ProtocolSpec {
            n: n as u64,
            domain: 1u64 << bits,
            eps,
            beta,
            seed: 11,
        };
        let (json, sketch_serial) = compare_at_scale("expander_sketch", &sketch_spec, &data, 12);
        runs.push(json);

        let scan_domain = 1u64 << 16;
        let scan_data: Vec<u64> = data.iter().map(|&x| x & (scan_domain - 1)).collect();
        let scan_spec = ProtocolSpec {
            n: n as u64,
            domain: scan_domain,
            eps,
            beta,
            seed: 13,
        };
        let (json, scan_serial) = compare_at_scale("scan", &scan_spec, &scan_data, 14);
        runs.push(json);

        println!("\n— collector-count scaling (wire round-trip, tree merge) —\n");
        scaling.extend(merge_scaling(
            "expander_sketch",
            &sketch_spec,
            &data,
            12,
            &sketch_serial,
        ));
        scaling.extend(merge_scaling(
            "scan",
            &scan_spec,
            &scan_data,
            14,
            &scan_serial,
        ));

        let doc = JsonObject::new()
            .str("experiment", "table1_resources_serial_vs_batched")
            .int("n", n as u64)
            .int("hardware_threads", rayon::current_num_threads() as u64)
            .str("workload", "planted(0.3 heavy over 2^20 / 2^16 domains)")
            .raw("runs", json_array(runs))
            .raw("merge_scaling", json_array(scaling))
            .raw("stream", json_array(stream_records))
            .raw("finish", json_array(finish_records))
            .build();
        std::fs::write(json_out, format!("{doc}\n"))
            .unwrap_or_else(|e| panic!("write {json_out}: {e}"));
        println!("\nwrote {json_out}");
    } else if args.stream || args.finish_bench {
        // Without --json the tracked baseline document would be written
        // with its sections empty — never clobber it; the measurements
        // (and their bit-for-bit checks) above are the smoke value.
        println!("\n(pass --json / --json-out to record these rows into the JSON baseline)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn no_flags_is_the_batched_table() {
        assert_eq!(parse(&[]), Ok(Args::default()));
        assert!(!Args::default().serial);
    }

    #[test]
    fn known_flags_parse() {
        let args = parse(&["--serial", "--quick", "--finish-bench"]).expect("valid");
        assert!(args.serial);
        assert!(args.quick && args.finish_bench && !args.stream);
        assert_eq!(args.json_out, None);
    }

    #[test]
    fn json_writes_the_whole_document() {
        let args = parse(&["--json"]).expect("valid");
        assert_eq!(args.json_out.as_deref(), Some("BENCH_table1.json"));
        assert!(args.stream && args.finish_bench);
        let args = parse(&["--json-out", "out.json", "--quick"]).expect("valid");
        assert_eq!(args.json_out.as_deref(), Some("out.json"));
        assert!(args.stream && args.finish_bench && args.quick);
    }

    #[test]
    fn removed_and_unknown_flags_are_rejected() {
        // Removed modes fail as unknown flags, next to any valid one.
        let removed = "--pipeline --ingest-bench --client-bench --distributed";
        for flag in removed.split_whitespace().chain(["--bogus", "quick"]) {
            for valid in ["--quick", "--serial"] {
                let err = parse(&[valid, flag]).expect_err(flag);
                assert!(err.contains(flag), "{flag}: {err}");
            }
        }
    }

    #[test]
    fn bad_combinations_are_rejected() {
        assert!(parse(&["--json-out"]).is_err());
        assert!(parse(&["--json-out", "--quick"]).is_err());
    }
}
