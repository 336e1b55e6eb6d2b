//! The heavy-hitter server benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sketch_batch|sketch_stream|scan_stream|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run generates its inputs from the seed, repeats the workload
//! for the given seconds, checks every output against the serial
//! reference driver, and prints a report. The last line of standard
//! output is one JSON object: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics of a separate traced run with `--trace 1`.

mod cpus;
mod layers;
mod stats;
mod trace;
mod workloads;

use layers::PER_LAYER;
use stats::{describe, median, percentile, supported_percentile};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{
    inputs, matches_reference, reference, run_rep, setup_trial, Knobs, Output, Rep, Workload, BETA,
    EPS, PUBLIC_SEED,
};

/// Set-up trials per CPU in each round. Set-up takes well under a
/// millisecond, so each round takes many samples on every CPU.
const SETUP_TRIALS: usize = 100;

/// Every end-to-end metric, with its unit and better direction, in the
/// order `BENCHMARK.json` lists them.
const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("ingest_users_per_s", "1/s", "higher"),
    ("answer_s", "s", "lower"),
    ("op_p50_ms", "ms", "lower"),
    ("op_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("wire_bytes_per_user", "bytes", "lower"),
    ("snapshot_bytes_per_user", "bytes", "lower"),
    ("recall", "share", "higher"),
];

const FLAGS: &str = "--workload, --seed, --seconds, --trace";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn workload_names() -> String {
    let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    names.push("all");
    names.join(", ")
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(match name.as_str() {
                    "all" => None,
                    _ => Some(Workload::parse(&name).ok_or_else(|| {
                        format!(
                            "unknown workload {name:?}; valid workloads: {}",
                            workload_names()
                        )
                    })?),
                });
            }
            "--seed" => {
                let v = value()?;
                seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed {v:?}: not an integer"))?,
                );
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds {v:?}: not a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds {v:?}: must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v:?}: must be 0 or 1")),
                });
            }
            other => return Err(format!("unknown flag {other:?}; valid flags: {FLAGS}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or(format!(
            "--workload is required; valid workloads: {}",
            workload_names()
        ))?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; a non-finite value (nothing measured) becomes 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`).
fn read_peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout when it is a git work tree.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none (not a git checkout)".to_string(),
    };
    let Some(name) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{name}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unresolved {name}"))
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Role {
    Warmup,
    Plain,
    Traced,
}

/// The result of measuring one workload.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(*v),
                    json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn measure(w: Workload, args: &Args, command: &str) -> Outcome {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let shape = w.shape(false);
    let knobs = Knobs::new(nproc);
    let inp = inputs(&shape, args.seed);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let provenance = format!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"command\": {}, \"git_rev\": {}, \"nproc\": {nproc}, \
         \"shape\": {}, \"eps\": {EPS}, \"beta\": {BETA}, \"public_seed\": {PUBLIC_SEED}, \"knobs\": {}, \
         \"query_finish_threads\": \"the session's own scratch: all {nproc} hardware threads\"}}}}",
        json_str(w.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(command),
        json_str(&git_rev()),
        json_str(&format!("{shape:?}")),
        json_str(&format!("{knobs:?}")),
    );
    println!("{provenance}");

    // Set-up samples, per CPU: a round of trials on each CPU in turn
    // before the warm-up and after every repetition, so they span the
    // run's time and every CPU. Each round's median is kept too.
    let mut setups: Vec<Vec<f64>> = Vec::new();
    let mut round_medians: Vec<f64> = Vec::new();
    let mut setup_round = |attempted: &mut u64, failed: &mut u64| {
        cpus::on_each(|cpu| {
            if setups.len() <= cpu {
                setups.resize(cpu + 1, Vec::new());
            }
            let mut round = Vec::with_capacity(SETUP_TRIALS);
            for _ in 0..SETUP_TRIALS {
                *attempted += 1;
                match catch_unwind(AssertUnwindSafe(|| setup_trial(w, &shape, &knobs, &inp))) {
                    Ok(s) => round.push(s),
                    Err(_) => {
                        eprintln!("{}: set-up panicked", w.name());
                        *failed += 1;
                    }
                }
            }
            if !round.is_empty() {
                round_medians.push(median(&round));
            }
            setups[cpu].extend(round);
        })
    };
    setup_round(&mut attempted, &mut failed);
    // One warm-up repetition fills caches and the allocator; it is
    // checked but not measured. Then repeat for the run's seconds; with
    // tracing, alternate untraced and traced repetitions so the overhead
    // compares like with like.
    let start = Instant::now();
    let min_reps = if args.trace { 5 } else { 4 };
    let mut reps: Vec<(Role, Rep)> = Vec::new();
    let mut peak_rss_mb = 0.0;
    let mut i = 0;
    while i < min_reps || start.elapsed().as_secs_f64() < args.seconds {
        let role = match i {
            0 => Role::Warmup,
            _ if args.trace && i % 2 == 0 => Role::Traced,
            _ => Role::Plain,
        };
        let traced = role == Role::Traced;
        match catch_unwind(AssertUnwindSafe(|| {
            run_rep(w, &shape, &knobs, &inp, traced)
        })) {
            Ok(rep) => reps.push((role, rep)),
            Err(_) => {
                eprintln!("{}: repetition {i} panicked", w.name());
                attempted += 1;
                failed += 1;
            }
        }
        setup_round(&mut attempted, &mut failed);
        if i == 0 {
            // Read after one full repetition, not after all of them: the
            // allocator's high-water mark creeps with the number of
            // repetitions, which varies with the machine's speed.
            peak_rss_mb = read_peak_rss_mb();
        }
        i += 1;
    }
    let timed_s = start.elapsed().as_secs_f64();

    // Outputs are checked after timing: bit for bit against the serial
    // reference driver on the same inputs.
    let stream_shard = reps.iter().find_map(|(_, r)| match &r.output {
        Output::Shard(bytes) => Some(bytes.as_slice()),
        _ => None,
    });
    let reference = catch_unwind(AssertUnwindSafe(|| reference(&shape, &inp, stream_shard))).ok();
    for (_, rep) in &reps {
        attempted += rep.attempted;
        failed += rep.failed;
        if !reference
            .as_ref()
            .is_some_and(|r| matches_reference(rep, r))
        {
            eprintln!("{}: output differs from the serial reference", w.name());
            failed += 1;
        }
    }
    if reference.is_none() {
        eprintln!("{}: the serial reference panicked", w.name());
        failed += 1;
    }

    let of = |role: Role| -> Vec<&Rep> {
        reps.iter()
            .filter(|(r, _)| *r == role)
            .map(|(_, rep)| rep)
            .collect()
    };
    let (plain, traced) = (of(Role::Plain), of(Role::Traced));
    let each =
        |f: &dyn Fn(&Rep) -> f64, set: &[&Rep]| -> Vec<f64> { set.iter().map(|r| f(r)).collect() };
    let checkpoints: Vec<f64> = plain.iter().flat_map(|r| r.checkpoint_ms.clone()).collect();
    let queries: Vec<f64> = plain.iter().flat_map(|r| r.query_ms.clone()).collect();
    let recoveries: Vec<f64> = plain.iter().flat_map(|r| r.recovery_ms.clone()).collect();
    let runs = each(&|r| (r.ingest_s + r.answer_s) * 1e3, &plain);
    // The workload's repeated blocking operation. A sketch_batch run
    // fits about twenty, too few for a p90, which then falls back as far
    // as the median (see `supported_percentile`).
    let ops = match w {
        Workload::SketchBatch => &runs,
        Workload::SketchStream => &checkpoints,
        Workload::ScanStream => &queries,
    };
    let users = plain.first().map_or(0, |r| r.users) as f64;
    let per_user = |bytes: f64| if users > 0.0 { bytes / users } else { 0.0 };
    let wire = plain
        .first()
        .map(|r| r.wire_bytes)
        .filter(|&b| b > 0)
        .or(reference.as_ref().map(|r| r.wire_bytes))
        .unwrap_or(0);
    let snapshot = plain
        .first()
        .map(|r| r.final_bytes)
        .filter(|&b| b > 0)
        .or(reference.as_ref().map(|r| r.serial_shard_len))
        .unwrap_or(0);
    let error_rate = failed as f64 / attempted.max(1) as f64;

    println!(
        "{}: {} repetitions ({} traced, 1 warm-up) in {:.1} s, {} users each, {} operations, {} failed",
        w.name(),
        reps.len(),
        traced.len(),
        timed_s,
        users,
        attempted,
        failed
    );
    let metrics: Vec<(&'static str, &'static str, f64)> = if !args.trace {
        let values: BTreeMap<&str, f64> = [
            // The mean of the round medians: on a shared VM each CPU
            // flips between a fast and a slow state every few seconds,
            // and a median or minimum over rounds jumps between the two
            // with the share of time spent in each.
            (
                "setup_s",
                round_medians.iter().sum::<f64>() / round_medians.len().max(1) as f64,
            ),
            (
                "ingest_users_per_s",
                median(&each(&|r| r.users as f64 / r.ingest_s, &plain)),
            ),
            ("answer_s", median(&each(&|r| r.answer_s, &plain))),
            ("op_p50_ms", percentile(ops, 50.0)),
            ("op_p90_ms", supported_percentile(ops, 90.0)),
            ("peak_rss_mb", peak_rss_mb),
            ("wire_bytes_per_user", per_user(wire as f64)),
            ("snapshot_bytes_per_user", per_user(snapshot as f64)),
            ("recall", reference.as_ref().map_or(0.0, |r| r.recall)),
        ]
        .into_iter()
        .collect();
        for (cpu, samples) in setups.iter().enumerate() {
            let ms: Vec<f64> = samples.iter().map(|s| s * 1e3).collect();
            println!(
                "  {:<28} {}",
                format!("setup_ms (cpu {cpu})"),
                describe(&ms)
            );
        }
        for (label, samples) in [
            ("run_ms", &runs),
            ("checkpoint_ms", &checkpoints),
            ("query_ms", &queries),
            ("recovery_ms", &recoveries),
        ] {
            if !samples.is_empty() {
                println!("  {label:<28} {}", describe(samples));
            }
        }
        println!(
            "  {:<28} {error_rate} (failed / attempted operations)",
            "error_rate"
        );
        END_TO_END
            .iter()
            .map(|&(name, unit, _)| (name, unit, values[name]))
            .collect()
    } else {
        let mut values: BTreeMap<&str, f64> = BTreeMap::new();
        for &(name, _, _) in PER_LAYER {
            let samples: Vec<f64> = traced
                .iter()
                .filter_map(|r| r.layers.as_ref().and_then(|l| l.get(name)).copied())
                .collect();
            values.insert(name, median(&samples));
        }
        let traced_wall = median(&each(&|r| r.wall_s, &traced));
        values.insert(
            "trace.overhead_s",
            traced_wall - median(&each(&|r| r.wall_s, &plain)),
        );
        println!("  traced wall {traced_wall:.3} s; share of it busy in each layer (summed over threads):");
        for name in [
            "client.busy_s",
            "absorb.busy_s",
            "snapshot.encode_busy_s",
            "snapshot.decode_busy_s",
            "merge.busy_s",
            "fold.busy_s",
            "finish.busy_s",
        ] {
            println!("    {name:<26} {:.3}", values[name] / traced_wall);
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, unit, values[name]))
            .collect()
    };
    for (name, unit, v) in &metrics {
        println!("  {name:<28} {} {unit}", json_num(*v));
    }
    Outcome {
        attempted,
        failed,
        metrics,
    }
}

/// `--workload all`: each workload in its own process, so peak memory is
/// per workload, with its report printed as it runs.
fn measure_all(args: &[String]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this program: {e}"))?;
    for w in Workload::ALL {
        let mut child_args = args.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("parsed args name a workload");
        child_args[at + 1] = w.name().to_string();
        let status = std::process::Command::new(&exe)
            .args(&child_args)
            .status()
            .map_err(|e| format!("{}: cannot run: {e}", w.name()))?;
        if !status.success() {
            return Err(format!("{}: exited with {status}", w.name()));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    let args = match parse_args(&argv[1..]) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workload_names().replace(", ", "|")
            );
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => {
            println!("{}", measure(w, &args, &argv.join(" ")).json());
            ExitCode::SUCCESS
        }
        None => match measure_all(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn command_line_is_strict() {
        assert!(args("--workload scan_stream --seed 1 --seconds 2 --trace 0").is_ok());
        assert!(args("--workload all --seed 1 --seconds 2 --trace 1").is_ok());
        let e = args("--workload nope --seed 1 --seconds 2 --trace 0")
            .err()
            .unwrap();
        assert!(
            e.contains("sketch_batch, sketch_stream, scan_stream, all"),
            "{e}"
        );
        let e = args("--workload scan_stream --seed 1 --seconds 2 --trace 0 --fast")
            .err()
            .unwrap();
        assert!(e.contains("--workload, --seed, --seconds, --trace"), "{e}");
        assert!(args("--workload scan_stream --seed 1 --seconds 2 --trace 2").is_err());
        assert!(args("--workload scan_stream --seed 1 --seconds 2").is_err());
        assert!(args("--workload scan_stream --seed x --seconds 2 --trace 0").is_err());
    }

    /// The metric lists here are the ones `BENCHMARK.json` declares.
    #[test]
    fn metric_lists_match_the_benchmark_file() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = spec.matches("\"name\":").count();
        let workloads: Vec<&str> = spec
            .split("{\"name\": \"")
            .filter_map(|entry| entry.split_once("\", \"why\": "))
            .map(|(name, _)| name)
            .collect();
        assert!(workloads.len() >= 2);
        assert!(
            workloads.iter().all(|w| Workload::parse(w).is_some()),
            "{workloads:?}"
        );
        assert_eq!(
            declared,
            workloads.len() + END_TO_END.len() + PER_LAYER.len()
        );
        for &(name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            let entry =
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
