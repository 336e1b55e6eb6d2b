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
//! explode. After the table, each row's log-log exponents of server time
//! and memory in n are printed next to the claimed ones. Every table cell
//! is the median of [`TIMED_RUNS`] runs by server time, so the time
//! exponents do not swing with one noisy timing (memory is the same in
//! every run). The runs go round-robin over all cells — one run of every
//! (n, protocol) cell per round — so a slow phase of the machine lands
//! on one run of many cells instead of on every run of one cell; the
//! JSON record keeps each cell's fastest and slowest time next to the
//! median.
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
//! * `--quick` — small-n profile (CI smoke runs).
//! * `--json` — additionally run the serial-vs-batched comparison and
//!   the collector-count merge-scaling sweep (both checked bit-for-bit
//!   against the serial run), and write the machine-readable record with
//!   its provenance (command line, ε, β, domain bits, hardware threads)
//!   and the fitted exponents.
//! * `--json-out <path>` — `--json`, written to `<path>` instead of
//!   `BENCH_table1.json`.

use hh_bench::{banner, fmt, fmt_dur, json_array, JsonObject, Table};
use hh_math::rng::derive_seed;
use hh_math::stats::loglog_slope;
use hh_sim::registry::{build_hh, build_oracle, ProtocolSpec};
use hh_sim::{
    run_dyn_heavy_hitter, run_dyn_oracle, run_heavy_hitter_batched, run_heavy_hitter_distributed,
    run_oracle_batched, BatchPlan, DistPlan, DynHhProtocol, ProtocolRun, Workload,
};

/// The accepted command line, for the usage line printed on a bad one.
const USAGE: &str = "usage: exp_table1_resources [--serial] [--quick] [--json] [--json-out <path>]";

/// The parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Args {
    /// Drive the table rows through the serial reference driver instead
    /// of the batched one.
    serial: bool,
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
    Ok(out)
}

/// Each row's claimed polynomial exponents in n of server time and
/// server memory: Table 1's, logarithmic factors dropped. \[4\] is
/// claimed as implemented here (hash-compressed Φ with `w = n` rows), so
/// its memory is linear and its scan at a fixed |X| linear in n.
const CLAIMED_EXPONENTS: [(&str, f64, f64); ROWS] = [
    ("ours", 1.0, 0.5),
    ("bitstogram [3]", 1.0, 0.5),
    ("bassily-smith [4]", 1.0, 1.0),
];

/// Runs per table cell; the cell shows, and the time exponent is fitted
/// on, the run with the median server time.
const TIMED_RUNS: usize = 3;

/// One timed run of a table cell: its server seconds (the cell's median
/// run is picked by these), its server memory, and the table row it
/// prints.
struct CellRun {
    secs: f64,
    memory: f64,
    row: Vec<String>,
}

/// One table row's run: end to end through the fleet by default,
/// through the serial reference under `--serial`.
fn drive(server: &mut dyn DynHhProtocol, data: &[u64], seed: u64, serial: bool) -> ProtocolRun {
    if serial {
        run_dyn_heavy_hitter(server, data, seed)
    } else {
        run_heavy_hitter_batched(server, data, seed, &BatchPlan::default())
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
    let speedup = serial.wall.as_secs_f64() / batched.wall.as_secs_f64();
    println!(
        "  {name:>16}: serial {} | batched {} ({} fleet threads = encoders + collectors, chunk {}) | speedup x{speedup:.2}",
        fmt_dur(serial.wall),
        fmt_dur(batched.wall),
        batched.threads,
        plan.chunk_size,
    );
    let json = JsonObject::new()
        .str("protocol", name)
        .int("n", data.len() as u64)
        .int("fleet_threads", batched.threads as u64)
        .int("chunk_size", plan.chunk_size as u64)
        .num("serial_total_secs", serial.wall.as_secs_f64())
        .num("serial_client_secs", serial.client_total.as_secs_f64())
        .num(
            "serial_ingest_secs",
            (serial.server_ingest + serial.server_merge).as_secs_f64(),
        )
        .num("serial_finish_secs", serial.server_finish.as_secs_f64())
        .num("batched_total_secs", batched.wall.as_secs_f64())
        .num("batched_client_secs", batched.client_total.as_secs_f64())
        .num(
            "batched_ingest_secs",
            (batched.server_ingest + batched.server_merge).as_secs_f64(),
        )
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
            fmt_dur(run.wall),
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
                .num("total_secs", run.wall.as_secs_f64())
                .build(),
        );
    }
    out
}

/// Table rows per n: the registry-dispatched heavy-hitter protocols of
/// [`HH_ROWS`], then Bassily–Smith.
const ROWS: usize = 3;

/// The registry-dispatched heavy-hitter rows: display label, registry
/// name, construction seed, run seed, public-randomness note.
const HH_ROWS: [(&str, &str, u64, u64, &str); 2] = [
    ("ours", "expander_sketch", 1, 2, "64 bits (one seed)"),
    ("bitstogram [3]", "bitstogram", 3, 4, "64 bits (one seed)"),
];

/// One timed run of table row `row` (an [`HH_ROWS`] entry, or
/// Bassily–Smith last) on `data`, under the table's driver; `base` is
/// the row's spec up to its construction seed.
fn run_cell(row: usize, logn: u32, data: &[u64], base: &ProtocolSpec, serial: bool) -> CellRun {
    let spec = |seed| ProtocolSpec {
        seed,
        ..base.clone()
    };
    if let Some(&(display, name, build_seed, run_seed, pub_rand)) = HH_ROWS.get(row) {
        let mut s = build_hh(name, &spec(build_seed)).expect("registered protocol");
        let run = drive(s.as_mut(), data, run_seed, serial);
        return CellRun {
            secs: run.server_time().as_secs_f64(),
            memory: run.memory_bytes as f64,
            row: vec![
                display.into(),
                format!("2^{logn}"),
                fmt_dur(run.server_time()),
                fmt_dur(run.user_time()),
                format!("{} KiB", run.memory_bytes / 1024),
                run.report_bits.to_string(),
                format!("{:.2}", run.wire_bytes_per_user()),
                pub_rand.into(),
            ],
        };
    }
    // Bassily–Smith FO with w = n rows; query cost O(n) each. A full
    // heavy-hitter scan would be n·|X| — measure a 512-query slice and
    // extrapolate.
    let queries: Vec<u64> = (0..512u64).collect();
    let mut o = build_oracle("bassily_smith", &spec(5)).expect("registered oracle");
    let run = if serial {
        run_dyn_oracle(o.as_mut(), data, &queries, 6)
    } else {
        run_oracle_batched(o.as_mut(), data, &queries, 6, &BatchPlan::default())
    };
    let full_scan = run.query_total.as_secs_f64() / queries.len() as f64 * base.domain as f64;
    CellRun {
        secs: run.server_build.as_secs_f64() + full_scan,
        memory: run.memory_bytes as f64,
        row: vec![
            "bassily-smith [4]".into(),
            format!("2^{logn}"),
            format!(
                "{} (+{} scan-extrapolated)",
                fmt_dur(run.server_build),
                fmt_dur(std::time::Duration::from_secs_f64(full_scan))
            ),
            fmt_dur(std::time::Duration::from_nanos(
                (run.client_total.as_nanos() as u64) / data.len() as u64,
            )),
            format!("{} KiB", run.memory_bytes / 1024),
            run.report_bits.to_string(),
            format!("{:.2}", run.wire_bytes_per_user()),
            "64 bits (hash-compressed Phi)".into(),
        ],
    }
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

    let datasets: Vec<(u32, Vec<u64>)> = logns
        .iter()
        .map(|&logn| {
            let workload = Workload::zipf(1u64 << bits, 1.2);
            let data = workload.generate(1 << logn, derive_seed(7, u64::from(logn)));
            (logn, data)
        })
        .collect();
    // `cells[i · ROWS + row]`: the runs of row `row` at `datasets[i]`,
    // filled one round at a time.
    let mut cells: Vec<Vec<CellRun>> = (0..datasets.len() * ROWS).map(|_| Vec::new()).collect();
    for _ in 0..TIMED_RUNS {
        for (i, (logn, data)) in datasets.iter().enumerate() {
            let base = ProtocolSpec {
                n: data.len() as u64,
                domain: 1u64 << bits,
                eps,
                beta,
                seed: 0,
            };
            for row in 0..ROWS {
                cells[i * ROWS + row].push(run_cell(row, *logn, data, &base, serial));
            }
        }
    }

    // Per row of `CLAIMED_EXPONENTS`: (n, median, min and max server
    // seconds, memory bytes) at each n.
    let mut points: [Vec<[f64; 5]>; ROWS] = Default::default();
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
    for (c, mut runs) in cells.into_iter().enumerate() {
        runs.sort_by(|a, b| a.secs.total_cmp(&b.secs));
        let n = datasets[c / ROWS].1.len() as f64;
        let (min, max) = (runs[0].secs, runs[TIMED_RUNS - 1].secs);
        let median = runs.swap_remove(TIMED_RUNS / 2);
        points[c % ROWS].push([n, median.secs, min, max, median.memory]);
        t.row(&median.row);
    }
    t.print();

    println!(
        "\nlog-log exponents in n (least-squares over the rows above; server time is \
         each cell's median of {TIMED_RUNS} round-robin runs):\n"
    );
    let mut fits = Table::new(&["protocol", "server time", "claimed", "memory", "claimed"]);
    let mut scaling = Vec::new();
    for ((label, time_claim, mem_claim), pts) in CLAIMED_EXPONENTS.into_iter().zip(&points) {
        let column = |k: usize| pts.iter().map(|p| p[k]).collect::<Vec<f64>>();
        let ns = column(0);
        let time = loglog_slope(&ns, &column(1));
        let mem = loglog_slope(&ns, &column(4));
        let secs = |k: usize| json_array(column(k).iter().map(|s| s.to_string()));
        fits.row(&[
            label.into(),
            fmt(time),
            fmt(time_claim),
            fmt(mem),
            fmt(mem_claim),
        ]);
        scaling.push(
            JsonObject::new()
                .str("protocol", label)
                .raw("n", json_array(ns.iter().map(|n| n.to_string())))
                .int("timed_runs", TIMED_RUNS as u64)
                .raw("server_secs", secs(1))
                .raw("server_secs_min", secs(2))
                .raw("server_secs_max", secs(3))
                .num("time_exponent", time)
                .num("claimed_time_exponent", time_claim)
                .num("memory_exponent", mem)
                .num("claimed_memory_exponent", mem_claim)
                .build(),
        );
    }
    fits.print();
    println!("\nnotes:");
    if !serial {
        println!("  - batched driver: user(mean) is the encode phase's wall-clock / n, a lower");
        println!("    bound on per-user compute at >1 thread; use --serial for the paper's");
        println!("    per-user cost metric.");
    }
    println!("  - all rows dispatch through hh_sim::registry (type-erased protocols);");
    println!("    the serial driver ingests per-user through the same wire path.");
    println!("  - claim bits is report_bits() (the protocol's worst-case message claim);");
    println!("    wire B/user is the measured mean size of every encoded report, counted");
    println!("    by the driver itself (the same under --serial). The wire_conformance");
    println!("    tests pin wire <= ceil(claim / 8) bytes per report.");
    println!("  - [4]'s Table-1 entries (n^1.5 user, n^2.5 server, n^1.5 public coins)");
    println!("    assume explicitly materialized public randomness; our implementation");
    println!("    hash-compresses Phi (the option their footnote 2 concedes), so the");
    println!("    measured gap shows in memory (linear in n) and the scan-extrapolated");
    println!("    heavy-hitter search time (linear in |X|), not in raw report cost.");
    println!("  - server time of [4] is its build plus the scan-extrapolated search;");
    println!("    ours' memory counts its buffered inner reports (8 B per user).");

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
        let (sketch_run, sketch_serial) =
            compare_at_scale("expander_sketch", &sketch_spec, &data, 12);

        let scan_domain = 1u64 << 16;
        let scan_data: Vec<u64> = data.iter().map(|&x| x & (scan_domain - 1)).collect();
        let scan_spec = ProtocolSpec {
            n: n as u64,
            domain: scan_domain,
            eps,
            beta,
            seed: 13,
        };
        let (scan_run, scan_serial) = compare_at_scale("scan", &scan_spec, &scan_data, 14);

        println!("\n— collector-count scaling (wire round-trip, tree merge) —\n");
        let mut merge = merge_scaling("expander_sketch", &sketch_spec, &data, 12, &sketch_serial);
        merge.extend(merge_scaling(
            "scan",
            &scan_spec,
            &scan_data,
            14,
            &scan_serial,
        ));

        let command = format!("exp_table1_resources {}", argv.join(" "));
        let doc = JsonObject::new()
            .str("experiment", "table1_resources_serial_vs_batched")
            .str("command", &command)
            .int("n", n as u64)
            .num("eps", eps)
            .num("beta", beta)
            .int("domain_bits", u64::from(bits))
            .int("scan_domain_bits", u64::from(scan_domain.ilog2()))
            .int("hardware_threads", rayon::current_num_threads() as u64)
            .str("workload", "planted(0.3 heavy over 2^20 / 2^16 domains)")
            .raw("runs", json_array([sketch_run, scan_run]))
            .raw("merge_scaling", json_array(merge))
            .raw("scaling", json_array(scaling))
            .build();
        std::fs::write(json_out, format!("{doc}\n"))
            .unwrap_or_else(|e| panic!("write {json_out}: {e}"));
        println!("\nwrote {json_out}");
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
        let args = parse(&["--serial", "--quick"]).expect("valid");
        assert!(args.serial && args.quick);
        assert_eq!(args.json_out, None);
    }

    #[test]
    fn json_writes_the_whole_document() {
        let args = parse(&["--json"]).expect("valid");
        assert_eq!(args.json_out.as_deref(), Some("BENCH_table1.json"));
        assert!(!args.serial && !args.quick);
        let args = parse(&["--json-out", "out.json", "--quick"]).expect("valid");
        assert_eq!(args.json_out.as_deref(), Some("out.json"));
        assert!(args.quick);
    }

    #[test]
    fn removed_and_unknown_flags_are_rejected() {
        // Removed modes fail as unknown flags, next to any valid one.
        let removed =
            "--pipeline --ingest-bench --client-bench --distributed --stream --finish-bench";
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
