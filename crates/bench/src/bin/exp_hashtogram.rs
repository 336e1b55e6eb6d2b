//! Experiment F3.7 — the Hashtogram frequency oracle (Theorems 3.7/3.8).
//!
//! Per-query error `O((1/ε)·sqrt(n·log(1/β)))` with `O~(√n)` server
//! memory: measured max error over a query set across n, ε and the
//! direct/hashed variants, against the calibrated bound.

use hh_bench::{banner, fmt, Table};
use hh_freq::hashtogram::{Hashtogram, HashtogramParams};
use hh_math::rng::derive_seed;
use hh_math::stats::loglog_slope;
use hh_sim::{run_oracle, run_oracle_batched, BatchPlan, Workload};

/// Whether `--serial` was passed (re-derived from argv on each call):
/// routes measurement through the serial reference driver instead of the
/// batched driver, a one-shot collector-fleet run (identical output
/// either way; see the batch equivalence tests).
fn serial_mode() -> bool {
    std::env::args().any(|a| a == "--serial")
}

fn measure(params: HashtogramParams, n: usize, seed: u64) -> (f64, usize) {
    let domain = params.domain;
    let heavy = 7u64.min(domain - 1);
    let workload = Workload::planted(domain, vec![(heavy, 0.2)]);
    let data = workload.generate(n, seed);
    let queries: Vec<u64> = (0..32).map(|i| (i * 37) % domain).collect();
    let mut oracle = Hashtogram::new(params, derive_seed(seed, 1));
    let run = if serial_mode() {
        run_oracle(&mut oracle, &data, &queries, derive_seed(seed, 2))
    } else {
        run_oracle_batched(
            &mut oracle,
            &data,
            &queries,
            derive_seed(seed, 2),
            &BatchPlan::default(),
        )
    };
    let mut max_err = 0.0f64;
    for (&q, &a) in queries.iter().zip(&run.answers) {
        let truth = data.iter().filter(|&&x| x == q).count() as f64;
        max_err = max_err.max((a - truth).abs());
    }
    (max_err, run.memory_bytes)
}

fn main() {
    banner(
        "F3.7 — Hashtogram (Theorems 3.7/3.8)",
        "per-query error O((1/eps) sqrt(n log(1/beta))); memory O~(sqrt n)",
    );
    println!(
        "driver: {}",
        if serial_mode() {
            "serial (--serial)"
        } else {
            "batched: one-shot collector fleet (default)"
        }
    );

    println!("\n— error and memory vs n (hashed variant, |X| = 2^20, eps = 1) —\n");
    let mut t = Table::new(&[
        "n",
        "measured max err",
        "bound",
        "memory KiB",
        "mem/sqrt(n)",
    ]);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &logn in &[12u32, 14, 16, 18] {
        let n = 1usize << logn;
        let params = HashtogramParams::hashed(n as u64, 1 << 20, 1.0, 0.05);
        let bound = params.error_bound(n as u64, 0.05 / 32.0);
        let (err, mem) = measure(params, n, 100 + u64::from(logn));
        xs.push(n as f64);
        ys.push(err.max(1.0));
        t.row(&[
            format!("2^{logn}"),
            fmt(err),
            fmt(bound),
            (mem / 1024).to_string(),
            fmt(mem as f64 / (n as f64).sqrt()),
        ]);
    }
    t.print();
    println!(
        "log-log slope of measured error vs n: {:.3} (theory: 0.5)",
        loglog_slope(&xs, &ys)
    );

    println!("\n— error vs eps (n = 2^16) —\n");
    let mut t = Table::new(&["eps", "measured max err", "bound", "err*eps"]);
    for &eps in &[0.25f64, 0.5, 1.0, 2.0, 4.0] {
        let n = 1usize << 16;
        let params = HashtogramParams::hashed(n as u64, 1 << 20, eps, 0.05);
        let bound = params.error_bound(n as u64, 0.05 / 32.0);
        let (err, _) = measure(params, n, 200 + (eps * 4.0) as u64);
        t.row(&[fmt(eps), fmt(err), fmt(bound), fmt(err * eps)]);
    }
    t.print();

    println!("\n— direct (Thm 3.8) vs hashed (Thm 3.7) on a small domain —\n");
    let n = 1usize << 16;
    let mut t = Table::new(&["variant", "measured max err", "bound", "memory KiB"]);
    for (name, params) in [
        ("direct", HashtogramParams::direct(256, 1.0, 0.05)),
        ("hashed", HashtogramParams::hashed(n as u64, 256, 1.0, 0.05)),
    ] {
        let bound = params.error_bound(n as u64, 0.05 / 32.0);
        let (err, mem) = measure(params, n, 300);
        t.row(&[name.into(), fmt(err), fmt(bound), (mem / 1024).to_string()]);
    }
    t.print();
    println!("\n(direct variant drops the bucket-collision noise — the min(n,|X|) factor)");
}
