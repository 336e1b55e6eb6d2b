//! Criterion bench for Table 1's time rows: client (user) work and
//! server aggregation for PrivateExpanderSketch and baselines.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use hh_core::baselines::{Bitstogram, BitstogramParams};
use hh_core::traits::Aggregator;
use hh_core::{ExpanderSketch, HeavyHitterProtocol, SketchParams};
use hh_math::par::FinishScratch;
use hh_math::rng::seeded_rng;
use hh_sim::{run_heavy_hitter, run_heavy_hitter_batched, BatchPlan, Workload};

fn bench_client(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1/user_time");
    for &logn in &[14u32, 16] {
        let n = 1u64 << logn;
        let sketch = ExpanderSketch::new(SketchParams::optimal(n, 24, 2.0, 0.1), 1);
        let bits = Bitstogram::new(BitstogramParams::optimal(n, 24, 2.0, 0.1), 2);
        let mut rng = seeded_rng(3);
        group.bench_with_input(BenchmarkId::new("expander_sketch", n), &n, |b, _| {
            let mut i = 0u64;
            b.iter(|| {
                i = (i + 1) % n;
                sketch.respond(i, 0xBEEF, &mut rng)
            });
        });
        let mut rng2 = seeded_rng(4);
        group.bench_with_input(BenchmarkId::new("bitstogram", n), &n, |b, _| {
            let mut i = 0u64;
            b.iter(|| {
                i = (i + 1) % n;
                bits.respond(i, 0xBEEF, &mut rng2)
            });
        });
    }
    // The fused batch client at the sketch's bench shape: 2^16 users
    // at |X| = 2^20 through `respond_encode_batch`.
    let n = 1u64 << 16;
    let sketch = ExpanderSketch::new(SketchParams::optimal(n, 20, 2.0, 0.1), 1);
    let xs = Workload::planted(1 << 20, vec![(0xBEEF, 0.3)]).generate(n as usize, 6);
    let mut bytes = Vec::new();
    group.bench_with_input(BenchmarkId::new("expander_sketch_batch", n), &n, |b, _| {
        b.iter(|| {
            bytes.clear();
            sketch.respond_encode_batch(0, &xs, 7, &mut bytes).len()
        });
    });
    group.finish();
}

fn bench_server(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1/server_full_run");
    group.sample_size(10);
    let n = 1u64 << 14;
    let data = Workload::planted(1 << 24, vec![(0xBEEF, 0.4)]).generate(n as usize, 5);
    // Full runs through both drivers — the serial reference and the
    // batched driver, a one-shot collector-fleet run (identical output;
    // see batch_equivalence).
    group.bench_function("expander_sketch/serial", |b| {
        b.iter(|| {
            let mut server = ExpanderSketch::new(SketchParams::optimal(n, 24, 2.0, 0.1), 6);
            run_heavy_hitter(&mut server, &data, 7).estimates
        });
    });
    group.bench_function("expander_sketch/batched", |b| {
        b.iter(|| {
            let mut server = ExpanderSketch::new(SketchParams::optimal(n, 24, 2.0, 0.1), 6);
            run_heavy_hitter_batched(&mut server, &data, 7, &BatchPlan::default()).estimates
        });
    });
    group.bench_function("bitstogram/serial", |b| {
        b.iter(|| {
            let mut server = Bitstogram::new(BitstogramParams::optimal(n, 24, 2.0, 0.1), 8);
            run_heavy_hitter(&mut server, &data, 9).estimates
        });
    });
    group.bench_function("bitstogram/batched", |b| {
        b.iter(|| {
            let mut server = Bitstogram::new(BitstogramParams::optimal(n, 24, 2.0, 0.1), 8);
            run_heavy_hitter_batched(&mut server, &data, 9, &BatchPlan::default()).estimates
        });
    });
    group.finish();
}

fn bench_finish(c: &mut Criterion) {
    // The sketch's finish alone, single-threaded, at |X| = 2^20 and
    // large n: each iteration decodes a freshly collected sketch.
    let mut group = c.benchmark_group("table1/server_finish");
    group.sample_size(10);
    for &logn in &[18u32, 21] {
        let n = 1u64 << logn;
        let params = SketchParams::optimal(n, 20, 4.0, 0.1);
        let data = Workload::planted(1 << 20, vec![(0xBEEF, 0.3)]).generate(n as usize, 8);
        let proto = ExpanderSketch::new(params.clone(), 9);
        let mut rng = seeded_rng(10);
        let reports: Vec<_> = (0u64..)
            .zip(&data)
            .map(|(i, &x)| proto.respond(i, x, &mut rng))
            .collect();
        group.bench_with_input(BenchmarkId::new("expander_sketch", n), &n, |b, _| {
            b.iter_batched(
                || {
                    let mut server = ExpanderSketch::new(params.clone(), 9);
                    for (i, &rep) in (0u64..).zip(&reports) {
                        server.collect(i, rep);
                    }
                    server
                },
                // The sketch goes back out so that its drop is off the clock.
                |mut server| {
                    let est = server.finish_with(&mut FinishScratch::serial());
                    (server, est)
                },
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_client, bench_server, bench_finish);
criterion_main!(benches);
