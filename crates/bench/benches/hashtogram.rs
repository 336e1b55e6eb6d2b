//! Criterion bench for the Hashtogram oracle's phases (Theorem 3.7's
//! O~(1) user / O~(n) server / O~(1) query costs).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hh_freq::hashtogram::{Hashtogram, HashtogramParams};
use hh_freq::traits::{Aggregator, FrequencyOracle};
use hh_math::rng::seeded_rng;

fn bench_respond(c: &mut Criterion) {
    let mut group = c.benchmark_group("hashtogram/respond");
    for &logn in &[14u32, 18] {
        let n = 1u64 << logn;
        let oracle = Hashtogram::new(HashtogramParams::hashed(n, 1 << 32, 1.0, 0.05), 1);
        let mut rng = seeded_rng(2);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let mut i = 0u64;
            b.iter(|| {
                i += 1;
                oracle.respond(i, i % (1 << 32), &mut rng)
            });
        });
    }
    group.finish();
}

fn bench_finalize_and_estimate(c: &mut Criterion) {
    let mut group = c.benchmark_group("hashtogram/server");
    group.sample_size(20);
    for &logn in &[14u32, 16] {
        let n = 1u64 << logn;
        // Pre-collect reports once.
        let proto = Hashtogram::new(HashtogramParams::hashed(n, 1 << 32, 1.0, 0.05), 3);
        let mut rng = seeded_rng(4);
        let reports: Vec<_> = (0..n)
            .map(|i| (i, proto.respond(i, i % 1024, &mut rng)))
            .collect();
        group.bench_with_input(BenchmarkId::new("ingest_finalize", n), &n, |b, _| {
            b.iter(|| {
                let mut oracle = proto.clone();
                for &(i, rep) in &reports {
                    oracle.collect(i, rep);
                }
                oracle.finalize();
                oracle.total_users()
            });
        });
        let mut finalized = proto.clone();
        for &(i, rep) in &reports {
            finalized.collect(i, rep);
        }
        finalized.finalize();
        group.bench_with_input(BenchmarkId::new("estimate", n), &n, |b, _| {
            let mut q = 0u64;
            b.iter(|| {
                q = (q + 1) % (1 << 32);
                finalized.estimate(q)
            });
        });
    }
    group.finish();
}

/// The scan's finish kernel: one full-domain `estimate_run` at the
/// perfbench `scan_stream` shape (|X| = 2^16, W = 4096, R = 9).
fn bench_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("hashtogram/server");
    let domain = 1u64 << 16;
    let params = HashtogramParams {
        domain,
        eps: 4.0,
        groups: 9,
        buckets: 4096,
        hashed: true,
    };
    let mut oracle = Hashtogram::new(params, 5);
    let mut rng = seeded_rng(6);
    for i in 0..1u64 << 16 {
        let rep = oracle.respond(i, (i * i) % domain, &mut rng);
        oracle.collect(i, rep);
    }
    oracle.finalize();
    let mut out = vec![0.0; domain as usize];
    let mut tile = Vec::new();
    group.bench_function("sweep", |b| {
        b.iter(|| {
            oracle.estimate_run(0, &mut out, &mut tile);
            out[0]
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_respond,
    bench_finalize_and_estimate,
    bench_sweep
);
criterion_main!(benches);
