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

criterion_group!(benches, bench_respond, bench_finalize_and_estimate);
criterion_main!(benches);
