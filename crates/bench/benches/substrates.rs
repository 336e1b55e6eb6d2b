//! Criterion bench for the substrate layers: hashing, WHT (float and
//! exact integer), Reed–Solomon, ULRC encode/decode, expander
//! construction, clustering, and the ingest primitives the collector
//! runtime is built from (fused respond_encode_batch, absorb_wire into
//! per-chunk shards with a tree merge, par_chunk_map), each timed in
//! isolation from the runtime's queues and actor threads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hh_codes::ulrc::{UlrcParams, UniqueListCode};
use hh_codes::ReedSolomon;
use hh_freq::hashtogram::{Hashtogram, HashtogramParams};
use hh_freq::traits::Aggregator;
use hh_freq::wire::WireFrames;
use hh_graph::cluster::{spectral_clusters, ClusterParams};
use hh_graph::expander::expander;
use hh_hash::{KWiseHash, PairwiseHash};
use hh_math::par::{merge_tree, par_chunk_map, par_map_indexed};
use hh_math::rng::{client_rng, seeded_rng};
use hh_math::wht::{fwht, fwht_int, FOLD, WHT_BLOCK};
use rand::Rng;

fn bench_hashing(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/hash");
    let pairwise = PairwiseHash::new(1, 1 << 20);
    group.bench_function("pairwise_eval", |b| {
        let mut x = 0u64;
        b.iter(|| {
            x += 1;
            pairwise.hash(x)
        });
    });
    for &k in &[8usize, 32, 64] {
        let h = KWiseHash::new(2, k, 1 << 20);
        group.bench_with_input(BenchmarkId::new("kwise_eval", k), &k, |b, _| {
            let mut x = 0u64;
            b.iter(|| {
                x += 1;
                h.hash(x)
            });
        });
    }
    // One 64-input tile through the interleaved chains, at the group
    // hash's independence for |X| = 2^20.
    let k = 40usize;
    let h = KWiseHash::new(2, k, 1 << 20);
    group.bench_with_input(BenchmarkId::new("kwise_hash_into", k), &k, |b, _| {
        let mut xs: Vec<u64> = (0..64).collect();
        let mut out = [0u64; 64];
        b.iter(|| {
            xs.iter_mut().for_each(|x| *x += 64);
            h.hash_into(&xs, &mut out);
            out[63]
        });
    });
    group.finish();
}

fn bench_wht(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/wht");
    group.sample_size(20);
    for &logw in &[16u32, 20] {
        let w = 1usize << logw;
        let mut rng = seeded_rng(3);
        let data: Vec<f64> = (0..w).map(|_| rng.gen_range(-1.0..1.0)).collect();
        group.bench_with_input(BenchmarkId::from_parameter(w), &w, |b, _| {
            b.iter(|| {
                let mut v = data.clone();
                fwht(&mut v);
                v[0]
            });
        });
    }
    // The exact integer kernel over one 2^16-cell decode slab, in both
    // cell widths, and over the 2^18-cell `i16` slab a bench-shape
    // coordinate (n = 2^18, |X| = 2^20, M = 10) decodes in, on ±1 data
    // (the sum fits `i16`), from level `FOLD` as the sketch decode runs
    // it. Each iteration copies the input into a reused slab, as the
    // decode refills one.
    let mut rng = seeded_rng(5);
    let narrow: Vec<i16> = (0..4 * WHT_BLOCK)
        .map(|_| match rng.gen_range(0..4u32) {
            0 => 1,
            1 => -1,
            _ => 0,
        })
        .collect();
    let wide: Vec<i32> = narrow[..WHT_BLOCK].iter().map(|&v| i32::from(v)).collect();
    for w in [WHT_BLOCK, 4 * WHT_BLOCK] {
        let input = &narrow[..w];
        let mut slab = input.to_vec();
        group.bench_with_input(BenchmarkId::new("int_i16", w), &w, |b, _| {
            b.iter(|| {
                slab.copy_from_slice(input);
                fwht_int(&mut slab, FOLD);
                slab[0]
            });
        });
    }
    let w = WHT_BLOCK;
    let mut slab = wide.clone();
    group.bench_with_input(BenchmarkId::new("int_i32", w), &w, |b, _| {
        b.iter(|| {
            slab.copy_from_slice(&wide);
            fwht_int(&mut slab, FOLD);
            slab[0]
        });
    });
    group.finish();
}

fn bench_rs(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/reed_solomon");
    let rs = ReedSolomon::new(4, 14, 6);
    let msg: Vec<u16> = vec![1, 5, 9, 0, 15, 7];
    let cw = rs.encode(&msg);
    group.bench_function("encode_14_6", |b| b.iter(|| rs.encode(&msg)));
    let mut corrupted: Vec<Option<u16>> = cw.iter().map(|&v| Some(v)).collect();
    corrupted[2] = Some(cw[2] ^ 1);
    corrupted[9] = None;
    group.bench_function("decode_1err_1erasure", |b| b.iter(|| rs.decode(&corrupted)));
    group.finish();
}

fn bench_ulrc(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/ulrc");
    group.sample_size(20);
    let code = UniqueListCode::new(UlrcParams::for_domain_bits(24), 5);
    group.bench_function("encode", |b| {
        let mut x = 0u64;
        b.iter(|| {
            x = (x + 7919) & 0xFF_FFFF;
            code.encode(x)
        });
    });
    // One coordinate's `E~nc(x)_m` alone, as a client computes it.
    let num_coords = code.params().num_coords;
    group.bench_function("enc_tilde", |b| {
        let (mut x, mut m) = (0u64, 0usize);
        b.iter(|| {
            x = (x + 7919) & 0xFF_FFFF;
            m = (m + 1) % num_coords;
            code.enc_tilde(x, m)
        });
    });
    // A realistic decode instance: 3 messages, light junk.
    let xs = [0xF00Du64, 0xBEEF, 0x1234];
    let mut lists: Vec<Vec<(u64, u64)>> = vec![Vec::new(); code.params().num_coords];
    for (m, list) in lists.iter_mut().enumerate() {
        for &x in &xs {
            let y = code.coord_hash(m, x);
            if list.iter().all(|&(yy, _)| yy != y) {
                list.push((y, code.enc_tilde(x, m)));
            }
        }
    }
    group.bench_function("decode_3_messages", |b| b.iter(|| code.decode(&lists)));
    group.finish();
}

fn bench_graph(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/graph");
    group.sample_size(10);
    group.bench_function("expander_14_4_las_vegas", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            expander(14, 4, 2.3 * 3f64.sqrt(), seed)
        });
    });
    let e = expander(24, 4, 2.3 * 3f64.sqrt(), 1);
    let mut g = hh_graph::Graph::new(96);
    for c0 in 0..4 {
        let off = (c0 * 24) as u32;
        for v in 0..24u32 {
            for &u in e.neighbors(v as usize) {
                if v < u {
                    g.add_edge(off + v, off + u);
                }
            }
        }
    }
    group.bench_function("spectral_clusters_4x24", |b| {
        b.iter(|| spectral_clusters(&g, &ClusterParams::default()));
    });
    group.finish();
}

fn bench_batch_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate/batch_pipeline");
    group.sample_size(20);
    let n = 1usize << 16;
    let params = HashtogramParams::hashed(n as u64, 1 << 20, 1.0, 0.1);
    let oracle = Hashtogram::new(params.clone(), 1);
    let data: Vec<u64> = {
        let mut rng = seeded_rng(2);
        (0..n).map(|_| rng.gen_range(0..1u64 << 20)).collect()
    };
    let client_seed = 3u64;
    group.bench_function("respond_scalar_64k", |b| {
        b.iter(|| {
            let mut acc = 0i64;
            for (i, &x) in data.iter().enumerate() {
                let mut rng = client_rng(client_seed, i as u64);
                acc += i64::from(oracle.respond(i as u64, x, &mut rng).bit);
            }
            acc
        });
    });
    let mut buf = Vec::new();
    group.bench_function("respond_encode_batch_64k", |b| {
        b.iter(|| {
            buf.clear();
            oracle.respond_encode_batch(0, &data, client_seed, &mut buf)
        });
    });
    group.bench_function("respond_encode_batch_64k_parallel", |b| {
        b.iter(|| {
            par_chunk_map(&data, 1 << 14, 0, |c, xs| {
                let mut bytes = Vec::new();
                let lens =
                    oracle.respond_encode_batch((c << 14) as u64, xs, client_seed, &mut bytes);
                (bytes, lens)
            })
        });
    });
    let reports: Vec<_> = data
        .iter()
        .enumerate()
        .map(|(i, &x)| oracle.respond(i as u64, x, &mut client_rng(client_seed, i as u64)))
        .collect();
    group.bench_function("collect_scalar_64k", |b| {
        b.iter(|| {
            let mut o = Hashtogram::new(params.clone(), 1);
            for (i, &rep) in reports.iter().enumerate() {
                o.collect(i as u64, rep);
            }
            o.total_users()
        });
    });
    // The wire chunks are encoded once, outside the timed closure, so
    // the comparison with `collect_scalar_64k` isolates ingest cost.
    let chunks = par_chunk_map(&data, 1 << 14, 0, |c, xs| {
        let mut bytes = Vec::new();
        let lens = oracle.respond_encode_batch((c << 14) as u64, xs, client_seed, &mut bytes);
        (bytes, lens)
    });
    group.bench_function("absorb_wire_sharded_64k", |b| {
        b.iter(|| {
            let mut o = Hashtogram::new(params.clone(), 1);
            let shards = par_map_indexed(chunks.len(), 0, |c| {
                let (bytes, lens) = &chunks[c];
                let frames = WireFrames::new(bytes, lens).expect("well-framed");
                let mut shard = o.new_shard();
                o.absorb_wire(&mut shard, (c << 14) as u64, &frames)
                    .expect("lossless chunk");
                shard
            });
            let merged = merge_tree(shards, |a, b| o.merge(a, b)).expect("non-empty");
            o.finish_shard(merged);
            o.total_users()
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_hashing,
    bench_wht,
    bench_rs,
    bench_ulrc,
    bench_graph,
    bench_batch_pipeline
);
criterion_main!(benches);
