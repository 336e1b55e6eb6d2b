//! Wire-format conformance: for every protocol and oracle, reports
//! survive a serialization round trip bit-for-bit, the advertised
//! `encoded_len` is exact, and the measured wire size never exceeds the
//! claimed `report_bits()` — up to byte alignment, i.e.
//! `encoded_len <= report_bits().div_ceil(8)` (a byte transport cannot
//! express a 7-bit message in less than one byte, so the Θ(log)-bit
//! claim rounds up to the next whole byte; composite reports already
//! count their framing in `report_bits`).
//!
//! This closes the gap the monolithic design left open: `report_bits()`
//! used to be an unchecked theoretical number, and no report ever
//! crossed a byte boundary.

use ldp_heavy_hitters::core::baselines::{
    BassilySmithHeavyHitters, Bitstogram, BitstogramParams, BsHhParams, ScanHeavyHitters,
    ScanParams,
};
use ldp_heavy_hitters::freq::bassily_smith::BassilySmithOracle;
use ldp_heavy_hitters::freq::krr::KrrOracle;
use ldp_heavy_hitters::freq::rappor::Rappor;
use ldp_heavy_hitters::prelude::*;

/// Round-trip + size conformance over one batch of reports.
fn conform<R>(reports: &[R], report_bits: usize, protocol: &str)
where
    R: WireReport + PartialEq + std::fmt::Debug,
{
    assert!(!reports.is_empty(), "{protocol}: no reports to check");
    let byte_budget = report_bits.div_ceil(8);
    for (i, report) in reports.iter().enumerate() {
        let bytes = report.encode();
        assert_eq!(
            bytes.len(),
            report.encoded_len(),
            "{protocol}: encoded_len lied for report {i}"
        );
        assert!(
            bytes.len() <= byte_budget,
            "{protocol}: report {i} took {} bytes, claim allows {byte_budget} \
             (report_bits = {report_bits})",
            bytes.len(),
        );
        let decoded = R::decode(&bytes).unwrap_or_else(|e| {
            panic!("{protocol}: decode failed for report {i}: {e}");
        });
        assert_eq!(&decoded, report, "{protocol}: round trip diverged at {i}");
    }
}

/// The scalar reference client: user `i` runs `respond` on her own coin
/// stream `client_rng(client_seed, i)`.
fn scalar_reports<A: Aggregator>(protocol: &A, xs: &[u64], client_seed: u64) -> Vec<A::Report> {
    xs.iter()
        .enumerate()
        .map(|(i, &x)| protocol.respond(i as u64, x, &mut client_rng(client_seed, i as u64)))
        .collect()
}

fn inputs(n: usize, domain: u64, seed: u64) -> Vec<u64> {
    Workload::planted(domain, vec![(domain / 3, 0.3)]).generate(n, seed)
}

#[test]
fn expander_sketch_reports_conform() {
    let n = 2_000u64;
    let params = SketchParams::optimal(n, 16, 2.0, 0.1);
    let server = ExpanderSketch::new(params, 1);
    let xs = inputs(n as usize, 1 << 16, 2);
    conform(
        &scalar_reports(&server, &xs, 3),
        server.report_bits(),
        "expander_sketch",
    );
}

#[test]
fn bitstogram_reports_conform() {
    let n = 2_000u64;
    let params = BitstogramParams::optimal(n, 16, 2.0, 0.2);
    let server = Bitstogram::new(params, 4);
    let xs = inputs(n as usize, 1 << 16, 5);
    conform(
        &scalar_reports(&server, &xs, 6),
        server.report_bits(),
        "bitstogram",
    );
}

#[test]
fn scan_reports_conform() {
    let n = 2_000u64;
    let server = ScanHeavyHitters::new(ScanParams::new(n, 512, 2.0, 0.1), 7);
    let xs = inputs(n as usize, 512, 8);
    conform(
        &scalar_reports(&server, &xs, 9),
        server.report_bits(),
        "scan",
    );
}

#[test]
fn bassily_smith_hh_reports_conform() {
    let n = 2_000u64;
    let server = BassilySmithHeavyHitters::new(BsHhParams::optimal(n, 1 << 10, 2.0, 0.2), 10);
    let xs = inputs(n as usize, 1 << 10, 11);
    conform(
        &scalar_reports(&server, &xs, 12),
        server.report_bits(),
        "bassily_smith_hh",
    );
}

#[test]
fn hashtogram_oracle_reports_conform() {
    let n = 2_000u64;
    for (name, params) in [
        (
            "hashtogram_hashed",
            HashtogramParams::hashed(n, 1 << 30, 1.0, 0.05),
        ),
        ("hashtogram_direct", HashtogramParams::direct(200, 1.0, 0.1)),
    ] {
        let domain = params.domain;
        let oracle = Hashtogram::new(params, 13);
        let xs = inputs(n as usize, domain, 14);
        conform(
            &scalar_reports(&oracle, &xs, 15),
            oracle.report_bits(),
            name,
        );
    }
}

#[test]
fn bassily_smith_oracle_reports_conform() {
    let n = 2_000u64;
    let oracle = BassilySmithOracle::new(1 << 20, 1.0, n, 16);
    let xs = inputs(n as usize, 1 << 20, 17);
    conform(
        &scalar_reports(&oracle, &xs, 18),
        oracle.report_bits(),
        "bassily_smith_oracle",
    );
}

#[test]
fn krr_oracle_reports_conform() {
    let n = 2_000u64;
    let oracle = KrrOracle::new(24, 1.0);
    let xs = inputs(n as usize, 24, 19);
    conform(
        &scalar_reports(&oracle, &xs, 20),
        oracle.report_bits(),
        "krr",
    );
}

#[test]
fn rappor_reports_conform() {
    let n = 500u64;
    // A domain that is not a multiple of 8 exercises the byte rounding.
    let oracle = Rappor::new(100, 1.0);
    let xs = inputs(n as usize, 100, 21);
    conform(
        &scalar_reports(&oracle, &xs, 22),
        oracle.report_bits(),
        "rappor",
    );
}

#[test]
fn malformed_frames_are_rejected() {
    use ldp_heavy_hitters::core::SketchReport;
    use ldp_heavy_hitters::freq::HashtogramReport;

    // Empty and zero-padded scalar frames.
    assert!(HashtogramReport::decode(&[]).is_err());
    assert!(HashtogramReport::decode(&[7, 0]).is_err());
    // Composite frames: missing header, truncated inner component.
    assert!(SketchReport::decode(&[]).is_err());
    assert!(SketchReport::decode(&[5, 1, 2]).is_err());
}

#[test]
fn malformed_chunk_framing_is_rejected() {
    // Chunk-level framing (`WireFrames`) is validated up front: trailing
    // garbage after the last frame, frame lengths overrunning the
    // buffer, and zero-length frames must all fail at chunk-decode time
    // rather than being silently ignored by the absorb loop.
    assert_eq!(
        WireFrames::new(&[1, 2, 3], &[1, 1]).unwrap_err(),
        WireError::Trailing
    );
    assert_eq!(
        WireFrames::new(&[1, 2], &[1, 3]).unwrap_err(),
        WireError::Truncated
    );
    assert_eq!(
        WireFrames::new(&[1, 2], &[1, 0, 1]).unwrap_err(),
        WireError::Invalid("zero-length frame")
    );
}

#[test]
fn corrupt_wire_chunks_surface_frame_and_offset() {
    // A chunk whose frames decode but violate the protocol's domain
    // must come back as a `FrameError` naming the frame and its byte
    // offset — the provenance the streaming engine's diagnostics build
    // on — and never panic.
    let oracle = KrrOracle::new(8, 1.0);
    // Frame 0 is a valid report (3); frame 1 encodes 200, outside [8].
    let bytes = [3u8, 200];
    let lens = [1u32, 1];
    let frames = WireFrames::new(&bytes, &lens).expect("well-framed");
    let mut shard = oracle.new_shard();
    let err = oracle
        .absorb_wire(&mut shard, 0, &frames)
        .expect_err("out-of-domain report must be rejected");
    assert_eq!(err.frame, 1);
    assert_eq!(err.byte_offset, 1);
    assert_eq!(
        err.error,
        WireError::Invalid("GRR report outside the domain")
    );
}

#[test]
fn sketch_rejects_an_inner_row_outside_w_at_ingest() {
    // An inner report whose row is `W_in` decodes fine but would index
    // past the coordinate's decode buffer at finish; ingest must reject
    // it with the frame's provenance instead.
    use ldp_heavy_hitters::core::SketchReport;
    let params = SketchParams::optimal(1 << 10, 16, 2.0, 0.1);
    let w_in = params.inner_cells().next_power_of_two();
    let server = ExpanderSketch::new(params, 5);
    let mut rng = seeded_rng(9);
    let good = server.respond(0, 3, &mut rng);
    let mut bad = server.respond(1, 3, &mut rng);
    bad.inner.ell = w_in;
    let (mut bytes, mut lens) = (Vec::new(), Vec::new());
    for rep in [good, bad] {
        rep.encode_into(&mut bytes);
        lens.push(rep.encoded_len() as u32);
    }
    assert_eq!(SketchReport::decode(&bytes[lens[0] as usize..]), Ok(bad));
    let frames = WireFrames::new(&bytes, &lens).expect("well-framed");
    let mut shard = server.new_shard();
    let err = server
        .absorb_wire(&mut shard, 0, &frames)
        .expect_err("inner row outside W_in must be rejected");
    assert_eq!(err.frame, 1);
    assert_eq!(err.byte_offset, lens[0] as usize);
    assert_eq!(err.error, WireError::Invalid("report row outside W"));
}

#[test]
fn bitstogram_rejects_an_inner_row_outside_w_at_ingest() {
    // Bitstogram tallies inner reports at ingest, so an inner row past
    // the inner oracle's `W` must be rejected there, with the frame's
    // provenance, and typed `collect` must panic naming the row.
    use ldp_heavy_hitters::core::baselines::bitstogram::BitstogramReport;
    let params = BitstogramParams::optimal(1 << 10, 16, 2.0, 0.2);
    let w = params.inner_cells().next_power_of_two();
    let mut server = Bitstogram::new(params, 5);
    let mut rng = seeded_rng(9);
    let good = server.respond(0, 3, &mut rng);
    let mut bad = server.respond(1, 3, &mut rng);
    bad.inner.ell = 4 * w;
    let (mut bytes, mut lens) = (Vec::new(), Vec::new());
    for rep in [good, bad] {
        rep.encode_into(&mut bytes);
        lens.push(rep.encoded_len() as u32);
    }
    assert_eq!(
        BitstogramReport::decode(&bytes[lens[0] as usize..]),
        Ok(bad)
    );
    let frames = WireFrames::new(&bytes, &lens).expect("well-framed");
    let mut shard = server.new_shard();
    let err = server
        .absorb_wire(&mut shard, 0, &frames)
        .expect_err("inner row outside W must be rejected");
    assert_eq!(err.frame, 1);
    assert_eq!(err.byte_offset, lens[0] as usize);
    assert_eq!(err.error, WireError::Invalid("report row outside W"));

    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| server.collect(1, bad)))
        .expect_err("collect must reject the row");
    let msg = panic
        .downcast_ref::<String>()
        .map(String::as_str)
        .unwrap_or_default();
    let want = format!("report row {} outside W", 4 * w);
    assert!(msg.contains(&want), "panic {msg:?} does not name the row");
}

/// `reports` framed into one chunk; `absorb_wire` over all of it must
/// fail naming the last frame and leave the shard's snapshot equal to
/// that of a shard that absorbed only the frames before it.
fn assert_absorb_is_atomic_per_frame<A>(server: &A, reports: &[A::Report], protocol: &str)
where
    A: Aggregator,
    A::Report: WireReport,
    A::Shard: WireShard,
{
    let (mut bytes, mut lens) = (Vec::new(), Vec::new());
    for rep in reports {
        rep.encode_into(&mut bytes);
        lens.push(rep.encoded_len() as u32);
    }
    let bad = reports.len() - 1;
    let prefix_bytes: usize = lens[..bad].iter().map(|&l| l as usize).sum();
    let frames = WireFrames::new(&bytes, &lens).expect("well-framed");
    let mut shard = server.new_shard();
    let err = server
        .absorb_wire(&mut shard, 0, &frames)
        .expect_err("outer row outside W must be rejected");
    assert_eq!(err.frame, bad, "{protocol}");
    assert_eq!(err.byte_offset, prefix_bytes, "{protocol}");
    assert_eq!(err.error, WireError::Invalid("report row outside W"));
    let prefix = WireFrames::new(&bytes[..prefix_bytes], &lens[..bad]).expect("well-framed");
    let mut want = server.new_shard();
    server
        .absorb_wire(&mut want, 0, &prefix)
        .expect("the valid prefix absorbs");
    assert!(
        shard.encode_shard() == want.encode_shard(),
        "{protocol}: the rejected frame left a partial absorption behind"
    );
}

#[test]
fn a_rejected_frame_leaves_nothing_behind() {
    // Valid frames, then one whose inner report is valid and whose
    // outer row lies outside the outer oracle's `W`: the inner half of
    // that frame must not be buffered (sketch) or tallied (Bitstogram),
    // and the sketch must count every frame before it.
    let xs = inputs(40, 1 << 16, 3);
    let params = SketchParams::optimal(1 << 10, 16, 2.0, 0.1);
    let outer_w = params.outer_oracle_params().buckets;
    let sketch = ExpanderSketch::new(params, 5);
    let mut reports = scalar_reports(&sketch, &xs, 7);
    reports.last_mut().expect("40 reports").outer.ell = outer_w;
    assert_absorb_is_atomic_per_frame(&sketch, &reports, "expander_sketch");

    let params = BitstogramParams::optimal(1 << 10, 16, 2.0, 0.2);
    let bitstogram = Bitstogram::new(params, 5);
    let mut reports = scalar_reports(&bitstogram, &xs, 7);
    reports.last_mut().expect("40 reports").outer.ell = 1 << 40;
    assert_absorb_is_atomic_per_frame(&bitstogram, &reports, "bitstogram");
}

/// FNV-1a (64-bit) — a fixed, dependency-free digest for golden values.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a digest of one client's `respond_encode_batch` output for
/// `xs`, run in chunks of `chunk` users: the wire bytes followed by the
/// little-endian frame lengths.
fn client_digest<A: Aggregator>(server: &A, xs: &[u64], chunk: usize) -> u64 {
    let (mut bytes, mut lens) = (Vec::new(), Vec::new());
    for (c, part) in xs.chunks(chunk).enumerate() {
        lens.extend(server.respond_encode_batch((c * chunk) as u64, part, 22, &mut bytes));
    }
    assert_eq!(lens.len(), xs.len());
    fnv1a(
        bytes
            .into_iter()
            .chain(lens.iter().flat_map(|l| l.to_le_bytes())),
    )
}

/// The Hashtogram-family clients' wire output at |X| = 2^20, pinned: one
/// golden digest ([`client_digest`]) per protocol. Any change to a
/// client's hashes, outer code, group assignment or coin draws moves its
/// digest. Chunks of 1000 users (not a multiple of the sketch's hashing
/// tile) must give the same bytes as one batch.
#[test]
fn client_wire_bytes_are_pinned() {
    let n = 1usize << 12;
    let xs = inputs(n, 1 << 20, 21);
    let sketch = ExpanderSketch::new(SketchParams::optimal(n as u64, 20, 4.0, 0.1), 0x5EED);
    let bitstogram = Bitstogram::new(BitstogramParams::optimal(n as u64, 20, 4.0, 0.1), 0x5EED);
    let scan = ScanHeavyHitters::new(ScanParams::new(n as u64, 1 << 20, 4.0, 0.1), 0x5EED);
    // (protocol, digest at a chunk size, golden digest)
    type Case<'a> = (&'a str, &'a dyn Fn(usize) -> u64, u64);
    let cases: [Case; 3] = [
        (
            "expander_sketch",
            &|chunk| client_digest(&sketch, &xs, chunk),
            0x123a_e49b_c16f_f7a2,
        ),
        (
            "bitstogram",
            &|chunk| client_digest(&bitstogram, &xs, chunk),
            0x1c45_39a2_ce6c_f580,
        ),
        (
            "scan",
            &|chunk| client_digest(&scan, &xs, chunk),
            0x54c9_33c9_3617_f9fc,
        ),
    ];
    for (protocol, digest, golden) in cases {
        let whole = digest(n);
        assert_eq!(digest(1000), whole, "{protocol}: chunked bytes differ");
        assert_eq!(whole, golden, "{protocol} wire bytes moved");
    }
}

mod zero_copy_ingest {
    //! Property: the fused client path (`respond_encode_batch`) writes
    //! byte-identical wire chunks to scalar `respond` + `encode_into`,
    //! and the zero-copy server path (`absorb_wire` into shards, merged
    //! and folded in with `finish_shard`) is observationally equal to
    //! per-user `collect` of the decoded frames — for every protocol and
    //! oracle, over random inputs, chunk boundaries, chunk processing
    //! orders, and shard assignments.

    use super::inputs;
    use ldp_heavy_hitters::core::baselines::{
        BassilySmithHeavyHitters, Bitstogram, BitstogramParams, BsHhParams, ScanHeavyHitters,
        ScanParams,
    };
    use ldp_heavy_hitters::freq::bassily_smith::BassilySmithOracle;
    use ldp_heavy_hitters::freq::krr::KrrOracle;
    use ldp_heavy_hitters::freq::rappor::Rappor;
    use ldp_heavy_hitters::prelude::*;
    use proptest::prelude::*;
    use rand::Rng;

    /// A heavy-hitter server's observable output: its `finish` list, bit
    /// for bit.
    fn hh_output<P: HeavyHitterProtocol>(server: &mut P) -> Vec<(u64, u64)> {
        server
            .finish()
            .into_iter()
            .map(|(x, f)| (x, f.to_bits()))
            .collect()
    }

    /// An oracle's observable output: the estimate of every domain
    /// element, bit for bit.
    fn oracle_output<O: FrequencyOracle>(oracle: &mut O, domain: u64) -> Vec<u64> {
        oracle.finalize();
        (0..domain).map(|x| oracle.estimate(x).to_bits()).collect()
    }

    /// The shared schedule of one property case: random chunk
    /// boundaries, a shuffled chunk processing order, and a random
    /// two-shard split. `make` builds a fresh server (one for the wire
    /// path, one for the scalar reference); `observe` reads its output.
    fn assert_wire_path_matches_scalar<A: Aggregator, T: PartialEq + std::fmt::Debug>(
        make: impl Fn() -> A,
        observe: impl Fn(&mut A) -> T,
        xs: &[u64],
        chunk_size: usize,
        client_seed: u64,
        order_seed: u64,
        protocol: &str,
    ) {
        let num_chunks = xs.len().div_ceil(chunk_size);
        let mut order: Vec<usize> = (0..num_chunks).collect();
        let mut rng = seeded_rng(order_seed);
        for i in (1..order.len()).rev() {
            let j = (rng.gen_range(0..(i + 1) as u64)) as usize;
            order.swap(i, j);
        }

        let mut wire = make();
        let mut reference = make();
        let mut shards = [wire.new_shard(), wire.new_shard()];
        for &c in &order {
            let lo = c * chunk_size;
            let hi = (lo + chunk_size).min(xs.len());
            let start = lo as u64;

            // Fused client path vs scalar respond + encode: byte-identical.
            let mut bytes = Vec::new();
            let lens = wire.respond_encode_batch(start, &xs[lo..hi], client_seed, &mut bytes);
            let (mut ref_bytes, mut ref_lens) = (Vec::new(), Vec::new());
            for (k, &x) in xs[lo..hi].iter().enumerate() {
                let i = start + k as u64;
                let before = ref_bytes.len();
                reference
                    .respond(i, x, &mut client_rng(client_seed, i))
                    .encode_into(&mut ref_bytes);
                ref_lens.push((ref_bytes.len() - before) as u32);
            }
            assert_eq!(bytes, ref_bytes, "{protocol}: fused encoding diverged");
            assert_eq!(lens, ref_lens, "{protocol}: fused framing diverged");

            // Zero-copy absorb into a random shard vs per-user collect.
            let frames = WireFrames::new(&bytes, &lens)
                .unwrap_or_else(|e| panic!("{protocol}: chunk {c} misframed: {e}"));
            let which = rng.gen_range(0..2u64) as usize;
            wire.absorb_wire(&mut shards[which], start, &frames)
                .unwrap_or_else(|e| panic!("{protocol}: chunk {c} failed to absorb: {e}"));
            for (k, frame) in frames.iter().enumerate() {
                reference.collect(
                    start + k as u64,
                    A::Report::decode(frame).expect("frame decodes"),
                );
            }
        }
        let [a, b] = shards;
        let merged = wire.merge(a, b);
        wire.finish_shard(merged);
        assert_eq!(
            observe(&mut wire),
            observe(&mut reference),
            "{protocol}: absorb_wire + merge + finish_shard diverged from per-user collect"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        fn all_protocols_absorb_wire_equals_decode_collect(
            n in 100usize..350,
            chunk_size in 1usize..160,
            data_seed in 0u64..1_000,
            client_seed in 0u64..1_000,
            order_seed in 0u64..1_000,
        ) {
            // Heavy-hitter protocols.
            let p = SketchParams::optimal(n as u64, 12, 2.0, 0.2);
            assert_wire_path_matches_scalar(
                || ExpanderSketch::new(p.clone(), 71), hh_output,
                &inputs(n, 1 << 12, data_seed),
                chunk_size, client_seed, order_seed, "expander_sketch",
            );

            let p = BitstogramParams::optimal(n as u64, 12, 2.0, 0.3);
            assert_wire_path_matches_scalar(
                || Bitstogram::new(p.clone(), 72), hh_output,
                &inputs(n, 1 << 12, data_seed ^ 1),
                chunk_size, client_seed, order_seed, "bitstogram",
            );

            assert_wire_path_matches_scalar(
                || ScanHeavyHitters::new(ScanParams::new(n as u64, 256, 2.0, 0.1), 73), hh_output,
                &inputs(n, 256, data_seed ^ 2),
                chunk_size, client_seed, order_seed, "scan",
            );

            assert_wire_path_matches_scalar(
                || BassilySmithHeavyHitters::new(BsHhParams::optimal(n as u64, 1 << 10, 2.0, 0.2), 74),
                hh_output,
                &inputs(n, 1 << 10, data_seed ^ 3),
                chunk_size, client_seed, order_seed, "bassily_smith_hh",
            );

            // Frequency oracles.
            assert_wire_path_matches_scalar(
                || Hashtogram::new(HashtogramParams::hashed(n as u64, 1 << 20, 1.0, 0.1), 75),
                |o| oracle_output(o, 1 << 20),
                &inputs(n, 1 << 20, data_seed ^ 4),
                chunk_size, client_seed, order_seed, "hashtogram_hashed",
            );

            assert_wire_path_matches_scalar(
                || Hashtogram::new(HashtogramParams::direct(200, 1.0, 0.1), 76),
                |o| oracle_output(o, 200),
                &inputs(n, 200, data_seed ^ 5),
                chunk_size, client_seed, order_seed, "hashtogram_direct",
            );

            assert_wire_path_matches_scalar(
                || BassilySmithOracle::new(1 << 16, 1.0, 256, 77),
                |o| oracle_output(o, 1 << 16),
                &inputs(n, 1 << 16, data_seed ^ 6),
                chunk_size, client_seed, order_seed, "bassily_smith_oracle",
            );

            assert_wire_path_matches_scalar(
                || KrrOracle::new(24, 1.0),
                |o| oracle_output(o, 24),
                &inputs(n, 24, data_seed ^ 7),
                chunk_size, client_seed, order_seed, "krr",
            );

            assert_wire_path_matches_scalar(
                || Rappor::new(100, 1.0),
                |o| oracle_output(o, 100),
                &inputs(n, 100, data_seed ^ 8),
                chunk_size, client_seed, order_seed, "rappor",
            );
        }
    }
}
