//! Registry round-trips: every registered protocol name constructs,
//! runs through the type-erased drivers, and produces bit-for-bit the
//! output of direct typed construction with the same parameters — so
//! registry dispatch is a naming layer, never a behavior change.

use ldp_heavy_hitters::core::baselines::{
    BassilySmithHeavyHitters, Bitstogram, BitstogramParams, BsHhParams, ScanHeavyHitters,
    ScanParams,
};
use ldp_heavy_hitters::freq::bassily_smith::BassilySmithOracle;
use ldp_heavy_hitters::freq::krr::KrrOracle;
use ldp_heavy_hitters::freq::rappor::Rappor;
use ldp_heavy_hitters::prelude::*;
use ldp_heavy_hitters::sim::registry::{
    build_hh, build_oracle, hh_names, oracle_names, ProtocolSpec,
};
use ldp_heavy_hitters::sim::{
    run_dyn_heavy_hitter, run_dyn_oracle, run_heavy_hitter_batched, run_oracle_batched,
    run_pipelined, DynHhStream, OracleRun, PipelineConfig, ProtocolRun, StreamPlan,
};

fn spec(n: usize) -> ProtocolSpec {
    ProtocolSpec {
        n: n as u64,
        domain: 256,
        eps: 4.0,
        beta: 0.2,
        seed: 551,
    }
}

/// The typed construction each registry name promises — the independent
/// reference the dyn path is pinned against. Adding a protocol to the
/// registry without extending this match fails the exhaustiveness
/// assertions below.
fn typed_hh_run(name: &str, s: &ProtocolSpec, data: &[u64], seed: u64) -> ProtocolRun {
    match name {
        "expander_sketch" => {
            let p = SketchParams::optimal(s.n, s.domain_bits(), s.eps, s.beta);
            run_heavy_hitter(&mut ExpanderSketch::new(p, s.seed), data, seed)
        }
        "scan" => {
            let p = ScanParams::new(s.n, s.domain, s.eps, s.beta);
            run_heavy_hitter(&mut ScanHeavyHitters::new(p, s.seed), data, seed)
        }
        "bitstogram" => {
            let p = BitstogramParams::optimal(s.n, s.domain_bits(), s.eps, s.beta);
            run_heavy_hitter(&mut Bitstogram::new(p, s.seed), data, seed)
        }
        "bassily_smith_hh" => {
            let p = BsHhParams::optimal(s.n, s.domain, s.eps, s.beta);
            run_heavy_hitter(&mut BassilySmithHeavyHitters::new(p, s.seed), data, seed)
        }
        other => panic!("registry gained heavy-hitter protocol {other:?} — extend this test"),
    }
}

fn typed_oracle_run(
    name: &str,
    s: &ProtocolSpec,
    data: &[u64],
    queries: &[u64],
    seed: u64,
) -> OracleRun {
    match name {
        "hashtogram" => {
            let p = HashtogramParams::hashed(s.n, s.domain, s.eps, s.beta);
            run_oracle(&mut Hashtogram::new(p, s.seed), data, queries, seed)
        }
        "krr" => run_oracle(&mut KrrOracle::new(s.domain, s.eps), data, queries, seed),
        "rappor" => run_oracle(&mut Rappor::new(s.domain, s.eps), data, queries, seed),
        "bassily_smith" => {
            let mut o = BassilySmithOracle::new(s.domain, s.eps, s.n, s.seed);
            run_oracle(&mut o, data, queries, seed)
        }
        other => panic!("registry gained frequency oracle {other:?} — extend this test"),
    }
}

#[test]
fn every_hh_name_constructs_runs_and_matches_direct_construction() {
    let n = 3_000usize;
    let s = spec(n);
    let data = Workload::planted(s.domain, vec![(17, 0.45)]).generate(n, 552);
    let seed = 553;
    let names = hh_names();
    assert_eq!(names.len(), 4, "registry changed — extend this test");
    for name in names {
        let typed_run = typed_hh_run(name, &s, &data, seed);
        let typed = typed_run.estimates.clone();
        // Serial dyn driver (per-user wire path).
        let serial = {
            let mut server = build_hh(name, &s).expect("registered name builds");
            run_dyn_heavy_hitter(server.as_mut(), &data, seed)
        };
        assert_eq!(
            serial.estimates, typed,
            "{name}: registry serial run diverged from direct construction"
        );
        assert!(serial.report_bits > 0 && serial.memory_bytes > 0);
        // Batched dyn driver (shared fused pipeline).
        let batched = {
            let mut server = build_hh(name, &s).expect("registered name builds");
            run_heavy_hitter_batched(
                server.as_mut(),
                &data,
                seed,
                &BatchPlan::with_chunk_size(777),
            )
        };
        assert_eq!(
            batched.estimates, typed,
            "{name}: registry batched run diverged from direct construction"
        );
        let distributed = {
            let mut server = build_hh(name, &s).expect("registered name builds");
            run_heavy_hitter_distributed(
                server.as_mut(),
                &data,
                seed,
                &DistPlan::with_collectors(3),
            )
        };
        assert_eq!(
            distributed.estimates, typed,
            "{name}: registry distributed run diverged from direct construction"
        );
        // Every driver measures the same wire bytes: the typed serial
        // run sums `encoded_len()`, the others count the frames they
        // write.
        assert!(typed_run.wire_bytes > 0, "{name}: no wire bytes counted");
        for (driver, wire_bytes) in [
            ("dyn serial", serial.wire_bytes),
            ("batched", batched.wire_bytes),
            ("distributed", distributed.wire_bytes),
        ] {
            assert_eq!(
                wire_bytes, typed_run.wire_bytes,
                "{name}: {driver} wire bytes differ from the typed serial run's"
            );
        }
        assert_eq!((typed_run.collectors, serial.collectors), (1, 1), "{name}");
        assert_eq!(distributed.collectors, 3, "{name}");
    }
}

#[test]
fn every_oracle_name_constructs_runs_and_matches_direct_construction() {
    let n = 3_000usize;
    let s = spec(n);
    let data = Workload::planted(s.domain, vec![(17, 0.45)]).generate(n, 554);
    let queries = [17u64, 3, 250];
    let seed = 555;
    let names = oracle_names();
    assert_eq!(names.len(), 4, "registry changed — extend this test");
    for name in names {
        let typed_run = typed_oracle_run(name, &s, &data, &queries, seed);
        let typed = typed_run.answers.clone();
        let serial = {
            let mut oracle = build_oracle(name, &s).expect("registered name builds");
            run_dyn_oracle(oracle.as_mut(), &data, &queries, seed)
        };
        assert_eq!(
            serial.answers, typed,
            "{name}: registry serial run diverged from direct construction"
        );
        let batched = {
            let mut oracle = build_oracle(name, &s).expect("registered name builds");
            run_oracle_batched(
                oracle.as_mut(),
                &data,
                &queries,
                seed,
                &BatchPlan::with_chunk_size(777),
            )
        };
        assert_eq!(
            batched.answers, typed,
            "{name}: registry batched run diverged from direct construction"
        );
        let distributed = {
            let mut oracle = build_oracle(name, &s).expect("registered name builds");
            let plan = DistPlan::with_collectors(3);
            run_oracle_distributed(oracle.as_mut(), &data, &queries, seed, &plan)
        };
        assert_eq!(
            distributed.answers, typed,
            "{name}: registry distributed run diverged from direct construction"
        );
        // Every driver measures the same wire bytes (see the
        // heavy-hitter test above).
        assert!(typed_run.wire_bytes > 0, "{name}: no wire bytes counted");
        for (driver, wire_bytes) in [
            ("dyn serial", serial.wire_bytes),
            ("batched", batched.wire_bytes),
            ("distributed", distributed.wire_bytes),
        ] {
            assert_eq!(
                wire_bytes, typed_run.wire_bytes,
                "{name}: {driver} wire bytes differ from the typed serial run's"
            );
        }
        assert_eq!((typed_run.collectors, serial.collectors), (1, 1), "{name}");
        assert_eq!(distributed.collectors, 3, "{name}");
    }
}

#[test]
fn empty_population_runs_agree_on_every_driver() {
    // No user reports: the batched and distributed drivers fold an
    // empty fleet shard, the serial ones fold nothing, and every
    // registered protocol must answer bit-for-bit the same either way.
    let s = spec(3_000);
    let seed = 558;
    let queries = [17u64, 3, 250];
    let hh_bits = |est: Vec<(u64, f64)>| -> Vec<(u64, u64)> {
        est.into_iter().map(|(x, f)| (x, f.to_bits())).collect()
    };
    let answer_bits = |a: Vec<f64>| -> Vec<u64> { a.into_iter().map(f64::to_bits).collect() };
    let dist = DistPlan::with_collectors(3);
    for name in hh_names() {
        let build = || build_hh(name, &s).expect("registered name builds");
        let typed = hh_bits(typed_hh_run(name, &s, &[], seed).estimates);
        let serial = run_dyn_heavy_hitter(build().as_mut(), &[], seed).estimates;
        let batched =
            run_heavy_hitter_batched(build().as_mut(), &[], seed, &BatchPlan::default()).estimates;
        let distributed =
            run_heavy_hitter_distributed(build().as_mut(), &[], seed, &dist).estimates;
        assert_eq!(hh_bits(serial), typed, "{name}: serial");
        assert_eq!(hh_bits(batched), typed, "{name}: batched");
        assert_eq!(hh_bits(distributed), typed, "{name}: distributed");
    }
    for name in oracle_names() {
        let build = || build_oracle(name, &s).expect("registered name builds");
        let typed = answer_bits(typed_oracle_run(name, &s, &[], &queries, seed).answers);
        let serial = run_dyn_oracle(build().as_mut(), &[], &queries, seed).answers;
        let batched =
            run_oracle_batched(build().as_mut(), &[], &queries, seed, &BatchPlan::default())
                .answers;
        let distributed =
            run_oracle_distributed(build().as_mut(), &[], &queries, seed, &dist).answers;
        assert_eq!(answer_bits(serial), typed, "{name}: serial");
        assert_eq!(answer_bits(batched), typed, "{name}: batched");
        assert_eq!(answer_bits(distributed), typed, "{name}: distributed");
    }
}

#[test]
fn registry_protocols_stream_through_the_pipelined_runtime() {
    // Registry + pipelined runtime end to end: a short crash-recovery
    // stream per registered heavy hitter, pinned against the dyn serial
    // reference (itself pinned against typed construction above).
    let n = 2_400usize;
    let s = spec(n);
    let data = Workload::planted(s.domain, vec![(17, 0.45)]).generate(n, 556);
    let seed = 557;
    let plan = StreamPlan {
        epoch_size: n / 5 + 1,
        checkpoint_every: 2,
        dist: DistPlan {
            collectors: 3,
            chunk_size: n / 13 + 1,
            threads: 2,
            merge: MergeOrder::Tree,
        },
    };
    let config = PipelineConfig {
        queue_depth: 2,
        workers: 2,
    };
    for name in hh_names() {
        let serial = {
            let mut server = build_hh(name, &s).expect("registered name builds");
            run_dyn_heavy_hitter(server.as_mut(), &data, seed).estimates
        };
        let server = build_hh(name, &s).expect("registered name builds");
        let (shard, stats, ()) = run_pipelined(
            &DynHhStream(server.as_ref()),
            &plan,
            &config,
            seed,
            |session| {
                let mut off = 0;
                while off < data.len() {
                    let hi = (off + plan.epoch_size).min(data.len());
                    session.ingest_epoch(&data[off..hi]);
                    off = hi;
                    if session.epoch() == 2 {
                        session.kill_collector(1);
                    }
                    if session.epoch() == 3 {
                        session.recover_collector(1);
                    }
                }
            },
        );
        let mut server = server;
        server.finish_shard(shard);
        assert_eq!(
            server.finish(),
            serial,
            "{name}: pipelined stream diverged from serial"
        );
        assert_eq!(stats.users as usize, n);
        assert!(stats.recoveries >= 1, "{name}: crash was never recovered");
    }
}

#[test]
#[should_panic(expected = "it was produced by a different protocol")]
fn cross_protocol_shards_are_rejected_with_a_named_panic() {
    let s = spec(100);
    let scan = build_hh("scan", &s).expect("registered");
    let sketch = build_hh("expander_sketch", &s).expect("registered");
    let foreign = sketch.new_shard();
    let mut scan = scan;
    // A scan server handed an expander-sketch shard must name the
    // mismatch instead of corrupting state.
    scan.finish_shard(foreign);
}

#[test]
fn unknown_names_are_rejected() {
    let s = spec(100);
    assert!(build_hh("heavy_hitter_3000", &s).is_none());
    assert!(build_oracle("heavy_hitter_3000", &s).is_none());
    // Protocol and oracle namespaces are disjoint.
    assert!(build_hh("krr", &s).is_none());
    assert!(build_oracle("expander_sketch", &s).is_none());
}
