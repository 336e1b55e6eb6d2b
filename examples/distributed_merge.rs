//! Distributed collection: the URL-telemetry workload split across a
//! fleet of 8 simulated collector nodes.
//!
//! Each browser's report is serialized through its wire encoding (the
//! bytes that would leave the device), routed to one of 8 collectors,
//! and absorbed into that collector's private shard. The shards are
//! merged tree-wise — the way a real aggregation tier fans in — and the
//! merged state is finished centrally. Because shards are exact integer
//! aggregates, the fleet's answer is bit-for-bit the single-server
//! answer, which the example verifies.
//!
//! ```sh
//! cargo run --release --example distributed_merge
//! ```

use ldp_heavy_hitters::core::verify;
use ldp_heavy_hitters::prelude::*;
use ldp_heavy_hitters::sim::registry::{build_hh, ProtocolSpec};
use ldp_heavy_hitters::sim::{run_dyn_heavy_hitter, run_heavy_hitter_distributed};

fn main() {
    let n: usize = 1 << 17;
    let domain_bits = 40; // "every URL on the web"
    let eps = 4.0;
    let beta = 0.1;
    let collectors = 8;

    // The protocol comes from the registry by name — swap the string to
    // fan any other registered protocol across the same fleet.
    let spec = ProtocolSpec {
        n: n as u64,
        domain: 1u64 << domain_bits,
        eps,
        beta,
        seed: 99,
    };
    let single = build_hh("expander_sketch", &spec).expect("registered protocol");
    let delta = single.detection_threshold();

    // Telemetry-shaped traffic: heavily-visited homepages above the
    // detection threshold plus a giant uniform long tail.
    let homepage_ids: Vec<u64> = vec![0x3B_7796_7A21, 0x1C_EB00_DA72]; // < 2^40
    let frac = (1.3 * delta / n as f64).min(0.45);
    let workload = Workload::planted(
        1u64 << domain_bits,
        homepage_ids.iter().map(|&id| (id, frac)).collect(),
    );
    let data = workload.generate(n, 3);

    println!("URL telemetry across a collector fleet");
    println!("  n = {n} browsers, |X| = 2^{domain_bits} URLs, {collectors} collector nodes");

    // Single server: the reference answer.
    let mut single = single;
    let reference = run_dyn_heavy_hitter(single.as_mut(), &data, 100);

    // The fleet: wire round-trip, 8 shards, tree merge. Same seed, so
    // the clients send byte-identical reports.
    let plan = DistPlan {
        collectors,
        ..DistPlan::default()
    };
    let mut fleet = build_hh("expander_sketch", &spec).expect("registered protocol");
    let distributed = run_heavy_hitter_distributed(fleet.as_mut(), &data, 100, &plan);

    assert_eq!(
        distributed.estimates, reference.estimates,
        "fleet answer diverged from the single server"
    );
    println!(
        "\n  wire traffic: {} bytes total, {:.2} bytes/user (claimed {} bits/report)",
        distributed.wire_bytes,
        distributed.wire_bytes_per_user(),
        distributed.report_bits,
    );
    println!(
        "  phases: respond+encode {:?}, collect {:?}, merge {:?}, finish {:?}",
        distributed.client_total,
        distributed.server_ingest,
        distributed.server_merge,
        distributed.server_finish,
    );

    let hist = verify::histogram(&data);
    println!("\n  top URLs under eps = {eps} local DP (fleet == single server):");
    for &(x, est) in &distributed.estimates {
        let truth = *hist.get(&x).unwrap_or(&0);
        let marker = if homepage_ids.contains(&x) {
            "planted"
        } else {
            "       "
        };
        println!("    {x:#14x}  est {est:>9.0}  true {truth:>7}  {marker}");
    }
    let recovered = homepage_ids
        .iter()
        .filter(|id| distributed.estimates.iter().any(|&(x, _)| x == **id))
        .count();
    println!(
        "\n  recovered {recovered}/{} planted homepages, bit-for-bit across {collectors} nodes",
        homepage_ids.len()
    );
    assert!(recovered == homepage_ids.len(), "lost a planted homepage");
}
