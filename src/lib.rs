//! # ldp-heavy-hitters
//!
//! A from-scratch Rust implementation of **"Heavy Hitters and the
//! Structure of Local Privacy"** (Bun, Nelson, Stemmer — PODS 2018):
//! locally differentially private heavy hitters with worst-case error
//! optimal in every parameter, plus the paper's structural results
//! (advanced grouposition, pure-LDP composition for randomized response,
//! the GenProt approximate→pure transformation, and the matching lower
//! bound).
//!
//! See `README.md` for a tour: its "Architecture" section covers the
//! encoder/aggregator design, and "Reproducing the Table 1 experiments"
//! lists the commands behind every quantitative claim.
//!
//! ```no_run
//! use ldp_heavy_hitters::prelude::*;
//!
//! let n: u64 = 1 << 18;
//! let data: Vec<u64> = Workload::zipf(1 << 32, 1.2).generate(n as usize, 1);
//! let params = SketchParams::optimal(n, 32, 2.0, 0.05);
//! let mut server = ExpanderSketch::new(params, 42);
//! // The batched driver: a one-shot run of the collector fleet — fused
//! // client respond + encode on worker threads, one collector per
//! // worker absorbing the wire chunks, tree merge, then finish.
//! // Bit-for-bit identical to the serial `run_heavy_hitter` at any
//! // chunk/thread count.
//! let run = run_heavy_hitter_batched(&mut server, &data, 7, &BatchPlan::default());
//! let heavy_hitters: Vec<(u64, f64)> = run.estimates;
//! ```

pub use hh_codes as codes;
pub use hh_core as core;
pub use hh_freq as freq;
pub use hh_graph as graph;
pub use hh_hash as hash;
pub use hh_lower as lower;
pub use hh_math as math;
pub use hh_sim as sim;
pub use hh_structure as structure;

/// Most-used items in one import.
pub mod prelude {
    pub use hh_core::baselines::{Bitstogram, BitstogramParams, ScanHeavyHitters, ScanParams};
    pub use hh_core::traits::{Aggregator, HeavyHitterProtocol};
    pub use hh_core::{ExpanderSketch, SketchParams};
    pub use hh_freq::hashtogram::{Hashtogram, HashtogramParams};
    pub use hh_freq::traits::{FrequencyOracle, LocalRandomizer, RandomizerInput};
    pub use hh_freq::wire::{FrameError, WireError, WireFrames, WireReport, WireShard};
    pub use hh_math::{client_rng, derive_seed, seeded_rng, FinishScratch};
    pub use hh_sim::registry::ProtocolSpec;
    pub use hh_sim::{
        build_hh, build_oracle, run_heavy_hitter, run_heavy_hitter_batched,
        run_heavy_hitter_distributed, run_oracle, run_oracle_batched, run_oracle_distributed,
        run_pipelined, BatchPlan, DistPlan, DynHhProtocol, DynOracle, MergeOrder, PipelineConfig,
        Workload,
    };
    pub use hh_structure::{ApproxComposedRr, ComposedRr, GenProt};
}
