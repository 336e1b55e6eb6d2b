//! `PrivateExpanderSketch` — locally differentially private heavy hitters
//! with optimal worst-case error (Bun–Nelson–Stemmer, PODS 2018, §3).
//!
//! The protocol solves Definition 3.1: report every `Δ`-heavy domain
//! element (with an estimate within `Δ` of its true count) using a single
//! `ε`-LDP message per user, with
//!
//! ```text
//! Δ* = O( (1/ε) · sqrt( n · log(|X|/β) ) )
//! ```
//!
//! — optimal in `n`, `|X|`, `ε` **and** the failure probability `β`
//! (Theorem 3.13), improving the `sqrt(log(1/β))` overhead of prior work.
//!
//! Crate layout:
//!
//! * [`params`] — [`SketchParams`]: the paper's `M, Y, B, ℓ, Z` with
//!   practical constants and honest threshold calibration.
//! * [`sketch`] — the algorithm itself (client and server halves).
//! * [`baselines`] — the prior state of the art it is measured against:
//!   [`baselines::bitstogram`] (\[3\]'s single-hash reduction with
//!   repetition, Theorem 3.3) and [`baselines::scan`] (frequency-oracle
//!   domain scan — exact but `Ω(|X|)` server time; also the `n > |X|`
//!   path mentioned under Theorem 3.13).
//! * [`verify`] — checkers for the Definition 3.1 contract.
//! * [`traits`] — the [`traits::HeavyHitterProtocol`] interface shared by
//!   all of the above (and by the sim/bench harness).

pub mod baselines;
pub mod params;
pub mod reduction;
pub mod sketch;
pub mod traits;
pub mod verify;

pub use params::SketchParams;
pub use sketch::{ExpanderSketch, SketchReport, SketchShard};
pub use traits::{Aggregator, HeavyHitterProtocol, WireError, WireReport, WireShard};
