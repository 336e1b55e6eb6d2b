//! Locally differentially private frequency oracles.
//!
//! A *frequency oracle* (Definition 3.2 of the paper) is a one-round LDP
//! protocol whose server-side output can estimate `f_S(x)` for every
//! domain element. This crate implements:
//!
//! * [`hashtogram`] — the oracle of Theorems 3.7/3.8 (\[3\]'s `Hashtogram`):
//!   count-sketch bucketing + Hadamard response, achieving per-query error
//!   `O((1/ε)·sqrt(n·log(1/β)))` with `O~(√n)` server memory and `O~(1)`
//!   user cost. The workhorse of `PrivateExpanderSketch`.
//! * [`rappor`] — basic one-hot RAPPOR \[12\], the industrial baseline the
//!   paper's introduction cites (Θ(|X|) user cost).
//! * [`krr`] — generalized randomized response over small domains.
//! * [`bassily_smith`] — a Bassily–Smith \[4\]-style JL projection oracle,
//!   the Table 1 comparison column.
//! * [`randomizers`] — single-message local randomizers with *computable
//!   densities* (binary/general RR, Hadamard response, and two genuinely
//!   approximate `(ε, δ)` randomizers), consumed by GenProt and by the
//!   exact privacy auditor in `hh-structure`.
//! * [`calibrate`] — the shared noise-scale and union-bound threshold
//!   calculations that connect oracle noise to protocol thresholds.
//! * [`wire`] — the byte-exact report wire format ([`WireReport`]) every
//!   oracle's `Report` implements, making the Table 1 communication
//!   claims measurable (and the protocols deployable across a real
//!   serialization boundary).
//!
//! Every protocol here is **non-interactive**: clients see only public
//! randomness (a single seed) and their own input.

pub mod bassily_smith;
pub mod calibrate;
pub mod hashtogram;
pub mod krr;
pub mod randomizers;
pub mod rappor;
pub mod traits;
pub mod wire;

pub use hashtogram::{
    Hashtogram, HashtogramAbsorber, HashtogramParams, HashtogramReport, HashtogramShard,
};
pub use traits::{Aggregator, FrequencyOracle, LocalRandomizer, RandomizerInput};
pub use wire::{FrameError, WireError, WireFrames, WireReport, WireShard};
