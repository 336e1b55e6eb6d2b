//! Error-correcting and list-recoverable codes.
//!
//! The heart of the paper's upper bound (Theorem 3.6 / Appendix B) is a
//! *unique-list-recoverable code*: an encoder that interleaves an outer
//! error-correcting code with per-coordinate hash fingerprints of an
//! expander graph's neighborhoods, and a decoder that recovers every
//! codeword hit by most of the received lists via graph clustering.
//!
//! * [`gf`] — runtime-parameterized `GF(2^m)` table arithmetic
//!   (`m ∈ 3..=8` covers every configuration in the workspace).
//! * [`rs`] — Reed–Solomon (evaluation form) with Berlekamp–Welch
//!   errors-and-erasures decoding. This substitutes for the linear-time
//!   Spielman codes the paper cites: at block lengths
//!   `M ≤ 2^m − 1` the rate/distance trade-off is strictly better and
//!   decode cost is negligible.
//! * [`ulrc`] — the `(α, ℓ, L)`-unique-list-recoverable code of
//!   Theorem 3.6, generic over the expander and hash substrates.

pub mod gf;
pub mod rs;
pub mod ulrc;

pub use gf::Gf;
pub use rs::ReedSolomon;
pub use ulrc::{UlrcParams, UniqueListCode};
