//! Expander graphs and cluster-preserving spectral clustering.
//!
//! Two substrates of the paper live here:
//!
//! 1. The **d-regular spectral expander** `F` on `M` vertices used by the
//!    unique-list-recoverable code of Theorem 3.6. The paper's footnote 7
//!    licenses a Las Vegas construction ("a random graph is a spectral
//!    expander with high probability, and spectral expansion can be
//!    verified efficiently"), which is what [`expander::expander`]
//!    implements: sample random regular graphs and verify the second
//!    eigenvalue by power iteration until one passes.
//!
//! 2. The **clustering algorithm of Theorem B.3** (from Larsen–Nelson–
//!    Nguyen–Thorup \[22\]): given a graph whose η-spectral clusters
//!    (Definition B.2) are near-disjoint expander copies plus noise edges,
//!    recover each cluster up to O(η) volume. We implement recursive
//!    spectral partitioning with conductance sweep cuts
//!    ([`cluster::spectral_clusters`]); the [`cluster`] module docs say
//!    why this substitution preserves the contract Appendix B consumes.

pub mod cluster;
pub mod expander;
pub mod graph;
pub mod spectral;

pub use expander::{expander, ExpanderGraph};
pub use graph::Graph;
