//! The protocol registry: name → constructor dispatch over the
//! type-erased layer, so binaries select protocols by *runtime
//! configuration* (a CLI flag, a config file) instead of carrying
//! per-protocol monomorphized plumbing.
//!
//! Every protocol and frequency oracle in the workspace registers here
//! under a stable name, with a constructor from one shared parameter
//! record ([`ProtocolSpec`]). Callers look a name up
//! ([`build_hh`] / [`build_oracle`]), get a boxed
//! [`DynHhProtocol`] / [`DynOracle`], and drive it through the dyn
//! drivers in [`crate::run`] or the collector runtime
//! ([`crate::pipeline`]) via the
//! [`DynHhStream`](type@crate::erased::DynHhStream) /
//! [`DynOracleStream`](type@crate::erased::DynOracleStream) adapters.
//!
//! ```
//! use hh_sim::registry::{build_hh, ProtocolSpec};
//!
//! let spec = ProtocolSpec { n: 10_000, domain: 1 << 16, eps: 4.0, beta: 0.1, seed: 7 };
//! let mut server = build_hh("expander_sketch", &spec).expect("registered");
//! let run = hh_sim::run_heavy_hitter_batched(
//!     server.as_mut(), &[1, 2, 3], 9, &hh_sim::BatchPlan::default());
//! assert_eq!(run.n, 3);
//! ```

use crate::erased::{erase_hh, erase_oracle, DynHhProtocol, DynOracle};
use hh_core::baselines::{
    BassilySmithHeavyHitters, Bitstogram, BitstogramParams, BsHhParams, ScanHeavyHitters,
    ScanParams,
};
use hh_core::{ExpanderSketch, SketchParams};
use hh_freq::bassily_smith::BassilySmithOracle;
use hh_freq::hashtogram::{Hashtogram, HashtogramParams};
use hh_freq::krr::KrrOracle;
use hh_freq::rappor::Rappor;

/// The one parameter record every registered constructor builds from:
/// the quantities the paper's protocols are parameterized by, plus the
/// public-randomness seed.
#[derive(Debug, Clone)]
pub struct ProtocolSpec {
    /// Expected population size.
    pub n: u64,
    /// Domain size `|X|` (the dense-state protocols — `scan`, `krr`,
    /// `rappor` — hold Θ(|X|) state; keep their domains small).
    pub domain: u64,
    /// Per-user privacy budget ε.
    pub eps: f64,
    /// Failure probability β.
    pub beta: f64,
    /// Public-randomness seed (ignored by the seedless randomizers
    /// `krr` / `rappor`).
    pub seed: u64,
}

impl ProtocolSpec {
    /// Bits needed to index the domain (`ceil(log2(domain))`, min 1) —
    /// what the hash-based protocols are parameterized by.
    pub fn domain_bits(&self) -> u32 {
        (64 - self.domain.saturating_sub(1).leading_zeros()).max(1)
    }
}

/// One registered heavy-hitter protocol.
pub struct HhEntry {
    /// Stable lookup name.
    pub name: &'static str,
    /// One-line description (for `--help`-style listings).
    pub about: &'static str,
    /// Build an instance from a spec.
    pub build: fn(&ProtocolSpec) -> Box<dyn DynHhProtocol>,
}

/// One registered frequency oracle.
pub struct OracleEntry {
    /// Stable lookup name.
    pub name: &'static str,
    /// One-line description (for `--help`-style listings).
    pub about: &'static str,
    /// Build an instance from a spec.
    pub build: fn(&ProtocolSpec) -> Box<dyn DynOracle>,
}

/// Every registered heavy-hitter protocol.
pub const HH_PROTOCOLS: &[HhEntry] = &[
    HhEntry {
        name: "expander_sketch",
        about: "the paper's PrivateExpanderSketch (optimal worst-case error)",
        build: |spec| {
            erase_hh(ExpanderSketch::new(
                SketchParams::optimal(spec.n, spec.domain_bits(), spec.eps, spec.beta),
                spec.seed,
            ))
        },
    },
    HhEntry {
        name: "scan",
        about: "KRR + full domain scan baseline (Θ(|X|) server state)",
        build: |spec| {
            erase_hh(ScanHeavyHitters::new(
                ScanParams::new(spec.n, spec.domain, spec.eps, spec.beta),
                spec.seed,
            ))
        },
    },
    HhEntry {
        name: "bitstogram",
        about: "Bassily–Nissim–Stemmer–Thakurta Bitstogram [3]",
        build: |spec| {
            erase_hh(Bitstogram::new(
                BitstogramParams::optimal(spec.n, spec.domain_bits(), spec.eps, spec.beta),
                spec.seed,
            ))
        },
    },
    HhEntry {
        name: "bassily_smith_hh",
        about: "Bassily–Smith projection oracle + domain-scan search [4]",
        build: |spec| {
            erase_hh(BassilySmithHeavyHitters::new(
                BsHhParams::optimal(spec.n, spec.domain, spec.eps, spec.beta),
                spec.seed,
            ))
        },
    },
];

/// Every registered frequency oracle.
pub const ORACLES: &[OracleEntry] = &[
    OracleEntry {
        name: "hashtogram",
        about: "hashed Hashtogram frequency oracle",
        build: |spec| {
            erase_oracle(Hashtogram::new(
                HashtogramParams::hashed(spec.n, spec.domain, spec.eps, spec.beta),
                spec.seed,
            ))
        },
    },
    OracleEntry {
        name: "krr",
        about: "k-ary randomized response (Θ(|X|) server state)",
        build: |spec| erase_oracle(KrrOracle::new(spec.domain, spec.eps)),
    },
    OracleEntry {
        name: "rappor",
        about: "basic one-hot RAPPOR (Θ(|X|) reports and state)",
        build: |spec| erase_oracle(Rappor::new(spec.domain, spec.eps)),
    },
    OracleEntry {
        name: "bassily_smith",
        about: "Bassily–Smith projection frequency oracle [4] (w = n rows)",
        build: |spec| {
            erase_oracle(BassilySmithOracle::new(
                spec.domain,
                spec.eps,
                spec.n,
                spec.seed,
            ))
        },
    },
];

/// Names of every registered heavy-hitter protocol, in registry order.
pub fn hh_names() -> Vec<&'static str> {
    HH_PROTOCOLS.iter().map(|e| e.name).collect()
}

/// Names of every registered frequency oracle, in registry order.
pub fn oracle_names() -> Vec<&'static str> {
    ORACLES.iter().map(|e| e.name).collect()
}

/// Build the named heavy-hitter protocol from a spec (`None` for an
/// unregistered name — [`hh_names`] lists the valid ones).
pub fn build_hh(name: &str, spec: &ProtocolSpec) -> Option<Box<dyn DynHhProtocol>> {
    HH_PROTOCOLS
        .iter()
        .find(|e| e.name == name)
        .map(|e| (e.build)(spec))
}

/// Build the named frequency oracle from a spec (`None` for an
/// unregistered name — [`oracle_names`] lists the valid ones).
pub fn build_oracle(name: &str, spec: &ProtocolSpec) -> Option<Box<dyn DynOracle>> {
    ORACLES
        .iter()
        .find(|e| e.name == name)
        .map(|e| (e.build)(spec))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_nonempty() {
        let mut names = hh_names();
        names.extend(oracle_names());
        assert!(!names.is_empty());
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate registry names");
        assert!(names.iter().all(|n| !n.is_empty()));
    }

    #[test]
    fn unknown_names_build_nothing() {
        let spec = ProtocolSpec {
            n: 100,
            domain: 64,
            eps: 2.0,
            beta: 0.1,
            seed: 1,
        };
        assert!(build_hh("no_such_protocol", &spec).is_none());
        assert!(build_oracle("no_such_oracle", &spec).is_none());
    }

    #[test]
    fn domain_bits_round_up() {
        let spec = |domain| ProtocolSpec {
            n: 10,
            domain,
            eps: 1.0,
            beta: 0.1,
            seed: 0,
        };
        assert_eq!(spec(1).domain_bits(), 1);
        assert_eq!(spec(2).domain_bits(), 1);
        assert_eq!(spec(3).domain_bits(), 2);
        assert_eq!(spec(1 << 16).domain_bits(), 16);
        assert_eq!(spec((1 << 16) + 1).domain_bits(), 17);
    }
}
