//! Deterministic seed derivation.
//!
//! Protocols in this workspace publish their entire public randomness as a
//! single `u64` seed (matching the `O~(1)` public-randomness row of the
//! paper's Table 1). Every component derives its own independent stream
//! from that seed with a SplitMix64 hop, so adding components never
//! perturbs existing streams and all runs are exactly reproducible.

use crate::sampler::{ClientCoins, ClientRng};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The SplitMix64 sequence increment (Weyl constant).
pub(crate) const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The label pre-multiplier of [`derive_seed`] (an odd constant so the
/// multiply is a bijection on labels).
pub(crate) const LABEL_MUL: u64 = 0xA24B_AED4_963E_E407;

/// SplitMix64 finalizer — a high-quality 64-bit mixer.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(SPLITMIX_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive a child seed from a parent seed and a component label.
///
/// Labels are small integers or hashed strings; derivation is collision
/// resistant enough for distinct small labels (full 64-bit mixing).
pub fn derive_seed(parent: u64, label: u64) -> u64 {
    splitmix64(parent ^ splitmix64(label.wrapping_mul(LABEL_MUL)))
}

/// A fast, seedable RNG for simulations (not cryptographic — the privacy
/// *analysis* treats randomizer coins as perfect; see README caveats).
pub fn seeded_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed)
}

/// The per-user client coin stream of the batch execution contract.
///
/// Every driver (serial, batched, distributed or streaming) gives user
/// `i` the stream `client_rng(client_seed, i)`, so a user's coins depend
/// only on the run seed and her own index — never on chunk boundaries,
/// thread count, collector count, or the order other users are
/// processed. This is what makes the collector-fleet drivers
/// (`run_heavy_hitter_batched` among them) bit-for-bit equivalent to the
/// serial runner at any parallelism.
///
/// The stream is SplitMix64 from `derive_seed(client_seed, user_index)`
/// (see [`crate::sampler::ClientRng`]); batch encoders amortize the
/// derivation over user runs with [`crate::sampler::ClientCoins`], of
/// which this function is the single-user entry point.
pub fn client_rng(client_seed: u64, user_index: u64) -> ClientRng {
    ClientCoins::new(client_seed).user(user_index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn derivation_is_deterministic() {
        assert_eq!(derive_seed(1, 2), derive_seed(1, 2));
    }

    #[test]
    fn distinct_labels_distinct_seeds() {
        let parent = 0xDEAD_BEEF;
        let mut seen = std::collections::HashSet::new();
        for label in 0..10_000u64 {
            assert!(
                seen.insert(derive_seed(parent, label)),
                "collision at {label}"
            );
        }
    }

    #[test]
    fn distinct_parents_distinct_streams() {
        let a: Vec<u64> = {
            let mut r = seeded_rng(derive_seed(1, 7));
            (0..8).map(|_| r.gen()).collect()
        };
        let b: Vec<u64> = {
            let mut r = seeded_rng(derive_seed(2, 7));
            (0..8).map(|_| r.gen()).collect()
        };
        assert_ne!(a, b);
    }

    #[test]
    fn splitmix_avalanche_sanity() {
        // One-bit input flips should change ~half the output bits.
        let x = splitmix64(0x1234_5678);
        let y = splitmix64(0x1234_5679);
        let diff = (x ^ y).count_ones();
        assert!((16..=48).contains(&diff), "poor avalanche: {diff} bits");
    }
}
