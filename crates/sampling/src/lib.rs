//! # widen-sampling
//!
//! Neighbourhood sampling primitives for WIDEN and its baselines:
//!
//! * [`WideSet`] — Definition 2: a uniformly sampled set of first-order
//!   neighbours of a target node, with local/global index bookkeeping and
//!   the edge type connecting each neighbour to the target (needed by the
//!   `PACK∘` message-packaging of Eq. 1).
//! * [`DeepSet`] — Definition 3: a random-walk node sequence of length `N_d`
//!   starting at (but excluding) the target, recording the predecessor edge
//!   type of every hop (Eq. 2's `e_{s,s-1}`).
//! * [`AliasTable`] — O(1) weighted sampling for Node2Vec's biased walks and
//!   FastGCN's importance sampling.
//! * [`hash_seed`] — deterministic per-(node, epoch, stream) seeding.

#![deny(missing_docs)]
#![warn(clippy::all)]

mod alias;
mod deep;
mod wide;

pub use alias::AliasTable;
pub use deep::{sample_deep, sample_deep_multi, DeepEntry, DeepSet};
pub use wide::{sample_wide, WideEntry, WideSet};

/// Mixes a base seed with arbitrary stream identifiers into a fresh RNG seed
/// (SplitMix64 finalisation). Used to give every (node, epoch, φ) tuple an
/// independent but reproducible random stream.
pub fn hash_seed(base: u64, parts: &[u64]) -> u64 {
    let mut h = base ^ 0x9E37_79B9_7F4A_7C15;
    for &p in parts {
        h ^= p.wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = splitmix64(h);
    }
    splitmix64(h)
}

#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_seed_is_deterministic_and_stream_sensitive() {
        let a = hash_seed(7, &[1, 2, 3]);
        let b = hash_seed(7, &[1, 2, 3]);
        let c = hash_seed(7, &[1, 2, 4]);
        let d = hash_seed(8, &[1, 2, 3]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn hash_seed_order_sensitive() {
        assert_ne!(hash_seed(0, &[1, 2]), hash_seed(0, &[2, 1]));
    }
}
