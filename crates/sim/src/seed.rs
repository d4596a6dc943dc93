//! Counter-based deterministic seed derivation.
//!
//! Every Monte-Carlo consumer derives the seed of a sub-task from `(root
//! seed, site, index)` instead of drawing it from a sequentially-chained
//! generator. The derivation is a SplitMix64-style bit mix: statistically
//! independent streams for distinct inputs, and — crucially — no ordering
//! dependence, so trials can run on any thread in any order and still
//! reproduce bit-identically.

/// Well-known derivation sites, so independent consumers never collide on
/// the same sub-stream of a root seed.
pub mod site {
    /// One Monte-Carlo trial (fault die) of an accuracy evaluation.
    pub const TRIAL: u64 = 0x01;
    /// One weight layer's fault overlay within a trial.
    pub const WEIGHT_LAYER: u64 = 0x02;
    /// The input/activation buffer's fault overlay within a trial.
    pub const INPUTS: u64 = 0x03;
    /// One voltage point of a sweep.
    pub const SWEEP_POINT: u64 = 0x04;
    /// ECC check-bit overlay accompanying a data overlay.
    pub const ECC_CHECK: u64 = 0x06;
    /// One differential accelerator-vs-reference verification trial.
    pub const DIFF_TRIAL: u64 = 0x08;
    /// One simulated die of a fleet-scale V_min/yield sweep.
    pub const FLEET_DIE: u64 = 0x09;
    /// A die's chip-to-chip variation profile (its `(mu, sigma)` draw from
    /// the hyper-distribution).
    pub const CHIP_PROFILE: u64 = 0x0A;
    /// The row/column burst stream of a correlated fault overlay, kept
    /// disjoint from the i.i.d. background stream of the same overlay seed.
    pub const FAULT_BURST: u64 = 0x0B;
    /// One fault-aware retraining epoch's overlay resample (the corruption
    /// die applied to the forward pass of that epoch).
    pub const RETRAIN_EPOCH: u64 = 0x0C;
    /// One memory's fault die on the bit-accurate executor (index 0: the
    /// weight memory, index 1: the input memory).
    pub const MEMORY: u64 = 0x0D;
}

/// SplitMix64 finalizer: a bijective avalanche mix of 64 bits.
#[inline]
#[must_use]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the seed of sub-task `index` at derivation `site` from `root`.
///
/// Properties:
/// * deterministic — a pure function of its three inputs;
/// * order-free — no hidden state, so callers may derive seeds in any
///   order from any thread;
/// * well-mixed — distinct `(site, index)` pairs land in statistically
///   independent streams even for adjacent indices (SplitMix64 avalanche).
#[inline]
#[must_use]
pub fn derive_seed(root: u64, site: u64, index: u64) -> u64 {
    // Weyl-sequence offsets keep (site, index) injective before mixing; the
    // constant tweak moves the all-zero input off the finalizer's fixed
    // point; two mix rounds separate even adjacent counters completely.
    let a = mix(root ^ 0xA076_1D64_78BD_642F ^ site.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    mix(a ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_pure() {
        assert_eq!(
            derive_seed(1, site::TRIAL, 7),
            derive_seed(1, site::TRIAL, 7)
        );
    }

    #[test]
    fn distinct_inputs_give_distinct_seeds() {
        let mut seen = std::collections::HashSet::new();
        for root in 0..4u64 {
            for s in [
                site::TRIAL,
                site::WEIGHT_LAYER,
                site::INPUTS,
                site::SWEEP_POINT,
                site::MEMORY,
            ] {
                for index in 0..64u64 {
                    assert!(
                        seen.insert(derive_seed(root, s, index)),
                        "collision at root={root} site={s} index={index}"
                    );
                }
            }
        }
    }

    #[test]
    fn adjacent_indices_differ_in_many_bits() {
        // Avalanche sanity: consecutive counters should flip ~32 bits.
        let mut total = 0u32;
        let n = 1000u64;
        for i in 0..n {
            total +=
                (derive_seed(9, site::TRIAL, i) ^ derive_seed(9, site::TRIAL, i + 1)).count_ones();
        }
        let avg = f64::from(total) / n as f64;
        assert!((24.0..40.0).contains(&avg), "average flipped bits {avg}");
    }

    #[test]
    fn zero_root_is_not_degenerate() {
        let a = derive_seed(0, 0, 0);
        let b = derive_seed(0, 0, 1);
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }
}
