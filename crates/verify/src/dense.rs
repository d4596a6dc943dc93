//! The dense per-cell fault die: the original Monte-Carlo sampler of the
//! paper's Fig. 11 methodology, kept as a test oracle.
//!
//! A [`VminField`] gives *every* bitcell of a die a concrete minimum
//! reliable voltage drawn from the [`VminFaultModel`]'s Gaussian.
//! Evaluating the same field at several supply voltages yields
//! **inclusive** fault maps ([`FaultMask`]) — the fault set at a lower
//! voltage is a superset of the fault set at any higher voltage — exactly
//! the property the paper's methodology demands ("failures present in a
//! fault map at voltage V1 will also include failures present at voltage
//! V2, where V1 < V2"). A [`FaultOverlay`] adds the paper's per-cell
//! Bernoulli(p) read-flip decisions ("the probability of a bit flip in a
//! faulty bitcell is p, assumed to be 0.5 by default") and applies the
//! resulting corruption to packed `u64` bit images.
//!
//! Production draws every die through `dante_sram::model::DieFaultModel`'s
//! sparse sampler, which samples only the faulty-at-floor tail. These
//! types cost O(bits) per die and serve only as references: the dense
//! evaluator ([`crate::dense_evaluate`]), the corruption helpers of
//! [`crate::forward`] and [`crate::differential`], the exact sparse-vs-dense
//! check of [`crate::overlay`], and the statistical suites.

use dante_circuit::units::Volt;
use dante_sram::fault::VminFaultModel;
use dante_sram::sparse::{bit_mask, word_index};
use rand::Rng;
use rand_distr::{Distribution, Normal};

/// A packed bitmask of faulty cells at one voltage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultMask {
    words: Vec<u64>,
    len: usize,
}

impl FaultMask {
    fn with_len(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of cells covered by the mask.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mask covers zero cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether cell `idx` is faulty.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len`.
    #[inline]
    #[must_use]
    pub fn get(&self, idx: usize) -> bool {
        assert!(idx < self.len, "cell index {idx} out of range");
        self.words[word_index(idx)] & bit_mask(idx) != 0
    }

    /// Number of faulty cells: a single `count_ones` pass over the packed
    /// words (bits past `len` are structurally zero — the fault-word stream
    /// never sets them — so the final partial word needs no extra masking).
    #[must_use]
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The packed 64-bit words of the mask (cell `i` is bit `i % 64` of word
    /// `i / 64`); useful for XOR-style overlay onto packed data words.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Whether every faulty cell of `other` is also faulty in `self` — the
    /// inclusivity check.
    ///
    /// # Panics
    ///
    /// Panics if the masks cover different cell counts.
    #[must_use]
    pub fn is_superset_of(&self, other: &Self) -> bool {
        assert_eq!(self.len, other.len, "mask length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & b == *b)
    }
}

/// A per-cell `V_min` field: one Monte-Carlo die instance.
#[derive(Debug, Clone, PartialEq)]
pub struct VminField {
    vmins: Vec<f32>,
}

impl VminField {
    /// Draws a fresh die: `bits` i.i.d. cell V_mins from `model`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero.
    #[must_use]
    pub fn generate<R: Rng + ?Sized>(bits: usize, model: &VminFaultModel, rng: &mut R) -> Self {
        assert!(bits > 0, "a die needs at least one cell");
        let normal = Normal::new(model.mu().volts(), model.sigma().volts())
            .expect("validated sigma is positive");
        let vmins = (0..bits).map(|_| normal.sample(rng) as f32).collect();
        Self { vmins }
    }

    /// Number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.vmins.len()
    }

    /// Whether the field has zero cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.vmins.is_empty()
    }

    /// Whether cell `idx` is faulty at supply voltage `v`
    /// (`v < v_c(idx)`).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn is_faulty(&self, idx: usize, v: Volt) -> bool {
        (v.volts() as f32) < self.vmins[idx]
    }

    /// The fault mask of this die at supply voltage `v`.
    #[must_use]
    pub fn fault_mask(&self, v: Volt) -> FaultMask {
        let mut mask = FaultMask::with_len(self.len());
        for (w, word) in self.fault_words(v).zip(mask.words.iter_mut()) {
            *word = w;
        }
        mask
    }

    /// The packed fault words of this die at `v`, streamed one 64-bit word
    /// at a time without materializing a [`FaultMask`] (cell `i` is bit
    /// `i % 64` of word `i / 64`; bits past the last cell are zero).
    pub fn fault_words(&self, v: Volt) -> impl Iterator<Item = u64> + '_ {
        let vf = v.volts() as f32;
        self.vmins.chunks(64).map(move |chunk| {
            let mut w = 0u64;
            for (bit, &vmin) in chunk.iter().enumerate() {
                if vf < vmin {
                    w |= 1u64 << bit;
                }
            }
            w
        })
    }

    /// Number of faulty cells at `v` without materializing a mask.
    #[must_use]
    pub fn fault_count(&self, v: Volt) -> usize {
        let vf = v.volts() as f32;
        self.vmins.iter().filter(|&&m| vf < m).count()
    }

    /// Empirical bit error rate of this die at `v`.
    #[must_use]
    pub fn empirical_ber(&self, v: Volt) -> f64 {
        self.fault_count(v) as f64 / self.len() as f64
    }

    /// The raw per-cell V_min draws, in volts — the sample set that
    /// statistical acceptance tests (KS, chi-square) compare against the
    /// analytic Gaussian.
    #[must_use]
    pub fn values(&self) -> &[f32] {
        &self.vmins
    }
}

/// A reusable fault overlay: one die's V_min field plus its read-flip
/// decisions, applicable to any packed bit image.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultOverlay {
    vmins: VminField,
    flips: Vec<u64>,
}

impl FaultOverlay {
    /// Draws a fresh die of `bits` cells from `model`, including the
    /// per-cell flip decisions at the model's read-flip probability.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero.
    #[must_use]
    pub fn generate<R: Rng + ?Sized>(bits: usize, model: &VminFaultModel, rng: &mut R) -> Self {
        let vmins = VminField::generate(bits, model, rng);
        let p = model.read_flip_probability();
        let mut flips = vec![0u64; bits.div_ceil(64)];
        for (idx, word) in flips.iter_mut().enumerate() {
            for bit in 0..64 {
                if idx * 64 + bit < bits && rng.gen_bool(p) {
                    *word |= 1 << bit;
                }
            }
        }
        Self { vmins, flips }
    }

    /// Draws the die deterministically from an explicit seed: the overlay is
    /// a pure function of `(bits, model, seed)`, so Monte-Carlo trials can
    /// regenerate their die from a derived seed on any thread in any order.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero.
    #[must_use]
    pub fn from_seed(bits: usize, model: &VminFaultModel, seed: u64) -> Self {
        use rand::SeedableRng as _;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Self::generate(bits, model, &mut rng)
    }

    /// Number of cells covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.vmins.len()
    }

    /// Whether the overlay covers zero cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.vmins.is_empty()
    }

    /// The underlying V_min field.
    #[must_use]
    pub fn vmins(&self) -> &VminField {
        &self.vmins
    }

    /// The packed per-cell read-flip decisions (bit `i % 64` of word
    /// `i / 64`), voltage-independent; the corruption at `v` is
    /// `fault_mask(v) & flips`.
    #[must_use]
    pub fn flip_words(&self) -> &[u64] {
        &self.flips
    }

    /// Streams the corruption words at voltage `v` — bit `i` set iff cell
    /// `i` is faulty at `v` *and* its flip decision fired — one 64-bit word
    /// at a time, without materializing a mask or a `Vec`.
    pub fn corruption_iter(&self, v: Volt) -> impl Iterator<Item = u64> + '_ {
        self.vmins
            .fault_words(v)
            .zip(&self.flips)
            .map(|(f, fl)| f & fl)
    }

    /// The corruption mask at voltage `v` as an owned vector (allocating
    /// convenience form of [`Self::corruption_iter`]).
    #[must_use]
    pub fn corruption_words(&self, v: Volt) -> Vec<u64> {
        self.corruption_iter(v).collect()
    }

    /// Applies the corruption at voltage `v` in place to a packed bit image,
    /// without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `words` is shorter than the overlay requires.
    pub fn apply(&self, words: &mut [u64], v: Volt) {
        let needed = self.flips.len();
        assert!(
            words.len() >= needed,
            "bit image ({} words) shorter than overlay ({needed} words)",
            words.len()
        );
        for (w, c) in words.iter_mut().zip(self.corruption_iter(v)) {
            *w ^= c;
        }
    }

    /// Number of bits that would flip at voltage `v`: a single `count_ones`
    /// pass over the streamed corruption words (the partial final word is
    /// already masked by the fault-word stream), no allocation.
    #[must_use]
    pub fn flip_count(&self, v: Volt) -> usize {
        self.corruption_iter(v)
            .map(|w| w.count_ones() as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn field(bits: usize, seed: u64) -> VminField {
        let model = VminFaultModel::default_14nm();
        let mut rng = StdRng::seed_from_u64(seed);
        VminField::generate(bits, &model, &mut rng)
    }

    #[test]
    fn empirical_ber_matches_analytic_model() {
        let model = VminFaultModel::default_14nm();
        let f = field(200_000, 7);
        for mv in [380, 400, 420, 440] {
            let v = Volt::from_millivolts(f64::from(mv));
            let analytic = model.bit_error_rate(v);
            let empirical = f.empirical_ber(v);
            let tol = 4.0 * (analytic / 200_000.0).sqrt() + 1e-4;
            assert!(
                (empirical - analytic).abs() < tol,
                "at {v}: empirical {empirical} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn fault_maps_are_inclusive_across_voltages() {
        let f = field(50_000, 11);
        let low = f.fault_mask(Volt::new(0.36));
        let mid = f.fault_mask(Volt::new(0.42));
        let high = f.fault_mask(Volt::new(0.50));
        assert!(low.is_superset_of(&mid));
        assert!(mid.is_superset_of(&high));
        assert!(low.count() > mid.count());
        assert!(mid.count() >= high.count());
    }

    #[test]
    fn mask_count_matches_field_count() {
        let f = field(10_000, 3);
        let v = Volt::new(0.40);
        assert_eq!(f.fault_mask(v).count(), f.fault_count(v));
    }

    #[test]
    fn mask_get_agrees_with_is_faulty() {
        let f = field(1_000, 5);
        let v = Volt::new(0.38);
        let mask = f.fault_mask(v);
        for idx in 0..f.len() {
            assert_eq!(mask.get(idx), f.is_faulty(idx, v));
        }
    }

    #[test]
    fn high_voltage_has_no_faults() {
        let f = field(100_000, 9);
        // 0.60 V is ~6 sigma above the mean cell V_min.
        assert_eq!(f.fault_count(Volt::new(0.60)), 0);
    }

    #[test]
    fn different_seeds_give_different_dies() {
        let a = field(1_000, 1);
        let b = field(1_000, 2);
        assert_ne!(a, b);
        // But the same seed reproduces the same die (determinism for
        // Monte-Carlo repeatability).
        let a2 = field(1_000, 1);
        assert_eq!(a, a2);
    }

    #[test]
    fn mask_words_pack_little_endian_bit_order() {
        let f = field(130, 13);
        let v = Volt::new(0.34);
        let mask = f.fault_mask(v);
        for idx in 0..130 {
            let w = mask.words()[idx / 64];
            assert_eq!(w & (1 << (idx % 64)) != 0, mask.get(idx));
        }
    }

    #[test]
    fn fault_words_stream_matches_materialized_mask() {
        let f = field(1_000, 17);
        for mv in [340, 400, 460] {
            let v = Volt::from_millivolts(f64::from(mv));
            let streamed: Vec<u64> = f.fault_words(v).collect();
            assert_eq!(streamed, f.fault_mask(v).words());
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn superset_requires_equal_lengths() {
        let a = field(100, 1).fault_mask(Volt::new(0.4));
        let b = field(101, 1).fault_mask(Volt::new(0.4));
        let _ = a.is_superset_of(&b);
    }

    #[test]
    fn overlay_apply_matches_flip_count() {
        let model = VminFaultModel::default_14nm();
        let mut rng = StdRng::seed_from_u64(5);
        let overlay = FaultOverlay::generate(4096, &model, &mut rng);
        let v = Volt::new(0.36);
        let mut image = vec![0u64; 64];
        overlay.apply(&mut image, v);
        let set: usize = image.iter().map(|w| w.count_ones() as usize).sum();
        assert_eq!(set, overlay.flip_count(v));
        // Applying twice cancels (XOR overlay).
        overlay.apply(&mut image, v);
        assert!(image.iter().all(|&w| w == 0));
    }

    #[test]
    fn overlay_flip_count_is_about_half_fault_count() {
        let model = VminFaultModel::default_14nm();
        let mut rng = StdRng::seed_from_u64(6);
        let overlay = FaultOverlay::generate(100_000, &model, &mut rng);
        let v = Volt::new(0.38);
        let faults = overlay.vmins().fault_count(v);
        let flips = overlay.flip_count(v);
        let ratio = flips as f64 / faults as f64;
        assert!(
            (0.42..=0.58).contains(&ratio),
            "flip/fault ratio {ratio} should be ~0.5 (p = 0.5)"
        );
    }

    #[test]
    #[should_panic(expected = "shorter than overlay")]
    fn overlay_apply_bounds_checked() {
        let model = VminFaultModel::default_14nm();
        let mut rng = StdRng::seed_from_u64(8);
        let overlay = FaultOverlay::generate(256, &model, &mut rng);
        let mut image = vec![0u64; 2];
        overlay.apply(&mut image, Volt::new(0.4));
    }
}
