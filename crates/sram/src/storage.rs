//! Bit-accurate faulty SRAM storage.
//!
//! A [`FaultyMacro`] holds real data bits plus one Monte-Carlo die instance
//! ([`VminField`]) and a *flip field*: the paper's per-cell Bernoulli(p)
//! decision of whether a faulty cell actually manifests as a bit flip when
//! read ("the probability of a bit flip in a faulty bitcell is p, assumed to
//! be 0.5 by default"). Reading a word at supply voltage `v` XORs the stored
//! data with `faulty_at(v) & flips` — so a given die corrupts
//! deterministically, and Monte-Carlo variation comes from regenerating the
//! die, exactly as in the paper's 100-fault-map methodology.
//!
//! [`FaultOverlay`] exposes the same corruption as a bulk operation over
//! packed `u64` words, which the higher-level crates use to corrupt
//! quantized weight tensors without materializing a full SRAM.

use crate::fault::VminFaultModel;
use crate::fault_map::VminField;
use crate::geometry::MacroGeometry;
use dante_circuit::units::Volt;
use rand::Rng;

/// Read/write counters for one macro.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AccessStats {
    /// Number of word reads served.
    pub reads: u64,
    /// Number of word writes served.
    pub writes: u64,
}

impl AccessStats {
    /// Total accesses (reads + writes).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.reads + self.writes
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

    /// Materializes the corruption words at `v` into a caller-provided
    /// scratch buffer (cleared first, capacity reused) — the zero-realloc
    /// form the Monte-Carlo hot path uses.
    pub fn corruption_words_into(&self, v: Volt, out: &mut Vec<u64>) {
        out.clear();
        out.extend(self.corruption_iter(v));
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

/// One SRAM macro with data, a fault die, and access statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultyMacro {
    geometry: MacroGeometry,
    data: Vec<u64>,
    overlay: Option<FaultOverlay>,
    stats: AccessStats,
}

impl FaultyMacro {
    /// Creates a macro with a freshly drawn fault die.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(
        geometry: MacroGeometry,
        model: &VminFaultModel,
        rng: &mut R,
    ) -> Self {
        let overlay = FaultOverlay::generate(geometry.capacity_bits(), model, rng);
        Self {
            geometry,
            data: vec![0; geometry.words()],
            overlay: Some(overlay),
            stats: AccessStats::default(),
        }
    }

    /// Creates a macro whose die is drawn deterministically from `seed`
    /// (see [`FaultOverlay::from_seed`]).
    #[must_use]
    pub fn from_seed(geometry: MacroGeometry, model: &VminFaultModel, seed: u64) -> Self {
        Self {
            geometry,
            data: vec![0; geometry.words()],
            overlay: Some(FaultOverlay::from_seed(
                geometry.capacity_bits(),
                model,
                seed,
            )),
            stats: AccessStats::default(),
        }
    }

    /// Creates an ideal, fault-free macro (for reference runs).
    #[must_use]
    pub fn fault_free(geometry: MacroGeometry) -> Self {
        Self {
            geometry,
            data: vec![0; geometry.words()],
            overlay: None,
            stats: AccessStats::default(),
        }
    }

    /// The macro geometry.
    #[must_use]
    pub fn geometry(&self) -> MacroGeometry {
        self.geometry
    }

    /// Access statistics so far.
    #[must_use]
    pub fn stats(&self) -> AccessStats {
        self.stats
    }

    /// Resets the access counters.
    pub fn reset_stats(&mut self) {
        self.stats = AccessStats::default();
    }

    fn word_mask(&self) -> u64 {
        if self.geometry.bits_per_word() == 64 {
            u64::MAX
        } else {
            (1u64 << self.geometry.bits_per_word()) - 1
        }
    }

    /// Writes a word. Bits beyond the word width are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of range.
    pub fn write(&mut self, word: usize, value: u64) {
        assert!(word < self.geometry.words(), "word {word} out of range");
        self.data[word] = value & self.word_mask();
        self.stats.writes += 1;
    }

    /// Reads a word at effective supply voltage `v`: faulty cells whose flip
    /// decision fired return corrupted bits.
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of range.
    #[must_use]
    pub fn read(&mut self, word: usize, v: Volt) -> u64 {
        assert!(word < self.geometry.words(), "word {word} out of range");
        self.stats.reads += 1;
        let raw = self.data[word];
        let Some(overlay) = &self.overlay else {
            return raw;
        };
        let bpw = self.geometry.bits_per_word();
        let mut out = raw;
        let base = word * bpw;
        // Cells are indexed row-major; fetch this word's slice of the
        // corruption mask.
        for bit in 0..bpw {
            let idx = base + bit;
            if overlay.vmins().is_faulty(idx, v) && overlay.flips[idx / 64] & (1 << (idx % 64)) != 0
            {
                out ^= 1 << bit;
            }
        }
        out & self.word_mask()
    }

    /// Reads the stored word with no fault injection (debug/reference).
    ///
    /// # Panics
    ///
    /// Panics if `word` is out of range.
    #[must_use]
    pub fn read_reliable(&self, word: usize) -> u64 {
        assert!(word < self.geometry.words(), "word {word} out of range");
        self.data[word]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_macro(seed: u64) -> FaultyMacro {
        let mut rng = StdRng::seed_from_u64(seed);
        FaultyMacro::new(
            MacroGeometry::dante_4kb(),
            &VminFaultModel::default_14nm(),
            &mut rng,
        )
    }

    #[test]
    fn reads_are_clean_at_high_voltage() {
        let mut m = test_macro(1);
        for w in 0..512 {
            m.write(w, 0xDEAD_BEEF_CAFE_F00D ^ w as u64);
        }
        for w in 0..512 {
            assert_eq!(m.read(w, Volt::new(0.60)), 0xDEAD_BEEF_CAFE_F00D ^ w as u64);
        }
    }

    #[test]
    fn reads_corrupt_at_low_voltage_at_roughly_model_rate() {
        let mut m = test_macro(2);
        for w in 0..512 {
            m.write(w, 0);
        }
        let v = Volt::new(0.40);
        let mut flipped = 0usize;
        for w in 0..512 {
            flipped += m.read(w, v).count_ones() as usize;
        }
        let expected = VminFaultModel::default_14nm().bit_flip_rate(v) * 32_768.0;
        // Loose 4-sigma binomial band.
        let tol = 4.0 * expected.sqrt() + 5.0;
        assert!(
            ((flipped as f64) - expected).abs() < tol,
            "flipped {flipped} vs expected {expected}"
        );
    }

    #[test]
    fn corruption_is_deterministic_per_die() {
        let mut m = test_macro(3);
        m.write(7, 0x1234_5678_9ABC_DEF0);
        let v = Volt::new(0.38);
        let a = m.read(7, v);
        let b = m.read(7, v);
        assert_eq!(a, b, "same die must corrupt the same way on every read");
    }

    #[test]
    fn fault_free_macro_never_corrupts() {
        let mut m = FaultyMacro::fault_free(MacroGeometry::dante_4kb());
        m.write(0, u64::MAX);
        assert_eq!(m.read(0, Volt::new(0.30)), u64::MAX);
    }

    #[test]
    fn stats_count_reads_and_writes() {
        let mut m = test_macro(4);
        m.write(0, 1);
        m.write(1, 2);
        let _ = m.read(0, Volt::new(0.6));
        assert_eq!(
            m.stats(),
            AccessStats {
                reads: 1,
                writes: 2
            }
        );
        assert_eq!(m.stats().total(), 3);
        m.reset_stats();
        assert_eq!(m.stats().total(), 0);
    }

    #[test]
    fn narrow_words_mask_high_bits() {
        let mut m = FaultyMacro::fault_free(MacroGeometry::new(4, 16));
        m.write(0, 0xFFFF_FFFF);
        assert_eq!(m.read_reliable(0), 0xFFFF);
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
    fn corruption_words_into_reuses_the_buffer() {
        let model = VminFaultModel::default_14nm();
        let mut rng = StdRng::seed_from_u64(9);
        let overlay = FaultOverlay::generate(4096, &model, &mut rng);
        let v = Volt::new(0.38);
        let mut buf = vec![u64::MAX; 3]; // stale garbage must be cleared
        overlay.corruption_words_into(v, &mut buf);
        assert_eq!(buf, overlay.corruption_words(v));
        let streamed: Vec<u64> = overlay.corruption_iter(v).collect();
        assert_eq!(buf, streamed);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn read_bounds_checked() {
        let mut m = test_macro(7);
        let _ = m.read(512, Volt::new(0.5));
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
