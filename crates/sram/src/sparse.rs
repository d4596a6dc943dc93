//! Sparse tail-sampled fault overlays: O(faulty bits) Monte-Carlo dies.
//!
//! A dense [`crate::fault_map::VminField`] draws a Gaussian V_min for
//! *every* cell of a die, even though at any operating voltage only the
//! upper tail of the distribution — `F(v) = Q((v - mu) / sigma)`, at most
//! ~1.4e-2 at 0.44 V and as little as 1e-9 near the top of the sweep — can
//! ever fault. A [`SparseOverlay`] samples only that tail: given a *floor
//! voltage* `v_floor` (the lowest voltage the sweep will evaluate), it draws
//! the faulty-at-floor cell set directly via geometric-gap Bernoulli
//! skipping (the count is exactly Binomial(bits, F(v_floor))-distributed)
//! and gives each faulty cell a V_min from the Gaussian tail above `v_floor`
//! via the inverse CDF, plus the paper's Bernoulli read-flip decision.
//!
//! The result is behaviorally interchangeable with a dense
//! [`FaultOverlay`] for any voltage `v >= v_floor` — same fault-count
//! distribution, same V_min distribution above the floor, same inclusivity
//! (the fault set at V1 is a superset of the fault set at V2 for V1 < V2,
//! because both filter one fixed V_min set by threshold) — at O(K) cost per
//! trial instead of O(bits), where `K ~ bits * F(v_floor)`.
//!
//! Voltages *below* the floor are a contract violation (those cells were
//! never sampled) and panic loudly; see [`SparseOverlay::assert_voltage`].

use crate::fault::VminFaultModel;
use crate::fault_map::{bit_mask, word_index};
use crate::math::{
    sample_bernoulli_indices_buffered, sample_bernoulli_indices_into, sample_unit_open,
    truncated_tail_normal,
};
use crate::storage::FaultOverlay;
use dante_circuit::units::Volt;
use rand::Rng;

/// One faulty cell of a sparse overlay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparseCell {
    /// Cell index within the packed bit image.
    pub index: u64,
    /// The cell's minimum reliable voltage, in volts (always above the
    /// overlay's floor).
    pub vmin: f32,
    /// Whether the cell's Bernoulli read-flip decision fired.
    pub flip: bool,
}

/// The smallest `f32` strictly greater than a positive finite `x`.
#[inline]
fn next_up(x: f32) -> f32 {
    f32::from_bits(x.to_bits() + 1)
}

/// A sparse fault overlay: only the cells faulty at the floor voltage, as
/// sorted `(index, vmin, flip)` triples.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseOverlay {
    bits: usize,
    v_floor: Volt,
    cells: Vec<SparseCell>,
}

impl SparseOverlay {
    /// Draws a fresh die of `bits` cells, keeping only the cells faulty at
    /// `v_floor`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or `v_floor` is below the model's
    /// data-retention voltage (where a fault *rate* is meaningless).
    #[must_use]
    pub fn sample<R: Rng + ?Sized>(
        bits: usize,
        model: &VminFaultModel,
        v_floor: Volt,
        rng: &mut R,
    ) -> Self {
        let mut indices = Vec::new();
        let mut cells = Vec::new();
        Self::sample_cells_into(bits, model, v_floor, rng, &mut indices, &mut cells);
        Self {
            bits,
            v_floor,
            cells,
        }
    }

    /// Draws the die deterministically from an explicit seed (the sparse
    /// counterpart of [`FaultOverlay::from_seed`]): the overlay is a pure
    /// function of `(bits, model, v_floor, seed)`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or `v_floor` is below data retention.
    #[must_use]
    pub fn from_seed(bits: usize, model: &VminFaultModel, v_floor: Volt, seed: u64) -> Self {
        use rand::SeedableRng as _;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Self::sample(bits, model, v_floor, &mut rng)
    }

    /// The allocation-free sampling core: draws one die's faulty-at-floor
    /// cells into `cells` (cleared first), using `indices` as scratch for
    /// the Bernoulli index walk. Both buffers retain their capacity across
    /// calls, so a steady-state Monte-Carlo loop allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or `v_floor` is below data retention.
    pub fn sample_cells_into<R: Rng + ?Sized>(
        bits: usize,
        model: &VminFaultModel,
        v_floor: Volt,
        rng: &mut R,
        indices: &mut Vec<u64>,
        cells: &mut Vec<SparseCell>,
    ) {
        assert!(bits > 0, "a die needs at least one cell");
        // bit_error_rate both computes F(v_floor) and enforces the
        // data-retention lower bound with its own clear panic.
        let p_floor = model.bit_error_rate(v_floor);
        let (mu, sigma) = (model.mu().volts(), model.sigma().volts());
        let floor = v_floor.volts();
        let floor_f32 = floor as f32;
        let p_flip = model.read_flip_probability();
        sample_bernoulli_indices_into(bits, p_floor, rng, indices);
        cells.clear();
        cells.reserve(indices.len());
        for &index in indices.iter() {
            // The f64 draw is strictly above the floor; the f32 round can
            // land exactly on it, which would silently drop the cell from
            // its own floor voltage — nudge up one ULP instead.
            let mut vmin = truncated_tail_normal(mu, sigma, floor, rng) as f32;
            if vmin <= floor_f32 {
                vmin = next_up(floor_f32);
            }
            cells.push(SparseCell {
                index,
                vmin,
                flip: rng.gen_bool(p_flip),
            });
        }
    }

    /// The floor fast path of [`Self::sample_cells_into`]: same faulty-cell
    /// indices, same flip decisions, same RNG stream — but every cell's
    /// `vmin` is pinned one ULP above the floor instead of drawn from the
    /// Gaussian tail, eliding the inverse-CDF math (the dominant cost at
    /// deep floors, where nearly half the die can be in the tail).
    ///
    /// The elision is exact *only for a consumer that applies the overlay
    /// at precisely `v_floor`*: there every sampled cell satisfies
    /// `v < vmin` regardless of where in the tail its V_min landed, so the
    /// flip words are bit-identical to the slow path's. Anything that reads
    /// the V_min values themselves (fleet V_min quantiles, multi-voltage
    /// reuse of one overlay) must keep using [`Self::sample_cells_into`].
    ///
    /// Stream alignment: `truncated_tail_normal` consumes exactly one
    /// [`sample_unit_open`] draw per cell, so this path draws and discards
    /// the same uniform, keeping every subsequent `gen_bool` — and any
    /// caller continuing on the same RNG — bit-identical to the slow path.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or `v_floor` is below data retention.
    pub fn sample_cells_at_floor_into<R: Rng + Clone>(
        bits: usize,
        model: &VminFaultModel,
        v_floor: Volt,
        rng: &mut R,
        indices: &mut Vec<u64>,
        cells: &mut Vec<SparseCell>,
    ) {
        assert!(bits > 0, "a die needs at least one cell");
        let p_floor = model.bit_error_rate(v_floor);
        let floor_f32 = v_floor.volts() as f32;
        let p_flip = model.read_flip_probability();
        sample_bernoulli_indices_buffered(bits, p_floor, rng, indices);
        cells.clear();
        cells.reserve(indices.len());
        let vmin = next_up(floor_f32);
        for &index in indices.iter() {
            let _ = sample_unit_open(rng);
            cells.push(SparseCell {
                index,
                vmin,
                flip: rng.gen_bool(p_flip),
            });
        }
    }

    /// The streaming form of [`Self::sample_cells_at_floor_into`]: instead
    /// of materializing `SparseCell`s, groups the flip decisions word by
    /// word and calls `emit(word_index, mask)` for every 64-bit word with a
    /// non-zero flip mask, in ascending word order. `indices` still buffers
    /// the faulty-index walk (the slow path draws *all* gap uniforms before
    /// any per-cell draw, and matching that order exactly is what keeps the
    /// RNG stream bit-identical), but no cell vector is built or re-scanned
    /// — the hot Monte-Carlo corrupt loop reads each faulty index once.
    ///
    /// Same contract as the cell-building fast path: exact only for a
    /// consumer applying the overlay at precisely `v_floor`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or `v_floor` is below data retention.
    pub fn for_each_flip_word_at_floor<R: Rng + Clone>(
        bits: usize,
        model: &VminFaultModel,
        v_floor: Volt,
        rng: &mut R,
        indices: &mut Vec<u64>,
        mut emit: impl FnMut(usize, u64),
    ) {
        assert!(bits > 0, "a die needs at least one cell");
        let p_floor = model.bit_error_rate(v_floor);
        let p_flip = model.read_flip_probability();
        sample_bernoulli_indices_buffered(bits, p_floor, rng, indices);
        let mut word = usize::MAX;
        let mut mask = 0u64;
        for &index in indices.iter() {
            let _ = sample_unit_open(rng);
            let flip = rng.gen_bool(p_flip);
            let w = word_index(index as usize);
            if w != word {
                if mask != 0 {
                    emit(word, mask);
                }
                word = w;
                mask = 0;
            }
            if flip {
                mask |= bit_mask(index as usize);
            }
        }
        if mask != 0 {
            emit(word, mask);
        }
    }

    /// Extracts the sparse view of a dense overlay: exactly the dense die's
    /// cells faulty at `v_floor`, with their dense V_mins and flip
    /// decisions. Corrupts *identically* to the dense overlay at any
    /// `v >= v_floor` (the differential check in `dante-verify` pins this).
    #[must_use]
    pub fn from_dense(dense: &FaultOverlay, v_floor: Volt) -> Self {
        let floor_f32 = v_floor.volts() as f32;
        let flips = dense.flip_words();
        let cells = dense
            .vmins()
            .values()
            .iter()
            .enumerate()
            .filter(|&(_, &vmin)| floor_f32 < vmin)
            .map(|(idx, &vmin)| SparseCell {
                index: idx as u64,
                vmin,
                flip: flips[word_index(idx)] & bit_mask(idx) != 0,
            })
            .collect();
        Self {
            bits: dense.len(),
            v_floor,
            cells,
        }
    }

    /// Builds an overlay from pre-sampled cells (the zero-alloc hot path:
    /// sample into reused buffers, borrow them here only when an owned
    /// overlay is actually needed).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or any cell index is out of range or the
    /// cells are not strictly increasing by index.
    #[must_use]
    pub fn from_cells(bits: usize, v_floor: Volt, cells: Vec<SparseCell>) -> Self {
        assert!(bits > 0, "a die needs at least one cell");
        assert!(
            cells.windows(2).all(|w| w[0].index < w[1].index),
            "cells must be sorted by strictly increasing index"
        );
        if let Some(last) = cells.last() {
            assert!(
                (last.index as usize) < bits,
                "cell index {} out of range for {bits} bits",
                last.index
            );
        }
        Self {
            bits,
            v_floor,
            cells,
        }
    }

    /// Number of cells the overlay covers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits
    }

    /// Whether the overlay covers zero cells.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// The floor voltage this overlay was sampled for.
    #[must_use]
    pub fn v_floor(&self) -> Volt {
        self.v_floor
    }

    /// The sampled faulty-at-floor cells, sorted by index.
    #[must_use]
    pub fn cells(&self) -> &[SparseCell] {
        &self.cells
    }

    /// Checks that `v` is covered by this overlay.
    ///
    /// # Panics
    ///
    /// Panics if `v` is below the sampling floor: cells faulty only below
    /// `v_floor` were never drawn, so evaluating there would silently
    /// under-report faults. Resample the overlay with a lower floor instead.
    pub fn assert_voltage(&self, v: Volt) {
        assert!(
            v.volts() >= self.v_floor.volts(),
            "voltage {v} is below this sparse overlay's sampling floor {}: \
             cells faulty only below the floor were never sampled; \
             rebuild the overlay with a lower v_floor",
            self.v_floor
        );
    }

    /// Number of bits that flip at `v` (faulty *and* the read-flip
    /// decision fired).
    ///
    /// # Panics
    ///
    /// Panics if `v` is below the floor.
    #[must_use]
    pub fn flip_count(&self, v: Volt) -> usize {
        self.assert_voltage(v);
        let vf = v.volts() as f32;
        self.cells.iter().filter(|c| c.flip && vf < c.vmin).count()
    }

    /// XORs the corruption at `v` into a packed bit image, in place and
    /// without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `v` is below the floor or `words` is shorter than the
    /// overlay requires.
    pub fn apply(&self, words: &mut [u64], v: Volt) {
        let needed = self.bits.div_ceil(64);
        assert!(
            words.len() >= needed,
            "bit image ({} words) shorter than overlay ({needed} words)",
            words.len()
        );
        self.for_each_corruption_word(v, |w, mask| words[w] ^= mask);
    }

    /// Number of cells faulty at `v` (`v >= v_floor`).
    ///
    /// # Panics
    ///
    /// Panics if `v` is below the floor.
    #[must_use]
    pub fn fault_count(&self, v: Volt) -> usize {
        self.assert_voltage(v);
        let vf = v.volts() as f32;
        self.cells.iter().filter(|c| vf < c.vmin).count()
    }

    /// Streams the non-zero corruption words at `v` as `(word index, mask)`
    /// pairs, grouping the sorted cells word by word — the lazily
    /// materialized per-voltage flip words.
    ///
    /// # Panics
    ///
    /// Panics if `v` is below the floor.
    pub fn for_each_corruption_word(&self, v: Volt, mut f: impl FnMut(usize, u64)) {
        self.assert_voltage(v);
        let vf = v.volts() as f32;
        let mut i = 0;
        while i < self.cells.len() {
            let w = word_index(self.cells[i].index as usize);
            let mut mask = 0u64;
            while i < self.cells.len() && word_index(self.cells[i].index as usize) == w {
                let c = &self.cells[i];
                if c.flip && vf < c.vmin {
                    mask |= bit_mask(c.index as usize);
                }
                i += 1;
            }
            if mask != 0 {
                f(w, mask);
            }
        }
    }

    /// Materializes the full corruption word vector at `v` into `out`
    /// (cleared and zero-filled to `words` words) — the scratch-buffer form
    /// the SEC-DED path needs.
    ///
    /// # Panics
    ///
    /// Panics if `v` is below the floor or `words` is too short for the
    /// overlay's cells.
    pub fn corruption_words_into(&self, v: Volt, words: usize, out: &mut Vec<u64>) {
        assert!(
            words * 64 >= self.bits,
            "corruption buffer ({words} words) shorter than overlay ({} bits)",
            self.bits
        );
        out.clear();
        out.resize(words, 0);
        self.for_each_corruption_word(v, |w, mask| out[w] ^= mask);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn model() -> VminFaultModel {
        VminFaultModel::default_14nm()
    }

    #[test]
    fn from_seed_is_deterministic_and_sorted() {
        let floor = Volt::new(0.38);
        let a = SparseOverlay::from_seed(50_000, &model(), floor, 42);
        let b = SparseOverlay::from_seed(50_000, &model(), floor, 42);
        assert_eq!(a, b);
        assert!(a.cells().windows(2).all(|w| w[0].index < w[1].index));
        let c = SparseOverlay::from_seed(50_000, &model(), floor, 43);
        assert_ne!(a, c, "different seeds draw different dies");
    }

    #[test]
    fn every_sampled_cell_is_faulty_at_the_floor() {
        let floor = Volt::new(0.40);
        let o = SparseOverlay::from_seed(100_000, &model(), floor, 7);
        assert!(!o.cells().is_empty());
        assert_eq!(o.fault_count(floor), o.cells().len());
    }

    #[test]
    fn fault_sets_are_voltage_inclusive() {
        let floor = Volt::new(0.36);
        let o = SparseOverlay::from_seed(200_000, &model(), floor, 11);
        let mut prev = usize::MAX;
        for mv in [360, 400, 440, 480, 520] {
            let n = o.fault_count(Volt::from_millivolts(f64::from(mv)));
            assert!(n <= prev, "fault count rose with voltage at {mv} mV");
            prev = n;
        }
    }

    #[test]
    fn sampled_count_tracks_the_binomial_mean() {
        // E[K] = bits * F(v_floor); at 0.40 V, F ~ 1.15e-1... use 0.44 V
        // where F(0.44) ~ 1.39e-2 so 200k cells expect ~2780, sd ~52.
        let floor = Volt::new(0.44);
        let bits = 200_000;
        let expect = model().bit_error_rate(floor) * bits as f64;
        let sd = (expect * (1.0 - expect / bits as f64)).sqrt();
        let o = SparseOverlay::from_seed(bits, &model(), floor, 5);
        let k = o.cells().len() as f64;
        assert!(
            (k - expect).abs() < 5.0 * sd,
            "K = {k} vs expected {expect} (sd {sd})"
        );
    }

    #[test]
    fn from_dense_corrupts_identically_to_the_dense_overlay() {
        let dense = FaultOverlay::from_seed(4096, &model(), 99);
        let floor = Volt::new(0.36);
        let sparse = SparseOverlay::from_dense(&dense, floor);
        for mv in [360, 380, 420, 460, 540] {
            let v = Volt::from_millivolts(f64::from(mv));
            let mut a = vec![0u64; 64];
            let mut b = vec![0u64; 64];
            dense.apply(&mut a, v);
            sparse.apply(&mut b, v);
            assert_eq!(a, b, "divergence at {mv} mV");
            assert_eq!(dense.flip_count(v), sparse.flip_count(v));
            assert_eq!(dense.vmins().fault_count(v), sparse.fault_count(v));
        }
    }

    #[test]
    fn corruption_words_into_matches_apply() {
        let floor = Volt::new(0.38);
        let o = SparseOverlay::from_seed(10_000, &model(), floor, 21);
        let v = Volt::new(0.40);
        let words = 10_000usize.div_ceil(64);
        let mut scattered = Vec::new();
        o.corruption_words_into(v, words, &mut scattered);
        let mut applied = vec![0u64; words];
        o.apply(&mut applied, v);
        assert_eq!(scattered, applied);
        // Applying twice cancels (XOR overlay).
        o.apply(&mut applied, v);
        assert!(applied.iter().all(|&w| w == 0));
    }

    #[test]
    #[should_panic(expected = "below this sparse overlay's sampling floor")]
    fn voltages_below_the_floor_are_rejected() {
        let o = SparseOverlay::from_seed(1024, &model(), Volt::new(0.44), 1);
        let _ = o.fault_count(Volt::new(0.40));
    }

    #[test]
    #[should_panic(expected = "shorter than overlay")]
    fn apply_bounds_checked() {
        let o = SparseOverlay::from_seed(256, &model(), Volt::new(0.40), 2);
        let mut image = vec![0u64; 2];
        o.apply(&mut image, Volt::new(0.40));
    }

    #[test]
    fn scratch_sampling_allocates_into_reused_buffers() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut indices = Vec::new();
        let mut cells = Vec::new();
        SparseOverlay::sample_cells_into(
            50_000,
            &model(),
            Volt::new(0.40),
            &mut rng,
            &mut indices,
            &mut cells,
        );
        let first = cells.clone();
        assert!(!first.is_empty());
        let cap = cells.capacity();
        SparseOverlay::sample_cells_into(
            50_000,
            &model(),
            Volt::new(0.40),
            &mut rng,
            &mut indices,
            &mut cells,
        );
        assert_ne!(first, cells, "fresh randomness per call");
        assert!(cells.capacity() >= cap.min(cells.len()));
        // from_cells round-trips the buffers into an owned overlay.
        let o = SparseOverlay::from_cells(50_000, Volt::new(0.40), cells.clone());
        assert_eq!(o.cells(), cells.as_slice());
    }

    #[test]
    fn floor_fast_path_matches_slow_path_flips_and_stream() {
        // Across floors spanning deep (p ~ 0.3) to shallow (p ~ 1e-4)
        // tails: identical indices and flips, identical corruption words at
        // the floor, and an identically positioned RNG stream afterwards.
        for &mv in &[360u32, 400, 440, 480, 520] {
            let floor = Volt::new(f64::from(mv) / 1000.0);
            for seed in 0..4u64 {
                let mut slow_rng = StdRng::seed_from_u64(seed);
                let mut fast_rng = StdRng::seed_from_u64(seed);
                let (mut si, mut sc) = (Vec::new(), Vec::new());
                let (mut fi, mut fc) = (Vec::new(), Vec::new());
                SparseOverlay::sample_cells_into(
                    20_000,
                    &model(),
                    floor,
                    &mut slow_rng,
                    &mut si,
                    &mut sc,
                );
                SparseOverlay::sample_cells_at_floor_into(
                    20_000,
                    &model(),
                    floor,
                    &mut fast_rng,
                    &mut fi,
                    &mut fc,
                );
                assert_eq!(si, fi, "faulty index walk diverged at {mv} mV");
                assert_eq!(sc.len(), fc.len());
                for (s, f) in sc.iter().zip(fc.iter()) {
                    assert_eq!(s.index, f.index);
                    assert_eq!(s.flip, f.flip, "flip diverged at {mv} mV");
                    assert!(f.vmin > floor.volts() as f32);
                }
                let words = 20_000usize.div_ceil(64);
                let slow = SparseOverlay::from_cells(20_000, floor, sc);
                let fast = SparseOverlay::from_cells(20_000, floor, fc);
                let (mut sw, mut fw) = (Vec::new(), Vec::new());
                slow.corruption_words_into(floor, words, &mut sw);
                fast.corruption_words_into(floor, words, &mut fw);
                assert_eq!(sw, fw, "corruption words diverged at {mv} mV");
                // The streams stay aligned for any caller drawing further.
                assert_eq!(slow_rng.gen::<u64>(), fast_rng.gen::<u64>());
            }
        }
    }

    #[test]
    fn streaming_flip_words_match_cell_building_fast_path() {
        for &mv in &[360u32, 440, 500] {
            let floor = Volt::new(f64::from(mv) / 1000.0);
            for seed in 0..3u64 {
                let mut cell_rng = StdRng::seed_from_u64(seed);
                let mut word_rng = StdRng::seed_from_u64(seed);
                let (mut ci, mut cc) = (Vec::new(), Vec::new());
                SparseOverlay::sample_cells_at_floor_into(
                    20_000,
                    &model(),
                    floor,
                    &mut cell_rng,
                    &mut ci,
                    &mut cc,
                );
                let words = 20_000usize.div_ceil(64);
                let mut expected = vec![0u64; words];
                for c in &cc {
                    if c.flip {
                        expected[(c.index / 64) as usize] |= 1u64 << (c.index % 64);
                    }
                }
                let mut wi = Vec::new();
                let mut streamed = vec![0u64; words];
                let mut last = None;
                SparseOverlay::for_each_flip_word_at_floor(
                    20_000,
                    &model(),
                    floor,
                    &mut word_rng,
                    &mut wi,
                    |w, mask| {
                        assert_ne!(mask, 0, "only non-zero masks are emitted");
                        assert!(last.is_none_or(|p| w > p), "ascending word order");
                        last = Some(w);
                        streamed[w] = mask;
                    },
                );
                assert_eq!(ci, wi, "index walk diverged at {mv} mV");
                assert_eq!(expected, streamed, "flip words diverged at {mv} mV");
                assert_eq!(cell_rng.gen::<u64>(), word_rng.gen::<u64>());
            }
        }
    }

    #[test]
    fn high_floor_yields_an_empty_overlay() {
        // F(0.60 V) ~ Q(6.2) ~ 3e-10: 10k cells are virtually always clean.
        let o = SparseOverlay::from_seed(10_000, &model(), Volt::new(0.60), 3);
        assert!(o.cells().is_empty());
        assert_eq!(o.flip_count(Volt::new(0.60)), 0);
        assert_eq!(o.len(), 10_000);
        assert!(
            !o.is_empty(),
            "is_empty reports zero *cells*, not zero faults"
        );
    }
}
