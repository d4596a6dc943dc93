//! Acceptance machinery for the sparse tail-sampled fault overlay
//! (`dante_sram::sparse`, drawn by `dante_sram::model::DieFaultModel`):
//! the scalar references the one sampler is tested against, the analytic
//! conditional distribution its `V_min` draws must follow, and an exact
//! word-level differential check that a sparse projection of a dense die
//! corrupts packed data identically to the dense overlay itself.
//!
//! The sparse sampler replaces the dense per-cell Gaussian draw with a
//! binomial faulty-cell count plus truncated-tail `V_min` values, so its
//! correctness claims are exact (the production Bernoulli walk equals
//! [`scalar_bernoulli_indices`], and the die equals
//! [`reference_gaussian_cells`] cell for cell), statistical (the tail draws
//! follow the Gaussian conditioned on `V_min > v_floor`) and structural
//! (given the *same* die, sparse and dense application must flip the same
//! bits). This module packages all three so `tests/fault_model_stats.rs`
//! and the sampler's unit tests can share them.

use crate::dense::FaultOverlay;
use dante_circuit::units::Volt;
use dante_sram::fault::VminFaultModel;
use dante_sram::math::{sample_unit_open, truncated_tail_cdf, truncated_tail_normal};
use dante_sram::sparse::{bit_mask, word_index, SparseCell, SparseOverlay};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// The scalar geometric-gap Bernoulli walk: one serial
/// `draw → ln → divide → compare` step per success, writing the success
/// indices of `n` Bernoulli(`p`) trials into `out` (cleared first). The
/// production walk, `dante_sram::math::sample_bernoulli_indices_into`, must
/// return the same indices and leave the generator in the same state.
///
/// # Panics
///
/// Panics unless `p` is a finite probability in `[0, 1]`.
pub fn scalar_bernoulli_indices<R: Rng + ?Sized>(
    n: usize,
    p: f64,
    rng: &mut R,
    out: &mut Vec<u64>,
) {
    out.clear();
    assert!(
        (0.0..=1.0).contains(&p),
        "success probability must be in [0, 1], got {p}"
    );
    if n == 0 || p <= 0.0 {
        return;
    }
    if p >= 1.0 {
        out.extend(0..n as u64);
        return;
    }
    let ln_q = (-p).ln_1p(); // ln(1 - p), strictly negative
    let n = n as u64;
    let mut idx = 0u64;
    loop {
        let gap = (sample_unit_open(rng).ln() / ln_q).floor();
        // The remaining-range guard doubles as overflow protection: a deep
        // tail can yield gaps far beyond 2^63.
        if gap >= (n - idx) as f64 {
            return;
        }
        idx += gap as u64;
        out.push(idx);
        idx += 1;
        if idx >= n {
            return;
        }
    }
}

/// The Gaussian die of `DieFaultModel::Gaussian(model)`, spelled out in
/// plain scalar steps on `StdRng::seed_from_u64(seed)`:
/// [`scalar_bernoulli_indices`] at `F(v_floor)`, then per faulty cell one
/// `truncated_tail_normal` narrowed to `f32` (nudged up one ULP if the
/// narrowing lands on the floor) and one `gen_bool(p_flip)`.
///
/// # Panics
///
/// Panics if `v_floor` is below the data-retention limit.
#[must_use]
pub fn reference_gaussian_cells(
    bits: usize,
    model: &VminFaultModel,
    v_floor: Volt,
    seed: u64,
) -> Vec<SparseCell> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut indices = Vec::new();
    scalar_bernoulli_indices(bits, model.bit_error_rate(v_floor), &mut rng, &mut indices);
    let (mu, sigma, floor) = (model.mu().volts(), model.sigma().volts(), v_floor.volts());
    let mut cells = Vec::with_capacity(indices.len());
    for index in indices {
        let mut vmin = truncated_tail_normal(mu, sigma, floor, &mut rng) as f32;
        if vmin <= floor as f32 {
            vmin = (floor as f32).next_up();
        }
        let flip = rng.gen_bool(model.read_flip_probability());
        cells.push(SparseCell { index, vmin, flip });
    }
    cells
}

/// The sparse view of a dense overlay: exactly the dense die's cells faulty
/// at `v_floor`, with their dense V_mins and flip decisions. Corrupts
/// identically to the dense overlay at any `v >= v_floor`
/// ([`sparse_matches_dense`] checks this).
///
/// # Panics
///
/// Panics if the dense overlay covers zero cells.
#[must_use]
pub fn sparse_projection(dense: &FaultOverlay, v_floor: Volt) -> SparseOverlay {
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
    SparseOverlay::from_cells(dense.len(), v_floor, cells)
}

/// The CDF of a sparse overlay's `V_min` draws: the model's Gaussian
/// conditioned on the cell being faulty at the floor (`V_min > v_floor`).
/// Returns a closure suitable for [`crate::stats::ks_statistic`].
pub fn sparse_vmin_cdf(model: &VminFaultModel, v_floor: Volt) -> impl Fn(f64) -> f64 {
    let mu = model.mu().volts();
    let sigma = model.sigma().volts();
    let floor = v_floor.volts();
    move |x| truncated_tail_cdf(mu, sigma, floor, x)
}

/// One word-level divergence between a dense overlay and its sparse
/// projection, reported by [`sparse_matches_dense`].
#[derive(Debug, Clone, PartialEq)]
pub struct OverlayMismatch {
    /// The evaluation voltage at which the overlays diverged.
    pub voltage: Volt,
    /// Index of the diverging 64-bit corruption word.
    pub word: usize,
    /// The dense overlay's corruption word.
    pub dense: u64,
    /// The sparse projection's corruption word.
    pub sparse: u64,
}

impl fmt::Display for OverlayMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sparse/dense corruption diverges at {} word {}: dense {:#018x} vs sparse {:#018x} (differing bits {:#018x})",
            self.voltage,
            self.word,
            self.dense,
            self.sparse,
            self.dense ^ self.sparse
        )
    }
}

/// Exact differential check: draws one dense die from `seed`, projects it
/// to a sparse overlay at `v_floor`, and verifies word-for-word that both
/// produce identical corruption masks at every voltage in `voltages`.
///
/// Returns the total number of corruption words compared.
///
/// # Errors
///
/// Returns the first [`OverlayMismatch`] found.
///
/// # Panics
///
/// Panics if `bits` is zero, if any voltage is below `v_floor` (the sparse
/// overlay rejects evaluation below its sampling floor by construction), or
/// if `v_floor` is below the data-retention limit.
pub fn sparse_matches_dense(
    bits: usize,
    model: &VminFaultModel,
    v_floor: Volt,
    seed: u64,
    voltages: &[Volt],
) -> Result<usize, OverlayMismatch> {
    let dense = FaultOverlay::from_seed(bits, model, seed);
    let sparse = sparse_projection(&dense, v_floor);
    let words = bits.div_ceil(64);
    let mut sparse_words = Vec::new();
    let mut compared = 0usize;
    for &v in voltages {
        sparse.corruption_words_into(v, words, &mut sparse_words);
        for (word, (d, &s)) in dense.corruption_iter(v).zip(&sparse_words).enumerate() {
            if d != s {
                return Err(OverlayMismatch {
                    voltage: v,
                    word,
                    dense: d,
                    sparse: s,
                });
            }
            compared += 1;
        }
    }
    Ok(compared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{ks_critical, ks_statistic};
    use dante_sram::math::sample_bernoulli_indices_into;
    use dante_sram::model::{DieFaultModel, FaultModel, SummaryScratch};

    fn mv(v: u32) -> Volt {
        Volt::from_millivolts(f64::from(v))
    }

    #[test]
    fn buffered_bernoulli_walk_matches_scalar_walk_and_stream() {
        // Identical indices AND identical post-call generator state across
        // sizes straddling the chunk boundary and probabilities from dense
        // tails to near-empty ones (plus both degenerate edges).
        for &n in &[1usize, 7, 100, 1023, 1024, 1025, 50_000] {
            for &p in &[0.0, 1e-6, 1e-3, 0.05, 0.42, 0.9, 1.0] {
                for seed in 0..3u64 {
                    let mut scalar_rng = StdRng::seed_from_u64(seed);
                    let mut buffered_rng = StdRng::seed_from_u64(seed);
                    let (mut scalar, mut buffered) = (Vec::new(), Vec::new());
                    scalar_bernoulli_indices(n, p, &mut scalar_rng, &mut scalar);
                    sample_bernoulli_indices_into(n, p, &mut buffered_rng, &mut buffered);
                    assert_eq!(scalar, buffered, "indices diverged (n={n}, p={p})");
                    assert_eq!(
                        scalar_rng.gen::<u64>(),
                        buffered_rng.gen::<u64>(),
                        "generator state diverged (n={n}, p={p})"
                    );
                }
            }
        }
    }

    #[test]
    fn one_sampler_matches_the_reference_gaussian_stream() {
        // Floors from deep (p ~ 0.4) to shallow (p ~ 1e-5) tails: the
        // sampler's cells equal the spelled-out reference cell for cell,
        // and its streamed flip words equal the reference's flip bits.
        let model = VminFaultModel::default_14nm();
        let die = DieFaultModel::Gaussian(model);
        let bits = 20_000usize;
        let words = bits.div_ceil(64);
        for mv_floor in [360u32, 400, 440, 480, 520] {
            let floor = mv(mv_floor);
            for seed in 0..4u64 {
                let reference = reference_gaussian_cells(bits, &model, floor, seed);
                let (mut indices, mut cells) = (Vec::new(), Vec::new());
                die.sample_cells_into(bits, floor, seed, &mut indices, &mut cells);
                assert_eq!(reference, cells, "cells diverged at {mv_floor} mV");
                let mut expected = vec![0u64; words];
                for c in reference.iter().filter(|c| c.flip) {
                    expected[word_index(c.index as usize)] |= bit_mask(c.index as usize);
                }
                let mut streamed = vec![0u64; words];
                die.for_each_flip_word_at_floor(
                    bits,
                    floor,
                    seed,
                    &mut indices,
                    &mut cells,
                    |w, mask| streamed[w] = mask,
                );
                assert_eq!(expected, streamed, "flip words diverged at {mv_floor} mV");
            }
        }
    }

    #[test]
    fn die_summary_matches_the_reference_gaussian_cells() {
        // The fleet's reader against the spelled-out stream: the faulty
        // count and the largest reference V_min, bit for bit, for the
        // default Gaussian and per-die chip-variation profiles.
        let mut scratch = SummaryScratch::default();
        let bits = 20_000usize;
        for spec in [FaultModel::default(), FaultModel::chip_variation_default()] {
            for mv_floor in (340u32..=620).step_by(40) {
                let floor = mv(mv_floor);
                for seed in 0..32u64 {
                    let die = spec.resolve_die(seed);
                    let model = *die.as_gaussian().expect("a Gaussian die");
                    let reference = reference_gaussian_cells(bits, &model, floor, seed);
                    let summary = die.summary_at_floor(bits, floor, seed, &mut scratch);
                    assert_eq!(summary.fault_cells, reference.len() as u64);
                    assert_eq!(
                        summary.worst_vmin.map(f32::to_bits),
                        reference
                            .iter()
                            .map(|c| c.vmin)
                            .reduce(f32::max)
                            .map(f32::to_bits),
                        "worst cell diverged at {mv_floor} mV, seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn sparse_projection_counts_match_the_dense_overlay() {
        // Word-level identity is `differential_check_passes_for_real_dies`;
        // this pins the per-voltage flip and fault counts.
        let dense = FaultOverlay::from_seed(4096, &VminFaultModel::default_14nm(), 99);
        let sparse = sparse_projection(&dense, mv(360));
        for v in [360, 380, 420, 460, 540].map(mv) {
            assert_eq!(dense.flip_count(v), sparse.flip_count(v), "at {v}");
            assert_eq!(
                dense.vmins().fault_count(v),
                sparse.fault_count(v),
                "at {v}"
            );
        }
    }

    #[test]
    fn differential_check_passes_for_real_dies() {
        let model = VminFaultModel::default_14nm();
        let voltages: Vec<Volt> = [360, 400, 440, 480, 520].map(mv).to_vec();
        let compared = sparse_matches_dense(8_192, &model, mv(360), 99, &voltages)
            .expect("sparse projection must corrupt identically");
        assert_eq!(compared, voltages.len() * 8_192usize.div_ceil(64));
    }

    #[test]
    fn differential_check_reports_injected_divergence() {
        // Hand-build a sparse overlay that claims a fault the dense die
        // does not have, and confirm the word-level comparison catches it.
        let model = VminFaultModel::default_14nm();
        let dense = FaultOverlay::from_seed(1_024, &model, 7);
        let mut sparse = sparse_projection(&dense, mv(360));
        let mut cells: Vec<SparseCell> = sparse.cells().to_vec();
        // Flip the flip-bit of the first cell so application diverges.
        assert!(!cells.is_empty(), "a 1 Kbit die at 0.36 V has faults");
        cells[0].flip = !cells[0].flip;
        sparse = SparseOverlay::from_cells(1_024, mv(360), cells);

        let words = 1_024usize.div_ceil(64);
        let mut sparse_words = Vec::new();
        let v = mv(360);
        sparse.corruption_words_into(v, words, &mut sparse_words);
        let diverged = dense
            .corruption_iter(v)
            .zip(&sparse_words)
            .any(|(d, &s)| d != s);
        assert!(diverged, "the tampered cell must change a corruption word");
    }

    #[test]
    fn conditional_cdf_accepts_sparse_draws() {
        let model = VminFaultModel::default_14nm();
        let v_floor = mv(420);
        let overlay = DieFaultModel::Gaussian(model).overlay_from_seed(4_000_000, v_floor, 12345);
        let samples: Vec<f64> = overlay.cells().iter().map(|c| f64::from(c.vmin)).collect();
        assert!(samples.len() > 1_000, "enough tail mass at 0.42 V");
        let d = ks_statistic(&samples, sparse_vmin_cdf(&model, v_floor));
        let crit = ks_critical(samples.len(), 0.01);
        assert!(d < crit, "KS D = {d} exceeds critical {crit}");
    }
}
