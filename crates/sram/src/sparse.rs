//! Sparse tail-sampled fault overlays: O(faulty bits) Monte-Carlo dies.
//!
//! A dense die draws a Gaussian V_min for *every* cell, even though at any
//! operating voltage only the upper tail of the distribution — `F(v) =
//! Q((v - mu) / sigma)`, at most ~1.4e-2 at 0.44 V and as little as 1e-9
//! near the top of the sweep — can ever fault. The sparse sampler draws
//! only that tail: given a *floor voltage* `v_floor` (the lowest voltage
//! the die will be read at), it draws the faulty-at-floor cell set
//! directly via geometric-gap Bernoulli skipping (the count is exactly
//! Binomial(bits, F(v_floor))-distributed) and gives each faulty cell a
//! V_min from the Gaussian tail above `v_floor` via the inverse CDF, plus
//! the paper's Bernoulli read-flip decision.
//!
//! [`DieFaultModel`](crate::model::DieFaultModel) is the one sampler: it
//! owns how a seed becomes a die. This module holds the crate-private
//! Gaussian bodies it calls, the cell-to-word mapping ([`word_index`],
//! [`bit_mask`]), the flip-word grouping loop every flip-word reader
//! shares, and [`SparseOverlay`], the owned die value.
//!
//! A sparse overlay is behaviorally interchangeable with a dense per-cell
//! die (the test oracle `dante_verify::dense::FaultOverlay`) for any
//! voltage `v >= v_floor` — same fault-count distribution, same V_min
//! distribution above the floor, same inclusivity (the fault set at V1 is
//! a superset of the fault set at V2 for V1 < V2, because both filter one
//! fixed V_min set by threshold) — at O(K) cost per die instead of
//! O(bits), where `K ~ bits * F(v_floor)`.
//!
//! Voltages *below* the floor are a contract violation (those cells were
//! never sampled) and panic loudly; see [`SparseOverlay::assert_voltage`].

use crate::fault::VminFaultModel;
use crate::math::{
    q_tail, q_tail_inv, sample_bernoulli_indices_into, sample_unit_open_raw, unit_from_raw,
    BernoulliThreshold,
};
use dante_circuit::units::Volt;
use rand::rngs::StdRng;
use rand::RngCore;

/// Index of the 64-bit word holding cell `idx` (cell `i` is bit `i % 64`
/// of word `i / 64`).
#[inline]
#[must_use]
pub fn word_index(idx: usize) -> usize {
    idx / 64
}

/// Single-bit mask selecting cell `idx` within its word.
#[inline]
#[must_use]
pub fn bit_mask(idx: usize) -> u64 {
    1u64 << (idx % 64)
}

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

/// The tail mass above `floor` of `N(mu, sigma)`: `p_floor = Q((floor -
/// mu) / sigma)`, the `p_floor` argument of [`tail_vmin`]. Computed once
/// per tail class of a die (background or weak cells), with the exact
/// expression `math::truncated_tail_normal` evaluates on every call.
#[must_use]
pub(crate) fn tail_mass(mu: f64, sigma: f64, floor: f64) -> f64 {
    q_tail((floor - mu) / sigma)
}

/// The one map from a faulty cell's tail uniform `u` to its V_min:
/// `mu + sigma * Q^{-1}(u * p_floor)`, the Gaussian `N(mu, sigma)`
/// conditioned above `floor` by inverse CDF, narrowed to `f32`. `p_floor`
/// is [`tail_mass`]`(mu, sigma, floor)`; for the same uniform the result is
/// bit-identical to `math::truncated_tail_normal` narrowed the same way
/// (the scalar form `dante_verify::overlay::reference_gaussian_cells`
/// spells out). The `f64` value is strictly above the floor, but the
/// narrowed value can land on or below the narrowed floor, which would
/// silently drop the cell from its own floor voltage, so such a value
/// becomes the floor nudged up one ULP.
///
/// Every step after the quantile (the affine map, the narrowing, the
/// nudge) is monotone, so the result is non-increasing in `u` up to the
/// quantile's own rounding; [`worst_tail_vmin`] relies on this.
///
/// # Panics
///
/// Panics if the tail beyond `floor` carries no representable mass.
#[inline]
pub(crate) fn tail_vmin(mu: f64, sigma: f64, floor: f64, p_floor: f64, u: f64) -> f32 {
    assert!(
        p_floor > 0.0,
        "no Gaussian mass above floor {floor} (mu {mu}, sigma {sigma})"
    );
    let t = (u * p_floor).max(f64::MIN_POSITIVE);
    let floor_f32 = floor as f32;
    let vmin = (mu + sigma * q_tail_inv(t)) as f32;
    if vmin <= floor_f32 {
        floor_f32.next_up()
    } else {
        vmin
    }
}

/// Candidate factor of [`worst_tail_vmin`]: every uniform within a factor
/// `KAPPA` of the class minimum is scored.
///
/// Derivation. With `t = u * p_floor` and `z = Q^{-1}(t)`,
/// `dz / d(ln t) = -Q(z) / phi(z)`, so a uniform at least `KAPPA` times
/// the minimum lies at least `ln(KAPPA) * Q(z) / phi(z)` lower in `z`,
/// where `z <= z_min` and the Mills ratio `Q/phi` falls with `z`. Below
/// [`T_CERT`] (`z_min <= 7`) that gap is at least `ln 2 * Q(7) / phi(7)
/// ≈ 0.097` (the A&S polynomial behind the computed `Q` changes this
/// slope by well under a factor of 2). The computed quantile departs from
/// its smooth part chiefly through the Halley step's residual
/// `phi_cdf(x) - t`, whose absolute rounding error of about `2^-53`
/// (from `1 - phi_cdf(-x)`) moves `z` by about `2^-53 / phi(z) ≈ 1.2e-5`
/// at `z = 7`. The margin exceeds twice that error by more than `10^3`, so
/// no uniform above the cut can round to a larger V_min than the minimum
/// uniform's, and the narrowing to `f32` preserves the order.
const KAPPA: f64 = 2.0;

/// Certification threshold of [`worst_tail_vmin`]: `Q(7) ≈ 1.28e-12`.
/// When the smallest tail probability `u_min * p_floor` of a class falls
/// below it, `z_min > 7`, the rounding error `2^-53 / phi(z)` grows
/// exponentially while the [`KAPPA`] gap shrinks like `ln 2 / z` (at
/// `z = 8.3` they meet), so the certificate no longer holds and every
/// uniform of the class is scored instead. On a 4 Mbit die the smallest
/// tail probability sits near `1 / bits ≈ 2.4e-7`, and it falls below
/// `T_CERT` with probability about `bits * T_CERT`, so this exact fallback
/// runs on about one such die in `2 * 10^5`. Below about `5e-17` the
/// computed map does invert uniforms a factor 2 to 8 apart, by up to
/// 10 mV; a unit test reaches that regime.
const T_CERT: f64 = 1.28e-12;

/// The largest V_min [`tail_vmin`] maps any of `uniforms` to, or `None` for
/// an empty class — equal to folding `tail_vmin` over every uniform with
/// `f32::max`, but scoring only the certified candidates: the uniforms at
/// most [`KAPPA`] times the smallest, or all of them when the smallest
/// tail probability falls below [`T_CERT`]. The bound's derivation is on
/// the constants.
#[must_use]
pub(crate) fn worst_tail_vmin(
    mu: f64,
    sigma: f64,
    floor: f64,
    p_floor: f64,
    uniforms: &[f64],
) -> Option<f32> {
    let u_min = uniforms.iter().copied().reduce(f64::min)?;
    let cut = if u_min * p_floor < T_CERT {
        f64::INFINITY
    } else {
        KAPPA * u_min
    };
    uniforms
        .iter()
        .filter(|&&u| u <= cut)
        .map(|&u| tail_vmin(mu, sigma, floor, p_floor, u))
        .reduce(f32::max)
}

/// The Gaussian die stream: runs the Bernoulli walk into `indices`, then
/// yields per faulty cell, in index order, `(index, raw, flip)`: one tail
/// draw and one read-flip decision, drawn as the iterator advances. `raw`
/// is the 53-bit integer behind the cell's tail uniform
/// ([`sample_unit_open_raw`]); a reader that needs the uniform takes
/// [`unit_from_raw`] of it, exactly
/// [`sample_unit_open`](crate::math::sample_unit_open)'s value. `flip`
/// is `gen_bool(p_flip)`'s decision, tested as an integer
/// ([`BernoulliThreshold`]). Every reader of a Gaussian die (cells, flip
/// words, the die summary) draws through it, so none can consume a
/// different stream.
///
/// The stream runs on a local copy of `rng`, which the iterator writes
/// back when it is dropped, so the caller's generator ends where the
/// draws it consumed leave it.
///
/// # Panics
///
/// Panics if `bits` is zero or `v_floor` is below data retention.
pub(crate) fn gaussian_draws<'a>(
    bits: usize,
    model: &VminFaultModel,
    v_floor: Volt,
    rng: &'a mut StdRng,
    indices: &'a mut Vec<u64>,
) -> impl ExactSizeIterator<Item = (u64, u64, bool)> + 'a {
    assert!(bits > 0, "a die needs at least one cell");
    let mut local = rng.clone();
    // bit_error_rate both computes F(v_floor) and enforces the
    // data-retention lower bound with its own clear panic.
    sample_bernoulli_indices_into(bits, model.bit_error_rate(v_floor), &mut local, indices);
    GaussianDraws {
        indices: indices.iter(),
        rng: local,
        home: rng,
        flip: BernoulliThreshold::new(model.read_flip_probability()),
    }
}

/// The iterator [`gaussian_draws`] returns.
struct GaussianDraws<'a> {
    indices: std::slice::Iter<'a, u64>,
    /// The stream's generator, a local copy of `home`.
    rng: StdRng,
    /// The caller's generator, overwritten with `rng` on drop.
    home: &'a mut StdRng,
    flip: BernoulliThreshold,
}

impl Iterator for GaussianDraws<'_> {
    type Item = (u64, u64, bool);

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let &index = self.indices.next()?;
        let raw = sample_unit_open_raw(&mut self.rng);
        Some((index, raw, self.flip.test(self.rng.next_u64())))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.indices.size_hint()
    }
}

impl ExactSizeIterator for GaussianDraws<'_> {}

impl Drop for GaussianDraws<'_> {
    fn drop(&mut self) {
        self.home.clone_from(&self.rng);
    }
}

/// The Gaussian cell body: draws one i.i.d. Gaussian die's faulty-at-floor
/// cells into `cells` (cleared first, sorted by index), using `indices` as
/// scratch for the Bernoulli walk: [`gaussian_draws`], with each tail
/// uniform mapped through [`tail_vmin`].
///
/// # Panics
///
/// Panics if `bits` is zero or `v_floor` is below data retention.
pub(crate) fn sample_gaussian_cells(
    bits: usize,
    model: &VminFaultModel,
    v_floor: Volt,
    rng: &mut StdRng,
    indices: &mut Vec<u64>,
    cells: &mut Vec<SparseCell>,
) {
    let (mu, sigma, floor) = (model.mu().volts(), model.sigma().volts(), v_floor.volts());
    let p_floor = tail_mass(mu, sigma, floor);
    cells.clear();
    let draws = gaussian_draws(bits, model, v_floor, rng, indices);
    cells.extend(draws.map(|(index, raw, flip)| SparseCell {
        index,
        vmin: tail_vmin(mu, sigma, floor, p_floor, unit_from_raw(raw)),
        flip,
    }));
}

/// The Gaussian flip-word body: [`gaussian_draws`] grouped into flip words
/// without building cells. Exact only for a consumer applying the die at
/// precisely `v_floor`: there every sampled cell is faulty wherever in the
/// tail its V_min lands, so the V_min math is skipped. Its one tail draw is
/// still made and discarded, never converted to a uniform, which keeps
/// every later flip decision on the cell path's stream.
///
/// # Panics
///
/// Panics if `bits` is zero or `v_floor` is below data retention.
pub(crate) fn for_each_gaussian_flip_word(
    bits: usize,
    model: &VminFaultModel,
    v_floor: Volt,
    rng: &mut StdRng,
    indices: &mut Vec<u64>,
    emit: impl FnMut(usize, u64),
) {
    let draws = gaussian_draws(bits, model, v_floor, rng, indices);
    for_each_flip_word(draws.map(|(index, _, flip)| (index, flip)), emit);
}

/// Folds `(index, flip)` pairs, sorted by index, into 64-bit words and
/// calls `emit(word_index, mask)` for every word with a non-zero mask, in
/// ascending word order. Every flip-word reader shares this loop.
#[inline]
pub(crate) fn for_each_flip_word(
    pairs: impl IntoIterator<Item = (u64, bool)>,
    mut emit: impl FnMut(usize, u64),
) {
    let mut word = usize::MAX;
    let mut mask = 0u64;
    for (index, flip) in pairs {
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

/// A sparse fault overlay: only the cells faulty at the floor voltage, as
/// sorted `(index, vmin, flip)` triples. Draw one with
/// [`DieFaultModel::overlay_from_seed`](crate::model::DieFaultModel::overlay_from_seed).
#[derive(Debug, Clone, PartialEq)]
pub struct SparseOverlay {
    bits: usize,
    v_floor: Volt,
    cells: Vec<SparseCell>,
}

impl SparseOverlay {
    /// Builds an overlay from pre-sampled cells, sorted by index. Only
    /// [`DieFaultModel::overlay_from_seed`](crate::model::DieFaultModel::overlay_from_seed)
    /// and the test oracles build overlays; the accuracy evaluator streams
    /// flip words without one.
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
    pub fn for_each_corruption_word(&self, v: Volt, f: impl FnMut(usize, u64)) {
        self.assert_voltage(v);
        let vf = v.volts() as f32;
        let flips = self.cells.iter().map(|c| (c.index, c.flip && vf < c.vmin));
        for_each_flip_word(flips, f);
    }

    /// The corruption of 64-bit word `word` at `v`: the flip bits of the
    /// word's cells faulty at `v` — one word of
    /// [`Self::corruption_words_into`], found by binary search over the
    /// sorted cells.
    ///
    /// # Panics
    ///
    /// Panics if `v` is below the floor.
    #[must_use]
    pub fn corruption_word(&self, word: usize, v: Volt) -> u64 {
        self.assert_voltage(v);
        let vf = v.volts() as f32;
        let first = (word * 64) as u64;
        let start = self.cells.partition_point(|c| c.index < first);
        self.cells[start..]
            .iter()
            .take_while(|c| word_index(c.index as usize) == word)
            .filter(|c| c.flip && vf < c.vmin)
            .fold(0, |mask, c| mask | bit_mask(c.index as usize))
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
    use crate::math::{sample_unit_open, truncated_tail_normal};
    use crate::model::DieFaultModel;
    use rand::SeedableRng;

    /// The stream consumes the generator exactly as the float-drawn form
    /// it replaces, and leaves the caller's generator where those draws
    /// end, whether or not the reader converts its tail draws.
    #[test]
    fn gaussian_stream_matches_float_draws_and_writes_the_generator_back() {
        use rand::Rng;
        let model = VminFaultModel::default_14nm();
        for mv in [360u32, 440, 520] {
            let floor = Volt::from_millivolts(f64::from(mv));
            for seed in 0..4u64 {
                let mut reference = StdRng::seed_from_u64(seed);
                let mut walk = Vec::new();
                sample_bernoulli_indices_into(
                    5000,
                    model.bit_error_rate(floor),
                    &mut reference,
                    &mut walk,
                );
                let want: Vec<(u64, u64, bool)> = walk
                    .iter()
                    .map(|&index| {
                        let u = sample_unit_open(&mut reference);
                        let flip = reference.gen_bool(model.read_flip_probability());
                        (index, u.to_bits(), flip)
                    })
                    .collect();
                let mut rng = StdRng::seed_from_u64(seed);
                let mut indices = Vec::new();
                let got: Vec<(u64, u64, bool)> =
                    gaussian_draws(5000, &model, floor, &mut rng, &mut indices)
                        .map(|(index, raw, flip)| (index, unit_from_raw(raw).to_bits(), flip))
                        .collect();
                assert_eq!(got, want, "{mv} mV, seed {seed}");
                assert_eq!(rng, reference, "{mv} mV, seed {seed}");
            }
        }
    }

    #[test]
    fn tail_vmin_is_the_scalar_truncated_draw_narrowed() {
        // Same uniform, same bits: the hoisted p_floor changes nothing.
        for (mu, sigma, floor) in [
            (0.352, 0.040, 0.34),
            (0.352, 0.040, 0.46),
            (0.472, 0.040, 0.50),
            (0.352, 0.040, 0.62),
        ] {
            let p_floor = tail_mass(mu, sigma, floor);
            let mut rng = StdRng::seed_from_u64(13);
            for _ in 0..20_000 {
                let mut scalar = rng.clone();
                let mut reference = truncated_tail_normal(mu, sigma, floor, &mut scalar) as f32;
                if reference <= floor as f32 {
                    reference = (floor as f32).next_up();
                }
                let u = sample_unit_open(&mut rng);
                let ours = tail_vmin(mu, sigma, floor, p_floor, u);
                assert_eq!(ours.to_bits(), reference.to_bits(), "u = {u:e}");
            }
        }
    }

    /// The fold [`worst_tail_vmin`] must equal: every uniform scored.
    fn score_all(p_floor: f64, uniforms: &[f64]) -> Option<f32> {
        uniforms
            .iter()
            .map(|&u| tail_vmin(0.352, 0.040, 0.50, p_floor, u))
            .reduce(f32::max)
    }

    #[test]
    fn worst_tail_vmin_equals_scoring_every_uniform_on_both_sides_of_t_cert() {
        let p_floor = tail_mass(0.352, 0.040, 0.50);
        let worst = |uniforms: &[f64]| worst_tail_vmin(0.352, 0.040, 0.50, p_floor, uniforms);
        assert_eq!(worst(&[]), None);
        // Smallest tail probabilities from 1e-2 down through T_CERT to
        // 1e-20, where the computed quantile's rounding does invert the
        // order of uniforms a factor 2 to 8 apart (near t = 5e-17, z = 8.3)
        // and only the fallback scores the true maximum. Each set holds
        // its minimum twice, uniforms just inside and outside the KAPPA
        // cut, a ladder past the cut and a random bulk.
        let mut rng = StdRng::seed_from_u64(17);
        let (mut certified, mut fallback) = (0, 0);
        for exp in 0..=80 {
            let t_min = 1e-2 * 0.6f64.powi(exp);
            let u_min = (t_min / p_floor).max(2f64.powi(-53));
            if u_min >= 1.0 {
                continue;
            }
            if u_min * p_floor < T_CERT {
                fallback += 1;
            } else {
                certified += 1;
            }
            let cut = KAPPA * u_min;
            let mut uniforms = vec![u_min, u_min, cut, cut.next_down(), cut.next_up()];
            uniforms.extend((1..200).map(|k| cut * (1.0 + 0.03 * f64::from(k))));
            uniforms.extend((0..100).map(|_| sample_unit_open(&mut rng).max(u_min)));
            uniforms.retain(|&u| u < 1.0);
            for _ in 0..4 {
                uniforms.rotate_left(97);
                assert_eq!(
                    worst(&uniforms).map(f32::to_bits),
                    score_all(p_floor, &uniforms).map(f32::to_bits),
                    "t_min {t_min:e}"
                );
            }
        }
        assert!(certified > 10 && fallback > 10, "{certified} / {fallback}");
    }

    #[test]
    fn worst_tail_vmin_never_loses_to_a_uniform_past_the_cut() {
        // The certificate itself, checked where it is tightest: at tail
        // probabilities down to T_CERT, every uniform more than KAPPA times
        // the minimum maps to a V_min no higher than the minimum's.
        for (mu, sigma, floor) in [
            (0.352, 0.040, 0.34),
            (0.352, 0.040, 0.50),
            (0.472, 0.040, 0.62),
        ] {
            let p_floor = tail_mass(mu, sigma, floor);
            let mut t_min = 0.5 * p_floor;
            while t_min >= T_CERT {
                let u_min = t_min / p_floor;
                let top = tail_vmin(mu, sigma, floor, p_floor, u_min);
                let mut u = (KAPPA * u_min).next_up();
                for _ in 0..64 {
                    if u >= 1.0 {
                        break;
                    }
                    assert!(tail_vmin(mu, sigma, floor, p_floor, u) <= top, "u {u:e}");
                    u = u.next_up();
                }
                t_min *= 0.8;
            }
        }
    }

    fn die() -> DieFaultModel {
        DieFaultModel::Gaussian(VminFaultModel::default_14nm())
    }

    #[test]
    fn from_seed_is_deterministic_and_sorted() {
        let floor = Volt::new(0.38);
        let a = die().overlay_from_seed(50_000, floor, 42);
        let b = die().overlay_from_seed(50_000, floor, 42);
        assert_eq!(a, b);
        assert!(a.cells().windows(2).all(|w| w[0].index < w[1].index));
        let c = die().overlay_from_seed(50_000, floor, 43);
        assert_ne!(a, c, "different seeds draw different dies");
    }

    #[test]
    fn every_sampled_cell_is_faulty_at_the_floor() {
        let floor = Volt::new(0.40);
        let o = die().overlay_from_seed(100_000, floor, 7);
        assert!(!o.cells().is_empty());
        assert_eq!(o.fault_count(floor), o.cells().len());
    }

    #[test]
    fn fault_sets_are_voltage_inclusive() {
        let floor = Volt::new(0.36);
        let o = die().overlay_from_seed(200_000, floor, 11);
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
        let expect = VminFaultModel::default_14nm().bit_error_rate(floor) * bits as f64;
        let sd = (expect * (1.0 - expect / bits as f64)).sqrt();
        let o = die().overlay_from_seed(bits, floor, 5);
        let k = o.cells().len() as f64;
        assert!(
            (k - expect).abs() < 5.0 * sd,
            "K = {k} vs expected {expect} (sd {sd})"
        );
    }

    #[test]
    fn corruption_words_into_matches_apply() {
        let floor = Volt::new(0.38);
        let o = die().overlay_from_seed(10_000, floor, 21);
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
        let o = die().overlay_from_seed(1024, Volt::new(0.44), 1);
        let _ = o.fault_count(Volt::new(0.40));
    }

    #[test]
    #[should_panic(expected = "shorter than overlay")]
    fn apply_bounds_checked() {
        let o = die().overlay_from_seed(256, Volt::new(0.40), 2);
        let mut image = vec![0u64; 2];
        o.apply(&mut image, Volt::new(0.40));
    }

    #[test]
    fn scratch_sampling_allocates_into_reused_buffers() {
        let floor = Volt::new(0.40);
        let mut indices = Vec::new();
        let mut cells = Vec::new();
        die().sample_cells_into(50_000, floor, 9, &mut indices, &mut cells);
        let first = cells.clone();
        assert!(!first.is_empty());
        let cap = cells.capacity();
        die().sample_cells_into(50_000, floor, 10, &mut indices, &mut cells);
        assert_ne!(first, cells, "fresh randomness per seed");
        assert!(cells.capacity() >= cap.min(cells.len()));
        // from_cells round-trips the buffers into an owned overlay.
        let o = SparseOverlay::from_cells(50_000, floor, cells.clone());
        assert_eq!(o.cells(), cells.as_slice());
    }

    #[test]
    fn word_helpers_address_the_expected_bit() {
        assert_eq!(word_index(0), 0);
        assert_eq!(word_index(63), 0);
        assert_eq!(word_index(64), 1);
        assert_eq!(bit_mask(0), 1);
        assert_eq!(bit_mask(65), 2);
    }

    #[test]
    fn corruption_word_matches_the_materialized_words() {
        let floor = Volt::new(0.36);
        let bits = 20_000usize;
        let words = bits.div_ceil(64);
        let o = die().overlay_from_seed(bits, floor, 31);
        let mut all = Vec::new();
        for mv in [360, 400, 440, 520] {
            let v = Volt::from_millivolts(f64::from(mv));
            o.corruption_words_into(v, words, &mut all);
            for (w, &expected) in all.iter().enumerate() {
                assert_eq!(o.corruption_word(w, v), expected, "word {w} at {v}");
            }
        }
        // Past the last cell the word is clean.
        assert_eq!(o.corruption_word(words + 5, floor), 0);
    }

    #[test]
    #[should_panic(expected = "below this sparse overlay's sampling floor")]
    fn corruption_word_rejects_voltages_below_the_floor() {
        let o = die().overlay_from_seed(1024, Volt::new(0.44), 1);
        let _ = o.corruption_word(0, Volt::new(0.40));
    }

    #[test]
    fn high_floor_yields_an_empty_overlay() {
        // F(0.60 V) ~ Q(6.2) ~ 3e-10: 10k cells are virtually always clean.
        let o = die().overlay_from_seed(10_000, Volt::new(0.60), 3);
        assert!(o.cells().is_empty());
        assert_eq!(o.flip_count(Volt::new(0.60)), 0);
        assert_eq!(o.len(), 10_000);
        assert!(
            !o.is_empty(),
            "is_empty reports zero *cells*, not zero faults"
        );
    }
}
