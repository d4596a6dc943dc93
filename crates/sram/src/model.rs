//! Pluggable fault models: the cache-keyable spec layer above the Gaussian
//! cell-V_min workhorse of [`crate::fault`].
//!
//! The paper (and the original reproduction stack) assumes i.i.d. Gaussian
//! per-cell V_min. MoRS-style measurements of real reduced-voltage SRAMs
//! show two further effects this module captures:
//!
//! * **spatially correlated bursts** — faults cluster along rows and
//!   columns of the physical array rather than falling independently per
//!   cell ([`FaultModel::CorrelatedBurst`]);
//! * **chip-to-chip variation** — each die's `(mu, sigma)` is itself a
//!   draw from a hyper-distribution, so V_min varies strongly across a
//!   fleet ([`FaultModel::ChipVariation`]).
//!
//! A [`FaultModel`] is a *spec*: a sealed enum with integral
//! (millivolt/ppm) parameters so it derives `Eq + Hash` and has an
//! injective canonical encoding ([`FaultModel::canonical_token`]) suitable
//! for content-addressed caching. Resolving a spec against a die
//! seed ([`FaultModel::resolve_die`]) yields a [`DieFaultModel`] — the
//! sampleable per-die form. The Gaussian resolution path is **byte-for-byte
//! identical** to the pre-refactor hard-wired [`VminFaultModel`] pipeline:
//! it executes exactly the same `StdRng::seed_from_u64` +
//! [`SparseOverlay::sample_cells_into`] call sequence, so every sampled
//! stream predating this layer is unchanged.

use crate::fault::{VminFaultModel, V_DATA_RETENTION};
use crate::geometry::MacroGeometry;
use crate::math::{q_tail, sample_bernoulli_indices_into, truncated_tail_normal};
use crate::sparse::{SparseCell, SparseOverlay};
use dante_circuit::units::Volt;
use dante_sim::seed::{derive_seed, site};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};

/// Anything that exposes a marginal (array-average) bit error rate at a
/// supply voltage — the quantity the closed-form yield expressions of
/// [`crate::yield_model`] are written against. Implemented by the direct
/// Gaussian handle, by fault-model specs, and by resolved dies, so yield
/// code is agnostic to which layer it is handed.
pub trait CellFaultRate {
    /// Probability that a uniformly chosen cell of the array is faulty at
    /// supply voltage `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is below the data-retention voltage.
    fn marginal_ber(&self, v: Volt) -> f64;
}

impl CellFaultRate for VminFaultModel {
    fn marginal_ber(&self, v: Volt) -> f64 {
        self.bit_error_rate(v)
    }
}

/// Millivolt parameter as a [`Volt`]. `352 mV -> 0.352 V` is exact: the
/// division of two exactly-representable values rounds to the nearest
/// `f64`, which is the same value the `0.352` literal denotes.
fn mv(millivolts: u32) -> Volt {
    Volt::from_millivolts(f64::from(millivolts))
}

/// Parts-per-million parameter as a probability. `500_000 ppm -> 0.5`
/// exactly.
fn ppm(parts: u32) -> f64 {
    f64::from(parts) / 1e6
}

/// Default `mu` of the calibrated 14nm model, in millivolts.
pub const DEFAULT_MU_MV: u32 = 352;
/// Default `sigma` of the calibrated 14nm model, in millivolts.
pub const DEFAULT_SIGMA_MV: u32 = 40;
/// Default read-flip probability, in parts per million (`0.5`).
pub const DEFAULT_FLIP_PPM: u32 = 500_000;

/// A cache-keyable fault-model spec.
///
/// All parameters are integral (millivolts / parts-per-million), so the
/// enum derives `Eq + Hash` and its canonical encoding is injective without
/// any float-formatting ambiguity. The default value is the spec form of
/// [`VminFaultModel::default_14nm`] — bit-identical once resolved.
///
/// # Examples
///
/// ```
/// use dante_sram::model::FaultModel;
/// use dante_sram::fault::VminFaultModel;
///
/// let spec = FaultModel::default();
/// assert_eq!(spec, FaultModel::gaussian_default());
/// assert_eq!(spec.base_gaussian(), VminFaultModel::default_14nm());
/// assert_eq!(
///     spec.canonical_token(),
///     "gaussian(mu=352,sigma=40,flip=500000)"
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultModel {
    /// The paper's i.i.d. Gaussian cell-V_min model: every cell of every
    /// die draws `v_c ~ N(mu, sigma)` independently.
    Gaussian {
        /// Mean cell V_min, in millivolts.
        mu_mv: u32,
        /// Cell V_min standard deviation, in millivolts.
        sigma_mv: u32,
        /// Read-flip probability of a faulty cell, in parts per million.
        flip_ppm: u32,
    },
    /// Spatially correlated row/column bursts on top of the i.i.d.
    /// Gaussian background, laid out against the chip's
    /// [`MacroGeometry::dante_4kb`] bit-index mapping: a *row* is one
    /// 64-bit word, a *column* is one bit position within a
    /// 512-word macro tile. Weak rows/columns draw their cells' V_min from
    /// the Gaussian shifted up by `shift_mv`, so faults cluster along them.
    CorrelatedBurst {
        /// Background mean cell V_min, in millivolts.
        mu_mv: u32,
        /// Background cell V_min standard deviation, in millivolts.
        sigma_mv: u32,
        /// Read-flip probability of a faulty cell, in parts per million.
        flip_ppm: u32,
        /// Probability that a 64-bit row (word) is weak, in ppm.
        row_weak_ppm: u32,
        /// Probability that a bit column of a 512-word macro tile is weak,
        /// in ppm.
        col_weak_ppm: u32,
        /// Upward V_min shift of weak cells, in millivolts.
        shift_mv: u32,
    },
    /// Chip-to-chip variation: each die draws its own `(mu, sigma)` from a
    /// hyper-distribution (`mu ~ N(mu, mu_spread)`,
    /// `sigma ~ N(sigma, sigma * sigma_spread_pct / 100)`) via the
    /// counter-seeded derivation, then behaves as an i.i.d. Gaussian die.
    ChipVariation {
        /// Hyper-mean of the per-die `mu`, in millivolts.
        mu_mv: u32,
        /// Hyper-mean of the per-die `sigma`, in millivolts.
        sigma_mv: u32,
        /// Read-flip probability of a faulty cell, in parts per million.
        flip_ppm: u32,
        /// Standard deviation of the per-die `mu` draw, in millivolts.
        mu_spread_mv: u32,
        /// Standard deviation of the per-die `sigma` draw, as a percentage
        /// of `sigma_mv`.
        sigma_spread_pct: u32,
    },
}

impl Default for FaultModel {
    fn default() -> Self {
        Self::gaussian_default()
    }
}

impl FaultModel {
    /// The spec form of the calibrated 14nm Gaussian
    /// ([`VminFaultModel::default_14nm`]).
    #[must_use]
    pub fn gaussian_default() -> Self {
        Self::Gaussian {
            mu_mv: DEFAULT_MU_MV,
            sigma_mv: DEFAULT_SIGMA_MV,
            flip_ppm: DEFAULT_FLIP_PPM,
        }
    }

    /// A representative correlated-burst model over the default Gaussian
    /// background: 0.2% of rows and 0.1% of macro-tile columns weak, weak
    /// cells shifted up by 120 mV.
    #[must_use]
    pub fn burst_default() -> Self {
        Self::CorrelatedBurst {
            mu_mv: DEFAULT_MU_MV,
            sigma_mv: DEFAULT_SIGMA_MV,
            flip_ppm: DEFAULT_FLIP_PPM,
            row_weak_ppm: 2_000,
            col_weak_ppm: 1_000,
            shift_mv: 120,
        }
    }

    /// A representative chip-variation model around the default Gaussian:
    /// per-die `mu` spread of 15 mV, per-die `sigma` spread of 10%.
    #[must_use]
    pub fn chip_variation_default() -> Self {
        Self::ChipVariation {
            mu_mv: DEFAULT_MU_MV,
            sigma_mv: DEFAULT_SIGMA_MV,
            flip_ppm: DEFAULT_FLIP_PPM,
            mu_spread_mv: 15,
            sigma_spread_pct: 10,
        }
    }

    /// The base (background / hyper-mean) Gaussian of any variant.
    ///
    /// For the default spec this equals [`VminFaultModel::default_14nm`]
    /// bit-for-bit (pinned by test), which is what keeps the Gaussian
    /// resolution path byte-identical.
    #[must_use]
    pub fn base_gaussian(&self) -> VminFaultModel {
        let (mu_mv, sigma_mv, flip_ppm) = match *self {
            Self::Gaussian {
                mu_mv,
                sigma_mv,
                flip_ppm,
            }
            | Self::CorrelatedBurst {
                mu_mv,
                sigma_mv,
                flip_ppm,
                ..
            }
            | Self::ChipVariation {
                mu_mv,
                sigma_mv,
                flip_ppm,
                ..
            } => (mu_mv, sigma_mv, flip_ppm),
        };
        VminFaultModel::new(mv(mu_mv), mv(sigma_mv), ppm(flip_ppm))
    }

    /// Validates the spec's bounds.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated bound.
    pub fn validate(&self) -> Result<(), String> {
        let (mu_mv, sigma_mv, flip_ppm) = match *self {
            Self::Gaussian {
                mu_mv,
                sigma_mv,
                flip_ppm,
            }
            | Self::CorrelatedBurst {
                mu_mv,
                sigma_mv,
                flip_ppm,
                ..
            }
            | Self::ChipVariation {
                mu_mv,
                sigma_mv,
                flip_ppm,
                ..
            } => (mu_mv, sigma_mv, flip_ppm),
        };
        if !(300..=600).contains(&mu_mv) {
            return Err(format!("fault model mu = {mu_mv} mV outside 300..=600"));
        }
        if !(1..=200).contains(&sigma_mv) {
            return Err(format!("fault model sigma = {sigma_mv} mV outside 1..=200"));
        }
        if !(1..=1_000_000).contains(&flip_ppm) {
            return Err(format!(
                "fault model flip probability = {flip_ppm} ppm outside 1..=1000000"
            ));
        }
        match *self {
            Self::Gaussian { .. } => Ok(()),
            Self::CorrelatedBurst {
                row_weak_ppm,
                col_weak_ppm,
                shift_mv,
                ..
            } => {
                if row_weak_ppm > 100_000 {
                    return Err(format!(
                        "weak-row rate = {row_weak_ppm} ppm above 100000 (10%)"
                    ));
                }
                if col_weak_ppm > 100_000 {
                    return Err(format!(
                        "weak-column rate = {col_weak_ppm} ppm above 100000 (10%)"
                    ));
                }
                if row_weak_ppm == 0 && col_weak_ppm == 0 {
                    return Err("a burst model needs a non-zero row or column rate".into());
                }
                if !(1..=300).contains(&shift_mv) {
                    return Err(format!("burst shift = {shift_mv} mV outside 1..=300"));
                }
                Ok(())
            }
            Self::ChipVariation {
                mu_spread_mv,
                sigma_spread_pct,
                ..
            } => {
                if !(1..=100).contains(&mu_spread_mv) {
                    return Err(format!("mu spread = {mu_spread_mv} mV outside 1..=100"));
                }
                if sigma_spread_pct > 50 {
                    return Err(format!("sigma spread = {sigma_spread_pct}% above 50%"));
                }
                Ok(())
            }
        }
    }

    /// The canonical encoding of this spec: variant-tagged, every
    /// parameter printed, so the mapping spec -> token is injective. This
    /// is the `fault=` component of higher-level cache keys, whose family
    /// version covers the token's layout.
    #[must_use]
    pub fn canonical_token(&self) -> String {
        match *self {
            Self::Gaussian {
                mu_mv,
                sigma_mv,
                flip_ppm,
            } => format!("gaussian(mu={mu_mv},sigma={sigma_mv},flip={flip_ppm})"),
            Self::CorrelatedBurst {
                mu_mv,
                sigma_mv,
                flip_ppm,
                row_weak_ppm,
                col_weak_ppm,
                shift_mv,
            } => format!(
                "burst(mu={mu_mv},sigma={sigma_mv},flip={flip_ppm},\
                 row={row_weak_ppm},col={col_weak_ppm},shift={shift_mv})"
            ),
            Self::ChipVariation {
                mu_mv,
                sigma_mv,
                flip_ppm,
                mu_spread_mv,
                sigma_spread_pct,
            } => format!(
                "chip(mu={mu_mv},sigma={sigma_mv},flip={flip_ppm},\
                 dmu={mu_spread_mv},dsig={sigma_spread_pct})"
            ),
        }
    }

    /// Resolves the spec against a die seed into the sampleable per-die
    /// form.
    ///
    /// * `Gaussian` resolves to the same [`VminFaultModel`] for every die
    ///   and consumes no randomness.
    /// * `ChipVariation` draws the die's `(mu, sigma)` profile from the
    ///   hyper-distribution via `derive_seed(die_seed, CHIP_PROFILE, 0)`,
    ///   then behaves as a Gaussian die.
    /// * `CorrelatedBurst` carries its burst parameters through; the weak
    ///   row/column sets are drawn per overlay (they are a property of each
    ///   physical array instance).
    #[must_use]
    pub fn resolve_die(&self, die_seed: u64) -> DieFaultModel {
        match *self {
            Self::Gaussian { .. } => DieFaultModel::Gaussian(self.base_gaussian()),
            Self::CorrelatedBurst {
                row_weak_ppm,
                col_weak_ppm,
                shift_mv,
                ..
            } => DieFaultModel::CorrelatedBurst(BurstDie {
                base: self.base_gaussian(),
                row_weak: ppm(row_weak_ppm),
                col_weak: ppm(col_weak_ppm),
                shift: mv(shift_mv),
            }),
            Self::ChipVariation {
                mu_mv,
                sigma_mv,
                flip_ppm,
                mu_spread_mv,
                sigma_spread_pct,
            } => {
                let mut rng = StdRng::seed_from_u64(derive_seed(die_seed, site::CHIP_PROFILE, 0));
                let unit = Normal::new(0.0, 1.0).expect("unit normal is valid");
                let z_mu: f64 = unit.sample(&mut rng);
                let z_sigma: f64 = unit.sample(&mut rng);
                let sigma0 = mv(sigma_mv).volts();
                // Clamps keep a pathological tail draw physical: mu stays
                // above data retention, sigma stays positive.
                let mu = (mv(mu_mv).volts() + mv(mu_spread_mv).volts() * z_mu)
                    .max(V_DATA_RETENTION.volts() + 0.01);
                let sigma = (sigma0 * (1.0 + f64::from(sigma_spread_pct) / 100.0 * z_sigma))
                    .max(0.25 * sigma0);
                DieFaultModel::Gaussian(VminFaultModel::new(
                    Volt::new(mu),
                    Volt::new(sigma),
                    ppm(flip_ppm),
                ))
            }
        }
    }
}

impl CellFaultRate for FaultModel {
    /// The fleet-marginal BER: exact for `Gaussian` (delegates to
    /// [`VminFaultModel::bit_error_rate`]) and `CorrelatedBurst` (a
    /// two-component mixture), and the Gaussian-convolution closed form
    /// `Q((v - mu) / sqrt(sigma^2 + mu_spread^2))` for `ChipVariation`
    /// (exact in the `mu` spread; the `sigma` spread enters only at second
    /// order).
    fn marginal_ber(&self, v: Volt) -> f64 {
        match *self {
            Self::Gaussian { .. } => self.base_gaussian().bit_error_rate(v),
            Self::CorrelatedBurst {
                row_weak_ppm,
                col_weak_ppm,
                shift_mv,
                ..
            } => {
                let base = self.base_gaussian();
                let ber_base = base.bit_error_rate(v);
                let (mu, sigma) = (base.mu().volts(), base.sigma().volts());
                let ber_weak = q_tail((v.volts() - mu - mv(shift_mv).volts()) / sigma);
                // A cell is weak if its row or its column is weak
                // (independent draws).
                let (r, c) = (ppm(row_weak_ppm), ppm(col_weak_ppm));
                let p_weak = r + c - r * c;
                (1.0 - p_weak) * ber_base + p_weak * ber_weak
            }
            Self::ChipVariation {
                mu_mv,
                sigma_mv,
                mu_spread_mv,
                ..
            } => {
                assert!(
                    v >= V_DATA_RETENTION,
                    "{v} is below the data-retention voltage {V_DATA_RETENTION}"
                );
                let sigma = mv(sigma_mv).volts();
                let spread = mv(mu_spread_mv).volts();
                let eff = sigma.hypot(spread);
                q_tail((v - mv(mu_mv)).volts() / eff)
            }
        }
    }
}

/// A fault model resolved against one die: the form overlays are sampled
/// from.
#[derive(Debug, Clone, PartialEq)]
pub enum DieFaultModel {
    /// An i.i.d. Gaussian die (from a `Gaussian` or `ChipVariation` spec).
    Gaussian(VminFaultModel),
    /// A correlated-burst die: Gaussian background plus weak rows/columns.
    CorrelatedBurst(BurstDie),
}

/// The resolved per-die parameters of a correlated-burst model.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstDie {
    /// The i.i.d. Gaussian background.
    pub base: VminFaultModel,
    /// Probability that a 64-bit row (word) is weak.
    pub row_weak: f64,
    /// Probability that a macro-tile bit column is weak.
    pub col_weak: f64,
    /// Upward V_min shift of weak cells.
    pub shift: Volt,
}

/// The smallest `f32` strictly greater than a positive finite `x` (local
/// copy of the sparse sampler's ULP nudge).
#[inline]
fn next_up(x: f32) -> f32 {
    f32::from_bits(x.to_bits() + 1)
}

impl DieFaultModel {
    /// The die's Gaussian form, when it has one — the dense-overlay fast
    /// path keys off this.
    #[must_use]
    pub fn as_gaussian(&self) -> Option<&VminFaultModel> {
        match self {
            Self::Gaussian(m) => Some(m),
            Self::CorrelatedBurst(_) => None,
        }
    }

    /// The die's read-flip probability.
    #[must_use]
    pub fn read_flip_probability(&self) -> f64 {
        match self {
            Self::Gaussian(m) => m.read_flip_probability(),
            Self::CorrelatedBurst(b) => b.base.read_flip_probability(),
        }
    }

    /// Samples the die's faulty-at-floor cells into `cells` (sorted by
    /// strictly increasing index), using `indices` as scratch — the
    /// model-polymorphic form of [`SparseOverlay::sample_cells_into`].
    ///
    /// For a Gaussian die this executes **exactly** the legacy call
    /// sequence (`StdRng::seed_from_u64(seed)` feeding
    /// `SparseOverlay::sample_cells_into`), so the sampled cells — and
    /// every downstream golden artifact — are byte-identical to the
    /// pre-refactor pipeline. A burst die first runs that same background
    /// pass, then merges in its weak-row/column cells from a disjoint
    /// counter-derived stream (`derive_seed(seed, FAULT_BURST, 0)`), so
    /// the background remains comparable across models sharing a seed.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or `v_floor` is below data retention.
    pub fn sample_cells_into(
        &self,
        bits: usize,
        v_floor: Volt,
        seed: u64,
        indices: &mut Vec<u64>,
        cells: &mut Vec<SparseCell>,
    ) {
        match self {
            Self::Gaussian(m) => {
                let mut rng = StdRng::seed_from_u64(seed);
                SparseOverlay::sample_cells_into(bits, m, v_floor, &mut rng, indices, cells);
            }
            Self::CorrelatedBurst(b) => {
                let mut rng = StdRng::seed_from_u64(seed);
                SparseOverlay::sample_cells_into(bits, &b.base, v_floor, &mut rng, indices, cells);
                let mut brng = StdRng::seed_from_u64(derive_seed(seed, site::FAULT_BURST, 0));
                b.sample_burst_cells(bits, v_floor, &mut brng, indices, cells);
            }
        }
    }

    /// The floor fast path of [`Self::sample_cells_into`]: identical cell
    /// indices and flip decisions, but V_min values are pinned one ULP
    /// above the floor instead of drawn from the tail — valid only for a
    /// consumer that applies the overlay at exactly `v_floor` (there the
    /// corruption words are bit-identical to the slow path's; see
    /// [`SparseOverlay::sample_cells_at_floor_into`]).
    ///
    /// A Gaussian die elides its quantile math; a correlated-burst die
    /// falls back to the exact slow path, because its weak-cell merge keeps
    /// the *higher* of two tail draws when a burst lands on a background
    /// cell — a comparison that needs the real V_min values to pick the
    /// surviving flip bit.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or `v_floor` is below data retention.
    pub fn sample_cells_at_floor_into(
        &self,
        bits: usize,
        v_floor: Volt,
        seed: u64,
        indices: &mut Vec<u64>,
        cells: &mut Vec<SparseCell>,
    ) {
        match self {
            Self::Gaussian(m) => {
                let mut rng = StdRng::seed_from_u64(seed);
                SparseOverlay::sample_cells_at_floor_into(
                    bits, m, v_floor, &mut rng, indices, cells,
                );
            }
            Self::CorrelatedBurst(_) => {
                self.sample_cells_into(bits, v_floor, seed, indices, cells);
            }
        }
    }

    /// Streaming form of [`Self::sample_cells_at_floor_into`]: emits
    /// `(word_index, flip_mask)` for every word with at least one flipped
    /// bit, ascending, without materializing cells on the Gaussian path
    /// (see [`SparseOverlay::for_each_flip_word_at_floor`]). A burst die
    /// samples exactly as the slow path and groups its cells' flips —
    /// every sampled cell's V_min is strictly above the floor, so at the
    /// floor the flip mask is just the flip bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or `v_floor` is below data retention.
    pub fn for_each_flip_word_at_floor(
        &self,
        bits: usize,
        v_floor: Volt,
        seed: u64,
        indices: &mut Vec<u64>,
        cells: &mut Vec<SparseCell>,
        mut emit: impl FnMut(usize, u64),
    ) {
        match self {
            Self::Gaussian(m) => {
                let mut rng = StdRng::seed_from_u64(seed);
                SparseOverlay::for_each_flip_word_at_floor(
                    bits, m, v_floor, &mut rng, indices, emit,
                );
            }
            Self::CorrelatedBurst(_) => {
                self.sample_cells_into(bits, v_floor, seed, indices, cells);
                let mut word = usize::MAX;
                let mut mask = 0u64;
                for c in cells.iter() {
                    let w = (c.index / 64) as usize;
                    if w != word {
                        if mask != 0 {
                            emit(word, mask);
                        }
                        word = w;
                        mask = 0;
                    }
                    if c.flip {
                        mask |= 1u64 << (c.index % 64);
                    }
                }
                if mask != 0 {
                    emit(word, mask);
                }
            }
        }
    }

    /// Owned-overlay convenience form of [`Self::sample_cells_into`].
    #[must_use]
    pub fn overlay_from_seed(&self, bits: usize, v_floor: Volt, seed: u64) -> SparseOverlay {
        let mut indices = Vec::new();
        let mut cells = Vec::new();
        self.sample_cells_into(bits, v_floor, seed, &mut indices, &mut cells);
        SparseOverlay::from_cells(bits, v_floor, cells)
    }
}

impl CellFaultRate for DieFaultModel {
    fn marginal_ber(&self, v: Volt) -> f64 {
        match self {
            Self::Gaussian(m) => m.bit_error_rate(v),
            Self::CorrelatedBurst(b) => {
                let ber_base = b.base.bit_error_rate(v);
                let (mu, sigma) = (b.base.mu().volts(), b.base.sigma().volts());
                let ber_weak = q_tail((v.volts() - mu - b.shift.volts()) / sigma);
                let p_weak = b.row_weak + b.col_weak - b.row_weak * b.col_weak;
                (1.0 - p_weak) * ber_base + p_weak * ber_weak
            }
        }
    }
}

impl BurstDie {
    /// Draws the weak-row/column cells faulty at `v_floor` and merges them
    /// into the background `cells` (keeping the higher V_min where a burst
    /// cell lands on a background cell). `indices` is reused as scratch for
    /// the weak-row Bernoulli walk.
    fn sample_burst_cells(
        &self,
        bits: usize,
        v_floor: Volt,
        rng: &mut StdRng,
        indices: &mut Vec<u64>,
        cells: &mut Vec<SparseCell>,
    ) {
        let geom = MacroGeometry::dante_4kb();
        let bpw = geom.bits_per_word() as u64; // 64: a row is one word
        let tile_bits = geom.capacity_bits(); // 512 words x 64 bits
        let (mu, sigma) = (self.base.mu().volts(), self.base.sigma().volts());
        let mu_weak = mu + self.shift.volts();
        let floor = v_floor.volts();
        let floor_f32 = floor as f32;
        // Probability that a weak cell is faulty at the floor — the shifted
        // Gaussian's tail, typically orders of magnitude above background.
        let p_weak_cell = q_tail((floor - mu_weak) / sigma);
        let p_flip = self.base.read_flip_probability();
        let background = cells.len();

        let draw_cell = |index: u64, rng: &mut StdRng, out: &mut Vec<SparseCell>| {
            if rng.gen_bool(p_weak_cell) {
                let mut vmin = truncated_tail_normal(mu_weak, sigma, floor, rng) as f32;
                if vmin <= floor_f32 {
                    vmin = next_up(floor_f32);
                }
                out.push(SparseCell {
                    index,
                    vmin,
                    flip: rng.gen_bool(p_flip),
                });
            }
        };

        // Weak rows: each 64-bit word is weak independently; all its cells
        // draw from the shifted distribution.
        let rows = bits.div_ceil(bpw as usize);
        sample_bernoulli_indices_into(rows, self.row_weak, rng, indices);
        let weak_rows = std::mem::take(indices);
        for &row in &weak_rows {
            for bit in 0..bpw {
                let index = row * bpw + bit;
                if index as usize >= bits {
                    break;
                }
                draw_cell(index, rng, cells);
            }
        }
        *indices = weak_rows;

        // Weak columns: tile the array into 512x64 macros; within each
        // tile, each bit column is weak independently and elevates its 512
        // cells.
        let tiles = bits.div_ceil(tile_bits);
        let mut weak_cols = Vec::new();
        for tile in 0..tiles {
            sample_bernoulli_indices_into(bpw as usize, self.col_weak, rng, &mut weak_cols);
            for &col in &weak_cols {
                for word in 0..geom.words() as u64 {
                    let index = (tile * tile_bits) as u64 + word * bpw + col;
                    if index as usize >= bits {
                        break;
                    }
                    draw_cell(index, rng, cells);
                }
            }
        }

        // Merge bursts into the sorted background: sort, then collapse
        // duplicate indices keeping the cell with the higher V_min (the
        // weak draw replaces the cell's background draw when it dominates).
        if cells.len() > background {
            cells.sort_unstable_by_key(|c| c.index);
            let mut write = 0;
            for read in 0..cells.len() {
                if write > 0 && cells[write - 1].index == cells[read].index {
                    if cells[read].vmin > cells[write - 1].vmin {
                        cells[write - 1] = cells[read];
                    }
                } else {
                    cells[write] = cells[read];
                    write += 1;
                }
            }
            cells.truncate(write);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_fast_paths_match_slow_sampling_for_both_die_kinds() {
        let floor = Volt::new(0.42);
        let bits = 30_000usize;
        let words = bits.div_ceil(64);
        for die in [
            FaultModel::default().resolve_die(3),
            FaultModel::burst_default().resolve_die(3),
        ] {
            for seed in 0..3u64 {
                let (mut si, mut sc) = (Vec::new(), Vec::new());
                die.sample_cells_into(bits, floor, seed, &mut si, &mut sc);
                let mut expected = vec![0u64; words];
                for c in &sc {
                    // Every sampled V_min is strictly above the floor, so
                    // at the floor the corruption is exactly the flip bits.
                    assert!(f64::from(c.vmin) > floor.volts());
                    if c.flip {
                        expected[(c.index / 64) as usize] |= 1u64 << (c.index % 64);
                    }
                }
                let (mut fi, mut fc) = (Vec::new(), Vec::new());
                die.sample_cells_at_floor_into(bits, floor, seed, &mut fi, &mut fc);
                assert_eq!(sc.len(), fc.len());
                assert!(sc
                    .iter()
                    .zip(fc.iter())
                    .all(|(s, f)| s.index == f.index && s.flip == f.flip));
                let (mut wi, mut wc) = (Vec::new(), Vec::new());
                let mut streamed = vec![0u64; words];
                die.for_each_flip_word_at_floor(bits, floor, seed, &mut wi, &mut wc, |w, m| {
                    streamed[w] = m;
                });
                assert_eq!(expected, streamed, "streamed flips diverged ({die:?})");
            }
        }
    }

    #[test]
    fn default_spec_resolves_to_the_calibrated_14nm_model_exactly() {
        assert_eq!(
            FaultModel::default().base_gaussian(),
            VminFaultModel::default_14nm()
        );
        assert!(matches!(
            FaultModel::default().resolve_die(42),
            DieFaultModel::Gaussian(m) if m == VminFaultModel::default_14nm()
        ));
    }

    #[test]
    fn integral_params_reconstruct_the_float_defaults_bit_for_bit() {
        // The whole byte-identity argument rests on these equalities.
        let base = FaultModel::default().base_gaussian();
        let legacy = VminFaultModel::default_14nm();
        assert_eq!(base.mu().volts().to_bits(), legacy.mu().volts().to_bits());
        assert_eq!(
            base.sigma().volts().to_bits(),
            legacy.sigma().volts().to_bits()
        );
        assert_eq!(
            base.read_flip_probability().to_bits(),
            legacy.read_flip_probability().to_bits()
        );
    }

    #[test]
    fn gaussian_die_samples_byte_identically_to_the_legacy_path() {
        let spec = FaultModel::default();
        let die = spec.resolve_die(derive_seed(7, site::TRIAL, 3));
        let floor = Volt::new(0.40);
        let ours = die.overlay_from_seed(100_000, floor, 1234);
        let legacy =
            SparseOverlay::from_seed(100_000, &VminFaultModel::default_14nm(), floor, 1234);
        assert_eq!(ours.cells(), legacy.cells());
    }

    #[test]
    fn canonical_tokens_are_pinned_and_distinct() {
        let toks = [
            FaultModel::gaussian_default().canonical_token(),
            FaultModel::burst_default().canonical_token(),
            FaultModel::chip_variation_default().canonical_token(),
            FaultModel::Gaussian {
                mu_mv: 360,
                sigma_mv: 40,
                flip_ppm: 500_000,
            }
            .canonical_token(),
        ];
        assert_eq!(
            toks[..3],
            [
                "gaussian(mu=352,sigma=40,flip=500000)",
                "burst(mu=352,sigma=40,flip=500000,row=2000,col=1000,shift=120)",
                "chip(mu=352,sigma=40,flip=500000,dmu=15,dsig=10)",
            ]
        );
        let mut uniq = toks.to_vec();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), toks.len(), "tokens must be distinct: {toks:?}");
    }

    #[test]
    fn validation_names_the_violated_bound() {
        let bad = FaultModel::Gaussian {
            mu_mv: 100,
            sigma_mv: 40,
            flip_ppm: 500_000,
        };
        assert!(bad.validate().unwrap_err().contains("mu"));
        let bad = FaultModel::CorrelatedBurst {
            mu_mv: 352,
            sigma_mv: 40,
            flip_ppm: 500_000,
            row_weak_ppm: 0,
            col_weak_ppm: 0,
            shift_mv: 120,
        };
        assert!(bad.validate().unwrap_err().contains("non-zero"));
        let bad = FaultModel::ChipVariation {
            mu_mv: 352,
            sigma_mv: 40,
            flip_ppm: 500_000,
            mu_spread_mv: 0,
            sigma_spread_pct: 10,
        };
        assert!(bad.validate().unwrap_err().contains("mu spread"));
        assert!(FaultModel::burst_default().validate().is_ok());
        assert!(FaultModel::chip_variation_default().validate().is_ok());
        assert!(FaultModel::default().validate().is_ok());
    }

    #[test]
    fn chip_variation_dies_differ_but_are_deterministic_per_seed() {
        let spec = FaultModel::chip_variation_default();
        let a = spec.resolve_die(derive_seed(1, site::FLEET_DIE, 0));
        let a2 = spec.resolve_die(derive_seed(1, site::FLEET_DIE, 0));
        let b = spec.resolve_die(derive_seed(1, site::FLEET_DIE, 1));
        assert_eq!(a, a2, "same die seed, same profile");
        assert_ne!(a, b, "different dies draw different profiles");
        // The population mean tracks the hyper-mean.
        let n = 512;
        let mean_mu: f64 = (0..n)
            .map(|i| {
                let die = spec.resolve_die(derive_seed(1, site::FLEET_DIE, i));
                die.as_gaussian()
                    .expect("chip dies are Gaussian")
                    .mu()
                    .volts()
            })
            .sum::<f64>()
            / f64::from(n as u32);
        assert!(
            (mean_mu - 0.352).abs() < 0.005,
            "population mean mu {mean_mu} strays from the hyper-mean"
        );
    }

    #[test]
    fn burst_die_clusters_faults_along_rows() {
        // Index-of-dispersion sanity at the model level: per-row fault
        // counts of a burst die must be far over-dispersed relative to the
        // i.i.d. background (the formal chi-square acceptance test lives in
        // dante-verify's suite).
        let floor = Volt::new(0.42);
        let bits = 1 << 20;
        let spec = FaultModel::CorrelatedBurst {
            mu_mv: DEFAULT_MU_MV,
            sigma_mv: DEFAULT_SIGMA_MV,
            flip_ppm: DEFAULT_FLIP_PPM,
            row_weak_ppm: 5_000,
            col_weak_ppm: 0,
            shift_mv: 150,
        };
        let dispersion = |cells: &[SparseCell]| {
            let rows = bits / 64;
            let mut counts = vec![0u32; rows];
            for c in cells {
                counts[(c.index / 64) as usize] += 1;
            }
            let n = counts.len() as f64;
            let mean = counts.iter().map(|&c| f64::from(c)).sum::<f64>() / n;
            let var = counts
                .iter()
                .map(|&c| (f64::from(c) - mean).powi(2))
                .sum::<f64>()
                / (n - 1.0);
            var / mean
        };
        let burst = spec.resolve_die(11).overlay_from_seed(bits, floor, 99);
        let iid = FaultModel::default()
            .resolve_die(11)
            .overlay_from_seed(bits, floor, 99);
        let d_burst = dispersion(burst.cells());
        let d_iid = dispersion(iid.cells());
        assert!(
            d_iid < 1.5,
            "i.i.d. per-row counts are Poisson-like, got dispersion {d_iid}"
        );
        assert!(
            d_burst > 5.0,
            "burst per-row counts must be strongly over-dispersed, got {d_burst}"
        );
        assert!(
            burst.cells().len() > iid.cells().len(),
            "bursts add faults on top of the shared background"
        );
    }

    #[test]
    fn burst_cells_stay_sorted_in_range_and_above_floor() {
        let floor = Volt::new(0.40);
        let bits = 200_000;
        let die = FaultModel::burst_default().resolve_die(3);
        let o = die.overlay_from_seed(bits, floor, 17);
        // from_cells already asserts strict ordering; check range + floor.
        let floor_f32 = floor.volts() as f32;
        for c in o.cells() {
            assert!((c.index as usize) < bits);
            assert!(
                c.vmin > floor_f32,
                "cell vmin {} at floor {floor_f32}",
                c.vmin
            );
        }
        // Determinism.
        let o2 = die.overlay_from_seed(bits, floor, 17);
        assert_eq!(o.cells(), o2.cells());
    }

    #[test]
    fn marginal_ber_orders_the_models_sensibly() {
        let v = Volt::new(0.48);
        let g = FaultModel::default().marginal_ber(v);
        let b = FaultModel::burst_default().marginal_ber(v);
        let c = FaultModel::chip_variation_default().marginal_ber(v);
        assert_eq!(
            g,
            VminFaultModel::default_14nm().bit_error_rate(v),
            "Gaussian marginal delegates exactly"
        );
        assert!(b > g, "bursts add faults: {b} <= {g}");
        assert!(
            c > g,
            "mu spread widens the effective tail above the mean: {c} <= {g}"
        );
        // All marginals fall with rising voltage.
        for spec in [
            FaultModel::default(),
            FaultModel::burst_default(),
            FaultModel::chip_variation_default(),
        ] {
            let lo = spec.marginal_ber(Volt::new(0.40));
            let hi = spec.marginal_ber(Volt::new(0.56));
            assert!(lo > hi, "{spec:?}: BER must fall with voltage");
        }
    }

    #[test]
    fn burst_empirical_fault_rate_tracks_the_marginal() {
        // The mixture formula against the sampler it describes: pooled over
        // seeds, the empirical faulty fraction at the floor must sit within
        // a loose binomial band of the analytic marginal.
        let spec = FaultModel::burst_default();
        let floor = Volt::new(0.44);
        let bits = 1 << 20;
        let die = spec.resolve_die(0);
        let mut total = 0usize;
        let seeds = 4;
        for s in 0..seeds {
            total += die.overlay_from_seed(bits, floor, 1000 + s).cells().len();
        }
        let n = (bits * seeds as usize) as f64;
        let p_hat = total as f64 / n;
        let p = spec.marginal_ber(floor);
        let sd = (p * (1.0 - p) / n).sqrt();
        assert!(
            (p_hat - p).abs() < 6.0 * sd + 0.1 * p,
            "empirical {p_hat:.4e} vs marginal {p:.4e} (sd {sd:.1e})"
        );
    }
}
