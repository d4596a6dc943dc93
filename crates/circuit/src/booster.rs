//! Programmable SRAM supply-voltage booster (paper Sec. 3).
//!
//! The basic unit is the *boost inverter*: a standard-cell inverter with both
//! transistor sources tied to `Vdd` and the drains shorted to form the
//! boosted rail `Vddv`. When the boost input swings low→high, capacitive
//! coupling between gate and drain kicks `Vddv` above `Vdd` by
//!
//! ```text
//! V_b = Vdd * C_b / (C_b + C_mem + C_p)            (paper Eq. 1)
//! ```
//!
//! where `C_b` is the enabled boost capacitance, `C_mem` the SRAM power-grid
//! capacitance, and `C_p` parasitics. A [`BoosterCell`] groups a column of
//! boost inverters with an optional Metal-Insulator-Metal capacitor
//! ([`MimCapacitor`]) that multiplies the boost capacitance at near-zero area
//! cost (the MIM lives in upper metal layers above the macro). A
//! [`BoosterBank`] is the per-SRAM-bank collection of `P` cells whose outputs
//! are shorted: enabling `k` of `P` cells selects boost level `k`, because
//! the *disabled* cells' capacitance loads the boosted node instead of
//! driving it.
//!
//! Two second-order effects are modelled explicitly so the MIM-vs-no-MIM
//! comparison of Fig. 6 reproduces (DESIGN.md Sec. 4):
//!
//! * **Coupling efficiency** of large inverter arrays degrades as
//!   `1 / (1 + N/N0)` — the buffer tree needed to drive thousands of boost
//!   inputs cannot slew them ideally within the access window.
//! * **Drive energy overhead** of an inverter array grows as `1 + N/N0`
//!   (tree of intermediate buffers), while a MIM capacitor is driven by one
//!   large dedicated buffer with a fixed 20% overhead.

use crate::units::{Farad, Joule, SquareMicron, Volt};

/// Effective gate–drain coupling capacitance contributed by one boost
/// inverter (~80-fin standard cell in 14nm).
pub const INVERTER_COUPLING: Farad = Farad::const_new(1.5e-15);

/// Input (gate) capacitance that must be driven to toggle one boost inverter.
pub const INVERTER_INPUT_CAP: Farad = Farad::const_new(3.0e-15);

/// Buffer-tree scale constant `N0`: arrays much smaller than this behave
/// ideally, arrays comparable to it lose coupling efficiency and pay drive
/// overhead.
pub const TREE_SCALE_N0: f64 = 4096.0;

/// Fraction of the MIM coupling energy dissipated per boost event.
///
/// The MIM capacitor's charge is *recovered* on the complementary clock
/// phase (the mechanism Joshi et al. \[7\] push to the limit with resonant
/// boosting); only resistive losses and incomplete recovery are paid per
/// event. Plain boost-inverter arrays get no such recovery — their gate
/// charge is dissipated in the buffer tree every cycle, which is exactly why
/// the MIM design wins the Fig. 6 energy comparison.
pub const MIM_RECOVERY_LOSS: f64 = 0.01;

/// Layout area of one boost inverter including its share of local buffering,
/// in square microns (calibrated so the standard per-macro booster of
/// Table 1 occupies 0.0039 mm^2).
pub const INVERTER_AREA: SquareMicron = SquareMicron::const_new(3.809);

/// Area of the dedicated MIM driver: a fixed base plus a per-picofarad term
/// (the MIM plates themselves occupy upper metal above the SRAM and add no
/// footprint, per paper Sec. 3.2.2).
pub const MIM_BUFFER_AREA_BASE: SquareMicron = SquareMicron::const_new(182.8);
/// Per-picofarad component of the MIM driver area.
pub const MIM_BUFFER_AREA_PER_PF: SquareMicron = SquareMicron::const_new(68.6);

/// A Metal-Insulator-Metal capacitor placed in upper metal layers above the
/// SRAM macro.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MimCapacitor {
    capacitance: Farad,
}

impl MimCapacitor {
    /// Creates a MIM capacitor of the given capacitance.
    ///
    /// # Panics
    ///
    /// Panics if the capacitance is not strictly positive and finite (an
    /// infinite capacitance would silently zero every boost ratio
    /// downstream).
    #[must_use]
    pub fn new(capacitance: Farad) -> Self {
        assert!(
            capacitance.is_finite() && capacitance.farads() > 0.0,
            "MIM capacitance must be positive and finite"
        );
        Self { capacitance }
    }

    /// Convenience constructor from picofarads.
    #[must_use]
    pub fn from_picofarads(pf: f64) -> Self {
        Self::new(Farad::from_picofarads(pf))
    }

    /// The capacitance of the MIM stack.
    #[must_use]
    pub fn capacitance(self) -> Farad {
        self.capacitance
    }

    /// Area of the driver needed for this MIM (the plates are free).
    #[must_use]
    pub fn driver_area(&self) -> SquareMicron {
        MIM_BUFFER_AREA_BASE + MIM_BUFFER_AREA_PER_PF * self.capacitance.picofarads()
    }
}

/// One booster cell: a column of boost inverters with an optional MIM
/// capacitor in parallel (the "BC" of paper Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoosterCell {
    inverters: usize,
    mim: Option<MimCapacitor>,
}

impl BoosterCell {
    /// Creates a booster cell.
    ///
    /// # Panics
    ///
    /// Panics if the cell is completely empty (no inverters and no MIM): an
    /// empty cell can neither boost nor load the rail and indicates a
    /// configuration bug.
    #[must_use]
    pub fn new(inverters: usize, mim: Option<MimCapacitor>) -> Self {
        assert!(
            inverters > 0 || mim.is_some(),
            "a booster cell needs at least one inverter or a MIM capacitor"
        );
        Self { inverters, mim }
    }

    /// The standard cell of the taped-out chip: 64 boost inverters plus a
    /// 10 pF MIM capacitor (paper Sec. 3.2.1).
    #[must_use]
    pub fn standard() -> Self {
        Self::new(64, Some(MimCapacitor::from_picofarads(10.0)))
    }

    /// Number of boost inverters in the cell.
    #[must_use]
    pub fn inverters(&self) -> usize {
        self.inverters
    }

    /// The MIM capacitor, if present.
    #[must_use]
    pub fn mim(&self) -> Option<MimCapacitor> {
        self.mim
    }

    /// Coupling efficiency of the inverter array: `1 / (1 + N/N0)`.
    #[must_use]
    pub fn coupling_efficiency(&self) -> f64 {
        1.0 / (1.0 + self.inverters as f64 / TREE_SCALE_N0)
    }

    /// Effective boost capacitance this cell contributes when *enabled*.
    #[must_use]
    pub fn boost_capacitance(&self) -> Farad {
        let inv = INVERTER_COUPLING * (self.inverters as f64 * self.coupling_efficiency());
        let mim = self.mim.map_or(Farad::ZERO, MimCapacitor::capacitance);
        inv + mim
    }

    /// Capacitive load this cell puts on the boosted rail when *disabled*
    /// (its nFETs hold the inputs high, so its coupling caps hang off the
    /// rail as dead weight).
    #[must_use]
    pub fn load_when_disabled(&self) -> Farad {
        self.boost_capacitance()
    }

    /// Energy drawn from `Vdd` to fire one boost event in this cell: the
    /// drive energy of all boost-inverter inputs (with buffer-tree overhead,
    /// fully dissipated) plus the small non-recovered fraction of the MIM
    /// coupling energy (see [`MIM_RECOVERY_LOSS`]).
    #[must_use]
    pub fn boost_event_energy(&self, vdd: Volt) -> Joule {
        let n = self.inverters as f64;
        let tree_overhead = 1.0 + n / TREE_SCALE_N0;
        let inv_energy = (INVERTER_INPUT_CAP * (n * tree_overhead)).switching_energy(vdd);
        let mim_energy = self.mim.map_or(Joule::ZERO, |m| {
            (m.capacitance() * MIM_RECOVERY_LOSS).switching_energy(vdd)
        });
        inv_energy + mim_energy
    }

    /// Layout area of the cell (inverters + buffers + MIM driver; the MIM
    /// plates themselves are free).
    #[must_use]
    pub fn area(&self) -> SquareMicron {
        let inv = INVERTER_AREA * self.inverters as f64;
        let mim = self.mim.map_or(SquareMicron::ZERO, |m| m.driver_area());
        inv + mim
    }
}

/// Capacitive load seen by the boosted rail: the SRAM power grid plus fixed
/// parasitics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoostLoad {
    c_mem: Farad,
    c_parasitic: Farad,
}

impl BoostLoad {
    /// Creates a load from an SRAM grid capacitance and parasitics.
    ///
    /// # Panics
    ///
    /// Panics if either capacitance is negative or non-finite (an infinite
    /// load poisons Eq. 1 into a silent zero boost).
    #[must_use]
    pub fn new(c_mem: Farad, c_parasitic: Farad) -> Self {
        assert!(
            c_mem.is_finite() && c_mem.farads() >= 0.0,
            "SRAM grid capacitance must be non-negative and finite"
        );
        assert!(
            c_parasitic.is_finite() && c_parasitic.farads() >= 0.0,
            "parasitic capacitance must be non-negative and finite"
        );
        Self { c_mem, c_parasitic }
    }

    /// Power-grid capacitance of one 4 KB (32 Kbit) SRAM macro, the unit the
    /// taped-out chip boosts (40 pF, DESIGN.md Sec. 4).
    #[must_use]
    pub fn macro_4kb() -> Self {
        Self::new(Farad::from_picofarads(40.0), Farad::from_picofarads(0.5))
    }

    /// Load of a 64 Kbit bank (two macros ganged on one boosted rail).
    #[must_use]
    pub fn bank_64kbit() -> Self {
        Self::new(Farad::from_picofarads(80.0), Farad::from_picofarads(1.0))
    }

    /// Additional load of the macro's peripheral logic (decoders, sense
    /// amps); connected only under *macro-level* boosting (paper Sec. 3.3.2).
    #[must_use]
    pub fn peripheral_extra() -> Farad {
        Farad::from_picofarads(14.0)
    }

    /// SRAM grid capacitance.
    #[must_use]
    pub fn c_mem(&self) -> Farad {
        self.c_mem
    }

    /// Parasitic capacitance on the boosted node.
    #[must_use]
    pub fn c_parasitic(&self) -> Farad {
        self.c_parasitic
    }

    /// Total rail load.
    #[must_use]
    pub fn total(&self) -> Farad {
        self.c_mem + self.c_parasitic
    }

    /// Returns this load with the peripheral capacitance added (macro-level
    /// boosting).
    #[must_use]
    pub fn with_peripherals(self) -> Self {
        Self::new(self.c_mem + Self::peripheral_extra(), self.c_parasitic)
    }
}

/// The scope of the boosted rail: only the bitcell array, or the whole macro
/// including peripheral logic (paper Sec. 3.3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoostScope {
    /// Only the array power grid is boosted; peripherals stay at `Vdd`.
    Array,
    /// Array and peripheral logic share the boosted rail (larger load,
    /// smaller boost, lower latency).
    Macro,
}

/// A programmable booster bank: `P` booster cells with shorted outputs
/// driving one SRAM bank's power grid.
///
/// # Examples
///
/// ```
/// use dante_circuit::booster::BoosterBank;
/// use dante_circuit::units::Volt;
///
/// let bank = BoosterBank::standard();
/// let vdd = Volt::new(0.4);
/// // Level 4 boosts 0.4 V to ~0.6 V (the Fig. 12 scenario).
/// let vddv = bank.boosted_voltage(vdd, 4);
/// assert!((vddv.volts() - 0.6).abs() < 0.01);
/// // Level 0 means no boost.
/// assert_eq!(bank.boosted_voltage(vdd, 0), vdd);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BoosterBank {
    cells: Vec<BoosterCell>,
    load: BoostLoad,
}

impl BoosterBank {
    /// Creates a bank from explicit cells and a rail load.
    ///
    /// # Panics
    ///
    /// Panics if `cells` is empty.
    #[must_use]
    pub fn new(cells: Vec<BoosterCell>, load: BoostLoad) -> Self {
        assert!(!cells.is_empty(), "a booster bank needs at least one cell");
        Self { cells, load }
    }

    /// The *standard configuration* of the taped-out chip: 4 booster cells,
    /// each with 64 boost inverters and a 10 pF MIM, driving one 4 KB macro
    /// (paper Sec. 3.2.1 and Table 1).
    #[must_use]
    pub fn standard() -> Self {
        Self::with_levels(4)
    }

    /// A standard-style bank with `p` programmable levels. The total boost
    /// hardware (256 inverters, 40 pF MIM) is kept constant and split across
    /// `p` cells, so finer granularity costs nothing extra — the ablation the
    /// paper suggests in Sec. 6.3 ("> 4 boost levels").
    ///
    /// # Panics
    ///
    /// Panics if `p == 0` or if `p` does not divide the 256-inverter budget.
    #[must_use]
    pub fn with_levels(p: usize) -> Self {
        assert!(p > 0, "need at least one boost level");
        assert!(
            256 % p == 0,
            "level count must divide the 256-inverter budget"
        );
        let cell = BoosterCell::new(
            256 / p,
            Some(MimCapacitor::from_picofarads(40.0 / p as f64)),
        );
        Self::new(vec![cell; p], BoostLoad::macro_4kb())
    }

    /// A *binary-weighted* bank: `bits` cells whose boost capacitances form
    /// a 1:2:4:... ladder over the same total hardware budget (256
    /// inverters, 40 pF MIM), giving `2^bits - 1` distinct boost amounts
    /// from `bits` configuration bits — the natural endpoint of the paper's
    /// "much finer granularity with more boost levels" remark, at zero
    /// extra area. Use [`Self::boost_amount_masked`] to select levels.
    ///
    /// # Panics
    ///
    /// Panics unless `bits` is in `1..=6` (beyond that the LSB cell would
    /// round below one inverter).
    #[must_use]
    pub fn binary_weighted(bits: usize) -> Self {
        assert!(
            (1..=6).contains(&bits),
            "binary-weighted banks support 1..=6 bits"
        );
        let denom = (1usize << bits) - 1;
        let cells = (0..bits)
            .map(|i| {
                let weight = 1usize << i;
                let inverters = (256 * weight).div_ceil(denom);
                let mim_pf = 40.0 * weight as f64 / denom as f64;
                BoosterCell::new(inverters, Some(MimCapacitor::from_picofarads(mim_pf)))
            })
            .collect();
        Self::new(cells, BoostLoad::macro_4kb())
    }

    /// Number of programmable boost levels `P`.
    #[must_use]
    pub fn levels(&self) -> usize {
        self.cells.len()
    }

    /// The booster cells.
    #[must_use]
    pub fn cells(&self) -> &[BoosterCell] {
        &self.cells
    }

    /// The rail load (before any peripheral extra).
    #[must_use]
    pub fn load(&self) -> BoostLoad {
        self.load
    }

    /// Enabled boost capacitance at `level` (the first `level` cells).
    ///
    /// # Panics
    ///
    /// Panics if `level > self.levels()`.
    #[must_use]
    pub fn enabled_capacitance(&self, level: usize) -> Farad {
        assert!(
            level <= self.levels(),
            "boost level {level} exceeds {}",
            self.levels()
        );
        self.cells[..level]
            .iter()
            .map(BoosterCell::boost_capacitance)
            .sum()
    }

    fn disabled_load(&self, level: usize) -> Farad {
        self.cells[level..]
            .iter()
            .map(BoosterCell::load_when_disabled)
            .sum()
    }

    /// The boost amount `V_b = Vddv - Vdd` at the given level (paper Eq. 1,
    /// with disabled cells counted as load), boosting the array only.
    ///
    /// # Panics
    ///
    /// Panics if `level > self.levels()`.
    #[must_use]
    pub fn boost_amount(&self, vdd: Volt, level: usize) -> Volt {
        self.boost_amount_scoped(vdd, level, BoostScope::Array)
    }

    /// [`Self::boost_amount`] under an explicit scope: boosting the whole
    /// macro adds the peripherals to the rail's load (paper Sec. 3.3.2).
    ///
    /// # Panics
    ///
    /// Panics if `level > self.levels()`.
    #[must_use]
    pub fn boost_amount_scoped(&self, vdd: Volt, level: usize, scope: BoostScope) -> Volt {
        let cb = self.enabled_capacitance(level);
        let load = match scope {
            BoostScope::Array => self.load,
            BoostScope::Macro => self.load.with_peripherals(),
        };
        let cload = load.total() + self.disabled_load(level);
        let denom = cb + cload;
        if denom.farads() == 0.0 {
            return Volt::ZERO;
        }
        vdd * (cb / denom)
    }

    /// Boost amount for an arbitrary configuration mask (any subset of
    /// cells enabled) — required for heterogeneous banks such as
    /// [`Self::binary_weighted`], where *which* cells fire matters, not
    /// just how many.
    ///
    /// # Panics
    ///
    /// Panics if the mask's width differs from the bank's cell count.
    #[must_use]
    pub fn boost_amount_masked(&self, vdd: Volt, config: &crate::bic::BoostConfig) -> Volt {
        assert_eq!(
            usize::from(config.width()),
            self.cells.len(),
            "config width mismatches the bank's cell count"
        );
        let mut cb = Farad::ZERO;
        let mut disabled = Farad::ZERO;
        for (i, cell) in self.cells.iter().enumerate() {
            if config.is_enabled(i) {
                cb += cell.boost_capacitance();
            } else {
                disabled += cell.load_when_disabled();
            }
        }
        let denom = cb + self.load.total() + disabled;
        if denom.farads() == 0.0 {
            return Volt::ZERO;
        }
        vdd * (cb / denom)
    }

    /// Boosted rail voltage for an arbitrary configuration mask.
    #[must_use]
    pub fn boosted_voltage_masked(&self, vdd: Volt, config: &crate::bic::BoostConfig) -> Volt {
        vdd + self.boost_amount_masked(vdd, config)
    }

    /// Boost event energy for an arbitrary configuration mask.
    ///
    /// # Panics
    ///
    /// Panics if the mask's width differs from the bank's cell count.
    #[must_use]
    pub fn boost_event_energy_masked(&self, vdd: Volt, config: &crate::bic::BoostConfig) -> Joule {
        assert_eq!(
            usize::from(config.width()),
            self.cells.len(),
            "config width mismatches the bank's cell count"
        );
        self.cells
            .iter()
            .enumerate()
            .filter(|(i, _)| config.is_enabled(*i))
            .map(|(_, c)| c.boost_event_energy(vdd))
            .sum()
    }

    /// The boosted rail voltage `Vddv` at the given level, boosting the
    /// array only.
    #[must_use]
    pub fn boosted_voltage(&self, vdd: Volt, level: usize) -> Volt {
        vdd + self.boost_amount(vdd, level)
    }

    /// [`Self::boosted_voltage`] under an explicit scope (see
    /// [`Self::boost_amount_scoped`]).
    #[must_use]
    pub fn boosted_voltage_scoped(&self, vdd: Volt, level: usize, scope: BoostScope) -> Volt {
        vdd + self.boost_amount_scoped(vdd, level, scope)
    }

    /// All `P + 1` rail voltages (`level = 0..=P`) at a supply voltage; index
    /// `i` is `Vddv_i` (index 0 is the un-boosted rail).
    #[must_use]
    pub fn voltage_ladder(&self, vdd: Volt) -> Vec<Volt> {
        (0..=self.levels())
            .map(|l| self.boosted_voltage(vdd, l))
            .collect()
    }

    /// Energy drawn from the supply per boosted access at the given level
    /// (sum of the enabled cells' drive energies; disabled cells burn
    /// nothing dynamic).
    #[must_use]
    pub fn boost_event_energy(&self, vdd: Volt, level: usize) -> Joule {
        assert!(
            level <= self.levels(),
            "boost level {level} exceeds {}",
            self.levels()
        );
        self.cells[..level]
            .iter()
            .map(|c| c.boost_event_energy(vdd))
            .sum()
    }

    /// Total layout area of the booster column.
    #[must_use]
    pub fn area(&self) -> SquareMicron {
        self.cells.iter().map(BoosterCell::area).sum()
    }

    /// Finds the lowest boost level whose rail voltage reaches `target`, or
    /// `None` if even full boost falls short.
    #[must_use]
    pub fn min_level_reaching(&self, vdd: Volt, target: Volt) -> Option<usize> {
        (0..=self.levels()).find(|&l| self.boosted_voltage(vdd, l) >= target)
    }
}

/// The four named comparison circuits of paper Fig. 6 / Sec. 3.2.3.
pub mod reference {
    use super::{BoostLoad, BoosterBank, BoosterCell, MimCapacitor};

    /// `MIMBoost-A`: the standard configuration — 256 boost inverters plus a
    /// 40 pF MIM, with buffers.
    #[must_use]
    pub fn mim_boost_a() -> BoosterBank {
        BoosterBank::new(
            vec![BoosterCell::new(
                256,
                Some(MimCapacitor::from_picofarads(40.0)),
            )],
            BoostLoad::macro_4kb(),
        )
    }

    /// `noMIMBoost-A`: 1024 boost inverters with buffers — approximately the
    /// same layout area as `MIMBoost-A`.
    #[must_use]
    pub fn no_mim_boost_a() -> BoosterBank {
        BoosterBank::new(vec![BoosterCell::new(1024, None)], BoostLoad::macro_4kb())
    }

    /// `MIMBoost-B`: 256 boost inverters plus a 4.2 pF MIM.
    #[must_use]
    pub fn mim_boost_b() -> BoosterBank {
        BoosterBank::new(
            vec![BoosterCell::new(
                256,
                Some(MimCapacitor::from_picofarads(4.2)),
            )],
            BoostLoad::macro_4kb(),
        )
    }

    /// `noMIMBoost-B`: 8192 boost inverters — roughly the same boosted
    /// voltage as `MIMBoost-B` at 8x the area and ~10x the energy.
    #[must_use]
    pub fn no_mim_boost_b() -> BoosterBank {
        BoosterBank::new(vec![BoosterCell::new(8192, None)], BoostLoad::macro_4kb())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VDD: Volt = Volt::const_new(0.4);

    #[test]
    fn standard_bank_has_four_levels_and_50_percent_peak_boost() {
        let bank = BoosterBank::standard();
        assert_eq!(bank.levels(), 4);
        let vb = bank.boost_amount(VDD, 4);
        let ratio = vb.volts() / VDD.volts();
        assert!(
            (ratio - 0.50).abs() < 0.02,
            "peak boost should be ~50% of Vdd, got {ratio:.3}"
        );
    }

    #[test]
    fn standard_levels_step_by_about_50mv_at_0v4() {
        // Paper Fig. 4: "4 levels of boosted voltage with increments of the
        // order of 50 mV".
        let bank = BoosterBank::standard();
        let ladder = bank.voltage_ladder(VDD);
        for w in ladder.windows(2) {
            let step = (w[1] - w[0]).millivolts();
            assert!(
                (35.0..=65.0).contains(&step),
                "step {step:.1} mV out of range"
            );
        }
    }

    #[test]
    fn level4_boosts_0v4_to_0v6() {
        // The Fig. 12 design-space scenario: Vdd 0.4 V boosted to Vddv 0.6 V.
        let bank = BoosterBank::standard();
        let vddv = bank.boosted_voltage(VDD, 4);
        assert!((vddv.volts() - 0.6).abs() < 0.01, "got {vddv}");
    }

    #[test]
    fn boost_amount_monotonic_in_level_and_vdd() {
        let bank = BoosterBank::standard();
        let mut prev = Volt::ZERO;
        for level in 0..=4 {
            let vb = bank.boost_amount(VDD, level);
            assert!(vb >= prev, "level {level} not monotonic");
            prev = vb;
        }
        // Fig. 8: peak boosted voltage increases monotonically with Vdd.
        let mut prev_v = Volt::ZERO;
        for mv in (340..=800).step_by(20) {
            let v = Volt::from_millivolts(f64::from(mv));
            let vddv = bank.boosted_voltage(v, 4);
            assert!(vddv > prev_v);
            prev_v = vddv;
        }
    }

    #[test]
    fn zero_level_is_unboosted() {
        let bank = BoosterBank::standard();
        assert_eq!(bank.boosted_voltage(VDD, 0), VDD);
        assert_eq!(bank.boost_event_energy(VDD, 0), Joule::ZERO);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn out_of_range_level_panics() {
        let _ = BoosterBank::standard().boost_amount(VDD, 5);
    }

    #[test]
    fn macro_scope_reduces_boost() {
        // Paper Sec. 3.3.2: boosting the peripherals reduces V_b because of
        // the extra load.
        let bank = BoosterBank::standard();
        for level in 1..=4 {
            assert!(
                bank.boost_amount_scoped(VDD, level, BoostScope::Macro)
                    < bank.boost_amount(VDD, level)
            );
        }
    }

    #[test]
    fn mim_a_outboosts_no_mim_a_by_an_order_of_magnitude() {
        // Paper Fig. 6: "MIMBoost-A generates 14x the boosted voltage for the
        // same area compared to noMIMBoost-A."
        let mim = reference::mim_boost_a();
        let no_mim = reference::no_mim_boost_a();
        let ratio = mim.boost_amount(VDD, 1) / no_mim.boost_amount(VDD, 1);
        assert!(
            (8.0..=25.0).contains(&ratio),
            "boost ratio {ratio:.1} outside the expected band around 14x"
        );
        // ...and at approximately equal area.
        let area_ratio = mim.area() / no_mim.area();
        assert!(
            (0.5..=2.0).contains(&area_ratio),
            "A-pair areas should be comparable, ratio {area_ratio:.2}"
        );
    }

    #[test]
    fn no_mim_b_pays_order_of_magnitude_more_energy_for_same_boost() {
        // Paper Fig. 6: noMIMBoost-B expends ~10x the energy of MIMBoost-B
        // for roughly the same boosted voltage, at 8x the area.
        let mim = reference::mim_boost_b();
        let no_mim = reference::no_mim_boost_b();
        let vb_ratio = no_mim.boost_amount(VDD, 1) / mim.boost_amount(VDD, 1);
        assert!(
            (0.6..=1.5).contains(&vb_ratio),
            "B-pair boosts should be comparable, ratio {vb_ratio:.2}"
        );
        let e_ratio = no_mim.boost_event_energy(VDD, 1) / mim.boost_event_energy(VDD, 1);
        assert!(
            e_ratio > 5.0,
            "energy penalty only {e_ratio:.1}x, expected ~10x"
        );
        let a_ratio = no_mim.area() / mim.area();
        assert!(
            a_ratio >= 8.0,
            "area penalty only {a_ratio:.1}x, expected >=8x"
        );
    }

    #[test]
    fn standard_booster_area_matches_table1() {
        // Table 1: booster area 0.0039 mm^2 = 3900 um^2 per SRAM macro.
        let area = BoosterBank::standard().area();
        assert!(
            (area.square_microns() - 3900.0).abs() / 3900.0 < 0.25,
            "booster area {area} deviates >25% from Table 1"
        );
    }

    #[test]
    fn finer_levels_preserve_peak_boost() {
        let four = BoosterBank::with_levels(4);
        let eight = BoosterBank::with_levels(8);
        let peak4 = four.boost_amount(VDD, 4);
        let peak8 = eight.boost_amount(VDD, 8);
        assert!((peak4.volts() - peak8.volts()).abs() < 0.01);
        assert_eq!(eight.levels(), 8);
    }

    #[test]
    fn min_level_reaching_finds_paper_anchor_points() {
        // Paper Sec. 6.2: at Vdd = 0.38 V level 3 reaches the 0.48 V target;
        // at Vdd = 0.46 V level 1 already suffices.
        let bank = BoosterBank::standard();
        let target = Volt::new(0.48);
        assert_eq!(bank.min_level_reaching(Volt::new(0.38), target), Some(3));
        assert_eq!(bank.min_level_reaching(Volt::new(0.46), target), Some(1));
        // At very low Vdd even full boost cannot reach an absurd target.
        assert_eq!(
            bank.min_level_reaching(Volt::new(0.34), Volt::new(0.9)),
            None
        );
    }

    #[test]
    fn boost_event_energy_monotonic_in_level() {
        let bank = BoosterBank::standard();
        let mut prev = Joule::ZERO;
        for level in 1..=4 {
            let e = bank.boost_event_energy(VDD, level);
            assert!(e > prev);
            prev = e;
        }
    }

    #[test]
    #[should_panic(expected = "at least one inverter")]
    fn empty_cell_rejected() {
        let _ = BoosterCell::new(0, None);
    }

    #[test]
    fn binary_weighted_bank_spans_15_distinct_levels_from_4_bits() {
        use crate::bic::BoostConfig;
        let bank = BoosterBank::binary_weighted(4);
        assert_eq!(bank.levels(), 4);
        let mut boosts: Vec<f64> = (0..16u32)
            .map(|mask| {
                bank.boost_amount_masked(VDD, &BoostConfig::from_mask(mask, 4))
                    .millivolts()
            })
            .collect();
        // All-on matches the standard peak (~50% of Vdd) within tolerance.
        assert!((boosts[15] / VDD.millivolts() - 0.5).abs() < 0.03);
        // Monotone in the mask *value* (binary weighting) and all distinct.
        for w in boosts.windows(2) {
            assert!(w[1] > w[0], "binary masks must order boosts: {boosts:?}");
        }
        boosts.dedup_by(|a, b| (*a - *b).abs() < 0.01);
        assert_eq!(boosts.len(), 16, "all 16 mask values must be distinct");
    }

    #[test]
    fn binary_weighted_matches_same_budget_peak_and_area() {
        let linear = BoosterBank::standard();
        let binary = BoosterBank::binary_weighted(4);
        let peak_l = linear.boost_amount(VDD, 4);
        let peak_b = binary.boost_amount(VDD, 4); // all 4 cells on
        assert!((peak_l.volts() - peak_b.volts()).abs() < 0.01);
        let area_ratio = binary.area() / linear.area();
        assert!((0.7..=1.3).contains(&area_ratio), "area ratio {area_ratio}");
    }

    #[test]
    fn masked_apis_agree_with_level_apis_on_uniform_banks() {
        use crate::bic::BoostConfig;
        let bank = BoosterBank::standard();
        for level in 0..=4usize {
            let cfg = BoostConfig::from_level(level, 4);
            let by_level = bank.boost_amount(VDD, level);
            let by_mask = bank.boost_amount_masked(VDD, &cfg);
            assert!((by_level.volts() - by_mask.volts()).abs() < 1e-12);
            let e_level = bank.boost_event_energy(VDD, level);
            let e_mask = bank.boost_event_energy_masked(VDD, &cfg);
            assert!((e_level.joules() - e_mask.joules()).abs() < 1e-24);
        }
    }

    #[test]
    #[should_panic(expected = "width mismatches")]
    fn masked_api_validates_width() {
        use crate::bic::BoostConfig;
        let _ = BoosterBank::standard().boost_amount_masked(VDD, &BoostConfig::from_level(1, 8));
    }

    #[test]
    fn unscoped_queries_boost_the_array() {
        // The scoped query sees the peripheral load only under the macro
        // scope; the unscoped query is the array scope.
        let bank = BoosterBank::standard();
        let macro_v = bank.boosted_voltage_scoped(VDD, 4, BoostScope::Macro);
        let array_v = bank.boosted_voltage_scoped(VDD, 4, BoostScope::Array);
        assert!(macro_v < array_v);
        assert_eq!(array_v, bank.boosted_voltage(VDD, 4));
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn infinite_mim_capacitance_rejected() {
        let _ = MimCapacitor::new(Farad::new(f64::INFINITY));
    }

    #[test]
    #[should_panic(expected = "non-negative and finite")]
    fn infinite_boost_load_rejected() {
        let _ = BoostLoad::new(Farad::new(f64::INFINITY), Farad::ZERO);
    }

    /// Every level, scoped and masked booster query — and the boosted
    /// access time built on the scoped rail — folded into one FNV-1a digest
    /// of their bits, over the standard, finer-level, binary-weighted and
    /// Fig. 6 reference banks at 340–800 mV.
    #[test]
    fn booster_queries_are_pinned() {
        use crate::bic::BoostConfig;
        use crate::latency::SramTiming;
        let mut banks = vec![BoosterBank::standard()];
        banks.extend([1, 2, 4, 8, 16].map(BoosterBank::with_levels));
        banks.extend((1..=6).map(BoosterBank::binary_weighted));
        banks.extend([
            reference::mim_boost_a(),
            reference::no_mim_boost_a(),
            reference::mim_boost_b(),
            reference::no_mim_boost_b(),
        ]);
        let binary = BoosterBank::binary_weighted(4);
        let timing = SramTiming::macro_32kbit();
        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        let mut values = 0usize;
        let mut fold = |bits: u64| {
            for b in bits.to_le_bytes() {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
            values += 1;
        };
        for mv in (340..=800).step_by(20) {
            let vdd = Volt::from_millivolts(f64::from(mv));
            for bank in &banks {
                for level in 0..=bank.levels() {
                    fold(bank.boosted_voltage(vdd, level).volts().to_bits());
                    fold(bank.boost_amount(vdd, level).volts().to_bits());
                    fold(bank.boost_event_energy(vdd, level).joules().to_bits());
                    for scope in [BoostScope::Array, BoostScope::Macro] {
                        let vddv = bank.boosted_voltage_scoped(vdd, level, scope);
                        fold(vddv.volts().to_bits());
                        let t = timing.boosted_access_time(vdd, bank, level, scope);
                        fold(t.seconds().to_bits());
                    }
                }
            }
            for mask in 0..16 {
                let config = BoostConfig::from_mask(mask, 4);
                let vb = binary.boost_amount_masked(vdd, &config);
                let vddv = binary.boosted_voltage_masked(vdd, &config);
                let energy = binary.boost_event_energy_masked(vdd, &config);
                fold(vb.volts().to_bits());
                fold(vddv.volts().to_bits());
                fold(energy.joules().to_bits());
            }
        }
        assert_eq!(values, 13_920);
        assert_eq!(hash, 0xF5F2_E1BB_0AF5_FC3A);
    }
}
