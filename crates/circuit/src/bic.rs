//! Boost Input Control (BIC) block — paper Sec. 3.2.1.
//!
//! For `N` banks and `P` booster cells per bank, `BIC(n,p)` generates the
//! `Boost_in(n,p)` signal controlling the `p`-th booster cell of bank `n`
//! from three inputs:
//!
//! * the application-programmable configuration bits `Boost_config`
//!   (written by the accelerator's `set_boost_config` instruction),
//! * the active-low bank read/write enable `CEN`, and
//! * the `Boost_clk` phase.
//!
//! A cell whose config bit is `1` holds its pFET on (supplying the rail at
//! `Vdd`) while idle and fires a boost pulse during the high phase of
//! `Boost_clk` of an active access. A cell whose config bit is `0` keeps its
//! nFET on and never boosts.

use core::fmt;

/// Active-low chip-enable of an SRAM bank (`CEN` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChipEnable {
    /// `CEN` low: a read or write access is in flight this cycle.
    Active,
    /// `CEN` high: the bank is idle.
    Idle,
}

/// Phase of the dedicated `Boost_clk`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClockPhase {
    /// High phase: enabled cells couple charge onto the rail.
    High,
    /// Low phase: the rail returns to `Vdd`.
    Low,
}

/// What one booster cell is doing in a given (config, CEN, clk) state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellDrive {
    /// Config bit set, access active, `Boost_clk` high: the cell couples
    /// charge onto the rail (`Boost_in` swings low→high).
    Boost,
    /// Config bit set but no boost pulse this instant: the pFET supplies the
    /// rail at `Vdd`.
    Hold,
    /// Config bit clear: the nFET is on and the cell's output sits slightly
    /// below `Vdd`; it only loads the rail.
    Off,
}

/// The per-bank boost configuration register: one bit per booster cell.
///
/// Level-style configurations (`'1111'`, `'0011'`, ... in the paper's
/// notation) enable the lowest `k` cells; arbitrary masks are also legal.
///
/// # Examples
///
/// ```
/// use dante_circuit::bic::BoostConfig;
///
/// let cfg = BoostConfig::from_level(3, 4);
/// assert_eq!(format!("{cfg}"), "0111");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BoostConfig {
    mask: u32,
    width: u8,
}

impl BoostConfig {
    /// Maximum number of booster cells one BIC can control.
    pub const MAX_WIDTH: u8 = 32;

    /// Creates a configuration from a raw bitmask over `width` cells.
    ///
    /// # Panics
    ///
    /// Panics if `width` exceeds [`Self::MAX_WIDTH`] or if `mask` has bits
    /// set beyond `width`.
    #[must_use]
    pub fn from_mask(mask: u32, width: u8) -> Self {
        assert!(width <= Self::MAX_WIDTH, "config width {width} too large");
        assert!(
            width == 32 || mask < (1 << width),
            "mask {mask:#b} has bits beyond width {width}"
        );
        Self { mask, width }
    }

    /// Creates the level-`k` configuration (lowest `k` bits set) over
    /// `width` cells — the encoding used by the chip's boost levels.
    ///
    /// # Panics
    ///
    /// Panics if `level > width`.
    #[must_use]
    pub fn from_level(level: usize, width: u8) -> Self {
        assert!(
            level <= width as usize,
            "level {level} exceeds width {width}"
        );
        let mask = if level == 0 { 0 } else { (1u32 << level) - 1 };
        Self::from_mask(mask, width)
    }

    /// The all-off configuration (`'0000'`).
    #[must_use]
    pub fn off(width: u8) -> Self {
        Self::from_level(0, width)
    }

    /// Number of cells this register controls.
    #[must_use]
    pub fn width(&self) -> u8 {
        self.width
    }

    /// Raw bitmask.
    #[must_use]
    pub fn mask(&self) -> u32 {
        self.mask
    }

    /// Whether cell `p` is enabled.
    ///
    /// # Panics
    ///
    /// Panics if `p >= width`.
    #[must_use]
    pub fn is_enabled(&self, p: usize) -> bool {
        assert!(p < self.width as usize, "cell index {p} out of range");
        self.mask & (1 << p) != 0
    }
}

impl fmt::Display for BoostConfig {
    /// Renders in the paper's `'1111'` bit-string notation, MSB first.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for p in (0..self.width).rev() {
            let bit = if self.mask & (1 << p) != 0 { '1' } else { '0' };
            write!(f, "{bit}")?;
        }
        Ok(())
    }
}

/// One bank's Boost Input Control block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoostInputControl {
    config: BoostConfig,
}

impl BoostInputControl {
    /// Creates a BIC for a bank with `width` booster cells, initially all
    /// disabled (reset state: no boosting until the application programs it).
    #[must_use]
    pub fn new(width: u8) -> Self {
        Self {
            config: BoostConfig::off(width),
        }
    }

    /// Current configuration register contents.
    #[must_use]
    pub fn config(&self) -> BoostConfig {
        self.config
    }

    /// Writes the configuration register — the hardware side of the
    /// `set_boost_config` instruction. The new value applies to all
    /// subsequent accesses until re-written (paper Sec. 3.2.1).
    ///
    /// # Panics
    ///
    /// Panics if the new configuration's width differs from this BIC's.
    pub fn set_config(&mut self, config: BoostConfig) {
        assert_eq!(
            config.width(),
            self.config.width(),
            "config width mismatch on set_boost_config"
        );
        self.config = config;
    }

    /// The drive state of cell `p` under the given enable and clock phase.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn cell_drive(&self, p: usize, cen: ChipEnable, clk: ClockPhase) -> CellDrive {
        if !self.config.is_enabled(p) {
            CellDrive::Off
        } else if cen == ChipEnable::Active && clk == ClockPhase::High {
            CellDrive::Boost
        } else {
            CellDrive::Hold
        }
    }

    /// Drive states of every cell.
    #[must_use]
    pub fn drives(&self, cen: ChipEnable, clk: ClockPhase) -> Vec<CellDrive> {
        (0..self.config.width() as usize)
            .map(|p| self.cell_drive(p, cen, clk))
            .collect()
    }

    /// Number of cells actively boosting under the given state (the level
    /// fed to [`crate::booster::BoosterBank::boost_amount`]).
    #[must_use]
    pub fn boosting_count(&self, cen: ChipEnable, clk: ClockPhase) -> usize {
        self.drives(cen, clk)
            .iter()
            .filter(|d| **d == CellDrive::Boost)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_encoding_matches_paper_notation() {
        assert_eq!(format!("{}", BoostConfig::from_level(4, 4)), "1111");
        assert_eq!(format!("{}", BoostConfig::from_level(0, 4)), "0000");
        assert_eq!(format!("{}", BoostConfig::from_level(2, 4)), "0011");
    }

    #[test]
    fn truth_table_matches_section_3_2_1() {
        let mut bic = BoostInputControl::new(4);
        bic.set_config(BoostConfig::from_mask(0b0101, 4));

        // Enabled cell, active access, clk high => boost.
        assert_eq!(
            bic.cell_drive(0, ChipEnable::Active, ClockPhase::High),
            CellDrive::Boost
        );
        // Enabled cell, active access, clk low => hold at Vdd.
        assert_eq!(
            bic.cell_drive(0, ChipEnable::Active, ClockPhase::Low),
            CellDrive::Hold
        );
        // Enabled cell, idle bank => hold regardless of clock ("when there is
        // no memory activity the output is not boosted and fixed at Vdd").
        assert_eq!(
            bic.cell_drive(2, ChipEnable::Idle, ClockPhase::High),
            CellDrive::Hold
        );
        // Disabled cell => off in every state.
        for cen in [ChipEnable::Active, ChipEnable::Idle] {
            for clk in [ClockPhase::High, ClockPhase::Low] {
                assert_eq!(bic.cell_drive(1, cen, clk), CellDrive::Off);
            }
        }
    }

    #[test]
    fn boosting_count_counts_only_firing_cells() {
        let mut bic = BoostInputControl::new(4);
        bic.set_config(BoostConfig::from_mask(0b1101, 4));
        assert_eq!(bic.boosting_count(ChipEnable::Active, ClockPhase::High), 3);
        assert_eq!(bic.boosting_count(ChipEnable::Active, ClockPhase::Low), 0);
        assert_eq!(bic.boosting_count(ChipEnable::Idle, ClockPhase::High), 0);
    }

    #[test]
    fn reset_state_is_all_off() {
        let bic = BoostInputControl::new(4);
        assert_eq!(bic.config(), BoostConfig::from_mask(0, 4));
        assert_eq!(bic.boosting_count(ChipEnable::Active, ClockPhase::High), 0);
    }

    #[test]
    fn set_config_persists_until_rewritten() {
        let mut bic = BoostInputControl::new(4);
        bic.set_config(BoostConfig::from_level(3, 4));
        assert_eq!(bic.boosting_count(ChipEnable::Active, ClockPhase::High), 3);
        assert_eq!(bic.boosting_count(ChipEnable::Active, ClockPhase::High), 3);
        bic.set_config(BoostConfig::from_level(1, 4));
        assert_eq!(bic.boosting_count(ChipEnable::Active, ClockPhase::High), 1);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_rejected() {
        let mut bic = BoostInputControl::new(4);
        bic.set_config(BoostConfig::from_level(1, 8));
    }

    #[test]
    #[should_panic(expected = "bits beyond width")]
    fn oversized_mask_rejected() {
        let _ = BoostConfig::from_mask(0b10000, 4);
    }

    #[test]
    fn is_enabled_reads_the_mask() {
        let cfg = BoostConfig::from_mask(0b1011, 4);
        assert!(cfg.is_enabled(0) && cfg.is_enabled(1) && !cfg.is_enabled(2) && cfg.is_enabled(3));
    }
}
