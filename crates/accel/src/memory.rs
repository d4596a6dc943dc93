//! Boosted banked memories: per-bank booster columns and BIC blocks in
//! front of one sparse `dante-sram` fault die per memory (paper Sec. 4).
//!
//! Every read or write resolves the target bank, asks its BIC how many
//! booster cells fire under the current configuration, and performs the
//! access at the resulting boosted rail voltage — so data stored in a bank
//! programmed to a low boost level really does corrupt more at low `Vdd`.
//! Per-level access counters feed the paper's Eq. 3 energy accounting.
//!
//! A memory's die is one [`SparseOverlay`] over all of its bits, drawn by
//! [`DieFaultModel::overlay_from_seed`] at the supply `vdd`. Addresses are
//! banked contiguously, so word `addr` holds cells `64 * addr ..
//! 64 * addr + 64`, and each 512-word macro is one contiguous 32 Kbit span:
//! exactly the tile a burst model lays its weak columns on, so one draw per
//! memory has the same per-macro physics as one draw per macro. A bank's
//! rail is `boosted_voltage(vdd, level)`, never below `vdd`, so a die
//! sampled at floor `vdd` answers every read.

use dante_circuit::bic::{BoostConfig, BoostInputControl, ChipEnable, ClockPhase};
use dante_circuit::booster::BoosterBank;
use dante_circuit::units::Volt;
use dante_sram::geometry::MemoryGeometry;
use dante_sram::model::DieFaultModel;
use dante_sram::sparse::SparseOverlay;

/// Per-memory access statistics, bucketed by boost level.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MemoryStats {
    /// Reads per boost level (index = level).
    pub reads_per_level: Vec<u64>,
    /// Writes per boost level (index = level).
    pub writes_per_level: Vec<u64>,
}

impl MemoryStats {
    fn new(levels: usize) -> Self {
        Self {
            reads_per_level: vec![0; levels + 1],
            writes_per_level: vec![0; levels + 1],
        }
    }

    /// Total reads.
    #[must_use]
    pub fn reads(&self) -> u64 {
        self.reads_per_level.iter().sum()
    }

    /// Total writes.
    #[must_use]
    pub fn writes(&self) -> u64 {
        self.writes_per_level.iter().sum()
    }

    /// Total accesses.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.reads() + self.writes()
    }

    /// Accesses per level (reads + writes), the `SRAMAcc_i` groups of Eq. 3.
    #[must_use]
    pub fn accesses_per_level(&self) -> Vec<u64> {
        self.reads_per_level
            .iter()
            .zip(&self.writes_per_level)
            .map(|(r, w)| r + w)
            .collect()
    }
}

/// A banked memory with per-bank programmable boosting.
#[derive(Debug, Clone, PartialEq)]
pub struct BoostedMemory {
    geometry: MemoryGeometry,
    data: Vec<u64>,
    die: Option<SparseOverlay>,
    bics: Vec<BoostInputControl>,
    booster: BoosterBank,
    vdd: Volt,
    stats: MemoryStats,
}

impl BoostedMemory {
    /// Creates a memory whose fault die is drawn from `die` with `seed`,
    /// sampled at floor `vdd`.
    ///
    /// # Panics
    ///
    /// Panics if the macros do not store 64-bit words or `vdd` is below
    /// the data-retention voltage.
    #[must_use]
    pub fn new(
        geometry: MemoryGeometry,
        booster: BoosterBank,
        die: &DieFaultModel,
        vdd: Volt,
        seed: u64,
    ) -> Self {
        let mut memory = Self::fault_free(geometry, booster, vdd);
        memory.die = Some(die.overlay_from_seed(memory.data.len() * 64, vdd, seed));
        memory
    }

    /// Creates an ideal fault-free memory (reference runs).
    ///
    /// # Panics
    ///
    /// Panics if the macros do not store 64-bit words.
    #[must_use]
    pub fn fault_free(geometry: MemoryGeometry, booster: BoosterBank, vdd: Volt) -> Self {
        assert_eq!(
            geometry.bank_geometry().macro_geometry().bits_per_word(),
            64,
            "boosted memories store 64-bit macro words"
        );
        let levels = booster.levels();
        let width = u8::try_from(levels).expect("booster level count fits in u8");
        let bics = (0..geometry.banks())
            .map(|_| BoostInputControl::new(width))
            .collect();
        Self {
            geometry,
            data: vec![0; geometry.words()],
            die: None,
            bics,
            booster,
            vdd,
            stats: MemoryStats::new(levels),
        }
    }

    /// The memory geometry.
    #[must_use]
    pub fn geometry(&self) -> MemoryGeometry {
        self.geometry
    }

    /// Addressable 64-bit words.
    #[must_use]
    pub fn words(&self) -> usize {
        self.geometry.words()
    }

    /// Current supply voltage.
    #[must_use]
    pub fn vdd(&self) -> Volt {
        self.vdd
    }

    /// Programs one bank's boost configuration — the hardware effect of the
    /// `set_boost_config` instruction.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range or the config width mismatches.
    pub fn set_boost_config(&mut self, bank: usize, config: BoostConfig) {
        assert!(bank < self.geometry.banks(), "bank {bank} out of range");
        self.bics[bank].set_config(config);
    }

    /// Programs every bank to the same boost level.
    pub fn set_boost_level_all(&mut self, level: usize) {
        let width = u8::try_from(self.booster.levels()).expect("level count fits u8");
        for bank in 0..self.geometry.banks() {
            self.set_boost_config(bank, BoostConfig::from_level(level, width));
        }
    }

    /// The effective rail voltage a bank's accesses see right now.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    #[must_use]
    pub fn bank_access_voltage(&self, bank: usize) -> Volt {
        let level = self.bank_level(bank);
        self.booster.boosted_voltage(self.vdd, level)
    }

    fn bank_level(&self, bank: usize) -> usize {
        assert!(bank < self.geometry.banks(), "bank {bank} out of range");
        self.bics[bank].boosting_count(ChipEnable::Active, ClockPhase::High)
    }

    /// Reads the 64-bit word at `addr` at the bank's boosted voltage.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn read(&mut self, addr: usize) -> u64 {
        let level = self.bank_level(self.geometry.decode(addr).0);
        let rail = self.booster.boosted_voltage(self.vdd, level);
        self.stats.reads_per_level[level] += 1;
        let corruption = self
            .die
            .as_ref()
            .map_or(0, |die| die.corruption_word(addr, rail));
        self.data[addr] ^ corruption
    }

    /// Writes the 64-bit word at `addr` (counted at the bank's boost level).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn write(&mut self, addr: usize, value: u64) {
        let level = self.bank_level(self.geometry.decode(addr).0);
        self.stats.writes_per_level[level] += 1;
        self.data[addr] = value;
    }

    /// Access statistics.
    #[must_use]
    pub fn stats(&self) -> &MemoryStats {
        &self.stats
    }

    /// Resets the access statistics.
    pub fn reset_stats(&mut self) {
        self.stats = MemoryStats::new(self.booster.levels());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::ChipConfig;
    use dante_sram::fault::VminFaultModel;
    use dante_sram::geometry::{BankGeometry, MacroGeometry};

    fn weight_mem(vdd: f64, seed: u64) -> BoostedMemory {
        let chip = ChipConfig::dante();
        let die = DieFaultModel::Gaussian(VminFaultModel::default_14nm());
        BoostedMemory::new(
            chip.weight_memory,
            chip.booster(),
            &die,
            Volt::new(vdd),
            seed,
        )
    }

    #[test]
    fn geometry_matches_chip() {
        let m = weight_mem(0.5, 1);
        assert_eq!(m.words(), 16 * 1024);
        assert_eq!(m.geometry().banks(), 16);
    }

    #[test]
    fn unboosted_low_voltage_reads_corrupt_boosted_reads_do_not() {
        let mut m = weight_mem(0.40, 2);
        for addr in 0..m.words() {
            m.write(addr, 0);
        }
        // Unboosted at 0.40 V: expect corruption.
        m.set_boost_level_all(0);
        let mut flips_unboosted = 0u32;
        for addr in 0..m.words() {
            flips_unboosted += m.read(addr).count_ones();
        }
        // Fully boosted: rail at ~0.60 V, expect (near-)zero corruption.
        m.set_boost_level_all(4);
        let mut flips_boosted = 0u32;
        for addr in 0..m.words() {
            flips_boosted += m.read(addr).count_ones();
        }
        assert!(
            flips_unboosted > 1000,
            "expected heavy corruption at 0.40 V, got {flips_unboosted}"
        );
        assert_eq!(
            flips_boosted, 0,
            "full boost must eliminate errors at 0.40 V"
        );
    }

    #[test]
    fn unboosted_reads_corrupt_at_roughly_the_model_rate() {
        let mut m = weight_mem(0.40, 8);
        for addr in 0..m.words() {
            m.write(addr, 0);
        }
        let first: Vec<u64> = (0..m.words()).map(|addr| m.read(addr)).collect();
        let flipped: u32 = first.iter().map(|w| w.count_ones()).sum();
        let bits = (m.words() * 64) as f64;
        let expected = VminFaultModel::default_14nm().bit_flip_rate(Volt::new(0.40)) * bits;
        // Loose 4-sigma binomial band.
        let tol = 4.0 * expected.sqrt() + 5.0;
        assert!(
            (f64::from(flipped) - expected).abs() < tol,
            "flipped {flipped} vs expected {expected}"
        );
        // One die corrupts the same way on every read.
        let second: Vec<u64> = (0..m.words()).map(|addr| m.read(addr)).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn per_bank_configuration_is_independent() {
        let mut m = weight_mem(0.40, 3);
        m.set_boost_config(0, BoostConfig::from_level(4, 4));
        m.set_boost_config(1, BoostConfig::from_level(1, 4));
        assert!(m.bank_access_voltage(0) > m.bank_access_voltage(1));
        assert!(m.bank_access_voltage(1) > m.bank_access_voltage(2)); // bank 2 unboosted
    }

    #[test]
    fn stats_bucket_accesses_by_level() {
        let mut m = weight_mem(0.45, 4);
        m.set_boost_level_all(2);
        m.write(0, 7);
        let _ = m.read(0);
        let _ = m.read(1);
        m.set_boost_level_all(4);
        let _ = m.read(2);
        let s = m.stats();
        assert_eq!(s.reads_per_level[2], 2);
        assert_eq!(s.reads_per_level[4], 1);
        assert_eq!(s.writes_per_level[2], 1);
        assert_eq!(s.total(), 4);
        assert_eq!(s.accesses_per_level()[2], 3);
    }

    #[test]
    fn reset_stats_zeroes_counters() {
        let mut m = weight_mem(0.5, 5);
        m.write(0, 1);
        m.reset_stats();
        assert_eq!(m.stats().total(), 0);
    }

    #[test]
    fn fault_free_memory_is_always_clean() {
        let chip = ChipConfig::dante();
        let mut m = BoostedMemory::fault_free(chip.input_memory, chip.booster(), Volt::new(0.34));
        for addr in 0..m.words() {
            m.write(addr, 0xA5A5_5A5A_0F0F_F0F0);
        }
        for addr in 0..m.words() {
            assert_eq!(m.read(addr), 0xA5A5_5A5A_0F0F_F0F0);
        }
    }

    #[test]
    fn addresses_span_banks_contiguously() {
        let mut m = weight_mem(0.5, 6);
        // Write distinct values at the bank boundary and read them back.
        let per_bank = m.geometry().bank_geometry().words();
        m.write(per_bank - 1, 11);
        m.write(per_bank, 22);
        assert_eq!(m.read(per_bank - 1), 11);
        assert_eq!(m.read(per_bank), 22);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bank_bounds_checked() {
        let mut m = weight_mem(0.5, 7);
        m.set_boost_config(16, BoostConfig::from_level(1, 4));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn read_bounds_checked() {
        let mut m = weight_mem(0.5, 7);
        let _ = m.read(m.words());
    }

    #[test]
    #[should_panic(expected = "64-bit macro words")]
    fn narrow_macro_words_are_rejected() {
        let bank = BankGeometry::new(MacroGeometry::new(512, 16), 2);
        let chip = ChipConfig::dante();
        let _ =
            BoostedMemory::fault_free(MemoryGeometry::new(bank, 1), chip.booster(), Volt::new(0.5));
    }
}
