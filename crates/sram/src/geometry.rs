//! SRAM macro and bank geometry of the taped-out chip (paper Sec. 4).
//!
//! The chip's 144 KB of on-chip memory is built from 36 identical 4 KB
//! macros of 512 words x 64 bits. Two macros gang into one 64 Kbit *bank*,
//! the granularity at which the booster column and BIC block attach.

use core::fmt;

/// Geometry of one SRAM macro.
///
/// # Examples
///
/// ```
/// use dante_sram::geometry::MacroGeometry;
///
/// let m = MacroGeometry::dante_4kb();
/// assert_eq!(m.capacity_bits(), 32 * 1024);
/// assert_eq!(m.capacity_bytes(), 4 * 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MacroGeometry {
    words: usize,
    bits_per_word: usize,
}

impl MacroGeometry {
    /// The chip's macro: 512 words x 64 bits = 4 KB (32 Kbit).
    #[must_use]
    pub fn dante_4kb() -> Self {
        Self {
            words: 512,
            bits_per_word: 64,
        }
    }

    /// Creates a custom geometry.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or `bits_per_word > 64` (one
    /// storage word per SRAM word keeps the model simple and matches the
    /// chip).
    #[must_use]
    pub fn new(words: usize, bits_per_word: usize) -> Self {
        assert!(words > 0, "macro must have at least one word");
        assert!(
            (1..=64).contains(&bits_per_word),
            "bits per word must be in 1..=64"
        );
        Self {
            words,
            bits_per_word,
        }
    }

    /// Number of words.
    #[must_use]
    pub fn words(&self) -> usize {
        self.words
    }

    /// Bits per word.
    #[must_use]
    pub fn bits_per_word(&self) -> usize {
        self.bits_per_word
    }

    /// Total capacity in bits.
    #[must_use]
    pub fn capacity_bits(&self) -> usize {
        self.words * self.bits_per_word
    }

    /// Total capacity in bytes (rounded down).
    #[must_use]
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bits() / 8
    }
}

impl fmt::Display for MacroGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{}b ({} KB)",
            self.words,
            self.bits_per_word,
            self.capacity_bytes() / 1024
        )
    }
}

/// Geometry of a boosted bank: a group of macros sharing one boosted rail
/// and one BIC block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BankGeometry {
    macro_geometry: MacroGeometry,
    macros_per_bank: usize,
}

impl BankGeometry {
    /// The chip's bank: two 4 KB macros = 64 Kbit.
    #[must_use]
    pub fn dante_64kbit() -> Self {
        Self {
            macro_geometry: MacroGeometry::dante_4kb(),
            macros_per_bank: 2,
        }
    }

    /// Creates a custom bank geometry.
    ///
    /// # Panics
    ///
    /// Panics if `macros_per_bank` is zero.
    #[must_use]
    pub fn new(macro_geometry: MacroGeometry, macros_per_bank: usize) -> Self {
        assert!(macros_per_bank > 0, "a bank needs at least one macro");
        Self {
            macro_geometry,
            macros_per_bank,
        }
    }

    /// Geometry of the constituent macros.
    #[must_use]
    pub fn macro_geometry(&self) -> MacroGeometry {
        self.macro_geometry
    }

    /// Number of macros ganged per bank.
    #[must_use]
    pub fn macros_per_bank(&self) -> usize {
        self.macros_per_bank
    }

    /// Words addressable in the bank (macros are word-interleaved end to
    /// end).
    #[must_use]
    pub fn words(&self) -> usize {
        self.macro_geometry.words * self.macros_per_bank
    }

    /// Capacity in bits.
    #[must_use]
    pub fn capacity_bits(&self) -> usize {
        self.macro_geometry.capacity_bits() * self.macros_per_bank
    }

    /// Capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bits() / 8
    }
}

impl fmt::Display for BankGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} macros of {} ({} Kbit/bank)",
            self.macros_per_bank,
            self.macro_geometry,
            self.capacity_bits() / 1024
        )
    }
}

/// Layout of a multi-bank memory (e.g. the 128 KB weight memory = 16 banks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemoryGeometry {
    bank_geometry: BankGeometry,
    banks: usize,
}

impl MemoryGeometry {
    /// Creates a memory of `banks` banks.
    ///
    /// # Panics
    ///
    /// Panics if `banks` is zero.
    #[must_use]
    pub fn new(bank_geometry: BankGeometry, banks: usize) -> Self {
        assert!(banks > 0, "a memory needs at least one bank");
        Self {
            bank_geometry,
            banks,
        }
    }

    /// The chip's 128 KB weight memory: 16 banks of 64 Kbit.
    #[must_use]
    pub fn dante_weight_memory() -> Self {
        Self::new(BankGeometry::dante_64kbit(), 16)
    }

    /// The chip's 16 KB input memory: 2 banks of 64 Kbit.
    #[must_use]
    pub fn dante_input_memory() -> Self {
        Self::new(BankGeometry::dante_64kbit(), 2)
    }

    /// Per-bank geometry.
    #[must_use]
    pub fn bank_geometry(&self) -> BankGeometry {
        self.bank_geometry
    }

    /// Number of banks.
    #[must_use]
    pub fn banks(&self) -> usize {
        self.banks
    }

    /// Total number of macros.
    #[must_use]
    pub fn total_macros(&self) -> usize {
        self.banks * self.bank_geometry.macros_per_bank()
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> usize {
        self.banks * self.bank_geometry.capacity_bytes()
    }

    /// Total addressable words.
    #[must_use]
    pub fn words(&self) -> usize {
        self.banks * self.bank_geometry.words()
    }

    /// Decomposes a flat word address into `(bank, word-within-bank)`.
    ///
    /// Addresses are banked contiguously (bank 0 holds the first
    /// `bank.words()` addresses), matching the chip's per-layer weight
    /// placement.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[must_use]
    pub fn decode(&self, addr: usize) -> (usize, usize) {
        assert!(
            addr < self.words(),
            "address {addr} out of range ({})",
            self.words()
        );
        let per_bank = self.bank_geometry.words();
        (addr / per_bank, addr % per_bank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dante_macro_is_4kb() {
        let m = MacroGeometry::dante_4kb();
        assert_eq!(m.words(), 512);
        assert_eq!(m.bits_per_word(), 64);
        assert_eq!(m.capacity_bytes(), 4096);
    }

    #[test]
    fn dante_chip_totals_match_table1() {
        // Table 1 / Sec. 4: 128 KB weight + 16 KB input memory from 36
        // 4 KB macros.
        let w = MemoryGeometry::dante_weight_memory();
        let i = MemoryGeometry::dante_input_memory();
        assert_eq!(w.capacity_bytes(), 128 * 1024);
        assert_eq!(i.capacity_bytes(), 16 * 1024);
        assert_eq!(w.total_macros() + i.total_macros(), 36);
    }

    #[test]
    fn address_decode_round_trips() {
        let mem = MemoryGeometry::dante_weight_memory();
        let per_bank = mem.bank_geometry().words();
        for addr in [
            0,
            1,
            per_bank - 1,
            per_bank,
            5 * per_bank + 17,
            mem.words() - 1,
        ] {
            let (bank, word) = mem.decode(addr);
            assert_eq!(bank * per_bank + word, addr);
            assert!(bank < mem.banks());
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn decode_bounds_checked() {
        let mem = MemoryGeometry::dante_input_memory();
        let _ = mem.decode(mem.words());
    }

    #[test]
    fn display_formats_are_informative() {
        assert_eq!(format!("{}", MacroGeometry::dante_4kb()), "512x64b (4 KB)");
        let b = BankGeometry::dante_64kbit();
        assert!(format!("{b}").contains("64 Kbit"));
    }

    #[test]
    #[should_panic(expected = "bits per word")]
    fn oversized_word_rejected() {
        let _ = MacroGeometry::new(16, 65);
    }
}
