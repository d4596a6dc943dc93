//! SEC-DED error-correcting code over 64-bit SRAM words — the conventional
//! low-V_min alternative the paper's related work contrasts against
//! (Shamanna et al. \[36\]: "Using ECC and redundancy to minimize Vmin induced
//! yield loss in 6T SRAM arrays").
//!
//! This is a Hamming(72,64) code: 64 data bits, 7 Hamming check bits, and
//! one overall parity bit, giving single-error correction and double-error
//! detection per word. The module provides the real encoder/decoder
//! (bit-exact, usable by a memory model) and the per-word failure
//! probability. The Monte-Carlo evaluator applies the code's statistical
//! effect to its fault dies: words with one flipped bit are healed, words
//! with two or more keep their corruption — exactly what SEC-DED does to the
//! paper's fault maps on up to two flips, which `dante-verify` checks
//! against [`decode`] (with three or more the decoder may miscorrect, and
//! the model passes the corruption through).
//!
//! The comparison the ablation benches draw: ECC buys a fixed ~20–40 mV of
//! V_min at a constant 12.5% storage/energy/latency tax and cannot be
//! modulated, while programmable boosting buys >140 mV, only when needed,
//! per bank.

/// Codeword layout: positions 1..=71 are Hamming positions (powers of two
/// hold check bits), position 0 holds the overall parity bit.
const CHECK_POSITIONS: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Data bits per codeword.
pub const DATA_BITS: u32 = 64;
/// Total codeword bits (64 data + 7 Hamming + 1 overall parity).
pub const CODE_BITS: u32 = 72;

/// Result of decoding one codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Correction {
    /// No error detected.
    Clean,
    /// A single-bit error was corrected at the given codeword position.
    Corrected {
        /// Position (0..72) of the corrected bit.
        position: u32,
    },
    /// A double-bit error was detected but cannot be corrected.
    Uncorrectable,
}

/// A 72-bit SEC-DED codeword.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Codeword(u128);

impl Codeword {
    /// Raw 72-bit pattern (bits 72.. are zero).
    #[must_use]
    pub fn bits(self) -> u128 {
        self.0
    }

    /// Builds a codeword from a raw pattern (e.g. after fault injection).
    ///
    /// # Panics
    ///
    /// Panics if bits above position 71 are set.
    #[must_use]
    pub fn from_bits(bits: u128) -> Self {
        assert!(
            bits >> CODE_BITS == 0,
            "codeword has bits beyond position 71"
        );
        Self(bits)
    }

    /// XOR-flips the bit at `position`.
    ///
    /// # Panics
    ///
    /// Panics if `position >= 72`.
    #[must_use]
    pub fn with_flip(self, position: u32) -> Self {
        assert!(
            position < CODE_BITS,
            "flip position {position} out of range"
        );
        Self(self.0 ^ (1u128 << position))
    }
}

fn is_check_position(pos: u32) -> bool {
    pos == 0 || CHECK_POSITIONS.contains(&pos)
}

/// The codeword position that holds data bit `index`: the `index`-th
/// position in `1..72` that holds no check bit.
///
/// # Panics
///
/// Panics if `index >= 64`.
#[must_use]
pub fn data_position(index: u32) -> u32 {
    // Walk positions 1..72 skipping check positions; precomputable but kept
    // simple: the nth non-check position.
    let mut seen = 0;
    for pos in 1..CODE_BITS {
        if !is_check_position(pos) {
            if seen == index {
                return pos;
            }
            seen += 1;
        }
    }
    panic!("data bit {index} out of range: a codeword holds {DATA_BITS}")
}

/// Encodes 64 data bits into a SEC-DED codeword.
#[must_use]
pub fn encode(data: u64) -> Codeword {
    let mut cw: u128 = 0;
    for i in 0..DATA_BITS {
        if data & (1u64 << i) != 0 {
            cw |= 1u128 << data_position(i);
        }
    }
    // Hamming check bits: parity over positions whose index has that bit.
    for &cp in &CHECK_POSITIONS {
        let mut parity = 0u32;
        for pos in 1..CODE_BITS {
            if pos & cp != 0 && cw & (1u128 << pos) != 0 {
                parity ^= 1;
            }
        }
        if parity == 1 {
            cw |= 1u128 << cp;
        }
    }
    // Overall parity (position 0) over the whole codeword.
    if (cw.count_ones() & 1) == 1 {
        cw |= 1;
    }
    Codeword(cw)
}

/// Decodes a (possibly corrupted) codeword, returning the best-effort data
/// and what the decoder did.
#[must_use]
pub fn decode(cw: Codeword) -> (u64, Correction) {
    let bits = cw.0;
    // Syndrome: XOR of positions of set bits (over Hamming positions).
    let mut syndrome = 0u32;
    for pos in 1..CODE_BITS {
        if bits & (1u128 << pos) != 0 {
            syndrome ^= pos;
        }
    }
    let overall_parity_ok = bits.count_ones().is_multiple_of(2);

    let (fixed, correction) = match (syndrome, overall_parity_ok) {
        (0, true) => (bits, Correction::Clean),
        (0, false) => {
            // The overall parity bit itself flipped.
            (bits ^ 1, Correction::Corrected { position: 0 })
        }
        (s, false) if s < CODE_BITS => {
            // Single-bit error at position s.
            (bits ^ (1u128 << s), Correction::Corrected { position: s })
        }
        // Non-zero syndrome with even parity => double error; syndrome
        // pointing outside the codeword is also uncorrectable.
        _ => (bits, Correction::Uncorrectable),
    };

    let mut data = 0u64;
    for i in 0..DATA_BITS {
        if fixed & (1u128 << data_position(i)) != 0 {
            data |= 1u64 << i;
        }
    }
    (data, correction)
}

/// Per-word probability that SEC-DED fails to protect the data, given a
/// per-bit flip probability `p` (small-`p` approximation `C(72,2) p^2`
/// refined with the exact binomial terms).
///
/// # Panics
///
/// Panics unless `p` is in `[0, 1]`.
#[must_use]
pub fn word_failure_probability(p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "probability out of range");
    let n = f64::from(CODE_BITS);
    let q = 1.0 - p;
    // P(>= 2 flips) = 1 - q^72 - 72 p q^71.
    1.0 - q.powi(72) - n * p * q.powi(71)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trips() {
        for data in [0u64, u64::MAX, 0xDEAD_BEEF_CAFE_F00D, 1, 1 << 63] {
            let cw = encode(data);
            let (back, corr) = decode(cw);
            assert_eq!(back, data);
            assert_eq!(corr, Correction::Clean);
        }
    }

    #[test]
    fn every_single_bit_error_is_corrected() {
        let data = 0xA5A5_5A5A_0F0F_F0F0u64;
        let cw = encode(data);
        for pos in 0..CODE_BITS {
            let corrupted = cw.with_flip(pos);
            let (back, corr) = decode(corrupted);
            assert_eq!(back, data, "failed to correct flip at position {pos}");
            assert_eq!(corr, Correction::Corrected { position: pos });
        }
    }

    #[test]
    fn double_bit_errors_are_detected() {
        let data = 0x0123_4567_89AB_CDEFu64;
        let cw = encode(data);
        let mut detected = 0;
        let mut total = 0;
        for a in 0..CODE_BITS {
            for b in (a + 1)..CODE_BITS {
                let corrupted = cw.with_flip(a).with_flip(b);
                let (_, corr) = decode(corrupted);
                total += 1;
                if corr == Correction::Uncorrectable {
                    detected += 1;
                }
            }
        }
        assert_eq!(detected, total, "SEC-DED must detect every double error");
    }

    #[test]
    fn codeword_has_72_bits() {
        let cw = encode(u64::MAX);
        assert!(cw.bits() >> 72 == 0);
        // 64 data + some check bits set.
        assert!(cw.bits().count_ones() >= 64);
    }

    #[test]
    fn word_failure_probability_is_quadratic_for_small_p() {
        let p = 1e-4;
        let approx = 72.0 * 71.0 / 2.0 * p * p;
        let exact = word_failure_probability(p);
        assert!(
            (exact - approx).abs() / approx < 0.02,
            "{exact} vs {approx}"
        );
        assert_eq!(word_failure_probability(0.0), 0.0);
        assert!(word_failure_probability(0.5) > 0.99);
    }

    #[test]
    #[should_panic(expected = "beyond position 71")]
    fn oversized_codeword_rejected() {
        let _ = Codeword::from_bits(1u128 << 72);
    }
}
