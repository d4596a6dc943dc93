//! Fixed-point quantization — the data format weights and inputs take inside
//! the accelerator's SRAM.
//!
//! The taped-out chip stores 16-bit fixed-point values, four to a 64-bit SRAM
//! word. Quantization matters to the fault study because *which bit flips*
//! determines the damage: an MSB flip in a Q2.14 weight changes it by 2.0,
//! an LSB flip by 6e-5. [`QuantizedTensor`] round-trips between `f32`
//! tensors and packed 64-bit SRAM words so a `dante-sram` fault overlay
//! can XOR its bit corruption into the exact bit image the hardware would
//! hold.

use core::fmt;

/// A fixed-point number format.
///
/// Only 8- and 16-bit containers are supported (they pack evenly into the
/// chip's 64-bit SRAM words).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QFormat {
    bits: u8,
    frac_bits: u8,
    signed: bool,
}

impl QFormat {
    /// Creates a format.
    ///
    /// # Panics
    ///
    /// Panics unless `bits` is 8 or 16, and `frac_bits` fits inside the
    /// container (leaving a sign bit when `signed`).
    #[must_use]
    pub fn new(bits: u8, frac_bits: u8, signed: bool) -> Self {
        assert!(bits == 8 || bits == 16, "container must be 8 or 16 bits");
        let max_frac = if signed { bits - 1 } else { bits };
        assert!(
            frac_bits <= max_frac,
            "frac_bits {frac_bits} too large for {bits}-bit format"
        );
        Self {
            bits,
            frac_bits,
            signed,
        }
    }

    /// Q2.14: signed 16-bit with 14 fraction bits, range `[-2, 2)` — the
    /// chip's weight format.
    #[must_use]
    pub fn weight_q2_14() -> Self {
        Self::new(16, 14, true)
    }

    /// UQ0.8: unsigned 8-bit with 8 fraction bits, range `[0, 1)` — the
    /// chip's input-pixel format.
    #[must_use]
    pub fn input_uq0_8() -> Self {
        Self::new(8, 8, false)
    }

    /// Container width in bits.
    #[must_use]
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Fraction bit count.
    #[must_use]
    pub fn frac_bits(&self) -> u8 {
        self.frac_bits
    }

    /// Whether the format is signed (two's complement).
    #[must_use]
    pub fn is_signed(&self) -> bool {
        self.signed
    }

    /// Quantization step (value of one LSB).
    #[must_use]
    pub fn step(&self) -> f32 {
        (2.0f32).powi(-i32::from(self.frac_bits))
    }

    /// Largest representable value.
    #[must_use]
    pub fn max_value(&self) -> f32 {
        let max_code = if self.signed {
            (1i32 << (self.bits - 1)) - 1
        } else {
            (1i32 << self.bits) - 1
        };
        max_code as f32 * self.step()
    }

    /// Smallest representable value.
    #[must_use]
    pub fn min_value(&self) -> f32 {
        if self.signed {
            -((1i64 << (self.bits - 1)) as f32) * self.step()
        } else {
            0.0
        }
    }

    /// Quantizes a value to its raw bit pattern (saturating, round to
    /// nearest).
    #[must_use]
    pub fn quantize(&self, value: f32) -> u16 {
        let scaled =
            (f64::from(value) * f64::from((2.0f32).powi(i32::from(self.frac_bits)))).round();
        if self.signed {
            let lo = -(1i64 << (self.bits - 1));
            let hi = (1i64 << (self.bits - 1)) - 1;
            let code = (scaled as i64).clamp(lo, hi);
            (code as u16) & self.mask()
        } else {
            let hi = (1i64 << self.bits) - 1;
            let code = (scaled as i64).clamp(0, hi);
            code as u16
        }
    }

    /// Reconstructs the value of a raw bit pattern.
    #[must_use]
    pub fn dequantize(&self, raw: u16) -> f32 {
        let raw = raw & self.mask();
        let code = if self.signed {
            // Sign-extend from `bits` wide.
            let shift = 16 - self.bits;
            (((raw << shift) as i16) >> shift) as i32
        } else {
            i32::from(raw)
        };
        code as f32 * self.step()
    }

    fn mask(&self) -> u16 {
        if self.bits == 16 {
            u16::MAX
        } else {
            (1u16 << self.bits) - 1
        }
    }

    /// Lanes per 64-bit SRAM word.
    #[must_use]
    pub fn lanes_per_word(&self) -> usize {
        64 / usize::from(self.bits)
    }
}

impl fmt::Display for QFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sign = if self.signed { "Q" } else { "UQ" };
        write!(
            f,
            "{}{}.{}",
            sign,
            self.bits - self.frac_bits - u8::from(self.signed),
            self.frac_bits
        )
    }
}

/// A tensor quantized to a fixed-point format, addressable both as values
/// and as packed SRAM words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantizedTensor {
    codes: Vec<u16>,
    format: QFormat,
}

impl QuantizedTensor {
    /// Quantizes a float tensor.
    #[must_use]
    pub fn from_f32(values: &[f32], format: QFormat) -> Self {
        Self {
            codes: values.iter().map(|&v| format.quantize(v)).collect(),
            format,
        }
    }

    /// The format.
    #[must_use]
    pub fn format(&self) -> QFormat {
        self.format
    }

    /// Element count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the tensor is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Total bits of SRAM this tensor occupies.
    #[must_use]
    pub fn bit_len(&self) -> usize {
        self.codes.len() * usize::from(self.format.bits())
    }

    /// Raw codes.
    #[must_use]
    pub fn codes(&self) -> &[u16] {
        &self.codes
    }

    /// Dequantizes back to floats.
    #[must_use]
    pub fn to_f32(&self) -> Vec<f32> {
        self.codes
            .iter()
            .map(|&c| self.format.dequantize(c))
            .collect()
    }

    /// Packs the codes into 64-bit SRAM words (lane 0 in the low bits), as
    /// the chip's memory would hold them. The final word is zero-padded.
    #[must_use]
    pub fn to_packed_words(&self) -> Vec<u64> {
        let lanes = self.format.lanes_per_word();
        let bits = u32::from(self.format.bits());
        let mut words = vec![0u64; self.codes.len().div_ceil(lanes)];
        for (i, &code) in self.codes.iter().enumerate() {
            words[i / lanes] |= u64::from(code) << (bits * (i % lanes) as u32);
        }
        words
    }

    /// Replaces the codes from packed words (the inverse of
    /// [`Self::to_packed_words`]), e.g. after a fault overlay corrupted the
    /// bit image.
    ///
    /// # Panics
    ///
    /// Panics if `words` is shorter than this tensor requires.
    pub fn load_packed_words(&mut self, words: &[u64]) {
        let lanes = self.format.lanes_per_word();
        let bits = u32::from(self.format.bits());
        let needed = self.codes.len().div_ceil(lanes);
        assert!(
            words.len() >= needed,
            "need {needed} words, got {}",
            words.len()
        );
        let mask = u64::from(self.format.bits() == 16) * u64::from(u16::MAX)
            + u64::from(self.format.bits() == 8) * 0xFF;
        for (i, code) in self.codes.iter_mut().enumerate() {
            let w = words[i / lanes];
            *code = ((w >> (bits * (i % lanes) as u32)) & mask) as u16;
        }
    }

    /// Mean absolute quantization error against the original values.
    ///
    /// # Panics
    ///
    /// Panics if `original.len() != self.len()`.
    #[must_use]
    pub fn mean_abs_error(&self, original: &[f32]) -> f32 {
        assert_eq!(original.len(), self.len(), "length mismatch");
        if original.is_empty() {
            return 0.0;
        }
        let sum: f32 = self
            .to_f32()
            .iter()
            .zip(original)
            .map(|(q, o)| (q - o).abs())
            .sum();
        sum / original.len() as f32
    }
}

/// Per-tensor scaled fixed-point quantizer — the format the accelerator's
/// weight memory uses.
///
/// Each tensor is quantized against its own scale
/// `s = max|w| * 2^guard_bits / qmax`, i.e. the representable range covers
/// `2^guard_bits` times the tensor's actual magnitude. The guard bits are
/// the accumulation headroom a fixed-point MAC datapath reserves; they also
/// set the *severity* of an MSB flip (`2^guard_bits * max|w|`), which is the
/// knob that calibrates the accuracy-vs-voltage cliff of paper Fig. 2
/// (DESIGN.md Sec. 4). The default is 16-bit with 2 guard bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScaledQuantizer {
    bits: u8,
    guard_bits: u8,
}

impl ScaledQuantizer {
    /// Creates a scaled quantizer.
    ///
    /// # Panics
    ///
    /// Panics unless `bits` is 8 or 16 and `guard_bits < bits - 1`.
    #[must_use]
    pub fn new(bits: u8, guard_bits: u8) -> Self {
        assert!(bits == 8 || bits == 16, "container must be 8 or 16 bits");
        assert!(guard_bits < bits - 1, "guard bits leave no value bits");
        Self { bits, guard_bits }
    }

    /// The chip's weight format: 16-bit, 2 guard bits.
    #[must_use]
    pub fn weight_default() -> Self {
        Self::new(16, 2)
    }

    /// Container width in bits.
    #[must_use]
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Guard (headroom) bit count.
    #[must_use]
    pub fn guard_bits(&self) -> u8 {
        self.guard_bits
    }

    /// Largest positive code.
    fn qmax(&self) -> i64 {
        (1i64 << (self.bits - 1)) - 1
    }

    /// The per-tensor scale [`Self::quantize`] gives `values`:
    /// `max|w| * 2^guard_bits / qmax`.
    fn scale_of(&self, values: &[f32]) -> f32 {
        let max_abs = values.iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(1e-9);
        max_abs * (1u32 << self.guard_bits) as f32 / self.qmax() as f32
    }

    /// The raw code of `value` at `scale`: round to nearest, saturate, and
    /// mask to the container — one element of [`Self::quantize`].
    #[inline]
    #[must_use]
    pub fn code(&self, value: f32, scale: f32) -> u16 {
        let mask = if self.bits == 16 { u16::MAX } else { 0xFF };
        (signed_code(value, f64::from(scale), self.qmax()) as u16) & mask
    }

    /// Quantizes a tensor with its own scale.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    #[must_use]
    pub fn quantize(&self, values: &[f32]) -> ScaledTensor {
        assert!(!values.is_empty(), "cannot quantize an empty tensor");
        let scale = self.scale_of(values);
        ScaledTensor {
            codes: values.iter().map(|&v| self.code(v, scale)).collect(),
            scale,
            bits: self.bits,
        }
    }

    /// Writes `self.quantize(values).to_f32()` into `out` without
    /// allocating and returns the scale: the same codes, and the same
    /// integer-to-float conversion and multiply per element.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or `out` has a different length.
    pub fn requantize_into(&self, values: &[f32], out: &mut [f32]) -> f32 {
        assert!(!values.is_empty(), "cannot quantize an empty tensor");
        assert_eq!(values.len(), out.len(), "requantize length mismatch");
        let scale = self.scale_of(values);
        let (wide, qmax) = (f64::from(scale), self.qmax());
        for (o, &v) in out.iter_mut().zip(values) {
            // A saturated code fits the container, so sign-extending its
            // raw bits (as `to_f32` does) gives the code back unchanged.
            *o = signed_code(v, wide, qmax) as f32 * scale;
        }
        scale
    }
}

/// `value / scale` rounded half away from zero, saturated to the signed
/// code range `[-qmax - 1, qmax]`.
#[inline]
fn signed_code(value: f32, scale: f64, qmax: i64) -> i64 {
    ((f64::from(value) / scale).round() as i64)
        .max(-qmax - 1)
        .min(qmax)
}

/// The value of raw code `raw` in a `bits`-wide container at `scale`:
/// sign-extend, then multiply.
#[inline]
fn scaled_value(raw: u16, bits: u8, scale: f32) -> f32 {
    let shift = 16 - bits;
    let code = (((raw << shift) as i16) >> shift) as i32;
    code as f32 * scale
}

impl Default for ScaledQuantizer {
    fn default() -> Self {
        Self::weight_default()
    }
}

/// A tensor quantized with a per-tensor scale.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaledTensor {
    codes: Vec<u16>,
    scale: f32,
    bits: u8,
}

impl ScaledTensor {
    /// Element count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the tensor is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The per-tensor scale (value of one LSB).
    #[must_use]
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Raw code bit patterns.
    #[must_use]
    pub fn codes(&self) -> &[u16] {
        &self.codes
    }

    /// Overwrites the raw bit pattern of element `index` — targeted fault
    /// injection for validation harnesses. `raw` is masked to the container
    /// width.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_code(&mut self, index: usize, raw: u16) {
        let mask = if self.bits == 16 {
            u16::MAX
        } else {
            (1u16 << self.bits) - 1
        };
        self.codes[index] = raw & mask;
    }

    /// Container width in bits.
    #[must_use]
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Total SRAM bits occupied.
    #[must_use]
    pub fn bit_len(&self) -> usize {
        self.codes.len() * usize::from(self.bits)
    }

    /// Dequantizes back to floats.
    #[must_use]
    pub fn to_f32(&self) -> Vec<f32> {
        self.codes
            .iter()
            .map(|&raw| scaled_value(raw, self.bits, self.scale))
            .collect()
    }

    /// Packs the codes into 64-bit SRAM words (lane 0 in the low bits).
    #[must_use]
    pub fn to_packed_words(&self) -> Vec<u64> {
        let lanes = 64 / usize::from(self.bits);
        let bits = u32::from(self.bits);
        let mut words = vec![0u64; self.codes.len().div_ceil(lanes)];
        for (i, &code) in self.codes.iter().enumerate() {
            words[i / lanes] |= u64::from(code) << (bits * (i % lanes) as u32);
        }
        words
    }

    /// Reloads codes from packed words (after a fault overlay).
    ///
    /// # Panics
    ///
    /// Panics if `words` is shorter than this tensor requires.
    pub fn load_packed_words(&mut self, words: &[u64]) {
        let lanes = 64 / usize::from(self.bits);
        let bits = u32::from(self.bits);
        let needed = self.codes.len().div_ceil(lanes);
        assert!(
            words.len() >= needed,
            "need {needed} words, got {}",
            words.len()
        );
        let mask = if self.bits == 16 { 0xFFFFu64 } else { 0xFFu64 };
        for (i, code) in self.codes.iter_mut().enumerate() {
            *code = ((words[i / lanes] >> (bits * (i % lanes) as u32)) & mask) as u16;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_format_bounds() {
        let q = QFormat::weight_q2_14();
        assert!((q.max_value() - (2.0 - q.step())).abs() < 1e-9);
        assert!((q.min_value() + 2.0).abs() < 1e-9);
        assert_eq!(q.lanes_per_word(), 4);
        assert_eq!(format!("{q}"), "Q1.14");
    }

    #[test]
    fn quantize_round_trips_within_half_step() {
        let q = QFormat::weight_q2_14();
        for &v in &[0.0f32, 0.5, -0.5, 1.999, -2.0, 0.123_456, -1.987_654] {
            let back = q.dequantize(q.quantize(v));
            let clamped = v.clamp(q.min_value(), q.max_value());
            assert!(
                (back - clamped).abs() <= q.step() * 0.5 + 1e-6,
                "v={v} back={back}"
            );
        }
    }

    #[test]
    fn quantize_saturates() {
        let q = QFormat::weight_q2_14();
        assert!((q.dequantize(q.quantize(10.0)) - q.max_value()).abs() < 1e-6);
        assert!((q.dequantize(q.quantize(-10.0)) - q.min_value()).abs() < 1e-6);
        let u = QFormat::input_uq0_8();
        assert!((u.dequantize(u.quantize(-3.0)) - 0.0).abs() < 1e-9);
        assert!((u.dequantize(u.quantize(7.0)) - u.max_value()).abs() < 1e-6);
    }

    #[test]
    fn msb_flip_is_catastrophic_lsb_flip_is_benign() {
        // This is the mechanism behind the paper's accuracy cliffs.
        let q = QFormat::weight_q2_14();
        let raw = q.quantize(0.5);
        let msb_flipped = q.dequantize(raw ^ 0x8000);
        let lsb_flipped = q.dequantize(raw ^ 0x0001);
        assert!(
            (msb_flipped - (0.5 - 2.0)).abs() < 1e-4,
            "msb flip: {msb_flipped}"
        );
        assert!((lsb_flipped - 0.5).abs() < 1e-3, "lsb flip: {lsb_flipped}");
    }

    #[test]
    fn packing_round_trips() {
        let q = QFormat::weight_q2_14();
        let values: Vec<f32> = (0..13).map(|i| (i as f32 - 6.0) * 0.3).collect();
        let t = QuantizedTensor::from_f32(&values, q);
        let words = t.to_packed_words();
        assert_eq!(words.len(), 4); // ceil(13/4)
        let mut t2 = t.clone();
        t2.load_packed_words(&words);
        assert_eq!(t, t2);
    }

    #[test]
    fn packing_respects_lane_layout() {
        let q = QFormat::input_uq0_8();
        let t = QuantizedTensor::from_f32(&[0.0, 0.25, 0.5, 0.75, 0.996], q);
        let w = t.to_packed_words()[0];
        assert_eq!(w & 0xFF, 0); // 0.0 -> code 0, lane 0
        assert_eq!((w >> 8) & 0xFF, 64); // 0.25 -> code 64, lane 1
        assert_eq!((w >> 16) & 0xFF, 128);
        assert_eq!((w >> 24) & 0xFF, 192);
        assert_eq!((w >> 32) & 0xFF, 255);
    }

    #[test]
    fn corrupted_words_change_values() {
        let q = QFormat::weight_q2_14();
        let t = QuantizedTensor::from_f32(&[1.0, -1.0, 0.25, 0.0], q);
        let mut words = t.to_packed_words();
        words[0] ^= 1 << 31; // MSB of lane 1 (the -1.0)
        let mut t2 = t.clone();
        t2.load_packed_words(&words);
        let vals = t2.to_f32();
        assert!((vals[0] - 1.0).abs() < 1e-6);
        assert!(
            (vals[1] - 1.0).abs() < 1e-4,
            "two's complement MSB flip: -1 -> +1, got {}",
            vals[1]
        );
    }

    #[test]
    fn quantization_error_bounded_by_half_step() {
        let q = QFormat::weight_q2_14();
        let values: Vec<f32> = (0..1000)
            .map(|i| ((i * 37) % 400) as f32 * 0.01 - 2.0)
            .collect();
        let t = QuantizedTensor::from_f32(&values, q);
        assert!(t.mean_abs_error(&values) <= q.step() * 0.5 + 1e-6);
    }

    #[test]
    fn bit_len_counts_container_bits() {
        let t = QuantizedTensor::from_f32(&[0.0; 10], QFormat::weight_q2_14());
        assert_eq!(t.bit_len(), 160);
        let t8 = QuantizedTensor::from_f32(&[0.0; 10], QFormat::input_uq0_8());
        assert_eq!(t8.bit_len(), 80);
    }

    #[test]
    #[should_panic(expected = "container must be 8 or 16 bits")]
    fn odd_container_rejected() {
        let _ = QFormat::new(12, 8, true);
    }

    #[test]
    fn scaled_quantizer_round_trips_within_half_step() {
        let q = ScaledQuantizer::weight_default();
        let vals: Vec<f32> = (0..100).map(|i| (i as f32 - 50.0) * 0.007).collect();
        let t = q.quantize(&vals);
        let back = t.to_f32();
        for (&v, &b) in vals.iter().zip(&back) {
            assert!((v - b).abs() <= t.scale() * 0.5 + 1e-7, "v={v} b={b}");
        }
    }

    #[test]
    fn scaled_quantizer_uses_guard_headroom() {
        let q = ScaledQuantizer::new(16, 2);
        let vals = vec![0.5f32, -0.25, 0.1];
        let t = q.quantize(&vals);
        // Range covers 4 * max|w| = 2.0, so one MSB flip injects ~2.0.
        let full_range = t.scale() * 32767.0;
        assert!((full_range - 2.0).abs() < 1e-3, "range {full_range}");
    }

    #[test]
    fn scaled_msb_flip_injects_guarded_magnitude() {
        let q = ScaledQuantizer::new(16, 2);
        let t = q.quantize(&[0.5f32, 0.1]);
        let mut words = t.to_packed_words();
        words[0] ^= 1 << 15; // MSB of lane 0
        let mut t2 = t.clone();
        t2.load_packed_words(&words);
        let vals = t2.to_f32();
        // Two's-complement MSB flip of a positive code subtracts 2^15 codes
        // = half the full range = 2 * max|w| = 2.0.
        assert!((vals[0] - (0.5 - 2.0)).abs() < 1e-3, "got {}", vals[0]);
    }

    #[test]
    fn scaled_packing_round_trips() {
        let q = ScaledQuantizer::new(8, 1);
        let vals: Vec<f32> = (0..13).map(|i| (i as f32 - 6.0) * 0.05).collect();
        let t = q.quantize(&vals);
        assert_eq!(t.bit_len(), 13 * 8);
        let words = t.to_packed_words();
        let mut t2 = t.clone();
        t2.load_packed_words(&words);
        assert_eq!(t, t2);
    }

    #[test]
    fn requantize_into_matches_quantize_then_to_f32_bitwise() {
        let vals: Vec<f32> = (0..257)
            .map(|i| ((i * 7919) % 1000) as f32 * 0.0013 - 0.65)
            .chain([0.0, -0.0, 1e-12])
            .collect();
        for q in [ScaledQuantizer::new(16, 2), ScaledQuantizer::new(8, 1)] {
            let t = q.quantize(&vals);
            let mut out = vec![f32::NAN; vals.len()];
            let scale = q.requantize_into(&vals, &mut out);
            assert_eq!(scale.to_bits(), t.scale().to_bits());
            assert_eq!(scale.to_bits(), q.scale_of(&vals).to_bits());
            let want: Vec<u32> = t.to_f32().iter().map(|v| v.to_bits()).collect();
            let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want);
            // The codes are the spelled-out per-element formula: divide in
            // f64, round half away from zero, saturate, mask.
            let qmax = ((1i32 << (q.bits() - 1)) - 1) as f32;
            let mask = if q.bits() == 16 { u16::MAX } else { 0xFF };
            for (&v, &c) in vals.iter().zip(t.codes()) {
                let code = (f64::from(v) / f64::from(scale)).round() as i64;
                let code = code.clamp(-(i64::from(qmax as i32)) - 1, i64::from(qmax as i32));
                assert_eq!(c, (code as u16) & mask, "v={v}");
                assert_eq!(q.code(v, scale), c);
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty tensor")]
    fn scaled_empty_rejected() {
        let _ = ScaledQuantizer::weight_default().quantize(&[]);
    }

    #[test]
    #[should_panic(expected = "guard bits")]
    fn scaled_excess_guard_rejected() {
        let _ = ScaledQuantizer::new(8, 7);
    }
}
