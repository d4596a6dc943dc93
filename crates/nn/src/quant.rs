//! Fixed-point quantization: the one data format weights, inputs and
//! activations take inside the accelerator's SRAM.
//!
//! The taped-out chip stores 16-bit two's-complement codes ([`CODE_BITS`]),
//! four to a 64-bit SRAM word ([`LANES`]), lane 0 in the low bits. Every
//! tensor gets its own scale ([`scale_of`]): `max|x| * 4 / 32767`, with
//! `max|x|` floored at `1e-9`, so the code range covers four times the
//! tensor's largest magnitude: two guard bits. The guard bits are the
//! accumulation headroom a fixed-point MAC datapath reserves, and they set
//! how much a flip does, which is what the fault study measures: an MSB
//! flip moves a value by about four times its tensor's largest magnitude,
//! an LSB flip by one scale step, about 1/8192 of that magnitude
//! (DESIGN.md Sec. 4).
//!
//! [`quantize`] turns an `f32` tensor into a [`ScaledTensor`] of codes, and
//! the word codec ([`pack_word`], [`unpack_word`],
//! [`dequantize_word_into`]) moves codes through packed SRAM words, so a
//! `dante-sram` fault overlay can XOR its bit corruption into the exact bit
//! image the hardware would hold.
//!
//! Every code comes from one rounding rule ([`code`]): divide in `f64`,
//! round half away from zero, saturate, NaN to code 0. It is written
//! without a `libm` call, so the whole-tensor loops of [`requantize_into`]
//! vectorize, and they run under the same AVX-512F/AVX2 runtime dispatch as
//! [`crate::gemm`]. Retraining re-quantizes every weight on every
//! mini-batch through that loop, and re-packs the SRAM words a fault die
//! flips from the codes it returns.

/// Bits per code: the chip's 16-bit two's-complement container.
pub const CODE_BITS: usize = 16;

/// Codes per 64-bit SRAM word. Lane `i` holds bits `16 * i` to
/// `16 * i + 15`.
pub const LANES: usize = 64 / CODE_BITS;

/// Guard bits: a tensor's code range covers `2^GUARD_BITS` times its
/// largest magnitude.
const GUARD_BITS: u32 = 2;

/// Largest positive code, `i16::MAX`.
const QMAX: f64 = 32767.0;

/// The per-tensor scale [`quantize`] gives `values`: `max|x| * 4 / 32767`
/// in `f32` (two guard bits), with `max|x|` floored at `1e-9`. NaN values
/// do not count towards the maximum.
#[must_use]
pub fn scale_of(values: &[f32]) -> f32 {
    // Runtime dispatch: the same fold compiled under wider SIMD feature
    // sets (see `scale_core` for why lane order cannot change it).
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: feature presence just checked.
            return unsafe { scale_avx512(values) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: feature presence just checked.
            return unsafe { scale_avx2(values) };
        }
    }
    scale_core(values)
}

/// The raw code of `value` at `scale`, one element of [`quantize`]:
/// `value / scale` divided in `f64`, rounded half away from zero, saturated
/// to `[-32768, 32767]` and kept as its two's-complement bits. NaN gives
/// code 0.
///
/// The rounding is exact without `f64::round` (a `libm` call on baseline
/// x86-64). The quotient `x` is clamped to the code range first, which
/// equals rounding then saturating because both bounds are integers.
/// That leaves `|x| <= 2^15`, well inside `2^51`, where adding and then
/// subtracting `1.5 * 2^52` rounds `x` to the nearest integer `r` with
/// ties to even (the sum lies where the `f64` spacing is exactly 1). The
/// remainder `x - r` is then exact, and a tie (`|x - r| == 0.5`) takes
/// `x ± 0.5`, the neighbour away from zero. A zero result is always `+0.0` (the shift
/// cancels to `+0.0` under round-to-nearest, and a tie is never zero),
/// so `code as f32 * scale` keeps the bits the integer path gave.
#[inline]
#[must_use]
pub fn code(value: f32, scale: f32) -> u16 {
    raw_code(rounded_code(value, f64::from(scale)))
}

/// Quantizes a tensor with its own scale ([`scale_of`]).
///
/// # Panics
///
/// Panics if `values` is empty.
#[must_use]
pub fn quantize(values: &[f32]) -> ScaledTensor {
    assert!(!values.is_empty(), "cannot quantize an empty tensor");
    let scale = scale_of(values);
    ScaledTensor {
        codes: values.iter().map(|&v| code(v, scale)).collect(),
        scale,
    }
}

/// Writes `quantize(values).to_f32()` into `out` and the codes of
/// `quantize(values).codes()` into `codes`, without allocating, and
/// returns the scale: the same codes ([`code`]'s exact rounding), and the
/// same integer-to-float conversion and multiply per element. Both passes,
/// the scale fold and the rounding loop, are dispatched to AVX-512F or AVX2
/// codegen when the CPU has it; no variant uses FMA, so every variant gives
/// the same bits. The codes let a caller re-pack SRAM words without
/// rounding any value a second time.
///
/// # Panics
///
/// Panics if `values` is empty or `out` or `codes` has a different length.
pub fn requantize_into(values: &[f32], out: &mut [f32], codes: &mut [u16]) -> f32 {
    assert!(!values.is_empty(), "cannot quantize an empty tensor");
    assert_eq!(values.len(), out.len(), "requantize length mismatch");
    assert_eq!(values.len(), codes.len(), "requantize code length mismatch");
    let scale = scale_of(values);
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: feature presence just checked.
            unsafe { round_avx512(values, scale, out, codes) };
            return scale;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: feature presence just checked.
            unsafe { round_avx2(values, scale, out, codes) };
            return scale;
        }
    }
    round_core(values, scale, out, codes);
    scale
}

/// Packs up to [`LANES`] codes into one SRAM word, the first in lane 0
/// (the low bits). Lanes without a code are zero.
#[inline]
#[must_use]
pub fn pack_word(codes: impl IntoIterator<Item = u16>) -> u64 {
    codes.into_iter().enumerate().fold(0, |word, (lane, code)| {
        word | u64::from(code) << (CODE_BITS * lane)
    })
}

/// The codes of an SRAM word's lanes, lane 0 first.
#[inline]
#[must_use]
pub fn unpack_word(word: u64) -> [u16; LANES] {
    std::array::from_fn(|lane| (word >> (CODE_BITS * lane)) as u16)
}

/// Dequantizes the lanes of `word` at `scale` into `out`, one value per
/// lane from lane 0 (`out.len() <= LANES`): the values
/// [`ScaledTensor::to_f32`] gives the same codes.
#[inline]
pub fn dequantize_word_into(word: u64, scale: f32, out: &mut [f32]) {
    for (o, raw) in out.iter_mut().zip(unpack_word(word)) {
        *o = value(raw, scale);
    }
}

/// `1.5 * 2^52`: adding and then subtracting it rounds an `f64` of magnitude
/// at most `2^51` to an integer, ties to even.
const ROUND_SHIFT: f64 = 6_755_399_441_055_744.0;

/// `value / scale` rounded half away from zero and saturated to
/// `[-32768, 32767]`, as an integral `f64` that is never `-0.0`; NaN gives
/// `+0.0`. Branch-free, so loops over it vectorize. [`code`] holds the
/// exactness argument.
#[inline(always)]
fn rounded_code(value: f32, scale: f64) -> f64 {
    let x = f64::from(value) / scale;
    // `f64::clamp` keeps NaN (a `max`/`min` pair would turn it into a bound).
    let x = if x.is_nan() {
        0.0
    } else {
        x.clamp(-QMAX - 1.0, QMAX)
    };
    let even = (x + ROUND_SHIFT) - ROUND_SHIFT;
    if (x - even).abs() == 0.5 {
        x + 0.5f64.copysign(x)
    } else {
        even
    }
}

/// The two's-complement bits of an integral code from [`rounded_code`]:
/// `code as i16 as u16`, computed without a float-to-integer conversion so
/// that the rounding loop vectorizes. Adding `1.5 * 2^52` to an integer of
/// magnitude at most `2^15` is exact and leaves `code + 2^51` in the
/// mantissa, whose low 16 bits are the two's-complement bits of `code`.
#[inline(always)]
fn raw_code(code: f64) -> u16 {
    (code + ROUND_SHIFT).to_bits() as u16
}

/// The value of raw code `raw` at `scale`: sign-extend, then multiply.
#[inline(always)]
fn value(raw: u16, scale: f32) -> f32 {
    f32::from(raw as i16) * scale
}

/// The scale fold of [`scale_of`]. After `abs` every operand is `+0.0` or
/// larger, or NaN, which `f32::max` skips, so the maximum does not depend
/// on the order a vectorized reduction combines lanes in. `inline(always)`
/// (here and in [`round_core`]) so the `target_feature` wrappers recompile
/// the loop under their feature set.
#[inline(always)]
fn scale_core(values: &[f32]) -> f32 {
    let max_abs = values.iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(1e-9);
    max_abs * (1u32 << GUARD_BITS) as f32 / QMAX as f32
}

/// [`scale_core`] compiled with AVX-512F codegen.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn scale_avx512(values: &[f32]) -> f32 {
    scale_core(values)
}

/// [`scale_core`] compiled with AVX2 codegen.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn scale_avx2(values: &[f32]) -> f32 {
    scale_core(values)
}

/// The rounding pass of [`requantize_into`]: each value's code and the
/// code times `scale`. A saturated code fits 16 bits, so sign-extending its
/// raw bits (as `to_f32` does) gives the code back unchanged, and the
/// integral `f64` code converts to `f32` exactly.
#[inline(always)]
fn round_core(values: &[f32], scale: f32, out: &mut [f32], codes: &mut [u16]) {
    let wide = f64::from(scale);
    for ((o, c), &v) in out.iter_mut().zip(codes.iter_mut()).zip(values) {
        let code = rounded_code(v, wide);
        *o = code as f32 * scale;
        *c = raw_code(code);
    }
}

/// [`round_core`] compiled with AVX-512F codegen.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn round_avx512(values: &[f32], scale: f32, out: &mut [f32], codes: &mut [u16]) {
    round_core(values, scale, out, codes);
}

/// [`round_core`] compiled with AVX2 codegen.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn round_avx2(values: &[f32], scale: f32, out: &mut [f32], codes: &mut [u16]) {
    round_core(values, scale, out, codes);
}

/// A tensor in the chip's format: one code per value at a per-tensor
/// scale.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaledTensor {
    codes: Vec<u16>,
    scale: f32,
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

    /// Overwrites the raw bit pattern of element `index`: targeted fault
    /// injection for validation harnesses.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_code(&mut self, index: usize, raw: u16) {
        self.codes[index] = raw;
    }

    /// Total SRAM bits occupied.
    #[must_use]
    pub fn bit_len(&self) -> usize {
        self.codes.len() * CODE_BITS
    }

    /// Dequantizes back to floats.
    #[must_use]
    pub fn to_f32(&self) -> Vec<f32> {
        self.codes
            .iter()
            .map(|&raw| value(raw, self.scale))
            .collect()
    }

    /// Packs the codes into 64-bit SRAM words ([`pack_word`]).
    #[must_use]
    pub fn to_packed_words(&self) -> Vec<u64> {
        self.codes
            .chunks(LANES)
            .map(|lanes| pack_word(lanes.iter().copied()))
            .collect()
    }

    /// Reloads codes from packed words (after a fault overlay).
    ///
    /// # Panics
    ///
    /// Panics if `words` is shorter than this tensor requires.
    pub fn load_packed_words(&mut self, words: &[u64]) {
        let needed = self.codes.len().div_ceil(LANES);
        assert!(
            words.len() >= needed,
            "need {needed} words, got {}",
            words.len()
        );
        for (lanes, &word) in self.codes.chunks_mut(LANES).zip(words) {
            lanes.copy_from_slice(&unpack_word(word)[..lanes.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_round_trips_within_half_step() {
        let vals: Vec<f32> = (0..100).map(|i| (i as f32 - 50.0) * 0.007).collect();
        let t = quantize(&vals);
        let back = t.to_f32();
        for (&v, &b) in vals.iter().zip(&back) {
            assert!((v - b).abs() <= t.scale() * 0.5 + 1e-7, "v={v} b={b}");
        }
    }

    #[test]
    fn scale_covers_four_times_the_largest_magnitude() {
        let t = quantize(&[0.5f32, -0.25, 0.1]);
        // Range covers 4 * max|w| = 2.0, so one MSB flip injects ~2.0.
        let full_range = t.scale() * 32767.0;
        assert!((full_range - 2.0).abs() < 1e-3, "range {full_range}");
    }

    #[test]
    fn scaled_msb_flip_injects_guarded_magnitude() {
        let t = quantize(&[0.5f32, 0.1]);
        let mut words = t.to_packed_words();
        words[0] ^= 1 << 15; // MSB of lane 0
        let mut t2 = t.clone();
        t2.load_packed_words(&words);
        let vals = t2.to_f32();
        // Two's-complement MSB flip of a positive code subtracts 2^15 codes
        // = half the code range = 4 * max|w| = 2.0.
        assert!((vals[0] - (0.5 - 2.0)).abs() < 1e-3, "got {}", vals[0]);
    }

    #[test]
    fn scaled_packing_round_trips() {
        let vals: Vec<f32> = (0..13).map(|i| (i as f32 - 6.0) * 0.05).collect();
        let t = quantize(&vals);
        assert_eq!(t.bit_len(), 13 * 16);
        let words = t.to_packed_words();
        assert_eq!(words.len(), 4);
        // The last word holds one code; its other lanes are zero.
        assert_eq!(words[3], u64::from(t.codes()[12]));
        let mut t2 = t.clone();
        t2.load_packed_words(&words);
        assert_eq!(t, t2);
    }

    #[test]
    fn word_codec_puts_lane_0_in_the_low_bits() {
        let word = pack_word([0x0001, 0x8002, 0x7FFF, 0xFFFF]);
        assert_eq!(word, 0xFFFF_7FFF_8002_0001);
        assert_eq!(unpack_word(word), [0x0001, 0x8002, 0x7FFF, 0xFFFF]);
        assert_eq!(pack_word([0xABCD]), 0xABCD);
        // Lanes sign-extend: 0x8002 is -32766 codes, 0xFFFF is -1.
        let mut out = [f32::NAN; 3];
        dequantize_word_into(word, 0.5, &mut out);
        assert_eq!(out, [0.5, -16383.0, 16383.5]);
        // A word dequantizes to what `to_f32` gives its codes.
        let t = quantize(&[0.3, -0.7, 0.01, -1e-5, 0.2]);
        for (w, &word) in t.to_packed_words().iter().enumerate() {
            let range = w * LANES..(w * LANES + LANES).min(t.len());
            let mut out = vec![f32::NAN; range.len()];
            dequantize_word_into(word, t.scale(), &mut out);
            assert_eq!(out, t.to_f32()[range]);
        }
    }

    #[test]
    fn requantize_into_matches_quantize_then_to_f32_bitwise() {
        let vals: Vec<f32> = (0..257)
            .map(|i| ((i * 7919) % 1000) as f32 * 0.0013 - 0.65)
            .chain([0.0, -0.0, 1e-12])
            .collect();
        let t = quantize(&vals);
        let mut out = vec![f32::NAN; vals.len()];
        let mut codes = vec![0xAAAA; vals.len()];
        let scale = requantize_into(&vals, &mut out, &mut codes);
        assert_eq!(scale.to_bits(), t.scale().to_bits());
        assert_eq!(codes, t.codes());
        assert_eq!(scale.to_bits(), scale_of(&vals).to_bits());
        let want: Vec<u32> = t.to_f32().iter().map(|v| v.to_bits()).collect();
        let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want);
        // The codes are the spelled-out per-element formula: divide in
        // f64, round half away from zero, saturate.
        for (&v, &c) in vals.iter().zip(t.codes()) {
            let code = (f64::from(v) / f64::from(scale)).round() as i64;
            assert_eq!(c, code.clamp(-32768, 32767) as u16, "v={v}");
            assert_eq!(super::code(v, scale), c);
        }
    }

    /// The spelled-out rounding rule: divide in `f64`, `f64::round` (half
    /// away from zero), saturate. The saturating `as` cast sends NaN to 0.
    fn reference_code(value: f32, scale: f32) -> i64 {
        ((f64::from(value) / f64::from(scale)).round() as i64).clamp(-32768, 32767)
    }

    /// The spelled-out scale: a sequential maximum of `|v|` that skips NaN
    /// (every comparison with NaN is false), floored at `1e-9`, times the
    /// headroom over the largest code.
    fn reference_scale(values: &[f32]) -> f32 {
        let mut max_abs = 0.0f32;
        for &v in values {
            if v.abs() > max_abs {
                max_abs = v.abs();
            }
        }
        if max_abs < 1e-9 {
            max_abs = 1e-9;
        }
        max_abs * 4.0 / 32767.0
    }

    type RoundFn = fn(&[f32], f32, &mut [f32], &mut [u16]);
    type ScaleFn = fn(&[f32]) -> f32;

    /// Every compiled rounding loop this host can run, called directly:
    /// dispatch alone would never run the baseline core on an AVX2 host.
    fn round_variants() -> Vec<(&'static str, RoundFn)> {
        #[allow(unused_mut)]
        let mut variants: Vec<(&'static str, RoundFn)> = vec![("baseline", round_core)];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                variants.push(("avx2", |v, s, o, c| {
                    // SAFETY: listed only after AVX2 was detected.
                    unsafe { round_avx2(v, s, o, c) }
                }));
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                variants.push(("avx512", |v, s, o, c| {
                    // SAFETY: listed only after AVX-512F was detected.
                    unsafe { round_avx512(v, s, o, c) }
                }));
            }
        }
        variants
    }

    /// Every compiled scale fold this host can run (see [`round_variants`]).
    fn scale_variants() -> Vec<(&'static str, ScaleFn)> {
        #[allow(unused_mut)]
        let mut variants: Vec<(&'static str, ScaleFn)> = vec![("baseline", scale_core)];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                variants.push(("avx2", |v| {
                    // SAFETY: listed only after AVX2 was detected.
                    unsafe { scale_avx2(v) }
                }));
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                variants.push(("avx512", |v| {
                    // SAFETY: listed only after AVX-512F was detected.
                    unsafe { scale_avx512(v) }
                }));
            }
        }
        variants
    }

    /// Special inputs: ±0, quotients in (-0.5, 0) (which must give `+0.0`,
    /// not `-0.0`), NaN of both signs and a payload, ±∞, ±`f32::MAX` and
    /// subnormals.
    fn special_values(scale: f32) -> Vec<f32> {
        let tiny = f32::from_bits(1);
        vec![
            0.0,
            -0.0,
            -0.25 * scale,
            -0.499_99 * scale,
            -tiny,
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7FC0_1234),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            -f32::MAX,
            tiny,
            f32::MIN_POSITIVE / 2.0,
            -f32::MIN_POSITIVE / 2.0,
        ]
    }

    /// Runs `round` over `vals` and checks every output's bits against the
    /// reference code times `scale`, and every code against the reference
    /// code's two's-complement bits.
    fn assert_round_matches(name: &str, round: RoundFn, vals: &[f32], scale: f32) {
        let mut out = vec![f32::NAN; vals.len()];
        let mut codes = vec![0xAAAA; vals.len()];
        round(vals, scale, &mut out, &mut codes);
        for ((&v, &o), &c) in vals.iter().zip(&out).zip(&codes) {
            let code = reference_code(v, scale);
            let want = code as f32 * scale;
            assert_eq!(
                o.to_bits(),
                want.to_bits(),
                "{name}: v={v:e} scale={scale:e} got {o:e} want {want:e}"
            );
            assert_eq!(c, code as u16, "{name}: code of v={v:e}");
        }
    }

    #[test]
    fn rounding_matches_f64_round_bitwise_in_every_variant() {
        let qmax = 32767i64;
        // `(scale, whether every half-integer quotient is an exact tie)`.
        let scales = [
            (2f32.powi(-14), true),
            // `1/scale` is inexact enough here that a reciprocal multiply
            // misses most ties.
            (103.0 * 2f32.powi(-14), true),
            (scale_of(&[0.3]), false),
            // The `1e-9` floor an all-zero tensor gets.
            (scale_of(&[0.0]), false),
        ];
        for (scale, exact_ties) in scales {
            // Every half-integer quotient from below the code range to above
            // it, with the `f32` one ULP either side.
            let specials = special_values(scale);
            let mut vals = specials.clone();
            for k in (-qmax - 3)..=(qmax + 2) {
                let half = ((k as f64 + 0.5) * f64::from(scale)) as f32;
                vals.extend([half.next_down(), half, half.next_up()]);
            }
            vals.extend(&specials);
            if exact_ties {
                let ties = vals
                    .iter()
                    .filter(|&&v| (f64::from(v) / f64::from(scale)).fract().abs() == 0.5)
                    .count();
                assert!(ties >= 2 * qmax as usize, "only {ties} exact ties");
            }
            for &v in &vals {
                let want = reference_code(v, scale) as u16;
                assert_eq!(code(v, scale), want, "code: v={v:e} scale={scale:e}");
            }
            // Specials at every position of a vector body and its tail.
            let short: Vec<f32> = specials
                .iter()
                .cycle()
                .take(3 * specials.len())
                .copied()
                .collect();
            for (name, round) in round_variants() {
                assert_round_matches(name, round, &vals, scale);
                for len in 1..=short.len() {
                    assert_round_matches(name, round, &short[..len], scale);
                }
            }
        }
    }

    #[test]
    fn scale_fold_matches_the_sequential_maximum_in_every_variant() {
        let specials = [
            f32::NAN,
            -f32::NAN,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(1),
        ];
        let mut inputs: Vec<Vec<f32>> = vec![
            vec![f32::NAN; 37],
            vec![-0.0; 19],
            vec![0.0; 1],
            vec![f32::from_bits(1); 5],
        ];
        for len in 1..=70usize {
            let base: Vec<f32> = (0..len)
                .map(|i| ((i * 7919 + len * 31) % 1000) as f32 * 0.0017 - 0.85)
                .collect();
            inputs.push(base.clone());
            for &special in &specials {
                for pos in [0, len / 2, len - 1] {
                    let mut v = base.clone();
                    v[pos] = special;
                    inputs.push(v);
                }
            }
        }
        for vals in &inputs {
            let want = reference_scale(vals);
            assert_eq!(
                scale_of(vals).to_bits(),
                want.to_bits(),
                "dispatch: {vals:?}"
            );
            for (name, scale) in scale_variants() {
                assert_eq!(scale(vals).to_bits(), want.to_bits(), "{name}: {vals:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty tensor")]
    fn scaled_empty_rejected() {
        let _ = quantize(&[]);
    }
}
