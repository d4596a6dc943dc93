//! Fixed-point processing-element arithmetic: 16-bit MAC datapath with a
//! 64-bit accumulator, rounding requantization, and ReLU.
//!
//! The taped-out chip's PEs perform multiply-and-accumulate and activation
//! computation (paper Sec. 4). Arithmetic here is bit-exact and fully
//! deterministic, so an accelerator run can be compared word-for-word
//! against a host-side reference.

/// Multiply-accumulate: `acc + w * x` in a wide accumulator.
#[must_use]
pub fn mac(acc: i64, w: i16, x: i16) -> i64 {
    acc + i64::from(w) * i64::from(x)
}

/// Requantizes a wide accumulator to a 16-bit activation code:
/// `round(acc * multiplier / 2^shift)`, saturating.
///
/// `multiplier/2^shift` approximates `s_w * s_x / s_out`, the scale change
/// from the product domain to the output activation domain.
///
/// # Panics
///
/// Panics if `shift >= 63` (the rounding bias would overflow).
#[must_use]
pub fn requantize(acc: i64, multiplier: i32, shift: u32) -> i16 {
    assert!(shift < 63, "requantization shift too large");
    let prod = i128::from(acc) * i128::from(multiplier);
    let bias = 1i128 << shift >> 1; // 2^(shift-1), 0 when shift == 0
    let rounded = if prod >= 0 {
        (prod + bias) >> shift
    } else {
        -((-prod + bias) >> shift)
    };
    rounded.clamp(i128::from(i16::MIN), i128::from(i16::MAX)) as i16
}

/// Fixed-point ReLU.
#[must_use]
pub fn relu_q(x: i16) -> i16 {
    x.max(0)
}

/// Derives a `(multiplier, shift)` pair approximating `ratio` with a
/// 31-bit multiplier (standard quantized-inference scheme).
///
/// # Panics
///
/// Panics unless `ratio` is positive and finite.
#[must_use]
pub fn quantize_multiplier(ratio: f64) -> (i32, u32) {
    assert!(
        ratio > 0.0 && ratio.is_finite(),
        "requant ratio must be positive and finite"
    );
    let mut shift = 0u32;
    let mut scaled = ratio;
    // Normalize into [2^30, 2^31) so the multiplier keeps full precision.
    while scaled < (1u64 << 30) as f64 && shift < 62 {
        scaled *= 2.0;
        shift += 1;
    }
    while scaled >= (1u64 << 31) as f64 && shift > 0 {
        scaled /= 2.0;
        shift -= 1;
    }
    let m = scaled.round();
    assert!(
        m <= f64::from(i32::MAX),
        "requant ratio {ratio} too large to encode"
    );
    (m as i32, shift)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_accumulates_products() {
        assert_eq!(mac(10, 3, 4), 22);
        assert_eq!(mac(0, -5, 7), -35);
        assert_eq!(
            mac(i64::from(i32::MAX), i16::MAX, i16::MAX),
            i64::from(i32::MAX) + 1_073_676_289
        );
    }

    #[test]
    fn requantize_rounds_to_nearest() {
        // ratio = 1/4 via multiplier 1, shift 2.
        assert_eq!(requantize(8, 1, 2), 2);
        assert_eq!(requantize(9, 1, 2), 2); // 2.25 -> 2
        assert_eq!(requantize(10, 1, 2), 3); // 2.5 -> 3 (round half away)
        assert_eq!(requantize(-10, 1, 2), -3);
        assert_eq!(requantize(7, 1, 0), 7);
    }

    #[test]
    fn requantize_saturates_to_i16() {
        assert_eq!(requantize(1 << 40, 1, 0), i16::MAX);
        assert_eq!(requantize(-(1 << 40), 1, 0), i16::MIN);
        // The widest products saturate at both rails.
        assert_eq!(requantize(i64::MAX, i32::MAX, 0), i16::MAX);
        assert_eq!(requantize(i64::MIN, i32::MAX, 0), i16::MIN);
    }

    #[test]
    fn relu_clamps_negative_codes() {
        assert_eq!(relu_q(-5), 0);
        assert_eq!(relu_q(0), 0);
        assert_eq!(relu_q(123), 123);
    }

    #[test]
    fn quantize_multiplier_approximates_ratio() {
        for &ratio in &[3e-5f64, 0.25, 0.999, 1.0, 7.3] {
            let (m, s) = quantize_multiplier(ratio);
            let approx = f64::from(m) / (1u64 << s) as f64;
            assert!(
                (approx - ratio).abs() / ratio < 1e-8,
                "ratio {ratio} -> {approx} (m={m}, s={s})"
            );
        }
    }

    #[test]
    fn requantize_with_derived_multiplier_matches_float() {
        let ratio = 3.1e-5f64;
        let (m, s) = quantize_multiplier(ratio);
        for &acc in &[0i64, 1_000_000, -2_345_678, 987_654_321] {
            let expected = (acc as f64 * ratio).round() as i64;
            let got = i64::from(requantize(acc, m, s));
            assert!(
                (expected - got).abs() <= 1,
                "acc {acc}: expected ~{expected}, got {got}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn non_positive_ratio_rejected() {
        let _ = quantize_multiplier(0.0);
    }
}
