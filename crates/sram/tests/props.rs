//! Property tests for the SRAM fault models.
//!
//! The dense per-cell die's properties live with the die itself, in
//! `dante-verify`'s `tests/dense_props.rs`: this crate cannot dev-depend on
//! `dante-verify` without linking two copies of its own types.

use dante_circuit::units::Volt;
use dante_sram::ber_fit::fit_vmin_model;
use dante_sram::ecc;
use dante_sram::fault::VminFaultModel;
use dante_sram::geometry::{BankGeometry, MemoryGeometry};
use dante_sram::math::{norm_ppf, phi_cdf, q_tail, q_tail_inv};
use dante_sram::model::DieFaultModel;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The BER curve is strictly decreasing in voltage.
    #[test]
    fn ber_monotone(mv in 300u32..640) {
        let m = VminFaultModel::default_14nm();
        let v = Volt::from_millivolts(f64::from(mv));
        let hv = Volt::from_millivolts(f64::from(mv + 10));
        prop_assert!(m.bit_error_rate(hv) < m.bit_error_rate(v));
    }

    /// voltage_for_ber and bit_error_rate are mutual inverses.
    #[test]
    fn ber_inverse_roundtrip(log_ber in -8.0f64..-0.31) {
        let m = VminFaultModel::default_14nm();
        let ber = 10f64.powf(log_ber);
        let v = m.voltage_for_ber(ber);
        let back = m.bit_error_rate(v);
        prop_assert!((back - ber).abs() / ber < 1e-2, "ber {ber} -> {v} -> {back}");
    }

    /// Probit regression recovers arbitrary generating models from their
    /// own noiseless curves.
    #[test]
    fn probit_fit_recovers_model(mu_mv in 340u32..420, sigma_mv in 20u32..80) {
        let truth = VminFaultModel::new(
            Volt::from_millivolts(f64::from(mu_mv)),
            Volt::from_millivolts(f64::from(sigma_mv)),
            0.5,
        );
        let points: Vec<_> = (0..10)
            .map(|i| {
                let v = Volt::from_millivolts(f64::from(mu_mv) - 40.0 + 14.0 * f64::from(i));
                (v, truth.bit_error_rate(v).clamp(1e-12, 0.999_999))
            })
            .collect();
        let fitted = fit_vmin_model(&points).expect("valid synthetic data");
        prop_assert!((fitted.mu().volts() - truth.mu().volts()).abs() < 2e-3);
        prop_assert!((fitted.sigma().volts() - truth.sigma().volts()).abs() < 2e-3);
    }

    /// Normal tail helpers are consistent: Q(Q^{-1}(p)) == p.
    #[test]
    fn tail_inverse_consistency(p in 1e-9f64..0.999) {
        let z = q_tail_inv(p);
        let back = q_tail(z);
        prop_assert!((back - p).abs() / p < 2e-2, "p {p} z {z} back {back}");
        // And the CDF/quantile pair agrees.
        let z2 = norm_ppf(p);
        prop_assert!((phi_cdf(z2) - p).abs() < 1e-5);
    }

    /// Memory address decode is a bijection onto (bank, word).
    #[test]
    fn address_decode_bijective(banks in 1usize..8, addr_frac in 0.0f64..1.0) {
        let geom = MemoryGeometry::new(BankGeometry::dante_64kbit(), banks);
        let addr = ((geom.words() - 1) as f64 * addr_frac) as usize;
        let (bank, word) = geom.decode(addr);
        prop_assert!(bank < banks);
        prop_assert!(word < geom.bank_geometry().words());
        prop_assert_eq!(bank * geom.bank_geometry().words() + word, addr);
    }

    /// SEC-DED corrects any single flip of any codeword.
    #[test]
    fn secded_single_correction(data in any::<u64>(), pos in 0u32..72) {
        let cw = ecc::encode(data);
        let (back, corr) = ecc::decode(cw.with_flip(pos));
        prop_assert_eq!(back, data);
        prop_assert_eq!(corr, ecc::Correction::Corrected { position: pos });
    }

    /// SEC-DED detects any double flip without silently corrupting.
    #[test]
    fn secded_double_detection(data in any::<u64>(), a in 0u32..72, b in 0u32..72) {
        prop_assume!(a != b);
        let cw = ecc::encode(data);
        let (_, corr) = ecc::decode(cw.with_flip(a).with_flip(b));
        prop_assert_eq!(corr, ecc::Correction::Uncorrectable);
    }

    /// Sparse fault sets are inclusive across voltage: above the sampling
    /// floor, lowering Vdd only adds corruption.
    #[test]
    fn sparse_fault_sets_are_inclusive_across_voltage(
        seed in any::<u64>(),
        floor_mv in 340u32..440,
        d1_mv in 0u32..60,
        d2_mv in 1u32..60,
    ) {
        let model = VminFaultModel::default_14nm();
        let v_floor = Volt::from_millivolts(f64::from(floor_mv));
        let overlay = DieFaultModel::Gaussian(model).overlay_from_seed(8_192, v_floor, seed);
        let lo = Volt::from_millivolts(f64::from(floor_mv + d1_mv));
        let hi = Volt::from_millivolts(f64::from(floor_mv + d1_mv + d2_mv));
        prop_assert!(overlay.fault_count(lo) >= overlay.fault_count(hi));
        let words = 8_192usize.div_ceil(64);
        let mut at_lo = Vec::new();
        let mut at_hi = Vec::new();
        overlay.corruption_words_into(lo, words, &mut at_lo);
        overlay.corruption_words_into(hi, words, &mut at_hi);
        for (w, (&l, &h)) in at_lo.iter().zip(&at_hi).enumerate() {
            prop_assert!(
                l & h == h,
                "word {w} lost corruption going down from {hi} to {lo}: {h:#x} -> {l:#x}"
            );
        }
    }

    /// Evaluating a sparse overlay below its sampling floor panics with a
    /// message naming the floor — faults below it were never sampled, so
    /// silently returning a too-small fault set would be wrong.
    #[test]
    fn sparse_overlay_rejects_voltages_below_its_floor(
        seed in any::<u64>(),
        floor_mv in 360u32..460,
        below_mv in 1u32..50,
    ) {
        let model = VminFaultModel::default_14nm();
        let v_floor = Volt::from_millivolts(f64::from(floor_mv));
        let overlay = DieFaultModel::Gaussian(model).overlay_from_seed(1_024, v_floor, seed);
        let v = Volt::from_millivolts(f64::from(floor_mv - below_mv));
        let readers: [&dyn Fn(); 2] = [
            &|| {
                let _ = overlay.fault_count(v);
            },
            &|| {
                let _ = overlay.corruption_word(0, v);
            },
        ];
        for read in readers {
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(read))
                .expect_err("evaluation below the floor must panic");
            let message = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_default();
            prop_assert!(
                message.contains("below this sparse overlay's sampling floor"),
                "panic message should name the floor, got: {message}"
            );
        }
    }

}

/// Promoted proptest regression (shrunk to `mu_mv = 300, sigma_mv = 20`):
/// `probit_fit_recovers_model` once generated a model whose lowest curve
/// sample (`mu - 40 mV = 260 mV`) dipped below [`V_DATA_RETENTION`], where a
/// bit error *rate* is meaningless. The generator range now stays above the
/// floor; this pins the shrunk case and the loud failure mode it exposed.
#[test]
#[should_panic(expected = "below the data-retention voltage")]
fn probit_curve_below_retention_panics_regression() {
    let truth = VminFaultModel::new(
        Volt::from_millivolts(300.0),
        Volt::from_millivolts(20.0),
        0.5,
    );
    let _points: Vec<_> = (0..10)
        .map(|i| {
            let v = Volt::from_millivolts(300.0 - 40.0 + 14.0 * f64::from(i));
            (v, truth.bit_error_rate(v).clamp(1e-12, 0.999_999))
        })
        .collect();
}
