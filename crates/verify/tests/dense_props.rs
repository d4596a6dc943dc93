//! Property tests for the dense per-cell fault die (`dante_verify::dense`),
//! plus the pin that keeps the benchmark harness's private copy of the
//! dense draw identical to the oracle.

use dante_bench::perf::dense_die;
use dante_circuit::units::Volt;
use dante_sim::{derive_seed, site};
use dante_sram::fault::VminFaultModel;
use dante_sram::model::DieFaultModel;
use dante_verify::dense::{FaultOverlay, VminField};
use dante_verify::stats::wilson_interval;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Fault maps are pure functions of their derived seed: regenerating an
    /// overlay from the same `(root_seed, trial)` pair yields an identical
    /// die, bit for bit.
    #[test]
    fn fault_overlay_is_pure_in_its_seed(root in any::<u64>(), trial in 0u64..1000) {
        let model = VminFaultModel::default_14nm();
        let seed = derive_seed(root, site::TRIAL, trial);
        let a = FaultOverlay::from_seed(4096, &model, seed);
        let b = FaultOverlay::from_seed(4096, &model, seed);
        let v = Volt::new(0.40);
        prop_assert_eq!(a.corruption_words(v), b.corruption_words(v));
        prop_assert_eq!(
            a.vmins().fault_mask(v).words(),
            b.vmins().fault_mask(v).words()
        );
        // Distinct trials draw distinct dies (collisions on a 4096-bit
        // pattern at cliff-region BER are astronomically unlikely).
        let other = FaultOverlay::from_seed(4096, &model, derive_seed(root, site::TRIAL, trial + 1));
        prop_assert!(
            a.vmins().fault_mask(v) != other.vmins().fault_mask(v)
                || a.corruption_words(v) != other.corruption_words(v)
        );
    }

    /// Fault sets are inclusive across voltage: every cell that fails at a
    /// higher supply also fails at any lower one, so lowering Vdd only adds
    /// faults to a die — it never repairs one.
    #[test]
    fn fault_sets_are_inclusive_across_voltage(
        seed in any::<u64>(),
        lo_mv in 300u32..500,
        delta_mv in 1u32..150,
    ) {
        let model = VminFaultModel::default_14nm();
        let overlay = FaultOverlay::from_seed(2048, &model, seed);
        let lo = Volt::from_millivolts(f64::from(lo_mv));
        let hi = Volt::from_millivolts(f64::from(lo_mv + delta_mv));
        let at_lo = overlay.vmins().fault_mask(lo);
        let at_hi = overlay.vmins().fault_mask(hi);
        prop_assert!(
            at_lo.is_superset_of(&at_hi),
            "die gained working cells going down from {hi} to {lo}"
        );
        prop_assert!(at_lo.count() >= at_hi.count());
    }

    /// Sparse and dense overlays of the same size both put their observed
    /// flip rate inside the Wilson band around the analytic expectation
    /// `BER(v) * p_flip` — the two samplers target the same distribution.
    #[test]
    fn sparse_and_dense_flip_counts_agree_within_wilson_bounds(
        seed in 0u64..200,
        mv in 360u32..460,
    ) {
        let model = VminFaultModel::default_14nm();
        let bits = 50_000usize;
        let v = Volt::from_millivolts(f64::from(mv));
        let expected = model.bit_error_rate(v) * model.read_flip_probability();
        let dense = FaultOverlay::from_seed(bits, &model, seed);
        let sparse = DieFaultModel::Gaussian(model).overlay_from_seed(bits, v, seed);
        for (name, count) in [
            ("dense", dense.flip_count(v)),
            ("sparse", sparse.flip_count(v)),
        ] {
            let (lo, hi) = wilson_interval(count as u64, bits as u64, 5.0);
            prop_assert!(
                (lo - 1e-4..=hi + 1e-4).contains(&expected),
                "{name} flip rate {}/{bits} puts analytic {expected:.4e} outside \
                 Wilson [{lo:.4e}, {hi:.4e}] at {v}",
                count
            );
        }
    }

    /// Empirical die BER tracks the analytic model within binomial noise.
    #[test]
    fn die_ber_tracks_model(seed in 0u64..100) {
        let model = VminFaultModel::default_14nm();
        let mut rng = StdRng::seed_from_u64(seed);
        let field = VminField::generate(50_000, &model, &mut rng);
        let v = Volt::new(0.40);
        let analytic = model.bit_error_rate(v);
        let empirical = field.empirical_ber(v);
        let sigma = (analytic * (1.0 - analytic) / 50_000.0).sqrt();
        prop_assert!((empirical - analytic).abs() < 6.0 * sigma + 1e-4);
    }
}

/// `BENCH_mc.json`'s `generation.dense` row and perf_smoke's live 100x gate
/// time `dante_bench::perf::dense_die`, a private copy of
/// [`FaultOverlay::from_seed`] (`dante-bench` cannot depend on this crate).
/// The copy must draw the same V_mins and the same flip words, so the gate
/// keeps timing the oracle's draw.
#[test]
fn bench_dense_draw_matches_the_oracle() {
    let model = VminFaultModel::default_14nm();
    for (bits, seed) in [(1, 0), (130, 1), (4096, 2), (100_003, 3), (65_536, 0x5A17)] {
        let (vmins, flips) = dense_die(bits, &model, seed);
        let oracle = FaultOverlay::from_seed(bits, &model, seed);
        assert_eq!(vmins, oracle.vmins().values(), "V_mins of seed {seed}");
        assert_eq!(flips, oracle.flip_words(), "flip words of seed {seed}");
    }
}
