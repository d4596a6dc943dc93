//! The paper's quantitative claims, checked against the models
//! (see EXPERIMENTS.md for the full paper-vs-measured accounting).

use dante_circuit::booster::{reference, BoosterBank};
use dante_circuit::units::Volt;
use dante_dataflow::activity::Dataflow;
use dante_dataflow::fc_dana::DanaFcDataflow;
use dante_dataflow::row_stationary::RowStationaryDataflow;
use dante_dataflow::workloads::{alexnet_conv, mnist_fc};
use dante_sram::fault::VminFaultModel;

#[test]
fn abstract_headlines_land_in_band() {
    let h = dante::headlines::compute();
    // "boosting results in up to 26% ... energy savings compared to having
    // dual supplies" (AlexNet, full boost).
    assert!((0.20..=0.40).contains(&h.alexnet_peak_savings_vs_dual));
    // "...and on average 17% energy savings..."
    assert!((0.10..=0.30).contains(&h.alexnet_avg_savings_vs_dual));
    // "Boosting results in 30% energy savings compared to having a single
    // supply ... that achieves the same accuracy."
    assert!((0.18..=0.45).contains(&h.alexnet_savings_vs_single_048));
    // "...and a 32% savings in leakage energy per cycle on average."
    assert!((0.22..=0.45).contains(&h.leakage_savings_vs_dual));
    // "the booster circuit results in only 6% overhead."
    assert!((0.04..=0.08).contains(&h.booster_leakage_overhead));
}

#[test]
fn table3_access_ratios() {
    let fc = DanaFcDataflow::new().activity(&mnist_fc());
    let rs = RowStationaryDataflow::new().activity(&alexnet_conv());
    assert!(
        (fc.access_mac_ratio() - 0.75).abs() < 0.01,
        "MNIST: {}",
        fc.access_mac_ratio()
    );
    assert!(
        (rs.access_mac_ratio() - 0.0167).abs() < 0.004,
        "AlexNet: {}",
        rs.access_mac_ratio()
    );
}

#[test]
fn section2_bit_error_anchor() {
    // "the same bit error rate, say at 0.014 at 0.44V".
    let model = VminFaultModel::default_14nm();
    let ber = model.bit_error_rate(Volt::new(0.44));
    assert!((ber - 0.014).abs() < 0.002, "BER(0.44 V) = {ber}");
    // Zero fails at 0.6 V on the 4 Mbit test array.
    assert!(model.expected_failures(Volt::new(0.60), 4 << 20) < 0.5);
}

#[test]
fn section3_boost_capability() {
    // "capable of achieving up to 50% peak boost in supply voltage".
    let bank = BoosterBank::standard();
    let vdd = Volt::new(0.40);
    let peak = bank.boost_amount(vdd, 4).volts() / vdd.volts();
    assert!((0.45..=0.55).contains(&peak), "peak boost fraction {peak}");
    // Fig. 4: "increments of the order of 50 mV" per level at 0.4 V.
    let ladder = bank.voltage_ladder(vdd);
    for w in ladder.windows(2) {
        let step = (w[1] - w[0]).millivolts();
        assert!((35.0..=65.0).contains(&step), "step {step} mV");
    }
}

#[test]
fn section6_iso_accuracy_levels() {
    // Sec. 6.2: "it is necessary to expend the energy cost of Boost_Vddv3 at
    // 0.38V, whereas Boost_Vddv1 is sufficient when operating at 0.46V."
    let bank = BoosterBank::standard();
    let target = Volt::new(0.48);
    assert_eq!(bank.min_level_reaching(Volt::new(0.38), target), Some(3));
    assert_eq!(bank.min_level_reaching(Volt::new(0.46), target), Some(1));
    assert_eq!(bank.min_level_reaching(Volt::new(0.48), target), Some(0));
}

#[test]
fn fig6_mim_comparison_claims() {
    let vdd = Volt::new(0.40);
    // "MIMBoost-A generates 14x the boosted voltage for the same area".
    let boost_ratio = reference::mim_boost_a().boost_amount(vdd, 1)
        / reference::no_mim_boost_a().boost_amount(vdd, 1);
    assert!(
        (8.0..=25.0).contains(&boost_ratio),
        "boost ratio {boost_ratio}"
    );
    let area_ratio = reference::mim_boost_a().area() / reference::no_mim_boost_a().area();
    assert!(
        (0.8..=1.25).contains(&area_ratio),
        "A-pair area ratio {area_ratio}"
    );
    // "noMIMBoost-B ... is 8x the area of MIMBoost-B" and "expending 10x the
    // energy ... generating roughly the same boosted voltage".
    assert!(reference::no_mim_boost_b().area() / reference::mim_boost_b().area() >= 8.0);
    let vb_ratio = reference::no_mim_boost_b().boost_amount(vdd, 1)
        / reference::mim_boost_b().boost_amount(vdd, 1);
    assert!(
        (0.6..=1.5).contains(&vb_ratio),
        "B-pair boost ratio {vb_ratio}"
    );
    let e_ratio = reference::no_mim_boost_b().boost_event_energy(vdd, 1)
        / reference::mim_boost_b().boost_event_energy(vdd, 1);
    assert!(e_ratio > 5.0, "B-pair energy ratio {e_ratio}");
}

#[test]
fn fig12_design_space_shape() {
    use dante_energy::design_space::{sweep, DesignSpaceScenario};
    // Boosting wins at accelerator-realistic ratios, loses in the
    // memory-dominated corner — the crossover the paper's Fig. 12 shows.
    let win = sweep(DesignSpaceScenario::default(), &[0.0167], &[3.0]);
    assert!(win[0].boosted_over_dual < 0.85);
    let lose = sweep(DesignSpaceScenario::default(), &[4.0], &[1.0]);
    assert!(lose[0].boosted_over_dual > 1.0);
}

#[test]
fn table1_chip_parameters() {
    let c = dante_accel::chip::ChipConfig::dante();
    assert!((c.die_area_mm2() - 2.32).abs() < 0.01);
    assert_eq!(c.total_sram_bytes(), 144 * 1024);
    assert_eq!(c.total_macros(), 36);
    assert_eq!(c.boost_levels, 4);
    assert!((c.booster_area_per_macro.square_microns() - 3900.0).abs() < 1.0);
    assert!((c.mim_capacitance_pf - 40.0).abs() < 1e-9);
    // The energy model's bank count (bank leakage, scheduled-boost
    // striping) and calibrated bank size are the simulated memories'.
    use dante_energy::params::{CALIBRATED_BANK_BITS, DANTE_BANKS};
    assert_eq!(
        c.weight_memory.banks() + c.input_memory.banks(),
        DANTE_BANKS
    );
    for memory in [c.weight_memory, c.input_memory] {
        assert_eq!(memory.bank_geometry().capacity_bits(), CALIBRATED_BANK_BITS);
    }
}

#[test]
fn fig9_latency_reduction_claim() {
    // "boosting peripheral logic and the array leads to a maximum of 35%
    // reduction in overall macro access latency at 0.5V".
    use dante_circuit::booster::BoostScope;
    use dante_circuit::latency::SramTiming;
    let timing = SramTiming::macro_32kbit();
    let bank = BoosterBank::standard();
    let frac = timing.boosted_access_fraction(Volt::new(0.5), &bank, 4, BoostScope::Macro);
    assert!(
        (0.25..=0.45).contains(&(1.0 - frac)),
        "reduction {}",
        1.0 - frac
    );
}
