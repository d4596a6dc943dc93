//! Quickstart: the paper's story in sixty lines.
//!
//! Builds a small dense network, compiles it for the Dante accelerator
//! simulator, and runs it at a very low supply voltage — first unboosted
//! (SRAM bit errors corrupt the output), then with the programmable booster
//! at full level (errors vanish), printing the boosted-voltage ladder and
//! the energy trade-off along the way.
//!
//! Run with: `cargo run --release --example quickstart`

use dante_accel::chip::ChipConfig;
use dante_accel::executor::{BoostSchedule, Dante};
use dante_accel::program::Program;
use dante_circuit::units::Volt;
use dante_energy::supply::{BoostedGroup, EnergyModel};
use dante_nn::layers::{Dense, Layer, Relu};
use dante_nn::network::Network;
use dante_sram::model::{CellFaultRate, FaultModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let vdd = Volt::new(0.38);
    let mut rng = StdRng::seed_from_u64(7);

    // A small network and a probe input.
    let net = Network::new(vec![
        Layer::Dense(Dense::new(32, 24, &mut rng)),
        Layer::Relu(Relu::new(24)),
        Layer::Dense(Dense::new(24, 8, &mut rng)),
    ])?;
    let sample: Vec<f32> = (0..32).map(|i| (i as f32 / 32.0).sin().abs()).collect();
    let program = Program::compile(&net, &sample)?;

    // The programmable booster's voltage ladder at this supply.
    let energy = EnergyModel::dante_chip();
    println!("supply Vdd = {vdd:.2}; boosted rail per level:");
    for (level, v) in energy.booster().voltage_ladder(vdd).iter().enumerate() {
        println!("  level {level}: {v:.3}");
    }

    // Reference: a fault-free chip.
    let mut ideal = Dante::fault_free(ChipConfig::dante(), vdd);
    let reference = ideal.run(&program, &BoostSchedule::uniform(0, 2, 0), &sample);

    // A real (faulty) die at the same voltage.
    let model = FaultModel::default();
    println!(
        "\nbit error rate at {vdd:.2}: {:.2e} (and {:.2e} at the boosted 0.57 V rail)",
        model.marginal_ber(vdd),
        model.marginal_ber(energy.booster().boosted_voltage(vdd, 4)),
    );
    let mut dante = Dante::new(ChipConfig::dante(), &model, vdd, 7);

    let unboosted = dante.run(&program, &BoostSchedule::uniform(0, 2, 0), &sample);
    let boosted = dante.run(&program, &BoostSchedule::uniform(4, 2, 4), &sample);

    println!("\nreference logits: {:?}", &reference.logits[..4]);
    println!("unboosted logits: {:?}", &unboosted.logits[..4]);
    println!("boosted logits:   {:?}", &boosted.logits[..4]);
    println!(
        "unboosted output {} the reference; boosted output {} the reference",
        if unboosted.codes == reference.codes {
            "matches"
        } else {
            "DIVERGES from"
        },
        if boosted.codes == reference.codes {
            "matches"
        } else {
            "DIVERGES from"
        },
    );

    // What the boost costs and what it saves (Eq. 3 vs Eq. 6).
    let accesses = dante.weight_stats().total() + dante.input_stats().total();
    let macs = dante.stats().macs;
    let boost_e = energy.dynamic_boosted(vdd, &[BoostedGroup { accesses, level: 4 }], macs);
    let dual_e = energy.dynamic_dual(energy.vddv(vdd, 4), vdd, accesses, macs);
    println!(
        "\ndynamic energy for this run: boosted {:.2} pJ vs dual-supply {:.2} pJ ({:.0}% savings)",
        boost_e.picojoules(),
        dual_e.picojoules(),
        (1.0 - boost_e.joules() / dual_e.joules()) * 100.0
    );
    Ok(())
}
