//! Multi-context service: two networks resident on one accelerator, each
//! with its own boost schedule — the DANA-heritage scenario that motivates
//! *programmable* (rather than fixed) boosting.
//!
//! A "sensitive" context (weights need a high rail) and a "tolerant"
//! context (level 1 suffices) share the chip at 0.40 V. A fixed booster
//! would have to run everything at the sensitive context's level; the
//! programmable architecture reprograms per context switch and pockets the
//! difference.
//!
//! Run with: `cargo run --release --example multi_context`

use dante::report::InferenceEnergyReport;
use dante_accel::chip::ChipConfig;
use dante_accel::executor::{BoostSchedule, Dante};
use dante_accel::isa::{Instruction, MemoryId};
use dante_accel::program::Program;
use dante_accel::{Context, MultiContextDante, Request};
use dante_circuit::bic::BoostConfig;
use dante_circuit::units::Volt;
use dante_energy::supply::EnergyModel;
use dante_nn::layers::{Dense, Layer, Relu};
use dante_nn::network::Network;
use dante_sram::model::FaultModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn build_program(seed: u64, inputs: usize, hidden: usize) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let net = Network::new(vec![
        Layer::Dense(Dense::new(inputs, hidden, &mut rng)),
        Layer::Relu(Relu::new(hidden)),
        Layer::Dense(Dense::new(hidden, 4, &mut rng)),
    ])
    .expect("static shapes");
    let calib: Vec<f32> = (0..inputs).map(|i| i as f32 / inputs as f32).collect();
    Program::compile(&net, &calib).expect("dense network compiles")
}

fn main() {
    let vdd = Volt::new(0.40);
    let dante = Dante::new(ChipConfig::dante(), &FaultModel::default(), vdd, 1);
    let mut host = MultiContextDante::new(dante);

    let sensitive = host.register(Context::new(
        "keyword-spotting (sensitive)",
        build_program(10, 24, 20),
        BoostSchedule::uniform(4, 2, 2),
    ));
    let tolerant = host.register(Context::new(
        "wake-word filter (tolerant)",
        build_program(11, 16, 12),
        BoostSchedule::uniform(1, 2, 1),
    ));

    // An interleaved request stream, as an always-on edge device would see.
    let mut requests = Vec::new();
    for k in 0..12 {
        let (ctx, len) = if k % 3 == 0 {
            (sensitive, 24)
        } else {
            (tolerant, 16)
        };
        let sample: Vec<f32> = (0..len)
            .map(|i| ((i + k) as f32 * 0.37).sin().abs())
            .collect();
        requests.push(Request {
            context: ctx,
            sample,
        });
    }
    let results = host.serve_all(&requests);
    println!(
        "served {} requests across {} contexts with {} context switches",
        results.len(),
        host.contexts(),
        host.stats().switches
    );

    // What the boost hardware actually did, bucketed by level.
    let w = host.dante().weight_stats().accesses_per_level();
    println!("\nweight-memory accesses per boost level: {w:?}");
    println!("(level 4 = sensitive context, level 1 = tolerant context)");

    // Energy: as executed vs "provision everything at level 4".
    let model = EnergyModel::dante_chip();
    let report = InferenceEnergyReport::from_run(host.dante(), &model);
    let fixed_level4 = model.dynamic_boosted(
        vdd,
        &[dante_energy::supply::BoostedGroup {
            accesses: report.sram_accesses,
            level: 4,
        }],
        report.macs,
    );
    println!(
        "\ndynamic energy as executed: {:.2} pJ; with a fixed level-4 booster: {:.2} pJ ({:.1}% wasted)",
        report.boosted_dynamic.picojoules(),
        fixed_level4.picojoules(),
        (fixed_level4.joules() / report.boosted_dynamic.joules() - 1.0) * 100.0
    );

    // The instruction the hardware sees at each switch:
    let example = Instruction::set_boost_config(MemoryId::Weight, 0, BoostConfig::from_level(1, 4));
    println!("\nper-switch reconfiguration instruction: `{example}`");
}
