//! Criterion benches for the accelerator simulator itself: the cost of one
//! bit-accurate boosted inference and of drawing the fault die its weight
//! memory carries.

use criterion::{criterion_group, criterion_main, Criterion};
use dante_accel::chip::ChipConfig;
use dante_accel::executor::{BoostSchedule, Dante};
use dante_accel::program::Program;
use dante_circuit::units::Volt;
use dante_nn::layers::{Dense, Layer, Relu};
use dante_nn::network::Network;
use dante_sram::model::FaultModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_accelerator(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let net = Network::new(vec![
        Layer::Dense(Dense::new(64, 64, &mut rng)),
        Layer::Relu(Relu::new(64)),
        Layer::Dense(Dense::new(64, 10, &mut rng)),
    ])
    .expect("static shapes");
    let calib: Vec<f32> = (0..64).map(|i| i as f32 / 64.0).collect();
    let program = Program::compile(&net, &calib).expect("dense network compiles");

    let mut g = c.benchmark_group("accelerator-sim");
    g.sample_size(10);
    g.bench_function("boosted_inference_64x64x10", |b| {
        let mut dante = Dante::new(
            ChipConfig::dante(),
            &FaultModel::default(),
            Volt::new(0.40),
            0,
        );
        let schedule = BoostSchedule::uniform(4, 2, 1);
        b.iter(|| black_box(dante.run(&program, &schedule, &calib)))
    });
    g.bench_function("weight_memory_die_1mbit_at_040v", |b| {
        // The draw `Dante::new` makes for its 128 KB weight memory.
        let die = FaultModel::default().resolve_die(0);
        let bits = ChipConfig::dante().weight_memory.words() * 64;
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(die.overlay_from_seed(bits, Volt::new(0.40), seed))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_accelerator);
criterion_main!(benches);
