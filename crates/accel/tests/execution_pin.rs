//! Pins the accelerator's execution bit for bit: every stage's output
//! codes, the logits and prediction, the execution counters and both
//! memories' per-level reads and writes of traced runs fold to one FNV-1a
//! digest per network, over fault-free and faulty chips and three boost
//! schedules. A change to how the executor tiles, reads or computes a
//! weight stage that moves any of these moves a digest.

use dante_accel::memory::MemoryStats;
use dante_accel::{BoostSchedule, ChipConfig, Dante, Program};
use dante_circuit::units::Volt;
use dante_nn::layers::{Conv2d, Dense, Layer, MaxPool2d, Relu, Shape3};
use dante_nn::network::Network;
use dante_sram::model::FaultModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn fold_u64s<'a>(hash: u64, values: impl IntoIterator<Item = &'a u64>) -> u64 {
    values
        .into_iter()
        .fold(hash, |h, v| fnv1a(h, &v.to_le_bytes()))
}

fn fold_memory(hash: u64, stats: &MemoryStats) -> u64 {
    let hash = fold_u64s(hash, &stats.reads_per_level);
    fold_u64s(hash, &stats.writes_per_level)
}

/// Deterministic input values in `[-1, 1)`; `k` picks the sample.
fn sample(len: usize, k: usize) -> Vec<f32> {
    (0..len)
        .map(|i| ((i * 37 + k * 11) % 101) as f32 / 50.0 - 1.0)
        .collect()
}

/// The chips every program runs on: a fault-free one, and one die of each
/// fault model at 360 and 420 mV.
fn chips() -> Vec<Dante> {
    let chip = ChipConfig::dante();
    let mut chips = vec![Dante::fault_free(chip.clone(), Volt::new(0.5))];
    for model in [
        FaultModel::gaussian_default(),
        FaultModel::burst_default(),
        FaultModel::chip_variation_default(),
    ] {
        for vdd in [0.36, 0.42] {
            chips.push(Dante::new(chip.clone(), &model, Volt::new(vdd), 17));
        }
    }
    chips
}

/// Uniform level 0; uniform level 4 with inputs at 1; and a per-layer plan.
fn schedules(weight_stages: usize) -> [BoostSchedule; 3] {
    let plan = (0..weight_stages).map(|l| [3, 0, 2, 1][l % 4]).collect();
    [
        BoostSchedule::uniform(0, weight_stages, 0),
        BoostSchedule::uniform(4, weight_stages, 1),
        BoostSchedule::per_layer(plan, 2),
    ]
}

/// Compiles `net` and folds two traced runs per chip and schedule, each
/// on a fresh copy of the chip.
fn digest(net: &Network, chips: &[Dante]) -> u64 {
    let calibration: Vec<f32> = (0..3).flat_map(|k| sample(net.in_len(), k)).collect();
    let program = Program::compile(net, &calibration).expect("network compiles");
    let mut hash = 0xCBF2_9CE4_8422_2325;
    for chip in chips {
        for schedule in &schedules(program.weight_layer_count()) {
            let mut dante = chip.clone();
            for k in 3..5 {
                let trace = dante.run_traced(&program, schedule, &sample(net.in_len(), k));
                for codes in &trace.layer_codes {
                    hash = fnv1a(hash, &(codes.len() as u64).to_le_bytes());
                    for &c in codes {
                        hash = fnv1a(hash, &c.to_le_bytes());
                    }
                }
                for &logit in &trace.result.logits {
                    hash = fnv1a(hash, &logit.to_bits().to_le_bytes());
                }
                hash = fnv1a(hash, &(trace.result.prediction as u64).to_le_bytes());
                let s = dante.stats();
                hash = fold_u64s(
                    hash,
                    &[s.macs, s.instructions, s.boost_config_writes, s.cycles],
                );
                hash = fold_memory(hash, dante.weight_stats());
                hash = fold_memory(hash, dante.input_stats());
            }
        }
    }
    hash
}

fn dense(sizes: &[usize], seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut layers = Vec::new();
    for (i, pair) in sizes.windows(2).enumerate() {
        layers.push(Layer::Dense(Dense::new(pair[0], pair[1], &mut rng)));
        if i + 2 < sizes.len() {
            layers.push(Layer::Relu(Relu::new(pair[1])));
        }
    }
    Network::new(layers).unwrap()
}

#[test]
fn chip_runs_are_pinned() {
    let chips = chips();

    // The seeded 64-64-10 program of `BENCH_mc.json`'s accelerator row.
    let small = dense(&[64, 64, 10], 0);
    // 196-word rows: the 16,384-word weight memory holds 83 of them, so
    // the first layer's 256 rows run in 4 tiles.
    let mnist = dense(&[784, 256, 10], 1);

    let mut rng = StdRng::seed_from_u64(2);
    let conv_stack = Network::new(vec![
        Layer::Conv2d(Conv2d::new(Shape3::new(3, 16, 16), 6, 3, 1, &mut rng)),
        Layer::Relu(Relu::new(6 * 16 * 16)),
        Layer::MaxPool2d(MaxPool2d::new(Shape3::new(6, 16, 16))),
        Layer::Conv2d(Conv2d::new(Shape3::new(6, 8, 8), 5, 5, 2, &mut rng)),
        Layer::Dense(Dense::new(5 * 8 * 8, 10, &mut rng)),
    ])
    .unwrap();

    let mut rng = StdRng::seed_from_u64(3);
    let unpadded = Network::new(vec![Layer::Conv2d(Conv2d::new(
        Shape3::new(2, 9, 7),
        4,
        5,
        0,
        &mut rng,
    ))])
    .unwrap();

    let digests: Vec<u64> = [&small, &mnist, &conv_stack, &unpadded]
        .into_iter()
        .map(|net| digest(net, &chips))
        .collect();
    assert_eq!(
        digests,
        [
            0x41A8_D96E_6964_14EE,
            0xE194_174E_C56A_FB67,
            0xD691_5601_B9C6_04AB,
            0x1257_A9A9_0B9A_1D92,
        ],
        "{digests:#018x?}"
    );
}
