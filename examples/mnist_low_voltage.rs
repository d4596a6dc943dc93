//! The MNIST FC-DNN at very low voltage (a compact Fig. 13).
//!
//! Trains (or loads from cache) the paper's 784-256-256-256-10 network on
//! the procedural digit set, then runs one sweep per Table 2 boost
//! configuration (`SupplySpec::BoostedPlan`), printing accuracy and
//! normalized dynamic energy for boost vs. single vs. dual supply.
//!
//! Run with: `cargo run --release --example mnist_low_voltage`
//! (set `DANTE_TRIALS` / `DANTE_TEST_N` to rescale the Monte-Carlo, and
//! `DANTE_THREADS` to pin the trial engine's worker count)

use dante::accuracy::{AccuracyEvaluator, VoltageAssignment};
use dante::artifacts::trained_mnist_fc;
use dante::schedule::NamedBoostConfig;
use dante::sweep::{NetworkSpec, PreparedSweep, SupplySpec, SweepPoint, SweepSpec};
use dante_circuit::units::Volt;
use dante_nn::metrics::ConfusionMatrix;
use dante_sim::{StderrProgress, TrialEngine};

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let trials = env_usize("DANTE_TRIALS", 5);
    let test_n = env_usize("DANTE_TEST_N", 300);

    eprintln!(
        "Monte-Carlo runs on {} worker thread(s); set DANTE_THREADS to override",
        TrialEngine::from_env().threads()
    );
    eprintln!("loading/training the FC-DNN (cached under target/dante-cache) ...");
    let (net, test) = trained_mnist_fc(5000, test_n, 5);
    let clean = net.accuracy(test.images(), test.labels());
    println!("clean accuracy: {clean:.3} on {test_n} held-out digits\n");

    // One sweep per Table 2 configuration, all on the same cached network.
    let voltages_mv = [360, 400, 440, 480];
    let sweeps: Vec<(NamedBoostConfig, PreparedSweep, Vec<SweepPoint>)> = NamedBoostConfig::all()
        .into_iter()
        .map(|config| {
            let sweep = SweepSpec {
                seed: 99,
                voltages_mv: voltages_mv.to_vec(),
                trials,
                network: NetworkSpec::MnistFc {
                    train_n: 5000,
                    test_n,
                    epochs: 5,
                },
                supply: SupplySpec::BoostedPlan { config },
                ..SweepSpec::toy_default()
            }
            .prepare();
            let points = sweep.run();
            (config, sweep, points)
        })
        .collect();

    println!(
        "{:>6} {:>13} {:>7} {:>9} {:>9} {:>9} {:>9}",
        "Vdd", "config", "Vddv", "accuracy", "E_boost", "E_single", "E_dual"
    );
    for i in 0..voltages_mv.len() {
        for (config, sweep, points) in &sweeps {
            let p = &points[i];
            let m = sweep.energy_model();
            let accesses = sweep.activity().total_sram_accesses();
            let macs = sweep.activity().total_macs();
            let reference = p.energy.reference_0v5.joules();
            println!(
                "{:>6.2} {:>13} {:>7.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
                p.vdd.volts(),
                config.name(),
                p.v_sram.volts(),
                p.stats.mean(),
                p.energy.normalized_total(),
                m.dynamic_single(p.v_sram, accesses, macs).joules() / reference,
                m.dynamic_dual(p.v_sram, p.vdd, accesses, macs).joules() / reference,
            );
        }
        println!();
    }
    // A live progress line on stderr while a uniform sweep runs: the
    // trial engine reports every completed die and its injected fault bits
    // through the observer hooks.
    let evaluator = AccuracyEvaluator::new(trials);
    let progress = StderrProgress::new("uniform sweep");
    println!("{:>6} {:>9} {:>9} {:>9}", "Vdd", "mean", "std", "worst");
    for mv in voltages_mv {
        let vdd = Volt::from_millivolts(f64::from(mv));
        let stats = evaluator.evaluate_observed(
            &net,
            &VoltageAssignment::uniform(vdd, 4),
            test.images(),
            test.labels(),
            99,
            &progress,
        );
        println!(
            "{:>6.2} {:>9.3} {:>9.3} {:>9.3}",
            vdd.volts(),
            stats.mean(),
            stats.std_dev(),
            stats.min()
        );
    }
    eprintln!(
        "sweep complete: {} dies, {} fault bits injected in total\n",
        progress.completed(),
        progress.fault_bits()
    );

    // Which digits does a corrupted network lose first? One die at 0.44 V,
    // weights exposed, inputs safe.
    let corrupted = evaluator.corrupt_network(
        &net,
        &VoltageAssignment::weights_only(Volt::new(0.44), 4, Volt::new(0.60)),
        7,
    );
    let cm = ConfusionMatrix::from_network(&corrupted, test.images(), test.labels());
    println!(
        "one die at 0.44 V (weights exposed): accuracy {:.3}; per-digit recall:",
        cm.accuracy()
    );
    for (digit, recall) in cm.per_class_recall().iter().enumerate() {
        if let Some(r) = recall {
            println!("  digit {digit}: {r:.2}");
        }
    }
    if let Some((truth, pred, n)) = cm.worst_confusion() {
        println!("worst confusion: {n} x digit {truth} misread as {pred}\n");
    }

    println!("energies are normalized to the chip at a single 0.5 V supply.");
    println!("observations to look for (paper Sec. 6.2):");
    println!("  - higher boost levels recover accuracy at lower Vdd;");
    println!("  - boost beats the single supply at the same SRAM voltage;");
    println!("  - dual supply is only competitive at low boost levels (memory-bound FC).");
}
