//! Performance smoke gates for the sparse tail-sampled overlay and the
//! trial-batched forward pass.
//!
//! Two layers of protection: *live* measurements proving the 4 Mbit
//! sparse draw at 0.54 V clears the 100x speedup floor on the machine
//! running the tests, and consistency checks on the committed
//! `BENCH_mc.json` — full scale, every section present, and the sweep
//! floor the trial-batched evaluator claims — so the tracked artifact
//! can't silently rot or be hand-edited into inconsistency.

use dante_bench::json::{parse, Value};
use dante_bench::perf::{generation_bench, OVERLAY_BITS};
use dante_circuit::units::Volt;

/// Full-scale accuracy-sweep wall clock committed immediately before the
/// trial-batched forward path landed (scalar per-image inference, same
/// machine class), seconds. The batched sweep is gated against this.
const PRE_BATCHED_SWEEP_SECONDS: f64 = 34.68;

fn committed_report() -> Value {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_mc.json"))
        .expect("BENCH_mc.json must be committed at the repo root");
    parse(&text).expect("BENCH_mc.json must parse")
}

#[test]
fn sparse_generation_beats_dense_by_100x_at_deep_tail_voltage() {
    // Quick scale: 3 samples either side is plenty when the gap is
    // 3-5 orders of magnitude.
    let row = generation_bench(Volt::new(0.54), true);
    let number = |path: &[&str]| {
        path.iter()
            .try_fold(&row, |v, key| v.get(key))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("generation row without {}", path.join(".")))
    };
    assert_eq!(number(&["bits"]), OVERLAY_BITS as f64);
    let speedup = number(&["speedup"]);
    assert!(
        speedup >= 100.0,
        "sparse overlay generation speedup {speedup:.0}x below the 100x floor \
         (dense {:.0} ns, sparse {:.0} ns)",
        number(&["dense", "mean_ns"]),
        number(&["sparse", "mean_ns"])
    );
}

#[test]
fn committed_bench_mc_json_is_consistent() {
    let report = committed_report();
    assert_eq!(report.get("bench").and_then(Value::as_str), Some("mc"));

    let generation = report
        .get("generation")
        .and_then(Value::as_array)
        .expect("generation rows");
    let deep_tail = generation
        .iter()
        .find(|row| {
            row.get("v_volts")
                .and_then(Value::as_f64)
                .is_some_and(|v| v >= 0.54)
        })
        .expect("a generation row at v >= 0.54 V");
    let speedup = deep_tail
        .get("speedup")
        .and_then(Value::as_f64)
        .expect("speedup field");
    assert!(
        speedup >= 100.0,
        "committed deep-tail generation speedup {speedup:.0}x below the 100x floor"
    );
    let bits = deep_tail.get("bits").and_then(Value::as_f64).expect("bits");
    assert!(bits >= 4.0 * 1024.0 * 1024.0, "4 Mbit image, got {bits}");

    let corrupt_ns = report
        .get("per_trial_corruption")
        .and_then(|s| s.get("corrupt_ns"))
        .and_then(Value::as_f64)
        .expect("per_trial_corruption.corrupt_ns");
    assert!(
        corrupt_ns > 0.0 && corrupt_ns.is_finite(),
        "corrupt stage {corrupt_ns} ns must be a positive finite time"
    );

    // One mean accuracy per swept voltage, each a fraction, and the top of
    // the grid no worse than the bottom (faults only shrink as V rises).
    let sweep = report.get("accuracy_sweep").expect("accuracy_sweep");
    let numbers = |key: &str| -> Vec<f64> {
        sweep
            .get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("accuracy_sweep.{key}"))
            .iter()
            .map(|x| x.as_f64().expect("number"))
            .collect()
    };
    let (voltages, accuracy) = (numbers("voltages"), numbers("accuracy"));
    assert_eq!(voltages.len(), accuracy.len(), "one accuracy per voltage");
    assert!(
        accuracy.iter().all(|a| (0.0..=1.0).contains(a)),
        "{accuracy:?}"
    );
    assert!(
        accuracy.last() >= accuracy.first(),
        "accuracy must not fall as voltage rises: {accuracy:?}"
    );

    // Trial-engine scaling: one row per worker count, ascending from a
    // single worker, whose speedup over itself is exactly 1.
    let scaling = report
        .get("engine_scaling")
        .and_then(Value::as_array)
        .expect("engine_scaling rows");
    let field = |row: &Value, key: &str| -> f64 {
        row.get(key)
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("engine_scaling row without {key}"))
    };
    let threads: Vec<f64> = scaling.iter().map(|row| field(row, "threads")).collect();
    assert_eq!(threads.first(), Some(&1.0), "first row at 1 thread");
    assert_eq!(field(&scaling[0], "speedup"), 1.0, "1-thread speedup");
    assert!(
        threads.windows(2).all(|w| w[0] < w[1]),
        "thread counts must ascend strictly: {threads:?}"
    );
    for row in scaling {
        let mean_ns = row
            .get("evaluate")
            .and_then(|t| t.get("mean_ns"))
            .and_then(Value::as_f64)
            .expect("engine_scaling evaluate.mean_ns");
        assert!(
            mean_ns > 0.0 && mean_ns.is_finite(),
            "evaluation time {mean_ns} ns must be a positive finite time"
        );
    }

    let accel_ns = report
        .get("accel_inference")
        .and_then(|s| s.get("inference"))
        .and_then(|t| t.get("mean_ns"))
        .and_then(Value::as_f64)
        .expect("accel_inference.inference.mean_ns");
    assert!(
        accel_ns > 0.0 && accel_ns.is_finite(),
        "boosted inference {accel_ns} ns must be a positive finite time"
    );

    // Retraining: the whole run and its epoch.
    let retrain = report.get("retrain").expect("retrain section");
    for key in ["run", "epoch"] {
        let mean_ns = retrain
            .get(key)
            .and_then(|t| t.get("mean_ns"))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("retrain.{key}.mean_ns"));
        assert!(
            mean_ns > 0.0 && mean_ns.is_finite(),
            "retrain {key} {mean_ns} ns must be a positive finite time"
        );
    }
}

#[test]
fn committed_forward_pass_clears_the_batched_floors() {
    // The trial-batched evaluator's acceptance, gated on the committed
    // artifact (deterministic; the artifact is regenerated on an idle
    // machine, so CI load can't flake these): every forward-pass row
    // reports a positive finite throughput, and the full 9-voltage sweep
    // clears >= 5x over the 34.68 s scalar-path wall clock it replaced.
    let report = committed_report();
    let rows = report
        .get("forward_pass")
        .and_then(Value::as_array)
        .expect("forward_pass rows");
    assert!(!rows.is_empty(), "forward_pass must have at least one row");
    assert!(
        rows.iter()
            .any(|row| row.get("network").and_then(Value::as_str) == Some("cifar_cnn")),
        "forward_pass must time the cifar_cnn proxy"
    );
    for row in rows {
        let throughput = row
            .get("images_per_sec")
            .and_then(Value::as_f64)
            .expect("images_per_sec");
        assert!(
            throughput > 0.0 && throughput.is_finite(),
            "forward-pass throughput {throughput} must be a positive finite rate"
        );
    }

    // The sweep floor holds at full scale, the only scale committed here:
    // CI's quick regeneration writes elsewhere.
    assert_eq!(
        report.get("quick").and_then(Value::as_bool),
        Some(false),
        "the committed BENCH_mc.json must be a full-scale run"
    );
    let seconds = report
        .get("accuracy_sweep")
        .and_then(|s| s.get("seconds"))
        .and_then(Value::as_f64)
        .expect("accuracy_sweep.seconds");
    let sweep_speedup = PRE_BATCHED_SWEEP_SECONDS / seconds;
    assert!(
        sweep_speedup >= 5.0,
        "committed sweep {seconds:.2} s is only {sweep_speedup:.2}x over the \
         {PRE_BATCHED_SWEEP_SECONDS} s scalar-path baseline (floor: 5x)"
    );
}
