//! Regenerates `BENCH_mc.json`: the tracked Monte-Carlo performance report
//! (dense-vs-sparse overlay generation, per-trial corruption, per-trial
//! forward pass, full accuracy sweep, fleet dies, trial-engine scaling,
//! boosted inference on the chip simulator, retraining).
//!
//! `DANTE_BENCH_QUICK=1` selects the CI smoke scale; `DANTE_BENCH_OUT`
//! overrides the output path (default `BENCH_mc.json`).

use dante_bench::perf::{run_mc_bench, McBenchReport, OUT_ENV, QUICK_ENV};

fn main() {
    let quick = std::env::var(QUICK_ENV).is_ok_and(|v| v == "1");
    let out = std::env::var(OUT_ENV).unwrap_or_else(|_| "BENCH_mc.json".into());
    eprintln!(
        "running bench_mc at {} scale -> {out}",
        if quick { "quick" } else { "full" }
    );
    let report: McBenchReport = run_mc_bench(quick);
    for row in &report.generation {
        eprintln!(
            "  generation @ {:.2} V: dense {:>12.0} ns, sparse {:>9.0} ns, speedup {:.0}x",
            row.v_volts,
            row.dense.mean_ns,
            row.sparse.mean_ns,
            row.speedup()
        );
    }
    eprintln!(
        "  per-trial corrupt @ {:.2} V: {:.0} ns",
        report.corruption.v_volts, report.corruption.corrupt_ns
    );
    for row in &report.forward_pass {
        eprintln!(
            "  forward pass @ {:.2} V, {}: {:.0} ns, {:.0} img/s",
            row.v_volts,
            row.network,
            row.inference_ns,
            row.images_per_sec()
        );
    }
    eprintln!(
        "  accuracy sweep: {:.2} s over {} voltages",
        report.sweep.seconds,
        report.sweep.voltages.len()
    );
    for row in &report.fleet {
        eprintln!(
            "  fleet die @ {:.2} V, {}: {:.1} us",
            row.v_volts,
            row.model,
            row.us_per_die()
        );
    }
    for row in &report.engine_scaling {
        eprintln!(
            "  evaluate @ {:.2} V, {} workers: {:.0} ns, speedup {:.2}x",
            row.v_volts, row.threads, row.evaluate.mean_ns, row.speedup
        );
    }
    eprintln!(
        "  boosted inference @ {:.2} V: {:.0} ns",
        report.accel_inference.v_volts, report.accel_inference.inference.mean_ns
    );
    eprintln!(
        "  retrain {} @ {} mV: run {:.0} ns, epoch {:.0} ns",
        report.retrain.network,
        report.retrain.target_mv,
        report.retrain.run.mean_ns,
        report.retrain.epoch.mean_ns
    );
    std::fs::write(&out, report.to_json_pretty())
        .unwrap_or_else(|e| panic!("failed to write {out}: {e}"));
    eprintln!("wrote {out}");
}
