//! Writes `BENCH_mc.json`, the tracked Monte-Carlo performance report of
//! `dante_bench::perf`, and prints the path it wrote.
//!
//! `DANTE_BENCH_QUICK=1` selects the CI smoke scale; `DANTE_BENCH_OUT`
//! overrides the output path (default `BENCH_mc.json`).

use dante_bench::perf::{run_mc_bench, OUT_ENV, QUICK_ENV};

fn main() {
    let quick = std::env::var(QUICK_ENV).is_ok_and(|v| v == "1");
    let out = std::env::var(OUT_ENV).unwrap_or_else(|_| "BENCH_mc.json".into());
    let report = run_mc_bench(quick).to_string_pretty() + "\n";
    std::fs::write(&out, report).unwrap_or_else(|e| panic!("failed to write {out}: {e}"));
    eprintln!("wrote {out}");
}
