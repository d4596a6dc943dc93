//! Turning a phase and its traced replay into named metrics.

use crate::client::Phase;
use crate::replay::{Counts, Replayed, Span, NO_PARENT};
use crate::stats::{covered, median, nearest_rank, self_time, supported_percentile};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

/// A response that misses this limit does not count as good.
const SLO_MS: f64 = 50.0;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a percentile.
    pub samples: Option<usize>,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
        samples: None,
    }
}

/// Per-request latencies in milliseconds, ascending, with failed requests
/// as infinity so they miss every limit.
fn latencies_ms(phase: &Phase, ok: &[bool]) -> Vec<f64> {
    let mut out: Vec<f64> = phase
        .samples
        .iter()
        .zip(ok)
        .map(|(s, &ok)| {
            if ok {
                s.latency_ns() as f64 / 1e6
            } else {
                f64::INFINITY
            }
        })
        .collect();
    out.sort_by(f64::total_cmp);
    out
}

/// The gated end-to-end metrics: defined on every workload.
pub fn end_to_end(phase: &Phase, ok: &[bool], setup_s: &[f64]) -> Vec<Metric> {
    let good = ok.iter().filter(|&&o| o).count();
    let latencies = latencies_ms(phase, ok);
    vec![
        metric("setup_s", median(setup_s).unwrap_or(0.0), "s"),
        metric(
            "throughput_rps",
            good as f64 / (phase.elapsed_ns.max(1) as f64 / 1e9),
            "req/s",
        ),
        Metric {
            samples: Some(latencies.len()),
            ..metric(
                "latency_p50_ms",
                nearest_rank(&latencies, 0.5).unwrap_or(0.0),
                "ms",
            )
        },
    ]
}

/// End-to-end numbers reported but not gated: tails where at least ten
/// samples lie beyond them, goodput, failures, and peak memory, whose
/// spread between runs reached the widest allowed bound (see
/// `calibration.json`).
pub fn informational(phase: &Phase, ok: &[bool], peak_rss_mb: f64) -> Vec<Metric> {
    let latencies = latencies_ms(phase, ok);
    let n = latencies.len();
    let mut out = tails(
        &[("latency_p90_ms", 0.90), ("latency_p99_ms", 0.99)],
        &latencies,
    );
    let within = latencies.iter().filter(|&&l| l <= SLO_MS).count();
    let failed = ok.iter().filter(|&&o| !o).count();
    out.push(metric(
        "slo_goodput",
        within as f64 / n.max(1) as f64,
        "fraction",
    ));
    out.push(metric(
        "failed_share",
        failed as f64 / n.max(1) as f64,
        "fraction",
    ));
    out.push(metric("peak_rss_mb", peak_rss_mb, "MiB"));
    out
}

/// The percentiles of ascending `values` (in ms) that the sample supports.
fn tails(levels: &[(&str, f64)], values: &[f64]) -> Vec<Metric> {
    levels
        .iter()
        .filter_map(|&(name, q)| {
            let value = supported_percentile(values, q)?;
            Some(Metric {
                samples: Some(values.len()),
                ..metric(name, value, "ms")
            })
        })
        .collect()
}

/// `name value` pairs of a `/metrics` scrape.
pub fn parse_scrape(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter_map(|line| {
            let (name, value) = line.split_once(' ')?;
            Some((name.to_owned(), value.trim().parse().ok()?))
        })
        .collect()
}

fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0.0), |(s, n), v| (s + v, n + 1.0));
    ratio(sum, n)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Everything the per-layer metrics need from the HTTP phase and replay.
pub struct LayerInputs<'a> {
    pub phase: &'a Phase,
    pub spans: &'a [Span],
    pub counts: &'a Counts,
    pub replayed: &'a [Replayed],
    pub before: &'a BTreeMap<String, f64>,
    pub after: &'a BTreeMap<String, f64>,
    /// Trial-engine worker threads.
    pub threads: usize,
}

/// The per-layer metrics, named by module. A layer the workload never
/// reaches reports zero work.
pub fn per_layer(inputs: &LayerInputs<'_>) -> Vec<Metric> {
    let spans = inputs.spans;
    let mut children: Vec<Vec<u32>> = vec![Vec::new(); spans.len()];
    for (id, span) in spans.iter().enumerate() {
        if span.parent != NO_PARENT {
            children[span.parent as usize].push(id as u32);
        }
    }
    let intervals = |id: usize| -> Vec<(u64, u64)> {
        children[id]
            .iter()
            .map(|&c| (spans[c as usize].start_ns, spans[c as usize].end_ns))
            .collect()
    };
    let durations = |name: &'static str| {
        spans
            .iter()
            .filter(move |s| s.name == name)
            .map(|s| s.duration_ns() as f64)
    };
    let mean_us = |name| mean(durations(name)) / 1e3;
    let mean_ms = |name| mean(durations(name)) / 1e6;
    let total_s = |name| durations(name).sum::<f64>() / 1e9;

    let point_ms = |keep: &dyn Fn(u64) -> bool| {
        mean(
            spans
                .iter()
                .filter(|s| s.name == "sweep.point" && keep(s.arg))
                .map(|s| s.duration_ns() as f64),
        ) / 1e6
    };
    let eval_setup_ms = mean(
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "sweep.point")
            .map(|(id, s)| self_time((s.start_ns, s.end_ns), &intervals(id)) as f64),
    ) / 1e6;
    let die_us = |model: u64| {
        mean(
            spans
                .iter()
                .filter(|s| s.name == "fleet.die")
                .filter(|s| {
                    let batch = &spans[s.parent as usize];
                    spans[batch.parent as usize].arg == model
                })
                .map(|s| s.duration_ns() as f64),
        ) / 1e3
    };
    let trial_s = total_s("accuracy.trial") + total_s("fleet.die");
    let capacity_s: f64 = spans
        .iter()
        .filter(|s| s.name == "engine.batch")
        .map(|s| (inputs.threads.min(s.arg.max(1) as usize)) as f64 * s.duration_ns() as f64 / 1e9)
        .sum();

    // Service time of each replayed request, and what its HTTP round trip
    // spent outside it.
    let roots: Vec<&Span> = inputs
        .replayed
        .iter()
        .map(|r| &spans[r.root as usize])
        .collect();
    let service_s: f64 = roots.iter().map(|r| r.duration_ns() as f64 / 1e9).sum();
    let covered_s: f64 = inputs
        .replayed
        .iter()
        .map(|r| {
            let root = &spans[r.root as usize];
            covered(root.start_ns, root.end_ns, &intervals(r.root as usize)) as f64 / 1e9
        })
        .sum();
    let http_s: f64 = inputs.phase.samples[..roots.len()]
        .iter()
        .map(|s| s.service_latency_ns() as f64 / 1e9)
        .sum();
    let overhead_ms = overhead_ms(inputs);

    let delta = |key: &str| {
        inputs.after.get(key).copied().unwrap_or(0.0)
            - inputs.before.get(key).copied().unwrap_or(0.0)
    };
    let hits = delta("dante_serve_cache_hits_total");
    let misses = delta("dante_serve_cache_misses_total");
    let scraped = |key: &str| inputs.after.get(key).copied().unwrap_or(0.0);
    let load = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed) as f64;
    let counts = inputs.counts;
    let lag_max_ms = lags_ms(inputs.phase).last().copied().unwrap_or(0.0);

    vec![
        metric("api.decode_us", mean_us("api.decode"), "us"),
        metric("api.render_us", mean_us("api.render"), "us"),
        metric("cache.digest_us", mean_us("cache.digest"), "us"),
        metric("cache.hit_ratio", ratio(hits, hits + misses), "fraction"),
        metric("store.get_us", mean_us("cache.get"), "us"),
        metric("store.insert_us", mean_us("cache.insert"), "us"),
        metric(
            "store.bytes_per_record",
            ratio(
                scraped("dante_serve_disk_cache_bytes"),
                scraped("dante_serve_disk_cache_records"),
            ),
            "B",
        ),
        Metric {
            samples: Some(overhead_ms.len()),
            ..metric(
                "server.overhead_ms.p50",
                nearest_rank(&overhead_ms, 0.5).unwrap_or(0.0),
                "ms",
            )
        },
        metric("http.reconnects", inputs.phase.reconnects as f64, "count"),
        metric("loadgen.lag_max_ms", lag_max_ms, "ms"),
        metric("sweep.prepare_ms", mean_ms("sweep.prepare"), "ms"),
        metric("sweep.point_ms.cliff", point_ms(&|mv| mv <= 400), "ms"),
        metric("sweep.point_ms.tail", point_ms(&|mv| mv >= 460), "ms"),
        metric("accuracy.eval_setup_ms", eval_setup_ms, "ms"),
        metric("accuracy.corrupt_us", mean_us("accuracy.corrupt"), "us"),
        metric("accuracy.inference_us", mean_us("accuracy.inference"), "us"),
        metric(
            "accuracy.fault_bits_per_trial",
            ratio(load(&counts.trial_fault_bits), load(&counts.trials)),
            "bits",
        ),
        metric("engine.batch_ms", mean_ms("engine.batch"), "ms"),
        metric(
            "engine.parallel_efficiency",
            ratio(trial_s, capacity_s),
            "fraction",
        ),
        metric("energy.point_us", mean_us("energy.point"), "us"),
        metric("fleet.die_us.gaussian", die_us(0), "us"),
        metric("fleet.die_us.chip_variation", die_us(1), "us"),
        metric("fleet.die_us.correlated_burst", die_us(2), "us"),
        metric("fleet.assemble_ms", mean_ms("fleet.assemble"), "ms"),
        metric(
            "fleet.dies_per_s",
            ratio(load(&counts.dies), total_s("fleet.dies")),
            "1/s",
        ),
        metric(
            "fleet.fault_bits_per_die",
            ratio(load(&counts.die_fault_cells), load(&counts.dies)),
            "bits",
        ),
        metric("iso.solve_ms", mean_ms("iso.solve"), "ms"),
        metric("retrain.data_ms", mean_ms("retrain.data"), "ms"),
        metric("retrain.epoch_ms", mean_ms("retrain.epoch"), "ms"),
        metric("retrain.iso_ms", mean_ms("retrain.iso"), "ms"),
        metric(
            "retrain.epochs_per_s",
            ratio(load(&counts.epochs), total_s("retrain.epoch")),
            "1/s",
        ),
        metric("trace.coverage", ratio(covered_s, service_s), "fraction"),
        metric("trace.service_share", ratio(service_s, http_s), "fraction"),
    ]
}

/// Per replayed request, ascending: the HTTP round trip minus the replay's
/// service time — parsing and writing, queue wait and worker hand-off.
fn overhead_ms(inputs: &LayerInputs<'_>) -> Vec<f64> {
    let mut out: Vec<f64> = inputs
        .phase
        .samples
        .iter()
        .zip(inputs.replayed)
        .map(|(s, r)| {
            (s.service_latency_ns() as f64 - inputs.spans[r.root as usize].duration_ns() as f64)
                / 1e6
        })
        .collect();
    out.sort_by(f64::total_cmp);
    out
}

/// Generator lateness per request in ms, ascending.
fn lags_ms(phase: &Phase) -> Vec<f64> {
    let mut out: Vec<f64> = phase
        .samples
        .iter()
        .map(|s| s.lag_ns as f64 / 1e6)
        .collect();
    out.sort_by(f64::total_cmp);
    out
}

/// The nearest-rank 99th percentile of the generator's lateness, at any
/// sample count: the run's validity check.
pub fn lag_p99_ms(phase: &Phase) -> f64 {
    nearest_rank(&lags_ms(phase), 0.99).unwrap_or(0.0)
}

/// Tails of per-layer distributions, where the sample supports them.
pub fn per_layer_informational(inputs: &LayerInputs<'_>) -> Vec<Metric> {
    let mut out = tails(
        &[
            ("server.overhead_ms.p90", 0.90),
            ("server.overhead_ms.p99", 0.99),
        ],
        &overhead_ms(inputs),
    );
    out.extend(tails(
        &[("loadgen.lag_p99_ms", 0.99)],
        &lags_ms(inputs.phase),
    ));
    out
}
