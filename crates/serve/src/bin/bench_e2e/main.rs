//! `bench_e2e` — the end-to-end benchmark of `dante-serve`.
//!
//! Boots the server in-process on an ephemeral port, drives one or all
//! workloads over raw sockets, checks every answer, and prints one
//! `metric workload value unit` line per metric, then one JSON result
//! object as the last line. With `--trace 1` it afterwards replays the
//! first quarter of the same requests in-process under spans and reports
//! the per-layer metrics instead. See `README.md` beside this file.
//!
//! ```text
//! bench_e2e --seed <u64> [--workload <name>] [--seconds <s>] [--trace <0|1>]
//!           [--out <dir>] [--quick]
//! ```

mod client;
mod metrics;
mod replay;
mod stats;
mod workload;

use client::{get_text, Conn, Phase};
use dante_bench::json::Value;
use dante_serve::{start, ServerConfig, ServerHandle};
use metrics::{LayerInputs, Metric};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use workload::{Class, Request, Workload};

const USAGE: &str = "usage: bench_e2e --seed <u64> [--workload <name>] [--seconds <s>] \
                     [--trace <0|1>] [--out <dir>] [--quick]";

/// Share of a phase's requests the traced run replays.
const REPLAY_SHARE: f64 = 0.25;

/// A run whose generator sent its 99th-percentile request later than
/// this did not offer the load it meant to, and is flagged.
const MAX_LAG_MS: f64 = 5.0;

#[derive(Debug, Clone)]
struct Options {
    seed: u64,
    workloads: Vec<Workload>,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    /// Set-ups before and after the phase; `setup_s` is their median.
    setups_before: usize,
    setups_after: usize,
}

impl Options {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut opts = Self {
            seed: 1,
            workloads: Workload::ALL.to_vec(),
            seconds: 20.0,
            trace: true,
            out: PathBuf::from("target/bench_e2e"),
            setups_before: 2,
            setups_after: 1,
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            if flag == "--quick" {
                opts.seconds = 2.0;
                opts.setups_before = 1;
                opts.setups_after = 0;
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
            match flag.as_str() {
                "--seed" => opts.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
                "--workload" => {
                    opts.workloads =
                        vec![Workload::parse(&value).ok_or_else(|| bad("a workload name"))?];
                }
                "--seconds" => {
                    opts.seconds = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| (0.5..=600.0).contains(s))
                        .ok_or_else(|| bad("seconds in 0.5..=600"))?;
                }
                "--trace" => {
                    opts.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    };
                }
                "--out" => opts.out = PathBuf::from(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(opts)
    }
}

/// One workload's run: its metrics and the checks' verdicts.
#[derive(Debug)]
struct Outcome {
    workload: Workload,
    setup_s: Vec<f64>,
    end_to_end: Vec<Metric>,
    informational: Vec<Metric>,
    layers: Vec<Metric>,
    attempted: usize,
    failed: usize,
    /// Failed checks, one line each (the first 20 are kept).
    problems: Vec<String>,
    /// Reasons to distrust the numbers that fail no check.
    warnings: Vec<String>,
}

fn main() {
    let opts = match Options::parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(why) => {
            eprintln!("bench_e2e: {why}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&opts) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(why) => {
            eprintln!("bench_e2e: {why}");
            std::process::exit(2);
        }
    }
}

/// Runs every selected workload, writes the reports, and prints the
/// result line. Returns whether every check passed.
fn run(opts: &Options) -> Result<bool, String> {
    std::fs::create_dir_all(&opts.out)
        .map_err(|e| format!("create {}: {e}", opts.out.display()))?;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut outcomes = Vec::new();
    for &workload in &opts.workloads {
        let outcome = run_workload(workload, opts)?;
        print_outcome(&outcome, nproc);
        outcomes.push(outcome);
    }
    write_report(opts, nproc, &outcomes)?;
    let correct = outcomes
        .iter()
        .all(|o| o.failed == 0 && o.problems.is_empty());
    let single = outcomes.len() == 1;
    let mut reported = BTreeMap::new();
    for o in &outcomes {
        let chosen = if opts.trace { &o.layers } else { &o.end_to_end };
        for m in chosen {
            let key = if single {
                m.name.clone()
            } else {
                format!("{}/{}", o.workload.name(), m.name)
            };
            reported.insert(
                key,
                Value::Object(BTreeMap::from([
                    ("value".to_owned(), Value::Number(m.value)),
                    ("unit".to_owned(), Value::String(m.unit.to_owned())),
                ])),
            );
        }
    }
    let result = Value::Object(BTreeMap::from([
        ("correct".to_owned(), Value::Bool(correct)),
        (
            "attempted".to_owned(),
            Value::Number(outcomes.iter().map(|o| o.attempted).sum::<usize>() as f64),
        ),
        (
            "failed".to_owned(),
            Value::Number(outcomes.iter().map(|o| o.failed).sum::<usize>() as f64),
        ),
        ("metrics".to_owned(), Value::Object(reported)),
    ]));
    println!("{}", result.to_string_compact());
    Ok(correct)
}

fn print_outcome(o: &Outcome, nproc: usize) {
    let name = o.workload.name();
    println!("nproc {name} {nproc} cores");
    for m in o.end_to_end.iter().chain(&o.informational).chain(&o.layers) {
        match m.samples {
            Some(n) => println!("{} {name} {} {} (n={n})", m.name, m.value, m.unit),
            None => println!("{} {name} {} {}", m.name, m.value, m.unit),
        }
    }
    for problem in &o.problems {
        eprintln!("bench_e2e: {name}: check failed: {problem}");
    }
    for warning in &o.warnings {
        eprintln!("bench_e2e: {name}: warning: {warning}");
    }
}

/// A server set up for a workload, with the directories it writes.
struct Setup {
    handle: ServerHandle,
    dir: PathBuf,
}

/// One set-up, its duration pushed onto `setup_s`: a fresh model cache
/// (so the MNIST network trains again), a fresh disk store for the
/// workload that uses one, the server, and one warm-up request per
/// request class.
fn set_up(
    workload: Workload,
    seed: u64,
    dir: PathBuf,
    setup_s: &mut Vec<f64>,
    problems: &mut Vec<String>,
) -> Result<Setup, String> {
    let _ = std::fs::remove_dir_all(&dir);
    let started = Instant::now();
    // No server thread is running here, so nothing reads the environment
    // concurrently with this write.
    std::env::set_var("DANTE_CACHE", dir.join("model-cache"));
    let handle = start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        data_dir: workload.uses_disk().then(|| dir.join("store")),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("start server: {e}"))?;
    let mut conn = Conn::new(handle.addr());
    let warmups = workload::warmups(workload, seed);
    let bodies: Vec<Option<Vec<u8>>> = warmups
        .iter()
        .map(|req| conn.send(&req.raw).ok())
        .map(|resp| resp.filter(|r| r.status == 200).map(|r| r.body))
        .collect();
    for (req, body) in warmups.iter().zip(&bodies) {
        let expected = req.replay_of.map(|o| &bodies[o]);
        match (body, expected) {
            (None, _) => problems.push(format!("warm-up {} failed", req.class.name())),
            (Some(b), Some(Some(orig))) if b != orig => {
                problems.push("warm-up replay differs from its original".to_owned());
            }
            _ => {}
        }
    }
    setup_s.push(started.elapsed().as_secs_f64());
    Ok(Setup { handle, dir })
}

fn stop(setup: Setup, problems: &mut Vec<String>) {
    setup.handle.shutdown();
    if !setup.handle.join() {
        problems.push("server did not drain its connections".to_owned());
    }
}

fn run_workload(workload: Workload, opts: &Options) -> Result<Outcome, String> {
    let run_dir = opts
        .out
        .join(format!("run-{}-{}", std::process::id(), workload.name()));
    let mut problems = Vec::new();
    let mut setup_s = Vec::new();
    let setup_dir = |k: usize| run_dir.join(format!("setup-{k}"));
    // The last set-up before the phase serves it.
    let mut setup = set_up(
        workload,
        opts.seed,
        setup_dir(0),
        &mut setup_s,
        &mut problems,
    )?;
    for k in 1..opts.setups_before {
        stop(setup, &mut problems);
        setup = set_up(
            workload,
            opts.seed,
            setup_dir(k),
            &mut setup_s,
            &mut problems,
        )?;
    }
    let addr = setup.handle.addr();

    let before = metrics::parse_scrape(&get_text(addr, "/metrics")?);
    let phase = if workload.closed_loop() {
        client::closed_loop(addr, opts.seconds, |i| {
            workload::closed_request(workload, opts.seed, i)
        })
    } else {
        client::open_loop(
            addr,
            workload.connections(),
            workload::open_stream(opts.seed, opts.seconds),
        )
    };
    let after = metrics::parse_scrape(&get_text(addr, "/metrics")?);
    let model_cache = setup.dir.join("model-cache");
    stop(setup, &mut problems);

    let mut ok = check_phase(&phase, &mut problems);
    check_counters(&phase, &before, &after, &mut problems);
    let mut warnings = Vec::new();
    let lag_p99_ms = metrics::lag_p99_ms(&phase);
    if lag_p99_ms > MAX_LAG_MS {
        warnings.push(format!(
            "generator lag p99 {lag_p99_ms} ms exceeds {MAX_LAG_MS} ms"
        ));
    }

    let mut layers = Vec::new();
    let mut informational = Vec::new();
    if opts.trace {
        // The replay loads the model the last set-up trained.
        std::env::set_var("DANTE_CACHE", &model_cache);
        let count = ((phase.requests.len() as f64 * REPLAY_SHARE).ceil() as usize)
            .min(phase.requests.len());
        let tracer = replay::Tracer::new(1 << 17);
        let counts = replay::Counts::default();
        let store = workload.uses_disk().then(|| run_dir.join("replay-store"));
        let replayed =
            replay::replay(&phase.requests[..count], store.as_deref(), &tracer, &counts)?;
        for (i, r) in replayed.iter().enumerate() {
            let http = phase.samples[i]
                .response
                .as_ref()
                .ok()
                .map(|resp| &resp.body);
            let same = matches!((&r.body, http), (Ok(a), Some(b)) if a.as_bytes() == b.as_slice());
            if !same && ok[i] {
                ok[i] = false;
                note(
                    &mut problems,
                    format!("request {i}: replayed body differs from the HTTP body"),
                );
            }
        }
        let spans = tracer.into_spans();
        let inputs = LayerInputs {
            phase: &phase,
            spans: &spans,
            counts: &counts,
            replayed: &replayed,
            before: &before,
            after: &after,
            threads: dante_sim::TrialEngine::from_env().threads(),
        };
        layers = metrics::per_layer(&inputs);
        informational = metrics::per_layer_informational(&inputs);
        let header = format!(
            "\"workload\":\"{}\",\"seed\":{},\"replayed_requests\":{count}",
            workload.name(),
            opts.seed
        );
        let path = opts.out.join(format!("trace-{}.json", workload.name()));
        replay::write_trace(&path, &header, &spans)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    // Set-ups after the phase too, so `setup_s` samples the machine across
    // the whole run rather than only at its start.
    for k in opts.setups_before..opts.setups_before + opts.setups_after {
        let extra = set_up(
            workload,
            opts.seed,
            setup_dir(k),
            &mut setup_s,
            &mut problems,
        )?;
        stop(extra, &mut problems);
    }
    let _ = std::fs::remove_dir_all(&run_dir);

    let end_to_end = metrics::end_to_end(&phase, &ok, &setup_s);
    informational.splice(0..0, metrics::informational(&phase, &ok, peak_rss_mb()?));
    Ok(Outcome {
        workload,
        setup_s,
        end_to_end,
        informational,
        layers,
        attempted: phase.samples.len(),
        failed: ok.iter().filter(|&&o| !o).count(),
        problems,
        warnings,
    })
}

/// Keeps the first few problems of a run; the rest only count.
fn note(problems: &mut Vec<String>, problem: String) {
    if problems.len() < 20 {
        problems.push(problem);
    }
}

/// Checks every answer of the phase; returns which requests succeeded.
/// A request fails on a socket error or timeout, a status other than 200,
/// a body that is not JSON, a cold request that is not a cache miss, or a
/// replay that is not a byte-identical cache hit.
fn check_phase(phase: &Phase, problems: &mut Vec<String>) -> Vec<bool> {
    let verdict = |i: usize| -> Result<(), String> {
        let resp = phase.samples[i].response.as_ref()?;
        if resp.status != 200 {
            return Err(format!("status {}", resp.status));
        }
        let text = std::str::from_utf8(&resp.body).map_err(|_| "body is not UTF-8".to_owned())?;
        Value::parse(text).map_err(|e| format!("body is not JSON: {e}"))?;
        let request: &Request = &phase.requests[i];
        let expected = if request.class == Class::Replay {
            "hit"
        } else {
            "miss"
        };
        if resp.cache.as_deref() != Some(expected) {
            return Err(format!(
                "X-Dante-Cache {:?}, expected {expected}",
                resp.cache
            ));
        }
        if let Some(orig) = request.replay_of {
            let same = matches!(&phase.samples[orig].response, Ok(o) if o.body == resp.body);
            if !same {
                return Err(format!("replay of request {orig} is not byte-identical"));
            }
        }
        Ok(())
    };
    (0..phase.samples.len())
        .map(|i| match verdict(i) {
            Ok(()) => true,
            Err(why) => {
                note(
                    problems,
                    format!("request {i} ({}): {why}", phase.requests[i].class.name()),
                );
                false
            }
        })
        .collect()
}

/// The server's own counters must agree with what the client saw: one
/// completed job per cold 200, one rejection per 429, one failed job per
/// 500.
fn check_counters(
    phase: &Phase,
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
    problems: &mut Vec<String>,
) {
    let (mut completed, mut rejected, mut failed) = (0.0, 0.0, 0.0);
    for response in phase
        .samples
        .iter()
        .filter_map(|s| s.response.as_ref().ok())
    {
        match (response.status, response.cache.as_deref()) {
            (200, Some("miss")) => completed += 1.0,
            (429, _) => rejected += 1.0,
            (500, _) => failed += 1.0,
            _ => {}
        }
    }
    let expectations = [
        ("dante_serve_jobs_completed_total", completed),
        ("dante_serve_jobs_rejected_total", rejected),
        ("dante_serve_jobs_failed_total", failed),
    ];
    for (key, client) in expectations {
        let server = after.get(key).copied().unwrap_or(f64::NAN)
            - before.get(key).copied().unwrap_or(f64::NAN);
        if server != client {
            problems.push(format!("{key} moved by {server}, the client saw {client}"));
        }
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_owned())
}

fn metric_values(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                let mut entry = BTreeMap::from([
                    ("value".to_owned(), Value::Number(m.value)),
                    ("unit".to_owned(), Value::String(m.unit.to_owned())),
                ]);
                if let Some(n) = m.samples {
                    entry.insert("samples".to_owned(), Value::Number(n as f64));
                }
                (m.name.clone(), Value::Object(entry))
            })
            .collect(),
    )
}

/// Writes `<out>/bench_e2e.json`.
fn write_report(opts: &Options, nproc: usize, outcomes: &[Outcome]) -> Result<(), String> {
    let workloads = outcomes
        .iter()
        .map(|o| {
            let entry = BTreeMap::from([
                ("attempted".to_owned(), Value::Number(o.attempted as f64)),
                ("failed".to_owned(), Value::Number(o.failed as f64)),
                (
                    "setup_s_runs".to_owned(),
                    Value::Array(o.setup_s.iter().map(|&s| Value::Number(s)).collect()),
                ),
                ("end_to_end".to_owned(), metric_values(&o.end_to_end)),
                ("informational".to_owned(), metric_values(&o.informational)),
                ("per_layer".to_owned(), metric_values(&o.layers)),
                (
                    "problems".to_owned(),
                    Value::Array(o.problems.iter().cloned().map(Value::String).collect()),
                ),
                (
                    "warnings".to_owned(),
                    Value::Array(o.warnings.iter().cloned().map(Value::String).collect()),
                ),
            ]);
            (o.workload.name().to_owned(), Value::Object(entry))
        })
        .collect();
    let report = Value::Object(BTreeMap::from([
        ("nproc".to_owned(), Value::Number(nproc as f64)),
        ("seed".to_owned(), Value::Number(opts.seed as f64)),
        ("seconds".to_owned(), Value::Number(opts.seconds)),
        ("traced".to_owned(), Value::Bool(opts.trace)),
        ("workloads".to_owned(), Value::Object(workloads)),
    ]));
    let path = opts.out.join("bench_e2e.json");
    std::fs::write(&path, report.to_string_pretty() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `workload` in quick mode, writing under `out`.
    fn quick_run(workload: Workload, out: &std::path::Path) -> Outcome {
        let opts = Options::parse(
            ["--quick", "--seed", "3", "--workload", workload.name()]
                .into_iter()
                .map(str::to_owned)
                .chain(["--out".to_owned(), out.display().to_string()]),
        )
        .expect("valid flags");
        run_workload(workload, &opts).expect("quick run completes")
    }

    #[test]
    fn flags_parse_and_reject_garbage() {
        let opts = Options::parse(
            [
                "--seed",
                "9",
                "--workload",
                "fleet_yield",
                "--seconds",
                "10",
                "--trace",
                "0",
            ]
            .map(str::to_owned),
        )
        .unwrap();
        assert_eq!(opts.seed, 9);
        assert_eq!(opts.workloads, vec![Workload::FleetYield]);
        assert!(!opts.trace);
        assert!(Options::parse(["--workload".to_owned(), "nope".to_owned()]).is_err());
        assert!(Options::parse(["--trace".to_owned(), "2".to_owned()]).is_err());
        assert!(Options::parse(["--seed".to_owned()]).is_err());
    }

    /// One workload keeps the default test run short: `interactive_mix`
    /// reaches every request class, the disk store and every check. The
    /// other workloads run with `--quick` from the command line.
    #[test]
    fn quick_run_passes_every_check() {
        let out = std::env::temp_dir().join(format!("bench-e2e-quick-{}", std::process::id()));
        let outcome = quick_run(Workload::InteractiveMix, &out);
        let _ = std::fs::remove_dir_all(&out);
        assert!(outcome.attempted > 0, "nothing sent");
        assert_eq!(outcome.failed, 0, "{:?}", outcome.problems);
        assert!(outcome.problems.is_empty(), "{:?}", outcome.problems);
        let coverage = outcome
            .layers
            .iter()
            .find(|m| m.name == "trace.coverage")
            .expect("traced run reports coverage");
        assert!(coverage.value >= 0.95, "coverage {}", coverage.value);
    }
}
