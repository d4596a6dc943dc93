//! The traced replay: the first quarter of a phase's requests, run again
//! in-process and in order through the public functions the server calls,
//! in the server's order, with a span around each call.
//!
//! Spans come from this file only — around the calls into each layer, and
//! from the `TrialObserver` hooks and retraining events the program
//! already emits. Spans go into one preallocated `Vec` and are written out
//! after the workload.

use crate::workload::Request;
use dante::retrain::{RetrainEvent, RetrainSpec};
use dante_serve::{api, digest, DiskStore, JobSpec, TieredCache};
use dante_sim::TrialObserver;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// `parent` of a span that has none.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call. `arg` carries the span's detail: the grid voltage of
/// a sweep point, the fault-model index of a fleet, the trial count of a
/// batch, the trial index of a trial, the request class of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub request: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub arg: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span store; span ids are indices into it.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(capacity)),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&self, span: Span) -> u32 {
        let mut spans = self.spans.lock().expect("span store lock poisoned");
        spans.push(span);
        u32::try_from(spans.len() - 1).expect("fewer than 2^32 spans")
    }

    /// Starts a span now; [`Self::close`] ends it.
    fn open(&self, name: &'static str, request: u32, parent: u32, arg: u64) -> u32 {
        let start_ns = self.now();
        self.push(Span {
            name,
            request,
            parent,
            start_ns,
            end_ns: start_ns,
            arg,
        })
    }

    fn close(&self, id: u32) {
        let end_ns = self.now();
        self.spans.lock().expect("span store lock poisoned")[id as usize].end_ns = end_ns;
    }

    /// A span that ended now after running for `elapsed`.
    fn ended(
        &self,
        name: &'static str,
        request: u32,
        parent: u32,
        elapsed: Duration,
        arg: u64,
    ) -> u32 {
        let end_ns = self.now();
        let length = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.push(Span {
            name,
            request,
            parent,
            start_ns: end_ns.saturating_sub(length),
            end_ns,
            arg,
        })
    }

    /// Runs `f` inside a span.
    fn time<T>(&self, name: &'static str, request: u32, parent: u32, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, request, parent, 0);
        let out = f();
        self.close(id);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span store lock poisoned")
    }
}

/// Exact counts taken at the same boundaries as the spans.
#[derive(Debug, Default)]
pub struct Counts {
    /// Fault bits injected across sweep trials, and those trials.
    pub trial_fault_bits: AtomicU64,
    pub trials: AtomicU64,
    /// Faulty-at-floor cells across fleet dies, and those dies.
    pub die_fault_cells: AtomicU64,
    pub dies: AtomicU64,
    pub epochs: AtomicU64,
}

/// Turns trial-engine hooks into spans under one sweep point or fleet
/// batch: the engine batch, one span per trial (or die), and the trial's
/// corrupt / inference stages under it.
struct SpanObserver<'a> {
    tracer: &'a Tracer,
    counts: &'a Counts,
    request: u32,
    parent: u32,
    trial_name: &'static str,
    batch: AtomicU32,
    /// Stages seen on each worker thread since its last completed trial.
    pending: Mutex<Vec<(ThreadId, Span)>>,
}

impl<'a> SpanObserver<'a> {
    fn new(
        tracer: &'a Tracer,
        counts: &'a Counts,
        request: u32,
        parent: u32,
        trial_name: &'static str,
    ) -> Self {
        Self {
            tracer,
            counts,
            request,
            parent,
            trial_name,
            batch: AtomicU32::new(NO_PARENT),
            pending: Mutex::new(Vec::new()),
        }
    }
}

impl TrialObserver for SpanObserver<'_> {
    fn on_batch_start(&self, total: usize) {
        let id = self
            .tracer
            .open("engine.batch", self.request, self.parent, total as u64);
        self.batch.store(id, Ordering::SeqCst);
    }

    fn on_stage(&self, stage: &'static str, elapsed: Duration) {
        let name = match stage {
            "corrupt" => "accuracy.corrupt",
            "inference" => "accuracy.inference",
            _ => "accuracy.other_stage",
        };
        let end_ns = self.tracer.now();
        let length = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        let span = Span {
            name,
            request: self.request,
            parent: NO_PARENT,
            start_ns: end_ns.saturating_sub(length),
            end_ns,
            arg: 0,
        };
        self.pending
            .lock()
            .expect("pending stages lock poisoned")
            .push((std::thread::current().id(), span));
    }

    fn on_fault_bits(&self, _index: usize, bits: u64) {
        let (sum, count) = if self.trial_name == "fleet.die" {
            (&self.counts.die_fault_cells, &self.counts.dies)
        } else {
            (&self.counts.trial_fault_bits, &self.counts.trials)
        };
        sum.fetch_add(bits, Ordering::Relaxed);
        count.fetch_add(1, Ordering::Relaxed);
    }

    fn on_trial_complete(&self, index: usize, elapsed: Duration) {
        let batch = self.batch.load(Ordering::SeqCst);
        let trial = self
            .tracer
            .ended(self.trial_name, self.request, batch, elapsed, index as u64);
        let me = std::thread::current().id();
        let mine: Vec<Span> = {
            let mut pending = self.pending.lock().expect("pending stages lock poisoned");
            let (mine, others): (Vec<_>, Vec<_>) = pending.drain(..).partition(|(t, _)| *t == me);
            *pending = others;
            mine.into_iter().map(|(_, s)| s).collect()
        };
        for stage in mine {
            self.tracer.push(Span {
                parent: trial,
                ..stage
            });
        }
    }

    fn on_batch_complete(&self, _elapsed: Duration) {
        self.tracer.close(self.batch.load(Ordering::SeqCst));
    }
}

/// Decodes a request with the decoder the server routes it to.
pub fn decode(request: &Request) -> Result<JobSpec, String> {
    let (path, query) = request
        .target
        .split_once('?')
        .unwrap_or((request.target.as_str(), ""));
    match (request.method, path) {
        ("POST", "/v1/sweep") => api::decode_spec(&request.body).map(JobSpec::Sweep),
        ("POST", "/v1/fleet") => api::decode_fleet_spec(&request.body).map(JobSpec::Fleet),
        ("POST", "/v1/retrain") => api::decode_retrain_spec(&request.body).map(JobSpec::Retrain),
        ("GET", "/v1/iso-accuracy") => api::decode_iso_query(query).map(JobSpec::Iso),
        (method, path) => Err(format!("no route for {method} {path}")),
    }
}

/// The cache key the server files the job's result under.
pub fn cache_key(job: &JobSpec) -> String {
    digest(&job.canonical_string())
}

/// What replaying one request produced.
#[derive(Debug)]
pub struct Replayed {
    /// The request's root span: decode through cache insert.
    pub root: u32,
    /// The rendered (or cached) body, or why the request failed.
    pub body: Result<Arc<String>, String>,
}

/// Replays `requests` in order, one at a time, through a fresh result
/// cache sized like the server's (with a disk tier under `data_dir` when
/// given).
pub fn replay(
    requests: &[Request],
    data_dir: Option<&Path>,
    tracer: &Tracer,
    counts: &Counts,
) -> Result<Vec<Replayed>, String> {
    let disk = match data_dir {
        Some(dir) => Some(DiskStore::open(dir).map_err(|e| format!("open replay store: {e}"))?),
        None => None,
    };
    let cache = TieredCache::new(dante_serve::ServerConfig::default().cache_capacity, disk);
    Ok(requests
        .iter()
        .enumerate()
        .map(|(i, request)| replay_one(request, i as u32, &cache, tracer, counts))
        .collect())
}

fn replay_one(
    request: &Request,
    id: u32,
    cache: &TieredCache,
    tracer: &Tracer,
    counts: &Counts,
) -> Replayed {
    let root = tracer.open("request", id, NO_PARENT, request.class as u64);
    let mut energy_probe = None;
    let body = (|| {
        let job = tracer.time("api.decode", id, root, || decode(request))?;
        let key = tracer.time("cache.digest", id, root, || cache_key(&job));
        if let Some(body) = tracer.time("cache.get", id, root, || cache.get(&key)) {
            return Ok(body);
        }
        let rendered = match &job {
            JobSpec::Sweep(spec) => {
                let prep = tracer.time("sweep.prepare", id, root, || spec.prepare());
                let mut results = Vec::with_capacity(prep.point_count());
                for point in 0..prep.point_count() {
                    let mv = u64::from(spec.voltages_mv[point]);
                    let span = tracer.open("sweep.point", id, root, mv);
                    let observer = SpanObserver::new(tracer, counts, id, span, "accuracy.trial");
                    results.push(prep.run_point_observed(point, &observer));
                    tracer.close(span);
                }
                let rendered = tracer.time("api.render", id, root, || {
                    api::build_record(spec, &results).to_json_pretty()
                });
                energy_probe = Some((prep, results));
                rendered
            }
            JobSpec::Fleet(spec) => {
                let model = request.fault_model.unwrap_or(0) as u64;
                let span = tracer.open("fleet.dies", id, root, model);
                let observer = SpanObserver::new(tracer, counts, id, span, "fleet.die");
                let dies = spec.solve_die_range_observed(0, spec.dies, &observer);
                tracer.close(span);
                let result = tracer.time("fleet.assemble", id, root, || spec.assemble(&dies));
                tracer.time("api.render", id, root, || {
                    api::build_fleet_record(spec, &result).to_json_pretty()
                })
            }
            JobSpec::Iso(spec) => {
                let result = tracer.time("iso.solve", id, root, || spec.solve());
                tracer.time("api.render", id, root, || api::render_iso(spec, &result))
            }
            JobSpec::Retrain(spec) => {
                let hardened = traced_retrain(spec, id, root, tracer, counts);
                tracer.time("api.render", id, root, || {
                    api::render_retrain(spec, &hardened)
                })
            }
        };
        let body = Arc::new(rendered);
        tracer.time("cache.insert", id, root, || cache.insert(key, body.clone()));
        Ok(body)
    })();
    tracer.close(root);
    // Timed apart from the request: the point energy is also computed
    // inside each point, so this call is extra work the server never does.
    if let Some((prep, results)) = energy_probe {
        for point in &results {
            let start = Instant::now();
            std::hint::black_box(prep.point_energy(point.vdd));
            tracer.ended("energy.point", id, NO_PARENT, start.elapsed(), 0);
        }
    }
    Replayed { root, body }
}

/// `RetrainSpec::run_observed` under a `retrain.run` span, split by its
/// epoch events into data loading, epochs, and the closing iso solves.
fn traced_retrain(
    spec: &RetrainSpec,
    id: u32,
    root: u32,
    tracer: &Tracer,
    counts: &Counts,
) -> dante::retrain::HardenedNetwork {
    let run = tracer.open("retrain.run", id, root, spec.epochs as u64);
    let start = tracer.now();
    let mut last = start;
    let mut epoch_start = start;
    let record = |name, from: u64, to: u64, arg: u64| {
        tracer.push(Span {
            name,
            request: id,
            parent: run,
            start_ns: from,
            end_ns: to,
            arg,
        });
    };
    let hardened = spec.run_observed(&mut |event| {
        let now = tracer.now();
        match *event {
            RetrainEvent::EpochStart { epoch } => {
                if epoch == 0 {
                    record("retrain.data", start, now, 0);
                }
                epoch_start = now;
            }
            RetrainEvent::EpochDone { epoch, .. } => {
                record("retrain.epoch", epoch_start, now, epoch as u64);
                counts.epochs.fetch_add(1, Ordering::Relaxed);
            }
        }
        last = now;
    });
    record("retrain.iso", last, tracer.now(), 0);
    tracer.close(run);
    hardened
}

/// Writes the spans as one JSON object per line inside a `spans` array.
pub fn write_trace(path: &Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut out = String::with_capacity(96 * spans.len() + header.len() + 32);
    let _ = write!(out, "{{{header},\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "null".to_owned()
        } else {
            s.parent.to_string()
        };
        let _ = write!(
            out,
            "{}\n{{\"id\":{i},\"name\":\"{}\",\"request_id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"arg\":{}}}",
            if i == 0 { "" } else { "," },
            s.name,
            s.request,
            s.start_ns,
            s.end_ns,
            s.arg
        );
    }
    out.push_str("\n]}\n");
    std::fs::write(path, out)
}
