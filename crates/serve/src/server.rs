//! The service itself: accept loop, worker pool, routing, and graceful
//! shutdown.

use crate::api::{self, JobProgress};
use crate::cache::digest;
use crate::http::{self, configure_stream, read_request, ChunkedResponse, Request, RequestError};
use crate::jobs::{Job, JobQueue, JobRegistry, JobSpec, JobStatus};
use crate::metrics::{Gauges, Metrics};
use crate::shard::{self, Coordinator};
use crate::store::{DiskStore, TieredCache};
use dante_bench::json::Value;
use std::any::Any;
use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs; [`ServerConfig::from_env`] reads the
/// `DANTE_SERVE_*` environment variables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Bind address (`DANTE_SERVE_ADDR`, default `127.0.0.1:7878`; use
    /// port 0 for an ephemeral port).
    pub addr: String,
    /// Sweep worker threads (`DANTE_SERVE_WORKERS`). `0` is accepted and
    /// means "no workers": jobs queue but never run — useful only for
    /// tests that need a deterministically full queue.
    pub workers: usize,
    /// Bounded queue depth (`DANTE_SERVE_QUEUE`); beyond it submissions
    /// get 429 + `Retry-After`.
    pub queue_depth: usize,
    /// Result-cache capacity in entries (`DANTE_SERVE_CACHE`).
    pub cache_capacity: usize,
    /// Request body cap in bytes (`DANTE_SERVE_MAX_BODY`); beyond it 413.
    pub max_body_bytes: usize,
    /// Per-read socket timeout for idle keep-alive connections.
    pub read_timeout: Duration,
    /// Directory for the persistent result cache (`DANTE_SERVE_DATA_DIR`;
    /// unset disables the disk tier — results then live only in memory).
    pub data_dir: Option<PathBuf>,
    /// Backend peers (`DANTE_SERVE_PEERS`, comma-separated `host:port`).
    /// Non-empty turns this node into a shard coordinator: sweep and
    /// fleet jobs fan out across the peers and merge byte-identically.
    pub peers: Vec<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".to_owned(),
            workers: 2,
            queue_depth: 32,
            cache_capacity: 64,
            max_body_bytes: 64 * 1024,
            read_timeout: Duration::from_secs(5),
            data_dir: None,
            peers: Vec::new(),
        }
    }
}

impl ServerConfig {
    /// Reads the `DANTE_SERVE_*` variables, rejecting unparsable values
    /// (same strictness policy as `DANTE_THREADS`: a mistyped knob should
    /// fail startup, not silently fall back).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending variable.
    pub fn from_env() -> Result<Self, String> {
        let mut cfg = Self::default();
        if let Ok(addr) = std::env::var("DANTE_SERVE_ADDR") {
            cfg.addr = addr;
        }
        let parse = |key: &str, min: usize| -> Result<Option<usize>, String> {
            match std::env::var(key) {
                Ok(raw) => raw
                    .trim()
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= min)
                    .map(Some)
                    .ok_or_else(|| format!("{key} must be an integer >= {min}, got {raw:?}")),
                Err(_) => Ok(None),
            }
        };
        if let Some(n) = parse("DANTE_SERVE_WORKERS", 1)? {
            cfg.workers = n;
        }
        if let Some(n) = parse("DANTE_SERVE_QUEUE", 1)? {
            cfg.queue_depth = n;
        }
        if let Some(n) = parse("DANTE_SERVE_CACHE", 0)? {
            cfg.cache_capacity = n;
        }
        if let Some(n) = parse("DANTE_SERVE_MAX_BODY", 64)? {
            cfg.max_body_bytes = n;
        }
        if let Ok(raw) = std::env::var("DANTE_SERVE_DATA_DIR") {
            let trimmed = raw.trim();
            cfg.data_dir = (!trimmed.is_empty()).then(|| PathBuf::from(trimmed));
        }
        if let Ok(raw) = std::env::var("DANTE_SERVE_PEERS") {
            let mut peers = Vec::new();
            for token in raw.split(',').map(str::trim).filter(|t| !t.is_empty()) {
                // A non-empty host and a u16 port after the last `:`, so
                // `[::1]:7879` passes and a mistyped port fails here rather
                // than at every leg's address resolution.
                let valid = token.rsplit_once(':').is_some_and(|(host, port)| {
                    !host.is_empty()
                        && port.bytes().all(|b| b.is_ascii_digit())
                        && port.parse::<u16>().is_ok()
                });
                if !valid {
                    return Err(format!(
                        "DANTE_SERVE_PEERS entries must be host:port with a port in \
                         0..=65535, got {token:?}"
                    ));
                }
                peers.push(token.to_owned());
            }
            cfg.peers = peers;
        }
        Ok(cfg)
    }
}

/// State shared by the accept loop, connection threads, and workers.
#[derive(Debug)]
struct Shared {
    config: ServerConfig,
    registry: JobRegistry,
    queue: JobQueue,
    cache: TieredCache,
    metrics: Arc<Metrics>,
    coordinator: Option<Coordinator>,
    shutdown: AtomicBool,
    active_connections: AtomicUsize,
}

/// A running server: bound address plus the shutdown/join controls.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    worker_threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound socket address (resolves port 0 to the real port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests graceful shutdown: stop accepting, cancel queued jobs,
    /// wake every waiter. In-flight jobs run to completion; call
    /// [`Self::join`] to wait for the drain.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Cancel everything still queued so synchronous submitters and
        // pollers see a terminal state instead of hanging.
        for job in self.shared.queue.drain() {
            job.set_status(
                JobStatus::Cancelled,
                None,
                Some("server shutting down".to_owned()),
            );
            self.shared
                .metrics
                .jobs_failed
                .fetch_add(1, Ordering::Relaxed);
            self.shared.registry.retire(&job);
        }
        self.shared.queue.notify_all();
        // Unblock the accept loop with a no-op connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
    }

    /// Waits for the accept loop, workers (draining their in-flight jobs),
    /// and open connections to finish. Returns `true` on a clean drain,
    /// `false` if connections were still open after a 10 s grace period.
    #[must_use]
    pub fn join(mut self) -> bool {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for t in self.worker_threads.drain(..) {
            let _ = t.join();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.shared.active_connections.load(Ordering::SeqCst) > 0 {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        true
    }
}

/// Binds and starts the service.
///
/// # Errors
///
/// Propagates bind failures and disk-cache open failures
/// (`DANTE_SERVE_DATA_DIR` pointing somewhere unusable should fail
/// startup, not silently serve without persistence).
pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let disk = match &config.data_dir {
        Some(dir) => Some(DiskStore::open(dir)?),
        None => None,
    };
    let coordinator = (!config.peers.is_empty()).then(|| Coordinator::new(config.peers.clone()));
    let shared = Arc::new(Shared {
        queue: JobQueue::new(config.queue_depth),
        cache: TieredCache::new(config.cache_capacity, disk),
        registry: JobRegistry::new(),
        metrics: Arc::new(Metrics::new()),
        coordinator,
        shutdown: AtomicBool::new(false),
        active_connections: AtomicUsize::new(0),
        config,
    });

    let worker_threads = (0..shared.config.workers)
        .map(|i| {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name(format!("dante-serve-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn worker")
        })
        .collect();

    let accept_shared = shared.clone();
    let accept_thread = std::thread::Builder::new()
        .name("dante-serve-accept".to_owned())
        .spawn(move || accept_loop(&listener, &accept_shared))
        .expect("spawn accept loop");

    Ok(ServerHandle {
        addr,
        shared,
        accept_thread: Some(accept_thread),
        worker_threads,
    })
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    // The wake-up connection (or a late client): drop it.
                    drop(stream);
                    return;
                }
                shared.active_connections.fetch_add(1, Ordering::SeqCst);
                let conn_shared = shared.clone();
                let spawned = std::thread::Builder::new()
                    .name("dante-serve-conn".to_owned())
                    .spawn(move || {
                        handle_connection(stream, &conn_shared);
                        conn_shared
                            .active_connections
                            .fetch_sub(1, Ordering::SeqCst);
                    });
                if spawned.is_err() {
                    // Spawn failure: undo the accounting and drop the
                    // connection rather than wedging the accept loop.
                    shared.active_connections.fetch_sub(1, Ordering::SeqCst);
                }
            }
            Err(_) if shared.shutdown.load(Ordering::SeqCst) => return,
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Runs queued jobs until shutdown. Each job streams its progress into
/// its event log through a [`JobProgress`] observer.
fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop(&shared.shutdown) {
        job.set_status(JobStatus::Running, None, None);
        match std::panic::catch_unwind(AssertUnwindSafe(|| run_job(shared, &job))) {
            Ok(body) => {
                let body = Arc::new(body);
                shared.cache.insert(job.digest.clone(), body.clone());
                // Count before publishing the terminal status: a client
                // woken by set_status may scrape /metrics immediately and
                // must see its own completed job.
                shared.metrics.job_completed(&job.spec);
                job.push_event(format!(r#"{{"event":"done","job":"{}"}}"#, job.id), true);
                job.set_status(JobStatus::Done, Some(body), None);
            }
            Err(panic) => {
                let why = panic_message(panic.as_ref());
                job.push_event(api::error_body(&why), true);
                job.set_status(JobStatus::Failed, None, Some(why));
                shared.metrics.jobs_failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        shared.registry.retire(&job);
    }
}

/// The message a caught panic carried (`panic!` payloads are a `String`
/// or a `&str`).
fn panic_message(panic: &(dyn Any + Send)) -> String {
    panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .unwrap_or_else(|| "panicked without a message".to_owned())
}

/// Executes one job, its [`JobProgress`] observer turning trial hooks
/// into events: sweeps run point by point, each point's energy annotation
/// following its trials, and fleets run die by die (one trial per die).
/// When this node is a coordinator (`DANTE_SERVE_PEERS`), bulk sweep/fleet
/// jobs fan out across the peers instead — per-trial event streaming is
/// replaced by a single `shard_fanout` event, but the merged response body
/// stays byte-identical to a local run.
fn run_job(shared: &Arc<Shared>, job: &Arc<Job>) -> String {
    let coordinator = match job.spec {
        JobSpec::Sweep(_) | JobSpec::Fleet(_) => shared.coordinator.as_ref(),
        JobSpec::Iso(_) | JobSpec::Retrain(_) => None,
    };
    if let Some(coordinator) = coordinator {
        job.push_event(
            format!(
                r#"{{"event":"shard_fanout","job":"{}","peers":{}}}"#,
                job.id,
                coordinator.peers().len()
            ),
            true,
        );
    }
    match &job.spec {
        JobSpec::Sweep(spec) => {
            let results = match coordinator {
                Some(coordinator) => {
                    coordinator.run_sweep(spec, &job.digest, &job.spec_json, &shared.metrics)
                }
                None => {
                    let prep = spec.prepare();
                    (0..prep.point_count())
                        .map(|point| {
                            let progress =
                                JobProgress::sweep_point(job, point, spec.voltages_mv[point]);
                            let result = prep.run_point_observed(point, &progress);
                            progress.annotate_energy(result.energy.dynamic.total().joules());
                            result
                        })
                        .collect()
                }
            };
            api::build_record(spec, &results).to_json_pretty()
        }
        JobSpec::Fleet(spec) => {
            let result = match coordinator {
                Some(coordinator) => {
                    coordinator.run_fleet(spec, &job.digest, &job.spec_json, &shared.metrics)
                }
                None => spec.solve_observed(&JobProgress::fleet(job)),
            };
            api::build_fleet_record(spec, &result).to_json_pretty()
        }
        // Iso solves are interactive-lane work: always computed locally
        // (seconds, not minutes — fan-out overhead would dominate).
        JobSpec::Iso(spec) => api::render_iso(spec, &spec.solve()),
        // Retraining always runs locally: the training loop is inherently
        // sequential (each epoch reads the previous epoch's weights), so
        // there is no window to fan out.
        JobSpec::Retrain(spec) => {
            let hardened = spec.run_observed(&mut |event| {
                job.push_event(api::retrain_event_line(event), false);
            });
            api::render_retrain(spec, &hardened)
        }
    }
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    configure_stream(&stream, shared.config.read_timeout);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut write_half = write_half;
    let mut reader = BufReader::new(stream);
    // Bounded keep-alive: a single connection cannot monopolize a thread
    // forever.
    for _ in 0..1000 {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let request = match read_request(&mut reader, shared.config.max_body_bytes) {
            Ok(request) => request,
            Err(RequestError::Closed) => return,
            Err(error) => {
                respond_request_error(&mut write_half, shared, &error);
                return;
            }
        };
        shared
            .metrics
            .requests_total
            .fetch_add(1, Ordering::Relaxed);
        let keep_alive = request.keep_alive && !shared.shutdown.load(Ordering::SeqCst);
        let started = Instant::now();
        let status = route(&mut write_half, shared, &request, keep_alive);
        shared.metrics.record_response(status, started.elapsed());
        if !keep_alive || status == STREAMED {
            return;
        }
    }
}

/// Sentinel "status" for responses that manage their own framing (chunked
/// streams close the connection themselves).
const STREAMED: u16 = 0;

fn respond_request_error(stream: &mut TcpStream, shared: &Arc<Shared>, error: &RequestError) {
    let (status, message) = match error {
        RequestError::Closed => return,
        RequestError::Io(m) => (400, m.clone()),
        RequestError::BadRequest(m) => (400, m.clone()),
        RequestError::HeadTooLarge => (
            431,
            format!("request head exceeds {} bytes", http::MAX_HEAD_BYTES),
        ),
        RequestError::BodyTooLarge(cap) => (413, format!("request body exceeds {cap} bytes")),
        RequestError::LengthRequired => (411, "requests must carry Content-Length".to_owned()),
    };
    shared.metrics.record_response(status, Duration::ZERO);
    respond_error(stream, status, &message, false);
}

/// What a fixed-path route does.
#[derive(Clone, Copy)]
enum Route {
    /// A job family: decode the request into its spec, then [`submit`] it.
    Job(fn(&Request) -> Result<JobSpec, String>),
    /// A coordinator's fan-out leg, served by [`shard_leg`].
    ShardLeg(fn(&[u8]) -> Result<String, String>),
    /// The liveness probe.
    Healthz,
    /// The flat-text counters and gauges.
    Metrics,
}

/// Every fixed-path endpoint. A listed path requested with another method
/// is a 405; any other path outside `/v1/jobs/` is a 404.
const ROUTES: [(&str, &str, Route); 8] = [
    (
        "POST",
        "/v1/sweep",
        Route::Job(|r| api::decode_spec(&r.body).map(JobSpec::Sweep)),
    ),
    (
        "POST",
        "/v1/fleet",
        Route::Job(|r| api::decode_fleet_spec(&r.body).map(JobSpec::Fleet)),
    ),
    (
        "POST",
        "/v1/retrain",
        Route::Job(|r| api::decode_retrain_spec(&r.body).map(JobSpec::Retrain)),
    ),
    (
        "GET",
        "/v1/iso-accuracy",
        Route::Job(|r| api::decode_iso_query(&solve_query(&r.query)).map(JobSpec::Iso)),
    ),
    ("POST", "/v1/shard/sweep", Route::ShardLeg(shard::sweep_leg)),
    ("POST", "/v1/shard/fleet", Route::ShardLeg(shard::fleet_leg)),
    ("GET", "/healthz", Route::Healthz),
    ("GET", "/metrics", Route::Metrics),
];

/// The iso query minus `mode`, which picks the submission transport (sync
/// or async ticket), not the solve; the strict decoder never sees it.
fn solve_query(query: &str) -> String {
    query
        .split('&')
        .filter(|pair| {
            let key = pair.split_once('=').map_or(*pair, |(k, _)| k);
            !pair.is_empty() && key != "mode"
        })
        .collect::<Vec<_>>()
        .join("&")
}

/// Dispatches one request; returns the response status (or [`STREAMED`]).
fn route(stream: &mut TcpStream, shared: &Arc<Shared>, request: &Request, keep_alive: bool) -> u16 {
    let (method, path) = (request.method.as_str(), request.path.as_str());
    if let Some(&(_, _, route)) = ROUTES.iter().find(|&&(m, p, _)| m == method && p == path) {
        return match route {
            Route::Job(decode) => match decode(request) {
                Ok(spec) => submit(stream, shared, request, keep_alive, spec),
                Err(why) => respond_error(stream, 400, &why, keep_alive),
            },
            Route::ShardLeg(leg) => shard_leg(stream, shared, request, keep_alive, leg),
            Route::Healthz => respond(stream, 200, "text/plain", &[], b"ok\n", keep_alive),
            Route::Metrics => {
                let (hits, misses) = shared.cache.stats();
                let (queue_interactive, queue_bulk) = shared.queue.lane_depths();
                let disk = shared.cache.disk_stats();
                let body = shared.metrics.render(&Gauges {
                    queue_depth: shared.queue.depth(),
                    queue_interactive,
                    queue_bulk,
                    cache_hits: hits,
                    cache_misses: misses,
                    disk_segments: disk.segments,
                    disk_bytes: disk.bytes,
                    disk_records: disk.records,
                });
                respond(stream, 200, "text/plain", &[], body.as_bytes(), keep_alive)
            }
        };
    }
    match path.strip_prefix("/v1/jobs/") {
        Some(rest) if method == "GET" => {
            if let Some(id) = rest.strip_suffix("/events") {
                stream_job_events(stream, shared, id)
            } else if let Some(id) = rest.strip_suffix("/result") {
                job_result(stream, shared, id, keep_alive)
            } else {
                job_status(stream, shared, rest, keep_alive)
            }
        }
        _ if ROUTES.iter().any(|&(_, p, _)| p == path) => {
            respond_error(stream, 405, "method not allowed", keep_alive)
        }
        _ => respond_error(
            stream,
            404,
            &format!("no such endpoint {path:?}"),
            keep_alive,
        ),
    }
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra: &[(&str, String)],
    body: &[u8],
    keep_alive: bool,
) -> u16 {
    let _ = http::write_response(stream, status, content_type, extra, body, keep_alive);
    status
}

/// The one error responder: a JSON `{"error": ...}` body. A 429 also
/// carries `Retry-After`, so every backpressure answer says when to retry.
fn respond_error(stream: &mut TcpStream, status: u16, message: &str, keep_alive: bool) -> u16 {
    let retry = [("Retry-After", "1".to_owned())];
    let extra: &[(&str, String)] = if status == 429 { &retry } else { &[] };
    let body = api::error_body(message);
    respond(
        stream,
        status,
        "application/json",
        extra,
        body.as_bytes(),
        keep_alive,
    )
}

/// `POST /v1/shard/{sweep,fleet}`: a coordinator's fan-out leg. Runs the
/// request's window synchronously in the connection thread and returns
/// its raw results as exact bit patterns — internal plumbing, deliberately
/// uncached and unqueued (the coordinator owns caching and scheduling for
/// the whole job). A malformed leg, or one whose key is not this peer's
/// key for its spec, is a 400; a panicking window a 500.
fn shard_leg(
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    request: &Request,
    keep_alive: bool,
    leg: fn(&[u8]) -> Result<String, String>,
) -> u16 {
    if shared.shutdown.load(Ordering::SeqCst) {
        return respond_error(stream, 503, "server shutting down", false);
    }
    match std::panic::catch_unwind(|| leg(&request.body)) {
        Ok(Ok(body)) => respond(
            stream,
            200,
            "application/json",
            &[],
            body.as_bytes(),
            keep_alive,
        ),
        Ok(Err(why)) => respond_error(stream, 400, &why, keep_alive),
        Err(panic) => respond_error(stream, 500, &panic_message(panic.as_ref()), keep_alive),
    }
}

/// The one submission path for every job family: cache lookup, dedup
/// against an identical in-flight job, enqueue (429 on a full queue), then
/// either a 202 ticket (`?mode=async`) or a synchronous wait. Each
/// family's canonical string carries its own `dante.<family>.` prefix, so
/// the cache-key families cannot collide, and cache hits are counted per
/// family (`Metrics::cache_hit`). Iso solves ride the queue's
/// interactive lane, so they never wait behind a bulk backlog.
fn submit(
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    request: &Request,
    keep_alive: bool,
    spec: JobSpec,
) -> u16 {
    let key = digest(&spec.canonical_string());
    if let Some(body) = shared.cache.get(&key) {
        shared.metrics.cache_hit(&spec);
        return respond(
            stream,
            200,
            "application/json",
            &[("X-Dante-Cache", "hit".to_owned()), ("X-Dante-Digest", key)],
            body.as_bytes(),
            keep_alive,
        );
    }
    if shared.shutdown.load(Ordering::SeqCst) {
        return respond_error(stream, 503, "server shutting down", false);
    }

    // Attach to an identical in-flight job if one exists; otherwise create
    // and enqueue. Identical concurrent submissions thus cost one
    // simulation, and — determinism — receive byte-identical bodies.
    let job = match shared.registry.active_for_digest(&key) {
        Some(job) => job,
        None => {
            let job =
                shared
                    .registry
                    .create(spec, request.body.clone(), key, request.client.clone());
            if shared.queue.try_push(job.clone()).is_err() {
                job.set_status(JobStatus::Cancelled, None, Some("queue full".to_owned()));
                shared.registry.retire(&job);
                shared.metrics.jobs_rejected.fetch_add(1, Ordering::Relaxed);
                let why = format!(
                    "queue full ({} waiting); retry shortly",
                    shared.config.queue_depth
                );
                return respond_error(stream, 429, &why, keep_alive);
            }
            job
        }
    };

    if request.query_param("mode") == Some("async") {
        let body = Value::Object(BTreeMap::from([
            ("job".to_owned(), Value::String(job.id.clone())),
            ("digest".to_owned(), Value::String(job.digest.clone())),
            (
                "status".to_owned(),
                Value::String(job.status().token().to_owned()),
            ),
        ]))
        .to_string_compact();
        return respond(
            stream,
            202,
            "application/json",
            &[],
            body.as_bytes(),
            keep_alive,
        );
    }

    match job.wait_terminal(&shared.shutdown) {
        JobStatus::Done => {
            let body = job
                .state
                .lock()
                .expect("job lock poisoned")
                .result
                .clone()
                .expect("done job carries a result");
            respond(
                stream,
                200,
                "application/json",
                &[
                    ("X-Dante-Cache", "miss".to_owned()),
                    ("X-Dante-Digest", job.digest.clone()),
                ],
                body.as_bytes(),
                keep_alive,
            )
        }
        JobStatus::Failed => {
            let why = job
                .state
                .lock()
                .expect("job lock poisoned")
                .error
                .clone()
                .unwrap_or_else(|| "job failed".to_owned());
            respond_error(stream, 500, &why, keep_alive)
        }
        _ => respond_error(stream, 503, "cancelled by shutdown", false),
    }
}

fn job_status(stream: &mut TcpStream, shared: &Arc<Shared>, id: &str, keep_alive: bool) -> u16 {
    let Some(job) = shared.registry.get(id) else {
        return respond_error(stream, 404, &format!("no such job {id:?}"), keep_alive);
    };
    let state = job.state.lock().expect("job lock poisoned");
    let mut obj = BTreeMap::from([
        ("id".to_owned(), Value::String(job.id.clone())),
        ("digest".to_owned(), Value::String(job.digest.clone())),
        (
            "status".to_owned(),
            Value::String(state.status.token().to_owned()),
        ),
        (
            "events".to_owned(),
            Value::Number(state.events.len() as f64),
        ),
        (
            "dropped_events".to_owned(),
            Value::Number(state.dropped_events as f64),
        ),
    ]);
    if let Some(seq) = state.finish_seq {
        // Process-wide completion order: lets clients (and the fairness
        // tests) observe which jobs finished first without timing races.
        obj.insert("finish_seq".to_owned(), Value::Number(seq as f64));
    }
    if let Some(result) = &state.result {
        // Embed the record as structure, not as an escaped string; the
        // byte-exact body lives at /result and in the POST response.
        if let Ok(parsed) = Value::parse(result) {
            obj.insert("result".to_owned(), parsed);
        }
    }
    if let Some(error) = &state.error {
        obj.insert("error".to_owned(), Value::String(error.clone()));
    }
    drop(state);
    let body = Value::Object(obj).to_string_compact();
    respond(
        stream,
        200,
        "application/json",
        &[],
        body.as_bytes(),
        keep_alive,
    )
}

fn job_result(stream: &mut TcpStream, shared: &Arc<Shared>, id: &str, keep_alive: bool) -> u16 {
    let Some(job) = shared.registry.get(id) else {
        return respond_error(stream, 404, &format!("no such job {id:?}"), keep_alive);
    };
    let state = job.state.lock().expect("job lock poisoned");
    match (&state.result, state.status) {
        (Some(result), _) => {
            let body = result.clone();
            drop(state);
            respond(
                stream,
                200,
                "application/json",
                &[("X-Dante-Digest", job.digest.clone())],
                body.as_bytes(),
                keep_alive,
            )
        }
        (None, status) => {
            drop(state);
            let why = format!("job is {}, no result", status.token());
            respond_error(stream, 404, &why, keep_alive)
        }
    }
}

/// Streams a job's progress events as one JSON line per chunk, replaying
/// history first and then following live until the job ends or the server
/// shuts down (which terminates the chunk stream cleanly with a final
/// `shutdown` event).
fn stream_job_events(stream: &mut TcpStream, shared: &Arc<Shared>, id: &str) -> u16 {
    let Some(job) = shared.registry.get(id) else {
        return respond_error(stream, 404, &format!("no such job {id:?}"), false);
    };
    let Ok(mut chunks) = ChunkedResponse::start(stream, 200, "application/x-ndjson") else {
        return STREAMED;
    };
    let mut cursor = 0usize;
    loop {
        // Snapshot new events under the lock, write them outside it.
        let (new_events, status) = {
            let state = job.state.lock().expect("job lock poisoned");
            (
                state.events[cursor.min(state.events.len())..].to_vec(),
                state.status,
            )
        };
        for event in &new_events {
            cursor += 1;
            let mut line = String::with_capacity(event.len() + 1);
            line.push_str(event);
            line.push('\n');
            if chunks.chunk(line.as_bytes()).is_err() {
                return STREAMED; // client went away
            }
        }
        if status.is_terminal() {
            let _ = chunks.chunk(
                format!("{{\"event\":\"end\",\"status\":\"{}\"}}\n", status.token()).as_bytes(),
            );
            break;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            let _ = chunks.chunk(b"{\"event\":\"shutdown\"}\n");
            break;
        }
        // Wait for more events (or a timeout tick to re-check shutdown).
        let state = job.state.lock().expect("job lock poisoned");
        if state.events.len() == cursor && !state.status.is_terminal() {
            let _ = job
                .cv
                .wait_timeout(state, Duration::from_millis(50))
                .expect("job lock poisoned");
        }
    }
    let _ = chunks.finish();
    STREAMED
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_from_env_rejects_garbage() {
        std::env::set_var("DANTE_SERVE_WORKERS", "lots");
        let err = ServerConfig::from_env().unwrap_err();
        assert!(err.contains("DANTE_SERVE_WORKERS"), "{err}");
        std::env::set_var("DANTE_SERVE_WORKERS", "0");
        assert!(ServerConfig::from_env().is_err(), "binary floor is 1");
        std::env::set_var("DANTE_SERVE_WORKERS", "3");
        std::env::set_var("DANTE_SERVE_QUEUE", "7");
        let cfg = ServerConfig::from_env().unwrap();
        assert_eq!(cfg.workers, 3);
        assert_eq!(cfg.queue_depth, 7);
        for peers in ["127.0.0.1:http", "127.0.0.1:", ":7878", "host:70000"] {
            std::env::set_var("DANTE_SERVE_PEERS", peers);
            let err = ServerConfig::from_env().unwrap_err();
            assert!(err.contains("DANTE_SERVE_PEERS"), "{peers}: {err}");
        }
        std::env::set_var("DANTE_SERVE_PEERS", "127.0.0.1:7878,[::1]:7879");
        let cfg = ServerConfig::from_env().unwrap();
        assert_eq!(cfg.peers, ["127.0.0.1:7878", "[::1]:7879"]);
        std::env::remove_var("DANTE_SERVE_WORKERS");
        std::env::remove_var("DANTE_SERVE_QUEUE");
        std::env::remove_var("DANTE_SERVE_PEERS");
    }
}
