//! Sweep jobs: states, the bounded two-lane queue, and the registry.
//!
//! A [`Job`] is one queued/running/finished sweep. Its state sits behind a
//! `Mutex` so three kinds of thread can coordinate on it: the worker that
//! runs it, synchronous submitters blocked in [`Job::wait_terminal`], and
//! streaming connections replaying [`Job::state`] events as they appear.
//! Two condvars wake them: [`Job::cv`] on every event or status change, for
//! the streamers, and a status-only one for the submitters, which a
//! 2,000-die fleet's 4,000 progress events would otherwise wake 4,000
//! times.
//!
//! # Scheduling
//!
//! The queue is not a plain FIFO. Jobs are split into two [`Lane`]s —
//! interactive (iso-accuracy solves: seconds of work a human is waiting
//! on) and bulk (sweeps and fleet populations: minutes of work) — served
//! by weighted round-robin, so a burst of bulk submissions cannot starve
//! an interactive solve. Within the bulk lane, jobs are queued per client
//! token (the `X-Dante-Client` request header) and clients are served
//! round-robin, so one client queueing a 10,000-die fleet backlog cannot
//! starve another client's single sweep.

use dante::fleet::FleetSpec;
use dante::iso::IsoAccuracySpec;
use dante::retrain::RetrainSpec;
use dante::sweep::SweepSpec;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Cap on retained per-job progress events; beyond it events are counted
/// but dropped. Bracket and terminal events are always appended, so
/// streams show where each point or fleet starts and ends and finish with
/// a definite marker.
pub const EVENT_CAP: usize = 4096;

/// Finished jobs the registry keeps addressable by id; [`JobRegistry::retire`]
/// forgets the oldest beyond it, with its event log and result body.
pub const FINISHED_JOBS_KEPT: usize = 256;

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the queue.
    Queued,
    /// Claimed by a worker.
    Running,
    /// Finished; the result body is available.
    Done,
    /// The worker hit an error (panic or preparation failure).
    Failed,
    /// Dropped by graceful shutdown before a worker picked it up.
    Cancelled,
}

impl JobStatus {
    /// Whether the job will make no further progress.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(self, Self::Done | Self::Failed | Self::Cancelled)
    }

    /// Lowercase wire token.
    #[must_use]
    pub fn token(self) -> &'static str {
        match self {
            Self::Queued => "queued",
            Self::Running => "running",
            Self::Done => "done",
            Self::Failed => "failed",
            Self::Cancelled => "cancelled",
        }
    }
}

/// Mutable job state (guarded by [`Job::state`]).
#[derive(Debug)]
pub struct JobState {
    /// Current lifecycle phase.
    pub status: JobStatus,
    /// Rendered progress events (JSON lines), capped at [`EVENT_CAP`].
    pub events: Vec<Arc<String>>,
    /// Events dropped once the cap was hit.
    pub dropped_events: u64,
    /// The rendered response body, set when `status == Done`.
    pub result: Option<Arc<String>>,
    /// Failure reason, set when `status == Failed`.
    pub error: Option<String>,
    /// Process-wide monotone completion sequence number, assigned the
    /// moment the job goes terminal. Lets tests and clients assert
    /// *ordering* between completions (e.g. lane fairness) without
    /// wall-clock races.
    pub finish_seq: Option<u64>,
}

/// Process-wide completion counter backing [`JobState::finish_seq`].
static FINISH_SEQ: AtomicU64 = AtomicU64::new(0);

/// Which scheduling lane a job rides in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Short, human-blocking work (iso-accuracy solves).
    Interactive,
    /// Long-running throughput work (sweeps, fleet populations).
    Bulk,
}

/// The work a job carries: a voltage sweep, a fleet-scale V_min/yield
/// population sweep, an iso-accuracy solve, or a fault-aware retraining
/// run. All are content-addressed by their canonical strings, whose
/// distinct `dante.sweep.` / `dante.fleet.` / `dante.iso.` /
/// `dante.retrain.` prefixes keep the cache-key families disjoint by
/// construction.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// A Monte-Carlo accuracy/energy sweep (`POST /v1/sweep`).
    Sweep(SweepSpec),
    /// A fleet V_min/yield sweep (`POST /v1/fleet`).
    Fleet(FleetSpec),
    /// An iso-accuracy solve (`GET /v1/iso-accuracy`) — the interactive
    /// lane's tenant.
    Iso(IsoAccuracySpec),
    /// A fault-aware retraining run (`POST /v1/retrain`) — the longest
    /// bulk work the service carries.
    Retrain(RetrainSpec),
}

impl JobSpec {
    /// The canonical content-address input of the underlying spec.
    #[must_use]
    pub fn canonical_string(&self) -> String {
        match self {
            Self::Sweep(spec) => spec.canonical_string(),
            Self::Fleet(spec) => spec.canonical_string(),
            Self::Iso(spec) => spec.canonical_string(),
            Self::Retrain(spec) => spec.canonical_string(),
        }
    }

    /// This spec's family: sweep, iso, fleet or retrain. It indexes the
    /// per-family `/metrics` counters.
    #[must_use]
    pub fn family(&self) -> usize {
        match self {
            Self::Sweep(_) => 0,
            Self::Iso(_) => 1,
            Self::Fleet(_) => 2,
            Self::Retrain(_) => 3,
        }
    }

    /// The scheduling lane this work rides in.
    #[must_use]
    pub fn lane(&self) -> Lane {
        match self {
            Self::Iso(_) => Lane::Interactive,
            Self::Sweep(_) | Self::Fleet(_) | Self::Retrain(_) => Lane::Bulk,
        }
    }
}

/// One sweep job.
#[derive(Debug)]
pub struct Job {
    /// Service-unique identifier (`"job-<n>"`).
    pub id: String,
    /// Content digest of the spec's canonical string.
    pub digest: String,
    /// The work itself.
    pub spec: JobSpec,
    /// The request body `spec` was decoded from (empty for an iso query);
    /// shard legs forward it.
    pub(crate) spec_json: Vec<u8>,
    /// The submitting client's token (`X-Dante-Client` header; empty when
    /// the client sent none). Bulk-lane fairness is keyed on this.
    pub client: String,
    /// Guarded state; lock only briefly.
    pub state: Mutex<JobState>,
    /// Signalled on every event and status change; streaming connections
    /// wait on it.
    pub cv: Condvar,
    /// Signalled only on status changes; [`Job::wait_terminal`] waits on
    /// it.
    status_cv: Condvar,
}

impl Job {
    fn new(id: String, digest: String, spec: JobSpec, spec_json: Vec<u8>, client: String) -> Self {
        Self {
            id,
            digest,
            spec,
            spec_json,
            client,
            state: Mutex::new(JobState {
                status: JobStatus::Queued,
                events: Vec::new(),
                dropped_events: 0,
                result: None,
                error: None,
                finish_seq: None,
            }),
            cv: Condvar::new(),
            status_cv: Condvar::new(),
        }
    }

    /// Appends a progress event (subject to [`EVENT_CAP`] unless `force`)
    /// and wakes every streaming waiter.
    pub fn push_event(&self, line: String, force: bool) {
        let mut state = self.state.lock().expect("job lock poisoned");
        if force || state.events.len() < EVENT_CAP {
            state.events.push(Arc::new(line));
        } else {
            state.dropped_events += 1;
        }
        drop(state);
        self.cv.notify_all();
    }

    /// Moves the job to `status` (optionally attaching a result or error)
    /// and wakes every waiter.
    pub fn set_status(
        &self,
        status: JobStatus,
        result: Option<Arc<String>>,
        error: Option<String>,
    ) {
        let mut state = self.state.lock().expect("job lock poisoned");
        state.status = status;
        if result.is_some() {
            state.result = result;
        }
        if error.is_some() {
            state.error = error;
        }
        if status.is_terminal() && state.finish_seq.is_none() {
            state.finish_seq = Some(FINISH_SEQ.fetch_add(1, Ordering::Relaxed) + 1);
        }
        drop(state);
        self.cv.notify_all();
        self.status_cv.notify_all();
    }

    /// The completion sequence number, once terminal.
    #[must_use]
    pub fn finish_seq(&self) -> Option<u64> {
        self.state.lock().expect("job lock poisoned").finish_seq
    }

    /// The scheduling lane this job rides in.
    #[must_use]
    pub fn lane(&self) -> Lane {
        self.spec.lane()
    }

    /// Current status snapshot.
    #[must_use]
    pub fn status(&self) -> JobStatus {
        self.state.lock().expect("job lock poisoned").status
    }

    /// Blocks until the job reaches a terminal status or `shutdown` is
    /// raised; returns the status seen last. Waits on the status-only
    /// condvar, so progress events do not wake it, and polls on a short
    /// timeout so a shutdown signalled from another thread is never missed.
    #[must_use]
    pub fn wait_terminal(&self, shutdown: &AtomicBool) -> JobStatus {
        let mut state = self.state.lock().expect("job lock poisoned");
        loop {
            if state.status.is_terminal() {
                return state.status;
            }
            if shutdown.load(Ordering::SeqCst) && state.status == JobStatus::Queued {
                // The queue drain will cancel it momentarily; report the
                // intent without racing the drain.
                return JobStatus::Cancelled;
            }
            let (next, _) = self
                .status_cv
                .wait_timeout(state, Duration::from_millis(50))
                .expect("job lock poisoned");
            state = next;
        }
    }
}

/// Submission failure: the bounded queue is at capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

/// Weighted-round-robin credits: out of every `INTERACTIVE_CREDITS +
/// BULK_CREDITS` consecutive dispatches under contention, the interactive
/// lane receives `INTERACTIVE_CREDITS`. 4:1 in favour of interactive work —
/// bulk jobs run minutes, so even heavily favouring the short lane costs
/// bulk throughput almost nothing while keeping solves responsive.
const INTERACTIVE_CREDITS: u32 = 4;
/// The bulk lane's dispatches per round (see [`INTERACTIVE_CREDITS`]).
const BULK_CREDITS: u32 = 1;

/// Queue internals: one FIFO for the interactive lane, per-client FIFOs
/// with client rotation for the bulk lane, and the WRR credit state.
#[derive(Debug, Default)]
struct LaneState {
    interactive: VecDeque<Arc<Job>>,
    /// Bulk jobs keyed by client token.
    bulk: HashMap<String, VecDeque<Arc<Job>>>,
    /// Clients with waiting bulk jobs, in round-robin service order.
    bulk_rotation: VecDeque<String>,
    bulk_len: usize,
    credits_interactive: u32,
    credits_bulk: u32,
}

impl LaneState {
    fn len(&self) -> usize {
        self.interactive.len() + self.bulk_len
    }

    fn pop_bulk(&mut self) -> Option<Arc<Job>> {
        let client = self.bulk_rotation.pop_front()?;
        let queue = self
            .bulk
            .get_mut(&client)
            .expect("rotation entries always have a queue");
        let job = queue.pop_front().expect("rotation queues are non-empty");
        if queue.is_empty() {
            self.bulk.remove(&client);
        } else {
            // The client goes to the back of the rotation: each waiting
            // client gets one dispatch per cycle regardless of backlog.
            self.bulk_rotation.push_back(client);
        }
        self.bulk_len -= 1;
        Some(job)
    }
}

/// The bounded two-lane queue feeding the worker pool (see the module docs
/// for the scheduling discipline).
#[derive(Debug)]
pub struct JobQueue {
    capacity: usize,
    inner: Mutex<LaneState>,
    cv: Condvar,
}

impl JobQueue {
    /// A queue admitting at most `capacity` waiting jobs.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            inner: Mutex::new(LaneState::default()),
            cv: Condvar::new(),
        }
    }

    /// Enqueues `job` in its lane, or reports [`QueueFull`] — the caller
    /// turns that into HTTP 429 with `Retry-After`.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when `capacity` jobs are already waiting
    /// (the bound covers both lanes together).
    pub fn try_push(&self, job: Arc<Job>) -> Result<(), QueueFull> {
        let mut state = self.inner.lock().expect("queue lock poisoned");
        if state.len() >= self.capacity {
            return Err(QueueFull);
        }
        match job.lane() {
            Lane::Interactive => state.interactive.push_back(job),
            Lane::Bulk => {
                let client = job.client.clone();
                let newly_active = state.bulk.get(&client).is_none_or(|queue| queue.is_empty());
                if newly_active {
                    state.bulk_rotation.push_back(client.clone());
                }
                state.bulk.entry(client).or_default().push_back(job);
                state.bulk_len += 1;
            }
        }
        drop(state);
        self.cv.notify_one();
        Ok(())
    }

    /// Blocks for the next job per the weighted-round-robin discipline;
    /// returns `None` once `shutdown` is raised (workers then exit —
    /// in-flight jobs have already been claimed and run to completion,
    /// which is the drain guarantee).
    ///
    /// The scheduler is work-conserving: credits only arbitrate when both
    /// lanes hold work; a lone non-empty lane is always served.
    #[must_use]
    pub fn pop(&self, shutdown: &AtomicBool) -> Option<Arc<Job>> {
        let mut state = self.inner.lock().expect("queue lock poisoned");
        loop {
            if shutdown.load(Ordering::SeqCst) {
                return None;
            }
            if state.len() > 0 {
                if state.credits_interactive == 0 && state.credits_bulk == 0 {
                    state.credits_interactive = INTERACTIVE_CREDITS;
                    state.credits_bulk = BULK_CREDITS;
                }
                let take_interactive = if state.interactive.is_empty() {
                    false
                } else if state.bulk_len == 0 {
                    true
                } else {
                    // Both lanes have work: spend interactive credits
                    // first, then bulk's guaranteed share.
                    state.credits_interactive > 0
                };
                if take_interactive {
                    state.credits_interactive = state.credits_interactive.saturating_sub(1);
                    let job = state.interactive.pop_front().expect("checked non-empty");
                    return Some(job);
                }
                state.credits_bulk = state.credits_bulk.saturating_sub(1);
                let job = state.pop_bulk().expect("bulk lane checked non-empty");
                return Some(job);
            }
            let (next, _) = self
                .cv
                .wait_timeout(state, Duration::from_millis(50))
                .expect("queue lock poisoned");
            state = next;
        }
    }

    /// Jobs currently waiting across both lanes (the `/metrics` gauge).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.inner.lock().expect("queue lock poisoned").len()
    }

    /// `(interactive, bulk)` waiting-job counts (per-lane gauges).
    #[must_use]
    pub fn lane_depths(&self) -> (usize, usize) {
        let state = self.inner.lock().expect("queue lock poisoned");
        (state.interactive.len(), state.bulk_len)
    }

    /// Empties both lanes, returning the jobs that never ran (shutdown
    /// cancels them).
    #[must_use]
    pub fn drain(&self) -> Vec<Arc<Job>> {
        let mut state = self.inner.lock().expect("queue lock poisoned");
        let mut drained: Vec<Arc<Job>> = state.interactive.drain(..).collect();
        while let Some(job) = state.pop_bulk() {
            drained.push(job);
        }
        drop(state);
        self.cv.notify_all();
        drained
    }

    /// Wakes every thread blocked in [`Self::pop`] (shutdown path).
    pub fn notify_all(&self) {
        self.cv.notify_all();
    }
}

/// Every queued and running job and the [`FINISHED_JOBS_KEPT`] most
/// recently finished ones, by id, plus an active-by-digest index so
/// concurrent identical submissions share one simulation.
#[derive(Debug, Default)]
pub struct JobRegistry {
    jobs: Mutex<JobTable>,
    active_by_digest: Mutex<HashMap<String, Arc<Job>>>,
    next_id: AtomicU64,
}

/// The registry's jobs by id, and the retired ones' ids, oldest first.
#[derive(Debug, Default)]
struct JobTable {
    by_id: HashMap<String, Arc<Job>>,
    finished: VecDeque<String>,
}

impl JobRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates and registers a job for `spec`, decoded from `spec_json` and
    /// keyed `digest`, attributed to `client` (the `X-Dante-Client` token;
    /// empty for anonymous submissions).
    #[must_use]
    pub fn create(
        &self,
        spec: JobSpec,
        spec_json: Vec<u8>,
        digest: String,
        client: String,
    ) -> Arc<Job> {
        let id = format!("job-{}", self.next_id.fetch_add(1, Ordering::Relaxed) + 1);
        let job = Arc::new(Job::new(
            id.clone(),
            digest.clone(),
            spec,
            spec_json,
            client,
        ));
        self.jobs
            .lock()
            .expect("registry lock poisoned")
            .by_id
            .insert(id, job.clone());
        self.active_by_digest
            .lock()
            .expect("registry lock poisoned")
            .insert(digest, job.clone());
        job
    }

    /// Looks up a job by id.
    #[must_use]
    pub fn get(&self, id: &str) -> Option<Arc<Job>> {
        self.jobs
            .lock()
            .expect("registry lock poisoned")
            .by_id
            .get(id)
            .cloned()
    }

    /// The non-terminal job already covering `digest`, if any — concurrent
    /// identical submissions attach to it instead of re-simulating.
    #[must_use]
    pub fn active_for_digest(&self, digest: &str) -> Option<Arc<Job>> {
        let mut index = self
            .active_by_digest
            .lock()
            .expect("registry lock poisoned");
        match index.get(digest) {
            Some(job) if !job.status().is_terminal() => Some(job.clone()),
            Some(_) => {
                index.remove(digest);
                None
            }
            None => None,
        }
    }

    /// Drops the active-index entry once `job` is terminal (idempotent; a
    /// newer job under the same digest is left in place) and counts it
    /// among the finished jobs, forgetting the oldest beyond
    /// [`FINISHED_JOBS_KEPT`]. Queued and running jobs are never
    /// forgotten, and a forgotten job lives on for whoever still holds it
    /// (a stream already attached, say).
    pub fn retire(&self, job: &Arc<Job>) {
        let mut index = self
            .active_by_digest
            .lock()
            .expect("registry lock poisoned");
        if let Some(current) = index.get(&job.digest) {
            if Arc::ptr_eq(current, job) {
                index.remove(&job.digest);
            }
        }
        drop(index);
        if !job.status().is_terminal() {
            return;
        }
        let mut table = self.jobs.lock().expect("registry lock poisoned");
        if table.finished.contains(&job.id) {
            return;
        }
        table.finished.push_back(job.id.clone());
        while table.finished.len() > FINISHED_JOBS_KEPT {
            let oldest = table.finished.pop_front().expect("over the bound");
            table.by_id.remove(&oldest);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec::Sweep(SweepSpec::toy_default())
    }

    fn iso_spec() -> JobSpec {
        JobSpec::Iso(IsoAccuracySpec::toy_default())
    }

    #[test]
    fn job_spec_delegates_classification_and_canonical_string() {
        let specs = [
            (spec(), "dante.sweep.", Lane::Bulk),
            (iso_spec(), "dante.iso.", Lane::Interactive),
            (
                JobSpec::Fleet(FleetSpec::toy_default()),
                "dante.fleet.",
                Lane::Bulk,
            ),
            // Epochs of work ride bulk.
            (
                JobSpec::Retrain(RetrainSpec::toy_default()),
                "dante.retrain.",
                Lane::Bulk,
            ),
        ];
        for (family, (spec, prefix, lane)) in specs.into_iter().enumerate() {
            assert_eq!(spec.family(), family);
            assert!(spec.canonical_string().starts_with(prefix));
            assert_eq!(spec.lane(), lane);
        }
    }

    #[test]
    fn queue_enforces_capacity_and_fifo_order() {
        let registry = JobRegistry::new();
        let queue = JobQueue::new(2);
        let a = registry.create(spec(), Vec::new(), "d1".into(), String::new());
        let b = registry.create(spec(), Vec::new(), "d2".into(), String::new());
        let c = registry.create(spec(), Vec::new(), "d3".into(), String::new());
        assert_eq!(a.id, "job-1");
        queue.try_push(a.clone()).unwrap();
        queue.try_push(b.clone()).unwrap();
        assert_eq!(queue.try_push(c).unwrap_err(), QueueFull);
        assert_eq!(queue.depth(), 2);
        let shutdown = AtomicBool::new(false);
        assert_eq!(queue.pop(&shutdown).unwrap().id, a.id);
        assert_eq!(queue.pop(&shutdown).unwrap().id, b.id);
    }

    #[test]
    fn interactive_jobs_overtake_a_bulk_backlog() {
        let registry = JobRegistry::new();
        let queue = JobQueue::new(16);
        let shutdown = AtomicBool::new(false);
        // A bulk backlog already waiting...
        let bulk: Vec<_> = (0..4)
            .map(|i| registry.create(spec(), Vec::new(), format!("b{i}"), "batch".into()))
            .collect();
        for job in &bulk {
            queue.try_push(job.clone()).unwrap();
        }
        // ...then an interactive solve arrives late.
        let iso = registry.create(iso_spec(), Vec::new(), "iso".into(), "human".into());
        queue.try_push(iso.clone()).unwrap();
        assert_eq!(queue.lane_depths(), (1, 4));
        // The very next dispatch is the interactive job, not the backlog.
        assert_eq!(queue.pop(&shutdown).unwrap().id, iso.id);
        assert_eq!(queue.pop(&shutdown).unwrap().id, bulk[0].id);
    }

    #[test]
    fn lane_credits_prevent_interactive_monopoly() {
        // With both lanes saturated, bulk gets every fifth dispatch (4:1
        // credits) instead of starving.
        let registry = JobRegistry::new();
        let queue = JobQueue::new(16);
        let shutdown = AtomicBool::new(false);
        for i in 0..3 {
            queue
                .try_push(registry.create(spec(), Vec::new(), format!("b{i}"), String::new()))
                .unwrap();
        }
        for i in 0..12 {
            queue
                .try_push(registry.create(iso_spec(), Vec::new(), format!("i{i}"), String::new()))
                .unwrap();
        }
        let lanes: Vec<Lane> = (0..15)
            .map(|_| queue.pop(&shutdown).unwrap().lane())
            .collect();
        use Lane::{Bulk, Interactive};
        let round = [Interactive, Interactive, Interactive, Interactive, Bulk];
        assert_eq!(lanes, [round, round, round].concat());
    }

    #[test]
    fn bulk_lane_round_robins_clients() {
        // Client "hog" queues a backlog before "small" submits one job;
        // "small" is served on the second bulk dispatch, not after the
        // whole backlog.
        let registry = JobRegistry::new();
        let queue = JobQueue::new(16);
        let shutdown = AtomicBool::new(false);
        let hogs: Vec<_> = (0..4)
            .map(|i| registry.create(spec(), Vec::new(), format!("h{i}"), "hog".into()))
            .collect();
        for job in &hogs {
            queue.try_push(job.clone()).unwrap();
        }
        let small = registry.create(spec(), Vec::new(), "s0".into(), "small".into());
        queue.try_push(small.clone()).unwrap();
        let order: Vec<String> = (0..5)
            .map(|_| queue.pop(&shutdown).unwrap().id.clone())
            .collect();
        assert_eq!(order[0], hogs[0].id, "hog was first in line");
        assert_eq!(
            order[1], small.id,
            "small client is not stuck behind the backlog"
        );
        assert_eq!(
            &order[2..],
            &[hogs[1].id.clone(), hogs[2].id.clone(), hogs[3].id.clone()]
        );
    }

    #[test]
    fn finish_seq_orders_completions() {
        let registry = JobRegistry::new();
        let a = registry.create(spec(), Vec::new(), "fa".into(), String::new());
        let b = registry.create(spec(), Vec::new(), "fb".into(), String::new());
        assert_eq!(a.finish_seq(), None);
        b.set_status(JobStatus::Done, None, None);
        a.set_status(JobStatus::Done, None, None);
        let (sa, sb) = (a.finish_seq().unwrap(), b.finish_seq().unwrap());
        assert!(sb < sa, "b finished first: {sb} vs {sa}");
        // Idempotent: re-setting a terminal status keeps the first seq.
        a.set_status(JobStatus::Done, None, None);
        assert_eq!(a.finish_seq(), Some(sa));
    }

    #[test]
    fn pop_returns_none_on_shutdown() {
        let queue = JobQueue::new(1);
        let shutdown = AtomicBool::new(true);
        assert!(queue.pop(&shutdown).is_none());
    }

    #[test]
    fn wait_terminal_sees_completion_from_another_thread() {
        let registry = JobRegistry::new();
        let job = registry.create(spec(), Vec::new(), "d".into(), String::new());
        let waiter = {
            let job = job.clone();
            std::thread::spawn(move || {
                let shutdown = AtomicBool::new(false);
                job.wait_terminal(&shutdown)
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        job.set_status(JobStatus::Done, Some(Arc::new("body".into())), None);
        assert_eq!(waiter.join().unwrap(), JobStatus::Done);
        assert_eq!(
            job.state
                .lock()
                .unwrap()
                .result
                .as_deref()
                .map(String::as_str),
            Some("body")
        );
    }

    #[test]
    fn wait_terminal_returns_promptly_while_events_flood_in() {
        let registry = JobRegistry::new();
        let job = registry.create(spec(), Vec::new(), "d".into(), String::new());
        let stop = Arc::new(AtomicBool::new(false));
        let flood = {
            let (job, stop) = (job.clone(), stop.clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    job.push_event("die".into(), false);
                }
            })
        };
        let started = Arc::new(std::sync::Barrier::new(2));
        let waiter = {
            let (job, started) = (job.clone(), started.clone());
            std::thread::spawn(move || {
                started.wait();
                let status = job.wait_terminal(&AtomicBool::new(false));
                (status, std::time::Instant::now())
            })
        };
        started.wait();
        // A thousand more events arrive after the waiter has started.
        let pushed = || {
            let state = job.state.lock().unwrap();
            state.events.len() as u64 + state.dropped_events
        };
        let base = pushed();
        while pushed() < base + 1000 {
            std::thread::yield_now();
        }
        let done_at = std::time::Instant::now();
        job.set_status(JobStatus::Done, None, None);
        let (status, woke_at) = waiter.join().unwrap();
        stop.store(true, Ordering::SeqCst);
        flood.join().unwrap();
        assert_eq!(status, JobStatus::Done);
        let waited = woke_at.duration_since(done_at);
        assert!(
            waited < Duration::from_secs(1),
            "waiter took {waited:?} to see the terminal status"
        );
    }

    #[test]
    fn event_cap_drops_but_counts() {
        let registry = JobRegistry::new();
        let job = registry.create(spec(), Vec::new(), "d".into(), String::new());
        for i in 0..(EVENT_CAP + 10) {
            job.push_event(format!("e{i}"), false);
        }
        job.push_event("terminal".into(), true);
        let state = job.state.lock().unwrap();
        assert_eq!(state.events.len(), EVENT_CAP + 1);
        assert_eq!(state.dropped_events, 10);
        assert_eq!(state.events.last().unwrap().as_str(), "terminal");
    }

    /// Regression guard for long retrain jobs: even when the per-epoch
    /// stream blows past [`EVENT_CAP`], the forced terminal marker is
    /// still appended last, so `/v1/jobs/{id}/events` always ends with a
    /// definite `end` event (the follower loop keys off it).
    #[test]
    fn long_retrain_event_stream_past_cap_keeps_terminal_event() {
        let registry = JobRegistry::new();
        let job = registry.create(
            JobSpec::Retrain(RetrainSpec::toy_default()),
            Vec::new(),
            "r".into(),
            String::new(),
        );
        for epoch in 0..(EVENT_CAP + 7) {
            job.push_event(
                format!("{{\"event\":\"epoch_start\",\"epoch\":{epoch}}}"),
                false,
            );
        }
        job.push_event("{\"event\":\"end\",\"status\":\"done\"}".into(), true);
        job.set_status(JobStatus::Done, Some(Arc::new("{}".into())), None);
        let state = job.state.lock().unwrap();
        assert_eq!(state.events.len(), EVENT_CAP + 1);
        assert_eq!(state.dropped_events, 7);
        assert!(
            state.events.last().unwrap().contains("\"end\""),
            "terminal marker must survive the cap"
        );
    }

    #[test]
    fn digest_index_dedups_active_jobs_and_retires_terminal_ones() {
        let registry = JobRegistry::new();
        let job = registry.create(spec(), Vec::new(), "dig".into(), String::new());
        assert!(Arc::ptr_eq(
            &registry.active_for_digest("dig").unwrap(),
            &job
        ));
        job.set_status(JobStatus::Done, None, None);
        assert!(registry.active_for_digest("dig").is_none());
        registry.retire(&job); // idempotent after lazy removal
        assert!(registry.get(&job.id).is_some(), "history is retained");
    }

    #[test]
    fn retire_forgets_the_oldest_finished_jobs() {
        let registry = JobRegistry::new();
        let running = registry.create(spec(), Vec::new(), "run".into(), String::new());
        running.set_status(JobStatus::Running, None, None);
        registry.retire(&running);
        let finished: Vec<_> = (0..=FINISHED_JOBS_KEPT)
            .map(|i| {
                let job = registry.create(spec(), Vec::new(), format!("d{i}"), String::new());
                job.set_status(JobStatus::Done, Some(Arc::new("{}".into())), None);
                registry.retire(&job);
                job
            })
            .collect();
        assert!(registry.get(&finished[0].id).is_none(), "oldest forgotten");
        assert!(registry.get(&finished[1].id).is_some());
        assert!(registry.get(&finished[FINISHED_JOBS_KEPT].id).is_some());
        assert!(registry.get(&running.id).is_some(), "running jobs stay");
        // A holder of the forgotten job still reads it.
        assert_eq!(finished[0].status(), JobStatus::Done);
    }
}
