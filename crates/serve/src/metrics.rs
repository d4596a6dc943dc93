//! Service counters and latency tracking, rendered as plain text for
//! `GET /metrics`.

use crate::jobs::JobSpec;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// How many recent request latencies the percentile window retains.
const LATENCY_WINDOW: usize = 1024;

/// Each job family's `/metrics` counter names, indexed by
/// [`JobSpec::family`]: its completed jobs, then its cache hits where the
/// family reports them (sweep hits show only in the global cache counters).
const FAMILY_LINES: [(&str, Option<&str>); 4] = [
    ("energy_sweep_jobs_total", None),
    (
        "iso_accuracy_solves_total",
        Some("iso_accuracy_cache_hits_total"),
    ),
    ("fleet_jobs_total", Some("fleet_cache_hits_total")),
    ("retrain_jobs_total", Some("retrain_cache_hits_total")),
];

/// A fixed-capacity ring of the most recent latency samples.
///
/// `push` is O(1): once the buffer is full, the write index wraps and each
/// new sample overwrites the oldest one — no element shifting in the
/// response hot path.
#[derive(Debug, Default)]
struct LatencyRing {
    samples: Vec<u64>,
    next: usize,
}

impl LatencyRing {
    fn push(&mut self, micros: u64) {
        if self.samples.len() < LATENCY_WINDOW {
            self.samples.push(micros);
        } else {
            // Full: `next` points at the oldest sample (index 0 right after
            // the fill phase, then advancing one slot per overwrite).
            self.samples[self.next] = micros;
            self.next = (self.next + 1) % LATENCY_WINDOW;
        }
    }
}

/// Process-wide service metrics. All counters are monotonic except the
/// gauges, which are sampled at render time by the caller.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Requests accepted for processing (any endpoint).
    pub requests_total: AtomicU64,
    /// Responses by status class.
    pub responses_2xx: AtomicU64,
    /// 4xx responses (client errors, including 429 backpressure).
    pub responses_4xx: AtomicU64,
    /// 429 specifically, to make backpressure visible at a glance.
    pub responses_429: AtomicU64,
    /// 5xx responses.
    pub responses_5xx: AtomicU64,
    /// Sweep jobs completed successfully.
    pub jobs_completed: AtomicU64,
    /// Sweep jobs that failed or were cancelled by shutdown.
    pub jobs_failed: AtomicU64,
    /// Completed jobs per family, indexed by [`JobSpec::family`]; sweeps
    /// count only when they exercise the energy-comparison machinery (a
    /// non-single supply or the AlexNet/row-stationary workload; see
    /// `SweepSpec::is_energy_sweep`).
    family_jobs: [AtomicU64; 4],
    /// Result-cache hits per family, indexed by [`JobSpec::family`].
    family_cache_hits: [AtomicU64; 4],
    /// Submissions rejected with 429 because the queue was full.
    /// Incremented exactly once per rejected submission, on the same path
    /// that attaches `Retry-After`.
    pub jobs_rejected: AtomicU64,
    /// Shard sub-requests issued to peers (fan-out legs, including retries
    /// and hedges).
    pub shard_requests: AtomicU64,
    /// Shard legs re-sent to another peer after a failure.
    pub shard_retries: AtomicU64,
    /// Hedged duplicate legs launched against straggling peers.
    pub shard_hedges: AtomicU64,
    /// Shard windows computed locally after every peer leg failed.
    pub shard_fallbacks: AtomicU64,
    /// Shard legs currently in flight (gauge, maintained by the
    /// coordinator).
    pub shard_in_flight: AtomicU64,
    /// Ring of recent request latencies in microseconds.
    latencies: Mutex<LatencyRing>,
}

/// Point-in-time gauges sampled by the `/metrics` handler and appended to
/// the rendered counters: queue depths (total and per lane), in-memory
/// result-cache traffic, and the disk-cache segment store's footprint.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gauges {
    /// Jobs waiting across both lanes.
    pub queue_depth: usize,
    /// Jobs waiting in the interactive lane.
    pub queue_interactive: usize,
    /// Jobs waiting in the bulk lane.
    pub queue_bulk: usize,
    /// Result-cache hits (memory or disk tier).
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Disk-cache segment files.
    pub disk_segments: u64,
    /// Disk-cache bytes across segment files.
    pub disk_bytes: u64,
    /// Disk-cache records (distinct keys).
    pub disk_records: u64,
}

impl Metrics {
    /// Fresh zeroed metrics.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts a response with `status` and records the request latency.
    pub fn record_response(&self, status: u16, latency: Duration) {
        match status {
            200..=299 => &self.responses_2xx,
            429 => {
                self.responses_429.fetch_add(1, Ordering::Relaxed);
                &self.responses_4xx
            }
            400..=499 => &self.responses_4xx,
            _ => &self.responses_5xx,
        }
        .fetch_add(1, Ordering::Relaxed);
        let micros = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        self.latencies
            .lock()
            .expect("metrics lock poisoned")
            .push(micros);
    }

    /// A copy of the retained latency window (unordered).
    fn latency_snapshot(&self) -> Vec<u64> {
        self.latencies
            .lock()
            .expect("metrics lock poisoned")
            .samples
            .clone()
    }

    /// `(p50, p99)` of the retained latency window, in microseconds.
    ///
    /// The window is copied out under the lock and sorted after release, so
    /// a `/metrics` scrape never stalls concurrent `record_response` calls
    /// for the sort. Percentiles use the nearest-rank definition
    /// (`index = ceil(q*n) - 1`), which is well-defined down to n = 1.
    #[must_use]
    pub fn latency_percentiles(&self) -> (u64, u64) {
        let mut sorted = self.latency_snapshot();
        if sorted.is_empty() {
            return (0, 0);
        }
        sorted.sort_unstable();
        let at = |q: f64| {
            let rank = (q * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        (at(0.50), at(0.99))
    }

    /// Counts a completed job, overall and under its family.
    pub fn job_completed(&self, spec: &JobSpec) {
        self.jobs_completed.fetch_add(1, Ordering::Relaxed);
        if !matches!(spec, JobSpec::Sweep(sweep) if !sweep.is_energy_sweep()) {
            self.family_jobs[spec.family()].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts a result-cache hit under the job's family.
    pub fn cache_hit(&self, spec: &JobSpec) {
        self.family_cache_hits[spec.family()].fetch_add(1, Ordering::Relaxed);
    }

    /// Renders the metrics in the flat `name value` text format, with the
    /// caller-sampled [`Gauges`] appended.
    #[must_use]
    pub fn render(&self, gauges: &Gauges) -> String {
        let (p50, p99) = self.latency_percentiles();
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let mut lines = vec![
            ("requests_total", load(&self.requests_total)),
            ("responses_2xx_total", load(&self.responses_2xx)),
            ("responses_4xx_total", load(&self.responses_4xx)),
            ("responses_429_total", load(&self.responses_429)),
            ("responses_5xx_total", load(&self.responses_5xx)),
            ("jobs_completed_total", load(&self.jobs_completed)),
            ("jobs_failed_total", load(&self.jobs_failed)),
            ("jobs_rejected_total", load(&self.jobs_rejected)),
        ];
        for (family, &(jobs, hits)) in FAMILY_LINES.iter().enumerate() {
            lines.push((jobs, load(&self.family_jobs[family])));
            if let Some(hits) = hits {
                lines.push((hits, load(&self.family_cache_hits[family])));
            }
        }
        lines.extend([
            ("shard_requests_total", load(&self.shard_requests)),
            ("shard_retries_total", load(&self.shard_retries)),
            ("shard_hedges_total", load(&self.shard_hedges)),
            ("shard_fallbacks_total", load(&self.shard_fallbacks)),
            ("shard_in_flight", load(&self.shard_in_flight)),
            ("queue_depth", gauges.queue_depth as u64),
            ("queue_depth_interactive", gauges.queue_interactive as u64),
            ("queue_depth_bulk", gauges.queue_bulk as u64),
            ("cache_hits_total", gauges.cache_hits),
            ("cache_misses_total", gauges.cache_misses),
            ("disk_cache_segments", gauges.disk_segments),
            ("disk_cache_bytes", gauges.disk_bytes),
            ("disk_cache_records", gauges.disk_records),
            ("request_latency_p50_micros", p50),
            ("request_latency_p99_micros", p99),
        ]);
        lines
            .iter()
            .map(|(name, value)| format!("dante_serve_{name} {value}\n"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_percentiles_track_responses() {
        let m = Metrics::new();
        m.requests_total.fetch_add(3, Ordering::Relaxed);
        m.record_response(200, Duration::from_micros(100));
        m.record_response(429, Duration::from_micros(300));
        m.record_response(500, Duration::from_micros(200));
        m.jobs_rejected.fetch_add(1, Ordering::Relaxed);
        m.shard_requests.fetch_add(4, Ordering::Relaxed);
        m.shard_hedges.fetch_add(1, Ordering::Relaxed);
        let text = m.render(&Gauges {
            queue_depth: 2,
            queue_interactive: 1,
            queue_bulk: 1,
            cache_hits: 5,
            cache_misses: 7,
            disk_segments: 3,
            disk_bytes: 4096,
            disk_records: 9,
        });
        // The exact line set and order clients scrape.
        let names: Vec<&str> = text.lines().map(|l| l.split(' ').next().unwrap()).collect();
        let expected = "requests_total responses_2xx_total responses_4xx_total \
             responses_429_total responses_5xx_total jobs_completed_total jobs_failed_total \
             jobs_rejected_total energy_sweep_jobs_total iso_accuracy_solves_total \
             iso_accuracy_cache_hits_total fleet_jobs_total fleet_cache_hits_total \
             retrain_jobs_total retrain_cache_hits_total shard_requests_total \
             shard_retries_total shard_hedges_total shard_fallbacks_total shard_in_flight \
             queue_depth queue_depth_interactive queue_depth_bulk cache_hits_total \
             cache_misses_total disk_cache_segments disk_cache_bytes disk_cache_records \
             request_latency_p50_micros request_latency_p99_micros";
        let expected: Vec<String> = expected
            .split_whitespace()
            .map(|name| format!("dante_serve_{name}"))
            .collect();
        assert_eq!(names, expected);
        assert!(text.contains("dante_serve_requests_total 3"), "{text}");
        assert!(text.contains("dante_serve_responses_2xx_total 1"));
        assert!(text.contains("dante_serve_responses_4xx_total 1"));
        assert!(text.contains("dante_serve_responses_429_total 1"));
        assert!(text.contains("dante_serve_responses_5xx_total 1"));
        assert!(text.contains("dante_serve_jobs_rejected_total 1"));
        assert!(text.contains("dante_serve_queue_depth 2"));
        assert!(text.contains("dante_serve_queue_depth_interactive 1"));
        assert!(text.contains("dante_serve_queue_depth_bulk 1"));
        assert!(text.contains("dante_serve_cache_hits_total 5"));
        assert!(text.contains("dante_serve_cache_misses_total 7"));
        assert!(text.contains("dante_serve_disk_cache_segments 3"));
        assert!(text.contains("dante_serve_disk_cache_bytes 4096"));
        assert!(text.contains("dante_serve_disk_cache_records 9"));
        assert!(text.contains("dante_serve_shard_requests_total 4"));
        assert!(text.contains("dante_serve_shard_retries_total 0"));
        assert!(text.contains("dante_serve_shard_hedges_total 1"));
        assert!(text.contains("dante_serve_shard_fallbacks_total 0"));
        assert!(text.contains("dante_serve_shard_in_flight 0"));
        assert!(text.contains("dante_serve_energy_sweep_jobs_total 0"));
        assert!(text.contains("dante_serve_iso_accuracy_solves_total 0"));
        assert!(text.contains("dante_serve_fleet_jobs_total 0"));
        assert!(text.contains("dante_serve_fleet_cache_hits_total 0"));
        assert!(text.contains("dante_serve_retrain_jobs_total 0"));
        assert!(text.contains("dante_serve_retrain_cache_hits_total 0"));
        let (p50, p99) = m.latency_percentiles();
        assert_eq!(p50, 200);
        assert_eq!(p99, 300);
    }

    #[test]
    fn empty_window_renders_zero_percentiles() {
        assert_eq!(Metrics::new().latency_percentiles(), (0, 0));
    }

    #[test]
    fn window_retains_the_most_recent_samples() {
        let m = Metrics::new();
        let total = LATENCY_WINDOW + 250;
        for i in 0..total {
            m.record_response(200, Duration::from_micros(i as u64));
        }
        let snapshot = m.latency_snapshot();
        assert_eq!(
            snapshot.len(),
            LATENCY_WINDOW,
            "window never exceeds its cap"
        );
        let mut sorted = snapshot;
        sorted.sort_unstable();
        // Exactly the most recent LATENCY_WINDOW samples survive: the
        // values 250..total, each once.
        let expected: Vec<u64> = (250..total as u64).collect();
        assert_eq!(sorted, expected);
    }

    #[test]
    fn nearest_rank_percentiles_on_tiny_windows() {
        // (samples, q, expected): nearest-rank with index ceil(q*n) - 1.
        let cases: &[(&[u64], f64, u64)] = &[
            (&[7], 0.50, 7),
            (&[7], 0.99, 7),
            (&[1, 2], 0.50, 1),
            (&[1, 2], 0.99, 2),
            (&[1, 2, 3], 0.50, 2),
            (&[1, 2, 3, 4], 0.50, 2),
            (&[1, 2, 3, 4, 5], 0.50, 3),
            (&[1, 2, 3, 4, 5], 0.99, 5),
            (&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100], 0.50, 50),
            (&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100], 0.99, 100),
        ];
        for &(samples, q, expected) in cases {
            let m = Metrics::new();
            for &s in samples {
                m.record_response(200, Duration::from_micros(s));
            }
            let (p50, p99) = m.latency_percentiles();
            let got = if (q - 0.50).abs() < 1e-9 { p50 } else { p99 };
            assert_eq!(
                got, expected,
                "q={q} over {samples:?}: got {got}, want {expected}"
            );
        }
    }
}
