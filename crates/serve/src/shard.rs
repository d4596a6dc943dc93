//! Scale-out execution: a coordinator that partitions sweep and fleet
//! grids across peer `dante-serve` nodes and merges their raw results.
//!
//! # Determinism
//!
//! Sharding never touches the math. The coordinator splits the work along
//! the axes the trial engine already seeds with **global** counters — the
//! per-point trial axis of a sweep and the die axis of a fleet — using
//! [`dante::sweep::shard_ranges`], so every shard computes exactly the
//! slice of the seed stream a single-process run would. Shards return raw
//! per-trial accuracies (and per-die outcomes) as exact IEEE-754 bit
//! patterns; the coordinator concatenates them in window order and
//! reassembles statistics through the same library code
//! ([`PreparedSweep::assemble`] / [`FleetSpec::assemble`]), so the merged
//! response body is byte-identical to an unsharded run. A sweep
//! coordinator holds one [`PreparedSweep`] handle: it merges every window
//! and computes any fallback window, and it loads the network only when a
//! window falls back.
//!
//! # The leg
//!
//! A leg body is the job's cache key, the spec JSON the job was decoded
//! from (re-rendered compact), and the window:
//! `{"key", "spec", "trial_offset", "trial_count"}` for a sweep,
//! `{"key", "spec", "die_offset", "die_count"}` for a fleet. The peer
//! decodes `spec` with the decoder of `/v1/sweep` or `/v1/fleet`, so the
//! service has one spec codec, and recomputes the key. A peer that keys
//! the spec differently (another canonical-string version, say) would run
//! a different estimator under the same fields, so it answers 400 naming
//! both keys instead of computing the window, and the coordinator treats
//! that like any failed leg.
//!
//! # Resilience
//!
//! Each shard window is tried against the peer list starting at
//! `peers[window % peers]` and rotating on failure (counted as a retry).
//! A hedged duplicate leg is launched against the next peer if the first
//! leg has not answered within the hedge delay — the first success wins,
//! the loser is dropped. A window asks each peer at most once, a hedge
//! included, so a peer that refused it (a 400 is deterministic) is never
//! asked again. Once every peer has failed it, the window is computed
//! locally (a fallback, counted), so a degraded fleet slows down instead
//! of erroring.

use crate::api;
use crate::metrics::Metrics;
use dante::fleet::{FleetResult, FleetSpec};
use dante::sweep::{shard_ranges, PreparedSweep, SweepPoint, SweepSpec};
use dante_bench::json::Value;
use dante_sim::NoopObserver;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Fans sweep/fleet windows out to a fixed peer list. Built once at server
/// start from `DANTE_SERVE_PEERS`.
#[derive(Debug, Clone)]
pub struct Coordinator {
    peers: Vec<String>,
    /// TCP connect timeout per leg.
    pub connect_timeout: Duration,
    /// End-to-end cap per leg (socket read timeout); also bounds how long
    /// a lost hedge loser can linger.
    pub request_timeout: Duration,
    /// How long the first leg of a window may stay silent before a hedged
    /// duplicate is sent to the next peer.
    pub hedge_after: Duration,
}

impl Coordinator {
    /// A coordinator over `peers` (`host:port` strings) with the default
    /// production timeouts.
    ///
    /// # Panics
    ///
    /// Panics if `peers` is empty — gate construction on a non-empty
    /// `DANTE_SERVE_PEERS`.
    #[must_use]
    pub fn new(peers: Vec<String>) -> Self {
        assert!(!peers.is_empty(), "a coordinator needs at least one peer");
        Self {
            peers,
            connect_timeout: Duration::from_secs(2),
            request_timeout: Duration::from_secs(600),
            hedge_after: Duration::from_secs(10),
        }
    }

    /// The configured peer list.
    #[must_use]
    pub fn peers(&self) -> &[String] {
        &self.peers
    }

    /// Runs `spec` sharded across the peers and merges the result —
    /// byte-identical to `spec.prepare().run()`. Every leg carries `key`,
    /// the job's cache key, and `json`, the spec JSON the job was decoded
    /// from.
    ///
    /// The trial axis is partitioned (every shard runs its trial window at
    /// every grid point), so shards share nothing but the spec. One
    /// prepared sweep merges every window and computes the windows whose
    /// every leg fails; it loads the network only for such a window.
    #[must_use]
    pub fn run_sweep(
        &self,
        spec: &SweepSpec,
        key: &str,
        json: &[u8],
        metrics: &Arc<Metrics>,
    ) -> Vec<SweepPoint> {
        let json = spec_json(json);
        let prep = spec.prepare();
        let windows = self.fan_out(
            "/v1/shard/sweep",
            spec.trials,
            |offset, count| api::encode_window(key, &json, api::TRIAL_WINDOW, offset, count),
            api::decode_shard_sweep_response,
            |points, count| {
                points.len() == prep.point_count() && points.iter().all(|p| p.len() == count)
            },
            |offset, count| sweep_window(&prep, offset, count),
            metrics,
        );
        // Concatenate windows in offset order per point, then reassemble
        // stats/energy through the same code a local run uses.
        let mut per_point: Vec<Vec<f64>> =
            vec![Vec::with_capacity(spec.trials); prep.point_count()];
        for window in windows {
            for (point, trials) in window.into_iter().enumerate() {
                per_point[point].extend(trials);
            }
        }
        prep.assemble(per_point)
    }

    /// Runs `spec` sharded across the peers and merges the result —
    /// byte-identical to `spec.solve()`. Legs carry `key` and `json` as in
    /// [`Self::run_sweep`]; windows whose every leg fails are computed
    /// locally.
    #[must_use]
    pub fn run_fleet(
        &self,
        spec: &FleetSpec,
        key: &str,
        json: &[u8],
        metrics: &Arc<Metrics>,
    ) -> FleetResult {
        let json = spec_json(json);
        let windows = self.fan_out(
            "/v1/shard/fleet",
            spec.dies,
            |offset, count| api::encode_window(key, &json, api::DIE_WINDOW, offset, count),
            api::decode_shard_fleet_response,
            |dies, count| dies.len() == count,
            |offset, count| spec.solve_die_range_observed(offset, count, &NoopObserver),
            metrics,
        );
        spec.assemble(&windows.concat())
    }

    /// The one fan-out routine: splits `axis` items into one window per
    /// peer, sends each window as a `path` leg (`request` encodes it,
    /// `decode` reads the peer's answer), and returns the windows' results
    /// in offset order. A window whose every leg fails, or whose result
    /// `fits` rejects for its width, is computed by `local` instead
    /// (counted as a fallback).
    #[allow(clippy::too_many_arguments)]
    fn fan_out<P: Send + 'static>(
        &self,
        path: &'static str,
        axis: usize,
        request: impl Fn(usize, usize) -> String,
        decode: fn(&[u8]) -> Result<P, String>,
        fits: impl Fn(&P, usize) -> bool,
        local: impl Fn(usize, usize) -> P,
        metrics: &Arc<Metrics>,
    ) -> Vec<P> {
        let windows = shard_ranges(axis, self.peers.len());
        let (tx, rx) = mpsc::channel();
        for (shard, &(offset, count)) in windows.iter().enumerate() {
            let body = Arc::new(request(offset, count).into_bytes());
            let (tx, this, metrics) = (tx.clone(), self.clone(), metrics.clone());
            std::thread::spawn(move || {
                let outcome = this.fetch_window(shard, path, &body, &metrics);
                let _ = tx.send((shard, outcome.and_then(|bytes| decode(&bytes))));
            });
        }
        drop(tx);
        let mut fetched: Vec<Option<P>> = windows.iter().map(|_| None).collect();
        for (shard, outcome) in rx {
            fetched[shard] = outcome.ok().filter(|part| fits(part, windows[shard].1));
        }
        fetched
            .into_iter()
            .zip(&windows)
            .map(|(part, &(offset, count))| {
                part.unwrap_or_else(|| {
                    metrics.shard_fallbacks.fetch_add(1, Ordering::Relaxed);
                    local(offset, count)
                })
            })
            .collect()
    }

    /// Fetches one window's raw result with retry + hedging.
    ///
    /// Legs are launched against `peers[(shard + k) % peers]` for
    /// `k = 0, 1, ...`: leg 1 immediately, the next one either when a leg
    /// fails (retry) or when [`Self::hedge_after`] elapses with no answer
    /// (hedge). At most one leg runs per peer, a hedge counting as one, so
    /// a window visits every peer at most once and a one-peer coordinator
    /// sends one leg. The first successful body wins.
    fn fetch_window(
        &self,
        shard: usize,
        path: &'static str,
        body: &Arc<Vec<u8>>,
        metrics: &Arc<Metrics>,
    ) -> Result<Vec<u8>, String> {
        let n = self.peers.len();
        let deadline = Instant::now() + self.request_timeout;
        let (tx, rx) = mpsc::channel::<Result<Vec<u8>, String>>();
        let mut launched = 0usize;
        let mut failed = 0usize;
        let mut hedged = false;
        let mut last_error = "no shard leg launched".to_owned();

        let launch = |leg: usize| {
            let peer = self.peers[(shard + leg) % n].clone();
            let tx = tx.clone();
            let body = body.clone();
            let connect_timeout = self.connect_timeout;
            let request_timeout = self.request_timeout;
            let metrics = metrics.clone();
            metrics.shard_requests.fetch_add(1, Ordering::Relaxed);
            metrics.shard_in_flight.fetch_add(1, Ordering::Relaxed);
            std::thread::spawn(move || {
                let outcome = http_post(&peer, path, &body, connect_timeout, request_timeout);
                metrics.shard_in_flight.fetch_sub(1, Ordering::Relaxed);
                let _ = tx.send(outcome);
            });
        };

        launch(launched);
        launched += 1;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(format!("shard window timed out; last error: {last_error}"));
            }
            // While exactly one leg is pending and we haven't hedged yet,
            // wait only up to the hedge delay; afterwards wait out the
            // deadline.
            let wait = if !hedged && launched - failed == 1 && launched < n {
                self.hedge_after.min(deadline - now)
            } else {
                deadline - now
            };
            match rx.recv_timeout(wait) {
                Ok(Ok(bytes)) => return Ok(bytes),
                Ok(Err(error)) => {
                    failed += 1;
                    last_error = error;
                    if launched < n {
                        metrics.shard_retries.fetch_add(1, Ordering::Relaxed);
                        launch(launched);
                        launched += 1;
                    } else if failed == launched {
                        return Err(last_error);
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if !hedged && launched < n {
                        hedged = true;
                        metrics.shard_hedges.fetch_add(1, Ordering::Relaxed);
                        launch(launched);
                        launched += 1;
                    }
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(last_error);
                }
            }
        }
    }
}

/// A job's spec JSON, parsed for its legs.
///
/// # Panics
///
/// Panics unless `json` is a JSON document, which a job's spec JSON is:
/// the job was decoded from it.
fn spec_json(json: &[u8]) -> Value {
    api::parse_body(json).expect("a job's spec JSON parses: the job was decoded from it")
}

/// One sweep window's raw per-trial accuracies at every grid point: what a
/// sweep leg returns, and what the coordinator's local fallback computes.
fn sweep_window(prep: &PreparedSweep, offset: usize, count: usize) -> Vec<Vec<f64>> {
    (0..prep.point_count())
        .map(|point| prep.run_point_trial_range_observed(point, offset, count, &NoopObserver))
        .collect()
}

/// Serves a `POST /v1/shard/sweep` leg: decodes the spec and trial window
/// and returns the window's raw per-trial accuracies, encoded.
///
/// # Errors
///
/// Returns the decoder's message for a malformed request, and a message
/// naming both keys when the leg's key is not this peer's key for the
/// spec.
pub fn sweep_leg(body: &[u8]) -> Result<String, String> {
    let (spec, offset, count) = api::decode_shard_sweep_request(body)?;
    let points = sweep_window(&spec.prepare(), offset, count);
    Ok(api::encode_shard_sweep_response(&points))
}

/// Serves a `POST /v1/shard/fleet` leg: decodes the spec and die window
/// and returns the window's raw per-die outcomes, encoded.
///
/// # Errors
///
/// Returns the decoder's message for a malformed request, and a message
/// naming both keys when the leg's key is not this peer's key for the
/// spec.
pub fn fleet_leg(body: &[u8]) -> Result<String, String> {
    let (spec, offset, count) = api::decode_shard_fleet_request(body)?;
    let dies = spec.solve_die_range_observed(offset, count, &NoopObserver);
    Ok(api::encode_shard_fleet_response(&dies))
}

/// One blocking HTTP POST over a fresh connection (`Connection: close`).
/// Returns the body on 200; any other status or transport failure is an
/// error naming the peer.
fn http_post(
    peer: &str,
    path: &str,
    body: &[u8],
    connect_timeout: Duration,
    read_timeout: Duration,
) -> Result<Vec<u8>, String> {
    let addr = peer
        .to_socket_addrs()
        .map_err(|e| format!("{peer}: bad address: {e}"))?
        .next()
        .ok_or_else(|| format!("{peer}: no address"))?;
    let mut stream = TcpStream::connect_timeout(&addr, connect_timeout)
        .map_err(|e| format!("{peer}: connect: {e}"))?;
    let _ = stream.set_read_timeout(Some(read_timeout));
    let _ = stream.set_write_timeout(Some(connect_timeout.max(Duration::from_secs(5))));
    let _ = stream.set_nodelay(true);
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: {peer}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body))
        .and_then(|()| stream.flush())
        .map_err(|e| format!("{peer}: write: {e}"))?;

    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("{peer}: read: {e}"))?;
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("{peer}: truncated response head"))?;
    let head = std::str::from_utf8(&raw[..head_end])
        .map_err(|_| format!("{peer}: response head is not UTF-8"))?;
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{peer}: malformed status line"))?;
    let payload = raw[head_end + 4..].to_vec();
    if status != 200 {
        return Err(format!(
            "{peer}: status {status}: {}",
            String::from_utf8_lossy(&payload)
        ));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::digest;
    use std::net::TcpListener;

    fn test_coordinator(peers: Vec<String>) -> Coordinator {
        let mut c = Coordinator::new(peers);
        c.connect_timeout = Duration::from_millis(500);
        c.request_timeout = Duration::from_secs(20);
        c.hedge_after = Duration::from_millis(150);
        c
    }

    /// A peer that serves `/v1/shard/sweep` and `/v1/shard/fleet` through
    /// [`sweep_leg`] and [`fleet_leg`], answering a refused leg with 400 as
    /// the server does. The first `fail_first` requests are answered with
    /// 500 before it starts working — exercising the retry path
    /// deterministically.
    fn spawn_backend(fail_first: usize) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let mut served = 0usize;
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { continue };
                let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
                let mut raw = Vec::new();
                let mut buf = [0u8; 4096];
                let (head_end, body_len) = loop {
                    let n = match stream.read(&mut buf) {
                        Ok(0) | Err(_) => break (0, None),
                        Ok(n) => n,
                    };
                    raw.extend_from_slice(&buf[..n]);
                    if let Some(end) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
                        let head = String::from_utf8_lossy(&raw[..end]).to_ascii_lowercase();
                        let len = head
                            .lines()
                            .find_map(|l| l.strip_prefix("content-length:"))
                            .and_then(|v| v.trim().parse::<usize>().ok());
                        break (end + 4, len);
                    }
                };
                let Some(body_len) = body_len else { continue };
                while raw.len() < head_end + body_len {
                    match stream.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => raw.extend_from_slice(&buf[..n]),
                    }
                }
                let leg = if raw.starts_with(b"POST /v1/shard/fleet") {
                    fleet_leg
                } else {
                    sweep_leg
                };
                let body = &raw[head_end..head_end + body_len];
                served += 1;
                let (status, payload) = if served <= fail_first {
                    (500u16, r#"{"error": "injected failure"}"#.to_owned())
                } else {
                    match leg(body) {
                        Ok(payload) => (200, payload),
                        Err(why) => (400, api::error_body(&why)),
                    }
                };
                let head = format!(
                    "HTTP/1.1 {status} X\r\nContent-Type: application/json\r\n\
                     Content-Length: {}\r\nConnection: close\r\n\r\n",
                    payload.len()
                );
                let _ = stream.write_all(head.as_bytes());
                let _ = stream.write_all(payload.as_bytes());
                let _ = stream.flush();
            }
        });
        addr
    }

    /// A peer that accepts connections and never answers — a straggler.
    fn spawn_straggler() -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let mut held = Vec::new();
            for stream in listener.incoming().flatten() {
                held.push(stream); // keep sockets open, say nothing
            }
        });
        addr
    }

    /// The JSON of [`toy_sweep`] as a client would send it: every default
    /// left out.
    const TOY_SWEEP: &[u8] = br#"{"voltages_mv": [400, 480], "trials": 5}"#;

    /// The JSON of [`toy_fleet`].
    const TOY_FLEET: &[u8] = br#"{"dies": 13, "array_bits": 16384}"#;

    fn toy_sweep() -> SweepSpec {
        SweepSpec {
            voltages_mv: vec![400, 480],
            trials: 5,
            ..SweepSpec::toy_default()
        }
    }

    fn toy_fleet() -> FleetSpec {
        FleetSpec {
            dies: 13,
            array_bits: 16384,
            ..FleetSpec::toy_default()
        }
    }

    /// Shards `spec`, the [`toy_sweep`], through `coordinator` under its
    /// own cache key.
    fn run_toy_sweep(
        coordinator: &Coordinator,
        spec: &SweepSpec,
        metrics: &Arc<Metrics>,
    ) -> Vec<SweepPoint> {
        let key = digest(&spec.canonical_string());
        coordinator.run_sweep(spec, &key, TOY_SWEEP, metrics)
    }

    #[test]
    fn sharded_sweep_matches_local_run_byte_for_byte() {
        let spec = toy_sweep();
        let local = api::build_record(&spec, &spec.prepare().run()).to_json_pretty();
        let coordinator = test_coordinator(vec![spawn_backend(0), spawn_backend(0)]);
        let metrics = Arc::new(Metrics::new());
        let merged = run_toy_sweep(&coordinator, &spec, &metrics);
        let sharded = api::build_record(&spec, &merged).to_json_pretty();
        assert_eq!(local, sharded);
        assert_eq!(metrics.shard_requests.load(Ordering::Relaxed), 2);
        assert_eq!(metrics.shard_fallbacks.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn sharded_fleet_matches_local_run_byte_for_byte() {
        let spec = toy_fleet();
        let local = api::run_fleet_json(&spec);
        let coordinator = test_coordinator(vec![spawn_backend(0), spawn_backend(0)]);
        let metrics = Arc::new(Metrics::new());
        let key = digest(&spec.canonical_string());
        let merged = coordinator.run_fleet(&spec, &key, TOY_FLEET, &metrics);
        let sharded = api::build_fleet_record(&spec, &merged).to_json_pretty();
        assert_eq!(local, sharded);
    }

    #[test]
    fn failed_legs_retry_on_the_next_peer() {
        let spec = toy_sweep();
        let local = api::build_record(&spec, &spec.prepare().run()).to_json_pretty();
        // First peer 500s everything; its windows land on the healthy
        // peer via retry.
        let coordinator = test_coordinator(vec![spawn_backend(usize::MAX), spawn_backend(0)]);
        let metrics = Arc::new(Metrics::new());
        let merged = run_toy_sweep(&coordinator, &spec, &metrics);
        assert_eq!(
            local,
            api::build_record(&spec, &merged).to_json_pretty(),
            "retried shards still merge byte-identically"
        );
        assert!(
            metrics.shard_retries.load(Ordering::Relaxed) >= 1,
            "the failing peer forced at least one retry"
        );
        assert_eq!(metrics.shard_fallbacks.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn straggler_legs_are_hedged_to_a_healthy_peer() {
        let spec = toy_sweep();
        let local = api::build_record(&spec, &spec.prepare().run()).to_json_pretty();
        let coordinator = test_coordinator(vec![spawn_straggler(), spawn_backend(0)]);
        let metrics = Arc::new(Metrics::new());
        let merged = run_toy_sweep(&coordinator, &spec, &metrics);
        assert_eq!(local, api::build_record(&spec, &merged).to_json_pretty());
        assert!(
            metrics.shard_hedges.load(Ordering::Relaxed) >= 1,
            "the silent peer forced at least one hedge"
        );
    }

    #[test]
    fn all_peers_down_falls_back_to_local_compute() {
        let spec = toy_sweep();
        let local = api::build_record(&spec, &spec.prepare().run()).to_json_pretty();
        // Nothing listens on these addresses: connects fail fast.
        let dead = || {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = l.local_addr().unwrap().to_string();
            drop(l);
            addr
        };
        let coordinator = test_coordinator(vec![dead(), dead()]);
        let metrics = Arc::new(Metrics::new());
        let merged = run_toy_sweep(&coordinator, &spec, &metrics);
        assert_eq!(local, api::build_record(&spec, &merged).to_json_pretty());
        assert_eq!(
            metrics.shard_fallbacks.load(Ordering::Relaxed),
            2,
            "both windows fell back locally"
        );
    }

    #[test]
    fn legs_under_a_foreign_key_are_refused_naming_both_keys() {
        let foreign = "0".repeat(32);
        let leg = |spec: &[u8], window: &str| {
            format!(
                r#"{{"key": "{foreign}", "spec": {}, {window}}}"#,
                std::str::from_utf8(spec).unwrap()
            )
        };
        let err = sweep_leg(leg(TOY_SWEEP, r#""trial_offset": 0, "trial_count": 5"#).as_bytes())
            .unwrap_err();
        let ours = digest(&toy_sweep().canonical_string());
        assert!(err.contains(&foreign) && err.contains(&ours), "{err}");
        let err = fleet_leg(leg(TOY_FLEET, r#""die_offset": 0, "die_count": 13"#).as_bytes())
            .unwrap_err();
        let ours = digest(&toy_fleet().canonical_string());
        assert!(err.contains(&foreign) && err.contains(&ours), "{err}");
    }

    /// Runs the toy sweep and the toy fleet under a key no peer computes,
    /// checks both bodies against a local run, and returns each run's
    /// `(shard_requests, shard_retries, shard_fallbacks)`.
    fn run_under_a_foreign_key(coordinator: &Coordinator) -> [(u64, u64, u64); 2] {
        let foreign = "f".repeat(32);
        let counts = |metrics: &Metrics| {
            [
                &metrics.shard_requests,
                &metrics.shard_retries,
                &metrics.shard_fallbacks,
            ]
            .map(|c| c.load(Ordering::Relaxed))
            .into()
        };

        let spec = toy_sweep();
        let metrics = Arc::new(Metrics::new());
        let merged = coordinator.run_sweep(&spec, &foreign, TOY_SWEEP, &metrics);
        assert_eq!(
            api::run_spec_json(&spec),
            api::build_record(&spec, &merged).to_json_pretty()
        );
        let sweep = counts(&metrics);

        let spec = toy_fleet();
        let metrics = Arc::new(Metrics::new());
        let merged = coordinator.run_fleet(&spec, &foreign, TOY_FLEET, &metrics);
        assert_eq!(
            api::run_fleet_json(&spec),
            api::build_fleet_record(&spec, &merged).to_json_pretty()
        );
        [sweep, counts(&metrics)]
    }

    /// Peers that key every spec differently get nothing merged: each
    /// window is refused once by each peer, never asked of a peer twice,
    /// and computed locally. No hedge fires, so every second leg is a
    /// retry.
    #[test]
    fn foreign_keys_fall_back_locally_for_every_window() {
        let mut coordinator = test_coordinator(vec![spawn_backend(0), spawn_backend(0)]);
        coordinator.hedge_after = coordinator.request_timeout;
        // Two windows, two legs and one retry each.
        assert_eq!(run_under_a_foreign_key(&coordinator), [(4, 2, 2); 2]);
    }

    /// A one-peer coordinator sends each window to its peer once: a
    /// refusal falls back locally without a second leg.
    #[test]
    fn a_single_peer_is_asked_once_per_window() {
        let coordinator = test_coordinator(vec![spawn_backend(0)]);
        assert_eq!(run_under_a_foreign_key(&coordinator), [(1, 0, 1); 2]);
    }
}
