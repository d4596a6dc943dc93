//! Integration tests for the scale-out serving features: the shard
//! coordinator (fan-out, retry, merge), the persistent disk cache across
//! a server restart, and the two-lane scheduler's fairness guarantees —
//! all driven through raw `std::net::TcpStream` clients against real
//! server processes-in-threads.
//!
//! Fairness is asserted through `finish_seq` (the process-wide completion
//! counter jobs expose via `/v1/jobs/{id}`), never through wall-clock
//! timing.

use dante_serve::server::{start, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

/// A parsed raw response.
#[derive(Debug)]
struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Response {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    fn body_str(&self) -> &str {
        std::str::from_utf8(&self.body).expect("body is UTF-8")
    }
}

fn read_response(reader: &mut BufReader<TcpStream>) -> Response {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed status line {status_line:?}"));
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let (name, value) = line.split_once(':').expect("header colon");
        let (name, value) = (name.trim().to_owned(), value.trim().to_owned());
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().expect("content length");
        }
        headers.push((name, value));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    Response {
        status,
        headers,
        body,
    }
}

/// One-shot exchange over a fresh connection.
fn exchange(addr: SocketAddr, raw: &[u8]) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout");
    stream.write_all(raw).expect("write");
    stream.flush().expect("flush");
    read_response(&mut BufReader::new(stream))
}

/// POST to `path` with an optional `X-Dante-Client` token.
fn post(addr: SocketAddr, path: &str, payload: &str, client: &str) -> Response {
    let client_header = if client.is_empty() {
        String::new()
    } else {
        format!("X-Dante-Client: {client}\r\n")
    };
    let raw = format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\n{client_header}Content-Length: {}\r\nConnection: close\r\n\r\n{payload}",
        payload.len(),
    );
    exchange(addr, raw.as_bytes())
}

fn get(addr: SocketAddr, path: &str) -> Response {
    exchange(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
    )
}

fn boot(config: ServerConfig) -> ServerHandle {
    start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..config
    })
    .expect("boot server")
}

/// Extracts the job id from a 202 ticket body.
fn job_id_of(response: &Response) -> String {
    assert_eq!(response.status, 202, "{}", response.body_str());
    let body = response.body_str();
    let needle = r#""job":""#;
    let start = body.find(needle).expect("job id in ticket") + needle.len();
    body[start..]
        .split('"')
        .next()
        .expect("quoted id")
        .to_owned()
}

/// Polls `/v1/jobs/{id}` until terminal, then returns its `finish_seq`.
fn wait_finish_seq(addr: SocketAddr, id: &str) -> u64 {
    let deadline = std::time::Instant::now() + Duration::from_secs(120);
    loop {
        let status = get(addr, &format!("/v1/jobs/{id}"));
        assert_eq!(status.status, 200, "{}", status.body_str());
        let body = status.body_str();
        if let Some(at) = body.find(r#""finish_seq":"#) {
            let tail = &body[at + r#""finish_seq":"#.len()..];
            let digits: String = tail
                .trim_start()
                .chars()
                .take_while(char::is_ascii_digit)
                .collect();
            return digits.parse().expect("finish_seq number");
        }
        assert!(
            std::time::Instant::now() < deadline,
            "job {id} must reach a terminal state: {body}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A fresh per-test scratch directory under the target-adjacent temp root.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dante-scale-out-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The value of a single-line gauge/counter in a `/metrics` body.
fn metric(body: &str, name: &str) -> u64 {
    body.lines()
        .find_map(|line| line.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("metric {name} missing:\n{body}"))
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("metric {name} is not an integer"))
}

#[test]
fn coordinator_fans_out_and_serves_byte_identical_sweeps_and_fleets() {
    // Two plain backends, one coordinator pointed at both.
    let backend_a = boot(ServerConfig::default());
    let backend_b = boot(ServerConfig::default());
    let coordinator = boot(ServerConfig {
        peers: vec![backend_a.addr().to_string(), backend_b.addr().to_string()],
        ..ServerConfig::default()
    });
    let addr = coordinator.addr();

    // Sweep: the coordinated result is byte-identical to the library path.
    let payload = r#"{"network": "toy", "trials": 5, "voltages_mv": [400, 460, 520], "seed": 21}"#;
    let spec = dante_serve::api::decode_spec(payload.as_bytes()).expect("valid spec");
    let reference = dante_serve::api::run_spec_json(&spec);
    let cold = post(addr, "/v1/sweep", payload, "");
    assert_eq!(cold.status, 200, "{}", cold.body_str());
    assert_eq!(cold.header("X-Dante-Cache"), Some("miss"));
    assert_eq!(
        cold.body_str(),
        reference,
        "sharded sweep must be byte-identical to the single-process run"
    );
    let warm = post(addr, "/v1/sweep", payload, "");
    assert_eq!(warm.header("X-Dante-Cache"), Some("hit"));
    assert_eq!(warm.body, cold.body);

    // Fleet: same contract, an odd die count so the windows are uneven.
    let fleet_payload = r#"{"seed": 9, "dies": 13, "array_bits": 65536, "grid": {"start_mv": 520, "stop_mv": 600, "step_mv": 40}}"#;
    let fleet_spec =
        dante_serve::api::decode_fleet_spec(fleet_payload.as_bytes()).expect("valid fleet spec");
    let fleet_reference = dante_serve::api::run_fleet_json(&fleet_spec);
    let fleet = post(addr, "/v1/fleet", fleet_payload, "");
    assert_eq!(fleet.status, 200, "{}", fleet.body_str());
    assert_eq!(
        fleet.body_str(),
        fleet_reference,
        "sharded fleet must be byte-identical to the single-process run"
    );

    // The coordinator recorded its fan-out legs: one per peer per job, no
    // fallbacks, nothing left in flight.
    let metrics = get(addr, "/metrics");
    let body = metrics.body_str();
    assert_eq!(metric(body, "dante_serve_shard_requests_total"), 4);
    assert_eq!(metric(body, "dante_serve_shard_fallbacks_total"), 0);
    assert_eq!(metric(body, "dante_serve_shard_in_flight"), 0);

    coordinator.shutdown();
    assert!(coordinator.join());
    backend_a.shutdown();
    assert!(backend_a.join());
    backend_b.shutdown();
    assert!(backend_b.join());
}

/// A peer computes a leg only under the key it would give the leg's spec
/// itself; a leg keyed otherwise is a 400 naming both keys, which the
/// coordinator treats like any failed leg.
#[test]
fn legs_are_served_under_the_peers_own_key_and_refused_under_another() {
    let backend = boot(ServerConfig::default());
    let addr = backend.addr();
    let spec_json = r#"{"voltages_mv": [400, 480], "trials": 3}"#;
    let spec = dante_serve::api::decode_spec(spec_json.as_bytes()).expect("valid spec");
    let ours = dante_serve::digest(&spec.canonical_string());
    let leg = |key: &str| {
        format!(r#"{{"key": "{key}", "spec": {spec_json}, "trial_offset": 1, "trial_count": 2}}"#)
    };

    let served = post(addr, "/v1/shard/sweep", &leg(&ours), "");
    assert_eq!(served.status, 200, "{}", served.body_str());
    assert!(served.body_str().starts_with(r#"{"points":"#));

    let foreign = "0123456789abcdef".repeat(2);
    let refused = post(addr, "/v1/shard/sweep", &leg(&foreign), "");
    assert_eq!(refused.status, 400, "{}", refused.body_str());
    assert!(
        refused.body_str().contains(&foreign) && refused.body_str().contains(&ours),
        "{}",
        refused.body_str()
    );

    backend.shutdown();
    assert!(backend.join());
}

#[test]
fn coordinator_retries_a_dead_peer_and_still_merges_byte_identical() {
    // One live backend plus one address that refuses connections (bound,
    // then dropped — the OS rejects immediately, no timeout flakiness).
    let backend = boot(ServerConfig::default());
    let dead = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr")
    };
    let coordinator = boot(ServerConfig {
        peers: vec![dead.to_string(), backend.addr().to_string()],
        ..ServerConfig::default()
    });
    let addr = coordinator.addr();

    let payload = r#"{"network": "toy", "trials": 4, "voltages_mv": [420, 500], "seed": 33}"#;
    let spec = dante_serve::api::decode_spec(payload.as_bytes()).expect("valid spec");
    let response = post(addr, "/v1/sweep", payload, "");
    assert_eq!(response.status, 200, "{}", response.body_str());
    assert_eq!(
        response.body_str(),
        dante_serve::api::run_spec_json(&spec),
        "retried shard legs must not perturb the merged bytes"
    );

    // The dead peer's window was retried onto the live one — no fallback
    // to local compute was needed.
    let metrics = get(addr, "/metrics");
    let body = metrics.body_str();
    assert!(
        metric(body, "dante_serve_shard_retries_total") >= 1,
        "dead peer must surface as a retry:\n{body}"
    );
    assert_eq!(metric(body, "dante_serve_shard_fallbacks_total"), 0);

    coordinator.shutdown();
    assert!(coordinator.join());
    backend.shutdown();
    assert!(backend.join());
}

#[test]
fn disk_cache_survives_restart_with_byte_identical_bodies() {
    let dir = scratch_dir("restart");
    let sweep_payload = r#"{"network": "toy", "trials": 3, "voltages_mv": [400, 480], "seed": 55}"#;
    let iso_query = "floor=0.9&trials=2&start_mv=380&stop_mv=560&step_mv=60";

    let (sweep_cold, iso_cold) = {
        let handle = boot(ServerConfig {
            data_dir: Some(dir.clone()),
            ..ServerConfig::default()
        });
        let addr = handle.addr();
        let sweep = post(addr, "/v1/sweep", sweep_payload, "");
        assert_eq!(sweep.status, 200, "{}", sweep.body_str());
        assert_eq!(sweep.header("X-Dante-Cache"), Some("miss"));
        let iso = get(addr, &format!("/v1/iso-accuracy?{iso_query}"));
        assert_eq!(iso.status, 200, "{}", iso.body_str());

        // The disk store now holds both records.
        let metrics = get(addr, "/metrics");
        assert!(
            metric(metrics.body_str(), "dante_serve_disk_cache_records") >= 2,
            "{}",
            metrics.body_str()
        );
        handle.shutdown();
        assert!(handle.join());
        (sweep.body, iso.body)
    };

    // Cold process, same data dir: both requests are cache hits with the
    // exact bytes the previous process served.
    let handle = boot(ServerConfig {
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let sweep = post(addr, "/v1/sweep", sweep_payload, "");
    assert_eq!(sweep.status, 200, "{}", sweep.body_str());
    assert_eq!(
        sweep.header("X-Dante-Cache"),
        Some("hit"),
        "restart must not lose the persisted sweep"
    );
    assert_eq!(
        sweep.body, sweep_cold,
        "persisted hit must be byte-identical"
    );
    let iso = get(addr, &format!("/v1/iso-accuracy?{iso_query}"));
    assert_eq!(iso.header("X-Dante-Cache"), Some("hit"));
    assert_eq!(iso.body, iso_cold);

    handle.shutdown();
    assert!(handle.join());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn queue_full_rejections_carry_retry_after_and_count_exactly_once() {
    // workers = 0: jobs queue but never drain, so queue-full is
    // deterministic.
    let handle = boot(ServerConfig {
        workers: 0,
        queue_depth: 1,
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    let fill = post(
        addr,
        "/v1/sweep?mode=async",
        r#"{"network": "toy", "voltages_mv": [400], "seed": 1}"#,
        "",
    );
    assert_eq!(fill.status, 202, "{}", fill.body_str());

    for round in 0..2u64 {
        let rejected = post(
            addr,
            "/v1/sweep?mode=async",
            &format!(
                r#"{{"network": "toy", "voltages_mv": [400], "seed": {}}}"#,
                round + 2
            ),
            "",
        );
        assert_eq!(rejected.status, 429, "{}", rejected.body_str());
        assert_eq!(
            rejected.header("Retry-After"),
            Some("1"),
            "every 429 must carry Retry-After"
        );
        let metrics = get(addr, "/metrics");
        assert_eq!(
            metric(metrics.body_str(), "dante_serve_jobs_rejected_total"),
            round + 1,
            "each rejection increments the counter exactly once"
        );
    }

    // The queued (never-run) job shows up in the lane gauges.
    let metrics = get(addr, "/metrics");
    let body = metrics.body_str();
    assert_eq!(metric(body, "dante_serve_queue_depth"), 1);
    assert_eq!(metric(body, "dante_serve_queue_depth_bulk"), 1);
    assert_eq!(metric(body, "dante_serve_queue_depth_interactive"), 0);

    handle.shutdown();
    assert!(handle.join());
}

#[test]
fn interactive_iso_overtakes_bulk_backlog_and_clients_share_the_bulk_lane() {
    // One worker: completion order equals scheduling order. The first bulk
    // job is deliberately heavy so the worker is pinned while the rest of
    // the backlog (and the interactive probe) is submitted.
    let handle = boot(ServerConfig {
        workers: 1,
        queue_depth: 32,
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    let heavy = post(
        addr,
        "/v1/sweep?mode=async",
        r#"{"network": "toy", "trials": 80, "voltages_mv": [380, 400, 420, 440, 460, 480, 500, 520], "seed": 70}"#,
        "alice",
    );
    let heavy_id = job_id_of(&heavy);

    // Alice's backlog, then Bob's single job, then the interactive iso.
    let alice_ids: Vec<String> = (0..3)
        .map(|i| {
            let ticket = post(
                addr,
                "/v1/sweep?mode=async",
                &format!(
                    r#"{{"network": "toy", "trials": 2, "voltages_mv": [400], "seed": {}}}"#,
                    71 + i
                ),
                "alice",
            );
            job_id_of(&ticket)
        })
        .collect();
    let bob = post(
        addr,
        "/v1/sweep?mode=async",
        r#"{"network": "toy", "trials": 2, "voltages_mv": [400], "seed": 90}"#,
        "bob",
    );
    let bob_id = job_id_of(&bob);
    let iso = exchange(
        addr,
        b"GET /v1/iso-accuracy?floor=0.9&trials=2&mode=async HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    let iso_id = job_id_of(&iso);

    let iso_seq = wait_finish_seq(addr, &iso_id);
    let heavy_seq = wait_finish_seq(addr, &heavy_id);
    let bob_seq = wait_finish_seq(addr, &bob_id);
    let alice_seqs: Vec<u64> = alice_ids
        .iter()
        .map(|id| wait_finish_seq(addr, id))
        .collect();

    // The interactive lane preempts every queued bulk job: only the
    // already-running heavy job may finish before the iso solve.
    for (i, &seq) in alice_seqs.iter().enumerate() {
        assert!(
            iso_seq < seq,
            "iso (seq {iso_seq}) must finish before queued bulk job {i} (seq {seq})"
        );
    }
    assert!(
        iso_seq < bob_seq,
        "iso (seq {iso_seq}) must finish before queued bulk work (seq {bob_seq})"
    );

    // Per-client fairness: Bob's lone job rotates in after a single Alice
    // job, so it cannot finish last behind Alice's whole backlog.
    let alice_max = *alice_seqs.iter().max().expect("alice seqs");
    assert!(
        bob_seq < alice_max,
        "bob (seq {bob_seq}) must not be starved behind alice's backlog (max seq {alice_max})"
    );

    // The heavy job was running before anything else was queued.
    assert!(heavy_seq >= 1, "heavy job completed (seq {heavy_seq})");

    // Lane counters saw both lanes; nothing was rejected.
    let metrics = get(addr, "/metrics");
    let body = metrics.body_str();
    assert_eq!(metric(body, "dante_serve_jobs_rejected_total"), 0);
    assert_eq!(metric(body, "dante_serve_iso_accuracy_solves_total"), 1);

    handle.shutdown();
    assert!(handle.join());
}
