//! Integration tests for the sweep service, driven entirely through raw
//! `std::net::TcpStream` clients — no external HTTP client.
//!
//! Covers the acceptance criteria: HTTP responses byte-identical to the
//! library API (cold and cached), failure paths (413/400/429), concurrent
//! load returning only 200/429 with uncorrupted bodies, and clean shutdown
//! while an event stream is open.

use dante::sweep::SweepSpec;
use dante_serve::server::{start, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
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

/// Reads a response head + fixed-length body from `reader`.
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

fn post_sweep(addr: SocketAddr, payload: &str) -> Response {
    let raw = format!(
        "POST /v1/sweep HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
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

#[test]
fn http_sweep_matches_library_api_cold_and_cached() {
    let handle = boot(ServerConfig::default());
    let addr = handle.addr();

    let spec = SweepSpec {
        voltages_mv: vec![380, 460, 540],
        trials: 3,
        ..SweepSpec::toy_default()
    };
    let reference = dante_serve::api::run_spec_json(&spec);
    let payload = r#"{"network": "toy", "trials": 3, "voltages_mv": [380, 460, 540]}"#;

    let cold = post_sweep(addr, payload);
    assert_eq!(cold.status, 200, "{}", cold.body_str());
    assert_eq!(cold.header("X-Dante-Cache"), Some("miss"));
    assert_eq!(
        cold.body_str(),
        reference,
        "HTTP cold response must be byte-identical to the library API"
    );

    let warm = post_sweep(addr, payload);
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("X-Dante-Cache"), Some("hit"));
    assert_eq!(warm.body, cold.body, "cache hit must be byte-identical");

    // Same spec spelled differently (grid form) hits the same cache entry.
    let grid = post_sweep(
        addr,
        r#"{"network": "toy", "trials": 3, "grid": {"start_mv": 380, "stop_mv": 540, "step_mv": 80}}"#,
    );
    assert_eq!(grid.status, 200);
    assert_eq!(grid.header("X-Dante-Cache"), Some("hit"));
    assert_eq!(grid.body, cold.body);

    handle.shutdown();
    assert!(handle.join());
}

#[test]
fn oversized_body_is_rejected_with_413() {
    let handle = boot(ServerConfig {
        max_body_bytes: 128,
        ..ServerConfig::default()
    });
    let big = format!(r#"{{"padding": "{}"}}"#, "x".repeat(4096));
    let response = post_sweep(handle.addr(), &big);
    assert_eq!(response.status, 413);
    assert!(
        response.body_str().contains("128"),
        "diagnostic names the cap: {}",
        response.body_str()
    );
    handle.shutdown();
    assert!(handle.join());
}

#[test]
fn malformed_json_gets_400_with_diagnostic_payload() {
    let handle = boot(ServerConfig::default());
    let addr = handle.addr();

    let response = post_sweep(addr, r#"{"trials": "#);
    assert_eq!(response.status, 400);
    let body = response.body_str();
    assert!(body.starts_with(r#"{"error":"#), "JSON error body: {body}");
    assert!(
        body.contains("byte"),
        "parse diagnostics include offset: {body}"
    );

    // Well-formed JSON with an invalid field is also a 400, naming the field.
    let response = post_sweep(addr, r#"{"voltages_mv": [400], "trials": 0}"#);
    assert_eq!(response.status, 400);
    assert!(
        response.body_str().contains("trials"),
        "{}",
        response.body_str()
    );

    handle.shutdown();
    assert!(handle.join());
}

#[test]
fn full_queue_gets_429_with_retry_after() {
    // workers = 0: jobs queue but never drain, so queue-full is
    // deterministic, not a race against worker speed.
    let handle = boot(ServerConfig {
        workers: 0,
        queue_depth: 2,
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    // Distinct specs (different seeds) so they don't dedup onto one job;
    // async submission so clients don't block on jobs that will never run.
    for seed in 0..2 {
        let raw = format!(r#"{{"network": "toy", "voltages_mv": [400], "seed": {seed}}}"#);
        let response = exchange(
            addr,
            format!(
                "POST /v1/sweep?mode=async HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{raw}",
                raw.len(),
            )
            .as_bytes(),
        );
        assert_eq!(response.status, 202, "{}", response.body_str());
    }
    let raw = r#"{"network": "toy", "voltages_mv": [400], "seed": 99}"#;
    let response = exchange(
        addr,
        format!(
            "POST /v1/sweep?mode=async HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{raw}",
            raw.len(),
        )
        .as_bytes(),
    );
    assert_eq!(response.status, 429, "{}", response.body_str());
    assert_eq!(response.header("Retry-After"), Some("1"));
    assert!(response.body_str().contains("queue full"));

    handle.shutdown();
    assert!(handle.join());
}

#[test]
fn shutdown_while_streaming_closes_the_chunk_stream_cleanly() {
    let handle = boot(ServerConfig {
        workers: 0, // job stays queued, so the stream must outlive our shutdown
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    let raw = r#"{"network": "toy", "voltages_mv": [400], "seed": 7}"#;
    let submitted = exchange(
        addr,
        format!(
            "POST /v1/sweep?mode=async HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{raw}",
            raw.len(),
        )
        .as_bytes(),
    );
    assert_eq!(submitted.status, 202);
    let job_id = {
        let body = submitted.body_str();
        let needle = r#""job":""#;
        let start = body.find(needle).expect("job id in body") + needle.len();
        body[start..].split('"').next().unwrap().to_owned()
    };

    // Open the event stream, then shut the server down underneath it.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    write!(
        stream,
        "GET /v1/jobs/{job_id}/events HTTP/1.1\r\nHost: t\r\n\r\n"
    )
    .expect("write");
    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    assert!(status_line.contains("200"), "{status_line}");
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header");
        if line.trim_end().is_empty() {
            break;
        }
        if line.to_ascii_lowercase().starts_with("transfer-encoding") {
            assert!(line.contains("chunked"), "{line}");
        }
    }

    handle.shutdown();

    // The stream must end with a well-formed chunked tail: data chunks,
    // then the zero-length terminator — not an abrupt reset.
    let mut tail = Vec::new();
    reader
        .read_to_end(&mut tail)
        .expect("stream closes cleanly");
    let tail = String::from_utf8(tail).expect("chunked payload is UTF-8");
    assert!(
        tail.contains(r#"{"event":"shutdown"}"#) || tail.contains(r#""status":"cancelled""#),
        "stream announces shutdown: {tail}"
    );
    assert!(
        tail.ends_with("0\r\n\r\n"),
        "chunked stream is terminated cleanly: {tail:?}"
    );

    assert!(handle.join(), "server drains cleanly");
}

#[test]
fn events_stream_replays_progress_for_a_completed_job() {
    let handle = boot(ServerConfig::default());
    let addr = handle.addr();

    let raw = r#"{"network": "toy", "trials": 2, "voltages_mv": [400, 500], "seed": 11}"#;
    let done = post_sweep(addr, raw);
    assert_eq!(done.status, 200, "{}", done.body_str());

    // Find the job id via the async route: same digest attaches or, once
    // done, serves from cache — so resubmit async and use the jobs list via
    // status endpoint instead. Simplest: submit a *new* spec async and poll.
    let raw2 = r#"{"network": "toy", "trials": 2, "voltages_mv": [400, 500], "seed": 12}"#;
    let submitted = exchange(
        addr,
        format!(
            "POST /v1/sweep?mode=async HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{raw2}",
            raw2.len(),
        )
        .as_bytes(),
    );
    assert_eq!(submitted.status, 202);
    let body = submitted.body_str().to_owned();
    let needle = r#""job":""#;
    let start = body.find(needle).expect("job id") + needle.len();
    let job_id = body[start..].split('"').next().unwrap().to_owned();

    // Poll status until done.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let status = get(addr, &format!("/v1/jobs/{job_id}"));
        assert_eq!(status.status, 200);
        if status.body_str().contains(r#""status": "done""#)
            || status.body_str().contains(r#""status":"done""#)
        {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "job finished in time");
        std::thread::sleep(Duration::from_millis(20));
    }

    // The raw result endpoint serves the byte-exact body.
    let result = get(addr, &format!("/v1/jobs/{job_id}/result"));
    assert_eq!(result.status, 200);
    assert!(result.body_str().contains("\"id\": \"sweep\""));

    // The event stream replays history and terminates with the end marker.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    write!(
        stream,
        "GET /v1/jobs/{job_id}/events HTTP/1.1\r\nHost: t\r\n\r\n"
    )
    .expect("write");
    let mut all = Vec::new();
    let mut reader = BufReader::new(stream);
    reader.read_to_end(&mut all).expect("read stream");
    let text = String::from_utf8(all).expect("UTF-8");
    for needle in [
        r#""event":"point_start""#,
        r#""event":"trial""#,
        r#""event":"point_done""#,
        r#""event":"end","status":"done""#,
    ] {
        assert!(text.contains(needle), "missing {needle} in stream:\n{text}");
    }
    assert!(text.ends_with("0\r\n\r\n"), "clean chunked termination");

    handle.shutdown();
    assert!(handle.join());
}

#[test]
fn concurrent_load_returns_only_200_or_429_and_drains_cleanly() {
    let handle = boot(ServerConfig {
        workers: 2,
        queue_depth: 4,
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    // 12 clients: 4 share one spec (dedup + cache), 8 use distinct seeds to
    // contend for the queue. Every response must be a complete, valid 200
    // or 429 — never a short read, never a mixed body.
    let threads: Vec<_> = (0..12)
        .map(|i| {
            std::thread::spawn(move || {
                let seed = if i < 4 { 1000 } else { 2000 + i };
                let payload = format!(
                    r#"{{"network": "toy", "trials": 2, "voltages_mv": [420, 480], "seed": {seed}}}"#
                );
                let response = post_sweep(addr, &payload);
                (seed, response)
            })
        })
        .collect();

    let mut bodies_by_seed: std::collections::HashMap<u64, Vec<u8>> =
        std::collections::HashMap::new();
    let mut ok = 0usize;
    let mut busy = 0usize;
    for thread in threads {
        let (seed, response) = thread.join().expect("client thread");
        match response.status {
            200 => {
                ok += 1;
                assert!(
                    response.body_str().contains("\"id\": \"sweep\""),
                    "valid record body"
                );
                // All 200s for one seed must agree byte-for-byte.
                let prior = bodies_by_seed.insert(seed, response.body.clone());
                if let Some(prior) = prior {
                    assert_eq!(prior, response.body, "corrupted response for seed {seed}");
                }
            }
            429 => {
                busy += 1;
                assert!(response.body_str().contains("queue full"));
            }
            other => panic!("unexpected status {other}: {}", response.body_str()),
        }
    }
    assert!(
        ok >= 1,
        "at least the deduped spec must complete ({ok} ok, {busy} busy)"
    );
    assert_eq!(ok + busy, 12);

    // The deduped seed's four clients all saw identical bytes (checked
    // above); service stays healthy and drains.
    let health = get(addr, "/healthz");
    assert_eq!(health.status, 200);
    handle.shutdown();
    assert!(handle.join(), "clean drain under load");
}

#[test]
fn alexnet_sweep_energy_is_byte_identical_to_the_library_under_each_supply() {
    let handle = boot(ServerConfig::default());
    let addr = handle.addr();

    // Tiny proxy CNN (disk-cached after the first preparation) over two
    // grid points, under each of the three supply configurations.
    let network =
        r#"{"kind": "alexnet_conv", "layers": 2, "train_n": 120, "test_n": 20, "epochs": 1}"#;
    let supplies = [
        ("single", r#""single""#),
        ("boosted", r#"{"kind": "boosted", "level": 3}"#),
        ("dual", r#"{"kind": "dual", "v_h_mv": 600}"#),
    ];
    for (name, supply) in supplies {
        let payload = format!(
            r#"{{"network": {network}, "supply": {supply}, "trials": 2, "voltages_mv": [400, 440], "seed": 5}}"#
        );
        let spec = dante_serve::api::decode_spec(payload.as_bytes()).expect(name);
        let reference = dante_serve::api::run_spec_json(&spec);
        let response = post_sweep(addr, &payload);
        assert_eq!(response.status, 200, "{name}: {}", response.body_str());
        assert_eq!(
            response.body_str(),
            reference,
            "{name}: served sweep must be byte-identical to the library path"
        );
        // The served energy series carries exactly the dante-energy value
        // for this point (same f64, hence the same rendered bytes).
        let expected = spec
            .prepare()
            .point_energy(dante_circuit::units::Volt::from_millivolts(400.0));
        let parsed = dante_bench::json::Value::parse(response.body_str()).expect("valid JSON");
        let served = parsed
            .get("series")
            .and_then(dante_bench::json::Value::as_array)
            .expect("series array")
            .iter()
            .find(|s| {
                s.get("name").and_then(dante_bench::json::Value::as_str)
                    == Some("dynamic total [J]")
            })
            .and_then(|s| s.get("points"))
            .and_then(dante_bench::json::Value::as_array)
            .and_then(|pts| pts[0].as_array())
            .and_then(|p| p[1].as_f64())
            .expect("dynamic total point");
        assert_eq!(
            served,
            expected.dynamic.total().joules(),
            "{name}: served energy equals the dante-energy computation exactly"
        );
    }

    // All three are energy sweeps (alexnet workload), so the gauge says 3.
    let metrics = get(addr, "/metrics");
    assert!(
        metrics
            .body_str()
            .contains("dante_serve_energy_sweep_jobs_total 3"),
        "{}",
        metrics.body_str()
    );

    handle.shutdown();
    assert!(handle.join());
}

#[test]
fn duplicate_voltages_are_rejected_with_400() {
    let handle = boot(ServerConfig::default());
    let response = post_sweep(
        handle.addr(),
        r#"{"network": "toy", "voltages_mv": [400, 440, 400]}"#,
    );
    assert_eq!(response.status, 400);
    assert!(
        response.body_str().contains("duplicate"),
        "{}",
        response.body_str()
    );
    assert!(
        response.body_str().contains("400"),
        "diagnostic names the repeated voltage: {}",
        response.body_str()
    );
    handle.shutdown();
    assert!(handle.join());
}

#[test]
fn sampling_and_unknown_fields_are_rejected_with_400() {
    let handle = boot(ServerConfig::default());
    let addr = handle.addr();
    let completed = || {
        get(addr, "/metrics")
            .body_str()
            .lines()
            .find_map(|line| line.strip_prefix("dante_serve_jobs_completed_total "))
            .expect("completed-jobs counter")
            .to_owned()
    };
    let before = completed();
    // The retired sampler field, like a typo'd key on any POST endpoint,
    // is a 400 naming it instead of a silent default.
    for (path, payload, needle) in [
        (
            "/v1/sweep",
            r#"{"network": "toy", "voltages_mv": [400], "sampling": "dense"}"#,
            "'sampling'",
        ),
        ("/v1/retrain", r#"{"sampling": "dense"}"#, "'sampling'"),
        (
            "/v1/sweep",
            r#"{"network": "toy", "voltages_mv": [400], "trails": 1000}"#,
            "'trails'",
        ),
        ("/v1/fleet", r#"{"dies": 64, "die": 32}"#, "'die'"),
        (
            "/v1/retrain",
            r#"{"network": "toy", "epoch": 1}"#,
            "'epoch'",
        ),
    ] {
        let response = exchange(
            addr,
            format!(
                "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
                payload.len(),
            )
            .as_bytes(),
        );
        assert_eq!(response.status, 400, "{path}: {}", response.body_str());
        assert!(
            response.body_str().contains(needle),
            "{path}: {}",
            response.body_str()
        );
    }
    assert_eq!(completed(), before, "a rejected body runs no job");
    handle.shutdown();
    assert!(handle.join());
}

#[test]
fn iso_accuracy_endpoint_solves_caches_and_rejects() {
    let handle = boot(ServerConfig::default());
    let addr = handle.addr();
    let query = "floor=0.9&trials=2&start_mv=380&stop_mv=560&step_mv=60";

    let spec = dante_serve::api::decode_iso_query(query).expect("valid query");
    let reference = dante_serve::api::render_iso(&spec, &spec.solve());

    let cold = get(addr, &format!("/v1/iso-accuracy?{query}"));
    assert_eq!(cold.status, 200, "{}", cold.body_str());
    assert_eq!(cold.header("X-Dante-Cache"), Some("miss"));
    assert_eq!(
        cold.body_str(),
        reference,
        "served solve must be byte-identical to the library path"
    );

    let warm = get(addr, &format!("/v1/iso-accuracy?{query}"));
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("X-Dante-Cache"), Some("hit"));
    assert_eq!(warm.body, cold.body);

    // A typo'd key is a 400 naming the key, not a silent default.
    let bad = get(addr, "/v1/iso-accuracy?flor=0.9");
    assert_eq!(bad.status, 400);
    assert!(bad.body_str().contains("flor"), "{}", bad.body_str());

    // Wrong method on the endpoint is 405.
    let raw = b"POST /v1/iso-accuracy HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";
    assert_eq!(exchange(addr, raw).status, 405);

    // One cold solve, one cache hit in the counters.
    let metrics = get(addr, "/metrics");
    assert!(
        metrics
            .body_str()
            .contains("dante_serve_iso_accuracy_solves_total 1"),
        "{}",
        metrics.body_str()
    );
    assert!(
        metrics
            .body_str()
            .contains("dante_serve_iso_accuracy_cache_hits_total 1"),
        "{}",
        metrics.body_str()
    );

    handle.shutdown();
    assert!(handle.join());
}

#[test]
fn fleet_endpoint_serves_caches_and_streams_per_die_progress() {
    let handle = boot(ServerConfig::default());
    let addr = handle.addr();
    let payload = r#"{"dies": 48, "array_bits": 65536, "grid": {"start_mv": 520, "stop_mv": 600, "step_mv": 40}, "fault_model": "chip_variation"}"#;
    let post_fleet = |payload: &str, query: &str| {
        exchange(
            addr,
            format!(
                "POST /v1/fleet{query} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
                payload.len(),
            )
            .as_bytes(),
        )
    };

    let spec = dante_serve::api::decode_fleet_spec(payload.as_bytes()).expect("valid fleet spec");
    let reference = dante_serve::api::run_fleet_json(&spec);

    let cold = post_fleet(payload, "");
    assert_eq!(cold.status, 200, "{}", cold.body_str());
    assert_eq!(cold.header("X-Dante-Cache"), Some("miss"));
    assert_eq!(
        cold.body_str(),
        reference,
        "served fleet sweep must be byte-identical to the library path"
    );

    let warm = post_fleet(payload, "");
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("X-Dante-Cache"), Some("hit"));
    assert_eq!(warm.body, cold.body, "fleet cache hit is byte-identical");

    // Async submission of a distinct fleet: 202 ticket, then the event
    // stream replays per-die progress and the result endpoint serves the
    // byte-exact record.
    let payload2 = r#"{"seed": 3, "dies": 16, "array_bits": 65536, "grid": {"start_mv": 520, "stop_mv": 600, "step_mv": 40}}"#;
    let submitted = post_fleet(payload2, "?mode=async");
    assert_eq!(submitted.status, 202, "{}", submitted.body_str());
    let body = submitted.body_str().to_owned();
    let needle = r#""job":""#;
    let start = body.find(needle).expect("job id") + needle.len();
    let job_id = body[start..].split('"').next().unwrap().to_owned();

    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let status = get(addr, &format!("/v1/jobs/{job_id}"));
        assert_eq!(status.status, 200);
        if status.body_str().contains(r#""status":"done""#)
            || status.body_str().contains(r#""status": "done""#)
        {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "fleet finished in time"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    write!(
        stream,
        "GET /v1/jobs/{job_id}/events HTTP/1.1\r\nHost: t\r\n\r\n"
    )
    .expect("write");
    let mut all = Vec::new();
    let mut reader = BufReader::new(stream);
    reader.read_to_end(&mut all).expect("read stream");
    let text = String::from_utf8(all).expect("UTF-8");
    for needle in [
        r#""event":"fleet_start""#,
        r#""event":"die""#,
        r#""event":"die_faults""#,
        r#""event":"fleet_done""#,
        r#""event":"end","status":"done""#,
    ] {
        assert!(text.contains(needle), "missing {needle} in stream:\n{text}");
    }

    // Invalid fleet specs are 400s naming the bound.
    let bad = post_fleet(r#"{"dies": 0}"#, "");
    assert_eq!(bad.status, 400);
    assert!(bad.body_str().contains("dies"), "{}", bad.body_str());

    // The fleet counters tick: two cold fleets, one cache hit.
    let metrics = get(addr, "/metrics");
    assert!(
        metrics
            .body_str()
            .contains("dante_serve_fleet_jobs_total 2"),
        "{}",
        metrics.body_str()
    );
    assert!(
        metrics
            .body_str()
            .contains("dante_serve_fleet_cache_hits_total 1"),
        "{}",
        metrics.body_str()
    );

    handle.shutdown();
    assert!(handle.join());
}

#[test]
fn retrain_endpoint_hardens_caches_and_streams_epoch_progress() {
    let handle = boot(ServerConfig::default());
    let addr = handle.addr();
    let payload = r#"{"network": "toy", "target_mv": 380, "epochs": 1, "trials": 2, "voltages_mv": [360, 420, 480, 540], "seed": 9}"#;
    let post_retrain = |payload: &str, query: &str| {
        exchange(
            addr,
            format!(
                "POST /v1/retrain{query} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
                payload.len(),
            )
            .as_bytes(),
        )
    };

    let spec =
        dante_serve::api::decode_retrain_spec(payload.as_bytes()).expect("valid retrain spec");
    let reference = dante_serve::api::run_retrain_json(&spec);

    let cold = post_retrain(payload, "");
    assert_eq!(cold.status, 200, "{}", cold.body_str());
    assert_eq!(cold.header("X-Dante-Cache"), Some("miss"));
    assert_eq!(
        cold.body_str(),
        reference,
        "served retrain artifact must be byte-identical to the library path"
    );
    assert!(cold.body_str().contains(r#""weight_digest":"#));
    assert!(cold.body_str().contains(r#""vmin_gap_mv":"#));

    let warm = post_retrain(payload, "");
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("X-Dante-Cache"), Some("hit"));
    assert_eq!(warm.body, cold.body, "retrain cache hit is byte-identical");

    // Async submission of a distinct spec: 202 ticket, then the NDJSON
    // event stream replays per-epoch progress and terminates.
    let payload2 = r#"{"network": "toy", "target_mv": 380, "epochs": 2, "trials": 2, "voltages_mv": [360, 420, 480, 540], "seed": 10}"#;
    let submitted = post_retrain(payload2, "?mode=async");
    assert_eq!(submitted.status, 202, "{}", submitted.body_str());
    let body = submitted.body_str().to_owned();
    let needle = r#""job":""#;
    let start = body.find(needle).expect("job id") + needle.len();
    let job_id = body[start..].split('"').next().unwrap().to_owned();

    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let status = get(addr, &format!("/v1/jobs/{job_id}"));
        assert_eq!(status.status, 200);
        if status.body_str().contains(r#""status":"done""#)
            || status.body_str().contains(r#""status": "done""#)
        {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "retrain finished in time"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    write!(
        stream,
        "GET /v1/jobs/{job_id}/events HTTP/1.1\r\nHost: t\r\n\r\n"
    )
    .expect("write");
    let mut all = Vec::new();
    let mut reader = BufReader::new(stream);
    reader.read_to_end(&mut all).expect("read stream");
    let text = String::from_utf8(all).expect("UTF-8");
    for needle in [
        r#"{"epoch":0,"event":"epoch_start"}"#,
        r#""epoch":0,"event":"epoch_done""#,
        r#"{"epoch":1,"event":"epoch_start"}"#,
        r#""epoch":1,"event":"epoch_done""#,
        r#""event":"end","status":"done""#,
    ] {
        assert!(text.contains(needle), "missing {needle} in stream:\n{text}");
    }

    // Malformed specs are 400s naming the offending field.
    let bad = post_retrain(r#"{"epochs": 0}"#, "");
    assert_eq!(bad.status, 400);
    assert!(bad.body_str().contains("epochs"), "{}", bad.body_str());
    let bad = post_retrain(r#"{"resample": "sometimes"}"#, "");
    assert_eq!(bad.status, 400);
    assert!(bad.body_str().contains("resample"), "{}", bad.body_str());

    // The retrain counters tick: two cold runs, one cache hit.
    let metrics = get(addr, "/metrics");
    assert!(
        metrics
            .body_str()
            .contains("dante_serve_retrain_jobs_total 2"),
        "{}",
        metrics.body_str()
    );
    assert!(
        metrics
            .body_str()
            .contains("dante_serve_retrain_cache_hits_total 1"),
        "{}",
        metrics.body_str()
    );

    handle.shutdown();
    assert!(handle.join());
}

#[test]
fn sweep_with_fault_model_keys_a_distinct_cache_family() {
    let handle = boot(ServerConfig::default());
    let addr = handle.addr();

    let default_payload =
        r#"{"network": "toy", "trials": 2, "voltages_mv": [420, 480], "seed": 77}"#;
    let burst_payload = r#"{"network": "toy", "trials": 2, "voltages_mv": [420, 480], "seed": 77, "fault_model": "correlated_burst"}"#;

    let base = post_sweep(addr, default_payload);
    assert_eq!(base.status, 200, "{}", base.body_str());
    let burst = post_sweep(addr, burst_payload);
    assert_eq!(burst.status, 200, "{}", burst.body_str());
    // Distinct cache keys (the `fault=` token differs) — the second run is
    // a cold miss, not a hit on the default-model entry.
    assert_eq!(burst.header("X-Dante-Cache"), Some("miss"));
    assert_ne!(
        base.header("X-Dante-Digest"),
        burst.header("X-Dante-Digest"),
        "fault-model sweeps must not alias the default-model cache entry"
    );
    assert_ne!(base.body, burst.body);
    assert!(base
        .body_str()
        .contains(";fault=gaussian(mu=352,sigma=40,flip=500000);"));
    assert!(burst.body_str().contains("dante.sweep.v5;"));
    assert!(burst.body_str().contains(";fault=burst("));

    // And the served burst record matches the library path byte-for-byte.
    let spec = dante_serve::api::decode_spec(burst_payload.as_bytes()).expect("valid spec");
    assert_eq!(burst.body_str(), dante_serve::api::run_spec_json(&spec));

    handle.shutdown();
    assert!(handle.join());
}

#[test]
fn unknown_routes_and_methods_are_mapped_to_404_and_405() {
    let handle = boot(ServerConfig::default());
    let addr = handle.addr();
    assert_eq!(get(addr, "/nope").status, 404);
    assert_eq!(get(addr, "/v1/jobs/job-none").status, 404);
    let response = exchange(
        addr,
        b"DELETE /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(response.status, 405);
    handle.shutdown();
    assert!(handle.join());
}
