//! End-to-end smoke test used by CI: boots the service in-process on an
//! ephemeral port, drives it with raw `TcpStream` clients (no HTTP client
//! dependency), and asserts the cache-hit response is byte-identical to
//! the cold run. Exits non-zero on any failure.

use dante_serve::server::{start, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One raw HTTP exchange; returns `(status, headers, body)`.
fn exchange(addr: SocketAddr, request: &str) -> (u16, Vec<String>, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("set timeout");
    stream.write_all(request.as_bytes()).expect("write request");
    stream.flush().expect("flush");
    let mut reader = BufReader::new(stream);
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
        let line = line.trim_end().to_owned();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("content length");
            }
        }
        headers.push(line);
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (status, headers, body)
}

fn post(addr: SocketAddr, path: &str, payload: &str) -> (u16, Vec<String>, Vec<u8>) {
    let request = format!(
        "POST {path} HTTP/1.1\r\nHost: smoke\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
        payload.len(),
    );
    exchange(addr, &request)
}

fn post_sweep(addr: SocketAddr, payload: &str) -> (u16, Vec<String>, Vec<u8>) {
    post(addr, "/v1/sweep", payload)
}

fn get(addr: SocketAddr, path: &str) -> (u16, Vec<String>, Vec<u8>) {
    exchange(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: smoke\r\nConnection: close\r\n\r\n"),
    )
}

fn header<'a>(headers: &'a [String], name: &str) -> Option<&'a str> {
    headers.iter().find_map(|line| {
        let (n, v) = line.split_once(':')?;
        n.eq_ignore_ascii_case(name).then(|| v.trim())
    })
}

fn main() {
    let handle = start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..ServerConfig::default()
    })
    .expect("boot server");
    let addr = handle.addr();
    println!("smoke: server on {addr}");

    let payload = r#"{"network": "toy", "trials": 3, "voltages_mv": [380, 440, 500]}"#;

    let (status, headers, cold) = post_sweep(addr, payload);
    assert_eq!(
        status,
        200,
        "cold sweep: {}",
        String::from_utf8_lossy(&cold)
    );
    assert_eq!(header(&headers, "X-Dante-Cache"), Some("miss"));
    println!("smoke: cold sweep ok ({} bytes)", cold.len());

    let (status, headers, warm) = post_sweep(addr, payload);
    assert_eq!(
        status,
        200,
        "warm sweep: {}",
        String::from_utf8_lossy(&warm)
    );
    assert_eq!(header(&headers, "X-Dante-Cache"), Some("hit"));
    assert_eq!(
        cold, warm,
        "cache hit must be byte-identical to the cold run"
    );
    println!("smoke: cache hit byte-identical");

    // A supply-configured sweep exercises the energy-aware path end to end.
    let boosted = r#"{"network": "toy", "trials": 2, "voltages_mv": [400, 440], "supply": {"kind": "boosted", "level": 3}}"#;
    let (status, _, body) = post_sweep(addr, boosted);
    assert_eq!(
        status,
        200,
        "boosted sweep: {}",
        String::from_utf8_lossy(&body)
    );
    let text = String::from_utf8(body).expect("sweep body is UTF-8");
    for needle in ["dynamic total [J]", "sram rail [V]", "supply=boosted(3)"] {
        assert!(text.contains(needle), "boosted sweep missing {needle}");
    }
    println!("smoke: boosted energy sweep ok");

    let (status, _, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(body, b"ok\n");
    println!("smoke: healthz ok");

    let iso_path = "/v1/iso-accuracy?floor=0.9&trials=2&start_mv=380&stop_mv=560&step_mv=60";
    let (status, headers, cold_iso) = get(addr, iso_path);
    assert_eq!(
        status,
        200,
        "iso solve: {}",
        String::from_utf8_lossy(&cold_iso)
    );
    assert_eq!(header(&headers, "X-Dante-Cache"), Some("miss"));
    let (status, headers, warm_iso) = get(addr, iso_path);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "X-Dante-Cache"), Some("hit"));
    assert_eq!(
        cold_iso, warm_iso,
        "iso-accuracy cache hit must be byte-identical"
    );
    let iso_text = String::from_utf8(cold_iso).expect("iso body is UTF-8");
    for needle in [
        "\"single\"",
        "\"boosted\"",
        "\"dual\"",
        "boosted_over_single",
    ] {
        assert!(iso_text.contains(needle), "iso body missing {needle}");
    }
    println!("smoke: iso-accuracy solve + cache hit ok");

    // Fleet sweep under a non-default (correlated-burst) fault model: cold
    // run, then a cache hit that must be byte-identical to the cold bytes.
    let fleet_payload = r#"{"dies": 64, "array_bits": 65536, "grid": {"start_mv": 520, "stop_mv": 620, "step_mv": 20}, "fault_model": {"kind": "correlated_burst"}}"#;
    let (status, headers, cold_fleet) = post(addr, "/v1/fleet", fleet_payload);
    assert_eq!(
        status,
        200,
        "cold fleet: {}",
        String::from_utf8_lossy(&cold_fleet)
    );
    assert_eq!(header(&headers, "X-Dante-Cache"), Some("miss"));
    let (status, headers, warm_fleet) = post(addr, "/v1/fleet", fleet_payload);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "X-Dante-Cache"), Some("hit"));
    assert_eq!(
        cold_fleet, warm_fleet,
        "fleet cache hit must be byte-identical to the cold run"
    );
    let fleet_text = String::from_utf8(cold_fleet).expect("fleet body is UTF-8");
    for needle in ["\"id\": \"fleet\"", "vmin quantile [V]", "fault=burst("] {
        assert!(fleet_text.contains(needle), "fleet body missing {needle}");
    }
    println!("smoke: fleet sweep + byte-identical cache hit ok");

    // Retrain leg: a short 2-epoch fault-aware fine-tune of the toy
    // network. The hardened V_min must not exceed the baseline's (the
    // single-supply gap is non-negative), and the cache hit must be
    // byte-identical to the cold run.
    let retrain_payload = r#"{"network": "toy", "target_mv": 380, "epochs": 2, "trials": 2, "voltages_mv": [360, 420, 480, 540], "seed": 21}"#;
    let (status, headers, cold_retrain) = post(addr, "/v1/retrain", retrain_payload);
    assert_eq!(
        status,
        200,
        "cold retrain: {}",
        String::from_utf8_lossy(&cold_retrain)
    );
    assert_eq!(header(&headers, "X-Dante-Cache"), Some("miss"));
    let (status, headers, warm_retrain) = post(addr, "/v1/retrain", retrain_payload);
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "X-Dante-Cache"), Some("hit"));
    assert_eq!(
        cold_retrain, warm_retrain,
        "retrain cache hit must be byte-identical to the cold run"
    );
    let retrain_text = String::from_utf8(cold_retrain).expect("retrain body is UTF-8");
    for needle in ["\"weight_digest\"", "dante.retrain.v1;", "\"vmin_gap_mv\""] {
        assert!(
            retrain_text.contains(needle),
            "retrain body missing {needle}"
        );
    }
    let single_gap = retrain_text
        .split("\"vmin_gap_mv\":")
        .nth(1)
        .and_then(|tail| tail.split("\"single\":").nth(1))
        .and_then(|tail| tail.split(['}', ',']).next())
        .and_then(|token| token.trim().parse::<f64>().ok())
        .expect("single-supply V_min gap present and numeric");
    assert!(
        single_gap >= 0.0,
        "hardened V_min must not exceed baseline: gap = {single_gap} mV"
    );
    println!("smoke: retrain hardened V_min gap {single_gap} mV, cache hit byte-identical");

    let (status, _, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).expect("metrics is UTF-8");
    for needle in [
        "dante_serve_requests_total",
        "dante_serve_cache_hits_total 4",
        // Five worker jobs: cold sweep, boosted sweep, iso solve, fleet,
        // retrain.
        "dante_serve_jobs_completed_total 5",
        "dante_serve_energy_sweep_jobs_total 1",
        "dante_serve_iso_accuracy_solves_total 1",
        "dante_serve_iso_accuracy_cache_hits_total 1",
        "dante_serve_fleet_jobs_total 1",
        "dante_serve_fleet_cache_hits_total 1",
        "dante_serve_retrain_jobs_total 1",
        "dante_serve_retrain_cache_hits_total 1",
        "dante_serve_jobs_rejected_total 0",
        "dante_serve_queue_depth 0",
    ] {
        assert!(text.contains(needle), "metrics missing {needle}:\n{text}");
    }
    println!("smoke: metrics ok");

    handle.shutdown();
    assert!(handle.join(), "server must drain cleanly");
    println!("smoke: clean shutdown ok");

    sharded_leg(payload, &cold);
    restart_recovery_leg();
    println!("smoke: all checks passed");
}

/// Sharded leg: two plain backends plus a coordinator fronting them. The
/// coordinated sweep must be byte-identical to `reference` — the bytes the
/// single-process server served for the same payload above.
fn sharded_leg(payload: &str, reference: &[u8]) {
    let backend_a = start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..ServerConfig::default()
    })
    .expect("boot backend a");
    let backend_b = start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..ServerConfig::default()
    })
    .expect("boot backend b");
    let coordinator = start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        peers: vec![backend_a.addr().to_string(), backend_b.addr().to_string()],
        ..ServerConfig::default()
    })
    .expect("boot coordinator");
    let addr = coordinator.addr();

    let (status, headers, sharded) = post_sweep(addr, payload);
    assert_eq!(
        status,
        200,
        "sharded sweep: {}",
        String::from_utf8_lossy(&sharded)
    );
    assert_eq!(header(&headers, "X-Dante-Cache"), Some("miss"));
    assert_eq!(
        sharded, reference,
        "sharded sweep must be byte-identical to the single-process run"
    );

    let (status, _, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).expect("metrics is UTF-8");
    for needle in [
        // One leg per peer, no local fallback, nothing left in flight.
        "dante_serve_shard_requests_total 2",
        "dante_serve_shard_fallbacks_total 0",
        "dante_serve_shard_in_flight 0",
    ] {
        assert!(text.contains(needle), "metrics missing {needle}:\n{text}");
    }

    coordinator.shutdown();
    assert!(coordinator.join(), "coordinator must drain cleanly");
    backend_a.shutdown();
    assert!(backend_a.join(), "backend a must drain cleanly");
    backend_b.shutdown();
    assert!(backend_b.join(), "backend b must drain cleanly");
    println!("smoke: sharded sweep byte-identical across 2 backends");
}

/// Restart-recovery leg: a sweep served cold by one process is served as a
/// byte-identical cache hit by a fresh process sharing the same data dir.
fn restart_recovery_leg() {
    let dir = std::env::temp_dir().join(format!("dante-serve-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let payload = r#"{"network": "toy", "trials": 2, "voltages_mv": [420, 480], "seed": 17}"#;

    let first = start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("boot first server");
    let (status, headers, cold) = post_sweep(first.addr(), payload);
    assert_eq!(
        status,
        200,
        "cold sweep: {}",
        String::from_utf8_lossy(&cold)
    );
    assert_eq!(header(&headers, "X-Dante-Cache"), Some("miss"));
    first.shutdown();
    assert!(first.join(), "first server must drain cleanly");

    let second = start(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("boot second server");
    let (status, headers, warm) = post_sweep(second.addr(), payload);
    assert_eq!(
        status,
        200,
        "warm sweep: {}",
        String::from_utf8_lossy(&warm)
    );
    assert_eq!(
        header(&headers, "X-Dante-Cache"),
        Some("hit"),
        "restarted server must hit the persisted cache"
    );
    assert_eq!(
        cold, warm,
        "persisted cache hit must be byte-identical across the restart"
    );
    second.shutdown();
    assert!(second.join(), "second server must drain cleanly");
    let _ = std::fs::remove_dir_all(&dir);
    println!("smoke: disk cache byte-identical across restart");
}
