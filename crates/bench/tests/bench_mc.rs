//! The `bench_mc` bin end to end at quick scale: the report it writes has
//! the key paths of the committed `BENCH_mc.json`, every derived field
//! equals its formula bit for bit, and every deterministic value is pinned
//! by one FNV-1a digest.

use dante_bench::json::{parse, Value};
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

/// FNV-1a over the key path and bits of every deterministic value of a
/// quick report, in document order (see [`is_deterministic`]).
const QUICK_DIGEST: u64 = 0xbe5b_fd85_49dc_19d8;

/// Every leaf of `value` as `(key path, value)` in document order, array
/// indices collapsed to `[]`.
fn leaves<'a>(value: &'a Value, path: &str, out: &mut Vec<(String, &'a Value)>) {
    match value {
        Value::Object(map) => {
            for (key, member) in map {
                let path = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                leaves(member, &path, out);
            }
        }
        Value::Array(items) => {
            for item in items {
                leaves(item, &format!("{path}[]"), out);
            }
        }
        _ => out.push((path.to_owned(), value)),
    }
}

/// Whether the leaf at `path` is the same on every run and machine: not a
/// wall time, not derived from one, not the core count, and not in an
/// `engine_scaling` row (their count follows the core count).
fn is_deterministic(path: &str) -> bool {
    let key = path.rsplit('.').next().expect("non-empty path");
    !(path.starts_with("engine_scaling")
        || key.ends_with("_ns")
        || matches!(
            key,
            "seconds" | "speedup" | "images_per_sec" | "us_per_die" | "available_parallelism"
        ))
}

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The number at the dotted `path` below `row`.
fn number(row: &Value, path: &str) -> f64 {
    path.split('.')
        .try_fold(row, |v, key| v.get(key))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("no number at {path}"))
}

fn rows<'a>(report: &'a Value, section: &str) -> &'a [Value] {
    report
        .get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("no {section} rows"))
}

/// Asserts `actual` equals `expected` bit for bit.
fn assert_bits(actual: f64, expected: f64, what: &str) {
    assert_eq!(
        actual.to_bits(),
        expected.to_bits(),
        "{what}: {actual} written, {expected} by its formula"
    );
}

#[test]
fn quick_report_has_the_committed_shape() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let dir = std::env::temp_dir().join(format!("dante-bench-mc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out_path = dir.join("BENCH_mc.json");
    let out = Command::new(env!("CARGO_BIN_EXE_bench_mc"))
        .current_dir(&root)
        .env("DANTE_BENCH_QUICK", "1")
        .env("DANTE_BENCH_OUT", &out_path)
        .output()
        .expect("bench_mc starts");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&out_path).expect("bench_mc wrote its report");
    std::fs::remove_dir_all(&dir).expect("temp dir removable");
    let report = parse(&text).expect("the report parses");

    let committed = std::fs::read_to_string(root.join("BENCH_mc.json")).expect("committed report");
    let committed = parse(&committed).expect("the committed report parses");
    let paths = |value: &Value| -> BTreeSet<String> {
        let mut out = Vec::new();
        leaves(value, "", &mut out);
        out.into_iter().map(|(path, _)| path).collect()
    };
    let committed_paths = paths(&committed);
    assert_eq!(committed_paths.len(), 62);
    assert_eq!(paths(&report), committed_paths);
    assert_eq!(report.get("quick").and_then(Value::as_bool), Some(true));

    for row in rows(&report, "generation") {
        let ratio = number(row, "dense.mean_ns") / number(row, "sparse.mean_ns");
        assert_bits(number(row, "speedup"), ratio, "generation speedup");
    }
    for row in rows(&report, "forward_pass") {
        let rate = number(row, "test_images") / (number(row, "inference_ns") * 1e-9);
        assert_bits(number(row, "images_per_sec"), rate, "images_per_sec");
    }
    for row in rows(&report, "fleet") {
        let us = number(row, "die.mean_ns") / 1e3;
        assert_bits(number(row, "us_per_die"), us, "us_per_die");
    }
    let scaling = rows(&report, "engine_scaling");
    let serial_ns = number(&scaling[0], "evaluate.mean_ns");
    for row in scaling {
        let speedup = serial_ns / number(row, "evaluate.mean_ns");
        assert_bits(number(row, "speedup"), speedup, "engine_scaling speedup");
    }

    let mut all = Vec::new();
    leaves(&report, "", &mut all);
    let digest = all.iter().filter(|(path, _)| is_deterministic(path)).fold(
        0xcbf2_9ce4_8422_2325,
        |h, (path, value)| {
            let h = fnv1a(fnv1a(h, path.as_bytes()), &[0xFF]);
            match value {
                Value::Number(x) => fnv1a(h, &x.to_bits().to_le_bytes()),
                Value::String(s) => fnv1a(h, s.as_bytes()),
                Value::Bool(b) => fnv1a(h, &[u8::from(*b)]),
                other => panic!("{path} holds {other:?}"),
            }
        },
    );
    assert_eq!(
        digest, QUICK_DIGEST,
        "deterministic values moved: digest {digest:#018x}"
    );
}
