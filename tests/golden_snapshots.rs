//! Golden records: every deterministic paper artifact in
//! `dante_bench::figures::golden_records` (each `Build::Model` row of
//! `ARTIFACTS`) is regenerated once and its JSON compared byte for byte with
//! the committed `results/<id>.json`, and the paper-anchored point claims
//! are checked against the regenerated data. `ARTIFACTS` and `results/` are
//! also held to name the same files, with nothing regenerated.
//!
//! Intended change? Regenerate `results/` with `scripts/reproduce_all.sh`
//! (or `cargo run --release -p dante-bench --bin reproduce -- <id>` under
//! `DANTE_RESULTS=results`) and review `git diff results/` (see
//! EXPERIMENTS.md, "Golden snapshot workflow").

use dante_bench::figures::{golden_records, ARTIFACTS};
use dante_bench::record::FigureRecord;
use dante_verify::golden::{paper_anchors, GoldenStore};
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// One regeneration shared by the tests in this binary (the registry is
/// deterministic; see `dante-bench`'s `golden_registry_is_deterministic`).
fn records() -> &'static [FigureRecord] {
    static RECORDS: OnceLock<Vec<FigureRecord>> = OnceLock::new();
    RECORDS.get_or_init(golden_records)
}

/// A copy of registry record `id`, for the detector tests to perturb.
fn record(id: &str) -> FigureRecord {
    records()
        .iter()
        .find(|r| r.id == id)
        .unwrap_or_else(|| panic!("{id} is in the golden registry"))
        .clone()
}

/// Checks a perturbed record against the committed files and returns the
/// rendered diff. The regenerated JSON goes to a throwaway directory,
/// removed again, so the detector tests leave `target/golden-diff/` to the
/// real check.
fn rendered_mismatch(tag: &str, rec: &FigureRecord) -> String {
    let diff_dir = std::env::temp_dir().join(format!("dante-golden-{tag}-{}", std::process::id()));
    let result = GoldenStore::new(GoldenStore::default_location().dir(), &diff_dir).check(rec);
    let _ = std::fs::remove_dir_all(&diff_dir);
    result
        .expect_err("a perturbed record must fail the golden check")
        .render()
}

#[test]
fn golden_records_are_byte_identical_to_their_blessed_files() {
    // Every record, the Monte-Carlo-backed iso_accuracy, fleet and retrain
    // included, must reproduce its committed file byte for byte: an
    // evaluator change that moves one is a regeneration to review, never a
    // tolerance question (`tests/differential.rs` pins the iso_accuracy
    // sweep to the scalar oracle in `dante-verify`).
    let store = GoldenStore::default_location();
    let failures: Vec<String> = records()
        .iter()
        .filter_map(|rec| store.check(rec).err())
        .map(|diff| diff.render())
        .collect();
    assert!(
        failures.is_empty(),
        "{} golden record(s) differ from results/:\n\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn every_artifact_row_has_its_committed_files_and_nothing_else() {
    // Without regenerating anything: each row's `<id>.json` and `<id>.txt`
    // are committed, and every file in results/ is one of them.
    let expected: BTreeSet<String> = ARTIFACTS
        .iter()
        .flat_map(|&(id, _)| [format!("{id}.json"), format!("{id}.txt")])
        .collect();
    let dir = GoldenStore::default_location().dir().to_owned();
    let committed: BTreeSet<String> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("could not list {}: {e}", dir.display()))
        .map(|entry| {
            let entry = entry.expect("readable directory entry");
            entry.file_name().to_string_lossy().into_owned()
        })
        .collect();
    let missing: Vec<_> = expected.difference(&committed).collect();
    let stray: Vec<_> = committed.difference(&expected).collect();
    assert!(
        missing.is_empty() && stray.is_empty(),
        "results/ and dante_bench::figures::ARTIFACTS disagree: rows without a \
         committed file {missing:?}, files no row writes {stray:?}"
    );
}

#[test]
fn paper_anchor_claims_hold_on_regenerated_records() {
    let failures: Vec<String> = paper_anchors()
        .iter()
        .filter_map(|a| a.check(records()).err())
        .collect();
    assert!(
        failures.is_empty(),
        "{} paper anchor(s) violated:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn perturbed_record_fails_with_a_readable_diff() {
    // Deliberately perturbing a model output must fail its golden
    // comparison, and the diff must name the series, show both values and
    // name the command that regenerates the file.
    let mut rec = record("fig08");
    // A 5% booster-model error on one curve.
    for p in &mut rec.series[3].points {
        p.1 *= 1.05;
    }
    let text = rendered_mismatch("perturb", &rec);
    assert!(text.contains("fig08"), "diff names the record: {text}");
    assert!(text.contains("Vddv4"), "diff names the series: {text}");
    assert!(text.contains("- y =") && text.contains("+ y ="), "{text}");
    assert!(
        text.contains("--bin reproduce -- fig08`"),
        "diff names the command: {text}"
    );
}

#[test]
fn a_notes_only_change_fails_the_check() {
    let mut rec = record("fig07");
    rec.notes[0].push_str(" (edited)");
    let text = rendered_mismatch("notes", &rec);
    assert!(text.contains("golden mismatch: fig07"), "{text}");
    assert!(
        text.contains("@ note 0:") && text.contains("(edited)"),
        "{text}"
    );
}

#[test]
fn a_one_ulp_point_change_fails_the_check() {
    // Fig. 7's BER at 0.44 V, the fault-model tail anchored to the paper's
    // measured 1.4e-2, moved to the next representable double.
    let mut rec = record("fig07");
    let series = &mut rec.series[0];
    assert_eq!(series.name, "bit error rate");
    let point = series
        .points
        .iter_mut()
        .find(|p| (p.0 - 0.44).abs() < 1e-9)
        .expect("fig07 has a 0.44 V point");
    point.1 = f64::from_bits(point.1.to_bits() + 1);
    let text = rendered_mismatch("ulp", &rec);
    assert!(text.contains("golden mismatch: fig07"), "{text}");
    assert!(text.contains("@ series \"bit error rate\" point"), "{text}");
    assert!(text.contains("- y =") && text.contains("+ y ="), "{text}");
}
