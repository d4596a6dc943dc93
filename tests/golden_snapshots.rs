//! Golden snapshot acceptance: every deterministic paper artifact is
//! regenerated and compared against its blessed copy in `results/golden/`
//! within the per-metric tolerance bands of `dante-verify`, and the
//! paper-anchored point claims are checked against the regenerated data.
//!
//! Intended change? Re-bless with
//! `UPDATE_GOLDEN=1 cargo test --test golden_snapshots` (see
//! EXPERIMENTS.md, "Golden snapshot workflow").

use dante_bench::figures::golden_records;
use dante_bench::record::FigureRecord;
use dante_verify::golden::{paper_anchors, GoldenStore, Tolerance};

/// One regeneration shared by the tests in this binary (the registry is
/// deterministic; see `dante-bench`'s `golden_registry_is_deterministic`).
fn records() -> Vec<FigureRecord> {
    golden_records()
}

#[test]
fn every_golden_record_matches_its_blessed_copy() {
    let store = GoldenStore::default_location();
    let mut failures = Vec::new();
    for rec in records() {
        if let Err(diff) = store.check(&rec) {
            failures.push(diff.render());
        }
    }
    assert!(
        failures.is_empty(),
        "{} golden record(s) diverged:\n\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn golden_store_has_no_orphaned_snapshots() {
    // Skip while blessing: a rename legitimately leaves the old file until
    // the workflow's cleanup step removes it.
    if GoldenStore::bless_requested() {
        return;
    }
    let store = GoldenStore::default_location();
    let recs = records();
    let ids: Vec<&str> = recs.iter().map(|r| r.id.as_str()).collect();
    let orphans = store.orphans(&ids);
    assert!(
        orphans.is_empty(),
        "blessed snapshots with no generator (delete them from {}): {orphans:?}",
        store.dir().display()
    );
}

#[test]
fn paper_anchor_claims_hold_on_regenerated_records() {
    let recs = records();
    let failures: Vec<String> = paper_anchors()
        .iter()
        .filter_map(|a| a.check(&recs).err())
        .collect();
    assert!(
        failures.is_empty(),
        "{} paper anchor(s) violated:\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn golden_records_are_byte_identical_to_their_blessed_files() {
    // Stronger than the tolerance-banded check above: every blessed
    // snapshot — including the Monte-Carlo-backed iso_accuracy, fleet and
    // retrain — must be reproduced byte for byte. A re-bless to absorb an
    // evaluator change would be a correctness bug, not a tolerance
    // question (`tests/differential.rs` pins the iso_accuracy sweep to the
    // scalar oracle in `dante-verify`).
    if GoldenStore::bless_requested() {
        return; // blessed files are being rewritten in this run
    }
    let dir = GoldenStore::default_location().dir().to_path_buf();
    let mut failures = Vec::new();
    for rec in records() {
        let path = dir.join(format!("{}.json", rec.id));
        let blessed = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        if blessed.trim_end() != rec.to_json_pretty().trim_end() {
            failures.push(rec.id.clone());
        }
    }
    assert!(
        failures.is_empty(),
        "records no longer byte-identical to their blessed snapshots: {failures:?}"
    );
}

#[test]
fn perturbed_record_fails_with_a_readable_diff() {
    // The detector test the issue demands: deliberately perturbing a model
    // output must fail its golden comparison, and the diff must name the
    // series and show both values. Uses a throwaway diff dir so the real
    // artifact directory stays clean.
    let store = GoldenStore::new(
        GoldenStore::default_location().dir(),
        std::env::temp_dir().join(format!("dante-golden-perturb-{}", std::process::id())),
    );
    let mut rec = records()
        .into_iter()
        .find(|r| r.id == "fig08")
        .expect("fig08 is in the golden registry");
    // A 5% booster-model error on one curve — far beyond the 1e-6 band.
    for p in &mut rec.series[3].points {
        p.1 *= 1.05;
    }
    let diff = store
        .check_with_mode(&rec, false)
        .expect_err("a 5% perturbation must fail the golden check");
    let text = diff.render();
    assert!(text.contains("fig08"), "diff names the record: {text}");
    assert!(text.contains("Vddv4"), "diff names the series: {text}");
    assert!(text.contains("- y =") && text.contains("+ y ="), "{text}");
    assert!(
        text.contains("UPDATE_GOLDEN=1"),
        "diff carries the hint: {text}"
    );
}

#[test]
fn fault_tail_perturbation_is_caught_by_the_fig07_band() {
    // Perturbing the fault model's Gaussian tail (sigma +1%) shifts the
    // deep-tail BER by far more than fig07's relative band — the snapshot
    // suite pins the tail, not just the bulk.
    use dante_sram::fault::VminFaultModel;
    let nominal = VminFaultModel::default_14nm();
    let perturbed = VminFaultModel::new(
        nominal.mu(),
        nominal.sigma() * 1.01,
        nominal.read_flip_probability(),
    );
    let tol = dante_verify::golden::tolerance_for("fig07");
    let v = dante_circuit::units::Volt::new(0.44);
    assert!(
        !tol.accepts(nominal.bit_error_rate(v), perturbed.bit_error_rate(v)),
        "a 1% sigma error must exceed the fig07 tolerance band"
    );
    // While the band still accepts genuine regeneration noise (none — the
    // pipeline is deterministic — but float reassociation at ~1e-16 is in
    // spec).
    let b = nominal.bit_error_rate(v);
    assert!(tol.accepts(b, b * (1.0 + 1e-12)));
}

#[test]
fn tolerance_bands_are_paper_scaled() {
    // Exact-compared records really are exact; banded records have sane
    // non-zero bands.
    for id in ["table1", "table2", "fig04"] {
        assert_eq!(dante_verify::golden::tolerance_for(id), Tolerance::exact());
    }
    for id in ["fig06", "fig07", "fig08", "headlines"] {
        let t = dante_verify::golden::tolerance_for(id);
        assert!(t.rel > 0.0 && t.rel <= 1e-2, "{id}: rel {}", t.rel);
    }
}
