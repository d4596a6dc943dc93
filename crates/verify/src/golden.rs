//! Golden records: every deterministic paper artifact, the
//! `Build::Model` rows of `dante_bench::figures::ARTIFACTS` that
//! `dante_bench::figures::golden_records` builds, is committed as
//! `results/<id>.json`, the file the `reproduce` bin writes for that row,
//! and `cargo test --test golden_snapshots` regenerates each record and
//! compares its JSON with that file byte for byte, ignoring only a trailing
//! newline.
//!
//! Workflow:
//!
//! * a mismatch fails the test with a field-by-field account naming the
//!   record and its differing fields (numbers compared by bit pattern,
//!   notes included), writes the regenerated JSON to
//!   `target/golden-diff/<id>.actual.json` so CI can upload it, and names
//!   the command that regenerates the file;
//! * an **intended** change is regenerated into `results/` with
//!   `scripts/reproduce_all.sh` and reviewed with `git diff results/`.
//!
//! [`paper_anchors`] is a separate contract: it holds regenerated points to
//! the paper's published numbers within [`Tolerance`] bands.

use dante_bench::record::FigureRecord;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// An acceptance band around a paper-quoted value: `actual` matches
/// `paper` when `|actual - paper| <= abs + rel * |paper|`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Relative component, scaled by the quoted magnitude.
    pub rel: f64,
    /// Absolute floor, for values near zero.
    pub abs: f64,
}

impl Tolerance {
    /// Bit-exact comparison, for anchors that restate the paper's own
    /// numbers.
    #[must_use]
    pub const fn exact() -> Self {
        Self { rel: 0.0, abs: 0.0 }
    }

    /// A relative band with an absolute floor.
    #[must_use]
    pub const fn band(rel: f64, abs: f64) -> Self {
        Self { rel, abs }
    }

    /// Whether `actual` is acceptable against `paper`.
    #[must_use]
    pub fn accepts(&self, paper: f64, actual: f64) -> bool {
        (actual - paper).abs() <= self.allowed(paper)
    }

    /// The maximum allowed absolute deviation from `paper`.
    #[must_use]
    pub fn allowed(&self, paper: f64) -> f64 {
        self.abs + self.rel * paper.abs()
    }
}

/// A failed golden comparison: which record, where its committed file
/// lives, and every field that differs.
#[derive(Debug, Clone)]
pub struct GoldenDiff {
    /// Record id, which is also the `dante_bench::figures::ARTIFACTS` row
    /// that regenerates it.
    pub id: String,
    /// Path of the committed JSON file.
    pub committed: PathBuf,
    /// One `@ field` / `- committed` / `+ regenerated` entry per
    /// differing field, in record order.
    pub mismatches: Vec<String>,
    /// Where the regenerated JSON was written, when writing succeeded.
    pub actual: Option<PathBuf>,
}

impl GoldenDiff {
    /// Renders the diff in a unified, human-readable form.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== golden mismatch: {} ==", self.id);
        let _ = writeln!(out, "committed: {}", self.committed.display());
        for line in &self.mismatches {
            let _ = writeln!(out, "{line}");
        }
        if let Some(actual) = &self.actual {
            let _ = writeln!(out, "regenerated: {}", actual.display());
        }
        let _ = writeln!(
            out,
            "hint: if this change is intended, regenerate the file from the \
             repository root with `DANTE_RESULTS=results cargo run --release \
             -p dante-bench --bin reproduce -- {id}` (or \
             `scripts/reproduce_all.sh`) and review `git diff results/`",
            id = self.id
        );
        out
    }
}

/// The committed golden files and where mismatching regenerations go.
#[derive(Debug, Clone)]
pub struct GoldenStore {
    dir: PathBuf,
    diff_dir: PathBuf,
}

impl GoldenStore {
    /// A store reading `<id>.json` files from `dir`, writing mismatching
    /// regenerations to `diff_dir`.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>, diff_dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            diff_dir: diff_dir.into(),
        }
    }

    /// `results/` under the invoking package root (cargo sets
    /// `CARGO_MANIFEST_DIR` at test runtime), with mismatches written to
    /// `target/golden-diff/`.
    #[must_use]
    pub fn default_location() -> Self {
        let root = std::env::var_os("CARGO_MANIFEST_DIR")
            .map_or_else(|| PathBuf::from("."), PathBuf::from);
        Self::new(
            root.join("results"),
            root.join("target").join("golden-diff"),
        )
    }

    /// Directory holding the committed `*.json` files.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Checks that `actual` serializes to exactly the committed
    /// `<id>.json`, apart from a trailing newline.
    ///
    /// # Errors
    ///
    /// Returns the [`GoldenDiff`] when the committed file is missing,
    /// unparsable, or differs in any byte.
    pub fn check(&self, actual: &FigureRecord) -> Result<(), GoldenDiff> {
        let committed = self.dir.join(format!("{}.json", actual.id));
        let json = actual.to_json_pretty();
        let mismatches = match std::fs::read_to_string(&committed) {
            Ok(text) if text.strip_suffix('\n').unwrap_or(&text) == json => return Ok(()),
            Ok(text) => match FigureRecord::from_json(&text) {
                Ok(golden) => diff_records(&golden, actual),
                Err(e) => vec![format!("- committed file unparsable: {e}")],
            },
            Err(e) => vec![format!("- committed file unreadable: {e}")],
        };
        let path = self.diff_dir.join(format!("{}.actual.json", actual.id));
        let wrote = std::fs::create_dir_all(&self.diff_dir)
            .and_then(|()| std::fs::write(&path, &json))
            .is_ok();
        Err(GoldenDiff {
            id: actual.id.clone(),
            committed,
            mismatches,
            actual: wrote.then_some(path),
        })
    }
}

/// Field-by-field comparison of two records whose JSON differs, as
/// `-committed` / `+regenerated` entries. Numbers compare by bit pattern,
/// which is what the JSON encoding preserves.
fn diff_records(golden: &FigureRecord, actual: &FigureRecord) -> Vec<String> {
    let mut out = Vec::new();
    for (field, g, a) in [
        ("id", &golden.id, &actual.id),
        ("title", &golden.title, &actual.title),
        ("x_label", &golden.x_label, &actual.x_label),
        ("y_label", &golden.y_label, &actual.y_label),
    ] {
        if g != a {
            out.push(format!("@ {field}:\n- {g}\n+ {a}"));
        }
    }

    let golden_names: Vec<&str> = golden.series.iter().map(|s| s.name.as_str()).collect();
    let actual_names: Vec<&str> = actual.series.iter().map(|s| s.name.as_str()).collect();
    if golden_names != actual_names {
        out.push(format!(
            "@ series set:\n- {golden_names:?}\n+ {actual_names:?}"
        ));
    } else {
        for (gs, as_) in golden.series.iter().zip(&actual.series) {
            if gs.points.len() != as_.points.len() {
                out.push(format!(
                    "@ series \"{}\" point count:\n- {}\n+ {}",
                    gs.name,
                    gs.points.len(),
                    as_.points.len()
                ));
                continue;
            }
            for (i, (&(gx, gy), &(ax, ay))) in gs.points.iter().zip(&as_.points).enumerate() {
                for (axis, g, a) in [("x", gx, ax), ("y", gy, ay)] {
                    if g.to_bits() != a.to_bits() {
                        out.push(format!(
                            "@ series \"{}\" point {i} (x = {gx}):\n- {axis} = {g}\n+ {axis} = {a}",
                            gs.name
                        ));
                    }
                }
            }
        }
    }

    for i in 0..golden.notes.len().max(actual.notes.len()) {
        let (g, a) = (golden.notes.get(i), actual.notes.get(i));
        if g != a {
            let show = |n: Option<&String>| n.map_or("<no note>", String::as_str).to_owned();
            out.push(format!("@ note {i}:\n- {}\n+ {}", show(g), show(a)));
        }
    }
    if out.is_empty() {
        out.push(
            "@ JSON text: every field is equal, so the encoding differs \
             (whitespace, key order or number format)"
                .to_owned(),
        );
    }
    out
}

/// One numeric claim lifted straight from the paper, checked against a
/// regenerated record — the anchor that ties the snapshot suite to the
/// publication rather than merely to the repository's own history.
#[derive(Debug, Clone)]
pub struct PaperAnchor {
    /// Golden record id the claim lives in.
    pub record: &'static str,
    /// Series name inside the record.
    pub series: &'static str,
    /// X coordinate of the anchored point (matched to 1e-9).
    pub x: f64,
    /// The paper's quoted value.
    pub paper_value: f64,
    /// Acceptance band around the quoted value.
    pub tolerance: Tolerance,
    /// Which paper claim this encodes.
    pub claim: &'static str,
}

impl PaperAnchor {
    /// Verifies the anchor against a regenerated record set.
    ///
    /// # Errors
    ///
    /// Returns a description of the failure: record/series/point missing,
    /// or the regenerated value falling outside the band around the
    /// paper's number.
    pub fn check(&self, records: &[FigureRecord]) -> Result<(), String> {
        let rec = records
            .iter()
            .find(|r| r.id == self.record)
            .ok_or_else(|| format!("anchor {}: record not regenerated", self.record))?;
        let series = rec
            .series
            .iter()
            .find(|s| s.name == self.series)
            .ok_or_else(|| format!("anchor {}/{}: series missing", self.record, self.series))?;
        let &(_, y) = series
            .points
            .iter()
            .find(|(x, _)| (x - self.x).abs() < 1e-9)
            .ok_or_else(|| {
                format!(
                    "anchor {}/{}: no point at x = {}",
                    self.record, self.series, self.x
                )
            })?;
        if self.tolerance.accepts(self.paper_value, y) {
            Ok(())
        } else {
            Err(format!(
                "anchor {}/{} at x = {}: regenerated {y} vs paper {} \
                 (allowed deviation {:.3e}) — claim: {}",
                self.record,
                self.series,
                self.x,
                self.paper_value,
                self.tolerance.allowed(self.paper_value),
                self.claim,
            ))
        }
    }
}

/// The paper-anchored claims the snapshot suite enforces. X coordinates are
/// in each record's native axis units (volts for the circuit figures,
/// metric index for the headline summary, network index for Table 3).
#[must_use]
pub fn paper_anchors() -> Vec<PaperAnchor> {
    vec![
        PaperAnchor {
            record: "fig07",
            series: "bit error rate",
            x: 0.44,
            paper_value: 1.4e-2,
            tolerance: Tolerance::band(0.05, 1e-4),
            claim: "Fig. 7: 4 Mbit test chip measures BER 1.4e-2 at 0.44 V",
        },
        PaperAnchor {
            record: "fig07",
            series: "bit error rate",
            x: 0.60,
            paper_value: 0.0,
            tolerance: Tolerance::band(0.0, 2.5e-7),
            claim: "Fig. 7: zero failing bits out of 4 Mbit at 0.60 V",
        },
        PaperAnchor {
            record: "fig08",
            series: "Vddv4",
            x: 0.40,
            paper_value: 0.60,
            tolerance: Tolerance::band(0.02, 5e-3),
            claim: "Fig. 8: full boost lifts a 0.40 V supply to ~0.60 V",
        },
        // The structural macro model must *derive* the scalar calibration:
        // the 64 Kbit bank's geometry-computed access capacitance lands on
        // Energy_ratio = 3 against the 2 pF PE op, and the replica-timed
        // 32 Kbit macro reproduces Fig. 9's boost latency win.
        PaperAnchor {
            record: "macro_model",
            series: "derived_scalars",
            x: 1.0,
            paper_value: 3.0,
            tolerance: Tolerance::band(0.0, 0.05),
            claim: "Sec. 6: Energy_ratio = 3 emerges from the 64 Kbit bank geometry",
        },
        PaperAnchor {
            record: "macro_model",
            series: "boost_macro_4",
            x: 0.5,
            paper_value: 0.65,
            tolerance: Tolerance::band(0.0, 0.05),
            claim: "Fig. 9: macro-level boost cuts access latency up to 35% at 0.5 V \
                    (structural replica-timed macro)",
        },
        PaperAnchor {
            record: "table3",
            series: "access/MAC ratio",
            x: 0.0,
            paper_value: 0.75,
            tolerance: Tolerance::band(0.0, 0.01),
            claim: "Table 3: MNIST FC on DANA does ~75 SRAM accesses per 100 MACs",
        },
        PaperAnchor {
            record: "table3",
            series: "access/MAC ratio",
            x: 1.0,
            paper_value: 0.0167,
            tolerance: Tolerance::band(0.0, 0.004),
            claim: "Table 3: AlexNet conv row-stationary does ~1.67 accesses per 100 MACs",
        },
        // The headline "paper" series literally encodes the abstract's
        // quoted numbers — compared exactly so they cannot drift silently.
        PaperAnchor {
            record: "headlines",
            series: "paper",
            x: 1.0,
            paper_value: 0.26,
            tolerance: Tolerance::exact(),
            claim: "abstract: 26% peak AlexNet savings vs dual supply",
        },
        PaperAnchor {
            record: "headlines",
            series: "paper",
            x: 4.0,
            paper_value: 0.32,
            tolerance: Tolerance::exact(),
            claim: "abstract: 32% leakage savings vs dual supply",
        },
        // The measured reproduction must land near the abstract's numbers;
        // the bands mirror the acceptance ranges of `dante::headlines`.
        PaperAnchor {
            record: "headlines",
            series: "measured",
            x: 1.0,
            paper_value: 0.26,
            tolerance: Tolerance::band(0.0, 0.10),
            claim: "reproduction of the 26% peak-savings headline",
        },
        PaperAnchor {
            record: "headlines",
            series: "measured",
            x: 2.0,
            paper_value: 0.17,
            tolerance: Tolerance::band(0.0, 0.10),
            claim: "reproduction of the 17% average-savings headline",
        },
        PaperAnchor {
            record: "headlines",
            series: "measured",
            x: 3.0,
            paper_value: 0.30,
            tolerance: Tolerance::band(0.0, 0.15),
            claim: "reproduction of the 30% savings vs single supply at 0.48 V",
        },
        PaperAnchor {
            record: "headlines",
            series: "measured",
            x: 4.0,
            paper_value: 0.32,
            tolerance: Tolerance::band(0.0, 0.13),
            claim: "reproduction of the 32% leakage-savings headline",
        },
        PaperAnchor {
            record: "headlines",
            series: "measured",
            x: 5.0,
            paper_value: 0.06,
            tolerance: Tolerance::band(0.0, 0.10),
            claim: "reproduction of the 6% booster leakage overhead",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dante_bench::record::Series;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// A store under a fresh temp directory, removed on drop.
    struct TempStore {
        base: PathBuf,
        store: GoldenStore,
    }

    impl std::ops::Deref for TempStore {
        type Target = GoldenStore;
        fn deref(&self) -> &GoldenStore {
            &self.store
        }
    }

    impl Drop for TempStore {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.base);
        }
    }

    fn temp_store() -> TempStore {
        static N: AtomicU32 = AtomicU32::new(0);
        let unique = format!(
            "dante-verify-golden-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        );
        let base = std::env::temp_dir().join(unique);
        let store = GoldenStore::new(base.join("results"), base.join("diff"));
        TempStore { base, store }
    }

    /// A temp store whose committed `figX.json` holds `committed`.
    fn store_with(committed: &str) -> TempStore {
        let store = temp_store();
        std::fs::create_dir_all(store.dir()).unwrap();
        std::fs::write(store.dir().join("figX.json"), committed).unwrap();
        store
    }

    fn sample_record() -> FigureRecord {
        FigureRecord::new("figX", "a title", "x", "y")
            .with_series(Series::new("s1", vec![(0.0, 1.0), (1.0, 2.0)]))
            .with_note("a note")
    }

    #[test]
    fn committed_bytes_match_with_or_without_a_trailing_newline() {
        let json = sample_record().to_json_pretty();
        store_with(&json).check(&sample_record()).unwrap();
        store_with(&format!("{json}\n"))
            .check(&sample_record())
            .unwrap();
    }

    #[test]
    fn missing_file_fails_naming_the_bin() {
        let text = temp_store().check(&sample_record()).unwrap_err().render();
        assert!(text.contains("unreadable"), "{text}");
        assert!(text.contains("--bin reproduce -- figX`"), "{text}");
    }

    #[test]
    fn value_drift_is_reported_with_both_values() {
        let store = store_with(&sample_record().to_json_pretty());
        let mut changed = sample_record();
        changed.series[0].points[1].1 = 2.5;
        let err = store.check(&changed).unwrap_err();
        let text = err.render();
        assert!(text.contains("series \"s1\" point 1"), "{text}");
        assert!(
            text.contains("- y = 2") && text.contains("+ y = 2.5"),
            "{text}"
        );
        // The regenerated JSON was dropped for CI upload.
        let actual = err.actual.expect("regenerated JSON written");
        assert_eq!(
            std::fs::read_to_string(actual).unwrap(),
            changed.to_json_pretty()
        );
    }

    #[test]
    fn series_rename_is_reported_as_the_series_set() {
        let store = store_with(&sample_record().to_json_pretty());
        let mut changed = sample_record();
        changed.series[0].name = "renamed".into();
        let text = store.check(&changed).unwrap_err().render();
        assert!(text.contains("series set"), "{text}");
    }

    #[test]
    fn an_encoding_only_difference_still_fails() {
        let compact = sample_record().to_json_pretty().replace('\n', "");
        let err = store_with(&compact).check(&sample_record()).unwrap_err();
        assert_eq!(err.mismatches.len(), 1);
        assert!(
            err.render().contains("encoding differs"),
            "{}",
            err.render()
        );
    }

    #[test]
    fn tolerance_band_accepts_within_and_rejects_beyond() {
        let t = Tolerance::band(1e-3, 1e-9);
        assert!(t.accepts(1.0, 1.0005));
        assert!(!t.accepts(1.0, 1.002));
        assert!(t.accepts(0.0, 5e-10));
        let e = Tolerance::exact();
        assert!(e.accepts(2.0, 2.0));
        assert!(!e.accepts(2.0, 2.0 + f64::EPSILON * 4.0));
    }

    #[test]
    fn anchors_reference_unique_points() {
        let anchors = paper_anchors();
        let mut keys: Vec<(&str, &str, String)> = anchors
            .iter()
            .map(|a| (a.record, a.series, format!("{:.4}", a.x)))
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), anchors.len(), "duplicate anchor");
    }

    #[test]
    fn anchor_check_reports_missing_and_out_of_band() {
        let anchor = PaperAnchor {
            record: "figX",
            series: "s1",
            x: 1.0,
            paper_value: 2.0,
            tolerance: Tolerance::band(0.0, 0.1),
            claim: "test claim",
        };
        assert!(anchor.check(&[]).unwrap_err().contains("not regenerated"));
        let rec = sample_record();
        anchor.check(std::slice::from_ref(&rec)).unwrap();
        let mut bad = rec;
        bad.series[0].points[1].1 = 3.0;
        let err = anchor.check(&[bad]).unwrap_err();
        assert!(err.contains("test claim"), "{err}");
    }
}
