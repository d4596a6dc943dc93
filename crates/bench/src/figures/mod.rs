//! Figure/table regeneration functions, one per paper artifact, and
//! [`ARTIFACTS`], the one list of the artifacts `results/` holds.

pub mod ablation;
pub mod accuracy;
pub mod circuit;
pub mod energy;
pub mod fleet;
pub mod macro_model;
pub mod retrain;
pub mod tables;
pub mod validation;

use crate::record::{FigureRecord, RunScale};

/// How a row of [`ARTIFACTS`] builds its record.
#[derive(Debug, Clone, Copy)]
pub enum Build {
    /// A deterministic function of the models, blind to [`RunScale`]: a
    /// golden record (see [`golden_records`]).
    Model(fn() -> FigureRecord),
    /// A Monte-Carlo figure sized by the run scale. Its acceptance is
    /// statistical and lives in `tests/fault_model_stats.rs`.
    MonteCarlo(fn(RunScale) -> FigureRecord),
}

/// Every regenerable artifact, as `(id, build)` rows in regeneration order.
///
/// Row `id` builds the record of that id, committed as `results/<id>.json`
/// and `results/<id>.txt`. The `reproduce` bin regenerates the rows it is
/// given, or every row (`scripts/reproduce_all.sh`), so adding an artifact
/// means adding one row.
pub const ARTIFACTS: &[(&str, Build)] = &[
    ("table1", Build::Model(tables::table1)),
    ("table2", Build::Model(tables::table2)),
    ("table3", Build::Model(energy::table3)),
    ("fig04", Build::Model(circuit::fig04)),
    ("fig06", Build::Model(circuit::fig06)),
    ("fig07", Build::Model(circuit::fig07)),
    ("fig08", Build::Model(circuit::fig08)),
    ("fig09", Build::Model(circuit::fig09)),
    ("fig12", Build::Model(energy::fig12)),
    ("fig01", Build::MonteCarlo(accuracy::fig01)),
    ("fig02", Build::MonteCarlo(accuracy::fig02)),
    ("fig13", Build::MonteCarlo(energy::fig13)),
    ("fig14", Build::MonteCarlo(energy::fig14)),
    ("fig15", Build::Model(energy::fig15)),
    ("headlines", Build::Model(energy::headlines)),
    ("ablation_ecc", Build::MonteCarlo(ablation::ablation_ecc)),
    ("ablation_levels", Build::Model(ablation::ablation_levels)),
    (
        "ablation_dataflow",
        Build::Model(ablation::ablation_dataflow),
    ),
    ("validation", Build::MonteCarlo(validation::validation)),
    ("fleet", Build::Model(fleet::fleet)),
    ("iso_accuracy", Build::Model(energy::iso_accuracy)),
    ("macro_model", Build::Model(macro_model::macro_model)),
    ("retrain", Build::Model(retrain::retrain)),
];

/// The golden records: every [`Build::Model`] row of [`ARTIFACTS`], built
/// in table order, which the snapshot suite (`crates/verify` and
/// `tests/golden_snapshots.rs`) compares with `results/<id>.json`.
///
/// Every record here is a *deterministic* function of the models — no
/// environment knobs, no wall-clock, no shared RNG state — so a regenerated
/// record must serialize to exactly the committed bytes. Most records are
/// pure analytic functions; `iso_accuracy`, `fleet` and `retrain`
/// additionally exercise Monte-Carlo dies, and `iso_accuracy` and `retrain`
/// a cached trained network (`retrain` also runs the fault-injected
/// fine-tuning loop), which is sound here because the trial engine and the
/// training loop derive every die from counters (same results on any
/// machine and thread count) and the artifact cache pins the base weights.
#[must_use]
pub fn golden_records() -> Vec<FigureRecord> {
    ARTIFACTS
        .iter()
        .filter_map(|&(_, build)| match build {
            Build::Model(build) => Some(build()),
            Build::MonteCarlo(_) => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_registry_ids_are_unique_and_finite() {
        let recs = golden_records();
        assert_eq!(recs.len(), 17);
        let model_rows = ARTIFACTS
            .iter()
            .filter(|(_, build)| matches!(build, Build::Model(_)));
        for ((row, _), rec) in model_rows.zip(&recs) {
            assert_eq!(*row, rec.id, "row {row} builds record {}", rec.id);
        }
        let mut ids: Vec<&str> = ARTIFACTS.iter().map(|&(id, _)| id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), ARTIFACTS.len(), "duplicate ids in ARTIFACTS");
        for r in &recs {
            for s in &r.series {
                for &(x, y) in &s.points {
                    assert!(
                        x.is_finite() && y.is_finite(),
                        "{}/{}: non-finite point ({x}, {y})",
                        r.id,
                        s.name
                    );
                }
            }
        }
    }

    #[test]
    fn golden_registry_is_deterministic() {
        // Two back-to-back regenerations must be identical — the property the
        // snapshot suite relies on.
        assert_eq!(golden_records(), golden_records());
    }
}
