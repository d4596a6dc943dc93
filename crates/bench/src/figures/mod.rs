//! Figure/table regeneration functions, one per paper artifact.

pub mod ablation;
pub mod accuracy;
pub mod circuit;
pub mod energy;
pub mod fleet;
pub mod macro_model;
pub mod retrain;
pub mod tables;
pub mod validation;

use crate::record::FigureRecord;

/// The deterministic paper artifacts covered by the golden snapshot suite
/// (`crates/verify` and `tests/golden_snapshots.rs`).
///
/// Every record here is a *deterministic* function of the models — no
/// environment knobs, no wall-clock, no shared RNG state — so a regenerated
/// record must serialize to exactly the bytes of `results/<id>.json`, which
/// the `dante-bench` bin named after the record writes. Most records are
/// pure analytic functions; `iso_accuracy`, `fleet` and `retrain`
/// additionally exercise Monte-Carlo dies, and `iso_accuracy` and `retrain`
/// a cached trained network (`retrain` also runs the fault-injected
/// fine-tuning loop), which is sound here because the trial engine and the
/// training loop derive every die from counters (same results on any
/// machine and thread count) and the artifact cache pins the base weights.
/// Statistically-accepted Monte-Carlo figures (fig01, fig02, fig13, fig14,
/// validation, ablation_ecc) remain excluded: their acceptance lives in
/// `tests/fault_model_stats.rs`. The analytic fig15 shares its rail rule
/// and energies with `headlines`, which is pinned here.
#[must_use]
pub fn golden_records() -> Vec<FigureRecord> {
    vec![
        circuit::fig04(),
        circuit::fig06(),
        circuit::fig07(),
        circuit::fig08(),
        circuit::fig09(),
        energy::fig12(),
        energy::table3(),
        energy::headlines(),
        energy::iso_accuracy(),
        fleet::fleet(),
        macro_model::macro_model(),
        retrain::retrain(),
        tables::table1(),
        tables::table2(),
        ablation::ablation_levels(),
        ablation::ablation_dataflow(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_registry_ids_are_unique_and_finite() {
        let recs = golden_records();
        assert_eq!(recs.len(), 16);
        let mut ids: Vec<&str> = recs.iter().map(|r| r.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 16, "duplicate record ids in golden registry");
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
