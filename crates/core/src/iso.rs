//! Iso-accuracy supply comparison: solve for `V_min` at an accuracy floor
//! and report each supply configuration's energy there.
//!
//! This is the paper's Table-style comparison behind `dante-serve`'s
//! `GET /v1/iso-accuracy` endpoint and the `iso_accuracy` golden record:
//! fix an accuracy floor (a fraction of the network's fault-free accuracy),
//! find the lowest sweep voltage each supply configuration can ride while
//! still meeting the floor, and compare the per-inference energies at those
//! operating points.
//!
//! The three configurations are compared the way the paper does (Figs.
//! 13–14): the *boosted* configuration finds its own `V_min` (logic at
//! `V_min`, SRAM boosted to `Vddv(V_min, level)`), while the *dual-supply*
//! baseline is pinned to the same rails — memory at `V_h = Vddv`, logic at
//! `V_l = V_min` through the LDO — so the only difference is the booster
//! tax versus the LDO tax. Its accuracy is therefore identical to the
//! boosted point's (faults depend only on the memory rail). The
//! *single-supply* baseline finds its own (higher) `V_min` with both rails
//! shared.

use crate::accuracy::EccMode;
use crate::sweep::{NetworkSpec, PointEnergy, PreparedSweep, SupplySpec, SweepSpec};
use dante_circuit::units::Volt;
use std::fmt::Write as _;

/// A complete, serializable description of one iso-accuracy solve.
#[derive(Debug, Clone, PartialEq)]
pub struct IsoAccuracySpec {
    /// Root seed (shared by both underlying sweeps; each derives per-point
    /// seeds the same way a plain sweep does).
    pub seed: u64,
    /// Candidate logic-rail grid in millivolts.
    pub voltages_mv: Vec<u32>,
    /// Monte-Carlo fault dies per candidate voltage.
    pub trials: usize,
    /// Required accuracy as a fraction of the clean (fault-free) accuracy,
    /// in `(0, 1]`.
    pub floor: f64,
    /// Boost level of the boosted configuration (1..=4).
    pub level: usize,
    /// Error-protection mode.
    pub ecc: EccMode,
    /// Network under test.
    pub network: NetworkSpec,
}

impl IsoAccuracySpec {
    /// A fast default: the toy network, level-4 boost, 97% of clean.
    #[must_use]
    pub fn toy_default() -> Self {
        Self {
            seed: 0xDA17E,
            voltages_mv: (340..=600).step_by(20).collect(),
            trials: 4,
            floor: 0.97,
            level: 4,
            ecc: EccMode::None,
            network: NetworkSpec::Toy,
        }
    }

    /// The single-supply sweep this solve walks.
    #[must_use]
    pub fn single_sweep(&self) -> SweepSpec {
        self.sweep_with(SupplySpec::Single)
    }

    /// The boosted sweep this solve walks.
    #[must_use]
    pub fn boosted_sweep(&self) -> SweepSpec {
        self.sweep_with(SupplySpec::Boosted { level: self.level })
    }

    /// Iso-accuracy solves compare supply configurations under the
    /// paper's default fault statistics.
    fn sweep_with(&self, supply: SupplySpec) -> SweepSpec {
        SweepSpec {
            seed: self.seed,
            voltages_mv: self.voltages_mv.clone(),
            trials: self.trials,
            ecc: self.ecc,
            network: self.network.clone(),
            supply,
            fault_model: dante_sram::model::FaultModel::default(),
            geometry: crate::sweep::GeometrySpec::Calibrated,
        }
    }

    /// Validates the solve's bounds (including the underlying sweeps').
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated bound.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.floor > 0.0 && self.floor <= 1.0) {
            return Err(format!(
                "floor = {} must be a fraction in (0, 1]",
                self.floor
            ));
        }
        if !(1..=4).contains(&self.level) {
            return Err(format!("level = {} outside 1..=4", self.level));
        }
        self.single_sweep().validate()?;
        self.boosted_sweep().validate()
    }

    /// The canonical flat encoding (content-address input for service-side
    /// caching). The floor is encoded by its exact bit pattern so no float
    /// formatting ambiguity can alias two different solves.
    #[must_use]
    pub fn canonical_string(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "dante.iso.v1;floor_bits={:016x};level={};base={}",
            self.floor.to_bits(),
            self.level,
            self.single_sweep().canonical_string(),
        );
        out
    }

    /// Runs the solve. Heavy: trains/loads the network once, then walks
    /// each configuration's sweep from the highest candidate voltage
    /// downward, stopping at the first point that misses the floor.
    ///
    /// `V_min` is therefore *the voltage below which accuracy first drops
    /// under the floor* — the paper's cliff-edge semantics — rather than
    /// the global minimum of a possibly non-monotonic pass/fail pattern.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`Self::validate`].
    #[must_use]
    pub fn solve(&self) -> IsoAccuracyResult {
        if let Err(why) = self.validate() {
            panic!("invalid iso-accuracy spec: {why}");
        }
        self.walk(self.single_sweep().prepare(), None)
    }

    /// The solve over a handed single-supply sweep: its grid, seeds, fault
    /// model, network and test set, with this spec's floor and boost
    /// level. The boosted walk reuses the handed sweep's prepared
    /// evaluation. `target` replaces the usual `floor * clean_accuracy`
    /// bar; the retraining comparison passes the *baseline* solve's target
    /// there, so a hardened network cannot "win" merely by degrading its
    /// own clean accuracy (and thereby its floor).
    pub(crate) fn walk(&self, single: PreparedSweep, target: Option<f64>) -> IsoAccuracyResult {
        let voltages_mv = &single.spec().voltages_mv;
        // Highest-to-lowest walk order over grid indices.
        let mut order: Vec<usize> = (0..voltages_mv.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(voltages_mv[i]));

        let clean = single.clean_accuracy();
        let target = target.unwrap_or(self.floor * clean);

        let solve_config = |prep: &PreparedSweep| -> Option<IsoConfigPoint> {
            let mut best: Option<IsoConfigPoint> = None;
            for &i in &order {
                let point = prep.run_point(i);
                if point.stats.mean() < target {
                    break;
                }
                best = Some(IsoConfigPoint {
                    v_logic: point.vdd,
                    v_sram: point.v_sram,
                    accuracy_mean: point.stats.mean(),
                    energy: point.energy,
                });
            }
            best
        };

        let single_point = solve_config(&single);
        let boosted_prep = single.with_supply(SupplySpec::Boosted { level: self.level });
        let boosted = solve_config(&boosted_prep);

        // Dual baseline at the boosted operating point's rails: memory at
        // V_h = Vddv, logic at V_l = V_min through the LDO. Same memory
        // rail, same faults, same accuracy — only the tax differs. Energy
        // comes straight from the supply equations (no sweep needed; the
        // boosted walk already produced the accuracy).
        let dual = boosted.as_ref().map(|b| {
            let model = boosted_prep.energy_model();
            let activity = boosted_prep.activity();
            let (accesses, macs) = (activity.total_sram_accesses(), activity.total_macs());
            IsoConfigPoint {
                v_logic: b.v_logic,
                v_sram: b.v_sram,
                accuracy_mean: b.accuracy_mean,
                energy: PointEnergy {
                    dynamic: model.breakdown_dual(b.v_sram, b.v_logic, accesses, macs),
                    leakage_per_cycle: model.leakage_dual_per_cycle(b.v_sram, b.v_logic),
                    reference_0v5: model.reference_energy_at_0v5(accesses, macs),
                },
            }
        });

        let ratio = |a: &Option<IsoConfigPoint>, b: &Option<IsoConfigPoint>| match (a, b) {
            (Some(a), Some(b)) => {
                Some(a.energy.dynamic.total().joules() / b.energy.dynamic.total().joules())
            }
            _ => None,
        };
        let boosted_over_single = ratio(&boosted, &single_point);
        let boosted_over_dual = ratio(&boosted, &dual);

        IsoAccuracyResult {
            clean_accuracy: clean,
            target_accuracy: target,
            single: single_point,
            boosted,
            dual,
            boosted_over_single,
            boosted_over_dual,
        }
    }
}

/// One supply configuration's iso-accuracy operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IsoConfigPoint {
    /// The logic rail at `V_min`.
    pub v_logic: Volt,
    /// The SRAM rail at that operating point.
    pub v_sram: Volt,
    /// Mean Monte-Carlo accuracy there (>= the target by construction).
    pub accuracy_mean: f64,
    /// Per-inference energy attribution there.
    pub energy: PointEnergy,
}

/// The outcome of an iso-accuracy solve. A configuration that cannot meet
/// the floor anywhere on the grid reports `None`.
#[derive(Debug, Clone, PartialEq)]
pub struct IsoAccuracyResult {
    /// Fault-free accuracy of the network on its test set.
    pub clean_accuracy: f64,
    /// `floor * clean_accuracy`, the bar every configuration must clear.
    pub target_accuracy: f64,
    /// Single-supply operating point, if any grid voltage meets the floor.
    pub single: Option<IsoConfigPoint>,
    /// Boosted operating point.
    pub boosted: Option<IsoConfigPoint>,
    /// Dual-supply baseline pinned to the boosted point's rails.
    pub dual: Option<IsoConfigPoint>,
    /// Boosted dynamic energy over single-supply dynamic energy (< 1 means
    /// boosting wins); `None` unless both points exist.
    pub boosted_over_single: Option<f64>,
    /// Boosted dynamic energy over the dual baseline's.
    pub boosted_over_dual: Option<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toy_solve_finds_lower_vmin_for_boosted() {
        let spec = IsoAccuracySpec {
            trials: 3,
            ..IsoAccuracySpec::toy_default()
        };
        let r = spec.solve();
        assert!(r.clean_accuracy > 0.9, "toy net trains well");
        let single = r.single.expect("single config meets the floor somewhere");
        let boosted = r.boosted.expect("boosted config meets the floor somewhere");
        // Boosting restores SRAM margin, so its logic rail can ride at or
        // below the single-supply V_min.
        assert!(boosted.v_logic <= single.v_logic);
        assert!(single.accuracy_mean >= r.target_accuracy);
        assert!(boosted.accuracy_mean >= r.target_accuracy);
        // The dual baseline shares the boosted memory rail and accuracy.
        let dual = r.dual.expect("dual follows the boosted point");
        assert_eq!(dual.accuracy_mean, boosted.accuracy_mean);
        assert_eq!(dual.v_logic, boosted.v_logic);
        assert!(dual.v_sram >= boosted.v_logic);
        // Ratios exist and the boosted-vs-dual one reflects the LDO tax
        // structure (booster pays per access, LDO per MAC).
        assert!(r.boosted_over_single.unwrap() > 0.0);
        assert!(r.boosted_over_dual.unwrap() > 0.0);
    }

    #[test]
    fn solve_is_deterministic() {
        let spec = IsoAccuracySpec {
            trials: 2,
            voltages_mv: vec![380, 440, 500, 560],
            ..IsoAccuracySpec::toy_default()
        };
        assert_eq!(spec.solve(), spec.solve());
    }

    #[test]
    fn canonical_string_distinguishes_floors_exactly() {
        let a = IsoAccuracySpec::toy_default();
        let mut b = a.clone();
        b.floor = 0.97 + 1e-12;
        assert_ne!(a.canonical_string(), b.canonical_string());
        assert_eq!(
            a.canonical_string(),
            "dante.iso.v1;floor_bits=3fef0a3d70a3d70a;level=4;\
             base=dante.sweep.v5;seed=893310;trials=4;ecc=none;geom=calibrated;\
             fault=gaussian(mu=352,sigma=40,flip=500000);supply=single;net=toy;\
             mv=340,360,380,400,420,440,460,480,500,520,540,560,580,600"
        );
    }

    #[test]
    fn validation_rejects_bad_floor_and_level() {
        let mut bad = IsoAccuracySpec::toy_default();
        bad.floor = 0.0;
        assert!(bad.validate().is_err());
        let mut bad = IsoAccuracySpec::toy_default();
        bad.floor = 1.5;
        assert!(bad.validate().is_err());
        let mut bad = IsoAccuracySpec::toy_default();
        bad.level = 0;
        assert!(bad.validate().is_err());
        let mut bad = IsoAccuracySpec::toy_default();
        bad.voltages_mv = vec![440, 440];
        assert!(bad.validate().unwrap_err().contains("duplicate"));
    }
}
