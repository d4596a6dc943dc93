//! Serializable sweep job specifications.
//!
//! A [`SweepSpec`] captures everything that determines a Monte-Carlo
//! voltage sweep — seed, voltage grid, trial count, ECC mode, the
//! network under test, and the power-supply configuration — as plain data,
//! so a sweep can be shipped across a process boundary (the `dante-serve`
//! HTTP service), queued, digested for caching, and replayed bit-identically.
//! Because the trial engine is counter-based deterministic, two runs of the
//! same spec produce the same per-trial accuracies on any machine and any
//! thread count; the spec's
//! [`canonical_string`](SweepSpec::canonical_string) is therefore a sound
//! content-address for result caching.
//!
//! Every sweep point is a joint **(voltage, accuracy, energy)** record: the
//! accuracy comes from Monte-Carlo fault injection at the configuration's
//! SRAM rail, the energy from the paper's supply equations
//! (`dante-energy::supply`, Eqs. 2–7) applied to the activity counts of the
//! spec's workload under its dataflow (`dante-dataflow`).
//!
//! # Canonical encodings
//!
//! Every job family — `dante.sweep`, `dante.fleet`, `dante.iso`,
//! `dante.retrain` — has exactly one current version, and its canonical
//! string is a straight-line encoding under it:
//!
//! - every field is always written, defaults included, in a fixed order;
//! - a change to any field or token bumps that family's version once;
//! - no rung keeps old bytes: strings of an older version are never
//!   produced again, so results cached under them are never hit.
//!
//! Sweeps are at `v5`:
//! `dante.sweep.v5;seed=..;trials=..;ecc=..;geom=..;fault=..;supply=..;net=..;mv=..`.
//! The family version also covers the component tokens
//! ([`GeometrySpec::canonical_token`], [`FaultModel::canonical_token`],
//! [`SupplySpec::canonical_token`], [`NetworkSpec::canonical_token`]).

use crate::accuracy::{
    AccuracyEvaluator, AccuracyStats, EccMode, PreparedEvaluation, VoltageAssignment,
};
use crate::artifacts::{trained_cifar_cnn, trained_mnist_fc};
use crate::schedule::{BoostPlan, NamedBoostConfig};
use dante_circuit::bic::BoostScheduler;
use dante_circuit::booster::BoosterBank;
use dante_circuit::ldo::Ldo;
use dante_circuit::units::{Joule, Volt};
use dante_dataflow::activity::{Dataflow, WorkloadActivity};
use dante_dataflow::workload::{LayerShape, Workload};
use dante_dataflow::{alexnet_conv_prefix, mnist_fc, DanaFcDataflow, RowStationaryDataflow};
use dante_energy::breakdown::EnergyBreakdown;
use dante_energy::params::{EnergyParams, DANTE_BANKS};
use dante_energy::supply::{EnergyModel, SupplyKind};
pub use dante_energy::GeometrySpec;
use dante_nn::layers::{Dense, Layer, Relu};
use dante_nn::network::Network;
use dante_sim::TrialObserver;
use dante_sram::model::FaultModel;
use std::sync::OnceLock;

/// The power-supply configuration a sweep evaluates (paper Sec. 5.2).
///
/// The configuration decides both the energy equations applied to each grid
/// point and the *SRAM rail* the fault overlays are drawn at — the grid
/// voltage is always the logic rail:
///
/// * [`Single`](Self::Single) — logic and memory share the grid rail
///   (Eq. 2); lowering the rail lowers both.
/// * [`Boosted`](Self::Boosted) — logic rides the grid rail, every SRAM
///   access is boosted to `Vddv(level)` above it (Eq. 3), restoring the
///   memory margin.
/// * [`BoostedScheduled`](Self::BoostedScheduled) — only the banks of the
///   last few, fault-critical layers are boosted.
/// * [`BoostedPlan`](Self::BoostedPlan) — one of Table 2's named per-layer
///   plans, inputs at the lowest level reaching
///   [`INPUT_TARGET`](crate::schedule::INPUT_TARGET).
/// * [`Dual`](Self::Dual) — memory sits on a fixed external `V_h` while the
///   logic rail sweeps below it through the LDO (Eq. 6). Accuracy is flat
///   across the grid (faults depend only on `V_h`); energy is not.
///
/// Every boosted supply resolves to a [`BoostPlan`] at each grid voltage
/// ([`SweepEnergyContext::boost_plan`]), which sets both its rails and its
/// energy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SupplySpec {
    /// One shared rail (the default).
    #[default]
    Single,
    /// Per-access SRAM boost at a fixed level; logic at the grid voltage.
    Boosted {
        /// Booster level, 1..=4 (Table 1's `Vddv1..Vddv4`).
        level: usize,
    },
    /// Per-bank *scheduled* boost ([`BoostScheduler`]): only the banks
    /// holding the last `critical_layers` layers are boosted at `level`;
    /// every other bank — and the input memory — stays at the grid voltage
    /// and pays no boost energy. The paper's Boost Input Control made
    /// adaptive.
    BoostedScheduled {
        /// Booster level programmed into critical banks, 1..=4.
        level: usize,
        /// How many trailing (fault-critical) layers are boosted.
        critical_layers: usize,
    },
    /// A Table 2 plan ([`BoostPlan::from_named`]): weight layers at the
    /// configuration's levels, inputs at the lowest level whose rail
    /// reaches [`INPUT_TARGET`](crate::schedule::INPUT_TARGET) at each
    /// grid voltage (full boost if none does). The SRAM rail reported per
    /// point is that of the plan's highest weight level.
    BoostedPlan {
        /// The named configuration, `Boost_Vddv1`..`Boost_diff2`.
        config: NamedBoostConfig,
    },
    /// LDO-based dual rail: memory fixed at `v_h_mv`, logic sweeps.
    Dual {
        /// The memory rail in millivolts; must cover every grid point
        /// (an LDO only steps down).
        v_h_mv: u32,
    },
}

impl SupplySpec {
    /// Canonical token used in [`SweepSpec::canonical_string`].
    #[must_use]
    pub fn canonical_token(&self) -> String {
        match self {
            Self::Single => SupplyKind::Single.token().to_owned(),
            Self::Boosted { level } => format!("{}({level})", SupplyKind::Boosted.token()),
            Self::BoostedScheduled {
                level,
                critical_layers,
            } => format!(
                "{}_sched({level},{critical_layers})",
                SupplyKind::Boosted.token()
            ),
            Self::BoostedPlan { config } => {
                format!("{}_plan({})", SupplyKind::Boosted.token(), config.token())
            }
            Self::Dual { v_h_mv } => format!("{}({v_h_mv})", SupplyKind::Dual.token()),
        }
    }

    /// The corresponding reporting kind.
    #[must_use]
    pub fn kind(&self) -> SupplyKind {
        match self {
            Self::Single => SupplyKind::Single,
            Self::Boosted { .. } | Self::BoostedScheduled { .. } | Self::BoostedPlan { .. } => {
                SupplyKind::Boosted
            }
            Self::Dual { .. } => SupplyKind::Dual,
        }
    }
}

/// The network a sweep evaluates.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NetworkSpec {
    /// A tiny deterministic 6-12-2 FC net trained in-process on an 80-sample
    /// two-class synthetic set. Milliseconds to build; meant for smoke
    /// tests, service integration tests, and latency-sensitive callers.
    Toy,
    /// The cached MNIST-like FC-DNN from [`crate::artifacts`], with its
    /// procedural held-out test set.
    MnistFc {
        /// Training-set size (cache key component).
        train_n: usize,
        /// Held-out test images evaluated per trial.
        test_n: usize,
        /// Training epochs (cache key component).
        epochs: usize,
    },
    /// The paper's AlexNet conv-layer energy workload under the Eyeriss
    /// row-stationary dataflow, paired with the repo's documented accuracy
    /// proxy (the cached CIFAR-like CNN from [`crate::artifacts`]): the
    /// *energy* model uses the real AlexNet layer shapes from
    /// `dante-dataflow`, while fault-injection accuracy is measured on the
    /// proxy CNN's weights through the same sparse-overlay corruption path
    /// as every other network.
    AlexNetConv {
        /// How many of the five conv layers the energy workload covers
        /// (1..=5, a validated layer subset).
        layers: usize,
        /// Proxy-CNN training-set size (cache key component).
        train_n: usize,
        /// Held-out proxy test images evaluated per trial.
        test_n: usize,
        /// Proxy training epochs (cache key component).
        epochs: usize,
    },
}

impl NetworkSpec {
    /// Canonical token used in [`SweepSpec::canonical_string`].
    #[must_use]
    pub fn canonical_token(&self) -> String {
        match self {
            Self::Toy => "toy".to_owned(),
            Self::MnistFc {
                train_n,
                test_n,
                epochs,
            } => format!("mnist_fc({train_n},{test_n},{epochs})"),
            Self::AlexNetConv {
                layers,
                train_n,
                test_n,
                epochs,
            } => format!("alexnet_conv({layers},{train_n},{test_n},{epochs})"),
        }
    }

    /// The energy workload and dataflow this network's sweeps charge energy
    /// for: Table 3's pairings — FC nets under the DANA FC dataflow, the
    /// AlexNet conv layers under Eyeriss row-stationary.
    #[must_use]
    pub fn energy_activity(&self) -> WorkloadActivity {
        match self {
            Self::Toy => DanaFcDataflow::new().activity(&Workload::new(
                "toy FC",
                vec![LayerShape::fc(6, 12), LayerShape::fc(12, 2)],
            )),
            Self::MnistFc { .. } => DanaFcDataflow::new().activity(&mnist_fc()),
            Self::AlexNetConv { layers, .. } => {
                RowStationaryDataflow::new().activity(&alexnet_conv_prefix(*layers))
            }
        }
    }
}

/// A complete, serializable description of one Monte-Carlo voltage sweep.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SweepSpec {
    /// Root seed; trial `t` of sweep point `i` derives its die from
    /// `(seed, point, trial)` counters, never from shared RNG state.
    pub seed: u64,
    /// Voltage grid in millivolts (kept integral so the canonical encoding
    /// has no float-formatting ambiguity).
    pub voltages_mv: Vec<u32>,
    /// Monte-Carlo fault dies per sweep point.
    pub trials: usize,
    /// Error-protection mode.
    pub ecc: EccMode,
    /// Network under test.
    pub network: NetworkSpec,
    /// Power-supply configuration (energy model + SRAM rail selection).
    pub supply: SupplySpec,
    /// SRAM fault-model spec the Monte-Carlo dies are drawn from (default:
    /// the paper's i.i.d. Gaussian, [`FaultModel::gaussian_default`]).
    pub fault_model: FaultModel,
    /// Where the SRAM access energy comes from: the scalar calibration
    /// (default) or a structural macro geometry whose derived capacitance
    /// and leakage replace the scalars.
    pub geometry: GeometrySpec,
}

impl SweepSpec {
    /// A fast default: the toy network over the cliff region.
    #[must_use]
    pub fn toy_default() -> Self {
        Self {
            seed: 0xDA17E,
            voltages_mv: vec![360, 400, 440, 480, 520, 560],
            trials: 4,
            ecc: EccMode::None,
            network: NetworkSpec::Toy,
            supply: SupplySpec::Single,
            fault_model: FaultModel::default(),
            geometry: GeometrySpec::Calibrated,
        }
    }

    /// Whether this sweep exercises the energy-comparison machinery beyond
    /// the single-supply default — a non-single supply or the
    /// AlexNet/row-stationary workload. `dante-serve` counts such jobs
    /// separately in `/metrics`.
    #[must_use]
    pub fn is_energy_sweep(&self) -> bool {
        self.supply != SupplySpec::Single || matches!(self.network, NetworkSpec::AlexNetConv { .. })
    }

    /// Validates the spec's bounds, returning a human-readable reason on
    /// rejection. Service entry points call this before queueing so a bad
    /// request fails fast with a 4xx instead of panicking a worker.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated bound.
    pub fn validate(&self) -> Result<(), String> {
        if self.voltages_mv.is_empty() {
            return Err("voltages_mv must be non-empty".to_owned());
        }
        if self.voltages_mv.len() > 256 {
            return Err(format!(
                "voltages_mv has {} points; at most 256 allowed",
                self.voltages_mv.len()
            ));
        }
        for &mv in &self.voltages_mv {
            // The fault model's bit_error_rate panics below the 0.30 V
            // data-retention limit; 310 mV keeps every grid point above it.
            if !(310..=700).contains(&mv) {
                return Err(format!(
                    "voltage {mv} mV outside the supported 310..=700 mV range"
                ));
            }
        }
        // Duplicate grid points would silently burn trials, repeat the
        // voltage in results, and fork the content-address cache.
        let mut sorted = self.voltages_mv.clone();
        sorted.sort_unstable();
        if let Some(w) = sorted.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!(
                "duplicate voltage {} mV in voltages_mv; each grid point must be unique",
                w[0]
            ));
        }
        if self.trials == 0 {
            return Err("trials must be at least 1".to_owned());
        }
        if self.trials > 100_000 {
            return Err(format!("trials = {} exceeds the 100000 cap", self.trials));
        }
        match self.network {
            NetworkSpec::Toy => {}
            NetworkSpec::MnistFc {
                train_n,
                test_n,
                epochs,
            } => {
                if train_n == 0 || train_n > 20_000 {
                    return Err(format!("mnist_fc train_n = {train_n} outside 1..=20000"));
                }
                if test_n == 0 || test_n > 10_000 {
                    return Err(format!("mnist_fc test_n = {test_n} outside 1..=10000"));
                }
                if epochs == 0 || epochs > 12 {
                    return Err(format!("mnist_fc epochs = {epochs} outside 1..=12"));
                }
            }
            NetworkSpec::AlexNetConv {
                layers,
                train_n,
                test_n,
                epochs,
            } => {
                if !(1..=5).contains(&layers) {
                    return Err(format!("alexnet_conv layers = {layers} outside 1..=5"));
                }
                if train_n == 0 || train_n > 10_000 {
                    return Err(format!(
                        "alexnet_conv train_n = {train_n} outside 1..=10000"
                    ));
                }
                if test_n == 0 || test_n > 5_000 {
                    return Err(format!("alexnet_conv test_n = {test_n} outside 1..=5000"));
                }
                if epochs == 0 || epochs > 12 {
                    return Err(format!("alexnet_conv epochs = {epochs} outside 1..=12"));
                }
                // Proxy-CNN inference is ~25x an FC inference; a tighter
                // trial cap keeps a single queued job bounded.
                if self.trials > 2_000 {
                    return Err(format!(
                        "alexnet_conv trials = {} exceeds the 2000 cap for conv sweeps",
                        self.trials
                    ));
                }
            }
        }
        if let Err(why) = self.fault_model.validate() {
            return Err(format!("fault_model: {why}"));
        }
        if let Err(why) = self.geometry.validate() {
            return Err(format!("geometry: {why}"));
        }
        match self.supply {
            SupplySpec::Single | SupplySpec::BoostedPlan { .. } => {}
            SupplySpec::Boosted { level } => {
                if !(1..=4).contains(&level) {
                    return Err(format!(
                        "boosted supply level = {level} outside 1..=4 \
                         (level 0 is the single-supply configuration)"
                    ));
                }
            }
            SupplySpec::BoostedScheduled {
                level,
                critical_layers,
            } => {
                if !(1..=4).contains(&level) {
                    return Err(format!(
                        "scheduled boost level = {level} outside 1..=4 \
                         (level 0 is the single-supply configuration)"
                    ));
                }
                if !(1..=64).contains(&critical_layers) {
                    return Err(format!(
                        "scheduled boost critical_layers = {critical_layers} outside 1..=64"
                    ));
                }
            }
            SupplySpec::Dual { v_h_mv } => {
                if !(310..=700).contains(&v_h_mv) {
                    return Err(format!(
                        "dual supply v_h = {v_h_mv} mV outside the supported 310..=700 mV range"
                    ));
                }
                if let Some(&mv) = self.voltages_mv.iter().find(|&&mv| mv > v_h_mv) {
                    return Err(format!(
                        "dual supply v_h = {v_h_mv} mV is below grid point {mv} mV \
                         (the LDO only steps down; v_h must cover the whole grid)"
                    ));
                }
            }
        }
        Ok(())
    }

    /// The canonical flat encoding of the spec: every field in a fixed
    /// order under the one current `dante.sweep.v5` header (see the module
    /// docs), integral voltages, lowercase tokens. Equal specs — and only
    /// equal specs — produce equal strings, so a digest of this string is a
    /// sound content-address for the sweep's results.
    #[must_use]
    pub fn canonical_string(&self) -> String {
        format!(
            "dante.sweep.v5;seed={};trials={};ecc={};geom={};fault={};supply={};net={};mv={}",
            self.seed,
            self.trials,
            match self.ecc {
                EccMode::None => "none",
                EccMode::SecDed => "secded",
            },
            self.geometry.canonical_token(),
            self.fault_model.canonical_token(),
            self.supply.canonical_token(),
            self.network.canonical_token(),
            mv_list(&self.voltages_mv),
        )
    }

    /// Trains/loads the network and materializes the evaluator and energy
    /// context: everything heavyweight happens here or in the first point,
    /// once, so the per-point runs that follow are pure Monte-Carlo plus
    /// analytic energy.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`Self::validate`].
    #[must_use]
    pub fn prepare(&self) -> PreparedSweep {
        if let Err(why) = self.validate() {
            panic!("invalid sweep spec: {why}");
        }
        let (net, images, labels) = match self.network {
            NetworkSpec::Toy => {
                let (net, images, labels) = toy_net_and_data();
                (net.clone(), images.clone(), labels.clone())
            }
            NetworkSpec::MnistFc {
                train_n,
                test_n,
                epochs,
            } => {
                let (net, test) = trained_mnist_fc(train_n, test_n, epochs);
                (net, test.images().to_vec(), test.labels().to_vec())
            }
            NetworkSpec::AlexNetConv {
                train_n,
                test_n,
                epochs,
                ..
            } => {
                let (net, test) = trained_cifar_cnn(train_n, test_n, epochs);
                (net, test.images().to_vec(), test.labels().to_vec())
            }
        };
        let evaluator = AccuracyEvaluator::new(self.trials)
            .with_ecc(self.ecc)
            .with_fault_spec(self.fault_model);
        let layers = net.weight_layer_indices().len();
        PreparedSweep {
            ctx: self.energy_context(),
            evaluator,
            net,
            images,
            labels,
            layers,
            prepared: OnceLock::new(),
        }
    }

    /// Materializes only the analytic (non-Monte-Carlo) half of a sweep:
    /// the energy model and workload activity. Unlike [`Self::prepare`]
    /// this never trains or loads a network, so a merge coordinator can
    /// reassemble [`SweepPoint`]s from shard-computed per-trial accuracies
    /// without paying for training it will never use.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`Self::validate`].
    #[must_use]
    pub fn energy_context(&self) -> SweepEnergyContext {
        if let Err(why) = self.validate() {
            panic!("invalid sweep spec: {why}");
        }
        SweepEnergyContext {
            spec: self.clone(),
            energy: EnergyModel::new(
                EnergyParams::dante_chip().with_geometry(self.geometry),
                BoosterBank::standard(),
                Ldo::new(),
            ),
            activity: self.network.energy_activity(),
        }
    }
}

/// The comma-joined millivolt grid every canonical string ends with.
pub(crate) fn mv_list(voltages_mv: &[u32]) -> String {
    let mvs: Vec<String> = voltages_mv.iter().map(u32::to_string).collect();
    mvs.join(",")
}

/// Splits `total` items into at most `shards` contiguous `(offset, count)`
/// windows covering `0..total` in order, sizes differing by at most one
/// (earlier windows take the remainder). Empty windows are omitted, so the
/// result holds `min(shards, total)` entries.
///
/// This is the canonical grid partition for scale-out execution: both the
/// per-point trial axis of a sweep and the die axis of a fleet shard with
/// it, and because every window keeps **global** offsets, each shard's
/// counter-derived seed stream is exactly the slice the unsharded run would
/// use.
///
/// # Panics
///
/// Panics if `total` or `shards` is zero.
#[must_use]
pub fn shard_ranges(total: usize, shards: usize) -> Vec<(usize, usize)> {
    assert!(total > 0, "cannot shard zero items");
    assert!(shards > 0, "need at least one shard");
    let shards = shards.min(total);
    let base = total / shards;
    let extra = total % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut offset = 0;
    for i in 0..shards {
        let count = base + usize::from(i < extra);
        ranges.push((offset, count));
        offset += count;
    }
    debug_assert_eq!(offset, total);
    ranges
}

/// Per-inference energy of one sweep point under the spec's supply
/// configuration: the component breakdown (Eqs. 2/3/6), the leakage energy
/// per cycle (Eqs. 4/7 analogues), and the paper's 0.5 V normalization
/// reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointEnergy {
    /// Dynamic energy split by component (SRAM / logic / booster).
    pub dynamic: EnergyBreakdown,
    /// Leakage energy per cycle for this configuration.
    pub leakage_per_cycle: Joule,
    /// The chip's dynamic reference energy at 0.5 V for the same activity
    /// counts (Fig. 13's normalization denominator).
    pub reference_0v5: Joule,
}

impl PointEnergy {
    /// Total dynamic energy normalized to the 0.5 V reference, the unit the
    /// paper plots.
    #[must_use]
    pub fn normalized_total(&self) -> f64 {
        self.dynamic.total().joules() / self.reference_0v5.joules()
    }
}

/// Joint result of one sweep grid point: the grid (logic) voltage, the SRAM
/// rail the faults were drawn at, Monte-Carlo accuracy, and the energy
/// attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Grid voltage — the logic rail.
    pub vdd: Volt,
    /// Effective SRAM rail (equals `vdd` for single supply, `Vddv` for
    /// boosted, `V_h` for dual).
    pub v_sram: Volt,
    /// Monte-Carlo accuracy statistics at `v_sram`.
    pub stats: AccuracyStats,
    /// Per-inference energy under the spec's supply configuration.
    pub energy: PointEnergy,
}

/// The analytic half of a sweep — energy model, workload activity, and the
/// spec itself — with everything needed to turn per-trial accuracies back
/// into full [`SweepPoint`]s. Cheap to build (no training, no dataset); see
/// [`SweepSpec::energy_context`].
#[derive(Debug)]
pub struct SweepEnergyContext {
    spec: SweepSpec,
    energy: EnergyModel,
    activity: WorkloadActivity,
}

impl SweepEnergyContext {
    /// The spec this context was built from.
    #[must_use]
    pub fn spec(&self) -> &SweepSpec {
        &self.spec
    }

    /// Number of voltage grid points.
    #[must_use]
    pub fn point_count(&self) -> usize {
        self.spec.voltages_mv.len()
    }

    /// The energy workload activity this sweep charges each inference for.
    #[must_use]
    pub fn activity(&self) -> &WorkloadActivity {
        &self.activity
    }

    /// The energy model in use.
    #[must_use]
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy
    }

    /// The SRAM rail fault overlays are drawn at when the logic rail sits
    /// at grid voltage `vdd` (see [`SupplySpec`]). For a boosted supply
    /// this is the rail of its plan's highest weight level; layers and
    /// inputs on lower levels sit below it — use
    /// [`Self::voltage_assignment`] for the full per-layer picture.
    #[must_use]
    pub fn sram_rail(&self, vdd: Volt) -> Volt {
        let plan = self.boost_plan(vdd, self.activity.layers().len());
        match (self.spec.supply, plan) {
            (_, Some(plan)) => self.energy.vddv(vdd, plan.max_weight_level()),
            (SupplySpec::Dual { v_h_mv }, None) => Volt::from_millivolts(f64::from(v_h_mv)),
            _ => vdd,
        }
    }

    /// The boost plan a boosted supply runs at grid voltage `vdd` over an
    /// `layers`-layer structure, or `None` for the unboosted supplies:
    ///
    /// * `Boosted { level }` — every layer and the inputs at `level`;
    /// * `BoostedScheduled` — the last `critical_layers` layers are marked
    ///   fault-critical, layers sharing their banks (round-robin striping
    ///   over the chip's [`DANTE_BANKS`] banks) ride along at `level`,
    ///   everything else — inputs included — stays at level 0;
    /// * `BoostedPlan { config }` — [`BoostPlan::from_named`].
    ///
    /// The plan sets both the rails faults are drawn at
    /// ([`Self::voltage_assignment`]) and the per-level access groups of
    /// the energy ([`Self::point_energy`]).
    ///
    /// # Panics
    ///
    /// Panics if `layers` is zero under a boosted supply.
    #[must_use]
    pub fn boost_plan(&self, vdd: Volt, layers: usize) -> Option<BoostPlan> {
        match self.spec.supply {
            SupplySpec::Single | SupplySpec::Dual { .. } => None,
            SupplySpec::Boosted { level } => Some(BoostPlan::new(vec![level; layers], level)),
            SupplySpec::BoostedScheduled {
                level,
                critical_layers,
            } => {
                let mut sched =
                    BoostScheduler::new(DANTE_BANKS, self.energy.booster().levels() as u8, level);
                for layer in layers.saturating_sub(critical_layers)..layers {
                    sched.mark_critical_layer(layer);
                }
                Some(BoostPlan::new(sched.layer_levels(layers), 0))
            }
            SupplySpec::BoostedPlan { config } => Some(BoostPlan::from_named(
                config,
                layers,
                self.energy.booster(),
                vdd,
            )),
        }
    }

    /// The per-weight-layer voltage assignment fault overlays are drawn
    /// at when the logic rail sits at `vdd`: a boosted supply's plan rails
    /// ([`Self::boost_plan`]), otherwise uniform at [`Self::sram_rail`].
    #[must_use]
    pub fn voltage_assignment(&self, vdd: Volt, weight_layers: usize) -> VoltageAssignment {
        match self.boost_plan(vdd, weight_layers) {
            Some(plan) => plan.voltage_assignment(self.energy.booster(), vdd),
            None => VoltageAssignment::uniform(self.sram_rail(vdd), weight_layers),
        }
    }

    /// The per-inference energy attribution at grid voltage `vdd` — a pure
    /// function of the spec (no Monte-Carlo), exposed so services and tests
    /// can recompute it independently of a run.
    #[must_use]
    pub fn point_energy(&self, vdd: Volt) -> PointEnergy {
        let macs = self.activity.total_macs();
        let accesses = self.activity.total_sram_accesses();
        let plan = self.boost_plan(vdd, self.activity.layers().len());
        let (dynamic, leakage) = match (self.spec.supply, plan) {
            (_, Some(plan)) => (
                self.energy
                    .breakdown_boosted(vdd, &plan.boosted_groups(&self.activity), macs),
                self.energy.leakage_boosted_per_cycle(vdd),
            ),
            (SupplySpec::Dual { v_h_mv }, None) => {
                let v_h = Volt::from_millivolts(f64::from(v_h_mv));
                (
                    self.energy.breakdown_dual(v_h, vdd, accesses, macs),
                    self.energy.leakage_dual_per_cycle(v_h, vdd),
                )
            }
            _ => (
                self.energy.breakdown_single(vdd, accesses, macs),
                self.energy.leakage_single_per_cycle(vdd),
            ),
        };
        PointEnergy {
            dynamic,
            leakage_per_cycle: leakage,
            reference_0v5: self.energy.reference_energy_at_0v5(accesses, macs),
        }
    }

    /// Reassembles grid point `index` from its per-trial accuracies.
    ///
    /// When `per_trial` is the offset-order concatenation of shard windows
    /// (see [`shard_ranges`] and
    /// [`PreparedSweep::run_point_trial_range_observed`]), the result is
    /// bit-identical to [`PreparedSweep::run_point`]: the voltage, rail,
    /// and energy fields are pure functions of the spec recomputed here,
    /// and [`AccuracyStats`] derives everything from the per-trial vector.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or the trial count doesn't match
    /// the spec.
    #[must_use]
    pub fn assemble_point(&self, index: usize, per_trial: Vec<f64>) -> SweepPoint {
        assert_eq!(
            per_trial.len(),
            self.spec.trials,
            "merged trial count must match the spec"
        );
        let vdd = Volt::from_millivolts(f64::from(self.spec.voltages_mv[index]));
        SweepPoint {
            vdd,
            v_sram: self.sram_rail(vdd),
            stats: AccuracyStats { per_trial },
            energy: self.point_energy(vdd),
        }
    }

    /// [`Self::assemble_point`] over every grid point in order.
    ///
    /// # Panics
    ///
    /// Panics unless `per_point` holds exactly one full per-trial vector
    /// per grid point.
    #[must_use]
    pub fn assemble(&self, per_point: Vec<Vec<f64>>) -> Vec<SweepPoint> {
        assert_eq!(
            per_point.len(),
            self.point_count(),
            "merged point count must match the grid"
        );
        per_point
            .into_iter()
            .enumerate()
            .map(|(i, trials)| self.assemble_point(i, trials))
            .collect()
    }
}

/// A sweep with its network trained, its evaluator built, and its energy
/// context materialized, ready to run point by point (the granularity a
/// progress-streaming service needs).
///
/// The network's [`PreparedEvaluation`] (packed bit images, clean
/// dequantized network, clean forward pass) is built by the first point or
/// trial window that runs and reused by every later one; only
/// [`Self::with_network`] replaces it.
#[derive(Debug)]
pub struct PreparedSweep {
    ctx: SweepEnergyContext,
    evaluator: AccuracyEvaluator,
    net: Network,
    images: Vec<f32>,
    labels: Vec<u8>,
    layers: usize,
    prepared: OnceLock<PreparedEvaluation>,
}

impl PreparedSweep {
    /// The spec this sweep was prepared from.
    #[must_use]
    pub fn spec(&self) -> &SweepSpec {
        self.ctx.spec()
    }

    /// Replaces the prepared network with `net`, keeping the spec's test
    /// set, evaluator, and energy context. This is how the retraining
    /// subsystem evaluates a hardened network through exactly the same
    /// sweep/solve path as its baseline — same seeds, same dies, same test
    /// set, only the weights differ.
    ///
    /// # Panics
    ///
    /// Panics if `net` has a different weight-layer structure than the
    /// spec's network (per-layer voltage assignments would be meaningless).
    #[must_use]
    pub fn with_network(mut self, net: Network) -> Self {
        assert_eq!(
            net.weight_layer_indices().len(),
            self.layers,
            "replacement network weight-layer count mismatch"
        );
        assert_eq!(
            net.in_len(),
            self.net.in_len(),
            "replacement network input width mismatch"
        );
        assert_eq!(
            net.out_len(),
            self.net.out_len(),
            "replacement network output width mismatch"
        );
        self.net = net;
        self.prepared = OnceLock::new();
        self
    }

    /// The same sweep under another supply configuration. A supply sets
    /// only the rails faults are drawn at and the energy equations, so the
    /// network, test set, evaluator and prepared evaluation carry over;
    /// the energy context is rebuilt.
    ///
    /// # Panics
    ///
    /// Panics if the spec with `supply` fails [`SweepSpec::validate`].
    #[must_use]
    pub(crate) fn with_supply(self, supply: SupplySpec) -> Self {
        let spec = SweepSpec {
            supply,
            ..self.spec().clone()
        };
        Self {
            ctx: spec.energy_context(),
            ..self
        }
    }

    /// The network's prepared evaluation, built on first use.
    fn prepared(&self) -> &PreparedEvaluation {
        self.prepared.get_or_init(|| {
            self.evaluator
                .prepare(&self.net, &self.images, &self.labels)
        })
    }

    /// Number of voltage grid points.
    #[must_use]
    pub fn point_count(&self) -> usize {
        self.ctx.point_count()
    }

    /// Test images evaluated per trial.
    #[must_use]
    pub fn samples_per_trial(&self) -> usize {
        self.labels.len()
    }

    /// The energy workload activity this sweep charges each inference for.
    #[must_use]
    pub fn activity(&self) -> &WorkloadActivity {
        self.ctx.activity()
    }

    /// The energy model in use.
    #[must_use]
    pub fn energy_model(&self) -> &EnergyModel {
        self.ctx.energy_model()
    }

    /// Fault-free accuracy of the prepared network on its test set (the
    /// clean baseline iso-accuracy targets are expressed against).
    #[must_use]
    pub fn clean_accuracy(&self) -> f64 {
        self.net.accuracy(&self.images, &self.labels)
    }

    /// The SRAM rail fault overlays are drawn at when the logic rail sits
    /// at grid voltage `vdd` (see [`SupplySpec`]).
    #[must_use]
    pub fn sram_rail(&self, vdd: Volt) -> Volt {
        self.ctx.sram_rail(vdd)
    }

    /// The per-inference energy attribution at grid voltage `vdd` — a pure
    /// function of the spec (no Monte-Carlo), exposed so services and tests
    /// can recompute it independently of a run.
    #[must_use]
    pub fn point_energy(&self, vdd: Volt) -> PointEnergy {
        self.ctx.point_energy(vdd)
    }

    /// Runs grid point `index`, deriving its seed from `(spec.seed, index)`
    /// so points are reproducible in isolation and in any order.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn run_point(&self, index: usize) -> SweepPoint {
        self.run_point_observed(index, &dante_sim::NoopObserver)
    }

    /// [`Self::run_point`] with per-trial instrumentation. After the
    /// point's trials finish, the point's total dynamic energy is reported
    /// through [`TrialObserver::on_annotation`] as `"dynamic_energy_j"`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn run_point_observed(&self, index: usize, observer: &dyn TrialObserver) -> SweepPoint {
        let spec = self.spec();
        let mv = spec.voltages_mv[index];
        let vdd = Volt::from_millivolts(f64::from(mv));
        let v_sram = self.sram_rail(vdd);
        let stats = self.evaluator.evaluate_trial_range_observed(
            self.prepared(),
            &self.ctx.voltage_assignment(vdd, self.layers),
            dante_sim::derive_seed(spec.seed, dante_sim::site::SWEEP_POINT, index as u64),
            0,
            spec.trials,
            observer,
        );
        let energy = self.point_energy(vdd);
        observer.on_annotation("dynamic_energy_j", energy.dynamic.total().joules());
        SweepPoint {
            vdd,
            v_sram,
            stats,
            energy,
        }
    }

    /// Runs only the global trial window `[trial_offset, trial_offset +
    /// trial_count)` of grid point `index`, returning the raw per-trial
    /// accuracies (the shard unit of work).
    ///
    /// Every trial keeps the seed it would have in a full
    /// [`Self::run_point`] — `derive_seed(point_seed, TRIAL, global
    /// index)` — so concatenating the windows of a [`shard_ranges`]
    /// partition in order reproduces the full run's
    /// [`AccuracyStats::per_trial`] bit-for-bit. Merging happens on the
    /// coordinator via [`SweepEnergyContext::assemble_point`].
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or the window is empty or exceeds
    /// the spec's trial count.
    #[must_use]
    pub fn run_point_trial_range_observed(
        &self,
        index: usize,
        trial_offset: usize,
        trial_count: usize,
        observer: &dyn TrialObserver,
    ) -> Vec<f64> {
        let spec = self.spec();
        let mv = spec.voltages_mv[index];
        let vdd = Volt::from_millivolts(f64::from(mv));
        self.evaluator
            .evaluate_trial_range_observed(
                self.prepared(),
                &self.ctx.voltage_assignment(vdd, self.layers),
                dante_sim::derive_seed(spec.seed, dante_sim::site::SWEEP_POINT, index as u64),
                trial_offset,
                trial_count,
                observer,
            )
            .per_trial
    }

    /// Runs every grid point in order.
    #[must_use]
    pub fn run(&self) -> Vec<SweepPoint> {
        (0..self.point_count()).map(|i| self.run_point(i)).collect()
    }

    /// [`Self::run`] with per-trial instrumentation shared across points.
    #[must_use]
    pub fn run_observed(&self, observer: &dyn TrialObserver) -> Vec<SweepPoint> {
        (0..self.point_count())
            .map(|i| self.run_point_observed(i, observer))
            .collect()
    }
}

/// The process-wide toy network and its dataset (trained once, lazily).
pub(crate) fn toy_net_and_data() -> &'static (Network, Vec<f32>, Vec<u8>) {
    static TOY: OnceLock<(Network, Vec<f32>, Vec<u8>)> = OnceLock::new();
    TOY.get_or_init(|| {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        let mut net = Network::new(vec![
            Layer::Dense(Dense::new(6, 12, &mut rng)),
            Layer::Relu(Relu::new(12)),
            Layer::Dense(Dense::new(12, 2, &mut rng)),
        ])
        .expect("toy network is well-formed");
        let mut images = Vec::new();
        let mut labels = Vec::new();
        for i in 0..80 {
            let c = (i % 2) as u8;
            let base = if c == 0 { 0.75 } else { 0.15 };
            for j in 0..6 {
                images.push(base + ((i + j) % 7) as f32 * 0.02);
            }
            labels.push(c);
        }
        let cfg = dante_nn::train::SgdConfig {
            epochs: 20,
            batch_size: 8,
            ..Default::default()
        };
        dante_nn::train::train(&mut net, &images, &labels, &cfg, &mut rng);
        (net, images, labels)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::INPUT_TARGET;
    use dante_energy::supply::BoostedGroup;

    #[test]
    fn shard_ranges_partition_the_grid_exactly() {
        for total in [1usize, 2, 5, 7, 100] {
            for shards in [1usize, 2, 3, 4, 9, 200] {
                let ranges = shard_ranges(total, shards);
                assert_eq!(ranges.len(), shards.min(total));
                let mut next = 0;
                for &(offset, count) in &ranges {
                    assert_eq!(offset, next, "windows are contiguous in order");
                    assert!(count > 0, "no empty windows");
                    next = offset + count;
                }
                assert_eq!(next, total, "windows cover the grid");
                let min = ranges.iter().map(|r| r.1).min().unwrap();
                let max = ranges.iter().map(|r| r.1).max().unwrap();
                assert!(max - min <= 1, "balanced to within one item");
            }
        }
    }

    #[test]
    fn trial_range_windows_merge_bit_identical_to_the_full_run() {
        let spec = SweepSpec {
            supply: SupplySpec::Boosted { level: 3 },
            ..SweepSpec::toy_default()
        };
        let prepared = spec.prepare();
        let full = prepared.run();
        let ctx = spec.energy_context();
        for shards in [1usize, 2, 3] {
            let merged: Vec<SweepPoint> = (0..prepared.point_count())
                .map(|point| {
                    let mut per_trial = Vec::with_capacity(spec.trials);
                    for (offset, count) in shard_ranges(spec.trials, shards) {
                        per_trial.extend(prepared.run_point_trial_range_observed(
                            point,
                            offset,
                            count,
                            &dante_sim::NoopObserver,
                        ));
                    }
                    ctx.assemble_point(point, per_trial)
                })
                .collect();
            assert_eq!(merged.len(), full.len());
            for (m, f) in merged.iter().zip(&full) {
                let mb: Vec<u64> = m.stats.per_trial.iter().map(|a| a.to_bits()).collect();
                let fb: Vec<u64> = f.stats.per_trial.iter().map(|a| a.to_bits()).collect();
                assert_eq!(
                    mb, fb,
                    "per-trial accuracies bit-identical at {shards} shards"
                );
                assert_eq!(m, f, "assembled points identical");
            }
        }
    }

    #[test]
    fn canonical_string_is_pinned_and_writes_every_field() {
        use dante_circuit::macro_model::MacroGeometry;
        assert_eq!(
            SweepSpec::toy_default().canonical_string(),
            "dante.sweep.v5;seed=893310;trials=4;ecc=none;geom=calibrated;\
             fault=gaussian(mu=352,sigma=40,flip=500000);supply=single;net=toy;\
             mv=360,400,440,480,520,560"
        );
        // A non-default value replaces its own token in place; the layout
        // never moves.
        let all = SweepSpec {
            voltages_mv: vec![400],
            ecc: EccMode::SecDed,
            geometry: GeometrySpec::Structural(MacroGeometry::macro_32kbit()),
            fault_model: FaultModel::chip_variation_default(),
            supply: SupplySpec::BoostedScheduled {
                level: 4,
                critical_layers: 1,
            },
            network: NetworkSpec::AlexNetConv {
                layers: 2,
                train_n: 120,
                test_n: 20,
                epochs: 1,
            },
            ..SweepSpec::toy_default()
        };
        assert_eq!(
            all.canonical_string(),
            "dante.sweep.v5;seed=893310;trials=4;ecc=secded;\
             geom=struct(r=256,c=128,m=4,b=1);\
             fault=chip(mu=352,sigma=40,flip=500000,dmu=15,dsig=10);\
             supply=boosted_sched(4,1);net=alexnet_conv(2,120,20,1);mv=400"
        );
    }

    #[test]
    fn canonical_string_distinguishes_specs() {
        use dante_circuit::macro_model::MacroGeometry;
        let a = SweepSpec::toy_default();
        let mut b = a.clone();
        assert_eq!(a.canonical_string(), b.canonical_string());
        b.seed ^= 1;
        assert_ne!(a.canonical_string(), b.canonical_string());
        let mut c = a.clone();
        c.ecc = EccMode::SecDed;
        assert_ne!(a.canonical_string(), c.canonical_string());
        let mut d = a.clone();
        d.voltages_mv.push(600);
        assert_ne!(a.canonical_string(), d.canonical_string());
        let mut e = a.clone();
        e.supply = SupplySpec::Boosted { level: 4 };
        assert_ne!(a.canonical_string(), e.canonical_string());
        let mut f = a.clone();
        f.supply = SupplySpec::Dual { v_h_mv: 600 };
        assert_ne!(e.canonical_string(), f.canonical_string());
        let mut g = a.clone();
        g.fault_model = FaultModel::burst_default();
        assert_ne!(a.canonical_string(), g.canonical_string());
        let mut h = a.clone();
        h.geometry = GeometrySpec::Structural(MacroGeometry::bank_64kbit());
        assert_ne!(a.canonical_string(), h.canonical_string());
        let mut i = e.clone();
        i.supply = SupplySpec::BoostedScheduled {
            level: 4,
            critical_layers: 1,
        };
        assert_ne!(e.canonical_string(), i.canonical_string());
        let mut j = e.clone();
        j.supply = SupplySpec::BoostedPlan {
            config: NamedBoostConfig::Diff1,
        };
        assert!(j
            .canonical_string()
            .contains(";supply=boosted_plan(diff1);"));
        for other in [&a, &e, &f, &i] {
            assert_ne!(j.canonical_string(), other.canonical_string());
        }
        let mut k = j.clone();
        k.supply = SupplySpec::BoostedPlan {
            config: NamedBoostConfig::Diff2,
        };
        assert_ne!(j.canonical_string(), k.canonical_string());
    }

    #[test]
    fn validation_rejects_bad_fault_models() {
        let bad = SweepSpec {
            fault_model: FaultModel::Gaussian {
                mu_mv: 100,
                sigma_mv: 40,
                flip_ppm: 500_000,
            },
            ..SweepSpec::toy_default()
        };
        let err = bad.validate().unwrap_err();
        assert!(err.contains("fault_model"), "{err}");
    }

    #[test]
    fn non_gaussian_sweeps_run_and_degrade_accuracy() {
        // A burst model adds faults on top of the shared Gaussian
        // background, so at a cliff voltage accuracy can only drop relative
        // to the default model with the same seed.
        let base = SweepSpec {
            voltages_mv: vec![420],
            trials: 3,
            ..SweepSpec::toy_default()
        };
        let burst = SweepSpec {
            fault_model: FaultModel::CorrelatedBurst {
                mu_mv: 352,
                sigma_mv: 40,
                flip_ppm: 500_000,
                row_weak_ppm: 50_000,
                col_weak_ppm: 10_000,
                shift_mv: 150,
            },
            ..base.clone()
        };
        let acc_base = base.prepare().run_point(0).stats.mean();
        let acc_burst = burst.prepare().run_point(0).stats.mean();
        assert!(
            acc_burst <= acc_base,
            "bursts must not improve accuracy: {acc_burst} vs {acc_base}"
        );
        // Deterministic like every other sweep.
        assert_eq!(burst.prepare().run(), burst.prepare().run());
    }

    #[test]
    fn validation_rejects_out_of_range_specs() {
        let ok = SweepSpec::toy_default();
        assert!(ok.validate().is_ok());
        let mut bad = ok.clone();
        bad.voltages_mv.clear();
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.voltages_mv = vec![200];
        assert!(bad.validate().unwrap_err().contains("200"));
        let mut bad = ok.clone();
        bad.trials = 0;
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.network = NetworkSpec::MnistFc {
            train_n: 0,
            test_n: 10,
            epochs: 1,
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn validation_rejects_duplicate_voltages() {
        let mut bad = SweepSpec::toy_default();
        bad.voltages_mv = vec![400, 440, 400];
        let err = bad.validate().unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
        assert!(err.contains("400"), "diagnostic names the voltage: {err}");
    }

    #[test]
    fn validation_rejects_bad_supply_configs() {
        let base = SweepSpec::toy_default();
        let bad = SweepSpec {
            supply: SupplySpec::Boosted { level: 0 },
            ..base.clone()
        };
        assert!(bad.validate().unwrap_err().contains("level"));
        let bad = SweepSpec {
            supply: SupplySpec::Boosted { level: 5 },
            ..base.clone()
        };
        assert!(bad.validate().is_err());
        // v_h below a grid point: the LDO cannot step up.
        let bad = SweepSpec {
            supply: SupplySpec::Dual { v_h_mv: 500 },
            ..base.clone()
        };
        let err = bad.validate().unwrap_err();
        assert!(err.contains("steps down"), "{err}");
        let ok = SweepSpec {
            supply: SupplySpec::Dual { v_h_mv: 560 },
            ..base
        };
        assert!(
            ok.validate().is_ok(),
            "v_h equal to the max grid point is fine"
        );
    }

    #[test]
    fn validation_bounds_alexnet_conv() {
        let base = SweepSpec {
            network: NetworkSpec::AlexNetConv {
                layers: 5,
                train_n: 100,
                test_n: 20,
                epochs: 1,
            },
            ..SweepSpec::toy_default()
        };
        assert!(base.validate().is_ok());
        let mut bad = base.clone();
        bad.network = NetworkSpec::AlexNetConv {
            layers: 6,
            train_n: 100,
            test_n: 20,
            epochs: 1,
        };
        assert!(bad.validate().unwrap_err().contains("layers"));
        let mut bad = base.clone();
        bad.network = NetworkSpec::AlexNetConv {
            layers: 0,
            train_n: 100,
            test_n: 20,
            epochs: 1,
        };
        assert!(bad.validate().is_err());
        let mut bad = base;
        bad.trials = 5_000;
        assert!(bad.validate().unwrap_err().contains("2000"));
    }

    #[test]
    fn prepared_sweep_is_deterministic_and_order_independent() {
        let spec = SweepSpec {
            voltages_mv: vec![400, 520],
            trials: 3,
            ..SweepSpec::toy_default()
        };
        let prep = spec.prepare();
        let full = prep.run();
        assert_eq!(full.len(), 2);
        // Points rerun in isolation reproduce the full-run results.
        let p1 = prep.run_point(1);
        let p0 = prep.run_point(0);
        assert_eq!(full[0], p0);
        assert_eq!(full[1], p1);
        // A fresh preparation agrees bit-for-bit.
        assert_eq!(spec.prepare().run(), full);
        // Accuracy rises with voltage on the toy net.
        assert!(full[1].stats.mean() >= full[0].stats.mean());
    }

    /// `with_network` re-prepares: every point and trial window of the
    /// swapped sweep reproduces a direct `evaluate` of the replacement
    /// network, whether or not the base network had already run, and
    /// differs from the base network's. A stale prepared evaluation would
    /// make a hardened solve silently re-score the baseline.
    #[test]
    fn with_network_never_scores_a_stale_prepared_network() {
        use dante_sim::{derive_seed, site, NoopObserver};
        let spec = SweepSpec {
            voltages_mv: vec![360, 420, 480, 560],
            trials: 3,
            ..SweepSpec::toy_default()
        };
        let (base_net, images, labels) = toy_net_and_data();
        let mut other = base_net.clone();
        if let Layer::Dense(d) = &mut other.layers_mut()[2] {
            for w in d.weights_mut().as_mut_slice() {
                *w = -*w;
            }
        }
        let eval = AccuracyEvaluator::new(spec.trials)
            .with_ecc(spec.ecc)
            .with_fault_spec(spec.fault_model);
        let ctx = spec.energy_context();
        let direct = |net: &Network, i: usize| {
            let vdd = Volt::from_millivolts(f64::from(spec.voltages_mv[i]));
            eval.evaluate(
                net,
                &ctx.voltage_assignment(vdd, 2),
                images,
                labels,
                derive_seed(spec.seed, site::SWEEP_POINT, i as u64),
            )
            .per_trial
        };

        let base = spec.prepare();
        let base_points: Vec<Vec<f64>> = (0..base.point_count())
            .map(|i| base.run_point(i).stats.per_trial)
            .collect();
        let fresh = spec.prepare().with_network(other.clone());
        let swapped = base.with_network(other.clone());
        let mut other_points = Vec::new();
        for (i, base_point) in base_points.iter().enumerate() {
            let want = direct(&other, i);
            assert_eq!(base_point, &direct(base_net, i), "point {i}");
            assert_eq!(fresh.run_point(i).stats.per_trial, want, "point {i}");
            assert_eq!(swapped.run_point(i).stats.per_trial, want, "point {i}");
            assert_eq!(
                swapped.run_point_trial_range_observed(i, 1, 2, &NoopObserver),
                want[1..],
                "point {i}"
            );
            other_points.push(want);
        }
        assert_ne!(
            other_points, base_points,
            "the replacement scores differently"
        );
    }

    /// `with_supply` keeps the prepared network and yields exactly what a
    /// fresh preparation of the re-supplied spec runs.
    #[test]
    fn with_supply_matches_a_fresh_preparation() {
        let spec = SweepSpec {
            voltages_mv: vec![380, 440, 500],
            trials: 2,
            ..SweepSpec::toy_default()
        };
        let boosted = SweepSpec {
            supply: SupplySpec::Boosted { level: 3 },
            ..spec.clone()
        };
        let single = spec.prepare();
        let _ = single.run_point(0);
        let resupplied = single.with_supply(boosted.supply);
        assert_eq!(resupplied.spec(), &boosted);
        assert_eq!(resupplied.run(), boosted.prepare().run());
    }

    #[test]
    fn supply_config_sets_the_sram_rail_and_energy_equations() {
        let base = SweepSpec {
            voltages_mv: vec![400],
            trials: 2,
            ..SweepSpec::toy_default()
        };
        let single = base.prepare().run_point(0);
        assert_eq!(single.v_sram, single.vdd);
        assert_eq!(single.energy.dynamic.booster, Joule::ZERO);

        let boosted_spec = SweepSpec {
            supply: SupplySpec::Boosted { level: 4 },
            ..base.clone()
        };
        let boosted = boosted_spec.prepare().run_point(0);
        assert!(boosted.v_sram > boosted.vdd, "boost lifts the SRAM rail");
        assert!(boosted.energy.dynamic.booster > Joule::ZERO);
        // A boosted SRAM rail at 400 mV sees fewer faults than an unboosted
        // one, so accuracy can only improve.
        assert!(boosted.stats.mean() >= single.stats.mean());

        let dual_spec = SweepSpec {
            supply: SupplySpec::Dual { v_h_mv: 560 },
            ..base
        };
        let dual = dual_spec.prepare().run_point(0);
        assert_eq!(dual.v_sram, Volt::from_millivolts(560.0));
        assert_eq!(dual.energy.dynamic.booster, Joule::ZERO);
        // The LDO tax makes dual logic energy exceed single logic energy at
        // the same logic rail.
        assert!(dual.energy.dynamic.logic > single.energy.dynamic.logic);
    }

    #[test]
    fn point_energy_matches_the_library_equations() {
        let spec = SweepSpec {
            voltages_mv: vec![440],
            supply: SupplySpec::Boosted { level: 2 },
            ..SweepSpec::toy_default()
        };
        let prep = spec.prepare();
        let e = prep.point_energy(Volt::from_millivolts(440.0));
        let m = EnergyModel::dante_chip();
        let activity = spec.network.energy_activity();
        let expected = m.breakdown_boosted(
            Volt::from_millivolts(440.0),
            &[BoostedGroup {
                accesses: activity.total_sram_accesses(),
                level: 2,
            }],
            activity.total_macs(),
        );
        assert_eq!(e.dynamic, expected);
        assert!(e.normalized_total().is_finite() && e.normalized_total() > 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid sweep spec")]
    fn prepare_rejects_invalid_specs() {
        let mut spec = SweepSpec::toy_default();
        spec.trials = 0;
        let _ = spec.prepare();
    }

    #[test]
    fn structural_geometry_sweeps_run_with_derived_energy() {
        use dante_circuit::macro_model::MacroGeometry;
        let base = SweepSpec {
            voltages_mv: vec![440],
            trials: 2,
            ..SweepSpec::toy_default()
        };
        let structural = SweepSpec {
            geometry: GeometrySpec::Structural(MacroGeometry::bank_64kbit()),
            ..base.clone()
        };
        let pb = base.prepare().run_point(0);
        let ps = structural.prepare().run_point(0);
        // Accuracy is untouched by the energy-side geometry (same seeds,
        // same rails) ...
        assert_eq!(pb.stats, ps.stats);
        // ... while the energy now comes from the derived capacitance,
        // which lands within 1% of the calibration at the paper geometry.
        let ratio = ps.energy.dynamic.sram.joules() / pb.energy.dynamic.sram.joules();
        assert!((ratio - 1.0).abs() < 0.01, "sram energy ratio {ratio}");
        assert!(ps.energy.dynamic.logic == pb.energy.dynamic.logic);
    }

    #[test]
    fn validation_rejects_bad_geometry_and_scheduled_configs() {
        use dante_circuit::macro_model::MacroGeometry;
        let bad = SweepSpec {
            geometry: GeometrySpec::Structural(MacroGeometry {
                rows: 100,
                cols: 128,
                mux: 4,
                banks: 1,
            }),
            ..SweepSpec::toy_default()
        };
        let err = bad.validate().unwrap_err();
        assert!(err.contains("geometry"), "{err}");
        let bad = SweepSpec {
            supply: SupplySpec::BoostedScheduled {
                level: 5,
                critical_layers: 1,
            },
            ..SweepSpec::toy_default()
        };
        assert!(bad.validate().unwrap_err().contains("level"));
        let bad = SweepSpec {
            supply: SupplySpec::BoostedScheduled {
                level: 2,
                critical_layers: 0,
            },
            ..SweepSpec::toy_default()
        };
        assert!(bad.validate().unwrap_err().contains("critical_layers"));
    }

    #[test]
    fn scheduled_boost_is_cheaper_than_full_boost() {
        let sched = SweepSpec {
            voltages_mv: vec![400],
            trials: 2,
            supply: SupplySpec::BoostedScheduled {
                level: 4,
                critical_layers: 1,
            },
            ..SweepSpec::toy_default()
        };
        let full = SweepSpec {
            supply: SupplySpec::Boosted { level: 4 },
            ..sched.clone()
        };
        let ps = sched.prepare().run_point(0);
        let pf = full.prepare().run_point(0);
        // Only the critical bank boosts, so the scheduled configuration
        // pays less SRAM + booster energy than boosting every access...
        assert!(ps.energy.dynamic.sram < pf.energy.dynamic.sram);
        assert!(ps.energy.dynamic.booster < pf.energy.dynamic.booster);
        // ...while the critical layer still sees the full boosted rail.
        assert_eq!(ps.v_sram, pf.v_sram);
        // Accuracy sits between single-supply (nothing protected) and full
        // boost (everything protected).
        let single = SweepSpec {
            supply: SupplySpec::Single,
            ..sched.clone()
        };
        let pn = single.prepare().run_point(0);
        assert!(ps.stats.mean() >= pn.stats.mean());
        assert!(ps.stats.mean() <= pf.stats.mean());
    }

    #[test]
    fn scheduled_levels_boost_only_critical_banks() {
        let spec = SweepSpec {
            supply: SupplySpec::BoostedScheduled {
                level: 3,
                critical_layers: 2,
            },
            ..SweepSpec::toy_default()
        };
        let ctx = spec.energy_context();
        let vdd = Volt::from_millivolts(400.0);
        // 5-layer structure: the last two layers are critical; with 18
        // banks no striping collision occurs.
        let plan = ctx.boost_plan(vdd, 5).expect("scheduled supplies boost");
        assert_eq!(plan.weight_levels(), &[0, 0, 0, 3, 3]);
        assert_eq!(plan.input_level(), 0);
        // Unboosted supplies yield no plan.
        assert_eq!(
            SweepSpec::toy_default().energy_context().boost_plan(vdd, 5),
            None
        );
        // The assignment puts only critical layers on the boosted rail.
        let va = ctx.voltage_assignment(vdd, 5);
        assert_eq!(va.inputs, vdd);
        assert_eq!(va.weight_layers[0], vdd);
        assert!(va.weight_layers[4] > vdd);
        assert_eq!(va.weight_layers[3], va.weight_layers[4]);
    }

    /// The raw bits of every energy field, so equality below means
    /// bit-identical, not merely `==`.
    fn energy_bits(e: &PointEnergy) -> [u64; 5] {
        [
            e.dynamic.sram.joules().to_bits(),
            e.dynamic.logic.joules().to_bits(),
            e.dynamic.booster.joules().to_bits(),
            e.leakage_per_cycle.joules().to_bits(),
            e.reference_0v5.joules().to_bits(),
        ]
    }

    /// `Boosted` and `BoostedScheduled` resolve through `boost_plan` to
    /// exactly the rails and energy of their original formulas, spelled
    /// out here as the reference: a uniform assignment at `Vddv(level)`
    /// with one access group of every SRAM access, and the scheduler's
    /// levels with inputs at the grid voltage.
    #[test]
    fn existing_boosted_supplies_are_bit_identical_through_boost_plan() {
        use dante_circuit::macro_model::MacroGeometry;
        let networks = [
            NetworkSpec::Toy,
            NetworkSpec::MnistFc {
                train_n: 1200,
                test_n: 100,
                epochs: 4,
            },
            NetworkSpec::AlexNetConv {
                layers: 5,
                train_n: 1200,
                test_n: 100,
                epochs: 4,
            },
        ];
        let geometries = [
            GeometrySpec::Calibrated,
            GeometrySpec::Structural(MacroGeometry::bank_64kbit()),
        ];
        let mut supplies = Vec::new();
        for level in 1..=4 {
            supplies.push(SupplySpec::Boosted { level });
            for critical_layers in [1, 2, 5] {
                supplies.push(SupplySpec::BoostedScheduled {
                    level,
                    critical_layers,
                });
            }
        }
        for network in &networks {
            for &geometry in &geometries {
                for &supply in &supplies {
                    let spec = SweepSpec {
                        network: network.clone(),
                        geometry,
                        supply,
                        ..SweepSpec::toy_default()
                    };
                    let ctx = spec.energy_context();
                    let m = ctx.energy_model();
                    let activity = ctx.activity();
                    let (accesses, macs) = (activity.total_sram_accesses(), activity.total_macs());
                    for mv in (340..=560).step_by(20) {
                        let vdd = Volt::from_millivolts(f64::from(mv));
                        let what = format!("{} at {mv} mV", spec.canonical_string());
                        let (rail, groups, assignment) = match supply {
                            SupplySpec::Boosted { level } => (
                                m.vddv(vdd, level),
                                vec![BoostedGroup { accesses, level }],
                                (1..6)
                                    .map(|n| VoltageAssignment::uniform(m.vddv(vdd, level), n))
                                    .collect::<Vec<_>>(),
                            ),
                            SupplySpec::BoostedScheduled {
                                level,
                                critical_layers,
                            } => {
                                let levels = |n: usize| {
                                    let mut sched = BoostScheduler::new(DANTE_BANKS, 4, level);
                                    for layer in n.saturating_sub(critical_layers)..n {
                                        sched.mark_critical_layer(layer);
                                    }
                                    sched.layer_levels(n)
                                };
                                let n = activity.layers().len();
                                (
                                    m.vddv(vdd, level),
                                    BoostPlan::new(levels(n), 0).boosted_groups(activity),
                                    (1..6)
                                        .map(|n| VoltageAssignment {
                                            weight_layers: levels(n)
                                                .into_iter()
                                                .map(|l| m.vddv(vdd, l))
                                                .collect(),
                                            inputs: vdd,
                                        })
                                        .collect(),
                                )
                            }
                            _ => unreachable!("only the two pre-existing boosted supplies"),
                        };
                        assert_eq!(
                            ctx.sram_rail(vdd).volts().to_bits(),
                            rail.volts().to_bits(),
                            "{what}"
                        );
                        let want = PointEnergy {
                            dynamic: m.breakdown_boosted(vdd, &groups, macs),
                            leakage_per_cycle: m.leakage_boosted_per_cycle(vdd),
                            reference_0v5: m.reference_energy_at_0v5(accesses, macs),
                        };
                        assert_eq!(
                            energy_bits(&ctx.point_energy(vdd)),
                            energy_bits(&want),
                            "{what}"
                        );
                        for (n, want) in (1..).zip(&assignment) {
                            let got = ctx.voltage_assignment(vdd, n);
                            let bits = |a: &VoltageAssignment| -> Vec<u64> {
                                a.weight_layers
                                    .iter()
                                    .chain([&a.inputs])
                                    .map(|v| v.volts().to_bits())
                                    .collect()
                            };
                            assert_eq!(bits(&got), bits(want), "{what}, {n} layers");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn boosted_plan_energy_beats_single_and_dual_at_its_rail() {
        // The Fig. 13 energy claims on the FC-DNN workload at 0.40 V.
        let vdd = Volt::from_millivolts(400.0);
        for config in NamedBoostConfig::all() {
            let spec = SweepSpec {
                network: NetworkSpec::MnistFc {
                    train_n: 1200,
                    test_n: 100,
                    epochs: 4,
                },
                supply: SupplySpec::BoostedPlan { config },
                ..SweepSpec::toy_default()
            };
            let ctx = spec.energy_context();
            let m = ctx.energy_model();
            let (accesses, macs) = (
                ctx.activity().total_sram_accesses(),
                ctx.activity().total_macs(),
            );
            let v_sram = ctx.sram_rail(vdd);
            let plan = ctx.boost_plan(vdd, 4).expect("plans boost");
            assert_eq!(
                plan,
                BoostPlan::from_named(config, 4, m.booster(), vdd),
                "{}",
                config.name()
            );
            assert_eq!(v_sram, m.vddv(vdd, plan.max_weight_level()));
            let e = ctx.point_energy(vdd);
            let single = m.dynamic_single(v_sram, accesses, macs);
            let reference = m.reference_energy_at_0v5(accesses, macs);
            let boosted = m.dynamic_boosted(vdd, &plan.boosted_groups(ctx.activity()), macs);
            assert!(
                (e.normalized_total() - boosted.joules() / reference.joules()).abs()
                    < 1e-12 * e.normalized_total(),
                "{}: breakdown and Eq. 3 agree",
                config.name()
            );
            // Paper Fig. 13a: boosting beats the single supply at the rail
            // it reaches.
            if matches!(config, NamedBoostConfig::Vddv3 | NamedBoostConfig::Vddv4) {
                assert!(
                    e.dynamic.total() < single,
                    "{}: boost {} vs single {}",
                    config.name(),
                    e.dynamic.total(),
                    single
                );
            }
            // Leakage: idle banks sit at the unboosted supply.
            assert!(e.leakage_per_cycle < m.leakage_single_per_cycle(v_sram));
            assert!(e.leakage_per_cycle < m.leakage_dual_per_cycle(v_sram, vdd));
        }
    }

    #[test]
    fn boosted_plan_rails_follow_table_2() {
        let spec = SweepSpec {
            supply: SupplySpec::BoostedPlan {
                config: NamedBoostConfig::Diff1,
            },
            ..SweepSpec::toy_default()
        };
        let ctx = spec.energy_context();
        let m = ctx.energy_model();
        for mv in (340..=500).step_by(20) {
            let vdd = Volt::from_millivolts(f64::from(mv));
            let a = ctx.voltage_assignment(vdd, 4);
            assert_eq!(a.weight_layers.len(), 4);
            for w in a.weight_layers.windows(2) {
                assert!(w[1] > w[0], "Diff1 rails rise with depth at {mv} mV");
            }
            assert_eq!(ctx.sram_rail(vdd), a.weight_layers[3]);
            // Inputs at the lowest level reaching 0.44 V, or full boost.
            let input_level = (0..=4)
                .find(|&l| m.vddv(vdd, l) >= INPUT_TARGET)
                .unwrap_or(4);
            assert_eq!(a.inputs, m.vddv(vdd, input_level), "{mv} mV");
            if input_level > 0 {
                assert!(m.vddv(vdd, input_level - 1) < INPUT_TARGET);
            }
        }
    }
}
