//! Fleet-scale V_min and yield sweeps: from single-chip point estimates to
//! die-population distributions.
//!
//! A datacenter operator deploying accelerators by the million cares about
//! the *distribution* of V_min across dies — "what fraction of parts works
//! at 0.55 V?" — not about one simulated chip. A [`FleetSpec`] simulates a
//! population of dies under any [`FaultModel`] spec: each die draws its
//! overlay (and, for chip-variation models, its own `(mu, sigma)` profile)
//! from a counter-derived seed, its V_min is the largest cell V_min on the
//! die, and the population yields the per-voltage yield curve and V_min
//! quantiles.
//!
//! Dies run on the shared [`TrialEngine`], one die per trial, so fleets are
//! bit-identical across thread counts and a progress observer sees each die
//! complete (the NDJSON streaming path of `dante-serve`).

use crate::sweep::{mv_list, GeometrySpec};
use dante_circuit::units::Volt;
use dante_sim::{derive_seed, site, NoopObserver, TrialEngine, TrialObserver};
use dante_sram::model::{CellFaultRate, FaultModel};
use dante_sram::sparse::SparseCell;
use dante_sram::yield_model::array_yield;

/// Quantile levels every fleet result reports (nearest-rank).
pub const FLEET_QUANTILES: [f64; 7] = [0.01, 0.05, 0.25, 0.50, 0.75, 0.95, 0.99];

/// A complete, serializable description of one fleet-scale V_min/yield
/// sweep.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct FleetSpec {
    /// Root seed; die `i` derives everything it samples from
    /// `derive_seed(seed, FLEET_DIE, i)`.
    pub seed: u64,
    /// Number of simulated dies in the population.
    pub dies: usize,
    /// SRAM cells per die.
    pub array_bits: usize,
    /// Voltage grid in millivolts, strictly increasing. The lowest point is
    /// the sampling floor: dies whose V_min falls at or below it are
    /// reported as censored.
    pub voltages_mv: Vec<u32>,
    /// The fault-model spec every die resolves against its own seed.
    pub fault_model: FaultModel,
    /// SRAM macro geometry the die's `array_bits` are organised as. A
    /// structural geometry requires `array_bits` to tile the macro
    /// exactly.
    pub geometry: GeometrySpec,
}

impl FleetSpec {
    /// A fast default: a thousand 1 Mbit dies of the default Gaussian
    /// process over the yield wall.
    #[must_use]
    pub fn toy_default() -> Self {
        Self {
            seed: 0xF1EE7,
            dies: 1000,
            array_bits: 1 << 20,
            voltages_mv: (500..=640).step_by(10).collect(),
            fault_model: FaultModel::default(),
            geometry: GeometrySpec::Calibrated,
        }
    }

    /// Validates the spec's bounds, returning a human-readable reason on
    /// rejection.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated bound.
    pub fn validate(&self) -> Result<(), String> {
        if self.dies == 0 {
            return Err("dies must be at least 1".to_owned());
        }
        if self.dies > 100_000 {
            return Err(format!("dies = {} exceeds the 100000 cap", self.dies));
        }
        if self.array_bits < 64 {
            return Err(format!(
                "array_bits = {} below the 64-bit floor",
                self.array_bits
            ));
        }
        if self.array_bits > (1 << 28) {
            return Err(format!(
                "array_bits = {} exceeds the 2^28 cap",
                self.array_bits
            ));
        }
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
            if !(310..=700).contains(&mv) {
                return Err(format!(
                    "voltage {mv} mV outside the supported 310..=700 mV range"
                ));
            }
        }
        if let Some(w) = self.voltages_mv.windows(2).find(|w| w[0] >= w[1]) {
            return Err(format!(
                "voltages_mv must be strictly increasing ({} then {})",
                w[0], w[1]
            ));
        }
        if let Err(why) = self.fault_model.validate() {
            return Err(format!("fault_model: {why}"));
        }
        if let Err(why) = self.geometry.validate() {
            return Err(format!("geometry: {why}"));
        }
        if let GeometrySpec::Structural(g) = self.geometry {
            if !self.array_bits.is_multiple_of(g.bits()) {
                return Err(format!(
                    "array_bits = {} does not tile the {}-bit macro geometry",
                    self.array_bits,
                    g.bits()
                ));
            }
        }
        // Bound the total sampling work: every die draws its
        // faulty-at-floor cells, so the expected population cell count is
        // dies * bits * BER(floor).
        let floor = Volt::from_millivolts(f64::from(self.voltages_mv[0]));
        let expected =
            self.dies as f64 * self.array_bits as f64 * self.fault_model.marginal_ber(floor);
        if expected > 2e7 {
            return Err(format!(
                "expected {expected:.2e} faulty cells across the fleet at the \
                 {floor} floor (cap 2e7); raise the lowest grid voltage or \
                 shrink the population"
            ));
        }
        Ok(())
    }

    /// The canonical flat encoding: every field in a fixed order under the
    /// one current `dante.fleet.v3` header (the version rule is in the
    /// [`crate::sweep`] module docs). Equal specs — and only equal specs —
    /// produce equal strings.
    #[must_use]
    pub fn canonical_string(&self) -> String {
        format!(
            "dante.fleet.v3;seed={};dies={};bits={};geom={};fault={};mv={}",
            self.seed,
            self.dies,
            self.array_bits,
            self.geometry.canonical_token(),
            self.fault_model.canonical_token(),
            mv_list(&self.voltages_mv),
        )
    }

    /// The closed-form single-die yield at `v` under this spec's marginal
    /// fault statistics — the analytic cross-check the Monte-Carlo yield
    /// curve is verified against.
    #[must_use]
    pub fn analytic_yield(&self, v: Volt) -> f64 {
        array_yield(&self.fault_model, v, self.array_bits as u64)
    }

    /// Runs the fleet: every die sampled, V_min extracted, population
    /// statistics assembled.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`Self::validate`].
    #[must_use]
    pub fn solve(&self) -> FleetResult {
        self.solve_observed(&NoopObserver)
    }

    /// [`Self::solve`] with instrumentation: the observer sees each die
    /// complete and, via `on_fault_bits`, each die's faulty-at-floor cell
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`Self::validate`].
    #[must_use]
    pub fn solve_observed(&self, observer: &dyn TrialObserver) -> FleetResult {
        let dies = self.solve_die_range_observed(0, self.dies, observer);
        self.assemble(&dies)
    }

    /// Samples only the contiguous **global** die window `[die_offset,
    /// die_offset + die_count)` of the population — the shard unit of work.
    ///
    /// Die `die_offset + d` keeps the seed it has in a full run
    /// (`derive_seed(spec.seed, FLEET_DIE, global index)`), so
    /// concatenating the windows of any ordered partition of `0..dies` and
    /// feeding them to [`Self::assemble`] reproduces [`Self::solve`]
    /// bit-for-bit. The observer sees **local** die indices `0..die_count`.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`Self::validate`] or the window is empty
    /// or extends past the population.
    #[must_use]
    pub fn solve_die_range_observed(
        &self,
        die_offset: usize,
        die_count: usize,
        observer: &dyn TrialObserver,
    ) -> Vec<DieOutcome> {
        if let Err(why) = self.validate() {
            panic!("invalid fleet spec: {why}");
        }
        assert!(die_count > 0, "die window must be non-empty");
        assert!(
            die_offset + die_count <= self.dies,
            "die window [{die_offset}, {}) exceeds {} dies",
            die_offset + die_count,
            self.dies
        );
        let floor = Volt::from_millivolts(f64::from(self.voltages_mv[0]));
        let floor_f32 = floor.volts() as f32;
        let engine = TrialEngine::from_env();
        // One die per trial. Reusing the overlay buffers per worker keeps
        // the hot path allocation-free, exactly like the accuracy
        // evaluator; die results are reassembled in die order by the
        // engine regardless of scheduling.
        engine.run_scratch_observed(
            die_count,
            observer,
            || (Vec::<u64>::new(), Vec::<SparseCell>::new()),
            |local_index, (indices, cells)| {
                // Seed by the global die index: the window is positional in
                // the full population.
                let die_index = die_offset + local_index;
                let die_seed = derive_seed(self.seed, site::FLEET_DIE, die_index as u64);
                let die = self.fault_model.resolve_die(die_seed);
                die.sample_cells_into(self.array_bits, floor, die_seed, indices, cells);
                observer.on_fault_bits(local_index, cells.len() as u64);
                // The die's V_min is its worst cell; a die with no faulty
                // cell at the floor is censored (V_min <= floor).
                let v_min = cells
                    .iter()
                    .map(|c| c.vmin)
                    .fold(f32::NEG_INFINITY, f32::max);
                if cells.is_empty() {
                    DieOutcome {
                        v_min: f64::from(floor_f32),
                        censored: true,
                        fault_cells: 0,
                    }
                } else {
                    DieOutcome {
                        v_min: f64::from(v_min),
                        censored: false,
                        fault_cells: cells.len() as u64,
                    }
                }
            },
        )
    }

    /// Assembles population statistics from per-die outcomes (all dies, in
    /// any order — the statistics are order-invariant except for the raw
    /// sort performed here).
    ///
    /// The statistics pipeline is byte-for-byte the single-process one:
    /// sort by `f64::total_cmp`, nearest-rank quantiles, and yield compared
    /// in exact f32 — so shard-merged outcomes reproduce [`Self::solve`]
    /// bit-identically.
    ///
    /// # Panics
    ///
    /// Panics unless exactly `self.dies` outcomes are supplied.
    #[must_use]
    pub fn assemble(&self, dies: &[DieOutcome]) -> FleetResult {
        assert_eq!(
            dies.len(),
            self.dies,
            "assembly needs the entire population"
        );
        let censored_dies = dies.iter().filter(|d| d.censored).count();
        let total_fault_cells: u64 = dies.iter().map(|d| d.fault_cells).sum();
        let mut v_min_volts: Vec<f64> = dies.iter().map(|d| d.v_min).collect();
        v_min_volts.sort_unstable_by(f64::total_cmp);

        let quantiles = FLEET_QUANTILES
            .iter()
            .map(|&q| (q, nearest_rank(&v_min_volts, q)))
            .collect();
        // Yield at v: the fraction of dies whose every cell works at v,
        // i.e. whose V_min (worst cell) does not exceed v. Grid voltages
        // compare in exact f32, the precision V_mins were sampled at.
        let yield_at_voltage = self
            .voltages_mv
            .iter()
            .map(|&mv| {
                let v = Volt::from_millivolts(f64::from(mv)).volts() as f32;
                let working = dies
                    .iter()
                    .filter(|d| d.censored || d.v_min <= f64::from(v))
                    .count();
                (mv, working as f64 / dies.len() as f64)
            })
            .collect();

        FleetResult {
            dies: self.dies,
            censored_dies,
            total_fault_cells,
            v_min_volts,
            quantiles,
            yield_at_voltage,
        }
    }
}

/// One die's raw outcome — the shard-transferable unit a coordinator
/// merges via [`FleetSpec::assemble`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DieOutcome {
    /// The die's V_min in volts (its worst cell; exactly the sampling
    /// floor for censored dies).
    pub v_min: f64,
    /// Whether the die had no faulty cell at the floor (V_min at or below
    /// the lowest grid voltage).
    pub censored: bool,
    /// Faulty-at-floor cells on this die.
    pub fault_cells: u64,
}

/// Population statistics of one fleet sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetResult {
    /// Number of simulated dies.
    pub dies: usize,
    /// Dies with no faulty cell at the sampling floor: their V_min is at or
    /// below the lowest grid voltage and is reported as exactly the floor.
    pub censored_dies: usize,
    /// Total faulty-at-floor cells across the population.
    pub total_fault_cells: u64,
    /// Every die's V_min in volts, ascending (censored dies at the floor).
    pub v_min_volts: Vec<f64>,
    /// Nearest-rank V_min quantiles `(level, volts)` at [`FLEET_QUANTILES`].
    pub quantiles: Vec<(f64, f64)>,
    /// Fraction of working dies at each grid voltage `(millivolts, yield)`.
    pub yield_at_voltage: Vec<(u32, f64)>,
}

impl FleetResult {
    /// The population median V_min.
    ///
    /// # Panics
    ///
    /// Panics if the result holds no quantiles (impossible for solver
    /// output).
    #[must_use]
    pub fn median_v_min(&self) -> f64 {
        self.quantiles
            .iter()
            .find(|(q, _)| (*q - 0.5).abs() < 1e-12)
            .expect("solver always reports the median")
            .1
    }

    /// Yield at the given grid voltage, if it is on the grid.
    #[must_use]
    pub fn yield_at(&self, mv: u32) -> Option<f64> {
        self.yield_at_voltage
            .iter()
            .find(|(g, _)| *g == mv)
            .map(|(_, y)| *y)
    }
}

/// Nearest-rank quantile of an ascending-sorted sample.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let n = sorted.len();
    let rank = (q * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> FleetSpec {
        FleetSpec {
            seed: 0xF1EE7,
            dies: 200,
            array_bits: 1 << 18,
            voltages_mv: (500..=620).step_by(20).collect(),
            fault_model: FaultModel::default(),
            geometry: GeometrySpec::Calibrated,
        }
    }

    #[test]
    fn canonical_string_is_pinned_and_injective_in_every_field() {
        let spec = FleetSpec::toy_default();
        assert_eq!(
            spec.canonical_string(),
            "dante.fleet.v3;seed=990951;dies=1000;bits=1048576;geom=calibrated;\
             fault=gaussian(mu=352,sigma=40,flip=500000);\
             mv=500,510,520,530,540,550,560,570,580,590,600,610,620,630,640"
        );
        let mut b = spec.clone();
        b.seed ^= 1;
        assert_ne!(spec.canonical_string(), b.canonical_string());
        let mut c = spec.clone();
        c.dies += 1;
        assert_ne!(spec.canonical_string(), c.canonical_string());
        let mut d = spec.clone();
        d.fault_model = FaultModel::chip_variation_default();
        assert_ne!(spec.canonical_string(), d.canonical_string());
        let mut e = spec.clone();
        e.array_bits += 64;
        assert_ne!(spec.canonical_string(), e.canonical_string());
        let mut f = spec.clone();
        f.voltages_mv.pop();
        assert_ne!(spec.canonical_string(), f.canonical_string());
        let mut g = spec.clone();
        g.geometry =
            GeometrySpec::Structural(dante_circuit::macro_model::MacroGeometry::bank_64kbit());
        assert!(
            g.canonical_string()
                .contains(";geom=struct(r=256,c=128,m=4,b=2);fault="),
            "{}",
            g.canonical_string()
        );
    }

    #[test]
    fn structural_geometry_must_tile_the_array() {
        use dante_circuit::macro_model::MacroGeometry;
        let spec = FleetSpec {
            geometry: GeometrySpec::Structural(MacroGeometry::bank_64kbit()),
            ..FleetSpec::toy_default()
        };
        assert!(spec.validate().is_ok(), "1 Mbit tiles 16 x 64 Kbit banks");
        // A geometry that does not tile the array is rejected.
        let bad = FleetSpec {
            array_bits: (1 << 20) + 64,
            ..spec
        };
        assert!(bad.validate().unwrap_err().contains("tile"));
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let ok = small_spec();
        assert!(ok.validate().is_ok());
        let mut bad = ok.clone();
        bad.dies = 0;
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.voltages_mv = vec![520, 520];
        assert!(bad.validate().unwrap_err().contains("strictly increasing"));
        let mut bad = ok.clone();
        bad.voltages_mv = vec![560, 520];
        assert!(bad.validate().is_err());
        // A floor deep in the fault region blows the sampling-work cap.
        let mut bad = ok.clone();
        bad.dies = 100_000;
        bad.array_bits = 1 << 28;
        bad.voltages_mv = vec![340, 400];
        assert!(bad.validate().unwrap_err().contains("faulty cells"));
        let mut bad = ok;
        bad.fault_model = FaultModel::Gaussian {
            mu_mv: 100,
            sigma_mv: 40,
            flip_ppm: 500_000,
        };
        assert!(bad.validate().unwrap_err().contains("fault_model"));
    }

    #[test]
    fn sharded_die_windows_assemble_bit_identical_to_solve() {
        let spec = small_spec();
        let full = spec.solve();
        for shards in [1usize, 2, 3, 7] {
            let mut outcomes = Vec::new();
            for (offset, count) in crate::sweep::shard_ranges(spec.dies, shards) {
                outcomes.extend(spec.solve_die_range_observed(offset, count, &NoopObserver));
            }
            let merged = spec.assemble(&outcomes);
            let fb: Vec<u64> = full.v_min_volts.iter().map(|v| v.to_bits()).collect();
            let mb: Vec<u64> = merged.v_min_volts.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                fb, mb,
                "V_min distribution bit-identical at {shards} shards"
            );
            assert_eq!(full, merged);
        }
    }

    #[test]
    fn fleet_solve_is_deterministic() {
        let spec = small_spec();
        let a = spec.solve();
        let b = spec.solve();
        assert_eq!(a, b);
        assert_eq!(a.dies, 200);
        assert_eq!(a.v_min_volts.len(), 200);
    }

    #[test]
    fn yield_curve_is_monotone_and_anchored_by_the_vmin_distribution() {
        let r = small_spec().solve();
        for w in r.yield_at_voltage.windows(2) {
            assert!(
                w[1].1 >= w[0].1,
                "yield must rise with voltage: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
        for q in r.quantiles.windows(2) {
            assert!(q[1].1 >= q[0].1, "quantiles must be non-decreasing");
        }
        // Yield at the top grid point = fraction of dies with V_min <= it.
        let top = *r.yield_at_voltage.last().unwrap();
        let frac = r
            .v_min_volts
            .iter()
            .filter(|&&v| v <= f64::from(top.0) / 1000.0 + 1e-9)
            .count() as f64
            / r.dies as f64;
        assert!((top.1 - frac).abs() < 1e-12);
    }

    #[test]
    fn gaussian_fleet_tracks_the_analytic_yield_curve() {
        // Monte-Carlo yield vs the closed-form die-survival probability:
        // within a few binomial standard errors at every grid point.
        let spec = FleetSpec {
            dies: 400,
            ..small_spec()
        };
        let r = spec.solve();
        for &(mv, y) in &r.yield_at_voltage {
            let p = spec.analytic_yield(Volt::from_millivolts(f64::from(mv)));
            let se = (p * (1.0 - p) / spec.dies as f64).sqrt();
            assert!(
                (y - p).abs() < 5.0 * se + 0.02,
                "at {mv} mV: empirical {y:.4} vs analytic {p:.4} (se {se:.4})"
            );
        }
    }

    #[test]
    fn chip_variation_widens_the_vmin_distribution() {
        let gauss = small_spec().solve();
        let chip = FleetSpec {
            fault_model: FaultModel::chip_variation_default(),
            ..small_spec()
        }
        .solve();
        let spread = |r: &FleetResult| {
            let hi = r.quantiles.iter().find(|(q, _)| *q == 0.95).unwrap().1;
            let lo = r.quantiles.iter().find(|(q, _)| *q == 0.05).unwrap().1;
            hi - lo
        };
        assert!(
            spread(&chip) > spread(&gauss),
            "die-to-die mu spread must widen the V_min distribution: \
             chip {:.4} vs gauss {:.4}",
            spread(&chip),
            spread(&gauss)
        );
    }

    #[test]
    fn observer_sees_every_die() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        #[derive(Default)]
        struct Counter {
            dies: AtomicUsize,
            cells: AtomicUsize,
        }
        impl TrialObserver for Counter {
            fn on_trial_complete(&self, _i: usize, _e: std::time::Duration) {
                self.dies.fetch_add(1, Ordering::Relaxed);
            }
            fn on_fault_bits(&self, _i: usize, bits: u64) {
                self.cells.fetch_add(bits as usize, Ordering::Relaxed);
            }
        }
        let c = Counter::default();
        let spec = small_spec();
        let r = spec.solve_observed(&c);
        assert_eq!(c.dies.load(Ordering::Relaxed), spec.dies);
        assert_eq!(
            c.cells.load(Ordering::Relaxed) as u64,
            r.total_fault_cells,
            "per-die fault counts stream through the observer"
        );
    }

    #[test]
    fn nearest_rank_matches_the_definition() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(nearest_rank(&s, 0.5), 2.0);
        assert_eq!(nearest_rank(&s, 0.25), 1.0);
        assert_eq!(nearest_rank(&s, 0.75), 3.0);
        assert_eq!(nearest_rank(&s, 0.01), 1.0);
        assert_eq!(nearest_rank(&s, 0.99), 4.0);
    }

    #[test]
    #[should_panic(expected = "invalid fleet spec")]
    fn solve_rejects_invalid_specs() {
        let mut spec = small_spec();
        spec.dies = 0;
        let _ = spec.solve();
    }
}
