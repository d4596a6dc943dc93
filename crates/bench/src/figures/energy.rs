//! Energy figures: 12, 13, 14, 15, plus Table 3, the headline summary, and
//! the iso-accuracy supply comparison.

use crate::record::{FigureRecord, RunScale, Series};
use dante::iso::IsoAccuracySpec;
use dante::schedule::{NamedBoostConfig, ISO_ACCURACY_TARGET};
use dante::sweep::{NetworkSpec, PreparedSweep, SupplySpec, SweepPoint, SweepSpec};
use dante_circuit::units::{Joule, Volt};
use dante_dataflow::activity::Dataflow;
use dante_dataflow::fc_dana::DanaFcDataflow;
use dante_dataflow::row_stationary::RowStationaryDataflow;
use dante_dataflow::workloads::{alexnet_conv, mnist_fc};
use dante_energy::design_space::{default_axes, sweep, DesignSpaceScenario};
use dante_energy::supply::{EnergyModel, RailBoost};
use std::ops::RangeInclusive;

/// Fig. 12: the boosted/dual energy ratio over the
/// `Ops_ratio` x `Energy_ratio` design space (one series per energy ratio).
#[must_use]
pub fn fig12() -> FigureRecord {
    let (ops, ers) = default_axes();
    let pts = sweep(DesignSpaceScenario::default(), &ops, &ers);
    let mut rec = FigureRecord::new(
        "fig12",
        "Boosted / dual-Vdd dynamic energy over the accelerator design space (Vdd 0.4 -> Vddv 0.6)",
        "Ops_ratio (SRAM accesses per op)",
        "E_boost / E_dual",
    );
    for &er in &ers {
        let series: Vec<(f64, f64)> = pts
            .iter()
            .filter(|p| (p.energy_ratio - er).abs() < 1e-9)
            .map(|p| (p.ops_ratio, p.boosted_over_dual))
            .collect();
        rec = rec.with_series(Series::new(format!("Energy_ratio={er}"), series));
    }
    rec.with_note("values < 1 mean boosting wins; savings up to ~32% at low ratios")
}

/// Fig. 13: the FC-DNN analysis — dynamic energy of boost vs single vs dual,
/// accuracy per configuration, and leakage per cycle. One sweep per Table 2
/// configuration ([`SupplySpec::BoostedPlan`]); the single, dual and leakage
/// baselines follow the `Boost_Vddv4` sweep's SRAM rail (the paper's
/// comparison).
#[must_use]
pub fn fig13(scale: RunScale) -> FigureRecord {
    let network = NetworkSpec::MnistFc {
        train_n: scale.train_images,
        test_n: scale.test_images,
        epochs: scale.epochs,
    };
    let mut rec = FigureRecord::new(
        "fig13",
        "FC-DNN: dynamic energy (normalized to 0.5 V chip), accuracy, and leakage per cycle",
        "Vdd [V]",
        "normalized energy / accuracy / J-per-cycle",
    );
    let mut vddv4 = None;
    for config in NamedBoostConfig::all() {
        let sweep = paper_sweep(
            &network,
            SupplySpec::BoostedPlan { config },
            340..=500,
            0x000F_1613,
            scale.trials,
        );
        let points = sweep.run();
        let name = config.name();
        rec = rec
            .with_series(series(format!("{name} acc"), &points, |p| p.stats.mean()))
            .with_series(series(format!("{name} E_boost"), &points, |p| {
                p.energy.normalized_total()
            }));
        if config == NamedBoostConfig::Vddv4 {
            vddv4 = Some((sweep, points));
        }
    }
    let (sweep, v4) = vddv4.expect("Table 2 lists Boost_Vddv4");
    let m = sweep.energy_model();
    let accesses = sweep.activity().total_sram_accesses();
    let macs = sweep.activity().total_macs();
    let normalized = |e: Joule, p: &SweepPoint| e.joules() / p.energy.reference_0v5.joules();
    rec.with_series(series("single@Vddv4 E", &v4, |p| {
        normalized(m.dynamic_single(p.v_sram, accesses, macs), p)
    }))
    .with_series(series("dual(Vddv4/Vdd) E", &v4, |p| {
        normalized(m.dynamic_dual(p.v_sram, p.vdd, accesses, macs), p)
    }))
    .with_series(series("leak boost [J/cyc]", &v4, |p| {
        p.energy.leakage_per_cycle.joules()
    }))
    .with_series(series("leak single [J/cyc]", &v4, |p| {
        m.leakage_single_per_cycle(p.v_sram).joules()
    }))
    .with_series(series("leak dual [J/cyc]", &v4, |p| {
        m.leakage_dual_per_cycle(p.v_sram, p.vdd).joules()
    }))
    .with_note("boost vs single: savings grow with boost level; dual only competitive at low boost")
}

/// Fig. 14: AlexNet conv layers — accuracy (CNN proxy) and dynamic energy of
/// boost vs dual per level. One `Boosted { level }` sweep per level; dual
/// holds the memory at each point's boosted rail.
#[must_use]
pub fn fig14(scale: RunScale) -> FigureRecord {
    let network = NetworkSpec::AlexNetConv {
        layers: 5,
        train_n: scale.train_images.min(2000),
        test_n: scale.test_images.min(1000),
        epochs: scale.epochs,
    };
    let mut rec = FigureRecord::new(
        "fig14",
        "AlexNet conv (Eyeriss RS dataflow): accuracy and dynamic energy, boost vs dual",
        "Vdd [V]",
        "accuracy / normalized energy",
    );
    let mut savings = Vec::new();
    for level in 1..=4 {
        let sweep = paper_sweep(
            &network,
            SupplySpec::Boosted { level },
            340..=460,
            0x000F_1614,
            scale.trials,
        );
        let points = sweep.run();
        let m = sweep.energy_model();
        let accesses = sweep.activity().total_sram_accesses();
        let macs = sweep.activity().total_macs();
        let boost = series(format!("Vddv{level} E_boost"), &points, |p| {
            p.energy.normalized_total()
        });
        let dual = series(format!("Vddv{level} E_dual"), &points, |p| {
            m.dynamic_dual(p.v_sram, p.vdd, accesses, macs).joules()
                / p.energy.reference_0v5.joules()
        });
        savings.extend(
            boost
                .points
                .iter()
                .zip(&dual.points)
                .map(|(b, d)| 1.0 - b.1 / d.1),
        );
        rec = rec
            .with_series(series(format!("Vddv{level} acc"), &points, |p| {
                p.stats.mean()
            }))
            .with_series(boost)
            .with_series(dual);
    }
    let avg = savings.iter().sum::<f64>() / savings.len() as f64;
    rec.with_note(format!(
        "boost beats dual at every level; mean savings {:.0}% (paper: 19% across levels, 26% at Vddv4)",
        avg * 100.0
    ))
}

/// A paper-figure sweep of `network` under `supply` over a 20 mV grid,
/// prepared once (its first point trains or loads the network).
fn paper_sweep(
    network: &NetworkSpec,
    supply: SupplySpec,
    grid_mv: RangeInclusive<u32>,
    seed: u64,
    trials: usize,
) -> PreparedSweep {
    SweepSpec {
        seed,
        voltages_mv: grid_mv.step_by(20).collect(),
        trials,
        network: network.clone(),
        supply,
        ..SweepSpec::toy_default()
    }
    .prepare()
}

/// One value per sweep point, against the grid voltage.
fn series(
    name: impl Into<String>,
    points: &[SweepPoint],
    y: impl Fn(&SweepPoint) -> f64,
) -> Series {
    Series::new(name, points.iter().map(|p| (p.vdd.volts(), y(p))).collect())
}

/// Fig. 15: iso-accuracy comparison — at each Vdd boost to the minimum level
/// reaching the 0.48 V target ([`EnergyModel::boost_to_reach`]); compare
/// against dual supply at the same rails and the 0.48 V single-supply
/// alternative.
#[must_use]
pub fn fig15() -> FigureRecord {
    let m = EnergyModel::dante_chip();
    let activity = RowStationaryDataflow::new().activity(&alexnet_conv());
    let accesses = activity.total_sram_accesses();
    let macs = activity.total_macs();
    let reference = m.reference_energy_at_0v5(accesses, macs).joules();
    let single_at_target = m
        .dynamic_single(ISO_ACCURACY_TARGET, accesses, macs)
        .joules()
        / reference;
    let pts: Vec<(Volt, RailBoost)> = (0..=6)
        .map(|i| Volt::new(0.34 + 0.02 * f64::from(i)))
        .filter_map(|vdd| {
            let r = m.boost_to_reach(vdd, ISO_ACCURACY_TARGET, accesses, macs)?;
            Some((vdd, r))
        })
        .collect();
    let of = |y: &dyn Fn(&RailBoost) -> f64| -> Vec<(f64, f64)> {
        pts.iter().map(|(vdd, r)| (vdd.volts(), y(r))).collect()
    };
    let boost = |r: &RailBoost| r.boosted.joules() / reference;
    let dual = |r: &RailBoost| r.dual.joules() / reference;
    let vs_single: Vec<f64> = pts
        .iter()
        .map(|(_, r)| 1.0 - boost(r) / single_at_target)
        .collect();
    let vs_dual: Vec<f64> = pts.iter().map(|(_, r)| 1.0 - boost(r) / dual(r)).collect();
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    FigureRecord::new(
        "fig15",
        "AlexNet iso-accuracy dynamic energy: boost (min level reaching 0.48 V) vs dual vs single@0.48",
        "Vdd [V]",
        "normalized energy",
    )
    .with_series(Series::new("boost", of(&boost)))
    .with_series(Series::new("dual", of(&dual)))
    .with_series(Series::new("single@0.48", of(&|_| single_at_target)))
    .with_series(Series::new("chosen level", of(&|r| r.level as f64)))
    .with_note(format!(
        "mean savings: {:.0}% vs single@0.48 (paper 30%), {:.0}% vs dual (paper 17%)",
        mean(&vs_single) * 100.0,
        mean(&vs_dual) * 100.0
    ))
}

/// The golden-scale iso-accuracy solve: MNIST-FC at a 95% floor, single vs
/// boosted (Vddv4) vs the dual baseline pinned to the boosted rails.
///
/// This is the snapshot that pins the boosted-vs-single energy ratio — the
/// paper's central iso-accuracy claim — against regressions in the sweep,
/// supply, and solver layers at once. Deliberately small (40 test images,
/// 3 trials) so every regeneration stays cheap; the Monte-Carlo part is
/// counter-based deterministic, so smallness costs stability nothing.
#[must_use]
pub fn iso_accuracy() -> FigureRecord {
    let spec = IsoAccuracySpec {
        seed: 0x150_ACC,
        voltages_mv: (380..=520).step_by(20).collect(),
        trials: 3,
        floor: 0.95,
        level: 4,
        network: NetworkSpec::MnistFc {
            train_n: 1200,
            test_n: 40,
            epochs: 4,
        },
        ..IsoAccuracySpec::toy_default()
    };
    let r = spec.solve();
    let single = r
        .single
        .expect("single supply meets the floor on this grid");
    let boosted = r
        .boosted
        .expect("boosted supply meets the floor on this grid");
    let dual = r.dual.expect("dual follows the boosted point");
    let configs = [&single, &boosted, &dual];
    let per_config = |f: &dyn Fn(&dante::iso::IsoConfigPoint) -> f64| -> Vec<(f64, f64)> {
        configs
            .iter()
            .enumerate()
            .map(|(i, p)| (i as f64, f(p)))
            .collect()
    };
    FigureRecord::new(
        "iso_accuracy",
        "MNIST-FC iso-accuracy operating points: single vs boosted(Vddv4) vs dual baseline",
        "config (0 = single, 1 = boosted, 2 = dual)",
        "V / accuracy / J / ratio",
    )
    .with_series(Series::new("v_min [V]", per_config(&|p| p.v_logic.volts())))
    .with_series(Series::new(
        "sram rail [V]",
        per_config(&|p| p.v_sram.volts()),
    ))
    .with_series(Series::new(
        "accuracy at v_min",
        per_config(&|p| p.accuracy_mean),
    ))
    .with_series(Series::new(
        "dynamic total [J]",
        per_config(&|p| p.energy.dynamic.total().joules()),
    ))
    .with_series(Series::new(
        "dynamic total /ref0.5V",
        per_config(&|p| p.energy.normalized_total()),
    ))
    .with_series(Series::new(
        "accuracy targets",
        vec![(0.0, r.clean_accuracy), (1.0, r.target_accuracy)],
    ))
    .with_series(Series::new(
        "boosted energy ratios",
        vec![
            (0.0, r.boosted_over_single.expect("both points exist")),
            (1.0, r.boosted_over_dual.expect("both points exist")),
        ],
    ))
    .with_note(format!("spec: {}", spec.canonical_string()))
    .with_note(
        "ratios < 1 mean boosting wins at iso-accuracy; \
         dual is pinned to the boosted rails (V_h = Vddv4(V_min), V_l = V_min)",
    )
}

/// Table 3: workload characteristics (SRAMAcc / MAC ratios).
#[must_use]
pub fn table3() -> FigureRecord {
    let fc = DanaFcDataflow::new().activity(&mnist_fc());
    let rs = RowStationaryDataflow::new().activity(&alexnet_conv());
    FigureRecord::new(
        "table3",
        "Workload characteristics: SRAM accesses per MAC operation",
        "workload (0 = MNIST/DANA, 1 = AlexNet/RS)",
        "SRAMAcc / MAC",
    )
    .with_series(Series::new(
        "access/MAC ratio",
        vec![(0.0, fc.access_mac_ratio()), (1.0, rs.access_mac_ratio())],
    ))
    .with_note(format!(
        "MNIST/DANA = {:.1}% (paper 75%); AlexNet/RS = {:.2}% (paper 1.67%)",
        fc.access_mac_ratio() * 100.0,
        rs.access_mac_ratio() * 100.0
    ))
}

/// The headline summary (abstract numbers).
#[must_use]
pub fn headlines() -> FigureRecord {
    let h = dante::headlines::compute();
    FigureRecord::new(
        "headlines",
        "Headline results vs the paper's abstract",
        "metric index",
        "fractional savings",
    )
    .with_series(Series::new(
        "measured",
        vec![
            (1.0, h.alexnet_peak_savings_vs_dual),
            (2.0, h.alexnet_avg_savings_vs_dual),
            (3.0, h.alexnet_savings_vs_single_048),
            (4.0, h.leakage_savings_vs_dual),
            (5.0, h.booster_leakage_overhead),
            (6.0, h.mnist_savings_vs_dual),
        ],
    ))
    .with_series(Series::new(
        "paper",
        // Metric 6 (MNIST full-boost vs dual) has no paper-quoted number, so
        // the paper series stops at 5 — keeping every point finite lets the
        // record round-trip through JSON (which has no NaN literal).
        vec![(1.0, 0.26), (2.0, 0.17), (3.0, 0.30), (4.0, 0.32), (5.0, 0.06)],
    ))
    .with_note("1: AlexNet peak vs dual; 2: AlexNet avg vs dual; 3: vs single@0.48; 4: leakage vs dual; 5: booster leakage overhead; 6: MNIST full-boost vs dual (no paper number)")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_has_one_series_per_energy_ratio() {
        let rec = fig12();
        let (_, ers) = default_axes();
        assert_eq!(rec.series.len(), ers.len());
        // Ratios increase with ops_ratio within each series.
        for s in &rec.series {
            for w in s.points.windows(2) {
                assert!(w[1].1 >= w[0].1 - 1e-12);
            }
        }
    }

    #[test]
    fn table3_matches_paper_ratios() {
        let rec = table3();
        let pts = &rec.series[0].points;
        assert!((pts[0].1 - 0.75).abs() < 0.01);
        assert!((pts[1].1 - 0.0167).abs() < 0.004);
    }

    #[test]
    fn headlines_record_has_both_series() {
        let rec = headlines();
        assert_eq!(rec.series.len(), 2);
        assert_eq!(rec.series[0].points.len(), 6);
        // Every stored point must be finite so the record survives a JSON
        // round-trip (a golden mismatch re-parses the committed file).
        for s in &rec.series {
            for &(x, y) in &s.points {
                assert!(x.is_finite() && y.is_finite(), "{}: ({x}, {y})", s.name);
            }
        }
    }

    #[test]
    fn iso_accuracy_record_pins_a_meaningful_comparison() {
        let rec = iso_accuracy();
        let series = |name: &str| {
            rec.series
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing series {name:?}"))
        };
        let vmin = &series("v_min [V]").points;
        // Boosting restores SRAM margin, so boosted V_min <= single V_min,
        // and the dual baseline shares the boosted logic rail.
        assert!(vmin[1].1 <= vmin[0].1 + 1e-12);
        assert_eq!(vmin[1].1, vmin[2].1);
        let ratios = &series("boosted energy ratios").points;
        assert!(ratios[0].1 > 0.0 && ratios[0].1 < 1.5);
        assert!(ratios[1].1 > 0.0 && ratios[1].1 < 1.5);
        let targets = &series("accuracy targets").points;
        assert!(targets[0].1 > 0.8, "clean MNIST-FC accuracy is high");
        for acc in &series("accuracy at v_min").points {
            assert!(acc.1 >= targets[1].1, "every config clears the target");
        }
    }

    fn points<'a>(rec: &'a FigureRecord, name: &str) -> &'a [(f64, f64)] {
        &rec.series
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{}: missing series {name:?}", rec.id))
            .points
    }

    fn assert_grid(rec: &FigureRecord, series: usize, grid_mv: RangeInclusive<u32>) {
        assert_eq!(rec.series.len(), series, "{}", rec.id);
        let want: Vec<f64> = grid_mv
            .step_by(20)
            .map(|mv| Volt::from_millivolts(f64::from(mv)).volts())
            .collect();
        for s in &rec.series {
            let xs: Vec<f64> = s.points.iter().map(|p| p.0).collect();
            assert_eq!(xs, want, "{}/{}", rec.id, s.name);
        }
    }

    #[test]
    fn fig13_sweeps_every_table2_plan() {
        let rec = fig13(RunScale {
            trials: 2,
            test_images: 100,
            epochs: 4,
            train_images: 1200,
        });
        // Accuracy and E_boost per configuration, then five baselines.
        assert_grid(&rec, 6 * 2 + 5, 340..=500);
        // Full boost at 0.38 V reaches ~0.55 V rails; one level barely
        // clears 0.42 V.
        let at_380 = |name: &str| points(&rec, name)[2].1;
        assert!(
            at_380("Boost_Vddv4 acc") >= at_380("Boost_Vddv1 acc"),
            "Vddv4 {} vs Vddv1 {} at 0.38 V",
            at_380("Boost_Vddv4 acc"),
            at_380("Boost_Vddv1 acc")
        );
        assert!(at_380("Boost_Vddv4 acc") > 0.8);
        let boost = points(&rec, "Boost_Vddv4 E_boost");
        let single = points(&rec, "single@Vddv4 E");
        let leak = |name: &str| points(&rec, name);
        for i in 0..boost.len() {
            // Fig. 13a: boosting beats the single supply at the rail it
            // reaches; Fig. 13d: idle banks leak at the unboosted supply.
            assert!(boost[i].1 < single[i].1, "at {} V", boost[i].0);
            let b = leak("leak boost [J/cyc]")[i].1;
            assert!(b > 0.0 && b < leak("leak single [J/cyc]")[i].1);
            assert!(b < leak("leak dual [J/cyc]")[i].1);
        }
    }

    #[test]
    fn fig14_boost_recovers_the_proxy_and_beats_dual_on_every_cell() {
        let scale = RunScale {
            trials: 2,
            test_images: 60,
            epochs: 1,
            train_images: 300,
        };
        let rec = fig14(scale);
        assert_grid(&rec, 4 * 3, 340..=460);
        for level in 1..=4 {
            let boost = points(&rec, &format!("Vddv{level} E_boost"));
            let dual = points(&rec, &format!("Vddv{level} E_dual"));
            for (b, d) in boost.iter().zip(dual) {
                assert!(b.1 < d.1, "level {level} at {} V: {} vs {}", b.0, b.1, d.1);
            }
        }
        // Level 4 at 0.36 V rides a ~0.54 V rail: the proxy keeps its
        // clean accuracy.
        let (net, test) = dante::artifacts::trained_cifar_cnn(300, 60, 1);
        let clean = net.accuracy(test.images(), test.labels());
        let full = points(&rec, "Vddv4 acc")[1].1;
        assert!(full >= clean - 0.05, "Vddv4 {full} vs clean {clean}");
        assert!(full >= points(&rec, "Vddv1 acc")[1].1);
    }

    #[test]
    fn fig15_boosts_to_the_lowest_level_reaching_the_target() {
        let rec = fig15();
        let level_at = |v: f64| {
            points(&rec, "chosen level")
                .iter()
                .find(|p| (p.0 - v).abs() < 1e-9)
                .map(|p| p.1)
        };
        // Paper Sec. 6.3: Vddv3 at 0.38 V, Vddv1 at 0.46 V.
        assert_eq!(level_at(0.38), Some(3.0));
        assert_eq!(level_at(0.46), Some(1.0));
        let boost = points(&rec, "boost");
        let mean_savings = |against: &[(f64, f64)]| {
            boost
                .iter()
                .zip(against)
                .map(|(b, a)| 1.0 - b.1 / a.1)
                .sum::<f64>()
                / boost.len() as f64
        };
        // "30% energy savings" vs single@0.48 V, "17% lower energy on
        // average" vs dual.
        let vs_single = mean_savings(points(&rec, "single@0.48"));
        let vs_dual = mean_savings(points(&rec, "dual"));
        assert!((0.18..=0.45).contains(&vs_single), "vs single {vs_single}");
        assert!((0.10..=0.30).contains(&vs_dual), "vs dual {vs_dual}");
    }
}
