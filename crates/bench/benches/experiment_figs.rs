//! Criterion benches for the evaluation-section experiments
//! (Figs. 13, 14, 15): one figure cell each at reduced Monte-Carlo scale —
//! a Table 2 plan sweep point, a uniform-boost AlexNet sweep point, and the
//! analytic iso-accuracy rail sweep.

use criterion::{criterion_group, criterion_main, Criterion};
use dante::schedule::{NamedBoostConfig, ISO_ACCURACY_TARGET};
use dante::sweep::{NetworkSpec, SupplySpec, SweepSpec};
use dante_circuit::units::Volt;
use dante_dataflow::activity::Dataflow;
use dante_dataflow::row_stationary::RowStationaryDataflow;
use dante_dataflow::workloads::alexnet_conv;
use dante_energy::supply::EnergyModel;
use std::hint::black_box;

/// A one-point, one-trial sweep at 0.40 V.
fn cell(network: NetworkSpec, supply: SupplySpec) -> SweepSpec {
    SweepSpec {
        voltages_mv: vec![400],
        trials: 1,
        network,
        supply,
        ..SweepSpec::toy_default()
    }
}

fn bench_experiment_figures(c: &mut Criterion) {
    let fig13 = cell(
        NetworkSpec::MnistFc {
            train_n: 1200,
            test_n: 100,
            epochs: 4,
        },
        SupplySpec::BoostedPlan {
            config: NamedBoostConfig::Vddv4,
        },
    )
    .prepare();
    let fig14 = cell(
        NetworkSpec::AlexNetConv {
            layers: 5,
            train_n: 600,
            test_n: 100,
            epochs: 2,
        },
        SupplySpec::Boosted { level: 4 },
    )
    .prepare();
    let m = EnergyModel::dante_chip();
    let activity = RowStationaryDataflow::new().activity(&alexnet_conv());

    let mut g = c.benchmark_group("experiment-figures");
    g.sample_size(10);
    g.bench_function("fig13_point", |b| b.iter(|| black_box(fig13.run_point(0))));
    g.bench_function("fig14_point", |b| b.iter(|| black_box(fig14.run_point(0))));
    g.bench_function("fig15_iso_accuracy_sweep", |b| {
        b.iter(|| {
            black_box(
                (0..=6)
                    .filter_map(|i| {
                        m.boost_to_reach(
                            Volt::new(0.34 + 0.02 * f64::from(i)),
                            ISO_ACCURACY_TARGET,
                            activity.total_sram_accesses(),
                            activity.total_macs(),
                        )
                    })
                    .collect::<Vec<_>>(),
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench_experiment_figures);
criterion_main!(benches);
