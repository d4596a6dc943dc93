//! The die summary against the cells it summarizes. For every fault model,
//! floor and size, `DieFaultModel::summary_at_floor` must equal the fold
//! over `sample_cells_into`'s cells (their number, and their largest V_min
//! under `f32::max`) bit for bit, from one reused scratch.

use dante_circuit::units::Volt;
use dante_sim::seed::{derive_seed, site};
use dante_sram::model::{DieSummary, FaultModel, SummaryScratch};
use dante_sram::sparse::SparseCell;

/// Seeds per (model, floor, size) point.
const SEEDS: u64 = 32;

/// What a fleet would fold `sample_cells_into`'s cells to.
fn fold(cells: &[SparseCell]) -> DieSummary {
    DieSummary {
        fault_cells: cells.len() as u64,
        worst_vmin: cells.iter().map(|c| c.vmin).reduce(f32::max),
    }
}

/// The three served models plus a burst model dense enough that tiles
/// routinely carry several weak columns and rows cross them.
fn models() -> [FaultModel; 4] {
    [
        FaultModel::gaussian_default(),
        FaultModel::chip_variation_default(),
        FaultModel::burst_default(),
        FaultModel::CorrelatedBurst {
            mu_mv: 352,
            sigma_mv: 40,
            flip_ppm: 500_000,
            row_weak_ppm: 50_000,
            col_weak_ppm: 100_000,
            shift_mv: 60,
        },
    ]
}

/// Checks [`SEEDS`] dies of `model` at `bits` and floor `mv`, and returns
/// how many of them had a faulty cell.
fn check(model: &FaultModel, bits: usize, mv: u32, scratch: &mut SummaryScratch) -> usize {
    let floor = Volt::from_millivolts(f64::from(mv));
    let (mut indices, mut cells) = (Vec::new(), Vec::new());
    let mut faulty = 0;
    for s in 0..SEEDS {
        let seed = derive_seed(u64::from(mv) ^ bits as u64, site::FLEET_DIE, s);
        let die = model.resolve_die(seed);
        die.sample_cells_into(bits, floor, seed, &mut indices, &mut cells);
        let expected = fold(&cells);
        let summary = die.summary_at_floor(bits, floor, seed, scratch);
        assert_eq!(
            (summary.fault_cells, summary.worst_vmin.map(f32::to_bits)),
            (expected.fault_cells, expected.worst_vmin.map(f32::to_bits)),
            "{} at {mv} mV, {bits} bits, seed {seed}",
            model.canonical_token()
        );
        faulty += usize::from(expected.fault_cells > 0);
    }
    faulty
}

#[test]
fn summary_equals_the_cell_fold_on_small_images() {
    let mut scratch = SummaryScratch::default();
    for model in models() {
        let mut faulty = 0;
        for bits in [64usize, 4_095, 32_768, 100_003] {
            for mv in (340..=620).step_by(20) {
                faulty += check(&model, bits, mv, &mut scratch);
            }
        }
        // Deep floors fault nearly every die, shallow ones almost none:
        // both sides of the censoring edge are covered.
        assert!(
            faulty > 500,
            "{}: {faulty} faulty dies",
            model.canonical_token()
        );
    }
}

#[test]
fn summary_equals_the_cell_fold_on_4_mbit_dies() {
    let mut scratch = SummaryScratch::default();
    for model in models() {
        for mv in [460, 500, 560, 620] {
            check(&model, 1 << 22, mv, &mut scratch);
        }
    }
}
