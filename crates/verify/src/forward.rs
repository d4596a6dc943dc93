//! Differential checking of the trial-batched forward evaluator: the
//! incremental `dante_nn::batched` path and the scalar
//! [`Network::accuracy`] path are run side by side on identically
//! fault-corrupted networks and inputs, and the correct-prediction counts
//! must agree exactly.
//!
//! Why this catches bugs: the batched path reuses cached clean activations,
//! resumes mid-network at the first corrupted layer, and — when damage is
//! confined to a few output units — recomputes only those columns/channels.
//! The scalar path does none of that; it walks every image through the
//! corrupted network from layer 0. ("Scalar" names that full,
//! non-incremental pass; both paths multiply on the same exact GEMM kernels.) The two agree only if the incremental
//! bookkeeping (dirty-image sets, first-dirty-layer resume points, column
//! and channel localization) is exactly right, so every corrupted trial is
//! a probe of that bookkeeping.
//!
//! Corruption flips bits of the 16-bit quantized codes — the domain the
//! Monte-Carlo evaluator corrupts — and the clean baseline is the
//! quantize→dequantize round-trip of the same network
//! ([`quantized_baseline`]), so a safe-voltage die reproduces the baseline
//! exactly. Corrupting raw `f32` bits instead would be out of contract:
//! flipped exponent bits make non-finite weights, and the exact GEMM
//! kernels' zero-activation skip (`acc += 0.0 * w` elided) is bit-identical
//! only for finite `w`. The quantized domain guarantees finiteness, exactly
//! as the evaluator does. When a divergence surfaces, [`minimize_units`]
//! shrinks the corrupted weight units to a 1-minimal repro with the same
//! [`ddmin`] used by the executor differential, reusing [`WeightRow`] with
//! `row` meaning output column (dense) or output channel (conv).

use crate::differential::{ddmin, WeightRow};
use dante_circuit::units::Volt;
use dante_nn::batched::{trial_correct_count, BatchedScratch, CleanForward, LayerWork};
use dante_nn::layers::Layer;
use dante_nn::network::Network;
use dante_nn::quant::ScaledQuantizer;
use dante_sim::{derive_seed, site};
use dante_sram::fault::VminFaultModel;
use dante_sram::storage::FaultOverlay;

/// Quantizes an `f32` buffer to 16-bit codes, optionally passes the packed
/// codes through a fault die, and dequantizes back in place; true when any
/// code changed.
pub(crate) fn corrupt_quantized(
    values: &mut [f32],
    die: Option<(&VminFaultModel, Volt, u64)>,
) -> bool {
    let mut tensor = ScaledQuantizer::weight_default().quantize(values);
    let mut changed = false;
    if let Some((model, v, seed)) = die {
        let before = tensor.codes().to_vec();
        let mut words = tensor.to_packed_words();
        let overlay = FaultOverlay::from_seed(tensor.bit_len(), model, seed);
        overlay.apply(&mut words, v);
        tensor.load_packed_words(&words);
        changed = tensor.codes() != before.as_slice();
    }
    values.copy_from_slice(&tensor.to_f32());
    changed
}

/// The quantize→dequantize round-trip of `net`'s weight layers: the clean
/// baseline every corrupted trial is diffed against. [`corrupt_weights`]
/// at a safe voltage reproduces this network exactly.
#[must_use]
pub fn quantized_baseline(net: &Network) -> Network {
    net.map_weight_layers(|_, layer| {
        let mut layer = layer.clone();
        match &mut layer {
            Layer::Dense(d) => {
                let _ = corrupt_quantized(d.weights_mut().as_mut_slice(), None);
            }
            Layer::Conv2d(c) => {
                let _ = corrupt_quantized(c.weights_mut(), None);
            }
            other => panic!("unexpected weight layer kind: {other:?}"),
        }
        layer
    })
}

/// Returns a copy of `net` whose quantized weight codes went through one
/// fault die at `v`: weight layer `pos` draws its overlay from
/// `derive_seed(trial_seed, site::WEIGHT_LAYER, pos)`, mirroring the
/// Monte-Carlo evaluator's seed tree. Diff against [`quantized_baseline`],
/// not the original float network.
#[must_use]
pub fn corrupt_weights(net: &Network, model: &VminFaultModel, v: Volt, trial_seed: u64) -> Network {
    net.map_weight_layers(|pos, layer| {
        let seed = derive_seed(trial_seed, site::WEIGHT_LAYER, pos as u64);
        let mut layer = layer.clone();
        match &mut layer {
            Layer::Dense(d) => {
                let _ = corrupt_quantized(d.weights_mut().as_mut_slice(), Some((model, v, seed)));
            }
            Layer::Conv2d(c) => {
                let _ = corrupt_quantized(c.weights_mut(), Some((model, v, seed)));
            }
            other => panic!("unexpected weight layer kind: {other:?}"),
        }
        layer
    })
}

/// The quantize→dequantize round-trip of an image buffer (per image, so
/// each image's scale is independent): the clean-input baseline.
#[must_use]
pub fn quantized_input_baseline(inputs: &[f32], in_len: usize) -> Vec<f32> {
    let mut out = inputs.to_vec();
    for chunk in out.chunks_mut(in_len) {
        let _ = corrupt_quantized(chunk, None);
    }
    out
}

/// Returns the images passed code-by-code through a fault die at `v`
/// (seeded from `site::INPUTS` per image), plus the sorted list of images
/// whose codes actually flipped — exactly the `dirty_images` contract of
/// [`trial_correct_count`]. Rows not listed equal
/// [`quantized_input_baseline`] bitwise.
#[must_use]
pub fn corrupt_inputs(
    inputs: &[f32],
    in_len: usize,
    model: &VminFaultModel,
    v: Volt,
    trial_seed: u64,
) -> (Vec<f32>, Vec<usize>) {
    let mut out = inputs.to_vec();
    let mut dirty = Vec::new();
    for (img, chunk) in out.chunks_mut(in_len).enumerate() {
        let seed = derive_seed(trial_seed, site::INPUTS, img as u64);
        if corrupt_quantized(chunk, Some((model, v, seed))) {
            dirty.push(img);
        }
    }
    (out, dirty)
}

/// The corrupted weight units of `corrupted` relative to `clean`: one
/// [`WeightRow`] per dense output column / conv output channel whose
/// weights differ bitwise, in depth order. This is the localization the
/// batched evaluator derives from its overlay undo log — recomputed here
/// independently, from the tensors themselves.
///
/// # Panics
///
/// Panics if the two networks' layer kinds mismatch.
#[must_use]
pub fn corrupted_units(clean: &Network, corrupted: &Network) -> Vec<WeightRow> {
    let mut units = Vec::new();
    for (pos, &li) in clean.weight_layer_indices().iter().enumerate() {
        match (&clean.layers()[li], &corrupted.layers()[li]) {
            (Layer::Dense(a), Layer::Dense(b)) => {
                let (in_l, out_l) = a.weights().dims();
                for u in 0..out_l {
                    if (0..in_l)
                        .any(|r| a.weights().get(r, u).to_bits() != b.weights().get(r, u).to_bits())
                    {
                        units.push(WeightRow { layer: pos, row: u });
                    }
                }
            }
            (Layer::Conv2d(a), Layer::Conv2d(b)) => {
                let out_c = a.out_shape().c;
                let per_ch = a.weights().len() / out_c;
                for u in 0..out_c {
                    let span = u * per_ch..(u + 1) * per_ch;
                    if a.weights()[span.clone()]
                        .iter()
                        .zip(&b.weights()[span])
                        .any(|(x, y)| x.to_bits() != y.to_bits())
                    {
                        units.push(WeightRow { layer: pos, row: u });
                    }
                }
            }
            _ => panic!("weight layer kind mismatch at layer {li}"),
        }
    }
    units
}

/// A copy of `clean` with the given units replaced by their `corrupted`
/// counterparts — the hybrid network ddmin evaluates.
///
/// # Panics
///
/// Panics if the networks mismatch in shape or a unit is out of range.
#[must_use]
pub fn apply_units(clean: &Network, corrupted: &Network, units: &[WeightRow]) -> Network {
    let idxs = clean.weight_layer_indices();
    let mut hybrid = clean.clone();
    for wr in units {
        let li = idxs[wr.layer];
        let src = &corrupted.layers()[li];
        match (&mut hybrid.layers_mut()[li], src) {
            (Layer::Dense(h), Layer::Dense(s)) => {
                let (in_l, _) = s.weights().dims();
                for r in 0..in_l {
                    h.weights_mut().set(r, wr.row, s.weights().get(r, wr.row));
                }
            }
            (Layer::Conv2d(h), Layer::Conv2d(s)) => {
                let out_c = s.out_shape().c;
                let per_ch = s.weights().len() / out_c;
                let span = wr.row * per_ch..(wr.row + 1) * per_ch;
                h.weights_mut()[span.clone()].copy_from_slice(&s.weights()[span]);
            }
            _ => panic!("weight layer kind mismatch at layer {li}"),
        }
    }
    hybrid
}

/// The scalar reference: [`Network::accuracy`]'s correct-prediction count.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn scalar_count(net: &Network, inputs: &[f32], labels: &[u8]) -> usize {
    (net.accuracy(inputs, labels) * labels.len() as f64).round() as usize
}

/// Outcome of one batched-vs-scalar comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForwardCheck {
    /// The scalar path's correct count.
    pub scalar: usize,
    /// The batched path's count with [`LayerWork::Full`] at the first dirty
    /// layer.
    pub batched_full: usize,
    /// The batched path's count with the damage localized to the first
    /// dirty layer's columns/channels (`None` when no weights were dirty,
    /// so there is nothing to localize).
    pub batched_localized: Option<usize>,
}

impl ForwardCheck {
    /// Whether every batched variant agreed with the scalar reference.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.batched_full == self.scalar
            && self.batched_localized.unwrap_or(self.scalar) == self.scalar
    }
}

/// Runs the scalar path and every applicable batched variant on one
/// corrupted trial and reports all three counts.
///
/// `clean_inputs` are the images the activation cache is built from;
/// `trial_inputs` may differ on exactly the rows listed in `dirty_images`
/// (sorted, deduped) — [`corrupt_inputs`] produces such a pair.
///
/// # Panics
///
/// Panics on buffer length mismatches (see [`trial_correct_count`]).
#[must_use]
pub fn check_batched(
    clean: &Network,
    corrupted: &Network,
    clean_inputs: &[f32],
    trial_inputs: &[f32],
    dirty_images: &[usize],
    labels: &[u8],
    cache_budget: usize,
) -> ForwardCheck {
    let cache = CleanForward::with_cache_budget(clean, clean_inputs, labels, cache_budget);
    let mut scratch = BatchedScratch::new();
    let units = corrupted_units(clean, corrupted);

    let scalar = scalar_count(corrupted, trial_inputs, labels);

    let idxs = clean.weight_layer_indices();
    let first = units.first().map(|u| idxs[u.layer]);
    let batched_full = trial_correct_count(
        corrupted,
        &cache,
        labels,
        trial_inputs,
        dirty_images,
        first.map(|l0| (l0, LayerWork::Full)),
        &mut scratch,
    );

    let batched_localized = first.map(|l0| {
        let first_pos = units[0].layer;
        let local: Vec<usize> = units
            .iter()
            .filter(|u| u.layer == first_pos)
            .map(|u| u.row)
            .collect();
        let work = match &clean.layers()[l0] {
            Layer::Dense(_) => LayerWork::DenseColumns(&local),
            Layer::Conv2d(_) => LayerWork::ConvChannels(&local),
            other => panic!("unexpected weight layer kind: {other:?}"),
        };
        trial_correct_count(
            corrupted,
            &cache,
            labels,
            trial_inputs,
            dirty_images,
            Some((l0, work)),
            &mut scratch,
        )
    });

    ForwardCheck {
        scalar,
        batched_full,
        batched_localized,
    }
}

/// Configuration of a batched-vs-scalar differential run.
#[derive(Debug, Clone)]
pub struct ForwardDiffConfig {
    /// Monte-Carlo trials (one fault die each).
    pub trials: usize,
    /// Effective rail voltage of the weight bit image.
    pub weight_voltage: Volt,
    /// Effective rail voltage of the input bit image.
    pub input_voltage: Volt,
    /// Root seed; trial `t` derives its die from
    /// `derive_seed(seed, site::DIFF_TRIAL, t)`.
    pub seed: u64,
    /// The cell-`V_min` fault model.
    pub model: VminFaultModel,
    /// Activation-cache budget in `f32` elements (exercises the light-cache
    /// fallback when small).
    pub cache_budget: usize,
}

impl Default for ForwardDiffConfig {
    /// Voltages deep enough that every trial corrupts both weights and a
    /// few input images under the calibrated 14nm model.
    fn default() -> Self {
        Self {
            trials: 8,
            weight_voltage: Volt::new(0.40),
            input_voltage: Volt::new(0.42),
            seed: 0xF0D1FF,
            model: VminFaultModel::default_14nm(),
            cache_budget: dante_nn::batched::DEFAULT_CACHE_BUDGET,
        }
    }
}

/// One disagreeing trial of [`run_forward_differential`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForwardDivergence {
    /// Trial index within the run.
    pub trial: usize,
    /// The derived trial seed (replays the dies exactly).
    pub trial_seed: u64,
    /// The full comparison record.
    pub check: ForwardCheck,
}

/// Outcome of a batched-vs-scalar differential run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForwardDiffReport {
    /// Trials executed.
    pub trials: usize,
    /// Every disagreeing trial (empty on agreement).
    pub divergences: Vec<ForwardDivergence>,
}

impl ForwardDiffReport {
    /// Whether every trial agreed exactly.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }

    /// Human-readable account of the divergences.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "{} divergence(s) across {} forward differential trial(s)\n",
            self.divergences.len(),
            self.trials
        );
        for d in &self.divergences {
            let _ = writeln!(
                out,
                "  trial {} (seed {:#018x}): scalar {} vs batched full {} / localized {:?}",
                d.trial,
                d.trial_seed,
                d.check.scalar,
                d.check.batched_full,
                d.check.batched_localized
            );
        }
        out
    }
}

/// The full acceptance run: `config.trials` trials, each corrupting the
/// network's weights and the input images with fresh derived dies, then
/// demanding exact scalar/batched agreement on every variant.
///
/// # Panics
///
/// Panics if `config.trials` is zero or the buffers mismatch the network.
#[must_use]
pub fn run_forward_differential(
    net: &Network,
    inputs: &[f32],
    labels: &[u8],
    config: &ForwardDiffConfig,
) -> ForwardDiffReport {
    assert!(config.trials > 0, "differential run needs trials");
    let clean = quantized_baseline(net);
    let clean_inputs = quantized_input_baseline(inputs, net.in_len());
    let mut divergences = Vec::new();
    for trial in 0..config.trials {
        let trial_seed = derive_seed(config.seed, site::DIFF_TRIAL, trial as u64);
        let corrupted = corrupt_weights(net, &config.model, config.weight_voltage, trial_seed);
        let (trial_inputs, dirty) = corrupt_inputs(
            inputs,
            net.in_len(),
            &config.model,
            config.input_voltage,
            trial_seed,
        );
        let check = check_batched(
            &clean,
            &corrupted,
            &clean_inputs,
            &trial_inputs,
            &dirty,
            labels,
            config.cache_budget,
        );
        if !check.is_clean() {
            divergences.push(ForwardDivergence {
                trial,
                trial_seed,
                check,
            });
        }
    }
    ForwardDiffReport {
        trials: config.trials,
        divergences,
    }
}

/// Shrinks the corruption of `corrupted` (relative to `clean`) to a
/// 1-minimal set of weight units on which `diverges` still fires, by
/// [`ddmin`] over [`corrupted_units`]. Returns `None` when the full
/// corruption does not trigger `diverges` at all.
///
/// The batched-vs-scalar specialization passes
/// `|hybrid| !check_batched(clean, hybrid, ...).is_clean()` — any evaluator
/// mismatch then arrives as a handful of weight units, not a whole die.
#[must_use]
pub fn minimize_units(
    clean: &Network,
    corrupted: &Network,
    diverges: impl Fn(&Network) -> bool,
) -> Option<Vec<WeightRow>> {
    let units = corrupted_units(clean, corrupted);
    if units.is_empty() || !diverges(&apply_units(clean, corrupted, &units)) {
        return None;
    }
    Some(ddmin(&units, |subset| {
        diverges(&apply_units(clean, corrupted, subset))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dante_nn::layers::{Conv2d, Dense, MaxPool2d, Relu, Shape3};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fc_net(in_len: usize, hidden: usize, classes: usize, seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        Network::new(vec![
            Layer::Dense(Dense::new(in_len, hidden, &mut rng)),
            Layer::Relu(Relu::new(hidden)),
            Layer::Dense(Dense::new(hidden, hidden, &mut rng)),
            Layer::Relu(Relu::new(hidden)),
            Layer::Dense(Dense::new(hidden, classes, &mut rng)),
        ])
        .expect("valid net")
    }

    fn conv_net(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        Network::new(vec![
            Layer::Conv2d(Conv2d::new(Shape3::new(1, 8, 8), 4, 3, 1, &mut rng)),
            Layer::Relu(Relu::new(4 * 64)),
            Layer::MaxPool2d(MaxPool2d::new(Shape3::new(4, 8, 8))),
            Layer::Dense(Dense::new(4 * 16, 3, &mut rng)),
        ])
        .expect("valid net")
    }

    fn dataset(rng: &mut StdRng, n: usize, in_len: usize, classes: u8) -> (Vec<f32>, Vec<u8>) {
        let inputs = (0..n * in_len).map(|_| rng.gen::<f32>()).collect();
        let labels = (0..n).map(|_| rng.gen::<u8>() % classes).collect();
        (inputs, labels)
    }

    #[test]
    fn differential_is_clean_across_shapes_and_batch_sizes() {
        let mut rng = StdRng::seed_from_u64(40);
        let config = ForwardDiffConfig {
            trials: 4,
            ..ForwardDiffConfig::default()
        };
        // Batch sizes straddle the internal 256-image chunk; shapes vary
        // the in/hidden/out widths past the GEMM kernels' tile remainders.
        for (in_len, hidden, classes, n) in [
            (12, 9, 4, 1),
            (17, 23, 5, 37),
            (12, 16, 4, 256),
            (9, 11, 3, 300),
        ] {
            let net = fc_net(in_len, hidden, classes, 50 + n as u64);
            let (inputs, labels) = dataset(&mut rng, n, in_len, classes as u8);
            let report = run_forward_differential(&net, &inputs, &labels, &config);
            assert!(
                report.is_clean(),
                "fc {in_len}x{hidden}x{classes} n={n}: {}",
                report.render()
            );
        }
    }

    #[test]
    fn differential_is_clean_on_conv_networks() {
        let mut rng = StdRng::seed_from_u64(41);
        let net = conv_net(60);
        let (inputs, labels) = dataset(&mut rng, 48, net.in_len(), 3);
        let config = ForwardDiffConfig {
            trials: 4,
            ..ForwardDiffConfig::default()
        };
        let report = run_forward_differential(&net, &inputs, &labels, &config);
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn differential_is_clean_under_the_light_cache_fallback() {
        let mut rng = StdRng::seed_from_u64(42);
        let net = fc_net(12, 9, 4, 70);
        let (inputs, labels) = dataset(&mut rng, 90, 12, 4);
        let config = ForwardDiffConfig {
            trials: 4,
            cache_budget: 0,
            ..ForwardDiffConfig::default()
        };
        let report = run_forward_differential(&net, &inputs, &labels, &config);
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn corruption_is_a_pure_function_of_its_seed() {
        let net = fc_net(12, 9, 4, 80);
        let base = quantized_baseline(&net);
        let model = VminFaultModel::default_14nm();
        let v = Volt::new(0.40);
        let a = corrupt_weights(&net, &model, v, 7);
        let b = corrupt_weights(&net, &model, v, 7);
        assert_eq!(corrupted_units(&a, &b), Vec::new());
        assert!(!corrupted_units(&base, &a).is_empty());
        // At a safe voltage nothing flips: the baseline round-trip exactly.
        let clean = corrupt_weights(&net, &model, Volt::new(0.60), 7);
        assert_eq!(corrupted_units(&base, &clean), Vec::new());
    }

    #[test]
    fn corrupt_inputs_reports_exactly_the_flipped_images() {
        let mut rng = StdRng::seed_from_u64(43);
        let (inputs, _) = dataset(&mut rng, 60, 12, 4);
        let model = VminFaultModel::default_14nm();
        let base = quantized_input_baseline(&inputs, 12);
        let (faulty, dirty) = corrupt_inputs(&inputs, 12, &model, Volt::new(0.40), 5);
        assert!(!dirty.is_empty(), "0.40 V should flip some image bits");
        assert!(dirty.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
        for img in 0..60 {
            let span = img * 12..(img + 1) * 12;
            let differs = base[span.clone()]
                .iter()
                .zip(&faulty[span])
                .any(|(a, b)| a.to_bits() != b.to_bits());
            assert_eq!(differs, dirty.contains(&img), "image {img}");
        }
    }

    #[test]
    fn hybrid_units_round_trip() {
        let net = fc_net(12, 9, 4, 90);
        let base = quantized_baseline(&net);
        let model = VminFaultModel::default_14nm();
        let corrupted = corrupt_weights(&net, &model, Volt::new(0.40), 3);
        let units = corrupted_units(&base, &corrupted);
        assert!(!units.is_empty());
        // All units -> the corrupted network; no units -> the clean one.
        let all = apply_units(&base, &corrupted, &units);
        assert_eq!(corrupted_units(&all, &corrupted), Vec::new());
        let none = apply_units(&base, &corrupted, &[]);
        assert_eq!(corrupted_units(&base, &none), Vec::new());
    }

    #[test]
    fn minimizer_shrinks_an_accuracy_flip_to_one_minimal_units() {
        let mut rng = StdRng::seed_from_u64(44);
        let net = fc_net(12, 9, 4, 100);
        let base = quantized_baseline(&net);
        let (inputs, labels) = dataset(&mut rng, 40, 12, 4);
        let model = VminFaultModel::default_14nm();
        let clean_count = scalar_count(&base, &inputs, &labels);

        // Find a die that changes the correct count at deep VLV
        // (deterministic: the first qualifying seed is always the same).
        let corrupted = (0..64)
            .map(|s| corrupt_weights(&net, &model, Volt::new(0.36), s))
            .find(|c| scalar_count(c, &inputs, &labels) != clean_count)
            .expect("some die in 64 changes the count at 0.36 V");

        let diverges = |p: &Network| scalar_count(p, &inputs, &labels) != clean_count;
        let minimal =
            minimize_units(&base, &corrupted, diverges).expect("full corruption changes the count");
        assert!(!minimal.is_empty());
        assert!(diverges(&apply_units(&base, &corrupted, &minimal)));
        // 1-minimal: dropping any single unit loses the repro.
        for skip in 0..minimal.len() {
            let reduced: Vec<WeightRow> = minimal
                .iter()
                .enumerate()
                .filter_map(|(i, &u)| (i != skip).then_some(u))
                .collect();
            if reduced.is_empty() {
                continue;
            }
            assert!(
                !diverges(&apply_units(&base, &corrupted, &reduced)),
                "unit {skip} was removable"
            );
        }
    }

    #[test]
    fn divergence_report_renders_replay_information() {
        let report = ForwardDiffReport {
            trials: 4,
            divergences: vec![ForwardDivergence {
                trial: 1,
                trial_seed: 0xBEEF,
                check: ForwardCheck {
                    scalar: 30,
                    batched_full: 29,
                    batched_localized: Some(31),
                },
            }],
        };
        let text = report.render();
        assert!(text.contains("trial 1"), "{text}");
        assert!(text.contains("scalar 30"), "{text}");
        assert!(text.contains("0x000000000000beef"), "{text}");
    }
}
