//! Differential executor checking: the cycle-level `dante-accel` executor
//! and an independent reference implementation of the compiled fixed-point
//! math are run side by side on identical fault-corrupted programs, and
//! every stage's output codes must agree bit-exactly.
//!
//! Why this catches bugs: the executor models DMA tiling, packed-word
//! memory traffic, ping-pong activation regions, and boost scheduling; the
//! reference below does none of that — it walks the quantized layers
//! directly, and deliberately iterates every MAC reduction in *reverse*
//! order. Because the datapath accumulates exactly in `i64`, reduction
//! order must not matter; any disagreement pins down the first diverging
//! `(trial, layer, element)`. Fault overlays are drawn per trial from
//! [`dante_sim::derive_seed`] under [`dante_sim::site::DIFF_TRIAL`], so
//! every divergence is replayable from `(root seed, trial index)` alone.
//!
//! When a divergence *does* surface, [`minimize_corruption`] shrinks the
//! set of corrupted weight rows to a 1-minimal repro with classic ddmin
//! delta debugging, so the failing configuration is a handful of rows
//! rather than an entire corrupted bit image.

use crate::dense::FaultOverlay;
use dante_accel::executor::InferenceTrace;
use dante_accel::{BoostSchedule, ChipConfig, Dante, Program};
use dante_circuit::units::Volt;
use dante_sim::{derive_seed, site, TrialEngine};
use dante_sram::fault::VminFaultModel;

/// Packs activation codes exactly as the accelerator's memories do: four
/// 16-bit lanes per 64-bit word, lane 0 in the low bits.
fn pack_codes(codes: &[i16]) -> Vec<u64> {
    codes
        .chunks(4)
        .map(|chunk| {
            let mut word = 0u64;
            for (lane, &c) in chunk.iter().enumerate() {
                word |= u64::from(c as u16) << (16 * lane);
            }
            word
        })
        .collect()
}

fn unpack_codes(words: &[u64], len: usize) -> Vec<i16> {
    let mut out = Vec::with_capacity(len);
    for &word in words {
        for lane in 0..4 {
            if out.len() < len {
                out.push(((word >> (16 * lane)) & 0xFFFF) as u16 as i16);
            }
        }
    }
    out
}

/// Independent re-implementation of the PE's rounding requantization
/// (round half away from zero, saturate to `i16`), written from the
/// datapath definition rather than shared with `dante-accel`.
fn ref_requantize(acc: i64, multiplier: i32, shift: u32) -> i16 {
    let prod = i128::from(acc) * i128::from(multiplier);
    let half = if shift == 0 { 0 } else { 1i128 << (shift - 1) };
    let rounded = if prod >= 0 {
        (prod + half) >> shift
    } else {
        -((-prod + half) >> shift)
    };
    rounded.clamp(i128::from(i16::MIN), i128::from(i16::MAX)) as i16
}

/// Reference forward pass over a compiled program: returns the output codes
/// of every stage, computed straight from the quantized layer parameters
/// with reverse-order reductions.
///
/// # Panics
///
/// Panics if `sample.len()` mismatches the program's input length.
#[must_use]
pub fn reference_forward(program: &Program, sample: &[f32]) -> Vec<Vec<i16>> {
    use dante_accel::program::CompiledLayer;

    let mut x = program.quantize_input(sample);
    let mut stages = Vec::with_capacity(program.layers().len());
    for layer in program.layers() {
        let out: Vec<i16> = match layer {
            // A dense stage is the 1x1 kernel over a 1x1 map, so this
            // one convolution walk covers both.
            CompiledLayer::Weights(stage) => {
                let (m, s) = stage.requant();
                let codes = stage.weights().codes();
                let (c_in, h, w) = stage.in_shape();
                let (k, p) = (stage.kernel(), stage.padding());
                let (oh, ow) = (stage.out_h(), stage.out_w());
                let row_len = stage.row_len();
                let mut out = vec![0i16; stage.out_len()];
                for ch in 0..stage.out_channels() {
                    let w_row = &codes[ch * row_len..(ch + 1) * row_len];
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let mut acc = stage.bias_acc()[ch];
                            for ic in (0..c_in).rev() {
                                for ky in (0..k).rev() {
                                    let iy = oy + ky;
                                    if iy < p || iy - p >= h {
                                        continue;
                                    }
                                    let iy = iy - p;
                                    for kx in (0..k).rev() {
                                        let ix = ox + kx;
                                        if ix < p || ix - p >= w {
                                            continue;
                                        }
                                        let ix = ix - p;
                                        acc += i64::from(w_row[(ic * k + ky) * k + kx] as i16)
                                            * i64::from(x[(ic * h + iy) * w + ix]);
                                    }
                                }
                            }
                            let code = ref_requantize(acc, m, s);
                            out[(ch * oh + oy) * ow + ox] =
                                if stage.relu() { code.max(0) } else { code };
                        }
                    }
                }
                out
            }
            CompiledLayer::Pool(pool) => {
                let (c, h, w) = (pool.channels, pool.in_h, pool.in_w);
                let (oh, ow) = (h / 2, w / 2);
                let mut out = Vec::with_capacity(pool.out_len());
                for ch in 0..c {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let mut best = i16::MIN;
                            for dy in 0..2 {
                                for dx in 0..2 {
                                    best = best.max(x[(ch * h + oy * 2 + dy) * w + ox * 2 + dx]);
                                }
                            }
                            out.push(best);
                        }
                    }
                }
                out
            }
        };
        x = out.clone();
        stages.push(out);
    }
    stages
}

/// Configuration of a differential run.
#[derive(Debug, Clone)]
pub struct DiffConfig {
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
}

impl Default for DiffConfig {
    /// The acceptance defaults: voltages deep enough that every trial
    /// injects real corruption (BER ~1e-1 at 0.40 V for weights, ~1.4e-2 at
    /// 0.44 V for inputs) under the calibrated 14nm model.
    fn default() -> Self {
        Self {
            trials: 8,
            weight_voltage: Volt::new(0.40),
            input_voltage: Volt::new(0.44),
            seed: 0xD1FF,
            model: VminFaultModel::default_14nm(),
        }
    }
}

/// The first point where the executor and the reference disagreed.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Trial index within the run.
    pub trial: usize,
    /// The derived trial seed (replays the fault die exactly).
    pub trial_seed: u64,
    /// Stage index (compiled-layer order).
    pub layer: usize,
    /// First diverging element within the stage output.
    pub index: usize,
    /// The executor's code.
    pub accel: i16,
    /// The reference's code.
    pub reference: i16,
}

/// Outcome of a differential run.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Trials executed.
    pub trials: usize,
    /// Every divergence found (empty on agreement).
    pub divergences: Vec<Divergence>,
}

impl DiffReport {
    /// Whether every trial agreed bit-exactly.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.divergences.is_empty()
    }

    /// Human-readable account of the divergences.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "{} divergence(s) across {} differential trial(s)\n",
            self.divergences.len(),
            self.trials
        );
        for d in &self.divergences {
            let _ = writeln!(
                out,
                "  trial {} (seed {:#018x}): layer {} element {}: accel {} vs reference {}",
                d.trial, d.trial_seed, d.layer, d.index, d.accel, d.reference
            );
        }
        out
    }
}

/// Returns a copy of `program` whose packed weight bit image went through
/// one fault die at `v`, mirroring `dante`'s Monte-Carlo evaluator: weight
/// stage `pos` draws its overlay from
/// `derive_seed(trial_seed, site::WEIGHT_LAYER, pos)`.
#[must_use]
pub fn corrupt_program(
    program: &Program,
    model: &VminFaultModel,
    v: Volt,
    trial_seed: u64,
) -> Program {
    program.map_weight_tensors(|pos, tensor| {
        let layer_seed = derive_seed(trial_seed, site::WEIGHT_LAYER, pos as u64);
        let overlay = FaultOverlay::from_seed(tensor.bit_len(), model, layer_seed);
        let mut words = tensor.to_packed_words();
        overlay.apply(&mut words, v);
        tensor.load_packed_words(&words);
    })
}

/// Returns a corrupted copy of an input sample: the sample is quantized to
/// the program's input codes, the packed image goes through one fault die
/// at `v` (seeded from `site::INPUTS`, as in the Monte-Carlo evaluator),
/// and the corrupted codes are dequantized back to `f32`. Requantizing the
/// result reproduces the corrupted codes exactly, so the executor and the
/// reference both see the identical faulty bit image.
#[must_use]
pub fn corrupt_sample(
    program: &Program,
    sample: &[f32],
    model: &VminFaultModel,
    v: Volt,
    trial_seed: u64,
) -> Vec<f32> {
    let codes = program.quantize_input(sample);
    let mut words = pack_codes(&codes);
    let overlay = FaultOverlay::from_seed(
        codes.len() * 16,
        model,
        derive_seed(trial_seed, site::INPUTS, 0),
    );
    overlay.apply(&mut words, v);
    let corrupted = unpack_codes(&words, codes.len());
    let scale = program.input_scale();
    corrupted.iter().map(|&c| f32::from(c) * scale).collect()
}

/// Runs `program` on a fault-free accelerator and on the reference math,
/// returning the first divergence (if any). The final float logits are also
/// cross-checked, tolerance-banded because the dequantization is the only
/// float step: `|q - r| <= 1e-5 * max(1, |r|)`.
///
/// # Panics
///
/// Panics if the float logits disagree beyond the band while the integer
/// codes agree — that would mean the dequantization itself diverged.
#[must_use]
pub fn check_program(
    program: &Program,
    sample: &[f32],
    trial: usize,
    trial_seed: u64,
) -> Option<Divergence> {
    let mut dante = Dante::fault_free(ChipConfig::dante(), Volt::new(0.5));
    let schedule = BoostSchedule::uniform(0, program.weight_layer_count(), 0);
    let trace: InferenceTrace = dante.run_traced(program, &schedule, sample);
    let reference = reference_forward(program, sample);

    assert_eq!(trace.layer_codes.len(), reference.len(), "stage count");
    for (layer, (accel, refc)) in trace.layer_codes.iter().zip(&reference).enumerate() {
        if accel == refc {
            continue;
        }
        let (index, (&a, &r)) = accel
            .iter()
            .zip(refc)
            .enumerate()
            .find(|(_, (a, r))| a != r)
            .expect("unequal stage outputs contain a differing element");
        return Some(Divergence {
            trial,
            trial_seed,
            layer,
            index,
            accel: a,
            reference: r,
        });
    }

    // Integer codes agree; the dequantized logits must too (banded for the
    // single float multiply).
    let scale = program.logit_scale();
    let last = reference.last().expect("non-empty program");
    for (q, &c) in trace.result.logits.iter().zip(last) {
        let r = f32::from(c) * scale;
        assert!(
            (q - r).abs() <= 1e-5 * r.abs().max(1.0),
            "float logit diverged with matching codes: {q} vs {r}"
        );
    }
    None
}

/// The full differential acceptance run: `config.trials` trials on the
/// shared [`TrialEngine`], each corrupting the program's weights and a
/// synthetic input sample with a fresh derived die, then demanding
/// bit-exact executor/reference agreement on every stage.
///
/// # Panics
///
/// Panics if `config.trials` is zero or the program has no layers.
#[must_use]
pub fn run_differential(program: &Program, config: &DiffConfig) -> DiffReport {
    assert!(config.trials > 0, "differential run needs trials");
    let in_len = program.in_len();
    let engine = TrialEngine::from_env();
    let divergences: Vec<Option<Divergence>> = engine.run(config.trials, |trial| {
        let trial_seed = derive_seed(config.seed, site::DIFF_TRIAL, trial as u64);
        // A deterministic per-trial sample spanning the input range.
        let sample: Vec<f32> = (0..in_len)
            .map(|i| ((i * 7 + trial * 13) % 23) as f32 / 23.0)
            .collect();
        let corrupted = corrupt_program(program, &config.model, config.weight_voltage, trial_seed);
        let faulty_sample = corrupt_sample(
            program,
            &sample,
            &config.model,
            config.input_voltage,
            trial_seed,
        );
        check_program(&corrupted, &faulty_sample, trial, trial_seed)
    });
    DiffReport {
        trials: config.trials,
        divergences: divergences.into_iter().flatten().collect(),
    }
}

/// One corrupted weight row: weight stage `layer` (execution order), output
/// row `row` — the DMA granule the executor tiles by, which makes it the
/// natural unit for shrinking a repro.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightRow {
    /// Weight-stage position.
    pub layer: usize,
    /// Output channel index (a dense stage's output neuron).
    pub row: usize,
}

fn row_len_of(program: &Program, stage: usize) -> (usize, usize) {
    use dante_accel::program::CompiledLayer;
    let mut pos = 0usize;
    for layer in program.layers() {
        if let CompiledLayer::Weights(weights) = layer {
            if pos == stage {
                return (weights.out_channels(), weights.row_len());
            }
            pos += 1;
        }
    }
    panic!("weight stage {stage} out of range");
}

/// The weight rows whose codes differ between `clean` and `corrupted`.
///
/// # Panics
///
/// Panics if the two programs have different shapes.
#[must_use]
pub fn corrupted_rows(clean: &Program, corrupted: &Program) -> Vec<WeightRow> {
    let mut rows = Vec::new();
    let mut clean_tensors = Vec::new();
    let _ = clean.map_weight_tensors(|_, t| clean_tensors.push(t.clone()));
    let _ = corrupted.map_weight_tensors(|pos, t| {
        let base = &clean_tensors[pos];
        assert_eq!(base.len(), t.len(), "program shape mismatch");
        let (out_rows, row_len) = row_len_of(clean, pos);
        assert_eq!(out_rows * row_len, t.len(), "row geometry mismatch");
        for row in 0..out_rows {
            let span = row * row_len..(row + 1) * row_len;
            if base.codes()[span.clone()] != t.codes()[span] {
                rows.push(WeightRow { layer: pos, row });
            }
        }
    });
    rows
}

/// A copy of `clean` with the given rows replaced by their `corrupted`
/// counterparts — the hybrid program ddmin evaluates.
///
/// # Panics
///
/// Panics if the programs mismatch in shape or a row is out of range.
#[must_use]
pub fn apply_rows(clean: &Program, corrupted: &Program, rows: &[WeightRow]) -> Program {
    let mut corrupted_tensors = Vec::new();
    let _ = corrupted.map_weight_tensors(|_, t| corrupted_tensors.push(t.clone()));
    clean.map_weight_tensors(|pos, tensor| {
        let (_, row_len) = row_len_of(clean, pos);
        let src = &corrupted_tensors[pos];
        for wr in rows.iter().filter(|wr| wr.layer == pos) {
            for i in wr.row * row_len..(wr.row + 1) * row_len {
                tensor.set_code(i, src.codes()[i]);
            }
        }
    })
}

/// Classic ddmin delta debugging: shrinks `items` to a 1-minimal subset on
/// which `fails` still returns `true` (removing any single element makes it
/// pass). `fails` must hold on the full set.
///
/// # Panics
///
/// Panics if `fails(items)` is `false` — there is nothing to minimize.
pub fn ddmin<T: Clone>(items: &[T], fails: impl Fn(&[T]) -> bool) -> Vec<T> {
    assert!(fails(items), "ddmin needs a failing starting set");
    let mut current: Vec<T> = items.to_vec();
    let mut granularity = 2usize;
    while current.len() >= 2 {
        let chunk = current.len().div_ceil(granularity);
        let mut reduced = false;
        // Try each complement (drop one chunk at a time).
        let mut start = 0usize;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let complement: Vec<T> = current[..start]
                .iter()
                .chain(&current[end..])
                .cloned()
                .collect();
            if !complement.is_empty() && fails(&complement) {
                current = complement;
                granularity = granularity.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if granularity >= current.len() {
                break;
            }
            granularity = (granularity * 2).min(current.len());
        }
    }
    current
}

/// Shrinks the corruption of `corrupted` (relative to `clean`) to a
/// 1-minimal set of weight rows on which `diverges` still fires, by ddmin
/// over the corrupted rows. Returns `None` when the full corruption does
/// not trigger `diverges` at all.
#[must_use]
pub fn minimize_corruption(
    clean: &Program,
    corrupted: &Program,
    diverges: impl Fn(&Program) -> bool,
) -> Option<Vec<WeightRow>> {
    let rows = corrupted_rows(clean, corrupted);
    if rows.is_empty() || !diverges(&apply_rows(clean, corrupted, &rows)) {
        return None;
    }
    Some(ddmin(&rows, |subset| {
        diverges(&apply_rows(clean, corrupted, subset))
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dante_nn::layers::{Conv2d, Dense, Layer, MaxPool2d, Relu, Shape3};
    use dante_nn::network::Network;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fc_program() -> Program {
        let mut rng = StdRng::seed_from_u64(3);
        let net = Network::new(vec![
            Layer::Dense(Dense::new(16, 12, &mut rng)),
            Layer::Relu(Relu::new(12)),
            Layer::Dense(Dense::new(12, 4, &mut rng)),
        ])
        .unwrap();
        let calib: Vec<f32> = (0..16 * 8).map(|i| ((i * 13) % 17) as f32 / 17.0).collect();
        Program::compile(&net, &calib).unwrap()
    }

    fn conv_program() -> Program {
        let mut rng = StdRng::seed_from_u64(23);
        let net = Network::new(vec![
            Layer::Conv2d(Conv2d::new(Shape3::new(1, 8, 8), 4, 3, 1, &mut rng)),
            Layer::Relu(Relu::new(4 * 64)),
            Layer::MaxPool2d(MaxPool2d::new(Shape3::new(4, 8, 8))),
            Layer::Dense(Dense::new(64, 5, &mut rng)),
        ])
        .unwrap();
        let calib: Vec<f32> = (0..64 * 4).map(|i| ((i * 11) % 17) as f32 / 17.0).collect();
        Program::compile(&net, &calib).unwrap()
    }

    fn sample_for(len: usize, k: usize) -> Vec<f32> {
        (0..len)
            .map(|i| ((i * 7 + k * 3) % 11) as f32 / 11.0)
            .collect()
    }

    #[test]
    fn executor_matches_reference_on_clean_fc_program() {
        let program = fc_program();
        for k in 0..4 {
            let sample = sample_for(16, k);
            assert_eq!(check_program(&program, &sample, k, 0), None);
        }
    }

    #[test]
    fn executor_matches_reference_on_clean_conv_program() {
        let program = conv_program();
        for k in 0..3 {
            let sample = sample_for(64, k);
            assert_eq!(check_program(&program, &sample, k, 0), None);
        }
    }

    #[test]
    fn differential_run_is_clean_under_heavy_corruption() {
        for program in [fc_program(), conv_program()] {
            let report = run_differential(&program, &DiffConfig::default());
            assert!(report.is_clean(), "{}", report.render());
        }
    }

    #[test]
    fn corruption_is_a_pure_function_of_its_seed() {
        let program = fc_program();
        let model = VminFaultModel::default_14nm();
        let v = Volt::new(0.40);
        let a = corrupt_program(&program, &model, v, 7);
        let b = corrupt_program(&program, &model, v, 7);
        assert_eq!(a, b);
        let c = corrupt_program(&program, &model, v, 8);
        assert_ne!(a, c, "different seeds must draw different dies");
        // And at a safe voltage nothing flips.
        let clean = corrupt_program(&program, &model, Volt::new(0.60), 7);
        assert_eq!(clean, program);
    }

    #[test]
    fn corrupt_sample_round_trips_through_requantization() {
        let program = fc_program();
        let model = VminFaultModel::default_14nm();
        let sample = sample_for(16, 1);
        let faulty = corrupt_sample(&program, &sample, &model, Volt::new(0.38), 5);
        // Requantizing the dequantized corrupted sample must reproduce the
        // corrupted codes bit-exactly (the property check_program relies on).
        let codes = program.quantize_input(&faulty);
        let again: Vec<f32> = codes
            .iter()
            .map(|&c| f32::from(c) * program.input_scale())
            .collect();
        assert_eq!(faulty, again);
        // At a safe voltage the sample is untouched up to quantization.
        let safe = corrupt_sample(&program, &sample, &model, Volt::new(0.60), 5);
        assert_eq!(
            program.quantize_input(&safe),
            program.quantize_input(&sample)
        );
    }

    #[test]
    fn ddmin_shrinks_to_the_minimal_failing_pair() {
        let items: Vec<u32> = (0..32).collect();
        // Fails iff the subset contains both 3 and 17.
        let minimal = ddmin(&items, |s| s.contains(&3) && s.contains(&17));
        assert_eq!(minimal, vec![3, 17]);
        // Single-element cause.
        let minimal = ddmin(&items, |s| s.contains(&31));
        assert_eq!(minimal, vec![31]);
    }

    #[test]
    #[should_panic(expected = "failing starting set")]
    fn ddmin_rejects_a_passing_start() {
        let _ = ddmin(&[1, 2, 3], |_| false);
    }

    #[test]
    fn minimizer_shrinks_a_prediction_flip_to_one_minimal_rows() {
        let program = fc_program();
        let model = VminFaultModel::default_14nm();
        let sample = sample_for(16, 2);
        let mut dante = Dante::fault_free(ChipConfig::dante(), Volt::new(0.5));
        let schedule = BoostSchedule::uniform(0, 2, 0);
        let clean_pred = dante.run(&program, &schedule, &sample).prediction;

        // Find a die that flips the prediction at deep VLV (deterministic:
        // the first qualifying seed is always the same).
        let (corrupted, _seed) = (0..64)
            .find_map(|s| {
                let c = corrupt_program(&program, &model, Volt::new(0.36), s);
                let mut d = Dante::fault_free(ChipConfig::dante(), Volt::new(0.5));
                (d.run(&c, &schedule, &sample).prediction != clean_pred).then_some((c, s))
            })
            .expect("some die in 64 flips the prediction at 0.36 V");

        let diverges = |p: &Program| {
            let mut d = Dante::fault_free(ChipConfig::dante(), Volt::new(0.5));
            d.run(p, &schedule, &sample).prediction != clean_pred
        };
        let all_rows = corrupted_rows(&program, &corrupted);
        let minimal = minimize_corruption(&program, &corrupted, diverges)
            .expect("full corruption flips the prediction");
        assert!(!minimal.is_empty() && minimal.len() <= all_rows.len());
        // The minimal set still diverges...
        assert!(diverges(&apply_rows(&program, &corrupted, &minimal)));
        // ...and is 1-minimal: dropping any single row loses the repro.
        for skip in 0..minimal.len() {
            let reduced: Vec<WeightRow> = minimal
                .iter()
                .enumerate()
                .filter_map(|(i, &r)| (i != skip).then_some(r))
                .collect();
            if reduced.is_empty() {
                continue;
            }
            assert!(
                !diverges(&apply_rows(&program, &corrupted, &reduced)),
                "row {skip} was removable"
            );
        }
    }

    #[test]
    fn divergence_report_renders_replay_information() {
        let report = DiffReport {
            trials: 4,
            divergences: vec![Divergence {
                trial: 2,
                trial_seed: 0xABCD,
                layer: 1,
                index: 7,
                accel: 9,
                reference: -3,
            }],
        };
        let text = report.render();
        assert!(text.contains("trial 2"), "{text}");
        assert!(text.contains("layer 1"), "{text}");
        assert!(text.contains("0x000000000000abcd"), "{text}");
    }
}
