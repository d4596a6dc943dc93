//! Monte-Carlo fault-injection accuracy evaluation (paper Sec. 5.1,
//! Fig. 11).
//!
//! This is the fast statistical path used for the accuracy figures: the
//! network's weights (and optionally the test inputs) are quantized to the
//! chip's fixed-point format, packed into the exact SRAM bit image, overlaid
//! with a fresh Monte-Carlo fault die per trial at each data class's
//! *effective voltage* (the boosted rail of the bank holding it), and the
//! corrupted network is evaluated on the test set. Averaging over dies
//! reproduces the paper's 100-fault-map methodology.

use dante_circuit::units::Volt;
use dante_nn::batched::{trial_correct_count, BatchedScratch, CleanForward, LayerWork};
use dante_nn::layers::Layer;
use dante_nn::network::Network;
use dante_nn::quant::ScaledQuantizer;
use dante_nn::Matrix;
use dante_sim::{derive_seed, site, NoopObserver, TrialEngine, TrialObserver};
use dante_sram::model::{DieFaultModel, FaultModel};
use dante_sram::sparse::SparseCell;
use std::time::Instant;

/// Effective rail voltage for each data class of one inference run.
#[derive(Debug, Clone, PartialEq)]
pub struct VoltageAssignment {
    /// One voltage per weight layer (depth order).
    pub weight_layers: Vec<Volt>,
    /// Voltage of the input/activation memory.
    pub inputs: Volt,
}

impl VoltageAssignment {
    /// Every data class at the same voltage.
    #[must_use]
    pub fn uniform(v: Volt, weight_layers: usize) -> Self {
        Self {
            weight_layers: vec![v; weight_layers],
            inputs: v,
        }
    }

    /// Weights at `v`, inputs held safe at a high voltage (isolates weight
    /// sensitivity, as in Fig. 2's "weights" curves).
    #[must_use]
    pub fn weights_only(v: Volt, weight_layers: usize, safe: Volt) -> Self {
        Self {
            weight_layers: vec![v; weight_layers],
            inputs: safe,
        }
    }

    /// Inputs at `v`, weights held safe (Fig. 2's "inputs" curve).
    #[must_use]
    pub fn inputs_only(v: Volt, weight_layers: usize, safe: Volt) -> Self {
        Self {
            weight_layers: vec![safe; weight_layers],
            inputs: v,
        }
    }

    /// Only weight layer `layer` at `v`, everything else safe (Fig. 2's
    /// per-layer curves).
    ///
    /// # Panics
    ///
    /// Panics if `layer >= weight_layers`.
    #[must_use]
    pub fn single_layer(v: Volt, layer: usize, weight_layers: usize, safe: Volt) -> Self {
        assert!(layer < weight_layers, "layer {layer} out of range");
        let mut weights = vec![safe; weight_layers];
        weights[layer] = v;
        Self {
            weight_layers: weights,
            inputs: safe,
        }
    }
}

/// Result of a Monte-Carlo accuracy evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyStats {
    /// Accuracy of each trial (one fault die each).
    pub per_trial: Vec<f64>,
}

impl AccuracyStats {
    /// Mean accuracy across dies.
    ///
    /// # Panics
    ///
    /// Panics if there are no trials.
    #[must_use]
    pub fn mean(&self) -> f64 {
        assert!(!self.per_trial.is_empty(), "no trials");
        self.per_trial.iter().sum::<f64>() / self.per_trial.len() as f64
    }

    /// Sample standard deviation across dies (0 for a single trial).
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        let n = self.per_trial.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let var = self
            .per_trial
            .iter()
            .map(|a| (a - mean).powi(2))
            .sum::<f64>()
            / (n - 1) as f64;
        var.sqrt()
    }

    /// Worst-die accuracy.
    ///
    /// # Panics
    ///
    /// Panics if there are no trials.
    #[must_use]
    pub fn min(&self) -> f64 {
        assert!(!self.per_trial.is_empty(), "no trials");
        self.per_trial.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Pools the per-trial accuracies back into `(successes, attempts)`
    /// counts given the test-set size each trial saw — the binomial view a
    /// confidence interval (e.g. Wilson score) needs. Each trial's success
    /// count is recovered by rounding `accuracy * samples_per_trial`, which
    /// is exact because every accuracy was computed as such a ratio.
    ///
    /// # Panics
    ///
    /// Panics if `samples_per_trial` is zero.
    #[must_use]
    pub fn pooled_successes(&self, samples_per_trial: usize) -> (u64, u64) {
        assert!(samples_per_trial > 0, "trials must have evaluated samples");
        let successes = self
            .per_trial
            .iter()
            .map(|&a| (a * samples_per_trial as f64).round() as u64)
            .sum();
        (successes, (self.per_trial.len() * samples_per_trial) as u64)
    }
}

/// Error-protection scheme applied to the SRAM words (ablation axis: the
/// paper's related work contrasts boosting against conventional ECC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EccMode {
    /// No coding: every flip reaches the data (the paper's baseline).
    #[default]
    None,
    /// Hamming(72,64) SEC-DED per 64-bit word: single flips are healed,
    /// double or more pass through; check bits fault at the same rate.
    SecDed,
}

/// Dequantizes the lanes of (corrupted) SRAM `word` into `out`, one value
/// per lane from lane 0 (`out.len() <= 64 / bits`): the same
/// sign-extend-and-scale as `ScaledTensor::to_f32`, applied to only the
/// lanes of one word.
#[inline]
fn dequant_word_into(word: u64, bits: u8, scale: f32, out: &mut [f32]) {
    let width = u32::from(bits);
    let shift = 16 - width;
    let mask = if bits == 16 { 0xFFFFu64 } else { 0xFFu64 };
    for (lane, o) in out.iter_mut().enumerate() {
        let raw = ((word >> (width * lane as u32)) & mask) as u16;
        let code = i32::from((raw << shift) as i16 >> shift);
        *o = code as f32 * scale;
    }
}

/// One quantized-and-packed bit image, prepared once per network and reused
/// read-only across all trials.
#[derive(Debug, Clone, PartialEq)]
struct PackedImage {
    scale: f32,
    bits: u8,
    bit_len: usize,
    len: usize,
    /// Clean packed SRAM words (never mutated; corruption XORs on the fly).
    words: Vec<u64>,
    /// Clean dequantized values (the undo source for flipped words).
    clean: Vec<f32>,
}

impl PackedImage {
    fn build(quantizer: &ScaledQuantizer, values: &[f32]) -> Self {
        let tensor = quantizer.quantize(values);
        Self {
            scale: tensor.scale(),
            bits: tensor.bits(),
            bit_len: tensor.bit_len(),
            len: tensor.len(),
            words: tensor.to_packed_words(),
            clean: tensor.to_f32(),
        }
    }

    #[inline]
    fn lanes(&self) -> usize {
        64 / usize::from(self.bits)
    }

    /// The value-buffer range word `w` covers.
    #[inline]
    fn word_range(&self, w: usize) -> std::ops::Range<usize> {
        let base = w * self.lanes();
        base..(base + self.lanes()).min(self.len)
    }

    /// Dequantizes every lane of (corrupted) `word` into the value buffer.
    #[inline]
    fn dequant_word_into(&self, w: usize, word: u64, out: &mut [f32]) {
        dequant_word_into(word, self.bits, self.scale, &mut out[self.word_range(w)]);
    }

    /// Restores the lanes of word `w` in the value buffer from the clean
    /// dequantized values (exact undo: dequantization is deterministic).
    #[inline]
    fn restore_word_into(&self, w: usize, out: &mut [f32]) {
        let range = self.word_range(w);
        out[range.clone()].copy_from_slice(&self.clean[range]);
    }
}

/// The evaluator's one-time preparation for one network and test set: the
/// packed weight and input images, the clean dequantized network every
/// trial starts from and is restored to, and its clean forward pass.
///
/// Build it with [`AccuracyEvaluator::prepare`] and keep it: every voltage
/// point and trial window of that network
/// ([`AccuracyEvaluator::evaluate_trial_range_observed`]) reuses it
/// read-only. Preparation depends only on the network, the test set and
/// the evaluator's fixed quantizers, never on the voltage, trial count,
/// fault model or ECC mode.
#[derive(Debug)]
pub struct PreparedEvaluation {
    layers: Vec<PackedImage>,
    layer_indices: Vec<usize>,
    clean_net: Network,
    inputs: PackedImage,
    labels: Vec<u8>,
    cache: CleanForward,
}

/// One fault die's effect on a network's weight images: the flipped SRAM
/// words of every weight layer, after ECC, at one voltage assignment.
///
/// Which words a die flips depends on its seed, each layer's bit length,
/// the voltages, the fault model and the ECC mode (SEC-DED healing reads
/// only the check-bit overlay), never on weight values. So a die is sampled
/// once ([`AccuracyEvaluator::weight_die`]) and applied to any weights of
/// the same shapes with [`Self::corrupt_into`]: the retraining loop
/// refreshes one held copy per mini-batch this way, and
/// [`AccuracyEvaluator::corrupt_network`] is the same path applied once.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WeightDie {
    quantizer: ScaledQuantizer,
    /// Per weight layer: its layer index and the `(word, flip mask)` pairs
    /// that reach the data, in ascending word order.
    layers: Vec<(usize, Vec<(usize, u64)>)>,
}

impl WeightDie {
    /// Writes `clean` through quantization and this die into `out`: every
    /// weight layer is re-quantized in place (the evaluator's
    /// `ScaledQuantizer` arithmetic), biases are copied unquantized, and
    /// then only the die's flipped words are rewritten. `out` must have
    /// `clean`'s layer structure (e.g. start as a clone of it); whatever it
    /// held before is overwritten, so one copy serves any number of calls.
    ///
    /// # Panics
    ///
    /// Panics if `out`'s layers differ from `clean`'s in kind or size.
    pub(crate) fn corrupt_into(&self, clean: &Network, out: &mut Network) {
        for (idx, flips) in &self.layers {
            match (&clean.layers()[*idx], &mut out.layers_mut()[*idx]) {
                (Layer::Dense(c), Layer::Dense(o)) => {
                    o.bias_mut().copy_from_slice(c.bias());
                    self.corrupt_weights(
                        c.weights().as_slice(),
                        o.weights_mut().as_mut_slice(),
                        flips,
                    );
                }
                (Layer::Conv2d(c), Layer::Conv2d(o)) => {
                    o.bias_mut().copy_from_slice(c.bias());
                    self.corrupt_weights(c.weights(), o.weights_mut(), flips);
                }
                _ => panic!("corrupted copy's layer {idx} differs from the clean network's"),
            }
        }
    }

    /// Re-quantizes `src` into `dst`, then rewrites each flipped word: the
    /// word is re-packed from `src`'s codes, XORed with its mask and
    /// dequantized over its lanes.
    fn corrupt_weights(&self, src: &[f32], dst: &mut [f32], flips: &[(usize, u64)]) {
        let scale = self.quantizer.requantize_into(src, dst);
        let bits = self.quantizer.bits();
        let width = u32::from(bits);
        let lanes = 64 / usize::from(bits);
        for &(w, mask) in flips {
            let range = w * lanes..(w * lanes + lanes).min(src.len());
            let word = src[range.clone()]
                .iter()
                .enumerate()
                .fold(0u64, |word, (lane, &v)| {
                    word | u64::from(self.quantizer.code(v, scale)) << (width * lane as u32)
                });
            dequant_word_into(word ^ mask, bits, scale, &mut dst[range]);
        }
    }
}

/// Reused sampling/ECC buffers: nothing here affects trial results, so the
/// scratch can live per worker without breaking thread-count determinism.
#[derive(Debug, Default)]
struct OverlayBuffers {
    indices: Vec<u64>,
    cells: Vec<SparseCell>,
    corruption: Vec<u64>,
    check: Vec<u64>,
    check_flips: Vec<u32>,
}

/// The `touched` undo-log target meaning "the input image" rather than a
/// weight layer position.
const INPUTS_TARGET: usize = usize::MAX;

/// Per-worker trial scratch: a working network + input buffer (restored to
/// the clean dequantized state between trials via the `touched` undo log)
/// plus the overlay buffers. Steady-state trials allocate nothing.
#[derive(Debug)]
struct TrialScratch {
    net: Network,
    inputs: Vec<f32>,
    touched: Vec<(usize, usize)>,
    bufs: OverlayBuffers,
    /// Batched forward-pass working buffers.
    batched: BatchedScratch,
    /// Sorted, deduped indices of test images with a flipped input word.
    dirty_images: Vec<usize>,
    /// Dirty output columns/channels of the first corrupted layer.
    dirty_units: Vec<usize>,
}

impl TrialScratch {
    fn new(prep: &PreparedEvaluation) -> Self {
        Self {
            net: prep.clean_net.clone(),
            inputs: prep.inputs.clean.clone(),
            touched: Vec::new(),
            bufs: OverlayBuffers::default(),
            batched: BatchedScratch::new(),
            dirty_images: Vec::new(),
            dirty_units: Vec::new(),
        }
    }
}

/// How the first dirty layer's recompute is narrowed (resolved into a
/// [`LayerWork`] once the unit list stops mutating — the indirection keeps
/// the borrow of `dirty_units` out of the computation that fills it).
#[derive(Debug, Clone, Copy)]
enum DirtyKind {
    Full,
    DenseCols,
    ConvChans,
}

/// The mutable weight-value slice of the layer at `idx` (which must be a
/// parameterized layer).
fn weight_slice_mut(net: &mut Network, idx: usize) -> &mut [f32] {
    match &mut net.layers_mut()[idx] {
        Layer::Dense(d) => d.weights_mut().as_mut_slice(),
        Layer::Conv2d(c) => c.weights_mut(),
        _ => unreachable!("weight_layer_indices returns parameterized layers"),
    }
}

/// The Monte-Carlo evaluator.
///
/// Trials run on the shared [`TrialEngine`]: each trial's randomness is
/// derived from `(seed, trial index)` via [`derive_seed`], so the per-trial
/// results are bit-identical whether the engine runs them serially or
/// across any number of worker threads.
///
/// [`Self::prepare`] quantizes and packs every bit image of a network and
/// its test set **once** and runs the clean forward pass; callers keep the
/// [`PreparedEvaluation`] across voltage points and trial windows
/// ([`Self::evaluate_trial_range_observed`]), and [`Self::evaluate`] is
/// prepare-then-run. Each trial then corrupts
/// only the words its fault die touches and undoes them afterwards — the
/// steady-state hot path allocates nothing.
///
/// Dies are drawn by sparse tail sampling at the evaluation voltage: the
/// faulty-cell count is drawn as Binomial(bits, F(v)) via geometric-gap
/// skipping and only those cells get (truncated-Gaussian) V_mins, so a die
/// costs O(faulty bits). Each trial is scored by the trial-batched
/// incremental forward pass (`dante_nn::batched`): the clean forward pass
/// runs once per prepared network and each trial recomputes only the images
/// and layer outputs reachable from its flipped words. Its exact GEMM
/// kernels keep the scalar fold order, so each trial's accuracy is
/// bit-identical to [`Network::accuracy`] on the corrupted network. The
/// dense per-cell sampler and the scalar per-image forward pass these
/// replace live on as test oracles in `dante-verify`.
///
/// Outside the trial loop, one die corrupts a float network directly: a
/// sampled `WeightDie` holds a die's flipped words, which do not depend on
/// weight values, and rewrites any weights of the same shapes through them.
/// [`Self::corrupt_network`] applies one once; the retraining loop samples
/// one per epoch and refreshes a held copy per mini-batch.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyEvaluator {
    /// Resolved against each trial's seed, so chip-variation specs draw a
    /// fresh die profile per trial (the paper's one-fault-map-per-trial
    /// methodology).
    fault_model: FaultModel,
    weight_quantizer: ScaledQuantizer,
    input_quantizer: ScaledQuantizer,
    trials: usize,
    ecc: EccMode,
    engine: TrialEngine,
}

impl AccuracyEvaluator {
    /// Creates an evaluator with the paper's defaults: the calibrated 14nm
    /// fault model, the chip's 16-bit/2-guard-bit weight format, and the
    /// given Monte-Carlo trial count (the paper uses 100 fault maps).
    /// Trials run in parallel per `DANTE_THREADS` (default: all cores).
    ///
    /// # Panics
    ///
    /// Panics if `trials` is zero.
    #[must_use]
    pub fn new(trials: usize) -> Self {
        assert!(trials > 0, "need at least one Monte-Carlo trial");
        Self {
            fault_model: FaultModel::default(),
            weight_quantizer: ScaledQuantizer::weight_default(),
            input_quantizer: ScaledQuantizer::weight_default(),
            trials,
            ecc: EccMode::None,
            engine: TrialEngine::from_env(),
        }
    }

    /// Pins the worker-thread count (overriding `DANTE_THREADS`).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.engine = TrialEngine::with_threads(threads);
        self
    }

    /// The worker-thread count in effect.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.engine.threads()
    }

    /// Selects a [`FaultModel`] spec: each trial resolves the spec against
    /// its own seed, so correlated-burst dies draw fresh weak rows/columns
    /// and chip-variation dies draw fresh `(mu, sigma)` profiles per trial.
    /// The default spec reproduces the calibrated 14nm Gaussian
    /// byte-for-byte.
    #[must_use]
    pub fn with_fault_spec(mut self, spec: FaultModel) -> Self {
        self.fault_model = spec;
        self
    }

    /// Selects the ECC ablation mode.
    #[must_use]
    pub fn with_ecc(mut self, ecc: EccMode) -> Self {
        self.ecc = ecc;
        self
    }

    /// The ECC mode in effect.
    #[must_use]
    pub fn ecc(&self) -> EccMode {
        self.ecc
    }

    /// The fault-model spec in use.
    #[must_use]
    pub fn fault_spec(&self) -> FaultModel {
        self.fault_model
    }

    /// Monte-Carlo trial count.
    #[must_use]
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// Quantizes and packs every bit image of `net` and the test set once,
    /// and runs the clean forward pass: the [`PreparedEvaluation`] every
    /// trial at every voltage of this network starts from.
    ///
    /// # Panics
    ///
    /// Panics if `images` is empty or not `labels.len()` images of
    /// `net.in_len()` values each.
    #[must_use]
    pub fn prepare(&self, net: &Network, images: &[f32], labels: &[u8]) -> PreparedEvaluation {
        let mut layers = Vec::new();
        let clean_net = net.map_weight_layers(|_pos, layer| match layer {
            Layer::Dense(d) => {
                let img = PackedImage::build(&self.weight_quantizer, d.weights().as_slice());
                let (r, c) = d.weights().dims();
                let mut d = d.clone();
                *d.weights_mut() = Matrix::from_vec(r, c, img.clean.clone());
                layers.push(img);
                Layer::Dense(d)
            }
            Layer::Conv2d(conv) => {
                let img = PackedImage::build(&self.weight_quantizer, conv.weights());
                let mut conv = conv.clone();
                conv.weights_mut().copy_from_slice(&img.clean);
                layers.push(img);
                Layer::Conv2d(conv)
            }
            _ => unreachable!("weight_layer_indices returns parameterized layers"),
        });
        let inputs = PackedImage::build(&self.input_quantizer, images);
        // The clean forward pass (and its per-layer activation cache) is
        // shared read-only by every trial.
        let cache = CleanForward::build(&clean_net, &inputs.clean, labels);
        PreparedEvaluation {
            layers,
            layer_indices: net.weight_layer_indices(),
            clean_net,
            inputs,
            labels: labels.to_vec(),
            cache,
        }
    }

    /// Materializes one die's corruption words for `image` into `out`
    /// (exactly `word_len` words), drawing from `seed`.
    fn corruption_words_into(
        die: &DieFaultModel,
        bit_len: usize,
        word_len: usize,
        v: Volt,
        seed: u64,
        bufs: &mut OverlayBuffers,
        out_is_check: bool,
    ) {
        // Split borrow: the check overlay fills `bufs.check`, the data
        // overlay fills `bufs.corruption`; both share the sampling buffers.
        let (out, indices, cells) = if out_is_check {
            (&mut bufs.check, &mut bufs.indices, &mut bufs.cells)
        } else {
            (&mut bufs.corruption, &mut bufs.indices, &mut bufs.cells)
        };
        // Floor == applied voltage and only the flip bits are read, so the
        // V_min-eliding streaming fast path is exact here.
        out.clear();
        out.resize(word_len, 0);
        die.for_each_flip_word_at_floor(bit_len, v, seed, indices, cells, |w, mask| {
            out[w] = mask;
        });
    }

    /// Streams the words of one `bit_len`-bit image that the die drawn from
    /// `seed` corrupts at voltage `v`, as `emit(word, flip mask)` in
    /// ascending word order: every flipped word without ECC; under SEC-DED,
    /// what survives single-error healing against the check-bit overlay.
    fn for_each_data_flip(
        &self,
        die: &DieFaultModel,
        bit_len: usize,
        v: Volt,
        seed: u64,
        bufs: &mut OverlayBuffers,
        mut emit: impl FnMut(usize, u64),
    ) {
        match self.ecc {
            EccMode::None => {
                // The floor *is* the evaluation voltage, so every sampled
                // cell is faulty here and only the flip bits matter: the
                // V_min-eliding streaming fast path emits exactly the slow
                // path's per-word flip masks without materializing cells.
                die.for_each_flip_word_at_floor(
                    bit_len,
                    v,
                    seed,
                    &mut bufs.indices,
                    &mut bufs.cells,
                    emit,
                );
            }
            EccMode::SecDed => {
                // SEC-DED per 64-bit word: heal single flips, counting the
                // 8 check bits (which fault at the same per-cell rate).
                let word_len = bit_len.div_ceil(64);
                Self::corruption_words_into(die, bit_len, word_len, v, seed, bufs, false);
                Self::corruption_words_into(
                    die,
                    word_len * 8,
                    (word_len * 8).div_ceil(64),
                    v,
                    derive_seed(seed, site::ECC_CHECK, 0),
                    bufs,
                    true,
                );
                bufs.check_flips.clear();
                for w in 0..word_len {
                    let word = bufs.check[w / 8];
                    bufs.check_flips
                        .push(((word >> ((w % 8) * 8)) & 0xFF).count_ones());
                }
                dante_sram::ecc::filter_corruption(&mut bufs.corruption, &bufs.check_flips);
                for (w, &c) in bufs.corruption.iter().enumerate() {
                    if c != 0 {
                        emit(w, c);
                    }
                }
            }
        }
    }

    /// Corrupts one prepared image at voltage `v` with the die drawn from
    /// `seed`, writing only the affected lanes of `values` and logging each
    /// touched word into the undo log. Returns the number of flipped bits
    /// that reached the data.
    #[allow(clippy::too_many_arguments)]
    fn corrupt_image(
        &self,
        die: &DieFaultModel,
        image: &PackedImage,
        target: usize,
        v: Volt,
        seed: u64,
        values: &mut [f32],
        touched: &mut Vec<(usize, usize)>,
        bufs: &mut OverlayBuffers,
    ) -> u64 {
        let mut flipped = 0u64;
        self.for_each_data_flip(die, image.bit_len, v, seed, bufs, |w, mask| {
            flipped += u64::from(mask.count_ones());
            image.dequant_word_into(w, image.words[w] ^ mask, values);
            touched.push((target, w));
        });
        flipped
    }

    /// Runs one trial's corruption over every prepared image, mutating the
    /// scratch network/input buffers in place. Returns the total number of
    /// fault bits that reached the data.
    fn corrupt_trial(
        &self,
        prep: &PreparedEvaluation,
        assignment: &VoltageAssignment,
        trial_seed: u64,
        scratch: &mut TrialScratch,
    ) -> u64 {
        assert_eq!(
            prep.layers.len(),
            assignment.weight_layers.len(),
            "assignment covers {} layers, network has {}",
            assignment.weight_layers.len(),
            prep.layers.len()
        );
        let TrialScratch {
            net,
            inputs,
            touched,
            bufs,
            ..
        } = scratch;
        // One die per trial: a chip-variation spec draws this trial's
        // (mu, sigma) profile here; Gaussian configurations resolve to the
        // same die for every trial and consume no randomness.
        let die = self.fault_model.resolve_die(trial_seed);
        let mut fault_bits = 0u64;
        for (pos, image) in prep.layers.iter().enumerate() {
            fault_bits += self.corrupt_image(
                &die,
                image,
                pos,
                assignment.weight_layers[pos],
                derive_seed(trial_seed, site::WEIGHT_LAYER, pos as u64),
                weight_slice_mut(net, prep.layer_indices[pos]),
                touched,
                bufs,
            );
        }
        fault_bits += self.corrupt_image(
            &die,
            &prep.inputs,
            INPUTS_TARGET,
            assignment.inputs,
            derive_seed(trial_seed, site::INPUTS, 0),
            inputs,
            touched,
            bufs,
        );
        fault_bits
    }

    /// Rolls the scratch back to the clean state by restoring every word
    /// the trial's undo log recorded.
    fn undo_trial(prep: &PreparedEvaluation, scratch: &mut TrialScratch) {
        for &(target, w) in &scratch.touched {
            if target == INPUTS_TARGET {
                prep.inputs.restore_word_into(w, &mut scratch.inputs);
            } else {
                prep.layers[target].restore_word_into(
                    w,
                    weight_slice_mut(&mut scratch.net, prep.layer_indices[target]),
                );
            }
        }
        scratch.touched.clear();
    }

    /// Scores one corrupted trial through the trial-batched incremental
    /// path, deriving the dirty-image set and the first dirty layer's
    /// [`LayerWork`] straight from the trial's undo log (the sorted
    /// touched-word list `corrupt_trial` built). Bit-identical to
    /// `scratch.net.accuracy(&scratch.inputs, &prep.labels)`.
    fn batched_accuracy(prep: &PreparedEvaluation, scratch: &mut TrialScratch) -> f64 {
        let n = prep.labels.len();
        if n == 0 {
            // `Network::accuracy` returns 0.0 on an empty set.
            return 0.0;
        }
        let TrialScratch {
            net,
            inputs,
            touched,
            batched,
            dirty_images,
            dirty_units,
            ..
        } = scratch;
        // Every lane of a flipped input word belongs to exactly one image;
        // weight entries only contribute the earliest corrupted layer.
        dirty_images.clear();
        let mut first_pos: Option<usize> = None;
        let in_len = net.in_len();
        for &(target, w) in touched.iter() {
            if target == INPUTS_TARGET {
                let range = prep.inputs.word_range(w);
                let (lo, hi) = (range.start / in_len, (range.end - 1) / in_len);
                for img in lo..=hi {
                    if dirty_images.last() != Some(&img) {
                        dirty_images.push(img);
                    }
                }
            } else {
                first_pos = Some(first_pos.map_or(target, |p| p.min(target)));
            }
        }
        // Input words are logged in ascending order, so this is near-sorted;
        // the sort is cheap insurance, the dedup handles word-sharing images.
        dirty_images.sort_unstable();
        dirty_images.dedup();

        // When the first dirty layer's damage is confined to a small set of
        // output columns (dense) or channels (conv), tell the batched path
        // so clean images only recompute those before resuming downstream.
        dirty_units.clear();
        let localized = first_pos.map(|pos| {
            let layer_idx = prep.layer_indices[pos];
            let image = &prep.layers[pos];
            let lanes = image.lanes();
            let kind = match &net.layers()[layer_idx] {
                Layer::Dense(d) => {
                    // Row-major (in, out): element `e` feeds column `e % out`.
                    let out_l = d.weights().dims().1;
                    for &(target, w) in touched.iter() {
                        if target == pos {
                            for e in w * lanes..(w * lanes + lanes).min(image.len) {
                                dirty_units.push(e % out_l);
                            }
                        }
                    }
                    dirty_units.sort_unstable();
                    dirty_units.dedup();
                    if dirty_units.len() * 4 <= out_l {
                        DirtyKind::DenseCols
                    } else {
                        DirtyKind::Full
                    }
                }
                Layer::Conv2d(conv) => {
                    // Weight layout ((oc*in_c+ic)*k+kr)*k+kc: element `e`
                    // feeds output channel `e / (in_c*k*k)`.
                    let per_ch = conv.in_shape().c * conv.kernel() * conv.kernel();
                    let out_c = conv.out_shape().c;
                    for &(target, w) in touched.iter() {
                        if target == pos {
                            for e in w * lanes..(w * lanes + lanes).min(image.len) {
                                dirty_units.push(e / per_ch);
                            }
                        }
                    }
                    dirty_units.sort_unstable();
                    dirty_units.dedup();
                    if dirty_units.len() * 4 <= out_c {
                        DirtyKind::ConvChans
                    } else {
                        DirtyKind::Full
                    }
                }
                _ => DirtyKind::Full,
            };
            (layer_idx, kind)
        });
        let first_dirty = match localized {
            None => None,
            Some((idx, DirtyKind::DenseCols)) => {
                Some((idx, LayerWork::DenseColumns(dirty_units.as_slice())))
            }
            Some((idx, DirtyKind::ConvChans)) => {
                Some((idx, LayerWork::ConvChannels(dirty_units.as_slice())))
            }
            Some((idx, DirtyKind::Full)) => Some((idx, LayerWork::Full)),
        };
        let count = trial_correct_count(
            net,
            &prep.cache,
            &prep.labels,
            inputs,
            dirty_images,
            first_dirty,
            batched,
        );
        // The exact division `Network::accuracy` performs.
        count as f64 / n as f64
    }

    /// Samples the die `trial_seed` draws over `net`'s weight images at the
    /// assignment's voltages: the flipped words of every weight layer after
    /// ECC, exactly the words a trial seeded with `trial_seed` corrupts.
    /// Weight layer `pos` draws from `derive_seed(trial_seed, WEIGHT_LAYER,
    /// pos)`; only the layers' sizes are read, never their values.
    ///
    /// # Panics
    ///
    /// Panics if the assignment's layer count mismatches the network's
    /// weight layers.
    #[must_use]
    pub(crate) fn weight_die(
        &self,
        net: &Network,
        assignment: &VoltageAssignment,
        trial_seed: u64,
    ) -> WeightDie {
        let indices = net.weight_layer_indices();
        assert_eq!(
            indices.len(),
            assignment.weight_layers.len(),
            "assignment covers {} layers, network has {}",
            assignment.weight_layers.len(),
            indices.len()
        );
        // The trial's one die: see `corrupt_trial`.
        let die = self.fault_model.resolve_die(trial_seed);
        let bits = usize::from(self.weight_quantizer.bits());
        let mut bufs = OverlayBuffers::default();
        let layers = indices
            .into_iter()
            .enumerate()
            .map(|(pos, idx)| {
                let mut flips = Vec::new();
                self.for_each_data_flip(
                    &die,
                    net.layers()[idx].weight_count() * bits,
                    assignment.weight_layers[pos],
                    derive_seed(trial_seed, site::WEIGHT_LAYER, pos as u64),
                    &mut bufs,
                    |w, mask| flips.push((w, mask)),
                );
                (idx, flips)
            })
            .collect();
        WeightDie {
            quantizer: self.weight_quantizer,
            layers,
        }
    }

    /// Returns a copy of `net` whose weights went through quantization and
    /// one fault die at the assignment's voltages: the die's flipped words
    /// are sampled once and applied to a clone, the same path the
    /// retraining loop refreshes its held copy with. The die is a pure
    /// function of `trial_seed`, so the same seed reproduces the same
    /// corruption on any thread, and the copy's weights equal those a trial
    /// with the same seed scores.
    ///
    /// # Panics
    ///
    /// Panics if the assignment's layer count mismatches the network's
    /// weight layers.
    #[must_use]
    pub fn corrupt_network(
        &self,
        net: &Network,
        assignment: &VoltageAssignment,
        trial_seed: u64,
    ) -> Network {
        let die = self.weight_die(net, assignment, trial_seed);
        let mut corrupted = net.clone();
        die.corrupt_into(net, &mut corrupted);
        corrupted
    }

    /// Returns a corrupted copy of a test-image buffer at the inputs
    /// voltage; the die is a pure function of `trial_seed`.
    #[must_use]
    pub fn corrupt_inputs(&self, images: &[f32], v: Volt, trial_seed: u64) -> Vec<f32> {
        let image = PackedImage::build(&self.input_quantizer, images);
        let mut values = image.clean.clone();
        let die = self.fault_model.resolve_die(trial_seed);
        self.for_each_data_flip(
            &die,
            image.bit_len,
            v,
            derive_seed(trial_seed, site::INPUTS, 0),
            &mut OverlayBuffers::default(),
            |w, mask| image.dequant_word_into(w, image.words[w] ^ mask, &mut values),
        );
        values
    }

    /// Evaluates accuracy over a voltage axis with a caller-supplied
    /// assignment builder (e.g. `VoltageAssignment::uniform` for the Fig. 1
    /// curve, `weights_only` for a Fig. 2 series). The network is prepared
    /// once for the whole axis.
    #[must_use]
    pub fn voltage_sweep(
        &self,
        net: &Network,
        voltages: &[Volt],
        make_assignment: impl Fn(Volt) -> VoltageAssignment,
        images: &[f32],
        labels: &[u8],
        seed: u64,
    ) -> Vec<(Volt, AccuracyStats)> {
        let prepared = self.prepare(net, images, labels);
        voltages
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let stats = self.evaluate_trial_range_observed(
                    &prepared,
                    &make_assignment(v),
                    derive_seed(seed, site::SWEEP_POINT, i as u64),
                    0,
                    self.trials,
                    &NoopObserver,
                );
                (v, stats)
            })
            .collect()
    }

    /// Runs the full Monte-Carlo evaluation: `trials` fresh dies, each
    /// corrupting weights and inputs at the assignment's voltages, averaged
    /// over the labelled test set.
    ///
    /// Trial `t` draws its die from `derive_seed(seed, site::TRIAL, t)`, so
    /// the returned per-trial accuracies are bit-identical for any worker
    /// count and any execution order.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent buffer lengths or a mismatched assignment.
    #[must_use]
    pub fn evaluate(
        &self,
        net: &Network,
        assignment: &VoltageAssignment,
        images: &[f32],
        labels: &[u8],
        seed: u64,
    ) -> AccuracyStats {
        self.evaluate_observed(net, assignment, images, labels, seed, &NoopObserver)
    }

    /// [`Self::evaluate`] with instrumentation: the observer sees per-trial
    /// completions, `"corrupt"`/`"inference"` stage timings, and the number
    /// of fault bits each trial injected. Prepares `net` ([`Self::prepare`])
    /// and runs every trial on it.
    #[must_use]
    pub fn evaluate_observed(
        &self,
        net: &Network,
        assignment: &VoltageAssignment,
        images: &[f32],
        labels: &[u8],
        seed: u64,
        observer: &dyn TrialObserver,
    ) -> AccuracyStats {
        self.evaluate_trial_range_observed(
            &self.prepare(net, images, labels),
            assignment,
            seed,
            0,
            self.trials,
            observer,
        )
    }

    /// Evaluates only the contiguous **global** trial window
    /// `[trial_offset, trial_offset + trial_count)` of the full
    /// `self.trials`-trial evaluation of a prepared network.
    ///
    /// Trial `trial_offset + t` draws its die from
    /// `derive_seed(seed, site::TRIAL, trial_offset + t)` — exactly the
    /// seed the same trial uses in a full run — so concatenating the
    /// windows of any partition of `0..self.trials` in offset order is
    /// bit-identical to [`Self::evaluate_observed`]. This is the shard
    /// primitive: a backend computes one window, a coordinator merges.
    ///
    /// The observer sees **local** trial indices `0..trial_count` (each
    /// window is its own engine batch).
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or extends past `self.trials`, or on a
    /// mismatched assignment.
    #[must_use]
    pub fn evaluate_trial_range_observed(
        &self,
        prepared: &PreparedEvaluation,
        assignment: &VoltageAssignment,
        seed: u64,
        trial_offset: usize,
        trial_count: usize,
        observer: &dyn TrialObserver,
    ) -> AccuracyStats {
        assert!(trial_count > 0, "trial window must be non-empty");
        assert!(
            trial_offset + trial_count <= self.trials,
            "trial window [{trial_offset}, {}) exceeds {} trials",
            trial_offset + trial_count,
            self.trials
        );
        // Every trial corrupts only the touched words of a per-worker
        // scratch copy of the prepared network and undoes them afterwards,
        // so steady-state trials allocate nothing.
        let per_trial = self.engine.run_scratch_observed(
            trial_count,
            observer,
            || TrialScratch::new(prepared),
            |trial, scratch| {
                // Seed by the *global* trial index: the engine hands this
                // window local indices, but the die stream is positional in
                // the full evaluation.
                let trial_seed = derive_seed(seed, site::TRIAL, (trial_offset + trial) as u64);
                let corrupt_start = Instant::now();
                let fault_bits = self.corrupt_trial(prepared, assignment, trial_seed, scratch);
                observer.on_stage("corrupt", corrupt_start.elapsed());
                observer.on_fault_bits(trial, fault_bits);
                let infer_start = Instant::now();
                let accuracy = Self::batched_accuracy(prepared, scratch);
                observer.on_stage("inference", infer_start.elapsed());
                Self::undo_trial(prepared, scratch);
                accuracy
            },
        );
        AccuracyStats { per_trial }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dante_nn::layers::{Dense, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
    fn high_voltage_preserves_accuracy() {
        let (net, images, labels) = toy_net_and_data();
        let clean = net.accuracy(&images, &labels);
        assert!(clean > 0.95, "toy net failed to train: {clean}");
        let eval = AccuracyEvaluator::new(3);
        let assignment = VoltageAssignment::uniform(Volt::new(0.60), 2);
        let stats = eval.evaluate(&net, &assignment, &images, &labels, 1);
        assert!(
            (stats.mean() - clean).abs() < 0.02,
            "0.6 V should be fault-free: {} vs {clean}",
            stats.mean()
        );
    }

    #[test]
    fn very_low_voltage_destroys_accuracy() {
        let (net, images, labels) = toy_net_and_data();
        let eval = AccuracyEvaluator::new(3);
        let assignment = VoltageAssignment::uniform(Volt::new(0.34), 2);
        let stats = eval.evaluate(&net, &assignment, &images, &labels, 2);
        assert!(
            stats.mean() < 0.85,
            "0.34 V should corrupt heavily: {}",
            stats.mean()
        );
    }

    #[test]
    fn accuracy_is_monotonic_ish_in_voltage() {
        let (net, images, labels) = toy_net_and_data();
        let eval = AccuracyEvaluator::new(4);
        let acc = |mv: u32| {
            let a = VoltageAssignment::uniform(Volt::from_millivolts(f64::from(mv)), 2);
            eval.evaluate(&net, &a, &images, &labels, 3).mean()
        };
        let low = acc(340);
        let high = acc(520);
        assert!(
            high >= low,
            "accuracy must not degrade as V rises: {low} vs {high}"
        );
        assert!(high > 0.95);
    }

    #[test]
    fn weights_only_and_inputs_only_assignments_differ() {
        let (net, images, labels) = toy_net_and_data();
        // Enough dies that the weight-vs-input sensitivity gap clears the
        // Monte-Carlo noise floor on this tiny network.
        let eval = AccuracyEvaluator::new(48);
        let safe = Volt::new(0.60);
        let v = Volt::new(0.40);
        let w = eval.evaluate(
            &net,
            &VoltageAssignment::weights_only(v, 2, safe),
            &images,
            &labels,
            4,
        );
        let i = eval.evaluate(
            &net,
            &VoltageAssignment::inputs_only(v, 2, safe),
            &images,
            &labels,
            4,
        );
        // The paper's core observation: weights are far more sensitive than
        // inputs at the same BER.
        assert!(
            i.mean() >= w.mean(),
            "inputs ({}) should tolerate faults better than weights ({})",
            i.mean(),
            w.mean()
        );
    }

    #[test]
    fn voltage_sweep_matches_individual_evaluations() {
        let (net, images, labels) = toy_net_and_data();
        let eval = AccuracyEvaluator::new(2);
        let voltages = [Volt::new(0.40), Volt::new(0.50)];
        let sweep = eval.voltage_sweep(
            &net,
            &voltages,
            |v| VoltageAssignment::uniform(v, 2),
            &images,
            &labels,
            33,
        );
        assert_eq!(sweep.len(), 2);
        assert!(sweep[1].1.mean() >= sweep[0].1.mean());
        // Deterministic per seed and per index.
        let again = eval.voltage_sweep(
            &net,
            &voltages,
            |v| VoltageAssignment::uniform(v, 2),
            &images,
            &labels,
            33,
        );
        assert_eq!(sweep, again);
    }

    #[test]
    fn secded_improves_accuracy_in_the_transition_region() {
        // ECC heals isolated flips, so at moderate BER it must beat the
        // unprotected baseline; at very high BER (multi-bit words) it
        // degrades toward the baseline.
        let (net, images, labels) = toy_net_and_data();
        let plain = AccuracyEvaluator::new(4);
        let ecc = AccuracyEvaluator::new(4).with_ecc(EccMode::SecDed);
        let v = Volt::new(0.42);
        let a = VoltageAssignment::uniform(v, 2);
        let acc_plain = plain.evaluate(&net, &a, &images, &labels, 9).mean();
        let acc_ecc = ecc.evaluate(&net, &a, &images, &labels, 9).mean();
        assert!(
            acc_ecc >= acc_plain,
            "SEC-DED ({acc_ecc}) must not be worse than unprotected ({acc_plain}) at 0.42 V"
        );
        // At a fault-free voltage both are clean.
        let safe = VoltageAssignment::uniform(Volt::new(0.60), 2);
        assert!(ecc.evaluate(&net, &safe, &images, &labels, 9).mean() > 0.95);
    }

    #[test]
    fn secded_cannot_match_full_boost_at_deep_vlv() {
        // The ablation the paper's related-work argument rests on: at very
        // low voltage the multi-bit error rate defeats SEC-DED, while
        // boosting (rail back to ~0.55 V) stays clean.
        let (net, images, labels) = toy_net_and_data();
        let ecc = AccuracyEvaluator::new(4).with_ecc(EccMode::SecDed);
        let deep = VoltageAssignment::uniform(Volt::new(0.36), 2);
        let acc_ecc = ecc.evaluate(&net, &deep, &images, &labels, 10).mean();
        let boosted = VoltageAssignment::uniform(Volt::new(0.54), 2);
        let acc_boost = ecc.evaluate(&net, &boosted, &images, &labels, 10).mean();
        assert!(
            acc_boost > acc_ecc + 0.2,
            "boosted rail ({acc_boost}) must beat ECC at 0.36 V ({acc_ecc})"
        );
    }

    #[test]
    fn stats_summaries_are_consistent() {
        let stats = AccuracyStats {
            per_trial: vec![0.9, 1.0, 0.8],
        };
        assert!((stats.mean() - 0.9).abs() < 1e-12);
        assert!((stats.min() - 0.8).abs() < 1e-12);
        assert!(stats.std_dev() > 0.0);
        let single = AccuracyStats {
            per_trial: vec![0.5],
        };
        assert_eq!(single.std_dev(), 0.0);
    }

    #[test]
    #[should_panic(expected = "no trials")]
    fn min_of_no_trials_panics() {
        let _ = AccuracyStats { per_trial: vec![] }.min();
    }

    #[test]
    fn evaluation_is_deterministic_per_seed() {
        let (net, images, labels) = toy_net_and_data();
        let eval = AccuracyEvaluator::new(2);
        let a = VoltageAssignment::uniform(Volt::new(0.40), 2);
        let s1 = eval.evaluate(&net, &a, &images, &labels, 7);
        let s2 = eval.evaluate(&net, &a, &images, &labels, 7);
        assert_eq!(s1, s2);
    }

    #[test]
    #[should_panic(expected = "assignment covers")]
    fn mismatched_assignment_rejected() {
        let (net, _, _) = toy_net_and_data();
        let eval = AccuracyEvaluator::new(1);
        let bad = VoltageAssignment::uniform(Volt::new(0.5), 3);
        let _ = eval.corrupt_network(&net, &bad, 0);
    }

    /// A small conv net (conv - relu - pool - dense) on 2x6x6 inputs.
    fn toy_conv_net_and_data() -> (Network, Vec<f32>, Vec<u8>) {
        use dante_nn::layers::{Conv2d, MaxPool2d, Shape3};
        let mut rng = StdRng::seed_from_u64(17);
        let net = Network::new(vec![
            Layer::Conv2d(Conv2d::new(Shape3::new(2, 6, 6), 4, 3, 1, &mut rng)),
            Layer::Relu(Relu::new(4 * 6 * 6)),
            Layer::MaxPool2d(MaxPool2d::new(Shape3::new(4, 6, 6))),
            Layer::Dense(Dense::new(4 * 3 * 3, 3, &mut rng)),
        ])
        .unwrap();
        let images: Vec<f32> = (0..12 * 72)
            .map(|i| ((i * 37) % 101) as f32 / 101.0)
            .collect();
        let labels: Vec<u8> = (0..12).map(|i| (i % 3) as u8).collect();
        (net, images, labels)
    }

    /// `corrupt_network` (a sampled [`WeightDie`] applied to re-quantized
    /// weights) writes exactly the weights a trial's undo-log corruption of
    /// the prepared network scores, byte for byte, for every ECC mode and
    /// fault model, on dense and conv layers.
    #[test]
    fn corrupt_network_matches_the_trial_path_byte_for_byte() {
        for (net, images, labels) in [toy_net_and_data(), toy_conv_net_and_data()] {
            let layers = net.weight_layer_indices().len();
            for ecc in [EccMode::None, EccMode::SecDed] {
                for model in [
                    FaultModel::gaussian_default(),
                    FaultModel::chip_variation_default(),
                    FaultModel::burst_default(),
                ] {
                    let eval = AccuracyEvaluator::new(1)
                        .with_ecc(ecc)
                        .with_fault_spec(model);
                    let prep = eval.prepare(&net, &images, &labels);
                    for (mv, seed) in [(360.0, 3u64), (400.0, 4), (440.0, 5)] {
                        let a = VoltageAssignment::uniform(Volt::from_millivolts(mv), layers);
                        let mut scratch = TrialScratch::new(&prep);
                        let _ = eval.corrupt_trial(&prep, &a, seed, &mut scratch);
                        let want = scratch.net.to_bytes();
                        if mv < 400.0 {
                            assert_ne!(want, prep.clean_net.to_bytes(), "the die flips words");
                        }
                        assert_eq!(
                            eval.corrupt_network(&net, &a, seed).to_bytes(),
                            want,
                            "{ecc:?} {model:?} at {mv} mV"
                        );
                        // A held copy with stale contents is fully rewritten.
                        let mut held = eval.corrupt_network(&net, &a, seed ^ 0xFF);
                        eval.weight_die(&net, &a, seed)
                            .corrupt_into(&net, &mut held);
                        assert_eq!(held.to_bytes(), want);
                    }
                }
            }
        }
    }

    #[test]
    fn corrupt_network_is_a_pure_function_of_its_seed() {
        let (net, _, _) = toy_net_and_data();
        let eval = AccuracyEvaluator::new(1);
        let a = VoltageAssignment::uniform(Volt::new(0.38), 2);
        assert_eq!(
            eval.corrupt_network(&net, &a, 99),
            eval.corrupt_network(&net, &a, 99)
        );
        assert_ne!(
            eval.corrupt_network(&net, &a, 99),
            eval.corrupt_network(&net, &a, 100)
        );
    }
}
