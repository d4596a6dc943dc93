//! Trial-batched forward evaluation with incremental re-evaluation.
//!
//! Monte-Carlo fault-injection trials at a fixed voltage share the clean
//! quantized activations: only the handful of weight words (and, at very low
//! voltages, input words) flipped by the overlay differ between trials. This
//! module exploits that by computing the clean forward pass **once** per
//! evaluation ([`CleanForward`]) and then, per trial, recomputing only what a
//! corrupted network can actually change:
//!
//! * images whose *input* words were flipped are re-run from layer 0;
//! * for weight corruption, everything upstream of the first dirty layer is
//!   reused from the cache, and when the first dirty layer's damage is
//!   confined to a few output columns (dense) or channels (conv), only those
//!   are recomputed before resuming the full pass downstream
//!   ([`LayerWork::DenseColumns`] / [`LayerWork::ConvChannels`]);
//! * trials that touch nothing return the cached clean correct-count for
//!   free.
//!
//! Everything is **bit-identical** to the full [`Network::accuracy`] pass:
//! both run dense and conv layers on the exact kernels from [`crate::gemm`]
//! (the dense column slice and the conv channel recompute keep the same
//! per-element fold; the latter is the conv forward pass itself, over fewer
//! filter rows), per-image results are independent of batch grouping
//! (every layer computes each output element from a single sample), and the
//! correct-count is an integer. The differential wall in
//! dante-verify and `tests/differential.rs` holds this equivalence under
//! random fault overlays, shrinking any mismatch to a 1-minimal set.

use crate::gemm;
use crate::layers::Layer;
use crate::network::Network;
use crate::tensor::argmax;

/// Mirror of the full pass's internal evaluation chunk
/// ([`Network::accuracy`] batches 256 images at a time). Equality of results
/// does not depend on this (per-image bits are grouping-independent), but
/// matching it keeps cache behaviour comparable.
const CHUNK: usize = 256;

/// Default activation-cache budget in `f32` elements (256 MiB). Workloads
/// whose per-layer activations over the full test set exceed this (e.g. the
/// AlexNet conv prefix) drop to a light cache — clean predictions only —
/// and trials recompute every image; results are unchanged, only the
/// incremental shortcuts are lost.
pub const DEFAULT_CACHE_BUDGET: usize = 64 << 20;

/// Clean-network activations and predictions over a full test set.
#[derive(Debug, Clone)]
pub struct CleanForward {
    n: usize,
    /// `acts[l]` = input to layer `l` for every image, row-major
    /// (`n x in_len(l)`); `acts[layers.len()]` = the logits. `acts[0]` is
    /// left empty — trial inputs always come from the caller's buffer.
    /// `None` when the budget forced a light cache.
    acts: Option<Vec<Vec<f32>>>,
    correct: Vec<bool>,
    correct_count: usize,
}

impl CleanForward {
    /// Runs the clean forward pass over `inputs` and caches per-layer
    /// activations (subject to [`DEFAULT_CACHE_BUDGET`]).
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != labels.len() * net.in_len()`.
    #[must_use]
    pub fn build(net: &Network, inputs: &[f32], labels: &[u8]) -> Self {
        Self::with_cache_budget(net, inputs, labels, DEFAULT_CACHE_BUDGET)
    }

    /// [`Self::build`] with an explicit activation budget in `f32` elements.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != labels.len() * net.in_len()`.
    #[must_use]
    pub fn with_cache_budget(
        net: &Network,
        inputs: &[f32],
        labels: &[u8],
        max_floats: usize,
    ) -> Self {
        let n = labels.len();
        assert_eq!(
            inputs.len(),
            n * net.in_len(),
            "image buffer length mismatch"
        );
        let layers = net.layers();
        let cache_floats: usize = layers.iter().map(|l| n * l.out_len()).sum();
        let mut correct = Vec::with_capacity(n);
        let classes = net.out_len();

        let acts = if cache_floats <= max_floats {
            let mut acts: Vec<Vec<f32>> = Vec::with_capacity(layers.len() + 1);
            acts.push(Vec::new());
            // First layer reads straight from `inputs`; later layers from the
            // previous cache entry. Chunked so conv fallbacks allocate small.
            for (l, layer) in layers.iter().enumerate() {
                let mut y = vec![0.0f32; n * layer.out_len()];
                for start in (0..n).step_by(CHUNK) {
                    let end = (start + CHUNK).min(n);
                    let b = end - start;
                    let (in_l, out_l) = (layer.in_len(), layer.out_len());
                    let x = if l == 0 {
                        &inputs[start * in_l..end * in_l]
                    } else {
                        &acts[l][start * in_l..end * in_l]
                    };
                    let yo = &mut y[start * out_l..end * out_l];
                    forward_layer_into(layer, x, b, yo);
                }
                acts.push(y);
            }
            let logits = acts.last().expect("non-empty network");
            for (i, &label) in labels.iter().enumerate() {
                correct.push(argmax(&logits[i * classes..(i + 1) * classes]) == usize::from(label));
            }
            Some(acts)
        } else {
            // Light cache: clean predictions only, via the same exact kernels.
            let mut ping = Vec::new();
            let mut pong = Vec::new();
            for start in (0..n).step_by(CHUNK) {
                let end = (start + CHUNK).min(n);
                let b = end - start;
                ping.clear();
                ping.extend_from_slice(&inputs[start * net.in_len()..end * net.in_len()]);
                forward_from(net, 0, b, &mut ping, &mut pong);
                for (slot, &label) in labels[start..end].iter().enumerate() {
                    correct.push(
                        argmax(&ping[slot * classes..(slot + 1) * classes]) == usize::from(label),
                    );
                }
            }
            None
        };

        let correct_count = correct.iter().filter(|&&c| c).count();
        Self {
            n,
            acts,
            correct,
            correct_count,
        }
    }

    /// Number of cached images.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Correct predictions of the clean network.
    #[must_use]
    pub fn correct_count(&self) -> usize {
        self.correct_count
    }

    /// Clean accuracy, identical to [`Network::accuracy`] (0.0 for an empty
    /// set).
    #[must_use]
    pub fn accuracy(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.correct_count as f64 / self.n as f64
        }
    }

    /// Whether per-layer activations were cached (false = light cache; every
    /// trial recomputes all images).
    #[must_use]
    pub fn has_activations(&self) -> bool {
        self.acts.is_some()
    }
}

/// What the first corrupted layer needs recomputed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerWork<'a> {
    /// Recompute the layer's full output (damage too spread out, or the
    /// caller did not localize it).
    Full,
    /// Only these output columns of a dense layer changed (sorted, deduped).
    DenseColumns(&'a [usize]),
    /// Only these output channels of a conv layer changed (sorted, deduped).
    ConvChannels(&'a [usize]),
}

/// Reusable buffers for [`trial_correct_count`]; steady-state trials on
/// dense networks allocate nothing.
#[derive(Debug, Default, Clone)]
pub struct BatchedScratch {
    clean_idx: Vec<usize>,
    ping: Vec<f32>,
    pong: Vec<f32>,
    col_buf: Vec<f32>,
}

impl BatchedScratch {
    /// Creates an empty scratch (buffers grow on first use).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Correct-prediction count of a corrupted `net` over the test set,
/// bit-identical to `(net.accuracy(inputs, labels) * n)` on the full pass.
///
/// Contract (the caller derives all of this from the overlay's sorted
/// touched-word list):
///
/// * `inputs` is the full image buffer for this trial; rows **not** in
///   `dirty_images` must equal the clean images the cache was built from.
/// * `dirty_images` is sorted and deduped.
/// * `first_dirty = Some((l, work))` names the first layer whose parameters
///   differ from the clean network; all earlier layers must be clean.
///   `None` means all weights are clean (input corruption only).
/// * [`LayerWork::DenseColumns`] / [`LayerWork::ConvChannels`] additionally
///   promise the damage at that layer is confined to those columns/channels.
///
/// # Panics
///
/// Panics on length mismatches, an out-of-range layer index, or a
/// [`LayerWork`] variant that does not match the layer's kind.
pub fn trial_correct_count(
    net: &Network,
    cache: &CleanForward,
    labels: &[u8],
    inputs: &[f32],
    dirty_images: &[usize],
    first_dirty: Option<(usize, LayerWork<'_>)>,
    scratch: &mut BatchedScratch,
) -> usize {
    let n = cache.n;
    assert_eq!(labels.len(), n, "label count mismatch");
    assert_eq!(
        inputs.len(),
        n * net.in_len(),
        "image buffer length mismatch"
    );
    let classes = net.out_len();

    let Some((l0, work)) = first_dirty else {
        // Clean weights: only dirty images can change their prediction.
        let mut count = cache.correct_count;
        for chunk in dirty_images.chunks(CHUNK) {
            let b = chunk.len();
            gather(inputs, net.in_len(), chunk, &mut scratch.ping);
            forward_from(net, 0, b, &mut scratch.ping, &mut scratch.pong);
            for (slot, &img) in chunk.iter().enumerate() {
                let now = argmax(&scratch.ping[slot * classes..(slot + 1) * classes])
                    == usize::from(labels[img]);
                count = count - usize::from(cache.correct[img]) + usize::from(now);
            }
        }
        return count;
    };

    assert!(l0 < net.layers().len(), "dirty layer index out of range");

    let Some(acts) = &cache.acts else {
        // Light cache: no activations to resume from; recompute everything.
        let mut count = 0usize;
        for start in (0..n).step_by(CHUNK) {
            let end = (start + CHUNK).min(n);
            let b = end - start;
            scratch.ping.clear();
            scratch
                .ping
                .extend_from_slice(&inputs[start * net.in_len()..end * net.in_len()]);
            forward_from(net, 0, b, &mut scratch.ping, &mut scratch.pong);
            for (slot, &label) in labels[start..end].iter().enumerate() {
                count += usize::from(
                    argmax(&scratch.ping[slot * classes..(slot + 1) * classes])
                        == usize::from(label),
                );
            }
        }
        return count;
    };

    let mut count = 0usize;

    // Dirty images run the corrupted net from layer 0.
    for chunk in dirty_images.chunks(CHUNK) {
        let b = chunk.len();
        gather(inputs, net.in_len(), chunk, &mut scratch.ping);
        forward_from(net, 0, b, &mut scratch.ping, &mut scratch.pong);
        for (slot, &img) in chunk.iter().enumerate() {
            count += usize::from(
                argmax(&scratch.ping[slot * classes..(slot + 1) * classes])
                    == usize::from(labels[img]),
            );
        }
    }

    // Clean images resume from the cached input to the first dirty layer.
    scratch.clean_idx.clear();
    {
        let mut dirty_it = dirty_images.iter().peekable();
        for img in 0..n {
            if dirty_it.peek() == Some(&&img) {
                dirty_it.next();
            } else {
                scratch.clean_idx.push(img);
            }
        }
    }
    let layer = &net.layers()[l0];
    let (in_l, out_l) = (layer.in_len(), layer.out_len());
    // `clean_idx` is iterated while the other scratch buffers mutate; take
    // it out and put it back rather than fight the borrow checker.
    let clean_idx = std::mem::take(&mut scratch.clean_idx);
    // acts[0] is never cached: layer 0 reads the caller's image buffer
    // (identical to the clean images for every clean-index row).
    let l0_input: &[f32] = if l0 == 0 { inputs } else { &acts[l0] };
    for chunk in clean_idx.chunks(CHUNK) {
        let b = chunk.len();
        gather(l0_input, in_l, chunk, &mut scratch.ping);
        match work {
            LayerWork::Full => {
                scratch.pong.resize(b * out_l, 0.0);
                let (x, y) = (&scratch.ping[..b * in_l], &mut scratch.pong[..b * out_l]);
                forward_layer_into(layer, x, b, y);
                std::mem::swap(&mut scratch.ping, &mut scratch.pong);
            }
            LayerWork::DenseColumns(cols) => {
                let Layer::Dense(d) = layer else {
                    panic!("DenseColumns on a non-dense layer");
                };
                // Seed with the cached clean outputs, then redo dirty cols.
                gather(&acts[l0 + 1], out_l, chunk, &mut scratch.pong);
                gemm::dense_cols_into(
                    &scratch.ping[..b * in_l],
                    d.weights().as_slice(),
                    d.bias(),
                    b,
                    in_l,
                    out_l,
                    cols,
                    &mut scratch.col_buf,
                    &mut scratch.pong[..b * out_l],
                );
                std::mem::swap(&mut scratch.ping, &mut scratch.pong);
            }
            LayerWork::ConvChannels(channels) => {
                let Layer::Conv2d(conv) = layer else {
                    panic!("ConvChannels on a non-conv layer");
                };
                gather(&acts[l0 + 1], out_l, chunk, &mut scratch.pong);
                conv.forward_channels_into(
                    &scratch.ping[..b * in_l],
                    b,
                    channels,
                    &mut scratch.pong[..b * out_l],
                );
                std::mem::swap(&mut scratch.ping, &mut scratch.pong);
            }
        }
        forward_from(net, l0 + 1, b, &mut scratch.ping, &mut scratch.pong);
        for (slot, &img) in chunk.iter().enumerate() {
            count += usize::from(
                argmax(&scratch.ping[slot * classes..(slot + 1) * classes])
                    == usize::from(labels[img]),
            );
        }
    }
    scratch.clean_idx = clean_idx;
    count
}

/// Gathers `rows` of width `width` from `src` into `dst` (resized).
fn gather(src: &[f32], width: usize, rows: &[usize], dst: &mut Vec<f32>) {
    dst.clear();
    dst.reserve(rows.len() * width);
    for &r in rows {
        dst.extend_from_slice(&src[r * width..(r + 1) * width]);
    }
}

/// Runs layers `start..` over a batch held in `cur` (ping-pong with `tmp`);
/// on return `cur` holds the logits. Only max-pooling allocates.
fn forward_from(net: &Network, start: usize, b: usize, cur: &mut Vec<f32>, tmp: &mut Vec<f32>) {
    for layer in &net.layers()[start..] {
        let (in_l, out_l) = (layer.in_len(), layer.out_len());
        if let Layer::Relu(_) = layer {
            for v in &mut cur[..b * out_l] {
                *v = v.max(0.0);
            }
            continue;
        }
        tmp.resize(b * out_l, 0.0);
        forward_layer_into(layer, &cur[..b * in_l], b, &mut tmp[..b * out_l]);
        std::mem::swap(cur, tmp);
    }
}

/// One layer's forward into a preallocated output slice, on the exact
/// kernels for dense and conv layers.
fn forward_layer_into(layer: &Layer, x: &[f32], b: usize, y: &mut [f32]) {
    let (in_l, out_l) = (layer.in_len(), layer.out_len());
    debug_assert_eq!(x.len(), b * in_l);
    debug_assert_eq!(y.len(), b * out_l);
    match layer {
        Layer::Dense(d) => d.forward_into(x, b, y),
        Layer::Conv2d(c) => c.forward_into(x, b, y),
        Layer::Relu(_) => {
            for (o, &v) in y.iter_mut().zip(x) {
                *o = v.max(0.0);
            }
        }
        Layer::MaxPool2d(p) => y.copy_from_slice(&p.forward(x, b)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Dense, MaxPool2d, Relu, Shape3};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fc_net(seed: u64) -> Network {
        let mut rng = StdRng::seed_from_u64(seed);
        Network::new(vec![
            Layer::Dense(Dense::new(12, 9, &mut rng)),
            Layer::Relu(Relu::new(9)),
            Layer::Dense(Dense::new(9, 7, &mut rng)),
            Layer::Relu(Relu::new(7)),
            Layer::Dense(Dense::new(7, 4, &mut rng)),
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

    fn scalar_count(net: &Network, inputs: &[f32], labels: &[u8]) -> usize {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let c = (net.accuracy(inputs, labels) * labels.len() as f64).round() as usize;
        c
    }

    #[test]
    fn clean_cache_matches_scalar_accuracy_bitwise() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = fc_net(10);
        let (inputs, labels) = dataset(&mut rng, 300, 12, 4);
        let cache = CleanForward::build(&net, &inputs, &labels);
        assert!(cache.has_activations());
        assert!(cache.accuracy().to_bits() == net.accuracy(&inputs, &labels).to_bits());

        let mut scratch = BatchedScratch::new();
        let count = trial_correct_count(&net, &cache, &labels, &inputs, &[], None, &mut scratch);
        assert_eq!(count, cache.correct_count());
    }

    #[test]
    fn corrupted_weights_match_scalar_under_all_work_variants() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = fc_net(11);
        let (inputs, labels) = dataset(&mut rng, 130, 12, 4);
        let cache = CleanForward::build(&net, &inputs, &labels);
        let mut scratch = BatchedScratch::new();

        // Corrupt two columns of the middle dense layer (index 2).
        let mut corrupted = net.clone();
        let cols = [1usize, 5];
        if let Layer::Dense(d) = &mut corrupted.layers_mut()[2] {
            for r in 0..9 {
                for &c in &cols {
                    let v = d.weights().get(r, c);
                    d.weights_mut().set(r, c, v * -3.0 + 0.7);
                }
            }
        } else {
            panic!("layer 2 should be dense");
        }
        let want = scalar_count(&corrupted, &inputs, &labels);

        for work in [LayerWork::Full, LayerWork::DenseColumns(&cols)] {
            let got = trial_correct_count(
                &corrupted,
                &cache,
                &labels,
                &inputs,
                &[],
                Some((2, work)),
                &mut scratch,
            );
            assert_eq!(got, want, "work variant {work:?}");
        }
    }

    #[test]
    fn dirty_images_match_scalar() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = fc_net(12);
        let (inputs, labels) = dataset(&mut rng, 64, 12, 4);
        let cache = CleanForward::build(&net, &inputs, &labels);
        let mut scratch = BatchedScratch::new();

        let mut corrupted_inputs = inputs.clone();
        let dirty = [3usize, 17, 63];
        for &img in &dirty {
            for v in &mut corrupted_inputs[img * 12..(img + 1) * 12] {
                *v = 1.0 - *v;
            }
        }
        let want = scalar_count(&net, &corrupted_inputs, &labels);
        let got = trial_correct_count(
            &net,
            &cache,
            &labels,
            &corrupted_inputs,
            &dirty,
            None,
            &mut scratch,
        );
        assert_eq!(got, want);
    }

    #[test]
    fn conv_channel_work_matches_scalar() {
        let mut rng = StdRng::seed_from_u64(4);
        let net = conv_net(13);
        let in_len = net.in_len();
        let (inputs, labels) = dataset(&mut rng, 40, in_len, 3);
        let cache = CleanForward::build(&net, &inputs, &labels);
        let mut scratch = BatchedScratch::new();

        let mut corrupted = net.clone();
        let channels = [2usize];
        if let Layer::Conv2d(conv) = &mut corrupted.layers_mut()[0] {
            let per_ch = conv.weights().len() / 4;
            for w in &mut conv.weights_mut()[2 * per_ch..3 * per_ch] {
                *w = -*w * 2.0;
            }
        } else {
            panic!("layer 0 should be conv");
        }
        let want = scalar_count(&corrupted, &inputs, &labels);
        for work in [LayerWork::Full, LayerWork::ConvChannels(&channels)] {
            let got = trial_correct_count(
                &corrupted,
                &cache,
                &labels,
                &inputs,
                &[],
                Some((0, work)),
                &mut scratch,
            );
            assert_eq!(got, want, "work variant {work:?}");
        }
    }

    #[test]
    fn light_cache_still_matches_scalar() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = fc_net(14);
        let (inputs, labels) = dataset(&mut rng, 80, 12, 4);
        // Budget 0 forces the light cache.
        let cache = CleanForward::with_cache_budget(&net, &inputs, &labels, 0);
        assert!(!cache.has_activations());
        assert_eq!(
            cache.accuracy().to_bits(),
            net.accuracy(&inputs, &labels).to_bits()
        );
        let mut scratch = BatchedScratch::new();

        let mut corrupted = net.clone();
        if let Layer::Dense(d) = &mut corrupted.layers_mut()[0] {
            let v = d.weights().get(0, 0);
            d.weights_mut().set(0, 0, v + 5.0);
        }
        let want = scalar_count(&corrupted, &inputs, &labels);
        let got = trial_correct_count(
            &corrupted,
            &cache,
            &labels,
            &inputs,
            &[],
            Some((0, LayerWork::Full)),
            &mut scratch,
        );
        assert_eq!(got, want);
    }

    #[test]
    fn combined_weight_and_input_corruption_matches_scalar() {
        let mut rng = StdRng::seed_from_u64(6);
        let net = fc_net(15);
        let (inputs, labels) = dataset(&mut rng, 300, 12, 4);
        let cache = CleanForward::build(&net, &inputs, &labels);
        let mut scratch = BatchedScratch::new();

        let mut corrupted = net.clone();
        let cols = [0usize];
        if let Layer::Dense(d) = &mut corrupted.layers_mut()[4] {
            for r in 0..7 {
                let v = d.weights().get(r, 0);
                d.weights_mut().set(r, 0, v - 2.5);
            }
        }
        let mut corrupted_inputs = inputs.clone();
        let dirty: Vec<usize> = (0..300).step_by(7).collect();
        for &img in &dirty {
            for v in &mut corrupted_inputs[img * 12..(img + 1) * 12] {
                *v *= -0.5;
            }
        }
        let want = scalar_count(&corrupted, &corrupted_inputs, &labels);
        let got = trial_correct_count(
            &corrupted,
            &cache,
            &labels,
            &corrupted_inputs,
            &dirty,
            Some((4, LayerWork::DenseColumns(&cols))),
            &mut scratch,
        );
        assert_eq!(got, want);
    }

    #[test]
    fn empty_test_set_reports_zero() {
        let net = fc_net(16);
        let cache = CleanForward::build(&net, &[], &[]);
        assert_eq!(cache.accuracy(), 0.0);
        let mut scratch = BatchedScratch::new();
        assert_eq!(
            trial_correct_count(&net, &cache, &[], &[], &[], None, &mut scratch),
            0
        );
    }
}
