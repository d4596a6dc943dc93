//! Compilation of a trained [`dante_nn::Network`] into a quantized
//! accelerator program.
//!
//! Compilation quantizes each weight layer in the chip's fixed-point format
//! ([`dante_nn::quant`]), runs a float calibration batch through the float
//! network, gives the input and every weight stage's output the scale that
//! format gives those float values ([`quant::scale_of`]), and derives the
//! per-layer requantization multipliers.
//! Every weight layer becomes one [`WeightStage`]: a convolution is lowered
//! im2col-style (each output channel's filter becomes one weight row the
//! PEs sweep across the feature map — the filter-resident reuse pattern of
//! real conv accelerators), and a dense layer is the 1x1 kernel over a 1x1
//! map, whose output-major rows are already that layout. A ReLU fuses onto
//! the weight stage before it; max-pool becomes a PE-local stage on
//! activation codes. The result is everything the executor needs: packed
//! weight words, scale metadata, and layer geometry.

use crate::pe::quantize_multiplier;
use dante_nn::layers::{Layer, Shape3};
use dante_nn::network::Network;
use dante_nn::quant::{self, ScaledTensor};

/// One compiled weight stage, the chip's only one: a convolution lowered
/// im2col-style, one weight row of `in_c * k * k` codes per output channel,
/// which the executor sweeps across the feature map. A dense layer is the
/// one-pixel case, a 1x1 kernel over a 1x1 map with `in_c = in_features`
/// and one output channel per neuron.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightStage {
    weights: ScaledTensor,
    /// Per-channel bias in accumulator units (`s_w * s_x`), added before
    /// requantization.
    bias_acc: Vec<i64>,
    in_c: usize,
    in_h: usize,
    in_w: usize,
    out_channels: usize,
    kernel: usize,
    padding: usize,
    relu: bool,
    requant_multiplier: i32,
    requant_shift: u32,
    out_scale: f32,
}

impl WeightStage {
    /// Quantized weight rows, one row of `in_c * k * k` codes per output
    /// channel (`[oc][ic][kh][kw]`, row-contiguous).
    #[must_use]
    pub fn weights(&self) -> &ScaledTensor {
        &self.weights
    }

    /// Per-channel bias in accumulator units.
    #[must_use]
    pub fn bias_acc(&self) -> &[i64] {
        &self.bias_acc
    }

    /// Input shape `(c, h, w)`.
    #[must_use]
    pub fn in_shape(&self) -> (usize, usize, usize) {
        (self.in_c, self.in_h, self.in_w)
    }

    /// Output channel count.
    #[must_use]
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Kernel side length.
    #[must_use]
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Symmetric zero padding.
    #[must_use]
    pub fn padding(&self) -> usize {
        self.padding
    }

    /// Whether a ReLU is fused onto the output.
    #[must_use]
    pub fn relu(&self) -> bool {
        self.relu
    }

    /// Requantization multiplier/shift pair.
    #[must_use]
    pub fn requant(&self) -> (i32, u32) {
        (self.requant_multiplier, self.requant_shift)
    }

    /// Scale of the output activation codes.
    #[must_use]
    pub fn out_scale(&self) -> f32 {
        self.out_scale
    }

    /// Input activation count.
    #[must_use]
    pub fn in_len(&self) -> usize {
        self.in_c * self.in_h * self.in_w
    }

    /// Output spatial height (stride 1).
    #[must_use]
    pub fn out_h(&self) -> usize {
        self.in_h + 2 * self.padding - self.kernel + 1
    }

    /// Output spatial width (stride 1).
    #[must_use]
    pub fn out_w(&self) -> usize {
        self.in_w + 2 * self.padding - self.kernel + 1
    }

    /// Output activation count.
    #[must_use]
    pub fn out_len(&self) -> usize {
        self.out_channels * self.out_h() * self.out_w()
    }

    /// Codes per weight row (`in_c * k * k`).
    #[must_use]
    pub fn row_len(&self) -> usize {
        self.in_c * self.kernel * self.kernel
    }

    /// 64-bit words one weight row occupies (word-aligned).
    #[must_use]
    pub fn words_per_row(&self) -> usize {
        self.row_len().div_ceil(quant::LANES)
    }
}

/// A 2x2/stride-2 max-pool stage executed on activation codes inside the
/// PEs (max of fixed-point codes equals max of values at a shared scale).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStage {
    /// Input channels.
    pub channels: usize,
    /// Input height (even).
    pub in_h: usize,
    /// Input width (even).
    pub in_w: usize,
}

impl PoolStage {
    /// Input activation count.
    #[must_use]
    pub fn in_len(&self) -> usize {
        self.channels * self.in_h * self.in_w
    }

    /// Output activation count.
    #[must_use]
    pub fn out_len(&self) -> usize {
        self.channels * (self.in_h / 2) * (self.in_w / 2)
    }
}

/// One stage of a compiled program.
#[derive(Debug, Clone, PartialEq)]
pub enum CompiledLayer {
    /// Weight stage (dense or convolution).
    Weights(WeightStage),
    /// Max-pool stage (no weights).
    Pool(PoolStage),
}

impl CompiledLayer {
    /// Input activation count.
    #[must_use]
    pub fn in_len(&self) -> usize {
        match self {
            Self::Weights(l) => l.in_len(),
            Self::Pool(p) => p.in_len(),
        }
    }

    /// Output activation count.
    #[must_use]
    pub fn out_len(&self) -> usize {
        match self {
            Self::Weights(l) => l.out_len(),
            Self::Pool(p) => p.out_len(),
        }
    }

    /// Whether the stage holds weights in the weight memory (and therefore
    /// consumes a boost-schedule entry).
    #[must_use]
    pub fn has_weights(&self) -> bool {
        self.as_weights().is_some()
    }

    /// The weight stage, if this is one.
    #[must_use]
    pub fn as_weights(&self) -> Option<&WeightStage> {
        match self {
            Self::Weights(l) => Some(l),
            Self::Pool(_) => None,
        }
    }

    /// Scale of the stage's output codes (`None` for pool, which preserves
    /// its input scale).
    #[must_use]
    pub fn out_scale(&self) -> Option<f32> {
        self.as_weights().map(WeightStage::out_scale)
    }
}

/// A compiled accelerator program.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    layers: Vec<CompiledLayer>,
    input_scale: f32,
}

/// Error compiling a network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The network has a layer the chip cannot map: a ReLU with no weight
    /// stage before it to fuse onto.
    UnsupportedLayer {
        /// Index of the offending layer.
        index: usize,
        /// Human-readable layer kind.
        kind: &'static str,
    },
    /// The calibration set was empty.
    EmptyCalibration,
}

impl core::fmt::Display for CompileError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::UnsupportedLayer { index, kind } => {
                write!(
                    f,
                    "layer {index} ({kind}) cannot be mapped onto the FC accelerator"
                )
            }
            Self::EmptyCalibration => write!(f, "calibration set is empty"),
        }
    }
}

impl std::error::Error for CompileError {}

impl Program {
    /// Compiles a network of dense, convolution, ReLU and max-pool layers.
    ///
    /// `calibration` is a batch of representative input samples
    /// (`net.in_len()` floats each) used to size activation scales.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::UnsupportedLayer`] for a ReLU with no weight
    /// stage before it and [`CompileError::EmptyCalibration`] for an empty
    /// calibration batch.
    ///
    /// # Panics
    ///
    /// Panics if `calibration.len()` is not a multiple of `net.in_len()`.
    pub fn compile(net: &Network, calibration: &[f32]) -> Result<Self, CompileError> {
        if calibration.is_empty() {
            return Err(CompileError::EmptyCalibration);
        }
        let in_len = net.in_len();
        assert_eq!(
            calibration.len() % in_len,
            0,
            "calibration batch length mismatch"
        );
        let batch = calibration.len() / in_len;

        let input_scale = quant::scale_of(calibration);

        let mut layers: Vec<CompiledLayer> = Vec::new();
        let mut act = calibration.to_vec();
        let mut act_scale = input_scale;
        // A weight stage awaiting possible ReLU fusion, with its float
        // calibration output.
        let mut pending: Option<(WeightStage, Vec<f32>)> = None;

        for (index, layer) in net.layers().iter().enumerate() {
            if let Layer::Relu(_) = layer {
                let Some((mut stage, out)) = pending.take() else {
                    return Err(CompileError::UnsupportedLayer {
                        index,
                        kind: "relu without preceding weight layer",
                    });
                };
                stage.relu = true;
                act_scale = stage.out_scale;
                layers.push(CompiledLayer::Weights(stage));
                act = out.iter().map(|&v| v.max(0.0)).collect();
                continue;
            }
            // Any non-ReLU layer flushes a pending weight stage unfused.
            if let Some((stage, out)) = pending.take() {
                act_scale = stage.out_scale;
                layers.push(CompiledLayer::Weights(stage));
                act = out;
            }
            let (weights, bias, shape, out_channels, kernel, padding, out) = match layer {
                Layer::Dense(d) => {
                    // Transpose [in x out] -> out-major rows: the filter
                    // rows of a 1x1 kernel over a 1x1 map.
                    let (inf, outf) = (d.in_features(), d.out_features());
                    let mut w_t = vec![0.0f32; inf * outf];
                    let w = d.weights().as_slice();
                    for i in 0..inf {
                        for o in 0..outf {
                            w_t[o * inf + i] = w[i * outf + o];
                        }
                    }
                    let shape = Shape3::new(inf, 1, 1);
                    let out = d.forward(&act, batch);
                    (quant::quantize(&w_t), d.bias(), shape, outf, 1, 0, out)
                }
                // Conv weights are already stored out-channel-major
                // ([oc][ic][kh][kw]) — one im2col row per channel.
                Layer::Conv2d(c) => (
                    quant::quantize(c.weights()),
                    c.bias(),
                    c.in_shape(),
                    c.out_channels(),
                    c.kernel(),
                    c.padding(),
                    c.forward(&act, batch),
                ),
                Layer::MaxPool2d(p) => {
                    let shape = p.in_shape();
                    layers.push(CompiledLayer::Pool(PoolStage {
                        channels: shape.c,
                        in_h: shape.h,
                        in_w: shape.w,
                    }));
                    act = p.forward(&act, batch);
                    // Max pooling preserves the activation scale.
                    continue;
                }
                Layer::Relu(_) => unreachable!("handled above"),
            };
            let out_scale = quant::scale_of(&out);
            let acc_scale = f64::from(weights.scale()) * f64::from(act_scale);
            let (requant_multiplier, requant_shift) =
                quantize_multiplier(acc_scale / f64::from(out_scale));
            let bias_acc = bias
                .iter()
                .map(|&b| (f64::from(b) / acc_scale).round() as i64)
                .collect();
            let stage = WeightStage {
                weights,
                bias_acc,
                in_c: shape.c,
                in_h: shape.h,
                in_w: shape.w,
                out_channels,
                kernel,
                padding,
                relu: false,
                requant_multiplier,
                requant_shift,
                out_scale,
            };
            pending = Some((stage, out));
        }
        if let Some((stage, _)) = pending.take() {
            layers.push(CompiledLayer::Weights(stage));
        }
        Ok(Self {
            layers,
            input_scale,
        })
    }

    /// The compiled stages in execution order.
    #[must_use]
    pub fn layers(&self) -> &[CompiledLayer] {
        &self.layers
    }

    /// Number of weight-bearing stages — the count a
    /// [`BoostSchedule`](crate::executor::BoostSchedule) must cover.
    #[must_use]
    pub fn weight_layer_count(&self) -> usize {
        self.layers.iter().filter(|l| l.has_weights()).count()
    }

    /// Scale of quantized input codes.
    #[must_use]
    pub fn input_scale(&self) -> f32 {
        self.input_scale
    }

    /// Input feature count.
    #[must_use]
    pub fn in_len(&self) -> usize {
        self.layers.first().map_or(0, CompiledLayer::in_len)
    }

    /// Output (logit) count.
    #[must_use]
    pub fn out_len(&self) -> usize {
        self.layers.last().map_or(0, CompiledLayer::out_len)
    }

    /// Scale of the final logit codes.
    ///
    /// # Panics
    ///
    /// Panics on an empty program.
    #[must_use]
    pub fn logit_scale(&self) -> f32 {
        self.layers
            .iter()
            .rev()
            .find_map(CompiledLayer::out_scale)
            .unwrap_or(self.input_scale)
    }

    /// Returns a copy of this program whose weight tensors have been passed
    /// through `f`, called as `f(weight_stage_position, tensor)` in
    /// execution order. This is the hook external fault-injection harnesses
    /// (e.g. `dante-verify`'s differential tester) use to corrupt the
    /// compiled bit image without touching scales, biases, or requantizers
    /// — exactly what a weight-memory fault does on the chip.
    #[must_use]
    pub fn map_weight_tensors(&self, mut f: impl FnMut(usize, &mut ScaledTensor)) -> Self {
        let mut out = self.clone();
        let mut pos = 0usize;
        for layer in &mut out.layers {
            if let CompiledLayer::Weights(l) = layer {
                f(pos, &mut l.weights);
                pos += 1;
            }
        }
        out
    }

    /// Quantizes an input sample to activation codes at the input scale,
    /// with the weights' rounding rule ([`quant::code`]).
    ///
    /// # Panics
    ///
    /// Panics if `sample.len() != in_len()`.
    #[must_use]
    pub fn quantize_input(&self, sample: &[f32]) -> Vec<i16> {
        assert_eq!(sample.len(), self.in_len(), "input length mismatch");
        sample
            .iter()
            .map(|&v| quant::code(v, self.input_scale) as i16)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dante_nn::layers::{Dense, Relu};
    use dante_nn::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_net() -> Network {
        let mut rng = StdRng::seed_from_u64(1);
        Network::new(vec![
            Layer::Dense(Dense::new(8, 6, &mut rng)),
            Layer::Relu(Relu::new(6)),
            Layer::Dense(Dense::new(6, 3, &mut rng)),
        ])
        .unwrap()
    }

    #[test]
    fn compile_produces_one_quantized_layer_per_dense() {
        let net = small_net();
        let calib = vec![0.5f32; 8 * 4];
        let p = Program::compile(&net, &calib).unwrap();
        assert_eq!(p.layers().len(), 2);
        assert_eq!(p.weight_layer_count(), 2);
        assert!(p.layers()[0].as_weights().unwrap().relu());
        assert!(!p.layers()[1].as_weights().unwrap().relu());
        // A dense layer is a 1x1 kernel over a 1x1 map.
        let first = p.layers()[0].as_weights().unwrap();
        assert_eq!(first.in_shape(), (8, 1, 1));
        assert_eq!((first.kernel(), first.padding()), (1, 0));
        assert_eq!((first.out_channels(), first.row_len()), (6, 8));
        assert_eq!(p.in_len(), 8);
        assert_eq!(p.out_len(), 3);
    }

    #[test]
    fn weights_are_transposed_to_output_major() {
        let w = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let net =
            Network::new(vec![Layer::Dense(Dense::from_parameters(w, vec![0.0; 3]))]).unwrap();
        let p = Program::compile(&net, &[1.0, 1.0]).unwrap();
        let vals = p.layers()[0].as_weights().unwrap().weights().to_f32();
        // Row 0 = weights of output neuron 0: [w(0,0), w(1,0)] = [1, 4].
        assert!((vals[0] - 1.0).abs() < 0.01 && (vals[1] - 4.0).abs() < 0.01);
        assert!((vals[2] - 2.0).abs() < 0.01 && (vals[3] - 5.0).abs() < 0.01);
    }

    #[test]
    fn quantize_input_round_trips_through_scale() {
        let net = small_net();
        let calib: Vec<f32> = (0..8).map(|i| i as f32 * 0.1).collect();
        let p = Program::compile(&net, &calib).unwrap();
        let codes = p.quantize_input(&calib);
        for (&c, &v) in codes.iter().zip(&calib) {
            let back = f32::from(c) * p.input_scale();
            assert!((back - v).abs() <= p.input_scale() * 0.5 + 1e-6);
        }
        // The codes are the executor's former hand-written formula, on half
        // steps (±0.5 steps are exact ties), steps beyond the code range and
        // a NaN.
        let s = p.input_scale();
        let sample = [
            -0.5 * s,
            0.5 * s,
            -1.5 * s,
            2.5 * s,
            -4e4 * s,
            4e4 * s,
            -0.3 * s,
            f32::NAN,
        ];
        assert_eq!((f64::from(sample[0]) / f64::from(s)).fract(), -0.5);
        let old: Vec<i16> = sample
            .iter()
            .map(|&v| {
                (f64::from(v) / f64::from(s))
                    .round()
                    .clamp(-32768.0, 32767.0) as i16
            })
            .collect();
        assert_eq!(p.quantize_input(&sample), old);
    }

    #[test]
    fn conv_networks_compile_with_lowered_stages() {
        use dante_nn::layers::{Conv2d, MaxPool2d, Shape3};
        let mut rng = StdRng::seed_from_u64(2);
        let net = Network::new(vec![
            Layer::Conv2d(Conv2d::new(Shape3::new(1, 8, 8), 4, 3, 1, &mut rng)),
            Layer::Relu(Relu::new(4 * 64)),
            Layer::MaxPool2d(MaxPool2d::new(Shape3::new(4, 8, 8))),
            Layer::Dense(Dense::new(64, 3, &mut rng)),
        ])
        .unwrap();
        let calib = vec![0.1f32; net.in_len() * 2];
        let p = Program::compile(&net, &calib).unwrap();
        assert_eq!(p.layers().len(), 3); // conv(+relu), pool, dense
        assert_eq!(p.weight_layer_count(), 2);
        let conv = p.layers()[0].as_weights().expect("first stage is conv");
        assert!(conv.relu());
        assert_eq!(conv.row_len(), 9);
        assert_eq!(conv.out_len(), 4 * 64);
        assert!(matches!(p.layers()[1], CompiledLayer::Pool(_)));
        assert_eq!(p.out_len(), 3);
        assert!(p.logit_scale() > 0.0);
    }

    #[test]
    fn relu_without_weight_layer_rejected() {
        // A ReLU cannot lead the program.
        let net = Network::new(vec![Layer::Relu(Relu::new(4))]).unwrap();
        assert!(matches!(
            Program::compile(&net, &[0.0; 4]),
            Err(CompileError::UnsupportedLayer { index: 0, .. })
        ));
    }

    #[test]
    fn empty_calibration_is_rejected() {
        let net = small_net();
        assert_eq!(
            Program::compile(&net, &[]),
            Err(CompileError::EmptyCalibration)
        );
    }

    #[test]
    fn words_per_row_rounds_up() {
        let net = small_net();
        let p = Program::compile(&net, &[0.0; 8]).unwrap();
        assert_eq!(p.layers()[0].as_weights().unwrap().words_per_row(), 2); // 8 inputs / 4 per word
        assert_eq!(p.layers()[1].as_weights().unwrap().words_per_row(), 2); // 6 inputs -> ceil(6/4)
    }
}
