//! # dante-nn
//!
//! A from-scratch neural-network substrate for the *Dante* low-voltage
//! accelerator reproduction:
//!
//! * [`tensor`] — a minimal row-major matrix plus softmax/argmax helpers.
//! * [`gemm`] — blocked/unrolled GEMM kernels: bit-exact `f32` register
//!   tiling for every dense and conv product, forward and backward (training,
//!   inference and the trial-batched evaluator), plus the lane-split `i16`
//!   dot product and requantizing epilogue of the cycle-level executor's
//!   fixed-point MACs.
//! * [`batched`] — clean-activation caching plus incremental re-evaluation
//!   of corrupted networks (only neurons reachable from flipped weight words
//!   are recomputed), bit-identical to the full forward pass.
//! * [`layers`] — dense, 2-D convolution (lowered to [`gemm`] via im2col),
//!   max-pooling and ReLU layers with hand-written forward and backward passes.
//! * [`network`] — shape-validated sequential networks with binary
//!   serialization.
//! * [`mod@train`] — mini-batch SGD with momentum and softmax cross-entropy.
//! * [`quant`] — the chip's one fixed-point format, defined once: 16-bit
//!   codes at a per-tensor scale with two guard bits, for weights, inputs
//!   and activations alike, four to a 64-bit SRAM word (the hook for
//!   bit-level fault injection), and one exact, vectorized rounding rule.
//! * [`data`] — procedural MNIST-like and CIFAR-like datasets (the offline
//!   stand-ins; see DESIGN.md).
//! * [`metrics`] — confusion matrices and per-class recall.
//! * [`models`] — the paper's FC-DNN (784-256-256-256-10) and a compact
//!   CNN for the convolutional experiments.
//!
//! # Examples
//!
//! Train the paper's FC-DNN on the procedural digit set:
//!
//! ```no_run
//! use dante_nn::data::generate_mnist_like;
//! use dante_nn::models::mnist_fc_dnn;
//! use dante_nn::train::{train, SgdConfig};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let ds = generate_mnist_like(5000, 1);
//! let mut net = mnist_fc_dnn(&mut rng);
//! train(&mut net, ds.images(), ds.labels(), &SgdConfig::default(), &mut rng);
//! assert!(net.accuracy(ds.images(), ds.labels()) > 0.95);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batched;
pub mod data;
pub mod gemm;
pub mod layers;
pub mod metrics;
pub mod models;
pub mod network;
pub mod quant;
pub mod tensor;
pub mod train;

pub use data::Dataset;
pub use layers::{Conv2d, Dense, Layer, MaxPool2d, Relu, Shape3};
pub use metrics::ConfusionMatrix;
pub use network::{Network, NetworkError};
pub use quant::ScaledTensor;
pub use tensor::Matrix;
pub use train::{train, SgdConfig, TrainReport};
