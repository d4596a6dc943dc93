//! # dante-accel
//!
//! A cycle-approximate, bit-accurate simulator of *Dante*, the paper's
//! taped-out DNN accelerator with programmable voltage-boosted SRAM:
//!
//! * [`chip`] — the Table 1 chip configuration as checked constants.
//! * [`context`] — DANA-style multi-context service with per-context boost
//!   schedules.
//! * [`isa`] — the control ISA including the `set_boost_config` instruction
//!   (64-bit encode/decode).
//! * [`memory`] — banked memories behind per-bank booster columns and BIC
//!   blocks, each carrying one sparse `dante-sram` fault die
//!   (`DieFaultModel`, any fault model) read at its bank's boosted rail.
//! * [`pe`] — fixed-point MAC/requantize/ReLU datapath primitives.
//! * [`program`] — compilation of a trained `dante-nn` network (dense and
//!   convolutional) into a quantized accelerator program (scales,
//!   multipliers, packed weights). Every weight layer becomes one
//!   [`WeightStage`]: a dense layer is the 1x1 kernel over a 1x1 map.
//! * [`executor`] — the accelerator itself: one tiled, im2col-lowered
//!   weight stage and PE-local pooling over the boosted memories with full
//!   fault/boost/ISA semantics.
//!
//! # Examples
//!
//! ```
//! use dante_accel::chip::ChipConfig;
//! use dante_accel::executor::{BoostSchedule, Dante};
//! use dante_accel::program::Program;
//! use dante_circuit::units::Volt;
//! use dante_nn::layers::{Dense, Layer, Relu};
//! use dante_nn::network::Network;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let net = Network::new(vec![
//!     Layer::Dense(Dense::new(8, 4, &mut rng)),
//!     Layer::Relu(Relu::new(4)),
//!     Layer::Dense(Dense::new(4, 2, &mut rng)),
//! ])?;
//! let calib = vec![0.5f32; 8];
//! let program = Program::compile(&net, &calib)?;
//! let mut dante = Dante::fault_free(ChipConfig::dante(), Volt::new(0.5));
//! let result = dante.run(&program, &BoostSchedule::uniform(0, 2, 0), &calib);
//! assert_eq!(result.logits.len(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chip;
pub mod context;
pub mod executor;
pub mod isa;
pub mod memory;
pub mod pe;
pub mod program;

pub use chip::ChipConfig;
pub use context::{Context, ContextId, ContextStats, MultiContextDante, Request};
pub use executor::{BoostSchedule, Dante, ExecStats, InferenceResult};
pub use isa::{DecodeError, Instruction, MemoryId};
pub use memory::{BoostedMemory, MemoryStats};
pub use program::{CompileError, Program, WeightStage};
