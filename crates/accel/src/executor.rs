//! The accelerator executor: runs compiled programs on the boosted
//! memories, cycle-approximately and bit-accurately.
//!
//! Execution follows the taped-out chip's flow (paper Sec. 4): weights are
//! DMA'd layer by layer (in tiles, since a full layer exceeds the 128 KB
//! weight memory) into the boosted weight memory, activations ping-pong
//! through the input memory, and every access happens at the rail voltage
//! selected by that bank's `set_boost_config` state — so low-voltage fault
//! injection, boosting, and the ISA all compose exactly as in hardware.
//!
//! Every weight stage, dense or convolution, runs through one loop: a tile
//! of weight rows is DMA'd, issued as one `FcTile` and read back once, and
//! each output pixel's im2col patch is dotted with every row of the tile.
//! A dense stage is the one-pixel case. Max-pool runs PE-local on the
//! activation codes.

use crate::chip::ChipConfig;
use crate::isa::{Instruction, MemoryId};
use crate::memory::{BoostedMemory, MemoryStats};
use crate::pe::{relu_q, requantize};
use crate::program::{CompiledLayer, PoolStage, Program, WeightStage};
use dante_circuit::bic::BoostConfig;
use dante_circuit::units::Volt;
use dante_nn::gemm::dot_i16;
use dante_nn::quant::{self, LANES};
use dante_sim::{derive_seed, site};
use dante_sram::model::FaultModel;

/// A boost plan: one level per weight layer's accesses, plus one for the
/// input/activation memory. The executor programs it into the banks'
/// boost configuration registers; `dante`'s sweeps resolve every boosted
/// supply to one and derive their fault rails and energy groups from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoostSchedule {
    weight_levels: Vec<usize>,
    input_level: usize,
}

impl BoostSchedule {
    /// Same boost level for every weight layer.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is zero.
    #[must_use]
    pub fn uniform(level: usize, layers: usize, input_level: usize) -> Self {
        assert!(layers > 0, "schedule needs at least one layer");
        Self {
            weight_levels: vec![level; layers],
            input_level,
        }
    }

    /// Explicit per-layer weight levels (the paper's `Boost_diff`
    /// configurations).
    ///
    /// # Panics
    ///
    /// Panics if `weight_levels` is empty.
    #[must_use]
    pub fn per_layer(weight_levels: Vec<usize>, input_level: usize) -> Self {
        assert!(
            !weight_levels.is_empty(),
            "schedule needs at least one layer"
        );
        Self {
            weight_levels,
            input_level,
        }
    }

    /// Weight boost level of layer `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    #[must_use]
    pub fn weight_level(&self, l: usize) -> usize {
        self.weight_levels[l]
    }

    /// Weight levels for all layers.
    #[must_use]
    pub fn weight_levels(&self) -> &[usize] {
        &self.weight_levels
    }

    /// Input-memory boost level.
    #[must_use]
    pub fn input_level(&self) -> usize {
        self.input_level
    }

    /// Number of layers covered.
    #[must_use]
    pub fn layers(&self) -> usize {
        self.weight_levels.len()
    }
}

/// Result of one inference on the accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceResult {
    /// Raw output activation codes.
    pub codes: Vec<i16>,
    /// Dequantized logits.
    pub logits: Vec<f32>,
    /// Predicted class (argmax of the logits).
    pub prediction: usize,
}

/// An inference plus the output activation codes of every compiled stage —
/// the observable a differential checker compares layer by layer against
/// the reference math.
#[derive(Debug, Clone, PartialEq)]
pub struct InferenceTrace {
    /// Output codes of each stage, in execution order.
    pub layer_codes: Vec<Vec<i16>>,
    /// The final inference result.
    pub result: InferenceResult,
}

/// Cumulative execution statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecStats {
    /// Multiply-accumulate operations executed.
    pub macs: u64,
    /// Control instructions issued.
    pub instructions: u64,
    /// `set_boost_config` instructions issued (the paper argues these must
    /// stay rare).
    pub boost_config_writes: u64,
    /// Approximate cycles: memory accesses plus MACs over the PE count.
    pub cycles: u64,
}

fn assert_operating_range(chip: &ChipConfig, vdd: Volt) {
    assert!(
        chip.supports_voltage(vdd),
        "{vdd} outside the chip operating range"
    );
}

/// The Dante accelerator instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Dante {
    chip: ChipConfig,
    weight_mem: BoostedMemory,
    input_mem: BoostedMemory,
    stats: ExecStats,
}

impl Dante {
    /// Creates an accelerator whose memories carry fault dies of `model`,
    /// sampled at floor `vdd`. The model resolves once per chip (a
    /// chip-variation chip has one `(mu, sigma)`); the weight memory draws
    /// its die from `derive_seed(seed, site::MEMORY, 0)` and the input
    /// memory from `derive_seed(seed, site::MEMORY, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `vdd` is outside the chip's operating range.
    #[must_use]
    pub fn new(chip: ChipConfig, model: &FaultModel, vdd: Volt, seed: u64) -> Self {
        assert_operating_range(&chip, vdd);
        let die = model.resolve_die(seed);
        let booster = chip.booster();
        let memory = |geometry, index| {
            let memory_seed = derive_seed(seed, site::MEMORY, index);
            BoostedMemory::new(geometry, booster.clone(), &die, vdd, memory_seed)
        };
        let weight_mem = memory(chip.weight_memory, 0);
        let input_mem = memory(chip.input_memory, 1);
        Self {
            chip,
            weight_mem,
            input_mem,
            stats: ExecStats::default(),
        }
    }

    /// Creates an ideal fault-free accelerator (reference runs).
    ///
    /// # Panics
    ///
    /// Panics if `vdd` is outside the chip's operating range.
    #[must_use]
    pub fn fault_free(chip: ChipConfig, vdd: Volt) -> Self {
        assert_operating_range(&chip, vdd);
        let booster = chip.booster();
        let weight_mem = BoostedMemory::fault_free(chip.weight_memory, booster.clone(), vdd);
        let input_mem = BoostedMemory::fault_free(chip.input_memory, booster, vdd);
        Self {
            chip,
            weight_mem,
            input_mem,
            stats: ExecStats::default(),
        }
    }

    /// The chip configuration.
    #[must_use]
    pub fn chip(&self) -> &ChipConfig {
        &self.chip
    }

    /// Current supply voltage.
    #[must_use]
    pub fn vdd(&self) -> Volt {
        self.weight_mem.vdd()
    }

    /// Execution statistics.
    #[must_use]
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// Weight-memory access statistics.
    #[must_use]
    pub fn weight_stats(&self) -> &MemoryStats {
        self.weight_mem.stats()
    }

    /// Input-memory access statistics.
    #[must_use]
    pub fn input_stats(&self) -> &MemoryStats {
        self.input_mem.stats()
    }

    /// Resets all statistics.
    pub fn reset_stats(&mut self) {
        self.stats = ExecStats::default();
        self.weight_mem.reset_stats();
        self.input_mem.reset_stats();
    }

    fn issue(&mut self, instr: Instruction) {
        self.stats.instructions += 1;
        if let Instruction::SetBoostConfig { mem, bank, config } = instr {
            self.stats.boost_config_writes += 1;
            let width = u8::try_from(self.chip.booster().levels()).expect("levels fit u8");
            let cfg = BoostConfig::from_mask(u32::from(config), width);
            match mem {
                MemoryId::Weight => self.weight_mem.set_boost_config(usize::from(bank), cfg),
                MemoryId::Input => self.input_mem.set_boost_config(usize::from(bank), cfg),
            }
        }
    }

    fn set_memory_level(&mut self, mem: MemoryId, level: usize) {
        let banks = match mem {
            MemoryId::Weight => self.weight_mem.geometry().banks(),
            MemoryId::Input => self.input_mem.geometry().banks(),
        };
        let width = u8::try_from(self.chip.booster().levels()).expect("levels fit u8");
        for bank in 0..banks {
            let cfg = BoostConfig::from_level(level, width);
            self.issue(Instruction::set_boost_config(
                mem,
                u8::try_from(bank).expect("bank index fits u8"),
                cfg,
            ));
        }
    }

    fn write_codes(&mut self, mem: MemoryId, base_word: usize, codes: &[i16]) {
        for (w, chunk) in codes.chunks(LANES).enumerate() {
            let word = quant::pack_word(chunk.iter().map(|&c| c as u16));
            match mem {
                MemoryId::Weight => self.weight_mem.write(base_word + w, word),
                MemoryId::Input => self.input_mem.write(base_word + w, word),
            }
        }
    }

    fn read_codes(&mut self, mem: MemoryId, base_word: usize, len: usize) -> Vec<i16> {
        let words = len.div_ceil(LANES);
        let mut out = Vec::with_capacity(words * LANES);
        for w in 0..words {
            let word = match mem {
                MemoryId::Weight => self.weight_mem.read(base_word + w),
                MemoryId::Input => self.input_mem.read(base_word + w),
            };
            out.extend(quant::unpack_word(word).map(|c| c as i16));
        }
        out.truncate(len);
        out
    }

    /// Executes one weight stage. Per tile of weight rows: DMA the rows into
    /// the weight memory, issue `FcTile` and read the rows back once
    /// (filter-resident reuse), then per output pixel gather the im2col
    /// patch once (zeros in the padding) and dot it with each row of the
    /// tile. A dense stage is the one-pixel case.
    fn run_weights(&mut self, stage: &WeightStage, x: &[i16]) -> Vec<i16> {
        let words_per_row = stage.words_per_row();
        let row_len = stage.row_len();
        let channels = stage.out_channels();
        let rows_per_tile = (self.weight_mem.words() / words_per_row).min(channels);
        assert!(
            rows_per_tile > 0,
            "weight row exceeds weight memory capacity"
        );
        let (m, s) = stage.requant();
        let codes = stage.weights().codes();
        let (_, h, w) = stage.in_shape();
        let (k, p) = (stage.kernel(), stage.padding());
        let (oh, ow) = (stage.out_h(), stage.out_w());
        let pixels = oh * ow;

        let mut out_codes = vec![0i16; stage.out_len()];
        let mut patch = vec![0i16; row_len];
        let mut ch = 0usize;
        while ch < channels {
            let tile_rows = rows_per_tile.min(channels - ch);
            // DMA the tile into the weight memory, row-aligned to words.
            self.issue(Instruction::LoadWeights {
                dst_word: 0,
                words: u32::try_from(tile_rows * words_per_row).expect("fits u32"),
            });
            for r in 0..tile_rows {
                let base = (ch + r) * row_len;
                let word_codes: Vec<i16> = codes[base..base + row_len]
                    .iter()
                    .map(|&c| c as i16)
                    .collect();
                self.write_codes(MemoryId::Weight, r * words_per_row, &word_codes);
            }
            self.issue(Instruction::FcTile {
                w_word: 0,
                in_word: 0,
                in_len: u16::try_from(row_len.min(4095)).expect("fits field"),
                out_len: u16::try_from(tile_rows.min(4095)).expect("fits field"),
            });
            let tile: Vec<i16> = (0..tile_rows)
                .flat_map(|r| self.read_codes(MemoryId::Weight, r * words_per_row, row_len))
                .collect();
            self.stats.macs += (tile_rows * pixels * row_len) as u64;
            for pixel in 0..pixels {
                let (oy, ox) = (pixel / ow, pixel % ow);
                // The pixel's im2col patch: tap `(ic, ky, kx)` reads input
                // `(ic, oy + ky - p, ox + kx - p)`, and a tap in the padding
                // reads zero (a negative coordinate wraps past the map).
                for (kernel_row, taps) in patch.chunks_exact_mut(k).enumerate() {
                    let (ic, ky) = (kernel_row / k, kernel_row % k);
                    let iy = (oy + ky).wrapping_sub(p);
                    for (kx, tap) in taps.iter_mut().enumerate() {
                        let ix = (ox + kx).wrapping_sub(p);
                        *tap = if iy < h && ix < w {
                            x[(ic * h + iy) * w + ix]
                        } else {
                            0
                        };
                    }
                }
                for (r, w_row) in tile.chunks_exact(row_len).enumerate() {
                    // Shared integer kernel: `dot_i16` only reorders exact
                    // `i64` additions, so every output is bit-identical to
                    // the sequential MAC chain.
                    let acc = dot_i16(stage.bias_acc()[ch + r], w_row, &patch);
                    let mut code = requantize(acc, m, s);
                    if stage.relu() {
                        code = relu_q(code);
                    }
                    out_codes[(ch + r) * pixels + pixel] = code;
                }
            }
            ch += tile_rows;
        }
        out_codes
    }

    /// Executes one PE-local 2x2 max-pool stage on activation codes (max of
    /// same-scale fixed-point codes equals max of values).
    fn run_pool(pool: &PoolStage, x: &[i16]) -> Vec<i16> {
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

    /// Runs one inference.
    ///
    /// # Panics
    ///
    /// Panics if the schedule does not cover the program's weight-bearing
    /// layers, a boost level exceeds the chip's, the sample length
    /// mismatches the program, or an activation volume exceeds an
    /// input-memory region.
    pub fn run(
        &mut self,
        program: &Program,
        schedule: &BoostSchedule,
        sample: &[f32],
    ) -> InferenceResult {
        self.run_traced(program, schedule, sample).result
    }

    /// Runs one inference and records the output codes of every stage.
    ///
    /// Semantically identical to [`Self::run`] — the trace is taken from the
    /// same activation values the next layer consumes, so comparing it
    /// against a reference pins down the *first* diverging stage.
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`Self::run`].
    pub fn run_traced(
        &mut self,
        program: &Program,
        schedule: &BoostSchedule,
        sample: &[f32],
    ) -> InferenceTrace {
        assert_eq!(
            schedule.layers(),
            program.weight_layer_count(),
            "schedule must cover every weight-bearing program layer"
        );
        let max_level = self.chip.booster().levels();
        assert!(
            schedule.input_level() <= max_level
                && schedule.weight_levels().iter().all(|&l| l <= max_level),
            "boost level exceeds the chip's {max_level}"
        );
        let region_codes = self.input_mem.words() / 2 * LANES;
        for layer in program.layers() {
            assert!(
                layer.in_len() <= region_codes && layer.out_len() <= region_codes,
                "activation volume exceeds an input-memory region ({region_codes} codes)"
            );
        }

        // Load the quantized input into the input memory.
        self.set_memory_level(MemoryId::Input, schedule.input_level());
        let input_codes = program.quantize_input(sample);
        let words = u32::try_from(input_codes.len().div_ceil(LANES)).expect("fits u32");
        self.issue(Instruction::LoadInputs { dst_word: 0, words });
        self.write_codes(MemoryId::Input, 0, &input_codes);

        let ping = 0usize;
        let pong = self.input_mem.words() / 2;
        let mut act_base = ping;
        let mut act_len = input_codes.len();
        let mut out_codes: Vec<i16> = Vec::new();
        let mut layer_codes: Vec<Vec<i16>> = Vec::with_capacity(program.layers().len());
        let mut weight_stage = 0usize;

        for layer in program.layers() {
            if layer.has_weights() {
                self.set_memory_level(MemoryId::Weight, schedule.weight_level(weight_stage));
                weight_stage += 1;
            }

            // Activations for this layer (read at the input-memory rail).
            let x = self.read_codes(MemoryId::Input, act_base, act_len);

            out_codes = match layer {
                CompiledLayer::Weights(stage) => self.run_weights(stage, &x),
                CompiledLayer::Pool(pool) => Self::run_pool(pool, &x),
            };

            // Write activations for the next layer (final layer included —
            // the chip stores its outputs before the host drains them).
            let out_base = if act_base == ping { pong } else { ping };
            self.write_codes(MemoryId::Input, out_base, &out_codes);
            act_base = out_base;
            act_len = out_codes.len();
            layer_codes.push(out_codes.clone());
        }
        self.issue(Instruction::Halt);

        let out_scale = program.logit_scale();
        let logits: Vec<f32> = out_codes
            .iter()
            .map(|&c| f32::from(c) * out_scale)
            .collect();
        let prediction = logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
            .map(|(i, _)| i)
            .expect("non-empty logits");

        let mem_accesses = self.weight_mem.stats().total() + self.input_mem.stats().total();
        self.stats.cycles = mem_accesses + self.stats.macs.div_ceil(self.chip.pe_count as u64);

        InferenceTrace {
            layer_codes,
            result: InferenceResult {
                codes: out_codes,
                logits,
                prediction,
            },
        }
    }

    /// Runs a labelled batch and returns the classification accuracy.
    ///
    /// # Panics
    ///
    /// Panics if the buffer lengths are inconsistent.
    pub fn accuracy(
        &mut self,
        program: &Program,
        schedule: &BoostSchedule,
        images: &[f32],
        labels: &[u8],
    ) -> f64 {
        let in_len = program.in_len();
        assert_eq!(
            images.len(),
            labels.len() * in_len,
            "image buffer length mismatch"
        );
        if labels.is_empty() {
            return 0.0;
        }
        let mut correct = 0usize;
        for (i, &label) in labels.iter().enumerate() {
            let r = self.run(program, schedule, &images[i * in_len..(i + 1) * in_len]);
            if r.prediction == usize::from(label) {
                correct += 1;
            }
        }
        correct as f64 / labels.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dante_nn::layers::{Dense, Layer, Relu};
    use dante_nn::network::Network;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn faulty(vdd: f64, seed: u64) -> Dante {
        Dante::new(
            ChipConfig::dante(),
            &FaultModel::default(),
            Volt::new(vdd),
            seed,
        )
    }

    fn toy_setup() -> (Network, Program) {
        let mut rng = StdRng::seed_from_u64(3);
        let net = Network::new(vec![
            Layer::Dense(Dense::new(16, 12, &mut rng)),
            Layer::Relu(Relu::new(12)),
            Layer::Dense(Dense::new(12, 4, &mut rng)),
        ])
        .unwrap();
        let calib: Vec<f32> = (0..16 * 8).map(|i| ((i * 13) % 17) as f32 / 17.0).collect();
        let program = Program::compile(&net, &calib).unwrap();
        (net, program)
    }

    #[test]
    fn fault_free_run_matches_float_reference_prediction() {
        let (net, program) = toy_setup();
        let mut dante = Dante::fault_free(ChipConfig::dante(), Volt::new(0.5));
        let schedule = BoostSchedule::uniform(0, 2, 0);
        for k in 0..8 {
            let sample: Vec<f32> = (0..16)
                .map(|i| ((i * 7 + k * 3) % 11) as f32 / 11.0)
                .collect();
            let r = dante.run(&program, &schedule, &sample);
            let float_logits = net.forward(&sample, 1);
            // Quantized and float logits agree closely.
            for (q, f) in r.logits.iter().zip(&float_logits) {
                assert!((q - f).abs() < 0.05, "logit mismatch: {q} vs {f}");
            }
        }
    }

    #[test]
    fn run_is_deterministic() {
        let (_, program) = toy_setup();
        let mut dante = faulty(0.4, 9);
        let schedule = BoostSchedule::uniform(2, 2, 4);
        let sample: Vec<f32> = (0..16).map(|i| i as f32 / 16.0).collect();
        let a = dante.run(&program, &schedule, &sample);
        let b = dante.run(&program, &schedule, &sample);
        assert_eq!(a, b);
    }

    #[test]
    fn boosting_recovers_low_voltage_corruption() {
        // The paper's central claim, end to end on the simulator: at VLV an
        // unboosted run corrupts logits, a fully boosted run matches the
        // clean reference.
        let (_, program) = toy_setup();
        let sample: Vec<f32> = (0..16).map(|i| ((i % 5) as f32) / 5.0).collect();

        let mut clean = Dante::fault_free(ChipConfig::dante(), Volt::new(0.4));
        let reference = clean.run(&program, &BoostSchedule::uniform(0, 2, 0), &sample);

        let mut faulty = faulty(0.38, 42);
        let boosted = faulty.run(&program, &BoostSchedule::uniform(4, 2, 4), &sample);
        assert_eq!(
            boosted.codes, reference.codes,
            "full boost at 0.38 V must be error-free"
        );

        let unboosted = faulty.run(&program, &BoostSchedule::uniform(0, 2, 0), &sample);
        assert_ne!(
            unboosted.codes, reference.codes,
            "unboosted 0.38 V should corrupt the outputs of this die"
        );
    }

    fn conv_setup() -> (Network, Program) {
        use dante_nn::layers::{Conv2d, MaxPool2d, Shape3};
        let mut rng = StdRng::seed_from_u64(23);
        let net = Network::new(vec![
            Layer::Conv2d(Conv2d::new(Shape3::new(1, 8, 8), 4, 3, 1, &mut rng)),
            Layer::Relu(Relu::new(4 * 64)),
            Layer::MaxPool2d(MaxPool2d::new(Shape3::new(4, 8, 8))),
            Layer::Dense(Dense::new(64, 5, &mut rng)),
        ])
        .unwrap();
        let calib: Vec<f32> = (0..64 * 4).map(|i| ((i * 11) % 17) as f32 / 17.0).collect();
        let program = Program::compile(&net, &calib).unwrap();
        (net, program)
    }

    #[test]
    fn conv_program_matches_float_reference_on_clean_silicon() {
        let (net, program) = conv_setup();
        let mut dante = Dante::fault_free(ChipConfig::dante(), Volt::new(0.5));
        let schedule = BoostSchedule::uniform(0, 2, 0); // conv + dense
        for k in 0..6 {
            let sample: Vec<f32> = (0..64)
                .map(|i| ((i * 3 + k * 7) % 13) as f32 / 13.0)
                .collect();
            let r = dante.run(&program, &schedule, &sample);
            let float_logits = net.forward(&sample, 1);
            for (q, f) in r.logits.iter().zip(&float_logits) {
                assert!(
                    (q - f).abs() < 0.08 * (1.0 + f.abs()),
                    "conv logit mismatch: {q} vs {f}"
                );
            }
            assert_eq!(
                r.prediction,
                net.predict(&sample, 1)[0],
                "prediction mismatch on sample {k}"
            );
        }
    }

    #[test]
    fn boosting_recovers_conv_corruption_at_vlv() {
        let (_, program) = conv_setup();
        let sample: Vec<f32> = (0..64).map(|i| ((i % 7) as f32) / 7.0).collect();

        let mut clean = Dante::fault_free(ChipConfig::dante(), Volt::new(0.38));
        let reference = clean.run(&program, &BoostSchedule::uniform(0, 2, 0), &sample);

        let mut faulty = faulty(0.38, 99);
        let boosted = faulty.run(&program, &BoostSchedule::uniform(4, 2, 4), &sample);
        assert_eq!(
            boosted.codes, reference.codes,
            "full boost must be clean for conv too"
        );
        let unboosted = faulty.run(&program, &BoostSchedule::uniform(0, 2, 0), &sample);
        assert_ne!(
            unboosted.codes, reference.codes,
            "unboosted conv run should corrupt"
        );
    }

    #[test]
    #[should_panic(expected = "activation volume exceeds")]
    fn oversized_conv_activations_rejected() {
        use dante_nn::layers::{Conv2d, Shape3};
        let mut rng = StdRng::seed_from_u64(5);
        // 16 channels of 32x32 = 16384 codes > the 4096-code region.
        let net = Network::new(vec![Layer::Conv2d(Conv2d::new(
            Shape3::new(3, 32, 32),
            16,
            3,
            1,
            &mut rng,
        ))])
        .unwrap();
        let calib = vec![0.1f32; net.in_len()];
        let program = Program::compile(&net, &calib).unwrap();
        let mut dante = Dante::fault_free(ChipConfig::dante(), Volt::new(0.5));
        let _ = dante.run(&program, &BoostSchedule::uniform(0, 1, 0), &calib);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let (_, program) = toy_setup();
        let mut dante = Dante::fault_free(ChipConfig::dante(), Volt::new(0.5));
        let schedule = BoostSchedule::uniform(1, 2, 0);
        let sample = vec![0.25f32; 16];
        let _ = dante.run(&program, &schedule, &sample);
        let stats = dante.stats();
        assert_eq!(stats.macs, (16 * 12 + 12 * 4) as u64);
        assert!(stats.instructions > 0);
        assert!(stats.boost_config_writes > 0);
        assert!(stats.cycles > stats.macs / 8);
        // Weight accesses happened at level 1, input accesses at level 0.
        assert!(dante.weight_stats().accesses_per_level()[1] > 0);
        assert!(dante.input_stats().accesses_per_level()[0] > 0);
        dante.reset_stats();
        assert_eq!(dante.stats(), ExecStats::default());
        assert_eq!(dante.weight_stats().total(), 0);
    }

    #[test]
    fn accuracy_on_separable_toy_task_is_high_when_boosted() {
        let mut rng = StdRng::seed_from_u64(11);
        // Two separable classes in 8-D.
        let mut net = Network::new(vec![
            Layer::Dense(Dense::new(8, 8, &mut rng)),
            Layer::Relu(Relu::new(8)),
            Layer::Dense(Dense::new(8, 2, &mut rng)),
        ])
        .unwrap();
        let mut images = Vec::new();
        let mut labels = Vec::new();
        for i in 0..60 {
            let c = (i % 2) as u8;
            let base = if c == 0 { 0.8 } else { 0.1 };
            for j in 0..8 {
                images.push(base + ((i * 7 + j) % 5) as f32 * 0.02);
            }
            labels.push(c);
        }
        let cfg = dante_nn::train::SgdConfig {
            epochs: 25,
            batch_size: 10,
            ..Default::default()
        };
        dante_nn::train::train(&mut net, &images, &labels, &cfg, &mut rng);
        let program = Program::compile(&net, &images).unwrap();

        let mut dante = faulty(0.40, 11);
        let boosted = dante.accuracy(&program, &BoostSchedule::uniform(4, 2, 4), &images, &labels);
        assert!(boosted > 0.95, "boosted accuracy {boosted}");
    }

    #[test]
    fn new_is_pure_in_its_seed_and_memories_draw_distinct_dies() {
        let chip = ChipConfig::dante();
        let vdd = Volt::new(0.40);
        for model in [
            FaultModel::default(),
            FaultModel::burst_default(),
            FaultModel::chip_variation_default(),
        ] {
            let dante = Dante::new(chip.clone(), &model, vdd, 21);
            assert_eq!(dante, Dante::new(chip.clone(), &model, vdd, 21));
            assert_ne!(dante, Dante::new(chip.clone(), &model, vdd, 22));
            // One resolved die per chip; each memory on its own seed.
            let die = model.resolve_die(21);
            let memory = |geometry, index| {
                let seed = derive_seed(21, site::MEMORY, index);
                BoostedMemory::new(geometry, chip.booster(), &die, vdd, seed)
            };
            assert_eq!(dante.weight_mem, memory(chip.weight_memory, 0));
            assert_eq!(dante.input_mem, memory(chip.input_memory, 1));
            assert_ne!(dante.input_mem, memory(chip.input_memory, 0));
        }
    }

    #[test]
    #[should_panic(expected = "outside the chip operating range")]
    fn out_of_range_voltage_rejected() {
        let _ = faulty(0.2, 0);
    }

    #[test]
    #[should_panic(expected = "outside the chip operating range")]
    fn out_of_range_voltage_rejected_for_fault_free_chips() {
        let _ = Dante::fault_free(ChipConfig::dante(), Volt::new(0.33));
    }

    #[test]
    #[should_panic(expected = "schedule must cover")]
    fn schedule_length_validated() {
        let (_, program) = toy_setup();
        let mut dante = Dante::fault_free(ChipConfig::dante(), Volt::new(0.5));
        let _ = dante.run(&program, &BoostSchedule::uniform(0, 1, 0), &[0.0; 16]);
    }
}
