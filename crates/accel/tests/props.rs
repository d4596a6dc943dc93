//! Property tests for the accelerator simulator.

use dante_accel::chip::ChipConfig;
use dante_accel::executor::{BoostSchedule, Dante};
use dante_accel::isa::Instruction;
use dante_accel::memory::BoostedMemory;
use dante_accel::pe::{mac, quantize_multiplier, relu_q, requantize};
use dante_accel::program::Program;
use dante_circuit::bic::BoostConfig;
use dante_circuit::units::Volt;
use dante_nn::layers::{Dense, Layer, Relu};
use dante_nn::network::Network;
use dante_sram::model::FaultModel;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every decodable instruction round-trips; FcTile over its full field
    /// ranges.
    #[test]
    fn fc_tile_roundtrip(
        w_word in 0u32..(1 << 20),
        in_word in 0u16..(1 << 12),
        in_len in 0u16..(1 << 12),
        out_len in 0u16..(1 << 12),
    ) {
        let i = Instruction::FcTile { w_word, in_word, in_len, out_len };
        prop_assert_eq!(Instruction::decode(i.encode()), Ok(i));
    }

    /// Requantization with a derived multiplier approximates the real ratio
    /// for arbitrary accumulators.
    #[test]
    fn requantize_tracks_ratio(acc in -1_000_000_000i64..1_000_000_000, log_ratio in -16.0f64..0.0) {
        let ratio = 2f64.powf(log_ratio);
        let (m, s) = quantize_multiplier(ratio);
        let expected = (acc as f64 * ratio).round();
        let got = f64::from(requantize(acc, m, s));
        if expected.abs() < f64::from(i16::MAX) {
            prop_assert!((expected - got).abs() <= 1.0, "acc {acc} ratio {ratio}: {expected} vs {got}");
        } else {
            prop_assert!(got == f64::from(i16::MAX) || got == f64::from(i16::MIN));
        }
    }

    /// MAC never loses precision over i16 operand ranges.
    #[test]
    fn mac_exact(acc in -1_000_000i64..1_000_000, w in any::<i16>(), x in any::<i16>()) {
        prop_assert_eq!(mac(acc, w, x), acc + i64::from(w) * i64::from(x));
        prop_assert!(relu_q(w) >= 0);
    }

    /// Fault-free memory round-trips arbitrary word patterns at any bank
    /// configuration.
    #[test]
    fn memory_roundtrip(pattern in any::<u64>(), level in 0usize..=4, addr_frac in 0.0f64..1.0) {
        let chip = ChipConfig::dante();
        let mut mem = BoostedMemory::fault_free(chip.input_memory, chip.booster(), Volt::new(0.4));
        mem.set_boost_level_all(level);
        let addr = ((mem.words() - 1) as f64 * addr_frac) as usize;
        mem.write(addr, pattern);
        prop_assert_eq!(mem.read(addr), pattern);
    }

    /// A faulty memory's read is the written word XOR the die's corruption
    /// at the bank's rail, for every word: the die is exactly
    /// `overlay_from_seed` over the memory's bits at floor `vdd`, word
    /// `addr` holds cells `64 * addr ..`, and any boost level reads it.
    #[test]
    fn faulty_memory_reads_xor_the_die_corruption(
        seed in any::<u64>(),
        mv in 340u32..500,
        level in 0usize..=4,
        model in 0usize..3,
        pattern in any::<u64>(),
    ) {
        let chip = ChipConfig::dante();
        let vdd = Volt::from_millivolts(f64::from(mv));
        let spec = [
            FaultModel::default(),
            FaultModel::burst_default(),
            FaultModel::chip_variation_default(),
        ][model];
        let die = spec.resolve_die(seed);
        let mut mem = BoostedMemory::new(chip.input_memory, chip.booster(), &die, vdd, seed);
        mem.set_boost_level_all(level);
        let rail = mem.bank_access_voltage(0);
        let overlay = die.overlay_from_seed(mem.words() * 64, vdd, seed);
        for addr in 0..mem.words() {
            mem.write(addr, pattern.rotate_left(addr as u32));
        }
        for addr in 0..mem.words() {
            prop_assert_eq!(
                mem.read(addr),
                pattern.rotate_left(addr as u32) ^ overlay.corruption_word(addr, rail),
                "word {} at level {}", addr, level
            );
        }
    }

    /// Bank voltages respond to configuration exactly as the booster ladder
    /// says.
    #[test]
    fn bank_voltage_matches_ladder(mask in 0u32..16, mv in 340u32..500) {
        let chip = ChipConfig::dante();
        let vdd = Volt::from_millivolts(f64::from(mv));
        let mut mem = BoostedMemory::fault_free(chip.weight_memory, chip.booster(), vdd);
        mem.set_boost_config(3, BoostConfig::from_mask(mask, 4));
        let expected = chip.booster().boosted_voltage(vdd, mask.count_ones() as usize);
        prop_assert!((mem.bank_access_voltage(3).volts() - expected.volts()).abs() < 1e-12);
    }

    /// A fault-free accelerator is deterministic and voltage-independent:
    /// the same program and sample give identical codes at any supply.
    #[test]
    fn fault_free_voltage_independence(seed in 0u64..50, mv in 340u32..790) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Network::new(vec![
            Layer::Dense(Dense::new(8, 6, &mut rng)),
            Layer::Relu(Relu::new(6)),
            Layer::Dense(Dense::new(6, 3, &mut rng)),
        ]).expect("valid shapes");
        let calib: Vec<f32> = (0..8).map(|i| i as f32 / 8.0).collect();
        let program = Program::compile(&net, &calib).expect("dense net compiles");
        let schedule = BoostSchedule::uniform(2, 2, 1);

        let mut a = Dante::fault_free(ChipConfig::dante(), Volt::new(0.5));
        let ra = a.run(&program, &schedule, &calib);
        let mut b = Dante::fault_free(ChipConfig::dante(), Volt::from_millivolts(f64::from(mv)));
        let rb = b.run(&program, &schedule, &calib);
        prop_assert_eq!(ra.codes, rb.codes);
    }

    /// set_boost_config instructions reach the right memory: weight-memory
    /// configs never change input-memory voltages.
    #[test]
    fn config_isolation(level in 1usize..=4) {
        let mut dante = Dante::fault_free(ChipConfig::dante(), Volt::new(0.4));
        let mut rng = StdRng::seed_from_u64(1);
        let net = Network::new(vec![Layer::Dense(Dense::new(4, 2, &mut rng))]).expect("shapes");
        let calib = vec![0.5f32; 4];
        let program = Program::compile(&net, &calib).expect("compiles");
        // weight at `level`, input at 0: input accesses must all land in
        // level bucket 0 and weight accesses in bucket `level`.
        let schedule = BoostSchedule::uniform(level, 1, 0);
        let _ = dante.run(&program, &schedule, &calib);
        let w = dante.weight_stats().accesses_per_level();
        let i = dante.input_stats().accesses_per_level();
        for (l, &count) in w.iter().enumerate() {
            if l != level { prop_assert_eq!(count, 0, "weight bucket {}", l); }
        }
        for (l, &count) in i.iter().enumerate() {
            if l != 0 { prop_assert_eq!(count, 0, "input bucket {}", l); }
        }
        prop_assert!(w[level] > 0 && i[0] > 0);
    }
}
