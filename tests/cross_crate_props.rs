//! Property-based tests spanning crate boundaries: the invariants that hold
//! the reproduction together.

use dante::accuracy::EccMode;
use dante::fleet::{DieOutcome, FleetSpec};
use dante::iso::IsoAccuracySpec;
use dante::retrain::{ResamplePolicy, RetrainSpec};
use dante::schedule::{boosted_groups, NamedBoostConfig};
use dante::sweep::{GeometrySpec, NetworkSpec, SupplySpec, SweepSpec};
use dante_accel::executor::BoostSchedule;
use dante_circuit::booster::BoosterBank;
use dante_circuit::macro_model::MacroGeometry;
use dante_circuit::units::Volt;
use dante_dataflow::activity::{LayerActivity, WorkloadActivity};
use dante_energy::params::EnergyParams;
use dante_energy::supply::{BoostedGroup, EnergyModel};
use dante_nn::quant;
use dante_serve::JobSpec;
use dante_sram::fault::VminFaultModel;
use dante_sram::model::FaultModel;
use dante_verify::dense::{FaultOverlay, VminField};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fault masks are inclusive: every cell faulty at a higher voltage is
    /// also faulty at any lower voltage, for arbitrary die seeds.
    #[test]
    fn fault_masks_inclusive(seed in 0u64..1000, lo_mv in 300u32..450, delta_mv in 1u32..150) {
        let model = VminFaultModel::default_14nm();
        let mut rng = StdRng::seed_from_u64(seed);
        let field = VminField::generate(4096, &model, &mut rng);
        let lo = Volt::from_millivolts(f64::from(lo_mv));
        let hi = Volt::from_millivolts(f64::from(lo_mv + delta_mv));
        prop_assert!(field.fault_mask(lo).is_superset_of(&field.fault_mask(hi)));
    }

    /// Boost voltage is monotonic in both level and supply voltage.
    #[test]
    fn boost_monotonic(mv in 320u32..780, level in 0usize..4) {
        let bank = BoosterBank::standard();
        let v = Volt::from_millivolts(f64::from(mv));
        let dv = Volt::from_millivolts(f64::from(mv + 20));
        prop_assert!(bank.boosted_voltage(v, level + 1) > bank.boosted_voltage(v, level));
        prop_assert!(bank.boosted_voltage(dv, level) > bank.boosted_voltage(v, level));
    }

    /// Quantization round-trips within half a step for arbitrary tensors.
    #[test]
    fn scaled_quant_round_trip(values in prop::collection::vec(-3.0f32..3.0, 1..200)) {
        let t = quant::quantize(&values);
        let back = t.to_f32();
        for (v, b) in values.iter().zip(&back) {
            prop_assert!((v - b).abs() <= t.scale() * 0.5 + 1e-6);
        }
        // Packing round-trips exactly.
        let mut t2 = t.clone();
        t2.load_packed_words(&t.to_packed_words());
        prop_assert_eq!(t, t2);
    }

    /// A fault overlay applied twice cancels (XOR), and its flip count at a
    /// safe voltage is zero.
    #[test]
    fn overlay_is_involutive(seed in 0u64..1000, mv in 320u32..560) {
        let model = VminFaultModel::default_14nm();
        let mut rng = StdRng::seed_from_u64(seed);
        let overlay = FaultOverlay::generate(2048, &model, &mut rng);
        let v = Volt::from_millivolts(f64::from(mv));
        let mut image: Vec<u64> =
            (0..32).map(|i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).collect();
        let original = image.clone();
        overlay.apply(&mut image, v);
        overlay.apply(&mut image, v);
        prop_assert_eq!(image, original);
        prop_assert_eq!(overlay.flip_count(Volt::new(0.65)), 0);
    }

    /// Dynamic energies are monotone in voltage and counts, and boosted
    /// level-0 equals single supply.
    #[test]
    fn energy_monotonicity(
        mv in 340u32..500,
        accesses in 1u64..1_000_000,
        macs in 1u64..10_000_000,
    ) {
        let m = EnergyModel::dante_chip();
        let v = Volt::from_millivolts(f64::from(mv));
        let hv = Volt::from_millivolts(f64::from(mv + 40));
        prop_assert!(m.dynamic_single(hv, accesses, macs) > m.dynamic_single(v, accesses, macs));
        prop_assert!(
            m.dynamic_single(v, accesses + 1, macs) > m.dynamic_single(v, accesses, macs)
        );
        let single = m.dynamic_single(v, accesses, macs);
        let boosted0 = m.dynamic_boosted(v, &[BoostedGroup { accesses, level: 0 }], macs);
        prop_assert!((single.joules() - boosted0.joules()).abs() / single.joules() < 1e-9);
        // Dual supply with equal rails costs at least as much as single (LDO
        // current-efficiency loss).
        let dual = m.dynamic_dual(v, v, accesses, macs);
        prop_assert!(dual >= single);
    }

    /// A boost schedule's group split partitions the workload's accesses
    /// exactly, for arbitrary level assignments.
    #[test]
    fn plan_groups_partition_accesses(
        levels in prop::collection::vec(0usize..=4, 1..6),
        input_level in 0usize..=4,
    ) {
        let layers: Vec<LayerActivity> = levels
            .iter()
            .enumerate()
            .map(|(i, _)| LayerActivity {
                layer: i,
                macs: 1000 + i as u64,
                weight_accesses: 500 + 7 * i as u64,
                input_accesses: 100 + 3 * i as u64,
                output_accesses: 10 + i as u64,
            })
            .collect();
        let activity = WorkloadActivity::new("prop", layers);
        let schedule = BoostSchedule::per_layer(levels, input_level);
        let groups = boosted_groups(&schedule, &activity);
        let total: u64 = groups.iter().map(|g| g.accesses).sum();
        prop_assert_eq!(total, activity.total_sram_accesses());
        // No duplicate levels in the group list.
        for (i, a) in groups.iter().enumerate() {
            for b in &groups[i + 1..] {
                prop_assert_ne!(a.level, b.level);
            }
        }
    }

    /// ISA instructions round-trip through their 64-bit encoding.
    #[test]
    fn isa_round_trip(
        bank in 0u8..32,
        config in 0u8..16,
        dst in 0u32..100_000,
        words in 0u32..10_000,
    ) {
        use dante_accel::isa::{Instruction, MemoryId};
        for instr in [
            Instruction::SetBoostConfig { mem: MemoryId::Weight, bank, config },
            Instruction::SetBoostConfig { mem: MemoryId::Input, bank, config },
            Instruction::LoadWeights { dst_word: dst, words },
            Instruction::LoadInputs { dst_word: dst, words },
            Instruction::Halt,
        ] {
            prop_assert_eq!(Instruction::decode(instr.encode()), Ok(instr));
        }
    }

    /// The fault-model canonical token is injective on its own: distinct
    /// specs — including same-variant, different-parameter pairs — never
    /// share a token.
    #[test]
    fn fault_model_token_is_injective(
        fm_a in (0u8..4, 0u32..40),
        fm_b in (0u8..4, 0u32..40),
    ) {
        let a = fault_model_from(fm_a);
        let b = fault_model_from(fm_b);
        prop_assert_eq!(a == b, a.canonical_token() == b.canonical_token());
    }

    /// The LDO efficiency formula stays in (0, 1] and degrades with dropout.
    #[test]
    fn ldo_efficiency_bounds(lo_mv in 300u32..700, drop_mv in 0u32..300) {
        let ldo = dante_circuit::ldo::Ldo::new();
        let v_l = Volt::from_millivolts(f64::from(lo_mv));
        let v_h = Volt::from_millivolts(f64::from(lo_mv + drop_mv));
        let eta = ldo.efficiency(v_l, v_h);
        prop_assert!(eta > 0.0 && eta <= 0.99 + 1e-12);
        if drop_mv > 0 {
            prop_assert!(eta < ldo.efficiency(v_h, v_h));
        }
    }
}

proptest! {
    // Formatting a key is cheap, so many cases make pairs one field apart
    // likely for every family and field.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// One key property over every job family: two jobs drawn from
    /// {sweep, fleet, iso, retrain} are equal exactly when their canonical
    /// keys are byte-equal, and every key starts with its own family's
    /// current `dante.<family>.v<N>;` header, so the families never share
    /// a key. `b` is either `a` with one draw replaced (a spec one field
    /// apart, or an equal one) or an independent draw. Sweeps cover every
    /// supply, scheduled boost included, and both geometries. This is what
    /// makes every key safe as a cache/digest key.
    #[test]
    fn canonical_keys_are_injective_across_families(
        da in prop::collection::vec(0u32..1000, JOB_DRAWS..JOB_DRAWS + 1),
        db in prop::collection::vec(0u32..1000, JOB_DRAWS..JOB_DRAWS + 1),
        mvs_a in prop::collection::vec(320u32..560, 1..4),
        mvs_b in prop::collection::vec(320u32..560, 1..4),
        differ in 0usize..JOB_DRAWS + 2,
    ) {
        let (a, b) = job_pair(&da, &db, &mvs_a, &mvs_b, differ, None);
        assert_key_property(&a, &b);
    }

    /// The key property with every case a sweep pair, so every sweep field
    /// is exercised: each supply, scheduled boost included, both
    /// geometries and every fault model. Each key writes every token, in
    /// the one field order.
    #[test]
    fn sweep_canonical_string_is_injective(
        da in prop::collection::vec(0u32..1000, JOB_DRAWS..JOB_DRAWS + 1),
        db in prop::collection::vec(0u32..1000, JOB_DRAWS..JOB_DRAWS + 1),
        mvs_a in prop::collection::vec(320u32..560, 1..4),
        mvs_b in prop::collection::vec(320u32..560, 1..4),
        differ in 0usize..JOB_DRAWS + 2,
    ) {
        let (a, b) = job_pair(&da, &db, &mvs_a, &mvs_b, differ, Some(0));
        assert_key_property(&a, &b);
        for key in [a.canonical_string(), b.canonical_string()] {
            let at: Vec<Option<usize>> = [
                ";seed=", ";trials=", ";ecc=", ";geom=", ";fault=", ";supply=", ";net=", ";mv=",
            ]
            .iter()
            .map(|token| key.find(token))
            .collect();
            prop_assert!(at.iter().all(Option::is_some), "{key}");
            prop_assert!(at.windows(2).all(|w| w[0] < w[1]), "{key}");
        }
    }

    /// The key property with every case a retrain pair: two retrain specs
    /// are equal exactly when their `dante.retrain.v1` keys are byte-equal,
    /// across every retrain-specific field and everything riding in the
    /// embedded `base=` sweep key, which encodes exactly as that sweep
    /// would on its own.
    #[test]
    fn retrain_canonical_string_is_injective(
        da in prop::collection::vec(0u32..1000, JOB_DRAWS..JOB_DRAWS + 1),
        db in prop::collection::vec(0u32..1000, JOB_DRAWS..JOB_DRAWS + 1),
        mvs_a in prop::collection::vec(320u32..560, 1..4),
        mvs_b in prop::collection::vec(320u32..560, 1..4),
        differ in 0usize..JOB_DRAWS + 2,
    ) {
        let (a, b) = job_pair(&da, &db, &mvs_a, &mvs_b, differ, Some(3));
        assert_key_property(&a, &b);
        for job in [&a, &b] {
            let JobSpec::Retrain(r) = job else {
                panic!("family 3 builds retrain jobs");
            };
            let base = SweepSpec {
                seed: r.seed,
                voltages_mv: r.voltages_mv.clone(),
                trials: r.trials,
                ecc: r.ecc,
                network: r.network.clone(),
                supply: SupplySpec::Single,
                fault_model: r.fault_model,
                geometry: GeometrySpec::Calibrated,
            };
            let key = r.canonical_string();
            prop_assert!(key.ends_with(&format!(";base={}", base.canonical_string())), "{key}");
        }
    }
}

/// Builds the pair the key properties check: `b` is `a` with draw
/// `differ` replaced when `differ < JOB_DRAWS`, `a` with other voltages
/// when `differ == JOB_DRAWS`, and an independent draw otherwise.
/// `family`, when set, pins both jobs to that [`job_from`] family.
fn job_pair(
    da: &[u32],
    db: &[u32],
    mvs_a: &[u32],
    mvs_b: &[u32],
    differ: usize,
    family: Option<u32>,
) -> (JobSpec, JobSpec) {
    let (mut da, mut db, mvs_b) = match differ {
        i if i < JOB_DRAWS => {
            let mut d = da.to_vec();
            d[i] = db[i];
            (da.to_vec(), d, mvs_a)
        }
        JOB_DRAWS => (da.to_vec(), da.to_vec(), mvs_b),
        _ => (da.to_vec(), db.to_vec(), mvs_b),
    };
    if let Some(f) = family {
        da[0] = f;
        db[0] = f;
    }
    (job_from(&da, mvs_a), job_from(&db, mvs_b))
}

/// Two jobs are equal exactly when their canonical keys are byte-equal,
/// and each key starts with its own family's current header.
fn assert_key_property(a: &JobSpec, b: &JobSpec) {
    let (ka, kb) = (a.canonical_string(), b.canonical_string());
    prop_assert_eq!(a == b, ka == kb, "{ka}\n{kb}");
    for (job, key) in [(a, &ka), (b, &kb)] {
        prop_assert!(key.starts_with(FAMILY_HEADERS[job.family()]), "{key}");
    }
}

/// Builds a [`SweepSpec`] from the primitive draws the compat proptest
/// stub can generate. `net_p` perturbs the network's own parameters so
/// the injectivity test also covers same-variant, different-field pairs.
fn sweep_spec_from(
    (seed, trials, ecc, net, net_p, supply, supply_p): (u64, usize, u8, u8, usize, u8, u32),
    fault: (u8, u32),
    mvs: &[u32],
) -> SweepSpec {
    SweepSpec {
        seed,
        voltages_mv: mvs.to_vec(),
        trials,
        ecc: if ecc == 0 {
            EccMode::None
        } else {
            EccMode::SecDed
        },
        network: match net {
            0 => NetworkSpec::Toy,
            1 => NetworkSpec::MnistFc {
                train_n: 800 + 100 * net_p,
                test_n: 40 + 10 * net_p,
                epochs: 1 + net_p % 4,
            },
            _ => NetworkSpec::AlexNetConv {
                layers: 1 + net_p % 5,
                train_n: 120 + 10 * net_p,
                test_n: 20,
                epochs: 1 + net_p % 3,
            },
        },
        supply: match supply {
            0 => SupplySpec::Single,
            1 => SupplySpec::Boosted {
                level: 1 + supply_p as usize % 4,
            },
            2 => SupplySpec::Dual {
                v_h_mv: 560 + supply_p % 140,
            },
            _ => SupplySpec::BoostedPlan {
                config: NamedBoostConfig::all()[supply_p as usize % 6],
            },
        },
        fault_model: fault_model_from(fault),
        geometry: GeometrySpec::Calibrated,
    }
}

/// Draw positions [`job_from`] reads.
const JOB_DRAWS: usize = 17;

/// The current key header of each job family, indexed by
/// [`JobSpec::family`].
const FAMILY_HEADERS: [&str; 4] = [
    "dante.sweep.v5;",
    "dante.iso.v1;",
    "dante.fleet.v4;",
    "dante.retrain.v1;",
];

/// Builds a job of any family from primitive draws: `d[0]` picks the
/// family and every other position feeds at most one field of it, so
/// replacing one draw moves a job at most one field away.
fn job_from(d: &[u32], mvs: &[u32]) -> JobSpec {
    let mut sweep = sweep_spec_from(
        (
            u64::from(d[1] % 20),
            1 + d[2] as usize % 3,
            (d[3] % 2) as u8,
            (d[4] % 3) as u8,
            d[5] as usize % 6,
            (d[6] % 5) as u8,
            d[7] % 100,
        ),
        ((d[8] % 4) as u8, d[9] % 40),
        mvs,
    );
    if d[6] % 5 == 4 {
        sweep.supply = SupplySpec::BoostedScheduled {
            level: 1 + d[7] as usize % 4,
            critical_layers: 1 + d[10] as usize % 64,
        };
    }
    sweep.geometry = match d[11] % 3 {
        0 => GeometrySpec::Calibrated,
        1 => GeometrySpec::Structural(MacroGeometry::bank_64kbit()),
        _ => GeometrySpec::Structural(MacroGeometry::macro_32kbit()),
    };
    let level = 1 + d[12] as usize % 4;
    let floor = 0.90 + f64::from(d[13] % 50) * 1e-3;
    match d[0] % 4 {
        0 => JobSpec::Sweep(sweep),
        1 => JobSpec::Fleet(FleetSpec {
            seed: sweep.seed,
            dies: 1 + d[14] as usize,
            array_bits: 4096 << (d[15] % 4),
            voltages_mv: sweep.voltages_mv,
            fault_model: sweep.fault_model,
        }),
        2 => JobSpec::Iso(IsoAccuracySpec {
            seed: sweep.seed,
            voltages_mv: sweep.voltages_mv,
            trials: sweep.trials,
            floor,
            level,
            ecc: sweep.ecc,
            network: sweep.network,
        }),
        _ => JobSpec::Retrain(RetrainSpec {
            seed: sweep.seed,
            network: sweep.network,
            target_mv: 320 + d[14] % 380,
            fault_model: sweep.fault_model,
            epochs: 1 + d[15] as usize % 32,
            resample: [ResamplePolicy::EveryEpoch, ResamplePolicy::Hold][d[16] as usize % 2],
            voltages_mv: sweep.voltages_mv,
            trials: sweep.trials,
            floor,
            level,
            ecc: sweep.ecc,
        }),
    }
}

/// Builds a [`FaultModel`] from primitive draws: the default Gaussian, a
/// perturbed Gaussian, a burst spec, or a chip-variation spec, each with
/// `p` wiggling its own parameters.
fn fault_model_from((kind, p): (u8, u32)) -> FaultModel {
    match kind {
        0 => FaultModel::default(),
        1 => FaultModel::Gaussian {
            mu_mv: 330 + p,
            sigma_mv: 30 + p % 20,
            flip_ppm: 400_000 + 1_000 * p,
        },
        2 => FaultModel::CorrelatedBurst {
            mu_mv: 352,
            sigma_mv: 40,
            flip_ppm: 500_000,
            row_weak_ppm: 1_000 + 100 * p,
            col_weak_ppm: 500 + 50 * p,
            shift_mv: 100 + p,
        },
        _ => FaultModel::ChipVariation {
            mu_mv: 352,
            sigma_mv: 40,
            flip_ppm: 500_000,
            mu_spread_mv: 5 + p,
            sigma_spread_pct: p % 30,
        },
    }
}

/// Promoted proptest regression (shrunk to `seed = 0, mv = 320`): the
/// involution property once failed right at the old retention boundary,
/// where the fault mask and the applied corruption disagreed about which
/// cells were live. Pinned here as a deterministic unit test so the exact
/// historical die/voltage pair is exercised on every run.
#[test]
fn overlay_involution_regression_at_320mv() {
    let model = VminFaultModel::default_14nm();
    let mut rng = StdRng::seed_from_u64(0);
    let overlay = FaultOverlay::generate(2048, &model, &mut rng);
    let v = Volt::from_millivolts(320.0);
    let mut image: Vec<u64> = (0..32)
        .map(|i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let original = image.clone();
    overlay.apply(&mut image, v);
    overlay.apply(&mut image, v);
    assert_eq!(image, original, "double overlay application must cancel");
    assert_eq!(overlay.flip_count(Volt::new(0.65)), 0);
}

/// Statistical property (not proptest-random): the empirical flip rate of
/// the full overlay pipeline matches the analytic `BER * p_flip` model.
#[test]
fn overlay_flip_rate_matches_analytic_model() {
    let model = VminFaultModel::default_14nm();
    let mut rng = StdRng::seed_from_u64(42);
    let bits = 400_000;
    let overlay = FaultOverlay::generate(bits, &model, &mut rng);
    for mv in [380u32, 420, 440] {
        let v = Volt::from_millivolts(f64::from(mv));
        let expected = model.bit_flip_rate(v) * bits as f64;
        let got = overlay.flip_count(v) as f64;
        let tol = 5.0 * expected.sqrt() + 10.0;
        assert!(
            (got - expected).abs() < tol,
            "at {v}: {got} flips vs expected {expected}"
        );
    }
}

// ---------------------------------------------------------------------------
// Shard partition / merge determinism (the scale-out serving contract).
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `shard_ranges` is an exact ordered partition of `[0, total)`:
    /// contiguous, gap-free, balanced to within one item, and never wider
    /// than the item count.
    #[test]
    fn shard_ranges_partition_exactly(total in 1usize..2000, shards in 1usize..64) {
        let ranges = dante::sweep::shard_ranges(total, shards);
        prop_assert_eq!(ranges.len(), shards.min(total));
        let mut next = 0usize;
        for &(offset, count) in &ranges {
            prop_assert_eq!(offset, next, "windows must be contiguous and ordered");
            prop_assert!(count > 0, "no empty windows");
            next += count;
        }
        prop_assert_eq!(next, total, "windows must cover every item");
        let widths: Vec<usize> = ranges.iter().map(|&(_, c)| c).collect();
        let (min, max) = (
            *widths.iter().min().expect("non-empty"),
            *widths.iter().max().expect("non-empty"),
        );
        prop_assert!(max - min <= 1, "windows must be balanced: {widths:?}");
    }
}

proptest! {
    // Each case trains and runs a toy sweep; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Partitioning a sweep's trial axis into windows, running each window
    /// independently, concatenating in window order, and assembling through
    /// a second, fresh [`dante::sweep::PreparedSweep`] that never runs a
    /// trial, as a merge coordinator's does, reproduces the unsharded run
    /// bit-for-bit — for arbitrary seeds, trial counts, and shard counts.
    #[test]
    fn sharded_sweep_merge_is_bit_identical(
        seed in 0u64..1_000_000,
        trials in 1usize..6,
        shards in 1usize..5,
    ) {
        let spec = SweepSpec {
            seed,
            trials,
            voltages_mv: vec![400, 480],
            ..SweepSpec::toy_default()
        };
        let prep = spec.prepare();
        let reference = prep.run();
        let ctx = spec.prepare();
        let windows = dante::sweep::shard_ranges(trials, shards);
        for (index, expected) in reference.iter().enumerate() {
            let merged: Vec<f64> = windows
                .iter()
                .flat_map(|&(offset, count)| {
                    prep.run_point_trial_range_observed(
                        index,
                        offset,
                        count,
                        &dante_sim::NoopObserver,
                    )
                })
                .collect();
            let merged_bits: Vec<u64> = merged.iter().map(|a| a.to_bits()).collect();
            let expected_bits: Vec<u64> =
                expected.stats.per_trial.iter().map(|a| a.to_bits()).collect();
            prop_assert_eq!(merged_bits, expected_bits, "per-trial accuracies at point {index}");
            prop_assert_eq!(
                &ctx.assemble_point(index, merged),
                expected,
                "assembled point {index} (stats + energy)"
            );
        }
    }

    /// Partitioning a fleet's die population, sampling each window
    /// independently, and assembling through [`FleetSpec::assemble`]
    /// reproduces the unsharded solve bit-for-bit.
    #[test]
    fn sharded_fleet_merge_is_bit_identical(
        seed in 0u64..1_000_000,
        dies in 1usize..48,
        shards in 1usize..6,
    ) {
        let spec = FleetSpec {
            seed,
            dies,
            array_bits: 4096,
            ..FleetSpec::toy_default()
        };
        let reference = spec.solve();
        let merged: Vec<DieOutcome> = dante::sweep::shard_ranges(dies, shards)
            .iter()
            .flat_map(|&(offset, count)| {
                spec.solve_die_range_observed(offset, count, &dante_sim::NoopObserver)
            })
            .collect();
        prop_assert_eq!(spec.assemble(&merged), reference);
    }

    /// The geometry token is injective over the valid geometry space, and
    /// so are the sweep cache keys it feeds: distinct geometries never
    /// collide, equal geometries always do.
    #[test]
    fn geometry_tokens_are_injective(
        ra in 4u32..=10, ca in 4u32..=8, ma in 0u32..=4, ba in 0u32..=3,
        rb in 4u32..=10, cb in 4u32..=8, mb in 0u32..=4, bb in 0u32..=3,
    ) {
        let make = |r: u32, c: u32, m: u32, b: u32| MacroGeometry {
            rows: 1usize << r,
            cols: 1usize << c,
            mux: 1usize << m,
            banks: 1usize << b,
        };
        let ga = make(ra, ca, ma, ba);
        let gb = make(rb, cb, mb, bb);
        prop_assert!(ga.validate().is_ok(), "{:?}", ga.validate());
        let ta = GeometrySpec::Structural(ga).canonical_token();
        let tb = GeometrySpec::Structural(gb).canonical_token();
        prop_assert_eq!(ta == tb, ga == gb);
        let key = |g| SweepSpec {
            geometry: GeometrySpec::Structural(g),
            ..SweepSpec::toy_default()
        }
        .canonical_string();
        prop_assert_eq!(key(ga) == key(gb), ga == gb);
    }

    /// The structural macro model at the paper's bank geometry reproduces
    /// the scalar energy calibration at every supply voltage: per-access
    /// SRAM energy within 1% and the derived `Energy_ratio` on 3.
    #[test]
    fn structural_bank_energy_tracks_the_scalar_calibration(mv in 340u32..=800) {
        let scalar = EnergyParams::dante_chip();
        let structural = EnergyParams::dante_chip()
            .with_geometry(GeometrySpec::Structural(MacroGeometry::bank_64kbit()));
        let v = Volt::from_millivolts(f64::from(mv));
        let ratio = structural.e_sram(v).joules() / scalar.e_sram(v).joules();
        prop_assert!((ratio - 1.0).abs() < 0.01, "e_sram ratio {ratio} at {mv} mV");
        prop_assert!((structural.energy_ratio() - 3.0).abs() < 0.05);
        // PE-side energy is untouched by the SRAM geometry.
        prop_assert_eq!(
            structural.e_pe(v).joules().to_bits(),
            scalar.e_pe(v).joules().to_bits()
        );
    }
}
