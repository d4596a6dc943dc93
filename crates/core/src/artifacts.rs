//! Disk-cached trained models for the heavyweight experiments.
//!
//! The Fig. 2/13/14 harnesses need the trained FC-DNN and CNN proxy; both
//! train from scratch in tens of seconds, so this module trains once and
//! caches the serialized network under `DANTE_CACHE` (default
//! `target/dante-cache`). Cache keys include the training hyper-parameters,
//! so changing them invalidates the entry.

use dante_nn::data::{generate_cifar_like, generate_mnist_like, Dataset};
use dante_nn::models::{cifar_cnn, mnist_fc_dnn};
use dante_nn::network::Network;
use dante_nn::train::{train, SgdConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ffi::OsString;
use std::path::{Path, PathBuf};

/// Where cached artifacts live (`DANTE_CACHE` env var, else
/// `target/dante-cache`).
#[must_use]
pub fn cache_dir() -> PathBuf {
    cache_dir_from(std::env::var_os("DANTE_CACHE"))
}

fn cache_dir_from(var: Option<OsString>) -> PathBuf {
    var.map_or_else(|| PathBuf::from("target/dante-cache"), PathBuf::from)
}

/// Loads `<dir>/<key>.dnet`, or trains it with `train_fn` and writes it
/// there.
fn load_or_train(dir: &Path, key: &str, train_fn: impl FnOnce() -> Network) -> Network {
    let path = dir.join(format!("{key}.dnet"));
    if let Ok(bytes) = std::fs::read(&path) {
        if let Ok(net) = Network::from_bytes(&bytes) {
            return net;
        }
    }
    let net = train_fn();
    if std::fs::create_dir_all(dir).is_ok() {
        // Cache failures are non-fatal; the next run just retrains.
        let _ = std::fs::write(&path, net.to_bytes());
    }
    net
}

/// 64-bit FNV-1a of `bytes`: the byte-identity witness for serialized
/// networks and fleet die outcomes.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The trained MNIST-like FC-DNN (784-256-256-256-10) plus its held-out
/// test set.
///
/// `train_n`/`test_n` size the procedural datasets; `epochs` the training
/// run. Typical experiment values: 5000/1000/5.
#[must_use]
pub fn trained_mnist_fc(train_n: usize, test_n: usize, epochs: usize) -> (Network, Dataset) {
    let net = mnist_fc_cached_in(&cache_dir(), train_n, epochs);
    (net, generate_mnist_like(test_n, 2))
}

/// The [`trained_mnist_fc`] network, cached under `dir`.
fn mnist_fc_cached_in(dir: &Path, train_n: usize, epochs: usize) -> Network {
    load_or_train(dir, &format!("mnist-fc-{train_n}-{epochs}"), || {
        let ds = generate_mnist_like(train_n, 1);
        let mut rng = StdRng::seed_from_u64(0xF0);
        let mut net = mnist_fc_dnn(&mut rng);
        let cfg = SgdConfig {
            epochs,
            ..SgdConfig::default()
        };
        train(&mut net, ds.images(), ds.labels(), &cfg, &mut rng);
        net
    })
}

/// The trained CIFAR-like CNN proxy plus its held-out test set.
///
/// Typical experiment values: 2000/500/4.
#[must_use]
pub fn trained_cifar_cnn(train_n: usize, test_n: usize, epochs: usize) -> (Network, Dataset) {
    let net = cifar_cnn_cached_in(&cache_dir(), train_n, epochs);
    (net, generate_cifar_like(test_n, 4))
}

/// The [`trained_cifar_cnn`] network, cached under `dir`.
fn cifar_cnn_cached_in(dir: &Path, train_n: usize, epochs: usize) -> Network {
    load_or_train(dir, &format!("cifar-cnn-{train_n}-{epochs}"), || {
        let ds = generate_cifar_like(train_n, 3);
        let mut rng = StdRng::seed_from_u64(0xC1);
        let mut net = cifar_cnn(&mut rng);
        let cfg = SgdConfig {
            epochs,
            batch_size: 32,
            learning_rate: 0.02,
            ..SgdConfig::default()
        };
        train(&mut net, ds.images(), ds.labels(), &cfg, &mut rng);
        net
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh cache directory of this test process's own; no test here
    /// touches the process-wide `DANTE_CACHE`.
    fn temp_cache(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn cache_round_trips_a_tiny_model() {
        let dir = temp_cache("dante-cache-round-trip");
        let net1 = mnist_fc_cached_in(&dir, 50, 1);
        assert!(dir.join("mnist-fc-50-1.dnet").exists());
        // Second call must come from the cache and be identical.
        let net2 = mnist_fc_cached_in(&dir, 50, 1);
        assert_eq!(net1, net2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Base training is pinned byte for byte: `mnist_fc` trained from
    /// scratch (an empty cache, so nothing is read) serializes to the bytes
    /// every golden and benchmark set-up has been built on.
    #[test]
    fn fresh_mnist_fc_training_is_byte_pinned() {
        let dir = temp_cache("dante-cache-pin");
        let bytes = mnist_fc_cached_in(&dir, 1200, 4).to_bytes();
        assert_eq!(bytes.len(), 1_340_519);
        assert_eq!(fnv1a(&bytes), 0x38E6_B63C_9FE5_3CEB, "trained bytes moved");
        assert_eq!(
            std::fs::read(dir.join("mnist-fc-1200-4.dnet")).unwrap(),
            bytes
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// CNN training is pinned byte for byte as well: the `cifar_cnn` proxy
    /// trained from scratch on 256 images for one epoch serializes to the
    /// bytes its convolutions have always produced, so the forward pass and
    /// both conv gradients keep every fold.
    #[test]
    fn fresh_cifar_cnn_training_is_byte_pinned() {
        let dir = temp_cache("dante-cache-cnn-pin");
        let bytes = cifar_cnn_cached_in(&dir, 256, 1).to_bytes();
        assert_eq!(bytes.len(), 73_395);
        assert_eq!(fnv1a(&bytes), 0xFAF5_F6CF_C372_8E74, "trained bytes moved");
        assert_eq!(
            std::fs::read(dir.join("cifar-cnn-256-1.dnet")).unwrap(),
            bytes
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every fault model's fleet is pinned die by die: FNV-1a over each
    /// [`crate::fleet::DieOutcome`]'s V_min bits, censored flag and
    /// faulty-cell count, at the `fleet_yield` service shape (4 Mbit over
    /// 500..=640 mV), at a low floor (1 Mbit at 460 mV) and at a size that
    /// tiles neither a 64-bit word nor a 512-word macro (100,003 bits at
    /// 520 mV). A change to the die sampler must keep every digest.
    #[test]
    fn fresh_fleets_are_byte_pinned_for_every_fault_model() {
        use crate::fleet::FleetSpec;
        use crate::sweep::GeometrySpec;
        use dante_sim::NoopObserver;
        use dante_sram::model::FaultModel;

        let shapes: [(usize, usize, Vec<u32>); 3] = [
            (300, 1 << 22, (500..=640).step_by(10).collect()),
            (200, 1 << 20, vec![460, 500, 540]),
            (500, 100_003, vec![520, 560, 600]),
        ];
        let models = [
            FaultModel::gaussian_default(),
            FaultModel::chip_variation_default(),
            FaultModel::burst_default(),
        ];
        let mut digests = Vec::new();
        for (dies, array_bits, voltages_mv) in &shapes {
            for fault_model in models {
                let spec = FleetSpec {
                    seed: 0xF1EE7 ^ *array_bits as u64,
                    dies: *dies,
                    array_bits: *array_bits,
                    voltages_mv: voltages_mv.clone(),
                    fault_model,
                    geometry: GeometrySpec::Calibrated,
                };
                let mut bytes = Vec::new();
                for die in spec.solve_die_range_observed(0, spec.dies, &NoopObserver) {
                    bytes.extend_from_slice(&die.v_min.to_bits().to_le_bytes());
                    bytes.push(u8::from(die.censored));
                    bytes.extend_from_slice(&die.fault_cells.to_le_bytes());
                }
                digests.push(fnv1a(&bytes));
            }
        }
        assert_eq!(
            digests,
            [
                // 4 Mbit over 500..=640 mV: Gaussian, chip variation, burst.
                0x0674_7EE4_E8C9_6696,
                0x9010_12A1_1942_116C,
                0x62BE_1878_CFBE_8DEA,
                // 1 Mbit at 460 mV.
                0x4152_B7CA_237F_D24A,
                0x2FCF_18F7_AD11_D8A7,
                0x03CF_7C86_9808_D910,
                // 100,003 bits at 520 mV.
                0xB0CC_51AC_2977_8489,
                0xBC18_F5F5_EEC0_DF66,
                0x3008_FF11_E1FF_7E10,
            ],
            "a fleet die moved"
        );
    }

    #[test]
    fn cache_dir_honours_env_override() {
        assert_eq!(
            cache_dir_from(Some("/tmp/some-dante-cache".into())),
            PathBuf::from("/tmp/some-dante-cache")
        );
        assert_eq!(cache_dir_from(None), PathBuf::from("target/dante-cache"));
    }
}
