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
/// networks.
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
    let key = format!("cifar-cnn-{train_n}-{epochs}");
    let net = load_or_train(&cache_dir(), &key, || {
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
    });
    (net, generate_cifar_like(test_n, 4))
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

    #[test]
    fn cache_dir_honours_env_override() {
        assert_eq!(
            cache_dir_from(Some("/tmp/some-dante-cache".into())),
            PathBuf::from("/tmp/some-dante-cache")
        );
        assert_eq!(cache_dir_from(None), PathBuf::from("target/dante-cache"));
    }
}
