//! Mini-batch SGD training with momentum and softmax cross-entropy loss.

use crate::layers::{Layer, ParamGrads};
use crate::network::Network;
use crate::tensor::softmax_batch;
use rand::seq::SliceRandom;
use rand::Rng;

/// Softmax cross-entropy over a batch: returns the mean loss and the logit
/// gradient (`softmax - onehot`, already divided by the batch size).
///
/// # Panics
///
/// Panics on inconsistent lengths or a label outside `0..classes`.
#[must_use]
pub fn softmax_cross_entropy(logits: &[f32], labels: &[u8], classes: usize) -> (f32, Vec<f32>) {
    let batch = labels.len();
    assert_eq!(logits.len(), batch * classes, "logit length mismatch");
    let probs = softmax_batch(logits, batch, classes);
    let mut grad = probs.clone();
    let mut loss = 0.0f32;
    for (b, &label) in labels.iter().enumerate() {
        let l = label as usize;
        assert!(l < classes, "label {l} out of range for {classes} classes");
        let p = probs[b * classes + l].max(1e-12);
        loss -= p.ln();
        grad[b * classes + l] -= 1.0;
    }
    let inv = 1.0 / batch as f32;
    for g in &mut grad {
        *g *= inv;
    }
    (loss * inv, grad)
}

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SgdConfig {
    /// Learning rate at epoch 0.
    pub learning_rate: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Multiplicative learning-rate decay per epoch.
    pub lr_decay: f32,
}

impl Default for SgdConfig {
    fn default() -> Self {
        Self {
            learning_rate: 0.05,
            momentum: 0.9,
            batch_size: 64,
            epochs: 10,
            lr_decay: 0.95,
        }
    }
}

/// Per-epoch training telemetry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrainReport {
    /// Mean loss of each epoch.
    pub epoch_losses: Vec<f32>,
}

impl TrainReport {
    /// Loss of the final epoch.
    ///
    /// # Panics
    ///
    /// Panics if no epochs were run.
    #[must_use]
    pub fn final_loss(&self) -> f32 {
        *self.epoch_losses.last().expect("at least one epoch")
    }
}

/// Trains `net` on `(images, labels)` with mini-batch SGD + momentum:
/// [`train_fault_injected`] with no corruption hook and no phase observer.
///
/// `images` holds `labels.len()` samples of `net.in_len()` floats each.
///
/// # Panics
///
/// Panics on inconsistent buffer lengths, a zero batch size, or zero epochs.
pub fn train<R: Rng + ?Sized>(
    net: &mut Network,
    images: &[f32],
    labels: &[u8],
    config: &SgdConfig,
    rng: &mut R,
) -> TrainReport {
    train_fault_injected(net, images, labels, config, rng, |_, _| None, |_| ())
}

/// An epoch-boundary notification delivered by [`train_fault_injected`].
#[derive(Debug)]
pub enum TrainPhase<'a> {
    /// Epoch `epoch` (zero-based) is about to start.
    EpochStart {
        /// Zero-based epoch index.
        epoch: usize,
    },
    /// Epoch `epoch` finished.
    EpochDone {
        /// Zero-based epoch index.
        epoch: usize,
        /// Mean mini-batch loss of the epoch (measured at the corrupted
        /// forward weights, i.e. the loss the hardened network actually
        /// trains against).
        loss: f32,
        /// The clean network after the epoch's updates.
        net: &'a Network,
    },
}

/// Mini-batch SGD + momentum with a fault-injection hook:
/// straight-through-estimator SGD, and the one training loop ([`train`] is
/// this loop without a hook).
///
/// `corrupt_forward(epoch, net)` is called once per mini-batch with the
/// current clean network and may return a corrupted copy; that batch's
/// forward and backward passes then run through the corrupted weights while
/// the momentum update is applied to the clean float weights (the
/// straight-through estimator — the quantize/pack/corrupt stage is treated
/// as identity on the backward pass). Returning `None` runs the batch
/// clean, so `train_fault_injected(.., |_, _| None, |_| ())` is plain SGD.
///
/// `on_phase` observes epoch boundaries ([`TrainPhase`]), letting callers
/// stream per-epoch telemetry while training runs.
///
/// Each mini-batch runs the backward pass top-down and skips layer 0's input
/// gradient, which nothing consumes. The momentum step then updates every
/// parameterized layer in place: `v = momentum * v + g`, then
/// [`Layer::apply_update`](crate::layers::Layer::apply_update) with `v` as
/// the gradient.
///
/// The loop is single-threaded and consumes `rng` with one shuffle per
/// epoch, so results are bit-identical for a given seed regardless of
/// worker-pool configuration.
///
/// # Panics
///
/// Panics on inconsistent buffer lengths, a zero batch size, zero epochs,
/// or a corrupted copy whose layer structure mismatches the clean network.
pub fn train_fault_injected<R, F, P>(
    net: &mut Network,
    images: &[f32],
    labels: &[u8],
    config: &SgdConfig,
    rng: &mut R,
    mut corrupt_forward: F,
    mut on_phase: P,
) -> TrainReport
where
    R: Rng + ?Sized,
    F: FnMut(usize, &Network) -> Option<Network>,
    P: FnMut(TrainPhase<'_>),
{
    let n = labels.len();
    let in_len = net.in_len();
    let classes = net.out_len();
    assert_eq!(images.len(), n * in_len, "image buffer length mismatch");
    assert!(config.batch_size > 0, "batch size must be positive");
    assert!(config.epochs > 0, "epoch count must be positive");
    assert!(n > 0, "training set is empty");

    // Momentum buffers, one per layer (empty for parameter-free layers).
    let mut velocity: Vec<ParamGrads> = net
        .layers()
        .iter()
        .map(|l| ParamGrads {
            weights: vec![0.0; l.weight_count()],
            bias: match l {
                Layer::Dense(d) => vec![0.0; d.out_features()],
                Layer::Conv2d(c) => vec![0.0; c.bias().len()],
                _ => Vec::new(),
            },
        })
        .collect();

    let layer_count = net.layers().len();
    let mut order: Vec<usize> = (0..n).collect();
    let mut report = TrainReport::default();
    let mut lr = config.learning_rate;

    for epoch in 0..config.epochs {
        on_phase(TrainPhase::EpochStart { epoch });
        order.shuffle(rng);
        let mut epoch_loss = 0.0f32;
        let mut batches = 0usize;

        for chunk in order.chunks(config.batch_size) {
            let batch = chunk.len();
            let mut x = Vec::with_capacity(batch * in_len);
            let mut y = Vec::with_capacity(batch);
            for &i in chunk {
                x.extend_from_slice(&images[i * in_len..(i + 1) * in_len]);
                y.push(labels[i]);
            }

            // Forward/backward run on the corrupted copy when one is
            // supplied; gradients are collected first and applied to the
            // clean network afterwards so the immutable borrow of `net`
            // (the `None` case) ends before the update pass.
            let fwd = corrupt_forward(epoch, net);
            let mut grads_rev = Vec::with_capacity(layer_count);
            let loss = {
                let fwd_net: &Network = match &fwd {
                    Some(f) => {
                        assert_eq!(
                            f.layers().len(),
                            layer_count,
                            "corrupted copy layer count mismatch"
                        );
                        f
                    }
                    None => net,
                };
                let (acts, caches) = fwd_net.forward_train(&x, batch);
                let logits = acts.last().expect("non-empty activations");
                let (loss, mut dy) = softmax_cross_entropy(logits, &y, classes);
                for li in (0..layer_count).rev() {
                    let (dx, g) =
                        fwd_net.layers()[li].backward(&acts[li], &caches[li], &dy, batch, li > 0);
                    grads_rev.push(g);
                    if let Some(dx) = dx {
                        dy = dx;
                    }
                }
                loss
            };
            epoch_loss += loss;
            batches += 1;

            for ((layer, v), grads) in net
                .layers_mut()
                .iter_mut()
                .zip(&mut velocity)
                .zip(grads_rev.into_iter().rev())
            {
                if let Some(g) = grads {
                    for (v, &gw) in v.weights.iter_mut().zip(&g.weights) {
                        *v = config.momentum * *v + gw;
                    }
                    for (v, &gb) in v.bias.iter_mut().zip(&g.bias) {
                        *v = config.momentum * *v + gb;
                    }
                    layer.apply_update(v, lr);
                }
            }
        }
        let mean_loss = epoch_loss / batches.max(1) as f32;
        report.epoch_losses.push(mean_loss);
        on_phase(TrainPhase::EpochDone {
            epoch,
            loss: mean_loss,
            net,
        });
        lr *= config.lr_decay;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn cross_entropy_of_uniform_logits_is_log_classes() {
        let (loss, grad) = softmax_cross_entropy(&[0.0, 0.0, 0.0, 0.0], &[2], 4);
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
        // Gradient sums to zero per sample.
        let sum: f32 = grad.iter().sum();
        assert!(sum.abs() < 1e-6);
        // True class gradient is negative, others positive.
        assert!(grad[2] < 0.0 && grad[0] > 0.0);
    }

    #[test]
    fn cross_entropy_decreases_when_correct_logit_grows() {
        let (l1, _) = softmax_cross_entropy(&[0.0, 0.0], &[0], 2);
        let (l2, _) = softmax_cross_entropy(&[3.0, 0.0], &[0], 2);
        assert!(l2 < l1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cross_entropy_rejects_bad_label() {
        let _ = softmax_cross_entropy(&[0.0, 0.0], &[5], 2);
    }

    /// Two linearly separable blobs in 4-D must be learnable to 100%.
    #[test]
    fn sgd_learns_a_separable_toy_problem() {
        let mut rng = StdRng::seed_from_u64(99);
        let mut net = Network::new(vec![
            Layer::Dense(Dense::new(4, 16, &mut rng)),
            Layer::Relu(Relu::new(16)),
            Layer::Dense(Dense::new(16, 2, &mut rng)),
        ])
        .unwrap();

        let n = 200;
        let mut images = Vec::with_capacity(n * 4);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = (i % 2) as u8;
            let center = if class == 0 { 0.7 } else { -0.7 };
            for _ in 0..4 {
                images.push(center + (rng.gen::<f32>() - 0.5) * 0.4);
            }
            labels.push(class);
        }

        let config = SgdConfig {
            epochs: 30,
            batch_size: 16,
            ..SgdConfig::default()
        };
        let report = train(&mut net, &images, &labels, &config, &mut rng);
        assert_eq!(report.epoch_losses.len(), 30);
        assert!(
            report.final_loss() < report.epoch_losses[0],
            "loss must decrease: {:?}",
            report.epoch_losses
        );
        let acc = net.accuracy(&images, &labels);
        assert!(acc > 0.98, "toy accuracy only {acc}");
    }

    #[test]
    fn training_is_deterministic_given_a_seed() {
        let build = || {
            let mut rng = StdRng::seed_from_u64(5);
            let mut net = Network::new(vec![Layer::Dense(Dense::new(3, 2, &mut rng))]).unwrap();
            let images = vec![0.1f32; 30];
            let labels = vec![0u8; 10];
            let config = SgdConfig {
                epochs: 2,
                batch_size: 5,
                ..SgdConfig::default()
            };
            train(&mut net, &images, &labels, &config, &mut rng);
            net
        };
        assert_eq!(build(), build());
    }

    /// [`train`] is the straight-through loop without a hook: with no
    /// corruption the two must stay bit-identical.
    #[test]
    fn fault_injected_without_corruption_matches_plain_train() {
        let build = |injected: bool| {
            let mut rng = StdRng::seed_from_u64(7);
            let mut net = Network::new(vec![
                Layer::Dense(Dense::new(4, 8, &mut rng)),
                Layer::Relu(Relu::new(8)),
                Layer::Dense(Dense::new(8, 2, &mut rng)),
            ])
            .unwrap();
            let images: Vec<f32> = (0..40 * 4).map(|i| (i % 13) as f32 * 0.05).collect();
            let labels: Vec<u8> = (0..40).map(|i| (i % 2) as u8).collect();
            let config = SgdConfig {
                epochs: 3,
                batch_size: 8,
                ..SgdConfig::default()
            };
            let report = if injected {
                train_fault_injected(
                    &mut net,
                    &images,
                    &labels,
                    &config,
                    &mut rng,
                    |_, _| None,
                    |_| (),
                )
            } else {
                train(&mut net, &images, &labels, &config, &mut rng)
            };
            (net, report)
        };
        assert_eq!(build(false), build(true));
    }

    /// The corruption hook sees every mini-batch, phases arrive in order,
    /// and gradients flow through the corrupted copy (straight-through).
    #[test]
    fn fault_injected_invokes_hook_and_phases() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut net = Network::new(vec![Layer::Dense(Dense::new(3, 2, &mut rng))]).unwrap();
        let images = vec![0.25f32; 30 * 3];
        let labels: Vec<u8> = (0..30).map(|i| (i % 2) as u8).collect();
        let config = SgdConfig {
            epochs: 2,
            batch_size: 10,
            ..SgdConfig::default()
        };
        let mut hook_calls = 0usize;
        let mut phases = Vec::new();
        let report = train_fault_injected(
            &mut net,
            &images,
            &labels,
            &config,
            &mut rng,
            |epoch, clean| {
                hook_calls += 1;
                // Perturb one weight: a crude stand-in for a fault overlay.
                let mut c = clean.clone();
                if let Layer::Dense(d) = &mut c.layers_mut()[0] {
                    d.weights_mut().as_mut_slice()[0] += 0.5 + epoch as f32;
                }
                Some(c)
            },
            |p| match p {
                TrainPhase::EpochStart { epoch } => phases.push((false, epoch)),
                TrainPhase::EpochDone { epoch, .. } => phases.push((true, epoch)),
            },
        );
        assert_eq!(hook_calls, 2 * 3, "one hook call per mini-batch");
        assert_eq!(phases, vec![(false, 0), (true, 0), (false, 1), (true, 1)]);
        assert_eq!(report.epoch_losses.len(), 2);
    }

    #[test]
    #[should_panic(expected = "training set is empty")]
    fn empty_training_set_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut net = Network::new(vec![Layer::Dense(Dense::new(2, 2, &mut rng))]).unwrap();
        let _ = train(&mut net, &[], &[], &SgdConfig::default(), &mut rng);
    }
}
