//! Property tests for the NN substrate.

use dante_nn::gemm::matmul_exact_into;
use dante_nn::layers::{Conv2d, Dense, Layer, MaxPool2d, Relu, Shape3};
use dante_nn::network::Network;
use dante_nn::quant::{QFormat, ScaledQuantizer};
use dante_nn::tensor::{argmax, softmax_batch, transpose};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn finite_vec(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-10.0f32..10.0, len..=len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The exact float kernel matches the transpose identity
    /// (A B)^T = B^T A^T.
    #[test]
    fn matmul_transpose_identity(
        a_data in finite_vec(6),
        b_data in finite_vec(8),
    ) {
        let b_data = &b_data[..6];
        let mut ab = vec![0.0f32; 4];
        matmul_exact_into(&a_data, b_data, 2, 3, 2, &mut ab);
        let ab_t = transpose(&ab, 2, 2);
        let mut bt_at = vec![0.0f32; 4];
        let (bt, at) = (transpose(b_data, 3, 2), transpose(&a_data, 2, 3));
        matmul_exact_into(&bt, &at, 2, 3, 2, &mut bt_at);
        for (x, y) in ab_t.iter().zip(&bt_at) {
            prop_assert!((x - y).abs() <= 1e-3 * (1.0 + x.abs()));
        }
    }

    /// Softmax outputs are a probability distribution and order-preserving.
    #[test]
    fn softmax_distribution(logits in finite_vec(12)) {
        let s = softmax_batch(&logits, 3, 4);
        for b in 0..3 {
            let row = &s[b * 4..(b + 1) * 4];
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
            let l_row = &logits[b * 4..(b + 1) * 4];
            prop_assert_eq!(argmax(row), argmax(l_row));
        }
    }

    /// ReLU is idempotent and its backward zeroes exactly the clamped lanes.
    #[test]
    fn relu_properties(x in finite_vec(16)) {
        let r = Relu::new(16);
        let y = r.forward(&x);
        prop_assert_eq!(r.forward(&y), y.clone());
        let dy = vec![1.0f32; 16];
        let dx = r.backward(&x, &dy);
        for (i, &xi) in x.iter().enumerate() {
            prop_assert_eq!(dx[i], if xi > 0.0 { 1.0 } else { 0.0 });
        }
    }

    /// Dense forward is linear: f(a x) = a f(x) when bias is zero.
    #[test]
    fn dense_linearity(x in finite_vec(5), scale in 0.1f32..4.0) {
        let mut rng = StdRng::seed_from_u64(3);
        let mut d = Dense::new(5, 3, &mut rng);
        for b in d.bias_mut() { *b = 0.0; }
        let y1 = d.forward(&x, 1);
        let scaled: Vec<f32> = x.iter().map(|v| v * scale).collect();
        let y2 = d.forward(&scaled, 1);
        for (a, b) in y1.iter().zip(&y2) {
            prop_assert!((a * scale - b).abs() <= 1e-3 * (1.0 + b.abs()));
        }
    }

    /// Convolution of a constant image with zero padding=0 is constant.
    #[test]
    fn conv_shift_invariance(value in -2.0f32..2.0) {
        let mut rng = StdRng::seed_from_u64(5);
        let conv = Conv2d::new(Shape3::new(1, 6, 6), 2, 3, 0, &mut rng);
        let x = vec![value; 36];
        let y = conv.forward(&x, 1);
        let out = conv.out_shape();
        for c in 0..out.c {
            let plane = &y[c * out.h * out.w..(c + 1) * out.h * out.w];
            for &p in plane {
                prop_assert!((p - plane[0]).abs() < 1e-4, "interior must be uniform");
            }
        }
    }

    /// Max pooling never invents values: every output equals some input.
    #[test]
    fn pool_selects_inputs(x in finite_vec(16)) {
        let pool = MaxPool2d::new(Shape3::new(1, 4, 4));
        let y = pool.forward(&x, 1);
        for &v in &y {
            prop_assert!(x.contains(&v));
        }
    }

    /// Scaled quantization error is bounded by half a step, and the bound
    /// tightens with more bits.
    #[test]
    fn quant_error_bounds(values in prop::collection::vec(-5.0f32..5.0, 1..64)) {
        let q8 = ScaledQuantizer::new(8, 2).quantize(&values);
        let q16 = ScaledQuantizer::new(16, 2).quantize(&values);
        for ((&v, &b8), &b16) in values
            .iter()
            .zip(&q8.to_f32())
            .zip(&q16.to_f32())
        {
            prop_assert!((v - b8).abs() <= q8.scale() * 0.5 + 1e-6);
            prop_assert!((v - b16).abs() <= q16.scale() * 0.5 + 1e-6);
        }
        prop_assert!(q16.scale() < q8.scale());
    }

    /// Absolute-format quantization saturates instead of wrapping.
    #[test]
    fn qformat_saturation(v in -100.0f32..100.0) {
        let q = QFormat::weight_q2_14();
        let back = q.dequantize(q.quantize(v));
        prop_assert!(back <= q.max_value() + 1e-6);
        prop_assert!(back >= q.min_value() - 1e-6);
    }

    /// Network serialization round-trips arbitrary dense stacks.
    #[test]
    fn network_bytes_roundtrip(seed in 0u64..500, hidden in 1usize..32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Network::new(vec![
            Layer::Dense(Dense::new(7, hidden, &mut rng)),
            Layer::Relu(Relu::new(hidden)),
            Layer::Dense(Dense::new(hidden, 3, &mut rng)),
        ]).expect("valid shapes");
        let back = Network::from_bytes(&net.to_bytes()).expect("roundtrip");
        prop_assert_eq!(net, back);
    }
}
