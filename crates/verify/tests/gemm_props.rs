//! Property wall for the exact GEMM kernels in `dante_nn::gemm`.
//!
//! Training's byte-identical weights and the trial-batched evaluator's
//! bit-identity claim rest on these kernels being *exact* rewrites: the
//! register-tiled float path must reproduce the scalar references in
//! `dante_verify::gemm` bitwise for every shape (including the NR-column,
//! 32-column and 4/2/1-row remainder tiles), for `A·B` and for training's
//! two transposed-operand products, `Xᵀ·dY` and `dY·Wᵀ`, and `Dense::backward`
//! must return exactly those references; `Conv2d`, lowered onto the same
//! kernels through im2col, must return the direct convolution loops' bits
//! for its forward pass, its channel recompute and all three gradients; the
//! lane-split integer dot product must
//! equal the sequential fold; and the executor's requantizing epilogue
//! (`dante_accel::pe::requantize`) must round and saturate correctly at
//! `i32`/`i64` extremes. Shapes and values are drawn
//! adversarially here rather than enumerated.

use dante_accel::pe::requantize;
use dante_nn::gemm::{
    dense_cols_into, dot_i16, matmul_exact_into, matmul_nt_exact_into, matmul_tn_exact_into,
};
use dante_nn::layers::{Conv2d, Dense, Layer, Shape3};
use dante_nn::models::cifar_cnn;
use dante_nn::tensor::Matrix;
use dante_verify::gemm::{
    scalar_conv_backward, scalar_conv_forward, scalar_matmul, scalar_matmul_transposed, transpose,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Reduction lengths around the 32-row mini-batch, plus `k = 1` and a layer
/// width.
const KS: [usize; 5] = [1, 31, 32, 33, 256];

/// Output widths around the 32-column and NR = 128 tile edges, plus empty
/// and tiny ones.
const EDGES: [usize; 14] = [0, 1, 2, 3, 5, 16, 31, 32, 33, 64, 127, 128, 129, 140];

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// `len` values in `[-8, 8)`. The large-operand properties draw a seed
/// rather than the values themselves, so a failing case shrinks over a few
/// integers instead of tens of thousands of floats.
fn values(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen::<f32>() * 16.0 - 8.0).collect()
}

/// Kernel sides of the conv wall: a 1x1 filter, an even side, `cifar_cnn`'s
/// 3 and a wide 5.
const KERNELS: [usize; 4] = [1, 2, 3, 5];

/// Conv batches: none, one sample, an odd few and a training mini-batch.
const BATCHES: [usize; 4] = [0, 1, 3, 32];

/// `conv` with its biases replaced by values in `[-1, 1)`, a quarter of
/// them the `+0.0` a fresh layer starts from (never `-0.0`, which the
/// lowering's bias-first fold excludes).
fn with_drawn_biases(rng: &mut StdRng, conv: &Conv2d) -> Conv2d {
    let bias = (0..conv.out_channels())
        .map(|_| {
            if rng.gen::<f64>() < 0.25 {
                0.0
            } else {
                rng.gen::<f32>() * 2.0 - 1.0
            }
        })
        .collect();
    Conv2d::from_parameters(
        conv.in_shape(),
        conv.out_channels(),
        conv.kernel(),
        conv.padding(),
        conv.weights().to_vec(),
        bias,
    )
}

/// `len` post-ReLU activations: values in `[-0.5, 1)` clamped at `+0.0`.
fn activations(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| (rng.gen::<f32>() * 1.5 - 0.5).max(0.0))
        .collect()
}

/// `batch` upstream gradients of `conv`'s output: each sample's channel is
/// all zero with probability `zero_channel`, and each remaining value is
/// zero with probability `zero`.
fn gradients(
    rng: &mut StdRng,
    conv: &Conv2d,
    batch: usize,
    zero_channel: f64,
    zero: f64,
) -> Vec<f32> {
    let out = conv.out_shape();
    let mut dy = Vec::with_capacity(batch * out.len());
    for _ in 0..batch * out.c {
        let dead = rng.gen::<f64>() < zero_channel;
        dy.extend((0..out.h * out.w).map(|_| {
            if dead || rng.gen::<f64>() < zero {
                0.0
            } else {
                rng.gen::<f32>() - 0.5
            }
        }));
    }
    dy
}

/// Holds every lowered conv product of `conv` to the direct loops, bit for
/// bit: the forward pass, the recompute of `channels` over a buffer whose
/// other channels hold the forward pass and whose recomputed ones hold NaN,
/// and `dX`, `dW` and `db` with and without the input gradient.
fn assert_conv_matches_the_direct_loops(
    conv: &Conv2d,
    x: &[f32],
    dy: &[f32],
    batch: usize,
    channels: &[usize],
) {
    let out = conv.out_shape();
    let shape = format!(
        "{:?} -> {:?}, k {}, p {}, batch {batch}",
        conv.in_shape(),
        out,
        conv.kernel(),
        conv.padding()
    );
    let want_y = scalar_conv_forward(conv, x, batch);
    assert_eq!(
        bits(&conv.forward(x, batch)),
        bits(&want_y),
        "forward {shape}"
    );

    let positions = out.h * out.w;
    let mut y = want_y.clone();
    for sample in y.chunks_exact_mut(out.len()) {
        for &c in channels {
            sample[c * positions..(c + 1) * positions].fill(f32::NAN);
        }
    }
    conv.forward_channels_into(x, batch, channels, &mut y);
    assert_eq!(bits(&y), bits(&want_y), "channels {channels:?} {shape}");

    let (want_dx, want_dw, want_db) = scalar_conv_backward(conv, x, dy, batch, true);
    let (dx, dw, db) = conv.backward(x, dy, batch, true);
    let want_dx = want_dx.expect("dX requested");
    assert_eq!(
        bits(&dx.expect("dX requested")),
        bits(&want_dx),
        "dX {shape}"
    );
    assert_eq!(bits(&dw), bits(&want_dw), "dW {shape}");
    assert_eq!(bits(&db), bits(&want_db), "db {shape}");
    let (no_dx, dw, db) = conv.backward(x, dy, batch, false);
    assert!(no_dx.is_none(), "dX not requested {shape}");
    assert_eq!(bits(&dw), bits(&want_dw), "dW without dX {shape}");
    assert_eq!(bits(&db), bits(&want_db), "db without dX {shape}");
}

/// Zeroes the rows of row-major `data` (rows of `cols`) whose bit is set in
/// `mask`.
fn zero_rows(data: &mut [f32], cols: usize, mask: u64) {
    for (i, row) in data.chunks_exact_mut(cols).enumerate() {
        if mask >> (i % 64) & 1 == 1 {
            row.fill(0.0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The register-tiled float GEMM is a bitwise rewrite of
    /// [`scalar_matmul`] for every shape, crossing the NR-column tile
    /// boundary and every row-remainder path.
    #[test]
    fn tiled_float_gemm_matches_matrix_matmul_bitwise(
        m in 1usize..=6, k in 1usize..=18, n in 1usize..=150,
        a_data in prop::collection::vec(-8.0f32..8.0, 108..=108),
        b_data in prop::collection::vec(-8.0f32..8.0, 2700..=2700),
    ) {
        let mut a = a_data[..m * k].to_vec();
        let b = b_data[..k * n].to_vec();
        // Zero activations exercise the remainder rows' skip path, which
        // must stay bit-identical (finite weights: 0.0 * w adds ±0.0).
        for v in a.iter_mut().step_by(3) { *v = 0.0; }
        let want = scalar_matmul(
            &Matrix::from_vec(m, k, a.clone()),
            &Matrix::from_vec(k, n, b.clone()),
        );
        let mut got = vec![0.0f32; m * n];
        matmul_exact_into(&a, &b, m, k, n, &mut got);
        prop_assert_eq!(bits(&got), bits(want.as_slice()), "m={} k={} n={}", m, k, n);
    }

    /// Training's input gradient `dX = dY·Wᵀ`: [`matmul_nt_exact_into`] is
    /// a bitwise rewrite of [`scalar_matmul_transposed`]`(dY, W)` for every
    /// shape, through both of its copies. Empty batches, and batches of
    /// five or fewer against rows of 31 or more, read `W` where it lies;
    /// every other shape here transposes `W`, which is then no larger than
    /// `dY` and `dX` together.
    /// Whole rows of `dY` and `W` are zero.
    #[test]
    fn nt_gemm_matches_matmul_transposed_bitwise(
        m_pick in 0usize..14, k_pick in 0usize..5, n in 1usize..=9,
        dy_zero in any::<u64>(), w_zero in any::<u64>(), seed in any::<u64>(),
    ) {
        let (m, k) = (EDGES[m_pick], KS[k_pick]);
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut dy, mut w) = (values(&mut rng, m * k), values(&mut rng, n * k));
        zero_rows(&mut dy, k, dy_zero);
        zero_rows(&mut w, k, w_zero);
        let want = scalar_matmul_transposed(
            &Matrix::from_vec(m, k, dy.clone()),
            &Matrix::from_vec(n, k, w.clone()),
        );
        let mut got = vec![f32::NAN; m * n];
        matmul_nt_exact_into(&dy, &w, m, k, n, &mut got);
        prop_assert_eq!(bits(&got), bits(want.as_slice()), "m={} k={} n={}", m, k, n);
    }

    /// Training's weight gradient `dW = Xᵀ·dY`: [`matmul_tn_exact_into`]
    /// takes `X` as stored (`k` rows of `m`) and is a bitwise rewrite of
    /// [`scalar_matmul`]`(Xᵀ, dY)` for every shape: `m` across the 4/2/1-row
    /// kernels and the 16-wide transpose blocks, `n` across the 32-column
    /// and NR-column tile edges, all-zero rows of `X` (which the narrow
    /// kernels skip) and of `dY`.
    #[test]
    fn tn_gemm_matches_matmul_of_the_transpose_bitwise(
        m in 1usize..=20, k_pick in 0usize..5, n_pick in 1usize..14,
        x_zero in any::<u64>(), dy_zero in any::<u64>(), seed in any::<u64>(),
    ) {
        let (k, n) = (KS[k_pick], EDGES[n_pick]);
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut x, mut dy) = (values(&mut rng, k * m), values(&mut rng, k * n));
        zero_rows(&mut x, m, x_zero);
        zero_rows(&mut dy, n, dy_zero);
        let want = scalar_matmul(
            &transpose(&Matrix::from_vec(k, m, x.clone())),
            &Matrix::from_vec(k, n, dy.clone()),
        );
        let mut got = vec![f32::NAN; m * n];
        matmul_tn_exact_into(&x, &dy, m, k, n, &mut got);
        prop_assert_eq!(bits(&got), bits(want.as_slice()), "m={} k={} n={}", m, k, n);
    }

    /// Column-sliced dense recomputation rewrites exactly the selected
    /// columns of the full (matmul + bias) result, bitwise, and touches
    /// nothing else.
    #[test]
    fn dense_cols_rewrite_selected_columns_bitwise(
        m in 1usize..=10, k in 1usize..=12, n in 1usize..=20,
        col_mask in any::<u32>(),
        a_data in prop::collection::vec(-4.0f32..4.0, 120..=120),
        w_data in prop::collection::vec(-4.0f32..4.0, 240..=240),
        bias_data in prop::collection::vec(-2.0f32..2.0, 20..=20),
    ) {
        let a = &a_data[..m * k];
        let w = &w_data[..k * n];
        let bias = &bias_data[..n];
        let cols: Vec<usize> = (0..n).filter(|j| col_mask >> (j % 32) & 1 == 1).collect();

        // The full reference: tiled matmul plus bias rows.
        let mut want = vec![0.0f32; m * n];
        matmul_exact_into(a, w, m, k, n, &mut want);
        for row in want.chunks_exact_mut(n) {
            for (o, &bv) in row.iter_mut().zip(bias) { *o += bv; }
        }

        // Clobber the selected columns, then ask the kernel to restore them.
        let mut got = want.clone();
        for row in got.chunks_exact_mut(n) {
            for &j in &cols { row[j] = f32::NAN; }
        }
        let mut col_buf = Vec::new();
        dense_cols_into(a, w, bias, m, k, n, &cols, &mut col_buf, &mut got);
        let wb: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
        let gb: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(gb, wb, "m={} k={} n={} cols={:?}", m, k, n, cols);
    }

    /// `Conv2d`'s im2col lowering keeps every fold of the direct loops in
    /// `dante_verify::gemm`: forward, channel recompute, `dX`, `dW` and `db`
    /// are bitwise equal for kernel sides 1, 2, 3 and 5, padding 0, 1,
    /// `k − 1` and `k` (the last reads `dY` at a negative offset), non-square
    /// inputs of 1 to 3 channels, 1 to 4 output channels, batches 0, 1, 3
    /// and 32, post-ReLU zeros in `X` and all-zero gradient channels.
    #[test]
    fn conv_lowering_matches_the_direct_loops_bitwise(
        k_pick in 0usize..4, pad_pick in 0usize..4, in_c in 1usize..=3, out_c in 1usize..=4,
        grow in 0usize..25, batch_pick in 0usize..4, seed in any::<u64>(),
    ) {
        let k = KERNELS[k_pick];
        let p = [0, 1, k - 1, k][pad_pick];
        // The smallest input the padded kernel fits, grown by up to four
        // rows and, independently, four columns.
        let side = k.saturating_sub(2 * p).max(1);
        let in_shape = Shape3::new(in_c, side + grow / 5, side + grow % 5);
        let batch = BATCHES[batch_pick];
        let mut rng = StdRng::seed_from_u64(seed);
        let conv = Conv2d::new(in_shape, out_c, k, p, &mut rng);
        let conv = with_drawn_biases(&mut rng, &conv);
        let x = activations(&mut rng, batch * in_shape.len());
        let dy = gradients(&mut rng, &conv, batch, 0.3, 0.5);
        let channels: Vec<usize> = (0..out_c).filter(|_| rng.gen::<bool>()).collect();
        assert_conv_matches_the_direct_loops(&conv, &x, &dy, batch, &channels);
    }

    /// The lane-split i16 dot product equals the sequential fold exactly
    /// (i64 addition is associative), for every length remainder.
    #[test]
    fn lane_split_dot_matches_sequential_fold(
        len in 0usize..=37,
        acc in -(1i64 << 40)..(1i64 << 40),
        w_data in prop::collection::vec(any::<i16>(), 37..=37),
        x_data in prop::collection::vec(any::<i16>(), 37..=37),
    ) {
        let w = &w_data[..len];
        let x = &x_data[..len];
        let want = w.iter().zip(x).fold(acc, |s, (&wv, &xv)| {
            s + i64::from(wv) * i64::from(xv)
        });
        prop_assert_eq!(dot_i16(acc, w, x), want);
    }

    /// The requantizing epilogue rounds half away from zero and saturates,
    /// verified against an independent magnitude-based formulation across
    /// the full i64 accumulator and i32 multiplier ranges.
    #[test]
    fn requantize_matches_wide_reference(
        acc in any::<i64>(),
        multiplier in any::<i32>(),
        shift in 0u32..=62,
    ) {
        let prod = i128::from(acc) * i128::from(multiplier);
        let bias = (1u128 << shift) >> 1;
        #[allow(clippy::cast_possible_truncation)]
        let mag = ((prod.unsigned_abs() + bias) >> shift) as i128;
        let want = if prod < 0 { -mag } else { mag }
            .clamp(i128::from(i16::MIN), i128::from(i16::MAX)) as i16;
        prop_assert_eq!(requantize(acc, multiplier, shift), want);
    }
}

/// `Dense::backward` on `mnist_fc`'s layer shapes returns the references
/// bit for bit: `dX` is [`scalar_matmul_transposed`]`(dY, W)`, `dW` is
/// [`scalar_matmul`]`(Xᵀ, dY)` and `db` the ascending column sums of `dY`,
/// for a 32-image mini-batch and the 16-image last batch of a 1,200-image
/// epoch, with post-ReLU zeros in `X`.
#[test]
fn dense_backward_matches_the_references_on_mnist_fc_shapes() {
    let mut rng = StdRng::seed_from_u64(0xBAC);
    for (inf, out) in [(784usize, 256usize), (256, 256), (256, 10)] {
        let layer = Dense::new(inf, out, &mut rng);
        let w = layer.weights();
        for batch in [32usize, 16] {
            let x: Vec<f32> = (0..batch * inf)
                .map(|_| (rng.gen::<f32>() - 0.5).max(0.0))
                .collect();
            let dy: Vec<f32> = (0..batch * out).map(|_| rng.gen::<f32>() - 0.5).collect();
            let (dx, dw, db) = layer.backward(&x, &dy, batch, true);
            let dy_m = Matrix::from_vec(batch, out, dy.clone());
            let want_dx = scalar_matmul_transposed(&dy_m, w);
            let want_dw =
                scalar_matmul(&transpose(&Matrix::from_vec(batch, inf, x.clone())), &dy_m);
            let mut want_db = vec![0.0f32; out];
            for row in dy.chunks_exact(out) {
                for (d, &g) in want_db.iter_mut().zip(row) {
                    *d += g;
                }
            }
            let shape = format!("{inf}x{out}, batch {batch}");
            assert_eq!(
                bits(&dx.expect("dX requested")),
                bits(want_dx.as_slice()),
                "dX {shape}"
            );
            assert_eq!(bits(&dw), bits(want_dw.as_slice()), "dW {shape}");
            assert_eq!(bits(&db), bits(&want_db), "db {shape}");
        }
    }
}

/// `Conv2d` on `cifar_cnn`'s two conv layers returns the direct loops'
/// bits: forward, the recompute of one channel and of three, `dX` (which
/// training skips for the first layer), `dW` and `db`, for a 32-image
/// mini-batch and the 16-image last batch of a 2,000-image epoch, with
/// post-ReLU zeros in `X` and 80% zero gradients.
#[test]
fn conv_layers_match_the_direct_loops_on_cifar_cnn_shapes() {
    let mut rng = StdRng::seed_from_u64(0xC1F);
    let net = cifar_cnn(&mut rng);
    let convs: Vec<&Conv2d> = net
        .layers()
        .iter()
        .filter_map(|layer| match layer {
            Layer::Conv2d(conv) => Some(conv),
            _ => None,
        })
        .collect();
    assert_eq!(convs.len(), 2, "cifar_cnn has two conv layers");
    for conv in convs {
        let conv = with_drawn_biases(&mut rng, conv);
        for (batch, channels) in [(32usize, vec![5usize]), (16, vec![0, 7, 11])] {
            let x = activations(&mut rng, batch * conv.in_shape().len());
            let dy = gradients(&mut rng, &conv, batch, 0.0, 0.8);
            assert_conv_matches_the_direct_loops(&conv, &x, &dy, batch, &channels);
        }
    }
}

#[test]
fn empty_shapes_are_consistent() {
    // An empty dot product returns the accumulator unchanged.
    assert_eq!(dot_i16(42, &[], &[]), 42);
}

#[test]
fn requantization_saturates_at_the_extremes() {
    assert_eq!(requantize(i64::MAX, i32::MAX, 0), i16::MAX);
    assert_eq!(requantize(i64::MIN, i32::MAX, 0), i16::MIN);
    assert_eq!(requantize(i64::MIN, i32::MIN, 0), i16::MAX);
    assert_eq!(requantize(1, 1, 1), 1); // 0.5 rounds away from zero
    assert_eq!(requantize(-1, 1, 1), -1);
    assert_eq!(requantize(0, i32::MAX, 62), 0);
}
