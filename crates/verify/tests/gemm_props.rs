//! Property wall for the exact GEMM kernels in `dante_nn::gemm`.
//!
//! Training's byte-identical weights and the trial-batched evaluator's
//! bit-identity claim rest on these kernels being *exact* rewrites: the
//! register-tiled float path must reproduce the scalar references in
//! `dante_verify::gemm` bitwise for every shape (including the NR-column and
//! 4/2/1-row remainder tiles), both for `A·B` and for training's `dY·Wᵀ`
//! over a materialized transpose; the blocked integer path must reproduce the
//! naive reduction for every blocking; and the requantizing epilogue must
//! round and saturate correctly at `i32`/`i64` extremes. Shapes, blockings,
//! and values are drawn adversarially here rather than enumerated.

use dante_nn::gemm::{
    dense_cols_into, dot_i16, gemm_i32_blocked_into, gemm_i32_naive, matmul_exact_into,
    round_shift_saturate,
};
use dante_nn::tensor::{transpose, Matrix};
use dante_verify::gemm::{scalar_matmul, scalar_matmul_transposed};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Blocked i32 GEMM equals the naive reduction for arbitrary shapes and
    /// block sizes — including blocks larger than the matrix and remainder
    /// tiles — even with accumulator wrap-around at i32 extremes.
    #[test]
    fn blocked_gemm_matches_naive_for_any_blocking(
        m in 1usize..=9, k in 1usize..=11, n in 1usize..=10,
        mb in 1usize..=13, kb in 1usize..=13, nb in 1usize..=13,
        a_data in prop::collection::vec(any::<i32>(), 99..=99),
        b_data in prop::collection::vec(any::<i32>(), 110..=110),
    ) {
        let mut a = a_data[..m * k].to_vec();
        let mut b = b_data[..k * n].to_vec();
        // Plant extremes so saturating products and wrap-around paths run.
        a[0] = i32::MAX;
        b[0] = i32::MIN;
        if a.len() > 1 { a[1] = i32::MIN; }
        if b.len() > 1 { b[1] = i32::MAX; }
        let want = gemm_i32_naive(&a, &b, m, k, n);
        let mut got = vec![0i64; m * n];
        gemm_i32_blocked_into(&a, &b, m, k, n, (mb, kb, nb), &mut got);
        prop_assert_eq!(got, want, "m={} k={} n={} blocks=({},{},{})", m, k, n, mb, kb, nb);
    }

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
        let wb: Vec<u32> = want.as_slice().iter().map(|v| v.to_bits()).collect();
        let gb: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(gb, wb, "m={} k={} n={}", m, k, n);
    }

    /// Training's input gradient `dX = dY·Wᵀ`: the kernel over `dY` and a
    /// materialized `Wᵀ` is a bitwise rewrite of
    /// [`scalar_matmul_transposed`]`(dY, W)` for every shape, with the
    /// output width (the layer's input width) crossing the NR-column tile
    /// edge, batches of zero rows, and all-zero upstream gradient rows.
    #[test]
    fn tiled_float_gemm_matches_matmul_transposed_bitwise(
        m in 0usize..=6, k in 1usize..=12, n in 1usize..=260,
        zero_rows in any::<u8>(),
        dy_data in prop::collection::vec(-8.0f32..8.0, 72..=72),
        w_data in prop::collection::vec(-8.0f32..8.0, 3120..=3120),
    ) {
        let mut dy = dy_data[..m * k].to_vec();
        let w = w_data[..n * k].to_vec();
        for (i, row) in dy.chunks_exact_mut(k).enumerate() {
            if zero_rows >> i & 1 == 1 { row.fill(0.0); }
        }
        let want = scalar_matmul_transposed(
            &Matrix::from_vec(m, k, dy.clone()),
            &Matrix::from_vec(n, k, w.clone()),
        );
        let mut got = vec![f32::NAN; m * n];
        matmul_exact_into(&dy, &transpose(&w, n, k), m, k, n, &mut got);
        let wb: Vec<u32> = want.as_slice().iter().map(|v| v.to_bits()).collect();
        let gb: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(gb, wb, "m={} k={} n={}", m, k, n);
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
    fn round_shift_saturate_matches_wide_reference(
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
        prop_assert_eq!(round_shift_saturate(acc, multiplier, shift), want);
    }
}

#[test]
fn empty_shapes_are_consistent() {
    // Zero-sized dimensions: both integer paths agree on the empty result.
    for (m, k, n) in [(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0)] {
        let a = vec![1i32; m * k];
        let b = vec![1i32; k * n];
        let want = gemm_i32_naive(&a, &b, m, k, n);
        let mut got = vec![0i64; m * n];
        gemm_i32_blocked_into(&a, &b, m, k, n, (4, 4, 4), &mut got);
        assert_eq!(got, want, "({m},{k},{n})");
    }
    assert_eq!(dot_i16(42, &[], &[]), 42);
}

#[test]
fn requantization_saturates_at_the_extremes() {
    assert_eq!(round_shift_saturate(i64::MAX, i32::MAX, 0), i16::MAX);
    assert_eq!(round_shift_saturate(i64::MIN, i32::MAX, 0), i16::MIN);
    assert_eq!(round_shift_saturate(i64::MIN, i32::MIN, 0), i16::MAX);
    assert_eq!(round_shift_saturate(1, 1, 1), 1); // 0.5 rounds away from zero
    assert_eq!(round_shift_saturate(-1, 1, 1), -1);
    assert_eq!(round_shift_saturate(0, i32::MAX, 62), 0);
}
