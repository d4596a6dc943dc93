//! Blocked/unrolled GEMM kernels: the crate's float matrix products and the
//! accelerator's shared integer dot product.
//!
//! Two families live here:
//!
//! * **Bit-exact `f32` kernels** ([`matmul_exact_into`],
//!   [`matmul_tn_exact_into`], [`matmul_nt_exact_into`], [`dense_cols_into`]).
//!   Every float product in the crate runs on them: [`Dense`]'s and
//!   [`Conv2d`]'s (via im2col) forward passes and gradients, so
//!   `Network::forward`, `Network::accuracy`, SGD training and the
//!   trial-batched evaluator in [`crate::batched`]. They are register-tiled
//!   rewrites of the textbook
//!   triple loop that produce *the same bits* for every output element, which
//!   keeps trained weights and golden-pinned accuracy statistics
//!   byte-identical. Exactness rests on a per-element contract: each
//!   `out[i][j]` is a single `f32` accumulator starting at `+0.0`, folded over
//!   `k` in ascending order. The scalar references `dante-verify` tests the
//!   kernels against (`dante_verify::gemm::{scalar_matmul,
//!   scalar_matmul_transposed}`) keep the same contract. Register tiling
//!   changes which *elements* are in flight together but never the
//!   per-element fold order. Whether a term whose left operand is `±0.0` is
//!   skipped or added does not matter either (the narrow kernels and
//!   `scalar_matmul` skip it, the four-row kernel and
//!   `scalar_matmul_transposed` add it): the accumulator can never be `-0.0`
//!   (it starts at `+0.0` and IEEE-754 addition only produces `-0.0` from
//!   `-0.0 + -0.0` or exact negative cancellation in rounding modes other than
//!   round-to-nearest), so adding `±0.0 * b` leaves it unchanged for finite
//!   `b`. Training's transposed products have their own entries, which
//!   copy operands into blocked transposes: [`matmul_tn_exact_into`] gives
//!   `dW = Xᵀ·dY` from a blocked copy of the `batch x in` input, and
//!   [`matmul_nt_exact_into`] gives `dX = dY·Wᵀ` over a blocked copy of
//!   `W` when the weights are no larger than `dY` and `dX` together, and
//!   otherwise as `(W·dYᵀ)ᵀ`, reading `W` where it lies. A copy moves values
//!   but not the fold, and swapping the operands of each product term swaps
//!   nothing bitwise (`f32` multiplication commutes exactly), so all keep
//!   the per-element contract. `W·dYᵀ` has one column per mini-batch row, so
//!   a 32-row batch runs on the four-row kernel's fixed 32-column tile, whose
//!   accumulators stay in registers. A convolution's padding taps and zero
//!   gradients are `±0.0` terms too. Weights, activations and gradients are
//!   finite throughout the pipeline and no conv bias is `-0.0` (its forward
//!   fold starts `+0.0 + bias·1.0`), which the argument assumes.
//!
//! * **The integer kernel** ([`dot_i16`]) for the cycle-level executor's
//!   fixed-point MACs: a lane-split `i16` dot product whose `i64` partial
//!   sums equal the sequential fold (integer addition is associative). The
//!   executor's requantizing epilogue is `dante_accel::pe::requantize`.
//!
//! The property suite `crates/verify/tests/gemm_props.rs` checks both
//! families: the float kernels for arbitrary shapes (including the
//! [`NR`]-column, 32-column and row remainder tiles, and all three float
//! entries), `Conv2d` against the direct convolution loops in
//! `dante_verify::gemm`, and the integer one for every length remainder
//! and at `i16` extremes, next to `pe::requantize` at `i32`/`i64`
//! extremes.
//!
//! [`Dense`]: crate::layers::Dense
//! [`Conv2d`]: crate::layers::Conv2d

/// Column tile width of the `f32` micro-kernel. 128 lanes mean the four-row
/// kernel amortises each broadcast-A load over a long run of B columns; the
/// accumulator arrays no longer fit the register file, but the spilled rows
/// are hot in L1 and the wide fixed-length inner loops autovectorize cleanly
/// under AVX2/AVX-512 (measured fastest among {16, 32, 64, 128, 256} on the
/// benchmark shapes — 256 regresses once the spill traffic dominates).
pub const NR: usize = 128;

/// `out = a * b` for row-major `a` (`m x k`), `b` (`k x n`), bit-identical to
/// the ascending-`k` scalar triple loop on finite inputs (see the module
/// docs).
///
/// Processes four rows of `a` at a time against [`NR`]-wide column tiles of
/// `b`; remainder tiles (right edge, trailing rows) fall back to narrower
/// variants with the same per-element fold order.
///
/// # Panics
///
/// Panics if the slice lengths do not match `m*k`, `k*n`, `m*n`.
pub fn matmul_exact_into(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "lhs length mismatch");
    assert_eq!(b.len(), k * n, "rhs length mismatch");
    assert_eq!(out.len(), m * n, "out length mismatch");
    // Runtime dispatch: the same per-element fold compiled under wider SIMD
    // feature sets. No variant enables FMA — fusing the multiply-add would
    // change rounding and break bit-identity with the scalar loop; plain
    // lane-parallel mul+add over independent accumulators cannot.
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: feature presence just checked.
            return unsafe { matmul_core_avx512(a, b, m, k, n, out) };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: feature presence just checked.
            return unsafe { matmul_core_avx2(a, b, m, k, n, out) };
        }
    }
    matmul_core(a, b, m, k, n, out);
}

/// `out = aᵀ * b` for `a` stored row-major `k x m` (so `aᵀ` is `m x k`),
/// `b` row-major `k x n` and `out` row-major `m x n`: training's weight
/// gradient `dW = Xᵀ·dY`, with `X` the `batch x in` layer input. Only the
/// batch-sized `a` moves: [`matmul_exact_into`] runs over its blocked
/// transpose, so every output element keeps the ascending-`k` fold.
///
/// # Panics
///
/// Panics if the slice lengths do not match `k*m`, `k*n`, `m*n`.
pub fn matmul_tn_exact_into(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), k * m, "lhs length mismatch");
    let mut at = vec![0.0f32; m * k];
    transpose_into(a, k, m, &mut at);
    matmul_exact_into(&at, b, m, k, n, out);
}

/// `out = a * bᵀ` for row-major `a` (`m x k`), `b` stored row-major `n x k`
/// and `out` row-major `m x n`: training's input gradient `dX = dY·Wᵀ`,
/// with `W` the `in x out` weights. It copies whichever side is smaller:
///
/// * when `b` is no larger than `a` and the result together (`n * k <=
///   m * k + m * n`, as for a narrow output layer), [`matmul_exact_into`]
///   runs `a * bᵀ` over a blocked transpose of `b`, straight into `out`;
/// * otherwise `b` is read where it lies: [`matmul_exact_into`] computes
///   `outᵀ = b * aᵀ` over a blocked transpose of `a`, and the result is
///   transposed back. With `m` a 32-row mini-batch this inner product runs
///   on the four-row kernel's fixed 32-column tile.
///
/// Either way each `out[i][j]` is one `+0.0`-started accumulator of
/// `a[i][kk] * b[j][kk]` folded over ascending `kk`, the dot-product fold
/// of `a`'s row `i` with `b`'s row `j` (`f32` multiplication commutes
/// exactly).
///
/// # Panics
///
/// Panics if the slice lengths do not match `m*k`, `n*k`, `m*n`.
pub fn matmul_nt_exact_into(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "lhs length mismatch");
    assert_eq!(b.len(), n * k, "rhs length mismatch");
    assert_eq!(out.len(), m * n, "out length mismatch");
    if n * k <= m * k + m * n {
        let mut bt = vec![0.0f32; k * n];
        transpose_into(b, n, k, &mut bt);
        matmul_exact_into(a, &bt, m, k, n, out);
        return;
    }
    let mut at = vec![0.0f32; k * m];
    transpose_into(a, m, k, &mut at);
    let mut out_t = vec![0.0f32; n * m];
    matmul_exact_into(b, &at, n, k, m, &mut out_t);
    transpose_into(&out_t, n, m, out);
}

/// Writes the transpose of the row-major `rows x cols` buffer `src` into
/// `dst` (`cols x rows`), in 16x16 blocks so that both sides stay within
/// a few cache lines.
fn transpose_into(src: &[f32], rows: usize, cols: usize, dst: &mut [f32]) {
    const BLOCK: usize = 16;
    for r0 in (0..rows).step_by(BLOCK) {
        for c0 in (0..cols).step_by(BLOCK) {
            for r in r0..(r0 + BLOCK).min(rows) {
                for c in c0..(c0 + BLOCK).min(cols) {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
        }
    }
}

/// [`matmul_core`] compiled with AVX-512F codegen (identical source, wider
/// autovectorization of the fixed-width accumulator loops).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn matmul_core_avx512(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    matmul_core(a, b, m, k, n, out);
}

/// [`matmul_core`] compiled with AVX2 codegen.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matmul_core_avx2(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    matmul_core(a, b, m, k, n, out);
}

/// The dispatch body: four rows at a time against [`NR`]-wide tiles,
/// remainder rows and ragged right edges via narrower
/// variants with the same fold order. `inline(always)` (here and in the
/// micro-kernels) so the `target_feature` wrappers recompile the whole loop
/// nest under their feature set.
#[inline(always)]
fn matmul_core(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    let mut rows = out;
    let mut lhs = a;
    let mut m_rem = m;
    while m_rem >= 4 {
        let (o0, rest) = rows.split_at_mut(n);
        let (o1, rest) = rest.split_at_mut(n);
        let (o2, rest) = rest.split_at_mut(n);
        let (o3, rest) = rest.split_at_mut(n);
        rows = rest;
        rows4(
            &lhs[..k],
            &lhs[k..2 * k],
            &lhs[2 * k..3 * k],
            &lhs[3 * k..4 * k],
            b,
            n,
            o0,
            o1,
            o2,
            o3,
        );
        lhs = &lhs[4 * k..];
        m_rem -= 4;
    }
    if m_rem >= 2 {
        let (o0, rest) = rows.split_at_mut(n);
        let (o1, rest) = rest.split_at_mut(n);
        rows = rest;
        rows2(&lhs[..k], &lhs[k..2 * k], b, n, o0, o1);
        lhs = &lhs[2 * k..];
        m_rem -= 2;
    }
    if m_rem == 1 {
        row1(&lhs[..k], b, n, &mut rows[..n]);
    }
}

/// Width of the four-row kernel's narrow column tile: a right edge at
/// least this wide runs a fixed-length loop whose accumulators stay in
/// registers, instead of the ragged-edge loop. It is the mini-batch width
/// [`matmul_nt_exact_into`]'s inner product runs at in training when it
/// reads the weights in place.
const NARROW: usize = 32;

/// Four-row micro-kernel: all rows share every loaded B tile, giving four
/// independent accumulator arrays (many parallel add chains per SIMD width)
/// that hide the add latency the two-row kernel stalls on. Unlike the narrow
/// kernels it never skips a `k` term — with four rows in flight an all-zero
/// term is too rare to pay for the branch — and adding the extra `±0.0 * b`
/// terms is bit-identical to skipping them (see module docs).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn rows4(
    a0: &[f32],
    a1: &[f32],
    a2: &[f32],
    a3: &[f32],
    b: &[f32],
    n: usize,
    out0: &mut [f32],
    out1: &mut [f32],
    out2: &mut [f32],
    out3: &mut [f32],
) {
    let mut j = 0;
    while j < n {
        let nb = match n - j {
            left if left >= NR => NR,
            left if left >= NARROW => NARROW,
            left => left,
        };
        let mut acc0 = [0.0f32; NR];
        let mut acc1 = [0.0f32; NR];
        let mut acc2 = [0.0f32; NR];
        let mut acc3 = [0.0f32; NR];
        if nb == NR {
            for kk in 0..a0.len() {
                let (x0, x1, x2, x3) = (a0[kk], a1[kk], a2[kk], a3[kk]);
                let bs = &b[kk * n + j..kk * n + j + NR];
                for jj in 0..NR {
                    acc0[jj] += x0 * bs[jj];
                    acc1[jj] += x1 * bs[jj];
                    acc2[jj] += x2 * bs[jj];
                    acc3[jj] += x3 * bs[jj];
                }
            }
        } else if nb == NARROW {
            for kk in 0..a0.len() {
                let (x0, x1, x2, x3) = (a0[kk], a1[kk], a2[kk], a3[kk]);
                let bs = &b[kk * n + j..kk * n + j + NARROW];
                for jj in 0..NARROW {
                    acc0[jj] += x0 * bs[jj];
                    acc1[jj] += x1 * bs[jj];
                    acc2[jj] += x2 * bs[jj];
                    acc3[jj] += x3 * bs[jj];
                }
            }
        } else {
            for kk in 0..a0.len() {
                let (x0, x1, x2, x3) = (a0[kk], a1[kk], a2[kk], a3[kk]);
                let bs = &b[kk * n + j..kk * n + j + nb];
                for jj in 0..nb {
                    acc0[jj] += x0 * bs[jj];
                    acc1[jj] += x1 * bs[jj];
                    acc2[jj] += x2 * bs[jj];
                    acc3[jj] += x3 * bs[jj];
                }
            }
        }
        out0[j..j + nb].copy_from_slice(&acc0[..nb]);
        out1[j..j + nb].copy_from_slice(&acc1[..nb]);
        out2[j..j + nb].copy_from_slice(&acc2[..nb]);
        out3[j..j + nb].copy_from_slice(&acc3[..nb]);
        j += nb;
    }
}

/// Two-row micro-kernel: both rows share every loaded B tile.
#[inline(always)]
fn rows2(a0: &[f32], a1: &[f32], b: &[f32], n: usize, out0: &mut [f32], out1: &mut [f32]) {
    let mut j = 0;
    while j < n {
        let nb = NR.min(n - j);
        let mut acc0 = [0.0f32; NR];
        let mut acc1 = [0.0f32; NR];
        if nb == NR {
            for (kk, (&x0, &x1)) in a0.iter().zip(a1).enumerate() {
                if x0 == 0.0 && x1 == 0.0 {
                    continue;
                }
                let bs = &b[kk * n + j..kk * n + j + NR];
                for jj in 0..NR {
                    acc0[jj] += x0 * bs[jj];
                    acc1[jj] += x1 * bs[jj];
                }
            }
        } else {
            for (kk, (&x0, &x1)) in a0.iter().zip(a1).enumerate() {
                if x0 == 0.0 && x1 == 0.0 {
                    continue;
                }
                let bs = &b[kk * n + j..kk * n + j + nb];
                for jj in 0..nb {
                    acc0[jj] += x0 * bs[jj];
                    acc1[jj] += x1 * bs[jj];
                }
            }
        }
        out0[j..j + nb].copy_from_slice(&acc0[..nb]);
        out1[j..j + nb].copy_from_slice(&acc1[..nb]);
        j += nb;
    }
}

/// Single-row micro-kernel for the odd last row.
#[inline(always)]
fn row1(a0: &[f32], b: &[f32], n: usize, out0: &mut [f32]) {
    let mut j = 0;
    while j < n {
        let nb = NR.min(n - j);
        let mut acc0 = [0.0f32; NR];
        if nb == NR {
            for (kk, &x0) in a0.iter().enumerate() {
                if x0 == 0.0 {
                    continue;
                }
                let bs = &b[kk * n + j..kk * n + j + NR];
                for jj in 0..NR {
                    acc0[jj] += x0 * bs[jj];
                }
            }
        } else {
            for (kk, &x0) in a0.iter().enumerate() {
                if x0 == 0.0 {
                    continue;
                }
                let bs = &b[kk * n + j..kk * n + j + nb];
                for jj in 0..nb {
                    acc0[jj] += x0 * bs[jj];
                }
            }
        }
        out0[j..j + nb].copy_from_slice(&acc0[..nb]);
        j += nb;
    }
}

/// Recomputes only the dirty output columns of a dense layer:
/// `out[i][j] = (sum_k x[i][k] * w[k][j]) + bias[j]` for `j in cols`,
/// bit-identical to the full [`matmul_exact_into`]-plus-bias path.
///
/// `w` is row-major `k x n` (the dense layer's `[in x out]` weights); the
/// dirty column is gathered once into `col_buf` and streamed against every
/// row of `x`. Untouched columns of `out` are left as-is — the caller seeds
/// `out` with the cached clean activations.
///
/// # Panics
///
/// Panics on slice length mismatches or a column index `>= n`.
#[allow(clippy::too_many_arguments)]
pub fn dense_cols_into(
    x: &[f32],
    w: &[f32],
    bias: &[f32],
    m: usize,
    k: usize,
    n: usize,
    cols: &[usize],
    col_buf: &mut Vec<f32>,
    out: &mut [f32],
) {
    assert_eq!(x.len(), m * k, "input length mismatch");
    assert_eq!(w.len(), k * n, "weight length mismatch");
    assert_eq!(bias.len(), n, "bias length mismatch");
    assert_eq!(out.len(), m * n, "out length mismatch");
    for &j in cols {
        assert!(j < n, "column {j} out of range");
        col_buf.clear();
        col_buf.extend((0..k).map(|kk| w[kk * n + j]));
        let bj = bias[j];
        // Eight rows in flight: each element keeps its own ascending-`k`
        // fold (bit-identity preserved, branchlessly — see module docs),
        // while the independent chains hide the add latency a single
        // accumulator serializes on.
        let mut i = 0;
        while i + 8 <= m {
            let rows: [&[f32]; 8] = std::array::from_fn(|r| &x[(i + r) * k..(i + r + 1) * k]);
            let mut acc = [0.0f32; 8];
            for (kk, &wv) in col_buf.iter().enumerate() {
                for (a, row) in acc.iter_mut().zip(&rows) {
                    *a += row[kk] * wv;
                }
            }
            for (r, a) in acc.iter().enumerate() {
                out[(i + r) * n + j] = a + bj;
            }
            i += 8;
        }
        while i < m {
            let xr = &x[i * k..(i + 1) * k];
            let mut acc = 0.0f32;
            for (&xv, &wv) in xr.iter().zip(col_buf.iter()) {
                acc += xv * wv;
            }
            out[i * n + j] = acc + bj;
            i += 1;
        }
    }
}

/// 4-way unrolled `i16 x i16 -> i64` dot product:
/// `acc + sum_k w[k] * x[k]`.
///
/// Integer addition is associative, so the unrolled partial sums are exactly
/// the sequential left-fold the scalar executor computes. The accumulator
/// cannot overflow in practice (`2^15 * 2^15 * len` needs `len > 2^33` to
/// reach `i64::MAX`), matching `pe::mac` semantics in dante-accel.
#[must_use]
pub fn dot_i16(acc: i64, w: &[i16], x: &[i16]) -> i64 {
    assert_eq!(w.len(), x.len(), "dot length mismatch");
    let mut s = [0i64; 4];
    let mut wc = w.chunks_exact(4);
    let mut xc = x.chunks_exact(4);
    for (cw, cx) in (&mut wc).zip(&mut xc) {
        s[0] += i64::from(cw[0]) * i64::from(cx[0]);
        s[1] += i64::from(cw[1]) * i64::from(cx[1]);
        s[2] += i64::from(cw[2]) * i64::from(cx[2]);
        s[3] += i64::from(cw[3]) * i64::from(cx[3]);
    }
    let mut tail = 0i64;
    for (&wv, &xv) in wc.remainder().iter().zip(xc.remainder()) {
        tail += i64::from(wv) * i64::from(xv);
    }
    acc + (s[0] + s[1]) + (s[2] + s[3]) + tail
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn dot_i16_matches_sequential_fold() {
        let mut rng = StdRng::seed_from_u64(0xD071);
        for len in [0usize, 1, 3, 4, 7, 64, 129] {
            let w: Vec<i16> = (0..len).map(|_| rng.gen::<i16>()).collect();
            let x: Vec<i16> = (0..len).map(|_| rng.gen::<i16>()).collect();
            let reference = w
                .iter()
                .zip(&x)
                .fold(7i64, |acc, (&a, &b)| acc + i64::from(a) * i64::from(b));
            assert_eq!(dot_i16(7, &w, &x), reference, "len {len}");
        }
    }
}
