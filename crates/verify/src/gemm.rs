//! The scalar float matrix products the exact GEMM kernels in
//! `dante_nn::gemm` are tested against.
//!
//! Production runs every float product on `dante_nn::gemm`'s exact kernels:
//! `matmul_exact_into` for dense inference, the trial-batched evaluator and
//! training's `X·W`; `matmul_tn_exact_into` for the weight gradient `Xᵀ·dY`;
//! and `matmul_nt_exact_into` for the input gradient `dY·Wᵀ`, with `W` read
//! where it lies. The kernels are register-tiled rewrites, so their claim is
//! exact: every output element equals the textbook triple loop's bit for
//! bit. [`scalar_matmul`] is that loop for `A·B`; [`scalar_matmul_transposed`]
//! is the single-accumulator dot-product form of `A·Bᵀ`; [`transpose`] moves
//! values for the references that need `Aᵀ`. Both products fold each element
//! over `k` in ascending order from `+0.0`, the contract the
//! `dante_nn::gemm` module doc argues is preserved. `tests/gemm_props.rs`
//! and the tests below hold the kernels to it.

use dante_nn::tensor::Matrix;

/// Matrix product `a * b` by the i-k-j triple loop: each output element is
/// one accumulator from `+0.0`, folded over ascending `k`, skipping terms
/// whose left operand is `±0.0`.
///
/// # Panics
///
/// Panics if the inner dimensions disagree.
#[must_use]
pub fn scalar_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let ((m, k), (bk, n)) = (a.dims(), b.dims());
    assert_eq!(k, bk, "matmul dimension mismatch: {m}x{k} * {bk}x{n}");
    let (a, b) = (a.as_slice(), b.as_slice());
    let mut out = Matrix::zeros(m, n);
    let data = out.as_mut_slice();
    // i-k-j loop order keeps the inner loop streaming over contiguous
    // rows of `b` and `out`.
    for i in 0..m {
        for kk in 0..k {
            let av = a[i * k + kk];
            if av == 0.0 {
                continue;
            }
            let b_row = &b[kk * n..(kk + 1) * n];
            for (o, &bv) in data[i * n..(i + 1) * n].iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
    out
}

/// Matrix product `a * bᵀ` without materializing the transpose: each output
/// element is one dot product of a row of `a` and a row of `b`, accumulated
/// from `+0.0` over ascending `k` with no term skipped.
///
/// # Panics
///
/// Panics if `a` and `b` differ in column count.
#[must_use]
pub fn scalar_matmul_transposed(a: &Matrix, b: &Matrix) -> Matrix {
    let ((m, k), (n, bk)) = (a.dims(), b.dims());
    assert_eq!(
        k, bk,
        "matmul_transposed dimension mismatch: {m}x{k} * ({n}x{bk})^T"
    );
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        let a_row = a.row(i);
        for j in 0..n {
            let mut acc = 0.0f32;
            for (&av, &bv) in a_row.iter().zip(b.row(j)) {
                acc += av * bv;
            }
            out.set(i, j, acc);
        }
    }
    out
}

/// The transpose of `a`: element `(i, j)` of the result is `a`'s `(j, i)`.
#[must_use]
pub fn transpose(a: &Matrix) -> Matrix {
    let (rows, cols) = a.dims();
    let mut out = Matrix::zeros(cols, rows);
    for i in 0..rows {
        for (j, &v) in a.row(i).iter().enumerate() {
            out.set(j, i, v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dante_nn::gemm::{dense_cols_into, matmul_exact_into, matmul_nt_exact_into};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize, zero_frac: f64) -> Matrix {
        let data = (0..rows * cols)
            .map(|_| {
                if rng.gen::<f64>() < zero_frac {
                    0.0
                } else {
                    rng.gen::<f32>() * 2.0 - 1.0
                }
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = scalar_matmul(&a, &b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_transposed_agrees_with_explicit_transpose() {
        let a = Matrix::from_vec(2, 3, vec![1.0, -2.0, 0.5, 3.0, 1.0, -1.0]);
        let b = Matrix::from_vec(4, 3, (0..12).map(|i| i as f32 * 0.25).collect());
        assert_eq!(
            scalar_matmul(&a, &transpose(&b)),
            scalar_matmul_transposed(&a, &b)
        );
        assert_eq!(transpose(&transpose(&b)), b);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_checks_dimensions() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = scalar_matmul(&a, &b);
    }

    #[test]
    fn exact_kernel_matches_matmul_bitwise_across_shapes() {
        let mut rng = StdRng::seed_from_u64(0x6E44);
        // Shapes chosen to hit: even/odd m (pair + remainder row), n
        // multiples of NR, ragged right edges, n < NR, k = 1.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (2, 3, 16),
            (3, 7, 10),
            (4, 784, 256),
            (5, 16, 33),
            (7, 5, 17),
            (256, 9, 10),
        ] {
            for &zero_frac in &[0.0, 0.5, 0.95] {
                let a = random_matrix(&mut rng, m, k, zero_frac);
                let b = random_matrix(&mut rng, k, n, 0.0);
                let reference = scalar_matmul(&a, &b);
                let mut out = vec![0.0f32; m * n];
                matmul_exact_into(a.as_slice(), b.as_slice(), m, k, n, &mut out);
                assert_eq!(
                    bits(&out),
                    bits(reference.as_slice()),
                    "({m},{k},{n}) zero_frac {zero_frac}"
                );
            }
        }
    }

    /// Training's input-gradient route: `matmul_nt_exact_into(dY, W)`
    /// returns [`scalar_matmul_transposed`]`(dY, W)` bit for bit, for
    /// `mnist_fc`'s layer shapes, widths around the NR = 128 tile edge, an
    /// empty batch, and batches whose upstream gradient rows are all zero.
    #[test]
    fn exact_kernel_matches_matmul_transposed_bitwise_across_shapes() {
        let mut rng = StdRng::seed_from_u64(0xD7);
        // (batch, out, in): dX = dY[batch x out] * W^T, W stored [in x out].
        for &(m, k, n) in &[
            (0usize, 10usize, 256usize),
            (1, 1, 1),
            (3, 10, 256),
            (64, 256, 256),
            (64, 10, 256),
            (5, 7, 127),
            (6, 9, 128),
            (7, 4, 129),
            (2, 3, 257),
        ] {
            for &zero_frac in &[0.0, 0.5, 1.0] {
                let dy = random_matrix(&mut rng, m, k, zero_frac);
                let w = random_matrix(&mut rng, n, k, 0.0);
                let reference = scalar_matmul_transposed(&dy, &w);
                let mut out = vec![f32::NAN; m * n];
                matmul_nt_exact_into(dy.as_slice(), w.as_slice(), m, k, n, &mut out);
                assert_eq!(
                    bits(&out),
                    bits(reference.as_slice()),
                    "({m},{k},{n}) zero_frac {zero_frac}"
                );
            }
        }
    }

    #[test]
    fn dense_cols_match_full_product_bitwise() {
        let mut rng = StdRng::seed_from_u64(0xC015);
        let (m, k, n) = (5usize, 12usize, 20usize);
        let x = random_matrix(&mut rng, m, k, 0.4);
        let w = random_matrix(&mut rng, k, n, 0.0);
        let bias: Vec<f32> = (0..n).map(|_| rng.gen::<f32>() - 0.5).collect();
        // Full reference: matmul + bias (the Dense::forward recipe).
        let mut reference = scalar_matmul(&x, &w).into_vec();
        for row in reference.chunks_exact_mut(n) {
            for (o, &b) in row.iter_mut().zip(&bias) {
                *o += b;
            }
        }
        // Start from garbage in the dirty columns, clean values elsewhere.
        let mut out = reference.clone();
        let cols = [0usize, 3, 19];
        for row in out.chunks_exact_mut(n) {
            for &c in &cols {
                row[c] = f32::NAN;
            }
        }
        let mut col_buf = Vec::new();
        dense_cols_into(
            x.as_slice(),
            w.as_slice(),
            &bias,
            m,
            k,
            n,
            &cols,
            &mut col_buf,
            &mut out,
        );
        assert_eq!(bits(&out), bits(&reference));
    }

    /// Release-mode kernel speed probe (not a correctness test):
    /// `cargo test --release -p dante-verify --lib -- --ignored gemm_speed --nocapture`.
    #[test]
    #[ignore = "manual perf probe; run in release with --nocapture"]
    fn gemm_speed_probe() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let (m, k, n) = (256usize, 784usize, 256usize);
        // ~50% zeros mimics post-ReLU activations.
        let a = random_matrix(&mut rng, m, k, 0.5);
        let b = random_matrix(&mut rng, k, n, 0.0);
        let reps = 20u32;

        let t0 = std::time::Instant::now();
        let mut sink = 0.0f64;
        for _ in 0..reps {
            sink += f64::from(scalar_matmul(&a, &b).as_slice()[0]);
        }
        let scalar = t0.elapsed().as_secs_f64();

        let mut out = vec![0.0f32; m * n];
        let t0 = std::time::Instant::now();
        for _ in 0..reps {
            matmul_exact_into(a.as_slice(), b.as_slice(), m, k, n, &mut out);
            sink += f64::from(out[0]);
        }
        let tiled = t0.elapsed().as_secs_f64();

        let macs = (m * k * n) as f64 * f64::from(reps);
        println!(
            "matmul:      {:>8.1} ms  {:>6.2} GMAC/s",
            scalar * 1e3,
            macs / scalar / 1e9
        );
        println!(
            "tiled exact: {:>8.1} ms  {:>6.2} GMAC/s  ({:.2}x, sink {sink:e})",
            tiled * 1e3,
            macs / tiled / 1e9,
            scalar / tiled
        );
    }
}
