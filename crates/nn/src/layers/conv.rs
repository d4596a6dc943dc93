//! 2-D convolution and max-pooling layers.
//!
//! Activations are laid out `[channel][row][col]` per sample, flattened, and
//! batches are concatenated sample-major — the layout an accelerator's
//! input memory would hold.
//!
//! Every convolution product runs on the exact GEMM kernels of
//! [`crate::gemm`] over an im2col patch matrix and keeps, per element, the
//! fold of the direct loop that `dante_verify::gemm` holds it to
//! (DESIGN.md §10).

use crate::gemm;
use rand::Rng;

/// Spatial shape of an activation volume.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape3 {
    /// Channels.
    pub c: usize,
    /// Height.
    pub h: usize,
    /// Width.
    pub w: usize,
}

impl Shape3 {
    /// Creates a shape.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn new(c: usize, h: usize, w: usize) -> Self {
        assert!(c > 0 && h > 0 && w > 0, "shape dimensions must be positive");
        Self { c, h, w }
    }

    /// Total element count.
    #[must_use]
    pub fn len(&self) -> usize {
        self.c * self.h * self.w
    }

    /// Shapes are never empty; provided for API completeness.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// A 2-D convolution layer (stride 1) with symmetric zero padding.
#[derive(Debug, Clone, PartialEq)]
pub struct Conv2d {
    in_shape: Shape3,
    out_channels: usize,
    kernel: usize,
    padding: usize,
    /// Weights `[out_c][in_c][kh][kw]`, flattened.
    weights: Vec<f32>,
    bias: Vec<f32>,
}

impl Conv2d {
    /// Creates a conv layer with He-initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if the kernel is zero-sized, larger than the padded input, or
    /// `out_channels == 0`.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(
        in_shape: Shape3,
        out_channels: usize,
        kernel: usize,
        padding: usize,
        rng: &mut R,
    ) -> Self {
        assert!(out_channels > 0, "need at least one output channel");
        assert!(kernel > 0, "kernel must be non-empty");
        assert!(
            kernel <= in_shape.h + 2 * padding && kernel <= in_shape.w + 2 * padding,
            "kernel larger than padded input"
        );
        let fan_in = in_shape.c * kernel * kernel;
        let scale = (2.0 / fan_in as f32).sqrt();
        let weights = (0..out_channels * fan_in)
            .map(|_| (rng.gen::<f32>() * 2.0 - 1.0) * scale)
            .collect();
        Self {
            in_shape,
            out_channels,
            kernel,
            padding,
            weights,
            bias: vec![0.0; out_channels],
        }
    }

    /// Creates a conv layer from explicit parameters (deserialization,
    /// tests).
    ///
    /// # Panics
    ///
    /// Panics if the parameter lengths do not match the geometry.
    #[must_use]
    pub fn from_parameters(
        in_shape: Shape3,
        out_channels: usize,
        kernel: usize,
        padding: usize,
        weights: Vec<f32>,
        bias: Vec<f32>,
    ) -> Self {
        assert_eq!(
            weights.len(),
            out_channels * in_shape.c * kernel * kernel,
            "weight length does not match geometry"
        );
        assert_eq!(
            bias.len(),
            out_channels,
            "bias length does not match channels"
        );
        assert!(
            kernel > 0 && kernel <= in_shape.h + 2 * padding && kernel <= in_shape.w + 2 * padding,
            "kernel incompatible with padded input"
        );
        Self {
            in_shape,
            out_channels,
            kernel,
            padding,
            weights,
            bias,
        }
    }

    /// Input shape.
    #[must_use]
    pub fn in_shape(&self) -> Shape3 {
        self.in_shape
    }

    /// Symmetric zero padding.
    #[must_use]
    pub fn padding(&self) -> usize {
        self.padding
    }

    /// Output channel count.
    #[must_use]
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Output shape (stride 1).
    #[must_use]
    pub fn out_shape(&self) -> Shape3 {
        Shape3::new(
            self.out_channels,
            self.in_shape.h + 2 * self.padding - self.kernel + 1,
            self.in_shape.w + 2 * self.padding - self.kernel + 1,
        )
    }

    /// Kernel side length.
    #[must_use]
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// The flattened weights `[out_c][in_c][kh][kw]`.
    #[must_use]
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Mutable weights (quantization / fault overlay).
    #[must_use]
    pub fn weights_mut(&mut self) -> &mut [f32] {
        &mut self.weights
    }

    /// The bias vector (one per output channel).
    #[must_use]
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Mutable bias.
    #[must_use]
    pub fn bias_mut(&mut self) -> &mut [f32] {
        &mut self.bias
    }

    /// Number of multiply-accumulate operations per sample.
    #[must_use]
    pub fn macs_per_sample(&self) -> u64 {
        let out = self.out_shape();
        (out.len() * self.in_shape.c * self.kernel * self.kernel) as u64
    }

    /// Forward pass over a batch.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != batch * in_shape.len()`.
    #[must_use]
    pub fn forward(&self, x: &[f32], batch: usize) -> Vec<f32> {
        let mut y = vec![0.0f32; batch * self.out_shape().len()];
        self.forward_into(x, batch, &mut y);
        y
    }

    /// [`Conv2d::forward`] into a caller-provided buffer of `batch` output
    /// volumes; panics on a length mismatch.
    pub fn forward_into(&self, x: &[f32], batch: usize, y: &mut [f32]) {
        let all: Vec<usize> = (0..self.out_channels).collect();
        self.forward_channels_into(x, batch, &all, y);
    }

    /// Writes output `channels` of [`Conv2d::forward`] into `y` and leaves
    /// its other channels as they are. Per sample, the channels' `[bias |
    /// W]` rows multiply the patch matrix under a row of ones, so an output
    /// folds `+0.0 + bias·1.0`, then ascending `(ic, kr, kc)`: the direct
    /// loop's sum for every bias but `-0.0`, which SGD never produces.
    ///
    /// # Panics
    ///
    /// Panics on a length mismatch or an out-of-range channel.
    pub fn forward_channels_into(&self, x: &[f32], b: usize, channels: &[usize], y: &mut [f32]) {
        let (isz, out, k) = (self.in_shape.len(), self.out_shape(), self.kernel);
        assert_eq!(x.len(), b * isz, "conv input length mismatch");
        assert_eq!(y.len(), b * out.len(), "conv output length mismatch");
        let (taps, n) = (self.in_shape.c * k * k, out.h * out.w);
        let mut filters = Vec::with_capacity(channels.len() * (1 + taps));
        for &oc in channels {
            filters.push(self.bias[oc]);
            filters.extend_from_slice(&self.weights[oc * taps..(oc + 1) * taps]);
        }
        let mut patches = vec![1.0f32; (1 + taps) * n];
        let mut rows = vec![0.0f32; channels.len() * n];
        let (grid, off) = ((out.h, out.w), self.padding as isize);
        for (xb, yb) in x.chunks_exact(isz).zip(y.chunks_exact_mut(out.len())) {
            im2col(xb, self.in_shape, k, off, grid, n, &mut patches[n..]);
            gemm::matmul_exact_into(&filters, &patches, channels.len(), 1 + taps, n, &mut rows);
            for (&oc, row) in channels.iter().zip(rows.chunks_exact(n)) {
                yb[oc * n..(oc + 1) * n].copy_from_slice(row);
            }
        }
    }

    /// Backward pass: returns `(dx, dw, db)`. `dx` is `None` unless
    /// `input_grad` asks for it. `dW` is one product over the mini-batch,
    /// `dY`'s channel rows against the batch's patches, so a weight folds
    /// over ascending `(sample, row, col)`; `db` sums the same rows. Per
    /// sample, `dX` is the filter turned 180° times the patches of `dY` at
    /// offset `k − 1 − p`, so an input folds over ascending `(oc, row, col)`
    /// of the outputs it fed.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent lengths.
    #[must_use]
    pub fn backward(
        &self,
        x: &[f32],
        dy: &[f32],
        batch: usize,
        input_grad: bool,
    ) -> (Option<Vec<f32>>, Vec<f32>, Vec<f32>) {
        let (isz, out) = (self.in_shape.len(), self.out_shape());
        assert_eq!(x.len(), batch * isz, "conv input length mismatch");
        assert_eq!(dy.len(), batch * out.len(), "conv gradient length mismatch");
        let (k, in_c, n) = (self.kernel, self.in_shape.c, out.h * out.w);
        let (taps, span) = (in_c * k * k, batch * n);
        let (grid, off) = ((out.h, out.w), self.padding as isize);
        let mut dy_rows = vec![0.0f32; out.c * span];
        let mut patches = vec![0.0f32; taps * span];
        for (b, xb) in x.chunks_exact(isz).enumerate() {
            for (oc, g) in dy[b * out.len()..][..out.len()].chunks_exact(n).enumerate() {
                dy_rows[oc * span + b * n..][..n].copy_from_slice(g);
            }
            im2col(xb, self.in_shape, k, off, grid, span, &mut patches[b * n..]);
        }
        let mut dw = vec![0.0f32; self.weights.len()];
        gemm::matmul_nt_exact_into(&dy_rows, &patches, out.c, span, taps, &mut dw);
        let db = (0..out.c).map(|oc| dy_rows[oc * span..][..span].iter().fold(0.0, |a, v| a + v));
        let dx = input_grad.then(|| {
            // Row `ic` holds every filter's `ic` taps reversed: the 180° turn.
            let mut turned = Vec::with_capacity(self.weights.len());
            for (ic, oc) in (0..in_c).flat_map(|ic| (0..out.c).map(move |oc| (ic, oc))) {
                turned.extend(
                    self.weights[(oc * in_c + ic) * k * k..][..k * k]
                        .iter()
                        .rev(),
                );
            }
            let (plane, off) = (isz / in_c, k as isize - 1 - self.padding as isize);
            let grid = (self.in_shape.h, self.in_shape.w);
            let mut cols = vec![0.0f32; out.c * k * k * plane];
            let mut dx = vec![0.0f32; x.len()];
            for (dyb, dxb) in dy.chunks_exact(out.len()).zip(dx.chunks_exact_mut(isz)) {
                im2col(dyb, out, k, off, grid, plane, &mut cols);
                gemm::matmul_exact_into(&turned, &cols, in_c, out.c * k * k, plane, dxb);
            }
            dx
        });
        (dx, dw, db.collect())
    }

    /// Applies a parameter update.
    ///
    /// # Panics
    ///
    /// Panics if gradient lengths mismatch.
    pub fn apply_update(&mut self, dw: &[f32], db: &[f32], lr: f32) {
        assert_eq!(
            dw.len(),
            self.weights.len(),
            "weight gradient length mismatch"
        );
        assert_eq!(db.len(), self.bias.len(), "bias gradient length mismatch");
        for (w, &g) in self.weights.iter_mut().zip(dw) {
            *w -= lr * g;
        }
        for (b, &g) in self.bias.iter_mut().zip(db) {
            *b -= lr * g;
        }
    }
}

/// Writes the patch matrix of `x` (one `shape` volume) into `cols`, rows
/// `stride` apart: row `(c, kr, kc)`, column `(r, col)` of the `grid` holds
/// `x[c][r + kr − off][col + kc − off]`, or zero outside `x`.
fn im2col(
    x: &[f32],
    shape: Shape3,
    k: usize,
    off: isize,
    grid: (usize, usize),
    stride: usize,
    cols: &mut [f32],
) {
    let (gh, gw) = grid;
    for (c, plane) in x.chunks_exact(shape.h * shape.w).enumerate() {
        for (kr, kc) in (0..k).flat_map(|kr| (0..k).map(move |kc| (kr, kc))) {
            let start = ((c * k + kr) * k + kc) * stride;
            // Grid column `col` reads input column `col + dc`, inside `x`
            // for `col` in `lo..hi`.
            let dc = kc as isize - off;
            let lo = (-dc).clamp(0, gw as isize);
            let hi = (shape.w as isize - dc).clamp(lo, gw as isize);
            for (r, row) in cols[start..start + gh * gw]
                .chunks_exact_mut(gw)
                .enumerate()
            {
                row.fill(0.0);
                let ir = (r + kr) as isize - off;
                if (0..shape.h as isize).contains(&ir) && lo < hi {
                    let src =
                        &plane[ir as usize * shape.w..][(lo + dc) as usize..(hi + dc) as usize];
                    row[lo as usize..hi as usize].copy_from_slice(src);
                }
            }
        }
    }
}

/// 2x2 max pooling with stride 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaxPool2d {
    in_shape: Shape3,
}

impl MaxPool2d {
    /// Creates a 2x2/stride-2 pool over the given input shape.
    ///
    /// # Panics
    ///
    /// Panics if height or width is not even (keeps the model simple; pad
    /// upstream if needed).
    #[must_use]
    pub fn new(in_shape: Shape3) -> Self {
        assert!(
            in_shape.h.is_multiple_of(2) && in_shape.w.is_multiple_of(2),
            "maxpool2d requires even spatial dimensions, got {}x{}",
            in_shape.h,
            in_shape.w
        );
        Self { in_shape }
    }

    /// Input shape.
    #[must_use]
    pub fn in_shape(&self) -> Shape3 {
        self.in_shape
    }

    /// Output shape.
    #[must_use]
    pub fn out_shape(&self) -> Shape3 {
        Shape3::new(self.in_shape.c, self.in_shape.h / 2, self.in_shape.w / 2)
    }

    /// Forward pass; also returns the winning input index for each output
    /// element (needed by the backward pass).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != batch * in_shape.len()`.
    #[must_use]
    pub fn forward_with_indices(&self, x: &[f32], batch: usize) -> (Vec<f32>, Vec<u32>) {
        let isz = self.in_shape.len();
        assert_eq!(x.len(), batch * isz, "pool input length mismatch");
        let out = self.out_shape();
        let (ih, iw) = (self.in_shape.h, self.in_shape.w);
        let mut y = vec![0.0f32; batch * out.len()];
        let mut idx = vec![0u32; batch * out.len()];
        for b in 0..batch {
            let xin = &x[b * isz..(b + 1) * isz];
            for c in 0..out.c {
                for orow in 0..out.h {
                    for ocol in 0..out.w {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_i = 0usize;
                        for dr in 0..2 {
                            for dc in 0..2 {
                                let i = (c * ih + orow * 2 + dr) * iw + ocol * 2 + dc;
                                if xin[i] > best {
                                    best = xin[i];
                                    best_i = i;
                                }
                            }
                        }
                        let o = b * out.len() + (c * out.h + orow) * out.w + ocol;
                        y[o] = best;
                        idx[o] = u32::try_from(best_i).expect("pool index fits in u32");
                    }
                }
            }
        }
        (y, idx)
    }

    /// Forward pass discarding indices.
    #[must_use]
    pub fn forward(&self, x: &[f32], batch: usize) -> Vec<f32> {
        self.forward_with_indices(x, batch).0
    }

    /// Backward pass using the indices recorded by
    /// [`Self::forward_with_indices`].
    ///
    /// # Panics
    ///
    /// Panics on inconsistent lengths.
    #[must_use]
    pub fn backward(&self, indices: &[u32], dy: &[f32], batch: usize) -> Vec<f32> {
        let out = self.out_shape();
        assert_eq!(dy.len(), batch * out.len(), "pool gradient length mismatch");
        assert_eq!(indices.len(), dy.len(), "pool index length mismatch");
        let isz = self.in_shape.len();
        let mut dx = vec![0.0f32; batch * isz];
        for b in 0..batch {
            for o in 0..out.len() {
                let flat = b * out.len() + o;
                dx[b * isz + indices[flat] as usize] += dy[flat];
            }
        }
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn conv_identity_kernel_passes_through() {
        // 1x1 kernel with weight 1 and zero padding is the identity.
        let mut rng = StdRng::seed_from_u64(1);
        let mut conv = Conv2d::new(Shape3::new(1, 3, 3), 1, 1, 0, &mut rng);
        conv.weights_mut()[0] = 1.0;
        conv.bias_mut()[0] = 0.0;
        let x: Vec<f32> = (0..9).map(|i| i as f32).collect();
        assert_eq!(conv.forward(&x, 1), x);
    }

    #[test]
    fn conv_known_3x3_sum_kernel() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut conv = Conv2d::new(Shape3::new(1, 4, 4), 1, 3, 0, &mut rng);
        for w in conv.weights_mut() {
            *w = 1.0;
        }
        conv.bias_mut()[0] = 0.0;
        let x = vec![1.0f32; 16];
        let y = conv.forward(&x, 1);
        assert_eq!(conv.out_shape(), Shape3::new(1, 2, 2));
        assert!(y.iter().all(|&v| (v - 9.0).abs() < 1e-6));
    }

    #[test]
    fn conv_padding_preserves_spatial_size() {
        let mut rng = StdRng::seed_from_u64(3);
        let conv = Conv2d::new(Shape3::new(2, 8, 8), 4, 3, 1, &mut rng);
        assert_eq!(conv.out_shape(), Shape3::new(4, 8, 8));
        let x = vec![0.5f32; 2 * 64];
        assert_eq!(conv.forward(&x, 1).len(), 4 * 64);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // index perturbs and reads in lockstep
    fn conv_backward_matches_numerical_gradient() {
        let mut rng = StdRng::seed_from_u64(4);
        let conv = Conv2d::new(Shape3::new(2, 4, 4), 3, 3, 1, &mut rng);
        let x: Vec<f32> = (0..32).map(|i| ((i * 7) % 13) as f32 * 0.1 - 0.6).collect();
        let y = conv.forward(&x, 1);
        let dy = y.clone(); // loss = sum(y^2)/2
        let (dx, dw, db) = conv.backward(&x, &dy, 1, true);
        let dx = dx.expect("input gradient requested");
        let (no_dx, dw_only, db_only) = conv.backward(&x, &dy, 1, false);
        assert!(no_dx.is_none());
        let bits = |v: &[f32]| v.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&dw_only), bits(&dw));
        assert_eq!(bits(&db_only), bits(&db));

        let loss =
            |c: &Conv2d, x: &[f32]| -> f32 { c.forward(x, 1).iter().map(|v| v * v * 0.5).sum() };
        let eps = 1e-2f32;

        for i in (0..x.len()).step_by(5) {
            let mut xp = x.clone();
            xp[i] += eps;
            let mut xm = x.clone();
            xm[i] -= eps;
            let num = (loss(&conv, &xp) - loss(&conv, &xm)) / (2.0 * eps);
            assert!(
                (num - dx[i]).abs() < 3e-2 * (1.0 + num.abs()),
                "dx[{i}]: {num} vs {}",
                dx[i]
            );
        }
        for i in (0..conv.weights().len()).step_by(11) {
            let mut cp = conv.clone();
            cp.weights_mut()[i] += eps;
            let lp = loss(&cp, &x);
            cp.weights_mut()[i] -= 2.0 * eps;
            let lm = loss(&cp, &x);
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - dw[i]).abs() < 3e-2 * (1.0 + num.abs()),
                "dw[{i}]: {num} vs {}",
                dw[i]
            );
        }
        for i in 0..db.len() {
            let mut cp = conv.clone();
            cp.bias_mut()[i] += eps;
            let lp = loss(&cp, &x);
            cp.bias_mut()[i] -= 2.0 * eps;
            let lm = loss(&cp, &x);
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - db[i]).abs() < 3e-2 * (1.0 + num.abs()),
                "db[{i}]: {num} vs {}",
                db[i]
            );
        }
    }

    #[test]
    fn conv_macs_per_sample_counts_kernel_volume() {
        let mut rng = StdRng::seed_from_u64(5);
        let conv = Conv2d::new(Shape3::new(3, 8, 8), 16, 3, 1, &mut rng);
        assert_eq!(conv.macs_per_sample(), (16 * 8 * 8 * 3 * 9) as u64);
    }

    #[test]
    fn maxpool_selects_maximum_and_routes_gradient() {
        let pool = MaxPool2d::new(Shape3::new(1, 2, 2));
        let x = vec![1.0, 5.0, 3.0, 2.0];
        let (y, idx) = pool.forward_with_indices(&x, 1);
        assert_eq!(y, vec![5.0]);
        assert_eq!(idx, vec![1]);
        let dx = pool.backward(&idx, &[2.0], 1);
        assert_eq!(dx, vec![0.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn maxpool_halves_spatial_dims() {
        let pool = MaxPool2d::new(Shape3::new(4, 8, 6));
        assert_eq!(pool.out_shape(), Shape3::new(4, 4, 3));
        let x = vec![0.0f32; 4 * 48 * 2];
        assert_eq!(pool.forward(&x, 2).len(), 4 * 12 * 2);
    }

    #[test]
    #[should_panic(expected = "even spatial dimensions")]
    fn maxpool_rejects_odd_dims() {
        let _ = MaxPool2d::new(Shape3::new(1, 3, 4));
    }

    #[test]
    #[should_panic(expected = "input length mismatch")]
    fn conv_validates_input() {
        let mut rng = StdRng::seed_from_u64(6);
        let conv = Conv2d::new(Shape3::new(1, 4, 4), 1, 3, 0, &mut rng);
        let _ = conv.forward(&[0.0; 15], 1);
    }
}
