//! Fully-connected (dense) layer.

use crate::gemm;
use crate::tensor::{transpose, Matrix};
use rand::Rng;

/// A fully-connected layer: `y = x W + b` with `W` of shape
/// `[in_features x out_features]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    weights: Matrix,
    bias: Vec<f32>,
}

impl Dense {
    /// Creates a dense layer with He-initialized weights and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(in_features: usize, out_features: usize, rng: &mut R) -> Self {
        assert!(
            in_features > 0 && out_features > 0,
            "dense dimensions must be positive"
        );
        let scale = (2.0 / in_features as f32).sqrt();
        let data = (0..in_features * out_features)
            .map(|_| (rng.gen::<f32>() * 2.0 - 1.0) * scale)
            .collect();
        Self {
            weights: Matrix::from_vec(in_features, out_features, data),
            bias: vec![0.0; out_features],
        }
    }

    /// Creates a dense layer from explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != weights.cols()`.
    #[must_use]
    pub fn from_parameters(weights: Matrix, bias: Vec<f32>) -> Self {
        assert_eq!(
            bias.len(),
            weights.cols(),
            "bias length must match output width"
        );
        Self { weights, bias }
    }

    /// Input feature count.
    #[must_use]
    pub fn in_features(&self) -> usize {
        self.weights.rows()
    }

    /// Output feature count.
    #[must_use]
    pub fn out_features(&self) -> usize {
        self.weights.cols()
    }

    /// The weight matrix (`in x out`).
    #[must_use]
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Mutable weight matrix (used by quantization/fault overlay).
    #[must_use]
    pub fn weights_mut(&mut self) -> &mut Matrix {
        &mut self.weights
    }

    /// The bias vector.
    #[must_use]
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    /// Mutable bias vector.
    #[must_use]
    pub fn bias_mut(&mut self) -> &mut [f32] {
        &mut self.bias
    }

    /// Forward pass over a batch (`x` is `batch x in`, returns `batch x out`).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` is not `batch * in_features`.
    #[must_use]
    pub fn forward(&self, x: &[f32], batch: usize) -> Vec<f32> {
        let mut y = vec![0.0f32; batch * self.out_features()];
        self.forward_into(x, batch, &mut y);
        y
    }

    /// [`Dense::forward`] into a caller-provided `batch x out` buffer: the
    /// exact GEMM kernel, then the bias row added to every output row.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` does not hold `batch` rows of the layer's width.
    pub fn forward_into(&self, x: &[f32], batch: usize, y: &mut [f32]) {
        let (inf, out) = (self.in_features(), self.out_features());
        assert_eq!(x.len(), batch * inf, "input length mismatch");
        gemm::matmul_exact_into(x, self.weights.as_slice(), batch, inf, out, y);
        for row in y.chunks_exact_mut(out) {
            for (o, &bias) in row.iter_mut().zip(&self.bias) {
                *o += bias;
            }
        }
    }

    /// Backward pass: given the batch input `x` and upstream gradient `dy`,
    /// returns `(dx, dw, db)`, with `dw` flattened `[in x out]` like the
    /// weights. `dx` is `None` unless `input_grad` asks for it.
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
        let (inf, out) = (self.in_features(), self.out_features());
        assert_eq!(x.len(), batch * inf, "input length mismatch");
        assert_eq!(dy.len(), batch * out, "gradient length mismatch");

        // dX = dY * W^T, with W stored [in x out].
        let dx = input_grad.then(|| {
            let wt = transpose(self.weights.as_slice(), inf, out);
            let mut dx = vec![0.0f32; batch * inf];
            gemm::matmul_exact_into(dy, &wt, batch, out, inf, &mut dx);
            dx
        });
        // dW = X^T * dY
        let xt = transpose(x, batch, inf);
        let mut dw = vec![0.0f32; inf * out];
        gemm::matmul_exact_into(&xt, dy, inf, batch, out, &mut dw);
        // db = column sums of dY
        let mut db = vec![0.0f32; out];
        for row in dy.chunks_exact(out) {
            for (d, &g) in db.iter_mut().zip(row) {
                *d += g;
            }
        }
        (dx, dw, db)
    }

    /// Applies a parameter update: `W -= lr * dw`, `b -= lr * db`, with `dw`
    /// flattened `[in x out]` like the weights.
    ///
    /// # Panics
    ///
    /// Panics if gradient shapes mismatch.
    pub fn apply_update(&mut self, dw: &[f32], db: &[f32], lr: f32) {
        let weights = self.weights.as_mut_slice();
        assert_eq!(dw.len(), weights.len(), "weight gradient length mismatch");
        assert_eq!(db.len(), self.bias.len(), "bias gradient length mismatch");
        for (w, &g) in weights.iter_mut().zip(dw) {
            *w += g * -lr;
        }
        for (b, &g) in self.bias.iter_mut().zip(db) {
            *b -= lr * g;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny() -> Dense {
        Dense::from_parameters(
            Matrix::from_vec(2, 3, vec![1.0, 0.0, -1.0, 0.5, 2.0, 1.0]),
            vec![0.1, -0.1, 0.0],
        )
    }

    #[test]
    fn forward_computes_xw_plus_b() {
        let d = tiny();
        let y = d.forward(&[1.0, 2.0], 1);
        // y = [1*1+2*0.5, 1*0+2*2, 1*-1+2*1] + b = [2.0, 4.0, 1.0] + [0.1,-0.1,0]
        assert_eq!(y, vec![2.1, 3.9, 1.0]);
    }

    #[test]
    fn forward_handles_batches_independently() {
        let d = tiny();
        let y = d.forward(&[1.0, 2.0, 0.0, 0.0], 2);
        assert_eq!(&y[..3], &[2.1, 3.9, 1.0]);
        assert_eq!(&y[3..], &[0.1, -0.1, 0.0]);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // index perturbs and reads in lockstep
    fn backward_matches_numerical_gradient() {
        let mut rng = StdRng::seed_from_u64(42);
        let d = Dense::new(4, 3, &mut rng);
        let x: Vec<f32> = (0..8).map(|i| (i as f32 - 4.0) * 0.3).collect();
        let batch = 2;

        // Loss = sum(y^2)/2 so dy = y.
        let y = d.forward(&x, batch);
        let dy = y.clone();
        let (dx, dw, db) = d.backward(&x, &dy, batch, true);
        let dx = dx.expect("input gradient requested");
        assert_eq!(
            d.backward(&x, &dy, batch, false),
            (None, dw.clone(), db.clone())
        );

        let loss =
            |d: &Dense, x: &[f32]| -> f32 { d.forward(x, batch).iter().map(|v| v * v * 0.5).sum() };
        let eps = 1e-2f32;

        // Check dx numerically.
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp[i] += eps;
            let mut xm = x.clone();
            xm[i] -= eps;
            let num = (loss(&d, &xp) - loss(&d, &xm)) / (2.0 * eps);
            assert!(
                (num - dx[i]).abs() < 2e-2 * (1.0 + num.abs()),
                "dx[{i}]: numerical {num} vs analytic {}",
                dx[i]
            );
        }

        // Check a few weight gradients numerically.
        for (r, c) in [(0, 0), (1, 2), (3, 1)] {
            let mut dp = d.clone();
            let w = dp.weights().get(r, c);
            dp.weights_mut().set(r, c, w + eps);
            let lp = loss(&dp, &x);
            dp.weights_mut().set(r, c, w - eps);
            let lm = loss(&dp, &x);
            let num = (lp - lm) / (2.0 * eps);
            let ana = dw[r * 3 + c];
            assert!(
                (num - ana).abs() < 2e-2 * (1.0 + num.abs()),
                "dw[{r},{c}]: numerical {num} vs analytic {ana}"
            );
        }

        // Check bias gradient numerically.
        for i in 0..3 {
            let mut dp = d.clone();
            dp.bias_mut()[i] += eps;
            let lp = loss(&dp, &x);
            dp.bias_mut()[i] -= 2.0 * eps;
            let lm = loss(&dp, &x);
            let num = (lp - lm) / (2.0 * eps);
            assert!(
                (num - db[i]).abs() < 2e-2 * (1.0 + num.abs()),
                "db[{i}]: numerical {num} vs analytic {}",
                db[i]
            );
        }
    }

    #[test]
    fn apply_update_moves_against_gradient() {
        let mut d = tiny();
        let dw = vec![1.0; 6];
        let db = vec![1.0; 3];
        let w00 = d.weights().get(0, 0);
        let b0 = d.bias()[0];
        d.apply_update(&dw, &db, 0.1);
        assert!((d.weights().get(0, 0) - (w00 - 0.1)).abs() < 1e-6);
        assert!((d.bias()[0] - (b0 - 0.1)).abs() < 1e-6);
    }

    #[test]
    fn he_init_scale_is_reasonable() {
        let mut rng = StdRng::seed_from_u64(7);
        let d = Dense::new(100, 50, &mut rng);
        let norm = d.weights().frobenius_norm();
        let expected = (100.0f32 * 50.0 * (2.0 / 100.0) / 3.0).sqrt(); // uniform variance = scale^2/3
        assert!(
            (norm / expected) > 0.7 && (norm / expected) < 1.4,
            "norm {norm} vs {expected}"
        );
    }

    #[test]
    #[should_panic(expected = "input length mismatch")]
    fn forward_validates_input_length() {
        let _ = tiny().forward(&[1.0], 1);
    }
}
