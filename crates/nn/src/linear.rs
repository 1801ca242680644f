//! Fully-connected layer with K-FAC capture.
//!
//! `y = x Wᵀ + b` with `W : out × in`. The K-FAC factors follow §II-C:
//! `A = ā āᵀ` over the bias-augmented activations of the previous layer
//! and `G = g gᵀ` over the gradients of this layer's output, both averaged
//! over the mini-batch (Eq. 5, 16–17).

use crate::layer::{FactorSums, KfacEligible, Layer, Mode};
use kfac_tensor::arena;
use kfac_tensor::gemm::{gemm_into, View};
use kfac_tensor::{init, Matrix, Rng64, Tensor4};

/// Dense layer `y = x Wᵀ + b`. Expects inputs flattened to
/// `(N, in_features, 1, 1)` (insert a [`crate::reshape::Flatten`] first).
pub struct Linear {
    name: String,
    in_features: usize,
    out_features: usize,
    weight: Vec<f32>, // row-major out × in
    bias: Option<Vec<f32>>,
    grad_weight: Vec<f32>,
    grad_bias: Option<Vec<f32>>,
    /// Cached training input (N × in), needed for dW = gᵀ x.
    input: Option<Matrix>,
    capture: FactorSums,
    /// Retired input buffer, reused by the next forward.
    input_pool: Option<Matrix>,
    /// Persistent scratch for the backward gradient rows.
    gy_rows: Matrix,
}

impl Linear {
    /// Create with PyTorch-default uniform initialization.
    pub fn new(
        name: impl Into<String>,
        in_features: usize,
        out_features: usize,
        bias: bool,
        rng: &mut Rng64,
    ) -> Self {
        assert!(in_features > 0 && out_features > 0);
        let mut weight = vec![0.0; out_features * in_features];
        init::linear_default(&mut weight, in_features, rng);
        let bias_v = if bias {
            let mut b = vec![0.0; out_features];
            init::linear_default(&mut b, in_features, rng);
            Some(b)
        } else {
            None
        };
        Linear {
            name: name.into(),
            in_features,
            out_features,
            grad_weight: vec![0.0; out_features * in_features],
            grad_bias: bias_v.as_ref().map(|b| vec![0.0; b.len()]),
            weight,
            bias: bias_v,
            input: None,
            capture: FactorSums::default(),
            input_pool: None,
            gy_rows: Matrix::zeros(0, 0),
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Copy the flattened input into `m` (reshaped in place, no alloc in
    /// steady state).
    fn input_to_matrix_into(input: &Tensor4, in_features: usize, m: &mut Matrix) {
        let (n, c, h, w) = input.shape();
        assert_eq!(
            c * h * w,
            in_features,
            "Linear expects flattened input ({} features, got {}x{}x{})",
            in_features,
            c,
            h,
            w
        );
        m.reset_for(n, in_features);
        m.as_mut_slice().copy_from_slice(input.as_slice());
    }

    /// Sum both factor Grams of one batch, `āᵀā` over the bias-augmented
    /// activations (the homogeneous-coordinate trick that folds `b` into
    /// `W`, §II-C) and `ĝᵀĝ` over the output gradients times the batch
    /// size, which undoes the mean loss's `1/batch` so `G` is the
    /// paper's per-example-gradient covariance (kfac-pytorch convention).
    fn capture_sums(capture: &mut FactorSums, bias: bool, x: &Matrix, gy: &Matrix) {
        let (n, extra) = (x.rows(), usize::from(bias));
        let (da, dg) = (x.cols() + extra, gy.cols());
        let mut a = arena::take_f32(n * da);
        for (row, xr) in a
            .chunks_exact_mut(da)
            .zip(x.as_slice().chunks_exact(x.cols()))
        {
            row[..x.cols()].copy_from_slice(xr);
            if extra == 1 {
                row[x.cols()] = 1.0;
            }
        }
        let mut g = arena::take_f32(n * dg);
        for (d, &v) in g.iter_mut().zip(gy.as_slice()) {
            *d = v * n as f32;
        }
        capture.add(
            [View::t(&a, n, da), View::new(&a, n, da)],
            [View::t(&g, n, dg), View::new(&g, n, dg)],
            true,
        );
        capture.finish(n);
        arena::recycle_f32(g);
        arena::recycle_f32(a);
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: &Tensor4, mode: Mode) -> Tensor4 {
        // Reuse the retired input buffer from the previous iteration.
        let mut x = self
            .input_pool
            .take()
            .unwrap_or_else(|| Matrix::zeros(0, 0));
        Self::input_to_matrix_into(input, self.in_features, &mut x);
        let n = x.rows();

        // y = x Wᵀ, multiplying straight against the parameter slice.
        // The result escapes as the output tensor, so it gets a fresh
        // buffer rather than layer scratch.
        let mut y = Matrix::zeros(n, self.out_features);
        gemm_into(
            View::new(x.as_slice(), n, self.in_features),
            View::t(&self.weight, self.out_features, self.in_features),
            y.as_mut_slice(),
        );

        if let Some(b) = &self.bias {
            for i in 0..n {
                let row = y.row_mut(i);
                for (v, &bj) in row.iter_mut().zip(b.iter()) {
                    *v += bj;
                }
            }
        }

        if mode == Mode::Train {
            if self.capture.enabled {
                // This pass replaces the previous capture.
                self.capture.restart();
            }
            self.input = Some(x);
        } else {
            self.input_pool = Some(x);
        }

        Tensor4::from_vec(n, self.out_features, 1, 1, y.into_vec())
    }

    fn backward(&mut self, grad_output: &Tensor4) -> Tensor4 {
        let (n, c, h, w) = grad_output.shape();
        assert_eq!((c, h, w), (self.out_features, 1, 1), "grad shape mismatch");
        self.gy_rows.reset_for(n, self.out_features);
        self.gy_rows
            .as_mut_slice()
            .copy_from_slice(grad_output.as_slice());
        let gy = &self.gy_rows;
        let x = self
            .input
            .take()
            .expect("backward without matching forward");

        if self.capture.enabled {
            Self::capture_sums(&mut self.capture, self.bias.is_some(), &x, gy);
        }

        // dW = gyᵀ x  (out × in): arena scratch, accumulated into the
        // persistent gradient.
        let mut dw = arena::take_matrix(self.out_features, self.in_features);
        gemm_into(
            View::t(gy.as_slice(), n, self.out_features),
            View::new(x.as_slice(), n, self.in_features),
            dw.as_mut_slice(),
        );
        for (gw, d) in self.grad_weight.iter_mut().zip(dw.as_slice()) {
            *gw += d;
        }
        arena::recycle_matrix(dw);
        // db = column sums of gy
        if let Some(gb) = &mut self.grad_bias {
            for i in 0..n {
                for (b, &v) in gb.iter_mut().zip(gy.row(i)) {
                    *b += v;
                }
            }
        }

        // dX = gy W  (N × in); escapes as the returned gradient tensor.
        let mut dx = Matrix::zeros(n, self.in_features);
        gemm_into(
            View::new(gy.as_slice(), n, self.out_features),
            View::new(&self.weight, self.out_features, self.in_features),
            dx.as_mut_slice(),
        );
        self.input_pool = Some(x);
        Tensor4::from_vec(n, self.in_features, 1, 1, dx.into_vec())
    }

    fn output_shape(&self, input: (usize, usize, usize, usize)) -> (usize, usize, usize, usize) {
        (input.0, self.out_features, 1, 1)
    }

    fn visit_params(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut [f32], &mut [f32])) {
        let wname = format!("{prefix}{}.weight", self.name);
        f(&wname, &mut self.weight, &mut self.grad_weight);
        if let (Some(b), Some(gb)) = (&mut self.bias, &mut self.grad_bias) {
            let bname = format!("{prefix}{}.bias", self.name);
            f(&bname, b, gb);
        }
    }

    fn set_capture(&mut self, on: bool) {
        self.capture.enabled = on;
        if on {
            self.capture.restart();
        }
    }

    fn collect_kfac<'a>(&'a mut self, out: &mut Vec<&'a mut dyn KfacEligible>) {
        out.push(self);
    }
}

impl KfacEligible for Linear {
    fn kfac_name(&self) -> String {
        self.name.clone()
    }

    fn factor_dims(&self) -> (usize, usize) {
        (
            self.in_features + usize::from(self.bias.is_some()),
            self.out_features,
        )
    }

    fn factor_sums(&self) -> &FactorSums {
        &self.capture
    }

    fn grad_matrix(&self) -> Matrix {
        let extra = usize::from(self.bias.is_some());
        let mut gm = Matrix::zeros(self.out_features, self.in_features + extra);
        for o in 0..self.out_features {
            gm.row_mut(o)[..self.in_features].copy_from_slice(
                &self.grad_weight[o * self.in_features..(o + 1) * self.in_features],
            );
            if extra == 1 {
                gm.row_mut(o)[self.in_features] = self.grad_bias.as_ref().expect("bias grad")[o];
            }
        }
        gm
    }

    fn set_grad_matrix(&mut self, grad: &Matrix) {
        let extra = usize::from(self.bias.is_some());
        assert_eq!(
            grad.shape(),
            (self.out_features, self.in_features + extra),
            "preconditioned gradient shape mismatch"
        );
        for o in 0..self.out_features {
            self.grad_weight[o * self.in_features..(o + 1) * self.in_features]
                .copy_from_slice(&grad.row(o)[..self.in_features]);
            if extra == 1 {
                self.grad_bias.as_mut().expect("bias grad")[o] = grad.row(o)[self.in_features];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{finite_diff_check, tensor_from};

    #[test]
    fn forward_known_values() {
        let mut rng = Rng64::new(1);
        let mut l = Linear::new("fc", 2, 3, true, &mut rng);
        // Overwrite params with known values.
        l.weight.copy_from_slice(&[1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        l.bias = Some(vec![0.5, -0.5, 0.0]);
        let x = tensor_from(1, 2, 1, 1, &[2.0, 3.0]);
        let y = l.forward(&x, Mode::Eval);
        assert_eq!(y.as_slice(), &[2.5, 2.5, 5.0]);
    }

    #[test]
    fn gradient_check() {
        let mut rng = Rng64::new(2);
        let l = Linear::new("fc", 4, 3, true, &mut rng);
        finite_diff_check(Box::new(l), (2, 4, 1, 1), 5e-2, &mut rng);
    }

    #[test]
    fn gradient_check_no_bias() {
        let mut rng = Rng64::new(3);
        let l = Linear::new("fc", 3, 5, false, &mut rng);
        finite_diff_check(Box::new(l), (3, 3, 1, 1), 5e-2, &mut rng);
    }

    #[test]
    fn capture_produces_expected_factors() {
        let mut rng = Rng64::new(4);
        let mut l = Linear::new("fc", 2, 2, false, &mut rng);
        l.set_capture(true);
        let x = tensor_from(2, 2, 1, 1, &[1.0, 0.0, 0.0, 2.0]);
        let y = l.forward(&x, Mode::Train);
        let gy = tensor_from(2, 2, 1, 1, &[1.0, 1.0, 1.0, -1.0]);
        let _ = l.backward(&gy);
        assert!(l.has_capture());
        let (a, g) = l.compute_factors();
        // A = xᵀx / 2 = [[0.5, 0], [0, 2]]
        assert!((a[(0, 0)] - 0.5).abs() < 1e-6);
        assert!((a[(1, 1)] - 2.0).abs() < 1e-6);
        assert!(a[(0, 1)].abs() < 1e-6);
        // g scaled by batch (2): rows [2,2],[2,-2]; G = ĝᵀĝ/2 = [[4,0],[0,4]]
        assert!((g[(0, 0)] - 4.0).abs() < 1e-6);
        assert!((g[(1, 1)] - 4.0).abs() < 1e-6);
        assert!(g[(0, 1)].abs() < 1e-6);
        let _ = y;
    }

    #[test]
    fn biased_capture_factors_have_the_augmented_shape() {
        let mut rng = Rng64::new(21);
        let mut l = Linear::new("fc", 6, 4, true, &mut rng);
        let x = crate::testutil::random_tensor((8, 6, 1, 1), &mut rng);
        let gy = crate::testutil::random_tensor((8, 4, 1, 1), &mut rng);

        l.set_capture(true);
        let _ = l.forward(&x, Mode::Train);
        let _ = l.backward(&gy);
        assert!(l.has_capture());
        let (a, g) = l.compute_factors();
        assert_eq!((a.shape(), g.shape()), ((7, 7), (4, 4)));
        // The bias-augmented corner is exactly 1·1·m/m = 1.
        assert_eq!(a[(6, 6)], 1.0);
    }

    #[test]
    fn grad_matrix_round_trip() {
        let mut rng = Rng64::new(5);
        let mut l = Linear::new("fc", 3, 2, true, &mut rng);
        l.grad_weight = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        l.grad_bias = Some(vec![7.0, 8.0]);
        let gm = l.grad_matrix();
        assert_eq!(gm.shape(), (2, 4));
        assert_eq!(gm.row(0), &[1.0, 2.0, 3.0, 7.0]);
        let mut gm2 = gm.clone();
        gm2.scale(2.0);
        l.set_grad_matrix(&gm2);
        assert_eq!(l.grad_weight[0], 2.0);
        assert_eq!(l.grad_bias.as_ref().unwrap()[1], 16.0);
    }

    #[test]
    fn factor_dims_account_for_bias() {
        let mut rng = Rng64::new(6);
        let with = Linear::new("a", 4, 3, true, &mut rng);
        let without = Linear::new("b", 4, 3, false, &mut rng);
        assert_eq!(with.factor_dims(), (5, 3));
        assert_eq!(without.factor_dims(), (4, 3));
    }

    #[test]
    fn param_visitor_names() {
        let mut rng = Rng64::new(7);
        let mut l = Linear::new("fc", 2, 2, true, &mut rng);
        let mut names = Vec::new();
        l.visit_params("model.", &mut |n, _, _| names.push(n.to_string()));
        assert_eq!(names, vec!["model.fc.weight", "model.fc.bias"]);
    }
}
