//! 2-D convolution (cache-blocked patch lowering + GEMM) with K-FAC capture.
//!
//! The K-FAC factors for convolution follow Grosse & Martens'
//! convolutional factorization (the paper's \[33\]): the activation factor is
//! the second moment of the receptive-field patches (bias-augmented) and
//! the gradient factor is the second moment of the per-position output
//! gradients. The paper's implementation inherits this from kfac-pytorch;
//! we implement it directly, on the patch blocks the forward pass builds
//! anyway (see [`lowering`](crate::lowering)): both second moments are
//! summed inside the backward block loop, while the block it multiplies
//! is still cache-resident, so no whole-batch capture ever exists.

use crate::layer::{FactorSums, KfacEligible, Layer, Mode};
use crate::lowering::{
    build_patches, conv_out_dim, gather_block, scatter_block, scatter_patches, Blocked, Geometry,
    BLOCK,
};
use kfac_tensor::arena;
use kfac_tensor::gemm::{gemm_acc_into, gemm_into, View};
use kfac_tensor::{init, Matrix, Rng64, Tensor4};

/// Add one block of `len` positions to both factor sums while it is
/// cache-resident: `block · blockᵀ` (ones row included) and
/// `(scale·gy)(scale·gy)ᵀ`, `block` and `gy` being `features × len`
/// row-major. Out of line: inlined into the block loop, the capture
/// branch slowed the non-capturing backward.
#[inline(never)]
fn capture_block(
    sums: &mut FactorSums,
    block: &[f32],
    gy: &[f32],
    len: usize,
    scale: f32,
    first: bool,
) {
    let mut scaled = arena::take_f32(gy.len());
    for (d, &v) in scaled.iter_mut().zip(gy) {
        *d = v * scale;
    }
    let (f, c) = (block.len() / len, gy.len() / len);
    sums.add(
        [View::new(block, f, len), View::t(block, f, len)],
        [View::new(&scaled, c, len), View::t(&scaled, c, len)],
        first,
    );
    arena::recycle_f32(scaled);
}

/// `Conv2d(c_in → c_out, k×k, stride, pad)`, square kernels.
pub struct Conv2d {
    name: String,
    c_in: usize,
    c_out: usize,
    k: usize,
    stride: usize,
    pad: usize,
    /// Row-major `c_out × (c_in·k·k)`.
    weight: Vec<f32>,
    bias: Option<Vec<f32>>,
    grad_weight: Vec<f32>,
    grad_bias: Option<Vec<f32>>,
    /// Patch blocks of the last training forward (with a row of ones under
    /// the patch rows when the layer has a bias), and their geometry.
    patches: Option<(Blocked, Geometry)>,
    /// The patch storage between a backward and the next forward.
    spare: Vec<f32>,
    capture: FactorSums,
}

impl Conv2d {
    /// Create with Kaiming-normal weights (the ResNet initialization).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        c_in: usize,
        c_out: usize,
        k: usize,
        stride: usize,
        pad: usize,
        bias: bool,
        rng: &mut Rng64,
    ) -> Self {
        assert!(c_in > 0 && c_out > 0 && k > 0 && stride > 0);
        let fan_in = c_in * k * k;
        let mut weight = vec![0.0; c_out * fan_in];
        init::kaiming_normal(&mut weight, fan_in, rng);
        let bias_v = if bias { Some(vec![0.0; c_out]) } else { None };
        Conv2d {
            name: name.into(),
            c_in,
            c_out,
            k,
            stride,
            pad,
            grad_weight: vec![0.0; c_out * fan_in],
            grad_bias: bias_v.as_ref().map(|b| vec![0.0; b.len()]),
            weight,
            bias: bias_v,
            patches: None,
            spare: Vec::new(),
            capture: FactorSums::default(),
        }
    }

    /// Kernel size.
    pub fn kernel(&self) -> usize {
        self.k
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor4, mode: Mode) -> Tensor4 {
        assert_eq!(input.c(), self.c_in, "channel mismatch in {}", self.name);
        let g = Geometry::new(input.shape(), self.k, self.stride, self.pad);
        let (c_out, fan_in, positions) = (self.c_out, g.fan_in(), g.positions());
        let mut out = Tensor4::zeros(g.n, c_out, g.oh, g.ow);
        if mode == Mode::Train && self.capture.enabled {
            // This pass replaces the previous capture.
            self.capture.restart();
        }

        let features = fan_in + usize::from(self.bias.is_some());
        let mut patches =
            Blocked::from_storage(std::mem::take(&mut self.spare), features, positions);
        let mut y = arena::take_f32(c_out * BLOCK.min(positions));
        for (q, block) in patches.blocks_mut() {
            let (p, ones) = block.split_at_mut(fan_in * q.len());
            build_patches(input, &g, q.clone(), p);
            ones.fill(1.0);
            // y_b = W · P_b is channel-major: it goes to the output planes
            // by run copies.
            let y = &mut y[..c_out * q.len()];
            gemm_into(
                View::new(&self.weight, c_out, fan_in),
                View::new(p, fan_in, q.len()),
                y,
            );
            scatter_block(y, self.bias.as_deref(), q, &mut out);
        }
        arena::recycle_f32(y);

        if mode == Mode::Train {
            self.patches = Some((patches, g));
        } else {
            self.spare = patches.into_storage();
        }
        out
    }

    fn backward(&mut self, grad_output: &Tensor4) -> Tensor4 {
        let (patches, g) = self.patches.take().expect("backward without forward");
        assert_eq!(
            grad_output.shape(),
            (g.n, self.c_out, g.oh, g.ow),
            "gradient shape mismatch in {}",
            self.name
        );
        let (c_out, fan_in, positions) = (self.c_out, g.fan_in(), g.positions());
        // Undo the mean-loss 1/batch so G is the per-example gradient
        // covariance; batch is n, not n·oh·ow.
        let scale = g.n as f32;

        let mut dx = Tensor4::zeros(g.n, g.c, g.h, g.w);
        let block_len = BLOCK.min(positions);
        let mut gy = arena::take_f32(c_out * block_len);
        let mut dp = arena::take_f32(fan_in * block_len);
        // dW is a reduction over positions: each block is one `KC`-deep
        // piece of it, stored by the first and added by the rest in the
        // GEMM's own order; the sum is then added to the persistent
        // gradient.
        let mut dw = arena::take_f32(c_out * fan_in);
        for (q, block) in patches.blocks() {
            let len = q.len();
            let p = &block[..fan_in * len];
            let gy = &mut gy[..c_out * len];
            gather_block(grad_output, q.clone(), gy);
            if self.capture.enabled {
                capture_block(&mut self.capture, block, gy, len, scale, q.start == 0);
            }

            // dW += gy_b · P_bᵀ  (c_out × c_in·k·k)
            let (gy_b, p_b) = (View::new(gy, c_out, len), View::t(p, fan_in, len));
            gemm_acc_into(gy_b, p_b, &mut dw, q.start == 0);
            if let Some(gb) = &mut self.grad_bias {
                for (b, row) in gb.iter_mut().zip(gy.chunks_exact(len)) {
                    for &v in row {
                        *b += v;
                    }
                }
            }

            // dX += scatter(Wᵀ · gy_b)
            let dp = &mut dp[..fan_in * len];
            gemm_into(
                View::t(&self.weight, c_out, fan_in),
                View::new(gy, c_out, len),
                dp,
            );
            scatter_patches(dp, &g, q, &mut dx);
        }
        for (gw, &d) in self.grad_weight.iter_mut().zip(dw.iter()) {
            *gw += d;
        }
        arena::recycle_f32(dw);
        arena::recycle_f32(dp);
        arena::recycle_f32(gy);

        if self.capture.enabled {
            self.capture.finish(positions);
        }
        self.spare = patches.into_storage();
        dx
    }

    fn output_shape(&self, input: (usize, usize, usize, usize)) -> (usize, usize, usize, usize) {
        let (n, _c, h, w) = input;
        (
            n,
            self.c_out,
            conv_out_dim(h, self.k, self.stride, self.pad),
            conv_out_dim(w, self.k, self.stride, self.pad),
        )
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
            // Re-enabling starts a fresh capture.
            self.capture.restart();
        }
    }

    fn collect_kfac<'a>(&'a mut self, out: &mut Vec<&'a mut dyn KfacEligible>) {
        out.push(self);
    }
}

impl KfacEligible for Conv2d {
    fn kfac_name(&self) -> String {
        self.name.clone()
    }

    fn factor_dims(&self) -> (usize, usize) {
        (
            self.c_in * self.k * self.k + usize::from(self.bias.is_some()),
            self.c_out,
        )
    }

    fn factor_sums(&self) -> &FactorSums {
        &self.capture
    }

    fn grad_matrix(&self) -> Matrix {
        let fan_in = self.c_in * self.k * self.k;
        let extra = usize::from(self.bias.is_some());
        let mut gm = Matrix::zeros(self.c_out, fan_in + extra);
        for o in 0..self.c_out {
            gm.row_mut(o)[..fan_in]
                .copy_from_slice(&self.grad_weight[o * fan_in..(o + 1) * fan_in]);
            if extra == 1 {
                gm.row_mut(o)[fan_in] = self.grad_bias.as_ref().expect("bias grad")[o];
            }
        }
        gm
    }

    fn set_grad_matrix(&mut self, grad: &Matrix) {
        let fan_in = self.c_in * self.k * self.k;
        let extra = usize::from(self.bias.is_some());
        assert_eq!(
            grad.shape(),
            (self.c_out, fan_in + extra),
            "preconditioned gradient shape mismatch in {}",
            self.name
        );
        for o in 0..self.c_out {
            self.grad_weight[o * fan_in..(o + 1) * fan_in].copy_from_slice(&grad.row(o)[..fan_in]);
            if extra == 1 {
                self.grad_bias.as_mut().expect("bias grad")[o] = grad.row(o)[fan_in];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::finite_diff_check;

    #[test]
    fn output_shape_same_padding() {
        let mut rng = Rng64::new(1);
        let c = Conv2d::new("c", 3, 8, 3, 1, 1, false, &mut rng);
        assert_eq!(c.output_shape((2, 3, 8, 8)), (2, 8, 8, 8));
    }

    #[test]
    fn output_shape_stride2() {
        let mut rng = Rng64::new(2);
        let c = Conv2d::new("c", 4, 8, 3, 2, 1, false, &mut rng);
        assert_eq!(c.output_shape((1, 4, 8, 8)), (1, 8, 4, 4));
    }

    #[test]
    fn gradient_check_3x3() {
        let mut rng = Rng64::new(3);
        let c = Conv2d::new("c", 2, 3, 3, 1, 1, true, &mut rng);
        finite_diff_check(Box::new(c), (2, 2, 5, 5), 5e-2, &mut rng);
    }

    #[test]
    fn gradient_check_stride2_no_bias() {
        let mut rng = Rng64::new(4);
        let c = Conv2d::new("c", 3, 4, 3, 2, 1, false, &mut rng);
        finite_diff_check(Box::new(c), (2, 3, 6, 6), 5e-2, &mut rng);
    }

    #[test]
    fn gradient_check_1x1() {
        let mut rng = Rng64::new(5);
        let c = Conv2d::new("c", 4, 2, 1, 1, 0, false, &mut rng);
        finite_diff_check(Box::new(c), (2, 4, 4, 4), 5e-2, &mut rng);
    }

    #[test]
    fn factor_dims_follow_kfc() {
        let mut rng = Rng64::new(6);
        let c = Conv2d::new("c", 16, 32, 3, 1, 1, false, &mut rng);
        assert_eq!(c.factor_dims(), (16 * 9, 32));
        let cb = Conv2d::new("cb", 16, 32, 3, 1, 1, true, &mut rng);
        assert_eq!(cb.factor_dims(), (16 * 9 + 1, 32));
    }

    #[test]
    fn capture_factor_shapes() {
        let mut rng = Rng64::new(7);
        let mut c = Conv2d::new("c", 2, 3, 3, 1, 1, true, &mut rng);
        c.set_capture(true);
        let x = crate::testutil::random_tensor((2, 2, 4, 4), &mut rng);
        let y = c.forward(&x, Mode::Train);
        let gy = crate::testutil::random_tensor(y.shape(), &mut rng);
        let _ = c.backward(&gy);
        assert!(c.has_capture());
        let (a, g) = c.compute_factors();
        assert_eq!(a.shape(), (19, 19)); // 2·3·3 + 1 bias
        assert_eq!(g.shape(), (3, 3));
        assert_eq!(a.asymmetry(), 0.0);
        assert_eq!(g.asymmetry(), 0.0);
    }

    #[test]
    fn grad_matrix_round_trip() {
        let mut rng = Rng64::new(8);
        let mut c = Conv2d::new("c", 1, 2, 2, 1, 0, true, &mut rng);
        for (i, g) in c.grad_weight.iter_mut().enumerate() {
            *g = i as f32;
        }
        c.grad_bias = Some(vec![100.0, 200.0]);
        let gm = c.grad_matrix();
        assert_eq!(gm.shape(), (2, 5));
        assert_eq!(gm.row(0), &[0.0, 1.0, 2.0, 3.0, 100.0]);
        c.set_grad_matrix(&gm);
        assert_eq!(c.grad_weight[7], 7.0);
        assert_eq!(c.grad_bias.as_ref().unwrap()[1], 200.0);
    }

    #[test]
    fn no_capture_when_disabled() {
        let mut rng = Rng64::new(9);
        let mut c = Conv2d::new("c", 1, 1, 1, 1, 0, false, &mut rng);
        let x = crate::testutil::random_tensor((1, 1, 2, 2), &mut rng);
        let y = c.forward(&x, Mode::Train);
        let _ = c.backward(&crate::testutil::random_tensor(y.shape(), &mut rng));
        assert!(!c.has_capture());
    }
}
