//! 2-D batch normalization.
//!
//! Standard per-channel batch norm over `(N, H, W)`. Not K-FAC eligible —
//! the paper's implementation "ignores" such layers and lets the wrapped
//! first-order optimizer update them directly (§V), which our `kfac` crate
//! reproduces by simply not collecting them.

use crate::layer::{KfacEligible, Layer, Mode};
use kfac_tensor::Tensor4;

/// `BatchNorm2d(c)` with learnable affine parameters and running
/// statistics for evaluation.
pub struct BatchNorm2d {
    name: String,
    channels: usize,
    eps: f32,
    momentum: f32,
    gamma: Vec<f32>,
    beta: Vec<f32>,
    grad_gamma: Vec<f32>,
    grad_beta: Vec<f32>,
    running_mean: Vec<f32>,
    /// Biased running variance (documented deviation from PyTorch's
    /// unbiased storage; only affects eval-mode scaling by m/(m−1)).
    running_var: Vec<f32>,
    /// Normalized activations of the last training forward (the buffer is
    /// kept between iterations; `inv_std` says whether it is current).
    xhat: Tensor4,
    /// Cached per-channel 1/√(var+eps); `Some` between a training forward
    /// and its backward.
    inv_std: Option<Vec<f32>>,
}

impl BatchNorm2d {
    /// Create with `γ = 1`, `β = 0` and fresh running statistics.
    pub fn new(name: impl Into<String>, channels: usize) -> Self {
        BatchNorm2d {
            name: name.into(),
            channels,
            eps: 1e-5,
            momentum: 0.1,
            gamma: vec![1.0; channels],
            beta: vec![0.0; channels],
            grad_gamma: vec![0.0; channels],
            grad_beta: vec![0.0; channels],
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            xhat: Tensor4::zeros(0, 0, 0, 0),
            inv_std: None,
        }
    }

    /// Channel count.
    pub fn channels(&self) -> usize {
        self.channels
    }
}

/// Independent f64 partial sums per channel statistic. One `+=` chain
/// waits out every add's latency; eight lanes, added lane by lane, are
/// the form the compiler vectorizes.
const LANES: usize = 8;

/// Channel sums `Σ a` and `Σ a·b` (in f64), carried across planes in
/// [`LANES`] lanes each.
#[derive(Default)]
struct LaneSums {
    sum: [f64; LANES],
    dot: [f64; LANES],
}

impl LaneSums {
    /// Add one plane: element `i` of each chunk of eight goes to lane `i`,
    /// a ragged tail to the first lanes.
    fn add(&mut self, a: &[f32], b: &[f32]) {
        let (mut ca, mut cb) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
        for (x, y) in (&mut ca).zip(&mut cb) {
            let x: [f64; LANES] = std::array::from_fn(|i| x[i] as f64);
            let y: [f64; LANES] = std::array::from_fn(|i| y[i] as f64);
            for i in 0..LANES {
                self.sum[i] += x[i];
                self.dot[i] += x[i] * y[i];
            }
        }
        for (i, (&x, &y)) in ca.remainder().iter().zip(cb.remainder()).enumerate() {
            self.sum[i] += x as f64;
            self.dot[i] += x as f64 * y as f64;
        }
    }

    /// `(Σ a, Σ a·b)`, each lane set folded pairwise.
    fn totals(&self) -> (f64, f64) {
        let fold =
            |l: &[f64; LANES]| ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
        (fold(&self.sum), fold(&self.dot))
    }
}

impl Layer for BatchNorm2d {
    // Per-channel statistics loops index several buffers by `ci`; the
    // range form mirrors the math.
    #[allow(clippy::needless_range_loop)]
    fn forward(&mut self, input: &Tensor4, mode: Mode) -> Tensor4 {
        let (n, c, h, w) = input.shape();
        assert_eq!(c, self.channels, "channel mismatch in {}", self.name);
        let m = (n * h * w) as f32;
        // Written first-touch, plane by plane in memory order.
        let mut out = Vec::with_capacity(input.len());

        match mode {
            Mode::Train => {
                let mut mean = vec![0.0f32; c];
                let mut inv_std = vec![0.0f32; c];
                for ci in 0..c {
                    // Batch statistics over (N, H, W).
                    let mut lanes = LaneSums::default();
                    for ni in 0..n {
                        let x = input.plane(ni, ci);
                        lanes.add(x, x);
                    }
                    let (sum, sumsq) = lanes.totals();
                    let mu = (sum / m as f64) as f32;
                    let var = ((sumsq / m as f64) - (mu as f64) * (mu as f64)).max(0.0) as f32;
                    (mean[ci], inv_std[ci]) = (mu, 1.0 / (var + self.eps).sqrt());

                    self.running_mean[ci] =
                        (1.0 - self.momentum) * self.running_mean[ci] + self.momentum * mu;
                    self.running_var[ci] =
                        (1.0 - self.momentum) * self.running_var[ci] + self.momentum * var;
                }
                let xhat = &mut self.xhat;
                xhat.reset_for(n, c, h, w);
                for ni in 0..n {
                    for ci in 0..c {
                        let (mu, istd) = (mean[ci], inv_std[ci]);
                        let (g, b) = (self.gamma[ci], self.beta[ci]);
                        let hp = xhat.plane_mut(ni, ci);
                        for (hv, &v) in hp.iter_mut().zip(input.plane(ni, ci)) {
                            *hv = (v - mu) * istd;
                        }
                        out.extend(hp.iter().map(|&hv| g * hv + b));
                    }
                }
                self.inv_std = Some(inv_std);
            }
            Mode::Eval => {
                for ni in 0..n {
                    for ci in 0..c {
                        let mean = self.running_mean[ci];
                        let istd = 1.0 / (self.running_var[ci] + self.eps).sqrt();
                        let (g, b) = (self.gamma[ci], self.beta[ci]);
                        let xp = input.plane(ni, ci);
                        out.extend(xp.iter().map(|&v| g * (v - mean) * istd + b));
                    }
                }
            }
        }
        Tensor4::from_vec(n, c, h, w, out)
    }

    #[allow(clippy::needless_range_loop)]
    fn backward(&mut self, grad_output: &Tensor4) -> Tensor4 {
        let inv_std = self
            .inv_std
            .take()
            .expect("backward without training forward");
        let xhat = &self.xhat;
        let (n, c, h, w) = grad_output.shape();
        let m = (n * h * w) as f32;

        // Per channel: γ·istd, mean(dy) and mean(dy·x̂).
        let mut coef = vec![(0.0f32, 0.0f32, 0.0f32); c];
        for ci in 0..c {
            // Accumulate the two channel sums the backward formula needs.
            let mut lanes = LaneSums::default();
            for ni in 0..n {
                lanes.add(grad_output.plane(ni, ci), xhat.plane(ni, ci));
            }
            let (sum_dy, sum_dy_xhat) = lanes.totals();
            self.grad_beta[ci] += sum_dy as f32;
            self.grad_gamma[ci] += sum_dy_xhat as f32;
            coef[ci] = (
                self.gamma[ci] * inv_std[ci],
                (sum_dy / m as f64) as f32,
                (sum_dy_xhat / m as f64) as f32,
            );
        }

        // dx = γ·istd · (dy − mean(dy) − x̂ · mean(dy·x̂)), first-touch.
        let mut dx = Vec::with_capacity(grad_output.len());
        for ni in 0..n {
            for ci in 0..c {
                let (g_istd, mean_dy, mean_dy_xhat) = coef[ci];
                let (dyp, hp) = (grad_output.plane(ni, ci), xhat.plane(ni, ci));
                dx.extend(
                    dyp.iter()
                        .zip(hp)
                        .map(|(&dy, &hv)| g_istd * (dy - mean_dy - hv * mean_dy_xhat)),
                );
            }
        }
        Tensor4::from_vec(n, c, h, w, dx)
    }

    fn output_shape(&self, input: (usize, usize, usize, usize)) -> (usize, usize, usize, usize) {
        input
    }

    fn visit_params(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut [f32], &mut [f32])) {
        let gname = format!("{prefix}{}.gamma", self.name);
        f(&gname, &mut self.gamma, &mut self.grad_gamma);
        let bname = format!("{prefix}{}.beta", self.name);
        f(&bname, &mut self.beta, &mut self.grad_beta);
    }

    fn set_capture(&mut self, _on: bool) {
        // Not K-FAC eligible; nothing to capture.
    }

    fn collect_kfac<'a>(&'a mut self, _out: &mut Vec<&'a mut dyn KfacEligible>) {
        // BatchNorm is updated by the plain optimizer (§V).
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{finite_diff_check, random_tensor};
    use kfac_tensor::Rng64;

    #[test]
    fn train_output_is_normalized() {
        let mut rng = Rng64::new(1);
        let mut bn = BatchNorm2d::new("bn", 3);
        let x = random_tensor((4, 3, 5, 5), &mut rng);
        let y = bn.forward(&x, Mode::Train);
        // Per-channel mean ≈ 0, var ≈ 1 (γ=1, β=0).
        for ci in 0..3 {
            let mut vals = Vec::new();
            for ni in 0..4 {
                vals.extend_from_slice(y.plane(ni, ci));
            }
            let m: f64 = vals.iter().map(|&v| v as f64).sum::<f64>() / vals.len() as f64;
            let v: f64 =
                vals.iter().map(|&x| (x as f64 - m).powi(2)).sum::<f64>() / vals.len() as f64;
            assert!(m.abs() < 1e-4, "mean {m}");
            assert!((v - 1.0).abs() < 1e-2, "var {v}");
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut rng = Rng64::new(2);
        let mut bn = BatchNorm2d::new("bn", 2);
        // Warm running stats with several training passes.
        for _ in 0..200 {
            let x = random_tensor((8, 2, 4, 4), &mut rng);
            let _ = bn.forward(&x, Mode::Train);
        }
        // Standard-normal input ⇒ running stats near (0, 1) ⇒ eval ≈ identity.
        let x = random_tensor((4, 2, 4, 4), &mut rng);
        let y = bn.forward(&x, Mode::Eval);
        let mut max_diff = 0.0f32;
        for (a, b) in x.as_slice().iter().zip(y.as_slice()) {
            max_diff = max_diff.max((a - b).abs());
        }
        assert!(max_diff < 0.35, "eval far from identity: {max_diff}");
    }

    #[test]
    fn gradient_check() {
        let mut rng = Rng64::new(3);
        let bn = BatchNorm2d::new("bn", 3);
        finite_diff_check(Box::new(bn), (4, 3, 3, 3), 5e-2, &mut rng);
    }

    #[test]
    fn gamma_beta_gradients_known_case() {
        // With dy = 1 everywhere: dβ = m, dγ = Σ x̂ ≈ 0.
        let mut rng = Rng64::new(4);
        let mut bn = BatchNorm2d::new("bn", 1);
        let x = random_tensor((2, 1, 3, 3), &mut rng);
        let _ = bn.forward(&x, Mode::Train);
        let dy = Tensor4::from_vec(2, 1, 3, 3, vec![1.0; 18]);
        let _ = bn.backward(&dy);
        assert!((bn.grad_beta[0] - 18.0).abs() < 1e-4);
        assert!(bn.grad_gamma[0].abs() < 1e-3);
    }

    #[test]
    fn not_kfac_eligible() {
        let mut bn = BatchNorm2d::new("bn", 4);
        let mut v = Vec::new();
        bn.collect_kfac(&mut v);
        assert!(v.is_empty());
    }
}
