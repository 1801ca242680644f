//! Activation functions (ReLU).

use crate::layer::{KfacEligible, Layer, Mode};
use kfac_tensor::Tensor4;

/// Rectified linear unit, `y = max(x, 0)`.
pub struct ReLU {
    /// Mask of positive inputs from the last training forward; the
    /// buffer is kept between iterations.
    mask: Vec<bool>,
    /// Whether `mask` belongs to a forward not yet back-propagated.
    cached: bool,
}

impl ReLU {
    /// New ReLU.
    pub fn new() -> Self {
        ReLU {
            mask: Vec::new(),
            cached: false,
        }
    }
}

impl Default for ReLU {
    fn default() -> Self {
        Self::new()
    }
}

/// `values` with the shape of `like`.
fn shaped_like(like: &Tensor4, values: Vec<f32>) -> Tensor4 {
    let (n, c, h, w) = like.shape();
    Tensor4::from_vec(n, c, h, w, values)
}

impl Layer for ReLU {
    fn forward(&mut self, input: &Tensor4, mode: Mode) -> Tensor4 {
        let x = input.as_slice();
        if mode == Mode::Train {
            self.mask.clear();
            self.mask.extend(x.iter().map(|&v| v > 0.0));
            self.cached = true;
            let out = x.iter().map(|&v| if v > 0.0 { v } else { 0.0 });
            shaped_like(input, out.collect())
        } else {
            shaped_like(input, x.iter().map(|&v| v.max(0.0)).collect())
        }
    }

    fn backward(&mut self, grad_output: &Tensor4) -> Tensor4 {
        assert!(self.cached, "backward without training forward");
        self.cached = false;
        assert_eq!(self.mask.len(), grad_output.len());
        let dx = grad_output
            .as_slice()
            .iter()
            .zip(&self.mask)
            .map(|(&g, &m)| if m { g } else { 0.0 });
        shaped_like(grad_output, dx.collect())
    }

    fn output_shape(&self, input: (usize, usize, usize, usize)) -> (usize, usize, usize, usize) {
        input
    }

    fn visit_params(&mut self, _prefix: &str, _f: &mut dyn FnMut(&str, &mut [f32], &mut [f32])) {}

    fn set_capture(&mut self, _on: bool) {}

    fn collect_kfac<'a>(&'a mut self, _out: &mut Vec<&'a mut dyn KfacEligible>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::tensor_from;

    #[test]
    fn forward_clamps_negatives() {
        let mut r = ReLU::new();
        let x = tensor_from(1, 1, 2, 2, &[-1.0, 0.0, 2.0, -3.0]);
        let y = r.forward(&x, Mode::Eval);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut r = ReLU::new();
        let x = tensor_from(1, 1, 2, 2, &[-1.0, 0.5, 2.0, -3.0]);
        let _ = r.forward(&x, Mode::Train);
        let g = tensor_from(1, 1, 2, 2, &[10.0, 10.0, 10.0, 10.0]);
        let dx = r.backward(&g);
        assert_eq!(dx.as_slice(), &[0.0, 10.0, 10.0, 0.0]);
    }

    #[test]
    fn zero_input_blocks_gradient() {
        // Subgradient convention: x = 0 → dx = 0.
        let mut r = ReLU::new();
        let x = tensor_from(1, 1, 1, 1, &[0.0]);
        let _ = r.forward(&x, Mode::Train);
        let dx = r.backward(&tensor_from(1, 1, 1, 1, &[5.0]));
        assert_eq!(dx.as_slice(), &[0.0]);
    }
}
