//! Residual blocks (He et al., the paper's \[13\]).
//!
//! `y = ReLU(main(x) + shortcut(x))` where `shortcut` is the identity or a
//! projection (1×1 conv + BN) when the main path changes shape.

use crate::layer::{KfacEligible, Layer, Mode};
use kfac_tensor::Tensor4;

/// One residual block: a main path, an optional projection shortcut, and
/// the post-addition ReLU.
pub struct ResidualBlock {
    main: Box<dyn Layer>,
    /// `None` means the identity shortcut.
    shortcut: Option<Box<dyn Layer>>,
    /// Mask of the final ReLU from the last training forward; the
    /// buffer is kept between iterations.
    relu_mask: Vec<bool>,
    /// Whether `relu_mask` belongs to a forward not yet back-propagated.
    cached: bool,
}

impl ResidualBlock {
    /// Create from a main path and an optional projection shortcut.
    pub fn new(main: Box<dyn Layer>, shortcut: Option<Box<dyn Layer>>) -> Self {
        ResidualBlock {
            main,
            shortcut,
            relu_mask: Vec::new(),
            cached: false,
        }
    }
}

impl Layer for ResidualBlock {
    fn forward(&mut self, input: &Tensor4, mode: Mode) -> Tensor4 {
        let main_out = self.main.forward(input, mode);
        let short_out = match &mut self.shortcut {
            Some(s) => s.forward(input, mode),
            None => input.clone(),
        };
        assert_eq!(
            main_out.shape(),
            short_out.shape(),
            "residual add shape mismatch: main {:?} vs shortcut {:?}",
            main_out.shape(),
            short_out.shape()
        );

        let (n, c, h, w) = main_out.shape();
        let sum = main_out
            .as_slice()
            .iter()
            .zip(short_out.as_slice())
            .map(|(&m, &s)| m + s);
        if mode == Mode::Train {
            self.relu_mask.clear();
            self.relu_mask.extend(sum.clone().map(|v| v > 0.0));
            self.cached = true;
        }
        let out = sum.map(|v| if v > 0.0 { v } else { 0.0 }).collect();
        Tensor4::from_vec(n, c, h, w, out)
    }

    fn backward(&mut self, grad_output: &Tensor4) -> Tensor4 {
        assert!(self.cached, "backward without training forward");
        self.cached = false;
        let (n, c, h, w) = grad_output.shape();
        // Gradient through the final ReLU.
        let masked = grad_output
            .as_slice()
            .iter()
            .zip(&self.relu_mask)
            .map(|(&gv, &m)| if m { gv } else { 0.0 });
        let g = Tensor4::from_vec(n, c, h, w, masked.collect());

        // The add fans the gradient into both branches.
        let d_main = self.main.backward(&g);
        let d_short = match &mut self.shortcut {
            Some(s) => s.backward(&g),
            None => g,
        };
        assert_eq!(d_main.shape(), d_short.shape());
        let mut dx = d_main;
        for (a, &b) in dx.as_mut_slice().iter_mut().zip(d_short.as_slice()) {
            *a += b;
        }
        dx
    }

    fn output_shape(&self, input: (usize, usize, usize, usize)) -> (usize, usize, usize, usize) {
        self.main.output_shape(input)
    }

    fn visit_params(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut [f32], &mut [f32])) {
        self.main.visit_params(prefix, f);
        if let Some(s) = &mut self.shortcut {
            s.visit_params(prefix, f);
        }
    }

    fn set_capture(&mut self, on: bool) {
        self.main.set_capture(on);
        if let Some(s) = &mut self.shortcut {
            s.set_capture(on);
        }
    }

    fn collect_kfac<'a>(&'a mut self, out: &mut Vec<&'a mut dyn KfacEligible>) {
        self.main.collect_kfac(out);
        if let Some(s) = &mut self.shortcut {
            s.collect_kfac(out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batchnorm::BatchNorm2d;
    use crate::conv::Conv2d;
    use crate::sequential::Sequential;
    use crate::testutil::finite_diff_check;
    use kfac_tensor::Rng64;

    fn basic_block(rng: &mut Rng64, c: usize) -> ResidualBlock {
        let main = Sequential::from_layers(vec![
            Box::new(Conv2d::new("conv1", c, c, 3, 1, 1, false, rng)),
            Box::new(BatchNorm2d::new("bn1", c)),
            Box::new(crate::activation::ReLU::new()),
            Box::new(Conv2d::new("conv2", c, c, 3, 1, 1, false, rng)),
            Box::new(BatchNorm2d::new("bn2", c)),
        ]);
        ResidualBlock::new(Box::new(main), None)
    }

    fn downsample_block(rng: &mut Rng64, c_in: usize, c_out: usize) -> ResidualBlock {
        let main = Sequential::from_layers(vec![
            Box::new(Conv2d::new("conv1", c_in, c_out, 3, 2, 1, false, rng)),
            Box::new(BatchNorm2d::new("bn1", c_out)),
            Box::new(crate::activation::ReLU::new()),
            Box::new(Conv2d::new("conv2", c_out, c_out, 3, 1, 1, false, rng)),
            Box::new(BatchNorm2d::new("bn2", c_out)),
        ]);
        let shortcut = Sequential::from_layers(vec![
            Box::new(Conv2d::new("down", c_in, c_out, 1, 2, 0, false, rng)),
            Box::new(BatchNorm2d::new("bnd", c_out)),
        ]);
        ResidualBlock::new(Box::new(main), Some(Box::new(shortcut)))
    }

    #[test]
    fn identity_block_gradient_check() {
        let mut rng = Rng64::new(1);
        let b = basic_block(&mut rng, 2);
        finite_diff_check(Box::new(b), (2, 2, 4, 4), 6e-2, &mut rng);
    }

    #[test]
    fn projection_block_gradient_check() {
        let mut rng = Rng64::new(2);
        let b = downsample_block(&mut rng, 2, 4);
        finite_diff_check(Box::new(b), (2, 2, 4, 4), 6e-2, &mut rng);
    }

    #[test]
    fn projection_block_changes_shape() {
        let mut rng = Rng64::new(3);
        let b = downsample_block(&mut rng, 2, 4);
        assert_eq!(b.output_shape((1, 2, 8, 8)), (1, 4, 4, 4));
    }

    #[test]
    fn collects_kfac_from_both_paths() {
        let mut rng = Rng64::new(4);
        let mut b = downsample_block(&mut rng, 2, 4);
        let mut v = Vec::new();
        b.collect_kfac(&mut v);
        // conv1, conv2 from main; down from shortcut. BN layers excluded.
        assert_eq!(v.len(), 3);
        assert_eq!(v[2].kfac_name(), "down");
    }
}
