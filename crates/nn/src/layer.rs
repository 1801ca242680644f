//! The layer abstraction: explicit forward/backward with K-FAC capture.
//!
//! The paper's implementation registers PyTorch hooks "to the input and
//! output of each layer to save the activation of the previous layer and
//! gradient with respect to the output of the current layer" (§IV-B).
//! Here capture is a first-class part of the [`Layer`] contract instead:
//! when capture is enabled, K-FAC-eligible layers ([`KfacEligible`]) take
//! what the Kronecker factors `A = āᵀā / m` and `G` need from the
//! bias-augmented input activations `ā` and the output gradients `g`:
//! `Linear` stashes the rows during `forward` / `backward` and multiplies
//! on demand, `Conv2d` sums both Grams block by block inside `backward`.
//!
//! Only `Linear` and `Conv2d` are K-FAC eligible, matching §V: "Our
//! implementation supports K-FAC updates for Linear and Conv2D layers. All
//! unsupported layers are ignored by the K-FAC preconditioner and updated
//! normally using the user's choice of optimizer."

use kfac_tensor::{Matrix, Tensor4};

/// Whether the network is training (batch statistics, capture allowed) or
/// evaluating (running statistics, no capture).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Training pass: BatchNorm uses batch statistics and updates running
    /// averages; K-FAC capture honours the layer's capture flag.
    Train,
    /// Evaluation pass: running statistics, never captures.
    Eval,
}

/// A differentiable network component.
///
/// Layers own their parameters, their parameter gradients, and whatever
/// activations they must cache between `forward` and `backward`. The
/// caller guarantees the usual discipline: `backward` follows the
/// `forward` whose activations are cached, with a gradient tensor shaped
/// like that forward's output.
pub trait Layer: Send {
    /// Compute the layer output. In `Mode::Train` the layer caches what it
    /// needs for the next `backward`.
    fn forward(&mut self, input: &Tensor4, mode: Mode) -> Tensor4;

    /// Back-propagate: accumulate parameter gradients and return the loss
    /// gradient with respect to this layer's input.
    fn backward(&mut self, grad_output: &Tensor4) -> Tensor4;

    /// Output shape for a given input shape (used to assemble models and
    /// to size buffers without running data through).
    fn output_shape(&self, input: (usize, usize, usize, usize)) -> (usize, usize, usize, usize);

    /// Visit every `(name, value, grad)` parameter triple. `prefix` scopes
    /// names so containers produce unique dotted paths
    /// (`"stage1.block0.conv1.weight"`).
    #[allow(clippy::type_complexity)] // the visitor signature IS the API
    fn visit_params(&mut self, prefix: &str, f: &mut dyn FnMut(&str, &mut [f32], &mut [f32]));

    /// Enable or disable K-FAC capture on this layer and all children.
    ///
    /// The trainer turns capture on only for iterations in which the
    /// preconditioner will recompute factors (the `10 × kfac-update-freq`
    /// schedule of §V-C), so non-factor iterations pay no capture cost —
    /// the same optimization the paper's hook management performs.
    fn set_capture(&mut self, on: bool);

    /// Collect mutable handles to the K-FAC-eligible (sub-)layers in
    /// deterministic structural order. Every rank builds an identical
    /// model, so index order is a consistent cross-rank layer identifier
    /// (the paper's layer index `i` in Algorithm 1).
    fn collect_kfac<'a>(&'a mut self, out: &mut Vec<&'a mut dyn KfacEligible>);

    /// Zero every parameter gradient.
    fn zero_grad(&mut self) {
        self.visit_params("", &mut |_, _, g| {
            for v in g.iter_mut() {
                *v = 0.0;
            }
        });
    }

    /// Total parameter count.
    fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params("", &mut |_, v, _| n += v.len());
        n
    }
}

/// A layer the K-FAC preconditioner can handle (Linear, Conv2d).
///
/// The preconditioner drives these methods from Algorithm 1:
/// `compute_factors` (line 6), then after the eigendecompositions are
/// exchanged, `grad_matrix`/`set_grad_matrix` around the local
/// preconditioning (line 20).
pub trait KfacEligible {
    /// Debug identifier.
    fn kfac_name(&self) -> String;

    /// `(dim_A, dim_G)`: the activation-factor dimension (input features,
    /// +1 if the layer has a bias) and gradient-factor dimension (output
    /// features).
    fn factor_dims(&self) -> (usize, usize);

    /// True when both activation and gradient captures from the same
    /// iteration are available.
    fn has_capture(&self) -> bool;

    /// Compute the Kronecker factors `(A, G)` from the captured tensors.
    ///
    /// `A = āᵀ ā / m` over the `m` captured rows (batch for Linear,
    /// batch × spatial positions for Conv2d, per Grosse & Martens'
    /// convolutional factorization) and `G = ĝᵀ ĝ / m` with the
    /// mean-loss scaling folded in.
    ///
    /// # Panics
    /// Panics if `has_capture()` is false.
    fn compute_factors(&self) -> (Matrix, Matrix);

    /// The combined weight(+bias) gradient as the `dim_G × dim_A` matrix
    /// the preconditioner operates on (bias gradient is the final column).
    fn grad_matrix(&self) -> Matrix;

    /// Write a preconditioned gradient back into the layer's parameter
    /// gradients (inverse of [`grad_matrix`](KfacEligible::grad_matrix)).
    fn set_grad_matrix(&mut self, grad: &Matrix);

    /// Parameter count covered by this factor pair (used by the placement
    /// policies and the Table VI imbalance analysis).
    fn kfac_param_count(&self) -> usize {
        let (a, g) = self.factor_dims();
        a * g
    }
}

/// `Linear`'s capture: the row-major activation and output-gradient
/// rows of one iteration, copied as the passes run. (`Conv2d` keeps no
/// rows — it sums the factor Grams inside its backward block loop.)
#[derive(Debug, Default)]
pub struct Capture {
    /// Whether capture is currently enabled.
    pub enabled: bool,
    /// Bias-augmented activation rows `ā` (dim_A features).
    pub a: Option<Matrix>,
    /// Output-gradient rows `ĝ` (dim_G features), mean-loss scaling
    /// already undone (multiplied by batch size).
    pub g: Option<Matrix>,
}

impl Capture {
    /// Both halves captured?
    pub fn complete(&self) -> bool {
        self.a.is_some() && self.g.is_some()
    }

    /// Drop stale captures (called when capture is re-enabled).
    pub fn clear(&mut self) {
        self.a = None;
        self.clear_g();
    }

    /// Drop only the gradient half (a forward pass invalidates the
    /// previous iteration's `g` but keeps its own fresh `a`).
    pub fn clear_g(&mut self) {
        self.g = None;
    }

    /// The factors `(A, G) = (āᵀā/m, ĝᵀĝ/m)` of the captured rows.
    pub fn factors(&self) -> (Matrix, Matrix) {
        // Arena-backed factor scratch, recycled by the preconditioner
        // after the running-average fold (see `Kfac::factor_update_layer`).
        fn factor(rows: &Matrix) -> Matrix {
            let mut f = kfac_tensor::arena::take_matrix(rows.cols(), rows.cols());
            rows.gram_into(&mut f);
            f.scale(1.0 / rows.rows() as f32);
            f
        }
        let a = self.a.as_ref().expect("activation not captured");
        let g = self.g.as_ref().expect("gradient not captured");
        (factor(a), factor(g))
    }

    /// Stash the activation rows, appending a homogeneous `1` column when
    /// `bias` is set (the bias-folding trick of §II-C). Reuses the
    /// previous capture's allocation, so steady-state capture iterations
    /// allocate nothing.
    pub fn store_a_augmented(&mut self, x: &Matrix, bias: bool) {
        let extra = usize::from(bias);
        let mut a = self.a.take().unwrap_or_else(|| Matrix::zeros(0, 0));
        a.reset_for(x.rows(), x.cols() + extra);
        for r in 0..x.rows() {
            let row = a.row_mut(r);
            row[..x.cols()].copy_from_slice(x.row(r));
            if extra == 1 {
                row[x.cols()] = 1.0;
            }
        }
        self.a = Some(a);
    }

    /// Stash the output-gradient rows scaled by `scale` (the batch size,
    /// undoing the mean-loss 1/batch). Reuses the previous capture's
    /// allocation.
    pub fn store_g_scaled(&mut self, gy: &Matrix, scale: f32) {
        let mut g = self.g.take().unwrap_or_else(|| Matrix::zeros(0, 0));
        g.reset_for(gy.rows(), gy.cols());
        for (d, &s) in g.as_mut_slice().iter_mut().zip(gy.as_slice()) {
            *d = s * scale;
        }
        self.g = Some(g);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_lifecycle() {
        let mut c = Capture::default();
        assert!(!c.complete());
        c.a = Some(Matrix::zeros(2, 2));
        assert!(!c.complete());
        c.g = Some(Matrix::zeros(2, 3));
        assert!(c.complete());
        c.clear();
        assert!(!c.complete());
    }
}
