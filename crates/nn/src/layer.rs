//! The layer abstraction: explicit forward/backward with K-FAC capture.
//!
//! The paper's implementation registers PyTorch hooks "to the input and
//! output of each layer to save the activation of the previous layer and
//! gradient with respect to the output of the current layer" (§IV-B).
//! Here capture is a first-class part of the [`Layer`] contract instead:
//! when capture is enabled, K-FAC-eligible layers ([`KfacEligible`]) take
//! what the Kronecker factors `A = āᵀā / m` and `G` need from the
//! bias-augmented input activations `ā` and the output gradients `g`:
//! each sums both Grams inside its capturing `backward` into a
//! [`FactorSums`] it owns — `Conv2d` block by block, `Linear` in one
//! product each.
//!
//! Only `Linear` and `Conv2d` are K-FAC eligible, matching §V: "Our
//! implementation supports K-FAC updates for Linear and Conv2D layers. All
//! unsupported layers are ignored by the K-FAC preconditioner and updated
//! normally using the user's choice of optimizer."

use kfac_tensor::gemm::{gemm_upper_into, mirror_upper_to_lower, View};
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
/// The preconditioner drives these methods from Algorithm 1: it folds
/// [`factor_sums`](KfacEligible::factor_sums) into its running averages
/// (lines 4–7), then after the eigendecompositions are exchanged,
/// `grad_matrix`/`set_grad_matrix` around the local preconditioning
/// (line 20).
pub trait KfacEligible {
    /// Debug identifier.
    fn kfac_name(&self) -> String;

    /// `(dim_A, dim_G)`: the activation-factor dimension (input features,
    /// +1 if the layer has a bias) and gradient-factor dimension (output
    /// features).
    fn factor_dims(&self) -> (usize, usize);

    /// The capture of the last capturing forward + backward: both factor
    /// Grams, upper triangle only and not yet scaled by `1/m`.
    fn factor_sums(&self) -> &FactorSums;

    /// True when both activation and gradient captures from the same
    /// iteration are available.
    fn has_capture(&self) -> bool {
        self.factor_sums().rows() > 0
    }

    /// The Kronecker factors `(A, G)` of the capture as full symmetric
    /// matrices: `A = āᵀ ā / m` over the `m` captured rows (batch for
    /// Linear, batch × spatial positions for Conv2d, per Grosse &
    /// Martens' convolutional factorization) and `G = ĝᵀ ĝ / m` with the
    /// mean-loss scaling folded in. The preconditioner folds the sums
    /// directly and never calls this; it is for benchmarks and tests.
    ///
    /// # Panics
    /// Panics if `has_capture()` is false.
    fn compute_factors(&self) -> (Matrix, Matrix) {
        assert!(
            self.has_capture(),
            "{}: factors not captured",
            self.kfac_name()
        );
        let sums = self.factor_sums();
        let inv_m = 1.0 / sums.rows() as f32;
        let factor = |sum: &Matrix| {
            let n = sum.rows();
            let mut f = Matrix::zeros(n, n);
            for i in 0..n {
                for (d, &s) in f.row_mut(i)[i..].iter_mut().zip(&sum.row(i)[i..]) {
                    *d = s * inv_m;
                }
            }
            mirror_upper_to_lower(f.as_mut_slice(), n);
            f
        };
        (factor(sums.a()), factor(sums.g()))
    }

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

/// The K-FAC capture of an eligible layer: the two factor Grams
/// `Σ āāᵀ` and `Σ ĝĝᵀ` over the `m` rows of one capturing forward +
/// backward, summed by the layer's `backward` into storage it owns. Only
/// entries on and above the diagonal are defined; the sums are neither
/// mirrored nor scaled. They stay the layer's until the next capturing
/// `forward` — the preconditioner only reads them, after the trainer's
/// health gate has seen the batch.
#[derive(Debug)]
pub struct FactorSums {
    /// Whether capture is currently enabled.
    pub enabled: bool,
    a: Matrix,
    g: Matrix,
    /// Rows summed, the `m` of both factors; 0 from a capturing `forward`
    /// until its `backward` completes.
    rows: usize,
}

impl Default for FactorSums {
    fn default() -> Self {
        FactorSums {
            enabled: false,
            a: Matrix::zeros(0, 0),
            g: Matrix::zeros(0, 0),
            rows: 0,
        }
    }
}

impl FactorSums {
    /// Drop the capture: a capturing `forward` replaces it, and
    /// re-enabling capture starts afresh.
    pub fn restart(&mut self) {
        self.rows = 0;
    }

    /// Add one piece of the reduction to both sums, `a · aᵀ` and
    /// `g · gᵀ`, each operand given as a view and its transpose. `first`
    /// stores into sums resized to the operands' rows; later pieces add.
    /// Pieces that are multiples of `KC` deep, fed in ascending order,
    /// leave the bits of one Gram over the whole reduction
    /// ([`gemm_upper_into`]).
    pub fn add(&mut self, a: [View<'_>; 2], g: [View<'_>; 2], first: bool) {
        for (sum, [x, xt]) in [(&mut self.g, g), (&mut self.a, a)] {
            if first {
                sum.reset_for(x.rows(), x.rows());
            }
            gemm_upper_into(x, xt, sum.as_mut_slice(), first);
        }
    }

    /// The backward pass is done: the sums cover `rows` rows.
    pub fn finish(&mut self, rows: usize) {
        self.rows = rows;
    }

    /// The `m` the sums cover; 0 when there is no complete capture.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// `Σ āāᵀ`, upper triangle.
    pub fn a(&self) -> &Matrix {
        &self.a
    }

    /// `Σ ĝĝᵀ`, upper triangle.
    pub fn g(&self) -> &Matrix {
        &self.g
    }
}
