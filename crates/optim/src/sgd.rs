//! SGD with momentum and weight decay.
//!
//! The paper's baseline optimizer and the rule that consumes K-FAC's
//! preconditioned gradients (Eq. 1 plus momentum 0.9, §VI-C1). The update
//! matches PyTorch's `torch.optim.SGD`:
//!
//! ```text
//! g ← g + wd·w
//! v ← μ·v + g
//! w ← w − lr · v
//! ```

use crate::optimizer::Optimizer;
use kfac_nn::Layer;
use std::collections::HashMap;

/// Momentum SGD.
pub struct Sgd {
    momentum: f32,
    weight_decay: f32,
    velocity: HashMap<String, Vec<f32>>,
}

impl Sgd {
    /// Create with the given momentum and weight decay.
    pub fn new(momentum: f32, weight_decay: f32) -> Self {
        Sgd {
            momentum,
            weight_decay,
            velocity: HashMap::new(),
        }
    }

    /// The paper's configuration: momentum 0.9 (§VI-C1), weight decay as
    /// given.
    pub fn paper_default(weight_decay: f32) -> Self {
        Sgd::new(0.9, weight_decay)
    }

    /// Snapshot the momentum buffers as `(param_name, velocity)` pairs,
    /// sorted by name so the encoding is deterministic. Together with
    /// the model parameters this is the optimizer's complete state —
    /// what a training checkpoint must carry to resume bitwise.
    pub fn export_state(&self) -> Vec<(String, Vec<f32>)> {
        let mut out: Vec<(String, Vec<f32>)> = self
            .velocity
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Replace the momentum buffers with a snapshot captured by
    /// [`Sgd::export_state`]. Buffers for parameters not present in the
    /// snapshot start back at zero (exactly as on first use).
    pub fn import_state(&mut self, state: Vec<(String, Vec<f32>)>) {
        self.velocity = state.into_iter().collect();
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, model: &mut dyn Layer, lr: f32) {
        let momentum = self.momentum;
        let weight_decay = self.weight_decay;
        let velocity = &mut self.velocity;

        model.visit_params("", &mut |name, w, g| {
            let v = velocity
                .entry(name.to_string())
                .or_insert_with(|| vec![0.0; w.len()]);
            debug_assert_eq!(v.len(), w.len());
            for i in 0..w.len() {
                let grad = g[i] + weight_decay * w[i];
                v[i] = momentum * v[i] + grad;
                w[i] -= lr * v[i];
            }
        });
    }

    fn name(&self) -> &'static str {
        "SGD"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::testutil::Quadratic;

    #[test]
    fn single_step_no_momentum_is_gradient_descent() {
        let mut q = Quadratic::new(1);
        let _ = q.loss_and_grad();
        // Snapshot weights and grads.
        let mut w0 = Vec::new();
        let mut g0 = Vec::new();
        q.model.visit_params("", &mut |_, w, g| {
            w0.extend_from_slice(w);
            g0.extend_from_slice(g);
        });
        let mut opt = Sgd::new(0.0, 0.0);
        opt.step(&mut q.model, 0.1);
        let mut w1 = Vec::new();
        q.model
            .visit_params("", &mut |_, w, _| w1.extend_from_slice(w));
        for ((a, b), g) in w0.iter().zip(&w1).zip(&g0) {
            assert!((b - (a - 0.1 * g)).abs() < 1e-6);
        }
    }

    #[test]
    fn converges_on_quadratic() {
        let mut q = Quadratic::new(2);
        let mut opt = Sgd::new(0.9, 0.0);
        let first = q.loss_and_grad();
        for _ in 0..200 {
            let _ = q.loss_and_grad();
            opt.step(&mut q.model, 0.02);
        }
        let last = q.loss_and_grad();
        assert!(last < 0.01 * first, "loss {first} → {last}");
    }

    #[test]
    fn momentum_accelerates() {
        let run = |momentum: f32| {
            let mut q = Quadratic::new(3);
            let mut opt = Sgd::new(momentum, 0.0);
            for _ in 0..100 {
                let _ = q.loss_and_grad();
                opt.step(&mut q.model, 0.005);
            }
            q.loss_and_grad()
        };
        assert!(run(0.9) < run(0.0), "momentum should speed up convergence");
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut q = Quadratic::new(4);
        // Zero gradient contribution: loss_and_grad then zero them.
        q.model.zero_grad();
        let norm_before: f32 = {
            let mut s = 0.0;
            q.model
                .visit_params("", &mut |_, w, _| s += w.iter().map(|x| x * x).sum::<f32>());
            s
        };
        let mut opt = Sgd::new(0.0, 0.1);
        opt.step(&mut q.model, 0.5);
        let norm_after: f32 = {
            let mut s = 0.0;
            q.model
                .visit_params("", &mut |_, w, _| s += w.iter().map(|x| x * x).sum::<f32>());
            s
        };
        assert!(norm_after < norm_before);
    }
}
