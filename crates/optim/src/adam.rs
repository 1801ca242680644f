//! Adam (Kingma & Ba) with bias correction.
//!
//! Included because the paper's design goal is a preconditioner usable
//! "in-place with any standard optimizer, such as Adam, LARS, or SGD"
//! (§IV); the integration tests exercise K-FAC + Adam to verify the claim.

use crate::optimizer::Optimizer;
use kfac_nn::Layer;
use std::collections::HashMap;

/// First- and second-moment decay rates and the denominator's `ε`.
const BETA1: f32 = 0.9;
const BETA2: f32 = 0.999;
const EPS: f32 = 1e-8;

/// Adam optimizer.
pub struct Adam {
    weight_decay: f32,
    t: u64,
    m: HashMap<String, Vec<f32>>,
    v: HashMap<String, Vec<f32>>,
}

impl Adam {
    /// Create with standard defaults `β₁ = 0.9`, `β₂ = 0.999`, `ε = 1e-8`.
    pub fn new(weight_decay: f32) -> Self {
        Adam {
            weight_decay,
            t: 0,
            m: HashMap::new(),
            v: HashMap::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, model: &mut dyn Layer, lr: f32) {
        self.t += 1;
        let (b1, b2, eps, wd, t) = (BETA1, BETA2, EPS, self.weight_decay, self.t);
        let bc1 = 1.0 - b1.powi(t as i32);
        let bc2 = 1.0 - b2.powi(t as i32);
        let m_map = &mut self.m;
        let v_map = &mut self.v;

        model.visit_params("", &mut |name, w, g| {
            let m = m_map
                .entry(name.to_string())
                .or_insert_with(|| vec![0.0; w.len()]);
            let v = v_map
                .entry(name.to_string())
                .or_insert_with(|| vec![0.0; w.len()]);
            for i in 0..w.len() {
                let grad = g[i] + wd * w[i];
                m[i] = b1 * m[i] + (1.0 - b1) * grad;
                v[i] = b2 * v[i] + (1.0 - b2) * grad * grad;
                let mhat = m[i] / bc1;
                let vhat = v[i] / bc2;
                w[i] -= lr * mhat / (vhat.sqrt() + eps);
            }
        });
    }

    fn name(&self) -> &'static str {
        "Adam"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::testutil::Quadratic;

    #[test]
    fn converges_on_quadratic() {
        let mut q = Quadratic::new(7);
        let mut opt = Adam::new(0.0);
        let first = q.loss_and_grad();
        for _ in 0..300 {
            let _ = q.loss_and_grad();
            opt.step(&mut q.model, 0.05);
        }
        let last = q.loss_and_grad();
        assert!(last < 0.01 * first, "loss {first} → {last}");
    }

    #[test]
    fn first_step_size_is_about_lr() {
        // With bias correction, |Δw| ≈ lr on the first step for any
        // nonzero gradient.
        let mut q = Quadratic::new(8);
        let _ = q.loss_and_grad();
        let mut w0 = Vec::new();
        let mut g0 = Vec::new();
        q.model.visit_params("", &mut |_, w, g| {
            w0.extend_from_slice(w);
            g0.extend_from_slice(g);
        });
        let mut opt = Adam::new(0.0);
        opt.step(&mut q.model, 0.01);
        let mut w1 = Vec::new();
        q.model
            .visit_params("", &mut |_, w, _| w1.extend_from_slice(w));
        for ((a, b), g) in w0.iter().zip(&w1).zip(&g0) {
            if g.abs() > 1e-4 {
                let step = (a - b).abs();
                assert!((step - 0.01).abs() < 1e-3, "step {step}");
            }
        }
    }

    #[test]
    fn deterministic() {
        let run = || {
            let mut q = Quadratic::new(9);
            let mut opt = Adam::new(0.01);
            for _ in 0..10 {
                let _ = q.loss_and_grad();
                opt.step(&mut q.model, 0.02);
            }
            let mut w = Vec::new();
            q.model
                .visit_params("", &mut |_, v, _| w.extend_from_slice(v));
            w
        };
        assert_eq!(run(), run());
    }
}
