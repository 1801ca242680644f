//! Weight initialization schemes.
//!
//! ResNet training in the paper uses PyTorch defaults: Kaiming/He-normal
//! for convolution kernels and uniform fan-in bounds for linear layers.
//! These helpers reproduce those schemes on top of [`crate::Rng64`].

use crate::rng::Rng64;

/// Fill with samples from `N(0, std²)`.
pub fn fill_normal(xs: &mut [f32], mean: f32, std: f32, rng: &mut Rng64) {
    for x in xs {
        *x = rng.normal(mean, std);
    }
}

/// Fill with samples from `U[lo, hi)`.
pub fn fill_uniform(xs: &mut [f32], lo: f32, hi: f32, rng: &mut Rng64) {
    for x in xs {
        *x = rng.uniform_range(lo, hi);
    }
}

/// Kaiming/He normal initialization for ReLU networks:
/// `std = sqrt(2 / fan_in)` (He et al. 2015, the ResNet paper's scheme).
pub fn kaiming_normal(xs: &mut [f32], fan_in: usize, rng: &mut Rng64) {
    assert!(fan_in > 0, "fan_in must be positive");
    let std = (2.0 / fan_in as f32).sqrt();
    fill_normal(xs, 0.0, std, rng);
}

/// PyTorch's `Linear` default: `U[−1/√fan_in, 1/√fan_in)` for weights and
/// biases alike.
pub fn linear_default(xs: &mut [f32], fan_in: usize, rng: &mut Rng64) {
    assert!(fan_in > 0);
    let bound = 1.0 / (fan_in as f32).sqrt();
    fill_uniform(xs, -bound, bound, rng);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(xs: &[f32]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().map(|&x| x as f64).sum::<f64>() / n;
        let var = xs
            .iter()
            .map(|&x| (x as f64 - mean) * (x as f64 - mean))
            .sum::<f64>()
            / n;
        (mean, var)
    }

    #[test]
    fn kaiming_std_matches_fan_in() {
        let mut rng = Rng64::new(1);
        let mut xs = vec![0.0f32; 100_000];
        kaiming_normal(&mut xs, 50, &mut rng);
        let (mean, var) = stats(&xs);
        assert!(mean.abs() < 0.005);
        assert!((var - 2.0 / 50.0).abs() < 0.002, "var {}", var);
    }

    #[test]
    fn linear_default_bounds_and_spread() {
        let mut rng = Rng64::new(3);
        let mut xs = vec![0.0f32; 10_000];
        linear_default(&mut xs, 16, &mut rng);
        let b = 0.25f32;
        assert!(xs.iter().all(|&x| x >= -b && x < b));
        let (_, var) = stats(&xs);
        // Uniform variance = (2b)²/12.
        assert!((var - (0.5f64 * 0.5 / 12.0)).abs() < 0.002);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = vec![0.0f32; 64];
        let mut b = vec![0.0f32; 64];
        kaiming_normal(&mut a, 8, &mut Rng64::new(42));
        kaiming_normal(&mut b, 8, &mut Rng64::new(42));
        assert_eq!(a, b);
    }
}
