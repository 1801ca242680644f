//! Model profiles: everything the iteration model needs, extracted from
//! the full-size architecture tables of [`kfac_nn::arch`].

use kfac::distribution::{factor_descs, FactorDesc};
use kfac_nn::arch::ModelArch;

/// Cost-model view of one model.
#[derive(Debug, Clone)]
pub struct ModelProfile {
    /// Model name for reports.
    pub name: String,
    /// Total trainable parameters (gradient-allreduce payload).
    pub params: usize,
    /// Per-example forward FLOPs.
    pub fwd_flops: u64,
    /// Per-example factor-accumulation FLOPs (Algorithm 1 line 6).
    pub factor_flops: u64,
    /// K-FAC factor inventory (dims per layer, A and G interleaved).
    pub factors: Vec<FactorDesc>,
    /// Per-layer `(dim_A, dim_G)`.
    pub layer_dims: Vec<(usize, usize)>,
}

impl ModelProfile {
    /// Build from an architecture description.
    pub fn from_arch(arch: &ModelArch) -> Self {
        let layer_dims: Vec<(usize, usize)> = arch.layers.iter().map(|l| l.factor_dims()).collect();
        ModelProfile {
            name: arch.name.clone(),
            params: arch.total_params(),
            fwd_flops: arch.fwd_flops(),
            factor_flops: arch.factor_flops(),
            factors: factor_descs(&layer_dims),
            layer_dims,
        }
    }

    /// Bytes of one full gradient exchange (FP32).
    pub fn grad_bytes(&self) -> u64 {
        4 * self.params as u64
    }

    /// Bytes of one fused factor allreduce: every factor matrix, FP32.
    pub fn factor_bytes(&self) -> u64 {
        self.factors
            .iter()
            .map(|f| 4 * (f.dim * f.dim) as u64)
            .sum()
    }

    /// Bytes of one eigendecomposition allgather (eigenvalues +
    /// eigenvectors per factor, FP32).
    pub fn eig_bytes(&self) -> u64 {
        self.factors
            .iter()
            .map(|f| 4 * (f.dim + f.dim * f.dim) as u64)
            .sum()
    }

    /// Total eigendecomposition FLOPs for one full second-order update
    /// (`9 n³` per factor).
    pub fn eig_flops_total(&self) -> u64 {
        self.factors.iter().map(|f| 9 * f.eig_cost()).sum()
    }
}

/// ResNet-50 reference quantities used as calibration anchors:
/// `(per-example factor FLOPs, K-FAC layer count)`.
pub fn resnet50_reference() -> (f64, usize) {
    let arch = kfac_nn::arch::resnet50();
    (arch.factor_flops() as f64, arch.layers.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfac_nn::arch::{resnet101, resnet152, resnet50};

    #[test]
    fn resnet50_profile_spot_checks() {
        let p = ModelProfile::from_arch(&resnet50());
        assert_eq!(p.name, "ResNet-50");
        assert_eq!(p.factors.len(), 2 * 54);
        assert!(p.params > 25_000_000);
        // Factor payload is hundreds of MB — the reason it is only
        // exchanged every tens of iterations.
        assert!(p.factor_bytes() > 100 << 20, "{}", p.factor_bytes());
    }

    #[test]
    fn costs_increase_with_depth() {
        let p50 = ModelProfile::from_arch(&resnet50());
        let p101 = ModelProfile::from_arch(&resnet101());
        let p152 = ModelProfile::from_arch(&resnet152());
        assert!(p50.factor_flops < p101.factor_flops);
        assert!(p101.factor_flops < p152.factor_flops);
        assert!(p50.eig_flops_total() < p101.eig_flops_total());
        assert!(p101.eig_flops_total() < p152.eig_flops_total());
        assert!(p50.grad_bytes() < p101.grad_bytes());
    }

    #[test]
    fn eig_payload_larger_than_factor_payload() {
        // Eigen wire format carries eigenvalues on top of the square
        // matrix.
        let p = ModelProfile::from_arch(&resnet50());
        assert!(p.eig_bytes() > p.factor_bytes());
    }
}
