//! Full-size architecture dimension tables (no weights).
//!
//! The scaling experiments (Figures 7–10, Tables III–VI) depend on the
//! *true* per-layer dimensions of ResNet-50/101/152 on 224×224 ImageNet
//! inputs: Kronecker-factor sizes determine eigendecomposition cost and
//! the work-placement imbalance, parameter counts determine gradient
//! traffic, and FLOP counts determine compute time. This module describes
//! those architectures as pure metadata — dimension arithmetic only, no
//! tensors — so the `kfac-cluster` simulator can price a 256-GPU run that
//! could never execute here.

/// One weighted layer of a full-size model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LayerSpec {
    /// Convolution: `c_in → c_out`, square kernel `k`, producing an
    /// `h_out × w_out` map. ResNet convolutions carry no bias.
    Conv {
        /// Layer path, e.g. `"s2.b0.conv2"`.
        name: String,
        /// Input channels.
        c_in: usize,
        /// Output channels.
        c_out: usize,
        /// Square kernel size.
        k: usize,
        /// Output height.
        h_out: usize,
        /// Output width.
        w_out: usize,
    },
    /// Fully-connected layer with bias.
    Linear {
        /// Layer path (e.g. `"fc"`).
        name: String,
        /// Input features.
        in_features: usize,
        /// Output features.
        out_features: usize,
    },
}

impl LayerSpec {
    /// Layer path.
    pub fn name(&self) -> &str {
        match self {
            LayerSpec::Conv { name, .. } => name,
            LayerSpec::Linear { name, .. } => name,
        }
    }

    /// Kronecker-factor dimensions `(dim_A, dim_G)` — identical to the
    /// runnable layers' [`KfacEligible::factor_dims`]
    /// (crate::layer::KfacEligible::factor_dims).
    pub fn factor_dims(&self) -> (usize, usize) {
        match self {
            LayerSpec::Conv { c_in, c_out, k, .. } => (c_in * k * k, *c_out),
            LayerSpec::Linear {
                in_features,
                out_features,
                ..
            } => (in_features + 1, *out_features),
        }
    }

    /// Trainable parameter count.
    pub fn params(&self) -> usize {
        match self {
            LayerSpec::Conv { c_in, c_out, k, .. } => c_in * c_out * k * k,
            LayerSpec::Linear {
                in_features,
                out_features,
                ..
            } => in_features * out_features + out_features,
        }
    }

    /// Spatial positions of the output map (1 for Linear) — the number of
    /// im2col rows contributed per example, which drives factor-computation
    /// cost.
    pub fn spatial_positions(&self) -> usize {
        match self {
            LayerSpec::Conv { h_out, w_out, .. } => h_out * w_out,
            LayerSpec::Linear { .. } => 1,
        }
    }

    /// Forward multiply-accumulate FLOPs per example (×2 for mul+add).
    pub fn fwd_flops(&self) -> u64 {
        match self {
            LayerSpec::Conv {
                c_in,
                c_out,
                k,
                h_out,
                w_out,
                ..
            } => 2 * (c_in * c_out * k * k * h_out * w_out) as u64,
            LayerSpec::Linear {
                in_features,
                out_features,
                ..
            } => 2 * (in_features * out_features) as u64,
        }
    }

    /// FLOPs per example to accumulate both Kronecker factors
    /// (`A += patchᵀpatch`, `G += gᵀg` over the spatial positions).
    pub fn factor_flops(&self) -> u64 {
        let (da, dg) = self.factor_dims();
        let rows = self.spatial_positions() as u64;
        rows * (da * da + dg * dg) as u64
    }

    /// FLOPs to eigendecompose both factors once (Jacobi/QR-class `c·n³`
    /// with the conventional dense-eig constant c ≈ 9).
    pub fn eig_flops(&self) -> u64 {
        let (da, dg) = self.factor_dims();
        9 * ((da * da * da) as u64 + (dg * dg * dg) as u64)
    }
}

/// Full-size model description for the simulator.
#[derive(Debug, Clone)]
pub struct ModelArch {
    /// Model name (`"ResNet-50"` …).
    pub name: String,
    /// Every K-FAC-eligible weighted layer, in structural order.
    pub layers: Vec<LayerSpec>,
    /// Parameters in non-K-FAC layers (BatchNorm γ/β), included in
    /// gradient-traffic accounting.
    pub bn_params: usize,
}

impl ModelArch {
    /// Total trainable parameters.
    pub fn total_params(&self) -> usize {
        self.layers.iter().map(|l| l.params()).sum::<usize>() + self.bn_params
    }

    /// Per-example forward FLOPs.
    pub fn fwd_flops(&self) -> u64 {
        self.layers.iter().map(|l| l.fwd_flops()).sum()
    }

    /// Per-example factor-accumulation FLOPs (paper Fig. 10's quantity).
    pub fn factor_flops(&self) -> u64 {
        self.layers.iter().map(|l| l.factor_flops()).sum()
    }
}

/// Build a full-size bottleneck ResNet arch on 224×224 inputs.
fn bottleneck_arch(name: &str, blocks: [usize; 4]) -> ModelArch {
    let mut layers = Vec::new();
    let mut bn_params = 0usize;
    let mut bn = |c: usize| bn_params += 2 * c;

    // Stem: 7×7/2 conv to 64ch @112, then 3×3/2 max-pool to 56.
    layers.push(LayerSpec::Conv {
        name: "stem.conv".into(),
        c_in: 3,
        c_out: 64,
        k: 7,
        h_out: 112,
        w_out: 112,
    });
    bn(64);

    let mut c_in = 64usize;
    let mut spatial = 56usize;
    for (si, &nblocks) in blocks.iter().enumerate() {
        let c_mid = 64 << si;
        let c_out = c_mid * 4;
        for bi in 0..nblocks {
            let stride = if si > 0 && bi == 0 { 2 } else { 1 };
            let out_sp = spatial / stride;
            let p = format!("s{si}.b{bi}");
            layers.push(LayerSpec::Conv {
                name: format!("{p}.conv1"),
                c_in,
                c_out: c_mid,
                k: 1,
                h_out: spatial,
                w_out: spatial,
            });
            bn(c_mid);
            layers.push(LayerSpec::Conv {
                name: format!("{p}.conv2"),
                c_in: c_mid,
                c_out: c_mid,
                k: 3,
                h_out: out_sp,
                w_out: out_sp,
            });
            bn(c_mid);
            layers.push(LayerSpec::Conv {
                name: format!("{p}.conv3"),
                c_in: c_mid,
                c_out,
                k: 1,
                h_out: out_sp,
                w_out: out_sp,
            });
            bn(c_out);
            if stride != 1 || c_in != c_out {
                layers.push(LayerSpec::Conv {
                    name: format!("{p}.down"),
                    c_in,
                    c_out,
                    k: 1,
                    h_out: out_sp,
                    w_out: out_sp,
                });
                bn(c_out);
            }
            c_in = c_out;
            spatial = out_sp;
        }
    }

    layers.push(LayerSpec::Linear {
        name: "fc".into(),
        in_features: 2048,
        out_features: 1000,
    });

    ModelArch {
        name: name.into(),
        layers,
        bn_params,
    }
}

/// Full-size ResNet-50 on ImageNet (224×224, 1000 classes).
pub fn resnet50() -> ModelArch {
    bottleneck_arch("ResNet-50", [3, 4, 6, 3])
}

/// Full-size ResNet-101.
pub fn resnet101() -> ModelArch {
    bottleneck_arch("ResNet-101", [3, 4, 23, 3])
}

/// Full-size ResNet-152.
pub fn resnet152() -> ModelArch {
    bottleneck_arch("ResNet-152", [3, 8, 36, 3])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet50_param_count_matches_reference() {
        // torchvision resnet50: 25,557,032 parameters.
        let m = resnet50();
        let p = m.total_params();
        assert!(
            (25_000_000..26_100_000).contains(&p),
            "ResNet-50 params {p} out of expected range"
        );
    }

    #[test]
    fn resnet101_and_152_reference_counts() {
        // torchvision: 44,549,160 and 60,192,808.
        let p101 = resnet101().total_params();
        let p152 = resnet152().total_params();
        assert!((44_000_000..45_200_000).contains(&p101), "{p101}");
        assert!((59_500_000..61_000_000).contains(&p152), "{p152}");
    }

    #[test]
    fn resnet50_flops_reference() {
        // ResNet-50 is ~4.1 GMACs per 224×224 image → ~8.2 GFLOPs at
        // 2 FLOPs per MAC.
        let f = resnet50().fwd_flops();
        assert!(
            (7_400_000_000..9_000_000_000u64).contains(&f),
            "ResNet-50 fwd FLOPs {f}"
        );
    }

    #[test]
    fn layer_counts() {
        assert_eq!(resnet50().layers.len(), 1 + 48 + 4 + 1);
        assert_eq!(resnet101().layers.len(), 1 + 99 + 4 + 1);
        assert_eq!(resnet152().layers.len(), 1 + 150 + 4 + 1);
    }

    #[test]
    fn factor_dims_spot_checks() {
        let m = resnet50();
        // Stem: A = 3·7·7 = 147, G = 64.
        assert_eq!(m.layers[0].factor_dims(), (147, 64));
        // fc: bias-augmented 2049 × 1000.
        assert_eq!(m.layers.last().unwrap().factor_dims(), (2049, 1000));
        // Largest conv factor: s3 3×3 conv has A = 512·9 = 4608.
        let max_a = m.layers.iter().map(|l| l.factor_dims().0).max().unwrap();
        assert_eq!(max_a, 4608);
    }

    #[test]
    fn factor_flops_grow_superlinearly_with_depth() {
        // Fig. 10's observation: factor-computation work grows faster than
        // parameter count across ResNet-50 → 101 → 152.
        let f50 = resnet50().factor_flops() as f64;
        let f101 = resnet101().factor_flops() as f64;
        let f152 = resnet152().factor_flops() as f64;
        assert!(f50 < f101 && f101 < f152);
        let p50 = resnet50().total_params() as f64;
        let p152 = resnet152().total_params() as f64;
        assert!(
            f152 / f50 > 0.9 * (p152 / p50),
            "factor work should grow at least about as fast as params"
        );
    }

    #[test]
    fn eig_flops_dominated_by_biggest_factor() {
        let m = resnet50();
        let total: u64 = m.layers.iter().map(|l| l.eig_flops()).sum();
        let biggest = m.layers.iter().map(|l| l.eig_flops()).max().unwrap();
        // The 4608-dim factors dwarf everything else — the root cause of
        // the Table VI imbalance.
        assert!(biggest as f64 / total as f64 > 0.2);
    }
}
