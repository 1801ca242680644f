//! Kernel benchmark: the packed GEMM engine on the shapes training runs.
//!
//! `xp bench-kernels` times every GEMM/Gram shape the ResNet-32 CIFAR
//! pipeline actually runs (convolution forward, weight-gradient and
//! input-gradient products, Kronecker-factor Grams) plus square 256–1024
//! stress shapes, and then one whole `Conv2d` forward + backward per
//! ResNet-32 stage beside the three bare GEMMs it is made of, plain and as
//! a K-FAC factor iteration runs it (capturing, then `compute_factors`)
//! beside those GEMMs plus the two bare factor Grams, and the patch
//! lowering (`build_patches` + `scatter_patches`) over the same layer.
//! Results go to stdout as a table and, with `--json`, to
//! `BENCH_kernels.json`; the CI `perf` job gates on absolute statements
//! about that file (see [`to_json`]).

use kfac_nn::lowering::{build_patches, scatter_patches, Geometry, BLOCK};
use kfac_nn::{Conv2d, KfacEligible, Layer, Mode};
use kfac_tensor::gemm::{packed_len, Side};
use kfac_tensor::{Matrix, Rng64, Tensor4};
use std::time::Instant;

/// What product a benchmark case runs.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// `C[m×n] = A[m×k] · B[k×n]`
    Matmul,
    /// `C[m×n] = A[k×m]ᵀ · B[k×n]` (weight-gradient shape)
    MatmulTn,
    /// `C[m×n] = A[m×k] · B[n×k]ᵀ` (im2col forward shape)
    MatmulNt,
    /// `G[n×n] = X[k×n]ᵀ · X[k×n]` (activation Kronecker factor)
    Gram,
    /// `G[m×m] = X[m×k] · X[m×k]ᵀ` (gradient Kronecker factor)
    GramNt,
}

/// One benchmarked shape and its timing.
pub struct BenchCase {
    pub name: &'static str,
    pub kind: Kind,
    pub m: usize,
    pub k: usize,
    pub n: usize,
    /// Multiply-add count per iteration (2 flops each).
    pub madds: u64,
    /// ns/iter.
    pub packed_ns: f64,
}

impl BenchCase {
    pub fn packed_gflops(&self) -> f64 {
        2.0 * self.madds as f64 / self.packed_ns
    }
}

/// The benchmark suite: ResNet-32/CIFAR layer shapes (batch 8) and the
/// square 256–1024 shapes the acceptance criteria are stated over.
///
/// ResNet-32 shape notes — a 3×3 conv at width `c → oc` over a
/// `b × s × s` feature map is, as one whole-batch GEMM, the product
/// `(b·s² × 9c) · (oc × 9c)ᵀ`; its weight gradient is `(b·s² × oc)ᵀ ·
/// (b·s² × 9c)` and its input gradient `(b·s² × oc) · (oc × 9c)`; its
/// activation factor is the Gram of the bias-augmented patch matrix
/// `(b·s² × 9c+1)`, its gradient factor the Gram of `(b·s² × oc)` rows.
pub fn cases() -> Vec<(&'static str, Kind, usize, usize, usize)> {
    vec![
        // Square stress shapes (the CI gate's absolute GFLOP/s rows).
        ("square_gemm_256", Kind::Matmul, 256, 256, 256),
        ("square_gemm_512", Kind::Matmul, 512, 512, 512),
        ("square_gemm_1024", Kind::Matmul, 1024, 1024, 1024),
        ("square_gram_256", Kind::Gram, 0, 256, 256),
        ("square_gram_512", Kind::Gram, 0, 512, 512),
        ("square_gram_1024", Kind::Gram, 0, 1024, 1024),
        // ResNet-32 stage convolutions, forward (patches · weightᵀ).
        ("rn32_conv_in", Kind::MatmulNt, 8192, 27, 16),
        ("rn32_conv_s1", Kind::MatmulNt, 8192, 144, 16),
        ("rn32_conv_s2", Kind::MatmulNt, 2048, 288, 32),
        ("rn32_conv_s3", Kind::MatmulNt, 512, 576, 64),
        // Stage 3 over 4×4 planes (16×16 images, as `stepbench` trains),
        // and the stage-2 downsampling conv (16 → 32 channels, stride 2).
        ("rn32_conv_s3x4", Kind::MatmulNt, 128, 576, 64),
        ("rn32_conv_d2", Kind::MatmulNt, 2048, 144, 32),
        // Weight gradients, dW = gᵀ · patches, and input gradients,
        // dP = g · weight: with the forward rows, the three products of
        // each [`LAYER_CASES`] entry.
        ("rn32_dw_s1", Kind::MatmulTn, 16, 8192, 144),
        ("rn32_dw_s2", Kind::MatmulTn, 32, 2048, 288),
        ("rn32_dw_s3", Kind::MatmulTn, 64, 512, 576),
        ("rn32_dw_s3x4", Kind::MatmulTn, 64, 128, 576),
        ("rn32_dw_d2", Kind::MatmulTn, 32, 2048, 144),
        ("rn32_dx_s1", Kind::Matmul, 8192, 16, 144),
        ("rn32_dx_s2", Kind::Matmul, 2048, 32, 288),
        ("rn32_dx_s3", Kind::Matmul, 512, 64, 576),
        ("rn32_dx_s3x4", Kind::Matmul, 128, 64, 576),
        ("rn32_dx_d2", Kind::Matmul, 2048, 32, 144),
        // Kronecker factors: activation Grams (bias-augmented patches)
        // and a gradient Gram.
        ("rn32_afactor_s2", Kind::Gram, 0, 2048, 289),
        ("rn32_afactor_s3", Kind::Gram, 0, 512, 577),
        ("rn32_gfactor_s3", Kind::GramNt, 512, 64, 0),
    ]
}

/// One whole convolution layer, forward + backward, beside the bare
/// GEMMs of the same run: what the lowering around the products costs.
pub struct LayerCase {
    pub name: &'static str,
    /// `Conv2d(channels → out_channels, 3×3, stride, pad 1)` …
    pub channels: usize,
    pub out_channels: usize,
    pub stride: usize,
    /// … over a `batch × channels × side × side` input.
    pub batch: usize,
    pub side: usize,
    /// Training forward + backward of the layer, ns per iteration.
    pub layer_ns: f64,
    /// The layer's forward, weight-gradient and input-gradient products
    /// as three bare GEMMs of its `rn32_{conv,dw,dx}_<stage>` row shapes.
    pub gemm_ns: f64,
    /// A factor iteration of the layer: forward, capturing backward (the
    /// factor Grams summed block by block) and `compute_factors`.
    pub capture_ns: f64,
    /// The two Grams as single calls over whole-batch rows: the A factor
    /// (`positions × 9·channels`) plus the G factor (`positions ×
    /// out_channels`).
    pub gram_ns: f64,
    /// The layer's patch lowering alone, block by block as forward and
    /// backward run it: `build_patches` …
    pub build_ns: f64,
    /// … and `scatter_patches`.
    pub scatter_ns: f64,
    /// Layer time over the time of its bare GEMMs (1.0 = free lowering);
    /// the CI `perf` job fails above 1.8.
    pub over_gemm: f64,
    /// Factor-iteration time over its three bare GEMMs plus its two bare
    /// Grams (1.0 = free lowering *and* free block-wise factor sums); the
    /// CI `perf` job fails above 2.0.
    pub capture_over_gemm: f64,
}

impl LayerCase {
    /// Multiply-adds of the three products.
    pub fn madds(&self) -> u64 {
        let out_side = self.side / self.stride;
        let positions = self.batch * out_side * out_side;
        3 * (positions * 9 * self.channels * self.out_channels) as u64
    }
    /// Effective rate of the whole layer over its GEMM FLOPs.
    pub fn gflops(&self) -> f64 {
        2.0 * self.madds() as f64 / self.layer_ns
    }
}

/// The ResNet-32 stage layers (batch 8, as the GEMM rows): row name, the
/// suffix of its GEMM rows, input and output channels, stride, input
/// feature-map side. `s3x4` is stage 3 over the 4×4 planes of 16×16
/// images, where the lowering weighs most against the products; `d2` the
/// stage-2 downsampling conv, the strided lowering.
pub const LAYER_CASES: [(&str, &str, usize, usize, usize, usize); 5] = [
    ("rn32_layer_s1", "s1", 16, 16, 1, 32),
    ("rn32_layer_s2", "s2", 32, 32, 1, 16),
    ("rn32_layer_s3", "s3", 64, 64, 1, 8),
    ("rn32_layer_s3x4", "s3x4", 64, 64, 1, 4),
    ("rn32_layer_d2", "d2", 16, 32, 2, 32),
];

/// Paired repetitions per conv layer: each times the layer, its three
/// bare GEMMs, the factor iteration and its two bare Grams back to back,
/// so a ratio divides timings taken seconds apart, not a minute apart;
/// every reported value is the median over the reps.
const LAYER_REPS: usize = 5;

/// Time one `Conv2d` forward + backward per stage, plain and capturing,
/// beside its bare GEMMs and Grams in paired reps ([`LAYER_REPS`]).
pub fn run_layers() -> Vec<LayerCase> {
    const BATCH: usize = 8;
    let mut rng = Rng64::new(0x1A7E5);
    let random_tensor = |c: usize, side: usize, rng: &mut Rng64| {
        let len = BATCH * c * side * side;
        let data = (0..len).map(|_| rng.normal_f32()).collect();
        Tensor4::from_vec(BATCH, c, side, side, data)
    };
    let all = cases();
    LAYER_CASES
        .into_iter()
        .map(|(name, stage, channels, out_channels, stride, side)| {
            let mut conv = Conv2d::new(
                "conv",
                channels,
                out_channels,
                3,
                stride,
                1,
                false,
                &mut rng,
            );
            let x = random_tensor(channels, side, &mut rng);
            let gy = random_tensor(out_channels, side / stride, &mut rng);
            let g = Geometry::new(x.shape(), 3, stride, 1);
            let positions = g.positions();
            let gemms: Vec<Operands> = ["conv", "dw", "dx"]
                .iter()
                .map(|product| {
                    let row = format!("rn32_{product}_{stage}");
                    let case = all.iter().find(|c| c.0 == row);
                    let &(_, kind, m, k, n) = case.unwrap_or_else(|| panic!("no GEMM row {row}"));
                    Operands::random(kind, m, k, n, &mut rng)
                })
                .collect();
            let grams: Vec<Matrix> = [9 * channels, out_channels]
                .into_iter()
                .map(|features| random_matrix(positions, features, &mut rng))
                .collect();
            let mut scratch = Matrix::zeros(1, 1);
            let mut reps: [Vec<f64>; 6] = Default::default();
            for _ in 0..LAYER_REPS {
                conv.set_capture(false);
                let layer_ns = time_ns(|| {
                    std::hint::black_box(conv.forward(&x, Mode::Train));
                    std::hint::black_box(conv.backward(&gy));
                });
                let gemm_ns: f64 = gemms.iter().map(|o| time_ns(|| o.run(&mut scratch))).sum();
                conv.set_capture(true);
                let capture_ns = time_ns(|| {
                    std::hint::black_box(conv.forward(&x, Mode::Train));
                    std::hint::black_box(conv.backward(&gy));
                    let (a, g) = conv.compute_factors();
                    kfac_tensor::arena::recycle_matrix(a);
                    kfac_tensor::arena::recycle_matrix(g);
                });
                let gram_ns: f64 = grams
                    .iter()
                    .map(|r| time_ns(|| r.gram_into(&mut scratch)))
                    .sum();
                let values = [
                    layer_ns,
                    gemm_ns,
                    capture_ns,
                    gram_ns,
                    layer_ns / gemm_ns,
                    capture_ns / (gemm_ns + gram_ns),
                ];
                for (rep, v) in reps.iter_mut().zip(values) {
                    rep.push(v);
                }
            }
            std::hint::black_box(&scratch);
            let [layer_ns, gemm_ns, capture_ns, gram_ns, over_gemm, capture_over_gemm] =
                reps.map(median);
            let (build_ns, scatter_ns) = time_lowering(&x, &g, &mut rng);
            LayerCase {
                name,
                channels,
                out_channels,
                stride,
                batch: BATCH,
                side,
                layer_ns,
                gemm_ns,
                capture_ns,
                gram_ns,
                build_ns,
                scatter_ns,
                over_gemm,
                capture_over_gemm,
            }
        })
        .collect()
}

/// ns per pass of `build_patches` and of `scatter_patches` over every
/// block of `g`, as the layer's forward and backward run them.
fn time_lowering(x: &Tensor4, g: &Geometry, rng: &mut Rng64) -> (f64, f64) {
    let (features, positions) = (g.fan_in(), g.positions());
    let blocks: Vec<_> = (0..positions)
        .step_by(BLOCK)
        .map(|q0| q0..(q0 + BLOCK).min(positions))
        .collect();
    let mut patches = vec![0.0; packed_len(Side::Right, features, BLOCK.min(positions))];
    let dp: Vec<f32> = (0..features * BLOCK.min(positions))
        .map(|_| rng.normal_f32())
        .collect();
    let (n, c, h, w) = g.in_shape();
    let mut dx = Tensor4::zeros(n, c, h, w);
    let build_ns = time_ns(|| {
        for q in &blocks {
            let len = packed_len(Side::Right, features, q.len());
            build_patches(x, g, q.clone(), false, &mut patches[..len]);
        }
    });
    let scatter_ns = time_ns(|| {
        for q in &blocks {
            scatter_patches(&dp[..features * q.len()], g, q.clone(), &mut dx);
        }
    });
    std::hint::black_box((&patches, &dx));
    (build_ns, scatter_ns)
}

fn random_matrix(r: usize, c: usize, rng: &mut Rng64) -> Matrix {
    Matrix::from_vec(r, c, (0..r * c).map(|_| rng.normal_f32()).collect())
}

/// Time `f` adaptively: one warm-up call, then iterate until ~250 ms of
/// samples (at least 3 iterations) and report mean ns/iter.
fn time_ns(mut f: impl FnMut()) -> f64 {
    f(); // warm up (fills the arena, faults pages, warms caches)
    let budget = std::time::Duration::from_millis(250);
    let mut iters = 0u32;
    let start = Instant::now();
    loop {
        f();
        iters += 1;
        if start.elapsed() >= budget && iters >= 3 {
            break;
        }
        if iters >= 10_000 {
            break;
        }
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    v[v.len() / 2]
}

/// Random operands of one case's product, `a` and `b` (empty for the
/// Grams), with its multiply-add count.
struct Operands {
    kind: Kind,
    a: Matrix,
    b: Matrix,
    madds: u64,
}

impl Operands {
    fn random(kind: Kind, m: usize, k: usize, n: usize, rng: &mut Rng64) -> Operands {
        let mut random = |r, c| random_matrix(r, c, rng);
        let (a, b, madds) = match kind {
            Kind::Matmul => (random(m, k), random(k, n), m * k * n),
            Kind::MatmulTn => (random(k, m), random(k, n), m * k * n),
            Kind::MatmulNt => (random(m, k), random(n, k), m * k * n),
            // X is k×n; count only the computed triangle.
            Kind::Gram => (random(k, n), Matrix::zeros(0, 0), k * n * (n + 1) / 2),
            Kind::GramNt => (random(m, k), Matrix::zeros(0, 0), k * m * (m + 1) / 2),
        };
        let madds = madds as u64;
        Operands { kind, a, b, madds }
    }

    /// One f32 product into `out`.
    fn run(&self, out: &mut Matrix) {
        let (a, b) = (&self.a, &self.b);
        match self.kind {
            Kind::Matmul => a.matmul_into(b, out),
            Kind::MatmulTn => a.matmul_tn_into(b, out),
            Kind::MatmulNt => a.matmul_nt_into(b, out),
            Kind::Gram => a.gram_into(out),
            Kind::GramNt => a.gram_nt_into(out),
        }
    }
}

/// Run the full suite.
pub fn run_all() -> Vec<BenchCase> {
    let mut rng = Rng64::new(0x5EED);
    let mut out = Vec::new();
    for (name, kind, m, k, n) in cases() {
        let ops = Operands::random(kind, m, k, n, &mut rng);
        let mut scratch = Matrix::zeros(1, 1);
        let packed_ns = time_ns(|| ops.run(&mut scratch));
        std::hint::black_box(&scratch);
        out.push(BenchCase {
            name,
            kind,
            m,
            k,
            n,
            madds: ops.madds,
            packed_ns,
        });
    }
    out
}

/// Render the suite as an aligned text table.
pub fn render_table(cases: &[BenchCase], layers: &[LayerCase]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<18} {:>6} {:>6} {:>6} {:>12} {:>9}\n",
        "case", "m", "k", "n", "ns", "GFLOP/s"
    ));
    for c in cases {
        s.push_str(&format!(
            "{:<18} {:>6} {:>6} {:>6} {:>12.0} {:>9.2}\n",
            c.name,
            c.m,
            c.k,
            c.n,
            c.packed_ns,
            c.packed_gflops()
        ));
    }
    s.push_str(&format!(
        "\n{:<18} {:>6} {:>7} {:>6} {:>12} {:>12} {:>12} {:>9} {:>9} {:>12} {:>12} {:>9}\n",
        "conv layer",
        "batch",
        "chan/s",
        "side",
        "fwd+bwd ns",
        "3 GEMMs ns",
        "lowering ns",
        "GFLOP/s",
        "layer/G",
        "+factors ns",
        "2 Grams ns",
        "capt/G"
    ));
    for l in layers {
        s.push_str(&format!(
            "{:<18} {:>6} {:>7} {:>6} {:>12.0} {:>12.0} {:>12.0} {:>9.2} {:>8.2}x {:>12.0} {:>12.0} {:>8.2}x\n",
            l.name,
            l.batch,
            format!("{}/{}", l.channels, l.stride),
            l.side,
            l.layer_ns,
            l.gemm_ns,
            l.build_ns + l.scatter_ns,
            l.gflops(),
            l.over_gemm,
            l.capture_ns,
            l.gram_ns,
            l.capture_over_gemm
        ));
    }
    s
}

/// Serialize the suite as JSON (hand-rolled — no serde in this tree).
///
/// Besides the rows it carries the two aggregates the CI `perf` job
/// asserts on — `max_layer_over_gemm` (≤ 1.8) and `max_capture_over_gemm`
/// (≤ 2.0) — each a failing value when there is no layer row. The third
/// gate reads the rows themselves: the square shapes' GFLOP/s against
/// 0.6 × the committed `BENCH_kernels.json`.
pub fn to_json(cases: &[BenchCase], layers: &[LayerCase]) -> String {
    let mut s = String::from("{\n  \"benchmarks\": [\n");
    for (i, c) in cases.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"kind\": \"{:?}\", \"m\": {}, \"k\": {}, \"n\": {}, \
             \"packed_ns_per_iter\": {:.1}, \"packed_gflops\": {:.3}}}{}\n",
            c.name,
            c.kind,
            c.m,
            c.k,
            c.n,
            c.packed_ns,
            c.packed_gflops(),
            if i + 1 < cases.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"conv_layers\": [\n");
    for (i, l) in layers.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"batch\": {}, \"channels\": {}, \"out_channels\": {}, \
             \"stride\": {}, \"side\": {}, \
             \"fwd_bwd_ns_per_iter\": {:.1}, \"gemm_sum_ns_per_iter\": {:.1}, \
             \"lowering_ns_per_iter\": {:.1}, \"build_ns_per_iter\": {:.1}, \
             \"scatter_ns_per_iter\": {:.1}, \
             \"gflops\": {:.3}, \"layer_over_gemm\": {:.3}, \
             \"fwd_bwd_factors_ns_per_iter\": {:.1}, \"gram_sum_ns_per_iter\": {:.1}, \
             \"capture_over_gemm\": {:.3}}}{}\n",
            l.name,
            l.batch,
            l.channels,
            l.out_channels,
            l.stride,
            l.side,
            l.layer_ns,
            l.gemm_ns,
            l.build_ns + l.scatter_ns,
            l.build_ns,
            l.scatter_ns,
            l.gflops(),
            l.over_gemm,
            l.capture_ns,
            l.gram_ns,
            l.capture_over_gemm,
            if i + 1 < layers.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    const MISSING: f64 = 999.0;
    let worst = |ratio: fn(&LayerCase) -> f64| {
        let ratios = layers.iter().map(ratio);
        ratios.reduce(f64::max).unwrap_or(MISSING)
    };
    s.push_str(&format!(
        "  \"max_layer_over_gemm\": {:.3},\n  \
         \"max_capture_over_gemm\": {:.3},\n  \"pool_threads\": {}\n}}\n",
        worst(|l| l.over_gemm),
        worst(|l| l.capture_over_gemm),
        rayon::current_num_threads()
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_well_formed_enough() {
        let cases = [BenchCase {
            name: "square_gemm_256",
            kind: Kind::Matmul,
            m: 256,
            k: 256,
            n: 256,
            madds: 256 * 256 * 256,
            packed_ns: 1000.0,
        }];
        let layers = [LayerCase {
            name: "rn32_layer_s1",
            channels: 16,
            out_channels: 16,
            stride: 1,
            batch: 8,
            side: 32,
            layer_ns: 3000.0,
            gemm_ns: 2000.0,
            capture_ns: 5000.0,
            gram_ns: 2000.0,
            build_ns: 400.0,
            scatter_ns: 300.0,
            over_gemm: 1.5,
            capture_over_gemm: 1.25,
        }];
        let json = to_json(&cases, &layers);
        assert!(json.contains("\"layer_over_gemm\": 1.500"));
        assert!(json.contains("\"max_layer_over_gemm\": 1.500"));
        assert!(json.contains("\"capture_over_gemm\": 1.250"));
        assert!(json.contains("\"lowering_ns_per_iter\": 700.0"));
        assert!(json.contains("\"max_capture_over_gemm\": 1.250"));
        // No layer rows → the loud failure value, not a passing 0.
        assert!(to_json(&cases, &[]).contains("\"max_layer_over_gemm\": 999.000"));
        assert!(to_json(&cases, &[]).contains("\"max_capture_over_gemm\": 999.000"));
        assert!(json.contains("\"packed_gflops\": 33554.432}"));
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    }
}
