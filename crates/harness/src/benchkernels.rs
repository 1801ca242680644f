//! Kernel benchmark: the packed GEMM engine on the shapes training runs.
//!
//! `xp bench-kernels` times every GEMM/Gram shape the ResNet-32 CIFAR
//! pipeline actually runs (convolution forward, weight-gradient and
//! input-gradient products, Kronecker-factor Grams) plus square 256–1024
//! stress shapes — over f32 operands and, for the Gram and conv-forward
//! shapes, over the same values stored as bf16 (what half-width
//! *storage* costs the one engine; training stores f32) — and then one
//! whole `Conv2d` forward + backward per ResNet-32 stage beside the three
//! bare GEMMs it is made of, plain and as a K-FAC factor iteration runs
//! it (capturing, then `compute_factors`) beside those GEMMs plus the two
//! bare factor Grams. Results go to stdout as a table and, with
//! `--json`, to `BENCH_kernels.json`; the CI `perf` job gates on absolute
//! statements about that file (see [`to_json`]).

use kfac_nn::{Conv2d, KfacEligible, Layer, Mode};
use kfac_tensor::{HalfMatrix, Matrix, Rng64, Tensor4};
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

/// Timing of one case over bf16-stored operands, measured paired against
/// the f32-stored ones (see [`run_all`] for the interleaved-median
/// protocol). Same engine, same tile: the only difference is the bytes
/// the packers read and the widening they do on the way.
#[derive(Clone, Copy, Debug)]
pub struct Bf16Timing {
    /// Median ns/iter with bf16-stored operands.
    pub ns: f64,
    /// Median of the per-rep `bf16_ns / f32_ns` ratios — robust to the
    /// drift of a shared/noisy box, unlike a ratio of two medians taken
    /// minutes apart.
    pub over_f32: f64,
}

/// One benchmarked shape with its f32 and, for the Gram / NT kinds, bf16
/// timings.
pub struct BenchCase {
    pub name: &'static str,
    pub kind: Kind,
    pub m: usize,
    pub k: usize,
    pub n: usize,
    /// Multiply-add count per iteration (2 flops each).
    pub madds: u64,
    /// ns/iter over f32-stored operands.
    pub packed_ns: f64,
    /// bf16-storage timing; `None` for plain / TN matmuls.
    pub bf16: Option<Bf16Timing>,
}

impl BenchCase {
    pub fn packed_gflops(&self) -> f64 {
        2.0 * self.madds as f64 / self.packed_ns
    }
}

/// The shapes the CI bf16 gate is stated over: the two bias-augmented
/// activation-factor Grams of the deep ResNet-32 stages plus one
/// convolution forward shape. Half-width operands must not cost time:
/// on each, bf16 ns ≤ 1.1 × f32 ns.
pub const BF16_GATE_CASES: [&str; 3] = ["rn32_afactor_s2", "rn32_afactor_s3", "rn32_conv_s3"];

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
        // Weight gradients, dW = gᵀ · patches, and input gradients,
        // dP = g · weight: with the forward rows, the three products of
        // each [`LAYER_CASES`] entry.
        ("rn32_dw_s1", Kind::MatmulTn, 16, 8192, 144),
        ("rn32_dw_s2", Kind::MatmulTn, 32, 2048, 288),
        ("rn32_dw_s3", Kind::MatmulTn, 64, 512, 576),
        ("rn32_dx_s1", Kind::Matmul, 8192, 16, 144),
        ("rn32_dx_s2", Kind::Matmul, 2048, 32, 288),
        ("rn32_dx_s3", Kind::Matmul, 512, 64, 576),
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
    /// `Conv2d(channels → channels, 3×3, stride 1, pad 1)` …
    pub channels: usize,
    /// … over a `batch × channels × side × side` input.
    pub batch: usize,
    pub side: usize,
    /// Training forward + backward of the layer, ns per iteration.
    pub layer_ns: f64,
    /// Sum of the packed timings of the layer's forward, weight-gradient
    /// and input-gradient GEMM rows (`rn32_{conv,dw,dx}_<stage>`).
    pub gemm_ns: f64,
    /// A factor iteration of the layer: forward, capturing backward (the
    /// factor Grams summed block by block) and `compute_factors`.
    pub capture_ns: f64,
    /// The two Grams as single calls over whole-batch rows: the A factor
    /// (`positions × 9·channels`) plus the G factor (`positions × channels`).
    pub gram_ns: f64,
}

impl LayerCase {
    /// Multiply-adds of the three products.
    pub fn madds(&self) -> u64 {
        let c = self.channels;
        3 * (self.batch * self.side * self.side * 9 * c * c) as u64
    }
    /// Effective rate of the whole layer over its GEMM FLOPs.
    pub fn gflops(&self) -> f64 {
        2.0 * self.madds() as f64 / self.layer_ns
    }
    /// Layer time over the time of its bare GEMMs (1.0 = free lowering);
    /// the CI `perf` job fails above 2.0.
    pub fn over_gemm(&self) -> f64 {
        self.layer_ns / self.gemm_ns
    }
    /// Factor-iteration time over its three bare GEMMs plus its two bare
    /// Grams (1.0 = free lowering *and* free block-wise factor sums); the
    /// CI `perf` job fails above 2.0.
    pub fn capture_over_gemm(&self) -> f64 {
        self.capture_ns / (self.gemm_ns + self.gram_ns)
    }
}

/// The ResNet-32 stage layers (batch 8, as the GEMM rows): row name, the
/// stage suffix of its GEMM rows, channels, feature-map side.
pub const LAYER_CASES: [(&str, &str, usize, usize); 3] = [
    ("rn32_layer_s1", "s1", 16, 32),
    ("rn32_layer_s2", "s2", 32, 16),
    ("rn32_layer_s3", "s3", 64, 8),
];

/// Time one `Conv2d` forward + backward per stage, plain and capturing;
/// `cases` supplies the bare GEMM timings of the same run.
pub fn run_layers(cases: &[BenchCase]) -> Vec<LayerCase> {
    const BATCH: usize = 8;
    let mut rng = Rng64::new(0x1A7E5);
    let random_tensor = |c: usize, side: usize, rng: &mut Rng64| {
        let len = BATCH * c * side * side;
        let data = (0..len).map(|_| rng.normal_f32()).collect();
        Tensor4::from_vec(BATCH, c, side, side, data)
    };
    LAYER_CASES
        .into_iter()
        .map(|(name, stage, channels, side)| {
            let mut conv = Conv2d::new("conv", channels, channels, 3, 1, 1, false, &mut rng);
            let x = random_tensor(channels, side, &mut rng);
            let gy = random_tensor(channels, side, &mut rng);
            let layer_ns = time_ns(|| {
                std::hint::black_box(conv.forward(&x, Mode::Train));
                std::hint::black_box(conv.backward(&gy));
            });
            conv.set_capture(true);
            let capture_ns = time_ns(|| {
                std::hint::black_box(conv.forward(&x, Mode::Train));
                std::hint::black_box(conv.backward(&gy));
                let (a, g) = conv.compute_factors();
                kfac_tensor::arena::recycle_matrix(a);
                kfac_tensor::arena::recycle_matrix(g);
            });
            let positions = BATCH * side * side;
            let mut scratch = Matrix::zeros(1, 1);
            let gram_ns: f64 = [9 * channels, channels]
                .into_iter()
                .map(|features| {
                    let rows = random_matrix(positions, features, &mut rng);
                    time_ns(|| rows.gram_into(&mut scratch))
                })
                .sum();
            let gemm_ns = ["conv", "dw", "dx"]
                .iter()
                .map(|product| {
                    let row = format!("rn32_{product}_{stage}");
                    let case = cases.iter().find(|c| c.name == row);
                    case.unwrap_or_else(|| panic!("no GEMM row {row}"))
                        .packed_ns
                })
                .sum();
            LayerCase {
                name,
                channels,
                batch: BATCH,
                side,
                layer_ns,
                gemm_ns,
                capture_ns,
                gram_ns,
            }
        })
        .collect()
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

/// Paired bf16-vs-f32 repetitions per case. The two storages are timed
/// back-to-back inside each rep and the per-rep ratio is medianed, so a
/// frequency step or noisy-neighbor burst mid-suite skews at most two
/// of the five samples instead of one whole engine's measurement.
const BF16_REPS: usize = 5;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    v[v.len() / 2]
}

/// Run the full suite.
pub fn run_all() -> Vec<BenchCase> {
    let mut rng = Rng64::new(0x5EED);
    let mut out = Vec::new();
    for (name, kind, m, k, n) in cases() {
        let (a, b, madds);
        match kind {
            Kind::Matmul => {
                a = random_matrix(m, k, &mut rng);
                b = random_matrix(k, n, &mut rng);
                madds = (m * k * n) as u64;
            }
            Kind::MatmulTn => {
                a = random_matrix(k, m, &mut rng);
                b = random_matrix(k, n, &mut rng);
                madds = (m * k * n) as u64;
            }
            Kind::MatmulNt => {
                a = random_matrix(m, k, &mut rng);
                b = random_matrix(n, k, &mut rng);
                madds = (m * k * n) as u64;
            }
            Kind::Gram => {
                // X is k×n; count only the computed triangle.
                a = random_matrix(k, n, &mut rng);
                b = Matrix::zeros(0, 0);
                madds = (k * n * (n + 1) / 2) as u64;
            }
            Kind::GramNt => {
                a = random_matrix(m, k, &mut rng);
                b = Matrix::zeros(0, 0);
                madds = (k * m * (m + 1) / 2) as u64;
            }
        }

        let mut scratch = Matrix::zeros(1, 1);
        let packed_ns = time_ns(|| match kind {
            Kind::Matmul => a.matmul_into(&b, &mut scratch),
            Kind::MatmulTn => a.matmul_tn_into(&b, &mut scratch),
            Kind::MatmulNt => a.matmul_nt_into(&b, &mut scratch),
            Kind::Gram => a.gram_into(&mut scratch),
            Kind::GramNt => a.gram_nt_into(&mut scratch),
        });
        // bf16 rows for three kinds: Gram (activation factors), GramNt
        // (gradient factors, via the full-matrix A·Aᵀ product), and
        // MatmulNt (conv forward).
        // Interleaved paired reps; see BF16_REPS.
        let bf16 = match kind {
            Kind::Gram | Kind::GramNt | Kind::MatmulNt => {
                let ha = HalfMatrix::from_matrix(&a);
                let hb = matches!(kind, Kind::MatmulNt).then(|| HalfMatrix::from_matrix(&b));
                let mut out16 = Matrix::zeros(1, 1);
                let mut ns16 = Vec::with_capacity(BF16_REPS);
                let mut ratios = Vec::with_capacity(BF16_REPS);
                for _ in 0..BF16_REPS {
                    let t32 = time_ns(|| match kind {
                        Kind::Gram => a.gram_into(&mut scratch),
                        Kind::GramNt => a.gram_nt_into(&mut scratch),
                        Kind::MatmulNt => a.matmul_nt_into(&b, &mut scratch),
                        _ => unreachable!(),
                    });
                    let t16 = time_ns(|| match kind {
                        Kind::Gram => ha.gram_into(&mut out16),
                        Kind::GramNt => ha.matmul_nt_into(&ha, &mut out16),
                        Kind::MatmulNt => ha.matmul_nt_into(hb.as_ref().unwrap(), &mut out16),
                        _ => unreachable!(),
                    });
                    ns16.push(t16);
                    ratios.push(t16 / t32);
                }
                std::hint::black_box(&out16);
                Some(Bf16Timing {
                    ns: median(ns16),
                    over_f32: median(ratios),
                })
            }
            Kind::Matmul | Kind::MatmulTn => None,
        };
        std::hint::black_box(&scratch);
        out.push(BenchCase {
            name,
            kind,
            m,
            k,
            n,
            madds,
            packed_ns,
            bf16,
        });
    }
    out
}

/// Render the suite as an aligned text table.
pub fn render_table(cases: &[BenchCase], layers: &[LayerCase]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<18} {:>6} {:>6} {:>6} {:>12} {:>9} {:>12} {:>9} {:>9}\n",
        "case", "m", "k", "n", "f32 ns", "GFLOP/s", "bf16 ns", "GFLOP/s", "bf16/f32"
    ));
    for c in cases {
        let (bf16_ns, bf16_gflops, bf16_ratio) = match c.bf16 {
            Some(t) => (
                format!("{:.0}", t.ns),
                format!("{:.2}", 2.0 * c.madds as f64 / t.ns),
                format!("{:.2}x", t.over_f32),
            ),
            None => ("-".to_string(), "-".to_string(), "-".to_string()),
        };
        s.push_str(&format!(
            "{:<18} {:>6} {:>6} {:>6} {:>12.0} {:>9.2} {:>12} {:>9} {:>9}\n",
            c.name,
            c.m,
            c.k,
            c.n,
            c.packed_ns,
            c.packed_gflops(),
            bf16_ns,
            bf16_gflops,
            bf16_ratio
        ));
    }
    s.push_str(&format!(
        "\n{:<18} {:>6} {:>6} {:>6} {:>12} {:>12} {:>9} {:>9} {:>12} {:>12} {:>9}\n",
        "conv layer",
        "batch",
        "chan",
        "side",
        "fwd+bwd ns",
        "3 GEMMs ns",
        "GFLOP/s",
        "layer/G",
        "+factors ns",
        "2 Grams ns",
        "capt/G"
    ));
    for l in layers {
        s.push_str(&format!(
            "{:<18} {:>6} {:>6} {:>6} {:>12.0} {:>12.0} {:>9.2} {:>8.2}x {:>12.0} {:>12.0} {:>8.2}x\n",
            l.name,
            l.batch,
            l.channels,
            l.side,
            l.layer_ns,
            l.gemm_ns,
            l.gflops(),
            l.over_gemm(),
            l.capture_ns,
            l.gram_ns,
            l.capture_over_gemm()
        ));
    }
    s
}

/// Serialize the suite as JSON (hand-rolled — no serde in this tree).
///
/// Besides the rows it carries the three aggregates the CI `perf` job
/// asserts on — `max_bf16_over_f32` (≤ 1.1: the worst paired bf16/f32
/// time ratio over [`BF16_GATE_CASES`]), `max_layer_over_gemm` and
/// `max_capture_over_gemm` (both ≤ 2.0) — each a failing value when a
/// row it needs is missing. The fourth gate reads the rows themselves: the square shapes' f32 GFLOP/s
/// against 0.6 × the committed `BENCH_kernels.json`.
pub fn to_json(cases: &[BenchCase], layers: &[LayerCase]) -> String {
    let mut s = String::from("{\n  \"benchmarks\": [\n");
    for (i, c) in cases.iter().enumerate() {
        let bf16_fields = match c.bf16 {
            Some(t) => format!(
                "\"bf16_ns_per_iter\": {:.1}, \"bf16_gflops\": {:.3}, \"bf16_over_f32\": {:.3}",
                t.ns,
                2.0 * c.madds as f64 / t.ns,
                t.over_f32
            ),
            None => "\"bf16_ns_per_iter\": null, \"bf16_gflops\": null, \"bf16_over_f32\": null"
                .to_string(),
        };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"kind\": \"{:?}\", \"m\": {}, \"k\": {}, \"n\": {}, \
             \"packed_ns_per_iter\": {:.1}, \"packed_gflops\": {:.3}, {}}}{}\n",
            c.name,
            c.kind,
            c.m,
            c.k,
            c.n,
            c.packed_ns,
            c.packed_gflops(),
            bf16_fields,
            if i + 1 < cases.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"conv_layers\": [\n");
    for (i, l) in layers.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"batch\": {}, \"channels\": {}, \"side\": {}, \
             \"fwd_bwd_ns_per_iter\": {:.1}, \"gemm_sum_ns_per_iter\": {:.1}, \
             \"gflops\": {:.3}, \"layer_over_gemm\": {:.3}, \
             \"fwd_bwd_factors_ns_per_iter\": {:.1}, \"gram_sum_ns_per_iter\": {:.1}, \
             \"capture_over_gemm\": {:.3}}}{}\n",
            l.name,
            l.batch,
            l.channels,
            l.side,
            l.layer_ns,
            l.gemm_ns,
            l.gflops(),
            l.over_gemm(),
            l.capture_ns,
            l.gram_ns,
            l.capture_over_gemm(),
            if i + 1 < layers.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    const MISSING: f64 = 999.0;
    let worst = |ratio: fn(&LayerCase) -> f64| {
        let ratios = layers.iter().map(ratio);
        ratios.reduce(f64::max).unwrap_or(MISSING)
    };
    let bf16_gate = BF16_GATE_CASES
        .iter()
        .map(|name| {
            let case = cases.iter().find(|c| c.name == *name);
            case.and_then(|c| c.bf16).map_or(MISSING, |t| t.over_f32)
        })
        .fold(0.0, f64::max);
    s.push_str(&format!(
        "  \"max_bf16_over_f32\": {:.3},\n  \"max_layer_over_gemm\": {:.3},\n  \
         \"max_capture_over_gemm\": {:.3},\n  \"pool_threads\": {}\n}}\n",
        bf16_gate,
        worst(LayerCase::over_gemm),
        worst(LayerCase::capture_over_gemm),
        rayon::current_num_threads()
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gram_case(name: &'static str, over_f32: f64) -> BenchCase {
        BenchCase {
            name,
            kind: Kind::Gram,
            m: 0,
            k: 2048,
            n: 289,
            madds: 1000,
            packed_ns: 1000.0,
            bf16: Some(Bf16Timing {
                ns: 1000.0 * over_f32,
                over_f32,
            }),
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let cases = vec![
            BenchCase {
                name: "square_gemm_256",
                kind: Kind::Matmul,
                m: 256,
                k: 256,
                n: 256,
                madds: 256 * 256 * 256,
                packed_ns: 1000.0,
                bf16: None,
            },
            gram_case("rn32_afactor_s2", 0.9),
        ];
        let layers = [LayerCase {
            name: "rn32_layer_s1",
            channels: 16,
            batch: 8,
            side: 32,
            layer_ns: 3000.0,
            gemm_ns: 2000.0,
            capture_ns: 5000.0,
            gram_ns: 2000.0,
        }];
        let json = to_json(&cases, &layers);
        assert!(json.contains("\"layer_over_gemm\": 1.500"));
        assert!(json.contains("\"max_layer_over_gemm\": 1.500"));
        assert!(json.contains("\"capture_over_gemm\": 1.250"));
        assert!(json.contains("\"max_capture_over_gemm\": 1.250"));
        // No layer rows → the loud failure value, not a passing 0.
        assert!(to_json(&cases, &[]).contains("\"max_layer_over_gemm\": 999.000"));
        assert!(to_json(&cases, &[]).contains("\"max_capture_over_gemm\": 999.000"));
        assert!(json.contains("\"packed_gflops\": 33554.432"));
        assert!(json.contains("\"bf16_ns_per_iter\": null"));
        assert!(json.contains("\"bf16_over_f32\": 0.900"));
        // Two of the three gate shapes are absent → the aggregate is the
        // loud failure value, not the present case's 0.9.
        assert!(json.contains("\"max_bf16_over_f32\": 999.000"));
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    }

    #[test]
    fn bf16_gate_aggregate_is_the_worst_gate_case() {
        let cases: Vec<BenchCase> = BF16_GATE_CASES
            .iter()
            .zip([0.8, 1.05, 0.95])
            .map(|(n, r)| gram_case(n, r))
            .collect();
        let json = to_json(&cases, &[]);
        assert!(json.contains("\"max_bf16_over_f32\": 1.050"), "{json}");
    }
}
