//! Kernel before/after benchmark: packed GEMM engine vs. legacy kernels.
//!
//! `xp bench-kernels` times every GEMM/Gram shape the ResNet-32 CIFAR
//! pipeline actually runs (convolution forward, weight-gradient and
//! input-gradient products, Kronecker-factor Grams) plus square 256–1024
//! stress shapes, against byte-for-byte copies of the pre-packing `ikj`
//! kernels this repo shipped with, and then one whole `Conv2d`
//! forward + backward per ResNet-32 stage beside the three bare GEMMs it
//! is made of. Results go to stdout as a table and, with `--json`, to
//! `BENCH_kernels.json` for the CI bench-smoke job.
//!
//! The legacy kernels live here (not in `kfac-tensor`) on purpose: they
//! are a measurement baseline, not an API, and keeping them out of the
//! tensor crate means nothing can accidentally call them.

use kfac_nn::{Conv2d, Layer, Mode};
use kfac_tensor::{HalfMatrix, Matrix, Rng64, Tensor4};
use rayon::prelude::*;
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

/// bf16-engine timing for one case, measured paired against the packed
/// f32 engine (see [`run_all`] for the interleaved-median protocol).
#[derive(Clone, Copy, Debug)]
pub struct Bf16Timing {
    /// Median ns/iter of the bf16-packed f32-accumulate kernel.
    pub ns: f64,
    /// Median of the per-rep `f32_ns / bf16_ns` ratios — robust to the
    /// drift of a shared/noisy box, unlike a ratio of two medians taken
    /// minutes apart.
    pub speedup: f64,
}

/// One benchmarked shape with packed/legacy (and, where the bf16 engine
/// applies, bf16) timings.
pub struct BenchCase {
    pub name: &'static str,
    pub kind: Kind,
    pub m: usize,
    pub k: usize,
    pub n: usize,
    /// Multiply-add count per iteration (2 flops each).
    pub madds: u64,
    pub packed_ns: f64,
    pub legacy_ns: f64,
    /// bf16-storage timing; `None` for kinds the bf16 engine does not
    /// cover (plain / TN matmuls, which no bf16 pipeline stage runs).
    pub bf16: Option<Bf16Timing>,
}

impl BenchCase {
    pub fn packed_gflops(&self) -> f64 {
        2.0 * self.madds as f64 / self.packed_ns
    }
    pub fn legacy_gflops(&self) -> f64 {
        2.0 * self.madds as f64 / self.legacy_ns
    }
    pub fn speedup(&self) -> f64 {
        self.legacy_ns / self.packed_ns
    }
}

/// The shapes the CI bf16 perf gate is stated over: the two
/// bias-augmented activation-factor Grams of the deep ResNet-32 stages
/// plus one convolution forward shape. These are the products the bf16
/// substrate actually routes in training, and each must hold
/// [`BF16_GATE_MIN`]×.
pub const BF16_GATE_CASES: [&str; 3] = ["rn32_afactor_s2", "rn32_afactor_s3", "rn32_conv_s3"];

/// Required bf16-over-f32 speedup on every [`BF16_GATE_CASES`] shape.
pub const BF16_GATE_MIN: f64 = 1.4;

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
        // Square stress shapes (acceptance: ≥3× on 256–1024 GEMM/Gram).
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
}

/// The ResNet-32 stage layers (batch 8, as the GEMM rows): row name, the
/// stage suffix of its GEMM rows, channels, feature-map side.
pub const LAYER_CASES: [(&str, &str, usize, usize); 3] = [
    ("rn32_layer_s1", "s1", 16, 32),
    ("rn32_layer_s2", "s2", 32, 16),
    ("rn32_layer_s3", "s3", 64, 8),
];

/// Time one `Conv2d` forward + backward per stage; `cases` supplies the
/// bare GEMM timings of the same run.
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

/// Paired bf16-vs-f32 repetitions per case. The two engines are timed
/// back-to-back inside each rep and the per-rep ratio is medianed, so a
/// frequency step or noisy-neighbor burst mid-suite skews at most two
/// of the five samples instead of one whole engine's measurement.
const BF16_REPS: usize = 5;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    v[v.len() / 2]
}

/// Run the full suite. Each case is timed on the packed engine and on
/// the legacy kernels with identical inputs.
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
        let legacy_ns = time_ns(|| {
            std::hint::black_box(match kind {
                Kind::Matmul => legacy::matmul(&a, &b),
                Kind::MatmulTn => legacy::matmul_tn(&a, &b),
                Kind::MatmulNt => legacy::matmul_nt(&a, &b),
                Kind::Gram => legacy::gram(&a),
                Kind::GramNt => legacy::gram_nt(&a),
            });
        });
        // bf16 rows for the kinds the half-width engine covers: Gram
        // (activation factors), GramNt (gradient factors, via the
        // full-matrix A·Aᵀ kernel), and MatmulNt (im2col forward).
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
                    ratios.push(t32 / t16);
                }
                std::hint::black_box(&out16);
                Some(Bf16Timing {
                    ns: median(ns16),
                    speedup: median(ratios),
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
            legacy_ns,
            bf16,
        });
    }
    out
}

/// Render the suite as an aligned text table.
pub fn render_table(cases: &[BenchCase], layers: &[LayerCase]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<18} {:>6} {:>6} {:>6} {:>12} {:>12} {:>9} {:>9} {:>8} {:>12} {:>9}\n",
        "case",
        "m",
        "k",
        "n",
        "packed ns",
        "legacy ns",
        "packed",
        "legacy",
        "speedup",
        "bf16 ns",
        "bf16/f32"
    ));
    s.push_str(&format!(
        "{:<18} {:>6} {:>6} {:>6} {:>12} {:>12} {:>9} {:>9} {:>8} {:>12} {:>9}\n",
        "", "", "", "", "", "", "GFLOP/s", "GFLOP/s", "", "", ""
    ));
    for c in cases {
        let (bf16_ns, bf16_speedup) = match c.bf16 {
            Some(t) => (format!("{:.0}", t.ns), format!("{:.2}x", t.speedup)),
            None => ("-".to_string(), "-".to_string()),
        };
        s.push_str(&format!(
            "{:<18} {:>6} {:>6} {:>6} {:>12.0} {:>12.0} {:>9.2} {:>9.2} {:>7.2}x {:>12} {:>9}\n",
            c.name,
            c.m,
            c.k,
            c.n,
            c.packed_ns,
            c.legacy_ns,
            c.packed_gflops(),
            c.legacy_gflops(),
            c.speedup(),
            bf16_ns,
            bf16_speedup
        ));
    }
    s.push_str(&format!(
        "\n{:<18} {:>6} {:>6} {:>6} {:>12} {:>12} {:>9} {:>9}\n",
        "conv layer", "batch", "chan", "side", "fwd+bwd ns", "3 GEMMs ns", "GFLOP/s", "layer/G"
    ));
    for l in layers {
        s.push_str(&format!(
            "{:<18} {:>6} {:>6} {:>6} {:>12.0} {:>12.0} {:>9.2} {:>8.2}x\n",
            l.name,
            l.batch,
            l.channels,
            l.side,
            l.layer_ns,
            l.gemm_ns,
            l.gflops(),
            l.over_gemm()
        ));
    }
    s
}

/// Serialize the suite as JSON (hand-rolled — no serde in this tree).
pub fn to_json(cases: &[BenchCase], layers: &[LayerCase]) -> String {
    let mut s = String::from("{\n  \"benchmarks\": [\n");
    for (i, c) in cases.iter().enumerate() {
        let bf16_fields = match c.bf16 {
            Some(t) => format!(
                "\"bf16_ns_per_iter\": {:.1}, \"bf16_gflops\": {:.3}, \"bf16_speedup\": {:.3}",
                t.ns,
                2.0 * c.madds as f64 / t.ns,
                t.speedup
            ),
            None => "\"bf16_ns_per_iter\": null, \"bf16_gflops\": null, \"bf16_speedup\": null"
                .to_string(),
        };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"kind\": \"{:?}\", \"m\": {}, \"k\": {}, \"n\": {}, \
             \"packed_ns_per_iter\": {:.1}, \"legacy_ns_per_iter\": {:.1}, \
             \"packed_gflops\": {:.3}, \"legacy_gflops\": {:.3}, \"speedup\": {:.3}, {}}}{}\n",
            c.name,
            c.kind,
            c.m,
            c.k,
            c.n,
            c.packed_ns,
            c.legacy_ns,
            c.packed_gflops(),
            c.legacy_gflops(),
            c.speedup(),
            bf16_fields,
            if i + 1 < cases.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"conv_layers\": [\n");
    for (i, l) in layers.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"batch\": {}, \"channels\": {}, \"side\": {}, \
             \"fwd_bwd_ns_per_iter\": {:.1}, \"gemm_sum_ns_per_iter\": {:.1}, \
             \"gflops\": {:.3}, \"layer_over_gemm\": {:.3}}}{}\n",
            l.name,
            l.batch,
            l.channels,
            l.side,
            l.layer_ns,
            l.gemm_ns,
            l.gflops(),
            l.over_gemm(),
            if i + 1 < layers.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    // Conv-layer gate: the worst layer-over-GEMM ratio (a failing value,
    // so the CI assertion is loud, when the layer rows are missing).
    let layer_gate = layers
        .iter()
        .map(LayerCase::over_gemm)
        .reduce(f64::max)
        .unwrap_or(999.0);
    let gate: Vec<&BenchCase> = cases
        .iter()
        .filter(|c| c.name.starts_with("square_"))
        .collect();
    let min = gate
        .iter()
        .map(|c| c.speedup())
        .fold(f64::INFINITY, f64::min);
    // bf16 perf gate: the minimum paired bf16-over-f32 speedup across
    // the BF16_GATE_CASES shapes (0.0 when a gate case is missing its
    // bf16 timing, which fails the CI assertion loudly).
    let bf16_gate = BF16_GATE_CASES
        .iter()
        .map(|name| {
            cases
                .iter()
                .find(|c| c.name == *name)
                .and_then(|c| c.bf16)
                .map(|t| t.speedup)
                .unwrap_or(0.0)
        })
        .fold(f64::INFINITY, f64::min);
    s.push_str(&format!(
        "  \"min_square_speedup\": {:.3},\n  \"min_bf16_gate_speedup\": {:.3},\n  \
         \"max_layer_over_gemm\": {:.3},\n  \"pool_threads\": {}\n}}\n",
        if min.is_finite() { min } else { 0.0 },
        if bf16_gate.is_finite() {
            bf16_gate
        } else {
            0.0
        },
        layer_gate,
        rayon::current_num_threads()
    ));
    s
}

/// Byte-for-byte copies of the pre-packing kernels (`ikj` loops with the
/// `== 0.0` skip branches, thread-count-dependent k-partitioned Grams),
/// kept as the benchmark baseline.
mod legacy {
    use super::*;

    const PAR_THRESHOLD: usize = 64 * 64;

    pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let m = a.rows();
        let k = a.cols();
        let n = b.cols();
        let mut c = Matrix::zeros(m, n);
        let kernel = |i: usize, c_row: &mut [f32]| {
            let a_row = a.row(i);
            for (p, &a_ip) in a_row.iter().enumerate().take(k) {
                if a_ip == 0.0 {
                    continue;
                }
                let b_row = b.row(p);
                for (c_v, &b_v) in c_row.iter_mut().zip(b_row) {
                    *c_v += a_ip * b_v;
                }
            }
        };
        if m * n >= PAR_THRESHOLD && m > 1 {
            c.as_mut_slice()
                .par_chunks_mut(n)
                .enumerate()
                .for_each(|(i, c_row)| kernel(i, c_row));
        } else {
            for i in 0..m {
                let row = &mut c.as_mut_slice()[i * n..(i + 1) * n];
                kernel(i, row);
            }
        }
        c
    }

    pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
        let m = a.cols();
        let n = b.cols();
        let k = a.rows();
        let mut c = Matrix::zeros(m, n);
        for i in 0..k {
            let a_row = a.row(i);
            let b_row = b.row(i);
            for (j, &a_ij) in a_row.iter().enumerate() {
                if a_ij == 0.0 {
                    continue;
                }
                let acc_row = c.row_mut(j);
                for (c_v, &b_v) in acc_row.iter_mut().zip(b_row) {
                    *c_v += a_ij * b_v;
                }
            }
        }
        c
    }

    pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
        let m = a.rows();
        let n = b.rows();
        let mut c = Matrix::zeros(m, n);
        let kernel = |i: usize, c_row: &mut [f32]| {
            let a_row = a.row(i);
            for (j, c_v) in c_row.iter_mut().enumerate() {
                let b_row = b.row(j);
                let mut acc = 0.0f32;
                for (&x, &y) in a_row.iter().zip(b_row) {
                    acc += x * y;
                }
                *c_v = acc;
            }
        };
        if m * n >= PAR_THRESHOLD && m > 1 {
            c.as_mut_slice()
                .par_chunks_mut(n)
                .enumerate()
                .for_each(|(i, c_row)| kernel(i, c_row));
        } else {
            for i in 0..m {
                let row = &mut c.as_mut_slice()[i * n..(i + 1) * n];
                kernel(i, row);
            }
        }
        c
    }

    pub fn gram(x: &Matrix) -> Matrix {
        let n = x.cols();
        let k = x.rows();
        let mut g = Matrix::zeros(n, n);
        for i in 0..k {
            rank1_upper(&mut g, x.row(i));
        }
        for i in 0..n {
            for j in (i + 1)..n {
                g[(j, i)] = g[(i, j)];
            }
        }
        g
    }

    pub fn gram_nt(x: &Matrix) -> Matrix {
        let mut g = matmul_nt(x, x);
        g.symmetrize();
        g
    }

    fn rank1_upper(acc: &mut Matrix, row: &[f32]) {
        let n = row.len();
        for j in 0..n {
            let rj = row[j];
            if rj == 0.0 {
                continue;
            }
            let acc_row = acc.row_mut(j);
            for l in j..n {
                acc_row[l] += rj * row[l];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_kernels_agree_with_packed() {
        let mut rng = Rng64::new(11);
        let a = random_matrix(33, 21, &mut rng);
        let b = random_matrix(21, 17, &mut rng);
        assert!(legacy::matmul(&a, &b).max_abs_diff(&a.matmul(&b)) < 1e-4);
        let at = random_matrix(21, 33, &mut rng);
        assert!(legacy::matmul_tn(&at, &b).max_abs_diff(&at.matmul_tn(&b)) < 1e-4);
        let bt = random_matrix(17, 21, &mut rng);
        assert!(legacy::matmul_nt(&a, &bt).max_abs_diff(&a.matmul_nt(&bt)) < 1e-4);
        assert!(legacy::gram(&a).max_abs_diff(&a.gram()) < 1e-4);
        assert!(legacy::gram_nt(&a).max_abs_diff(&a.gram_nt()) < 1e-4);
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
                legacy_ns: 4000.0,
                bf16: None,
            },
            BenchCase {
                name: "rn32_afactor_s2",
                kind: Kind::Gram,
                m: 0,
                k: 2048,
                n: 289,
                madds: 1000,
                packed_ns: 1500.0,
                legacy_ns: 4500.0,
                bf16: Some(Bf16Timing {
                    ns: 1000.0,
                    speedup: 1.5,
                }),
            },
        ];
        let layers = [LayerCase {
            name: "rn32_layer_s1",
            channels: 16,
            batch: 8,
            side: 32,
            layer_ns: 3000.0,
            gemm_ns: 2000.0,
        }];
        let json = to_json(&cases, &layers);
        assert!(json.contains("\"layer_over_gemm\": 1.500"));
        assert!(json.contains("\"max_layer_over_gemm\": 1.500"));
        // No layer rows → the loud failure value, not a passing 0.
        assert!(to_json(&cases, &[]).contains("\"max_layer_over_gemm\": 999.000"));
        assert!(json.contains("\"speedup\": 4.000"));
        assert!(json.contains("\"min_square_speedup\": 4.000"));
        assert!(json.contains("\"bf16_ns_per_iter\": null"));
        assert!(json.contains("\"bf16_speedup\": 1.500"));
        // Two of the three gate shapes are absent → the aggregate is the
        // loud 0.0 failure value, not the present case's 1.5.
        assert!(json.contains("\"min_bf16_gate_speedup\": 0.000"));
        assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    }

    #[test]
    fn bf16_gate_aggregate_is_min_over_gate_cases() {
        let mk = |name: &'static str, speedup: f64| BenchCase {
            name,
            kind: Kind::Gram,
            m: 0,
            k: 64,
            n: 64,
            madds: 1000,
            packed_ns: 1000.0,
            legacy_ns: 2000.0,
            bf16: Some(Bf16Timing { ns: 600.0, speedup }),
        };
        let cases: Vec<BenchCase> = BF16_GATE_CASES
            .iter()
            .zip([1.9, 1.5, 1.7])
            .map(|(n, s)| mk(n, s))
            .collect();
        let json = to_json(&cases, &[]);
        assert!(json.contains("\"min_bf16_gate_speedup\": 1.500"), "{json}");
    }
}
