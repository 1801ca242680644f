//! Direct calls into `kfac-tensor` (and the span primitive of
//! `kfac-telemetry`) on this model's shapes: the kernel numbers beneath
//! the step rows.

use crate::stats::median;
use crate::workload::Workload;
use kfac::{math, EigenSolver, RandEigPolicy};
use kfac_data::{batch_of, Dataset};
use kfac_nn::{layer::Mode, CrossEntropyLoss, Layer};
use kfac_telemetry::{Registry, Span};
use kfac_tensor::{HalfMatrix, Matrix, Rng64};
use std::hint::black_box;
use std::time::Instant;

/// Kernel-level results.
#[derive(Debug, Clone, Copy, Default)]
pub struct Micro {
    /// Stage-3 conv forward GEMM, `rows×576 · (64×576)ᵀ`.
    pub gemm_gflops: f64,
    /// Stage-3 A-factor Gram, `(rows×576)ᵀ·(rows×576)`, f32.
    pub gram_gflops: f64,
    /// The same Gram through the bf16-packed kernels.
    pub gram_bf16_gflops: f64,
    /// Exact QL on a captured 144² A factor.
    pub eig_ql_ms_n144: f64,
    /// Exact QL on a captured 576² A factor.
    pub eig_ql_ms_n576: f64,
    /// Adaptive randomized solve of the same 576² factor.
    pub eig_rand_ms_n576: f64,
    /// Rank it kept (576 when it fell back to the exact solve).
    pub eig_rand_rank_n576: f64,
    /// `Span::enter` + drop with a recorder installed.
    pub span_ns: f64,
}

/// Median wall time of `f` in seconds over `reps` calls.
fn time_s<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

fn random_matrix(rows: usize, cols: usize, rng: &mut Rng64) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols).map(|_| rng.normal_f32()).collect(),
    )
}

/// The A factors K-FAC's first update would decompose: one captured
/// forward/backward of the workload's batch through a fresh model.
fn captured_a_factors(w: &Workload, seed: u64, train_ds: &dyn Dataset) -> (Matrix, Matrix) {
    let mut model = w.model_builder()(seed);
    let indices: Vec<usize> = (0..w.local_batch).collect();
    let (x, labels) = batch_of(train_ds, &indices, 1);
    model.zero_grad();
    model.set_capture(true);
    let out = model.forward(&x, Mode::Train);
    let (_, grad) = CrossEntropyLoss::with_smoothing(0.0).forward(&out, &labels);
    let _ = model.backward(&grad);
    let mut layers = Vec::new();
    model.collect_kfac(&mut layers);
    let a_of = |name: &str| {
        let layer = layers
            .iter()
            .find(|l| l.kfac_name() == name)
            .unwrap_or_else(|| panic!("the model has no layer {name}"));
        layer.compute_factors().0
    };
    // 9·16 = 144 and 9·64 = 576 input features at the benchmark's width.
    (a_of("s0.b0.conv1"), a_of("s2.b2.conv2"))
}

/// Run the kernels. `reps` scales the repetition counts (1 in smoke).
pub fn run(w: &Workload, seed: u64, train_ds: &dyn Dataset, reps: usize) -> Micro {
    let c_out = 4 * w.width;
    let fan_in = 9 * c_out;
    // Stage 3 runs at a quarter of the input resolution.
    let side = (w.image / 4).max(1);
    let rows = w.local_batch * side * side;
    let mut rng = Rng64::new(seed ^ 0x6d69_6372_6f00);
    let cols = random_matrix(rows, fan_in, &mut rng);
    let weight = random_matrix(c_out, fan_in, &mut rng);
    let half = HalfMatrix::from_matrix(&cols);

    // Many calls per sample, so a sample is long against the clock.
    let inner = (20_000_000 / (rows * fan_in * c_out)).clamp(1, 200);
    let mut y = Matrix::zeros(rows, c_out);
    let gemm_s = time_s(5 * reps, || {
        for _ in 0..inner {
            cols.matmul_nt_into(&weight, &mut y);
        }
    }) / inner as f64;
    let mut gram = Matrix::zeros(fan_in, fan_in);
    let inner = (20_000_000 / (rows * fan_in * fan_in)).clamp(1, 200);
    let gram_s = time_s(5 * reps, || {
        for _ in 0..inner {
            cols.gram_into(&mut gram);
        }
    }) / inner as f64;
    let gram_bf16_s = time_s(5 * reps, || {
        for _ in 0..inner {
            half.gram_into(&mut gram);
        }
    }) / inner as f64;
    // Nominal dense FLOP counts (the symmetric kernels do about half).
    let gemm_flops = 2.0 * (rows * fan_in * c_out) as f64;
    let gram_flops = 2.0 * (rows * fan_in * fan_in) as f64;

    let (a144, a576) = captured_a_factors(w, seed, train_ds);
    let ql = |m: &Matrix| {
        math::decompose_factor_with(m, EigenSolver::TridiagonalQl).expect("QL converges")
    };
    let eig_ql_s_n144 = time_s(10 * reps, || ql(&a144));
    let eig_ql_s_n576 = time_s(2 * reps, || ql(&a576));
    let policy = RandEigPolicy::default();
    let rand = || math::decompose_factor_randomized(&a576, &policy).expect("randomized eig");
    let eig_rand_s_n576 = time_s(5 * reps, rand);
    let rank = rand().truncated_rank().unwrap_or(a576.rows());

    const SPANS: usize = 20_000;
    let span_s = {
        let registry = Registry::new();
        let _guard = registry.install(0);
        time_s(3 * reps, || {
            for _ in 0..SPANS {
                drop(black_box(Span::enter("bench/span")));
            }
        })
    };

    Micro {
        gemm_gflops: gemm_flops / gemm_s / 1e9,
        gram_gflops: gram_flops / gram_s / 1e9,
        gram_bf16_gflops: gram_flops / gram_bf16_s / 1e9,
        eig_ql_ms_n144: eig_ql_s_n144 * 1e3,
        eig_ql_ms_n576: eig_ql_s_n576 * 1e3,
        eig_rand_ms_n576: eig_rand_s_n576 * 1e3,
        eig_rand_rank_n576: rank as f64,
        span_ns: span_s / SPANS as f64 * 1e9,
    }
}

/// Forward + backward FLOPs of one iteration on one rank, computed from
/// the K-FAC-eligible layers (conv and linear; BatchNorm, ReLU and
/// pooling are not counted): forward, weight gradient and input
/// gradient are one `rows × dim_A × dim_G` GEMM each.
pub fn nn_flops_per_iter(w: &Workload) -> f64 {
    let mut model = w.model_builder()(0);
    let mut layers = Vec::new();
    model.collect_kfac(&mut layers);
    layers
        .iter()
        .map(|l| {
            let (a, g) = l.factor_dims();
            let name = l.kfac_name();
            // Output resolution by stage: stem and s0 at full size, each
            // later stage halves it; the classifier sees one row per sample.
            let side = match name.split('.').next() {
                Some("fc") => 1,
                Some("s1") => w.image.div_ceil(2),
                Some("s2") => w.image.div_ceil(4),
                _ => w.image,
            };
            let rows = w.local_batch * side * side;
            // Linear's A factor carries a bias column that is not a GEMM column.
            let a = if name == "fc" { a - 1 } else { a };
            3.0 * 2.0 * (rows * a * g) as f64
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::by_name;

    #[test]
    fn flop_count_matches_a_hand_count_of_resnet20() {
        let w = by_name("sgd").unwrap();
        // Per-sample, per-position MACs: stem 27·16; s0: 6 convs 144·16;
        // s1: 144·32 + 5·288·32 + down 16·32 at 8×8; s2: 288·64 +
        // 5·576·64 + down 32·64 at 4×4; fc 64·10.
        let macs = 256 * (27 * 16 + 6 * 144 * 16)
            + 64 * (144 * 32 + 5 * 288 * 32 + 16 * 32)
            + 16 * (288 * 64 + 5 * 576 * 64 + 32 * 64)
            + 640;
        assert_eq!(nn_flops_per_iter(&w), (6 * 16 * macs) as f64);
    }
}
