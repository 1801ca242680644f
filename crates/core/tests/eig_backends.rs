//! Cross-backend eigensolver agreement on K-FAC-shaped factors.
//!
//! The two factor backends — tridiagonal QL and the randomized truncated
//! range-finder — and the cyclic-Jacobi oracle (`kfac_tensor::eigh`) must
//! be interchangeable from the preconditioner's point of view.
//! Eigenvectors are only defined up to
//! sign (and rotation inside degenerate clusters), so agreement is
//! checked on the invariants that matter downstream: the spectral
//! reconstruction `Q diag(λ) Qᵀ` and the preconditioned gradient.

use kfac::config::RandEigPolicy;
use kfac::math::{decompose_factor_randomized, decompose_factor_with, precondition_eigen};
use kfac::EigenSolver;
use kfac_tensor::{eigh, EigenDecomposition, Matrix, Rng64};
use proptest::prelude::*;

/// K-FAC-shaped factor of dimension `n`: a damped Gram matrix
/// `XᵀX + εI` where row `i` of the Gaussian `X` is scaled by
/// `spectrum[i]` — so the factor's eigenvalues follow `spectrum²` up to
/// rotation, just like activation/gradient covariances with their
/// characteristic decaying-plus-clustered shape.
fn shaped_factor(n: usize, spectrum: &[f64], seed: u64) -> Matrix {
    assert_eq!(spectrum.len(), n);
    let mut rng = Rng64::new(seed);
    let mut x = Matrix::from_vec(n, n, (0..n * n).map(|_| rng.normal_f32()).collect());
    for (i, &scale) in spectrum.iter().enumerate() {
        let s = scale as f32;
        for v in x.row_mut(i) {
            *v *= s;
        }
    }
    let mut a = x.gram();
    a.add_diag(1e-4);
    a
}

/// Geometrically decaying mode scales (most K-FAC factors late in
/// training).
fn decaying_spectrum(n: usize, decay: f64) -> Vec<f64> {
    (0..n).map(|i| decay.powi(i as i32)).collect()
}

/// Two-cluster spectrum: a dominant head and a weak bulk (early-training
/// factors whose activations are still nearly isotropic per cluster).
fn clustered_spectrum(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| if i < n.div_ceil(8) { 1.0 } else { 0.05 })
        .collect()
}

/// `Q diag(λ₊) Qᵀ` — the operator the eigen path actually uses
/// (eigenvalues clamped at zero exactly as `precondition_eigen` does).
fn reconstruct(e: &EigenDecomposition) -> Matrix {
    let mut scaled = e.eigenvectors.clone();
    for i in 0..scaled.rows() {
        let row = scaled.row_mut(i);
        for (j, v) in row.iter_mut().enumerate() {
            *v *= e.eigenvalues[j].max(0.0);
        }
    }
    scaled.matmul_nt(&e.eigenvectors)
}

/// Frobenius norm of the difference.
fn frob_diff(a: &Matrix, b: &Matrix) -> f64 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| {
            let d = (x - y) as f64;
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

fn frob(a: &Matrix) -> f64 {
    a.as_slice()
        .iter()
        .map(|&x| x as f64 * x as f64)
        .sum::<f64>()
        .sqrt()
}

/// Policy that exercises real truncation even on small test factors,
/// on the rank schedule (16 → 32 → … → n/2) the error budgets below were
/// set on; the default cap of n/8 is a speed crossover, not an accuracy
/// one.
fn eager_policy() -> RandEigPolicy {
    RandEigPolicy {
        min_dim: 1,
        mass_threshold: 0.999,
        max_rank_frac: 0.5,
        ..Default::default()
    }
}

/// The oracle: cyclic Jacobi on the symmetrized factor.
fn jacobi(f: &Matrix) -> EigenDecomposition {
    let mut m = f.clone();
    m.symmetrize();
    eigh(&m).expect("jacobi")
}

/// The oracle and both backends over one factor, same order as returned
/// tuple.
fn all_backends(f: &Matrix) -> [EigenDecomposition; 3] {
    [
        jacobi(f),
        decompose_factor_with(f, EigenSolver::TridiagonalQl).expect("ql"),
        decompose_factor_randomized(f, &eager_policy()).expect("randomized"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Spectral reconstruction agreement across the full 1–200
    /// dimension range on both characteristic spectrum shapes: the
    /// exact backends reproduce the factor to FP32 round-off, and the
    /// randomized backend reproduces it to round-off plus its own
    /// (small, mass-bounded) truncation residual.
    #[test]
    fn backends_agree_on_spectral_reconstruction(
        dim in 1usize..201,
        seed in 1u64..1_000,
        shape in 0usize..2,
    ) {
        let spectrum = if shape == 0 {
            decaying_spectrum(dim, 0.85)
        } else {
            clustered_spectrum(dim)
        };
        let f = shaped_factor(dim, &spectrum, seed);
        let scale = frob(&f).max(1e-6);
        let [jacobi, ql, rand] = all_backends(&f);

        // Exact backends: tight reconstruction.
        for (name, e) in [("jacobi", &jacobi), ("ql", &ql)] {
            let err = frob_diff(&reconstruct(e), &f) / scale;
            prop_assert!(err < 5e-4, "{name} reconstruction error {err}");
        }

        // Randomized: reconstruction differs from exact only by the
        // discarded spectral mass (≤ 0.1% of the trace by policy) plus
        // round-off. Bound against the trace since Σλᵢ = tr F.
        let trace: f64 = f.trace() as f64;
        let err = frob_diff(&reconstruct(&rand), &f);
        let budget = 0.001 * trace + 5e-4 * scale + 1e-5;
        prop_assert!(
            err <= budget,
            "randomized reconstruction error {err} > budget {budget} (dim {dim})"
        );

        // And its kept Ritz values must match the exact spectrum's top
        // modes (both ascend, so the top modes end each list).
        let kept = rand.eigenvalues.len();
        let top = kept.min(4);
        for k in 0..top {
            let exact = ql.eigenvalues[dim - 1 - k] as f64;
            let approx = rand.eigenvalues[kept - 1 - k] as f64;
            prop_assert!(
                (exact - approx).abs() <= 1e-3 * exact.abs().max(1e-3),
                "top-{k} Ritz value {approx} vs exact {exact} (dim {dim})"
            );
        }
    }

    /// The property the preconditioner relies on: at high captured mass
    /// the randomized-truncated decomposition preconditions gradients to
    /// within a small relative tolerance of the exact backends.
    #[test]
    fn randomized_preconditioning_matches_exact_at_high_mass(
        dim_g in 32usize..160,
        seed in 1u64..1_000,
        gamma in 0.01f32..0.2,
    ) {
        let g = shaped_factor(dim_g, &decaying_spectrum(dim_g, 0.85), seed);
        let a = shaped_factor(6, &decaying_spectrum(6, 0.9), seed ^ 0xA5A5);
        let mut rng = Rng64::new(seed.wrapping_mul(7919));
        let grad = Matrix::from_vec(
            dim_g,
            6,
            (0..dim_g * 6).map(|_| rng.normal_f32()).collect(),
        );

        let exact = precondition_eigen(
            &decompose_factor_with(&a, EigenSolver::TridiagonalQl).expect("ql a"), &decompose_factor_with(&g, EigenSolver::TridiagonalQl).expect("ql g"),
            &grad,
            gamma,
        );
        // "High captured mass": the preconditioner divides discarded
        // modes by γ instead of λ+γ, so the residual error scales with
        // λ_discarded/γ — demand 99.99% capture to keep that small for
        // the whole γ range under test.
        let tight = RandEigPolicy {
            mass_threshold: 0.9999,
            ..eager_policy()
        };
        let approx = precondition_eigen(
            &decompose_factor_randomized(&a, &tight).expect("rand a"), &decompose_factor_randomized(&g, &tight).expect("rand g"),
            &grad,
            gamma,
        );
        let rel = frob_diff(&approx, &exact) / frob(&exact).max(1e-9);
        prop_assert!(rel < 0.05, "preconditioned gradient rel error {rel} (dim {dim_g})");
    }
}

/// Deterministic spot checks on the range boundaries (proptest samples
/// the interior; the paper's ResNet factor dims hit these exactly).
#[test]
fn boundary_dims_reconstruct_under_every_backend() {
    for dim in [1usize, 2, 3, 200] {
        let f = shaped_factor(dim, &decaying_spectrum(dim, 0.8), 42 + dim as u64);
        let scale = frob(&f).max(1e-6);
        let trace = f.trace() as f64;
        let [jacobi, ql, rand] = all_backends(&f);
        for e in [&jacobi, &ql] {
            assert!(frob_diff(&reconstruct(e), &f) / scale < 5e-4, "dim {dim}");
        }
        let err = frob_diff(&reconstruct(&rand), &f);
        assert!(
            err <= 0.001 * trace + 5e-4 * scale + 1e-5,
            "dim {dim} randomized err {err}"
        );
    }
}

/// Rank-deficient PSD factors — the tiny-batch capture shape, where a
/// Gram of 16 rows leaves `n − 16` exactly-degenerate zero eigenvalues.
/// Inside that cluster the eigenvectors are arbitrary, so the exact
/// backends are compared where it matters: the preconditioned gradient
/// of QL (the default) against the Jacobi oracle.
#[test]
fn rank_deficient_factors_precondition_alike_under_ql_and_jacobi() {
    fn gram(rows: usize, n: usize, seed: u64) -> Matrix {
        let mut rng = Rng64::new(seed);
        let x = Matrix::from_vec(rows, n, (0..rows * n).map(|_| rng.normal_f32()).collect());
        let mut f = x.gram();
        f.scale(1.0 / rows as f32);
        f
    }
    for (dim_a, dim_g) in [(144usize, 16usize), (288, 64)] {
        let a = gram(16, dim_a, 5);
        let g = gram(16, dim_g, 6);
        let mut rng = Rng64::new(7);
        let grad = Matrix::from_vec(
            dim_g,
            dim_a,
            (0..dim_g * dim_a).map(|_| rng.normal_f32()).collect(),
        );
        let precondition = |solve: &dyn Fn(&Matrix) -> EigenDecomposition| {
            let (ea, eg) = (solve(&a), solve(&g));
            assert_eq!(ea.truncated_rank(), None, "exact solvers never truncate");
            precondition_eigen(&ea, &eg, &grad, 1e-3)
        };
        let ql =
            precondition(&|f| decompose_factor_with(f, EigenSolver::TridiagonalQl).expect("ql"));
        let oracle = precondition(&jacobi);
        let rel = frob_diff(&ql, &oracle) / frob(&oracle);
        assert!(rel < 1e-3, "dims ({dim_a}, {dim_g}): rel diff {rel}");
    }
}
