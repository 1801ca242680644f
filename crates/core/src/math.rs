//! The K-FAC preconditioning math: Equations 11–15 and 18.
//!
//! The weight gradient of layer `i` is the `dim_G × dim_A` matrix
//! `∇L`. Its Fisher block is `F̂ᵢ = Aᵢ₋₁ ⊗ Gᵢ` (Eq. 5); with the
//! row-major vec convention used throughout this codebase the damped
//! preconditioner acts as
//!
//! ```text
//! vec(precond) = (G ⊗ A + γI)⁻¹ vec(∇L)
//! ```
//!
//! which the two paths evaluate as:
//!
//! * **Eigen** (Eq. 13–15): `V₁ = Q_Gᵀ ∇L Q_A`,
//!   `V₂ = V₁ ⊘ (v_G v_Aᵀ + γ)`, `precond = Q_G V₂ Q_Aᵀ` — *exact* for
//!   the damped Kronecker product, no explicit inverse ever formed.
//! * **Explicit inverse** (Eq. 11–12):
//!   `precond = (G + γI)⁻¹ ∇L (A + γI)⁻¹` — the variant whose
//!   accuracy degrades at large batch in Table I (it dampens each factor
//!   separately, a different and cruder regularization).

use crate::config::{EigenSolver, RandEigPolicy};
use crate::distribution::FactorKind;
use kfac_tensor::gemm::{gemm_into, Packed, Side, View};
use kfac_tensor::{
    arena, eigh_exact, eigh_randomized, EigenDecomposition, LinAlgError, Matrix, RandEigOptions,
};

/// Eigendecompose one (symmetrized) factor with the default backend
/// (tridiagonal QL).
pub fn decompose_factor(factor: &Matrix) -> Result<EigenDecomposition, LinAlgError> {
    decompose_factor_with(factor, EigenSolver::TridiagonalQl)
}

/// Eigendecompose one (symmetrized) factor with an explicit backend.
pub fn decompose_factor_with(
    factor: &Matrix,
    solver: EigenSolver,
) -> Result<EigenDecomposition, LinAlgError> {
    let mut m = factor.clone();
    m.symmetrize();
    match solver {
        EigenSolver::TridiagonalQl => eigh_exact(&m),
        EigenSolver::Randomized => decompose_symmetrized_randomized(&m, &RandEigPolicy::default()),
    }
}

/// Eigendecompose one (symmetrized) factor with the randomized backend
/// under an explicit adaptive-rank policy (the preconditioner passes
/// `KfacConfig::rand_eig`).
pub fn decompose_factor_randomized(
    factor: &Matrix,
    policy: &RandEigPolicy,
) -> Result<EigenDecomposition, LinAlgError> {
    let mut m = factor.clone();
    m.symmetrize();
    decompose_symmetrized_randomized(&m, policy)
}

/// Adaptive-rank randomized decomposition of an already-symmetrized
/// factor: start at `policy.initial_rank(n)`, double until the captured
/// spectral mass reaches `policy.mass_threshold`, and fall back to the
/// exact QL path (Jacobi backstop) on small factors, rank-cap
/// exhaustion, or sketch failure — so the *worst* case of this backend
/// is exactly the exact backend, never something less accurate.
fn decompose_symmetrized_randomized(
    m: &Matrix,
    policy: &RandEigPolicy,
) -> Result<EigenDecomposition, LinAlgError> {
    let n = m.rows();
    if n < policy.min_dim {
        return eigh_exact(m);
    }
    let max_rank = policy.max_rank(n);
    let mut rank = policy.initial_rank(n).min(max_rank);
    loop {
        let opts = RandEigOptions {
            rank,
            oversample: policy.oversample,
            power_iters: policy.power_iters,
            seed: policy.seed,
        };
        match eigh_randomized(m, &opts) {
            Ok(re) if re.captured_mass >= policy.mass_threshold => return Ok(re.eig),
            Ok(_) if rank < max_rank => rank = (rank * 2).min(max_rank),
            // Capture stalled at the rank cap (slow spectrum) or the
            // small dense solve failed: exact fallback.
            _ => return eigh_exact(m),
        }
    }
}

/// Explicitly invert one damped factor in single precision.
///
/// Deliberately FP32 end-to-end (Cholesky with f32 accumulation,
/// Gauss–Jordan f32 fallback): this mirrors `torch.inverse` on the
/// paper's V100s, whose conditioning error on ill-conditioned factors is
/// precisely what Table I blames for the explicit-inverse variant's
/// accuracy loss ("the FIM approximation can be ill-conditioned for
/// inverting", §II-C). Computing this in f64 would erase the phenomenon
/// the paper measures.
pub fn invert_factor(factor: &Matrix, damping: f32) -> Result<Matrix, LinAlgError> {
    let mut m = factor.clone();
    m.symmetrize();
    m.add_diag(damping);
    match spd_inverse_f32(&m) {
        Ok(inv) => Ok(inv),
        Err(_) => invert_f32(&m),
    }
}

/// FP32 Cholesky factorization + inverse (no f64 accumulation).
fn spd_inverse_f32(a: &Matrix) -> Result<Matrix, LinAlgError> {
    let n = a.rows();
    // Factor: A = L Lᵀ, all arithmetic f32.
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if sum <= 0.0 {
                    return Err(LinAlgError::NotPositiveDefinite);
                }
                l[(i, j)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    // Invert by f32 forward/back substitution against identity columns.
    let mut inv = Matrix::zeros(n, n);
    let mut y = vec![0.0f32; n];
    let mut x = vec![0.0f32; n];
    for col in 0..n {
        for i in 0..n {
            let mut sum = if i == col { 1.0f32 } else { 0.0 };
            for k in 0..i {
                sum -= l[(i, k)] * y[k];
            }
            y[i] = sum / l[(i, i)];
        }
        for i in (0..n).rev() {
            let mut sum = y[i];
            for k in (i + 1)..n {
                sum -= l[(k, i)] * x[k];
            }
            x[i] = sum / l[(i, i)];
            inv[(i, col)] = x[i];
        }
    }
    inv.symmetrize();
    Ok(inv)
}

/// FP32 Gauss–Jordan inverse with partial pivoting (fallback).
fn invert_f32(a: &Matrix) -> Result<Matrix, LinAlgError> {
    let n = a.rows();
    let mut m: Vec<f32> = a.as_slice().to_vec();
    let mut inv: Vec<f32> = vec![0.0; n * n];
    for i in 0..n {
        inv[i * n + i] = 1.0;
    }
    let scale = m.iter().fold(0.0f32, |acc, &x| acc.max(x.abs())).max(1e-30);
    let tol = 1e-6 * scale;
    for col in 0..n {
        let mut pivot_row = col;
        let mut pivot_val = m[col * n + col].abs();
        for r in (col + 1)..n {
            let v = m[r * n + col].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = r;
            }
        }
        if pivot_val <= tol {
            return Err(LinAlgError::Singular);
        }
        if pivot_row != col {
            for c in 0..n {
                m.swap(col * n + c, pivot_row * n + c);
                inv.swap(col * n + c, pivot_row * n + c);
            }
        }
        let p = m[col * n + col];
        for c in 0..n {
            m[col * n + c] /= p;
            inv[col * n + c] /= p;
        }
        for r in 0..n {
            if r == col {
                continue;
            }
            let f = m[r * n + col];
            if f == 0.0 {
                continue;
            }
            for c in 0..n {
                m[r * n + c] -= f * m[col * n + c];
                inv[r * n + c] -= f * inv[col * n + c];
            }
        }
    }
    Ok(Matrix::from_vec(n, n, inv))
}

/// An eigenbasis as the preconditioner holds it: the decomposition, and
/// its `n × r` basis packed, once, in the two panel layouts the products
/// of [`precondition_bases`] read it in — `Q_A` for the right side of
/// `T·Q_A` and `U·Q_Aᵀ`, `Q_G` for the left side of `Q_Gᵀ·∇L` and `Q_G·V`.
/// The packs are derived state: built wherever a basis is installed,
/// never sent or saved.
pub struct Basis {
    pub eig: EigenDecomposition,
    packs: [Packed; 2],
}

impl Basis {
    /// `eig`, the decomposition of a factor of `kind`, with its packs.
    pub fn new(kind: FactorKind, eig: EigenDecomposition) -> Self {
        let q = &eig.eigenvectors;
        let (n, r) = q.shape();
        let (plain, t) = (View::new(q.as_slice(), n, r), View::t(q.as_slice(), n, r));
        let packs = match kind {
            FactorKind::A => [Packed::of(Side::Right, plain), Packed::of(Side::Right, t)],
            FactorKind::G => [Packed::of(Side::Left, t), Packed::of(Side::Left, plain)],
        };
        Basis { eig, packs }
    }
}

/// Eigen-path preconditioned gradient (Eq. 13–15) from the
/// eigendecompositions `a` of the activation factor and `g` of the
/// gradient factor: [`precondition_bases`] over bases packed for this
/// one call.
pub fn precondition_eigen(
    a: &EigenDecomposition,
    g: &EigenDecomposition,
    grad: &Matrix,
    damping: f32,
) -> Matrix {
    let a = Basis::new(FactorKind::A, a.clone());
    let g = Basis::new(FactorKind::G, g.clone());
    precondition_bases(&a, &g, grad, damping)
}

/// Eigen-path preconditioned gradient (Eq. 13–15) from the bases `a` of
/// the activation factor and `g` of the gradient factor, each an `n × r`
/// basis with `r ≤ n`, read from the packs they were installed with.
///
/// A short basis (`r < n`, the randomized backend) spans the modes that
/// were kept; the discarded ones all carry eigenvalue ≈ 0, so every
/// Kronecker-mode pair touching the complement shares the damped
/// denominator γ. Writing the result as the all-γ answer `∇L/γ` plus a
/// correction inside `span(Q_G) ⊗ span(Q_A)` gives
/// `P = ∇L/γ + Q_G (V₁ ⊙ C) Q_Aᵀ` with
/// `C_ij = 1/(λ_Gi λ_Aj + γ) − 1/γ = −λ_Gi λ_Aj / (γ (λ_Gi λ_Aj + γ))`,
/// evaluated in the second form, which does not cancel. Two complete
/// bases take the plain `Q_G (V₁ ⊘ (λ_G λ_Aᵀ + γ)) Q_Aᵀ`, operation for
/// operation what it has always been. Warm, the call allocates only the
/// matrix it returns.
pub fn precondition_bases(a: &Basis, g: &Basis, grad: &Matrix, damping: f32) -> Matrix {
    let (dg, da) = grad.shape();
    let (ea, eg) = (&a.eig, &g.eig);
    assert_eq!(eg.eigenvectors.rows(), dg, "G dimension mismatch");
    assert_eq!(ea.eigenvectors.rows(), da, "A dimension mismatch");
    let (rg, ra) = (eg.eigenvectors.cols(), ea.eigenvectors.cols());
    let short = ea.truncated_rank().is_some() || eg.truncated_rank().is_some();

    // V₁ = Q_Gᵀ ∇L Q_A (r_G × r_A)
    let mut t = arena::take_matrix(rg, da);
    gemm_into(
        g.packs[0].view(),
        View::new(grad.as_slice(), dg, da),
        t.as_mut_slice(),
    );
    let mut v = arena::take_matrix(rg, ra);
    gemm_into(
        View::new(t.as_slice(), rg, da),
        a.packs[0].view(),
        v.as_mut_slice(),
    );
    arena::recycle_matrix(t);

    // V₂ = V₁ ⊘ (v_G v_Aᵀ + γ), or V₁ ⊙ C. Clamp eigenvalues at zero:
    // factors are PSD in exact arithmetic; tiny negative round-off must
    // not flip the sign of the damped denominator.
    for (i, &lg) in eg.eigenvalues.iter().enumerate() {
        let lg = lg.max(0.0);
        for (x, &la) in v.row_mut(i).iter_mut().zip(&ea.eigenvalues) {
            let s = lg * la.max(0.0);
            if short {
                *x *= -s / (damping * (s + damping));
            } else {
                *x /= s + damping;
            }
        }
    }

    let mut u = arena::take_matrix(dg, ra);
    gemm_into(
        g.packs[1].view(),
        View::new(v.as_slice(), rg, ra),
        u.as_mut_slice(),
    );
    arena::recycle_matrix(v);
    let mut out = Matrix::zeros(dg, da);
    gemm_into(
        View::new(u.as_slice(), dg, ra),
        a.packs[1].view(),
        out.as_mut_slice(),
    );
    arena::recycle_matrix(u);
    if short {
        for (o, raw) in out.as_mut_slice().iter_mut().zip(grad.as_slice()) {
            *o += raw / damping;
        }
    }
    out
}

/// Explicit-inverse-path preconditioned gradient (Eq. 12) from
/// `a_inv = (A + γI)⁻¹` and `g_inv = (G + γI)⁻¹`.
pub fn precondition_inverse(a_inv: &Matrix, g_inv: &Matrix, grad: &Matrix) -> Matrix {
    g_inv.matmul(grad).matmul(a_inv)
}

/// The KL-clip scale ν of Eq. 18:
/// `ν = min(1, √(κ / (lr² Σᵢ |⟨precondᵢ, ∇Lᵢ⟩|)))`.
///
/// `pairs` iterates `(preconditioned, raw_gradient)` per layer. All ranks
/// hold identical gradients (post-allreduce), so ν is identical everywhere
/// with no extra communication.
pub fn kl_clip_nu<'a>(
    pairs: impl Iterator<Item = (&'a Matrix, &'a Matrix)>,
    kappa: f32,
    lr: f32,
) -> f32 {
    let mut vg_sum = 0.0f64;
    for (precond, grad) in pairs {
        vg_sum += (precond.dot(grad) * lr * lr).abs() as f64;
    }
    if vg_sum <= 0.0 {
        return 1.0;
    }
    ((kappa as f64 / vg_sum).sqrt() as f32).min(1.0)
}

/// `precondition_eigen` as it was while a short basis was stored
/// `n × n` with exact-zero leading columns: the full-size
/// `Q_G · X · Q_Aᵀ` product run twice, once for `V₂` and once for the
/// complement `(∇L − Q_G V₁ Q_Aᵀ)/γ`. The reference the compact body is
/// held to.
#[cfg(test)]
mod oracle {
    use kfac_tensor::{EigenDecomposition, Matrix};

    /// The `n × n` layout the randomized solver used to emit: the kept
    /// pairs in the trailing slots, exact zeros before them.
    fn padded(e: &EigenDecomposition) -> EigenDecomposition {
        let (n, r) = e.eigenvectors.shape();
        let mut eigenvalues = vec![0.0f32; n];
        eigenvalues[n - r..].copy_from_slice(&e.eigenvalues);
        let mut eigenvectors = Matrix::zeros(n, n);
        for i in 0..n {
            eigenvectors.row_mut(i)[n - r..].copy_from_slice(e.eigenvectors.row(i));
        }
        EigenDecomposition {
            eigenvalues,
            eigenvectors,
        }
    }

    pub fn precondition_eigen(
        a: &EigenDecomposition,
        g: &EigenDecomposition,
        grad: &Matrix,
        damping: f32,
    ) -> Matrix {
        let truncated = g.truncated_rank().is_some() || a.truncated_rank().is_some();
        let (a, g) = (padded(a), padded(g));
        let dg = grad.rows();

        let v1 = g.eigenvectors.matmul_tn(grad).matmul(&a.eigenvectors);
        let complement = truncated.then(|| {
            let mut proj = g.eigenvectors.matmul(&v1).matmul_nt(&a.eigenvectors);
            let inv_gamma = 1.0 / damping;
            for (p, raw) in proj.as_mut_slice().iter_mut().zip(grad.as_slice()) {
                *p = (raw - *p) * inv_gamma;
            }
            proj
        });
        let mut v2 = v1;
        for i in 0..dg {
            let lg = g.eigenvalues[i].max(0.0);
            let row = v2.row_mut(i);
            for (j, v) in row.iter_mut().enumerate() {
                let la = a.eigenvalues[j].max(0.0);
                *v /= lg * la + damping;
            }
        }
        let mut out = g.eigenvectors.matmul(&v2).matmul_nt(&a.eigenvectors);
        if let Some(c) = complement {
            for (o, r) in out.as_mut_slice().iter_mut().zip(c.as_slice()) {
                *o += *r;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfac_tensor::{kron, Rng64};

    fn random_spd(n: usize, rng: &mut Rng64) -> Matrix {
        let x = Matrix::from_vec(2 * n, n, (0..2 * n * n).map(|_| rng.normal_f32()).collect());
        let mut a = x.gram();
        a.scale(1.0 / (2 * n) as f32);
        a
    }

    fn random_matrix(r: usize, c: usize, rng: &mut Rng64) -> Matrix {
        Matrix::from_vec(r, c, (0..r * c).map(|_| rng.normal_f32()).collect())
    }

    /// Dense ground truth: unvec((G ⊗ A + γI)⁻¹ vec_r(∇L)).
    fn dense_reference(a: &Matrix, g: &Matrix, grad: &Matrix, gamma: f32) -> Matrix {
        let mut big = kron(g, a);
        big.add_diag(gamma);
        let inv = kfac_tensor::invert(&big).unwrap();
        let v = inv.matvec(grad.as_slice());
        Matrix::from_vec(grad.rows(), grad.cols(), v)
    }

    #[test]
    fn eigen_path_matches_dense_kronecker_inverse() {
        let mut rng = Rng64::new(1);
        let a = random_spd(4, &mut rng);
        let g = random_spd(3, &mut rng);
        let grad = random_matrix(3, 4, &mut rng);
        let gamma = 0.05;

        let (ea, eg) = (decompose_factor(&a).unwrap(), decompose_factor(&g).unwrap());
        let fast = precondition_eigen(&ea, &eg, &grad, gamma);
        let dense = dense_reference(&a, &g, &grad, gamma);
        assert!(
            fast.max_abs_diff(&dense) < 1e-3,
            "diff {}",
            fast.max_abs_diff(&dense)
        );
    }

    #[test]
    fn inverse_path_matches_separately_damped_kronecker() {
        // Explicit path = (G+γI)⁻¹ ⊗ (A+γI)⁻¹ — a *different* operator
        // than the eigen path's (G⊗A + γI)⁻¹.
        let mut rng = Rng64::new(2);
        let a = random_spd(3, &mut rng);
        let g = random_spd(2, &mut rng);
        let grad = random_matrix(2, 3, &mut rng);
        let gamma = 0.1;

        let (a_inv, g_inv) = (
            invert_factor(&a, gamma).unwrap(),
            invert_factor(&g, gamma).unwrap(),
        );
        let fast = precondition_inverse(&a_inv, &g_inv, &grad);

        let mut ad = a.clone();
        ad.add_diag(gamma);
        let mut gd = g.clone();
        gd.add_diag(gamma);
        let big = kron(
            &kfac_tensor::invert(&gd).unwrap(),
            &kfac_tensor::invert(&ad).unwrap(),
        );
        let v = big.matvec(grad.as_slice());
        let dense = Matrix::from_vec(2, 3, v);
        assert!(fast.max_abs_diff(&dense) < 1e-3);
    }

    #[test]
    fn paths_agree_when_damping_is_negligible() {
        // With well-conditioned factors and tiny γ both paths approximate
        // (G ⊗ A)⁻¹ and must nearly agree.
        let mut rng = Rng64::new(3);
        let mut a = random_spd(4, &mut rng);
        a.add_diag(1.0);
        let mut g = random_spd(3, &mut rng);
        g.add_diag(1.0);
        let grad = random_matrix(3, 4, &mut rng);
        let gamma = 1e-6;

        let e = precondition_eigen(
            &decompose_factor(&a).unwrap(),
            &decompose_factor(&g).unwrap(),
            &grad,
            gamma,
        );
        let i = precondition_inverse(
            &invert_factor(&a, gamma).unwrap(),
            &invert_factor(&g, gamma).unwrap(),
            &grad,
        );
        assert!(e.max_abs_diff(&i) < 1e-2, "diff {}", e.max_abs_diff(&i));
    }

    #[test]
    fn identity_factors_scale_by_inverse_damped_one() {
        // A = G = I: precond = grad / (1 + γ).
        let a = Matrix::identity(3);
        let g = Matrix::identity(2);
        let mut rng = Rng64::new(4);
        let grad = random_matrix(2, 3, &mut rng);
        let gamma = 0.5;
        let out = precondition_eigen(
            &decompose_factor(&a).unwrap(),
            &decompose_factor(&g).unwrap(),
            &grad,
            gamma,
        );
        let mut expect = grad.clone();
        expect.scale(1.0 / 1.5);
        assert!(out.max_abs_diff(&expect) < 1e-5);
    }

    #[test]
    fn negative_roundoff_eigenvalues_are_clamped() {
        // A PSD factor with an exactly-zero mode: eigenvalue may come out
        // as −1e-9; the damped denominator must stay ≥ γ.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]); // rank 1
        let g = Matrix::identity(2);
        let grad = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let out = precondition_eigen(
            &decompose_factor(&a).unwrap(),
            &decompose_factor(&g).unwrap(),
            &grad,
            0.01,
        );
        assert!(out.as_slice().iter().all(|v| v.is_finite()));
        assert!(out.max_abs() <= 1.0 / 0.01 + 1.0);
    }

    #[test]
    fn kl_clip_caps_at_one_and_scales_down() {
        let mut rng = Rng64::new(5);
        let p = random_matrix(3, 3, &mut rng);
        let g = p.clone();
        // Huge product → ν < 1.
        let nu_small = kl_clip_nu([(&p, &g)].into_iter(), 1e-3, 1.0);
        assert!(nu_small < 1.0);
        // Tiny lr → ν = 1.
        let nu_one = kl_clip_nu([(&p, &g)].into_iter(), 1e-3, 1e-6);
        assert_eq!(nu_one, 1.0);
        // Zero grads → ν = 1 (no NaN).
        let z = Matrix::zeros(2, 2);
        assert_eq!(kl_clip_nu([(&z, &z)].into_iter(), 1e-3, 0.1), 1.0);
    }

    /// SPD factor with geometrically decaying spectrum: Gram of a
    /// column-scaled Gaussian plus a small diagonal ridge.
    fn decaying_spd(n: usize, decay: f64, seed: u64) -> Matrix {
        let mut rng = Rng64::new(seed);
        let mut x = Matrix::from_vec(n, n, (0..n * n).map(|_| rng.normal_f32()).collect());
        for i in 0..n {
            let s = decay.powi(i as i32) as f32;
            for v in x.row_mut(i) {
                *v *= s;
            }
        }
        let mut a = x.gram();
        a.add_diag(1e-5);
        a
    }

    /// The top `r` modes of a decomposition (eigenvalues ascend, so the
    /// last `r` columns): what the randomized backend returns.
    fn top_modes(e: &EigenDecomposition, r: usize) -> EigenDecomposition {
        let (n, full) = e.eigenvectors.shape();
        let mut eigenvectors = Matrix::zeros(n, r);
        for i in 0..n {
            eigenvectors
                .row_mut(i)
                .copy_from_slice(&e.eigenvectors.row(i)[full - r..]);
        }
        EigenDecomposition {
            eigenvalues: e.eigenvalues[full - r..].to_vec(),
            eigenvectors,
        }
    }

    #[test]
    fn compact_bases_match_the_padded_oracle_at_every_rank_pair() {
        let gamma = 0.03;
        for (case, (na, ng)) in [(27, 16), (144, 64), (577, 64)].into_iter().enumerate() {
            let mut rng = Rng64::new(40 + case as u64);
            let ea = decompose_factor(&random_spd(na, &mut rng)).unwrap();
            let eg = decompose_factor(&random_spd(ng, &mut rng)).unwrap();
            let grad = random_matrix(ng, na, &mut rng);
            for ra in [0, 1, na / 8, na] {
                for rg in [0, 1, ng / 8, ng] {
                    let (a, g) = (top_modes(&ea, ra), top_modes(&eg, rg));
                    let new = precondition_eigen(&a, &g, &grad, gamma);
                    let old = oracle::precondition_eigen(&a, &g, &grad, gamma);
                    if (ra, rg) == (na, ng) {
                        assert_eq!(new.as_slice(), old.as_slice(), "full bases: bit for bit");
                    } else {
                        let tol = 4.0 * f32::EPSILON * old.max_abs();
                        let diff = new.max_abs_diff(&old);
                        assert!(
                            diff <= tol,
                            "{na}×{ng} at ranks ({ra}, {rg}): {diff} > {tol}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rank_zero_bases_precondition_to_the_gradient_over_gamma() {
        let mut rng = Rng64::new(41);
        let full = decompose_factor(&random_spd(9, &mut rng)).unwrap();
        let none = top_modes(&decompose_factor(&random_spd(5, &mut rng)).unwrap(), 0);
        let grad = random_matrix(5, 9, &mut rng);
        let gamma = 0.07f32;
        let expect: Vec<f32> = grad.as_slice().iter().map(|v| v / gamma).collect();
        for a in [&full, &top_modes(&full, 0)] {
            let out = precondition_eigen(a, &none, &grad, gamma);
            assert_eq!(out.as_slice(), expect);
        }
    }

    /// FNV-1a over the result's bit patterns.
    fn bits_hash(m: &Matrix) -> u64 {
        m.as_slice().iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
            (h ^ u64::from(v.to_bits())).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn complete_bases_keep_the_bits_they_had_before_bases_could_be_short() {
        // Arithmetic only, so the inputs need not be eigenpairs: the hash
        // was taken from `precondition_eigen` at 91d069d, and moves only
        // if the complete-basis path (or the GEMM under it) changes an
        // operation or its order.
        let mut rng = Rng64::new(42);
        let mut basis = |n: usize| EigenDecomposition {
            eigenvalues: (0..n).map(|_| rng.normal_f32().abs()).collect(),
            eigenvectors: random_matrix(n, n, &mut rng),
        };
        let (a, g) = (basis(577), basis(64));
        let grad = random_matrix(64, 577, &mut rng);
        let out = precondition_eigen(&a, &g, &grad, 0.03);
        assert_eq!(bits_hash(&out), 0xa6c0_66c9_4a50_dd61);
    }

    #[test]
    fn truncated_pair_matches_dense_reference_when_tail_is_zero() {
        // Rank-deficient G: the dropped modes carry eigenvalue ≈ 0, so a
        // hand-truncated decomposition must reproduce the dense inverse.
        let mut rng = Rng64::new(7);
        let a = random_spd(3, &mut rng);
        let x = random_matrix(2, 4, &mut rng); // rank ≤ 2
        let g = x.matmul_tn(&x); // 4×4, rank 2
        let grad = random_matrix(4, 3, &mut rng);
        let gamma = 0.05;

        // Drop the two near-null leading modes (ascending order): the
        // randomized backend's short basis.
        let ge = top_modes(&decompose_factor(&g).unwrap(), 2);
        assert_eq!(ge.truncated_rank(), Some(2));

        let (ea, eg) = (decompose_factor(&a).unwrap(), ge);
        let fast = precondition_eigen(&ea, &eg, &grad, gamma);
        let dense = dense_reference(&a, &g, &grad, gamma);
        assert!(
            fast.max_abs_diff(&dense) < 1e-3,
            "diff {}",
            fast.max_abs_diff(&dense)
        );
    }

    #[test]
    fn randomized_backend_preconditions_close_to_exact_at_high_mass() {
        let g = decaying_spd(96, 0.82, 11);
        let a = {
            let mut rng = Rng64::new(12);
            random_spd(5, &mut rng)
        };
        let mut rng = Rng64::new(13);
        let grad = random_matrix(96, 5, &mut rng);
        let gamma = 0.03;

        // The error bound below was set with the rank free to double to
        // 32 of 96; the default cap would stop it at 12.
        let policy = crate::config::RandEigPolicy {
            min_dim: 1,
            mass_threshold: 0.999,
            max_rank_frac: 0.5,
            ..Default::default()
        };
        let ge = decompose_factor_randomized(&g, &policy).unwrap();
        let rank = ge.truncated_rank().expect("decay spectrum should truncate");
        assert!(rank < 96, "rank {rank} should be below full dimension");

        let exact = precondition_eigen(
            &decompose_factor(&a).unwrap(),
            &decompose_factor(&g).unwrap(),
            &grad,
            gamma,
        );
        let approx = precondition_eigen(&decompose_factor(&a).unwrap(), &ge, &grad, gamma);
        let rel = approx.max_abs_diff(&exact) / exact.max_abs().max(1e-12);
        assert!(rel < 0.05, "relative precondition error {rel}");
    }

    #[test]
    fn randomized_backend_falls_back_to_exact_on_flat_spectrum() {
        // Near-identity factor: no low-rank structure, so the adaptive
        // loop must exhaust its rank cap and hand back the exact result.
        let mut g = {
            let mut rng = Rng64::new(14);
            random_spd(100, &mut rng)
        };
        g.scale(1e-3);
        g.add_diag(1.0); // eigenvalues clustered near 1 → flat spectrum
        let policy = crate::config::RandEigPolicy {
            min_dim: 1,
            mass_threshold: 0.999,
            max_rank_frac: 0.25,
            ..Default::default()
        };
        let e = decompose_factor_randomized(&g, &policy).unwrap();
        assert_eq!(e.truncated_rank(), None, "flat spectrum must go exact");
        let exact = decompose_factor(&g).unwrap();
        let lmax = exact.eigenvalues.last().copied().unwrap();
        let emax = e.eigenvalues.last().copied().unwrap();
        assert!((lmax - emax).abs() / lmax < 1e-4);
    }

    #[test]
    fn eigen_path_reduces_to_sgd_direction_scaling() {
        // Preconditioning with the true Fisher block of an isotropic
        // problem must keep the gradient direction (up to scaling).
        let mut rng = Rng64::new(6);
        let a = Matrix::identity(4);
        let g = Matrix::identity(3);
        let grad = random_matrix(3, 4, &mut rng);
        let out = precondition_eigen(
            &decompose_factor(&a).unwrap(),
            &decompose_factor(&g).unwrap(),
            &grad,
            0.001,
        );
        // cos similarity 1.
        let dot = out.dot(&grad);
        let cos = dot / (out.frobenius_norm() * grad.frobenius_norm());
        assert!((cos - 1.0).abs() < 1e-5);
    }
}
