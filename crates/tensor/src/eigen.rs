//! Symmetric eigendecomposition via cyclic Jacobi sweeps.
//!
//! The paper's optimized preconditioner never inverts the Kronecker factors
//! explicitly; it eigendecomposes them (`A = Q_A Λ_A Q_Aᵀ`,
//! `G = Q_G Λ_G Q_Gᵀ`) and applies Equations 13–15. On the authors'
//! platform this is `torch.symeig` on a V100, which MAGMA computes by the
//! `?syevd` route — Householder reduction, divide and conquer on the
//! tridiagonal, blocked back-transform; here the production solver is
//! [`crate::tridiag`], which takes the same route (QL rotations below a
//! crossover), and this from-scratch cyclic Jacobi solver is its backstop
//! and its test oracle.
//!
//! Jacobi is simple to make robust (it converges on anything symmetric
//! and finite) and embarrassingly accurate for the symmetric
//! positive-semidefinite matrices K-FAC produces (relative eigenvalue error
//! near machine epsilon) — the properties an oracle needs. Its ~`10 n³`
//! sweeps are 10–100× slower than the exact solver at every factor
//! dimension in `BENCH_eig.json`, so it is not a selectable backend: it
//! runs when that solver fails to converge, in `xp bench-eig`'s oracle
//! column, and in tests.
//!
//! The solver works on an `f64` copy for numerical headroom and rounds the
//! results to `f32`.

use crate::{arena, LinAlgError, Matrix};

/// `A ≈ Q · diag(λ) · Qᵀ` with `r ≤ n` orthonormal columns in the `n × r`
/// matrix `Q`. Every exact solver returns `r = n`; the randomized
/// backend ([`crate::randeig`]) returns the top `r` pairs only, and the
/// shape is what says so.
#[derive(Debug, Clone)]
pub struct EigenDecomposition {
    /// The `r` eigenvalues, in ascending order.
    pub eigenvalues: Vec<f32>,
    /// Orthonormal eigenvectors (`n × r`); column `j` pairs with
    /// `eigenvalues[j]`.
    pub eigenvectors: Matrix,
}

impl EigenDecomposition {
    /// Reconstruct `Q · diag(λ) · Qᵀ` (test/diagnostic helper).
    pub fn reconstruct(&self) -> Matrix {
        let q = &self.eigenvectors;
        let n = q.rows();
        let mut scaled = q.clone(); // scaled[:, j] = λ_j q[:, j]
        for i in 0..n {
            let row = scaled.row_mut(i);
            for (j, v) in row.iter_mut().enumerate() {
                *v *= self.eigenvalues[j];
            }
        }
        scaled.matmul_nt(q)
    }

    /// Serialize as `[r / 256, r % 256, eigenvalues..., eigenvectors
    /// row-major...]` — the frame the distributed K-FAC step allgathers in
    /// Algorithm 1 line 18. Every wire is f32, which carries any rank
    /// exactly; the rank still travels as two base-256 digits so that the
    /// Eigen payload keeps its pinned bytes (the frame dates from a bf16
    /// wire, which kept only eight significant bits of a word).
    pub fn to_bytes_f32(&self) -> Vec<f32> {
        let (n, r) = self.eigenvectors.shape();
        assert!(r < 1 << 16, "rank {r} does not fit two base-256 digits");
        let mut out = Vec::with_capacity(Self::wire_len(n, r));
        out.extend_from_slice(&[(r / 256) as f32, (r % 256) as f32]);
        out.extend_from_slice(&self.eigenvalues);
        out.extend_from_slice(self.eigenvectors.as_slice());
        out
    }

    /// Decode the frame that starts `data` for a factor of dimension
    /// `n`; also returns the words that follow it. `None` when the words
    /// are not a frame: a rank digit that is not an integer in `0..256`,
    /// a rank above `n`, or fewer words than that rank needs.
    pub fn from_bytes_f32(n: usize, data: &[f32]) -> Option<(Self, &[f32])> {
        let digit = |w: &f32| (0.0..256.0).contains(w) && w.fract() == 0.0;
        let r = match data {
            [hi, lo, ..] if digit(hi) && digit(lo) => *hi as usize * 256 + *lo as usize,
            _ => return None,
        };
        if r > n || data.len() < Self::wire_len(n, r) {
            return None;
        }
        let (frame, rest) = data.split_at(Self::wire_len(n, r));
        let eig = EigenDecomposition {
            eigenvalues: frame[2..2 + r].to_vec(),
            eigenvectors: Matrix::from_vec(n, r, frame[2 + r..].to_vec()),
        };
        Some((eig, rest))
    }

    /// Number of `f32` words in the frame of a rank-`r` basis of
    /// dimension `n`.
    pub fn wire_len(n: usize, r: usize) -> usize {
        2 + r + n * r
    }

    /// `Some(r)` when the basis is short (`r < n` columns: the randomized
    /// backend kept only the top `r` modes), `None` when it is complete.
    pub fn truncated_rank(&self) -> Option<usize> {
        let (n, r) = self.eigenvectors.shape();
        (r < n).then_some(r)
    }
}

/// Reject NaN/∞ input up front (`O(n²)`): the iterative solvers cannot
/// converge on it, and would only find out after their whole budget.
pub(crate) fn check_finite(a: &Matrix) -> Result<(), LinAlgError> {
    if a.as_slice().iter().all(|v| v.is_finite()) {
        Ok(())
    } else {
        Err(LinAlgError::NonFinite)
    }
}

/// Maximum number of full Jacobi sweeps before giving up. Converging
/// symmetric matrices almost always finish in 6–12 sweeps.
const MAX_SWEEPS: usize = 50;

/// Symmetric eigendecomposition of `a`.
///
/// # Panics
/// Panics if `a` is not square. Asymmetry beyond float noise is a caller
/// bug; callers should [`Matrix::symmetrize`] first (the K-FAC factor code
/// does).
///
/// # Errors
/// Returns [`LinAlgError::NonFinite`] if `a` holds a NaN or infinity, and
/// [`LinAlgError::NotConverged`] if the off-diagonal mass fails to
/// vanish within the sweep budget (pathological inputs only).
pub fn eigh(a: &Matrix) -> Result<EigenDecomposition, LinAlgError> {
    assert!(a.is_square(), "eigh requires a square matrix");
    check_finite(a)?;
    let n = a.rows();
    if n == 0 {
        return Ok(EigenDecomposition {
            eigenvalues: vec![],
            eigenvectors: Matrix::zeros(0, 0),
        });
    }

    // Work in f64, in arena-recycled workspace: the two n×n buffers are
    // the solver's only large transients, and factor shapes repeat every
    // update interval, so steady-state eigendecompositions reuse them.
    let mut m = arena::take_f64(n * n);
    for (d, &s) in m.iter_mut().zip(a.as_slice()) {
        *d = s as f64;
    }
    let mut q = arena::take_f64(n * n);
    q.fill(0.0);
    for i in 0..n {
        q[i * n + i] = 1.0;
    }

    let idx = |i: usize, j: usize| i * n + j;
    let frob: f64 = m.iter().map(|&x| x * x).sum::<f64>().sqrt();
    // Absolute tolerance on off-diagonal entries, scaled by matrix norm.
    let tol = 1e-14 * frob.max(1e-300);

    let mut converged = false;
    for _sweep in 0..MAX_SWEEPS {
        let mut off = 0.0f64;
        for i in 0..n {
            for j in (i + 1)..n {
                off += m[idx(i, j)] * m[idx(i, j)];
            }
        }
        if off.sqrt() <= tol {
            converged = true;
            break;
        }

        for p in 0..n {
            for qq in (p + 1)..n {
                let apq = m[idx(p, qq)];
                if apq.abs() <= tol / (n as f64) {
                    continue;
                }
                let app = m[idx(p, p)];
                let aqq = m[idx(qq, qq)];
                let theta = (aqq - app) / (2.0 * apq);
                // Stable tangent of the rotation angle.
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;

                // Apply the rotation J(p,q,θ)ᵀ M J(p,q,θ) in place.
                for k in 0..n {
                    let mkp = m[idx(k, p)];
                    let mkq = m[idx(k, qq)];
                    m[idx(k, p)] = c * mkp - s * mkq;
                    m[idx(k, qq)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[idx(p, k)];
                    let mqk = m[idx(qq, k)];
                    m[idx(p, k)] = c * mpk - s * mqk;
                    m[idx(qq, k)] = s * mpk + c * mqk;
                }
                // Accumulate the eigenvector basis: Q ← Q · J.
                for k in 0..n {
                    let qkp = q[idx(k, p)];
                    let qkq = q[idx(k, qq)];
                    q[idx(k, p)] = c * qkp - s * qkq;
                    q[idx(k, qq)] = s * qkp + c * qkq;
                }
            }
        }
    }

    if !converged {
        // One final check: tiny matrices may converge exactly on the last sweep.
        let mut off = 0.0f64;
        for i in 0..n {
            for j in (i + 1)..n {
                off += m[idx(i, j)] * m[idx(i, j)];
            }
        }
        if off.sqrt() > tol.max(1e-10 * frob) {
            arena::recycle_f64(m);
            arena::recycle_f64(q);
            return Err(LinAlgError::NotConverged);
        }
    }

    // Extract, sort ascending, round to f32.
    let mut order: Vec<usize> = (0..n).collect();
    let diag: Vec<f64> = (0..n).map(|i| m[idx(i, i)]).collect();
    order.sort_by(|&a, &b| diag[a].total_cmp(&diag[b]));

    let eigenvalues: Vec<f32> = order.iter().map(|&i| diag[i] as f32).collect();
    let mut eigenvectors = Matrix::zeros(n, n);
    for (new_j, &old_j) in order.iter().enumerate() {
        for i in 0..n {
            eigenvectors[(i, new_j)] = q[idx(i, old_j)] as f32;
        }
    }
    arena::recycle_f64(m);
    arena::recycle_f64(q);

    Ok(EigenDecomposition {
        eigenvalues,
        eigenvectors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    fn random_symmetric(n: usize, rng: &mut Rng64) -> Matrix {
        let data: Vec<f32> = (0..n * n).map(|_| rng.normal_f32()).collect();
        let mut a = Matrix::from_vec(n, n, data);
        let at = a.transpose();
        a.add_assign(&at);
        a.scale(0.5);
        a
    }

    fn random_spd(n: usize, rng: &mut Rng64) -> Matrix {
        // XᵀX + εI is SPD — the same construction as a damped K-FAC factor.
        let x = Matrix::from_vec(2 * n, n, (0..2 * n * n).map(|_| rng.normal_f32()).collect());
        let mut a = x.gram();
        a.scale(1.0 / (2 * n) as f32);
        a.add_diag(1e-3);
        a
    }

    #[test]
    fn diagonal_matrix_is_its_own_decomposition() {
        let a = Matrix::from_diag(&[3.0, 1.0, 2.0]);
        let e = eigh(&a).unwrap();
        assert_eq!(e.eigenvalues, vec![1.0, 2.0, 3.0]);
        // Eigenvectors are (signed, permuted) identity columns.
        let recon = e.reconstruct();
        assert!(recon.max_abs_diff(&a) < 1e-5);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let e = eigh(&a).unwrap();
        assert!((e.eigenvalues[0] - 1.0).abs() < 1e-5);
        assert!((e.eigenvalues[1] - 3.0).abs() < 1e-5);
    }

    #[test]
    fn reconstruction_random_symmetric() {
        let mut rng = Rng64::new(11);
        for n in [1, 2, 3, 5, 17, 64] {
            let a = random_symmetric(n, &mut rng);
            let e = eigh(&a).unwrap();
            let recon = e.reconstruct();
            let scale = a.max_abs().max(1.0);
            assert!(
                recon.max_abs_diff(&a) < 1e-4 * scale,
                "n={} diff={}",
                n,
                recon.max_abs_diff(&a)
            );
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let mut rng = Rng64::new(12);
        let a = random_symmetric(33, &mut rng);
        let e = eigh(&a).unwrap();
        let qtq = e.eigenvectors.matmul_tn(&e.eigenvectors);
        assert!(qtq.max_abs_diff(&Matrix::identity(33)) < 1e-5);
    }

    #[test]
    fn spd_eigenvalues_positive() {
        let mut rng = Rng64::new(13);
        let a = random_spd(24, &mut rng);
        let e = eigh(&a).unwrap();
        assert!(e.eigenvalues.iter().all(|&l| l > 0.0));
        // Ascending order.
        for w in e.eigenvalues.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn eigh_inverse_matches_direct_inverse_action() {
        // A⁻¹ x computed via Q Λ⁻¹ Qᵀ x must solve A y = x.
        let mut rng = Rng64::new(14);
        let a = random_spd(12, &mut rng);
        let e = eigh(&a).unwrap();
        let x: Vec<f32> = (0..12).map(|_| rng.normal_f32()).collect();
        // y = Q Λ⁻¹ Qᵀ x
        let qtx = e.eigenvectors.transpose().matvec(&x);
        let scaled: Vec<f32> = qtx
            .iter()
            .zip(&e.eigenvalues)
            .map(|(&v, &l)| v / l)
            .collect();
        let y = e.eigenvectors.matvec(&scaled);
        let ay = a.matvec(&y);
        for (ai, xi) in ay.iter().zip(&x) {
            assert!((ai - xi).abs() < 1e-3, "A·A⁻¹x ≠ x: {} vs {}", ai, xi);
        }
    }

    #[test]
    fn wire_format_round_trip() {
        let mut rng = Rng64::new(15);
        let a = random_symmetric(9, &mut rng);
        let e = eigh(&a).unwrap();
        let wire = e.to_bytes_f32();
        assert_eq!(wire.len(), EigenDecomposition::wire_len(9, 9));
        let (back, rest) = EigenDecomposition::from_bytes_f32(9, &wire).unwrap();
        assert!(rest.is_empty());
        assert_eq!(back.eigenvalues, e.eigenvalues);
        assert_eq!(back.eigenvectors, e.eigenvectors);
    }

    #[test]
    fn words_that_are_not_a_frame_are_refused() {
        let e = eigh(&Matrix::from_diag(&[3.0, 1.0, 2.0])).unwrap();
        let wire = e.to_bytes_f32();
        let refused = |w: &[f32]| EigenDecomposition::from_bytes_f32(3, w).is_none();
        assert!(refused(&wire[..wire.len() - 1]), "short frame");
        assert!(refused(&wire[..1]), "no rank");
        for bad in [f32::NAN, f32::INFINITY, -1.0, 2.5, 256.0, 4.0] {
            let mut w = wire.clone();
            w[1] = bad;
            assert!(refused(&w), "rank digit {bad}");
        }
        let mut w = wire.clone();
        w[0] = 1.0; // rank 259 of 3
        assert!(refused(&w));
        // Trailing words are the caller's: handed back, not consumed.
        let mut w = wire.clone();
        w.push(7.0);
        assert_eq!(EigenDecomposition::from_bytes_f32(3, &w).unwrap().1, [7.0]);
    }

    #[test]
    fn empty_matrix() {
        let e = eigh(&Matrix::zeros(0, 0)).unwrap();
        assert!(e.eigenvalues.is_empty());
    }

    #[test]
    fn trace_is_preserved() {
        let mut rng = Rng64::new(16);
        let a = random_symmetric(21, &mut rng);
        let e = eigh(&a).unwrap();
        let sum: f32 = e.eigenvalues.iter().sum();
        assert!((sum - a.trace()).abs() < 1e-3 * a.trace().abs().max(1.0));
    }
}
