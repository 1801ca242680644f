//! Cholesky factorization for symmetric positive-definite matrices.
//!
//! The damped Kronecker factors `(A + γI)` and `(G + γI)` of Eq. 11 are SPD
//! by construction, so the *explicit inverse* K-FAC path (the one Table I
//! shows losing accuracy at large batch) can use Cholesky — cheaper and more
//! stable than LU for this matrix class. A general Gauss–Jordan fallback
//! lives in [`crate::inverse`].

use crate::{LinAlgError, Matrix};

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factorize an SPD matrix. Accumulates in `f64`.
    ///
    /// # Errors
    /// [`LinAlgError::NotPositiveDefinite`] when a pivot is non-positive,
    /// which for K-FAC factors signals insufficient damping.
    pub fn factor(a: &Matrix) -> Result<Self, LinAlgError> {
        assert!(a.is_square(), "cholesky requires a square matrix");
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)] as f64;
                for k in 0..j {
                    sum -= l[(i, k)] as f64 * l[(j, k)] as f64;
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(LinAlgError::NotPositiveDefinite);
                    }
                    l[(i, j)] = sum.sqrt() as f32;
                } else {
                    l[(i, j)] = (sum / l[(j, j)] as f64) as f32;
                }
            }
        }
        Ok(Cholesky { l })
    }

    /// Borrow the lower-triangular factor.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solve `A x = b` via forward + back substitution.
    // `k` indexes both the factor and the solution vector; the textbook
    // range form is clearer than iterator/enumerate contortions here.
    #[allow(clippy::needless_range_loop)]
    pub fn solve(&self, b: &[f32]) -> Vec<f32> {
        let n = self.l.rows();
        assert_eq!(b.len(), n, "rhs length mismatch");
        // Forward: L y = b
        let mut y = vec![0.0f32; n];
        for i in 0..n {
            let mut sum = b[i] as f64;
            for k in 0..i {
                sum -= self.l[(i, k)] as f64 * y[k] as f64;
            }
            y[i] = (sum / self.l[(i, i)] as f64) as f32;
        }
        // Backward: Lᵀ x = y
        let mut x = vec![0.0f32; n];
        for i in (0..n).rev() {
            let mut sum = y[i] as f64;
            for k in (i + 1)..n {
                sum -= self.l[(k, i)] as f64 * x[k] as f64;
            }
            x[i] = (sum / self.l[(i, i)] as f64) as f32;
        }
        x
    }

    /// Dense inverse `A⁻¹`, built by solving against each identity column.
    pub fn inverse(&self) -> Matrix {
        let n = self.l.rows();
        let mut inv = Matrix::zeros(n, n);
        let mut e = vec![0.0f32; n];
        for j in 0..n {
            e[j] = 1.0;
            let col = self.solve(&e);
            e[j] = 0.0;
            for i in 0..n {
                inv[(i, j)] = col[i];
            }
        }
        // The inverse of an SPD matrix is symmetric; enforce it exactly.
        inv.symmetrize();
        inv
    }
}

/// Convenience: SPD inverse in one call (factor + invert).
pub fn spd_inverse(a: &Matrix) -> Result<Matrix, LinAlgError> {
    Ok(Cholesky::factor(a)?.inverse())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    fn random_spd(n: usize, damping: f32, rng: &mut Rng64) -> Matrix {
        let x = Matrix::from_vec(2 * n, n, (0..2 * n * n).map(|_| rng.normal_f32()).collect());
        let mut a = x.gram();
        a.scale(1.0 / (2 * n) as f32);
        a.add_diag(damping);
        a
    }

    #[test]
    fn factor_known_matrix() {
        // A = [[4,2],[2,3]] → L = [[2,0],[1,sqrt(2)]]
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let ch = Cholesky::factor(&a).unwrap();
        assert!((ch.l()[(0, 0)] - 2.0).abs() < 1e-6);
        assert!((ch.l()[(1, 0)] - 1.0).abs() < 1e-6);
        assert!((ch.l()[(1, 1)] - 2.0f32.sqrt()).abs() < 1e-6);
        assert_eq!(ch.l()[(0, 1)], 0.0);
    }

    #[test]
    fn l_lt_reconstructs() {
        let mut rng = Rng64::new(21);
        let a = random_spd(16, 1e-2, &mut rng);
        let ch = Cholesky::factor(&a).unwrap();
        let recon = ch.l().matmul_nt(ch.l());
        assert!(recon.max_abs_diff(&a) < 1e-4);
    }

    #[test]
    fn solve_satisfies_system() {
        let mut rng = Rng64::new(22);
        let a = random_spd(10, 1e-2, &mut rng);
        let b: Vec<f32> = (0..10).map(|_| rng.normal_f32()).collect();
        let ch = Cholesky::factor(&a).unwrap();
        let x = ch.solve(&b);
        let ax = a.matvec(&x);
        for (l, r) in ax.iter().zip(&b) {
            assert!((l - r).abs() < 1e-3);
        }
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let mut rng = Rng64::new(23);
        let a = random_spd(12, 1e-1, &mut rng);
        let inv = spd_inverse(&a).unwrap();
        let prod = a.matmul(&inv);
        assert!(prod.max_abs_diff(&Matrix::identity(12)) < 1e-3);
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, −1
        assert_eq!(
            Cholesky::factor(&a).unwrap_err(),
            LinAlgError::NotPositiveDefinite
        );
    }
}
