//! Gauss–Jordan matrix inverse with partial pivoting.
//!
//! An `f64`-accumulated reference inverse: the property tests of the
//! Kronecker identities and of the `kfac` crate's f32 explicit-inverse
//! path (the paper's `K-FAC w/ Inverse` variant, Table I) compare
//! against it.

use crate::{LinAlgError, Matrix};

/// Invert a square matrix via Gauss–Jordan elimination with partial
/// pivoting, accumulating in `f64`.
///
/// # Errors
/// [`LinAlgError::Singular`] when a pivot underflows relative tolerance.
///
/// # Panics
/// Panics if the matrix is not square.
pub fn invert(a: &Matrix) -> Result<Matrix, LinAlgError> {
    assert!(a.is_square(), "invert requires a square matrix");
    let n = a.rows();
    if n == 0 {
        return Ok(Matrix::zeros(0, 0));
    }

    // Augmented system [M | I] in f64.
    let mut m: Vec<f64> = a.as_slice().iter().map(|&x| x as f64).collect();
    let mut inv: Vec<f64> = vec![0.0; n * n];
    for i in 0..n {
        inv[i * n + i] = 1.0;
    }

    let scale: f64 = m
        .iter()
        .fold(0.0f64, |acc, &x| acc.max(x.abs()))
        .max(f64::MIN_POSITIVE);
    let tol = 1e-12 * scale;

    for col in 0..n {
        // Partial pivot: the row with the largest |entry| in this column.
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

        // Normalize the pivot row.
        let p = m[col * n + col];
        for c in 0..n {
            m[col * n + c] /= p;
            inv[col * n + c] /= p;
        }

        // Eliminate the column everywhere else.
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

    Ok(Matrix::from_vec(
        n,
        n,
        inv.into_iter().map(|x| x as f32).collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    #[test]
    fn inverse_of_identity() {
        let i = Matrix::identity(5);
        assert!(invert(&i).unwrap().max_abs_diff(&i) < 1e-7);
    }

    #[test]
    fn known_2x2() {
        // [[1,2],[3,4]]⁻¹ = [[-2,1],[1.5,-0.5]]
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let inv = invert(&a).unwrap();
        let expect = Matrix::from_rows(&[&[-2.0, 1.0], &[1.5, -0.5]]);
        assert!(inv.max_abs_diff(&expect) < 1e-5);
    }

    #[test]
    fn random_round_trip() {
        let mut rng = Rng64::new(31);
        for n in [1, 3, 8, 25] {
            // Diagonally dominant ⇒ far from singular.
            let mut a = Matrix::from_vec(n, n, (0..n * n).map(|_| rng.normal_f32()).collect());
            a.add_diag(n as f32);
            let inv = invert(&a).unwrap();
            let prod = a.matmul(&inv);
            assert!(prod.max_abs_diff(&Matrix::identity(n)) < 1e-3, "n={}", n);
        }
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        // Leading entry zero forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let inv = invert(&a).unwrap();
        assert!(inv.max_abs_diff(&a) < 1e-6); // this permutation is an involution
    }

    #[test]
    fn singular_is_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(invert(&a).unwrap_err(), LinAlgError::Singular);
    }
}
