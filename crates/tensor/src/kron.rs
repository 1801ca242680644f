//! Kronecker products and the vec-trick identities of §II-C.
//!
//! K-FAC approximates each layer's Fisher block as `F̂ᵢ = A_{i−1} ⊗ Gᵢ`
//! (Eq. 5) and never materializes the product: preconditioning uses
//! `(A ⊗ B) vec(X) = vec(A X Bᵀ)` (row-major vec; the paper's Eq. 10 is the
//! same identity in its convention). These helpers materialize the product
//! and the identity explicitly so the fast paths in the `kfac` crate can be
//! property-tested against dense ground truth, exactly as the paper verifies
//! its update rule algebraically.

use crate::Matrix;

/// Dense Kronecker product `A ⊗ B` (Eq. 6).
///
/// For `A : m×n` and `B : p×q` the result is `(mp)×(nq)`; entry
/// `((i·p+k), (j·q+l)) = A[i,j] · B[k,l]`.
pub fn kron(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, n) = a.shape();
    let (p, q) = b.shape();
    let mut out = Matrix::zeros(m * p, n * q);
    for i in 0..m {
        for j in 0..n {
            let aij = a[(i, j)];
            if aij == 0.0 {
                continue;
            }
            for k in 0..p {
                let brow = b.row(k);
                let orow = out.row_mut(i * p + k);
                for (l, &bkl) in brow.iter().enumerate() {
                    orow[j * q + l] = aij * bkl;
                }
            }
        }
    }
    out
}

/// Apply `(A ⊗ B)` to `vec(X)` *without* materializing the Kronecker
/// product, via the identity `(A ⊗ B) vec(X) = vec(A X Bᵀ)` (row-major
/// vec). `X` must be `A.cols() × B.cols()`.
///
/// This is the trick that makes K-FAC preconditioning cost two small GEMMs
/// instead of one gigantic matvec (Eq. 10).
pub fn kron_matvec(a: &Matrix, b: &Matrix, x: &Matrix) -> Matrix {
    assert_eq!(x.rows(), a.cols(), "kron_matvec: X rows must equal A cols");
    assert_eq!(x.cols(), b.cols(), "kron_matvec: X cols must equal B cols");
    a.matmul(&x.matmul_nt(b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    fn random(rows: usize, cols: usize, rng: &mut Rng64) -> Matrix {
        Matrix::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|_| rng.normal_f32()).collect(),
        )
    }

    #[test]
    fn paper_example_eq7() {
        // The worked example in Eq. 7 of the paper.
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0], &[9.0, 0.0]]);
        let k = kron(&a, &b);
        assert_eq!(k.shape(), (6, 4));
        let expect = Matrix::from_rows(&[
            &[5.0, 6.0, 10.0, 12.0],
            &[7.0, 8.0, 14.0, 16.0],
            &[9.0, 0.0, 18.0, 0.0],
            &[15.0, 18.0, 20.0, 24.0],
            &[21.0, 24.0, 28.0, 32.0],
            &[27.0, 0.0, 36.0, 0.0],
        ]);
        assert_eq!(k, expect);
    }

    #[test]
    fn kron_with_identity() {
        let mut rng = Rng64::new(41);
        let a = random(3, 3, &mut rng);
        let k = kron(&Matrix::identity(2), &a);
        // Block diagonal with two copies of a.
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(k[(i, j)], a[(i, j)]);
                assert_eq!(k[(3 + i, 3 + j)], a[(i, j)]);
                assert_eq!(k[(i, 3 + j)], 0.0);
            }
        }
    }

    #[test]
    fn vec_trick_matches_dense_kron() {
        let mut rng = Rng64::new(42);
        let a = random(3, 4, &mut rng);
        let b = random(2, 5, &mut rng);
        let x = random(4, 5, &mut rng);
        let fast = kron_matvec(&a, &b, &x);
        // Row-major storage is the row-major vec(X).
        let dense = kron(&a, &b).matvec(x.as_slice());
        assert_eq!(fast.shape(), (3, 2));
        for (f, d) in fast.as_slice().iter().zip(&dense) {
            assert!((f - d).abs() < 1e-4, "{} vs {}", f, d);
        }
    }

    #[test]
    fn kron_inverse_identity_eq8() {
        // (A ⊗ B)⁻¹ = A⁻¹ ⊗ B⁻¹ (Eq. 8), checked densely.
        let mut rng = Rng64::new(43);
        let mut a = random(3, 3, &mut rng);
        a.add_diag(3.0);
        let mut b = random(2, 2, &mut rng);
        b.add_diag(2.0);
        let lhs = crate::inverse::invert(&kron(&a, &b)).unwrap();
        let rhs = kron(
            &crate::inverse::invert(&a).unwrap(),
            &crate::inverse::invert(&b).unwrap(),
        );
        assert!(lhs.max_abs_diff(&rhs) < 1e-3);
    }

    #[test]
    fn kron_mixed_product_property() {
        // (A⊗B)(C⊗D) = (AC)⊗(BD)
        let mut rng = Rng64::new(44);
        let a = random(2, 3, &mut rng);
        let b = random(2, 2, &mut rng);
        let c = random(3, 2, &mut rng);
        let d = random(2, 3, &mut rng);
        let lhs = kron(&a, &b).matmul(&kron(&c, &d));
        let rhs = kron(&a.matmul(&c), &b.matmul(&d));
        assert!(lhs.max_abs_diff(&rhs) < 1e-4);
    }
}
