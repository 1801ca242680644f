//! Matrix-product entry points, routed through the packed GEMM engine.
//!
//! On the paper's platform these products run as cuBLAS GEMMs on V100s;
//! here they run on the packed, register-tiled kernels of [`crate::gemm`]
//! (see that module for the packing/tiling/determinism story). This
//! module keeps the `Matrix`-level API: allocating wrappers (`matmul`,
//! `gram`, …) for convenience, and `_into` variants that write
//! caller-provided buffers for the zero-alloc hot paths.
//!
//! Besides general GEMM, this provides the two Gram kernels the K-FAC
//! factor computation is built from: `gram` (`AᵀA`) for activation
//! factors and `gram_nt` (`A Aᵀ`) — both computed triangle-only and
//! mirrored, so they are exactly symmetric by construction.

use crate::gemm::{gemm_into, gemm_symmetric_into, View};
use crate::Matrix;

impl Matrix {
    /// General matrix product `C = self · other`.
    ///
    /// # Panics
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(self.rows(), other.cols());
        self.matmul_into(other, &mut c);
        c
    }

    /// `C = self · other` into a reusable output matrix (reshaped in
    /// place; contents need not be initialized — first-touch write).
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols(),
            other.rows(),
            "matmul dimension mismatch: {}x{} · {}x{}",
            self.rows(),
            self.cols(),
            other.rows(),
            other.cols()
        );
        out.reset_for(self.rows(), other.cols());
        gemm_into(
            View::new(self.as_slice(), self.rows(), self.cols()),
            View::new(other.as_slice(), other.rows(), other.cols()),
            out.as_mut_slice(),
        );
    }

    /// `C = selfᵀ · other` without materializing the transpose.
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(self.cols(), other.cols());
        self.matmul_tn_into(other, &mut c);
        c
    }

    /// `C = selfᵀ · other` into a reusable output matrix.
    pub fn matmul_tn_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows(),
            other.rows(),
            "matmul_tn dimension mismatch: {}x{}ᵀ · {}x{}",
            self.rows(),
            self.cols(),
            other.rows(),
            other.cols()
        );
        out.reset_for(self.cols(), other.cols());
        gemm_into(
            View::t(self.as_slice(), self.rows(), self.cols()),
            View::new(other.as_slice(), other.rows(), other.cols()),
            out.as_mut_slice(),
        );
    }

    /// `C = self · otherᵀ` without materializing the transpose.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(self.rows(), other.rows());
        self.matmul_nt_into(other, &mut c);
        c
    }

    /// `C = self · otherᵀ` into a reusable output matrix.
    pub fn matmul_nt_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols(),
            other.cols(),
            "matmul_nt dimension mismatch: {}x{} · {}x{}ᵀ",
            self.rows(),
            self.cols(),
            other.rows(),
            other.cols()
        );
        out.reset_for(self.rows(), other.rows());
        gemm_into(
            View::new(self.as_slice(), self.rows(), self.cols()),
            View::t(other.as_slice(), other.rows(), other.cols()),
            out.as_mut_slice(),
        );
    }

    /// Gram matrix `selfᵀ · self`, the kernel behind the activation factor
    /// `A = āᵀā / batch` (rows of `self` are per-example activation rows).
    ///
    /// Only diagonal-touching and upper tiles are computed; the upper
    /// triangle is mirrored down, so the result is bitwise symmetric.
    pub fn gram(&self) -> Matrix {
        let mut g = Matrix::zeros(self.cols(), self.cols());
        self.gram_into(&mut g);
        g
    }

    /// `selfᵀ · self` into a reusable output matrix.
    pub fn gram_into(&self, out: &mut Matrix) {
        let n = self.cols();
        out.reset_for(n, n);
        gemm_symmetric_into(
            View::t(self.as_slice(), self.rows(), n),
            View::new(self.as_slice(), self.rows(), n),
            out.as_mut_slice(),
        );
    }

    /// Gram matrix `self · selfᵀ` (per-row inner products), used for the
    /// gradient factor `G = g gᵀ / batch`. Bitwise symmetric.
    pub fn gram_nt(&self) -> Matrix {
        let mut g = Matrix::zeros(self.rows(), self.rows());
        self.gram_nt_into(&mut g);
        g
    }

    /// `self · selfᵀ` into a reusable output matrix.
    pub fn gram_nt_into(&self, out: &mut Matrix) {
        let m = self.rows();
        out.reset_for(m, m);
        gemm_symmetric_into(
            View::new(self.as_slice(), m, self.cols()),
            View::t(self.as_slice(), m, self.cols()),
            out.as_mut_slice(),
        );
    }

    /// Matrix–vector product `self · x`.
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(self.cols(), x.len(), "matvec dimension mismatch");
        (0..self.rows())
            .map(|i| {
                self.row(i)
                    .iter()
                    .zip(x)
                    .map(|(&a, &b)| a as f64 * b as f64)
                    .sum::<f64>() as f32
            })
            .collect()
    }
}

/// Naive triple-loop reference multiply with `f64` accumulation — the
/// oracle the packed kernels are property-tested against.
#[doc(hidden)]
pub fn reference_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "reference_matmul dimension mismatch");
    let mut c = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0f64;
            for p in 0..a.cols() {
                acc += a[(i, p)] as f64 * b[(p, j)] as f64;
            }
            c[(i, j)] = acc as f32;
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    fn random(rows: usize, cols: usize, rng: &mut Rng64) -> Matrix {
        let data = (0..rows * cols).map(|_| rng.normal_f32()).collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn small_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = Rng64::new(1);
        let a = random(7, 7, &mut rng);
        let i = Matrix::identity(7);
        assert!(a.matmul(&i).max_abs_diff(&a) < 1e-6);
        assert!(i.matmul(&a).max_abs_diff(&a) < 1e-6);
    }

    #[test]
    fn packed_path_matches_reference() {
        let mut rng = Rng64::new(2);
        // Big enough for the packed parallel path.
        let a = random(96, 48, &mut rng);
        let b = random(48, 96, &mut rng);
        let c = a.matmul(&b);
        let r = reference_matmul(&a, &b);
        assert!(c.max_abs_diff(&r) < 1e-3, "diff {}", c.max_abs_diff(&r));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let mut rng = Rng64::new(3);
        for (m, k, n) in [(5, 9, 4), (80, 100, 70)] {
            let a = random(k, m, &mut rng);
            let b = random(k, n, &mut rng);
            let fast = a.matmul_tn(&b);
            let slow = a.transpose().matmul(&b);
            assert!(fast.max_abs_diff(&slow) < 1e-3);
        }
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let mut rng = Rng64::new(4);
        for (m, k, n) in [(5, 9, 4), (80, 100, 70)] {
            let a = random(m, k, &mut rng);
            let b = random(n, k, &mut rng);
            let fast = a.matmul_nt(&b);
            let slow = a.matmul(&b.transpose());
            assert!(fast.max_abs_diff(&slow) < 1e-3);
        }
    }

    #[test]
    fn gram_matches_tn_self() {
        let mut rng = Rng64::new(5);
        for (rows, cols) in [(6, 3), (128, 40)] {
            let a = random(rows, cols, &mut rng);
            let g = a.gram();
            let r = a.matmul_tn(&a);
            assert!(g.max_abs_diff(&r) < 2e-3);
            assert_eq!(g.asymmetry(), 0.0);
        }
    }

    #[test]
    fn gram_nt_matches_nt_self() {
        let mut rng = Rng64::new(6);
        let a = random(24, 50, &mut rng);
        let g = a.gram_nt();
        let r = a.matmul(&a.transpose());
        assert!(g.max_abs_diff(&r) < 2e-3);
        assert_eq!(g.asymmetry(), 0.0);
    }

    #[test]
    fn into_variants_reuse_storage() {
        let mut rng = Rng64::new(7);
        let a = random(40, 30, &mut rng);
        let b = random(30, 20, &mut rng);
        let mut out = Matrix::zeros(40, 20);
        let ptr = out.as_slice().as_ptr();
        a.matmul_into(&b, &mut out);
        assert_eq!(out.as_slice().as_ptr(), ptr, "no reallocation");
        assert!(out.max_abs_diff(&a.matmul(&b)) == 0.0);
        // Reuse the same buffer for a smaller product.
        a.gram_into(&mut out);
        assert_eq!(out.shape(), (30, 30));
    }

    #[test]
    fn matvec_matches_matmul() {
        let mut rng = Rng64::new(7);
        let a = random(9, 5, &mut rng);
        let x: Vec<f32> = (0..5).map(|i| i as f32 - 2.0).collect();
        let xm = Matrix::from_vec(5, 1, x.clone());
        let y = a.matvec(&x);
        let ym = a.matmul(&xm);
        for i in 0..9 {
            assert!((y[i] - ym[(i, 0)]).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn mismatched_dims_panic() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
