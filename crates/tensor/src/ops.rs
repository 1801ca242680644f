//! Element-wise and BLAS-1 style operations on matrices and slices.
//!
//! These are the small kernels the K-FAC update is assembled from: scaled
//! running-average accumulation of factors (Eq. 16–17), damping
//! (`M + γI`, Eq. 11), and the norms used by KL-clipping (Eq. 18).

use crate::Matrix;

impl Matrix {
    /// `self += other`, element-wise.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in add_assign");
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += b;
        }
    }

    /// `self *= s`, element-wise scale.
    pub fn scale(&mut self, s: f32) {
        for a in self.as_mut_slice() {
            *a *= s;
        }
    }

    /// `self = alpha * other + beta * self` (matrix AXPBY).
    ///
    /// With `alpha = ξ`, `beta = 1 − ξ` this is exactly the running-average
    /// update the paper applies to the Kronecker factors (Eq. 16–17).
    pub fn axpby(&mut self, alpha: f32, other: &Matrix, beta: f32) {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in axpby");
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a = alpha * b + beta * *a;
        }
    }

    /// Add `gamma` to every diagonal entry: the Tikhonov damping
    /// `M + γI` of Eq. 11.
    pub fn add_diag(&mut self, gamma: f32) {
        assert!(self.is_square(), "add_diag requires a square matrix");
        let n = self.rows();
        for i in 0..n {
            self[(i, i)] += gamma;
        }
    }

    /// Frobenius norm, accumulated in `f64` to avoid cancellation on large
    /// matrices.
    pub fn frobenius_norm(&self) -> f32 {
        self.as_slice()
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>()
            .sqrt() as f32
    }

    /// Largest absolute entry.
    pub fn max_abs(&self) -> f32 {
        self.as_slice().iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().map(|&x| x as f64).sum::<f64>() as f32
    }

    /// Frobenius inner product `⟨self, other⟩ = Σ selfᵢⱼ otherᵢⱼ`,
    /// accumulated in `f64`. Used by the KL-clip statistic
    /// `Σ |Ĝᵢᵀ ∇Lᵢ|` of Eq. 18.
    pub fn dot(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape(), "shape mismatch in dot");
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum::<f64>() as f32
    }

    /// Element-wise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let data = self.as_slice().iter().map(|&x| f(x)).collect();
        Matrix::from_vec(self.rows(), self.cols(), data)
    }

    /// Build the rank-one outer-product matrix `u vᵀ` (used to form the
    /// `v_G v_Aᵀ + γ` denominator of Eq. 14).
    pub fn outer(u: &[f32], v: &[f32]) -> Matrix {
        let mut m = Matrix::zeros(u.len(), v.len());
        for (i, &ui) in u.iter().enumerate() {
            let row = m.row_mut(i);
            for (j, &vj) in v.iter().enumerate() {
                row[j] = ui * vj;
            }
        }
        m
    }

    /// Maximum absolute element-wise difference against `other`.
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(
            self.shape(),
            other.shape(),
            "shape mismatch in max_abs_diff"
        );
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .fold(0.0f32, |m, (&a, &b)| m.max((a - b).abs()))
    }
}

/// BLAS-1 helpers over plain slices (parameter vectors in the optimizers).
pub mod slice {
    /// Dot product with `f64` accumulation.
    pub fn dot(x: &[f32], y: &[f32]) -> f32 {
        assert_eq!(x.len(), y.len(), "length mismatch in dot");
        x.iter()
            .zip(y)
            .map(|(&a, &b)| a as f64 * b as f64)
            .sum::<f64>() as f32
    }

    /// Euclidean norm with `f64` accumulation.
    pub fn nrm2(x: &[f32]) -> f32 {
        x.iter().map(|&a| a as f64 * a as f64).sum::<f64>().sqrt() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m2() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])
    }

    #[test]
    fn add_and_scale() {
        let mut a = m2();
        a.add_assign(&m2());
        assert_eq!(a[(1, 1)], 8.0);
        a.scale(0.5);
        assert_eq!(a[(0, 0)], 1.0);
    }

    #[test]
    fn axpby_is_running_average() {
        // With xi = 0.9 the update must equal 0.9*new + 0.1*old (Eq. 16).
        let mut old = Matrix::filled(2, 2, 10.0);
        let new = Matrix::filled(2, 2, 20.0);
        old.axpby(0.9, &new, 0.1);
        assert!((old[(0, 0)] - 19.0).abs() < 1e-6);
    }

    #[test]
    fn add_diag_damps_only_diagonal() {
        let mut a = m2();
        a.add_diag(0.5);
        assert_eq!(a[(0, 0)], 1.5);
        assert_eq!(a[(0, 1)], 2.0);
        assert_eq!(a[(1, 1)], 4.5);
    }

    #[test]
    fn norms() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-6);
        assert_eq!(a.max_abs(), 4.0);
        assert_eq!(a.sum(), 7.0);
    }

    #[test]
    fn dot_and_diff() {
        let a = m2();
        let b = m2();
        assert!((a.dot(&b) - 30.0).abs() < 1e-6);
        assert_eq!(a.max_abs_diff(&b), 0.0);
    }

    #[test]
    fn outer_product() {
        let d = Matrix::outer(&[1.0, 2.0], &[3.0, 4.0]);
        assert_eq!(d[(1, 0)], 6.0);
        assert_eq!(d[(1, 1)], 8.0);
    }

    #[test]
    fn map_applies_elementwise() {
        let a = m2().map(|x| x * x);
        assert_eq!(a[(1, 1)], 16.0);
    }

    #[test]
    fn slice_kernels() {
        let x = [1.0f32, 2.0, 3.0];
        assert!((slice::dot(&x, &x) - 14.0).abs() < 1e-6);
        assert!((slice::nrm2(&[3.0, 4.0]) - 5.0).abs() < 1e-6);
    }
}
