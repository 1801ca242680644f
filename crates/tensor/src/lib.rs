//! # kfac-tensor
//!
//! Dense linear-algebra substrate for the `kfac-rs` reproduction of
//! *Convolutional Neural Network Training with Distributed K-FAC*
//! (Pauloski et al., SC 2020).
//!
//! The paper's K-FAC preconditioner is built from a small set of dense
//! kernels, all of which are implemented here from scratch:
//!
//! * [`Matrix`] — row-major dense `f32` matrix with cache-blocked,
//!   rayon-parallel GEMM ([`matmul`](Matrix::matmul)) and Gram-matrix
//!   kernels ([`gram`](Matrix::gram)) used for Kronecker-factor
//!   computation (`A = āāᵀ`, `G = ggᵀ`). Every product in the tree is a
//!   call into the one packed engine, [`gemm`].
//! * [`half`] — the bf16 vocabulary ([`Dtype`], the scalar conversions)
//!   and [`HalfMatrix`], two names the benchmark calls: values rounded to
//!   bf16 precision, held and multiplied as `f32`.
//! * [`tridiag`] — symmetric eigendecomposition via Householder
//!   tridiagonalization, then divide and conquer (implicit-shift QL on
//!   small matrices), the workhorse of the paper's
//!   *inverse-free* preconditioning path (Equations 13–15); [`eigen`]
//!   holds the cyclic Jacobi solver kept as its backstop and test oracle,
//!   [`randeig`] the randomized truncated route for factors with
//!   decaying spectra (Puiu, arXiv:2206.15397).
//! * [`inverse`] — Gauss–Jordan inverse with partial pivoting, accumulated
//!   in `f64`: the reference the explicit-inverse path's tests compare
//!   against. That path itself (Equation 11, Table I) runs in the `kfac`
//!   crate, deliberately in `f32` (`math::invert_factor`).
//! * [`kron`] — dense Kronecker products (Equations 6–8), used as ground
//!   truth in tests of the `(A ⊗ B) vec(X) = vec(A X Bᵀ)` identity.
//! * [`rng`] / [`init`] — deterministic xoshiro256++ RNG, Box–Muller
//!   normal sampling and Kaiming/Xavier initializers.
//! * [`tensor4`] — a minimal NCHW tensor for the neural-network substrate.
//!
//! All kernels compute in `f32` (matching the paper's FP32 training,
//! §VI-A) except where noted: the eigensolvers work in `f64` for
//! stability and round the results back to `f32`.

pub mod arena;
pub mod eigen;
pub mod gemm;
pub mod half;
pub mod init;
pub mod inverse;
pub mod kron;
pub mod matmul;
pub mod matrix;
pub mod ops;
pub mod randeig;
pub mod rng;
pub mod tensor4;
pub mod tridiag;

pub use eigen::{eigh, EigenDecomposition};
pub use half::{bf16_to_f32, f32_to_bf16, Dtype, HalfMatrix};
pub use inverse::invert;
pub use kron::kron;
pub use matrix::Matrix;
pub use randeig::{eigh_randomized, RandEig, RandEigOptions};
pub use rng::Rng64;
pub use tensor4::Tensor4;
pub use tridiag::{eigh_exact, eigh_tridiag};

/// Errors produced by numeric routines that can fail for data-dependent
/// reasons (shape mismatches, by contrast, are programming errors and panic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinAlgError {
    /// The matrix is singular (or numerically singular) and cannot be
    /// inverted or factorized.
    Singular,
    /// A Cholesky factorization (the `kfac` crate's f32 explicit inverse)
    /// failed because the matrix is not positive definite.
    NotPositiveDefinite,
    /// An iterative method (a QL, secular-equation or Jacobi solve) failed to converge
    /// within its iteration budget.
    NotConverged,
    /// The input holds a NaN or an infinity; no iteration was attempted.
    NonFinite,
}

impl std::fmt::Display for LinAlgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinAlgError::Singular => write!(f, "matrix is singular"),
            LinAlgError::NotPositiveDefinite => {
                write!(f, "matrix is not positive definite")
            }
            LinAlgError::NotConverged => {
                write!(f, "iterative method failed to converge")
            }
            LinAlgError::NonFinite => write!(f, "matrix has a non-finite entry"),
        }
    }
}

impl std::error::Error for LinAlgError {}
