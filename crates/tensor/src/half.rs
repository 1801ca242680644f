//! Half-precision storage: the `bf16` scalar format and matrices of it.
//!
//! The packed GEMM engine always multiplies and accumulates in f32; what
//! it *streams* — GEMM operands, collective payloads — is bounded by
//! memory bandwidth. bf16 is the one half-width format the engine and
//! the wire share:
//!
//! * [`Dtype`] — the storage/wire format vocabulary shared by the
//!   precision policies, the fusion buffer, and the traffic accounting
//!   (every byte count in the stack routes through [`Dtype::size_of`]).
//! * Scalar conversions: `f32 ↔ bf16` (truncate-with-round-to-nearest-
//!   even on the top 16 bits; widening is exact, `bits << 16`).
//! * [`HalfMatrix`] — a `rows × cols` matrix stored as bf16 words,
//!   backed by the arena's `u16` pool. It is a storage format, not an
//!   engine (only the kernel benches store one): its products are
//!   [`gemm`](crate::gemm) calls over `View<u16>`, whose packers widen
//!   the words on the way into the same f32 panels every f32 operand
//!   uses — so for bf16-representable values a `HalfMatrix` product
//!   equals the [`Matrix`] product bit for bit.
//!
//! Numerics contract: `bf16_to_f32(f32_to_bf16(x))` is exact for every
//! bf16-representable value, and within a relative error of `2^-8` for
//! normal-range inputs — pinned by the property suite in this module and
//! in `tests/`.

use crate::arena;
use crate::gemm::{gemm_into, gemm_symmetric_into, View};
use crate::Matrix;

/// Storage / wire element format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Dtype {
    /// IEEE binary32 — the default everywhere; bitwise-identical to the
    /// pre-mixed-precision stack.
    #[default]
    F32,
    /// bfloat16: f32's exponent range, 8-bit significand.
    Bf16,
}

impl Dtype {
    /// Element size in bytes — the single helper all byte accounting
    /// (fusion thresholds, traffic counters, wire payload sizing) routes
    /// through.
    pub fn size_of(self) -> usize {
        match self {
            Dtype::F32 => 4,
            Dtype::Bf16 => 2,
        }
    }

    /// Stable lowercase label (metric names, policy parsing).
    pub fn name(self) -> &'static str {
        match self {
            Dtype::F32 => "f32",
            Dtype::Bf16 => "bf16",
        }
    }

    /// Parse the [`Dtype::name`] spelling.
    pub fn parse(s: &str) -> Option<Dtype> {
        match s {
            "f32" => Some(Dtype::F32),
            "bf16" => Some(Dtype::Bf16),
            _ => None,
        }
    }
}

/// `f32 → bf16` with round-to-nearest-even on the dropped 16 bits.
/// NaNs are quieted (keeping the sign) so a NaN never rounds to
/// infinity; values within the last half-ULP of `f32::MAX` round to
/// bf16 infinity, exactly as hardware bf16 conversion does.
#[inline(always)]
pub fn f32_to_bf16(x: f32) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        return ((bits >> 16) as u16) | 0x0040;
    }
    let round = ((bits >> 16) & 1) + 0x7FFF;
    ((bits.wrapping_add(round)) >> 16) as u16
}

/// `bf16 → f32`: exact widening (`bits << 16`).
#[inline(always)]
pub fn bf16_to_f32(h: u16) -> f32 {
    f32::from_bits((h as u32) << 16)
}

/// Round every element of `x` through bf16 storage in place — the
/// "stored at half precision" numerics without changing the container.
pub fn round_bf16_in_place(x: &mut [f32]) {
    for v in x {
        *v = bf16_to_f32(f32_to_bf16(*v));
    }
}

/// Encode a slice to bf16 words (RNE), appending onto `dst`.
pub fn encode_bf16(src: &[f32], dst: &mut Vec<u16>) {
    dst.reserve(src.len());
    for &v in src {
        dst.push(f32_to_bf16(v));
    }
}

/// A `rows × cols` row-major matrix stored as bf16 words — half the
/// bytes of a [`Matrix`], exact to widen. Storage comes from the arena's
/// `u16` pool; call [`HalfMatrix::recycle`] on the hot path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HalfMatrix {
    data: Vec<u16>,
    rows: usize,
    cols: usize,
}

impl HalfMatrix {
    /// Round an f32 matrix into bf16 storage (RNE per element).
    pub fn from_matrix(m: &Matrix) -> HalfMatrix {
        HalfMatrix::from_f32(m.as_slice(), m.rows(), m.cols())
    }

    /// Round a row-major f32 slice into bf16 storage.
    pub fn from_f32(data: &[f32], rows: usize, cols: usize) -> HalfMatrix {
        assert_eq!(data.len(), rows * cols, "half matrix shape mismatch");
        let mut buf = arena::take_u16(data.len());
        for (d, &v) in buf.iter_mut().zip(data) {
            *d = f32_to_bf16(v);
        }
        HalfMatrix {
            data: buf,
            rows,
            cols,
        }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Raw bf16 words, row-major.
    pub fn data(&self) -> &[u16] {
        &self.data
    }

    /// Widen back to f32 (exact).
    pub fn to_matrix(&self) -> Matrix {
        let mut out = arena::take_matrix(self.rows, self.cols);
        for (d, &h) in out.as_mut_slice().iter_mut().zip(&self.data) {
            *d = bf16_to_f32(h);
        }
        out
    }

    /// Gram product `selfᵀ · self` (the K-FAC factor statistic) into a
    /// `cols × cols` f32 matrix, bitwise symmetric.
    pub fn gram_into(&self, out: &mut Matrix) {
        out.reset_for(self.cols, self.cols);
        gemm_symmetric_into(
            View::t(&self.data, self.rows, self.cols),
            View::new(&self.data, self.rows, self.cols),
            out.as_mut_slice(),
        );
    }

    /// `self · otherᵀ` into an f32 matrix (the conv G-factor shape).
    pub fn matmul_nt_into(&self, other: &HalfMatrix, out: &mut Matrix) {
        out.reset_for(self.rows, other.rows);
        gemm_into(
            View::new(&self.data, self.rows, self.cols),
            View::t(&other.data, other.rows, other.cols),
            out.as_mut_slice(),
        );
    }

    /// Return the storage to the arena's `u16` pool.
    pub fn recycle(self) {
        arena::recycle_u16(self.data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    #[test]
    fn bf16_round_trip_is_exact_for_representable_values() {
        for v in [
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            0.5,
            1.5,
            256.0,
            -3.140625,
            6.1035156e-5,
            3.3895314e38, // max finite bf16
        ] {
            let h = f32_to_bf16(v);
            let back = bf16_to_f32(h);
            assert_eq!(v.to_bits(), back.to_bits(), "{v} not exact through bf16");
            // Idempotent: re-rounding an already-representable value is identity.
            assert_eq!(f32_to_bf16(back), h);
        }
    }

    #[test]
    fn bf16_relative_error_bound_on_normal_range() {
        let mut rng = Rng64::new(11);
        for _ in 0..20_000 {
            let v = rng.normal_f32() * 10f32.powi((rng.next_u64() % 60) as i32 - 30);
            if !v.is_normal() {
                continue;
            }
            let r = bf16_to_f32(f32_to_bf16(v));
            let rel = ((r - v) / v).abs();
            assert!(rel <= 1.0 / 256.0, "bf16 rel error {rel} for {v}");
        }
    }

    #[test]
    fn bf16_rne_ties_to_even() {
        // 1.0 + 2^-9 is exactly halfway between 1.0 and the next bf16;
        // RNE picks the even significand (1.0).
        let tie = f32::from_bits(0x3F80_8000);
        assert_eq!(bf16_to_f32(f32_to_bf16(tie)), 1.0);
        // One ULP above the tie rounds up.
        let above = f32::from_bits(0x3F80_8001);
        assert_eq!(bf16_to_f32(f32_to_bf16(above)), f32::from_bits(0x3F81_0000));
    }

    #[test]
    fn bf16_edge_cases() {
        assert!(bf16_to_f32(f32_to_bf16(f32::NAN)).is_nan());
        assert_eq!(bf16_to_f32(f32_to_bf16(f32::INFINITY)), f32::INFINITY);
        assert_eq!(
            bf16_to_f32(f32_to_bf16(f32::NEG_INFINITY)),
            f32::NEG_INFINITY
        );
        // A NaN must never round into the infinity encoding.
        let payload_nan = f32::from_bits(0x7F80_0001);
        assert!(bf16_to_f32(f32_to_bf16(payload_nan)).is_nan());
        // Subnormal f32s collapse toward zero without panicking.
        let sub = f32::from_bits(1);
        assert!(bf16_to_f32(f32_to_bf16(sub)).abs() <= f32::MIN_POSITIVE);
    }

    #[test]
    fn dtype_helpers() {
        assert_eq!(Dtype::F32.size_of(), 4);
        assert_eq!(Dtype::Bf16.size_of(), 2);
        for d in [Dtype::F32, Dtype::Bf16] {
            assert_eq!(Dtype::parse(d.name()), Some(d));
        }
        assert_eq!(Dtype::parse("f16"), None);
        assert_eq!(Dtype::parse("f64"), None);
        assert_eq!(Dtype::default(), Dtype::F32);
    }

    #[test]
    fn half_matrix_round_trips_through_arena() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -0.5, 0.25, 100.0]);
        let h = HalfMatrix::from_matrix(&m);
        assert_eq!(h.rows(), 2);
        assert_eq!(h.cols(), 3);
        let back = h.to_matrix();
        // All inputs are bf16-representable → exact round trip.
        assert_eq!(m.as_slice(), back.as_slice());
        h.recycle();
        crate::arena::recycle_matrix(back);
    }

    #[test]
    fn half_matrix_products_equal_the_f32_products_bitwise() {
        // bf16-representable inputs: both matrices hold the same values,
        // and the one engine multiplies them the same way.
        let mut rng = Rng64::new(26);
        let (m, n) = (240, 60);
        let mut data: Vec<f32> = (0..m * n).map(|_| rng.normal_f32()).collect();
        round_bf16_in_place(&mut data);
        let mf = Matrix::from_vec(m, n, data);
        let hf = HalfMatrix::from_matrix(&mf);
        let mut out = Matrix::zeros(0, 0);
        hf.gram_into(&mut out);
        assert_eq!(out.as_slice(), mf.gram().as_slice());
        hf.matmul_nt_into(&hf, &mut out);
        assert_eq!(out.as_slice(), mf.matmul_nt(&mf).as_slice());
        hf.recycle();
    }
}
