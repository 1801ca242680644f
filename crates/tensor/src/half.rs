//! The `bf16` scalar format: its vocabulary and conversions.
//!
//! Training runs in FP32 (the paper's §VI-A): every product is the one
//! f32 engine ([`gemm`](crate::gemm)) and every collective travels as
//! f32. What is left of bf16 is names other code still spells:
//!
//! * [`Dtype`] — the element format vocabulary; the f32-only wire names
//!   that the frozen benchmark package spells take one and refuse
//!   anything but [`Dtype::F32`].
//! * Scalar conversions: `f32 ↔ bf16` (truncate-with-round-to-nearest-
//!   even on the top 16 bits; widening is exact, `bits << 16`).
//! * [`HalfMatrix`] — f32 values rounded to bf16 precision, with the
//!   benchmark's one product over them, their Gram.
//!
//! Numerics contract: `bf16_to_f32(f32_to_bf16(x))` is exact for every
//! bf16-representable value, and within a relative error of `2^-8` for
//! normal-range inputs — pinned by the property suite in this module and
//! in `tests/`.

use crate::Matrix;

/// Element storage format.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Dtype {
    /// IEEE binary32 — the default everywhere, and the only wire format.
    #[default]
    F32,
    /// bfloat16: f32's exponent range, 8-bit significand.
    Bf16,
}

impl Dtype {
    /// Stable lowercase label (metric names, the policy's spec string).
    pub fn name(self) -> &'static str {
        match self {
            Dtype::F32 => "f32",
            Dtype::Bf16 => "bf16",
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

/// A matrix whose values are rounded to bf16 precision and held as the
/// f32 they widen to (exactly). It keeps the two names the benchmark's
/// `tensor.gram_bf16_gflops` row calls; its Gram is the f32 engine's.
#[derive(Debug, Clone)]
pub struct HalfMatrix(Matrix);

impl HalfMatrix {
    /// Round an f32 matrix to bf16 precision (RNE per element).
    pub fn from_matrix(m: &Matrix) -> HalfMatrix {
        HalfMatrix(m.map(|v| bf16_to_f32(f32_to_bf16(v))))
    }

    /// Gram product `selfᵀ · self` (the K-FAC factor statistic) into a
    /// `cols × cols` f32 matrix, bitwise symmetric.
    pub fn gram_into(&self, out: &mut Matrix) {
        self.0.gram_into(out);
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
        assert_eq!(Dtype::F32.name(), "f32");
        assert_eq!(Dtype::Bf16.name(), "bf16");
        assert_eq!(Dtype::default(), Dtype::F32);
    }
}
