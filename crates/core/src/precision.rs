//! Wire precision policy.
//!
//! The paper trains in mixed precision ("we use … mixed precision
//! training", §V-B) and its cost model (§IV-C, Table V) is about bytes on
//! the wire. [`PrecisionPolicy`] is exactly that: the width of the two
//! payloads a K-FAC step sends — the fused gradient allreduce and the
//! K-FAC collectives. The default is f32 on both, which is *bitwise
//! identical* to the pre-policy behavior — reduced width is opt-in.
//!
//! Either wire accepts f32 or bf16: bf16 keeps f32's 8-bit exponent, so a
//! payload keeps its dynamic range and only gives up mantissa.
//!
//! Reduced precision is a wire format only: factors, eigendecompositions
//! and preconditioning are stored and computed in f32 under every policy,
//! and a half-width allreduce still accumulates in f32.

use kfac_tensor::Dtype;

/// Which dtype each of the two wires transmits at.
///
/// Constructed via [`Default`] (f32 on both), [`PrecisionPolicy::bf16`]
/// (bf16 on both), or by setting either field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrecisionPolicy {
    /// Wire format of the fused gradient allreduce. F32 | Bf16.
    pub grad_wire: Dtype,
    /// Wire format of every K-FAC collective: the factor allreduce, the
    /// eigen allgather and K-FAC-lw's preconditioned-gradient allgather.
    /// F32 | Bf16.
    pub factor_wire: Dtype,
}

impl PrecisionPolicy {
    /// f32 on both wires: bitwise identical to a build without any
    /// precision plumbing.
    pub fn f32() -> Self {
        PrecisionPolicy::default()
    }

    /// bf16 on both wires.
    pub fn bf16() -> Self {
        PrecisionPolicy {
            grad_wire: Dtype::Bf16,
            factor_wire: Dtype::Bf16,
        }
    }

    /// True iff both wires are f32 (the bitwise-legacy path).
    pub fn is_all_f32(self) -> bool {
        self == PrecisionPolicy::default()
    }

    /// Canonical `stage=dtype,...` spelling (stable telemetry label).
    pub fn spec_string(&self) -> String {
        format!(
            "grad_wire={},factor_wire={}",
            self.grad_wire.name(),
            self.factor_wire.name()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_set_both_wires() {
        let p = PrecisionPolicy::default();
        assert!(p.is_all_f32());
        assert_eq!((p.grad_wire, p.factor_wire), (Dtype::F32, Dtype::F32));
        let p = PrecisionPolicy::bf16();
        assert!(!p.is_all_f32());
        assert_eq!((p.grad_wire, p.factor_wire), (Dtype::Bf16, Dtype::Bf16));
    }
}
