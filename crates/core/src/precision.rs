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
//! payload keeps its dynamic range and only gives up mantissa. Anything
//! else in a `KFAC_PRECISION` spec is rejected by
//! [`PrecisionPolicy::parse`].
//!
//! Reduced precision is a wire format only: factors, eigendecompositions
//! and preconditioning are stored and computed in f32 under every policy,
//! and a half-width allreduce still accumulates in f32.

use kfac_tensor::Dtype;

/// Which dtype each of the two wires transmits at.
///
/// Constructed via [`Default`] (f32 on both), [`PrecisionPolicy::bf16`]
/// (bf16 on both), or [`PrecisionPolicy::parse`] (the `KFAC_PRECISION`
/// spelling).
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

    /// Parse a `KFAC_PRECISION` spec: an optional preset (`f32` | `bf16`)
    /// followed by comma-separated `stage=dtype` overrides, e.g.
    /// `"bf16"`, `"grad_wire=bf16"`, or
    /// `"bf16,factor_wire=f32"`. Overrides apply left to right on top of
    /// the preset (default preset: f32). `Err` says what was expected.
    pub fn parse(spec: &str) -> Result<PrecisionPolicy, String> {
        let mut policy = PrecisionPolicy::default();
        for (i, part) in spec.split(',').enumerate() {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match part.split_once('=') {
                None => {
                    if i != 0 {
                        return Err(format!(
                            "preset {part:?} must come first; overrides use stage=dtype"
                        ));
                    }
                    policy = match part.to_ascii_lowercase().as_str() {
                        "f32" | "fp32" => PrecisionPolicy::f32(),
                        "bf16" | "bfloat16" => PrecisionPolicy::bf16(),
                        _ => return Err(format!("unknown preset {part:?}; expected f32|bf16")),
                    };
                }
                Some((field, value)) => {
                    let field = field.trim().to_ascii_lowercase();
                    let dtype = Dtype::parse(value.trim()).ok_or_else(|| {
                        format!("{value:?} invalid for {field}; expected f32|bf16")
                    })?;
                    match field.as_str() {
                        "grad_wire" => policy.grad_wire = dtype,
                        "factor_wire" => policy.factor_wire = dtype,
                        _ => {
                            return Err(format!(
                                "unknown stage {field:?}; expected one of grad_wire|factor_wire"
                            ))
                        }
                    }
                }
            }
        }
        Ok(policy)
    }

    /// Canonical `stage=dtype,...` spelling (stable telemetry label; the
    /// inverse of [`PrecisionPolicy::parse`]).
    pub fn spec_string(&self) -> String {
        format!(
            "grad_wire={},factor_wire={}",
            self.grad_wire.name(),
            self.factor_wire.name()
        )
    }
}

impl std::fmt::Display for PrecisionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.spec_string())
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

    #[test]
    fn parse_preset_and_overrides() {
        assert_eq!(
            PrecisionPolicy::parse("f32").unwrap(),
            PrecisionPolicy::f32()
        );
        assert_eq!(
            PrecisionPolicy::parse("bf16").unwrap(),
            PrecisionPolicy::bf16()
        );
        let p = PrecisionPolicy::parse("grad_wire=bf16").unwrap();
        assert_eq!(p.grad_wire, Dtype::Bf16);
        assert_eq!(p.factor_wire, Dtype::F32, "the untouched wire stays f32");
        // Preset then override: bf16 gradients, f32 K-FAC collectives.
        let p = PrecisionPolicy::parse("bf16,factor_wire=f32").unwrap();
        assert_eq!(p.factor_wire, Dtype::F32);
        assert_eq!(p.grad_wire, Dtype::Bf16);
        // Whitespace and empty segments are tolerated.
        let p = PrecisionPolicy::parse(" bf16 , grad_wire = f32 ,").unwrap();
        assert_eq!(p.grad_wire, Dtype::F32);
    }

    #[test]
    fn parse_rejects_bad_specs() {
        for bad in [
            "int8",
            "grad_wire=f64",
            "warp_drive=bf16",
            "grad_wire=bf16,bf16", // preset after an override
            "factor_wire=f16",     // f16 is no dtype here, on either wire
        ] {
            let e = PrecisionPolicy::parse(bad).unwrap_err();
            assert!(
                e.contains("expected") || e.contains("must come first"),
                "{bad}: {e}"
            );
        }
        // An unknown stage is told which two exist (the removed stage
        // names: `tests/failure_modes.rs`).
        let e = PrecisionPolicy::parse("warp_drive=bf16").unwrap_err();
        assert!(e.contains("grad_wire|factor_wire"), "{e}");
    }

    #[test]
    fn spec_round_trips_through_display() {
        let p = PrecisionPolicy::parse("bf16,grad_wire=f32").unwrap();
        let reparsed = PrecisionPolicy::parse(&p.spec_string()).unwrap();
        assert_eq!(p, reparsed);
    }
}
