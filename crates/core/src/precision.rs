//! Per-stage precision policy for the mixed-precision substrate.
//!
//! The paper trains in mixed precision ("we use … mixed precision
//! training", §V-B) but is silent on which K-FAC stages tolerate reduced
//! width. [`PrecisionPolicy`] makes that an explicit, per-stage choice:
//! each stage of the K-FAC pipeline (activation/gradient capture — which
//! is what the factor Grams stream —, the running-average EMA,
//! eigendecomposition inputs, preconditioning inputs, and the two wire
//! payloads) carries its own
//! [`Dtype`]. The default is f32 everywhere, which is *bitwise identical*
//! to the pre-policy behavior — mixed precision is strictly opt-in.
//!
//! Every stage accepts f32 or bf16: bf16 keeps f32's 8-bit exponent, so
//! Gram accumulations, eigen-spectra and wire payloads keep their dynamic
//! range and only give up mantissa. It is the one half-width type the
//! GEMM engine, the captures and the wire share; anything else in a
//! `KFAC_PRECISION` spec is rejected by [`PrecisionPolicy::parse`].
//!
//! All kernels *accumulate* in f32 (or f64 for the compensated EMA)
//! regardless of storage dtype — reduced precision here is a storage and
//! wire format, never an accumulator format.

use kfac_tensor::Dtype;

/// Which dtype each K-FAC pipeline stage stores or transmits at.
///
/// Constructed via [`Default`] (f32 everywhere), [`PrecisionPolicy::bf16`]
/// (the bf16-storage preset), or [`PrecisionPolicy::parse`] (the
/// `KFAC_PRECISION` spelling).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrecisionPolicy {
    /// Storage for captured activations / backprop gradients (for conv
    /// layers the patch blocks are encoded as they are built), and so the
    /// operand width of the factor Grams (`A = aᵀa/N`, `G`) summed from
    /// them: Bf16 halves the bytes the Gram streams; it accumulates in
    /// f32 either way. F32 | Bf16.
    pub capture: Dtype,
    /// Storage of the running-average factors (Eq. 16–17). Bf16 stores
    /// the EMA rounded to bf16 with an f64 residual compensation term so
    /// the long-run average does not drift. F32 | Bf16.
    pub factor_ema: Dtype,
    /// Eigendecomposition *input* rounding: Bf16 rounds the averaged
    /// factor to bf16 before the (f32/f64) eigensolver runs. F32 | Bf16.
    pub eig: Dtype,
    /// Preconditioning-stage input rounding for the Eq. 13–15 GEMMs.
    /// F32 | Bf16.
    pub precond: Dtype,
    /// Wire format of the fused gradient allreduce. F32 | Bf16.
    pub grad_wire: Dtype,
    /// Wire format of every K-FAC collective: the factor allreduce, the
    /// eigen allgather and K-FAC-lw's preconditioned-gradient allgather.
    /// F32 | Bf16.
    pub factor_wire: Dtype,
}

/// The stage names — the parse/display table.
const STAGES: [&str; 6] = [
    "capture",
    "factor_ema",
    "eig",
    "precond",
    "grad_wire",
    "factor_wire",
];

impl PrecisionPolicy {
    /// The f32-everywhere policy: bitwise identical to a build without
    /// any precision plumbing.
    pub fn f32() -> Self {
        PrecisionPolicy::default()
    }

    /// The bf16-storage preset: bf16 capture (and Gram operands), EMA
    /// storage, eig and precond inputs, and bf16 on both wires.
    pub fn bf16() -> Self {
        PrecisionPolicy {
            capture: Dtype::Bf16,
            factor_ema: Dtype::Bf16,
            eig: Dtype::Bf16,
            precond: Dtype::Bf16,
            grad_wire: Dtype::Bf16,
            factor_wire: Dtype::Bf16,
        }
    }

    /// True iff every stage is f32 (the bitwise-legacy fast path; callers
    /// use this to skip conversion plumbing entirely).
    pub fn is_all_f32(self) -> bool {
        self == PrecisionPolicy::default()
    }

    /// Dtype of the stage named `field` (the [`STAGES`] spelling).
    fn get(&self, field: &str) -> Option<Dtype> {
        Some(match field {
            "capture" => self.capture,
            "factor_ema" => self.factor_ema,
            "eig" => self.eig,
            "precond" => self.precond,
            "grad_wire" => self.grad_wire,
            "factor_wire" => self.factor_wire,
            _ => return None,
        })
    }

    fn set(&mut self, field: &str, dtype: Dtype) -> bool {
        match field {
            "capture" => self.capture = dtype,
            "factor_ema" => self.factor_ema = dtype,
            "eig" => self.eig = dtype,
            "precond" => self.precond = dtype,
            "grad_wire" => self.grad_wire = dtype,
            "factor_wire" => self.factor_wire = dtype,
            _ => return false,
        }
        true
    }

    /// Parse a `KFAC_PRECISION` spec: an optional preset (`f32` | `bf16`)
    /// followed by comma-separated `stage=dtype` overrides, e.g.
    /// `"bf16"`, `"capture=bf16,grad_wire=bf16"`, or
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
                    if field == "factor_gram" {
                        return Err(
                            "stage \"factor_gram\" was folded into \"capture\" (the Grams \
                             stream the captures); set capture instead"
                                .into(),
                        );
                    }
                    if !policy.set(&field, dtype) {
                        return Err(format!(
                            "unknown stage {field:?}; expected one of {}",
                            STAGES.join("|")
                        ));
                    }
                }
            }
        }
        Ok(policy)
    }

    /// Canonical `stage=dtype,...` spelling (stable telemetry label; the
    /// inverse of [`PrecisionPolicy::parse`]).
    pub fn spec_string(&self) -> String {
        STAGES
            .iter()
            .map(|field| format!("{field}={}", self.get(field).unwrap().name()))
            .collect::<Vec<_>>()
            .join(",")
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
    fn default_is_all_f32() {
        let p = PrecisionPolicy::default();
        assert!(p.is_all_f32());
        for field in STAGES {
            assert_eq!(p.get(field), Some(Dtype::F32));
        }
    }

    #[test]
    fn bf16_preset_sets_every_stage() {
        let p = PrecisionPolicy::bf16();
        assert!(!p.is_all_f32());
        for field in STAGES {
            assert_eq!(p.get(field), Some(Dtype::Bf16), "{field}");
        }
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
        let p = PrecisionPolicy::parse("capture=bf16,grad_wire=bf16").unwrap();
        assert_eq!(p.capture, Dtype::Bf16);
        assert_eq!(p.grad_wire, Dtype::Bf16);
        assert_eq!(p.factor_ema, Dtype::F32, "untouched stages stay f32");
        // Preset then override: everything bf16 except the factor wire.
        let p = PrecisionPolicy::parse("bf16,factor_wire=f32").unwrap();
        assert_eq!(p.factor_wire, Dtype::F32);
        assert_eq!(p.capture, Dtype::Bf16);
        // Whitespace and empty segments are tolerated.
        let p = PrecisionPolicy::parse(" bf16 , grad_wire = f32 ,").unwrap();
        assert_eq!(p.grad_wire, Dtype::F32);
    }

    #[test]
    fn parse_rejects_bad_specs() {
        for bad in [
            "int8",
            "capture=f64",
            "warp_drive=bf16",
            "capture=bf16,bf16", // preset after an override
            "eig=f16",           // f16 is no dtype here, on any stage
            "grad_wire=f16",
        ] {
            let e = PrecisionPolicy::parse(bad).unwrap_err();
            assert!(
                e.contains("expected") || e.contains("must come first"),
                "{bad}: {e}"
            );
        }
        // The stage that was folded away names its survivor.
        let e = PrecisionPolicy::parse("factor_gram=bf16").unwrap_err();
        assert!(e.contains("capture"), "{e}");
    }

    #[test]
    fn spec_round_trips_through_display() {
        let p = PrecisionPolicy::parse("bf16,grad_wire=f32").unwrap();
        let reparsed = PrecisionPolicy::parse(&p.spec_string()).unwrap();
        assert_eq!(p, reparsed);
    }
}
