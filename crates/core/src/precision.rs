//! Wire precision policy.
//!
//! Every collective a training step sends travels as f32 — the FP32
//! regime DESIGN.md §1 reproduces: the fused gradient allreduce and the
//! K-FAC collectives alike. [`PrecisionPolicy`] names those two wires
//! and stays only because the frozen benchmark package spells it;
//! [`KfacConfig::validate`](crate::KfacConfig::validate) refuses any
//! width but f32 on either, and ROADMAP's "`stepbench` re-baseline"
//! deletes it.

use kfac_tensor::Dtype;

/// The width of the two wires: f32 on both, the only policy
/// [`KfacConfig::validate`](crate::KfacConfig::validate) accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrecisionPolicy {
    /// Wire format of the fused gradient allreduce. Must be f32.
    pub grad_wire: Dtype,
    /// Wire format of every K-FAC collective: the factor allreduce, the
    /// eigen allgather and K-FAC-lw's preconditioned-gradient allgather.
    /// Must be f32.
    pub factor_wire: Dtype,
}

impl PrecisionPolicy {
    /// f32 on both wires (the [`Default`]).
    pub fn f32() -> Self {
        PrecisionPolicy::default()
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
