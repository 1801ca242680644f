//! Horovod's fusion threshold, as a number the benchmark reports.
//!
//! Horovod coalesces many small allreduces into one large one by filling a
//! fusion buffer (16–32 MB in the paper, §II-D) so each collective is
//! bandwidth-dominated rather than latency-dominated. Here every fused
//! exchange is one concatenated message — the training step's whole model
//! as one gradient bucket, the K-FAC factors as one `factor_pack` payload —
//! so no threshold splits anything.

/// Horovod's default fusion threshold (§II-D cites 16–32 MB).
pub const DEFAULT_FUSION_BYTES: usize = 16 << 20;

/// [`DEFAULT_FUSION_BYTES`], the threshold a run reports.
///
/// # Panics
/// Panics on `Some`: nothing splits a fused exchange, so a configured
/// threshold would be a setting with no effect.
pub fn resolve_threshold(configured: Option<usize>) -> usize {
    assert!(
        configured.is_none(),
        "a fused exchange is one message and takes no fusion threshold"
    );
    DEFAULT_FUSION_BYTES
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_threshold_defaults_and_refuses_a_setting() {
        assert_eq!(resolve_threshold(None), DEFAULT_FUSION_BYTES);
        assert!(std::panic::catch_unwind(|| resolve_threshold(Some(1 << 20))).is_err());
    }
}
