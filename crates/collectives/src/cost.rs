//! Analytic α/β cost models for collectives.
//!
//! The paper relies on Horovod's ring allreduce being bandwidth-optimal
//! (§II-D, citing Patarasuk & Yuan \[35\]). The `kfac-cluster` scaling
//! simulator prices every collective in Algorithm 1 with these standard
//! models:
//!
//! * ring allreduce of `n` bytes on `p` ranks:
//!   `2 (p−1) α + 2 n β (p−1)/p`
//! * ring allgather where each rank contributes `n/p` of the final `n`
//!   bytes: `(p−1) α + n β (p−1)/p`
//! * binomial-tree broadcast: `⌈log₂ p⌉ (α + n β)`
//!
//! with `α` the per-message latency (seconds) and `β` the inverse
//! bandwidth (seconds/byte).

/// Interconnect parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Per-message latency, seconds.
    pub alpha_s: f64,
    /// Inverse bandwidth, seconds per byte.
    pub beta_s_per_byte: f64,
}

impl LinkSpec {
    /// InfiniBand EDR-like defaults (the paper's Frontera GPU subsystem):
    /// ~2 µs latency, ~100 Gbit/s ≈ 12.5 GB/s effective per-rank bandwidth.
    pub fn infiniband_edr() -> Self {
        LinkSpec {
            alpha_s: 2.0e-6,
            beta_s_per_byte: 1.0 / 12.5e9,
        }
    }

    /// A slower 10 GbE-like link for sensitivity studies.
    pub fn ethernet_10g() -> Self {
        LinkSpec {
            alpha_s: 20.0e-6,
            beta_s_per_byte: 1.0 / 1.25e9,
        }
    }

    /// Ring allreduce of `bytes` across `p` ranks (bandwidth-optimal
    /// scatter-reduce + allgather, the algorithm Horovod implements).
    pub fn allreduce_s(&self, bytes: u64, p: usize) -> f64 {
        if p <= 1 || bytes == 0 {
            return 0.0;
        }
        let p_f = p as f64;
        2.0 * (p_f - 1.0) * self.alpha_s
            + 2.0 * bytes as f64 * self.beta_s_per_byte * (p_f - 1.0) / p_f
    }

    /// Ring allgather where the *total* gathered payload is `total_bytes`.
    pub fn allgather_s(&self, total_bytes: u64, p: usize) -> f64 {
        if p <= 1 || total_bytes == 0 {
            return 0.0;
        }
        let p_f = p as f64;
        (p_f - 1.0) * self.alpha_s + total_bytes as f64 * self.beta_s_per_byte * (p_f - 1.0) / p_f
    }

    /// Binomial-tree broadcast of `bytes` to `p` ranks.
    pub fn broadcast_s(&self, bytes: u64, p: usize) -> f64 {
        if p <= 1 || bytes == 0 {
            return 0.0;
        }
        let rounds = (p as f64).log2().ceil();
        rounds * (self.alpha_s + bytes as f64 * self.beta_s_per_byte)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_costs_nothing() {
        let l = LinkSpec::infiniband_edr();
        assert_eq!(l.allreduce_s(1 << 20, 1), 0.0);
        assert_eq!(l.allgather_s(1 << 20, 1), 0.0);
        assert_eq!(l.broadcast_s(1 << 20, 1), 0.0);
    }

    #[test]
    fn allreduce_bandwidth_term_saturates() {
        // The bandwidth term approaches 2nβ as p → ∞ (ring optimality):
        // doubling p beyond a point barely changes the cost of a large
        // message.
        let l = LinkSpec::infiniband_edr();
        let n = 256 << 20; // 256 MB: firmly bandwidth-bound
        let t64 = l.allreduce_s(n, 64);
        let t128 = l.allreduce_s(n, 128);
        let limit = 2.0 * n as f64 * l.beta_s_per_byte;
        assert!(t64 < t128, "latency term still grows with p");
        assert!((t128 - limit) / limit < 0.02, "within 2% of the 2nβ limit");
    }

    #[test]
    fn small_messages_are_latency_bound() {
        // The motivation for sending each fused exchange as one message:
        // at 4 KB the latency term dominates; at 16 MB bandwidth dominates.
        let l = LinkSpec::infiniband_edr();
        let p = 64;
        let latency_part = 2.0 * 63.0 * l.alpha_s;
        let small = l.allreduce_s(4 << 10, p);
        let big = l.allreduce_s(16 << 20, p);
        assert!(latency_part / small > 0.5, "small message mostly latency");
        assert!(latency_part / big < 0.1, "big message mostly bandwidth");
    }

    #[test]
    fn allgather_cheaper_than_allreduce() {
        // Allgather moves the payload once, allreduce effectively twice.
        let l = LinkSpec::infiniband_edr();
        let n = 8 << 20;
        assert!(l.allgather_s(n, 32) < l.allreduce_s(n, 32));
    }

    #[test]
    fn broadcast_scales_logarithmically() {
        let l = LinkSpec::infiniband_edr();
        let n = 1 << 20;
        let t2 = l.broadcast_s(n, 2);
        let t16 = l.broadcast_s(n, 16);
        assert!((t16 / t2 - 4.0).abs() < 1e-9, "log2(16)/log2(2) = 4");
    }

    #[test]
    fn monotone_in_bytes() {
        let l = LinkSpec::ethernet_10g();
        assert!(l.allreduce_s(2000, 8) > l.allreduce_s(1000, 8));
        assert!(l.allgather_s(2000, 8) > l.allgather_s(1000, 8));
        assert!(l.broadcast_s(2000, 8) > l.broadcast_s(1000, 8));
    }
}
