//! Communication-volume accounting.
//!
//! The paper's communication analysis (§IV-C, Table V) distinguishes three
//! traffic classes: gradient averaging (every iteration), factor averaging
//! (every `10 × kfac-update-freq` iterations) and eigendecomposition
//! gathering (every `kfac-update-freq` iterations). Implementations of
//! [`Communicator`](crate::Communicator) record bytes and op counts per
//! class so experiments can verify the claimed reductions.

use kfac_telemetry::Counter;
use std::sync::Arc;

/// What a collective operation was transporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficClass {
    /// Per-iteration gradient exchange (SGD and K-FAC alike).
    Gradient,
    /// Kronecker-factor averaging (Algorithm 1 line 8).
    Factor,
    /// Eigendecomposition allgather (Algorithm 1 line 18).
    Eigen,
    /// Preconditioned-gradient broadcast (K-FAC-lw strategy only).
    Precond,
    /// Anything else (barriers, model broadcast at start, diagnostics).
    Other,
}

impl TrafficClass {
    /// Stable lowercase label, used as the `class` attribute on the
    /// telemetry spans collectives record.
    pub fn name(self) -> &'static str {
        match self {
            TrafficClass::Gradient => "gradient",
            TrafficClass::Factor => "factor",
            TrafficClass::Eigen => "eigen",
            TrafficClass::Precond => "precond",
            TrafficClass::Other => "other",
        }
    }

    /// Registry counter name for this class's byte volume, as mirrored
    /// into the ambient telemetry registry (and snapshotted by the
    /// flight recorder).
    pub fn byte_counter_name(self) -> &'static str {
        match self {
            TrafficClass::Gradient => "comm/bytes/gradient",
            TrafficClass::Factor => "comm/bytes/factor",
            TrafficClass::Eigen => "comm/bytes/eigen",
            TrafficClass::Precond => "comm/bytes/precond",
            TrafficClass::Other => "comm/bytes/other",
        }
    }
}

/// Snapshot of cumulative traffic on one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Traffic {
    /// Bytes moved by gradient allreduces.
    pub gradient_bytes: u64,
    /// Bytes moved by factor allreduces.
    pub factor_bytes: u64,
    /// Bytes moved by eigendecomposition allgathers.
    pub eigen_bytes: u64,
    /// Bytes moved by preconditioned-gradient broadcasts (K-FAC-lw).
    pub precond_bytes: u64,
    /// Bytes in the `Other` class.
    pub other_bytes: u64,
    /// Total number of collective operations issued.
    pub ops: u64,
}

impl Traffic {
    /// Total bytes across all classes.
    pub fn total_bytes(&self) -> u64 {
        self.gradient_bytes
            + self.factor_bytes
            + self.eigen_bytes
            + self.precond_bytes
            + self.other_bytes
    }
}

/// Thread-safe accumulator shared by the ranks of a communicator group,
/// built from telemetry [`Counter`]s — the same metric primitive the
/// rest of the stack uses, so traffic totals and trace spans come from
/// one subsystem.
#[derive(Debug, Default)]
pub struct TrafficCounter {
    gradient: Counter,
    factor: Counter,
    eigen: Counter,
    precond: Counter,
    other: Counter,
    ops: Counter,
}

impl TrafficCounter {
    /// New shared counter.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Record one collective moving `bytes` of class `class`.
    pub fn record(&self, class: TrafficClass, bytes: u64) {
        self.class_counter(class).add(bytes);
        self.ops.inc();
    }

    /// The underlying byte counter for one class.
    pub fn class_counter(&self, class: TrafficClass) -> &Counter {
        match class {
            TrafficClass::Gradient => &self.gradient,
            TrafficClass::Factor => &self.factor,
            TrafficClass::Eigen => &self.eigen,
            TrafficClass::Precond => &self.precond,
            TrafficClass::Other => &self.other,
        }
    }

    /// Read a consistent-enough snapshot (relaxed loads; exact once the
    /// group is quiescent, which is when experiments read it).
    pub fn snapshot(&self) -> Traffic {
        Traffic {
            gradient_bytes: self.gradient.get(),
            factor_bytes: self.factor.get(),
            eigen_bytes: self.eigen.get(),
            precond_bytes: self.precond.get(),
            other_bytes: self.other.get(),
            ops: self.ops.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_by_class() {
        let c = TrafficCounter::new();
        c.record(TrafficClass::Gradient, 100);
        c.record(TrafficClass::Gradient, 50);
        c.record(TrafficClass::Eigen, 7);
        let t = c.snapshot();
        assert_eq!(t.gradient_bytes, 150);
        assert_eq!(t.eigen_bytes, 7);
        assert_eq!(t.factor_bytes, 0);
        assert_eq!(t.ops, 3);
        assert_eq!(t.total_bytes(), 157);
    }

    #[test]
    fn concurrent_recording() {
        let c = TrafficCounter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.record(TrafficClass::Factor, 3);
                    }
                });
            }
        });
        let t = c.snapshot();
        assert_eq!(t.factor_bytes, 24_000);
        assert_eq!(t.ops, 8000);
    }
}
