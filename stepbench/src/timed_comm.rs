//! A communicator wrapper that times and counts every collective.
//!
//! Same shape as `kfac_collectives::FaultyCommunicator`: it owns the
//! inner communicator and forwards each call unchanged, so results are
//! bit-identical. It sees every path — the harness's fusion buffer, the
//! `Kfac::step` monolith, the executor's comm worker — because they all
//! reach the fabric through the `Communicator` trait.

use crate::trace::Tracer;
use kfac_collectives::{CollectiveError, Communicator, ReduceOp, Traffic, TrafficClass};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The classes in reporting order; `Other` is counted but has no row.
pub const CLASSES: [TrafficClass; 5] = [
    TrafficClass::Gradient,
    TrafficClass::Factor,
    TrafficClass::Eigen,
    TrafficClass::Precond,
    TrafficClass::Other,
];

fn class_index(class: TrafficClass) -> usize {
    CLASSES
        .iter()
        .position(|c| *c == class)
        .expect("every traffic class is listed")
}

/// Span names of the transfer and of the wait that precedes it.
fn span_names(class: TrafficClass) -> (&'static str, &'static str) {
    match class {
        TrafficClass::Gradient => ("comm.grad", "comm.grad.skew"),
        TrafficClass::Factor => ("comm.factor", "comm.factor.skew"),
        TrafficClass::Eigen => ("comm.eigen", "comm.eigen.skew"),
        TrafficClass::Precond => ("comm.precond", "comm.precond.skew"),
        TrafficClass::Other => ("comm.other", "comm.other.skew"),
    }
}

/// Totals of one traffic class on one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassTotals {
    /// Collectives issued.
    pub calls: u64,
    /// Payload bytes, by the fabrics' own convention: four per element
    /// of the caller's buffer.
    pub bytes: u64,
    /// Time inside the collective, ns.
    pub transfer_ns: u64,
    /// Time waiting for the slowest rank before it, ns (0 unless the
    /// skew barrier is on).
    pub skew_ns: u64,
}

#[derive(Default)]
struct Cell {
    calls: AtomicU64,
    bytes: AtomicU64,
    transfer_ns: AtomicU64,
    skew_ns: AtomicU64,
}

/// Timing and counting wrapper around any communicator.
pub struct TimedComm<C> {
    inner: C,
    cells: [Cell; 5],
    tracer: Option<Arc<Tracer>>,
    skew_barrier: bool,
}

impl<C: Communicator> TimedComm<C> {
    /// Count and time only.
    pub fn new(inner: C) -> Self {
        TimedComm {
            inner,
            cells: Default::default(),
            tracer: None,
            skew_barrier: false,
        }
    }

    /// Also record each collective as a span of `tracer`, and put a
    /// barrier before it so that waiting for the slower rank (skew) is
    /// told apart from moving the bytes.
    pub fn traced(inner: C, tracer: Arc<Tracer>) -> Self {
        TimedComm {
            inner,
            cells: Default::default(),
            tracer: Some(tracer),
            skew_barrier: true,
        }
    }

    /// The wrapped communicator.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Totals of `class` so far.
    pub fn totals(&self, class: TrafficClass) -> ClassTotals {
        let cell = &self.cells[class_index(class)];
        ClassTotals {
            calls: cell.calls.load(Ordering::Relaxed),
            bytes: cell.bytes.load(Ordering::Relaxed),
            transfer_ns: cell.transfer_ns.load(Ordering::Relaxed),
            skew_ns: cell.skew_ns.load(Ordering::Relaxed),
        }
    }

    fn timed<R>(&self, class: TrafficClass, elems: usize, f: impl FnOnce(&C) -> R) -> R {
        let bytes = (elems * std::mem::size_of::<f32>()) as u64;
        let (name, skew_name) = span_names(class);
        let t0 = Instant::now();
        if self.skew_barrier && self.inner.size() > 1 {
            self.inner.barrier();
        }
        let t1 = Instant::now();
        let out = f(&self.inner);
        let t2 = Instant::now();
        // Plain statistics: nothing is published through these counters.
        let cell = &self.cells[class_index(class)];
        cell.calls.fetch_add(1, Ordering::Relaxed);
        cell.bytes.fetch_add(bytes, Ordering::Relaxed);
        cell.transfer_ns
            .fetch_add((t2 - t1).as_nanos() as u64, Ordering::Relaxed);
        cell.skew_ns
            .fetch_add((t1 - t0).as_nanos() as u64, Ordering::Relaxed);
        if let Some(tracer) = &self.tracer {
            if self.skew_barrier {
                tracer.leaf(skew_name, t0, t1, 0);
            }
            tracer.leaf(name, t1, t2, bytes);
        }
        out
    }
}

impl<C: Communicator> Communicator for TimedComm<C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn allreduce_tagged(&self, buf: &mut [f32], op: ReduceOp, class: TrafficClass) {
        self.timed(class, buf.len(), |c| c.allreduce_tagged(buf, op, class));
    }

    fn allgather_tagged(&self, payload: &[f32], class: TrafficClass) -> Vec<Vec<f32>> {
        self.timed(class, payload.len(), |c| c.allgather_tagged(payload, class))
    }

    fn broadcast_tagged(&self, buf: &mut [f32], root: usize, class: TrafficClass) {
        self.timed(class, buf.len(), |c| c.broadcast_tagged(buf, root, class));
    }

    fn try_allreduce_tagged(
        &self,
        buf: &mut [f32],
        op: ReduceOp,
        class: TrafficClass,
    ) -> Result<(), CollectiveError> {
        self.timed(class, buf.len(), |c| c.try_allreduce_tagged(buf, op, class))
    }

    fn try_allgather_tagged(
        &self,
        payload: &[f32],
        class: TrafficClass,
    ) -> Result<Vec<Vec<f32>>, CollectiveError> {
        self.timed(class, payload.len(), |c| {
            c.try_allgather_tagged(payload, class)
        })
    }

    fn try_broadcast_tagged(
        &self,
        buf: &mut [f32],
        root: usize,
        class: TrafficClass,
    ) -> Result<(), CollectiveError> {
        self.timed(class, buf.len(), |c| {
            c.try_broadcast_tagged(buf, root, class)
        })
    }

    fn barrier(&self) {
        self.inner.barrier();
    }

    fn traffic(&self) -> Traffic {
        self.inner.traffic()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfac_collectives::ThreadComm;

    /// Every collective once, with rank-dependent inputs.
    fn exercise(comm: &dyn Communicator) -> Vec<Vec<f32>> {
        let r = comm.rank() as f32;
        let mut out = Vec::new();
        let mut a = vec![0.1 + r, 0.7 * r, -3.3, 1e-3 * r];
        comm.allreduce_tagged(&mut a, ReduceOp::Average, TrafficClass::Gradient);
        out.push(a);
        let mut b = vec![1.0 / (1.0 + r); 7];
        comm.try_allreduce_tagged(&mut b, ReduceOp::Sum, TrafficClass::Factor)
            .unwrap();
        out.push(b);
        let payload = vec![r + 0.5; 3 + comm.rank()];
        out.extend(comm.allgather_tagged(&payload, TrafficClass::Eigen));
        out.extend(
            comm.try_allgather_tagged(&payload, TrafficClass::Precond)
                .unwrap(),
        );
        let mut c = vec![r; 5];
        comm.broadcast_tagged(&mut c, 1, TrafficClass::Other);
        out.push(c);
        comm.barrier();
        out
    }

    fn run_pair<C: Communicator, R: Send>(comms: &[C], f: impl Fn(&C) -> R + Sync) -> Vec<R> {
        std::thread::scope(|s| {
            let handles: Vec<_> = comms.iter().map(|c| s.spawn(|| f(c))).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread"))
                .collect()
        })
    }

    #[test]
    fn forwards_bit_identically_and_counts_what_the_fabric_counts() {
        let plain = run_pair(&ThreadComm::create(2), |c| exercise(c));
        for skew_barrier in [false, true] {
            let origin = Instant::now();
            let wrapped: Vec<_> = ThreadComm::create(2)
                .into_iter()
                .map(|c| {
                    if skew_barrier {
                        TimedComm::traced(c, Arc::new(Tracer::new(origin)))
                    } else {
                        TimedComm::new(c)
                    }
                })
                .collect();
            let timed = run_pair(&wrapped, |c| exercise(c));
            for (p, t) in plain.iter().zip(&timed) {
                let bits = |v: &Vec<Vec<f32>>| -> Vec<Vec<u32>> {
                    v.iter()
                        .map(|x| x.iter().map(|f| f.to_bits()).collect())
                        .collect()
                };
                assert_eq!(bits(p), bits(t));
            }
            for comm in &wrapped {
                let inner = comm.inner().traffic();
                assert_eq!(comm.traffic(), inner);
                let by_class = [
                    inner.gradient_bytes,
                    inner.factor_bytes,
                    inner.eigen_bytes,
                    inner.precond_bytes,
                    inner.other_bytes,
                ];
                let mut calls = 0;
                for (class, want) in CLASSES.iter().zip(by_class) {
                    let got = comm.totals(*class);
                    assert_eq!(got.bytes, want, "{class:?}");
                    assert_eq!(got.calls, 1, "{class:?}");
                    calls += got.calls;
                }
                assert_eq!(calls, inner.ops);
            }
            let spans = wrapped[0].tracer.as_ref().map(|t| t.spans());
            assert_eq!(spans.map(|s| s.len()), skew_barrier.then_some(10));
        }
    }
}
