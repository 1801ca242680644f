//! Thread-rank communicator: N workers in one process.
//!
//! This is the stand-in for Horovod + NCCL. A group is created with
//! [`ThreadComm::create`], which returns one handle per rank; each rank
//! thread owns its handle and calls collectives, which block until every
//! rank has made the matching call — the same synchronous-SGD rendezvous
//! the paper's Figure 1 depicts.
//!
//! The rendezvous is a generation-counted phase machine guarded by a
//! `parking_lot` mutex + condvar (no spinning, per the Rust Atomics & Locks
//! guidance on blocking synchronization):
//!
//! ```text
//! Idle ──first arrival──▶ Accumulating ──last arrival──▶ Ready
//!  ▲                                                       │
//!  └─────────────── last departure (reset) ◀───────────────┘
//! ```
//!
//! All ranks must issue the same sequence of collective calls (the MPI /
//! Horovod ordering contract). A mismatch is detected at the rendezvous
//! and surfaced as [`CollectiveError::Mismatch`] to *every* participant
//! of the offending generation (the infallible `Communicator` methods
//! turn that into a panic) — a group failure rather than the silent
//! deadlock the real stack would produce, so protocol bugs in the K-FAC
//! step fail fast in tests.

use crate::algo::AlgoPolicy;
use crate::communicator::{combine_into, finalize, Communicator, ReduceOp};
use crate::error::CollectiveError;
use crate::membership::{
    agree_on_survivors, Elastic, GroupView, Membership, ShrunkComm, AGREEMENT_DEADLINE,
};
use crate::traffic::{Traffic, TrafficClass, TrafficCounter};
use crate::transport::{tag_epoch, Transport, CTRL_BIT};
use kfac_telemetry::Span;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Point-to-point mailboxes keyed by `(from, to, tag)`.
type MeshMailboxes = HashMap<(usize, usize, u64), VecDeque<Vec<f32>>>;

/// How long a mailbox receive waits before declaring the sender lost.
/// Generous: in-process peers only miss a send when their thread died.
const MESH_RECV_TIMEOUT: Duration = Duration::from_secs(20);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// No operation in flight.
    Idle,
    /// Ranks are contributing to the current operation.
    Accumulating,
    /// The result is complete; ranks are copying it out.
    Ready,
}

/// What kind of collective the current generation is running; used to
/// detect mismatched call sequences early instead of deadlocking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    AllReduce,
    AllGather,
    Broadcast,
    Barrier,
}

struct Slot {
    phase: Phase,
    kind: Option<OpKind>,
    /// Which ranks have contributed to the current generation. Per-rank
    /// (not a counter) so a rank that participates and *then* dies is
    /// never double-counted as both "arrived" and "dead" — the
    /// completion condition is "every rank arrived or is dead".
    arrived: Vec<bool>,
    /// Which ranks have copied the result out (or drain-joined a failed
    /// generation). The slot resets when every rank departed or is dead;
    /// a counter here would let a participant's later death release the
    /// slot early and strand a survivor still waiting for `Ready`.
    departed: Vec<bool>,
    /// Reduction accumulator (allreduce) or broadcast payload.
    acc: Vec<f32>,
    /// Per-rank payloads (allgather).
    payloads: Vec<Vec<f32>>,
    op: Option<ReduceOp>,
    /// First protocol violation observed this generation. Once set, the
    /// generation still runs to completion (every rank arrives and
    /// departs) but every participant gets this error instead of a
    /// result — a group failure, not a deadlock.
    error: Option<CollectiveError>,
}

struct Shared {
    size: usize,
    slot: Mutex<Slot>,
    cv: Condvar,
    traffic: Arc<TrafficCounter>,
    /// Point-to-point mailboxes backing the [`Transport`] impl so the
    /// algorithm layer (`crate::algo`) can run its ring/halving-doubling
    /// collectives over thread ranks.
    mesh: Mutex<MeshMailboxes>,
    mesh_cv: Condvar,
    /// Per-rank failure flags: the injectable failure-detector path
    /// ([`ThreadComm::mark_dead`]) that keeps chaos/elastic tests
    /// deterministic on the thread fabric. A dead rank fails every
    /// in-flight and subsequent rendezvous/mesh receive promptly with
    /// [`CollectiveError::RankFailed`].
    dead: Vec<AtomicBool>,
    /// Ranks acknowledged as removed from the group by a membership
    /// shrink ([`Membership::fence`]); excluded from the any-dead
    /// failure scan so the survivor group keeps communicating.
    fenced: Vec<AtomicBool>,
}

impl Shared {
    fn is_dead(&self, r: usize) -> bool {
        match self.dead.get(r) {
            Some(d) => d.load(Ordering::Relaxed),
            None => true,
        }
    }

    /// Every rank is either flagged in `mask` or known dead — the
    /// rendezvous completion/reset condition.
    fn all_accounted(&self, mask: &[bool]) -> bool {
        mask.iter().enumerate().all(|(r, &m)| m || self.is_dead(r))
    }

    fn first_unfenced_dead(&self) -> Option<usize> {
        self.dead
            .iter()
            .zip(&self.fenced)
            .position(|(d, f)| d.load(Ordering::Relaxed) && !f.load(Ordering::Relaxed))
    }
}

/// One rank's handle onto a thread-rank communicator group.
pub struct ThreadComm {
    rank: usize,
    shared: Arc<Shared>,
    /// Per-rank traffic counter (each rank sees its own volumes, as a
    /// Horovod rank would).
    traffic: Arc<TrafficCounter>,
}

impl ThreadComm {
    /// Create a group of `size` connected communicators, one per rank.
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn create(size: usize) -> Vec<ThreadComm> {
        assert!(size > 0, "communicator group must have at least one rank");
        let shared = Arc::new(Shared {
            size,
            slot: Mutex::new(Slot {
                phase: Phase::Idle,
                kind: None,
                arrived: vec![false; size],
                departed: vec![false; size],
                acc: Vec::new(),
                payloads: vec![Vec::new(); size],
                op: None,
                error: None,
            }),
            cv: Condvar::new(),
            traffic: TrafficCounter::new(),
            mesh: Mutex::new(HashMap::new()),
            mesh_cv: Condvar::new(),
            dead: (0..size).map(|_| AtomicBool::new(false)).collect(),
            fenced: (0..size).map(|_| AtomicBool::new(false)).collect(),
        });
        (0..size)
            .map(|rank| ThreadComm {
                rank,
                shared: Arc::clone(&shared),
                traffic: TrafficCounter::new(),
            })
            .collect()
    }

    /// Group-wide traffic (sum over ranks).
    pub fn group_traffic(&self) -> Traffic {
        self.shared.traffic.snapshot()
    }

    /// Declare `rank` permanently failed — the thread fabric's injectable
    /// failure detector (the proc fabric detects EOF/heartbeat loss; here
    /// the victim or a chaos test injects the observation
    /// deterministically).
    ///
    /// Any in-flight rendezvous completes immediately with
    /// [`CollectiveError::RankFailed`] on every participant, blocked mesh
    /// receivers wake and fail promptly, and later collectives on the
    /// un-shrunk group keep failing with the culprit until the survivors
    /// [`Elastic::shrink`] to a new epoch.
    pub fn mark_dead(&self, rank: usize) {
        let Some(flag) = self.shared.dead.get(rank) else {
            return;
        };
        flag.store(true, Ordering::Relaxed);
        {
            let mut slot = self.shared.slot.lock();
            match slot.phase {
                Phase::Accumulating => {
                    // Force-complete the wedged generation: everyone
                    // waiting gets the failure instead of blocking on an
                    // arrival that will never come.
                    if slot.error.is_none() {
                        slot.error = Some(CollectiveError::RankFailed(rank));
                    }
                    slot.phase = Phase::Ready;
                    for d in &mut slot.departed {
                        *d = false;
                    }
                }
                Phase::Ready => {
                    // The drain may have been blocked only on the rank
                    // that just died — release the slot if so.
                    if self.shared.all_accounted(&slot.departed) {
                        slot.phase = Phase::Idle;
                        slot.kind = None;
                        slot.error = None;
                    }
                }
                Phase::Idle => {}
            }
            self.shared.cv.notify_all();
        }
        {
            let _mesh = self.shared.mesh.lock();
            self.shared.mesh_cv.notify_all();
        }
    }

    /// A second handle onto this rank's endpoint (same rank, same group
    /// state) so the membership layer can own the base transport behind
    /// an `Arc` while the caller keeps using the original.
    fn clone_handle(&self) -> ThreadComm {
        ThreadComm {
            rank: self.rank,
            shared: Arc::clone(&self.shared),
            traffic: Arc::clone(&self.traffic),
        }
    }

    /// Run the generic rendezvous. `contribute` runs under the lock when
    /// this rank arrives; `extract` runs under the lock once the result is
    /// ready; the last departer resets the slot.
    ///
    /// Protocol violations (mismatched kind, op, or lengths) do not panic
    /// under the lock: the offending generation records the error, every
    /// rank still arrives and departs (so nobody deadlocks), and every
    /// participant receives the same [`CollectiveError`].
    fn rendezvous<R>(
        &self,
        kind: OpKind,
        contribute: impl FnOnce(&mut Slot) -> Result<(), CollectiveError>,
        complete: impl FnOnce(&mut Slot) -> Result<(), CollectiveError>,
        extract: impl FnOnce(&Slot) -> R,
    ) -> Result<R, CollectiveError> {
        let shared = &*self.shared;
        let mut slot = shared.slot.lock();

        // A rank already declared dead observes its own death rather
        // than participating in (and wedging) the survivors' rendezvous.
        if shared.is_dead(self.rank) {
            return Err(CollectiveError::RankFailed(self.rank));
        }

        // Wait for any previous operation to fully drain. If the draining
        // generation failed with a dead rank, join its drain instead:
        // the group is broken until the survivors shrink, and waiting for
        // a full complement of departures would deadlock (participants of
        // the failed generation have already moved on to reconfiguring).
        while slot.phase == Phase::Ready {
            if let Some(e @ CollectiveError::RankFailed(_)) = slot.error {
                slot.departed[self.rank] = true;
                if shared.all_accounted(&slot.departed) {
                    slot.phase = Phase::Idle;
                    slot.kind = None;
                    slot.error = None;
                    shared.cv.notify_all();
                }
                return Err(e);
            }
            shared.cv.wait(&mut slot);
        }

        if slot.phase == Phase::Idle {
            slot.phase = Phase::Accumulating;
            slot.kind = Some(kind);
            for a in &mut slot.arrived {
                *a = false;
            }
            slot.acc.clear();
            for p in &mut slot.payloads {
                p.clear();
            }
            slot.op = None;
            slot.error = None;
        }
        if slot.kind != Some(kind) {
            // Still participate in the generation so every rank observes
            // the failure instead of hanging on a rendezvous that can
            // never complete.
            slot.error = Some(CollectiveError::Mismatch(
                "collective call sequence mismatch across ranks",
            ));
        } else if slot.error.is_none() {
            if let Err(e) = contribute(&mut slot) {
                slot.error = Some(e);
            }
        }
        slot.arrived[self.rank] = true;

        // Dead ranks can never arrive or depart: they count as virtual
        // participants so the survivors' generation still completes — with
        // RankFailed instead of a result. The per-rank masks make this
        // exact: a rank that contributed and died later is one
        // participant, not two. An unfenced dead member also dooms the
        // generation outright: complete it with the culprit immediately
        // rather than waiting for live peers, who may have stopped
        // issuing collectives and moved on to membership agreement.
        let doomed = shared.first_unfenced_dead();
        if doomed.is_some() || shared.all_accounted(&slot.arrived) {
            if slot.error.is_none() {
                if let Some(d) = doomed {
                    slot.error = Some(CollectiveError::RankFailed(d));
                } else if let Err(e) = complete(&mut slot) {
                    slot.error = Some(e);
                }
            }
            slot.phase = Phase::Ready;
            for d in &mut slot.departed {
                *d = false;
            }
            shared.cv.notify_all();
        } else {
            while slot.phase != Phase::Ready {
                shared.cv.wait(&mut slot);
            }
        }

        let result = match slot.error {
            Some(e) => Err(e),
            None => Ok(extract(&slot)),
        };
        slot.departed[self.rank] = true;
        if shared.all_accounted(&slot.departed) {
            slot.phase = Phase::Idle;
            slot.kind = None;
            slot.error = None;
            shared.cv.notify_all();
        }
        result
    }

    fn record(&self, class: TrafficClass, bytes: u64) {
        self.traffic.record(class, bytes);
        self.shared.traffic.record(class, bytes);
        // Mirror into the ambient telemetry registry (when installed) so
        // the live metrics plane can serve traffic without reaching into
        // communicator internals. Only the per-rank counter is mirrored:
        // every rank mirrors its own ops, so the registry total equals
        // the group total without double counting the shared counter.
        if let Some((registry, _)) = kfac_telemetry::current() {
            registry.counter("comm/ops").inc();
            registry.counter(class.byte_counter_name()).add(bytes);
        }
    }
}

impl Transport for ThreadComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.shared.size
    }

    fn try_send(&self, to: usize, tag: u64, payload: &[f32]) -> Result<(), CollectiveError> {
        debug_assert!(to < self.shared.size);
        let mut mesh = self.shared.mesh.lock();
        mesh.entry((self.rank, to, tag))
            .or_default()
            .push_back(payload.to_vec());
        self.shared.mesh_cv.notify_all();
        Ok(())
    }

    fn try_recv(&self, from: usize, tag: u64) -> Result<Vec<f32>, CollectiveError> {
        let key = (from, self.rank, tag);
        let deadline = Instant::now() + MESH_RECV_TIMEOUT;
        let mut mesh = self.shared.mesh.lock();
        loop {
            if let Some(q) = mesh.get_mut(&key) {
                if let Some(msg) = q.pop_front() {
                    if q.is_empty() {
                        mesh.remove(&key);
                    }
                    return Ok(msg);
                }
            }
            // A collective cannot complete once *any* unfenced group
            // member is gone: fail promptly with the culprit instead of
            // burning the deadline (fenced ranks belong to previous
            // epochs and don't count).
            if let Some(culprit) = self.shared.first_unfenced_dead() {
                return Err(CollectiveError::RankFailed(culprit));
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(CollectiveError::Timeout {
                    waited_ms: MESH_RECV_TIMEOUT.as_millis() as u64,
                });
            }
            self.shared.mesh_cv.wait_for(&mut mesh, deadline - now);
        }
    }
}

impl Membership for ThreadComm {
    fn observed_dead(&self) -> Vec<usize> {
        (0..self.shared.size)
            .filter(|&r| {
                self.shared.dead[r].load(Ordering::Relaxed)
                    && !self.shared.fenced[r].load(Ordering::Relaxed)
            })
            .collect()
    }

    fn mark_dead(&self, original: usize) {
        ThreadComm::mark_dead(self, original);
    }

    fn fence(&self, dead: &[usize], new_epoch: u64) {
        for &d in dead {
            if let Some(flag) = self.shared.dead.get(d) {
                flag.store(true, Ordering::Relaxed);
                self.shared.fenced[d].store(true, Ordering::Relaxed);
            }
        }
        let fenced: Vec<bool> = self
            .shared
            .fenced
            .iter()
            .map(|f| f.load(Ordering::Relaxed))
            .collect();
        let mut mesh = self.shared.mesh.lock();
        // Purge this rank's inbound mailboxes of anything from a fenced
        // peer or stamped with a pre-shrink epoch; other ranks purge
        // their own when they fence.
        let me = self.rank;
        mesh.retain(|&(from, to, tag), _| {
            to != me || (!fenced[from] && (tag & CTRL_BIT != 0 || tag_epoch(tag) >= new_epoch))
        });
        self.shared.mesh_cv.notify_all();
    }

    fn recv_deadline(
        &self,
        from: usize,
        tag: u64,
        deadline: Instant,
    ) -> Result<Vec<f32>, CollectiveError> {
        let key = (from, self.rank, tag);
        let mut mesh = self.shared.mesh.lock();
        loop {
            if let Some(q) = mesh.get_mut(&key) {
                if let Some(msg) = q.pop_front() {
                    if q.is_empty() {
                        mesh.remove(&key);
                    }
                    return Ok(msg);
                }
            }
            if self.shared.is_dead(from) {
                return Err(CollectiveError::RankFailed(from));
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(CollectiveError::Timeout { waited_ms: 0 });
            }
            self.shared.mesh_cv.wait_for(&mut mesh, deadline - now);
        }
    }
}

impl Elastic for ThreadComm {
    type Shrunk = ShrunkComm<ThreadComm>;

    fn shrink(&self, dead_hint: &[usize]) -> Result<ShrunkComm<ThreadComm>, CollectiveError> {
        let base = Arc::new(self.clone_handle());
        let view = GroupView::boot(self.rank, self.shared.size);
        let next = agree_on_survivors(base.as_ref(), &view, dead_hint, AGREEMENT_DEADLINE)?;
        // The mailbox mesh has no latency/bandwidth trade-off for the
        // policy to tune, and every algorithm reduces in the same order.
        Ok(ShrunkComm::new(base, next, AlgoPolicy::default()))
    }

    fn epoch(&self) -> u64 {
        0
    }
}

impl Communicator for ThreadComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.shared.size
    }

    fn try_allreduce_tagged(
        &self,
        buf: &mut [f32],
        op: ReduceOp,
        class: TrafficClass,
    ) -> Result<(), CollectiveError> {
        let size = self.shared.size;
        let _span = Span::enter("comm/allreduce")
            .with("class", class.name())
            .with("bytes", (buf.len() * 4) as u64);
        self.record(class, (buf.len() * 4) as u64);
        if size == 1 {
            return Ok(());
        }
        // Contributions are staged per rank and reduced in *rank order*
        // at completion: floating-point addition is non-associative, so
        // arrival-order accumulation would make multi-rank training
        // nondeterministic run-to-run. Rank-ordered reduction keeps the
        // whole stack bit-reproducible given a seed.
        let rank = self.rank;
        let out = self.rendezvous(
            OpKind::AllReduce,
            |slot| {
                if let Some(prev) = slot.op {
                    if prev != op {
                        return Err(CollectiveError::Mismatch(
                            "allreduce op mismatch across ranks",
                        ));
                    }
                } else {
                    slot.op = Some(op);
                }
                if !slot
                    .payloads
                    .iter()
                    .all(|p| p.is_empty() || p.len() == buf.len())
                {
                    return Err(CollectiveError::Mismatch(
                        "allreduce length mismatch across ranks",
                    ));
                }
                slot.payloads[rank] = buf.to_vec();
                Ok(())
            },
            |slot| {
                let Some(op) = slot.op else {
                    return Err(CollectiveError::Mismatch(
                        "allreduce op never recorded for this generation",
                    ));
                };
                slot.acc = slot.payloads[0].clone();
                for r in 1..size {
                    let contribution = std::mem::take(&mut slot.payloads[r]);
                    combine_into(&mut slot.acc, &contribution, op);
                }
                slot.payloads[0].clear();
                finalize(&mut slot.acc, op, size);
                Ok(())
            },
            |slot| slot.acc.clone(),
        )?;
        buf.copy_from_slice(&out);
        Ok(())
    }

    fn try_allgather_tagged(
        &self,
        payload: &[f32],
        class: TrafficClass,
    ) -> Result<Vec<Vec<f32>>, CollectiveError> {
        let _span = Span::enter("comm/allgather")
            .with("class", class.name())
            .with("bytes", (payload.len() * 4) as u64);
        self.record(class, (payload.len() * 4) as u64);
        if self.shared.size == 1 {
            return Ok(vec![payload.to_vec()]);
        }
        let rank = self.rank;
        self.rendezvous(
            OpKind::AllGather,
            |slot| {
                slot.payloads[rank] = payload.to_vec();
                Ok(())
            },
            |_slot| Ok(()),
            |slot| slot.payloads.clone(),
        )
    }

    fn try_broadcast_tagged(
        &self,
        buf: &mut [f32],
        root: usize,
        class: TrafficClass,
    ) -> Result<(), CollectiveError> {
        let _span = Span::enter("comm/broadcast")
            .with("class", class.name())
            .with("bytes", (buf.len() * 4) as u64)
            .with("root", root);
        self.record(class, (buf.len() * 4) as u64);
        if self.shared.size == 1 {
            if root != 0 {
                return Err(CollectiveError::Mismatch("broadcast root out of range"));
            }
            return Ok(());
        }
        let rank = self.rank;
        let size = self.shared.size;
        let out = self.rendezvous(
            OpKind::Broadcast,
            |slot| {
                if root >= size {
                    return Err(CollectiveError::Mismatch("broadcast root out of range"));
                }
                if rank == root {
                    slot.acc = buf.to_vec();
                }
                Ok(())
            },
            |_slot| Ok(()),
            |slot| slot.acc.clone(),
        )?;
        if rank != root {
            if out.len() != buf.len() {
                return Err(CollectiveError::Mismatch("broadcast length mismatch"));
            }
            buf.copy_from_slice(&out);
        }
        Ok(())
    }

    fn barrier(&self) {
        if self.shared.size == 1 {
            return;
        }
        let _span = Span::enter("comm/barrier");
        self.rendezvous(OpKind::Barrier, |_| Ok(()), |_| Ok(()), |_| ())
            .unwrap_or_else(|e| panic!("{e}"));
    }

    fn traffic(&self) -> Traffic {
        self.traffic.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    /// Run `f(rank, comm)` on every rank of a fresh group and collect the
    /// per-rank results.
    fn run_group<R: Send>(size: usize, f: impl Fn(usize, &ThreadComm) -> R + Sync) -> Vec<R> {
        let comms = ThreadComm::create(size);
        let f = &f;
        thread::scope(|s| {
            let handles: Vec<_> = comms
                .iter()
                .enumerate()
                .map(|(rank, comm)| s.spawn(move || f(rank, comm)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn allreduce_sum_all_sizes() {
        for size in [1, 2, 3, 4, 8] {
            let results = run_group(size, |rank, comm| {
                let mut buf = vec![rank as f32, 1.0];
                comm.allreduce(&mut buf, ReduceOp::Sum);
                buf
            });
            let expect_sum: f32 = (0..size).map(|r| r as f32).sum();
            for r in &results {
                assert_eq!(r[0], expect_sum, "size {}", size);
                assert_eq!(r[1], size as f32);
            }
        }
    }

    #[test]
    fn allreduce_average() {
        let results = run_group(4, |rank, comm| {
            let mut buf = vec![(rank * 2) as f32];
            comm.allreduce(&mut buf, ReduceOp::Average);
            buf[0]
        });
        for r in results {
            assert_eq!(r, 3.0); // mean of 0,2,4,6
        }
    }

    #[test]
    fn allreduce_max() {
        let results = run_group(5, |rank, comm| {
            let mut buf = vec![-(rank as f32), rank as f32];
            comm.allreduce(&mut buf, ReduceOp::Max);
            buf
        });
        for r in results {
            assert_eq!(r, vec![0.0, 4.0]);
        }
    }

    #[test]
    fn back_to_back_allreduces_do_not_mix() {
        // Regression for generation handling: a fast rank must not leak
        // into the next operation's accumulator.
        let results = run_group(4, |rank, comm| {
            let mut total = Vec::new();
            for round in 0..50 {
                let mut buf = vec![(rank + round) as f32];
                comm.allreduce(&mut buf, ReduceOp::Sum);
                total.push(buf[0]);
            }
            total
        });
        for r in &results {
            for (round, &v) in r.iter().enumerate() {
                let expect: f32 = (0..4).map(|rk| (rk + round) as f32).sum();
                assert_eq!(v, expect);
            }
        }
    }

    #[test]
    fn allgather_variable_lengths() {
        let results = run_group(3, |rank, comm| {
            let payload: Vec<f32> = (0..=rank).map(|i| (rank * 10 + i) as f32).collect();
            comm.allgather(&payload)
        });
        for gathered in &results {
            assert_eq!(gathered.len(), 3);
            assert_eq!(gathered[0], vec![0.0]);
            assert_eq!(gathered[1], vec![10.0, 11.0]);
            assert_eq!(gathered[2], vec![20.0, 21.0, 22.0]);
        }
    }

    #[test]
    fn broadcast_from_each_root() {
        for root in 0..3 {
            let results = run_group(3, move |rank, comm| {
                let mut buf = if rank == root {
                    vec![42.0, 43.0]
                } else {
                    vec![0.0, 0.0]
                };
                comm.broadcast(&mut buf, root);
                buf
            });
            for r in results {
                assert_eq!(r, vec![42.0, 43.0]);
            }
        }
    }

    #[test]
    fn barrier_orders_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let before = AtomicUsize::new(0);
        run_group(6, |_rank, comm| {
            before.fetch_add(1, Ordering::SeqCst);
            comm.barrier();
            // Every rank must have incremented before any rank passes.
            assert_eq!(before.load(Ordering::SeqCst), 6);
        });
    }

    #[test]
    fn mixed_op_sequences() {
        // Interleave all collective kinds repeatedly; any generation bug
        // deadlocks or corrupts data.
        let results = run_group(4, |rank, comm| {
            let mut acc = 0.0f32;
            for round in 0..20 {
                let mut g = vec![rank as f32 + round as f32; 8];
                comm.allreduce(&mut g, ReduceOp::Average);
                acc += g[0];
                let gathered = comm.allgather(&[rank as f32]);
                assert_eq!(gathered.len(), 4);
                let mut b = vec![if rank == round % 4 { 7.0 } else { 0.0 }];
                comm.broadcast(&mut b, round % 4);
                assert_eq!(b[0], 7.0);
                comm.barrier();
            }
            acc
        });
        let expect: f32 = (0..20).map(|round| 1.5 + round as f32).sum();
        for r in results {
            assert!((r - expect).abs() < 1e-4);
        }
    }

    #[test]
    fn traffic_is_recorded_per_class() {
        let results = run_group(2, |_rank, comm| {
            let mut buf = vec![0.0f32; 100];
            comm.allreduce_tagged(&mut buf, ReduceOp::Sum, TrafficClass::Gradient);
            comm.allreduce_tagged(&mut buf, ReduceOp::Sum, TrafficClass::Factor);
            let _ = comm.allgather_tagged(&buf, TrafficClass::Eigen);
            comm.traffic()
        });
        for t in results {
            assert_eq!(t.gradient_bytes, 400);
            assert_eq!(t.factor_bytes, 400);
            assert_eq!(t.eigen_bytes, 400);
            assert_eq!(t.ops, 3);
        }
    }

    #[test]
    fn mismatched_kinds_error_on_every_rank_instead_of_deadlocking() {
        let results = run_group(2, |rank, comm| {
            if rank == 0 {
                comm.try_allreduce_tagged(&mut [1.0], ReduceOp::Sum, TrafficClass::Other)
                    .map(|_| ())
            } else {
                comm.try_allgather_tagged(&[1.0], TrafficClass::Other)
                    .map(|_| ())
            }
        });
        for r in results {
            assert_eq!(
                r,
                Err(CollectiveError::Mismatch(
                    "collective call sequence mismatch across ranks"
                ))
            );
        }
    }

    #[test]
    fn mismatched_lengths_error_on_every_rank() {
        let results = run_group(3, |rank, comm| {
            let mut buf = vec![0.0; 2 + rank % 2]; // ranks disagree on length
            comm.try_allreduce_tagged(&mut buf, ReduceOp::Sum, TrafficClass::Other)
        });
        for r in results {
            assert_eq!(
                r,
                Err(CollectiveError::Mismatch(
                    "allreduce length mismatch across ranks"
                ))
            );
        }
    }

    #[test]
    fn group_recovers_after_a_failed_generation() {
        let results = run_group(2, |rank, comm| {
            let mut bad = vec![0.0; 1 + rank]; // length mismatch → group error
            let first = comm.try_allreduce_tagged(&mut bad, ReduceOp::Sum, TrafficClass::Other);
            assert!(first.is_err());
            // The next, well-formed collective must still work.
            let mut good = vec![rank as f32];
            comm.try_allreduce_tagged(&mut good, ReduceOp::Sum, TrafficClass::Other)
                .unwrap();
            good[0]
        });
        for r in results {
            assert_eq!(r, 1.0);
        }
    }

    #[test]
    fn size_one_short_circuits() {
        let comms = ThreadComm::create(1);
        let mut buf = vec![5.0];
        comms[0].allreduce(&mut buf, ReduceOp::Average);
        assert_eq!(buf, vec![5.0]);
        let g = comms[0].allgather(&buf);
        assert_eq!(g, vec![vec![5.0]]);
        comms[0].barrier();
    }

    #[test]
    fn collectives_fail_promptly_with_the_culprit_after_mark_dead() {
        let results = run_group(3, |rank, comm| {
            // One clean round so the death lands mid-stream.
            let mut buf = vec![rank as f32];
            comm.try_allreduce_tagged(&mut buf, ReduceOp::Sum, TrafficClass::Gradient)
                .unwrap();
            if rank == 2 {
                comm.mark_dead(2);
                return Vec::new();
            }
            // Both the in-flight and every subsequent collective on the
            // un-shrunk group must surface the culprit, not hang.
            let mut errs = Vec::new();
            for _ in 0..3 {
                let mut buf = vec![rank as f32];
                let e = comm
                    .try_allreduce_tagged(&mut buf, ReduceOp::Sum, TrafficClass::Gradient)
                    .unwrap_err();
                errs.push(e);
            }
            errs
        });
        for (rank, errs) in results.iter().enumerate() {
            if rank == 2 {
                continue;
            }
            assert_eq!(errs.len(), 3);
            for e in errs {
                assert!(
                    matches!(e, CollectiveError::RankFailed(2)),
                    "rank {rank} got {e:?}"
                );
            }
        }
    }

    #[test]
    fn a_dead_rank_observes_its_own_death() {
        let comms = ThreadComm::create(2);
        comms[1].mark_dead(1);
        let mut buf = vec![1.0];
        let e = comms[1]
            .try_allreduce_tagged(&mut buf, ReduceOp::Sum, TrafficClass::Gradient)
            .unwrap_err();
        assert!(matches!(e, CollectiveError::RankFailed(1)));
    }

    /// Regression for the drain race that stranded a survivor: a rank
    /// that departs a completed generation and *then* dies must not be
    /// double-counted (once as departed, once as dead) — that released
    /// the slot one departure early and left the slowest survivor
    /// waiting on a generation that no longer existed. Many repetitions
    /// because the bug needs the victim's death to land mid-drain.
    #[test]
    fn death_between_generations_does_not_strand_a_survivor() {
        for round in 0..25 {
            let kill_rank = 1 + (round % 3);
            let results = run_group(4, |rank, comm| {
                for r in 0..3 {
                    let mut buf = vec![rank as f32];
                    comm.try_allreduce_tagged(&mut buf, ReduceOp::Sum, TrafficClass::Gradient)
                        .unwrap();
                    assert_eq!(buf[0], 6.0, "pre-kill round {r}");
                }
                if rank == kill_rank {
                    comm.mark_dead(kill_rank);
                    return None;
                }
                let mut buf = vec![rank as f32];
                let e = comm
                    .try_allreduce_tagged(&mut buf, ReduceOp::Sum, TrafficClass::Gradient)
                    .unwrap_err();
                assert!(matches!(e, CollectiveError::RankFailed(r) if r == kill_rank));
                // The survivors shrink to a working, epoch-fenced group.
                let shrunk = comm.shrink(&[kill_rank]).expect("membership agreement");
                assert_eq!(shrunk.view().epoch, 1);
                assert_eq!(shrunk.size(), 3);
                let mut buf = vec![shrunk.rank() as f32];
                shrunk.allreduce(&mut buf, ReduceOp::Sum);
                assert_eq!(buf[0], 3.0); // 0 + 1 + 2
                let gathered = shrunk.allgather(&[shrunk.rank() as f32]);
                assert_eq!(gathered.len(), 3);
                Some(shrunk.rank())
            });
            let mut new_ranks: Vec<usize> = results.into_iter().flatten().collect();
            new_ranks.sort_unstable();
            assert_eq!(new_ranks, vec![0, 1, 2], "kill {kill_rank}");
        }
    }
}
