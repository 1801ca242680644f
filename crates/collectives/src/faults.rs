//! Deterministic fault injection for collectives.
//!
//! The paper's training runs span 16–256 GPUs, where stragglers, dropped
//! messages, and transient link failures are routine; follow-up work on
//! distributed K-FAC (Zhang et al. 2022, Shi et al. 2021) notes that
//! overlapped comm/compute pipelines amplify the blast radius of a single
//! slow collective. An iteration is a fixed sequence of collectives, so
//! *where* in that sequence a fault lands decides the outcome. This module
//! places faults there:
//!
//! * [`FaultPlan`] — a list of placed [`Fault`]s. A fault hits the
//!   `attempt`-th attempt (counted from 0, retries included) of one
//!   [`TrafficClass`], identically on every rank.
//! * [`FaultyCommunicator`] — wraps any [`Communicator`] and keeps one
//!   attempt counter per class. Ranks issue identical call sequences (the
//!   MPI contract), so every rank's counters agree and a fault is
//!   *global*: all ranks fail, or none do, and the group's collective
//!   sequence never desynchronizes. Because each class counts on its own,
//!   a Factor or Eigen position does not move when the gradient schedule
//!   changes the number of Gradient buckets.
//!
//! ## Fault semantics
//!
//! [`FaultKind::Delay`] makes only the culprit rank sleep — the others
//! block in the collective, which is exactly a straggler. An
//! [`FaultKind::Outage`] fails the attempts of its window with
//! [`CollectiveError::Timeout`]: shorter than the retry budget it is
//! healed by [`crate::RetryPolicy`], otherwise the caller degrades (stale
//! factors, skipped step). [`FaultKind::Corrupt`] is corruption caught by
//! a transport checksum (the attempt fails, source data intact);
//! [`FaultKind::BitFlip`] is *silent* corruption — the collective succeeds
//! but one bit of one result word flips, identically on every rank, so
//! downstream finiteness/norm guards are what must catch it.
//! [`FaultKind::RankLoss`] latches: from its attempt on, every collective
//! of every class fails with [`CollectiveError::RankFailed`] and the
//! caller must checkpoint-restore.

use crate::communicator::{Communicator, ReduceOp};
use crate::error::CollectiveError;
use crate::traffic::{Traffic, TrafficClass};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Straggler: the culprit rank sleeps `micros` before joining the
    /// collective; everyone else waits in it.
    Delay {
        /// Sleep applied to the culprit rank.
        micros: u64,
    },
    /// Outage: this many consecutive attempts of the class fail with
    /// [`CollectiveError::Timeout`].
    Outage {
        /// Window length in attempts.
        attempts: u32,
    },
    /// Corruption caught in flight (transport checksum): the attempt
    /// fails with [`CollectiveError::Corrupted`], source data intact.
    Corrupt,
    /// Silent corruption: the collective succeeds but `bit` of result
    /// word `word` flips, identically on every rank. The word is taken
    /// modulo the buffer — for an allgather, modulo the culprit's
    /// partition.
    BitFlip {
        /// Word index, taken modulo the corrupted buffer's length.
        word: usize,
        /// Bit of the `f32` to flip (23..=30 are the exponent).
        bit: u32,
    },
    /// The culprit rank is permanently gone: this attempt and every later
    /// collective of every class fail with [`CollectiveError::RankFailed`].
    RankLoss,
}

/// A fault placed on one attempt of one traffic class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// The traffic class whose attempts are counted.
    pub class: TrafficClass,
    /// The attempt the fault hits (its first, for an outage), counted
    /// from 0 per class with retries included.
    pub attempt: u64,
    /// What happens there.
    pub kind: FaultKind,
    /// Rank blamed for the fault (the straggler, the corrupted partition,
    /// the lost rank). For outages and caught corruption it is
    /// attribution only.
    pub culprit: usize,
}

impl Fault {
    fn covers(&self, class: TrafficClass, attempt: u64) -> bool {
        let span = match self.kind {
            FaultKind::Outage { attempts } => u64::from(attempts),
            _ => 1,
        };
        self.class == class && (self.attempt..self.attempt + span).contains(&attempt)
    }
}

/// A list of placed faults. See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// The faults; where two cover one attempt, the first listed wins.
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// A plan injecting exactly `faults`.
    pub fn new(faults: Vec<Fault>) -> Self {
        FaultPlan { faults }
    }

    /// The fault governing attempt `attempt` of `class`, if any.
    fn fault_at(&self, class: TrafficClass, attempt: u64) -> Option<&Fault> {
        self.faults.iter().find(|f| f.covers(class, attempt))
    }
}

/// A [`Communicator`] wrapper that injects the faults a [`FaultPlan`]
/// places. See the [module docs](self) for the semantics.
pub struct FaultyCommunicator<C> {
    inner: C,
    plan: Arc<FaultPlan>,
    /// Attempts issued so far, per [`TrafficClass`] (indexed by its
    /// declaration order).
    attempts: [AtomicU64; TrafficClass::Other as usize + 1],
    /// The culprit of a [`FaultKind::RankLoss`] that has struck.
    lost: OnceLock<usize>,
}

impl<C: Communicator> FaultyCommunicator<C> {
    /// Wrap `inner`, consulting `plan` before every collective.
    pub fn new(inner: C, plan: Arc<FaultPlan>) -> Self {
        FaultyCommunicator {
            inner,
            plan,
            attempts: Default::default(),
            lost: OnceLock::new(),
        }
    }

    /// The wrapped communicator.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Attempts of `class` issued so far on this rank.
    pub fn attempts(&self, class: TrafficClass) -> u64 {
        self.attempts[class as usize].load(Ordering::SeqCst)
    }

    /// Count one attempt of `class` and resolve its fate: `Ok(None)` —
    /// run the collective clean; `Ok(Some(fault))` — run it, then apply
    /// the bit flip; `Err` — the attempt fails without touching the group
    /// (identically on every rank).
    fn admit(&self, class: TrafficClass) -> Result<Option<Fault>, CollectiveError> {
        let attempt = self.attempts[class as usize].fetch_add(1, Ordering::SeqCst);
        if let Some(&culprit) = self.lost.get() {
            return Err(CollectiveError::RankFailed(culprit));
        }
        let Some(&fault) = self.plan.fault_at(class, attempt) else {
            return Ok(None);
        };
        match fault.kind {
            FaultKind::Delay { micros } => {
                if fault.culprit == self.inner.rank() {
                    std::thread::sleep(std::time::Duration::from_micros(micros));
                }
                Ok(None)
            }
            FaultKind::Outage { .. } => Err(CollectiveError::Timeout {
                waited_ms: attempt - fault.attempt + 1,
            }),
            FaultKind::Corrupt => Err(CollectiveError::Corrupted),
            FaultKind::RankLoss => {
                let _ = self.lost.set(fault.culprit);
                Err(CollectiveError::RankFailed(fault.culprit))
            }
            FaultKind::BitFlip { .. } => Ok(Some(fault)),
        }
    }
}

/// Apply a [`FaultKind::BitFlip`] to `buf` (an empty buffer has no word
/// to flip).
fn flip_in(fault: &Fault, buf: &mut [f32]) {
    if let (FaultKind::BitFlip { word, bit }, false) = (fault.kind, buf.is_empty()) {
        let w = &mut buf[word % buf.len()];
        *w = f32::from_bits(w.to_bits() ^ (1 << bit));
    }
}

impl<C: Communicator> Communicator for FaultyCommunicator<C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn try_allreduce_tagged(
        &self,
        buf: &mut [f32],
        op: ReduceOp,
        class: TrafficClass,
    ) -> Result<(), CollectiveError> {
        let fault = self.admit(class)?;
        self.inner.try_allreduce_tagged(buf, op, class)?;
        if let Some(f) = fault {
            flip_in(&f, buf);
        }
        Ok(())
    }

    fn try_allgather_tagged(
        &self,
        payload: &[f32],
        class: TrafficClass,
    ) -> Result<Vec<Vec<f32>>, CollectiveError> {
        let fault = self.admit(class)?;
        let mut gathered = self.inner.try_allgather_tagged(payload, class)?;
        if let Some(f) = fault {
            // Every rank flips the same word of its own copy of the
            // culprit's partition.
            if let Some(part) = gathered.get_mut(f.culprit) {
                flip_in(&f, part);
            }
        }
        Ok(gathered)
    }

    fn try_broadcast_tagged(
        &self,
        buf: &mut [f32],
        root: usize,
        class: TrafficClass,
    ) -> Result<(), CollectiveError> {
        let fault = self.admit(class)?;
        self.inner.try_broadcast_tagged(buf, root, class)?;
        if let Some(f) = fault {
            flip_in(&f, buf);
        }
        Ok(())
    }

    /// Barriers pass through uncounted: they carry no payload to corrupt
    /// and have no error path to fail on.
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
    use crate::retry::RetryPolicy;
    use crate::thread::ThreadComm;
    use std::thread;

    /// One fault on `class`'s attempt `attempt`, blaming `culprit`.
    fn one(class: TrafficClass, attempt: u64, kind: FaultKind, culprit: usize) -> Arc<FaultPlan> {
        Arc::new(FaultPlan::new(vec![Fault {
            class,
            attempt,
            kind,
            culprit,
        }]))
    }

    /// Each rank of a `world`-rank thread group runs `f` on its wrapper.
    fn on_group<R: Send>(
        world: usize,
        plan: &Arc<FaultPlan>,
        f: impl Fn(&FaultyCommunicator<ThreadComm>) -> R + Sync,
    ) -> Vec<R> {
        let f = &f;
        thread::scope(|s| {
            let handles: Vec<_> = ThreadComm::create(world)
                .into_iter()
                .map(|comm| {
                    let plan = Arc::clone(plan);
                    s.spawn(move || f(&FaultyCommunicator::new(comm, plan)))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn an_outage_covers_exactly_its_attempts_of_its_class() {
        let plan = one(
            TrafficClass::Factor,
            2,
            FaultKind::Outage { attempts: 3 },
            0,
        );
        let hit: Vec<u64> = (0..8)
            .filter(|&n| plan.fault_at(TrafficClass::Factor, n).is_some())
            .collect();
        assert_eq!(hit, [2, 3, 4]);
        for class in [
            TrafficClass::Gradient,
            TrafficClass::Eigen,
            TrafficClass::Other,
        ] {
            assert!(
                (0..8).all(|n| plan.fault_at(class, n).is_none()),
                "{class:?}"
            );
        }
    }

    #[test]
    fn each_class_counts_its_own_attempts() {
        // Gradient traffic before and between never moves the Factor
        // position: the Factor allreduce is Factor attempt 0 regardless.
        let plan = one(TrafficClass::Factor, 0, FaultKind::Corrupt, 0);
        let seen = on_group(2, &plan, |fc| {
            let mut buf = [1.0];
            let mut errors = Vec::new();
            for class in [
                TrafficClass::Gradient,
                TrafficClass::Gradient,
                TrafficClass::Factor,
                TrafficClass::Factor,
            ] {
                errors.push(
                    fc.try_allreduce_tagged(&mut buf, ReduceOp::Sum, class)
                        .err(),
                );
            }
            (
                errors,
                fc.attempts(TrafficClass::Gradient),
                fc.attempts(TrafficClass::Factor),
            )
        });
        for s in seen {
            assert_eq!(s.0, [None, None, Some(CollectiveError::Corrupted), None]);
            assert_eq!((s.1, s.2), (2, 2));
        }
    }

    #[test]
    fn empty_plan_is_transparent() {
        let results = on_group(2, &Arc::new(FaultPlan::default()), |fc| {
            let mut buf = vec![fc.rank() as f32, 1.0];
            fc.try_allreduce_tagged(&mut buf, ReduceOp::Sum, TrafficClass::Gradient)
                .unwrap();
            buf
        });
        for r in results {
            assert_eq!(r, vec![1.0, 2.0]);
        }
    }

    #[test]
    fn outage_below_the_budget_heals_under_retry() {
        let plan = one(
            TrafficClass::Gradient,
            0,
            FaultKind::Outage { attempts: 2 },
            0,
        );
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff: std::time::Duration::ZERO,
            max_backoff: std::time::Duration::ZERO,
        };
        let results = on_group(2, &plan, |fc| {
            let mut buf = vec![fc.rank() as f32 + 1.0];
            policy
                .run(|| fc.try_allreduce_tagged(&mut buf, ReduceOp::Sum, TrafficClass::Gradient))
                .unwrap();
            (buf[0], fc.attempts(TrafficClass::Gradient))
        });
        for r in results {
            assert_eq!(r, (3.0, 3));
        }
    }

    #[test]
    fn bitflip_corrupts_identically_on_all_ranks() {
        let plan = one(
            TrafficClass::Gradient,
            0,
            FaultKind::BitFlip { word: 4, bit: 30 },
            0,
        );
        let results = on_group(3, &plan, |fc| {
            let mut buf = vec![fc.rank() as f32, 2.0, 3.0];
            fc.try_allreduce_tagged(&mut buf, ReduceOp::Sum, TrafficClass::Gradient)
                .unwrap();
            buf
        });
        // All ranks hold the same (corrupted) result — consistency is
        // what keeps training deterministic even under silent faults —
        // and it differs from the clean reduction in word 4 mod 3 only.
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
        assert_eq!(results[0][0], 3.0);
        assert_eq!(results[0][1], f32::from_bits(6.0f32.to_bits() ^ (1 << 30)));
        assert_eq!(results[0][2], 9.0);
    }

    #[test]
    fn rank_loss_latches_for_every_class_on_every_rank() {
        let plan = one(TrafficClass::Gradient, 1, FaultKind::RankLoss, 1);
        let results = on_group(2, &plan, |fc| {
            [
                TrafficClass::Factor,
                TrafficClass::Gradient,
                TrafficClass::Gradient,
                TrafficClass::Eigen,
                TrafficClass::Gradient,
            ]
            .map(|class| {
                fc.try_allreduce_tagged(&mut [1.0], ReduceOp::Sum, class)
                    .err()
            })
        });
        let lost = Some(CollectiveError::RankFailed(1));
        for r in results {
            assert_eq!(r, [None, None, lost, lost, lost]);
        }
    }
}
