//! Deterministic fault injection for collectives.
//!
//! The paper's training runs span 16–256 GPUs, where stragglers, dropped
//! messages, and transient link failures are routine; follow-up work on
//! distributed K-FAC (Zhang et al. 2022, Shi et al. 2021) notes that
//! overlapped comm/compute pipelines amplify the blast radius of a single
//! slow collective. This module makes those failures *injectable and
//! reproducible* so the degradation paths in `core`/`harness` can be
//! exercised deterministically:
//!
//! * [`FaultPlan`] — a seeded, stateless schedule mapping every logical
//!   collective index to "no fault" or one [`FaultKind`]. Decisions are
//!   pure hashes of `(seed, op_index)`, so two plans built from the same
//!   [`FaultPlanConfig`] produce byte-identical schedules regardless of
//!   query order.
//! * [`FaultyCommunicator`] — wraps any [`Communicator`] and consults the
//!   plan before each collective. Every rank's wrapper advances its own
//!   op cursor in lockstep (ranks issue identical call sequences — the
//!   MPI contract), so a fault decision is *global*: all ranks fail, or
//!   none do, and the group's collective sequence never desynchronizes.
//!
//! ## Fault semantics
//!
//! Faults occupy *windows* of consecutive op indexes; each attempt
//! (including each retry) consumes one index on every rank. A
//! [`FaultKind::Transient`] window shorter than the retry budget is
//! healed by [`crate::RetryPolicy`]; a [`FaultKind::Timeout`] window
//! longer than the budget forces the caller onto its degradation path
//! (stale factors, skipped step). [`FaultKind::Delay`] makes only the
//! culprit rank sleep — the others block in the collective, which is
//! exactly a straggler. [`FaultKind::Corrupt`] models corruption caught
//! by a transport checksum (the attempt fails, source data intact);
//! [`FaultKind::BitFlip`] models *silent* corruption — the collective
//! succeeds but one word of the result has one exponent bit flipped,
//! identically on every rank, so downstream finiteness/norm guards are
//! what must catch it.
//!
//! Rank loss is configured explicitly ([`FaultPlanConfig::rank_loss_at`])
//! rather than drawn, so tests can place it precisely; from that index
//! on, every targeted collective fails with
//! [`CollectiveError::RankFailed`] and the caller must checkpoint-restore.

use crate::communicator::{Communicator, ReduceOp};
use crate::error::CollectiveError;
use crate::traffic::{Traffic, TrafficClass};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Straggler: the culprit rank sleeps `micros` before joining the
    /// collective; everyone else waits in it.
    Delay {
        /// Sleep applied to the culprit rank.
        micros: u64,
    },
    /// Short outage: attempts inside the window fail with
    /// [`CollectiveError::Timeout`]; retries past the window succeed.
    Transient {
        /// Window length in op indexes.
        ops: u32,
    },
    /// Long outage: like [`FaultKind::Transient`] but sized to outlast
    /// any bounded retry budget, forcing graceful degradation.
    Timeout {
        /// Window length in op indexes.
        ops: u32,
    },
    /// Corruption caught in flight (transport checksum): the attempt
    /// fails with [`CollectiveError::Corrupted`], source data intact.
    Corrupt,
    /// Silent corruption: the collective succeeds but one exponent bit
    /// of one result word is flipped, identically on every rank.
    BitFlip,
    /// The culprit rank is permanently gone; every targeted collective
    /// from the loss index on fails with [`CollectiveError::RankFailed`].
    RankLoss,
}

impl FaultKind {
    /// How many consecutive op indexes the fault occupies.
    fn window(&self) -> u64 {
        match self {
            FaultKind::Transient { ops } | FaultKind::Timeout { ops } => (*ops).max(1) as u64,
            _ => 1,
        }
    }
}

/// A fault active at some op index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActiveFault {
    /// The op index at which the fault's window started.
    pub started_at: u64,
    /// The fault.
    pub kind: FaultKind,
    /// Rank blamed for the fault (the straggler / the lost rank). For
    /// global outcomes (timeouts, corruption) it is attribution only.
    pub culprit: usize,
}

/// Probabilities and parameters from which a [`FaultPlan`] draws.
///
/// All probabilities are per *op index*; disabled kinds default to 0.
#[derive(Debug, Clone)]
pub struct FaultPlanConfig {
    /// RNG seed; the entire schedule is a pure function of this.
    pub seed: u64,
    /// Probability an op index starts a straggler delay.
    pub delay_prob: f64,
    /// Straggler sleep in microseconds.
    pub delay_micros: u64,
    /// Probability an op index starts a transient outage window.
    pub transient_prob: f64,
    /// Transient window length (keep below the retry budget).
    pub transient_ops: u32,
    /// Probability an op index starts a long outage window.
    pub timeout_prob: f64,
    /// Long-outage window length (size above the retry budget).
    pub timeout_ops: u32,
    /// Probability of detected (checksummed) corruption.
    pub corrupt_prob: f64,
    /// Probability of silent bit-flip corruption.
    pub bitflip_prob: f64,
    /// Permanent rank loss at `(op_index, rank)`, if any.
    pub rank_loss_at: Option<(u64, usize)>,
    /// Traffic classes faults apply to. Collectives in other classes
    /// (e.g. [`TrafficClass::Other`]: validation, model broadcast) pass
    /// through untouched but still consume op indexes.
    pub classes: Vec<TrafficClass>,
}

impl Default for FaultPlanConfig {
    fn default() -> Self {
        FaultPlanConfig {
            seed: 0,
            delay_prob: 0.0,
            delay_micros: 200,
            transient_prob: 0.0,
            transient_ops: 2,
            timeout_prob: 0.0,
            timeout_ops: 8,
            corrupt_prob: 0.0,
            bitflip_prob: 0.0,
            rank_loss_at: None,
            classes: vec![
                TrafficClass::Gradient,
                TrafficClass::Factor,
                TrafficClass::Eigen,
            ],
        }
    }
}

/// splitmix64-style stateless mixer: decision `lane` for op index `a`
/// under `seed`. Pure, so schedules are order-independent.
fn mix(seed: u64, a: u64, lane: u64) -> u64 {
    let mut z =
        seed ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ lane.wrapping_mul(0xd6e8_feb8_6659_fd93);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Seeded, stateless fault schedule. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct FaultPlan {
    config: FaultPlanConfig,
    world: usize,
    /// Longest window any drawn fault can occupy; bounds the backward
    /// scan in [`FaultPlan::fault_at`].
    max_window: u64,
}

impl FaultPlan {
    /// Build a plan for a `world`-rank group.
    pub fn new(config: FaultPlanConfig, world: usize) -> Self {
        assert!(world > 0, "fault plan needs at least one rank");
        let max_window = [
            1,
            config.transient_ops.max(1) as u64,
            config.timeout_ops.max(1) as u64,
        ]
        .into_iter()
        .max()
        .unwrap_or(1);
        FaultPlan {
            config,
            world,
            max_window,
        }
    }

    /// A plan that injects nothing (useful as a disabled default).
    pub fn disabled(world: usize) -> Self {
        FaultPlan::new(FaultPlanConfig::default(), world)
    }

    /// The configuration this plan draws from.
    pub fn config(&self) -> &FaultPlanConfig {
        &self.config
    }

    /// Does a fault window *start* at op index `i`? Pure hash draw.
    fn draw_start(&self, i: u64) -> Option<(FaultKind, usize)> {
        let c = &self.config;
        let u = unit(mix(c.seed, i, 0));
        let culprit = (mix(c.seed, i, 1) % self.world as u64) as usize;
        let mut acc = c.delay_prob;
        if u < acc {
            return Some((
                FaultKind::Delay {
                    micros: c.delay_micros,
                },
                culprit,
            ));
        }
        acc += c.transient_prob;
        if u < acc {
            return Some((
                FaultKind::Transient {
                    ops: c.transient_ops.max(1),
                },
                culprit,
            ));
        }
        acc += c.timeout_prob;
        if u < acc {
            return Some((
                FaultKind::Timeout {
                    ops: c.timeout_ops.max(1),
                },
                culprit,
            ));
        }
        acc += c.corrupt_prob;
        if u < acc {
            return Some((FaultKind::Corrupt, culprit));
        }
        acc += c.bitflip_prob;
        if u < acc {
            return Some((FaultKind::BitFlip, culprit));
        }
        None
    }

    /// The fault governing op index `i` for a collective of `class`, if
    /// any. Rank loss dominates; otherwise the earliest window covering
    /// `i` wins.
    pub fn fault_at(&self, i: u64, class: TrafficClass) -> Option<ActiveFault> {
        if !self.config.classes.contains(&class) {
            return None;
        }
        if let Some((at, rank)) = self.config.rank_loss_at {
            if i >= at {
                return Some(ActiveFault {
                    started_at: at,
                    kind: FaultKind::RankLoss,
                    culprit: rank,
                });
            }
        }
        let scan_from = i.saturating_sub(self.max_window.saturating_sub(1));
        for start in scan_from..=i {
            if let Some((kind, culprit)) = self.draw_start(start) {
                if start + kind.window() > i {
                    return Some(ActiveFault {
                        started_at: start,
                        kind,
                        culprit,
                    });
                }
            }
        }
        None
    }

    /// Render the first `n_ops` decisions for `class` as bytes — the
    /// canonical form the determinism property tests compare.
    pub fn schedule_bytes(&self, n_ops: u64, class: TrafficClass) -> Vec<u8> {
        let mut out = String::new();
        for i in 0..n_ops {
            use std::fmt::Write;
            let _ = writeln!(out, "{i}: {:?}", self.fault_at(i, class));
        }
        out.into_bytes()
    }

    /// Pick the word and exponent bit a [`FaultKind::BitFlip`] starting
    /// at `started_at` flips in a `len`-word buffer. Deterministic, so
    /// every rank corrupts the identical word the identical way.
    fn bitflip_target(&self, started_at: u64, len: usize) -> Option<(usize, u32)> {
        if len == 0 {
            return None;
        }
        let word = (mix(self.config.seed, started_at, 2) % len as u64) as usize;
        // Flip an exponent bit (23..=30): turns a well-scaled value into
        // a huge-but-often-finite one, the nastiest case for guards that
        // only check for NaN/inf.
        let bit = 23 + (mix(self.config.seed, started_at, 3) % 8) as u32;
        Some((word, bit))
    }
}

/// A [`Communicator`] wrapper that injects the faults a [`FaultPlan`]
/// schedules. See the [module docs](self) for the semantics.
///
/// Each collective attempt (including retries) consumes one op index
/// from this rank's cursor; ranks issuing identical call sequences see
/// identical indexes and therefore identical fault decisions.
pub struct FaultyCommunicator<C> {
    inner: C,
    plan: Arc<FaultPlan>,
    cursor: AtomicU64,
}

impl<C: Communicator> FaultyCommunicator<C> {
    /// Wrap `inner`, consulting `plan` before every collective.
    pub fn new(inner: C, plan: Arc<FaultPlan>) -> Self {
        FaultyCommunicator {
            inner,
            plan,
            cursor: AtomicU64::new(0),
        }
    }

    /// The wrapped communicator.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Number of collective attempts issued so far on this rank.
    pub fn ops_issued(&self) -> u64 {
        self.cursor.load(Ordering::SeqCst)
    }

    /// Consume one op index and resolve this attempt's fate: `Ok(None)`
    /// — run the collective clean; `Ok(Some(fault))` — run it, then
    /// apply the fault's corruption; `Err` — the attempt fails without
    /// touching the group (identically on every rank).
    fn admit(&self, class: TrafficClass) -> Result<Option<ActiveFault>, CollectiveError> {
        let index = self.cursor.fetch_add(1, Ordering::SeqCst);
        match self.plan.fault_at(index, class) {
            None => Ok(None),
            Some(f) => match f.kind {
                FaultKind::Delay { micros } => {
                    if f.culprit == self.inner.rank() {
                        std::thread::sleep(std::time::Duration::from_micros(micros));
                    }
                    Ok(None)
                }
                FaultKind::Transient { .. } | FaultKind::Timeout { .. } => {
                    Err(CollectiveError::Timeout {
                        waited_ms: (index - f.started_at) + 1,
                    })
                }
                FaultKind::Corrupt => Err(CollectiveError::Corrupted),
                FaultKind::RankLoss => Err(CollectiveError::RankFailed(f.culprit)),
                FaultKind::BitFlip => Ok(Some(f)),
            },
        }
    }

    fn flip_in(&self, fault: &ActiveFault, buf: &mut [f32]) {
        if let Some((word, bit)) = self.plan.bitflip_target(fault.started_at, buf.len()) {
            buf[word] = f32::from_bits(buf[word].to_bits() ^ (1 << bit));
        }
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
            self.flip_in(&f, buf);
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
            // Corrupt the culprit rank's partition (every rank applies
            // the same flip to its own copy of the gathered result).
            let part = f.culprit.min(gathered.len().saturating_sub(1));
            if let Some(slice) = gathered.get_mut(part) {
                self.flip_in(&f, slice);
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
            self.flip_in(&f, buf);
        }
        Ok(())
    }

    fn barrier(&self) {
        // Barriers consume an index (keeping cursors aligned with the
        // collective stream) but only straggler delays apply: a barrier
        // carries no payload to corrupt and "failing" one has no
        // degradation story.
        let index = self.cursor.fetch_add(1, Ordering::SeqCst);
        if let Some(f) = self.plan.fault_at(index, TrafficClass::Other) {
            if let FaultKind::Delay { micros } = f.kind {
                if f.culprit == self.inner.rank() {
                    std::thread::sleep(std::time::Duration::from_micros(micros));
                }
            }
        }
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

    fn chaos_config(seed: u64) -> FaultPlanConfig {
        FaultPlanConfig {
            seed,
            delay_prob: 0.05,
            transient_prob: 0.1,
            timeout_prob: 0.02,
            corrupt_prob: 0.05,
            bitflip_prob: 0.02,
            rank_loss_at: Some((1000, 1)),
            ..FaultPlanConfig::default()
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = FaultPlan::new(chaos_config(7), 4);
        let b = FaultPlan::new(chaos_config(7), 4);
        assert_eq!(
            a.schedule_bytes(500, TrafficClass::Gradient),
            b.schedule_bytes(500, TrafficClass::Gradient)
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::new(chaos_config(7), 4);
        let b = FaultPlan::new(chaos_config(8), 4);
        assert_ne!(
            a.schedule_bytes(500, TrafficClass::Gradient),
            b.schedule_bytes(500, TrafficClass::Gradient)
        );
    }

    #[test]
    fn untargeted_classes_see_no_faults() {
        let plan = FaultPlan::new(chaos_config(3), 4);
        for i in 0..2000 {
            assert_eq!(plan.fault_at(i, TrafficClass::Other), None);
        }
    }

    #[test]
    fn windows_cover_consecutive_indexes() {
        let plan = FaultPlan::new(
            FaultPlanConfig {
                seed: 11,
                transient_prob: 0.05,
                transient_ops: 3,
                ..FaultPlanConfig::default()
            },
            2,
        );
        // Find a window start and check it covers exactly `ops` indexes
        // (unless overlapped by another window).
        let mut checked = false;
        for i in 0..5000u64 {
            if let Some(f) = plan.fault_at(i, TrafficClass::Gradient) {
                if f.started_at == i {
                    for k in 0..3 {
                        assert!(
                            plan.fault_at(i + k, TrafficClass::Gradient).is_some(),
                            "index {} inside window starting at {} must be faulty",
                            i + k,
                            i
                        );
                    }
                    checked = true;
                    break;
                }
            }
        }
        assert!(checked, "no window found in 5000 indexes at p=0.05");
    }

    #[test]
    fn rank_loss_is_permanent_and_dominates() {
        let plan = FaultPlan::new(
            FaultPlanConfig {
                seed: 5,
                rank_loss_at: Some((10, 2)),
                ..FaultPlanConfig::default()
            },
            4,
        );
        assert_eq!(plan.fault_at(9, TrafficClass::Gradient), None);
        for i in 10..100 {
            let f = plan.fault_at(i, TrafficClass::Gradient).unwrap();
            assert_eq!(f.kind, FaultKind::RankLoss);
            assert_eq!(f.culprit, 2);
        }
    }

    #[test]
    fn disabled_plan_is_transparent() {
        let comms = ThreadComm::create(2);
        let plan = Arc::new(FaultPlan::disabled(2));
        let results: Vec<Vec<f32>> = thread::scope(|s| {
            comms
                .into_iter()
                .enumerate()
                .map(|(rank, comm)| {
                    let plan = Arc::clone(&plan);
                    s.spawn(move || {
                        let fc = FaultyCommunicator::new(comm, plan);
                        let mut buf = vec![rank as f32, 1.0];
                        fc.try_allreduce_tagged(&mut buf, ReduceOp::Sum, TrafficClass::Gradient)
                            .unwrap();
                        buf
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for r in results {
            assert_eq!(r, vec![1.0, 2.0]);
        }
    }

    #[test]
    fn transient_window_heals_under_retry() {
        // A plan whose very first indexes are a transient window: place
        // it deterministically by scanning seeds.
        let mut seed = 0;
        let plan = loop {
            let p = FaultPlan::new(
                FaultPlanConfig {
                    seed,
                    transient_prob: 0.2,
                    transient_ops: 2,
                    ..FaultPlanConfig::default()
                },
                2,
            );
            if p.fault_at(0, TrafficClass::Gradient).is_some() {
                break p;
            }
            seed += 1;
        };
        let plan = Arc::new(plan);
        let policy = RetryPolicy {
            max_attempts: 8,
            base_backoff: std::time::Duration::ZERO,
            max_backoff: std::time::Duration::ZERO,
        };
        let comms = ThreadComm::create(2);
        let results: Vec<f32> = thread::scope(|s| {
            comms
                .into_iter()
                .enumerate()
                .map(|(rank, comm)| {
                    let plan = Arc::clone(&plan);
                    s.spawn(move || {
                        let fc = FaultyCommunicator::new(comm, plan);
                        let mut buf = vec![rank as f32 + 1.0];
                        policy
                            .run(|| {
                                fc.try_allreduce_tagged(
                                    &mut buf,
                                    ReduceOp::Sum,
                                    TrafficClass::Gradient,
                                )
                            })
                            .unwrap();
                        buf[0]
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for r in results {
            assert_eq!(r, 3.0);
        }
    }

    #[test]
    fn bitflip_corrupts_identically_on_all_ranks() {
        let mut seed = 0;
        let plan = loop {
            let p = FaultPlan::new(
                FaultPlanConfig {
                    seed,
                    bitflip_prob: 0.5,
                    ..FaultPlanConfig::default()
                },
                3,
            );
            if matches!(
                p.fault_at(0, TrafficClass::Gradient),
                Some(ActiveFault {
                    kind: FaultKind::BitFlip,
                    ..
                })
            ) {
                break p;
            }
            seed += 1;
        };
        let plan = Arc::new(plan);
        let comms = ThreadComm::create(3);
        let results: Vec<Vec<f32>> = thread::scope(|s| {
            comms
                .into_iter()
                .enumerate()
                .map(|(rank, comm)| {
                    let plan = Arc::clone(&plan);
                    s.spawn(move || {
                        let fc = FaultyCommunicator::new(comm, plan);
                        let mut buf = vec![rank as f32, 2.0, 3.0];
                        fc.try_allreduce_tagged(&mut buf, ReduceOp::Sum, TrafficClass::Gradient)
                            .unwrap();
                        buf
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        // All ranks hold the same (corrupted) result — consistency is
        // what keeps training deterministic even under silent faults.
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
        // And it differs from the clean reduction in exactly one word.
        let clean = [3.0f32, 6.0, 9.0];
        let diff = results[0]
            .iter()
            .zip(clean.iter())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(diff, 1);
    }

    #[test]
    fn rank_loss_fails_all_ranks_without_hanging() {
        let plan = Arc::new(FaultPlan::new(
            FaultPlanConfig {
                seed: 1,
                rank_loss_at: Some((0, 1)),
                ..FaultPlanConfig::default()
            },
            2,
        ));
        let comms = ThreadComm::create(2);
        let results: Vec<Result<(), CollectiveError>> = thread::scope(|s| {
            comms
                .into_iter()
                .map(|comm| {
                    let plan = Arc::clone(&plan);
                    s.spawn(move || {
                        let fc = FaultyCommunicator::new(comm, plan);
                        let mut buf = vec![1.0];
                        fc.try_allreduce_tagged(&mut buf, ReduceOp::Sum, TrafficClass::Gradient)
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        for r in results {
            assert_eq!(r, Err(CollectiveError::RankFailed(1)));
        }
    }
}
