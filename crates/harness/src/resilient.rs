//! Fault-tolerant training iterations: the graceful-degradation ladder.
//!
//! [`ResilientTrainer::step`] runs one synchronous training iteration
//! against a communicator that may fail (typically a
//! [`FaultyCommunicator`](kfac_collectives::FaultyCommunicator) under a
//! placed fault plan), degrading instead of crashing. The iteration
//! itself is [`train_iteration`] — the same function the plain trainer
//! runs — called with this trainer's [`FaultTolerance`]; what lives here
//! is the ladder's bookkeeping (counters, checkpoint cadence, flight
//! recorder). The rungs:
//!
//! 1. **Retry** — every collective runs under the configured
//!    [`RetryPolicy`]; transient faults and short outages heal here and
//!    the iteration proceeds bit-identically to a fault-free run.
//! 2. **Stale factors** — a factor allreduce or eigendecomposition
//!    allgather that exhausts its retries is *dropped*: the
//!    decompositions read each rank's own averages, or the step proceeds
//!    on the previous eigenbases (counted in `kfac/stale_factor_steps`;
//!    [`Kfac::try_step`] has the exact state rules). Because every rank
//!    consults the same fault plan, all ranks stay identically stale.
//! 3. **Identity preconditioner** — a failed or corrupted
//!    eigendecomposition falls back to damped SGD for that factor
//!    (handled inside [`Kfac`], counted in `kfac/eig_fallbacks`).
//! 4. **Skipped step** — non-finite loss or non-finite/absurd gradients,
//!    checked before K-FAC folds the batch into its factors and again on
//!    the preconditioned gradients (silent bit-flip corruption that
//!    slipped past the factor guards), skip the update entirely
//!    (`train/skipped_steps`).
//! 5. **Shrink-world resume** — a permanent rank loss surfaces as
//!    [`StepOutcome::RankLost`]; when the surviving ranks can still
//!    agree on a membership view, the caller shrinks the group
//!    ([`Elastic::shrink`](kfac_collectives::Elastic)), restores the
//!    latest checkpoint on the new epoch, and continues on the smaller
//!    world (see [`elastic`](crate::elastic); counted in
//!    `train/shrink_resumes` via
//!    [`note_shrink_resume`](ResilientTrainer::note_shrink_resume)).
//! 6. **Abort + checkpoint** — when membership agreement itself fails
//!    (coordinator unreachable, agreement deadline exceeded) the run
//!    ends; the caller restores the latest checkpoint (see
//!    [`checkpoint`](crate::checkpoint)) on a fresh group and resumes
//!    bitwise.
//!
//! A failed *gradient* allreduce is not recoverable by staleness (the
//! step needs this batch's gradients), so it lands on rung 4: the whole
//! group skips the step together.

use crate::checkpoint;
use crate::trainer::train_iteration;
use kfac::Kfac;
use kfac_collectives::{Communicator, RetryPolicy};
use kfac_exec::ExecMode;
use kfac_nn::{CrossEntropyLoss, Sequential};
use kfac_optim::Sgd;
use kfac_telemetry::FlightRecorder;
use kfac_tensor::Tensor4;
use std::path::PathBuf;

/// Degradation knobs for [`ResilientTrainer`].
#[derive(Debug, Clone, Copy)]
pub struct FaultTolerance {
    /// Retry policy applied to every collective (rung 1).
    pub retry: RetryPolicy,
    /// Largest gradient magnitude accepted before the step is skipped
    /// (rung 4); non-finite values are always rejected.
    pub grad_limit: f32,
    /// A checkpoint comes due every N successful steps (0 = never) and is
    /// taken at the first step after which the group's K-FAC state is
    /// consistent ([`Kfac::factors_in_sync`]) — at most one eigen
    /// interval later, since factor averages are rank-local between
    /// exchanges.
    pub checkpoint_every: usize,
}

impl Default for FaultTolerance {
    fn default() -> Self {
        FaultTolerance {
            retry: RetryPolicy::default_comm(),
            grad_limit: 1e6,
            checkpoint_every: 0,
        }
    }
}

/// What one resilient iteration did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// Parameters were updated (possibly with degraded K-FAC state).
    Stepped,
    /// The optimizer step was skipped (failed gradient exchange or
    /// unhealthy gradients); parameters are unchanged.
    SkippedStep,
    /// A rank was lost permanently; training cannot continue on this
    /// group. Shrink the group and resume from the latest checkpoint
    /// (rung 5), or abort to a fresh group (rung 6) if agreement fails.
    RankLost(usize),
}

/// Drives fault-tolerant training iterations and tracks degradations.
pub struct ResilientTrainer {
    /// Degradation configuration.
    pub ft: FaultTolerance,
    /// Steps skipped on rung 4 (gradient exchange failure or unhealthy
    /// gradients) — the events `train/skipped_steps` counts.
    pub skipped_steps: u64,
    /// Collectives that exhausted their retries or delivered a corrupted
    /// payload (rungs 2 and 4).
    pub comm_faults: u64,
    steps_done: u64,
    /// The cadence asked for a checkpoint that has not been taken yet.
    checkpoint_due: bool,
    latest_checkpoint: Option<Vec<u8>>,
    telemetry: Option<(kfac_telemetry::Registry, usize)>,
    recorder: Option<(FlightRecorder, Option<PathBuf>)>,
}

impl ResilientTrainer {
    /// New trainer with the given tolerance configuration. Captures the
    /// ambient telemetry registry for the degradation counters.
    pub fn new(ft: FaultTolerance) -> Self {
        ResilientTrainer {
            ft,
            skipped_steps: 0,
            comm_faults: 0,
            steps_done: 0,
            checkpoint_due: false,
            latest_checkpoint: None,
            telemetry: kfac_telemetry::current(),
            recorder: None,
        }
    }

    /// Attach a flight recorder. Each [`step`](Self::step) takes a
    /// metrics snapshot, and any ladder escalation (skipped step, rank
    /// loss) dumps the recorder — to
    /// `dump_path` when given, otherwise the dump is only available via
    /// [`flight_recorder`](Self::flight_recorder).
    pub fn set_flight_recorder(&mut self, recorder: FlightRecorder, dump_path: Option<PathBuf>) {
        self.recorder = Some((recorder, dump_path));
    }

    /// The attached flight recorder, if any.
    pub fn flight_recorder(&self) -> Option<&FlightRecorder> {
        self.recorder.as_ref().map(|(r, _)| r)
    }

    /// Dump the flight recorder (if one is attached and a registry is
    /// ambient), tagging the dump with `reason`. Writes the JSON to the
    /// configured dump path when present; always returns the document.
    fn dump_recorder(&self, reason: &str) -> Option<String> {
        let (recorder, path) = self.recorder.as_ref()?;
        let (registry, _) = self.telemetry.as_ref()?;
        if let Some(path) = path {
            let _ = recorder.dump_to_file(registry, reason, path);
        }
        Some(recorder.dump_json(registry, reason))
    }

    /// The most recent checkpoint blob, if `checkpoint_every` is on.
    pub fn latest_checkpoint(&self) -> Option<&[u8]> {
        self.latest_checkpoint.as_deref()
    }

    /// Iterations that completed with a parameter update.
    pub fn steps_done(&self) -> u64 {
        self.steps_done
    }

    /// Record a completed shrink-world resume (rung 5): the surviving
    /// ranks fenced the dead, re-formed at membership `epoch`, and
    /// restored the latest checkpoint. Bumps `train/shrink_resumes`,
    /// publishes the new epoch to the
    /// [`comm/membership_epoch`](kfac_telemetry::watchdog::names::MEMBERSHIP_EPOCH)
    /// gauge, and dumps the flight recorder so the reconfiguration leaves
    /// evidence.
    pub fn note_shrink_resume(&mut self, epoch: u64) {
        if let Some((registry, _)) = &self.telemetry {
            registry.counter("train/shrink_resumes").inc();
            registry
                .gauge(kfac_telemetry::watchdog::names::MEMBERSHIP_EPOCH)
                .set(epoch as f64);
        }
        self.dump_recorder(&format!("shrink_resume_epoch_{epoch}"));
    }

    /// Run one training iteration under the degradation ladder:
    /// [`train_iteration`] with this trainer's tolerance, plus the
    /// ladder's bookkeeping. Returns the local batch loss and what
    /// happened. All ranks of a group must call this in lockstep with
    /// the same fault plan so degradation decisions agree group-wide.
    ///
    /// With a flight recorder attached, every step captures a metrics
    /// snapshot, and an escalated outcome (skipped step or rank loss)
    /// dumps the recorder automatically.
    #[allow(clippy::too_many_arguments)]
    pub fn step(
        &mut self,
        model: &mut Sequential,
        kfac: &mut Option<Kfac>,
        optimizer: &mut Sgd,
        comm: &dyn Communicator,
        x: &Tensor4,
        labels: &[usize],
        criterion: &CrossEntropyLoss,
        lr: f32,
    ) -> (f32, StepOutcome) {
        self.step_on(None, model, kfac, optimizer, comm, x, labels, criterion, lr)
    }

    /// [`step`](Self::step) on either gradient-exchange schedule (`exec`
    /// as [`train_iteration`] takes it).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn step_on(
        &mut self,
        exec: Option<ExecMode>,
        model: &mut Sequential,
        kfac: &mut Option<Kfac>,
        optimizer: &mut Sgd,
        comm: &dyn Communicator,
        x: &Tensor4,
        labels: &[usize],
        criterion: &CrossEntropyLoss,
        lr: f32,
    ) -> (f32, StepOutcome) {
        let (loss, outcome, faults) = train_iteration(
            model, kfac, optimizer, comm, x, labels, criterion, lr, None, exec, &self.ft,
        );
        self.comm_faults += u64::from(faults);
        if let (Some((recorder, _)), Some((registry, _))) = (&self.recorder, &self.telemetry) {
            recorder.snapshot(registry);
        }
        match outcome {
            StepOutcome::Stepped => {
                self.steps_done += 1;
                self.checkpoint_due |= self.ft.checkpoint_every > 0
                    && (self.steps_done as usize).is_multiple_of(self.ft.checkpoint_every);
                // Between factor exchanges each rank's averages are its
                // own: a blob saved then differs from rank to rank, and
                // survivors of a later loss would restore different state.
                let in_sync = kfac.as_ref().is_none_or(Kfac::factors_in_sync);
                if self.checkpoint_due && in_sync {
                    self.checkpoint_due = false;
                    self.latest_checkpoint = Some(checkpoint::save(
                        model,
                        optimizer,
                        kfac.as_ref(),
                        self.steps_done,
                        0,
                    ));
                }
            }
            StepOutcome::SkippedStep => {
                self.skipped_steps += 1;
                self.dump_recorder("skipped_step");
            }
            StepOutcome::RankLost(r) => {
                self.dump_recorder(&format!("rank_lost_{r}"));
            }
        }
        (loss, outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfac::{DistStrategy, KfacConfig};
    use kfac_collectives::{
        Fault, FaultKind, FaultPlan, FaultyCommunicator, ThreadComm, TrafficClass,
    };
    use kfac_nn::{Conv2d, Flatten, KfacEligible, Layer, Linear, Mode};
    use kfac_tensor::Rng64;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    fn model(seed: u64) -> Sequential {
        let mut rng = Rng64::new(seed);
        Sequential::from_layers(vec![
            Box::new(Linear::new("fc1", 6, 5, true, &mut rng)),
            Box::new(Linear::new("fc2", 5, 4, true, &mut rng)),
        ])
    }

    fn batch(round: usize) -> (Tensor4, Vec<usize>) {
        let mut rng = Rng64::new(7 + round as u64);
        let x = Tensor4::from_vec(4, 6, 1, 1, (0..24).map(|_| rng.normal_f32()).collect());
        (x, vec![0, 1, 2, 3])
    }

    /// Both gradient-exchange schedules: the fused exchange and the
    /// bucketed one.
    const SCHEDULES: [Option<ExecMode>; 2] =
        [None, Some(ExecMode::Overlapped { compute_workers: 1 })];

    /// What one rank of [`run_group`] ends with.
    struct RankEnd {
        /// Loss bits, one per iteration run.
        losses: Vec<u32>,
        /// Final parameter bits.
        params: Vec<u32>,
        /// Final `save_state` bytes.
        state: Vec<u8>,
        outcomes: Vec<StepOutcome>,
        /// Attempts per [`CLASSES`] entry issued by the end of each
        /// iteration.
        attempts: Vec<[u64; 4]>,
        /// `latest_checkpoint()` after each iteration.
        checkpoints: Vec<Option<Vec<u8>>>,
        stats: kfac::StageStats,
        tr: ResilientTrainer,
    }

    /// The traffic classes of a training iteration.
    const CLASSES: [TrafficClass; 4] = [
        TrafficClass::Gradient,
        TrafficClass::Factor,
        TrafficClass::Eigen,
        TrafficClass::Precond,
    ];

    /// Up to `iters` ladder steps per rank of a `world`-rank thread group
    /// under `plan`, on schedule `exec` with distribution `strategy`,
    /// stopping at a lost rank. Every rank trains on the same batches, so
    /// even rank-local factor averages agree between exchanges.
    fn run_group(
        world: usize,
        iters: usize,
        ft: FaultTolerance,
        plan: &Arc<FaultPlan>,
        exec: Option<ExecMode>,
        strategy: DistStrategy,
    ) -> Vec<RankEnd> {
        let ft = &ft;
        thread::scope(|s| {
            let handles: Vec<_> = ThreadComm::create(world)
                .into_iter()
                .map(|comm| {
                    s.spawn(move || {
                        let comm = FaultyCommunicator::new(comm, Arc::clone(plan));
                        let mut m = model(3);
                        let mut opt = Sgd::new(0.9, 1e-4);
                        let cfg = KfacConfig {
                            update_freq: 2,
                            strategy,
                            ..KfacConfig::default()
                        };
                        let mut k = Some(Kfac::new(&mut m, cfg));
                        let criterion = CrossEntropyLoss::new();
                        let mut tr = ResilientTrainer::new(*ft);
                        let (mut losses, mut outcomes) = (Vec::new(), Vec::new());
                        let (mut attempts, mut checkpoints) = (Vec::new(), Vec::new());
                        for round in 0..iters {
                            let (x, labels) = batch(round);
                            let (loss, outcome) = tr.step_on(
                                exec, &mut m, &mut k, &mut opt, &comm, &x, &labels, &criterion,
                                0.05,
                            );
                            losses.push(loss.to_bits());
                            outcomes.push(outcome);
                            attempts.push(CLASSES.map(|c| comm.attempts(c)));
                            checkpoints.push(tr.latest_checkpoint().map(<[u8]>::to_vec));
                            if let StepOutcome::RankLost(_) = outcome {
                                break;
                            }
                        }
                        let mut params = Vec::new();
                        m.visit_params("", &mut |_, w, _| {
                            params.extend(w.iter().map(|v| v.to_bits()))
                        });
                        let k = k.unwrap();
                        RankEnd {
                            losses,
                            params,
                            state: k.save_state(),
                            outcomes,
                            attempts,
                            checkpoints,
                            stats: k.stats(),
                            tr,
                        }
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    /// DESIGN.md §2.11's ladder table, enumerated. Every attempt a clean
    /// 3-rank run issues in one factor + eig iteration (iteration 2 of 4 at
    /// `update_freq` 2: each gradient bucket, the Factor allreduce, -opt's
    /// Eigen allgather, -lw's Precond allgather), on both schedules and
    /// both strategies, takes each fault kind in turn. Each case lands on
    /// its row of the table, and every rank ends with the same parameters,
    /// outcomes and counters — and, under -opt, the same K-FAC state (-lw
    /// keeps second-order state with the layer's owner).
    #[test]
    fn every_placed_fault_lands_on_its_ladder_row() {
        use super::StepOutcome::{RankLost, SkippedStep, Stepped};
        use kfac_collectives::FaultKind::{BitFlip, Corrupt, Delay, Outage, RankLoss};
        const WORLD: usize = 3;
        const ITERS: usize = 4;
        const AT: usize = 2;
        const BUDGET: u32 = 3;
        let ft = FaultTolerance {
            retry: RetryPolicy {
                max_attempts: BUDGET,
                base_backoff: Duration::ZERO,
                max_backoff: Duration::ZERO,
            },
            checkpoint_every: 1,
            ..FaultTolerance::default()
        };
        // The guards must catch the first flip and must not catch the
        // second, which doubles or halves one value. Word 7 of every
        // buffer this sweep flips — a gradient, a factor average, an
        // eigenvector entry, a preconditioned value — is below 2 in
        // magnitude, so exponent bit 30 multiplies it by 2^128.
        let caught = BitFlip { word: 7, bit: 30 };
        let silent = BitFlip { word: 2, bit: 23 };
        let kinds = [
            (Delay { micros: 300 }, 1),
            (
                Outage {
                    attempts: BUDGET - 1,
                },
                0,
            ),
            (Outage { attempts: BUDGET }, 0),
            (Corrupt, 0),
            (caught, 1),
            (silent, 1),
            (RankLoss, 1),
            (RankLoss, 2),
        ];
        let mut cases = 0;
        for strategy in [DistStrategy::Opt, DistStrategy::Lw] {
            let opt = strategy == DistStrategy::Opt;
            for exec in SCHEDULES {
                let clean = run_group(WORLD, ITERS, ft, &Arc::default(), exec, strategy);
                let c0 = &clean[0];
                assert_eq!(c0.outcomes, [Stepped; ITERS]);
                assert_eq!(
                    (c0.stats.stale_factor_steps, c0.stats.eig_fallbacks),
                    (0, 0)
                );
                let (from, to) = (c0.attempts[AT - 1], c0.attempts[AT]);
                // One bucket per Linear layer on the bucketed schedule.
                let buckets = if exec.is_none() { 1 } else { 2 };
                assert_eq!(
                    [0, 1, 2, 3].map(|c| to[c] - from[c]),
                    [buckets, 1, u64::from(opt), u64::from(!opt)]
                );
                for (c, class) in CLASSES.into_iter().enumerate() {
                    for attempt in from[c]..to[c] {
                        for (kind, culprit) in kinds {
                            let tag = format!(
                                "{strategy:?}/{exec:?}: {kind:?} by rank {culprit} \
                                 at {class:?} attempt {attempt}"
                            );
                            let plan = Arc::new(FaultPlan::new(vec![Fault {
                                class,
                                attempt,
                                kind,
                                culprit,
                            }]));
                            let ends = run_group(WORLD, ITERS, ft, &plan, exec, strategy);
                            let e0 = &ends[0];
                            for e in &ends {
                                assert!(e.params == e0.params, "{tag}: parameters diverged");
                                assert!(!opt || e.state == e0.state, "{tag}: state diverged");
                                let counters = |e: &RankEnd| {
                                    let (tr, st) = (&e.tr, &e.stats);
                                    let ladder = (tr.steps_done(), tr.skipped_steps);
                                    let kfac = (st.stale_factor_steps, st.eig_fallbacks);
                                    (ladder, tr.comm_faults, kfac)
                                };
                                assert_eq!(e.outcomes, e0.outcomes, "{tag}");
                                assert_eq!(counters(e), counters(e0), "{tag}");
                            }
                            let finite = e0.params.iter().all(|&b| f32::from_bits(b).is_finite());
                            assert!(finite, "{tag}: non-finite parameters");

                            let heals = match kind {
                                Delay { .. } | Corrupt => true,
                                Outage { attempts } => attempts < BUDGET,
                                _ => false,
                            };
                            let skips =
                                matches!(class, TrafficClass::Gradient | TrafficClass::Precond);
                            // The row: outcome of iteration AT, comm faults,
                            // stale factor steps, eig fallbacks.
                            let row = match kind {
                                _ if heals => (Stepped, 0, 0, 0),
                                Outage { .. } if skips => (SkippedStep, 1, 0, 0),
                                Outage { .. } => (Stepped, 1, 1, 0),
                                RankLoss => (RankLost(culprit), 0, 0, 0),
                                _ if kind == silent => (Stepped, 0, 0, 0),
                                // The factor guard, else the gradient gate.
                                _ if class == TrafficClass::Factor => (Stepped, 1, 1, 0),
                                _ => (SkippedStep, 0, 0, 0),
                            };
                            let got = (
                                e0.outcomes[AT],
                                e0.tr.comm_faults,
                                e0.stats.stale_factor_steps,
                                e0.stats.eig_fallbacks,
                            );
                            assert_eq!(got, row, "{tag}");
                            let ran = if kind == RankLoss { AT + 1 } else { ITERS };
                            assert_eq!(e0.outcomes.len(), ran, "{tag}");
                            assert_eq!(e0.outcomes[..AT], [Stepped; AT], "{tag}");
                            for (e, c) in ends.iter().zip(&clean) {
                                if heals {
                                    assert!(e.losses == c.losses, "{tag}: losses differ");
                                    assert!(e.params == c.params, "{tag}: parameters differ");
                                    assert!(e.state == c.state, "{tag}: state differs");
                                }
                                if kind == RankLoss {
                                    // The blob survivors would restore: the
                                    // clean run's after the same steps.
                                    let blob = e.tr.latest_checkpoint();
                                    assert!(blob.is_some(), "{tag}");
                                    assert!(blob == c.checkpoints[AT - 1].as_deref(), "{tag}");
                                    let first = e0.tr.latest_checkpoint();
                                    assert!(!opt || blob == first, "{tag}: blobs differ");
                                }
                            }
                            cases += 1;
                        }
                    }
                }
            }
        }
        assert_eq!(cases, (3 + 4 + 3 + 4) * kinds.len());
    }

    /// A layer whose backward panics, on the bucketed schedule of a
    /// 2-rank group: the exchange thread is released and the panic reaches
    /// every rank's caller of [`train_iteration`] instead of hanging it.
    #[test]
    fn panicking_backward_propagates_instead_of_hanging() {
        struct Explodes;
        impl Layer for Explodes {
            fn forward(&mut self, input: &Tensor4, _: Mode) -> Tensor4 {
                input.clone()
            }
            fn backward(&mut self, _: &Tensor4) -> Tensor4 {
                panic!("backward exploded")
            }
            fn output_shape(
                &self,
                input: (usize, usize, usize, usize),
            ) -> (usize, usize, usize, usize) {
                input
            }
            fn visit_params(&mut self, _: &str, _: &mut dyn FnMut(&str, &mut [f32], &mut [f32])) {}
            fn set_capture(&mut self, _: bool) {}
            fn collect_kfac<'a>(&'a mut self, _: &mut Vec<&'a mut dyn KfacEligible>) {}
        }
        let (done, finished) = std::sync::mpsc::channel();
        thread::spawn(move || {
            let panicked = thread::scope(|s| {
                let ranks: Vec<_> = ThreadComm::create(2)
                    .into_iter()
                    .map(|comm| {
                        s.spawn(move || {
                            let mut rng = Rng64::new(3);
                            // fc2's bucket is in flight when backward
                            // reaches the panicking layer.
                            let mut m = Sequential::from_layers(vec![
                                Box::new(Linear::new("fc1", 6, 5, true, &mut rng)),
                                Box::new(Explodes),
                                Box::new(Linear::new("fc2", 5, 4, true, &mut rng)),
                            ]);
                            let (x, labels) = batch(0);
                            train_iteration(
                                &mut m,
                                &mut None,
                                &mut Sgd::new(0.9, 1e-4),
                                &comm,
                                &x,
                                &labels,
                                &CrossEntropyLoss::new(),
                                0.05,
                                None,
                                SCHEDULES[1],
                                &FaultTolerance::default(),
                            );
                        })
                    })
                    .collect();
                ranks
                    .into_iter()
                    .map(|r| r.join().is_err())
                    .collect::<Vec<_>>()
            });
            let _ = done.send(panicked);
        });
        let panicked = finished
            .recv_timeout(Duration::from_secs(60))
            .expect("a rank hung after the panic");
        assert_eq!(panicked, [true, true], "every rank panics");
    }

    /// A NaN batch is stopped at the gate *before* K-FAC: the step is
    /// skipped with the factor averages and the K-FAC iteration exactly
    /// where they were, and the field and the telemetry counter agree —
    /// on both schedules.
    #[test]
    fn nan_batch_is_skipped_before_it_reaches_the_factors() {
        for exec in SCHEDULES {
            let registry = kfac_telemetry::Registry::new();
            let _guard = registry.install(0);
            let mut m = model(3);
            let mut opt = Sgd::new(0.9, 1e-4);
            let mut k = Some(Kfac::new(&mut m, KfacConfig::default()));
            let criterion = CrossEntropyLoss::new();
            let comm = kfac_collectives::LocalComm::new();
            let mut tr = ResilientTrainer::new(FaultTolerance::default());
            let (x, labels) = batch(0);
            let (_, outcome) = tr.step_on(
                exec, &mut m, &mut k, &mut opt, &comm, &x, &labels, &criterion, 0.05,
            );
            assert_eq!(outcome, StepOutcome::Stepped);
            // The serialized state holds the running averages whole.
            let before = (
                k.as_ref().unwrap().save_state(),
                k.as_ref().unwrap().iteration(),
            );

            let poisoned = Tensor4::from_vec(4, 6, 1, 1, vec![f32::NAN; 24]);
            let (loss, outcome) = tr.step_on(
                exec, &mut m, &mut k, &mut opt, &comm, &poisoned, &labels, &criterion, 0.05,
            );
            assert!(loss.is_nan());
            assert_eq!(outcome, StepOutcome::SkippedStep, "{exec:?}");
            let k = k.as_ref().unwrap();
            assert!(
                before.0 == k.save_state(),
                "{exec:?}: NaN captures reached the factor EMA"
            );
            assert_eq!(k.iteration(), before.1);
            assert_eq!(tr.skipped_steps, 1);
            let counters: std::collections::HashMap<_, _> =
                registry.counters().into_iter().collect();
            assert_eq!(counters["train/skipped_steps"], 1);
        }
    }

    /// The convolutional twin. A `Conv2d` sums its factors inside the
    /// backward pass, so a NaN batch does reach the layer's own sums — but
    /// those reach the EMA only through `factor_update_layer`, behind the
    /// gate, and the next capturing pass replaces them: the next healthy
    /// factor iteration leaves the state of a run that never saw the batch.
    #[test]
    fn nan_batch_is_skipped_before_it_reaches_the_conv_factors() {
        let batch = |round: u64| {
            let mut rng = Rng64::new(7 + round);
            Tensor4::from_vec(4, 2, 5, 5, (0..200).map(|_| rng.normal_f32()).collect())
        };
        let run = |exec: Option<ExecMode>, poison: bool| {
            let mut rng = Rng64::new(3);
            let mut m = Sequential::from_layers(vec![
                Box::new(Conv2d::new("conv", 2, 3, 3, 1, 1, true, &mut rng)),
                Box::new(Flatten::new()),
                Box::new(Linear::new("fc", 3 * 5 * 5, 4, true, &mut rng)),
            ]);
            let mut opt = Sgd::new(0.9, 1e-4);
            let mut k = Some(Kfac::new(&mut m, KfacConfig::default()));
            let criterion = CrossEntropyLoss::new();
            let comm = kfac_collectives::LocalComm::new();
            let mut tr = ResilientTrainer::new(FaultTolerance::default());
            let labels = [0, 1, 2, 3];
            let mut step = |k: &mut Option<Kfac>, x: &Tensor4| {
                tr.step_on(
                    exec, &mut m, k, &mut opt, &comm, x, &labels, &criterion, 0.05,
                )
                .1
            };
            assert_eq!(step(&mut k, &batch(0)), StepOutcome::Stepped);
            if poison {
                let before = k.as_ref().unwrap().save_state();
                let nan = Tensor4::from_vec(4, 2, 5, 5, vec![f32::NAN; 200]);
                assert_eq!(step(&mut k, &nan), StepOutcome::SkippedStep, "{exec:?}");
                assert!(
                    before == k.as_ref().unwrap().save_state(),
                    "{exec:?}: NaN sums reached the factor EMA"
                );
            }
            // Every iteration is a factor iteration at the default config.
            assert!(k.as_ref().unwrap().is_factor_iteration());
            assert_eq!(step(&mut k, &batch(1)), StepOutcome::Stepped);
            k.as_ref().unwrap().save_state()
        };
        let clean = run(None, false);
        for exec in SCHEDULES {
            assert!(
                run(exec, true) == clean,
                "{exec:?}: the NaN batch left a trace"
            );
        }
    }

    /// The checkpoint rule. With `update_freq` 2 the factors are the
    /// group's only after an even iteration's exchange, so a checkpoint
    /// due every step is taken every other step; and when the exchange of
    /// iteration 2 is dropped past its retries the averages stay
    /// rank-local — a blob saved then would differ from rank to rank —
    /// and none is taken until iteration 4's exchange succeeds. Every
    /// rank decides alike and holds the same bytes.
    #[test]
    fn no_checkpoint_is_taken_while_factors_are_rank_local() {
        let ft = FaultTolerance {
            retry: RetryPolicy {
                max_attempts: 2,
                base_backoff: Duration::ZERO,
                max_backoff: Duration::ZERO,
            },
            checkpoint_every: 1,
            ..FaultTolerance::default()
        };
        // Factor attempts: iteration 0's exchange is 0, iteration 2's
        // doomed one is 1 and 2, iteration 4's is 3.
        let plan = Arc::new(FaultPlan::new(vec![Fault {
            class: TrafficClass::Factor,
            attempt: 1,
            kind: FaultKind::Outage { attempts: 2 },
            culprit: 0,
        }]));

        // Per rank and step: the iteration the latest checkpoint resumes
        // at, its bytes, and whether the factors were in sync.
        let run = |plan: Option<Arc<FaultPlan>>| -> Vec<Vec<(u64, Vec<u8>, bool)>> {
            let plan = &plan;
            thread::scope(|s| {
                let handles: Vec<_> = ThreadComm::create(2)
                    .into_iter()
                    .map(|comm| {
                        s.spawn(move || {
                            let rank = comm.rank();
                            let comm: Box<dyn Communicator> = match plan {
                                Some(p) => Box::new(FaultyCommunicator::new(comm, Arc::clone(p))),
                                None => Box::new(comm),
                            };
                            let mut m = model(3);
                            let mut opt = Sgd::new(0.9, 1e-4);
                            let cfg = KfacConfig {
                                update_freq: 2,
                                ..KfacConfig::default()
                            };
                            let mut k = Some(Kfac::new(&mut m, cfg));
                            let criterion = CrossEntropyLoss::new();
                            let mut tr = ResilientTrainer::new(ft);
                            let mut trace = Vec::new();
                            for round in 0..5 {
                                // Distinct shards: local averages differ.
                                let (x, labels) = batch(2 * round + rank);
                                let (_, outcome) = tr.step(
                                    &mut m, &mut k, &mut opt, &*comm, &x, &labels, &criterion, 0.05,
                                );
                                assert_eq!(outcome, StepOutcome::Stepped);
                                let blob = tr.latest_checkpoint().expect("step 0 saves").to_vec();
                                // "CKPT", version, then the iteration.
                                let it = u64::from_le_bytes(blob[12..20].try_into().unwrap());
                                trace.push((it, blob, k.as_ref().unwrap().factors_in_sync()));
                            }
                            assert_eq!(tr.comm_faults, u64::from(plan.is_some()));
                            trace
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            })
        };

        for (plan, resumes_at) in [(None, [1, 1, 3, 3, 5]), (Some(plan), [1, 1, 1, 1, 5])] {
            let ranks = run(plan);
            for (step, (a, b)) in ranks[0].iter().zip(&ranks[1]).enumerate() {
                assert_eq!(
                    (a.0, b.0),
                    (resumes_at[step], resumes_at[step]),
                    "step {step}"
                );
                assert!(a.1 == b.1, "step {step}: ranks hold different blobs");
                // A checkpoint was taken at this step exactly when the
                // factors were in sync after it.
                assert_eq!(a.2, a.0 == step as u64 + 1, "step {step}");
                assert_eq!(a.2, b.2);
            }
        }
    }

    /// A shrink resume bumps its counter and publishes the new membership
    /// epoch.
    #[test]
    fn shrink_resume_updates_membership_telemetry() {
        use kfac_telemetry::watchdog::names;
        let registry = kfac_telemetry::Registry::new();
        let _guard = registry.install(0);
        let mut tr = ResilientTrainer::new(FaultTolerance::default());
        tr.note_shrink_resume(2);
        let gauges: std::collections::HashMap<_, _> = registry.gauges().into_iter().collect();
        assert_eq!(gauges[names::MEMBERSHIP_EPOCH], 2.0);
        let counters: std::collections::HashMap<_, _> = registry.counters().into_iter().collect();
        assert_eq!(counters["train/shrink_resumes"], 1);
    }

    /// A skipped step with a recorder attached snapshots the metrics and
    /// dumps to the configured path; so does a rank loss, whose dump names
    /// the lost rank and parses as JSON.
    #[test]
    fn escalations_snapshot_and_dump_the_flight_recorder() {
        let registry = kfac_telemetry::Registry::new();
        let _guard = registry.install(0);
        let dir = std::env::temp_dir().join(format!("kfac-resilient-dump-{}", std::process::id()));
        let path = dir.join("dump.json");
        let _ = std::fs::remove_file(&path);

        // grad_limit 0 rejects every real gradient → rung 4 on step 1.
        let mut tr = ResilientTrainer::new(FaultTolerance {
            grad_limit: 0.0,
            ..FaultTolerance::default()
        });
        tr.set_flight_recorder(
            kfac_telemetry::FlightRecorder::default(),
            Some(path.clone()),
        );
        let mut m = model(3);
        let mut opt = Sgd::new(0.9, 1e-4);
        let mut k = None;
        let criterion = CrossEntropyLoss::new();
        let (x, labels) = batch(0);
        let (_, outcome) = tr.step(
            &mut m,
            &mut k,
            &mut opt,
            &kfac_collectives::LocalComm::new(),
            &x,
            &labels,
            &criterion,
            0.05,
        );
        assert_eq!(outcome, StepOutcome::SkippedStep);
        assert_eq!(tr.flight_recorder().unwrap().len(), 1, "one snapshot");
        let doc = std::fs::read_to_string(&path).expect("skip dumped to file");
        assert!(doc.contains("skipped_step"));

        // A 2-rank group loses rank 1 in its first gradient exchange;
        // rank 0 carries the recorder.
        let lost = dir.join("rank-loss.json");
        let plan = Arc::new(FaultPlan::new(vec![Fault {
            class: TrafficClass::Gradient,
            attempt: 0,
            kind: FaultKind::RankLoss,
            culprit: 1,
        }]));
        thread::scope(|s| {
            for comm in ThreadComm::create(2) {
                let (registry, plan, lost) = (&registry, &plan, &lost);
                let (x, labels, criterion) = (&x, &labels, &criterion);
                s.spawn(move || {
                    let _guard = registry.install(comm.rank());
                    let mut tr = ResilientTrainer::new(FaultTolerance::default());
                    if comm.rank() == 0 {
                        tr.set_flight_recorder(
                            kfac_telemetry::FlightRecorder::default(),
                            Some(lost.clone()),
                        );
                    }
                    let comm = FaultyCommunicator::new(comm, Arc::clone(plan));
                    let (_, outcome) = tr.step(
                        &mut model(3),
                        &mut None,
                        &mut Sgd::new(0.9, 1e-4),
                        &comm,
                        x,
                        labels,
                        criterion,
                        0.05,
                    );
                    assert_eq!(outcome, StepOutcome::RankLost(1));
                });
            }
        });
        let doc = std::fs::read_to_string(&lost).expect("rank loss dumped to file");
        let parsed = kfac_telemetry::json::Json::parse(&doc).expect("the dump is JSON");
        assert_eq!(
            parsed.get("reason").and_then(|r| r.as_str()),
            Some("rank_lost_1")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
