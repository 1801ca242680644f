//! Fault-tolerant training iterations: the graceful-degradation ladder.
//!
//! [`ResilientTrainer::step`] runs one synchronous training iteration
//! against a communicator that may fail (typically a
//! [`FaultyCommunicator`](kfac_collectives::FaultyCommunicator) under a
//! seeded fault plan), degrading instead of crashing. The iteration
//! itself is [`train_iteration`] — the same function the plain trainer
//! runs — called with this trainer's [`FaultTolerance`]; what lives here
//! is the ladder's bookkeeping (counters, checkpoint cadence, flight
//! recorder, watchdog mapping). The rungs:
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
use kfac_telemetry::watchdog::RuleKind;
use kfac_telemetry::{FlightRecorder, HealthReport, Severity};
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
    /// loss, critical watchdog finding) dumps the recorder — to
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

    /// Map a watchdog health report onto the degradation ladder.
    ///
    /// Critical findings translate to the same typed signals
    /// [`step`](Self::step) produces: a critical non-finite or
    /// retry-rate finding recommends skipping the next step (rung 4); a
    /// critical heartbeat stall or dead-peer finding recommends leaving
    /// this group for the shrink/abort rungs (5–6, reported as this
    /// rank's own loss so every survivor reacts identically). Warnings
    /// and critical staleness don't escalate — staleness *is* the
    /// degradation (rung 2) — but any critical finding dumps the flight
    /// recorder so the run leaves evidence.
    pub fn apply_watchdog(&mut self, report: &HealthReport) -> Option<StepOutcome> {
        if report.severity < Severity::Critical {
            return None;
        }
        self.dump_recorder("watchdog_critical");
        let own_rank = self.telemetry.as_ref().map(|(_, r)| *r).unwrap_or(0);
        let mut outcome = None;
        for f in report
            .findings
            .iter()
            .filter(|f| f.severity == Severity::Critical)
        {
            match f.rule {
                RuleKind::HeartbeatStall | RuleKind::PeerDead => {
                    return Some(StepOutcome::RankLost(own_rank))
                }
                RuleKind::NonFinite | RuleKind::RetryRate => {
                    outcome = Some(StepOutcome::SkippedStep);
                }
                RuleKind::StalenessCeiling => {}
            }
        }
        outcome
    }

    /// Record a completed shrink-world resume (rung 5): the surviving
    /// ranks fenced the dead, re-formed at membership `epoch`, and
    /// restored the latest checkpoint. Bumps `train/shrink_resumes`,
    /// publishes the new epoch to the
    /// [`comm/membership_epoch`](kfac_telemetry::watchdog::names::MEMBERSHIP_EPOCH)
    /// gauge, clears
    /// [`comm/dead_peers`](kfac_telemetry::watchdog::names::DEAD_PEERS)
    /// (fencing resolved them), and dumps the flight recorder so the
    /// reconfiguration leaves evidence.
    pub fn note_shrink_resume(&mut self, epoch: u64) {
        if let Some((registry, _)) = &self.telemetry {
            registry.counter("train/shrink_resumes").inc();
            registry
                .gauge(kfac_telemetry::watchdog::names::MEMBERSHIP_EPOCH)
                .set(epoch as f64);
            registry
                .gauge(kfac_telemetry::watchdog::names::DEAD_PEERS)
                .set(0.0);
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
    use kfac::KfacConfig;
    use kfac_collectives::{
        FaultPlan, FaultPlanConfig, FaultyCommunicator, ThreadComm, TrafficClass,
    };
    use kfac_nn::{Conv2d, Flatten, Layer, Linear};
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

    /// Both gradient-exchange schedules: the fused exchange, and the
    /// bucketed one on the worker pool and in seeded replay.
    const SCHEDULES: [Option<ExecMode>; 3] = [
        None,
        Some(ExecMode::Overlapped { compute_workers: 2 }),
        Some(ExecMode::Replay { seed: 7 }),
    ];

    /// Up to `iters` ladder steps per rank on schedule `exec`, stopping
    /// at a lost rank; each rank's final parameters, trainer and last
    /// outcome.
    fn run_group(
        world: usize,
        iters: usize,
        ft: FaultTolerance,
        plan: Option<Arc<FaultPlan>>,
        exec: Option<ExecMode>,
    ) -> Vec<(Vec<f32>, ResilientTrainer, StepOutcome)> {
        let comms = ThreadComm::create(world);
        let plan = &plan;
        let ft = &ft;
        thread::scope(|s| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|comm| {
                    s.spawn(move || {
                        let mut m = model(3);
                        let mut opt = Sgd::new(0.9, 1e-4);
                        let mut k = Some(Kfac::new(
                            &mut m,
                            KfacConfig {
                                update_freq: 2,
                                ..KfacConfig::default()
                            },
                        ));
                        let criterion = CrossEntropyLoss::new();
                        let mut tr = ResilientTrainer::new(*ft);
                        let mut run = |tr: &mut ResilientTrainer, c: &dyn Communicator| {
                            let (m, opt, k) = (&mut m, &mut opt, &mut k);
                            let mut last = StepOutcome::Stepped;
                            for round in 0..iters {
                                let (x, labels) = batch(round);
                                let (loss, outcome) =
                                    tr.step_on(exec, m, k, opt, c, &x, &labels, &criterion, 0.05);
                                assert!(loss.is_finite());
                                last = outcome;
                                if let StepOutcome::RankLost(_) = outcome {
                                    break;
                                }
                            }
                            let mut p = Vec::new();
                            m.visit_params("", &mut |_, w, _| p.extend_from_slice(w));
                            (p, last)
                        };
                        let (params, last) = match plan {
                            Some(plan) => {
                                let fc = FaultyCommunicator::new(comm, Arc::clone(plan));
                                run(&mut tr, &fc)
                            }
                            None => run(&mut tr, &comm),
                        };
                        (params, tr, last)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    /// Transient faults below the retry budget heal completely: the
    /// trajectory is bitwise identical to the fault-free run — on the
    /// bucketed schedule too, where a transient hits one bucket and each
    /// retry must reduce the bucket's local gradients again, not the
    /// remains of the failed attempt.
    #[test]
    fn transient_faults_heal_bitwise() {
        let ft = FaultTolerance {
            retry: RetryPolicy {
                max_attempts: 12,
                base_backoff: Duration::ZERO,
                max_backoff: Duration::ZERO,
            },
            ..FaultTolerance::default()
        };
        let clean = run_group(2, 6, ft, None, None);
        let plan = Arc::new(FaultPlan::new(
            FaultPlanConfig {
                seed: 11,
                transient_prob: 0.3,
                transient_ops: 2,
                ..FaultPlanConfig::default()
            },
            2,
        ));
        for exec in SCHEDULES {
            let faulty = run_group(2, 6, ft, Some(Arc::clone(&plan)), exec);
            for (c, f) in clean.iter().zip(&faulty) {
                assert_eq!(c.0.len(), f.0.len());
                for (a, b) in c.0.iter().zip(&f.0) {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{exec:?}: transient fault left a residue"
                    );
                }
            }
            assert_eq!(faulty[0].1.skipped_steps, 0, "{exec:?}");
        }
    }

    /// What one rank of [`clean_pair`] ends with: loss bits, parameter
    /// bits, serialized K-FAC state, per-class traffic.
    type RankWitness = (Vec<u32>, Vec<u32>, Vec<u8>, kfac_collectives::Traffic);

    /// 12 iterations on a clean 2-rank thread group, through the ladder
    /// or through the Listing-1 loop it must equal.
    fn clean_pair(cfg: &KfacConfig, ladder: bool) -> Vec<RankWitness> {
        use crate::trainer::allreduce_gradients_fused;
        use kfac_nn::layer::Mode;
        use kfac_optim::Optimizer;
        thread::scope(|s| {
            let handles: Vec<_> = ThreadComm::create(2)
                .into_iter()
                .map(|comm| {
                    s.spawn(move || {
                        let mut m = model(3);
                        let mut opt = Sgd::new(0.9, 1e-4);
                        let mut k = Some(Kfac::new(&mut m, cfg.clone()));
                        let criterion = CrossEntropyLoss::new();
                        let mut tr = ResilientTrainer::new(FaultTolerance::default());
                        let mut losses = Vec::new();
                        for round in 0..12 {
                            // Distinct shards, so the exchanges matter.
                            let (x, labels) = batch(2 * round + comm.rank());
                            let loss = if ladder {
                                let (loss, outcome) = tr.step(
                                    &mut m, &mut k, &mut opt, &comm, &x, &labels, &criterion, 0.05,
                                );
                                assert_eq!(outcome, StepOutcome::Stepped);
                                loss
                            } else {
                                let k = k.as_mut().unwrap();
                                m.zero_grad();
                                m.set_capture(k.needs_capture());
                                let out = m.forward(&x, Mode::Train);
                                let (loss, grad) = criterion.forward(&out, &labels);
                                let _ = m.backward(&grad);
                                let wire = k.precision().grad_wire;
                                allreduce_gradients_fused(&mut m, &comm, None, wire);
                                k.step(&mut m, &comm, 0.05);
                                opt.step(&mut m, 0.05);
                                loss
                            };
                            losses.push(loss.to_bits());
                        }
                        assert_eq!((tr.skipped_steps, tr.comm_faults), (0, 0));
                        let mut params = Vec::new();
                        m.visit_params("", &mut |_, w, _| {
                            params.extend(w.iter().map(|v| v.to_bits()))
                        });
                        (losses, params, k.unwrap().save_state(), comm.traffic())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    /// On a clean fabric the ladder *is* the Listing-1 loop
    /// (`allreduce_gradients_fused → Kfac::step → optimizer.step`), bit
    /// for bit and byte for byte on the wire — for both distribution
    /// strategies and for reduced-width wires, which a private copy of
    /// the iteration once ignored.
    #[test]
    fn clean_ladder_is_bitwise_the_listing1_loop() {
        use kfac::{DistStrategy, PrecisionPolicy};
        for strategy in [DistStrategy::Opt, DistStrategy::Lw] {
            for precision in [PrecisionPolicy::f32(), PrecisionPolicy::bf16()] {
                let cfg = KfacConfig {
                    update_freq: 4,
                    strategy,
                    precision,
                    ..KfacConfig::default()
                };
                let reference = clean_pair(&cfg, false);
                let ladder = clean_pair(&cfg, true);
                let tag = format!("{strategy:?} / {precision:?}");
                for (l, r) in ladder.iter().zip(&reference) {
                    // `assert!`, not `assert_eq!`: a mismatch should
                    // not print kilobytes of bits.
                    assert!(l.0 == r.0, "{tag}: losses differ");
                    assert!(l.1 == r.1, "{tag}: parameters differ");
                    assert!(l.2 == r.2, "{tag}: K-FAC state differs");
                    assert_eq!(l.3, r.3, "{tag}: traffic differs");
                }
                let traffic = reference[0].3;
                assert_eq!(
                    traffic.precond_bytes > 0,
                    strategy == DistStrategy::Lw,
                    "{tag}: {traffic:?}"
                );
            }
        }
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

    /// Long outages on K-FAC traffic degrade to stale factors — the
    /// run finishes with finite parameters and counts its degradations,
    /// on both schedules.
    #[test]
    fn timeouts_on_kfac_traffic_degrade_to_stale_factors() {
        let ft = FaultTolerance {
            retry: RetryPolicy {
                max_attempts: 2,
                base_backoff: Duration::ZERO,
                max_backoff: Duration::ZERO,
            },
            ..FaultTolerance::default()
        };
        let plan = Arc::new(FaultPlan::new(
            FaultPlanConfig {
                seed: 5,
                timeout_prob: 0.5,
                timeout_ops: 6,
                classes: vec![TrafficClass::Factor, TrafficClass::Eigen],
                ..FaultPlanConfig::default()
            },
            2,
        ));
        for exec in SCHEDULES {
            let results = run_group(2, 8, ft, Some(Arc::clone(&plan)), exec);
            for (params, tr, _) in &results {
                assert!(params.iter().all(|v| v.is_finite()));
                assert!(
                    tr.comm_faults > 0,
                    "{exec:?}: plan injected no faults — weak test"
                );
                // Gradient traffic untouched → no skipped steps.
                assert_eq!(tr.skipped_steps, 0, "{exec:?}");
            }
            // Replicas stayed in lockstep through identical degradation.
            assert_eq!(results[0].0, results[1].0, "{exec:?}");
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
        // Each rank's op cursor, two attempts for the doomed exchange:
        // it 0 G0 F1 E2 · it 1 G3 · it 2 G4 F5 F6 E7 · it 3 G8 ·
        // it 4 G9 F10 E11 — a Factor-only plan covering exactly 5 and 6.
        let plan = (0..)
            .map(|seed| {
                FaultPlan::new(
                    FaultPlanConfig {
                        seed,
                        timeout_prob: 0.2,
                        timeout_ops: 2,
                        classes: vec![TrafficClass::Factor],
                        ..FaultPlanConfig::default()
                    },
                    2,
                )
            })
            .find(|p| {
                [1, 5, 6, 10].map(|i| p.fault_at(i, TrafficClass::Factor).is_some())
                    == [false, true, true, false]
            })
            .map(Arc::new)
            .unwrap();

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

    /// Critical watchdog findings map onto the ladder's own typed
    /// signals; staleness stays on rung 2 and never escalates.
    #[test]
    fn watchdog_criticals_map_to_ladder_signals() {
        use kfac_telemetry::watchdog::Finding;
        let registry = kfac_telemetry::Registry::new();
        let _guard = registry.install(3);
        let mut tr = ResilientTrainer::new(FaultTolerance::default());
        let report = |rule, severity| HealthReport {
            severity,
            findings: vec![Finding {
                rule,
                severity,
                message: String::new(),
            }],
            checked_at_us: 0,
        };
        assert_eq!(
            tr.apply_watchdog(&report(RuleKind::NonFinite, Severity::Warn)),
            None
        );
        assert_eq!(
            tr.apply_watchdog(&report(RuleKind::NonFinite, Severity::Critical)),
            Some(StepOutcome::SkippedStep)
        );
        assert_eq!(
            tr.apply_watchdog(&report(RuleKind::RetryRate, Severity::Critical)),
            Some(StepOutcome::SkippedStep)
        );
        assert_eq!(
            tr.apply_watchdog(&report(RuleKind::StalenessCeiling, Severity::Critical)),
            None
        );
        // A stall or dead peer leaves the group, reported as this
        // rank's own loss so every survivor reacts identically.
        assert_eq!(
            tr.apply_watchdog(&report(RuleKind::HeartbeatStall, Severity::Critical)),
            Some(StepOutcome::RankLost(3))
        );
        assert_eq!(
            tr.apply_watchdog(&report(RuleKind::PeerDead, Severity::Critical)),
            Some(StepOutcome::RankLost(3))
        );
    }

    /// A shrink resume bumps its counter, publishes the new membership
    /// epoch, and clears the dead-peer gauge the watchdog alarms on.
    #[test]
    fn shrink_resume_updates_membership_telemetry() {
        use kfac_telemetry::watchdog::names;
        let registry = kfac_telemetry::Registry::new();
        let _guard = registry.install(0);
        registry.gauge(names::DEAD_PEERS).set(1.0);
        let mut tr = ResilientTrainer::new(FaultTolerance::default());
        tr.note_shrink_resume(2);
        let gauges: std::collections::HashMap<_, _> = registry.gauges().into_iter().collect();
        assert_eq!(gauges[names::MEMBERSHIP_EPOCH], 2.0);
        assert_eq!(gauges[names::DEAD_PEERS], 0.0);
        let counters: std::collections::HashMap<_, _> = registry.counters().into_iter().collect();
        assert_eq!(counters["train/shrink_resumes"], 1);
    }

    /// A skipped step with a recorder attached snapshots the metrics and
    /// dumps; a critical watchdog verdict dumps to the configured path.
    #[test]
    fn escalations_snapshot_and_dump_the_flight_recorder() {
        use kfac_telemetry::watchdog::Finding;
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

        let report = HealthReport {
            severity: Severity::Critical,
            findings: vec![Finding {
                rule: RuleKind::NonFinite,
                severity: Severity::Critical,
                message: "loss is NaN".into(),
            }],
            checked_at_us: 1,
        };
        assert_eq!(tr.apply_watchdog(&report), Some(StepOutcome::SkippedStep));
        let doc = std::fs::read_to_string(&path).expect("watchdog dumped to file");
        assert!(doc.contains("watchdog_critical"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Rank loss aborts with `RankLost` on every rank, and the latest
    /// checkpoint restores for bitwise-identical resumption.
    #[test]
    fn rank_loss_aborts_and_checkpoint_resumes() {
        let ft = FaultTolerance {
            checkpoint_every: 2,
            ..FaultTolerance::default()
        };
        // Rank 1 dies in iteration 4's gradient exchange, after four
        // iterations of G F E · G · G F E · G: attempt 8 on the fused
        // schedule; on the bucketed one, where each G is two buckets, the
        // second of attempts 12 and 13 — the first bucket has been
        // reduced by then. Either way it is `RankLost(1)` on every rank,
        // with four steps done and a checkpoint to resume from.
        for exec in SCHEDULES {
            let plan = FaultPlan::new(
                FaultPlanConfig {
                    rank_loss_at: Some((if exec.is_none() { 8 } else { 13 }, 1)),
                    classes: vec![TrafficClass::Gradient],
                    ..FaultPlanConfig::default()
                },
                2,
            );
            for (_, tr, last) in run_group(2, 6, ft, Some(Arc::new(plan)), exec) {
                assert_eq!(last, StepOutcome::RankLost(1), "{exec:?}");
                assert_eq!(tr.steps_done(), 4, "{exec:?}");
                assert!(tr.latest_checkpoint().is_some(), "{exec:?}");
            }
        }

        // Fault-free 6-iteration reference on a single rank.
        let clean = run_group(1, 6, FaultTolerance::default(), None, None);

        // Single rank, rank loss partway through: enough ops for 4
        // steps (~1 gradient + K-FAC ops each), then loss.
        let mut m = model(3);
        let mut opt = Sgd::new(0.9, 1e-4);
        let mut k = Some(Kfac::new(
            &mut m,
            KfacConfig {
                update_freq: 2,
                ..KfacConfig::default()
            },
        ));
        let criterion = CrossEntropyLoss::new();
        let mut tr = ResilientTrainer::new(ft);
        // Single-rank comm never issues collectives (size()==1 paths),
        // so simulate loss by driving 4 steps then stopping — the
        // checkpoint mechanics are what's under test.
        for round in 0..4 {
            let (x, labels) = batch(round);
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
            assert_eq!(outcome, StepOutcome::Stepped);
        }
        let blob = tr.latest_checkpoint().expect("checkpointed").to_vec();

        // Restore on fresh instances and finish iterations 4 and 5.
        let mut m2 = model(777);
        let mut opt2 = Sgd::new(0.9, 1e-4);
        let mut k2 = Some(Kfac::new(
            &mut m2,
            KfacConfig {
                update_freq: 2,
                ..KfacConfig::default()
            },
        ));
        let (it, _) = checkpoint::restore(&blob, &mut m2, &mut opt2, k2.as_mut()).unwrap();
        assert_eq!(it, 4);
        let mut tr2 = ResilientTrainer::new(FaultTolerance::default());
        for round in it as usize..6 {
            let (x, labels) = batch(round);
            tr2.step(
                &mut m2,
                &mut k2,
                &mut opt2,
                &kfac_collectives::LocalComm::new(),
                &x,
                &labels,
                &criterion,
                0.05,
            );
        }
        let mut resumed = Vec::new();
        m2.visit_params("", &mut |_, w, _| resumed.extend_from_slice(w));
        assert_eq!(
            clean[0].0, resumed,
            "resumed run diverged from uninterrupted"
        );
    }
}
