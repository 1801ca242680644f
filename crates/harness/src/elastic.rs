//! Shrink-world recovery trials (rung 5 of the degradation ladder).
//!
//! An elastic trial kills one rank of a K-FAC CIFAR training group
//! mid-run and drives the survivors through the full recovery path:
//! the failed gradient exchange surfaces [`StepOutcome::RankLost`], the
//! survivors run membership agreement and [`Elastic::shrink`] to an
//! epoch-fenced contiguous group, restore the latest checkpoint, and
//! continue on the smaller world. The acceptance bar — asserted by
//! `xp elastic` and the `elastic` integration test — is that the
//! post-shrink trajectory is **bitwise identical** (loss bits and
//! parameter bits) to a from-scratch group of the shrunken size
//! restored from the same checkpoint blob.
//!
//! The trial trains the [`Demo`] row and walks it with the trainer's one
//! loop, [`run_plan`], over the rank's [`batch_plan`]: the victim runs
//! the plan up to the kill step and dies; a survivor runs the whole
//! budget, stops at the lost rank, shrinks, restores, and runs the rest
//! of the plan re-derived from its new `(rank, world)` — the same
//! world-parameterized recompute the K-FAC factor assignment performs
//! internally. The reference makes that last call on a fresh group of
//! the shrunken size, so survivors and reference consume identical
//! batches. The thread-fabric trial, the proc-fabric worker (`xp` job
//! `train-elastic`) and the reference share all of it.
//!
//! [`StepOutcome::RankLost`]: crate::resilient::StepOutcome::RankLost

use crate::checkpoint;
use crate::presets::Demo;
use crate::procrun::params_bit_hash;
use crate::resilient::{FaultTolerance, ResilientTrainer};
use crate::trainer::{batch_plan, run_plan, TrainConfig};
use kfac::Kfac;
use kfac_collectives::proc::ProcComm;
use kfac_collectives::{Communicator, Elastic, ReduceOp, ThreadComm};
use kfac_data::Dataset;
use kfac_nn::Layer;
use kfac_optim::Sgd;
use kfac_telemetry::{FlightRecorder, Registry};
use std::path::{Path, PathBuf};
use std::thread;

/// One elastic scenario: a `world`-rank run of `iters` iterations that
/// loses `kill_rank` at the start of iteration `kill_step`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ElasticSpec {
    /// Boot group size.
    pub world: usize,
    /// Total iteration budget (pre- and post-shrink combined).
    pub iters: usize,
    /// Iteration at whose start the victim dies.
    pub kill_step: usize,
    /// The victim (must not be rank 0: the original rank 0 reports).
    pub kill_rank: usize,
    /// Checkpoint cadence in successful steps (see
    /// [`FaultTolerance::checkpoint_every`] for when one is taken).
    pub checkpoint_every: usize,
}

impl ElasticSpec {
    /// The canonical scenario at a given iteration budget: 4 ranks,
    /// death of rank 2 halfway through, checkpoints every 2 steps.
    pub fn canonical(iters: usize) -> ElasticSpec {
        ElasticSpec {
            world: 4,
            iters,
            kill_step: iters / 2,
            kill_rank: 2,
            checkpoint_every: 2,
        }
    }

    /// The [`Demo`] row at `world` ranks, with an epoch per iteration of
    /// the budget: every epoch holds at least one batch, so the plan
    /// covers it.
    fn config(&self, world: usize) -> TrainConfig {
        TrainConfig {
            epochs: self.iters,
            ..Demo::config(world)
        }
    }

    /// The iteration the first checkpoint resumes at: it comes due once
    /// `checkpoint_every` steps are done and is taken after the first
    /// iteration from there on that exchanges the factor averages — until
    /// then each rank's are its own, and survivors need identical blobs.
    /// The row's factors fold every iteration and are exchanged on
    /// multiples of its eigen-update interval.
    fn first_checkpoint(&self) -> usize {
        let update_freq = self.config(self.world).kfac.map_or(1, |k| k.update_freq);
        (self.checkpoint_every - 1).next_multiple_of(update_freq) + 1
    }

    /// Structural sanity: the kill must land after the first checkpoint
    /// actually taken and before the budget runs out, and rank 0 must
    /// survive.
    pub fn validate(&self) -> Result<(), String> {
        if self.world < 3 {
            return Err(format!(
                "elastic trial needs world >= 3, got {}",
                self.world
            ));
        }
        if self.kill_rank == 0 || self.kill_rank >= self.world {
            return Err(format!(
                "kill_rank must be in 1..{} (rank 0 reports), got {}",
                self.world, self.kill_rank
            ));
        }
        if self.checkpoint_every == 0 {
            return Err("elastic trial needs checkpoints (ckpt_every >= 1)".into());
        }
        if self.kill_step < self.first_checkpoint() {
            return Err(format!(
                "kill_step {} precedes the first checkpoint: due every {} steps, taken \
                 where factors are next exchanged, so none exists before iteration {}",
                self.kill_step,
                self.checkpoint_every,
                self.first_checkpoint()
            ));
        }
        if self.kill_step >= self.iters {
            return Err(format!(
                "kill_step {} is outside the {}-iteration budget",
                self.kill_step, self.iters
            ));
        }
        Ok(())
    }
}

/// What one survivor (or one reference rank) produced after the shrink
/// point. Bitwise comparable across ranks, fabrics, and the reference.
#[derive(Debug, Clone)]
pub struct ResumeResult {
    /// Iteration the checkpoint restored to (the next one to run).
    pub restore_iteration: u64,
    /// Post-shrink per-iteration losses (averaged across the group, so
    /// every rank holds the same bits), in order.
    pub post_losses: Vec<f64>,
    /// Final parameters after the full budget.
    pub params: Vec<f32>,
}

impl ResumeResult {
    /// Bitwise equality: every loss bit and every parameter bit.
    pub fn bitwise_eq(&self, other: &ResumeResult) -> bool {
        self.restore_iteration == other.restore_iteration
            && self.post_losses.len() == other.post_losses.len()
            && self
                .post_losses
                .iter()
                .zip(&other.post_losses)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && self.params.len() == other.params.len()
            && self
                .params
                .iter()
                .zip(&other.params)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// Restore `blob` into fresh training state and run the rest of the
/// budget on `comm`: a survivor on its [`Elastic::shrink`] result, the
/// reference on a fresh group of the shrunken size. The plan, the K-FAC
/// factor assignment and the fusion sharding all re-derive from
/// `comm`'s `(rank, size)`, which is what makes the two bitwise
/// comparable.
fn resume_from(
    comm: &dyn Communicator,
    blob: &[u8],
    spec: &ElasticSpec,
    train_ds: &dyn Dataset,
) -> ResumeResult {
    let cfg = spec.config(comm.size());
    let mut model = Demo::model(cfg.seed);
    let mut optimizer = Sgd::new(cfg.momentum, cfg.weight_decay);
    let mut kfac = cfg.kfac.clone().map(|k| Kfac::new(&mut model, k));
    let (it, _) = checkpoint::restore(blob, &mut model, &mut optimizer, kfac.as_mut())
        .expect("checkpoint restores on the shrunken world");
    let plan = batch_plan(&cfg, train_ds.len(), comm.size(), comm.rank());
    let mut ladder = ResilientTrainer::new(FaultTolerance::default());
    let (mut losses, lost) = run_plan(
        &mut ladder,
        &mut model,
        &mut kfac,
        &mut optimizer,
        comm,
        train_ds,
        &plan[it as usize..spec.iters],
        &cfg,
    );
    assert_eq!(
        (lost, ladder.skipped_steps),
        (None, 0),
        "shrunken group degraded after iteration {it}"
    );
    // Each rank's loss is over its own shard; average so the recorded
    // trajectory is rank-invariant (and bitwise so): reduction is
    // element-wise in rank order, so one vector allreduce gives each
    // iteration's bits.
    comm.allreduce(&mut losses, ReduceOp::Average);
    let mut params = Vec::new();
    model.visit_params("", &mut |_, w, _| params.extend_from_slice(w));
    ResumeResult {
        restore_iteration: it,
        post_losses: losses.into_iter().map(f64::from).collect(),
        params,
    }
}

/// The epoch-fenced survivor group a `shrink` closure hands back:
/// the communicator plus the membership epoch it is fenced to.
type ShrunkGroup = (Box<dyn Communicator>, u64);

/// One rank of the trial, generic over the fabric: `die` is what the
/// victim does at the kill step (thread: inject the death observation
/// and return; proc: exit the process), `shrink` produces the survivor
/// communicator from the culprit hint. A survivor returns its resumed
/// trajectory, the blob it restored, and the membership epoch.
fn trial_rank(
    comm: &dyn Communicator,
    spec: &ElasticSpec,
    train_ds: &dyn Dataset,
    dump_path: Option<PathBuf>,
    die: &dyn Fn(),
    shrink: &dyn Fn(&[usize]) -> ShrunkGroup,
) -> Option<(ResumeResult, Vec<u8>, u64)> {
    let rank = comm.rank();
    let cfg = spec.config(spec.world);
    let plan = batch_plan(&cfg, train_ds.len(), spec.world, rank);
    let mut model = Demo::model(cfg.seed);
    let mut optimizer = Sgd::new(cfg.momentum, cfg.weight_decay);
    let mut kfac = cfg.kfac.clone().map(|k| Kfac::new(&mut model, k));
    let mut ladder = ResilientTrainer::new(FaultTolerance {
        checkpoint_every: spec.checkpoint_every,
        ..FaultTolerance::default()
    });
    if rank == 0 {
        ladder.set_flight_recorder(FlightRecorder::default(), dump_path);
    }
    let end = if rank == spec.kill_rank {
        spec.kill_step
    } else {
        spec.iters
    };
    let (_, lost) = run_plan(
        &mut ladder,
        &mut model,
        &mut kfac,
        &mut optimizer,
        comm,
        train_ds,
        &plan[..end],
        &cfg,
    );
    assert_eq!(ladder.skipped_steps, 0, "elastic trial skipped a step");
    if rank == spec.kill_rank {
        die();
        return None;
    }
    let Some(culprit) = lost else {
        panic!(
            "rank {rank}: the kill at iteration {} never landed",
            spec.kill_step
        );
    };
    let blob = ladder
        .latest_checkpoint()
        .expect("rank lost before the first checkpoint")
        .to_vec();
    let (shrunk, epoch) = shrink(&[culprit]);
    assert_eq!(shrunk.size(), spec.world - 1, "one rank was lost");
    ladder.note_shrink_resume(epoch);
    let resumed = resume_from(&*shrunk, &blob, spec, train_ds);
    Some((resumed, blob, epoch))
}

/// Outcome of a whole-group elastic trial (every survivor agreed
/// bitwise; this is their shared view).
#[derive(Debug, Clone)]
pub struct ElasticTrial {
    /// The survivors' post-shrink trajectory.
    pub resumed: ResumeResult,
    /// The checkpoint blob the survivors restored from — feed it to
    /// [`run_reference`] for the bitwise oracle.
    pub checkpoint: Vec<u8>,
    /// Membership epoch of the shrunken group.
    pub epoch: u64,
    /// `train/shrink_resumes` across the group (one per survivor).
    pub shrink_resumes: u64,
}

/// Run the scenario on the in-process thread fabric: `world` ranks, the
/// victim injects its own death observation at the kill step (the
/// deterministic stand-in for the proc fabric's EOF/heartbeat
/// detection), survivors shrink and resume. Panics if the survivors
/// disagree at any bit. Rank 0's flight recorder dumps membership
/// events to `dump_path` when given.
pub fn run_thread_trial(
    spec: &ElasticSpec,
    train_ds: &(dyn Dataset + Sync),
    dump_path: Option<PathBuf>,
) -> ElasticTrial {
    spec.validate().expect("valid elastic spec");
    let comms = ThreadComm::create(spec.world);
    let registry = Registry::new();
    let registry = &registry;
    let dump_path = &dump_path;
    let results: Vec<Option<(ResumeResult, Vec<u8>, u64)>> = thread::scope(|s| {
        let handles: Vec<_> = comms
            .into_iter()
            .enumerate()
            .map(|(rank, comm)| {
                s.spawn(move || {
                    let _telemetry = registry.install(rank);
                    let die = || comm.mark_dead(spec.kill_rank);
                    let shrink = |hint: &[usize]| {
                        let shrunk = comm.shrink(hint).expect("membership agreement");
                        let epoch = shrunk.view().epoch;
                        (Box::new(shrunk) as Box<dyn Communicator>, epoch)
                    };
                    trial_rank(
                        &comm,
                        spec,
                        train_ds,
                        if rank == 0 { dump_path.clone() } else { None },
                        &die,
                        &shrink,
                    )
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let survivors: Vec<(ResumeResult, Vec<u8>, u64)> = results.into_iter().flatten().collect();
    assert_eq!(survivors.len(), spec.world - 1, "exactly one rank died");
    for (r, blob, epoch) in &survivors[1..] {
        assert!(
            r.bitwise_eq(&survivors[0].0),
            "survivors diverged after the shrink"
        );
        assert_eq!(blob, &survivors[0].1, "survivors restored different blobs");
        assert_eq!(epoch, &survivors[0].2, "survivors fenced different epochs");
    }
    let shrink_resumes = registry
        .counters()
        .into_iter()
        .find(|(name, _)| name == "train/shrink_resumes")
        .map(|(_, v)| v)
        .unwrap_or(0);
    let (resumed, checkpoint, epoch) = survivors.into_iter().next().unwrap();
    ElasticTrial {
        resumed,
        checkpoint,
        epoch,
        shrink_resumes,
    }
}

/// The oracle: a *fresh* boot group of the shrunken size restores the
/// same blob and finishes the budget. Whatever the survivors computed
/// through the epoch-fenced view must match this bitwise.
pub fn run_reference(
    spec: &ElasticSpec,
    blob: &[u8],
    train_ds: &(dyn Dataset + Sync),
) -> ResumeResult {
    let comms = ThreadComm::create(spec.world - 1);
    let results: Vec<ResumeResult> = thread::scope(|s| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|comm| s.spawn(move || resume_from(&comm, blob, spec, train_ds)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for r in &results[1..] {
        assert!(r.bitwise_eq(&results[0]), "reference replicas diverged");
    }
    results.into_iter().next().unwrap()
}

/// The summary line the proc worker's original rank 0 prints, and the
/// launcher reconstructs from the reference run for comparison.
pub fn elastic_summary_json(world_after: usize, epoch: u64, result: &ResumeResult) -> String {
    let losses = result
        .post_losses
        .iter()
        .map(|v| format!("{v:?}"))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"world\": {}, \"epoch\": {}, \"restore_iteration\": {}, \
         \"post_losses\": [{}], \"params_hash\": \"{:016x}\"}}",
        world_after,
        epoch,
        result.restore_iteration,
        losses,
        params_bit_hash(&result.params)
    )
}

/// Worker half of the proc-fabric trial (`xp` job `train-elastic`):
/// the victim exits the process cold at the kill step — no goodbye, the
/// peers' readers see EOF and the failure detector does the rest. Rank
/// 0 persists the restore blob to `ckpt_path` (atomic write-to-temp +
/// rename) so the launcher can drive the reference run, and prints the
/// summary line.
pub fn proc_elastic_worker(comm: &ProcComm, spec: &ElasticSpec, ckpt_path: &Path) -> i32 {
    if comm.size() != spec.world {
        eprintln!(
            "train-elastic spawned with {} ranks but the scenario has world={}",
            comm.size(),
            spec.world
        );
        return 2;
    }
    let (train_ds, _) = Demo::data();
    let registry = Registry::new();
    let _telemetry = registry.install(comm.rank());
    let rank = comm.rank();
    let die = || {
        // Simulate a crash: no Drop, no socket shutdown handshake.
        std::process::exit(0);
    };
    let shrink = |hint: &[usize]| {
        let shrunk = comm.shrink(hint).expect("membership agreement");
        let epoch = shrunk.epoch();
        (Box::new(shrunk) as Box<dyn Communicator>, epoch)
    };
    match trial_rank(comm, spec, &train_ds, None, &die, &shrink) {
        Some((resumed, blob, epoch)) => {
            if rank == 0 {
                // Persist the restore blob (atomic write-to-temp +
                // rename) so the launcher can drive the reference run
                // against the exact bytes the survivors used.
                checkpoint::save_to_file(ckpt_path, &blob).expect("persist restore blob");
                println!("{}", elastic_summary_json(spec.world - 1, epoch, &resumed));
            }
            0
        }
        None => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The structural rules; `runtime`'s `job_specs_are_typed_not_panicking`
    /// drives the same cases through the `KFAC_PROC_JOB` parser.
    #[test]
    fn spec_validation_is_typed_not_panicking() {
        let base = ElasticSpec::canonical(8);
        assert!(base.validate().is_ok());
        // Rank 0 must survive to report.
        let mut bad = base;
        bad.kill_rank = 0;
        assert!(bad.validate().unwrap_err().contains("rank 0"));
        // The kill must land after a checkpoint exists: one is due after
        // step 2, but iteration 1 folded rank-local factors, so the first
        // is taken after iteration 2's exchange and resumes at 3.
        for kill_step in [1, 2] {
            let mut bad = base;
            bad.kill_step = kill_step;
            assert!(bad.validate().unwrap_err().contains("iteration 3"));
        }
        let mut earliest = base;
        earliest.kill_step = 3;
        assert!(earliest.validate().is_ok());
        // And inside the budget.
        let mut bad = base;
        bad.kill_step = 8;
        assert!(bad.validate().unwrap_err().contains("budget"));
    }

    #[test]
    fn summary_json_is_parseable_and_bit_faithful() {
        let result = ResumeResult {
            restore_iteration: 4,
            post_losses: vec![2.2412109375, 1.5],
            params: vec![1.0, -2.5],
        };
        let json = elastic_summary_json(3, 1, &result);
        let doc = kfac_telemetry::json::Json::parse(&json).expect("valid json");
        assert_eq!(doc.get("world").and_then(|v| v.as_f64()), Some(3.0));
        assert_eq!(doc.get("epoch").and_then(|v| v.as_f64()), Some(1.0));
        let losses: Vec<f64> = doc
            .get("post_losses")
            .and_then(|v| v.as_arr())
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap())
            .collect();
        // f64 Debug repr round-trips exactly through the parser.
        assert_eq!(losses[0].to_bits(), result.post_losses[0].to_bits());
        assert_eq!(
            doc.get("params_hash").and_then(|v| v.as_str()),
            Some(format!("{:016x}", params_bit_hash(&result.params)).as_str())
        );
    }
}
