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
//! Everything that determines the math lives here once and is shared by
//! the thread-fabric trial, the proc-fabric worker
//! (`xp` job `train-elastic`), and the reference run:
//! [`post_shrink_resume`] re-derives the batch plan from the *new*
//! `(rank, world)` — the same world-parameterized recompute the K-FAC
//! factor assignment performs internally — so survivors and reference
//! consume identical batches.

use crate::checkpoint;
use crate::procrun::params_bit_hash;
use crate::resilient::{FaultTolerance, ResilientTrainer, StepOutcome};
use kfac::{Kfac, KfacConfig};
use kfac_collectives::proc::ProcComm;
use kfac_collectives::{Communicator, Elastic, ReduceOp, ThreadComm};
use kfac_data::{batch_of, synthetic_cifar, Dataset, ShardedSampler, SyntheticImages};
use kfac_nn::{resnet::resnet_cifar, CrossEntropyLoss, Layer, Sequential};
use kfac_optim::Sgd;
use kfac_telemetry::{FlightRecorder, Registry};
use kfac_tensor::Rng64;
use std::path::{Path, PathBuf};
use std::thread;

const LOCAL_BATCH: usize = 4;
const MODEL_SEED: u64 = 3;
const DATA_SEED: u64 = 11;
const LR: f32 = 0.02;
/// The trial preconditioner's eigen-update interval. Factors fold every
/// iteration (interval / 10 rounds down to 1) and are exchanged on
/// multiples of this, which is where checkpoints can be taken.
const UPDATE_FREQ: usize = 2;

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

    /// The iteration the first checkpoint resumes at: it comes due once
    /// `checkpoint_every` steps are done and is taken after the first
    /// iteration from there on that exchanges the factor averages — until
    /// then each rank's are its own, and survivors need identical blobs.
    fn first_checkpoint(&self) -> usize {
        (self.checkpoint_every - 1).next_multiple_of(UPDATE_FREQ) + 1
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
                 where factors are next exchanged (every {UPDATE_FREQ}), so none exists \
                 before iteration {}",
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

/// The trial model: the 3-stage depth-1 CIFAR ResNet, from a fixed seed
/// so the survivors' run and the reference run line up.
pub fn demo_model() -> Sequential {
    let mut rng = Rng64::new(MODEL_SEED);
    resnet_cifar(1, 4, 10, 3, &mut rng)
}

/// The trial preconditioner configuration.
pub fn demo_kfac(model: &mut Sequential) -> Kfac {
    Kfac::new(
        model,
        KfacConfig {
            update_freq: UPDATE_FREQ,
            damping: 0.003,
            ..KfacConfig::default()
        },
    )
}

/// The trial dataset (deterministic synthetic CIFAR, training split).
pub fn demo_data() -> SyntheticImages {
    synthetic_cifar(8, 96, 32, DATA_SEED).0
}

/// Per-rank batch index sequence for `iters` iterations, parameterized
/// on `(world, rank)` so a shrunken group re-derives its data sharding
/// from the new view — the elastic analogue of recomputing the K-FAC
/// factor assignment.
pub fn batch_plan(
    ds_len: usize,
    world: usize,
    rank: usize,
    iters: usize,
) -> Vec<(Vec<usize>, u64)> {
    let sampler = ShardedSampler::new(ds_len, world, rank, LOCAL_BATCH, DATA_SEED ^ 0x5a5a);
    let mut plan = Vec::with_capacity(iters);
    let mut epoch = 0usize;
    while plan.len() < iters {
        for indices in sampler.epoch_batches(epoch) {
            plan.push((indices, epoch as u64 + 1));
            if plan.len() == iters {
                break;
            }
        }
        epoch += 1;
    }
    plan
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

/// Restore `blob` into fresh training state and finish the budget on
/// `comm` — the shared recovery path: survivors call it with their
/// [`Elastic::shrink`] result, the reference calls it with a fresh
/// boot group of the shrunken size. The batch plan, K-FAC factor
/// assignment, and fusion sharding all re-derive from `comm`'s
/// `(rank, size)`, which is what makes the two bitwise comparable.
pub fn post_shrink_resume(
    comm: &dyn Communicator,
    blob: &[u8],
    spec: &ElasticSpec,
    train_ds: &(dyn Dataset + Sync),
) -> ResumeResult {
    let mut model = demo_model();
    let mut optimizer = Sgd::new(0.9, 1e-4);
    let mut kfac = Some(demo_kfac(&mut model));
    let (it, _) = checkpoint::restore(blob, &mut model, &mut optimizer, kfac.as_mut())
        .expect("checkpoint restores on the shrunken world");
    let batches = batch_plan(train_ds.len(), comm.size(), comm.rank(), spec.iters);
    let criterion = CrossEntropyLoss::new();
    let mut tr = ResilientTrainer::new(FaultTolerance::default());
    let mut post_losses = Vec::with_capacity(spec.iters - it as usize);
    for (j, (indices, variant)) in batches
        .iter()
        .enumerate()
        .take(spec.iters)
        .skip(it as usize)
    {
        let (x, labels) = batch_of(train_ds, indices, *variant);
        let (loss, outcome) = tr.step(
            &mut model,
            &mut kfac,
            &mut optimizer,
            comm,
            &x,
            &labels,
            &criterion,
            LR,
        );
        assert_eq!(
            outcome,
            StepOutcome::Stepped,
            "shrunken group degraded at iteration {j}"
        );
        // Each rank's loss is over its own shard; average so the
        // recorded trajectory is rank-invariant (and bitwise so).
        let mut global = [loss];
        comm.allreduce(&mut global, ReduceOp::Average);
        post_losses.push(global[0] as f64);
    }
    let mut params = Vec::new();
    model.visit_params("", &mut |_, w, _| params.extend_from_slice(w));
    ResumeResult {
        restore_iteration: it,
        post_losses,
        params,
    }
}

/// The epoch-fenced survivor group a `shrink` closure hands back:
/// the communicator plus the membership epoch it is fenced to.
type ShrunkGroup = (Box<dyn Communicator>, u64);

/// Drive one rank's pre-kill iterations and the recovery. Generic over
/// the fabric: `die` is what the victim does at the kill step (thread:
/// inject the death observation and return; proc: exit the process),
/// `shrink` produces the survivor communicator from the culprit hint.
fn survivor_loop(
    comm: &dyn Communicator,
    spec: &ElasticSpec,
    train_ds: &(dyn Dataset + Sync),
    dump_path: Option<PathBuf>,
    die: &dyn Fn(),
    shrink: &dyn Fn(&[usize]) -> ShrunkGroup,
) -> Option<(ResumeResult, Vec<u8>, u64)> {
    let rank = comm.rank();
    let batches = batch_plan(train_ds.len(), spec.world, rank, spec.iters);
    let mut model = demo_model();
    let mut optimizer = Sgd::new(0.9, 1e-4);
    let mut kfac = Some(demo_kfac(&mut model));
    let criterion = CrossEntropyLoss::new();
    let mut tr = ResilientTrainer::new(FaultTolerance {
        checkpoint_every: spec.checkpoint_every,
        ..FaultTolerance::default()
    });
    if rank == 0 {
        tr.set_flight_recorder(FlightRecorder::default(), dump_path);
    }
    let mut i = 0usize;
    while i < spec.iters {
        if rank == spec.kill_rank && i == spec.kill_step {
            die();
            return None;
        }
        let (indices, variant) = &batches[i];
        let (x, labels) = batch_of(train_ds, indices, *variant);
        let (_, outcome) = tr.step(
            &mut model,
            &mut kfac,
            &mut optimizer,
            comm,
            &x,
            &labels,
            &criterion,
            LR,
        );
        match outcome {
            StepOutcome::Stepped => i += 1,
            StepOutcome::SkippedStep => panic!("elastic trial skipped a step at iteration {i}"),
            StepOutcome::RankLost(culprit) => {
                let blob = tr
                    .latest_checkpoint()
                    .expect("rank lost before the first checkpoint")
                    .to_vec();
                let (shrunk, epoch) = shrink(&[culprit]);
                assert_eq!(shrunk.size(), spec.world - 1, "one rank was lost");
                tr.note_shrink_resume(epoch);
                let resumed = post_shrink_resume(&*shrunk, &blob, spec, train_ds);
                return Some((resumed, blob, epoch));
            }
        }
    }
    panic!(
        "rank {rank}: the kill at iteration {} never landed",
        spec.kill_step
    );
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
                    survivor_loop(
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
            .map(|comm| s.spawn(move || post_shrink_resume(&comm, blob, spec, train_ds)))
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
    let train_ds = demo_data();
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
    match survivor_loop(comm, spec, &train_ds, None, &die, &shrink) {
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
