//! Regression pin for shrink-world recovery: killing one rank of a
//! 4-way K-FAC CIFAR group mid-run and resuming on the 3 survivors
//! (epoch-fenced view, checkpoint restore, re-derived batch plan and
//! factor assignment) must reproduce — bitwise — a from-scratch 3-rank
//! group restored from the same checkpoint blob.
//!
//! The thread-fabric scenario runs in-process here. The proc-fabric
//! scenario (cold process exit, EOF/heartbeat detection) is driven
//! through the spawned `xp` binary, exactly as CI's
//! `xp elastic --scale smoke` does.

use kfac_harness::elastic::{demo_data, run_reference, run_thread_trial, ElasticSpec};
use std::process::Command;

fn small_spec() -> ElasticSpec {
    ElasticSpec {
        world: 4,
        iters: 6,
        kill_step: 3,
        kill_rank: 2,
        checkpoint_every: 2,
    }
}

/// The acceptance criterion on the thread fabric: survivor trajectory
/// ≡ shrunken-world reference, bit for bit.
#[test]
fn shrink_world_resume_matches_reference_bitwise() {
    let spec = small_spec();
    let train_ds = demo_data();
    let trial = run_thread_trial(&spec, &train_ds, None);

    // A checkpoint comes due after step 2, but iteration 1 folded
    // rank-local factors: it is taken after iteration 2's exchange, so the
    // kill at step 3 restores to step 3.
    assert_eq!(trial.resumed.restore_iteration, 3);
    assert_eq!(trial.epoch, 1, "one shrink fences epoch 1");
    assert_eq!(trial.shrink_resumes, 3, "every survivor records a resume");
    assert_eq!(
        trial.resumed.post_losses.len(),
        spec.iters - trial.resumed.restore_iteration as usize
    );

    let reference = run_reference(&spec, &trial.checkpoint, &train_ds);
    assert!(
        trial.resumed.bitwise_eq(&reference),
        "post-shrink trajectory diverged from the from-scratch shrunken world"
    );
}

/// Losing a different rank (the last one) recovers just as cleanly —
/// the contiguous re-ranking is not specific to interior ranks.
#[test]
fn shrink_world_resume_survives_losing_the_last_rank() {
    let spec = ElasticSpec {
        kill_rank: 3,
        ..small_spec()
    };
    let train_ds = demo_data();
    let trial = run_thread_trial(&spec, &train_ds, None);
    let reference = run_reference(&spec, &trial.checkpoint, &train_ds);
    assert!(trial.resumed.bitwise_eq(&reference));
}

/// Full two-fabric scenario through the real `xp` binary (the proc
/// half spawns worker processes, so it needs `xp`'s dispatch). Ignored
/// by default; CI runs it explicitly.
#[test]
#[ignore = "elastic stress: spawns a process world (CI runs it)"]
fn xp_elastic_both_fabrics() {
    let out = Command::new(env!("CARGO_BIN_EXE_xp"))
        .args(["elastic", "--scale", "smoke"])
        .output()
        .expect("spawn xp elastic");
    assert!(
        out.status.success(),
        "xp elastic failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("bitwise = reference"),
        "missing verification table:\n{stdout}"
    );
}
