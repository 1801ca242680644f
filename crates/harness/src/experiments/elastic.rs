//! Elastic-membership experiment (`xp elastic`) — kill a rank of a
//! 4-way K-FAC CIFAR group mid-run on both fabrics and verify the
//! shrink-world recovery bitwise.
//!
//! Two scenarios share one [`ElasticSpec`]:
//!
//! * **thread fabric** — in-process, the victim injects its death
//!   observation deterministically (the chaos-test path through the
//!   same membership machinery);
//! * **proc fabric** — four OS processes over TCP, the victim exits
//!   cold, and EOF/heartbeat detection finds the body.
//!
//! For each, the survivors' post-shrink trajectory (loss bits and
//! final-parameter bits) must equal a *from-scratch* group of the
//! shrunken size restored from the same checkpoint blob — the proof
//! that the epoch-fenced view, the re-derived batch plan, and the
//! recomputed K-FAC factor assignment introduce zero numerical drift.
//! The driver also asserts the observability contract: membership-epoch
//! gauges move, `train/shrink_resumes` counts every survivor, and the
//! flight recorder dumps a `shrink_resume_epoch_*` event.

use crate::elastic::{elastic_summary_json, run_reference, run_thread_trial, ElasticSpec};
use crate::experiments::ExperimentOutput;
use crate::presets::Scale;
use crate::procrun::run_proc_elastic;
use crate::report::Table;
use kfac_telemetry::json::Json;
use std::path::PathBuf;

/// Where the thread trial's flight-recorder dump lands.
fn flight_dump_path() -> PathBuf {
    std::env::temp_dir()
        .join("kfac-elastic-flight")
        .join("thread-trial.json")
}

/// Run the experiment (`xp elastic`).
pub fn run(scale: Scale) -> ExperimentOutput {
    let iters = match scale {
        Scale::Smoke => 8,
        Scale::Quick => 12,
        Scale::Full => 20,
    };
    let spec = ElasticSpec::canonical(iters);
    let (train_ds, _) = crate::presets::Demo::data();
    let mut notes = Vec::new();
    let mut table = Table::new(
        "Elastic membership — kill one of 4 ranks mid-run, shrink, resume",
        &[
            "fabric",
            "world",
            "restore iter",
            "epoch",
            "post-shrink steps",
            "bitwise = reference",
        ],
    );

    // Thread fabric: deterministic death injection.
    let dump = flight_dump_path();
    let _ = std::fs::remove_file(&dump);
    let trial = run_thread_trial(&spec, &train_ds, Some(dump.clone()));
    let reference = run_reference(&spec, &trial.checkpoint, &train_ds);
    assert!(
        trial.resumed.bitwise_eq(&reference),
        "thread-fabric survivors diverged from the shrunken-world reference"
    );
    assert_eq!(trial.epoch, 1, "one shrink fences epoch 1");
    assert_eq!(
        trial.shrink_resumes,
        (spec.world - 1) as u64,
        "every survivor records its resume"
    );
    table.row(vec![
        "thread".into(),
        format!("{} → {}", spec.world, spec.world - 1),
        trial.resumed.restore_iteration.to_string(),
        trial.epoch.to_string(),
        trial.resumed.post_losses.len().to_string(),
        "yes".into(),
    ]);

    // The escalation must leave membership evidence in the recorder.
    let dump_doc =
        std::fs::read_to_string(&dump).expect("shrink resume must leave a flight-recorder dump");
    let parsed = Json::parse(&dump_doc).expect("flight-recorder dump must be valid JSON");
    let reason = parsed
        .get("reason")
        .and_then(|r| r.as_str())
        .unwrap_or("?")
        .to_string();
    assert!(
        reason.starts_with("shrink_resume_epoch_"),
        "dump must record the membership event, got reason {reason:?}"
    );
    notes.push(format!(
        "Flight recorder dumped on shrink: {} ({} bytes, reason `{reason}`).",
        dump.display(),
        dump_doc.len(),
    ));

    // Proc fabric: real processes, cold exit, EOF/heartbeat detection.
    let proc = run_proc_elastic(&spec).expect("proc elastic trial");
    // Both fabrics run the identical pre-kill trajectory, so the
    // survivors must have restored the identical blob…
    assert_eq!(
        proc.checkpoint, trial.checkpoint,
        "proc survivors restored a different checkpoint than the thread trial"
    );
    // …and the summary must match the reference, field for field (the
    // reference is fabric-agnostic: proc_train pins thread ≡ proc).
    let doc = Json::parse(&proc.summary).expect("proc summary must be valid JSON");
    let expected = elastic_summary_json(spec.world - 1, 1, &reference);
    let expected_doc = Json::parse(&expected).unwrap();
    assert_eq!(
        doc, expected_doc,
        "proc-fabric post-shrink trajectory diverged from the reference\n\
         got:      {}\n\
         expected: {expected}",
        proc.summary
    );
    table.row(vec![
        "proc".into(),
        format!("{} → {}", spec.world, spec.world - 1),
        reference.restore_iteration.to_string(),
        "1".into(),
        reference.post_losses.len().to_string(),
        "yes".into(),
    ]);

    notes.push(format!(
        "Scenario: {} iterations, rank {} dies at the start of iteration {}, checkpoints \
         every {} steps; restore landed at iteration {}.",
        spec.iters,
        spec.kill_rank,
        spec.kill_step,
        spec.checkpoint_every,
        reference.restore_iteration,
    ));
    notes.push(
        "Post-shrink losses and final parameters are bitwise identical to a from-scratch \
         3-rank group restored from the same blob, on both fabrics — the epoch-fenced view \
         and re-derived assignments introduce zero numerical drift."
            .to_string(),
    );

    ExperimentOutput {
        id: "elastic",
        tables: vec![table],
        notes,
    }
}

// No in-lib smoke here: the proc half spawns the current executable as
// workers, which only the `xp` binary knows how to dispatch. The thread
// half is pinned by `tests/elastic.rs`; CI runs the full two-fabric
// scenario via `xp elastic --scale smoke`.
