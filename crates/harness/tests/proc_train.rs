//! The multi-process check, end to end: a 4-process `ProcComm` K-FAC
//! CIFAR run driven through the `xp` binary produces the same loss
//! trajectory — bitwise — as the 4-rank `ThreadComm` run. The in-process
//! TCP fabric is one axis of `tests/pins.rs`.

use kfac_harness::procrun::params_bit_hash;
use kfac_harness::{train, Demo};
use kfac_telemetry::json::Json;
use std::process::Command;

/// True multi-process check: spawn `xp proc-train --ranks 4` (four OS
/// processes, localhost TCP mesh) and compare its reported trajectory
/// against the in-process ThreadComm run of the identical config.
#[test]
fn spawned_proc_train_matches_thread_trajectory_bitwise() {
    let out = Command::new(env!("CARGO_BIN_EXE_xp"))
        .args(["proc-train", "--ranks", "4"])
        .output()
        .expect("spawn xp proc-train");
    assert!(
        out.status.success(),
        "xp proc-train failed: {}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let summary_line = stdout
        .lines()
        .find(|l| l.trim_start().starts_with('{'))
        .unwrap_or_else(|| panic!("no summary JSON in output: {stdout:?}"));
    let summary = Json::parse(summary_line.trim()).expect("summary parses as JSON");

    let (train_ds, val_ds) = Demo::data();
    let cfg = Demo::config(4);
    let reference = train(Demo::model, &train_ds, &val_ds, &cfg);

    let losses = summary
        .get("train_loss")
        .and_then(|v| v.as_arr())
        .expect("train_loss array");
    assert_eq!(losses.len(), reference.epochs.len());
    for (got, want) in losses.iter().zip(&reference.epochs) {
        // `{:?}` f64 repr round-trips exactly through the JSON parser, so
        // bit equality here means the worker processes computed the very
        // same trajectory over TCP.
        assert_eq!(
            got.as_f64().map(f64::to_bits),
            Some(want.train_loss.to_bits()),
            "epoch {} loss diverges between xp proc-train and ThreadComm",
            want.epoch
        );
    }
    let hash = summary
        .get("params_hash")
        .and_then(|v| v.as_str())
        .expect("params_hash field");
    assert_eq!(
        hash,
        format!("{:016x}", params_bit_hash(&reference.final_params)),
        "final weights diverge between xp proc-train and ThreadComm"
    );
}
