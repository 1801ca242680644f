//! The PR's acceptance criterion, end to end: a 4-process `ProcComm`
//! K-FAC CIFAR run driven through the `xp` binary produces the same loss
//! trajectory — bitwise — as the 4-rank `ThreadComm` run. Also covers
//! the in-process proc backend (`TrainConfig::with_backend`) and the
//! overlapped executor over the TCP fabric.

use kfac::DistStrategy;
use kfac_collectives::CommBackend;
use kfac_harness::procrun::{
    cifar_demo_config, cifar_demo_data, cifar_demo_model, params_bit_hash,
};
use kfac_harness::{train, ExecStrategy};
use kfac_telemetry::json::Json;
use std::process::Command;

/// In-process check: the same `train()` call on the thread fabric and on
/// the TCP proc fabric yields bit-identical losses and final weights.
#[test]
fn proc_backend_train_matches_thread_backend_bitwise() {
    let (train_ds, val_ds) = cifar_demo_data();
    let cfg = cifar_demo_config(4);
    let reference = train(cifar_demo_model, &train_ds, &val_ds, &cfg);

    let proc_cfg = cfg.clone().with_backend(CommBackend::Proc);
    let got = train(cifar_demo_model, &train_ds, &val_ds, &proc_cfg);

    assert_eq!(reference.epochs.len(), got.epochs.len());
    for (r, g) in reference.epochs.iter().zip(&got.epochs) {
        assert_eq!(
            r.train_loss.to_bits(),
            g.train_loss.to_bits(),
            "epoch {} loss diverges across fabrics",
            r.epoch
        );
        assert_eq!(r.val_acc.to_bits(), g.val_acc.to_bits());
    }
    assert_eq!(
        reference.final_params, got.final_params,
        "final weights diverge across fabrics"
    );
}

/// The overlapped task-graph executor drives its gradient buckets through
/// a dedicated in-order comm worker; over the proc fabric it must still
/// reproduce the sequential thread-fabric oracle bit for bit, under either
/// distribution strategy.
#[test]
fn overlapped_exec_over_proc_fabric_matches_sequential_oracle() {
    let (train_ds, val_ds) = cifar_demo_data();
    for strategy in [DistStrategy::Opt, DistStrategy::Lw] {
        let mut cfg = cifar_demo_config(2);
        cfg.kfac.as_mut().expect("demo runs K-FAC").strategy = strategy;
        let reference = train(cifar_demo_model, &train_ds, &val_ds, &cfg);

        let overlapped_proc = cfg
            .clone()
            .with_backend(CommBackend::Proc)
            .with_exec(ExecStrategy::Overlapped { compute_workers: 2 });
        let got = train(cifar_demo_model, &train_ds, &val_ds, &overlapped_proc);

        assert_eq!(reference.final_params, got.final_params, "{strategy:?}");
        for (r, g) in reference.epochs.iter().zip(&got.epochs) {
            assert_eq!(
                r.train_loss.to_bits(),
                g.train_loss.to_bits(),
                "{strategy:?}"
            );
        }
    }
}

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

    let (train_ds, val_ds) = cifar_demo_data();
    let cfg = cifar_demo_config(4);
    let reference = train(cifar_demo_model, &train_ds, &val_ds, &cfg);

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
