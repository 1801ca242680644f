//! Wire-precision loss parity — 4-rank CIFAR, f32 vs bf16 wires.
//!
//! The case for the half-width wire is bytes (the traffic columns below);
//! whether time follows is read off the wall-time column, in alternated
//! runs (EXPERIMENTS.md). This experiment makes the *accuracy and
//! determinism* case on the paper's 4-worker correctness platform:
//!
//! * the f32 policy and the bf16 policy each produce a
//!   **bitwise identical** trajectory (loss bits and final parameters)
//!   on the thread fabric and the TCP proc fabric — the wire codec's
//!   allgather-and-fold construction is fabric-independent;
//! * the bf16 policy's final training loss lands within [`LOSS_TOL`] of
//!   the f32 run's (loss parity);
//! * bf16 wire payloads halve the measured gradient/factor/eigen bytes
//!   ([`WIRE_RATIO_MAX`]), and the per-dtype counters
//!   (`comm/bytes/dtype/*`) attribute the volume to the right dtype.

use crate::experiments::ExperimentOutput;
use crate::presets::{CifarSetup, Scale};
use crate::procrun::params_bit_hash;
use crate::report::{pct, Table};
use crate::trainer::{train, TrainConfig, TrainResult};
use kfac::{KfacConfig, PrecisionPolicy};
use kfac_collectives::CommBackend;
use kfac_optim::LrSchedule;
use kfac_telemetry::Registry;

/// Documented tolerance: absolute difference in final mean training loss
/// between the bf16 and f32 policies. bf16 keeps f32's exponent with
/// ~2⁻⁸ relative rounding per transmitted value; every reduction still
/// accumulates in f32, which keeps the compounded effect on a short CIFAR
/// budget well inside this bound.
pub const LOSS_TOL: f64 = 0.1;

/// Upper bound on `bf16 bytes / f32 bytes` per traffic class. The exact
/// ratio is `(⌈n/2⌉ + 1) / n` per message — ≈ 0.5 for the payload sizes
/// here; 0.6 leaves room for the per-message length-prefix word on the
/// small eigen payloads.
pub const WIRE_RATIO_MAX: f64 = 0.6;

/// The paper's correctness platform worker count.
const RANKS: usize = 4;

struct Arm {
    result: TrainResult,
    /// `comm/bytes/dtype/{f32,bf16}` counter readings for the run.
    dtype_f32: u64,
    dtype_bf16: u64,
}

fn run_with(
    setup: &CifarSetup,
    base: &TrainConfig,
    policy: PrecisionPolicy,
    backend: CommBackend,
) -> Arm {
    let mut cfg = base.clone().with_backend(backend);
    // Assigned directly, which pins the policy (`RuntimeConfig`'s
    // precedence rule): `with_kfac` would substitute an installed
    // `KFAC_PRECISION` into both arms of the comparison.
    cfg.kfac = Some(KfacConfig {
        update_freq: 4,
        damping: 0.05,
        kl_clip: Some(0.01),
        precision: policy,
        ..KfacConfig::default()
    });
    // Fresh registry per run: the per-dtype wire counters must be
    // attributable to this arm alone.
    let registry = Registry::new();
    cfg.telemetry = Some(registry.clone());
    let result = train(|s| setup.model(s), &setup.train, &setup.val, &cfg);
    Arm {
        result,
        dtype_f32: registry.counter("comm/bytes/dtype/f32").get(),
        dtype_bf16: registry.counter("comm/bytes/dtype/bf16").get(),
    }
}

fn final_loss(r: &TrainResult) -> f64 {
    r.epochs.last().map(|e| e.train_loss).unwrap_or(f64::NAN)
}

/// The cross-fabric witness: per-epoch loss bits and the final
/// parameters' bit-hash, the one the table prints.
fn trajectory(r: &TrainResult) -> (Vec<u64>, u64) {
    let losses = r.epochs.iter().map(|e| e.train_loss.to_bits()).collect();
    (losses, params_bit_hash(&r.final_params))
}

/// Run the experiment.
pub fn run(scale: Scale) -> ExperimentOutput {
    let setup = CifarSetup::new(scale);
    let base = TrainConfig::new(
        RANKS,
        setup.base_batch,
        setup.kfac_epochs,
        LrSchedule {
            warmup_epochs: setup.warmup(setup.kfac_epochs),
            ..LrSchedule::paper_steps(setup.base_lr, setup.kfac_decay_epochs())
        }
        .scale_for_workers(RANKS),
    );

    let arms: Vec<(&str, PrecisionPolicy)> = vec![
        ("f32", PrecisionPolicy::f32()),
        ("bf16", PrecisionPolicy::bf16()),
    ];
    let fabrics = [("thread", CommBackend::Thread), ("proc", CommBackend::Proc)];

    let mut table = Table::new(
        "Wire-precision policies — 4-rank CIFAR, both fabrics",
        &[
            "Policy",
            "Fabric",
            "Final Loss",
            "Final Val Acc",
            "Grad KiB",
            "Factor KiB",
            "Eigen KiB",
            "Wall s",
            "Params Hash",
        ],
    );
    let mut notes = Vec::new();
    let mut by_policy: Vec<(&str, Vec<Arm>)> = Vec::new();

    for (pname, policy) in &arms {
        let mut runs = Vec::new();
        for (fname, backend) in fabrics {
            let arm = run_with(&setup, &base, *policy, backend);
            let t = &arm.result.traffic;
            table.row(vec![
                pname.to_string(),
                fname.to_string(),
                format!("{:.4}", final_loss(&arm.result)),
                pct(arm.result.final_val_acc),
                format!("{:.1}", t.gradient_bytes as f64 / 1024.0),
                format!("{:.1}", t.factor_bytes as f64 / 1024.0),
                format!("{:.1}", t.eigen_bytes as f64 / 1024.0),
                format!("{:.2}", arm.result.total_s),
                format!("{:016x}", params_bit_hash(&arm.result.final_params)),
            ]);
            runs.push(arm);
        }
        by_policy.push((pname, runs));
    }

    // 1) Cross-fabric bitwise identity per policy.
    for (pname, runs) in &by_policy {
        if trajectory(&runs[0].result) == trajectory(&runs[1].result) {
            notes.push(format!(
                "Shape holds: {pname} trajectory bitwise identical on thread and proc fabrics."
            ));
        } else {
            notes.push(format!(
                "Shape DEVIATION: {pname} trajectory differs across fabrics."
            ));
        }
    }

    // 2) Loss parity between the policies (thread-fabric arms; the
    //    cross-fabric check already pinned proc to the same bits).
    let f32_arm = &by_policy[0].1[0];
    let bf16_arm = &by_policy[1].1[0];
    let delta = (final_loss(&f32_arm.result) - final_loss(&bf16_arm.result)).abs();
    notes.push(format!(
        "Loss parity: |Δ final loss| = {delta:.4} vs documented LOSS_TOL = {LOSS_TOL}."
    ));
    if delta > LOSS_TOL {
        notes.push(format!(
            "Shape DEVIATION: |Δ loss| {delta:.4} exceeds tolerance {LOSS_TOL}."
        ));
    }

    // 3) Wire-byte halving per traffic class, and dtype attribution.
    let (tf, tb) = (&f32_arm.result.traffic, &bf16_arm.result.traffic);
    for (class, f32_bytes, bf16_bytes) in [
        ("gradient", tf.gradient_bytes, tb.gradient_bytes),
        ("factor", tf.factor_bytes, tb.factor_bytes),
        ("eigen", tf.eigen_bytes, tb.eigen_bytes),
    ] {
        let ratio = bf16_bytes as f64 / f32_bytes.max(1) as f64;
        if f32_bytes > 0 && ratio <= WIRE_RATIO_MAX {
            notes.push(format!(
                "Shape holds: {class} wire bytes halved (bf16/f32 = {ratio:.3})."
            ));
        } else {
            notes.push(format!(
                "Shape DEVIATION: {class} bf16/f32 byte ratio {ratio:.3} exceeds {WIRE_RATIO_MAX} \
                 (f32 {f32_bytes} B, bf16 {bf16_bytes} B)."
            ));
        }
    }
    if bf16_arm.dtype_bf16 > 0 && f32_arm.dtype_bf16 == 0 {
        notes.push(format!(
            "Per-dtype counters attribute correctly: bf16 run moved {} B at bf16 \
             (f32 run: 0 B at bf16, {} B at f32).",
            bf16_arm.dtype_bf16, f32_arm.dtype_f32
        ));
    } else {
        notes.push(format!(
            "Shape DEVIATION: per-dtype counters misattributed (f32 run bf16 bytes {}, \
             bf16 run bf16 bytes {}).",
            f32_arm.dtype_bf16, bf16_arm.dtype_bf16
        ));
    }

    ExperimentOutput {
        id: "mixed",
        tables: vec![table],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_holds_parity_determinism_and_byte_halving() {
        let out = run(Scale::Smoke);
        assert_eq!(out.tables.len(), 1);
        let md = out.to_markdown();
        assert!(md.contains("bf16"), "{md}");
        assert!(
            !md.contains("DEVIATION"),
            "mixed-precision shape check failed:\n{md}"
        );
    }
}
