//! Gradient-exchange experiment — overlapped vs sequential training.
//!
//! Two halves, mirroring how the paper argues for overlap (§V):
//!
//! * **Measured** (real 4-rank CIFAR K-FAC training on this host): the
//!   same run with the fused gradient exchange after backward (the
//!   reference), and with per-bucket exchanges on a background thread
//!   overlapping backward (`--overlap`). Wall time is reported per
//!   strategy and the final parameter vectors are compared **bitwise**
//!   against the sequential oracle — overlap must change when work
//!   happens, never what is computed.
//! * **Projected** (calibrated cluster model): sequential vs overlapped
//!   K-FAC-opt iteration timelines for ResNet-50 at the paper's 64-GPU
//!   operating point, pricing how much gradient/factor communication
//!   could hide behind backprop and preconditioning — a fuller pipeline
//!   than the measured half runs, which overlaps the gradient buckets
//!   only.

use crate::experiments::ExperimentOutput;
use crate::overlap::ExecStrategy;
use crate::presets::{CifarSetup, Scale};
use crate::report::Table;
use crate::trainer::{train, TrainConfig};
use kfac::KfacConfig;
use kfac_cluster::{
    emit_kfac_opt_overlap_trace, emit_kfac_opt_trace, ClusterSpec, IterationModel, KfacRunConfig,
    ModelProfile,
};
use kfac_nn::arch::resnet50;
use kfac_optim::LrSchedule;
use kfac_telemetry::Registry;

/// Run the experiment (`xp overlap`).
pub fn run(scale: Scale) -> ExperimentOutput {
    let setup = CifarSetup::new(scale);
    let ranks = 4;
    let epochs = setup.kfac_epochs.clamp(1, 4);
    let make_cfg = |exec: ExecStrategy| {
        let mut cfg = TrainConfig::new(
            ranks,
            setup.base_batch,
            epochs,
            LrSchedule {
                warmup_epochs: setup.warmup(epochs),
                ..LrSchedule::paper_steps(setup.base_lr, setup.kfac_decay_epochs())
            }
            .scale_for_workers(ranks),
        )
        .with_kfac(KfacConfig {
            update_freq: 2,
            damping: 0.003,
            ..KfacConfig::default()
        });
        cfg.exec = exec;
        cfg
    };

    // --- Measured half: identical runs under each execution strategy. ---
    let strategies: &[(&str, ExecStrategy)] = &[
        ("sequential (reference)", ExecStrategy::Sequential),
        (
            "overlapped (bucketed)",
            ExecStrategy::Overlapped { compute_workers: 1 },
        ),
    ];
    let mut measured = Table::new(
        format!("Gradient exchange — {ranks}-rank CIFAR K-FAC, {epochs} epochs per strategy"),
        &[
            "strategy",
            "wall (s)",
            "final train loss",
            "params vs sequential",
        ],
    );
    let mut seq_params: Vec<f32> = Vec::new();
    let mut seq_loss_bits: u64 = 0;
    let mut all_bitwise = true;
    for &(name, exec) in strategies {
        let started = std::time::Instant::now();
        let r = train(
            |s| setup.model(s),
            &setup.train,
            &setup.val,
            &make_cfg(exec),
        );
        let wall = started.elapsed().as_secs_f64();
        let loss = r.epochs.last().map(|e| e.train_loss).unwrap_or(f64::NAN);
        let verdict = if matches!(exec, ExecStrategy::Sequential) {
            seq_params = r.final_params.clone();
            seq_loss_bits = loss.to_bits();
            "oracle".to_string()
        } else {
            let same = r.final_params.len() == seq_params.len()
                && r.final_params
                    .iter()
                    .zip(&seq_params)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
                && loss.to_bits() == seq_loss_bits;
            all_bitwise &= same;
            if same {
                "bitwise identical"
            } else {
                "DIVERGED"
            }
            .to_string()
        };
        measured.row(vec![
            name.to_string(),
            format!("{wall:.2}"),
            format!("{loss:.6}"),
            verdict,
        ]);
    }

    // --- Projected half: cluster-model timeline at the paper's scale. ---
    let model = IterationModel::new(
        ModelProfile::from_arch(&resnet50()),
        ClusterSpec::frontera(64),
        32,
    );
    let cfg = KfacRunConfig::with_freq(500);
    let iterations = 8;
    let seq_wall = emit_kfac_opt_trace(&Registry::new(), &model, cfg, iterations);
    let mut projected = Table::new(
        "Projected K-FAC-opt timelines — ResNet-50 @64 GPUs, 8 iterations",
        &["timeline", "wall (s)", "speedup vs sequential"],
    );
    projected.row(vec![
        "sequential".into(),
        format!("{seq_wall:.4}"),
        "1.00x".into(),
    ]);
    let mut best_speedup = 0.0f64;
    for buckets in [1usize, 4, 16] {
        let wall = emit_kfac_opt_overlap_trace(&Registry::new(), &model, cfg, iterations, buckets);
        let speedup = seq_wall / wall;
        best_speedup = best_speedup.max(speedup);
        projected.row(vec![
            format!("overlapped, {buckets} gradient bucket(s)"),
            format!("{wall:.4}"),
            format!("{speedup:.2}x"),
        ]);
    }

    let mut notes = Vec::new();
    if all_bitwise {
        notes.push(
            "Numerical contract holds: the overlapped run reproduces the sequential \
             parameters and loss bit-for-bit (per-bucket allreduce framing is an exact \
             refactoring; everything after the exchange is the same code)."
                .into(),
        );
    } else {
        notes.push("CONTRACT VIOLATION: the overlapped run diverged from sequential.".into());
    }
    notes.push(format!(
        "Projected overlap (gradient buckets behind backprop, plus factor traffic behind \
         preconditioning, which the measured runs do not pipeline) is worth up to a \
         {best_speedup:.2}x iteration speedup at 64 GPUs. The measured wall times are one run \
         per strategy, too few to resolve a sub-millisecond gain per iteration, so the timing \
         claim rests on the calibrated model and on alternated `stepbench` pairs, while the \
         correctness claim is measured."
    ));
    notes.push(
        "Reproduce any training experiment on the bucketed schedule by passing `--overlap` to \
         `xp` (sets the process-wide default execution strategy)."
            .into(),
    );

    ExperimentOutput {
        id: "overlap",
        tables: vec![measured, projected],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_runs_all_strategies_and_stays_bitwise() {
        let out = run(Scale::Smoke);
        assert_eq!(out.tables[0].len(), 2, "sequential + overlapped");
        assert_eq!(out.tables[1].len(), 4, "sequential + three bucket counts");
        assert!(
            out.notes[0].starts_with("Numerical contract holds"),
            "overlap diverged from sequential: {}",
            out.notes[0]
        );
    }
}
