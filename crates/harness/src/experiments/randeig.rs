//! Randomized-eigensolver accuracy — 4-rank CIFAR, randomized vs exact.
//!
//! The performance case for the randomized factor backend is made by
//! `xp bench-eig`; this experiment makes the *accuracy* case: a 4-rank
//! CIFAR/ResNet run preconditioned with randomized truncated
//! eigendecompositions must land within [`LOSS_TOL`] of the exact
//! tridiagonal-QL run's final training loss (and the per-layer
//! rank/captured-mass telemetry must show real truncation happened —
//! otherwise the run proved nothing).

use crate::experiments::ExperimentOutput;
use crate::presets::{CifarSetup, Scale};
use crate::report::{pct, Table};
use crate::trainer::{train, TrainConfig, TrainResult};
use kfac::{EigenSolver, KfacConfig, RandEigPolicy};
use kfac_optim::LrSchedule;

/// Documented tolerance: absolute difference in final mean training loss
/// between the randomized and exact backends. The randomized policy
/// below targets ≥95% captured spectral mass per factor; the discarded
/// tail perturbs each preconditioned gradient by O((1−mass)/γ), which
/// over a short CIFAR budget stays well inside this bound.
pub const LOSS_TOL: f64 = 0.1;

/// The paper's correctness platform worker count for this check.
const RANKS: usize = 4;

fn run_with(setup: &CifarSetup, base: &TrainConfig, solver: EigenSolver) -> TrainResult {
    let mut cfg = base.clone();
    cfg.kfac = Some(KfacConfig {
        update_freq: 10,
        damping: 0.05,
        kl_clip: Some(0.01),
        eigen_solver: solver,
        // Smoke/quick-scale factor dimensions sit below the production
        // `min_dim` small-factor cutoff, so lower it (and the starting
        // rank) to force genuine truncation; 95% mass keeps the
        // truncation aggressive enough to be observable.
        rand_eig: RandEigPolicy {
            min_dim: 1,
            init_rank: 4,
            mass_threshold: 0.95,
            ..RandEigPolicy::default()
        },
        ..KfacConfig::default()
    });
    train(|s| setup.model(s), &setup.train, &setup.val, &cfg)
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

    let exact = run_with(&setup, &base, EigenSolver::TridiagonalQl);
    let rand = run_with(&setup, &base, EigenSolver::Randomized);

    let final_loss = |r: &TrainResult| r.epochs.last().map(|e| e.train_loss).unwrap_or(f64::NAN);
    let (exact_loss, rand_loss) = (final_loss(&exact), final_loss(&rand));
    let delta = (exact_loss - rand_loss).abs();

    let mut table = Table::new(
        "Randomized vs exact eigensolver — 4-rank CIFAR",
        &[
            "Backend",
            "Final Loss",
            "Final Val Acc",
            "Max Eig Rank",
            "Min Captured Mass",
        ],
    );
    for (name, r) in [("tridiag (exact)", &exact), ("randomized", &rand)] {
        let (rank, mass) = r
            .stage_stats
            .as_ref()
            .map(|s| (s.eig_rank, s.eig_captured_mass))
            .unwrap_or((0, 0.0));
        table.row(vec![
            name.to_string(),
            format!("{:.4}", final_loss(r)),
            pct(r.final_val_acc),
            rank.to_string(),
            format!("{mass:.3}"),
        ]);
    }

    let mut notes = vec![format!(
        "Loss tolerance: |Δ final loss| = {delta:.4} vs documented LOSS_TOL = {LOSS_TOL}."
    )];
    if delta <= LOSS_TOL {
        notes.push("Shape holds: randomized backend within loss tolerance of exact.".into());
    } else {
        notes.push(format!(
            "Shape DEVIATION: |Δ loss| {delta:.4} exceeds tolerance {LOSS_TOL}."
        ));
    }
    let rand_stats = rand.stage_stats.as_ref();
    match rand_stats {
        Some(s) if s.eig_captured_mass > 0.0 && s.eig_captured_mass < 1.0 => {
            notes.push(format!(
                "Truncation was real: min captured mass {:.3}, max retained rank {}.",
                s.eig_captured_mass, s.eig_rank
            ));
        }
        _ => notes.push(
            "WARNING: no truncation observed — the randomized path may not have engaged.".into(),
        ),
    }

    ExperimentOutput {
        id: "randeig",
        tables: vec![table],
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_stays_within_loss_tolerance_and_truncates() {
        let out = run(Scale::Smoke);
        assert_eq!(out.tables.len(), 1);
        let md = out.to_markdown();
        assert!(md.contains("randomized"), "{md}");
        assert!(
            !md.contains("DEVIATION"),
            "randomized backend drifted outside LOSS_TOL:\n{md}"
        );
        assert!(
            !md.contains("WARNING"),
            "randomized path never truncated:\n{md}"
        );
    }
}
