//! Cross-rank correctness tests for the distributed K-FAC preconditioner.
//!
//! The key invariant of Algorithm 1: the *distributed* computation is a
//! pure work-partitioning of the single-rank computation. With identical
//! per-rank gradients, every strategy (Opt, Lw), placement policy and
//! world size must produce identical preconditioned gradients — the same
//! check the paper performs by verifying all variants converge identically
//! (§VI-C3: "We verify that all K-FAC-lw and K-FAC-opt experiments
//! converge to [the same] validation accuracy").

use kfac::{DistStrategy, InversionMethod, Kfac, KfacConfig, PlacementPolicy};
use kfac_collectives::{Communicator, LocalComm, ThreadComm};
use kfac_nn::{layer::Mode, CrossEntropyLoss, Layer, Linear, ReLU, Sequential};
use kfac_tensor::{Rng64, Tensor4};
use std::thread;

/// Build a small MLP (same weights for every caller thanks to the seed).
fn build_model(seed: u64) -> Sequential {
    let mut rng = Rng64::new(seed);
    Sequential::from_layers(vec![
        Box::new(Linear::new("fc1", 6, 8, true, &mut rng)),
        Box::new(ReLU::new()),
        Box::new(Linear::new("fc2", 8, 4, true, &mut rng)),
    ])
}

/// One forward/backward on a fixed batch with capture enabled as asked.
fn run_fwd_bwd(model: &mut Sequential, capture: bool, data_seed: u64) {
    let mut rng = Rng64::new(data_seed);
    let x = Tensor4::from_vec(8, 6, 1, 1, (0..48).map(|_| rng.normal_f32()).collect());
    let targets: Vec<usize> = (0..8).map(|i| i % 4).collect();
    model.zero_grad();
    model.set_capture(capture);
    let out = model.forward(&x, Mode::Train);
    let (_, grad) = CrossEntropyLoss::new().forward(&out, &targets);
    let _ = model.backward(&grad);
}

/// Preconditioned gradients after `steps` K-FAC steps on one rank of a
/// group, as a flat vector.
fn run_rank(comm: &dyn Communicator, cfg: KfacConfig, steps: usize) -> Vec<f32> {
    let mut model = build_model(42);
    let mut kfac = Kfac::new(&mut model, cfg);
    for s in 0..steps {
        // Identical data on every rank ⇒ allreduced gradient == local.
        run_fwd_bwd(&mut model, kfac.needs_capture(), 100 + s as u64);
        kfac.step(&mut model, comm, 0.1);
    }
    let mut flat = Vec::new();
    model.visit_params("", &mut |_, _, g| flat.extend_from_slice(g));
    flat
}

fn run_group(world: usize, cfg: KfacConfig, steps: usize) -> Vec<Vec<f32>> {
    let comms = ThreadComm::create(world);
    let cfg = &cfg;
    thread::scope(|s| {
        let handles: Vec<_> = comms
            .iter()
            .map(|comm| s.spawn(move || run_rank(comm, cfg.clone(), steps)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

fn max_diff(a: &[f32], b: &[f32]) -> f32 {
    a.iter()
        .zip(b)
        .fold(0.0f32, |m, (&x, &y)| m.max((x - y).abs()))
}

#[test]
fn opt_strategy_matches_single_rank_across_world_sizes() {
    let cfg = KfacConfig {
        update_freq: 2,
        ..KfacConfig::default()
    };
    let single = run_rank(&LocalComm::new(), cfg.clone(), 5);
    for world in [2, 3, 4] {
        let results = run_group(world, cfg.clone(), 5);
        for (rank, r) in results.iter().enumerate() {
            assert!(
                max_diff(r, &single) < 2e-4,
                "world={world} rank={rank} diff={}",
                max_diff(r, &single)
            );
        }
    }
}

#[test]
fn lw_strategy_matches_opt_strategy() {
    let base = KfacConfig {
        update_freq: 2,
        ..KfacConfig::default()
    };
    let opt = run_group(
        3,
        KfacConfig {
            strategy: DistStrategy::Opt,
            ..base.clone()
        },
        4,
    );
    let lw = run_group(
        3,
        KfacConfig {
            strategy: DistStrategy::Lw,
            ..base
        },
        4,
    );
    for (o, l) in opt.iter().zip(&lw) {
        assert!(max_diff(o, l) < 2e-4, "diff={}", max_diff(o, l));
    }
}

#[test]
fn size_balanced_placement_matches_round_robin_numerically() {
    // Placement changes who computes what, never the result.
    let base = KfacConfig {
        update_freq: 1,
        ..KfacConfig::default()
    };
    let rr = run_group(
        2,
        KfacConfig {
            placement: PlacementPolicy::RoundRobin,
            ..base.clone()
        },
        3,
    );
    let lpt = run_group(
        2,
        KfacConfig {
            placement: PlacementPolicy::SizeBalanced,
            ..base
        },
        3,
    );
    for (a, b) in rr.iter().zip(&lpt) {
        assert!(max_diff(a, b) < 2e-4);
    }
}

#[test]
fn explicit_inverse_path_is_distributable_too() {
    let cfg = KfacConfig {
        inversion: InversionMethod::ExplicitInverse,
        update_freq: 2,
        ..KfacConfig::default()
    };
    let single = run_rank(&LocalComm::new(), cfg.clone(), 4);
    let results = run_group(2, cfg, 4);
    for r in &results {
        assert!(max_diff(r, &single) < 2e-4);
    }
}

#[test]
fn stale_second_order_iterations_need_no_kfac_communication() {
    // With update_freq = 4 and 4 steps, only step 0 communicates factors
    // and eigendecompositions; steps 1–3 — factor iterations all (the
    // interval rounds down to 1), folding into rank-local averages — must
    // add zero Factor/Eigen bytes (the §IV-C communication-skipping
    // property, here without computing factors any less often).
    let comms = ThreadComm::create(2);
    let traffic: Vec<_> = thread::scope(|s| {
        let handles: Vec<_> = comms
            .iter()
            .map(|comm| {
                s.spawn(move || {
                    let cfg = KfacConfig {
                        update_freq: 4,
                        ..KfacConfig::default()
                    };
                    let mut model = build_model(42);
                    let mut kfac = Kfac::new(&mut model, cfg);
                    let mut checkpoints = Vec::new();
                    for step in 0..4 {
                        assert!(kfac.is_factor_iteration());
                        run_fwd_bwd(&mut model, kfac.needs_capture(), step as u64);
                        kfac.step(&mut model, comm, 0.1);
                        let t = comm.traffic();
                        checkpoints.push((t.factor_bytes, t.eigen_bytes));
                    }
                    checkpoints
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for ranks in &traffic {
        let after_first = ranks[0];
        assert!(
            after_first.0 > 0 && after_first.1 > 0,
            "step 0 communicates"
        );
        for later in &ranks[1..] {
            assert_eq!(*later, after_first, "stale steps must not communicate");
        }
    }
}

#[test]
fn kfac_descends_faster_than_sgd_on_shared_iterations() {
    // Sanity: preconditioned steps should cut the training loss at least
    // as fast as plain SGD on the same tiny problem.
    use kfac_optim::{Optimizer, Sgd};

    let loss_of = |use_kfac: bool| -> f32 {
        let comm = LocalComm::new();
        let mut model = build_model(7);
        let mut opt = Sgd::new(0.9, 0.0);
        let mut kfac = Kfac::new(
            &mut model,
            KfacConfig {
                update_freq: 5,
                ..KfacConfig::default()
            },
        );
        let criterion = CrossEntropyLoss::new();
        let mut rng = Rng64::new(5);
        let x = Tensor4::from_vec(16, 6, 1, 1, (0..96).map(|_| rng.normal_f32()).collect());
        let targets: Vec<usize> = (0..16).map(|i| i % 4).collect();
        let mut last = f32::INFINITY;
        for _ in 0..30 {
            model.zero_grad();
            model.set_capture(use_kfac && kfac.needs_capture());
            let out = model.forward(&x, Mode::Train);
            let (l, grad) = criterion.forward(&out, &targets);
            last = l;
            let _ = model.backward(&grad);
            if use_kfac {
                kfac.step(&mut model, &comm, 0.05);
            }
            opt.step(&mut model, 0.05);
        }
        last
    };

    let kfac_loss = loss_of(true);
    let sgd_loss = loss_of(false);
    assert!(
        kfac_loss < sgd_loss * 1.05,
        "kfac {kfac_loss} should not lose badly to sgd {sgd_loss}"
    );
    assert!(
        kfac_loss < 1.0,
        "kfac must actually be learning: {kfac_loss}"
    );
}

#[test]
fn epoch_schedules_flow_through() {
    let mut model = build_model(1);
    let mut kfac = Kfac::new(
        &mut model,
        KfacConfig {
            damping: 0.01,
            damping_decay_epochs: vec![5],
            damping_decay_factor: 0.1,
            update_freq: 10,
            update_freq_schedule: vec![(5, 50)],
            ..KfacConfig::default()
        },
    );
    assert_eq!(kfac.damping(), 0.01);
    assert_eq!(kfac.update_freq(), 10);
    kfac.set_epoch(5);
    assert!((kfac.damping() - 0.001).abs() < 1e-9);
    assert_eq!(kfac.update_freq(), 50);
}

#[test]
fn needs_capture_follows_factor_interval() {
    let comm = LocalComm::new();
    let mut model = build_model(1);
    let mut kfac = Kfac::new(
        &mut model,
        KfacConfig {
            update_freq: 4,
            factor_freq_multiplier: 2, // factor interval = 2
            ..KfacConfig::default()
        },
    );
    let mut pattern = Vec::new();
    for s in 0..6 {
        pattern.push(kfac.needs_capture());
        run_fwd_bwd(&mut model, kfac.needs_capture(), s as u64);
        kfac.step(&mut model, &comm, 0.1);
    }
    assert_eq!(pattern, vec![true, false, true, false, true, false]);
}

#[test]
fn eigen_solver_backends_agree() {
    // The two selectable backends must produce the same preconditioned
    // gradients through a whole step. This model's factors all sit below
    // `RandEigPolicy::min_dim`, where the randomized backend *is* the
    // exact one, so the agreement is exact. (QL against the Jacobi
    // oracle: `eig_backends.rs`.)
    use kfac::EigenSolver;
    let run = |solver: EigenSolver| {
        let cfg = KfacConfig {
            update_freq: 2,
            eigen_solver: solver,
            ..KfacConfig::default()
        };
        run_rank(&LocalComm::new(), cfg, 4)
    };
    let ql = run(EigenSolver::TridiagonalQl);
    assert!(ql.iter().any(|&g| g != 0.0));
    assert_eq!(run(EigenSolver::Randomized), ql, "solver backends diverged");
}

#[test]
fn triangular_factor_comm_matches_full_and_halves_traffic() {
    // The compressed exchange must be numerically identical to the full
    // one (factors are exactly symmetric) while moving ~half the bytes.
    let run = |triangular: bool| {
        let cfg = KfacConfig {
            update_freq: 2,
            triangular_factor_comm: triangular,
            ..KfacConfig::default()
        };
        let comms = ThreadComm::create(2);
        let cfg = &cfg;
        thread::scope(|s| {
            let handles: Vec<_> = comms
                .iter()
                .map(|comm| {
                    s.spawn(move || {
                        let grads = run_rank(comm, cfg.clone(), 4);
                        (grads, comm.traffic().factor_bytes)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        })
    };
    let full = run(false);
    let tri = run(true);
    for ((g_full, b_full), (g_tri, b_tri)) in full.iter().zip(&tri) {
        assert!(
            max_diff(g_full, g_tri) < 1e-6,
            "compression must be lossless: {}",
            max_diff(g_full, g_tri)
        );
        let ratio = *b_tri as f64 / *b_full as f64;
        assert!(
            (0.45..0.65).contains(&ratio),
            "triangular traffic should be ~half: {ratio} ({b_tri} vs {b_full})"
        );
    }
}

/// Same as [`run_rank`] but driving the public phase methods directly —
/// the exact composition the overlapped execution graph uses. Must be
/// bitwise identical to `Kfac::step`.
fn run_rank_phases(comm: &dyn Communicator, cfg: KfacConfig, steps: usize) -> Vec<f32> {
    use kfac_collectives::{wire, ReduceOp, TrafficClass};
    use kfac_tensor::{Dtype, Matrix};
    let mut model = build_model(42);
    let mut kfac = Kfac::new(&mut model, cfg);
    for s in 0..steps {
        run_fwd_bwd(&mut model, kfac.needs_capture(), 100 + s as u64);
        let mut layers = Vec::new();
        model.collect_kfac(&mut layers);
        if kfac.is_factor_iteration() {
            for (li, layer) in layers.iter().enumerate() {
                kfac.factor_update_layer(li, &**layer);
            }
            if comm.size() > 1 {
                // Empty unless an exchange is due; the wire does not send
                // an empty payload.
                let mut fused = kfac.factor_pack();
                wire::try_allreduce_half(
                    comm,
                    &mut fused,
                    ReduceOp::Average,
                    TrafficClass::Factor,
                    Dtype::F32,
                )
                .expect("factor allreduce");
                kfac.factor_unpack(&fused);
            }
            kfac.note_factor_update();
        }
        if kfac.is_eig_iteration() {
            let assignment = kfac.eig_assignment(comm.size());
            for (id, &owner) in assignment.iter().enumerate() {
                if owner == comm.rank() {
                    kfac.eig_compute_one(id);
                }
            }
            if comm.size() > 1 {
                let payload = kfac.eig_local_payload(&assignment, comm.rank());
                let gathered = comm.allgather_tagged(&payload, TrafficClass::Eigen);
                kfac.eig_apply_gathered(&assignment, comm.rank(), &gathered);
            }
            kfac.note_eig_update();
        }
        let grads: Vec<Matrix> = layers.iter().map(|l| l.grad_matrix()).collect();
        let preconds: Vec<Matrix> = grads
            .iter()
            .enumerate()
            .map(|(li, g)| kfac.precondition_one(li, g))
            .collect();
        kfac.apply_with_clip(&mut layers, &preconds, &grads, 0.1);
        kfac.advance();
    }
    let mut flat = Vec::new();
    model.visit_params("", &mut |_, _, g| flat.extend_from_slice(g));
    flat
}

#[test]
fn phase_composition_is_bitwise_identical_to_step() {
    // update_freq 3: two of three factor iterations exchange nothing.
    let cfg = KfacConfig {
        update_freq: 3,
        ..KfacConfig::default()
    };
    // Single rank.
    let whole = run_rank(&LocalComm::new(), cfg.clone(), 5);
    let phased = run_rank_phases(&LocalComm::new(), cfg.clone(), 5);
    assert_eq!(whole, phased, "single-rank phases diverge from step()");

    // Multi-rank: rank r runs step(), compared against rank r of a
    // separate group running the phase composition.
    for world in [2, 4] {
        let whole = run_group(world, cfg.clone(), 7);
        let comms = ThreadComm::create(world);
        let cfg_ref = &cfg;
        let phased: Vec<Vec<f32>> = thread::scope(|s| {
            let handles: Vec<_> = comms
                .iter()
                .map(|comm| s.spawn(move || run_rank_phases(comm, cfg_ref.clone(), 7)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (rank, (w, p)) in whole.iter().zip(&phased).enumerate() {
            assert_eq!(w, p, "world={world} rank={rank} phases diverge from step()");
        }
    }
}

/// `factor_freq_multiplier` need not divide `update_freq`: with interval
/// 5 / 2 = 2 the factors fold at 0, 2, 4, 6, … and the eigen updates fall
/// on 0, 5, 10 — iteration 5 decomposes without folding. The folds of
/// iterations 2 and 4 are still pending there and must be exchanged
/// first, or each owner would decompose its own rank's averages.
#[test]
fn an_eigen_iteration_that_folds_nothing_still_exchanges_pending_folds() {
    let comms = ThreadComm::create(2);
    let per_rank: Vec<_> = thread::scope(|s| {
        let handles: Vec<_> = comms
            .iter()
            .map(|comm| {
                s.spawn(move || {
                    let cfg = KfacConfig {
                        update_freq: 5,
                        factor_freq_multiplier: 2,
                        ..KfacConfig::default()
                    };
                    let mut model = build_model(42);
                    let mut kfac = Kfac::new(&mut model, cfg);
                    let mut trace = Vec::new();
                    for step in 0..11u64 {
                        let (folds, decomposes) =
                            (kfac.is_factor_iteration(), kfac.is_eig_iteration());
                        assert_eq!(kfac.factor_exchange_due(), decomposes, "step {step}");
                        // Different data per rank: local averages differ.
                        let seed = 10 * step + comm.rank() as u64;
                        run_fwd_bwd(&mut model, kfac.needs_capture(), seed);
                        kfac.step(&mut model, comm, 0.1);
                        trace.push((
                            folds,
                            decomposes,
                            comm.traffic().factor_bytes,
                            kfac.factors_in_sync(),
                            kfac.save_state(),
                        ));
                    }
                    trace
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let payload = per_rank[0][0].2;
    assert!(payload > 0);
    let mut exchanges = 0;
    for (step, (a, b)) in per_rank[0].iter().zip(&per_rank[1]).enumerate() {
        let (folds, decomposes, bytes, in_sync, state) = a;
        assert_eq!((*folds, *decomposes), (step % 2 == 0, step % 5 == 0));
        exchanges += u64::from(*decomposes);
        assert_eq!(*bytes, exchanges * payload, "step {step}");
        // In sync from an exchange until the next fold; the whole state
        // (averages and eigenbases) is then identical on both ranks.
        assert_eq!(*in_sync, matches!(step, 0 | 1 | 5 | 10), "step {step}");
        assert_eq!(*in_sync, *state == b.4, "step {step}");
    }
    assert_eq!(exchanges, 3);
}
