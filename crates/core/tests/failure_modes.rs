//! Failure-injection tests: the preconditioner must fail loudly and
//! specifically on protocol misuse, never silently corrupt training.

use kfac::{Kfac, KfacConfig};
use kfac_collectives::{
    wire, Communicator, Fault, FaultKind, FaultPlan, FaultyCommunicator, LocalComm, RetryPolicy,
    ThreadComm, TrafficClass,
};
use kfac_nn::{layer::Mode, CrossEntropyLoss, Layer, Linear, Sequential};
use kfac_tensor::{Dtype, EigenDecomposition, Matrix, Rng64, Tensor4};
use std::sync::Arc;

fn model() -> Sequential {
    let mut rng = Rng64::new(1);
    Sequential::from_layers(vec![Box::new(Linear::new("fc", 4, 3, true, &mut rng))])
}

fn fwd_bwd(m: &mut Sequential, capture: bool) {
    let mut rng = Rng64::new(2);
    let x = Tensor4::from_vec(4, 4, 1, 1, (0..16).map(|_| rng.normal_f32()).collect());
    m.zero_grad();
    m.set_capture(capture);
    let out = m.forward(&x, Mode::Train);
    let (_, g) = CrossEntropyLoss::new().forward(&out, &[0, 1, 2, 0]);
    let _ = m.backward(&g);
}

#[test]
#[should_panic(expected = "has no capture")]
fn factor_update_without_capture_panics_with_guidance() {
    let mut m = model();
    let mut kfac = Kfac::new(&mut m, KfacConfig::default());
    // Deliberately ignore needs_capture(): the harness bug the message
    // must diagnose.
    fwd_bwd(&mut m, false);
    kfac.step(&mut m, &LocalComm::new(), 0.1);
}

#[test]
#[should_panic(expected = "no K-FAC-eligible")]
fn model_without_eligible_layers_is_rejected() {
    let mut m = Sequential::from_layers(vec![Box::new(kfac_nn::ReLU::new())]);
    let _ = Kfac::new(&mut m, KfacConfig::default());
}

#[test]
#[should_panic(expected = "model structure changed")]
fn structure_change_between_steps_is_rejected() {
    let mut m = model();
    let mut kfac = Kfac::new(&mut m, KfacConfig::default());
    fwd_bwd(&mut m, true);
    kfac.step(&mut m, &LocalComm::new(), 0.1);
    // Swap in a different model.
    let mut rng = Rng64::new(3);
    let mut other = Sequential::from_layers(vec![
        Box::new(Linear::new("a", 4, 3, true, &mut rng)),
        Box::new(Linear::new("b", 3, 3, true, &mut rng)),
    ]);
    fwd_bwd(&mut other, true);
    kfac.step(&mut other, &LocalComm::new(), 0.1);
}

#[test]
#[should_panic(expected = "damping must be positive")]
fn invalid_config_rejected_at_construction() {
    let mut m = model();
    let _ = Kfac::new(
        &mut m,
        KfacConfig {
            damping: -1.0,
            ..KfacConfig::default()
        },
    );
}

#[test]
fn stale_steps_never_panic_without_capture() {
    // Only factor-update iterations require capture; the steps between
    // them must work with capture off.
    let mut m = model();
    let mut kfac = Kfac::new(
        &mut m,
        KfacConfig {
            update_freq: 4,
            factor_freq_multiplier: 1,
            ..KfacConfig::default()
        },
    );
    let comm = LocalComm::new();
    for _ in 0..8 {
        fwd_bwd(&mut m, kfac.needs_capture());
        kfac.step(&mut m, &comm, 0.1);
    }
}

#[test]
fn corrupted_factor_payload_leaves_averages_stale() {
    let mut m = model();
    // update_freq 1: every iteration exchanges, so `factor_pack` reads
    // the averages back whenever it is asked.
    let cfg = KfacConfig {
        update_freq: 1,
        ..KfacConfig::default()
    };
    let mut kfac = Kfac::new(&mut m, cfg);
    let comm = LocalComm::new();
    fwd_bwd(&mut m, true);
    kfac.step(&mut m, &comm, 0.1);
    let clean = kfac.factor_pack();
    // A corrupted payload is rejected; the previous averages survive.
    let mut poisoned = clean.clone();
    poisoned[0] = f32::NAN;
    assert!(!kfac.factor_unpack_checked(&poisoned));
    assert_eq!(
        kfac.factor_pack(),
        clean,
        "averages mutated by rejected payload"
    );
    assert_eq!(kfac.stats().stale_factor_steps, 1);
    // The same payload, clean, installs fine.
    assert!(kfac.factor_unpack_checked(&clean));
    assert_eq!(kfac.stats().stale_factor_steps, 1);
}

#[test]
fn missing_second_order_degrades_to_damped_identity() {
    let mut m = model();
    let damping = 0.03f32;
    let kfac = Kfac::new(
        &mut m,
        KfacConfig {
            damping,
            ..KfacConfig::default()
        },
    );
    // No eig update has run: second-order state is absent. The layer
    // must still precondition — with the damped identity.
    let grad = Matrix::from_vec(3, 4, (0..12).map(|i| i as f32 - 5.5).collect());
    let pg = kfac.precondition_one(0, &grad);
    for (g, p) in grad.as_slice().iter().zip(pg.as_slice()) {
        assert_eq!(p.to_bits(), (g / (1.0 + damping)).to_bits());
    }
    assert_eq!(kfac.stats().identity_preconds, 1);
}

/// What one rank of [`run_pair`] saw after each iteration.
struct RankTrace {
    degraded: Vec<u32>,
    states: Vec<Vec<u8>>,
    factors: Vec<Vec<f32>>,
    in_sync: Vec<bool>,
    stale_factor_steps: u64,
    /// Byte length of the second-order section that ends `save_state()`.
    eigen_tail: usize,
}

/// Five `try_step`s without retries on a 2-rank thread group, optionally
/// under a fault plan. Parameters never move (no optimizer), so the
/// factor averages evolve identically with and without faults.
fn run_pair(plan: Option<Arc<FaultPlan>>) -> Vec<RankTrace> {
    let comms = ThreadComm::create(2);
    let plan = &plan;
    std::thread::scope(|s| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|comm| {
                s.spawn(move || {
                    let rank = comm.rank();
                    let comm: Box<dyn Communicator> = match plan {
                        Some(p) => Box::new(FaultyCommunicator::new(comm, Arc::clone(p))),
                        None => Box::new(comm),
                    };
                    let mut m = two_layer_model();
                    let cfg = KfacConfig {
                        update_freq: 2,
                        ..KfacConfig::default()
                    };
                    let mut kfac = Kfac::new(&mut m, cfg);
                    let mut data = Rng64::new(10 + rank as u64);
                    let mut trace = RankTrace {
                        degraded: Vec::new(),
                        states: Vec::new(),
                        factors: Vec::new(),
                        in_sync: Vec::new(),
                        stale_factor_steps: 0,
                        eigen_tail: kfac
                            .factors()
                            .iter()
                            // tag, rank, then a complete basis (exact solver)
                            .map(|f| 1 + 8 + 4 * (f.dim + f.dim * f.dim))
                            .sum(),
                    };
                    for _ in 0..5 {
                        let x = Tensor4::from_vec(
                            4,
                            4,
                            1,
                            1,
                            (0..16).map(|_| data.normal_f32()).collect(),
                        );
                        m.zero_grad();
                        m.set_capture(kfac.needs_capture());
                        let out = m.forward(&x, Mode::Train);
                        let (_, g) = CrossEntropyLoss::new().forward(&out, &[0, 1, 2, 0]);
                        let _ = m.backward(&g);
                        let degraded = kfac
                            .try_step(&mut m, &*comm, 0.1, &RetryPolicy::none())
                            .expect("no rank is lost");
                        trace.degraded.push(degraded);
                        trace.states.push(kfac.save_state());
                        // This rank's averages where the next iteration
                        // exchanges them (after iterations 1 and 3),
                        // nothing elsewhere.
                        trace.factors.push(kfac.factor_pack());
                        trace.in_sync.push(kfac.factors_in_sync());
                    }
                    trace.stale_factor_steps = kfac.stats().stale_factor_steps;
                    trace
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// A plan that faults one exchange of iteration 2 of [`run_pair`] — its
/// Factor allreduce or its Eigen allgather, by `class` — with `kind`, and
/// nothing else. update_freq 2 ⇒ factors fold every iteration and travel
/// with the eig update on even ones, so with no retries iterations 0, 2
/// and 4 issue attempts 0, 1 and 2 of each class. A bit flip lands in
/// rank 1's partition.
fn fault_exchange_of_iteration_2(class: TrafficClass, kind: FaultKind) -> Arc<FaultPlan> {
    Arc::new(FaultPlan::new(vec![Fault {
        class,
        attempt: 1,
        kind,
        culprit: 1,
    }]))
}

/// The second-order section that ends `save_state()` after iteration `it`.
fn eigen(t: &RankTrace, it: usize) -> &[u8] {
    &t.states[it][t.states[it].len() - t.eigen_tail..]
}

/// `try_step`'s documented semantics for a Factor allreduce that fails
/// for good: one stale step, the update goes ahead on each rank's own
/// averages and still lands identically everywhere (owners decompose,
/// the allgather shares), the averages stay rank-local — out of sync —
/// until the next exchange, one eigen interval on, re-averages them.
#[test]
fn dropped_factor_exchange_decomposes_local_averages_identically_on_every_rank() {
    let plan =
        fault_exchange_of_iteration_2(TrafficClass::Factor, FaultKind::Outage { attempts: 1 });
    let clean = run_pair(None);
    let faulty = run_pair(Some(plan));
    for t in &clean {
        assert_eq!(t.degraded, [0; 5]);
        assert_eq!(t.in_sync, [true, false, true, false, true]);
    }
    for t in &faulty {
        assert_eq!(t.degraded, [0, 0, 1, 0, 0]);
        assert_eq!(t.stale_factor_steps, 1);
        // Nothing was exchanged at iteration 2, so nothing is in sync
        // again before iteration 4.
        assert_eq!(t.in_sync, [true, false, false, false, true]);
    }
    // The update of iteration 2 ran, on other inputs than the clean one,
    // and both ranks hold its result.
    assert_ne!(eigen(&faulty[0], 2), eigen(&faulty[0], 1), "no update");
    assert_ne!(eigen(&faulty[0], 2), eigen(&clean[0], 2), "no fault landed");
    assert_eq!(eigen(&faulty[0], 2), eigen(&faulty[1], 2), "ranks diverged");
    // Averages are rank-local in between and the group's again at 4.
    assert_ne!(faulty[0].states[2], faulty[1].states[2]);
    assert_eq!(faulty[0].states[4], faulty[1].states[4]);
}

/// A lost rank is not absorbed by staleness: `try_step` returns it, and
/// the iteration has not advanced.
#[test]
fn rank_loss_in_the_factor_exchange_is_returned_not_absorbed() {
    let plan = Arc::new(FaultPlan::new(vec![Fault {
        class: TrafficClass::Factor,
        attempt: 0,
        kind: FaultKind::RankLoss,
        culprit: 1,
    }]));
    let errors: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = ThreadComm::create(2)
            .into_iter()
            .map(|comm| {
                let plan = Arc::clone(&plan);
                s.spawn(move || {
                    let comm = FaultyCommunicator::new(comm, plan);
                    let mut m = two_layer_model();
                    let mut kfac = Kfac::new(&mut m, KfacConfig::default());
                    fwd_bwd(&mut m, true);
                    let e = kfac
                        .try_step(&mut m, &comm, 0.1, &RetryPolicy::none())
                        .unwrap_err();
                    assert_eq!(kfac.iteration(), 0);
                    assert_eq!(kfac.stats().stale_factor_steps, 0);
                    e
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for e in errors {
        assert_eq!(e, kfac_collectives::CollectiveError::RankFailed(1));
    }
}

#[test]
fn failed_eigen_allgather_keeps_the_group_identically_stale() {
    let plan =
        fault_exchange_of_iteration_2(TrafficClass::Eigen, FaultKind::Outage { attempts: 1 });
    let clean = run_pair(None);
    let faulty = run_pair(Some(plan));

    // The fault-free update at iteration 2 does change the eigenbases,
    // so "unchanged" below is the rollback's doing.
    assert_ne!(eigen(&clean[0], 2), eigen(&clean[0], 1));
    for t in &faulty {
        assert_eq!(t.degraded, [0, 0, 1, 0, 0]);
        assert_eq!(t.stale_factor_steps, 1);
        assert_eq!(
            eigen(t, 2),
            eigen(t, 1),
            "own fresh entries not rolled back"
        );
    }
    assert_eq!(faulty[0].states[2], faulty[1].states[2], "ranks diverged");
    // The factor exchange was untouched, and the next clean update
    // lands on the fault-free second-order state.
    for (c, f) in clean.iter().zip(&faulty) {
        assert_eq!(c.degraded, [0; 5]);
        assert_eq!(c.factors, f.factors);
        assert_ne!(eigen(c, 3), eigen(f, 3), "stale interval");
        assert_eq!(eigen(c, 4), eigen(f, 4), "did not converge back");
    }
}

#[test]
fn silently_corrupted_eigen_payload_lands_identically_on_every_rank() {
    // One exponent bit of one gathered word flips, the same on every
    // rank's copy — the owner of that word included, which must install
    // what the group received rather than keep its clean local result.
    // Word 3 of rank 1's partition is the second eigenvalue of its first
    // factor.
    let plan =
        fault_exchange_of_iteration_2(TrafficClass::Eigen, FaultKind::BitFlip { word: 3, bit: 30 });
    let clean = run_pair(None);
    let faulty = run_pair(Some(plan));
    assert_ne!(eigen(&faulty[0], 2), eigen(&clean[0], 2), "no flip landed");
    assert_eq!(faulty[0].states[2], faulty[1].states[2], "ranks diverged");
    assert_eq!(faulty[0].degraded, [0; 5], "silent: nothing to count");

    // An eigenbasis frame says how long it is, so a flipped rank word or
    // a cut payload loses the framing of everything after it. Two
    // replicas decode the same damaged words: neither panics, both fall
    // back on exactly the factors whose frames are no longer known, and
    // they end bit-identical. Round-robin gives rank 0 the A factors
    // (ids 0, 2; dims 5, 6) and rank 1 the G factors (ids 1, 3; dims 5, 3).
    let mut replicas = [two_layer_replica(), two_layer_replica()];
    let assignment = replicas[0].1.eig_assignment(2);
    assert_eq!(assignment, [0, 1, 0, 1]);
    let clean: Vec<Vec<f32>> = (0..2)
        .map(|rank| replicas[0].1.eig_local_payload(&assignment, rank))
        .collect();
    let damaged = |edit: &dyn Fn(&mut Vec<Vec<f32>>)| {
        let mut gathered = clean.clone();
        edit(&mut gathered);
        gathered
    };
    let cases: [(&str, Vec<Vec<f32>>, u64); 5] = [
        ("clean", clean.clone(), 0),
        // Rank 1's first frame: the low rank digit 5.0 loses an exponent
        // bit and is no integer; both of its factors are unframed.
        (
            "flipped rank word",
            damaged(&|g| g[1][1] = f32::from_bits(g[1][1].to_bits() ^ (1 << 30))),
            2,
        ),
        // A rank above the dimension is refused as well.
        ("rank above n", damaged(&|g| g[1][1] = 6.0), 2),
        // Rank 0's second frame runs past the end; its first is whole.
        (
            "truncated payload",
            damaged(&|g| {
                g[0].pop();
            }),
            1,
        ),
        // Words after an owner's last frame: that frame is suspect.
        ("trailing word", damaged(&|g| g[1].push(1.0)), 1),
    ];
    for (what, gathered, fallbacks) in cases {
        let states: Vec<Vec<u8>> = replicas
            .iter_mut()
            .enumerate()
            .map(|(rank, (_, kfac))| {
                let before = kfac.stats().eig_fallbacks;
                kfac.eig_apply_gathered(&assignment, rank, &gathered);
                assert_eq!(kfac.stats().eig_fallbacks - before, fallbacks, "{what}");
                kfac.save_state()
            })
            .collect();
        assert_eq!(states[0], states[1], "{what}: replicas diverged");
    }
}

/// The model [`run_pair`] trains: factor dimensions 5, 5, 6, 3.
fn two_layer_model() -> Sequential {
    let mut rng = Rng64::new(1);
    Sequential::from_layers(vec![
        Box::new(Linear::new("fc1", 4, 5, true, &mut rng)),
        Box::new(Linear::new("fc2", 5, 3, true, &mut rng)),
    ])
}

/// That model after one local step: every factor holds a second-order
/// state.
fn two_layer_replica() -> (Sequential, Kfac) {
    let mut m = two_layer_model();
    let mut kfac = Kfac::new(&mut m, KfacConfig::default());
    fwd_bwd(&mut m, true);
    kfac.step(&mut m, &LocalComm::new(), 0.1);
    (m, kfac)
}

#[test]
fn eigenbasis_frame_round_trips_the_f32_wire_at_n_577() {
    // 577 = 2·256 + 65 needs both base-256 digits of the rank word, and
    // the frame spells every rank from none to full.
    let n = 577;
    for r in [0, 72, 577] {
        let mut rng = Rng64::new(r as u64);
        let sent = EigenDecomposition {
            eigenvalues: (0..r).map(|_| rng.normal_f32()).collect(),
            eigenvectors: Matrix::from_vec(n, r, (0..n * r).map(|_| rng.normal_f32()).collect()),
        };
        let gathered = wire::try_allgather_half(
            &LocalComm::new(),
            &sent.to_bytes_f32(),
            TrafficClass::Eigen,
            Dtype::F32,
        )
        .expect("allgather");
        let (got, rest) = EigenDecomposition::from_bytes_f32(n, &gathered[0]).expect("a frame");
        assert!(rest.is_empty());
        assert_eq!(got.eigenvectors.shape(), (n, r));
        assert_eq!(got.truncated_rank(), (r < n).then_some(r));
        assert_eq!(got.eigenvalues, sent.eigenvalues);
        assert_eq!(got.eigenvectors.as_slice(), sent.eigenvectors.as_slice());
    }
}

#[test]
fn state_roundtrip_is_identical() {
    let mut m = model();
    let mut kfac = Kfac::new(&mut m, KfacConfig::default());
    let comm = LocalComm::new();
    for _ in 0..3 {
        fwd_bwd(&mut m, kfac.needs_capture());
        kfac.step(&mut m, &comm, 0.1);
    }
    let saved = kfac.save_state();
    let mut m2 = model();
    let mut restored = Kfac::new(&mut m2, KfacConfig::default());
    restored.restore_state(&saved).unwrap();
    assert_eq!(restored.save_state(), saved, "save→restore→save drifted");
    assert_eq!(restored.iteration(), kfac.iteration());
    // Garbage is rejected, not installed.
    assert!(restored.restore_state(b"JUNKJUNKJUNK").is_err());
    assert!(restored.restore_state(&saved[..saved.len() - 2]).is_err());
    // So is a blob whose update interval is 0 (magic, version, iteration,
    // epoch, damping come first): installed, it would skip every later
    // eig update.
    let freq_at = 4 + 8 * 3 + 4;
    assert_eq!(saved[freq_at..freq_at + 8], 10u64.to_le_bytes());
    let mut zero_freq = saved.clone();
    zero_freq[freq_at..freq_at + 8].fill(0);
    let err = restored.restore_state(&zero_freq).unwrap_err();
    assert!(err.contains("update_freq 0"), "{err}");
}

#[test]
fn gradients_stay_finite_under_extreme_damping_and_lr() {
    // Numerical robustness: pathological hyper-parameters may train
    // badly but must never produce NaN/Inf gradients.
    for (damping, lr) in [(1e-8f32, 10.0f32), (100.0, 1e-8), (1e-8, 1e-8)] {
        let mut m = model();
        let mut kfac = Kfac::new(
            &mut m,
            KfacConfig {
                damping,
                update_freq: 1,
                ..KfacConfig::default()
            },
        );
        let comm = LocalComm::new();
        for _ in 0..3 {
            fwd_bwd(&mut m, kfac.needs_capture());
            kfac.step(&mut m, &comm, lr);
            m.visit_params("", &mut |name, _, g| {
                assert!(
                    g.iter().all(|v| v.is_finite()),
                    "non-finite gradient in {name} at damping={damping} lr={lr}"
                );
            });
        }
    }
}

#[test]
fn non_finite_factor_average_degrades_to_identity_without_stalling() {
    // A NaN/Inf that reaches a running average must cost one O(n²) scan
    // per factor, not an eigensolver's whole iteration budget (at
    // n = 288 QL's Jacobi backstop would spin for seconds and then die
    // on a NaN sort key), and must leave the layer on damped SGD.
    let (dim_in, dim_out) = (287, 3); // A is 288×288 with the bias column
    let damping = 0.03f32;
    for solver in [
        kfac::EigenSolver::TridiagonalQl,
        kfac::EigenSolver::Randomized,
    ] {
        for bad in [f32::NAN, f32::INFINITY] {
            let mut rng = Rng64::new(4);
            let mut m = Sequential::from_layers(vec![Box::new(Linear::new(
                "fc", dim_in, dim_out, true, &mut rng,
            ))]);
            // update_freq 1: `factor_pack` below is asked on an exchange
            // iteration and returns the averages.
            let cfg = KfacConfig {
                damping,
                update_freq: 1,
                eigen_solver: solver,
                ..KfacConfig::default()
            };
            let mut kfac = Kfac::new(&mut m, cfg);
            let x = Tensor4::from_vec(
                4,
                dim_in,
                1,
                1,
                (0..4 * dim_in).map(|_| rng.normal_f32()).collect(),
            );
            m.zero_grad();
            m.set_capture(true);
            let out = m.forward(&x, Mode::Train);
            let (_, g) = CrossEntropyLoss::new().forward(&out, &[0, 1, 2, 0]);
            let _ = m.backward(&g);
            kfac.step(&mut m, &LocalComm::new(), 0.1);
            assert_eq!(kfac.stats().eig_fallbacks, 0);

            // Poison both factor averages past the validated unpack.
            let mut fused = kfac.factor_pack();
            fused[1] = bad;
            *fused.last_mut().unwrap() = bad;
            kfac.factor_unpack(&fused);

            let start = std::time::Instant::now();
            for id in 0..kfac.factors().len() {
                kfac.eig_compute_one(id);
            }
            let elapsed = start.elapsed();
            assert!(
                elapsed < std::time::Duration::from_millis(50),
                "{solver:?}/{bad}: fallback took {elapsed:?}"
            );
            assert_eq!(kfac.stats().eig_fallbacks, 2, "{solver:?}/{bad}");

            let grad = Matrix::from_vec(
                dim_out,
                dim_in + 1,
                (0..dim_out * (dim_in + 1))
                    .map(|i| (i as f32).sin())
                    .collect(),
            );
            let pg = kfac.precondition_one(0, &grad);
            for (g, p) in grad.as_slice().iter().zip(pg.as_slice()) {
                assert_eq!(p.to_bits(), (g / (1.0 + damping)).to_bits());
            }
        }
    }
}
