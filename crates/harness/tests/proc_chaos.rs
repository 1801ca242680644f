//! Fault-ladder regression over the TCP fabric: placed outage, rank-loss
//! and healing `FaultPlan`s, run through `FaultyCommunicator<ProcComm>`,
//! must land on exactly the same degradation-ladder rungs as the same
//! plans over `ThreadComm` — same per-iteration outcomes, same
//! degradation counters, and (because both fabrics reduce in the same
//! pinned order) bitwise-identical parameters.
//!
//! Fault decisions are pure functions of `(class, attempt)` evaluated in
//! the wrapper *before* the inner communicator is touched, so a clean
//! fabric swap underneath is exactly what the design promises — this
//! test pins that promise.

use kfac::{Kfac, KfacConfig};
use kfac_collectives::proc::ProcComm;
use kfac_collectives::{
    Communicator, Fault, FaultKind, FaultPlan, FaultyCommunicator, RetryPolicy, ThreadComm,
    TrafficClass,
};
use kfac_harness::{FaultTolerance, ResilientTrainer, StepOutcome};
use kfac_nn::{CrossEntropyLoss, Layer, Linear, Sequential};
use kfac_optim::Sgd;
use kfac_tensor::{Rng64, Tensor4};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const WORLD: usize = 4;
const ITERS: usize = 8;

fn model(seed: u64) -> Sequential {
    let mut rng = Rng64::new(seed);
    Sequential::from_layers(vec![
        Box::new(Linear::new("fc1", 6, 5, true, &mut rng)),
        Box::new(Linear::new("fc2", 5, 4, true, &mut rng)),
    ])
}

fn batch(round: usize) -> (Tensor4, Vec<usize>) {
    let mut rng = Rng64::new(7 + round as u64);
    let x = Tensor4::from_vec(4, 6, 1, 1, (0..24).map(|_| rng.normal_f32()).collect());
    (x, vec![0, 1, 2, 3])
}

/// Everything that characterizes where one rank landed on the ladder.
#[derive(Debug, PartialEq)]
struct LadderTrace {
    /// Per-iteration outcome; `lost:<r>` truncates the run.
    outcomes: Vec<String>,
    skipped: u64,
    comm_faults: u64,
    stale_factor_steps: u64,
    /// Final parameter bits at the end (or abort point) of the run.
    param_bits: Vec<u32>,
}

/// Drive `ITERS` resilient iterations on every rank of `comms` under
/// `plan` and record each rank's ladder trace.
fn run_ladder<C: Communicator + Send>(
    comms: Vec<C>,
    plan: &Arc<FaultPlan>,
    ft: FaultTolerance,
) -> Vec<LadderTrace> {
    let ft = &ft;
    thread::scope(|s| {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|comm| {
                s.spawn(move || {
                    let mut m = model(3);
                    let mut opt = Sgd::new(0.9, 1e-4);
                    let mut k = Some(Kfac::new(
                        &mut m,
                        KfacConfig {
                            update_freq: 2,
                            ..KfacConfig::default()
                        },
                    ));
                    let criterion = CrossEntropyLoss::new();
                    let mut tr = ResilientTrainer::new(*ft);
                    let faulty = FaultyCommunicator::new(comm, Arc::clone(plan));
                    let mut outcomes = Vec::with_capacity(ITERS);
                    for round in 0..ITERS {
                        let (x, labels) = batch(round);
                        let (loss, outcome) = tr.step(
                            None, &mut m, &mut k, &mut opt, &faulty, &x, &labels, &criterion, 0.05,
                            0,
                        );
                        assert!(loss.is_finite());
                        match outcome {
                            StepOutcome::Stepped => outcomes.push("step".to_string()),
                            StepOutcome::SkippedStep => outcomes.push("skip".to_string()),
                            StepOutcome::RankLost(r) => {
                                outcomes.push(format!("lost:{r}"));
                                break;
                            }
                        }
                    }
                    let stats = k.as_ref().map(|kf| kf.stats()).unwrap_or_default();
                    let mut param_bits = Vec::new();
                    m.visit_params("", &mut |_, w, _| {
                        param_bits.extend(w.iter().map(|v| v.to_bits()))
                    });
                    LadderTrace {
                        outcomes,
                        skipped: tr.skipped_steps,
                        comm_faults: tr.comm_faults,
                        stale_factor_steps: stats.stale_factor_steps,
                        param_bits,
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

fn fast_retry(max_attempts: u32) -> RetryPolicy {
    RetryPolicy {
        max_attempts,
        base_backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
    }
}

/// `kind` on attempt `attempt` of `class`, blaming `culprit`.
fn fault(class: TrafficClass, attempt: u64, kind: FaultKind, culprit: usize) -> Fault {
    Fault {
        class,
        attempt,
        kind,
        culprit,
    }
}

/// Run one plan over both fabrics and require identical ladder traces.
fn assert_fabrics_agree(faults: Vec<Fault>, ft: FaultTolerance) -> Vec<LadderTrace> {
    let plan = Arc::new(FaultPlan::new(faults));
    let thread_traces = run_ladder(ThreadComm::create(WORLD), &plan, ft);
    let proc_traces = run_ladder(ProcComm::create_local(WORLD), &plan, ft);
    assert_eq!(
        thread_traces, proc_traces,
        "the same fault plan landed on different ladder rungs across fabrics"
    );
    // Lockstep degradation: replicas agree within each fabric too.
    for t in &thread_traces[1..] {
        assert_eq!(t.param_bits, thread_traces[0].param_bits);
    }
    thread_traces
}

/// Outages that outlast the retry budget on factor/eigen traffic — the
/// Factor allreduce of iteration 2 (attempts 1 and 2), the Eigen allgather
/// of iteration 4 (attempts 2 and 3) — degrade to stale factors on both
/// fabrics, with gradient traffic untouched (no skipped steps, all steps
/// land).
#[test]
fn timeout_plan_degrades_identically_on_both_fabrics() {
    let outage = FaultKind::Outage { attempts: 2 };
    let traces = assert_fabrics_agree(
        vec![
            fault(TrafficClass::Factor, 1, outage, 0),
            fault(TrafficClass::Eigen, 2, outage, 0),
        ],
        FaultTolerance {
            retry: fast_retry(2),
            ..FaultTolerance::default()
        },
    );
    for t in &traces {
        assert!(
            t.comm_faults > 0 || t.stale_factor_steps > 0,
            "plan injected nothing — weak regression"
        );
        assert_eq!(t.skipped, 0, "gradient traffic was untouched");
        assert!(t.outcomes.iter().all(|o| o == "step"));
    }
}

/// The permanent loss of rank 2 in iteration 5's gradient exchange
/// aborts every rank at the same iteration on both fabrics.
#[test]
fn rank_loss_plan_aborts_identically_on_both_fabrics() {
    let traces = assert_fabrics_agree(
        vec![fault(TrafficClass::Gradient, 5, FaultKind::RankLoss, 2)],
        FaultTolerance::default(),
    );
    for t in &traces {
        let last = t.outcomes.last().expect("at least one iteration ran");
        assert_eq!(last, "lost:2", "run must abort on the planned rank loss");
        assert!(
            t.outcomes.len() < ITERS,
            "abort must truncate the iteration budget"
        );
    }
}

/// Retry-healed transients leave zero residue on the proc fabric, same
/// as on threads: the faulty run is bitwise identical to a clean one.
#[test]
fn transient_plan_heals_bitwise_on_proc_fabric() {
    let ft = FaultTolerance {
        retry: fast_retry(10),
        ..FaultTolerance::default()
    };
    let clean = run_ladder(ProcComm::create_local(WORLD), &Arc::default(), ft);
    let faulty_plan = Arc::new(FaultPlan::new(vec![
        fault(
            TrafficClass::Gradient,
            1,
            FaultKind::Outage { attempts: 2 },
            0,
        ),
        fault(
            TrafficClass::Factor,
            1,
            FaultKind::Outage { attempts: 3 },
            0,
        ),
        fault(TrafficClass::Eigen, 2, FaultKind::Corrupt, 3),
        fault(
            TrafficClass::Gradient,
            6,
            FaultKind::Delay { micros: 300 },
            1,
        ),
    ]));
    let faulty = run_ladder(ProcComm::create_local(WORLD), &faulty_plan, ft);
    for (c, f) in clean.iter().zip(&faulty) {
        assert_eq!(
            c.param_bits, f.param_bits,
            "retried transients left a residue over TCP"
        );
        assert_eq!(f.skipped, 0);
    }
}
