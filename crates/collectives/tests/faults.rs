//! Property tests for the fault-injection layer: placed outages below the
//! retry budget must converge to the fault-free allreduce result bitwise,
//! and every rank must see the same error for the same attempt.

use kfac_collectives::{
    CollectiveError, Communicator, Fault, FaultKind, FaultPlan, FaultyCommunicator, ReduceOp,
    RetryPolicy, ThreadComm, TrafficClass,
};
use proptest::prelude::*;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

fn run_group<R: Send>(size: usize, f: impl Fn(usize, ThreadComm) -> R + Sync) -> Vec<R> {
    let comms = ThreadComm::create(size);
    let f = &f;
    thread::scope(|s| {
        let handles: Vec<_> = comms
            .into_iter()
            .enumerate()
            .map(|(rank, comm)| s.spawn(move || f(rank, comm)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

fn gradient_fault(attempt: u64, kind: FaultKind, culprit: usize) -> Fault {
    Fault {
        class: TrafficClass::Gradient,
        attempt,
        kind,
        culprit,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Outages shorter than the retry budget, placed anywhere in the
    /// Gradient stream, converge to the fault-free allreduce result —
    /// bitwise — on 1, 2 and 4 ranks.
    #[test]
    fn outage_retry_converges_to_fault_free(
        seed in any::<u64>(),
        len in 1usize..32,
        rounds in 1usize..6,
        outages in proptest::collection::vec((0u64..24, 1u32..4), 0..6),
    ) {
        let payload = |rank: usize, round: usize| -> Vec<f32> {
            (0..len)
                .map(|i| {
                    let x = (seed as usize)
                        .wrapping_add(rank * 131)
                        .wrapping_add(round * 17)
                        .wrapping_add(i * 7);
                    ((x % 2000) as f32 - 1000.0) * 0.125
                })
                .collect()
        };
        // Six outages of at most three attempts fail at most 18
        // consecutive attempts, even where windows touch or overlap.
        let plan = Arc::new(FaultPlan::new(
            outages
                .iter()
                .map(|&(at, attempts)| gradient_fault(at, FaultKind::Outage { attempts }, 0))
                .collect(),
        ));
        let policy = RetryPolicy {
            max_attempts: 19,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        };
        for world in [1usize, 2, 4] {
            // Fault-free reference.
            let clean = run_group(world, |rank, comm| {
                (0..rounds)
                    .map(|round| {
                        let mut buf = payload(rank, round);
                        comm.allreduce_tagged(&mut buf, ReduceOp::Average, TrafficClass::Gradient);
                        buf
                    })
                    .collect::<Vec<_>>()
            });
            // Faulty run with retry.
            let faulty = run_group(world, |rank, comm| {
                let fc = FaultyCommunicator::new(comm, Arc::clone(&plan));
                (0..rounds)
                    .map(|round| {
                        let mut buf = payload(rank, round);
                        policy
                            .run(|| {
                                fc.try_allreduce_tagged(
                                    &mut buf,
                                    ReduceOp::Average,
                                    TrafficClass::Gradient,
                                )
                            })
                            .expect("outages below the budget must heal under retry");
                        buf
                    })
                    .collect::<Vec<_>>()
            });
            for (c, f) in clean.iter().zip(faulty.iter()) {
                for (cr, fr) in c.iter().zip(f.iter()) {
                    for (a, b) in cr.iter().zip(fr.iter()) {
                        prop_assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "world {}: retried result diverged from fault-free", world
                        );
                    }
                }
            }
        }
    }
}

/// Ranks consulting the same plan see the same error for the same
/// attempt, so group-wide degradation decisions stay in lockstep.
#[test]
fn errors_are_identical_across_ranks() {
    let plan = Arc::new(FaultPlan::new(vec![
        gradient_fault(1, FaultKind::Outage { attempts: 1 }, 0),
        gradient_fault(2, FaultKind::Corrupt, 2),
        gradient_fault(3, FaultKind::RankLoss, 1),
    ]));
    let outcomes = run_group(4, |rank, comm| {
        let fc = FaultyCommunicator::new(comm, Arc::clone(&plan));
        (0..6)
            .map(|_| {
                let mut buf = vec![rank as f32];
                fc.try_allreduce_tagged(&mut buf, ReduceOp::Sum, TrafficClass::Gradient)
                    .err()
            })
            .collect::<Vec<Option<CollectiveError>>>()
    });
    for w in outcomes.windows(2) {
        assert_eq!(w[0], w[1], "ranks diverged on fault outcomes");
    }
    // And the rank loss is terminal.
    let lost = Some(CollectiveError::RankFailed(1));
    assert_eq!(
        outcomes[0],
        [
            None,
            Some(CollectiveError::Timeout { waited_ms: 1 }),
            Some(CollectiveError::Corrupted),
            lost,
            lost,
            lost
        ]
    );
}
