//! The [`Communicator`] contract, stated once and run on both fabrics.
//!
//! [`ThreadComm`] and [`ProcComm`] are one [`ShrunkComm`] over two
//! transports, so every check here is a generic function over the
//! transport and `contract!` instantiates it twice: `thread::<check>`
//! over the in-process mailbox mesh, `proc::<check>` over loopback TCP
//! (real sockets, reader threads and wire framing, driven from threads of
//! one process). What only one fabric can do — a peer's socket closing, a
//! real worker process — stays in `tests/proc.rs` and the harness.

use kfac_collectives::{
    wire, AlgoPolicy, CollectiveError, Communicator, Elastic, Membership, ProcComm, ReduceOp,
    ShrunkComm, ThreadComm, Traffic, TrafficClass,
};
use kfac_tensor::Dtype;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Receive deadline for checks where no receive should ever expire.
const PATIENT: Duration = Duration::from_secs(20);
/// Receive deadline for the checks that wait one out on purpose.
const SHORT: Duration = Duration::from_millis(500);

/// Builds a fresh group of `size` ranks whose receives wait `deadline`.
type Make<T> = dyn Fn(usize, Duration) -> Vec<ShrunkComm<T>>;

fn thread_group(size: usize, deadline: Duration) -> Vec<ThreadComm> {
    ThreadComm::create_with(size, AlgoPolicy::default(), deadline)
}

fn proc_group(size: usize, deadline: Duration) -> Vec<ProcComm> {
    ProcComm::create_local_with(size, AlgoPolicy::default(), deadline)
        .expect("local proc rendezvous")
}

/// Run `f(rank, comm)` on every rank of `comms`, one thread each, and
/// collect the per-rank results.
fn run_group<C: Communicator, R: Send>(comms: Vec<C>, f: impl Fn(usize, &C) -> R + Sync) -> Vec<R> {
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = comms
            .iter()
            .enumerate()
            .map(|(rank, comm)| s.spawn(move || f(rank, comm)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

fn allreduce_sum_all_sizes<T: Membership + 'static>(make: &Make<T>) {
    for size in [1, 2, 3, 4, 8] {
        let results = run_group(make(size, PATIENT), |rank, comm| {
            let mut buf = vec![rank as f32, 1.0];
            comm.allreduce(&mut buf, ReduceOp::Sum);
            buf
        });
        let expect_sum: f32 = (0..size).map(|r| r as f32).sum();
        for r in &results {
            assert_eq!(r[0], expect_sum, "size {size}");
            assert_eq!(r[1], size as f32);
        }
    }
}

fn allreduce_average_and_max<T: Membership + 'static>(make: &Make<T>) {
    let results = run_group(make(4, PATIENT), |rank, comm| {
        let mut buf = vec![(rank * 2) as f32];
        comm.allreduce(&mut buf, ReduceOp::Average);
        buf[0]
    });
    for r in results {
        assert_eq!(r, 3.0); // mean of 0,2,4,6
    }
    let results = run_group(make(5, PATIENT), |rank, comm| {
        let mut buf = vec![-(rank as f32), rank as f32];
        comm.allreduce(&mut buf, ReduceOp::Max);
        buf
    });
    for r in results {
        assert_eq!(r, vec![0.0, 4.0]);
    }
}

/// A fast rank must not leak into the next operation: successive
/// collectives are kept apart by their sequence numbers alone.
fn back_to_back_allreduces_do_not_mix<T: Membership + 'static>(make: &Make<T>) {
    let results = run_group(make(4, PATIENT), |rank, comm| {
        let mut total = Vec::new();
        for round in 0..50 {
            let mut buf = vec![(rank + round) as f32];
            comm.allreduce(&mut buf, ReduceOp::Sum);
            total.push(buf[0]);
        }
        total
    });
    for r in &results {
        for (round, &v) in r.iter().enumerate() {
            let expect: f32 = (0..4).map(|rk| (rk + round) as f32).sum();
            assert_eq!(v, expect);
        }
    }
}

fn allgather_variable_lengths<T: Membership + 'static>(make: &Make<T>) {
    let results = run_group(make(3, PATIENT), |rank, comm| {
        let payload: Vec<f32> = (0..=rank).map(|i| (rank * 10 + i) as f32).collect();
        comm.allgather(&payload)
    });
    for gathered in &results {
        assert_eq!(gathered.len(), 3);
        assert_eq!(gathered[0], vec![0.0]);
        assert_eq!(gathered[1], vec![10.0, 11.0]);
        assert_eq!(gathered[2], vec![20.0, 21.0, 22.0]);
    }
}

fn broadcast_from_each_root<T: Membership + 'static>(make: &Make<T>) {
    for root in 0..3 {
        let results = run_group(make(3, PATIENT), move |rank, comm| {
            let mut buf = if rank == root {
                vec![42.0, 43.0]
            } else {
                vec![0.0, 0.0]
            };
            comm.broadcast(&mut buf, root);
            buf
        });
        for r in results {
            assert_eq!(r, vec![42.0, 43.0]);
        }
    }
}

fn barrier_orders_phases<T: Membership + 'static>(make: &Make<T>) {
    let before = AtomicUsize::new(0);
    run_group(make(6, PATIENT), |_rank, comm| {
        before.fetch_add(1, Ordering::SeqCst);
        comm.barrier();
        // Every rank must have incremented before any rank passes.
        assert_eq!(before.load(Ordering::SeqCst), 6);
    });
}

/// Interleave all collective kinds repeatedly; any sequencing bug
/// deadlocks or corrupts data.
fn mixed_op_sequences<T: Membership + 'static>(make: &Make<T>) {
    let results = run_group(make(4, PATIENT), |rank, comm| {
        let mut acc = 0.0f32;
        for round in 0..20 {
            let mut g = vec![rank as f32 + round as f32; 8];
            comm.allreduce(&mut g, ReduceOp::Average);
            acc += g[0];
            let gathered = comm.allgather(&[rank as f32]);
            assert_eq!(gathered.len(), 4);
            let mut b = vec![if rank == round % 4 { 7.0 } else { 0.0 }];
            comm.broadcast(&mut b, round % 4);
            assert_eq!(b[0], 7.0);
            comm.barrier();
        }
        acc
    });
    let expect: f32 = (0..20).map(|round| 1.5 + round as f32).sum();
    for r in results {
        assert!((r - expect).abs() < 1e-4);
    }
}

fn traffic_is_recorded_per_class<T: Membership + 'static>(make: &Make<T>) {
    let results = run_group(make(2, PATIENT), |_rank, comm| {
        let mut buf = vec![0.0f32; 100];
        comm.allreduce_tagged(&mut buf, ReduceOp::Sum, TrafficClass::Gradient);
        comm.allreduce_tagged(&mut buf, ReduceOp::Sum, TrafficClass::Factor);
        let _ = comm.allgather_tagged(&buf, TrafficClass::Eigen);
        comm.traffic()
    });
    for t in results {
        assert_eq!(t.gradient_bytes, 400);
        assert_eq!(t.factor_bytes, 400);
        assert_eq!(t.eigen_bytes, 400);
        assert_eq!(t.ops, 3);
    }
}

/// An allreduce of nothing is a non-event: `Ok`, no traffic, no op, and
/// no sequence number — rank 0 "calls" it three times more often than
/// rank 1, and the real allreduce that follows still pairs up.
fn empty_allreduce_is_a_non_event<T: Membership + 'static>(make: &Make<T>) {
    let results = run_group(make(2, SHORT), |rank, comm| {
        for _ in 0..(1 + 3 * (1 - rank)) {
            wire::try_allreduce_half(
                comm,
                &mut [],
                ReduceOp::Average,
                TrafficClass::Factor,
                Dtype::F32,
            )
            .expect("nothing to exchange");
        }
        assert_eq!(comm.traffic(), Traffic::default());
        let mut buf = [rank as f32, 4.0];
        wire::try_allreduce_half(
            comm,
            &mut buf,
            ReduceOp::Sum,
            TrafficClass::Factor,
            Dtype::F32,
        )
        .expect("sequence numbers still agree");
        (buf, comm.traffic())
    });
    for (buf, traffic) in results {
        assert_eq!(buf, [1.0, 8.0]);
        assert_eq!(traffic.ops, 1);
        assert_eq!(traffic.factor_bytes, 4 * 2);
    }
}

/// The allgather has no such shortcut, and must not: lengths differ by
/// rank (a rank that owns no factor contributes nothing to the Eigen
/// allgather), so an empty contribution still takes part, and everyone
/// receives it as empty.
fn empty_allgather_contribution_still_takes_part<T: Membership + 'static>(make: &Make<T>) {
    let results = run_group(make(3, PATIENT), |rank, comm| {
        let payload = vec![rank as f32; rank]; // rank 0 sends nothing
        wire::try_allgather_half(comm, &payload, TrafficClass::Eigen, Dtype::F32).unwrap()
    });
    for gathered in results {
        assert_eq!(gathered, [vec![], vec![1.0], vec![2.0, 2.0]]);
    }
}

fn size_one_short_circuits<T: Membership + 'static>(make: &Make<T>) {
    let comms = make(1, PATIENT);
    let mut buf = vec![5.0];
    comms[0].allreduce(&mut buf, ReduceOp::Average);
    assert_eq!(buf, vec![5.0]);
    let g = comms[0].allgather(&buf);
    assert_eq!(g, vec![vec![5.0]]);
    comms[0].barrier();
}

/// The mismatched-call contract of `communicator.rs`: run `bad` on every
/// rank of a short-deadline group, require a typed error on every rank
/// within the deadline (no hang), then — once every rank has its error —
/// require the next well-formed collective to succeed. Returns the errors.
fn fails_typed_then_recovers<T: Membership + 'static>(
    make: &Make<T>,
    size: usize,
    bad: impl Fn(usize, &ShrunkComm<T>) -> Result<(), CollectiveError> + Sync,
) -> Vec<CollectiveError> {
    let all_failed = Barrier::new(size);
    run_group(make(size, SHORT), |rank, comm| {
        let started = Instant::now();
        let err = bad(rank, comm).expect_err("a mismatched call cannot succeed");
        assert!(
            started.elapsed() < 20 * SHORT,
            "rank {rank} waited {:?} for {err:?}",
            started.elapsed()
        );
        all_failed.wait();
        let mut good = vec![rank as f32];
        comm.try_allreduce_tagged(&mut good, ReduceOp::Sum, TrafficClass::Other)
            .expect("the group must recover after a failed collective");
        assert_eq!(good[0], (0..size).map(|r| r as f32).sum::<f32>());
        err
    })
}

/// Ranks that disagree on *which* collective comes next exchange frames
/// neither side is waiting for: each receive expires, and reports how
/// long it really waited.
fn mismatched_kinds_time_out_on_every_rank<T: Membership + 'static>(make: &Make<T>) {
    let errs = fails_typed_then_recovers(make, 2, |rank, comm| {
        if rank == 0 {
            comm.try_allreduce_tagged(&mut [1.0], ReduceOp::Sum, TrafficClass::Other)
        } else {
            comm.try_allgather_tagged(&[1.0], TrafficClass::Other)
                .map(|_| ())
        }
    });
    for e in errs {
        assert!(
            matches!(e, CollectiveError::Timeout { waited_ms }
                if u128::from(waited_ms) >= SHORT.as_millis()),
            "{e:?}"
        );
    }
}

/// Ranks that disagree on the *length* exchange frames the peer is
/// waiting for: whoever receives one sees the mismatch; a rank whose
/// peer bailed out before sending times out instead.
fn mismatched_lengths_are_typed_on_every_rank<T: Membership + 'static>(make: &Make<T>) {
    let errs = fails_typed_then_recovers(make, 3, |rank, comm| {
        let mut buf = vec![0.0; 2 + rank % 2]; // ranks disagree on length
        comm.try_allreduce_tagged(&mut buf, ReduceOp::Sum, TrafficClass::Other)
    });
    let saw_it = |e: &CollectiveError| {
        *e == CollectiveError::Mismatch("allreduce length mismatch across ranks")
    };
    assert!(errs.iter().any(saw_it), "{errs:?}");
    for e in &errs {
        assert!(
            saw_it(e) || matches!(e, CollectiveError::Timeout { .. }),
            "{e:?}"
        );
    }
}

fn group_recovers_after_a_failed_generation<T: Membership + 'static>(make: &Make<T>) {
    fails_typed_then_recovers(make, 2, |rank, comm| {
        let mut bad = vec![0.0; 1 + rank]; // length mismatch → group error
        comm.try_allreduce_tagged(&mut bad, ReduceOp::Sum, TrafficClass::Other)
    });
}

fn collectives_fail_promptly_with_the_culprit_after_mark_dead<T: Membership + 'static>(
    make: &Make<T>,
) {
    let results = run_group(make(3, PATIENT), |rank, comm| {
        // One clean round so the death lands mid-stream.
        let mut buf = vec![rank as f32];
        comm.try_allreduce_tagged(&mut buf, ReduceOp::Sum, TrafficClass::Gradient)
            .unwrap();
        if rank == 2 {
            comm.mark_dead(2);
            return Vec::new();
        }
        // Both the in-flight and every subsequent collective on the
        // un-shrunk group must surface the culprit, not hang.
        let mut errs = Vec::new();
        for _ in 0..3 {
            let mut buf = vec![rank as f32];
            let e = comm
                .try_allreduce_tagged(&mut buf, ReduceOp::Sum, TrafficClass::Gradient)
                .unwrap_err();
            errs.push(e);
        }
        errs
    });
    for (rank, errs) in results.iter().enumerate() {
        if rank == 2 {
            continue;
        }
        assert_eq!(errs.len(), 3);
        for e in errs {
            assert!(
                matches!(e, CollectiveError::RankFailed(2)),
                "rank {rank} got {e:?}"
            );
        }
    }
}

fn a_dead_rank_observes_its_own_death<T: Membership + 'static>(make: &Make<T>) {
    let comms = make(2, PATIENT);
    comms[1].mark_dead(1);
    let mut buf = vec![1.0];
    let e = comms[1]
        .try_allreduce_tagged(&mut buf, ReduceOp::Sum, TrafficClass::Gradient)
        .unwrap_err();
    assert!(matches!(e, CollectiveError::RankFailed(1)));
}

/// A rank that completes a collective and *then* dies must not strand
/// the slowest survivor in the collective it already left, nor in the
/// next one. Many repetitions because the race needs the victim's death
/// to land while a survivor is still draining.
fn death_between_generations_does_not_strand_a_survivor<T: Membership + 'static>(make: &Make<T>) {
    for round in 0..25 {
        let kill_rank = 1 + (round % 3);
        let results = run_group(make(4, PATIENT), |rank, comm| {
            for r in 0..3 {
                let mut buf = vec![rank as f32];
                comm.try_allreduce_tagged(&mut buf, ReduceOp::Sum, TrafficClass::Gradient)
                    .unwrap();
                assert_eq!(buf[0], 6.0, "pre-kill round {r}");
            }
            if rank == kill_rank {
                comm.mark_dead(kill_rank);
                return None;
            }
            let mut buf = vec![rank as f32];
            let e = comm
                .try_allreduce_tagged(&mut buf, ReduceOp::Sum, TrafficClass::Gradient)
                .unwrap_err();
            assert!(matches!(e, CollectiveError::RankFailed(r) if r == kill_rank));
            // The survivors shrink to a working, epoch-fenced group.
            let shrunk = comm.shrink(&[kill_rank]).expect("membership agreement");
            assert_eq!(shrunk.view().epoch, 1);
            assert_eq!(shrunk.size(), 3);
            let mut buf = vec![shrunk.rank() as f32];
            shrunk.allreduce(&mut buf, ReduceOp::Sum);
            assert_eq!(buf[0], 3.0); // 0 + 1 + 2
            let gathered = shrunk.allgather(&[shrunk.rank() as f32]);
            assert_eq!(gathered.len(), 3);
            Some(shrunk.rank())
        });
        let mut new_ranks: Vec<usize> = results.into_iter().flatten().collect();
        new_ranks.sort_unstable();
        assert_eq!(new_ranks, vec![0, 1, 2], "kill {kill_rank}");
    }
}

macro_rules! contract {
    ($($check:ident),* $(,)?) => {
        mod thread {
            $(#[test] fn $check() { super::$check(&super::thread_group); })*
        }
        mod proc {
            $(#[test] fn $check() { super::$check(&super::proc_group); })*
        }
    };
}

contract!(
    allreduce_sum_all_sizes,
    allreduce_average_and_max,
    back_to_back_allreduces_do_not_mix,
    allgather_variable_lengths,
    broadcast_from_each_root,
    barrier_orders_phases,
    mixed_op_sequences,
    traffic_is_recorded_per_class,
    empty_allreduce_is_a_non_event,
    empty_allgather_contribution_still_takes_part,
    size_one_short_circuits,
    mismatched_kinds_time_out_on_every_rank,
    mismatched_lengths_are_typed_on_every_rank,
    group_recovers_after_a_failed_generation,
    collectives_fail_promptly_with_the_culprit_after_mark_dead,
    a_dead_rank_observes_its_own_death,
    death_between_generations_does_not_strand_a_survivor,
);
