//! Integration tests for the multi-process TCP backend.
//!
//! `ProcComm::create_local` drives the full proc stack — broker
//! rendezvous, pairwise TCP mesh, wire framing, reader threads, the
//! algorithm layer — from threads of one process, so these tests exercise
//! every byte of the wire path without spawning executables (the true
//! multi-process path is covered by `kfac-harness/tests/proc_train.rs`).
//! The contract both fabrics share is `tests/contract.rs`; what is here
//! is what only sockets can do, plus the thread == TCP bit pin.

use kfac_collectives::algo::{AlgoPolicy, CollectiveAlgo};
use kfac_collectives::proc::{ProcComm, ProcConfig};
use kfac_collectives::{
    CollectiveError, Communicator, Fault, FaultKind, FaultPlan, FaultyCommunicator, ReduceOp,
    RetryPolicy, ThreadComm, TrafficClass,
};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Run `f(rank, comm)` on every rank of a fresh proc group.
fn run_proc_group<R: Send>(
    size: usize,
    policy: AlgoPolicy,
    f: impl Fn(usize, &ProcComm) -> R + Sync,
) -> Vec<R> {
    let comms = ProcComm::create_local_with(size, policy, ProcConfig::DEFAULT_TIMEOUT)
        .expect("local proc rendezvous");
    let f = &f;
    thread::scope(|s| {
        let handles: Vec<_> = comms
            .iter()
            .map(|comm| s.spawn(move || f(comm.rank(), comm)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

fn run_thread_group<R: Send>(
    size: usize,
    policy: AlgoPolicy,
    f: impl Fn(usize, &ThreadComm) -> R + Sync,
) -> Vec<R> {
    let comms = ThreadComm::create_with(size, policy, kfac_collectives::thread::MESH_RECV_TIMEOUT);
    let f = &f;
    thread::scope(|s| {
        let handles: Vec<_> = comms
            .iter()
            .enumerate()
            .map(|(rank, comm)| s.spawn(move || f(rank, comm)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// The canonical reduction, written out: `((x₀ + x₁) + x₂) + …` in rank
/// order, then the average's one multiply.
fn serial_fold_bits(contributions: &[Vec<f32>], op: ReduceOp) -> Vec<u32> {
    let mut acc = contributions[0].clone();
    for x in &contributions[1..] {
        for (a, &b) in acc.iter_mut().zip(x) {
            *a += b;
        }
    }
    if op == ReduceOp::Average {
        let inv = 1.0 / contributions.len() as f32;
        for a in &mut acc {
            *a *= inv;
        }
    }
    acc.iter().map(|v| v.to_bits()).collect()
}

/// The acceptance-criterion invariant at the collectives level: a proc
/// allreduce and a thread allreduce are both bitwise the serial left fold
/// of the contributions, for every algorithm and awkward sizes
/// (non-power-of-two ranks, lengths straddling the chunk size).
#[test]
fn proc_allreduce_bitwise_matches_threadcomm() {
    // Values whose sum depends on association order, so any deviation
    // from the canonical rank-order reduction flips bits.
    let data = |rank: usize, len: usize| -> Vec<f32> {
        (0..len)
            .map(|i| ((rank * 31 + i) as f32).sin() * 1e3 + (i as f32) * 1e-3)
            .collect()
    };
    for size in [2usize, 3, 4] {
        for len in [5usize, 16, 33, 100] {
            for op in [ReduceOp::Sum, ReduceOp::Average] {
                let contributions: Vec<Vec<f32>> = (0..size).map(|r| data(r, len)).collect();
                let reference = vec![serial_fold_bits(&contributions, op); size];
                for algo in [
                    CollectiveAlgo::Flat,
                    CollectiveAlgo::PipelinedRing,
                    CollectiveAlgo::HalvingDoubling,
                ] {
                    let policy = AlgoPolicy {
                        algo,
                        chunk_elems: 16, // force multi-chunk pipelines at len 33+
                        ..AlgoPolicy::default()
                    };
                    let allreduce_bits = |rank: usize, comm: &dyn Communicator| -> Vec<u32> {
                        let mut buf = data(rank, len);
                        comm.allreduce(&mut buf, op);
                        buf.iter().map(|v| v.to_bits()).collect()
                    };
                    let on_threads =
                        run_thread_group(size, policy, |rank, comm| allreduce_bits(rank, comm));
                    let on_tcp =
                        run_proc_group(size, policy, |rank, comm| allreduce_bits(rank, comm));
                    for (fabric, got) in [("thread", on_threads), ("proc", on_tcp)] {
                        assert_eq!(
                            got, reference,
                            "{fabric} algo {algo:?} size {size} len {len} op {op:?}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn proc_recv_deadline_times_out_as_typed_error() {
    let comms = ProcComm::create_local_with(2, AlgoPolicy::default(), Duration::from_millis(300))
        .expect("local proc rendezvous");
    let mut it = comms.into_iter();
    let c0 = it.next().unwrap();
    let _c1 = it.next().unwrap(); // rank 1 never joins the collective
    let mut buf = vec![1.0f32; 8];
    let err = c0
        .try_allreduce_tagged(&mut buf, ReduceOp::Sum, TrafficClass::Other)
        .unwrap_err();
    assert!(
        matches!(err, CollectiveError::Timeout { waited_ms } if waited_ms >= 300),
        "{err:?}"
    );
    assert!(err.is_retryable());
}

#[test]
fn proc_peer_disconnect_surfaces_rank_failed() {
    let comms = ProcComm::create_local_with(2, AlgoPolicy::default(), Duration::from_secs(5))
        .expect("local proc rendezvous");
    let mut it = comms.into_iter();
    let c0 = it.next().unwrap();
    let c1 = it.next().unwrap();
    drop(c1); // rank 1's sockets close; rank 0 must see a permanent failure
    let mut buf = vec![1.0f32; 8];
    let err = c0
        .try_allreduce_tagged(&mut buf, ReduceOp::Sum, TrafficClass::Other)
        .unwrap_err();
    assert_eq!(err, CollectiveError::RankFailed(1));
    assert!(!err.is_retryable());
}

/// `FaultyCommunicator` + `RetryPolicy` wrap `ProcComm` exactly as they
/// wrap `ThreadComm`: injected transient faults are retried through to
/// the same reduced result. The plan is shared and every rank's wrapper
/// counts attempts in lockstep (each retry is one attempt on every rank),
/// so the group never desynchronizes.
#[test]
fn proc_wrapped_in_faulty_communicator_retries_to_success() {
    let world = 2;
    let outage = |attempt, attempts| Fault {
        class: TrafficClass::Gradient,
        attempt,
        kind: FaultKind::Outage { attempts },
        culprit: 0,
    };
    let plan = Arc::new(FaultPlan::new(vec![
        outage(0, 1),
        outage(5, 2),
        outage(13, 3),
    ]));
    let comms =
        ProcComm::create_local_with(world, AlgoPolicy::default(), ProcConfig::DEFAULT_TIMEOUT)
            .expect("local proc rendezvous");
    let policy = RetryPolicy {
        max_attempts: 8,
        base_backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
    };
    let results: Vec<Vec<f32>> = thread::scope(|s| {
        comms
            .into_iter()
            .map(|comm| {
                let plan = Arc::clone(&plan);
                s.spawn(move || {
                    let rank = comm.rank();
                    let faulty = FaultyCommunicator::new(comm, plan);
                    let mut sums = Vec::new();
                    for round in 0..20 {
                        let src = vec![rank as f32 + round as f32; 4];
                        let mut buf = src.clone();
                        policy
                            .run(|| {
                                buf.copy_from_slice(&src);
                                faulty.try_allreduce_tagged(
                                    &mut buf,
                                    ReduceOp::Sum,
                                    TrafficClass::Gradient,
                                )
                            })
                            .unwrap();
                        sums.push(buf[0]);
                    }
                    sums
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    for sums in results {
        for (round, &v) in sums.iter().enumerate() {
            let expect: f32 = (0..world).map(|r| r as f32 + round as f32).sum();
            assert_eq!(v, expect, "round {round}");
        }
    }
}
