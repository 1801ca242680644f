//! Property tests for the collective algorithm layer.
//!
//! The contract under test (the repo's determinism invariant): pipelined
//! ring, halving/doubling, and the flat reference reduction produce
//! **bitwise-identical** allreduce results — across rank counts
//! {1,2,3,4,8}, message sizes that straddle the pipeline chunk boundary,
//! and on both backends (thread mailbox mesh and multi-process TCP).
//! The reference is the canonical left-associated rank-order combine,
//! written out serially here so it shares no code with what it judges.

use kfac_collectives::algo::{AlgoPolicy, CollectiveAlgo};
use kfac_collectives::proc::{ProcComm, ProcConfig};
use kfac_collectives::thread::MESH_RECV_TIMEOUT;
use kfac_collectives::{Communicator, ReduceOp, ThreadComm};
use proptest::prelude::*;
use std::thread;

/// Non-trivially distributed payload: magnitudes vary enough that the
/// f32 sum depends on association order, so any algorithm that deviates
/// from rank-order reduction flips result bits.
fn payload(seed: u32, rank: usize, len: usize) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let x = (seed as u64)
                .wrapping_mul(0x9e3779b97f4a7c15)
                .wrapping_add((rank * 131 + i * 7) as u64);
            let v = ((x >> 16) % 2_000_003) as f32 / 1_000.0 - 1_000.0;
            v * (10f32).powi(((x >> 40) % 7) as i32 - 3)
        })
        .collect()
}

/// Reference bits: `((x₀ + x₁) + x₂) + …` in rank order, then the
/// average's one multiply; every rank must hold exactly these.
fn reference_bits(size: usize, len: usize, seed: u32, op: ReduceOp) -> Vec<Vec<u32>> {
    let mut acc = payload(seed, 0, len);
    for rank in 1..size {
        for (a, b) in acc.iter_mut().zip(payload(seed, rank, len)) {
            *a += b;
        }
    }
    if op == ReduceOp::Average {
        let inv = 1.0 / size as f32;
        for a in &mut acc {
            *a *= inv;
        }
    }
    vec![acc.iter().map(|v| v.to_bits()).collect(); size]
}

/// Allreduce bits via the algorithm layer on the thread mailbox mesh.
fn thread_algo_bits(
    size: usize,
    len: usize,
    seed: u32,
    op: ReduceOp,
    policy: AlgoPolicy,
) -> Vec<Vec<u32>> {
    let comms = ThreadComm::create_with(size, policy, MESH_RECV_TIMEOUT);
    thread::scope(|s| {
        let handles: Vec<_> = comms
            .iter()
            .map(|comm| {
                s.spawn(move || {
                    let mut buf = payload(seed, comm.rank(), len);
                    comm.allreduce(&mut buf, op);
                    buf.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// Allreduce bits via the algorithm layer on the TCP proc backend.
fn proc_algo_bits(
    size: usize,
    len: usize,
    seed: u32,
    op: ReduceOp,
    policy: AlgoPolicy,
) -> Vec<Vec<u32>> {
    let comms = ProcComm::create_local_with(size, policy, ProcConfig::DEFAULT_TIMEOUT)
        .expect("local proc rendezvous");
    thread::scope(|s| {
        let handles: Vec<_> = comms
            .iter()
            .map(|comm| {
                s.spawn(move || {
                    let mut buf = payload(seed, comm.rank(), len);
                    comm.allreduce(&mut buf, op);
                    buf.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

const ALGOS: [CollectiveAlgo; 3] = [
    CollectiveAlgo::Flat,
    CollectiveAlgo::PipelinedRing,
    CollectiveAlgo::HalvingDoubling,
];

/// The satellite's required rank counts.
const SIZES: [usize; 5] = [1, 2, 3, 4, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// All three algorithms on the thread backend are bitwise identical
    /// to the serial rank-order fold, with message lengths chosen
    /// to straddle the pipeline chunk boundary (chunk = 16 elements,
    /// lengths 1..64 cover sub-chunk, exact-chunk and multi-chunk).
    #[test]
    fn thread_backend_algos_bitwise_match_flat(
        size_idx in 0usize..SIZES.len(),
        len in 1usize..64,
        seed in any::<u32>(),
        op_avg in any::<bool>(),
    ) {
        let size = SIZES[size_idx];
        let op = if op_avg { ReduceOp::Average } else { ReduceOp::Sum };
        let reference = reference_bits(size, len, seed, op);
        for algo in ALGOS {
            let policy = AlgoPolicy { algo, chunk_elems: 16, ..AlgoPolicy::default() };
            let got = thread_algo_bits(size, len, seed, op, policy);
            prop_assert_eq!(
                &got, &reference,
                "thread backend, algo {}, size {}, len {}", algo.name(), size, len
            );
        }
    }

    /// Auto-selection must never change the bits: whatever the policy
    /// picks per size, the result equals the reference reduction. Runs
    /// lengths around the halving/doubling byte threshold.
    #[test]
    fn auto_selection_preserves_bits(
        size_idx in 0usize..SIZES.len(),
        len in 1usize..96,
        seed in any::<u32>(),
    ) {
        let size = SIZES[size_idx];
        let reference = reference_bits(size, len, seed, ReduceOp::Average);
        // Tiny hd_max_bytes puts the generated lengths on both sides of
        // the auto crossover.
        let policy = AlgoPolicy {
            algo: CollectiveAlgo::Auto,
            chunk_elems: 16,
            hd_max_bytes: 128,
        };
        let got = thread_algo_bits(size, len, seed, ReduceOp::Average, policy);
        prop_assert_eq!(&got, &reference, "auto, size {}, len {}", size, len);
    }
}

proptest! {
    // The proc backend spins up real TCP meshes per case; fewer cases,
    // same coverage axes.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// All three algorithms on the TCP proc backend are bitwise
    /// identical to the serial rank-order fold.
    #[test]
    fn proc_backend_algos_bitwise_match_flat(
        size_idx in 0usize..SIZES.len(),
        len in 1usize..64,
        seed in any::<u32>(),
        op_avg in any::<bool>(),
    ) {
        let size = SIZES[size_idx];
        let op = if op_avg { ReduceOp::Average } else { ReduceOp::Sum };
        let reference = reference_bits(size, len, seed, op);
        for algo in ALGOS {
            let policy = AlgoPolicy { algo, chunk_elems: 16, ..AlgoPolicy::default() };
            let got = proc_algo_bits(size, len, seed, op, policy);
            prop_assert_eq!(
                &got, &reference,
                "proc backend, algo {}, size {}, len {}", algo.name(), size, len
            );
        }
    }
}

/// Deterministic (non-proptest) pin of the exact chunk-boundary cases on
/// both backends: len = chunk−1, chunk, chunk+1, 2·chunk, 2·chunk+3.
#[test]
fn chunk_boundary_lengths_bitwise_match_on_both_backends() {
    let chunk = 16usize;
    for size in [2usize, 3, 8] {
        for len in [chunk - 1, chunk, chunk + 1, 2 * chunk, 2 * chunk + 3] {
            let reference = reference_bits(size, len, 0xC0FFEE, ReduceOp::Average);
            for algo in ALGOS {
                let policy = AlgoPolicy {
                    algo,
                    chunk_elems: chunk,
                    ..AlgoPolicy::default()
                };
                let t = thread_algo_bits(size, len, 0xC0FFEE, ReduceOp::Average, policy);
                assert_eq!(t, reference, "thread {} size {size} len {len}", algo.name());
                let p = proc_algo_bits(size, len, 0xC0FFEE, ReduceOp::Average, policy);
                assert_eq!(p, reference, "proc {} size {size} len {len}", algo.name());
            }
        }
    }
}
