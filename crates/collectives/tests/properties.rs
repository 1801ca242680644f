//! Property tests: the thread-rank collectives must agree with a
//! sequential reference for arbitrary group sizes, payload lengths and
//! contents.

use kfac_collectives::{Communicator, ReduceOp, ThreadComm};
use proptest::prelude::*;
use std::thread;

fn run_group<R: Send>(size: usize, f: impl Fn(usize, &ThreadComm) -> R + Sync) -> Vec<R> {
    let comms = ThreadComm::create(size);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// allreduce(Sum) equals the element-wise sequential sum, for every
    /// rank, for arbitrary group sizes and payloads.
    #[test]
    fn allreduce_sum_matches_reference(
        size in 1usize..9,
        len in 1usize..64,
        seed in any::<u32>(),
    ) {
        // Deterministic per-rank payloads derived from the seed.
        let payload = |rank: usize| -> Vec<f32> {
            (0..len)
                .map(|i| ((seed as usize + rank * 31 + i * 7) % 100) as f32 - 50.0)
                .collect()
        };
        let mut expect = vec![0.0f32; len];
        for r in 0..size {
            for (e, v) in expect.iter_mut().zip(payload(r)) {
                *e += v;
            }
        }
        let results = run_group(size, |rank, comm| {
            let mut buf = payload(rank);
            comm.allreduce(&mut buf, ReduceOp::Sum);
            buf
        });
        for r in results {
            prop_assert_eq!(&r, &expect);
        }
    }

    /// Average = Sum / size, element-wise.
    #[test]
    fn allreduce_average_matches_sum(
        size in 1usize..7,
        len in 1usize..32,
    ) {
        let results = run_group(size, |rank, comm| {
            let mut s = vec![(rank + 1) as f32; len];
            let mut a = s.clone();
            comm.allreduce(&mut s, ReduceOp::Sum);
            comm.allreduce(&mut a, ReduceOp::Average);
            (s, a)
        });
        for (s, a) in results {
            for (sv, av) in s.iter().zip(&a) {
                prop_assert!((av - sv / size as f32).abs() < 1e-5);
            }
        }
    }

    /// allgather returns every rank's exact payload in rank order, even
    /// with heterogeneous lengths.
    #[test]
    fn allgather_preserves_payloads(
        size in 1usize..7,
        base_len in 0usize..16,
    ) {
        let results = run_group(size, |rank, comm| {
            let payload: Vec<f32> =
                (0..base_len + rank).map(|i| (rank * 1000 + i) as f32).collect();
            comm.allgather(&payload)
        });
        for gathered in results {
            prop_assert_eq!(gathered.len(), size);
            for (rank, g) in gathered.iter().enumerate() {
                prop_assert_eq!(g.len(), base_len + rank);
                for (i, &v) in g.iter().enumerate() {
                    prop_assert_eq!(v, (rank * 1000 + i) as f32);
                }
            }
        }
    }

    /// broadcast delivers the root's payload to all ranks regardless of
    /// which rank is root.
    #[test]
    fn broadcast_from_any_root(
        size in 1usize..7,
        len in 1usize..32,
        root_pick in any::<u8>(),
    ) {
        let root = root_pick as usize % size;
        let results = run_group(size, |rank, comm| {
            let mut buf = if rank == root {
                (0..len).map(|i| i as f32 + 0.5).collect::<Vec<_>>()
            } else {
                vec![-1.0; len]
            };
            comm.broadcast(&mut buf, root);
            buf
        });
        for r in results {
            for (i, &v) in r.iter().enumerate() {
                prop_assert_eq!(v, i as f32 + 0.5);
            }
        }
    }
}

#[test]
fn allreduce_is_rank_order_deterministic() {
    // f32 reduction order is fixed (rank 0, 1, …) regardless of arrival
    // order, so repeated runs produce bit-identical results even with
    // adversarial thread timing.
    let run = || -> Vec<f32> {
        let comms = kfac_collectives::ThreadComm::create(4);
        std::thread::scope(|s| {
            let handles: Vec<_> = comms
                .iter()
                .enumerate()
                .map(|(rank, comm)| {
                    s.spawn(move || {
                        // Stagger arrivals differently per rank.
                        std::thread::sleep(std::time::Duration::from_micros(
                            ((rank * 7919) % 41) as u64,
                        ));
                        let mut buf: Vec<f32> = (0..64)
                            .map(|i| 0.1 + rank as f32 * 1e-7 + i as f32 * 1e-3)
                            .collect();
                        comm.allreduce(&mut buf, ReduceOp::Average);
                        buf
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .next()
                .unwrap()
        })
    };
    let a = run();
    for _ in 0..5 {
        assert_eq!(a, run(), "allreduce must be bit-deterministic");
    }
}
