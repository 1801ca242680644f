//! Scheduler stress: randomized DAGs executed under randomized worker
//! counts and replay seeds, single- and multi-rank.
//!
//! Gated behind `--ignored` in the normal suite (CI runs it): the
//! matrix is deliberately large to shake out ordering races, and the
//! multi-rank case drives real `ThreadComm` collectives through the
//! dedicated comm worker, so a cross-rank ordering bug shows up as a
//! deadlock or a wrong reduction, not a flaky assertion.

use kfac_collectives::{ReduceOp, ThreadComm, TrafficClass};
use kfac_exec::{ExecMode, Executor, TaskGraph, TaskId, TaskKind};
use parking_lot::Mutex;
use std::thread;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Structure of one random task, identical on every rank for a given seed.
#[derive(Clone)]
enum Shape {
    Compute {
        deps: Vec<usize>,
    },
    Comm {
        deps: Vec<usize>,
    },
    /// External node + the dedicated signaler task added right after it.
    External {
        signaler_deps: Vec<usize>,
    },
}

/// Deterministic random graph shape: ~1/5 comm tasks, ~1/8 external
/// events, deps drawn from earlier tasks only.
fn random_shape(seed: u64, n: usize) -> Vec<Shape> {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut shapes = Vec::new();
    while shapes.len() < n {
        let prior = shapes.len();
        let mut deps = Vec::new();
        for _ in 0..(xorshift(&mut s) % 3) {
            if prior > 0 {
                deps.push((xorshift(&mut s) as usize) % prior);
            }
        }
        deps.sort_unstable();
        deps.dedup();
        let roll = xorshift(&mut s) % 8;
        if roll == 0 && prior + 1 < n {
            // External node; its signaler's deps must precede the
            // external so the signaler can never transitively wait on it.
            shapes.push(Shape::External {
                signaler_deps: deps,
            });
        } else if roll <= 2 {
            shapes.push(Shape::Comm { deps });
        } else {
            shapes.push(Shape::Compute { deps });
        }
    }
    shapes
}

/// Build + run the shaped graph on one rank; comm tasks allreduce a
/// marker through `comm`. Returns (execution order, comm results).
fn run_shaped(
    shape: &[Shape],
    rank: usize,
    size: usize,
    comm: Option<&ThreadComm>,
    mode: ExecMode,
) -> (Vec<usize>, Vec<(usize, f32)>) {
    let order: Mutex<Vec<usize>> = Mutex::new(Vec::new());
    let reduced: Mutex<Vec<(usize, f32)>> = Mutex::new(Vec::new());
    let mut g = TaskGraph::new();
    let mut ids: Vec<TaskId> = Vec::new();
    let mut i = 0usize;
    for sh in shape {
        match sh {
            Shape::Compute { deps } => {
                let deps: Vec<TaskId> = deps.iter().map(|&d| ids[d]).collect();
                let order = &order;
                let me = i;
                ids.push(g.add(TaskKind::Custom("compute"), &deps, move |_| {
                    order.lock().push(me);
                }));
            }
            Shape::Comm { deps } => {
                let deps: Vec<TaskId> = deps.iter().map(|&d| ids[d]).collect();
                let (order, reduced) = (&order, &reduced);
                let me = i;
                ids.push(g.add(TaskKind::GradAllreduce(me), &deps, move |_| {
                    order.lock().push(me);
                    let mut buf = vec![(rank + me) as f32];
                    if let Some(c) = comm {
                        use kfac_collectives::Communicator;
                        c.allreduce_tagged(&mut buf, ReduceOp::Sum, TrafficClass::Gradient);
                    }
                    reduced.lock().push((me, buf[0]));
                }));
            }
            Shape::External { signaler_deps } => {
                let ext = g.add_external(TaskKind::Backward(i), &[]);
                ids.push(ext);
                let deps: Vec<TaskId> = signaler_deps.iter().map(|&d| ids[d]).collect();
                let order = &order;
                let me = i + 1;
                ids.push(g.add(TaskKind::Custom("signaler"), &deps, move |ctl| {
                    order.lock().push(me);
                    ctl.complete(ext).unwrap();
                }));
                i += 2;
                continue;
            }
        }
        i += 1;
    }
    let total = ids.len();
    let report = Executor::run(g, mode).unwrap();
    assert_eq!(report.executed, total);
    let _ = size;
    (order.into_inner(), reduced.into_inner())
}

/// Count scheduled (non-external) tasks in a shape.
fn scheduled_count(shape: &[Shape]) -> usize {
    shape
        .iter()
        .map(|s| match s {
            Shape::External { .. } => 1, // signaler only; external itself never "runs"
            _ => 1,
        })
        .sum()
}

#[test]
#[ignore = "stress matrix; run explicitly or in CI via --ignored"]
fn single_rank_random_dags_complete_under_all_modes() {
    for seed in 0..24u64 {
        let shape = random_shape(seed, 60);
        let expect = scheduled_count(&shape);
        for mode in [
            ExecMode::Replay {
                seed: seed ^ 0xABCD,
            },
            ExecMode::Overlapped {
                compute_workers: 1 + (seed as usize % 4),
            },
        ] {
            let (order, _) = run_shaped(&shape, 0, 1, None, mode);
            assert_eq!(order.len(), expect, "seed {seed} mode {mode:?}");
        }
    }
}

#[test]
#[ignore = "stress matrix; run explicitly or in CI via --ignored"]
fn multi_rank_comm_ordering_never_deadlocks_and_reduces_correctly() {
    for &size in &[2usize, 4] {
        for seed in 0..8u64 {
            let shape = random_shape(seed, 40);
            for workers in 1..=3usize {
                let comms = ThreadComm::create(size);
                let shape = &shape;
                let results: Vec<_> = thread::scope(|s| {
                    let handles: Vec<_> = comms
                        .iter()
                        .enumerate()
                        .map(|(rank, comm)| {
                            s.spawn(move || {
                                run_shaped(
                                    shape,
                                    rank,
                                    size,
                                    Some(comm),
                                    ExecMode::Overlapped {
                                        compute_workers: workers,
                                    },
                                )
                            })
                        })
                        .collect();
                    handles.into_iter().map(|h| h.join().unwrap()).collect()
                });
                // Every rank saw the same comm tasks, and each reduction
                // equals sum over ranks of (rank + id).
                let rank_sum: f32 = (0..size).map(|r| r as f32).sum();
                for (_, reduced) in &results {
                    for &(id, v) in reduced {
                        assert_eq!(
                            v,
                            rank_sum + (size * id) as f32,
                            "size {size} seed {seed} workers {workers} task {id}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
#[ignore = "stress matrix; run explicitly or in CI via --ignored"]
fn multi_rank_replay_matches_overlapped_comm_results() {
    let size = 4;
    for seed in 0..6u64 {
        let shape = random_shape(seed, 30);
        let shape = &shape;
        let run_mode = |mode: ExecMode| -> Vec<Vec<(usize, f32)>> {
            let comms = ThreadComm::create(size);
            thread::scope(|s| {
                let handles: Vec<_> = comms
                    .iter()
                    .enumerate()
                    .map(|(rank, comm)| {
                        s.spawn(move || run_shaped(shape, rank, size, Some(comm), mode).1)
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            })
        };
        let mut replay = run_mode(ExecMode::Replay { seed: 99 });
        let mut overlapped = run_mode(ExecMode::Overlapped { compute_workers: 2 });
        for (r, o) in replay.iter_mut().zip(overlapped.iter_mut()) {
            r.sort_unstable_by_key(|&(id, _)| id);
            o.sort_unstable_by_key(|&(id, _)| id);
            assert_eq!(r.len(), o.len());
            for (&(ri, rv), &(oi, ov)) in r.iter().zip(o.iter()) {
                assert_eq!(ri, oi);
                assert_eq!(rv.to_bits(), ov.to_bits(), "bitwise identical reductions");
            }
        }
    }
}
