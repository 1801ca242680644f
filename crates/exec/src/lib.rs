//! # kfac-exec
//!
//! Deterministic task-graph execution engine for the distributed K-FAC
//! pipeline (Pauloski et al., SC 2020 §V).
//!
//! The paper's one overlap is Horovod's: gradient buckets are allreduced
//! while backward is still running. This crate is the scheduler that
//! runs that overlap as a dependency graph of typed tasks rather than
//! hand-rolled threads (the general form — pipelining the K-FAC stages
//! too — is Shi et al., arXiv:2107.06533):
//!
//! * [`TaskKind`] — typed nodes: per-layer backward completion,
//!   per-bucket gradient allreduce, named glue.
//! * [`TaskGraph`] — explicit dependency edges; acyclic by construction
//!   (dependencies must precede dependents). External nodes model
//!   completion events signaled mid-task via [`ExecCtl::complete`] —
//!   how layer *i*'s gradient bucket is released while layer *i−1* is
//!   still in backward.
//! * [`Executor`] — two modes sharing one scheduler core:
//!   [`ExecMode::Overlapped`] runs compute workers alongside a
//!   dedicated communication worker (comm tasks in graph order, so all
//!   ranks' collective sequences match); [`ExecMode::Replay`] runs the
//!   same graph single-threaded in a seeded topological order, the
//!   bit-for-bit oracle the overlapped path is tested against.
//! * Failure containment — fallible nodes
//!   ([`TaskGraph::add_fallible`]) surface
//!   `CollectiveError`s as node outcomes: a failed node *poisons* its
//!   transitive dependents (they are skipped, never run) while
//!   unrelated branches drain normally, so a timed-out collective can
//!   degrade an iteration without deadlocking the worker pool. The
//!   outcome is reported in [`ExecReport::failed`] /
//!   [`ExecReport::poisoned`].
//!
//! ```
//! use kfac_exec::{ExecMode, Executor, TaskGraph, TaskKind};
//! use std::sync::atomic::{AtomicUsize, Ordering};
//!
//! let sum = AtomicUsize::new(0);
//! let mut g = TaskGraph::new();
//! let bwd = g.add_external(TaskKind::Backward(0), &[]);
//! let sweep = g.add(TaskKind::Custom("backward_sweep"), &[], |ctl| {
//!     sum.fetch_add(1, Ordering::Relaxed);
//!     ctl.complete(bwd).unwrap(); // released mid-sweep
//! });
//! let reduce = g.add(TaskKind::GradAllreduce(0), &[bwd], |_| {
//!     sum.fetch_add(10, Ordering::Relaxed);
//! });
//! g.add(TaskKind::Custom("grad_writeback"), &[sweep, reduce], |_| {
//!     sum.fetch_add(100, Ordering::Relaxed);
//! });
//! Executor::run(g, ExecMode::Overlapped { compute_workers: 2 }).unwrap();
//! assert_eq!(sum.load(Ordering::Relaxed), 111);
//! ```

#![warn(missing_docs)]

mod executor;
mod graph;
mod task;

pub use executor::{ExecCtl, ExecError, ExecMode, ExecReport, Executor};
pub use graph::TaskGraph;
pub use task::{Lane, TaskId, TaskKind};

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A diamond with an external node: record completion order and
    /// check every dependency edge was respected.
    fn diamond_order(mode: ExecMode) -> Vec<&'static str> {
        let order = Mutex::new(Vec::new());
        let push = |name: &'static str| order.lock().push(name);
        let mut g = TaskGraph::new();
        let a = g.add(TaskKind::Custom("forward"), &[], |_| push("a"));
        let ext = g.add_external(TaskKind::Backward(0), &[]);
        let b = g.add(TaskKind::Custom("sweep"), &[a], |ctl| {
            push("b");
            ctl.complete(ext).unwrap();
        });
        let c = g.add(TaskKind::GradAllreduce(0), &[ext], |_| push("c"));
        g.add(TaskKind::Custom("writeback"), &[b, c], |_| push("d"));
        Executor::run(g, mode).unwrap();
        order.into_inner()
    }

    #[test]
    fn replay_respects_dependencies() {
        for seed in 0..20 {
            let order = diamond_order(ExecMode::Replay { seed });
            assert_eq!(order.len(), 4);
            let pos = |n| order.iter().position(|&x| x == n).unwrap();
            assert!(pos("a") < pos("b"));
            assert!(pos("b") < pos("c"), "comm waits for the external signal");
            assert!(pos("b") < pos("d") && pos("c") < pos("d"));
        }
    }

    #[test]
    fn overlapped_respects_dependencies() {
        for workers in 1..=4 {
            let order = diamond_order(ExecMode::Overlapped {
                compute_workers: workers,
            });
            assert_eq!(order.len(), 4);
            let pos = |n| order.iter().position(|&x| x == n).unwrap();
            assert!(pos("a") < pos("b"));
            assert!(pos("b") < pos("c"));
            assert!(pos("d") == 3);
        }
    }

    #[test]
    fn unsignaled_external_stalls_with_error() {
        let mut g = TaskGraph::new();
        let ext = g.add_external(TaskKind::Backward(0), &[]);
        g.add(TaskKind::GradAllreduce(0), &[ext], |_| {});
        g.add(TaskKind::Custom("free"), &[], |_| {});
        let err = Executor::run(g, ExecMode::Replay { seed: 1 }).unwrap_err();
        assert_eq!(
            err,
            ExecError::Stalled {
                completed: 1,
                remaining: 2
            }
        );
    }

    #[test]
    fn complete_on_regular_task_errors() {
        let mut g = TaskGraph::new();
        let a = g.add(TaskKind::Custom("a"), &[], |_| {});
        let captured = Mutex::new(None);
        g.add(TaskKind::Custom("bad"), &[a], |ctl| {
            *captured.lock() = Some(ctl.complete(a));
        });
        Executor::run(g, ExecMode::Replay { seed: 0 }).unwrap();
        assert_eq!(captured.into_inner(), Some(Err(ExecError::NotExternal(a))));
    }

    #[test]
    fn every_task_runs_exactly_once_under_contention() {
        let n: usize = 64;
        let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let mut g = TaskGraph::new();
        let mut ids = Vec::new();
        for (i, c) in counts.iter().enumerate() {
            // Chain-of-3 structure: each task depends on a few earlier ones.
            let deps: Vec<TaskId> = [i.checked_sub(1), i.checked_sub(7)]
                .into_iter()
                .flatten()
                .map(|j| ids[j])
                .collect();
            let kind = if i % 5 == 0 {
                TaskKind::GradAllreduce(i)
            } else {
                TaskKind::Custom("compute")
            };
            ids.push(g.add(kind, &deps, move |_| {
                c.fetch_add(1, Ordering::Relaxed);
            }));
        }
        let report = Executor::run(g, ExecMode::Overlapped { compute_workers: 4 }).unwrap();
        assert_eq!(report.executed, n);
        for c in &counts {
            assert_eq!(c.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn telemetry_records_run_spans_on_worker_lanes() {
        let registry = kfac_telemetry::Registry::new();
        let _g = registry.install(0);
        let mut g = TaskGraph::new();
        let a = g.add(TaskKind::Custom("a"), &[], |_| {});
        g.add(TaskKind::GradAllreduce(0), &[a], |_| {});
        Executor::run(g, ExecMode::Overlapped { compute_workers: 1 }).unwrap();
        kfac_telemetry::flush();
        let events = registry.events();
        let runs: Vec<_> = events.iter().filter(|e| e.name == "exec/run").collect();
        assert_eq!(runs.len(), 2);
        assert!(
            runs.iter().any(|e| e.lane == Some("comm")),
            "comm task must record on the comm lane"
        );
        let readies = events.iter().filter(|e| e.name == "exec/ready").count();
        assert_eq!(readies, 2);
    }

    /// A failed comm node must poison its transitive dependents —
    /// including a *later comm task in cursor order* — while unrelated
    /// branches still execute and the run drains without hanging.
    #[test]
    fn failed_node_poisons_dependents_but_not_siblings() {
        use kfac_collectives::CollectiveError;
        for mode in [
            ExecMode::Replay { seed: 3 },
            ExecMode::Overlapped { compute_workers: 2 },
        ] {
            let ran = Mutex::new(Vec::new());
            let mut g = TaskGraph::new();
            let a = g.add_fallible(TaskKind::GradAllreduce(0), &[], |_| {
                Err(CollectiveError::Timeout { waited_ms: 5 })
            });
            let b = g.add(TaskKind::GradAllreduce(1), &[a], |_| ran.lock().push("b"));
            g.add(TaskKind::Custom("writeback"), &[b], |_| {
                ran.lock().push("c")
            });
            // Independent comm task AFTER the poisoned one in cursor
            // order: the comm worker must skip past `b` to reach it.
            g.add(TaskKind::GradAllreduce(2), &[], |_| ran.lock().push("d"));
            g.add(TaskKind::Custom("free"), &[], |_| ran.lock().push("e"));
            let report = Executor::run(g, mode).unwrap();
            assert_eq!(report.executed, 2, "{mode:?}");
            assert_eq!(report.poisoned, 2, "{mode:?}");
            assert_eq!(
                report.failed,
                vec![(a, CollectiveError::Timeout { waited_ms: 5 })]
            );
            let mut names = ran.into_inner();
            names.sort_unstable();
            assert_eq!(names, vec!["d", "e"], "{mode:?}");
        }
    }

    /// A panicking task must terminate the whole pool (workers wake,
    /// drain, and the panic propagates) instead of leaving siblings
    /// parked on the condvar forever.
    #[test]
    #[should_panic]
    fn panicking_task_propagates_instead_of_hanging() {
        let mut g = TaskGraph::new();
        let a = g.add(TaskKind::Custom("a"), &[], |_| panic!("task body exploded"));
        g.add(TaskKind::Custom("b"), &[a], |_| {});
        g.add(TaskKind::GradAllreduce(0), &[], |_| {});
        let _ = Executor::run(g, ExecMode::Overlapped { compute_workers: 4 });
    }

    /// Seeded replays of a graph whose tasks fold into an order-dependent
    /// accumulator DIFFER across seeds; the same graph with per-task slots
    /// (order-independent, like the real exchange graph) is bit-identical.
    #[test]
    fn replay_seeds_permute_order_but_not_independent_results() {
        let run_with = |seed: u64| -> (Vec<usize>, Vec<f32>) {
            let order = Mutex::new(Vec::new());
            let slots = Mutex::new(vec![0.0f32; 8]);
            let mut g = TaskGraph::new();
            for i in 0..8 {
                let (order, slots) = (&order, &slots);
                g.add(TaskKind::Custom("slot"), &[], move |_| {
                    order.lock().push(i);
                    slots.lock()[i] = (i * i) as f32;
                });
            }
            Executor::run(g, ExecMode::Replay { seed }).unwrap();
            (order.into_inner(), slots.into_inner())
        };
        let (o1, s1) = run_with(11);
        let (o2, s2) = run_with(17);
        let (o1b, s1b) = run_with(11);
        assert_eq!(o1, o1b, "same seed, same order");
        assert_eq!(s1, s1b);
        assert_ne!(o1, o2, "different seeds explore different orders");
        assert_eq!(s1, s2, "order-independent graphs give identical results");
    }
}
