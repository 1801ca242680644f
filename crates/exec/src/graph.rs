//! Dependency graph of typed tasks.
//!
//! A [`TaskGraph`] is built once per training iteration: nodes carry
//! their work as closures borrowing the iteration's state, edges point
//! at earlier nodes only (enforced at [`TaskGraph::add`] time), so the
//! graph is acyclic by construction and ascending id order is always a
//! valid serial schedule. *External* nodes carry no work: they model
//! completion events signaled from inside another task (a layer
//! finishing its slice of the backward sweep) via
//! [`ExecCtl::complete`](crate::ExecCtl::complete).

use crate::executor::ExecCtl;
use crate::task::{TaskId, TaskKind};
use kfac_collectives::CollectiveError;

/// Boxed task body: `Err` marks the node failed and poisons its
/// transitive dependents.
pub(crate) type TaskFn<'w> = Box<dyn FnOnce(&ExecCtl) -> Result<(), CollectiveError> + Send + 'w>;

pub(crate) enum Work<'w> {
    /// Run this closure on a worker. An `Err` marks the node failed and
    /// poisons its transitive dependents instead of running them.
    Run(TaskFn<'w>),
    /// No work: completes when signaled via `ExecCtl::complete` (and
    /// all dependencies, if any, are done).
    External,
}

pub(crate) struct Node<'w> {
    pub kind: TaskKind,
    pub deps: Vec<TaskId>,
    pub work: Work<'w>,
}

/// A buildable task graph; consumed by [`Executor::run`](crate::Executor::run).
#[derive(Default)]
pub struct TaskGraph<'w> {
    pub(crate) nodes: Vec<Node<'w>>,
}

impl<'w> TaskGraph<'w> {
    /// Empty graph.
    pub fn new() -> Self {
        TaskGraph { nodes: Vec::new() }
    }

    fn push(&mut self, kind: TaskKind, deps: &[TaskId], work: Work<'w>) -> TaskId {
        let id = TaskId(self.nodes.len());
        for d in deps {
            assert!(
                d.0 < id.0,
                "dependency {:?} of task {:?} must be added before it",
                d,
                id
            );
        }
        self.nodes.push(Node {
            kind,
            deps: deps.to_vec(),
            work,
        });
        id
    }

    /// Add a task executing `f` once all `deps` complete. Dependencies
    /// must already be in the graph (smaller ids), which keeps the
    /// graph acyclic without a separate validation pass.
    pub fn add(
        &mut self,
        kind: TaskKind,
        deps: &[TaskId],
        f: impl FnOnce(&ExecCtl) + Send + 'w,
    ) -> TaskId {
        self.push(
            kind,
            deps,
            Work::Run(Box::new(move |ctl| {
                f(ctl);
                Ok(())
            })),
        )
    }

    /// Add a task whose work can fail. On `Err` the node is recorded in
    /// [`ExecReport::failed`](crate::ExecReport) and every transitive
    /// dependent is *poisoned* — marked done without running — so the
    /// rest of the graph still drains and the run never hangs.
    pub fn add_fallible(
        &mut self,
        kind: TaskKind,
        deps: &[TaskId],
        f: impl FnOnce(&ExecCtl) -> Result<(), CollectiveError> + Send + 'w,
    ) -> TaskId {
        self.push(kind, deps, Work::Run(Box::new(f)))
    }

    /// Add an external completion event: the node completes once all
    /// `deps` are done AND some running task has signaled it with
    /// [`ExecCtl::complete`](crate::ExecCtl::complete).
    pub fn add_external(&mut self, kind: TaskKind, deps: &[TaskId]) -> TaskId {
        self.push(kind, deps, Work::External)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_deps_must_precede() {
        let mut g = TaskGraph::new();
        let a = g.add(TaskKind::Custom("a"), &[], |_| {});
        let b = g.add(TaskKind::Custom("x"), &[a], |_| {});
        assert_eq!((a, b), (TaskId(0), TaskId(1)));
        assert_eq!(g.nodes.len(), 2);
    }

    #[test]
    #[should_panic(expected = "must be added before")]
    fn forward_dependency_panics() {
        let mut g = TaskGraph::new();
        g.add(TaskKind::Custom("a"), &[TaskId(5)], |_| {});
    }
}
