//! Graph execution: overlapped worker pool and seeded serial replay.
//!
//! [`Executor::run`] consumes a [`TaskGraph`] and executes every node
//! exactly once, respecting dependency edges. Two modes:
//!
//! * [`ExecMode::Overlapped`] — a pool of compute workers (the calling
//!   thread is worker 0, so its spans stay on the rank's main timeline
//!   lane) plus **one dedicated communication worker**. Comm-lane tasks
//!   execute in ascending graph-id order on that worker; since every
//!   rank builds the identical graph, all ranks issue the identical
//!   collective sequence — the MPI/Horovod ordering contract — while
//!   compute tasks overlap freely around them.
//! * [`ExecMode::Replay`] — single-threaded: tasks run on the calling
//!   thread in a seeded pseudo-random topological order (comm tasks
//!   still in id order among themselves). Any seed yields a valid
//!   serial schedule; running the same graph under different seeds and
//!   comparing results bit-for-bit is how tests prove the graph's
//!   numerics are order-independent — which is exactly the argument
//!   that the overlapped schedule matches the sequential oracle.
//!
//! Telemetry: each executed task records an `exec/run` span on its
//! worker's lane (`comm`, `w1`… via [`Registry::install_lane`]) and an
//! `exec/ready` marker whose `wait_us` attribute is the time the task
//! sat ready before a worker picked it up.

use crate::graph::{TaskGraph, Work};
use crate::task::{Lane, TaskId, TaskKind};
use kfac_collectives::CollectiveError;
use kfac_telemetry::{Registry, Span, SpanEvent};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// How to execute the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Single-threaded deterministic replay: the seed picks among ready
    /// tasks, so different seeds exercise different (valid) topological
    /// orders. All ranks of a group must use the same seed.
    Replay {
        /// Selection seed; same seed + same graph = same order.
        seed: u64,
    },
    /// Worker pool: `compute_workers` compute threads (≥1; the caller
    /// is one of them) plus one dedicated communication worker.
    Overlapped {
        /// Number of compute workers, clamped to 1..=8.
        compute_workers: usize,
    },
}

/// Execution failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// No runnable task but the graph is incomplete — an external node
    /// was never signaled, or a dependency cycle slipped through.
    Stalled {
        /// Tasks that did complete.
        completed: usize,
        /// Tasks left unexecuted.
        remaining: usize,
    },
    /// [`ExecCtl::complete`] was called on a non-external task.
    NotExternal(TaskId),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Stalled {
                completed,
                remaining,
            } => write!(
                f,
                "graph stalled: {completed} tasks completed, {remaining} unrunnable \
                 (unsignaled external or cycle)"
            ),
            ExecError::NotExternal(id) => {
                write!(f, "complete() called on non-external task {id:?}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Summary of a completed run.
///
/// A run *completes* (returns `Ok`) even when individual nodes fail:
/// failed nodes are recorded here and their transitive dependents are
/// poisoned (skipped), but the rest of the graph drains normally.
/// `executed + failed.len() + poisoned` always equals the graph size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecReport {
    /// Tasks that ran to successful completion.
    pub executed: usize,
    /// Tasks whose work returned a collective error, with the error
    /// each surfaced.
    pub failed: Vec<(TaskId, CollectiveError)>,
    /// Tasks skipped because a transitive dependency failed.
    pub poisoned: usize,
}

/// Lane names for spawned compute workers (worker 0 is the caller and
/// keeps its own telemetry identity).
const WORKER_LANES: [&str; 8] = ["w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7"];

struct State {
    kinds: Vec<TaskKind>,
    external: Vec<bool>,
    indeg: Vec<usize>,
    dependents: Vec<Vec<usize>>,
    deps_done: Vec<bool>,
    signaled: Vec<bool>,
    completed: Vec<bool>,
    /// Ready compute-lane task ids, in the order they became ready.
    ready_compute: VecDeque<usize>,
    /// Comm-lane task ids, ascending; `next_comm` indexes the next one
    /// the comm worker may execute.
    comm_order: Vec<usize>,
    next_comm: usize,
    ready_at: Vec<Option<Instant>>,
    remaining: usize,
    active: usize,
    stalled: bool,
    failed: Vec<(usize, CollectiveError)>,
    poisoned: usize,
}

impl State {
    /// Whether the comm worker has a runnable task at its cursor.
    /// Poisoned (completed-without-running) comm tasks are skipped, so
    /// a failure upstream of one comm op can never wedge the cursor and
    /// starve later, independent comm ops.
    fn comm_has_ready(&mut self) -> bool {
        while self.next_comm < self.comm_order.len()
            && self.completed[self.comm_order[self.next_comm]]
        {
            self.next_comm += 1;
        }
        self.next_comm < self.comm_order.len() && self.deps_done[self.comm_order[self.next_comm]]
    }

    /// Dependencies of `id` are all complete: queue it, or — for an
    /// already-signaled external — push it onto the completion stack.
    fn now_ready(&mut self, id: usize, stack: &mut Vec<usize>) {
        if self.completed[id] {
            // Poisoned earlier by a failed sibling dependency; its last
            // live dependency completing must not resurrect it.
            return;
        }
        self.deps_done[id] = true;
        if self.external[id] {
            if self.signaled[id] {
                stack.push(id);
            }
        } else {
            self.ready_at[id] = Some(Instant::now());
            if self.kinds[id].lane() == Lane::Compute {
                self.ready_compute.push_back(id);
            }
            // Comm tasks need no queue entry: `deps_done` plus the fixed
            // `comm_order` cursor is the whole comm schedule.
        }
    }

    /// Mark `id` complete and cascade through its dependents (and any
    /// signaled externals that become unblocked).
    fn complete(&mut self, id: usize) {
        let mut stack = vec![id];
        while let Some(t) = stack.pop() {
            if self.completed[t] {
                continue;
            }
            self.completed[t] = true;
            self.remaining -= 1;
            for i in 0..self.dependents[t].len() {
                let d = self.dependents[t][i];
                self.indeg[d] -= 1;
                if self.indeg[d] == 0 {
                    self.now_ready(d, &mut stack);
                }
            }
        }
    }

    fn signal(&mut self, id: usize) {
        if self.signaled[id] {
            return;
        }
        self.signaled[id] = true;
        if self.deps_done[id] && !self.completed[id] {
            self.complete(id);
        }
    }

    /// Record `id` as failed and poison its transitive dependents:
    /// every one is marked done *without running*, so the graph drains
    /// instead of deadlocking on completions that will never come.
    /// Unrelated branches are untouched and still execute.
    fn fail(&mut self, id: usize, err: CollectiveError) {
        if self.completed[id] {
            return;
        }
        self.failed.push((id, err));
        self.completed[id] = true;
        self.remaining -= 1;
        let mut stack: Vec<usize> = self.dependents[id].clone();
        while let Some(d) = stack.pop() {
            if self.completed[d] {
                continue;
            }
            self.completed[d] = true;
            self.remaining -= 1;
            self.poisoned += 1;
            stack.extend(self.dependents[d].iter().copied());
        }
    }
}

struct Inner {
    state: Mutex<State>,
    cv: Condvar,
    raw_seq: AtomicU64,
}

/// Handle passed to every running task; lets work signal external
/// completion events (e.g. per-layer backward completion from inside
/// the backward sweep) into the scheduler mid-task.
pub struct ExecCtl<'a> {
    inner: &'a Inner,
}

impl ExecCtl<'_> {
    /// Signal external task `id` as complete. It finishes once its
    /// dependencies (if any) are also done; signaling twice is a no-op.
    /// Errors if `id` is not an external node.
    pub fn complete(&self, id: TaskId) -> Result<(), ExecError> {
        let mut st = self.inner.state.lock();
        if !st.external[id.0] {
            return Err(ExecError::NotExternal(id));
        }
        st.signal(id.0);
        drop(st);
        self.inner.cv.notify_all();
        Ok(())
    }
}

fn record_ready(
    inner: &Inner,
    telem: &Option<(Registry, usize)>,
    lane: Option<&'static str>,
    kind: TaskKind,
    ready_since: Option<Instant>,
) {
    let (Some((reg, rank)), Some(t0)) = (telem.as_ref(), ready_since) else {
        return;
    };
    let now = reg.micros_at(Instant::now());
    let start = reg.micros_at(t0);
    reg.record_raw(SpanEvent {
        name: "exec/ready",
        rank: *rank,
        lane,
        depth: 0,
        seq: inner.raw_seq.fetch_add(1, Ordering::Relaxed),
        start_us: now,
        dur_us: 0,
        attrs: vec![
            ("task", kind.label().into()),
            ("wait_us", now.saturating_sub(start).into()),
        ],
    });
}

/// Drop guard arming worker shutdown on *any* panic that escapes
/// [`execute_picked`] — including panics outside the `catch_unwind`
/// around the task body (e.g. the work-cell `expect` below). Without
/// it, an unwinding worker would leave its siblings parked on the
/// condvar forever, waiting for a completion that will never come.
struct StallGuard<'a> {
    inner: &'a Inner,
}

impl Drop for StallGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.inner.state.lock().stalled = true;
            self.inner.cv.notify_all();
        }
    }
}

/// Run one picked task outside the lock, then complete (or fail) it.
fn execute_picked(
    inner: &Inner,
    works: &Mutex<Vec<Option<Work<'_>>>>,
    telem: &Option<(Registry, usize)>,
    lane: Option<&'static str>,
    id: usize,
    kind: TaskKind,
    ready_since: Option<Instant>,
) {
    let _stall = StallGuard { inner };
    record_ready(inner, telem, lane, kind, ready_since);
    let work = works.lock()[id].take().expect("task work taken twice");
    let Work::Run(f) = work else {
        unreachable!("external tasks are completed, never scheduled");
    };
    let ctl = ExecCtl { inner };
    let result = catch_unwind(AssertUnwindSafe(|| {
        let _span = Span::enter("exec/run")
            .with("task", kind.label())
            .with("id", id);
        f(&ctl)
    }));
    let mut st = inner.state.lock();
    st.active -= 1;
    match result {
        Ok(Ok(())) => st.complete(id),
        Ok(Err(e)) => st.fail(id, e),
        // `StallGuard` marks the run stalled and wakes every worker as
        // the unwind passes through; `st` unlocks first (it was
        // declared later, so it drops earlier).
        Err(payload) => resume_unwind(payload),
    }
    drop(st);
    inner.cv.notify_all();
}

/// Compute-worker loop; `lane` is `None` for the calling thread (its
/// spans stay on the rank's main timeline).
fn compute_worker(
    inner: &Inner,
    works: &Mutex<Vec<Option<Work<'_>>>>,
    telem: &Option<(Registry, usize)>,
    lane: Option<&'static str>,
) {
    let _guard = match (telem, lane) {
        (Some((reg, rank)), Some(l)) => Some(reg.install_lane(*rank, l)),
        _ => None,
    };
    loop {
        let picked = {
            let mut st = inner.state.lock();
            loop {
                if st.remaining == 0 || st.stalled {
                    break None;
                }
                if let Some(id) = st.ready_compute.pop_front() {
                    st.active += 1;
                    break Some((id, st.kinds[id], st.ready_at[id]));
                }
                if st.active == 0 && !st.comm_has_ready() {
                    st.stalled = true;
                    break None;
                }
                inner.cv.wait(&mut st);
            }
        };
        let Some((id, kind, ready_since)) = picked else {
            inner.cv.notify_all();
            return;
        };
        execute_picked(inner, works, telem, lane, id, kind, ready_since);
    }
}

/// The dedicated communication worker: executes comm-lane tasks in
/// ascending id order, one at a time, as they become ready.
fn comm_worker(
    inner: &Inner,
    works: &Mutex<Vec<Option<Work<'_>>>>,
    telem: &Option<(Registry, usize)>,
) {
    let _guard = telem
        .as_ref()
        .map(|(reg, rank)| reg.install_lane(*rank, "comm"));
    loop {
        let picked = {
            let mut st = inner.state.lock();
            loop {
                if st.remaining == 0 || st.stalled {
                    break None;
                }
                if st.comm_has_ready() {
                    let id = st.comm_order[st.next_comm];
                    st.next_comm += 1;
                    st.active += 1;
                    break Some((id, st.kinds[id], st.ready_at[id]));
                }
                if st.active == 0 && st.ready_compute.is_empty() {
                    st.stalled = true;
                    break None;
                }
                inner.cv.wait(&mut st);
            }
        };
        let Some((id, kind, ready_since)) = picked else {
            inner.cv.notify_all();
            return;
        };
        execute_picked(inner, works, telem, Some("comm"), id, kind, ready_since);
    }
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Seeded single-threaded replay: repeatedly pick a pseudo-random
/// eligible task (comm tasks only in id order) and run it to completion.
fn run_replay(
    inner: &Inner,
    works: &Mutex<Vec<Option<Work<'_>>>>,
    telem: &Option<(Registry, usize)>,
    seed: u64,
    n: usize,
) {
    let mut s = seed
        .wrapping_mul(2654435769)
        .wrapping_add(0x9E3779B97F4A7C15)
        | 1;
    loop {
        let picked = {
            let mut st = inner.state.lock();
            if st.remaining == 0 {
                None
            } else {
                let next_comm_id = if st.comm_has_ready() {
                    Some(st.comm_order[st.next_comm])
                } else {
                    None
                };
                let mut elig: Vec<usize> = (0..n)
                    .filter(|&i| {
                        !st.completed[i]
                            && st.deps_done[i]
                            && !st.external[i]
                            && st.kinds[i].lane() == Lane::Compute
                    })
                    .collect();
                elig.extend(next_comm_id);
                if elig.is_empty() {
                    st.stalled = true;
                    None
                } else {
                    let id = elig[(xorshift(&mut s) % elig.len() as u64) as usize];
                    if next_comm_id == Some(id) {
                        st.next_comm += 1;
                    }
                    st.active += 1;
                    Some((id, st.kinds[id], st.ready_at[id]))
                }
            }
        };
        let Some((id, kind, ready_since)) = picked else {
            return;
        };
        execute_picked(inner, works, telem, None, id, kind, ready_since);
    }
}

/// Executes [`TaskGraph`]s. Stateless; all run state lives per call.
pub struct Executor;

impl Executor {
    /// Execute every node of `graph` under `mode`. Telemetry, if the
    /// calling thread has a registry installed, is attributed to that
    /// registry and rank; worker threads join it on their own lanes.
    pub fn run(graph: TaskGraph<'_>, mode: ExecMode) -> Result<ExecReport, ExecError> {
        let n = graph.nodes.len();
        let mut kinds = Vec::with_capacity(n);
        let mut external = Vec::with_capacity(n);
        let mut indeg = vec![0usize; n];
        let mut dependents = vec![Vec::new(); n];
        let mut work_cells = Vec::with_capacity(n);
        for (i, node) in graph.nodes.into_iter().enumerate() {
            kinds.push(node.kind);
            external.push(matches!(node.work, Work::External));
            indeg[i] = node.deps.len();
            for d in &node.deps {
                dependents[d.0].push(i);
            }
            work_cells.push(match node.work {
                Work::External => None,
                w => Some(w),
            });
        }
        let comm_order: Vec<usize> = (0..n).filter(|&i| kinds[i].lane() == Lane::Comm).collect();

        let mut st = State {
            kinds,
            external,
            indeg,
            dependents,
            deps_done: vec![false; n],
            signaled: vec![false; n],
            completed: vec![false; n],
            ready_compute: VecDeque::new(),
            comm_order,
            next_comm: 0,
            ready_at: vec![None; n],
            remaining: n,
            active: 0,
            stalled: false,
            failed: Vec::new(),
            poisoned: 0,
        };
        // Seed the ready set with zero-dependency nodes.
        let mut stack = Vec::new();
        for id in 0..n {
            if st.indeg[id] == 0 {
                st.now_ready(id, &mut stack);
            }
        }
        // (Externals can't be signaled before the run starts, so the
        // stack stays empty here; kept for signature symmetry.)
        debug_assert!(stack.is_empty());

        let inner = Inner {
            state: Mutex::new(st),
            cv: Condvar::new(),
            raw_seq: AtomicU64::new(1 << 32),
        };
        let works = Mutex::new(work_cells);
        let telem = kfac_telemetry::current();

        match mode {
            ExecMode::Replay { seed } => run_replay(&inner, &works, &telem, seed, n),
            ExecMode::Overlapped { compute_workers } => {
                let compute_workers = compute_workers.clamp(1, WORKER_LANES.len());
                std::thread::scope(|s| {
                    for &lane in WORKER_LANES.iter().take(compute_workers).skip(1) {
                        let (inner, works, telem) = (&inner, &works, &telem);
                        s.spawn(move || compute_worker(inner, works, telem, Some(lane)));
                    }
                    {
                        let (inner, works, telem) = (&inner, &works, &telem);
                        s.spawn(move || comm_worker(inner, works, telem));
                    }
                    compute_worker(&inner, &works, &telem, None);
                });
            }
        }

        let mut st = inner.state.lock();
        if st.remaining > 0 {
            Err(ExecError::Stalled {
                completed: n - st.remaining,
                remaining: st.remaining,
            })
        } else {
            let failed: Vec<(TaskId, CollectiveError)> =
                st.failed.drain(..).map(|(id, e)| (TaskId(id), e)).collect();
            let poisoned = st.poisoned;
            Ok(ExecReport {
                executed: n - failed.len() - poisoned,
                failed,
                poisoned,
            })
        }
    }
}
