//! Benchmark-side spans: recorded around the calls into each crate,
//! kept in memory, written out when the run ends.
//!
//! One [`Tracer`] belongs to one rank. Spans opened with
//! [`Tracer::enter`] nest on the rank's main thread; [`Tracer::leaf`]
//! records a finished interval from *any* thread of the rank (the
//! executor's comm worker issues collectives off the main thread) as a
//! child of whatever span the main thread has open at that moment.

use crate::jsonio::{num, obj, text, Json};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Row name (`nn.forward`, `comm.grad`, …).
    pub name: &'static str,
    /// Start, ns since the trace origin (shared by all ranks).
    pub start_ns: u64,
    /// End, ns since the trace origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same rank's list.
    pub parent: Option<usize>,
    /// Training iteration the span belongs to.
    pub iter: u32,
    /// Payload bytes (collectives), 0 elsewhere.
    pub bytes: u64,
}

impl SpanRec {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct State {
    spans: Vec<SpanRec>,
    open: Vec<usize>,
    iter: u32,
}

/// Per-rank span recorder.
pub struct Tracer {
    origin: Instant,
    state: Mutex<State>,
}

/// Closes its span on drop.
#[must_use = "a span measures until dropped"]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: usize,
}

impl Tracer {
    /// Recorder whose clock starts at `origin`; give every rank the same
    /// origin so their spans share a timeline.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            state: Mutex::new(State {
                spans: Vec::new(),
                open: Vec::new(),
                iter: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("a thread panicked while recording a span")
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Stamp following spans with iteration `iter`.
    pub fn set_iter(&self, iter: u32) {
        self.lock().iter = iter;
    }

    /// Open a nested span on the rank's main thread.
    pub fn enter(&self, name: &'static str) -> SpanGuard<'_> {
        let mut st = self.lock();
        let id = st.spans.len();
        let rec = SpanRec {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: st.open.last().copied(),
            iter: st.iter,
            bytes: 0,
        };
        st.spans.push(rec);
        st.open.push(id);
        // Stamp last, so the bookkeeping above is charged to the parent.
        st.spans[id].start_ns = self.ns(Instant::now());
        SpanGuard { tracer: self, id }
    }

    /// Record a finished interval as a child of the innermost open span.
    pub fn leaf(&self, name: &'static str, start: Instant, end: Instant, bytes: u64) {
        let mut st = self.lock();
        let rec = SpanRec {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: st.open.last().copied(),
            iter: st.iter,
            bytes,
        };
        st.spans.push(rec);
    }

    /// Time `f` as a nested span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _guard = self.enter(name);
        f()
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.lock().spans.clone()
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.ns(Instant::now());
        // Never panic in drop: a poisoned lock means a rank thread
        // already failed, and that failure is what gets reported.
        if let Ok(mut st) = self.tracer.state.lock() {
            st.spans[self.id].end_ns = end;
            if st.open.last() == Some(&self.id) {
                st.open.pop();
            }
        }
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover (children may overlap each other, so the cover
/// is the length of their union, clipped to the parent).
pub fn self_times_ns(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Summed self time per span name, in ns, first-seen order.
pub fn self_time_by_name(spans: &[SpanRec]) -> Vec<(&'static str, u64)> {
    let mut out: Vec<(&'static str, u64)> = Vec::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        match out.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, total)) => *total += self_ns,
            None => out.push((s.name, self_ns)),
        }
    }
    out
}

/// Summed self time of the spans named `name`, in ms.
pub fn self_ms(by_name: &[(&'static str, u64)], name: &str) -> f64 {
    by_name
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, ns)| *ns as f64 / 1e6)
}

/// The trace file: every span of every rank of every traced pass.
pub fn to_json(workload: &str, passes: &[(&str, Vec<Vec<SpanRec>>)]) -> Json {
    let mut spans = Vec::new();
    for (pass, ranks) in passes {
        for (rank, list) in ranks.iter().enumerate() {
            for (id, s) in list.iter().enumerate() {
                spans.push(obj([
                    ("pass", text(*pass)),
                    ("rank", num(rank as f64)),
                    ("id", num(id as f64)),
                    ("parent", s.parent.map_or(Json::Null, |p| num(p as f64))),
                    ("name", text(s.name)),
                    ("iter", num(f64::from(s.iter))),
                    ("start_ns", num(s.start_ns as f64)),
                    ("end_ns", num(s.end_ns as f64)),
                    ("bytes", num(s.bytes as f64)),
                ]));
            }
        }
    }
    obj([("workload", text(workload)), ("spans", Json::Arr(spans))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            iter: 0,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_is_parent_minus_union_of_children() {
        let spans = vec![
            rec("iter", 0, 100, None),
            rec("a", 10, 30, Some(0)),
            // Overlaps `a` by 10 and pokes 20 past the parent's end.
            rec("b", 20, 120, Some(0)),
            rec("a.child", 12, 18, Some(1)),
        ];
        // Children cover [10, 100] of the parent: 90.
        assert_eq!(self_times_ns(&spans), vec![10, 14, 100, 6]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(self_ms(&by_name, "a"), 14e-6);
        assert_eq!(self_ms(&by_name, "missing"), 0.0);
    }

    #[test]
    fn rows_partition_the_top_level_span() {
        // With properly nested children, self times sum to the root.
        let spans = vec![
            rec("iter", 0, 50, None),
            rec("x", 5, 20, Some(0)),
            rec("y", 20, 45, Some(0)),
            rec("y.z", 25, 30, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 50);
    }

    #[test]
    fn tracer_nests_and_attaches_leaves_to_the_open_span() {
        let tracer = Tracer::new(Instant::now());
        tracer.set_iter(7);
        {
            let _outer = tracer.enter("outer");
            tracer.span("inner", || {
                let t = Instant::now();
                tracer.leaf("leaf", t, t, 64);
            });
        }
        let spans = tracer.spans();
        assert_eq!(
            spans.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["outer", "inner", "leaf"]
        );
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!((spans[2].bytes, spans[2].iter), (64, 7));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
