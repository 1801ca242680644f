//! The shared telemetry registry: lock-free span collection plus named
//! metric handles, shared by every rank of a training run.

use std::collections::BTreeMap;
use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::metrics::{Counter, Gauge, Histogram};

/// A typed span attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer (byte counts, layer indices, iteration numbers).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point.
    F64(f64),
    /// Short string (traffic class names, strategy labels).
    Str(String),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}

impl From<u32> for AttrValue {
    fn from(v: u32) -> Self {
        AttrValue::U64(v as u64)
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}

impl From<i32> for AttrValue {
    fn from(v: i32) -> Self {
        AttrValue::I64(v as i64)
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}

impl From<f32> for AttrValue {
    fn from(v: f32) -> Self {
        AttrValue::F64(v as f64)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

/// One completed span, as stored in the registry.
///
/// Times are microseconds since the registry's origin instant, so events
/// from different rank threads share one clock and can be laid out on a
/// common timeline (this is also exactly what the Chrome trace format
/// wants for `ts`/`dur`).
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// Span name, conventionally `area/stage` (e.g. `kfac/eig_comp`).
    pub name: &'static str,
    /// Rank whose thread recorded the span.
    pub rank: usize,
    /// Worker lane within the rank (e.g. `"comm"`, `"w1"`); `None` for
    /// the rank's main thread. Exporters give each `(rank, lane)` pair
    /// its own timeline row so overlap is visible.
    pub lane: Option<&'static str>,
    /// Nesting depth at entry (0 = top level).
    pub depth: u32,
    /// Per-thread completion sequence number; orders same-rank events
    /// even when their timestamps tie.
    pub seq: u64,
    /// Start, µs since the registry origin.
    pub start_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
    /// Typed attributes attached via [`crate::Span::with`].
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanEvent {
    /// End time, µs since the registry origin.
    pub fn end_us(&self) -> u64 {
        self.start_us + self.dur_us
    }

    /// Look up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// Aggregate over all recorded spans with one name (and optionally one
/// rank): invocation count and summed duration.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanAgg {
    /// Number of completed spans.
    pub count: u64,
    /// Summed span duration.
    pub total: Duration,
}

/// Lock-free stack of event batches (a Treiber stack). Rank threads push
/// batches concurrently without contending on a lock; readers swap the
/// whole stack out at once.
struct EventStack {
    head: AtomicPtr<StackNode>,
}

struct StackNode {
    batch: Vec<SpanEvent>,
    next: *mut StackNode,
}

// SAFETY: nodes are heap-allocated, reachable only through `head`, and
// transferred wholesale by `swap`; the contained events are Send.
unsafe impl Send for EventStack {}
unsafe impl Sync for EventStack {}

impl EventStack {
    const fn new() -> Self {
        EventStack {
            head: AtomicPtr::new(ptr::null_mut()),
        }
    }

    fn push(&self, batch: Vec<SpanEvent>) {
        if batch.is_empty() {
            return;
        }
        let node = Box::into_raw(Box::new(StackNode {
            batch,
            next: ptr::null_mut(),
        }));
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            // SAFETY: `node` is uniquely owned until the CAS publishes it.
            unsafe { (*node).next = head };
            match self
                .head
                .compare_exchange(head, node, Ordering::Release, Ordering::Acquire)
            {
                Ok(_) => return,
                Err(current) => head = current,
            }
        }
    }

    fn drain(&self) -> Vec<SpanEvent> {
        let mut node = self.head.swap(ptr::null_mut(), Ordering::AcqRel);
        let mut out = Vec::new();
        while !node.is_null() {
            // SAFETY: the swap made this list exclusively ours.
            let owned = unsafe { Box::from_raw(node) };
            node = owned.next;
            out.extend(owned.batch);
        }
        out
    }
}

impl Drop for EventStack {
    fn drop(&mut self) {
        self.drain();
    }
}

struct Inner {
    origin: Instant,
    pending: EventStack,
    collected: Mutex<Vec<SpanEvent>>,
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

/// Shared telemetry registry. Cheap to clone (an `Arc` handle); one
/// registry serves all ranks of a run. Rank threads attach themselves
/// with [`Registry::install`]; spans they record flow into the registry
/// through lock-free batch publication.
#[derive(Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("events", &self.events().len())
            .finish()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// Create an empty registry; its clock origin is "now".
    pub fn new() -> Self {
        Registry {
            inner: Arc::new(Inner {
                origin: Instant::now(),
                pending: EventStack::new(),
                collected: Mutex::new(Vec::new()),
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
            }),
        }
    }

    /// Microseconds from the registry origin to `t` (0 if `t` precedes it).
    pub fn micros_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.inner.origin).as_micros() as u64
    }

    /// Publish a batch of completed spans (called by the thread-local
    /// recorder on flush; lock-free).
    pub(crate) fn publish(&self, batch: Vec<SpanEvent>) {
        self.inner.pending.push(batch);
    }

    /// Snapshot of every recorded span, sorted by `(rank, start_us, seq)`.
    ///
    /// Spans still buffered thread-locally by live [`crate::InstallGuard`]s
    /// are not included until those guards flush (drop); call this after
    /// rank threads finish, or accept a slightly stale view.
    pub fn events(&self) -> Vec<SpanEvent> {
        let mut collected = self
            .inner
            .collected
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        collected.extend(self.inner.pending.drain());
        let mut out = collected.clone();
        drop(collected);
        out.sort_by_key(|a| (a.rank, a.start_us, a.seq));
        out
    }

    /// Count + summed duration of spans named `name`, optionally
    /// restricted to one rank.
    pub fn span_agg(&self, name: &str, rank: Option<usize>) -> SpanAgg {
        let mut agg = SpanAgg::default();
        for ev in self.events() {
            if ev.name == name && rank.is_none_or(|r| ev.rank == r) {
                agg.count += 1;
                agg.total += Duration::from_micros(ev.dur_us);
            }
        }
        agg
    }

    /// Get or create the monotonic counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.inner
            .counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.inner
            .gauges
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Get or create the log-scale histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.inner
            .histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Snapshot of all counters as `(name, value)`, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.inner
            .counters
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, c)| (k.clone(), c.get()))
            .collect()
    }

    /// Snapshot of all gauges as `(name, value)`, sorted by name.
    pub fn gauges(&self) -> Vec<(String, f64)> {
        self.inner
            .gauges
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, g)| (k.clone(), g.get()))
            .collect()
    }

    /// Snapshot of all histograms as `(name, handle)`, sorted by name.
    pub fn histograms(&self) -> Vec<(String, Histogram)> {
        self.inner
            .histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(k, h)| (k.clone(), h.clone()))
            .collect()
    }
}
