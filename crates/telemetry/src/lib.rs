//! Unified telemetry for kfac-rs: per-rank span tracing, typed metrics,
//! and exporters.
//!
//! One [`Registry`] serves a whole training run. Each rank thread
//! attaches itself with [`Registry::install`]; from then on,
//! [`Span::enter`] records timed, attributed, correctly-nested spans
//! into a thread-local buffer that is published to the registry
//! lock-free (a Treiber stack of batches), so instrumentation costs the
//! hot path an `Instant::now()` pair and a buffer push — no locks, no
//! cross-thread traffic until flush.
//!
//! ```
//! use kfac_telemetry::{Registry, Span};
//!
//! let registry = Registry::new();
//! {
//!     let _guard = registry.install(0); // this thread records as rank 0
//!     for layer in 0..3 {
//!         let _span = Span::enter("kfac/eigendecomp").with("layer", layer);
//!         // ... work ...
//!     }
//! } // guard drop flushes this thread's buffered spans
//! assert_eq!(registry.span_agg("kfac/eigendecomp", Some(0)).count, 3);
//! println!("{}", kfac_telemetry::export::stage_table(&registry.events()));
//! ```
//!
//! Code that may run with or without telemetry can call [`Span::enter`]
//! unconditionally: on a thread with no installed registry it is a
//! no-op (no timestamps are even taken). [`current`] exposes the
//! ambient registry so long-lived objects (e.g. the K-FAC
//! preconditioner) can capture a handle at construction and later
//! answer stats queries from the same data the trace exporters see.
//!
//! Metrics ([`Counter`], [`Gauge`], [`Histogram`]) are named handles
//! obtained from the registry (or used standalone); histograms are
//! log-scale with bounded-error percentile queries.
//!
//! Exporters live in [`export`]: Chrome trace-event JSON (one timeline
//! thread per rank, loadable in Perfetto), JSONL, Prometheus text
//! exposition, and the per-stage breakdown table printed at the end of
//! `xp` runs.
//!
//! The *live* observability layer builds on the same registry:
//! [`server::MetricsServer`] serves `/metrics` and `/health` over
//! localhost HTTP while a run is in flight, [`watchdog::Watchdog`]
//! evaluates health rules (heartbeat stall, non-finite values, factor
//! staleness, collective retry rate) over the metric names in
//! [`watchdog::names`], and [`recorder::FlightRecorder`] keeps a
//! bounded black box of recent snapshots + span tail for post-fault
//! dumps.

#![warn(missing_docs)]

pub mod export;
pub mod json;
mod metrics;
pub mod recorder;
mod registry;
pub mod server;
pub mod watchdog;

pub use metrics::{Counter, Gauge, Histogram};
pub use recorder::{FlightRecorder, MetricsSnapshot};
pub use registry::{AttrValue, Registry, SpanAgg, SpanEvent};
pub use server::MetricsServer;
pub use watchdog::{HealthReport, Severity, Watchdog, WatchdogConfig};

use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::Instant;

static RUN_CONFIG: OnceLock<String> = OnceLock::new();

/// Record the one-line resolved configuration this process runs under
/// (`xp` passes its `RuntimeConfig`'s `Display`). Process-wide and
/// write-once — the first call wins — so every exporter, whichever
/// registry it reads, reports the same line: the
/// `kfac_runtime_config_info` series of [`export::prometheus`] and the
/// `config` header of [`FlightRecorder::dump_json`].
pub fn set_run_config(line: String) {
    let _ = RUN_CONFIG.set(line);
}

/// The line recorded by [`set_run_config`], if any.
pub fn run_config() -> Option<&'static str> {
    RUN_CONFIG.get().map(String::as_str)
}

/// Spans buffered per thread before a lock-free publish to the registry.
const FLUSH_BATCH: usize = 256;

struct ThreadCtx {
    registry: Registry,
    rank: usize,
    lane: Option<&'static str>,
    depth: u32,
    seq: u64,
    buf: Vec<SpanEvent>,
}

impl ThreadCtx {
    fn flush(&mut self) {
        if !self.buf.is_empty() {
            self.registry.publish(std::mem::take(&mut self.buf));
        }
    }
}

thread_local! {
    static CTX: RefCell<Option<ThreadCtx>> = const { RefCell::new(None) };
}

/// RAII guard binding the current thread to a registry as one rank.
/// Dropping it flushes buffered spans and restores whatever recorder
/// (if any) was installed before. Not `Send`: it must drop on the
/// thread that created it.
pub struct InstallGuard {
    prev: Option<ThreadCtx>,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Registry {
    /// Attach the current thread to this registry, recording as `rank`.
    /// Spans entered while the returned guard lives are collected here.
    /// Nested installs stack: the previous recorder is restored on drop.
    pub fn install(&self, rank: usize) -> InstallGuard {
        self.install_inner(rank, None)
    }

    /// Like [`Registry::install`], but tags every span recorded on this
    /// thread with a worker `lane` (e.g. `"comm"`, `"w1"`). Lanes give
    /// worker threads of one rank their own timeline rows in the Chrome
    /// trace, so compute/communication overlap is visible in Perfetto.
    pub fn install_lane(&self, rank: usize, lane: &'static str) -> InstallGuard {
        self.install_inner(rank, Some(lane))
    }

    fn install_inner(&self, rank: usize, lane: Option<&'static str>) -> InstallGuard {
        let prev = CTX.with(|c| {
            c.borrow_mut().replace(ThreadCtx {
                registry: self.clone(),
                rank,
                lane,
                depth: 0,
                seq: 0,
                buf: Vec::with_capacity(FLUSH_BATCH),
            })
        });
        InstallGuard {
            prev,
            _not_send: std::marker::PhantomData,
        }
    }
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        CTX.with(|c| {
            let mut slot = c.borrow_mut();
            if let Some(mut ctx) = slot.take() {
                ctx.flush();
            }
            *slot = self.prev.take();
        });
    }
}

/// Flush the current thread's buffered spans to its registry now.
///
/// Spans normally publish in batches (and always on guard drop); call
/// this before reading aggregates mid-run — e.g. a stats snapshot taken
/// while the recorder is still installed.
pub fn flush() {
    CTX.with(|c| {
        if let Some(ctx) = c.borrow_mut().as_mut() {
            ctx.flush();
        }
    });
}

/// The registry installed on the current thread, if any, together with
/// the rank it records as. Lets long-lived objects capture the ambient
/// telemetry at construction time.
pub fn current() -> Option<(Registry, usize)> {
    CTX.with(|c| {
        c.borrow()
            .as_ref()
            .map(|ctx| (ctx.registry.clone(), ctx.rank))
    })
}

/// An in-progress timed span, recorded on drop.
///
/// Entering costs nothing on threads without an installed registry
/// (`start` stays `None` and drop is a no-op), so library code
/// instruments unconditionally.
#[must_use = "a span measures until dropped; binding it to _ drops immediately"]
pub struct Span {
    name: &'static str,
    start: Option<Instant>,
    depth: u32,
    attrs: Vec<(&'static str, AttrValue)>,
}

impl Span {
    /// Start a span named `name` (conventionally `area/stage`).
    pub fn enter(name: &'static str) -> Span {
        let active = CTX.with(|c| {
            c.borrow_mut().as_mut().map(|ctx| {
                let depth = ctx.depth;
                ctx.depth += 1;
                depth
            })
        });
        match active {
            Some(depth) => Span {
                name,
                start: Some(Instant::now()),
                depth,
                attrs: Vec::new(),
            },
            None => Span {
                name,
                start: None,
                depth: 0,
                attrs: Vec::new(),
            },
        }
    }

    /// Attach a typed attribute (builder-style).
    pub fn with(mut self, key: &'static str, value: impl Into<AttrValue>) -> Span {
        if self.start.is_some() {
            self.attrs.push((key, value.into()));
        }
        self
    }

    /// Attach a typed attribute to a span already bound to a variable.
    pub fn set(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if self.start.is_some() {
            self.attrs.push((key, value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let end = Instant::now();
        CTX.with(|c| {
            if let Some(ctx) = c.borrow_mut().as_mut() {
                ctx.depth = ctx.depth.saturating_sub(1);
                let seq = ctx.seq;
                ctx.seq += 1;
                let start_us = ctx.registry.micros_at(start);
                let end_us = ctx.registry.micros_at(end);
                ctx.buf.push(SpanEvent {
                    name: self.name,
                    rank: ctx.rank,
                    lane: ctx.lane,
                    depth: self.depth,
                    seq,
                    start_us,
                    dur_us: end_us.saturating_sub(start_us),
                    attrs: std::mem::take(&mut self.attrs),
                });
                if ctx.buf.len() >= FLUSH_BATCH {
                    ctx.flush();
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn span_without_registry_is_noop() {
        let s = Span::enter("free/standing").with("k", 1u64);
        assert!(s.start.is_none());
        drop(s);
    }

    #[test]
    fn spans_nest_with_depth_and_time_containment() {
        let registry = Registry::new();
        {
            let _g = registry.install(3);
            let _outer = Span::enter("outer").with("iter", 7u64);
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = Span::enter("inner");
                std::thread::sleep(Duration::from_millis(2));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let events = registry.events();
        assert_eq!(events.len(), 2);
        let outer = events.iter().find(|e| e.name == "outer").unwrap();
        let inner = events.iter().find(|e| e.name == "inner").unwrap();
        assert_eq!((outer.rank, outer.depth), (3, 0));
        assert_eq!((inner.rank, inner.depth), (3, 1));
        // Inner completes first, so it gets the earlier sequence number.
        assert!(inner.seq < outer.seq);
        // Time containment: inner lies inside outer.
        assert!(outer.start_us <= inner.start_us);
        assert!(inner.end_us() <= outer.end_us());
        assert_eq!(outer.attr("iter"), Some(&AttrValue::U64(7)));
    }

    #[test]
    fn install_restores_previous_recorder() {
        let a = Registry::new();
        let b = Registry::new();
        let _ga = a.install(0);
        {
            let _gb = b.install(5);
            assert_eq!(current().map(|(_, r)| r), Some(5));
            let _s = Span::enter("in_b");
        }
        assert_eq!(current().map(|(_, r)| r), Some(0));
        let _s = Span::enter("in_a");
        drop(_s);
        assert_eq!(b.span_agg("in_b", None).count, 1);
        assert_eq!(a.span_agg("in_b", None).count, 0);
    }

    #[test]
    fn install_lane_tags_spans_with_the_lane() {
        let registry = Registry::new();
        {
            let _g = registry.install_lane(2, "comm");
            let _s = Span::enter("comm/allreduce");
        }
        {
            let _g = registry.install(2);
            let _s = Span::enter("train/backward");
        }
        let events = registry.events();
        let comm = events.iter().find(|e| e.name == "comm/allreduce").unwrap();
        let bwd = events.iter().find(|e| e.name == "train/backward").unwrap();
        assert_eq!(comm.lane, Some("comm"));
        assert_eq!(comm.rank, 2);
        assert_eq!(bwd.lane, None);
    }

    #[test]
    fn multi_thread_aggregation_is_complete_and_deterministic() {
        let registry = Registry::new();
        let ranks = 8;
        let spans_per_rank = 600; // > FLUSH_BATCH: exercises mid-run flush
        std::thread::scope(|s| {
            for rank in 0..ranks {
                let registry = registry.clone();
                s.spawn(move || {
                    let _g = registry.install(rank);
                    for i in 0..spans_per_rank {
                        let _sp = Span::enter("work/unit").with("i", i as u64);
                    }
                });
            }
        });
        let events = registry.events();
        assert_eq!(events.len(), ranks * spans_per_rank);
        // Sorted by (rank, start, seq); per rank, seq is a permutation-free
        // 0..n sequence — aggregation lost and duplicated nothing.
        for rank in 0..ranks {
            let mut seqs: Vec<u64> = events
                .iter()
                .filter(|e| e.rank == rank)
                .map(|e| e.seq)
                .collect();
            assert_eq!(seqs.len(), spans_per_rank);
            seqs.sort_unstable();
            assert!(seqs.iter().enumerate().all(|(i, &s)| s == i as u64));
        }
        // Two snapshots agree exactly (deterministic ordering).
        let again = registry.events();
        assert_eq!(events.len(), again.len());
        assert!(events
            .iter()
            .zip(&again)
            .all(|(x, y)| (x.rank, x.seq, x.start_us) == (y.rank, y.seq, y.start_us)));
    }

    #[test]
    fn registry_metrics_are_shared_by_name() {
        let registry = Registry::new();
        registry.counter("bytes").add(100);
        registry.counter("bytes").add(28);
        assert_eq!(registry.counter("bytes").get(), 128);
        registry.gauge("loss").set(2.5);
        assert_eq!(registry.gauge("loss").get(), 2.5);
        registry.histogram("lat").record(1.0);
        assert_eq!(registry.histogram("lat").count(), 1);
        assert_eq!(registry.counters(), vec![("bytes".to_string(), 128)]);
    }
}
