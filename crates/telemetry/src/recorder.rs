//! Flight recorder: a bounded black box of recent metric snapshots plus
//! the tail of the span stream, dumped as JSON when a run aborts or the
//! degradation ladder escalates.
//!
//! The recorder deliberately stores *snapshots* (plain values), not
//! metric handles: a dump taken after a fault must show the state
//! leading up to it, not the state at dump time.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crate::json::{escape_into, number};
use crate::registry::{AttrValue, Registry, SpanEvent};

/// Point-in-time copy of every counter and gauge, plus histogram
/// summaries, labeled with when it was taken.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Snapshot time, µs since the registry origin.
    pub at_us: u64,
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, f64)>,
    /// `(name, count, p50, p99)` for every histogram.
    pub histograms: Vec<(String, u64, f64, f64)>,
}

impl MetricsSnapshot {
    /// Capture the registry's metrics now.
    pub fn capture(registry: &Registry) -> Self {
        MetricsSnapshot {
            at_us: registry.micros_at(Instant::now()),
            counters: registry.counters(),
            gauges: registry.gauges(),
            histograms: registry
                .histograms()
                .into_iter()
                .map(|(name, h)| (name, h.count(), h.percentile(50.0), h.percentile(99.0)))
                .collect(),
        }
    }

    fn to_json_into(&self, out: &mut String) {
        let _ = write!(out, "{{\"at_us\": {}, \"counters\": {{", self.at_us);
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            escape_into(out, name);
            let _ = write!(out, ": {value}");
        }
        out.push_str("}, \"gauges\": {");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            escape_into(out, name);
            out.push_str(": ");
            out.push_str(&number(*value));
        }
        out.push_str("}, \"histograms\": {");
        for (i, (name, count, p50, p99)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            escape_into(out, name);
            let _ = write!(out, ": {{\"count\": {count}, \"p50\": ");
            out.push_str(&number(*p50));
            out.push_str(", \"p99\": ");
            out.push_str(&number(*p99));
            out.push('}');
        }
        out.push_str("}}");
    }
}

struct RecorderInner {
    snapshots: VecDeque<MetricsSnapshot>,
    snapshot_cap: usize,
    event_tail: usize,
}

/// Bounded ring buffer of [`MetricsSnapshot`]s. Clone-cheap (`Arc`);
/// the trainer snapshots periodically and the harness dumps on fault.
#[derive(Clone)]
pub struct FlightRecorder {
    inner: Arc<Mutex<RecorderInner>>,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("snapshots", &self.len())
            .finish()
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(32, 256)
    }
}

impl FlightRecorder {
    /// Recorder keeping at most `snapshot_cap` metric snapshots and
    /// dumping the last `event_tail` span events.
    pub fn new(snapshot_cap: usize, event_tail: usize) -> Self {
        FlightRecorder {
            inner: Arc::new(Mutex::new(RecorderInner {
                snapshots: VecDeque::with_capacity(snapshot_cap.max(1)),
                snapshot_cap: snapshot_cap.max(1),
                event_tail,
            })),
        }
    }

    /// Number of buffered snapshots.
    pub fn len(&self) -> usize {
        self.lock().snapshots.len()
    }

    /// True when no snapshot has been taken yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RecorderInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Capture a metrics snapshot now, evicting the oldest at capacity.
    pub fn snapshot(&self, registry: &Registry) {
        let snap = MetricsSnapshot::capture(registry);
        let mut inner = self.lock();
        if inner.snapshots.len() == inner.snapshot_cap {
            inner.snapshots.pop_front();
        }
        inner.snapshots.push_back(snap);
    }

    /// Serialize the black box: dump reason, the process's resolved run
    /// configuration ([`crate::run_config`], when recorded), every
    /// buffered snapshot, and the last `event_tail` span events from the
    /// registry.
    pub fn dump_json(&self, registry: &Registry, reason: &str) -> String {
        crate::flush(); // pull this thread's buffered spans in first
        let (snapshots, tail) = {
            let inner = self.lock();
            (
                inner.snapshots.iter().cloned().collect::<Vec<_>>(),
                inner.event_tail,
            )
        };
        let mut events = registry.events();
        // Tail by end time: the *most recent* activity before the fault.
        events.sort_by_key(|e| (e.end_us(), e.rank, e.seq));
        let skip = events.len().saturating_sub(tail);
        let events = &events[skip..];

        let mut out = String::with_capacity(4096);
        out.push_str("{\"reason\": ");
        escape_into(&mut out, reason);
        if let Some(config) = crate::run_config() {
            out.push_str(", \"config\": ");
            escape_into(&mut out, config);
        }
        let _ = write!(
            &mut out,
            ", \"dumped_at_us\": {}, \"snapshots\": [",
            registry.micros_at(Instant::now())
        );
        for (i, snap) in snapshots.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            snap.to_json_into(&mut out);
        }
        out.push_str("], \"events\": [");
        for (i, ev) in events.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            event_json_into(&mut out, ev);
        }
        out.push_str("]}");
        out
    }

    /// Write [`FlightRecorder::dump_json`] to `path` (creating parent
    /// directories).
    pub fn dump_to_file(
        &self,
        registry: &Registry,
        reason: &str,
        path: &Path,
    ) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.dump_json(registry, reason))
    }
}

fn event_json_into(out: &mut String, ev: &SpanEvent) {
    out.push_str("{\"name\": ");
    escape_into(out, ev.name);
    let _ = write!(
        out,
        ", \"rank\": {}, \"ts_us\": {}, \"dur_us\": {}",
        ev.rank, ev.start_us, ev.dur_us
    );
    if let Some(lane) = ev.lane {
        out.push_str(", \"lane\": ");
        escape_into(out, lane);
    }
    let mut attrs: Vec<_> = ev.attrs.iter().collect();
    attrs.sort_by_key(|(k, _)| *k);
    for (k, v) in attrs {
        out.push_str(", ");
        escape_into(out, k);
        out.push_str(": ");
        match v {
            AttrValue::U64(n) => {
                let _ = write!(out, "{n}");
            }
            AttrValue::I64(n) => {
                let _ = write!(out, "{n}");
            }
            AttrValue::F64(x) => out.push_str(&number(*x)),
            AttrValue::Str(s) => escape_into(out, s),
        }
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn ring_buffer_evicts_oldest() {
        let registry = Registry::new();
        let recorder = FlightRecorder::new(3, 16);
        let counter = registry.counter("iters");
        for _ in 0..5 {
            counter.inc();
            recorder.snapshot(&registry);
        }
        assert_eq!(recorder.len(), 3);
        let dump = Json::parse(&recorder.dump_json(&registry, "test")).unwrap();
        let snaps = dump.get("snapshots").unwrap().as_arr().unwrap();
        assert_eq!(snaps.len(), 3);
        // Oldest retained snapshot saw counter=3 (snapshots 1 and 2 evicted).
        let first = snaps[0].get("counters").unwrap().get("iters").unwrap();
        assert_eq!(first.as_f64(), Some(3.0));
        let last = snaps[2].get("counters").unwrap().get("iters").unwrap();
        assert_eq!(last.as_f64(), Some(5.0));
    }

    #[test]
    fn dump_contains_event_tail_and_parses() {
        let registry = Registry::new();
        let recorder = FlightRecorder::new(4, 2);
        {
            let _g = registry.install(0);
            for _ in 0..5 {
                let _s = crate::Span::enter("train/iteration").with("loss", 1.25);
            }
        }
        registry.gauge("train/loss").set(1.25);
        recorder.snapshot(&registry);
        let dump = recorder.dump_json(&registry, "ladder: stale factors");
        let parsed = Json::parse(&dump).expect("dump is valid JSON");
        assert_eq!(
            parsed.get("reason").unwrap().as_str(),
            Some("ladder: stale factors")
        );
        // Event tail is bounded at 2 even though 5 spans were recorded.
        let events = parsed.get("events").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0].get("name").unwrap().as_str(),
            Some("train/iteration")
        );
        assert_eq!(events[0].get("loss").unwrap().as_f64(), Some(1.25));
        let snaps = parsed.get("snapshots").unwrap().as_arr().unwrap();
        assert_eq!(snaps.len(), 1);
        assert_eq!(
            snaps[0]
                .get("gauges")
                .unwrap()
                .get("train/loss")
                .unwrap()
                .as_f64(),
            Some(1.25)
        );
    }

    #[test]
    fn dump_to_file_round_trips() {
        let registry = Registry::new();
        let recorder = FlightRecorder::default();
        recorder.snapshot(&registry);
        let dir = std::env::temp_dir().join("kfac_flight_recorder_test");
        let path = dir.join("dump.json");
        recorder
            .dump_to_file(&registry, "abort", &path)
            .expect("write dump");
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.get("reason").unwrap().as_str(), Some("abort"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
