//! Exporters over a recorded span set: Chrome trace-event JSON (openable
//! in `chrome://tracing` / Perfetto) and a human-readable per-stage
//! breakdown table.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Duration;

use crate::json::{escape_into, number};
use crate::registry::{AttrValue, SpanEvent};

fn push_attr_value(out: &mut String, v: &AttrValue) {
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

/// Attrs in stable (key-sorted) order so exported documents are
/// byte-identical across runs regardless of attachment order.
fn sorted_attrs(ev: &SpanEvent) -> Vec<&(&'static str, AttrValue)> {
    let mut attrs: Vec<_> = ev.attrs.iter().collect();
    attrs.sort_by_key(|(k, _)| *k);
    attrs
}

/// Category shown in trace viewers: the `area` of an `area/stage` name.
fn category(name: &str) -> &str {
    name.split('/').next().unwrap_or("span")
}

/// Render events as a Chrome trace-event document: one process, one
/// timeline thread per `(rank, lane)` pair, complete (`"ph":"X"`) events
/// in microseconds, plus metadata events naming the process and threads.
///
/// A rank's main thread (lane `None`) comes first and keeps `tid` = its
/// enumeration order; worker lanes (`"comm"`, `"w1"`, ...) get their own
/// rows directly below it, so overlapped communication is visually
/// side-by-side with the compute it hides behind.
pub fn chrome_trace(events: &[SpanEvent]) -> String {
    let mut sorted: Vec<&SpanEvent> = events.iter().collect();
    sorted.sort_by_key(|e| (e.rank, e.lane.is_some(), e.lane, e.start_us, e.seq));
    // `Option<&str>` orders None (main lane) before any named lane, so
    // enumeration order groups each rank's lanes under its main row.
    let lanes: BTreeSet<(usize, Option<&'static str>)> =
        sorted.iter().map(|e| (e.rank, e.lane)).collect();
    let tid_of = |rank: usize, lane: Option<&'static str>| -> usize {
        lanes.iter().position(|&l| l == (rank, lane)).unwrap_or(0)
    };

    let mut out = String::with_capacity(events.len() * 128 + 256);
    out.push_str("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    let mut first = true;
    let emit_sep = |out: &mut String, first: &mut bool| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
    };

    emit_sep(&mut out, &mut first);
    out.push_str(
        "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 1, \"tid\": 0, \
         \"args\": {\"name\": \"kfac-rs\"}}",
    );
    for (tid, &(rank, lane)) in lanes.iter().enumerate() {
        let label = match lane {
            Some(lane) => format!("rank {rank} {lane}"),
            None => format!("rank {rank}"),
        };
        emit_sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": {tid}, \
             \"args\": {{\"name\": \"{label}\"}}}}"
        );
        emit_sep(&mut out, &mut first);
        let _ = write!(
            out,
            "{{\"ph\": \"M\", \"name\": \"thread_sort_index\", \"pid\": 1, \"tid\": {tid}, \
             \"args\": {{\"sort_index\": {tid}}}}}"
        );
    }

    for ev in sorted {
        emit_sep(&mut out, &mut first);
        out.push_str("{\"ph\": \"X\", \"name\": ");
        escape_into(&mut out, ev.name);
        out.push_str(", \"cat\": ");
        escape_into(&mut out, category(ev.name));
        let _ = write!(
            out,
            ", \"pid\": 1, \"tid\": {}, \"ts\": {}, \"dur\": {}, \"args\": {{",
            tid_of(ev.rank, ev.lane),
            ev.start_us,
            ev.dur_us
        );
        let _ = write!(out, "\"depth\": {}", ev.depth);
        for (k, v) in sorted_attrs(ev) {
            out.push_str(", ");
            escape_into(&mut out, k);
            out.push_str(": ");
            push_attr_value(&mut out, v);
        }
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}

/// One row of the stage breakdown.
#[derive(Debug, Clone)]
pub struct StageRow {
    /// Span name.
    pub name: String,
    /// Number of completed spans.
    pub count: u64,
    /// Summed duration across ranks.
    pub total: Duration,
    /// Median span duration.
    pub p50: Duration,
    /// 95th-percentile span duration.
    pub p95: Duration,
    /// 99th-percentile span duration.
    pub p99: Duration,
}

/// Exact (sorted, nearest-rank) percentile of a duration sample.
fn pct(sorted_us: &[u64], p: f64) -> Duration {
    if sorted_us.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((p / 100.0) * sorted_us.len() as f64).ceil().max(1.0) as usize;
    Duration::from_micros(sorted_us[rank.min(sorted_us.len()) - 1])
}

/// Aggregate events into per-name rows, sorted by descending total time.
pub fn stage_rows(events: &[SpanEvent]) -> Vec<StageRow> {
    let mut by_name: std::collections::BTreeMap<&str, Vec<u64>> = Default::default();
    for ev in events {
        by_name.entry(ev.name).or_default().push(ev.dur_us);
    }
    let mut rows: Vec<StageRow> = by_name
        .into_iter()
        .map(|(name, mut durs)| {
            durs.sort_unstable();
            StageRow {
                name: name.to_string(),
                count: durs.len() as u64,
                total: Duration::from_micros(durs.iter().sum()),
                p50: pct(&durs, 50.0),
                p95: pct(&durs, 95.0),
                p99: pct(&durs, 99.0),
            }
        })
        .collect();
    rows.sort_by(|a, b| b.total.cmp(&a.total).then(a.name.cmp(&b.name)));
    rows
}

/// Wall-clock span of the event set: max end minus min start, in one
/// rank's timeline terms (all ranks share the registry clock).
pub fn wall_time(events: &[SpanEvent]) -> Duration {
    let start = events.iter().map(|e| e.start_us).min().unwrap_or(0);
    let end = events.iter().map(|e| e.end_us()).max().unwrap_or(0);
    Duration::from_micros(end.saturating_sub(start))
}

fn fmt_ms(d: Duration) -> String {
    let ms = d.as_secs_f64() * 1e3;
    if ms >= 1000.0 {
        format!("{:.2} s", ms / 1e3)
    } else if ms >= 1.0 {
        format!("{ms:.2} ms")
    } else {
        format!("{:.1} µs", ms * 1e3)
    }
}

/// Render the human-readable stage breakdown table: per span name, the
/// invocation count, summed time, share of per-rank busy time, and
/// p50/p95/p99 span durations; footed with the wall-clock line.
pub fn stage_table(events: &[SpanEvent]) -> String {
    let rows = stage_rows(events);
    let ranks: BTreeSet<usize> = events.iter().map(|e| e.rank).collect();
    let nranks = ranks.len().max(1);
    let wall = wall_time(events);
    // Top-level spans partition a rank's timeline; nested spans re-count
    // the same wall time, so the share column uses depth-0 spans only.
    let top_total: Duration = events
        .iter()
        .filter(|e| e.depth == 0)
        .map(|e| Duration::from_micros(e.dur_us))
        .sum();
    let per_rank_busy = top_total / nranks as u32;

    let name_w = rows.iter().map(|r| r.name.len()).max().unwrap_or(4).max(5);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<name_w$}  {:>7}  {:>10}  {:>6}  {:>10}  {:>10}  {:>10}",
        "stage", "count", "total", "share", "p50", "p95", "p99"
    );
    let _ = writeln!(
        out,
        "{}",
        "-".repeat(name_w + 2 + 7 + 2 + 10 + 2 + 6 + 3 * 12)
    );
    for r in &rows {
        let share = if top_total.is_zero() {
            0.0
        } else {
            100.0 * r.total.as_secs_f64() / top_total.as_secs_f64()
        };
        let _ = writeln!(
            out,
            "{:<name_w$}  {:>7}  {:>10}  {:>5.1}%  {:>10}  {:>10}  {:>10}",
            r.name,
            r.count,
            fmt_ms(r.total),
            share,
            fmt_ms(r.p50),
            fmt_ms(r.p95),
            fmt_ms(r.p99),
        );
    }
    let _ = writeln!(
        out,
        "\nwall {} | ranks {} | spans {} | busy/rank {} ({:.1}% of wall)",
        fmt_ms(wall),
        nranks,
        events.len(),
        fmt_ms(per_rank_busy),
        if wall.is_zero() {
            0.0
        } else {
            100.0 * per_rank_busy.as_secs_f64() / wall.as_secs_f64()
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn ev(
        name: &'static str,
        rank: usize,
        depth: u32,
        seq: u64,
        start: u64,
        dur: u64,
    ) -> SpanEvent {
        SpanEvent {
            name,
            rank,
            lane: None,
            depth,
            seq,
            start_us: start,
            dur_us: dur,
            attrs: vec![
                ("bytes", AttrValue::U64(1024)),
                ("class", "Gradient".into()),
            ],
        }
    }

    fn sample_events() -> Vec<SpanEvent> {
        vec![
            ev("train/iteration", 0, 0, 2, 0, 100),
            ev("train/forward", 0, 1, 0, 0, 40),
            ev("comm/allreduce", 0, 1, 1, 40, 60),
            ev("train/iteration", 1, 0, 2, 5, 95),
            ev("train/forward", 1, 1, 0, 5, 45),
            ev("comm/allreduce", 1, 1, 1, 50, 50),
        ]
    }

    #[test]
    fn chrome_trace_is_valid_json_with_ordered_ts_per_tid() {
        let doc = chrome_trace(&sample_events());
        let parsed = Json::parse(&doc).expect("valid JSON");
        let evs = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        // 2 ranks: 1 process_name + 2*(thread_name + sort) metadata + 6 X events.
        assert_eq!(evs.len(), 1 + 4 + 6);
        let mut last_ts: std::collections::BTreeMap<i64, f64> = Default::default();
        for e in evs {
            if e.get("ph").unwrap().as_str() == Some("X") {
                let tid = e.get("tid").unwrap().as_f64().unwrap() as i64;
                let ts = e.get("ts").unwrap().as_f64().unwrap();
                assert!(*last_ts.get(&tid).unwrap_or(&f64::MIN) <= ts);
                last_ts.insert(tid, ts);
                assert_eq!(
                    e.get("args").unwrap().get("bytes").unwrap().as_f64(),
                    Some(1024.0)
                );
            }
        }
        assert_eq!(last_ts.len(), 2);
    }

    #[test]
    fn stage_rows_aggregate_and_percentiles() {
        let rows = stage_rows(&sample_events());
        assert_eq!(rows[0].name, "train/iteration"); // largest total first
        assert_eq!(rows[0].count, 2);
        assert_eq!(rows[0].total, Duration::from_micros(195));
        assert_eq!(rows[0].p50, Duration::from_micros(95));
        assert_eq!(rows[0].p99, Duration::from_micros(100));
        let table = stage_table(&sample_events());
        assert!(table.contains("train/iteration"));
        assert!(table.contains("wall"));
    }

    #[test]
    fn chrome_trace_gives_each_rank_lane_its_own_tid() {
        let mut events = sample_events();
        let mut comm = ev("comm/allreduce", 0, 0, 3, 10, 30);
        comm.lane = Some("comm");
        events.push(comm);
        let doc = chrome_trace(&events);
        let parsed = Json::parse(&doc).expect("valid JSON");
        let evs = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        // 3 timeline rows now: rank 0, rank 0 comm, rank 1.
        let names: Vec<String> = evs
            .iter()
            .filter(|e| e.get("name").unwrap().as_str() == Some("thread_name"))
            .map(|e| {
                e.get("args")
                    .unwrap()
                    .get("name")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(names, vec!["rank 0", "rank 0 comm", "rank 1"]);
        // The lane event lands on tid 1, between rank 0 (tid 0) and rank 1 (tid 2).
        let lane_tids: Vec<i64> = evs
            .iter()
            .filter(|e| {
                e.get("ph").unwrap().as_str() == Some("X")
                    && e.get("ts").unwrap().as_f64() == Some(10.0)
            })
            .map(|e| e.get("tid").unwrap().as_f64().unwrap() as i64)
            .collect();
        assert_eq!(lane_tids, vec![1]);
    }

    #[test]
    fn wall_time_spans_min_start_to_max_end() {
        assert_eq!(wall_time(&sample_events()), Duration::from_micros(100));
        assert_eq!(wall_time(&[]), Duration::ZERO);
    }

    #[test]
    fn exports_are_deterministic_and_round_trip() {
        // Shuffled input (and attrs attached in different orders) must
        // produce byte-identical documents, and hostile attr strings
        // must survive a parse round-trip.
        let mut a = ev("train/iteration", 1, 0, 9, 200, 95);
        a.attrs = vec![
            ("zeta", AttrValue::Str("a\"b\\c\nd".into())),
            ("alpha", AttrValue::F64(2.5)),
        ];
        let mut b = a.clone();
        b.attrs.reverse();
        let mut events = sample_events();
        events.push(a);
        let mut reversed: Vec<SpanEvent> = events.iter().rev().cloned().collect();
        reversed[0] = b; // same event as `a`, attrs in the other order

        assert_eq!(chrome_trace(&events), chrome_trace(&reversed));

        let trace = Json::parse(&chrome_trace(&events)).expect("valid trace");
        let args: Vec<&Json> = trace
            .get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .filter_map(|e| e.get("args"))
            .filter(|a| a.get("zeta").is_some())
            .collect();
        assert_eq!(args.len(), 1);
        assert_eq!(args[0].get("zeta").unwrap().as_str(), Some("a\"b\\c\nd"));
    }
}
