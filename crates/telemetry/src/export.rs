//! Exporters over a recorded span set: Chrome trace-event JSON (openable
//! in `chrome://tracing` / Perfetto) and a human-readable per-stage
//! breakdown table.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::Duration;

use crate::json::{escape_into, number};
use crate::registry::{AttrValue, Registry, SpanEvent};

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

/// Sanitize a metric name for Prometheus: `[a-zA-Z0-9_:]` pass through,
/// everything else becomes `_`, and a leading digit gets a `_` prefix.
/// `kfac/eig_comp` → `kfac_eig_comp`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok { c } else { '_' });
    }
    out
}

/// Escape a Prometheus label value (`\` → `\\`, `"` → `\"`, newline → `\n`).
fn prom_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Render an `f64` for Prometheus exposition (which, unlike JSON, has
/// spellings for the non-finite values).
fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

fn prom_family(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// The info series carrying the process's resolved run configuration
/// ([`crate::run_config`]) as its one label.
fn prom_run_config(out: &mut String, config: &str) {
    let name = "kfac_runtime_config_info";
    prom_family(out, name, "gauge", "resolved run configuration");
    let _ = writeln!(out, "{name}{{config=\"{}\"}} 1", prom_label(config));
}

/// Render the registry's metrics — counters, gauges, histograms (with
/// cumulative buckets, `_sum`/`_count`, and p50/p95/p99 gauge series) and
/// per-stage span aggregates — as a Prometheus text exposition document,
/// led by the run-configuration info series when one was recorded.
///
/// The registry is shared by every rank of a run, so counter and
/// histogram values are already the cross-rank aggregate; per-stage
/// series carry a `stage` label. Metric names are sanitized with the
/// slash convention mapped to underscores (`kfac/cond` → `kfac_cond`).
pub fn prometheus(registry: &Registry) -> String {
    let mut out = String::with_capacity(4096);
    if let Some(config) = crate::run_config() {
        prom_run_config(&mut out, config);
    }

    for (name, value) in registry.counters() {
        let n = prom_name(&name);
        prom_family(&mut out, &n, "counter", "monotonic counter");
        let _ = writeln!(out, "{n} {value}");
    }

    for (name, value) in registry.gauges() {
        let n = prom_name(&name);
        prom_family(&mut out, &n, "gauge", "last-write-wins gauge");
        let _ = writeln!(out, "{n} {}", prom_f64(value));
    }

    for (name, hist) in registry.histograms() {
        let n = prom_name(&name);
        prom_family(&mut out, &n, "histogram", "log-scale histogram");
        let count = hist.count();
        for (bound, cumulative) in hist.cumulative_buckets() {
            let _ = writeln!(out, "{n}_bucket{{le=\"{}\"}} {cumulative}", prom_f64(bound));
        }
        let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {count}");
        let _ = writeln!(out, "{n}_sum {}", prom_f64(hist.sum()));
        let _ = writeln!(out, "{n}_count {count}");
        for (suffix, p) in [("p50", 50.0), ("p95", 95.0), ("p99", 99.0)] {
            let qn = format!("{n}_{suffix}");
            prom_family(&mut out, &qn, "gauge", "histogram percentile estimate");
            let _ = writeln!(out, "{qn} {}", prom_f64(hist.percentile(p)));
        }
    }

    let events = registry.events();
    if !events.is_empty() {
        let rows = stage_rows(&events);
        type StageSeries = (&'static str, &'static str, fn(&StageRow) -> String);
        let series: [StageSeries; 5] = [
            ("kfac_stage_count", "counter", |r| r.count.to_string()),
            ("kfac_stage_total_seconds", "gauge", |r| {
                prom_f64(r.total.as_secs_f64())
            }),
            ("kfac_stage_p50_seconds", "gauge", |r| {
                prom_f64(r.p50.as_secs_f64())
            }),
            ("kfac_stage_p95_seconds", "gauge", |r| {
                prom_f64(r.p95.as_secs_f64())
            }),
            ("kfac_stage_p99_seconds", "gauge", |r| {
                prom_f64(r.p99.as_secs_f64())
            }),
        ];
        for (name, kind, project) in series {
            prom_family(&mut out, name, kind, "per-stage span aggregate");
            for row in &rows {
                let _ = writeln!(
                    out,
                    "{name}{{stage=\"{}\"}} {}",
                    prom_label(&row.name),
                    project(row)
                );
            }
        }
    }
    out
}

/// Validate a Prometheus text exposition document: every sample series
/// must be introduced by `# HELP` and `# TYPE` lines, histogram bucket
/// counts must be monotone over ascending `le` bounds, and each
/// histogram's `+Inf` bucket must equal its `_count`. Returns the first
/// violation as an error string.
pub fn lint_prometheus(text: &str) -> Result<(), String> {
    use std::collections::BTreeMap;
    let mut helped: BTreeSet<String> = BTreeSet::new();
    let mut typed: BTreeMap<String, String> = BTreeMap::new();
    // Histogram state keyed by (family, labels-without-le).
    let mut buckets: BTreeMap<(String, String), Vec<(f64, u64)>> = BTreeMap::new();
    let mut counts: BTreeMap<(String, String), u64> = BTreeMap::new();

    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split_whitespace().next().unwrap_or("");
            helped.insert(name.to_string());
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().unwrap_or("").to_string();
            let kind = it.next().unwrap_or("").to_string();
            if !matches!(kind.as_str(), "counter" | "gauge" | "histogram" | "summary") {
                return Err(format!("line {lineno}: unknown TYPE '{kind}'"));
            }
            typed.insert(name, kind);
            continue;
        }
        if line.starts_with('#') {
            continue; // plain comment
        }

        // Sample line: name[{labels}] value
        let (series, value) = match line.rfind(' ') {
            Some(i) => (&line[..i], line[i + 1..].trim()),
            None => return Err(format!("line {lineno}: malformed sample '{line}'")),
        };
        let (name, labels) = match series.find('{') {
            Some(i) => {
                let rest = &series[i..];
                if !rest.ends_with('}') {
                    return Err(format!("line {lineno}: unclosed label set"));
                }
                (&series[..i], &rest[1..rest.len() - 1])
            }
            None => (series, ""),
        };
        if value.parse::<f64>().is_err() && !matches!(value, "NaN" | "+Inf" | "-Inf" | "Inf") {
            return Err(format!("line {lineno}: bad sample value '{value}'"));
        }

        // Resolve the declared family: histogram child series (_bucket,
        // _sum, _count) belong to their base metric's declaration.
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                let base = name.strip_suffix(suffix)?;
                (typed.get(base).map(String::as_str) == Some("histogram")).then_some(base)
            })
            .unwrap_or(name)
            .to_string();
        if !typed.contains_key(&family) {
            return Err(format!("line {lineno}: '{name}' has no # TYPE line"));
        }
        if !helped.contains(&family) {
            return Err(format!("line {lineno}: '{name}' has no # HELP line"));
        }

        if typed.get(&family).map(String::as_str) == Some("histogram") {
            let non_le: String = labels
                .split(',')
                .filter(|l| !l.trim_start().starts_with("le="))
                .collect::<Vec<_>>()
                .join(",");
            let key = (family.clone(), non_le);
            if name.ends_with("_bucket") {
                let le = labels
                    .split(',')
                    .find_map(|l| l.trim().strip_prefix("le=\"")?.strip_suffix('"'))
                    .ok_or_else(|| format!("line {lineno}: bucket without le label"))?;
                let bound = match le {
                    "+Inf" => f64::INFINITY,
                    s => s
                        .parse::<f64>()
                        .map_err(|_| format!("line {lineno}: bad le '{s}'"))?,
                };
                let cumulative = value
                    .parse::<u64>()
                    .map_err(|_| format!("line {lineno}: non-integer bucket count"))?;
                let series = buckets.entry(key).or_default();
                if let Some(&(prev_bound, prev_count)) = series.last() {
                    if bound <= prev_bound {
                        return Err(format!("line {lineno}: le bounds not ascending"));
                    }
                    if cumulative < prev_count {
                        return Err(format!("line {lineno}: bucket counts not monotone"));
                    }
                }
                series.push((bound, cumulative));
            } else if name.ends_with("_count") {
                counts.insert(
                    key,
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("line {lineno}: non-integer _count"))?,
                );
            }
        }
    }

    for (key, series) in &buckets {
        let Some(&(last_bound, last_count)) = series.last() else {
            continue;
        };
        if last_bound != f64::INFINITY {
            return Err(format!("histogram '{}': missing +Inf bucket", key.0));
        }
        if let Some(&count) = counts.get(key) {
            if count != last_count {
                return Err(format!(
                    "histogram '{}': _count {count} != +Inf bucket {last_count}",
                    key.0
                ));
            }
        }
    }
    Ok(())
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

    #[test]
    fn prometheus_exposition_is_valid_and_lints_clean() {
        let registry = Registry::new();
        registry.counter("comm/ops").add(17);
        registry.gauge("kfac/damping").set(0.003);
        registry.gauge("train/loss").set(f64::NAN); // non-finite survives
        let h = registry.histogram("train/iter_time_us");
        for v in [10.0, 20.0, 20.0, 4000.0] {
            h.record(v);
        }
        {
            let _guard = registry.install(0);
            let _span = crate::Span::enter("train/iteration");
        }

        let doc = prometheus(&registry);
        lint_prometheus(&doc).expect("self-emitted exposition lints clean");
        assert!(doc.contains("# TYPE comm_ops counter"));
        assert!(doc.contains("comm_ops 17"));
        assert!(doc.contains("kfac_damping 0.003"));
        assert!(doc.contains("train_loss NaN"));
        assert!(doc.contains("# TYPE train_iter_time_us histogram"));
        assert!(doc.contains("train_iter_time_us_bucket{le=\"+Inf\"} 4"));
        assert!(doc.contains("train_iter_time_us_count 4"));
        assert!(doc.contains("train_iter_time_us_p50"));
        assert!(doc.contains("kfac_stage_count{stage=\"train/iteration\"} 1"));
    }

    /// Slash-separated metric families with a path segment per class
    /// or layer — the per-class byte counters and the per-layer rank
    /// gauges — must survive name sanitization and lint clean, since CI
    /// scrapes them off the live `/metrics` endpoint.
    #[test]
    fn path_named_families_export_and_lint_clean() {
        let registry = Registry::new();
        for (name, bytes) in [("comm/bytes/gradient", 4096u64), ("comm/bytes/eigen", 2052)] {
            registry.counter(name).add(bytes);
        }
        for kind in ["a", "g"] {
            registry
                .gauge(&format!("kfac/layer0/{kind}_eig_rank"))
                .set(16.0);
        }

        let doc = prometheus(&registry);
        lint_prometheus(&doc).expect("path-named families lint clean");
        assert!(doc.contains("# TYPE comm_bytes_eigen counter"));
        assert!(doc.contains("comm_bytes_eigen 2052"));
        assert!(doc.contains("kfac_layer0_a_eig_rank 16"));
    }

    #[test]
    fn prometheus_lint_rejects_violations() {
        // Sample without TYPE.
        assert!(lint_prometheus("foo 1\n").is_err());
        // TYPE but no HELP.
        assert!(lint_prometheus("# TYPE foo counter\nfoo 1\n").is_err());
        // Non-monotone cumulative buckets.
        let bad = "# HELP h x\n# TYPE h histogram\n\
                   h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n";
        assert!(lint_prometheus(bad).unwrap_err().contains("monotone"));
        // Missing +Inf bucket.
        let bad = "# HELP h x\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\n";
        assert!(lint_prometheus(bad).unwrap_err().contains("+Inf"));
        // _count disagreeing with the +Inf bucket.
        let bad = "# HELP h x\n# TYPE h histogram\n\
                   h_bucket{le=\"+Inf\"} 5\nh_count 4\n";
        assert!(lint_prometheus(bad).unwrap_err().contains("_count"));
        // A correct document passes.
        let good = "# HELP h x\n# TYPE h histogram\n\
                    h_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 5\nh_sum 9.5\nh_count 5\n";
        lint_prometheus(good).expect("good doc");
        // So does the run-configuration info series: one labelled sample
        // whose value holds spaces, `=`, `{` and an escaped quote.
        let mut info = String::new();
        prom_run_config(
            &mut info,
            "KFAC_COMM_BACKEND=proc job={a \"b\"} exec=sequential",
        );
        assert!(info.contains(
            "kfac_runtime_config_info{config=\"KFAC_COMM_BACKEND=proc job={a \\\"b\\\"} exec=sequential\"} 1"
        ));
        lint_prometheus(&(info + good)).expect("info series lints clean");
    }
}
