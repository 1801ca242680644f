//! The whole benchmark in one command: every workload, every metric.
//!
//! The suite re-executes this program once per run, so set-up time and
//! peak memory are per workload and per run, and writes what the runs
//! printed, with each workload's resolved configuration, to one file.

use crate::jsonio::{num, nums, obj, render_pretty, text, Json};
use crate::stats::Summary;
use crate::workload::Workload;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// What the suite runs.
pub struct SuiteOptions {
    /// Workloads, in order.
    pub workloads: Vec<Workload>,
    /// Seed of the first run; run `r` uses `seed + r`.
    pub seed: u64,
    /// Timed runs per workload.
    pub runs: usize,
    /// Measuring time per timed run.
    pub seconds: f64,
    /// Pass `--smoke` down.
    pub smoke: bool,
    /// Output file.
    pub out: PathBuf,
    /// Directory for one trace file per workload.
    pub trace_out: Option<PathBuf>,
}

/// One child's result line.
struct ChildResult {
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, (f64, String)>,
}

fn run_child(
    opts: &SuiteOptions,
    w: &Workload,
    seed: u64,
    trace: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    if let (true, Some(dir)) = (trace, &opts.trace_out) {
        cmd.arg("--trace-out").arg(dir);
    }
    // `output` waits for the child to end and collects what it printed.
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a run of {}: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let doc = Json::parse(line).map_err(|e| {
        format!(
            "{} (trace {}) printed no result: {e}",
            w.name,
            u8::from(trace)
        )
    })?;
    let number = |k: &str| {
        doc.get(k)
            .and_then(Json::as_f64)
            .ok_or(format!("result lacks {k}"))
    };
    let Some(Json::Obj(map)) = doc.get("metrics") else {
        return Err("result lacks metrics".into());
    };
    let metrics = map
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or_default();
            (name.clone(), (value, unit.to_string()))
        })
        .collect();
    Ok(ChildResult {
        attempted: number("attempted")?,
        failed: number("failed")?,
        metrics,
    })
}

fn metric_json(unit: &str, values: &[f64]) -> Json {
    let s = Summary::of(values);
    obj([
        ("unit", text(unit)),
        ("values", nums(values)),
        ("n", num(s.n as f64)),
        ("min", num(s.min)),
        ("q1", num(s.q1)),
        ("median", num(s.median)),
        ("q3", num(s.q3)),
        ("max", num(s.max)),
    ])
}

/// Run the suite. `Ok(true)` when every output check of every run passed.
pub fn run(opts: &SuiteOptions) -> Result<bool, String> {
    let mut all_correct = true;
    let mut workloads = Vec::new();
    for w in &opts.workloads {
        let mut attempted = 0.0;
        let mut failed = 0.0;
        // Timed runs, one seed each; then one traced run on the first seed.
        let mut end_to_end: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
        for r in 0..opts.runs {
            let child = run_child(opts, w, opts.seed + r as u64, false)?;
            attempted += child.attempted;
            failed += child.failed;
            for (name, (value, unit)) in child.metrics {
                end_to_end
                    .entry(name)
                    .or_insert((unit, Vec::new()))
                    .1
                    .push(value);
            }
        }
        let traced = run_child(opts, w, opts.seed, true)?;
        attempted += traced.attempted;
        failed += traced.failed;
        all_correct &= failed == 0.0;

        println!("== {} ({attempted} trials, {failed} failed)", w.name);
        for (name, (unit, values)) in &end_to_end {
            let s = Summary::of(values);
            println!(
                "  {name:<28} {:>14.5} {unit:<8} (n={} q1={:.5} q3={:.5})",
                s.median, s.n, s.q1, s.q3
            );
        }
        for (name, (value, unit)) in &traced.metrics {
            println!("  {name:<28} {value:>14.5} {unit}");
        }
        workloads.push((
            w.name,
            obj([
                ("why", text(w.why)),
                ("config", w.describe(opts.seed)),
                ("attempted", num(attempted)),
                ("failed", num(failed)),
                (
                    "end_to_end",
                    obj(end_to_end
                        .iter()
                        .map(|(n, (u, v))| (n.as_str(), metric_json(u, v)))),
                ),
                (
                    "per_layer",
                    obj(traced.metrics.iter().map(|(n, (v, u))| {
                        (
                            n.as_str(),
                            obj([("unit", text(u.as_str())), ("value", num(*v))]),
                        )
                    })),
                ),
            ]),
        ));
    }
    let doc = obj([
        ("schema", text("stepbench/1")),
        ("seed", num(opts.seed as f64)),
        ("runs", num(opts.runs as f64)),
        ("seconds", num(opts.seconds)),
        ("smoke", Json::Bool(opts.smoke)),
        ("workloads", obj(workloads)),
    ]);
    std::fs::write(&opts.out, render_pretty(&doc))
        .map_err(|e| format!("cannot write {}: {e}", opts.out.display()))?;
    Ok(all_correct)
}
