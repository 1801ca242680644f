//! `xp` — regenerate the paper's tables and figures.
//!
//! ```text
//! xp <experiment> [--scale smoke|quick|full] [--out results/] [--trace-out trace.json]
//!                 [--overlap [workers]] [--serve-metrics [PORT]]
//! xp all [--scale …]        # everything
//! xp list                   # available experiment ids
//! xp prom-lint FILE         # validate a Prometheus exposition snapshot
//! ```
//!
//! With `--overlap`, every training run an experiment drives runs
//! backward and its gradient exchange on the task-graph execution engine
//! (`kfac-exec`) instead of exchanging after backward: per-bucket
//! gradient allreduces overlap backprop on a worker pool. Results are
//! bitwise identical either way (see the `overlap` experiment).
//!
//! With `--trace-out`, every run (measured CPU training and simulator
//! projections alike) records spans into one shared telemetry registry;
//! at exit the timeline is written as Chrome trace-event JSON (open in
//! `chrome://tracing` or Perfetto) and a per-stage breakdown table with
//! p50/p95/p99 is printed to stderr.
//!
//! With `--serve-metrics`, the same registry is additionally served live
//! over localhost HTTP while the experiments run: `/metrics` in
//! Prometheus text exposition format (counters, gauges, histograms and
//! per-stage span timings, aggregated across all ranks) and `/health` as
//! the watchdog's JSON verdict (HTTP 503 when critical). A background
//! thread also refreshes the live stage table on stderr every few
//! seconds so long runs stay observable without a scraper.

use kfac_harness::experiments::{self, ALL_EXPERIMENTS};
use kfac_harness::presets::Scale;
use kfac_harness::report::append_to_file;
use kfac_harness::{runtime, ExecStrategy, RuntimeConfig};
use kfac_telemetry::{export, MetricsServer, Registry, Watchdog, WatchdogConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Default `--serve-metrics` port when none is given.
const DEFAULT_METRICS_PORT: u16 = 9184;

/// Seconds between live stage-table refreshes while serving metrics.
const STAGE_TABLE_REFRESH_S: u64 = 10;

/// Install the resolved config for the rest of the process and say what
/// it is (in a worker world, rank 0 speaks for the group).
fn start(config: RuntimeConfig) {
    if config.worker.as_ref().is_none_or(|w| w.rank == 0) {
        eprintln!("config: {config}");
    }
    runtime::install(config);
}

fn main() {
    // The environment is read here, once, before anything else: an
    // unknown `KFAC_*` name or a malformed value stops the process now.
    let mut config = RuntimeConfig::from_process_env().unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    // Proc-worker mode: when spawned by `procrun::spawn_world` the
    // rendezvous is set, and this process is a rank, not a CLI — it
    // joins the TCP mesh and runs the assigned job (before any flag
    // parsing, so a worker never misreads launcher arguments).
    if config.worker.is_some() {
        start(config);
        std::process::exit(kfac_harness::procrun::worker_main());
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage_and_exit();
    }
    let target = args[0].as_str();
    if target == "list" {
        println!("available experiments: {}", ALL_EXPERIMENTS.join(", "));
        return;
    }
    if target == "prom-lint" {
        run_prom_lint(&args[1..]);
        return;
    }
    let subcommand: Option<fn(&[String])> = match target {
        "bench-kernels" => Some(run_bench_kernels),
        "bench-eig" => Some(run_bench_eig),
        "bench-allreduce" => Some(run_bench_allreduce),
        "proc-train" => Some(run_proc_train),
        _ => None,
    };
    if let Some(run) = subcommand {
        start(config);
        run(&args[1..]);
        return;
    }

    let mut scale = Scale::Quick;
    let mut out_dir: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut serve_metrics: Option<u16> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = Scale::parse(args.get(i).map(|s| s.as_str()).unwrap_or(""))
                    .unwrap_or_else(|| flag_error("--scale needs smoke|quick|full"));
            }
            "--out" => {
                i += 1;
                out_dir = Some(PathBuf::from(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| flag_error("--out needs a directory")),
                ));
            }
            "--trace-out" => {
                i += 1;
                trace_out =
                    Some(PathBuf::from(args.get(i).cloned().unwrap_or_else(|| {
                        flag_error("--trace-out needs a file path")
                    })));
            }
            "--serve-metrics" => {
                // Optional port; defaults to DEFAULT_METRICS_PORT.
                serve_metrics = Some(match args.get(i + 1).and_then(|s| s.parse::<u16>().ok()) {
                    Some(p) => {
                        i += 1;
                        p
                    }
                    None => DEFAULT_METRICS_PORT,
                });
            }
            "--overlap" => {
                // Optional worker count; defaults to 2 compute workers
                // (+ the dedicated communication worker).
                let workers = match args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) {
                    Some(w) if w >= 1 => {
                        i += 1;
                        w
                    }
                    _ => 2,
                };
                config.exec = ExecStrategy::Overlapped {
                    compute_workers: workers,
                };
            }
            other => flag_error(&format!("unknown flag {other}")),
        }
        i += 1;
    }

    start(config);

    // One registry for the whole invocation: installing it on the main
    // thread makes it ambient, so every train() the drivers launch (and
    // every simulator trace) lands on the same timeline — and the same
    // live /metrics endpoint.
    let registry = Registry::new();
    let telemetry_guard = registry.install(0);

    let mut server = None;
    let refresh_stop = Arc::new(AtomicBool::new(false));
    if let Some(port) = serve_metrics {
        let watchdog = Watchdog::new(registry.clone(), WatchdogConfig::default());
        match MetricsServer::start(registry.clone(), port, Some(watchdog)) {
            Ok(s) => {
                eprintln!(
                    "serving metrics on http://{}/metrics (health: /health)",
                    s.addr()
                );
                server = Some(s);
            }
            Err(e) => {
                eprintln!("failed to bind metrics server on port {port}: {e}");
                std::process::exit(1);
            }
        }
        // Live stage-table refresh: long runs print their per-stage
        // breakdown periodically instead of only at exit.
        let registry = registry.clone();
        let stop = Arc::clone(&refresh_stop);
        std::thread::Builder::new()
            .name("kfac-stage-refresh".into())
            .spawn(move || loop {
                for _ in 0..STAGE_TABLE_REFRESH_S * 4 {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(250));
                }
                let events = registry.events();
                if !events.is_empty() {
                    eprintln!("--- live stage table ---\n{}", export::stage_table(&events));
                }
            })
            .expect("spawn stage refresh thread");
    }

    let ids: Vec<&str> = if target == "all" {
        // Deduplicate aliases (table2/fig4 and table3/fig6 share drivers).
        vec![
            "table1", "table2", "fig5", "table3", "fig7", "fig8", "fig9", "table4", "table5",
            "table6", "fig10", "overlap",
        ]
    } else {
        vec![target]
    };

    for id in ids {
        eprintln!("=== running {id} (scale: {scale:?}) ===");
        let started = std::time::Instant::now();
        match experiments::run(id, scale) {
            Some(output) => {
                let md = output.to_markdown();
                println!("{md}");
                eprintln!(
                    "=== {id} done in {:.1}s ===\n",
                    started.elapsed().as_secs_f64()
                );
                if let Some(dir) = &out_dir {
                    let path = dir.join(format!("{id}.md"));
                    if let Err(e) = append_to_file(&path, &md) {
                        eprintln!("failed to write {}: {e}", path.display());
                    }
                }
            }
            None => {
                eprintln!("unknown experiment '{id}'");
                usage_and_exit();
            }
        }
    }

    refresh_stop.store(true, Ordering::Relaxed);
    drop(telemetry_guard);
    let events = registry.events();
    if !events.is_empty() {
        eprintln!("{}", export::stage_table(&events));
    }
    if let Some(path) = trace_out {
        match std::fs::write(&path, export::chrome_trace(&events)) {
            Ok(()) => eprintln!(
                "wrote {} trace events to {} (open in chrome://tracing or Perfetto)",
                events.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    // Server (if any) shuts down on drop, after the final table so a
    // scraper can read the complete run.
    drop(server);
}

/// `xp prom-lint FILE` — validate a saved `/metrics` snapshot against
/// the Prometheus text exposition rules the exporter promises (HELP/TYPE
/// present, cumulative buckets monotone and capped by `+Inf`, `_count`
/// consistency). Exit 0 on a clean document, 1 with the violation
/// otherwise. CI curls `/metrics` during a smoke run and lints it here.
fn run_prom_lint(args: &[String]) {
    let [path] = args else {
        flag_error("prom-lint takes exactly one FILE argument");
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("failed to read {path}: {e}");
        std::process::exit(1);
    });
    match export::lint_prometheus(&text) {
        Ok(()) => {
            eprintln!("{path}: exposition OK ({} lines)", text.lines().count());
        }
        Err(e) => {
            eprintln!("{path}: exposition INVALID: {e}");
            std::process::exit(1);
        }
    }
}

/// `xp bench-kernels [--json [FILE]]` — time the packed GEMM/Gram kernels
/// on ResNet-32 and square stress shapes over f32- and bf16-stored
/// operands, and a whole `Conv2d` forward + backward per stage against
/// its bare GEMMs.
/// `--json` writes machine-readable results (default `BENCH_kernels.json`).
fn run_bench_kernels(args: &[String]) {
    let mut json_path: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => {
                let path = match args.get(i + 1) {
                    Some(p) if !p.starts_with("--") => {
                        i += 1;
                        p.clone()
                    }
                    _ => "BENCH_kernels.json".to_string(),
                };
                json_path = Some(PathBuf::from(path));
            }
            other => flag_error(&format!(
                "unknown flag {other} (bench-kernels takes [--json [FILE]])"
            )),
        }
        i += 1;
    }
    eprintln!(
        "=== bench-kernels (pool threads: {}) ===",
        rayon::current_num_threads()
    );
    let started = std::time::Instant::now();
    let cases = kfac_harness::benchkernels::run_all();
    let layers = kfac_harness::benchkernels::run_layers(&cases);
    print!(
        "{}",
        kfac_harness::benchkernels::render_table(&cases, &layers)
    );
    eprintln!(
        "=== bench-kernels done in {:.1}s ===",
        started.elapsed().as_secs_f64()
    );
    if let Some(path) = json_path {
        let json = kfac_harness::benchkernels::to_json(&cases, &layers);
        match std::fs::write(&path, json) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}

/// `xp bench-eig [--json [FILE]]` — time the exact eigensolver backends
/// (tridiagonal QL, Jacobi) against the adaptive-rank randomized backend
/// on every ResNet-32 factor dimension plus ≥512 square stress dims.
/// `--json` writes machine-readable results (default `BENCH_eig.json`).
fn run_bench_eig(args: &[String]) {
    let mut json_path: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => {
                let path = match args.get(i + 1) {
                    Some(p) if !p.starts_with("--") => {
                        i += 1;
                        p.clone()
                    }
                    _ => "BENCH_eig.json".to_string(),
                };
                json_path = Some(PathBuf::from(path));
            }
            other => flag_error(&format!(
                "unknown flag {other} (bench-eig takes [--json [FILE]])"
            )),
        }
        i += 1;
    }
    eprintln!(
        "=== bench-eig (pool threads: {}) ===",
        rayon::current_num_threads()
    );
    let started = std::time::Instant::now();
    let cases = kfac_harness::bencheig::run_all();
    print!("{}", kfac_harness::bencheig::render_table(&cases));
    eprintln!(
        "=== bench-eig done in {:.1}s ===",
        started.elapsed().as_secs_f64()
    );
    if let Some(path) = json_path {
        let json = kfac_harness::bencheig::to_json(&cases);
        match std::fs::write(&path, json) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}

/// `xp bench-allreduce [--ranks N] [--iters K] [--json [FILE]]` —
/// measure ProcComm allreduce latency per algorithm across message sizes
/// on a real multi-process world, fit the α/β link model, and bracket
/// the halving/doubling↔pipelined-ring crossover between measured sizes. `--json` writes the
/// machine-readable document (default `BENCH_allreduce.json`) that
/// `kfac-cluster`'s calibration consumes.
fn run_bench_allreduce(args: &[String]) {
    let mut ranks = 4usize;
    let mut iters = kfac_harness::procrun::DEFAULT_BENCH_ITERS;
    let mut json_path: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--ranks" => {
                i += 1;
                ranks = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&r| r >= 1)
                    .unwrap_or_else(|| flag_error("--ranks needs a positive integer"));
            }
            "--iters" => {
                i += 1;
                iters = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&k| k >= 1)
                    .unwrap_or_else(|| flag_error("--iters needs a positive integer"));
            }
            "--json" => {
                let path = match args.get(i + 1) {
                    Some(p) if !p.starts_with("--") => {
                        i += 1;
                        p.clone()
                    }
                    _ => "BENCH_allreduce.json".to_string(),
                };
                json_path = Some(PathBuf::from(path));
            }
            other => flag_error(&format!(
                "unknown flag {other} (bench-allreduce takes [--ranks N] [--iters K] [--json [FILE]])"
            )),
        }
        i += 1;
    }
    let started = std::time::Instant::now();
    let outcome = kfac_harness::procrun::run_bench_allreduce(
        ranks,
        iters,
        kfac_harness::procrun::DEFAULT_BENCH_BYTES,
    )
    .unwrap_or_else(|e| {
        eprintln!("bench-allreduce failed: {e}");
        std::process::exit(1);
    });
    print!("{}", outcome.render_table());
    eprintln!(
        "=== bench-allreduce done in {:.1}s ===",
        started.elapsed().as_secs_f64()
    );
    if let Some(path) = json_path {
        match std::fs::write(&path, outcome.to_json()) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}

/// `xp proc-train [--ranks N]` — the 4-process K-FAC CIFAR demo: spawn N
/// worker processes over the TCP fabric and print rank 0's trajectory
/// summary (bitwise comparable to the in-process ThreadComm run; the
/// `proc_train` integration test pins the equality).
fn run_proc_train(args: &[String]) {
    let mut ranks = 4usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--ranks" => {
                i += 1;
                ranks = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&r| r >= 1)
                    .unwrap_or_else(|| flag_error("--ranks needs a positive integer"));
            }
            other => flag_error(&format!(
                "unknown flag {other} (proc-train takes [--ranks N])"
            )),
        }
        i += 1;
    }
    match kfac_harness::procrun::run_proc_train(ranks) {
        Ok(summary) => println!("{summary}"),
        Err(e) => {
            eprintln!("proc-train failed: {e}");
            std::process::exit(1);
        }
    }
}

/// Uniform flag-error path: say what was wrong, show usage, exit 2.
fn flag_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    usage_and_exit();
}

fn usage_and_exit() -> ! {
    eprintln!(
        "usage: xp <experiment|all|list|bench-kernels|bench-eig|bench-allreduce|proc-train|prom-lint FILE> \
         [--scale smoke|quick|full] [--out DIR] [--trace-out FILE] [--overlap [WORKERS]] \
         [--serve-metrics [PORT]] [--json [FILE]] [--ranks N] [--iters K]\n\
         experiments: {}",
        ALL_EXPERIMENTS.join(", ")
    );
    std::process::exit(2);
}
