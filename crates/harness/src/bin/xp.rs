//! `xp` — regenerate the paper's tables and figures.
//!
//! ```text
//! xp <experiment> [--scale smoke|quick|full] [--out results/] [--trace-out trace.json]
//!                 [--overlap]
//! xp all [--scale …]        # everything
//! xp list                   # available experiment ids
//! ```
//!
//! With `--overlap`, every training run an experiment drives exchanges
//! its gradients per bucket on a background thread while backward is
//! still running, instead of after backward. Results are bitwise
//! identical either way (the `Schedule` relation of
//! `crates/harness/tests/pins.rs`).
//!
//! Every training run records its spans into one shared telemetry
//! registry; at exit a per-stage breakdown table with p50/p95/p99 is
//! printed to stderr, and with `--trace-out` the timeline is written as
//! Chrome trace-event JSON (open in `chrome://tracing` or Perfetto).
//! Simulator projections time nothing and record nothing.

use kfac_harness::experiments::{self, ALL_EXPERIMENTS, SUBCOMMANDS, XP_ALL};
use kfac_harness::presets::Scale;
use kfac_harness::report::append_to_file;
use kfac_harness::{runtime, ExecStrategy, RuntimeConfig};
use kfac_telemetry::{export, Registry};
use std::path::PathBuf;

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
    if !ALL_EXPERIMENTS.contains(&target) && !SUBCOMMANDS.contains(&target) {
        eprintln!("unknown experiment '{target}'");
        usage_and_exit();
    }
    if target == "list" {
        println!("available experiments: {}", ALL_EXPERIMENTS.join(", "));
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
            "--overlap" => config.exec = ExecStrategy::Overlapped { compute_workers: 1 },
            other => flag_error(&format!("unknown flag {other}")),
        }
        i += 1;
    }

    start(config);

    // One registry for the whole invocation: installing it on the main
    // thread makes it ambient, so every train() the drivers launch lands
    // on the same timeline.
    let registry = Registry::new();
    let telemetry_guard = registry.install(0);

    let ids: &[&str] = if target == "all" { XP_ALL } else { &[target] };

    for &id in ids {
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
    let layers = kfac_harness::benchkernels::run_layers();
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
        "usage: xp <experiment|{}> \
         [--scale smoke|quick|full] [--out DIR] [--trace-out FILE] [--overlap] \
         [--json [FILE]] [--ranks N] [--iters K]\n\
         experiments: {}",
        SUBCOMMANDS.join("|"),
        ALL_EXPERIMENTS.join(", ")
    );
    std::process::exit(2);
}
