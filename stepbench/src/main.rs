//! Command line of the benchmark; see `README.md` in this package.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use stepbench::jsonio::{render, Json};
use stepbench::run::{run, Options};
use stepbench::suite::{self, SuiteOptions};
use stepbench::{compare, envpin, workload};

const USAGE: &str = "\
usage:
  stepbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--trace-out DIR]
      one run of one workload; the last line printed is the result as JSON
      (--trace 0: end-to-end metrics, --trace 1: per-layer metrics)
  stepbench --seed N --out FILE [--runs R] [--seconds S] [--workload NAME] [--smoke] [--trace-out DIR]
      every workload (or the one named): R timed runs on seeds N..N+R and one traced run each
  stepbench --compare A.json B.json
      compare two --out files; exits 1 if any end-to-end metric got worse
workloads: sgd, kfac_eig, kfac_steady, kfac_lw";

/// Parsed command line.
#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    runs: Option<usize>,
    smoke: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &String| format!("{flag}: cannot read {v:?}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = Some(value().and_then(|v| v.parse().map_err(|_| bad(v)))?),
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| bad(v))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad(v));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--runs" => {
                let v = value()?;
                args.runs = Some(v.parse().ok().filter(|r| *r >= 1).ok_or_else(|| bad(v))?);
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(value()?.into()),
            "--trace-out" => args.trace_out = Some(value()?.into()),
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn load(path: &PathBuf) -> Result<Json, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&src).map_err(|e| format!("{}: {e}", path.display()))
}

fn main_inner(started: Instant) -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse(&argv).map_err(|e| format!("{e}\n{USAGE}"))?;
    if let Some((a, b)) = &args.compare {
        let (table, worse) = compare::compare(&load(a)?, &load(b)?)?;
        print!("{table}");
        return Ok(if worse {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        });
    }
    envpin::pin_process_env().map_err(|e| e.to_string())?;
    let named = match &args.workload {
        Some(name) => Some(
            workload::by_name(name).ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?,
        ),
        None => None,
    };
    let seed = args
        .seed
        .ok_or_else(|| format!("--seed is required\n{USAGE}"))?;

    let Some(trace) = args.trace else {
        // Suite mode.
        let out = args
            .out
            .ok_or_else(|| format!("--out is required\n{USAGE}"))?;
        let ok = suite::run(&SuiteOptions {
            workloads: named.map_or(workload::ALL.to_vec(), |w| vec![w]),
            seed,
            runs: args.runs.unwrap_or(1),
            seconds: args.seconds.unwrap_or(26.0),
            smoke: args.smoke,
            out,
            trace_out: args.trace_out,
        })?;
        return Ok(if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    };

    let workload = named.ok_or_else(|| format!("--workload is required with --trace\n{USAGE}"))?;
    let seconds = args
        .seconds
        .ok_or_else(|| format!("--seconds is required with --trace\n{USAGE}"))?;
    let report = run(&Options {
        workload,
        seed,
        seconds,
        trace,
        smoke: args.smoke,
        trace_out: args.trace_out,
        started,
    });
    eprintln!("[{} seed {seed} trace {}]", workload.name, u8::from(trace));
    for note in &report.notes {
        eprintln!("{note}");
    }
    for m in &report.metrics {
        eprintln!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if report.metrics.is_empty() {
        return Err("no trial completed; nothing to report".into());
    }
    println!("{}", render(&report.to_json()));
    Ok(if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    main_inner(started).unwrap_or_else(|e| {
        eprintln!("stepbench: {e}");
        ExitCode::from(2)
    })
}
