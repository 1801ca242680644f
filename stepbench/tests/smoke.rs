//! End-to-end runs of the built program at the `--smoke` shape: every
//! workload, both kinds of run, the suite and `--compare`.

use std::path::PathBuf;
use std::process::{Command, Output};
use stepbench::jsonio::Json;
use stepbench::metrics::{END_TO_END, PER_LAYER};
use stepbench::workload::ALL;

/// The program, in an environment without stray `KFAC_*` settings.
fn stepbench(args: &[&str]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_stepbench"));
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("KFAC_") {
            cmd.env_remove(key);
        }
    }
    cmd.args(args).output().expect("the program starts")
}

fn result_line(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "exit {:?}\n{stderr}",
        out.status.code()
    );
    Json::parse(stdout.lines().last().expect("a result line")).expect("the last line is JSON")
}

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn every_workload_reports_every_metric_and_passes_its_checks() {
    let trace_dir = tmp("smoke-traces");
    for w in ALL {
        for (trace, names) in [
            ("0", END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()),
            ("1", PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()),
        ] {
            let out = stepbench(&[
                "--workload",
                w.name,
                "--seed",
                "3",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--smoke",
                "--trace-out",
                trace_dir.to_str().unwrap(),
            ]);
            let doc = result_line(&out);
            assert_eq!(
                doc.get("correct"),
                Some(&Json::Bool(true)),
                "{} trace {trace}",
                w.name
            );
            assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(doc.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let Some(Json::Obj(metrics)) = doc.get("metrics") else {
                panic!("no metrics")
            };
            let mut got: Vec<&str> = metrics.keys().map(String::as_str).collect();
            let mut want = names.clone();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "{} trace {trace}", w.name);
            for (name, m) in metrics {
                let v = m.get("value").and_then(Json::as_f64).unwrap();
                // (A difference such as `exec.graph_overhead_ms` may be negative.)
                assert!(v.is_finite(), "{name} = {v}");
            }
            if trace == "1" {
                // Rows of another workload's path stay 0.
                let value = |n: &str| metrics[n].get("value").and_then(Json::as_f64).unwrap();
                assert_eq!(value("comm.precond_calls") > 0.0, w.name == "kfac_lw");
                assert_eq!(value("exec.iter_ms") > 0.0, w.name == "kfac_steady");
                assert_eq!(
                    value("kfac.precond_ms") > 0.0,
                    w.name == "kfac_eig" || w.name == "kfac_steady"
                );
                let spans =
                    std::fs::read_to_string(trace_dir.join(format!("{}.json", w.name))).unwrap();
                let spans = Json::parse(&spans).unwrap();
                assert!(!spans
                    .get("spans")
                    .and_then(Json::as_arr)
                    .unwrap()
                    .is_empty());
            }
        }
    }
}

#[test]
fn refuses_to_measure_under_stray_kfac_variables() {
    let out = Command::new(env!("CARGO_BIN_EXE_stepbench"))
        .args([
            "--workload",
            "sgd",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--smoke",
        ])
        .env("KFAC_EIG_BACKEND", "jacobi")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("KFAC_EIG_BACKEND=jacobi"));
}

#[test]
fn suite_writes_a_file_that_compares_equal_to_itself() {
    let file = tmp("smoke-suite.json");
    let out = stepbench(&[
        "--seed",
        "5",
        "--out",
        file.to_str().unwrap(),
        "--workload",
        "sgd",
        "--runs",
        "2",
        "--smoke",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Json::parse(&std::fs::read_to_string(&file).unwrap()).unwrap();
    let sgd = doc
        .get("workloads")
        .and_then(|w| w.get("sgd"))
        .expect("the sgd workload");
    assert_eq!(
        sgd.get("config")
            .and_then(|c| c.get("fabric"))
            .and_then(Json::as_str),
        Some("thread")
    );
    let values = sgd
        .get("end_to_end")
        .and_then(|m| m.get("iter_ms"))
        .and_then(|m| m.get("values"));
    assert_eq!(values.and_then(Json::as_arr).map(<[Json]>::len), Some(2));
    assert!(sgd
        .get("per_layer")
        .and_then(|m| m.get("nn.forward_ms"))
        .is_some());

    let path = file.to_str().unwrap();
    let out = stepbench(&["--compare", path, path]);
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{table}");
    assert_eq!(table.lines().count(), 1 + END_TO_END.len(), "{table}");
}
