//! `xp` resolves the environment once, at start-up: a misspelt name or a
//! malformed value stops it there with the one typed error — never a
//! panic in a constructor, a transport error, or a silent default — and
//! what it resolved is printed as one line.

use std::process::{Command, Output};

/// Run `xp args…` under exactly `env` as its `KFAC_*` environment.
fn xp(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_xp"));
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("KFAC_") {
            cmd.env_remove(name);
        }
    }
    cmd.args(args).envs(env.iter().copied());
    cmd.output().expect("spawn xp")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn a_misspelt_variable_name_stops_xp_before_anything_runs() {
    let typo = "KFAC_EIG_BACKEND".replace("BACKEND", "BACKND");
    let out = xp(&["list"], &[(&typo, "tridiag")]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing ran");
    let err = stderr(&out);
    assert!(
        err.contains(&format!("unknown variable {typo};")) && err.contains("KFAC_EIG_BACKEND"),
        "names the variable and lists the known ones: {err}"
    );
    assert!(xp(&["list"], &[]).status.success());
}

#[test]
fn malformed_values_are_one_typed_error_in_launcher_and_worker() {
    // A launcher (`xp table1`) in the first five rows, a worker world of
    // one in the last two: the offending variable on top of a rendezvous.
    let worker = [
        ("KFAC_PROC_RANK", "0"),
        ("KFAC_PROC_WORLD", "1"),
        ("KFAC_PROC_ROOT", "127.0.0.1:1"),
        ("KFAC_PROC_JOB", "train-cifar"),
    ];
    let cases = [
        (false, "KFAC_EIG_BACKEND", "lapack", "tridiag|randomized"),
        // The oracle is not a backend, and a removed stage is not a wire.
        (false, "KFAC_EIG_BACKEND", "jacobi", "tridiag|randomized"),
        (
            false,
            "KFAC_PRECISION",
            "capture=bf16",
            "grad_wire|factor_wire",
        ),
        (false, "KFAC_PRECISION", "grad_wire=f16", "f32|bf16"),
        (false, "KFAC_COMM_BACKEND", "mpi", "thread|proc"),
        // Used to surface as `CollectiveError::Mismatch` from the mesh.
        (true, "KFAC_HEARTBEAT_MS", "fast", "millisecond"),
        // Used to fall back to the default iteration count silently.
        (
            true,
            "KFAC_PROC_JOB",
            "bench-allreduce;iters=x;bytes=8",
            "iters",
        ),
    ];
    for (in_worker, name, value, expected) in cases {
        let mut env: Vec<(&str, &str)> = if in_worker {
            worker.to_vec()
        } else {
            Vec::new()
        };
        env.retain(|(k, _)| *k != name);
        env.push((name, value));
        let out = xp(if in_worker { &[] } else { &["table1"] }, &env);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{env:?}: {err}");
        assert!(
            err.contains(name) && err.contains(value) && err.contains(expected),
            "{env:?}: {err}"
        );
        assert!(!err.contains("panicked"), "{err}");
    }
}

#[test]
fn the_resolved_config_is_printed_once_and_redirects_the_run() {
    let out = xp(
        &["table1", "--scale", "smoke", "--overlap", "1"],
        &[("KFAC_EIG_BACKEND", "ql"), ("KFAC_COMM_ALGO", "ring")],
    );
    let err = stderr(&out);
    assert!(out.status.success(), "{err}");
    let lines: Vec<&str> = err.lines().filter(|l| l.starts_with("config: ")).collect();
    assert_eq!(
        lines,
        [
            "config: KFAC_COMM_BACKEND=thread KFAC_COMM_ALGO=pipelined-ring \
          KFAC_EIG_BACKEND=tridiag KFAC_PRECISION=- KFAC_POOL_THREADS=- KFAC_HEARTBEAT_MS=500 \
          KFAC_HEARTBEAT_TIMEOUT_MS=15000 KFAC_PROC_TIMEOUT_MS=30000 exec=overlapped:1"
        ],
        "{err}"
    );
}
