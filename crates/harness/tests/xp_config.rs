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
    let typo = "KFAC_COMM_BACKEND".replace("BACKEND", "BACKND");
    let out = xp(&["list"], &[(&typo, "tridiag")]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing ran");
    let err = stderr(&out);
    assert!(
        err.contains(&format!("unknown variable {typo};")) && err.contains("KFAC_COMM_BACKEND"),
        "names the variable and lists the known ones: {err}"
    );
    assert!(xp(&["list"], &[]).status.success());
}

/// The eigensolver is a `KfacConfig` field, set in code, and every wire is
/// f32; the environment has no say in what a run computes.
#[test]
fn the_removed_solver_and_precision_variables_are_unknown_names() {
    for (name, value) in [
        ("KFAC_EIG_BACKEND", "randomized"),
        ("KFAC_PRECISION", "bf16"),
    ] {
        let out = xp(&["list"], &[(name, value)]);
        assert_eq!(out.status.code(), Some(2));
        assert!(out.stdout.is_empty(), "nothing ran");
        let err = stderr(&out);
        let known = err
            .split_once(&format!("unknown variable {name}; known: "))
            .unwrap_or_else(|| panic!("{name}: {err}"))
            .1;
        assert_eq!(known.trim_end().split(", ").count(), 10, "{err}");
        assert!(!known.contains(name), "{err}");
    }
}

#[test]
fn malformed_values_are_one_typed_error_in_launcher_and_worker() {
    // A launcher (`xp table1`) in the first row, a worker world of one in
    // the last two: the offending variable on top of a rendezvous.
    let worker = [
        ("KFAC_PROC_RANK", "0"),
        ("KFAC_PROC_WORLD", "1"),
        ("KFAC_PROC_ROOT", "127.0.0.1:1"),
        ("KFAC_PROC_JOB", "train-cifar"),
    ];
    let cases = [
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
        &["table1", "--scale", "smoke", "--overlap"],
        &[("KFAC_POOL_THREADS", "1"), ("KFAC_COMM_ALGO", "ring")],
    );
    let err = stderr(&out);
    assert!(out.status.success(), "{err}");
    let lines: Vec<&str> = err.lines().filter(|l| l.starts_with("config: ")).collect();
    assert_eq!(
        lines,
        [
            "config: KFAC_COMM_BACKEND=thread KFAC_COMM_ALGO=pipelined-ring \
          KFAC_POOL_THREADS=1 KFAC_HEARTBEAT_MS=500 \
          KFAC_HEARTBEAT_TIMEOUT_MS=15000 KFAC_PROC_TIMEOUT_MS=30000 exec=overlapped"
        ],
        "{err}"
    );
    // `--overlap` takes no worker count: a trailing number is a flag.
    let out = xp(&["table1", "--overlap", "2"], &[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown flag 2"), "{}", stderr(&out));
}
