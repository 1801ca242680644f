//! The precedence rule of `RuntimeConfig`, and its one `Display` reaching
//! every exporter. Installation is process-wide and happens once, so this
//! file holds exactly one test (its own process).

use kfac::{EigenSolver, KfacConfig, PrecisionPolicy};
use kfac_collectives::{CollectiveAlgo, CommBackend};
use kfac_harness::runtime::{self, RuntimeConfig};
use kfac_harness::{ExecStrategy, TrainConfig};
use kfac_optim::LrSchedule;
use kfac_telemetry::{export, FlightRecorder, Registry};

fn new_config() -> TrainConfig {
    TrainConfig::new(2, 8, 1, LrSchedule::paper_steps(0.1, vec![1]))
}

#[test]
fn installed_config_is_default_for_new_and_override_for_with_kfac() {
    // Nothing installed: the built-in defaults, and `with_kfac` keeps
    // what it is handed.
    assert_eq!(runtime::current(), RuntimeConfig::default());
    let cfg = new_config().with_kfac(KfacConfig {
        eigen_solver: EigenSolver::Randomized,
        ..KfacConfig::default()
    });
    assert_eq!(cfg.backend, CommBackend::Thread);
    assert_eq!(cfg.exec, ExecStrategy::Sequential);
    assert_eq!(cfg.kfac.unwrap().eigen_solver, EigenSolver::Randomized);
    assert!(!export::prometheus(&Registry::new()).contains("kfac_runtime_config_info"));

    let installed = RuntimeConfig::parse(
        [
            ("KFAC_COMM_BACKEND", "proc"),
            ("KFAC_COMM_ALGO", "flat"),
            ("KFAC_EIG_BACKEND", "tridiag"),
            ("KFAC_PRECISION", "bf16"),
        ]
        .map(|(k, v)| (k.to_string(), v.to_string())),
    )
    .map(|parsed| RuntimeConfig {
        exec: ExecStrategy::Overlapped { compute_workers: 3 },
        ..parsed
    })
    .unwrap();
    runtime::install(installed.clone());
    assert_eq!(runtime::current(), installed);
    assert_eq!(
        runtime::current().algo_policy().algo,
        CollectiveAlgo::Flat,
        "train()'s proc groups take the installed algorithm"
    );

    // Default for what `new` fills; the builders win over it.
    let cfg = new_config();
    assert_eq!(cfg.backend, CommBackend::Proc);
    assert_eq!(cfg.exec, ExecStrategy::Overlapped { compute_workers: 3 });
    let cfg = cfg
        .with_backend(CommBackend::Thread)
        .with_exec(ExecStrategy::Sequential);
    assert_eq!(cfg.backend, CommBackend::Thread);
    assert_eq!(cfg.exec, ExecStrategy::Sequential);

    // Override for the solver and precision `with_kfac` is handed …
    let handed = KfacConfig {
        eigen_solver: EigenSolver::Randomized,
        damping: 0.05,
        ..KfacConfig::default()
    };
    let kfac = cfg.clone().with_kfac(handed.clone()).kfac.unwrap();
    assert_eq!(kfac.eigen_solver, EigenSolver::TridiagonalQl);
    assert_eq!(kfac.precision, PrecisionPolicy::bf16());
    assert_eq!(kfac.damping, 0.05, "nothing else is touched");
    // … and direct assignment pins both.
    let mut pinned = cfg;
    pinned.kfac = Some(handed);
    let kfac = pinned.kfac.unwrap();
    assert_eq!(kfac.eigen_solver, EigenSolver::Randomized);
    assert_eq!(kfac.precision, PrecisionPolicy::f32());

    // One `Display`, everywhere: /metrics and the flight-recorder dump.
    let line = installed.to_string();
    assert!(
        line.starts_with("KFAC_COMM_BACKEND=proc KFAC_COMM_ALGO=flat KFAC_EIG_BACKEND=tridiag ")
            && line.ends_with(" exec=overlapped:3"),
        "{line}"
    );
    let registry = Registry::new();
    let doc = export::prometheus(&registry);
    export::lint_prometheus(&doc).expect("exposition with the info series lints clean");
    assert!(
        doc.contains(&format!("kfac_runtime_config_info{{config=\"{line}\"}} 1")),
        "{doc}"
    );
    let dump = FlightRecorder::default().dump_json(&registry, "test");
    let dump = kfac_telemetry::json::Json::parse(&dump).expect("dump is JSON");
    assert_eq!(dump.get("config").and_then(|v| v.as_str()), Some(&*line));
}
