//! The precedence rule of `RuntimeConfig` — a default for what
//! `TrainConfig::new` fills, and nothing else — and its one `Display`
//! heading every flight-recorder dump. Installation is process-wide and
//! happens once, so this file holds exactly one test (its own process).

use kfac::{EigenSolver, KfacConfig, PlacementPolicy};
use kfac_collectives::{CollectiveAlgo, CommBackend};
use kfac_harness::runtime::{self, RuntimeConfig};
use kfac_harness::{ExecStrategy, TrainConfig};
use kfac_optim::LrSchedule;
use kfac_telemetry::json::Json;
use kfac_telemetry::{FlightRecorder, Registry};

fn new_config() -> TrainConfig {
    TrainConfig::new(2, 8, 1, LrSchedule::paper_steps(0.1, vec![1]))
}

/// The `config` header of a flight-recorder dump, if it has one.
fn dumped_config() -> Option<String> {
    let dump = FlightRecorder::default().dump_json(&Registry::new(), "test");
    let dump = Json::parse(&dump).expect("dump is JSON");
    dump.get("config")
        .and_then(|v| v.as_str())
        .map(str::to_string)
}

#[test]
fn installed_config_is_default_for_new_and_never_touches_with_kfac() {
    // Off the default in solver, placement and damping.
    let handed = KfacConfig {
        eigen_solver: EigenSolver::Randomized,
        placement: PlacementPolicy::SizeBalanced,
        damping: 0.05,
        ..KfacConfig::default()
    };
    // Nothing installed: the built-in defaults, and `with_kfac` keeps
    // what it is handed.
    assert_eq!(runtime::current(), RuntimeConfig::default());
    let cfg = new_config().with_kfac(handed.clone());
    assert_eq!(cfg.backend, CommBackend::Thread);
    assert_eq!(cfg.exec, ExecStrategy::Sequential);
    assert_eq!(cfg.kfac, Some(handed.clone()));
    assert_eq!(dumped_config(), None);

    let installed = RuntimeConfig::parse(
        [
            ("KFAC_COMM_BACKEND", "proc"),
            ("KFAC_COMM_ALGO", "flat"),
            ("KFAC_POOL_THREADS", "1"),
            ("KFAC_HEARTBEAT_MS", "250"),
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

    // A non-default installed config overrides nothing `with_kfac` is
    // handed, default or not: the run computes what its `TrainConfig` says.
    assert_eq!(cfg.clone().with_kfac(handed.clone()).kfac, Some(handed));
    let default = KfacConfig::default();
    assert_eq!(cfg.with_kfac(default.clone()).kfac, Some(default));

    // One `Display`, in the flight-recorder dump.
    let line = installed.to_string();
    assert!(
        line.starts_with("KFAC_COMM_BACKEND=proc KFAC_COMM_ALGO=flat KFAC_POOL_THREADS=1 ")
            && line.ends_with(" exec=overlapped"),
        "{line}"
    );
    assert_eq!(dumped_config(), Some(line));
}
