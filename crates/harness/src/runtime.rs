//! The one reader of the process environment.
//!
//! [`RuntimeConfig::parse`] is the only code in this workspace that
//! interprets `KFAC_*` variables: it owns the table of known names
//! ([`KNOWN`]), rejects unknown `KFAC_*` names and malformed values with
//! one typed error ([`ConfigError`]), and is called once, at the top of
//! `xp`'s `main`, launcher and worker process alike. The result is
//! [`install`]ed process-wide; everything beneath — trainer, fabrics,
//! preconditioner — takes values. [`RuntimeConfig::to_env`] is the inverse
//! `procrun::spawn_world` hands to its children, so a worker runs exactly
//! what its parent resolved.

use crate::elastic::ElasticSpec;
use crate::overlap::ExecStrategy;
use kfac::{EigenSolver, PrecisionPolicy};
use kfac_collectives::{AlgoPolicy, CollectiveAlgo, CommBackend, HeartbeatConfig, ProcConfig};
use std::collections::BTreeMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

/// Every `KFAC_*` variable there is. A variable named `KFAC_*` that is not
/// listed here is an error, not a silent default; README's "Configuration"
/// table documents exactly these (a test holds the two equal).
pub const KNOWN: [&str; 12] = [
    "KFAC_COMM_BACKEND",
    "KFAC_COMM_ALGO",
    "KFAC_EIG_BACKEND",
    "KFAC_PRECISION",
    "KFAC_POOL_THREADS",
    "KFAC_HEARTBEAT_MS",
    "KFAC_HEARTBEAT_TIMEOUT_MS",
    "KFAC_PROC_TIMEOUT_MS",
    "KFAC_PROC_RANK",
    "KFAC_PROC_WORLD",
    "KFAC_PROC_ROOT",
    "KFAC_PROC_JOB",
];

/// The one failure of configuration resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A variable named `KFAC_*` that [`KNOWN`] does not list (a typo in a
    /// *name* must not silently run the default).
    UnknownVariable(String),
    /// A known variable whose value was rejected.
    Invalid {
        /// The variable.
        variable: &'static str,
        /// What it was set to (empty when it is required but unset).
        value: String,
        /// What would have been accepted.
        expected: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::UnknownVariable(name) => {
                write!(f, "unknown variable {name}; known: {}", KNOWN.join(", "))
            }
            ConfigError::Invalid {
                variable,
                value,
                expected,
            } => write!(f, "{variable}={value:?} invalid; expected {expected}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// What a spawned worker process runs: `KFAC_PROC_JOB`, one spec string
/// `name[;key=value…]` carrying the whole parent→child scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Job {
    /// `bench-allreduce;iters=N;bytes=N,N,…` — time allreduces of each
    /// message size (`xp bench-allreduce`).
    BenchAllreduce {
        /// Timed iterations per message size.
        iters: usize,
        /// Message sizes in bytes.
        bytes: Vec<usize>,
    },
    /// `train-cifar` — the K-FAC CIFAR demo (`xp proc-train`).
    TrainCifar,
    /// `train-elastic;iters=N;world=N;kill_step=N;kill_rank=N;ckpt_every=N;ckpt=PATH`
    /// — the shrink-world trial (`xp elastic`). `ckpt`, where rank 0
    /// persists the restore blob, comes last and runs to the end of the
    /// string.
    TrainElastic {
        /// The scenario.
        spec: ElasticSpec,
        /// Where rank 0 persists the blob the survivors restored from.
        ckpt: PathBuf,
    },
}

impl Job {
    const EXPECTED: &'static str = "bench-allreduce;iters=N;bytes=N,N,… | train-cifar | \
         train-elastic;iters=N;world=N;kill_step=N;kill_rank=N;ckpt_every=N;ckpt=PATH";

    fn parse(spec: &str) -> Result<Job, String> {
        let (head, ckpt) = match spec.split_once(";ckpt=") {
            Some((head, path)) => (head, Some(PathBuf::from(path))),
            None => (spec, None),
        };
        let mut parts = head.split(';');
        let name = parts.next().unwrap_or_default();
        let mut fields: BTreeMap<&str, &str> = BTreeMap::new();
        for part in parts {
            let (key, value) = part.split_once('=').ok_or(Self::EXPECTED)?;
            fields.insert(key, value);
        }
        let mut num = |key: &str| -> Result<usize, String> {
            let value = fields.remove(key).ok_or(Self::EXPECTED)?;
            value
                .parse()
                .map_err(|_| format!("{key} a non-negative integer, in {}", Self::EXPECTED))
        };
        let job = match (name, ckpt) {
            ("bench-allreduce", None) => Job::BenchAllreduce {
                iters: num("iters")?,
                bytes: fields
                    .remove("bytes")
                    .ok_or(Self::EXPECTED)?
                    .split(',')
                    .map(|b| b.parse().map_err(|_| Self::EXPECTED.to_string()))
                    .collect::<Result<_, _>>()?,
            },
            ("train-cifar", None) => Job::TrainCifar,
            ("train-elastic", Some(ckpt)) => {
                let spec = ElasticSpec {
                    iters: num("iters")?,
                    world: num("world")?,
                    kill_step: num("kill_step")?,
                    kill_rank: num("kill_rank")?,
                    checkpoint_every: num("ckpt_every")?,
                };
                spec.validate()?;
                Job::TrainElastic { spec, ckpt }
            }
            _ => return Err(Self::EXPECTED.into()),
        };
        if fields.is_empty() {
            Ok(job)
        } else {
            Err(Self::EXPECTED.into())
        }
    }
}

impl fmt::Display for Job {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Job::BenchAllreduce { iters, bytes } => {
                let bytes: Vec<String> = bytes.iter().map(|b| b.to_string()).collect();
                write!(f, "bench-allreduce;iters={iters};bytes={}", bytes.join(","))
            }
            Job::TrainCifar => f.write_str("train-cifar"),
            Job::TrainElastic { spec, ckpt } => write!(
                f,
                "train-elastic;iters={};world={};kill_step={};kill_rank={};ckpt_every={};ckpt={}",
                spec.iters,
                spec.world,
                spec.kill_step,
                spec.kill_rank,
                spec.checkpoint_every,
                ckpt.display()
            ),
        }
    }
}

/// The rendezvous of a worker process: `KFAC_PROC_{RANK,WORLD,ROOT,JOB}`,
/// all four or none.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSpec {
    /// This process's rank in `0..world`.
    pub rank: usize,
    /// Number of processes in the group.
    pub world: usize,
    /// `host:port` rank 0 listens on.
    pub root: String,
    /// What to run once the mesh is up.
    pub job: Job,
}

/// Everything the process environment (and `xp --overlap`) decides,
/// resolved once.
///
/// # Precedence
///
/// The installed config is
///
/// * the **default** for what [`TrainConfig::new`](crate::TrainConfig::new)
///   fills — [`backend`](Self::backend) and [`exec`](Self::exec) — so
///   `with_backend` / `with_exec` (or assigning the field) win over it;
/// * the **override** [`TrainConfig::with_kfac`](crate::TrainConfig::with_kfac)
///   applies to the `eigen_solver` and `precision` of the `KfacConfig` it is
///   handed, whenever [`eig`](Self::eig) / [`precision`](Self::precision)
///   are `Some` — which is what lets `KFAC_EIG_BACKEND=randomized xp table1`
///   re-run an experiment under another solver without a rebuild;
/// * bypassed by assigning `cfg.kfac` directly, which pins both (what the
///   two-arm comparisons `randeig` and `mixed` do).
///
/// With nothing installed — every library test, `stepbench` —
/// [`current`] is [`RuntimeConfig::default`], the built-in defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeConfig {
    /// `KFAC_COMM_BACKEND`: the fabric `TrainConfig::new` selects.
    pub backend: CommBackend,
    /// `KFAC_COMM_ALGO`: the allreduce algorithm of every group `train`
    /// and the workers build, on either fabric (thresholds stay
    /// [`AlgoPolicy::default`]'s).
    pub algo: CollectiveAlgo,
    /// `KFAC_EIG_BACKEND`: eigensolver `with_kfac` substitutes.
    pub eig: Option<EigenSolver>,
    /// `KFAC_PRECISION`: precision policy `with_kfac` substitutes.
    pub precision: Option<PrecisionPolicy>,
    /// `KFAC_POOL_THREADS`: GEMM pool size. Validated and reported here;
    /// the `rayon` shim reads the variable itself, lazily, once.
    pub pool_threads: Option<usize>,
    /// `KFAC_HEARTBEAT_MS` (period; 0 disables) and
    /// `KFAC_HEARTBEAT_TIMEOUT_MS` (silence threshold) of worker processes.
    pub heartbeat: HeartbeatConfig,
    /// `KFAC_PROC_TIMEOUT_MS`: rendezvous and per-receive deadline of
    /// worker processes.
    pub proc_timeout: Duration,
    /// `KFAC_PROC_{RANK,WORLD,ROOT,JOB}`: set iff this process is a worker.
    pub worker: Option<WorkerSpec>,
    /// `xp --overlap`: the execution strategy `TrainConfig::new` selects.
    /// The one field with no variable; [`to_env`](Self::to_env) does not
    /// carry it (workers run the sequential reference loop).
    pub exec: ExecStrategy,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            backend: CommBackend::Thread,
            algo: CollectiveAlgo::Auto,
            eig: None,
            precision: None,
            pool_threads: None,
            heartbeat: HeartbeatConfig::default(),
            proc_timeout: ProcConfig::DEFAULT_TIMEOUT,
            worker: None,
            exec: ExecStrategy::Sequential,
        }
    }
}

impl RuntimeConfig {
    /// Resolve a listing of environment variables. Pure: names not
    /// starting with `KFAC_` are ignored, every other name must be in
    /// [`KNOWN`] and every value must parse.
    pub fn parse(
        vars: impl IntoIterator<Item = (String, String)>,
    ) -> Result<RuntimeConfig, ConfigError> {
        let mut set: BTreeMap<&'static str, String> = BTreeMap::new();
        for (name, value) in vars {
            if name.starts_with("KFAC_") {
                match KNOWN.iter().find(|known| **known == name) {
                    Some(known) => set.insert(known, value),
                    None => return Err(ConfigError::UnknownVariable(name)),
                };
            }
        }
        // One variable through its value parser; `Err` is what it expected.
        fn var<T>(
            set: &BTreeMap<&'static str, String>,
            variable: &'static str,
            parse: impl FnOnce(&str) -> Result<T, String>,
        ) -> Result<Option<T>, ConfigError> {
            set.get(variable)
                .map(|value| parse(value).map_err(|expected| invalid(variable, value, expected)))
                .transpose()
        }
        // A member of the rendezvous set, once `KFAC_PROC_RANK` is set.
        fn required<T>(
            set: &BTreeMap<&'static str, String>,
            variable: &'static str,
            parse: impl FnOnce(&str) -> Result<T, String>,
        ) -> Result<T, ConfigError> {
            let expected = "a value whenever KFAC_PROC_RANK is set".into();
            var(set, variable, parse)?.ok_or_else(|| invalid(variable, "", expected))
        }
        let millis = |s: &str| {
            s.parse()
                .map(Duration::from_millis)
                .map_err(|_| "a millisecond count".to_string())
        };
        let index = |what: &'static str| move |s: &str| s.parse::<usize>().map_err(|_| what.into());

        let mut cfg = RuntimeConfig::default();
        if let Some(v) = var(&set, "KFAC_COMM_BACKEND", |s| {
            CommBackend::parse(s).map_err(|_| "thread|proc".into())
        })? {
            cfg.backend = v;
        }
        if let Some(v) = var(&set, "KFAC_COMM_ALGO", |s| {
            CollectiveAlgo::parse(s).ok_or("flat|ring|hd|auto".into())
        })? {
            cfg.algo = v;
        }
        cfg.eig = var(&set, "KFAC_EIG_BACKEND", |s| {
            EigenSolver::parse(s).ok_or("tridiag|randomized".into())
        })?;
        cfg.precision = var(&set, "KFAC_PRECISION", PrecisionPolicy::parse)?;
        cfg.pool_threads = var(&set, "KFAC_POOL_THREADS", index("a thread count"))?;
        if let Some(v) = var(&set, "KFAC_HEARTBEAT_MS", millis)? {
            cfg.heartbeat.interval = v;
        }
        if let Some(v) = var(&set, "KFAC_HEARTBEAT_TIMEOUT_MS", millis)? {
            cfg.heartbeat.timeout = v;
        }
        if let Some(v) = var(&set, "KFAC_PROC_TIMEOUT_MS", millis)? {
            cfg.proc_timeout = v;
        }

        // The rendezvous set: all four or none.
        match var(&set, "KFAC_PROC_RANK", index("a rank index"))? {
            None => {
                let rest = ["KFAC_PROC_WORLD", "KFAC_PROC_ROOT", "KFAC_PROC_JOB"];
                if let Some(stray) = rest.into_iter().find(|v| set.contains_key(v)) {
                    let expected = "to be unset unless KFAC_PROC_RANK is set".into();
                    return Err(invalid(stray, &set[stray], expected));
                }
            }
            Some(rank) => {
                let world = required(&set, "KFAC_PROC_WORLD", index("a group size"))?;
                if rank >= world {
                    let expected = format!("a rank index below KFAC_PROC_WORLD={world}");
                    return Err(invalid("KFAC_PROC_RANK", &set["KFAC_PROC_RANK"], expected));
                }
                cfg.worker = Some(WorkerSpec {
                    rank,
                    world,
                    root: required(&set, "KFAC_PROC_ROOT", |s| match s.contains(':') {
                        true => Ok(s.to_string()),
                        false => Err("host:port".into()),
                    })?,
                    job: required(&set, "KFAC_PROC_JOB", Job::parse)?,
                });
            }
        }
        Ok(cfg)
    }

    /// [`parse`](Self::parse) over this process's environment — the one
    /// place the workspace reads it (a value that is not UTF-8 reaches its
    /// parser with replacement characters and is rejected there).
    pub fn from_process_env() -> Result<RuntimeConfig, ConfigError> {
        Self::parse(std::env::vars_os().filter_map(|(name, value)| {
            Some((
                name.into_string().ok()?,
                value.to_string_lossy().into_owned(),
            ))
        }))
    }

    /// The inverse of [`parse`](Self::parse): the variables that make a
    /// child process resolve this config ([`exec`](Self::exec) excepted).
    /// Every field with a built-in default is spelled out, so the child
    /// does not depend on sharing this binary's defaults.
    pub fn to_env(&self) -> Vec<(&'static str, String)> {
        let ms = |d: Duration| d.as_millis().to_string();
        let mut env = vec![
            ("KFAC_COMM_BACKEND", self.backend.name().to_string()),
            ("KFAC_COMM_ALGO", self.algo.name().to_string()),
            ("KFAC_HEARTBEAT_MS", ms(self.heartbeat.interval)),
            ("KFAC_HEARTBEAT_TIMEOUT_MS", ms(self.heartbeat.timeout)),
            ("KFAC_PROC_TIMEOUT_MS", ms(self.proc_timeout)),
        ];
        if let Some(solver) = self.eig {
            env.push(("KFAC_EIG_BACKEND", solver.name().to_string()));
        }
        if let Some(policy) = self.precision {
            env.push(("KFAC_PRECISION", policy.spec_string()));
        }
        if let Some(n) = self.pool_threads {
            env.push(("KFAC_POOL_THREADS", n.to_string()));
        }
        if let Some(w) = &self.worker {
            env.push(("KFAC_PROC_RANK", w.rank.to_string()));
            env.push(("KFAC_PROC_WORLD", w.world.to_string()));
            env.push(("KFAC_PROC_ROOT", w.root.clone()));
            env.push(("KFAC_PROC_JOB", w.job.to_string()));
        }
        env
    }

    /// The collective algorithm policy: [`algo`](Self::algo) over the
    /// default thresholds.
    pub fn algo_policy(&self) -> AlgoPolicy {
        AlgoPolicy {
            algo: self.algo,
            ..AlgoPolicy::default()
        }
    }
}

/// The resolved config on one line: every variable as `NAME=value` in
/// [`KNOWN`] order (`-` where unset leaves the choice to each
/// experiment; the rendezvous four only in a worker), then `exec=`. What
/// `xp` prints at start-up, `/metrics` exports as
/// `kfac_runtime_config_info` and flight-recorder dumps carry as `config`.
impl fmt::Display for RuntimeConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let env = self.to_env();
        for name in KNOWN
            .iter()
            .filter(|n| self.worker.is_some() || !is_rendezvous(n))
        {
            let value = env.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str());
            write!(f, "{name}={} ", value.unwrap_or("-"))?;
        }
        match self.exec {
            ExecStrategy::Sequential => f.write_str("exec=sequential"),
            ExecStrategy::Overlapped { compute_workers } => {
                write!(f, "exec=overlapped:{compute_workers}")
            }
            ExecStrategy::Replay { seed } => write!(f, "exec=replay:{seed}"),
        }
    }
}

fn invalid(variable: &'static str, value: &str, expected: String) -> ConfigError {
    ConfigError::Invalid {
        variable,
        value: value.to_string(),
        expected,
    }
}

fn is_rendezvous(name: &str) -> bool {
    name.starts_with("KFAC_PROC_") && name != "KFAC_PROC_TIMEOUT_MS"
}

static INSTALLED: OnceLock<RuntimeConfig> = OnceLock::new();

/// Install `cfg` for the rest of the process and record its `Display`
/// with the telemetry exporters. `xp` calls this once, before anything
/// runs.
///
/// # Panics
/// Panics on a second call: two configs in one process is a bug.
pub fn install(cfg: RuntimeConfig) {
    kfac_telemetry::set_run_config(cfg.to_string());
    INSTALLED
        .set(cfg)
        .expect("the runtime config is installed once per process");
}

/// The installed config, or the built-in defaults when none is.
pub fn current() -> RuntimeConfig {
    INSTALLED.get().cloned().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    const RENDEZVOUS: [(&str, &str); 4] = [
        ("KFAC_PROC_RANK", "1"),
        ("KFAC_PROC_WORLD", "4"),
        ("KFAC_PROC_ROOT", "127.0.0.1:29500"),
        ("KFAC_PROC_JOB", "train-cifar"),
    ];

    /// `name` set to `value`, over the rendezvous set when `name` belongs
    /// to it (those four are only valid together).
    fn with(name: &str, value: &str) -> Vec<(String, String)> {
        let mut env = if is_rendezvous(name) {
            vars(&RENDEZVOUS)
        } else {
            Vec::new()
        };
        env.retain(|(k, _)| k != name);
        env.push((name.to_string(), value.to_string()));
        env
    }

    /// One row per known variable: a valid value with its canonical
    /// `to_env` spelling, and a malformed one.
    const TABLE: [(&str, &str, &str, &str); 12] = [
        ("KFAC_COMM_BACKEND", " Proc ", "proc", "mpi"),
        ("KFAC_COMM_ALGO", "hd", "halving-doubling", "nccl"),
        ("KFAC_EIG_BACKEND", "ql", "tridiag", "lapack"),
        (
            "KFAC_PRECISION",
            "bf16,factor_wire=f32",
            "grad_wire=bf16,factor_wire=f32",
            "capture=bf16",
        ),
        ("KFAC_POOL_THREADS", "3", "3", "many"),
        ("KFAC_HEARTBEAT_MS", "0", "0", "fast"),
        ("KFAC_HEARTBEAT_TIMEOUT_MS", "2500", "2500", "-1"),
        ("KFAC_PROC_TIMEOUT_MS", "1000", "1000", "1s"),
        ("KFAC_PROC_RANK", "3", "3", "4"),
        ("KFAC_PROC_WORLD", "2", "2", "two"),
        ("KFAC_PROC_ROOT", "localhost:1", "localhost:1", "nowhere"),
        (
            "KFAC_PROC_JOB",
            "bench-allreduce;iters=2;bytes=1024,4096",
            "bench-allreduce;iters=2;bytes=1024,4096",
            "train-cifar;epochs=3",
        ),
    ];

    #[test]
    fn every_known_variable_defaults_parses_and_rejects() {
        assert_eq!(TABLE.map(|row| row.0), KNOWN, "one row per known name");
        // Unset (and unrelated names): the built-in defaults.
        let clean = RuntimeConfig::parse(vars(&[("PATH", "/bin"), ("KFACTOR", "x")])).unwrap();
        assert_eq!(clean, RuntimeConfig::default());
        assert_eq!(clean.backend, CommBackend::Thread);
        assert_eq!(clean.algo_policy().algo, CollectiveAlgo::Auto);
        assert_eq!(
            (clean.eig, clean.precision, clean.pool_threads),
            (None, None, None)
        );
        assert_eq!(clean.heartbeat, HeartbeatConfig::default());
        assert_eq!(clean.proc_timeout, ProcConfig::DEFAULT_TIMEOUT);
        assert_eq!(clean.worker, None);

        for (name, valid, canonical, malformed) in TABLE {
            let cfg = RuntimeConfig::parse(with(name, valid))
                .unwrap_or_else(|e| panic!("{name}={valid}: {e}"));
            assert_ne!(cfg, clean, "{name}={valid} changed nothing");
            assert!(
                cfg.to_env().contains(&(name, canonical.to_string())),
                "{name}={valid} resolved to {:?}",
                cfg.to_env()
            );
            match RuntimeConfig::parse(with(name, malformed)).unwrap_err() {
                ConfigError::Invalid {
                    variable, value, ..
                } => assert_eq!((variable, value.as_str()), (name, malformed)),
                e => panic!("{name}={malformed}: {e}"),
            }
            let msg = RuntimeConfig::parse(with(name, malformed))
                .unwrap_err()
                .to_string();
            assert!(
                msg.contains(name) && msg.contains(malformed) && msg.contains("expected"),
                "{msg}"
            );
        }
    }

    #[test]
    fn value_parsers_keep_their_aliases_and_messages() {
        let cfg = RuntimeConfig::parse(vars(&[
            ("KFAC_COMM_ALGO", "ring"),
            ("KFAC_EIG_BACKEND", "rsvd"),
            ("KFAC_PRECISION", "factor_wire=bf16"),
        ]))
        .unwrap();
        assert_eq!(cfg.algo_policy().algo, CollectiveAlgo::PipelinedRing);
        // Only the algorithm is a variable; the thresholds are the defaults.
        assert_eq!(
            cfg.algo_policy().chunk_elems,
            AlgoPolicy::default().chunk_elems
        );
        assert_eq!(
            cfg.algo_policy().hd_max_bytes,
            AlgoPolicy::default().hd_max_bytes
        );
        assert_eq!(cfg.eig, Some(EigenSolver::Randomized));
        assert_eq!(cfg.precision.unwrap().factor_wire, kfac_tensor::Dtype::Bf16);
        assert_eq!(cfg.precision.unwrap().grad_wire, kfac_tensor::Dtype::F32);
        // A removed precision stage is told the two left; f16 is no dtype.
        let msg = |value| {
            RuntimeConfig::parse(vars(&[("KFAC_PRECISION", value)]))
                .unwrap_err()
                .to_string()
        };
        assert!(msg("capture=bf16").contains("grad_wire|factor_wire"));
        assert!(msg("grad_wire=f16").contains("f32|bf16"));
        let msg = RuntimeConfig::parse(vars(&[("KFAC_EIG_BACKEND", "lapack")]))
            .unwrap_err()
            .to_string();
        assert!(msg.contains("expected tridiag|randomized"), "{msg}");
        let msg = RuntimeConfig::parse(vars(&[("KFAC_EIG_BACKEND", "jacobi")]))
            .unwrap_err()
            .to_string();
        assert!(msg.contains("expected tridiag|randomized"), "{msg}");
    }

    #[test]
    fn an_unknown_name_is_rejected_with_the_known_list() {
        // A misspelling of each known name, one letter dropped.
        for known in KNOWN {
            let typo = &known[..known.len() - 1];
            let err = RuntimeConfig::parse(vars(&[(typo, "1")])).unwrap_err();
            assert_eq!(err, ConfigError::UnknownVariable(typo.to_string()));
            let msg = err.to_string();
            assert!(
                msg.starts_with(&format!("unknown variable {typo};")),
                "{msg}"
            );
            for known in KNOWN {
                assert!(msg.contains(known), "{msg} omits {known}");
            }
        }
    }

    #[test]
    fn the_rendezvous_set_is_all_or_none() {
        let cfg = RuntimeConfig::parse(vars(&RENDEZVOUS)).unwrap();
        let w = cfg.worker.expect("worker");
        assert_eq!(
            (w.rank, w.world, w.root.as_str()),
            (1, 4, "127.0.0.1:29500")
        );
        assert_eq!(w.job, Job::TrainCifar);
        for (dropped, _) in &RENDEZVOUS[1..] {
            let mut env = vars(&RENDEZVOUS);
            env.retain(|(k, _)| k != dropped);
            let msg = RuntimeConfig::parse(env).unwrap_err().to_string();
            assert!(
                msg.contains(dropped) && msg.contains("KFAC_PROC_RANK"),
                "{msg}"
            );
        }
        let stray = RuntimeConfig::parse(vars(&[("KFAC_PROC_WORLD", "4")])).unwrap_err();
        assert!(stray.to_string().contains("unset unless"), "{stray}");
    }

    /// The elastic scenario's structural rules are the job parser's, so a
    /// bad scenario is the same typed error as any other bad value
    /// (`ElasticSpec::validate`'s own messages come through).
    #[test]
    fn job_specs_are_typed_not_panicking() {
        let job = |spec: &str| RuntimeConfig::parse(with("KFAC_PROC_JOB", spec));
        let elastic = |iters, kill_step, kill_rank| {
            format!(
                "train-elastic;iters={iters};world=4;kill_step={kill_step};\
                 kill_rank={kill_rank};ckpt_every=2;ckpt=/tmp/r.ckpt"
            )
        };
        let ok = job(&elastic(8, 4, 2)).unwrap().worker.unwrap().job;
        assert_eq!(
            ok,
            Job::TrainElastic {
                spec: ElasticSpec::canonical(8),
                ckpt: PathBuf::from("/tmp/r.ckpt"),
            }
        );
        for (bad, why) in [
            (elastic(8, 4, 0), "rank 0"),     // rank 0 must survive to report
            (elastic(8, 1, 2), "checkpoint"), // kill before the first checkpoint
            (elastic(8, 8, 2), "budget"),     // kill outside the budget
        ] {
            let msg = job(&bad).unwrap_err().to_string();
            assert!(msg.contains(why) && msg.contains("KFAC_PROC_JOB"), "{msg}");
        }
        for bad in [
            "",
            "train",
            "train-elastic",                     // scenario fields missing
            "train-elastic;iters=8;ckpt=/tmp/r", // some missing
            "train-elastic;iters=x;world=4;kill_step=4;kill_rank=2;ckpt_every=2;ckpt=/r",
            "bench-allreduce;iters=2", // sizes missing
            "bench-allreduce;iters=2;bytes=1k",
            "bench-allreduce;iters=2;bytes=8;ckpt=/tmp/r", // field of another job
            "train-cifar;iters=2",
        ] {
            let msg = job(bad).unwrap_err().to_string();
            assert!(msg.contains("train-elastic;iters=N"), "{bad:?}: {msg}");
        }
    }

    #[test]
    fn to_env_round_trips_every_field_and_every_job() {
        let jobs = [
            Job::BenchAllreduce {
                iters: 2,
                bytes: vec![1 << 10, 8 << 20],
            },
            Job::TrainCifar,
            Job::TrainElastic {
                spec: ElasticSpec {
                    world: 5,
                    iters: 10,
                    kill_step: 6,
                    kill_rank: 3,
                    checkpoint_every: 3,
                },
                ckpt: PathBuf::from("/tmp/kfac elastic;x=1/restore.ckpt"),
            },
        ];
        for job in jobs {
            let cfg = RuntimeConfig {
                backend: CommBackend::Proc,
                algo: CollectiveAlgo::PipelinedRing,
                eig: Some(EigenSolver::Randomized),
                precision: Some(PrecisionPolicy::parse("bf16,grad_wire=f32").unwrap()),
                pool_threads: Some(1),
                heartbeat: HeartbeatConfig {
                    interval: Duration::from_millis(50),
                    timeout: Duration::from_millis(700),
                },
                proc_timeout: Duration::from_secs(5),
                worker: Some(WorkerSpec {
                    rank: 2,
                    world: 5,
                    root: "127.0.0.1:4100".into(),
                    job,
                }),
                exec: ExecStrategy::Sequential,
            };
            let env = cfg.to_env();
            assert_eq!(env.len(), KNOWN.len(), "every variable is carried");
            let back = RuntimeConfig::parse(env.iter().map(|(k, v)| (k.to_string(), v.clone())));
            assert_eq!(back, Ok(cfg));
        }
        // A default config round-trips too, and its line says so.
        let clean = RuntimeConfig::default();
        let env = clean.to_env();
        let back = RuntimeConfig::parse(env.iter().map(|(k, v)| (k.to_string(), v.clone())));
        assert_eq!(back, Ok(clean.clone()));
        assert_eq!(
            clean.to_string(),
            "KFAC_COMM_BACKEND=thread KFAC_COMM_ALGO=auto KFAC_EIG_BACKEND=- KFAC_PRECISION=- \
             KFAC_POOL_THREADS=- KFAC_HEARTBEAT_MS=500 KFAC_HEARTBEAT_TIMEOUT_MS=15000 \
             KFAC_PROC_TIMEOUT_MS=30000 exec=sequential"
        );
    }

    /// README's "Configuration" table documents exactly the known names.
    #[test]
    fn readme_table_lists_exactly_the_known_variables() {
        let readme = include_str!("../../../README.md");
        let section = readme
            .split("\n## Configuration\n")
            .nth(1)
            .expect("README has a Configuration section");
        let section = section.split("\n## ").next().unwrap();
        let mut documented: Vec<&str> = section
            .lines()
            .filter_map(|line| line.strip_prefix("| `KFAC_")?.split('`').next())
            .collect();
        documented.sort_unstable();
        let mut known: Vec<&str> = KNOWN
            .iter()
            .map(|name| name.strip_prefix("KFAC_").unwrap())
            .collect();
        known.sort_unstable();
        assert_eq!(documented, known);
    }
}
