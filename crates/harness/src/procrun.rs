//! Multi-process run orchestration.
//!
//! The `xp` binary is both the launcher and the worker: `spawn_world`
//! re-executes the current binary once per rank under exactly the
//! environment [`RuntimeConfig::to_env`] gives for the launcher's resolved
//! config plus that rank's rendezvous and [`Job`], and `worker_main`
//! (invoked by `xp`'s `main` whenever the resolved config describes a
//! worker) joins the TCP mesh and dispatches the job. Three jobs exist:
//!
//! * `bench-allreduce` — the allreduce microbenchmark behind
//!   `xp bench-allreduce`: every rank drives the same op sequence, rank 0
//!   reports median seconds per message size on stdout. The launcher runs
//!   one world per algorithm, fits `T(n) = A + B·n` (`A ≥ 0`) to each,
//!   converts the pipelined-ring fit into α/β link constants for the
//!   `kfac-cluster` simulator, and brackets the halving/doubling↔ring
//!   crossover between two measured sizes (`BENCH_allreduce.json`).
//! * `train-cifar` — the canonical 4-process K-FAC CIFAR demo behind
//!   `xp proc-train`: each worker trains the shared [`cifar_demo_config`]
//!   over its `ProcComm`, and rank 0 emits the loss trajectory (exact
//!   round-trip `f64` repr) plus a parameter bit-hash. The
//!   `proc_train` integration test compares this byte-for-byte against
//!   the in-process `ThreadComm` run — the end-to-end witness that both
//!   fabrics compute the same training trajectory.
//! * `train-elastic` — the shrink-world recovery trial behind
//!   `xp elastic`: the victim rank exits cold mid-run, the survivors'
//!   failure detector fences it behind a new membership epoch, and
//!   training resumes from the latest checkpoint on the smaller world
//!   (see [`crate::elastic`]).

use crate::runtime::{self, Job, RuntimeConfig, WorkerSpec};
use crate::trainer::{train_with_comm, TrainConfig, TrainResult};
use kfac::KfacConfig;
use kfac_cluster::calibrate::{crossover_bracket, MeasuredPoint};
use kfac_collectives::proc::{ProcComm, ProcConfig};
use kfac_collectives::{CollectiveAlgo, Communicator, ReduceOp, TrafficClass};
use kfac_data::{synthetic_cifar, SyntheticImages};
use kfac_nn::{resnet::resnet_cifar, Sequential};
use kfac_optim::LrSchedule;
use kfac_tensor::Rng64;
use std::io;
use std::process::{Command, Output, Stdio};
use std::time::Instant;

/// Default benchmark message sizes: 1 KiB – 8 MiB, spanning both sides
/// of the latency/bandwidth crossover.
pub const DEFAULT_BENCH_BYTES: &[usize] = &[
    1 << 10,
    4 << 10,
    16 << 10,
    64 << 10,
    256 << 10,
    1 << 20,
    4 << 20,
    8 << 20,
];
/// Default timed iterations per (size, algorithm) point.
pub const DEFAULT_BENCH_ITERS: usize = 5;
/// The algorithms the benchmark compares (the auto-policy candidates).
pub const BENCH_ALGOS: [CollectiveAlgo; 2] = [
    CollectiveAlgo::HalvingDoubling,
    CollectiveAlgo::PipelinedRing,
];

/// Spawn `world` copies of the current executable as proc ranks running
/// `job` under `config` (the launcher's resolved one, or a variation of
/// it), wait for all of them, and return what rank 0 printed (stderr is
/// inherited); a rank that exits unsuccessfully is an error. Each
/// child's `KFAC_*` environment is exactly `config.to_env()` with that
/// rank's rendezvous.
pub fn spawn_world(world: usize, job: &Job, config: &RuntimeConfig) -> io::Result<String> {
    // Pick a free broker port by bind-drop; rank 0 rebinds it. The small
    // race window is acceptable for localhost orchestration — a clash
    // fails the rendezvous loudly within its deadline.
    let root = {
        let l = std::net::TcpListener::bind("127.0.0.1:0")?;
        l.local_addr()?.to_string()
    };
    let exe = std::env::current_exe()?;
    let mut children = Vec::with_capacity(world);
    for rank in 0..world {
        let child = RuntimeConfig {
            worker: Some(WorkerSpec {
                rank,
                world,
                root: root.clone(),
                job: job.clone(),
            }),
            ..config.clone()
        };
        let mut cmd = Command::new(&exe);
        for name in runtime::KNOWN {
            cmd.env_remove(name);
        }
        cmd.envs(child.to_env());
        cmd.stdout(Stdio::piped()).stderr(Stdio::inherit());
        children.push(cmd.spawn()?);
    }
    let outputs: Vec<Output> = children
        .into_iter()
        .map(|c| c.wait_with_output())
        .collect::<io::Result<_>>()?;
    if let Some(rank) = outputs.iter().position(|out| !out.status.success()) {
        return Err(io::Error::other(format!(
            "worker rank {rank} of `{job}` exited with {}",
            outputs[rank].status
        )));
    }
    Ok(String::from_utf8_lossy(&outputs[0].stdout).into_owned())
}

/// Worker-side entry: join the mesh the installed config's
/// [`WorkerSpec`] describes and run its job. Returns the process exit
/// code.
pub fn worker_main() -> i32 {
    let config = runtime::current();
    let Some(worker) = &config.worker else {
        eprintln!("worker_main called in a process that is not a proc worker");
        return 2;
    };
    let proc_config = ProcConfig {
        rank: worker.rank,
        world: worker.world,
        root: worker.root.clone(),
        timeout: config.proc_timeout,
    };
    let comm = match ProcComm::connect(&proc_config, config.algo_policy(), config.heartbeat, None) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("proc rendezvous failed for rank {}: {e}", worker.rank);
            return 1;
        }
    };
    match &worker.job {
        Job::BenchAllreduce { iters, bytes } => bench_worker(&comm, bytes, *iters),
        Job::TrainCifar => train_worker(&comm),
        Job::TrainElastic { spec, ckpt } => crate::elastic::proc_elastic_worker(&comm, spec, ckpt),
    }
}

// ---------------------------------------------------------------------
// bench-allreduce
// ---------------------------------------------------------------------

/// An affine fit `T(n) = a_s + b_s_per_byte · n` for one algorithm.
#[derive(Debug, Clone)]
pub struct BenchFit {
    pub algo: String,
    pub a_s: f64,
    pub b_s_per_byte: f64,
}

/// Time allreduces of each size on `comm`; all ranks drive the identical
/// op sequence (the MPI ordering contract), every rank returns its own
/// medians but only rank 0's are reported.
pub fn measure_allreduce(
    comm: &dyn Communicator,
    sizes_bytes: &[usize],
    iters: usize,
) -> Vec<(usize, f64)> {
    let mut out = Vec::with_capacity(sizes_bytes.len());
    for &bytes in sizes_bytes {
        let elems = (bytes / std::mem::size_of::<f32>()).max(1);
        let mut buf = vec![1.0f32; elems];
        // Warm the path (mailboxes, socket buffers) outside the timing.
        for _ in 0..2 {
            comm.allreduce_tagged(&mut buf, ReduceOp::Sum, TrafficClass::Other);
            buf.iter_mut().for_each(|v| *v = 1.0);
        }
        let mut samples = Vec::with_capacity(iters.max(1));
        for _ in 0..iters.max(1) {
            // Barrier-align so the timer starts when the group is ready,
            // not when the slowest rank drains the previous op.
            comm.barrier();
            let t = Instant::now();
            comm.allreduce_tagged(&mut buf, ReduceOp::Sum, TrafficClass::Other);
            samples.push(t.elapsed().as_secs_f64());
            buf.iter_mut().for_each(|v| *v = 1.0);
        }
        samples.sort_by(f64::total_cmp);
        out.push((bytes, samples[samples.len() / 2]));
    }
    out
}

/// Worker half of `xp bench-allreduce`: medians on rank 0's stdout as
/// `bytes seconds` lines.
fn bench_worker(comm: &ProcComm, sizes: &[usize], iters: usize) -> i32 {
    let points = measure_allreduce(comm, sizes, iters);
    if comm.rank() == 0 {
        for (bytes, seconds) in points {
            println!("{bytes} {seconds:e}");
        }
    }
    0
}

/// Least squares for `y = a + b·x` subject to `a ≥ 0`: a latency cannot
/// be negative, and an unconstrained line through timings that bend
/// upward (cache and socket-buffer effects at megabyte sizes) has a
/// negative intercept — it once put halving/doubling's at −3.2 ms, and
/// every quantity derived from that sign was an artefact. When ordinary
/// least squares lands there, the constrained optimum is on the
/// boundary: the best line through the origin.
pub fn fit_affine(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    if points.len() < 2 {
        return (points.first().map(|p| p.1).unwrap_or(0.0).max(0.0), 0.0);
    }
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < f64::EPSILON {
        return ((sy / n).max(0.0), 0.0);
    }
    let b = (n * sxy - sx * sy) / denom;
    let a = (sy - b * sx) / n;
    if a < 0.0 {
        (0.0, sxy / sxx)
    } else {
        (a, b)
    }
}

/// Outcome of a full `xp bench-allreduce` sweep.
pub struct BenchOutcome {
    pub ranks: usize,
    pub iters: usize,
    pub points: Vec<MeasuredPoint>,
    pub fits: Vec<BenchFit>,
    /// Link constants for `kfac_collectives::LinkSpec`, from the
    /// pipelined-ring fit via the chain model `T = 2(p−1)α + 2nβ`.
    pub alpha_s: f64,
    pub beta_s_per_byte: f64,
    /// The two measured sizes the halving/doubling→ring crossover lies
    /// between (see [`crossover_bracket`]); `None` when halving/doubling
    /// still wins at the largest size.
    pub crossover: Option<(u64, u64)>,
}

/// Launcher half of `xp bench-allreduce`: one world per algorithm (the
/// launcher's config with [`RuntimeConfig::algo`] forced — the same
/// `KFAC_COMM_ALGO` users have), parse rank 0's medians, fit, and bracket
/// the crossover.
pub fn run_bench_allreduce(
    ranks: usize,
    iters: usize,
    sizes: &[usize],
) -> io::Result<BenchOutcome> {
    let job = Job::BenchAllreduce {
        iters,
        bytes: sizes.to_vec(),
    };
    let mut points = Vec::new();
    let mut fits = Vec::new();
    for algo in BENCH_ALGOS {
        let config = RuntimeConfig {
            algo,
            ..runtime::current()
        };
        let algo = algo.name();
        eprintln!("bench-allreduce: {algo} across {ranks} processes ({iters} iters/size)");
        let stdout = spawn_world(ranks, &job, &config)?;
        let mut algo_points = Vec::new();
        for line in stdout.lines().filter(|l| !l.trim().is_empty()) {
            let mut it = line.split_whitespace();
            let (Some(b), Some(s)) = (it.next(), it.next()) else {
                return Err(io::Error::other(format!("malformed bench line {line:?}")));
            };
            let bytes: u64 = b
                .parse()
                .map_err(|_| io::Error::other(format!("malformed bench line {line:?}")))?;
            let seconds: f64 = s
                .parse()
                .map_err(|_| io::Error::other(format!("malformed bench line {line:?}")))?;
            algo_points.push((bytes as f64, seconds));
            points.push(MeasuredPoint {
                bytes,
                algo: algo.to_string(),
                seconds,
            });
        }
        let (a_s, b_s_per_byte) = fit_affine(&algo_points);
        fits.push(BenchFit {
            algo: algo.to_string(),
            a_s,
            b_s_per_byte,
        });
    }
    let ring = fits.iter().find(|f| f.algo == "pipelined-ring").unwrap();
    // Chain-pipelined ring moves 2n bytes per rank through 2(p−1) hops of
    // pipeline fill: T ≈ 2(p−1)α + 2nβ, so the affine fit maps back as
    // α = A/(2(p−1)), β = B/2.
    let hops = 2.0 * (ranks.saturating_sub(1)).max(1) as f64;
    let alpha_s = ring.a_s / hops;
    let beta_s_per_byte = ring.b_s_per_byte / 2.0;
    let crossover = crossover_bracket(&points);
    Ok(BenchOutcome {
        ranks,
        iters,
        points,
        fits,
        alpha_s,
        beta_s_per_byte,
        crossover,
    })
}

impl BenchOutcome {
    /// Render as the committed `BENCH_allreduce.json` document (the
    /// schema `kfac_cluster::calibrate` parses).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"backend\": \"proc\",\n");
        s.push_str(&format!("  \"ranks\": {},\n", self.ranks));
        s.push_str(&format!("  \"iters\": {},\n", self.iters));
        s.push_str("  \"results\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"bytes\": {}, \"algo\": \"{}\", \"seconds\": {:e}}}{}\n",
                p.bytes,
                p.algo,
                p.seconds,
                if i + 1 < self.points.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"fits\": [\n");
        for (i, f) in self.fits.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"algo\": \"{}\", \"a_s\": {:e}, \"b_s_per_byte\": {:e}}}{}\n",
                f.algo,
                f.a_s,
                f.b_s_per_byte,
                if i + 1 < self.fits.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!(
            "  \"fitted\": {{\"alpha_s\": {:e}, \"beta_s_per_byte\": {:e}}},\n",
            self.alpha_s, self.beta_s_per_byte
        ));
        match self.crossover {
            // The single number reported for a bracket is its geometric
            // midpoint (the sweep is a geometric grid).
            Some((lo, hi)) => s.push_str(&format!(
                "  \"crossover_bracket_bytes\": [{lo}, {hi}],\n  \"crossover_bytes\": {}\n",
                ((lo as f64) * (hi as f64)).sqrt() as u64
            )),
            None => s.push_str("  \"crossover_bracket_bytes\": null\n"),
        }
        s.push_str("}\n");
        s
    }

    /// Human-readable summary table.
    pub fn render_table(&self) -> String {
        let mut s = String::from("| bytes | algo | seconds |\n|---:|---|---:|\n");
        for p in &self.points {
            s.push_str(&format!(
                "| {} | {} | {:.3e} |\n",
                p.bytes, p.algo, p.seconds
            ));
        }
        s.push_str(&format!(
            "\nfitted link: alpha = {:.3e} s, beta = {:.3e} s/byte; ",
            self.alpha_s, self.beta_s_per_byte
        ));
        match self.crossover {
            Some((lo, hi)) => s.push_str(&format!(
                "halving-doubling wins up to {lo} bytes, pipelined-ring from {hi}\n"
            )),
            None => s.push_str("halving-doubling wins at every measured size\n"),
        }
        s
    }
}

// ---------------------------------------------------------------------
// train-cifar
// ---------------------------------------------------------------------

/// The canonical demo model: 3-stage depth-1 CIFAR ResNet.
pub fn cifar_demo_model(seed: u64) -> Sequential {
    let mut rng = Rng64::new(seed);
    resnet_cifar(1, 4, 10, 3, &mut rng)
}

/// The canonical demo datasets (deterministic synthetic CIFAR).
pub fn cifar_demo_data() -> (SyntheticImages, SyntheticImages) {
    synthetic_cifar(8, 96, 32, 11)
}

/// The canonical demo config: 2 epochs of K-FAC training at local batch
/// 8. Shared verbatim by the proc worker, `xp proc-train` and the
/// `proc_train` bitwise integration test, so every party trains the
/// exact same run.
pub fn cifar_demo_config(ranks: usize) -> TrainConfig {
    let mut cfg = TrainConfig::new(ranks, 8, 2, LrSchedule::paper_steps(0.05, vec![4]));
    cfg.lr.warmup_epochs = 1.0;
    cfg.kfac = Some(KfacConfig {
        update_freq: 2,
        ..KfacConfig::default()
    });
    cfg
}

/// FNV-style bit-hash of a parameter vector: equal iff every f32 is
/// bit-equal, and cheap enough to print in a summary line.
pub fn params_bit_hash(params: &[f32]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for v in params {
        h ^= v.to_bits() as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The summary rank 0 prints: per-epoch losses in exact round-trip `f64`
/// repr plus the final-parameter bit-hash.
pub fn train_summary_json(ranks: usize, backend: &str, result: &TrainResult) -> String {
    let losses = result
        .epochs
        .iter()
        .map(|e| format!("{:?}", e.train_loss))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"ranks\": {}, \"backend\": \"{}\", \"train_loss\": [{}], \
         \"final_val_acc\": {:?}, \"params_hash\": \"{:016x}\"}}",
        ranks,
        backend,
        losses,
        result.final_val_acc,
        params_bit_hash(&result.final_params)
    )
}

/// Worker half of `xp proc-train`: train the shared demo over the
/// process mesh; rank 0 prints the trajectory summary.
fn train_worker(comm: &ProcComm) -> i32 {
    let cfg = cifar_demo_config(comm.size());
    let (train_ds, val_ds) = cifar_demo_data();
    if let Some(result) = train_with_comm(comm, &cifar_demo_model, &train_ds, &val_ds, &cfg) {
        println!("{}", train_summary_json(comm.size(), "proc", &result));
    }
    0
}

/// Launcher half of `xp proc-train`: spawn the world, relay rank 0's
/// summary line to our stdout, propagate failures.
pub fn run_proc_train(ranks: usize) -> io::Result<String> {
    let stdout = spawn_world(ranks, &Job::TrainCifar, &runtime::current())?;
    let summary = stdout.trim().to_string();
    if summary.is_empty() {
        return Err(io::Error::other("proc-train rank 0 produced no summary"));
    }
    Ok(summary)
}

/// Outcome of a proc-fabric elastic trial: rank 0's summary line plus
/// the restore blob the survivors used (for the reference run).
pub struct ProcElasticOutcome {
    /// The `elastic_summary_json` line the surviving rank 0 printed.
    pub summary: String,
    /// The checkpoint blob the survivors restored from.
    pub checkpoint: Vec<u8>,
}

/// Launcher half of the proc-fabric elastic trial: spawn the world with
/// the scenario in its [`Job`], let the victim die cold, collect
/// the surviving rank 0's summary and the persisted restore blob. The
/// victim's deliberate exit is also status 0, so any failure is real.
pub fn run_proc_elastic(spec: &crate::elastic::ElasticSpec) -> io::Result<ProcElasticOutcome> {
    spec.validate().map_err(io::Error::other)?;
    let ckpt_path =
        std::env::temp_dir().join(format!("kfac-elastic-restore-{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&ckpt_path);
    let job = Job::TrainElastic {
        spec: *spec,
        ckpt: ckpt_path.clone(),
    };
    let stdout = spawn_world(spec.world, &job, &runtime::current())?;
    let summary = stdout.trim().to_string();
    if summary.is_empty() {
        return Err(io::Error::other(
            "train-elastic rank 0 produced no summary — did the survivors recover?",
        ));
    }
    let checkpoint = crate::checkpoint::load_from_file(&ckpt_path)?;
    let _ = std::fs::remove_file(&ckpt_path);
    Ok(ProcElasticOutcome {
        summary,
        checkpoint,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn affine_fit_recovers_exact_line() {
        let pts: Vec<(f64, f64)> = (1..=8)
            .map(|i| (i as f64 * 1000.0, 3e-5 + 2e-9 * i as f64 * 1000.0))
            .collect();
        let (a, b) = fit_affine(&pts);
        assert!((a - 3e-5).abs() < 1e-12, "a = {a}");
        assert!((b - 2e-9).abs() < 1e-15, "b = {b}");
    }

    #[test]
    fn affine_fit_never_returns_a_negative_intercept() {
        // The halving/doubling series committed before this fit was
        // constrained (4 ranks, 7 iterations): ordinary least squares
        // put its intercept at −3.2 ms.
        let hd = [
            (1024.0, 8.3362e-5),
            (4096.0, 1.263e-4),
            (16384.0, 2.84118e-4),
            (65536.0, 1.553242e-3),
            (262144.0, 6.553898e-3),
            (1048576.0, 3.3655332e-2),
            (4194304.0, 1.49177711e-1),
            (8388608.0, 3.35895272e-1),
        ];
        let (a, b) = fit_affine(&hd);
        assert_eq!(a, 0.0);
        assert!((3.9e-8..4.1e-8).contains(&b), "b = {b}");
        // Degenerate inputs keep the promise too.
        assert_eq!(fit_affine(&[(1024.0, -1.0)]), (0.0, 0.0));
        assert_eq!(fit_affine(&[]), (0.0, 0.0));
    }

    #[test]
    fn params_hash_detects_single_bit_flips() {
        let a = vec![1.0f32, 2.0, 3.0];
        let mut b = a.clone();
        b[1] = f32::from_bits(b[1].to_bits() ^ 1);
        assert_ne!(params_bit_hash(&a), params_bit_hash(&b));
        assert_eq!(params_bit_hash(&a), params_bit_hash(&a.clone()));
    }

    #[test]
    fn bench_json_is_parseable() {
        let outcome = BenchOutcome {
            ranks: 4,
            iters: 5,
            points: vec![MeasuredPoint {
                bytes: 1024,
                algo: "pipelined-ring".into(),
                seconds: 1.5e-5,
            }],
            fits: vec![BenchFit {
                algo: "pipelined-ring".into(),
                a_s: 1e-5,
                b_s_per_byte: 2e-9,
            }],
            alpha_s: 1.6e-6,
            beta_s_per_byte: 1e-9,
            crossover: Some((16384, 65536)),
        };
        let json = outcome.to_json();
        let doc = kfac_telemetry::json::Json::parse(&json).expect("valid json");
        assert_eq!(doc.get("ranks").and_then(|v| v.as_f64()), Some(4.0));
        assert_eq!(
            doc.get("crossover_bytes").and_then(|v| v.as_f64()),
            Some(32768.0)
        );
    }
}
