//! One run of one workload: set-up, timed trials or the traced pass,
//! output checks, metrics.

use crate::jsonio::{num, obj, render_pretty, text, Json};
use crate::metrics::{Value, END_TO_END, PER_LAYER};
use crate::micro::{self, Micro};
use crate::stats::{fastest, Summary};
use crate::timed_comm::ClassTotals;
use crate::trace::{self, self_ms, self_time_by_name, SpanRec};
use crate::traced::{create_group, hash_f32, run_pass, Group, PassMode, PassResult};
use crate::workload::{Workload, EPOCHS, RANKS};
use kfac_collectives::{Communicator, Traffic};
use kfac_data::SyntheticImages;
use kfac_exec::ExecMode;
use kfac_harness::{train, train_with_comm, ExecStrategy, TrainConfig, TrainResult};
use kfac_telemetry::Registry;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Timed trials per run, at least; more while `--seconds` lasts.
const MIN_TRIALS: usize = 3;
/// An epoch here is 5 to 25 iterations, and its mean loss moves by a
/// few percent from sampling alone (over 20 seeds, last/first ranged
/// 0.57–1.03 across the workloads). The check is therefore for
/// divergence — what K-FAC does when its KL clip is too loose for the
/// batch, +13% and more — not for progress: the last epoch's mean loss
/// may exceed the first's by at most this share.
const LOSS_TOLERANCE: f64 = 0.10;
/// Set-ups per run, at least; more (up to [`MAX_SETUPS`], at most
/// [`SETUPS_PER_TRIAL`] before any one trial) while they have taken less
/// than [`SETUP_SECONDS`]. A set-up of a fifth of a second is two
/// iterations long and as exposed to the box as they are: the fastest of
/// 7 moved by 23% between two sets of ten runs an hour apart.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 24;
const SETUPS_PER_TRIAL: usize = 3;
const SETUP_SECONDS: f64 = 4.0;
/// Warm-up iterations per set-up: the first is a factor + eig update,
/// the second a factor update.
const WARMUP_ITERS: usize = 2;

/// What to run.
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Drives data, model init and sampler.
    pub seed: u64,
    /// Measuring time for the timed trials.
    pub seconds: f64,
    /// Timed trials and end-to-end metrics (`false`), or the traced pass
    /// and per-layer metrics (`true`).
    pub trace: bool,
    /// Tiny shapes, one trial: exercises the code, measures nothing.
    pub smoke: bool,
    /// Where to write the trace file, if anywhere.
    pub trace_out: Option<PathBuf>,
    /// Process start.
    pub started: Instant,
}

/// What a run reports.
pub struct Report {
    /// Trials run (timed and traced).
    pub attempted: usize,
    /// Trials that failed an output check.
    pub failed: usize,
    /// Every metric of the requested kind.
    pub metrics: Vec<Value>,
    /// Why trials failed, and informational lines.
    pub notes: Vec<String>,
}

impl Report {
    /// The result line of the driver's contract.
    pub fn to_json(&self) -> Json {
        obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", num(self.attempted as f64)),
            ("failed", num(self.failed as f64)),
            (
                "metrics",
                obj(self.metrics.iter().map(|m| {
                    (
                        m.name,
                        obj([("value", num(m.value)), ("unit", text(m.unit))]),
                    )
                })),
            ),
        ])
    }
}

/// What a trial leaves behind once its `TrainResult` is dropped.
struct Trial {
    /// `train()` wall over iterations: model build, communicator
    /// creation and teardown, validation and cold caches included.
    wall_iter_ms: f64,
    /// Rank 0's iterations in order, from the `train/iteration` spans
    /// the program records into `TrainResult.telemetry`; empty if it
    /// stops recording one per iteration.
    iteration_ms: Vec<f64>,
    epoch_loss_bits: Vec<u64>,
    params_hash: u64,
    traffic: Traffic,
}

impl Trial {
    fn loss(&self, epoch: usize) -> f64 {
        f64::from_bits(self.epoch_loss_bits[epoch])
    }
}

/// One series of trials of one configuration, checked against its first.
struct Series {
    label: &'static str,
    trials: Vec<Trial>,
    failures: Vec<String>,
    attempted: usize,
}

impl Series {
    fn new(label: &'static str) -> Series {
        Series {
            label,
            trials: Vec::new(),
            failures: Vec::new(),
            attempted: 0,
        }
    }

    /// A trial fails on a panic, a non-finite loss, a loss that went up
    /// (`check_loss`), or bits differing from the first trial.
    fn record(&mut self, outcome: Result<Trial, String>, check_loss: bool) {
        self.attempted += 1;
        let n = self.attempted;
        let trial = match outcome {
            Ok(t) => t,
            Err(why) => {
                return self
                    .failures
                    .push(format!("{} trial {n}: {why}", self.label))
            }
        };
        let mut fail = |why: String| {
            self.failures
                .push(format!("{} trial {n}: {why}", self.label))
        };
        let (first, last) = (trial.loss(0), trial.loss(trial.epoch_loss_bits.len() - 1));
        if trial
            .epoch_loss_bits
            .iter()
            .any(|b| !f64::from_bits(*b).is_finite())
        {
            fail("non-finite loss".into());
        } else if check_loss && last > first * (1.0 + LOSS_TOLERANCE) {
            fail(format!(
                "last-epoch loss {last} above first-epoch loss {first}"
            ));
        }
        if let Some(reference) = self.trials.first() {
            if reference.epoch_loss_bits != trial.epoch_loss_bits {
                fail("loss bits differ from the first trial".into());
            }
            if reference.params_hash != trial.params_hash {
                fail("final parameters differ from the first trial".into());
            }
        }
        self.trials.push(trial);
    }

    fn wall_iter_ms(&self) -> Vec<f64> {
        self.trials.iter().map(|t| t.wall_iter_ms).collect()
    }

    fn failed_trials(&self) -> usize {
        // Several reasons may name one trial; count trials.
        let mut names: Vec<&str> = self
            .failures
            .iter()
            .filter_map(|f| f.split(':').next())
            .collect();
        names.dedup();
        names.len()
    }
}

/// The amortised steady-state iteration over `trials` of one
/// configuration. Iterations are of two kinds: the first of every `cycle`
/// decomposes the factors, the others do not (all four workloads fold
/// the factors on every iteration). `pick` takes one time from the
/// iterations of a kind over all `trials`, and the two kinds are weighted
/// by how often they occur. Falls back to the wall time per iteration of
/// whole trials if the program's iteration spans are missing.
fn step_ms(trials: &[&Trial], cycle: usize, pick: fn(&[f64]) -> f64) -> f64 {
    if trials.iter().any(|t| t.iteration_ms.is_empty()) {
        let walls: Vec<f64> = trials.iter().map(|t| t.wall_iter_ms).collect();
        return pick(&walls);
    }
    let (mut updates, mut others) = (Vec::new(), Vec::new());
    for t in trials {
        for (i, ms) in t.iteration_ms.iter().enumerate() {
            if i % cycle == 0 {
                &mut updates
            } else {
                &mut others
            }
            .push(*ms);
        }
    }
    if others.is_empty() {
        return pick(&updates);
    }
    (pick(&updates) + (cycle - 1) as f64 * pick(&others)) / cycle as f64
}

/// Iterations per K-FAC update cycle (`--smoke` trials are shorter than
/// one); 1 without K-FAC.
fn cycle(w: &Workload) -> usize {
    w.kfac.map_or(1, |k| k.update_freq).min(w.iters())
}

/// One timed `train()` call. The registry comes back for the checks that
/// read the program's own telemetry.
fn timed_trial(
    w: &Workload,
    seed: u64,
    preconditioned: bool,
    data: &(SyntheticImages, SyntheticImages),
) -> Result<(Trial, Registry), String> {
    let epochs = if preconditioned {
        EPOCHS
    } else {
        w.baseline_epochs()
    };
    let iters = epochs * w.iters_per_epoch;
    let cfg = w.train_config(seed, epochs, preconditioned);
    let t = Instant::now();
    let result: TrainResult = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        train(w.model_builder(), &data.0, &data.1, &cfg)
    }))
    .map_err(|_| "train() panicked".to_string())?;
    let wall = t.elapsed();
    let mut iteration_ms: Vec<f64> = result
        .telemetry
        .events()
        .iter()
        .filter(|e| e.rank == 0 && e.name == "train/iteration")
        .map(|e| e.dur_us as f64 / 1e3)
        .collect();
    if iteration_ms.len() != iters {
        iteration_ms.clear();
    }
    let trial = Trial {
        wall_iter_ms: wall.as_secs_f64() * 1e3 / iters as f64,
        iteration_ms,
        epoch_loss_bits: result
            .epochs
            .iter()
            .map(|e| e.train_loss.to_bits())
            .collect(),
        params_hash: hash_f32(&result.final_params),
        traffic: result.traffic,
    };
    Ok((trial, result.telemetry))
}

/// Everything before the first timed trial: data templates, the
/// communicator group, and on every rank the model, `Kfac::new` and the
/// warm-up iterations of the workload's own configuration. Returns the
/// trial data and the seconds since `since`. The group is torn down
/// after the clock stops: closing the TCP fabric waits for its 500 ms
/// heartbeat tick, which is a property of shutdown, not of set-up.
fn set_up(w: &Workload, seed: u64, since: Instant) -> ((SyntheticImages, SyntheticImages), f64) {
    fn warm_up<C: Communicator>(
        comms: Vec<C>,
        w: &Workload,
        cfg: &TrainConfig,
        seed: u64,
        since: Instant,
    ) -> f64 {
        let warm = w.datasets(WARMUP_ITERS, seed);
        let build = w.model_builder();
        std::thread::scope(|s| {
            for comm in &comms {
                let warm = &warm;
                s.spawn(move || train_with_comm(comm, &build, &warm.0, &warm.1, cfg));
            }
        });
        since.elapsed().as_secs_f64()
    }
    let cfg = w.train_config(seed, 1, true);
    let seconds = match create_group(&cfg) {
        Group::Thread(comms) => warm_up(comms, w, &cfg, seed, since),
        Group::Proc(comms) => warm_up(comms, w, &cfg, seed, since),
    };
    (w.datasets(w.iters_per_epoch, seed), seconds)
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(steal, total)` jiffies of all CPUs since boot.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal; the rest repeat user time.
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

fn describe(label: &str, unit: &str, values: &[f64]) -> String {
    let s = Summary::of(values);
    format!(
        "{label}: n={} min={:.4} q1={:.4} median={:.4} q3={:.4} max={:.4} {unit}",
        s.n, s.min, s.q1, s.median, s.q3, s.max
    )
}

/// Run the workload as `opts` asks.
pub fn run(opts: &Options) -> Report {
    let w = if opts.smoke {
        opts.workload.smoke()
    } else {
        opts.workload
    };
    if opts.trace {
        run_traced(&w, opts)
    } else {
        run_timed(&w, opts)
    }
}

fn run_timed(w: &Workload, opts: &Options) -> Report {
    let jiffies_before = cpu_jiffies();
    // The first set-up is charged from process start. The others are
    // spread over the run, a few before each trial, so that a slow
    // stretch of the box at the start does not take all of them.
    let (data, first) = set_up(w, opts.seed, opts.started);
    let mut setup_s = vec![first];
    let set_up_again = |setup_s: &mut Vec<f64>| {
        for _ in 0..SETUPS_PER_TRIAL {
            let spent: f64 = setup_s.iter().sum();
            if opts.smoke || setup_s.len() >= MAX_SETUPS || spent >= SETUP_SECONDS {
                break;
            }
            setup_s.push(set_up(w, opts.seed, Instant::now()).1);
        }
    };

    // Trials until another would overrun the measuring time, which runs
    // from process start.
    let mut timed = Series::new("timed");
    let min_trials = if opts.smoke { 1 } else { MIN_TRIALS };
    let budget = Duration::from_secs_f64(opts.seconds);
    loop {
        let trial = Instant::now();
        set_up_again(&mut setup_s);
        timed.record(
            timed_trial(w, opts.seed, true, &data).map(|t| t.0),
            !opts.smoke,
        );
        let enough = opts.started.elapsed() + trial.elapsed() > budget;
        if timed.attempted >= min_trials && (opts.smoke || enough) {
            break;
        }
    }
    while !opts.smoke && setup_s.len() < MIN_SETUPS {
        setup_s.push(set_up(w, opts.seed, Instant::now()).1);
    }

    let mut notes = timed.failures.clone();
    let attempted = timed.attempted;
    let failed = timed.failed_trials();
    if timed.trials.is_empty() {
        return Report {
            attempted,
            failed,
            metrics: Vec::new(),
            notes,
        };
    }
    // The step is the floor of the run: the fastest iteration of each
    // kind over all trials (see `stats::fastest`).
    let trials: Vec<&Trial> = timed.trials.iter().collect();
    let iter_ms = step_ms(&trials, cycle(w), fastest);
    notes.push(describe(
        "train() wall per iteration, by trial",
        "ms",
        &timed.wall_iter_ms(),
    ));
    notes.push(describe("setup_s", "s", &setup_s));
    notes.push(format!(
        "samples/s (informational): {:.1}",
        w.global_batch() as f64 / iter_ms * 1e3
    ));
    notes.push(format!(
        "peak RSS (informational): {:.1} MiB",
        peak_rss_mib()
    ));
    if let (Some((s0, t0)), Some((s1, t1))) = (jiffies_before, cpu_jiffies()) {
        // So that a run disturbed by the hypervisor explains itself.
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        notes.push(format!(
            "hypervisor steal during the run: {:.2}% of CPU time",
            share * 100.0
        ));
    }
    let values = [iter_ms, timed.trials[0].loss(EPOCHS - 1), fastest(&setup_s)];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| Value {
            name: m.name,
            value,
            unit: m.unit,
        })
        .collect();
    Report {
        attempted,
        failed,
        metrics,
        notes,
    }
}

/// Per-iteration rows of one traced pass, from rank 0's spans.
struct Rows {
    by_name: Vec<(&'static str, u64)>,
    iters: f64,
}

impl Rows {
    fn of(pass: &PassResult) -> Rows {
        Rows {
            by_name: self_time_by_name(&pass.spans[0]),
            iters: pass.iters as f64,
        }
    }

    /// Self time of `name` per iteration, ms.
    fn ms(&self, name: &str) -> f64 {
        self_ms(&self.by_name, name) / self.iters
    }
}

/// Mean duration of rank 0's top-level iteration spans, ms.
fn iter_wall_ms(pass: &PassResult) -> f64 {
    total_ms(&pass.spans[0], "iter") / pass.iters as f64
}

/// Summed duration (children included) of the spans named `name`, ms.
fn total_ms(spans: &[SpanRec], name: &str) -> f64 {
    let ns: u64 = spans
        .iter()
        .filter(|s| s.name == name)
        .map(SpanRec::dur_ns)
        .sum();
    ns as f64 / 1e6
}

fn run_traced(w: &Workload, opts: &Options) -> Report {
    let (data, _) = set_up(w, opts.seed, opts.started);
    let mut notes = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;

    // One timed trial: the traced pass is compared against it.
    let mut timed = Series::new("timed");
    let outcome = timed_trial(w, opts.seed, true, &data);
    let registry = outcome.as_ref().ok().map(|(_, r)| r.clone());
    timed.record(outcome.map(|t| t.0), !opts.smoke);
    attempted += timed.attempted;
    failed += timed.failed_trials();
    notes.extend(timed.failures.iter().cloned());
    // And one of the plain-SGD baseline, for the ratio of the two steps.
    let mut base = Series::new("baseline");
    base.record(timed_trial(w, opts.seed, false, &data).map(|t| t.0), false);
    attempted += base.attempted;
    failed += base.failed_trials();
    notes.extend(base.failures.iter().cloned());
    let (Some(reference), Some(baseline)) = (timed.trials.first(), base.trials.first()) else {
        return Report {
            attempted,
            failed,
            metrics: Vec::new(),
            notes,
        };
    };
    let vs_sgd_ratio = step_ms(&[reference], cycle(w), fastest) / step_ms(&[baseline], 1, fastest);

    // The traced passes. Every workload gets the composed pass (where the
    // per-crate rows come from); the task-graph workload also runs its
    // own path and the single-thread replay of the same graph.
    let cfg = w.train_config(opts.seed, EPOCHS, true);
    let mut passes: Vec<(&str, PassResult)> = Vec::new();
    let mut modes = vec![("composed", PassMode::Composed)];
    if let Some(exec) = w.exec.exec_mode() {
        modes.push(("graph", PassMode::Graph(exec)));
        modes.push((
            "replay",
            PassMode::Graph(ExecMode::Replay { seed: opts.seed }),
        ));
    }
    for (label, mode) in modes {
        attempted += 1;
        let pass = run_pass(w, &cfg, &data.0, mode);
        // Same arithmetic, same exchange: the composed loop must land on
        // the timed trial's bits and move the timed trial's bytes.
        let bits: Vec<u64> = pass
            .rank0
            .epoch_losses
            .iter()
            .map(|l| l.to_bits())
            .collect();
        let moved = class_bytes(&pass.comm[0]);
        let expected = traffic_bytes(&reference.traffic);
        let mut why = Vec::new();
        if bits != reference.epoch_loss_bits {
            why.push("loss bits differ from the timed trial".to_string());
        }
        if pass.rank0.params_hash != reference.params_hash {
            why.push("final parameters differ from the timed trial".to_string());
        }
        if moved != expected {
            why.push(format!(
                "moved {moved:?} bytes per class, train() moved {expected:?}"
            ));
        }
        if !why.is_empty() {
            failed += 1;
            notes.extend(why.into_iter().map(|r| format!("{label} pass: {r}")));
        }
        passes.push((label, pass));
    }

    let micro = micro::run(w, opts.seed, &data.0, if opts.smoke { 1 } else { 2 });
    let spans_per_iter = registry.as_ref().map_or(0.0, |r| {
        r.events().iter().filter(|e| e.rank == 0).count() as f64 / w.iters() as f64
    });
    let metrics = per_layer_values(w, reference, vs_sgd_ratio, &passes, &micro, spans_per_iter);
    if let Some(registry) = &registry {
        notes.extend(reconcile(registry, &passes[0].1));
    }

    if let Some(dir) = &opts.trace_out {
        let all: Vec<(&str, Vec<Vec<SpanRec>>)> =
            passes.iter().map(|(l, p)| (*l, p.spans.clone())).collect();
        let path = dir.join(format!("{}.json", w.name));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, render_pretty(&trace::to_json(w.name, &all))));
        match written {
            Ok(()) => notes.push(format!("trace written to {}", path.display())),
            Err(e) => {
                failed += 1;
                notes.push(format!("cannot write {}: {e}", path.display()));
            }
        }
    }
    Report {
        attempted,
        failed,
        metrics,
        notes,
    }
}

/// Bytes of the four K-FAC traffic classes, as the wrapper counted them.
fn class_bytes(totals: &[ClassTotals; 5]) -> [u64; 4] {
    [
        totals[0].bytes,
        totals[1].bytes,
        totals[2].bytes,
        totals[3].bytes,
    ]
}

/// The same four classes from the fabric's own accounting. `Other` is
/// left out: `train()` validates after each epoch, the traced loop does not.
fn traffic_bytes(t: &Traffic) -> [u64; 4] {
    [
        t.gradient_bytes,
        t.factor_bytes,
        t.eigen_bytes,
        t.precond_bytes,
    ]
}

fn per_layer_values(
    w: &Workload,
    timed: &Trial,
    vs_sgd_ratio: f64,
    passes: &[(&str, PassResult)],
    micro: &Micro,
    spans_per_iter: f64,
) -> Vec<Value> {
    // One trial against one trial, so means on both sides.
    let timed_iter_ms = if timed.iteration_ms.is_empty() {
        timed.wall_iter_ms
    } else {
        timed.iteration_ms.iter().sum::<f64>() / timed.iteration_ms.len() as f64
    };
    let composed = &passes[0].1;
    let rows = Rows::of(composed);
    let iters = composed.iters as f64;
    let composed_wall = iter_wall_ms(composed);
    let pass_wall = |label: &str| {
        passes
            .iter()
            .find(|(l, _)| *l == label)
            .map_or(0.0, |(_, p)| iter_wall_ms(p))
    };
    let (graph_wall, replay_wall) = (pass_wall("graph"), pass_wall("replay"));
    let on_graph = matches!(w.exec, ExecStrategy::Overlapped { .. });

    // Eigendecomposition is split across ranks; the step waits for the
    // slowest, so report the maximum and how far it is from the mean.
    let eig_per_rank: Vec<f64> = composed
        .spans
        .iter()
        .map(|s| total_ms(s, "kfac.eig_comp") / iters)
        .collect();
    let eig_max = eig_per_rank.iter().copied().fold(0.0, f64::max);
    let eig_mean = eig_per_rank.iter().sum::<f64>() / RANKS as f64;

    // The collectives the timed trials issue: on the task graph one
    // gradient allreduce per bucket, in the composed loop one fused.
    let comm = &passes
        .iter()
        .find(|(l, _)| *l == "graph")
        .map_or(composed, |(_, p)| p)
        .comm[0];
    let nn_ms = rows.ms("nn.forward") + rows.ms("nn.backward") + rows.ms("nn.backward_capture");
    let flops = micro::nn_flops_per_iter(w);
    let unattributed = rows.ms("iter");
    // The pass that takes the timed trial's own path.
    let same_path_wall = if on_graph { graph_wall } else { composed_wall };

    let comm_row = |name: &str| -> Option<f64> {
        let (class, field) = name.strip_prefix("comm.")?.split_once('_')?;
        let totals = &comm[["grad", "factor", "eigen", "precond"]
            .iter()
            .position(|c| *c == class)?];
        match field {
            "ms" => Some(totals.transfer_ns as f64 / 1e6 / iters),
            "skew_ms" => Some(totals.skew_ns as f64 / 1e6 / iters),
            "bytes" => Some(totals.bytes as f64),
            "calls" => Some(totals.calls as f64),
            _ => None,
        }
    };
    let value = |name: &str| -> f64 {
        match name {
            "data.batch_ms" => rows.ms("data.batch"),
            "nn.forward_ms" => rows.ms("nn.forward"),
            "nn.backward_ms" => rows.ms("nn.backward"),
            "nn.backward_capture_ms" => rows.ms("nn.backward_capture"),
            "nn.flops_per_iter" => flops,
            "nn.gflops" => flops / (nn_ms * 1e-3) / 1e9,
            "tensor.gemm_gflops" => micro.gemm_gflops,
            "tensor.gram_gflops" => micro.gram_gflops,
            "tensor.gram_bf16_gflops" => micro.gram_bf16_gflops,
            "tensor.eig_ql_ms_n144" => micro.eig_ql_ms_n144,
            "tensor.eig_ql_ms_n576" => micro.eig_ql_ms_n576,
            "tensor.eig_rand_ms_n576" => micro.eig_rand_ms_n576,
            "tensor.eig_rand_rank_n576" => micro.eig_rand_rank_n576,
            "kfac.factor_comp_ms" => rows.ms("kfac.factor_comp"),
            "kfac.factor_pack_ms" => rows.ms("kfac.factor_pack"),
            "kfac.eig_comp_ms" => eig_max,
            "kfac.eig_codec_ms" => rows.ms("kfac.eig_codec"),
            "kfac.eig_imbalance" if eig_mean > 0.0 => eig_max / eig_mean,
            "kfac.eig_fallbacks" => composed
                .rank0
                .stats
                .as_ref()
                .map_or(0.0, |s| s.eig_fallbacks as f64),
            "kfac.grad_matrix_ms" => rows.ms("kfac.grad_matrix"),
            "kfac.precond_ms" => rows.ms("kfac.precond"),
            "kfac.clip_apply_ms" => rows.ms("kfac.clip_apply"),
            "kfac.step_self_ms" => rows.ms("kfac.step"),
            "kfac.state_bytes" => composed.rank0.state_bytes as f64,
            "comm.bytes_per_iter" => class_bytes(comm).iter().sum::<u64>() as f64 / iters,
            "exec.iter_ms" => graph_wall,
            "exec.replay_iter_ms" => replay_wall,
            "exec.seq_iter_ms" if on_graph => composed_wall,
            "exec.overlap_ratio" if on_graph => graph_wall / composed_wall,
            "exec.graph_overhead_ms" if on_graph => replay_wall - composed_wall,
            "optim.step_ms" => rows.ms("optim.step"),
            "harness.grad_sync_self_ms" => rows.ms("harness.grad_sync"),
            "harness.ckpt_save_ms" => composed.rank0.checkpoint.save_ms,
            "harness.ckpt_restore_ms" => composed.rank0.checkpoint.restore_ms,
            "harness.ckpt_bytes" => composed.rank0.checkpoint.bytes as f64,
            "harness.unattributed_ms" => unattributed,
            "harness.outside_loop_ms" => (timed.wall_iter_ms - timed_iter_ms) * iters,
            "harness.peak_rss_mb" => peak_rss_mib(),
            "harness.vs_sgd_ratio" => vs_sgd_ratio,
            "telemetry.span_ns" => micro.span_ns,
            "telemetry.spans_per_iter" => spans_per_iter,
            "telemetry.est_frac" => micro.span_ns * spans_per_iter / (timed_iter_ms * 1e6),
            "trace.vs_e2e_ratio" => same_path_wall / timed_iter_ms,
            "trace.rows_sum_frac" => 1.0 - unattributed / composed_wall,
            // `comm.<class>_<field>`, or a row of another workload's path.
            _ => comm_row(name).unwrap_or(0.0),
        }
    };
    PER_LAYER
        .iter()
        .map(|m| Value {
            name: m.name,
            value: value(m.name),
            unit: m.unit,
        })
        .collect()
}

/// Read-only cross-check: the program's own `train/*`, `kfac/*` and
/// `comm/*` spans of the timed trial (rank 0, per iteration) beside the
/// benchmark's rows for the same work. Reported, never gated on.
fn reconcile(registry: &Registry, composed: &PassResult) -> Vec<String> {
    let iters = composed.iters as f64;
    let spans = &composed.spans[0];
    let program = |name: &str| registry.span_agg(name, Some(0)).total.as_secs_f64() * 1e3 / iters;
    let traced = |names: &[&str]| names.iter().fold(0.0, |acc, n| acc + total_ms(spans, n)) / iters;
    let pairs: [(&str, &[&str]); 8] = [
        ("train/forward", &["nn.forward"]),
        ("train/backward", &["nn.backward", "nn.backward_capture"]),
        ("train/grad_allreduce", &["harness.grad_sync"]),
        (
            "train/kfac_step",
            &[
                "kfac.step",
                "kfac.factor_comp",
                "kfac.factor_pack",
                "comm.factor",
                "comm.factor.skew",
                "kfac.eig_comp",
                "kfac.eig_codec",
                "comm.eigen",
                "comm.eigen.skew",
                "kfac.grad_matrix",
                "kfac.precond",
                "kfac.clip_apply",
            ],
        ),
        ("kfac/factor_comp", &["kfac.factor_comp"]),
        ("kfac/eig_comp", &["kfac.eig_comp"]),
        (
            "kfac/precond",
            &["kfac.grad_matrix", "kfac.precond", "kfac.clip_apply"],
        ),
        ("train/opt_step", &["optim.step"]),
    ];
    let mut lines =
        vec!["reconciliation (program span vs traced rows, ms/iter, rank 0):".to_string()];
    for (name, rows) in pairs {
        let (p, t) = (program(name), traced(rows));
        if p == 0.0 && t == 0.0 {
            continue;
        }
        // One side is 0 where the two spell the step differently (the
        // graph has no train/kfac_step span, the monolith no phase rows).
        let diff = if p > 0.0 && t > 0.0 {
            format!("{:+.1}%", (t - p) / p * 100.0)
        } else {
            "n/a".into()
        };
        lines.push(format!(
            "  {name:<22} program {p:>9.3}  traced {t:>9.3}  {diff}"
        ));
    }
    lines
}
