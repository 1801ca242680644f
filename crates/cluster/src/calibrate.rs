//! Calibrate the α/β collective cost model against *measured* fabric
//! timings.
//!
//! `xp bench-allreduce` times pipelined-ring and halving-doubling
//! allreduces across real OS processes on the TCP fabric and writes
//! `BENCH_allreduce.json` (committed at the repo root). This module
//! closes the loop: it parses that report, turns the affine fit into a
//! [`LinkSpec`], checks the analytic ring model against the raw
//! measurements, and re-runs the scaling projections with the fitted
//! constants in place of the Frontera presets.
//!
//! The point is falsifiability: the simulator's collective prices are no
//! longer purely literature constants — on this host they are anchored
//! to timings the repo itself can regenerate with
//! `cargo run --release -p kfac-harness --bin xp -- bench-allreduce`.

use crate::hardware::{ClusterSpec, GpuSpec};
use crate::iteration::{IterationModel, KfacRunConfig};
use crate::profile::ModelProfile;
use crate::scaling::{paper_update_freq, ScalingPoint, TrainingBudget};
use kfac_collectives::LinkSpec;
use kfac_nn::arch::ModelArch;
use kfac_telemetry::json::Json;

/// One timed allreduce from the bench report.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredPoint {
    /// Payload size, bytes.
    pub bytes: u64,
    /// Algorithm name as reported (`pipelined-ring`, `halving-doubling`).
    pub algo: String,
    /// Median wall time, seconds.
    pub seconds: f64,
}

/// A parsed `BENCH_allreduce.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// World size the bench ran with.
    pub ranks: usize,
    /// α/β fitted from the pipelined-ring series.
    pub link: LinkSpec,
    /// The report's own summary of [`crossover_bracket`]: the bracket's
    /// geometric midpoint, if a crossover was measured.
    pub crossover_bytes: Option<u64>,
    /// Raw measurements, all algorithms.
    pub points: Vec<MeasuredPoint>,
}

fn field_f64(obj: &Json, key: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("bench report: missing numeric field `{key}`"))
}

impl BenchReport {
    /// Parse the JSON written by `xp bench-allreduce --json`.
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let root = Json::parse(text)?;
        let ranks = field_f64(&root, "ranks")? as usize;
        let fitted = root
            .get("fitted")
            .ok_or_else(|| "bench report: missing `fitted` object".to_string())?;
        let link = LinkSpec {
            alpha_s: field_f64(fitted, "alpha_s")?,
            beta_s_per_byte: field_f64(fitted, "beta_s_per_byte")?,
        };
        let crossover_bytes = root
            .get("crossover_bytes")
            .and_then(Json::as_f64)
            .map(|v| v as u64);
        let results = root
            .get("results")
            .and_then(Json::as_arr)
            .ok_or_else(|| "bench report: missing `results` array".to_string())?;
        let mut points = Vec::with_capacity(results.len());
        for entry in results {
            points.push(MeasuredPoint {
                bytes: field_f64(entry, "bytes")? as u64,
                algo: entry
                    .get("algo")
                    .and_then(Json::as_str)
                    .ok_or_else(|| "bench report: result without `algo`".to_string())?
                    .to_string(),
                seconds: field_f64(entry, "seconds")?,
            });
        }
        if points.is_empty() {
            return Err("bench report: empty `results`".to_string());
        }
        Ok(BenchReport {
            ranks,
            link,
            crossover_bytes,
            points,
        })
    }

    /// The pipelined-ring series — the algorithm the analytic
    /// [`LinkSpec::allreduce_s`] model prices.
    pub fn ring_points(&self) -> impl Iterator<Item = &MeasuredPoint> {
        self.points.iter().filter(|p| p.algo == "pipelined-ring")
    }

    /// Median relative error of the fitted analytic model against the
    /// raw ring measurements: `median |model − measured| / measured`.
    ///
    /// Small messages are latency-bound and the clamped α≥0 fit can
    /// underestimate them badly, which is exactly why the *median* (not
    /// the max) is the acceptance statistic: the model must be right
    /// about the bulk of the size range it prices.
    pub fn median_rel_error(&self) -> f64 {
        let mut errs: Vec<f64> = self
            .ring_points()
            .map(|p| {
                let model = self.link.allreduce_s(p.bytes, self.ranks);
                (model - p.seconds).abs() / p.seconds
            })
            .collect();
        assert!(!errs.is_empty(), "no pipelined-ring points in report");
        errs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        errs[errs.len() / 2]
    }
}

/// Where halving/doubling hands over to the pipelined ring, read off the
/// measurements rather than off fitted lines: `(lo, hi)` with `lo` the
/// largest size at which halving/doubling is at least as fast as the ring
/// (0 when it never is) and `hi` the next measured size up, from which
/// the ring wins. `None` when halving/doubling still wins at the largest
/// size, or when a series is missing.
pub fn crossover_bracket(points: &[MeasuredPoint]) -> Option<(u64, u64)> {
    let seconds = |algo: &str, bytes: u64| {
        let p = points.iter().find(|p| p.algo == algo && p.bytes == bytes);
        p.map(|p| p.seconds)
    };
    let mut sizes: Vec<u64> = points.iter().map(|p| p.bytes).collect();
    sizes.sort_unstable();
    sizes.dedup();
    let mut hd_wins = Vec::with_capacity(sizes.len());
    for &bytes in &sizes {
        let hd = seconds("halving-doubling", bytes)?;
        hd_wins.push(hd <= seconds("pipelined-ring", bytes)?);
    }
    match hd_wins.iter().rposition(|&w| w) {
        None => Some((0, *sizes.first()?)),
        Some(i) => Some((sizes[i], *sizes.get(i + 1)?)),
    }
}

/// A cluster spec using the paper's V100 compute rates but *this host's*
/// measured interconnect.
pub fn calibrated_cluster(gpus: usize, link: LinkSpec) -> ClusterSpec {
    ClusterSpec {
        gpus,
        link,
        gpu: GpuSpec::v100(),
    }
}

/// [`crate::scaling::time_to_solution`] with the fitted link in place of
/// the Frontera preset.
pub fn time_to_solution_calibrated(
    arch: &ModelArch,
    gpus: usize,
    budget: TrainingBudget,
    link: LinkSpec,
) -> ScalingPoint {
    let profile = ModelProfile::from_arch(arch);
    let model = IterationModel::new(profile, calibrated_cluster(gpus, link), budget.local_batch);
    let iters_per_epoch = budget.dataset / (gpus * budget.local_batch);
    let cfg = KfacRunConfig::with_freq(paper_update_freq(gpus));

    let sgd_iter = model.sgd_iteration().total();
    let lw_iter = model.kfac_lw_iteration(cfg).total();
    let opt_iter = model.kfac_opt_iteration(cfg).total();

    ScalingPoint {
        gpus,
        sgd_s: sgd_iter * (iters_per_epoch * budget.sgd_epochs) as f64,
        lw_s: lw_iter * (iters_per_epoch * budget.kfac_epochs) as f64,
        opt_s: opt_iter * (iters_per_epoch * budget.kfac_epochs) as f64,
    }
}

/// Full {16, …, 256} sweep on the fitted link.
pub fn scaling_sweep_calibrated(
    arch: &ModelArch,
    budget: TrainingBudget,
    link: LinkSpec,
) -> Vec<ScalingPoint> {
    [16usize, 32, 64, 128, 256]
        .iter()
        .map(|&g| time_to_solution_calibrated(arch, g, budget, link))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scaling::time_to_solution;
    use kfac_nn::arch::resnet50;

    fn committed_report() -> BenchReport {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_allreduce.json");
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read committed {path}: {e}"));
        BenchReport::parse(&text).expect("committed bench report parses")
    }

    /// The acceptance tolerance: the fitted α/β model must track the
    /// measured ring timings to within 50% median relative error.
    #[test]
    fn committed_fit_tracks_measurements() {
        let report = committed_report();
        assert!(report.ranks >= 2);
        assert!(report.link.beta_s_per_byte > 0.0);
        assert!(report.link.alpha_s >= 0.0);
        assert!(report.ring_points().count() >= 4, "need a real size sweep");
        let err = report.median_rel_error();
        assert!(
            err < 0.5,
            "fitted model off by {err:.2} median relative error"
        );
    }

    /// Localhost TCP is far slower per byte than the Frontera EDR preset,
    /// so calibrated projections must price communication visibly higher
    /// while staying finite and ordered.
    #[test]
    fn calibrated_projection_responds_to_measured_link() {
        let report = committed_report();
        let budget = TrainingBudget::default();
        let arch = resnet50();
        let preset = time_to_solution(&arch, 64, budget);
        let fitted = time_to_solution_calibrated(&arch, 64, budget, report.link);
        for t in [fitted.sgd_s, fitted.lw_s, fitted.opt_s] {
            assert!(t.is_finite() && t > 0.0);
        }
        assert!(
            fitted.sgd_s > preset.sgd_s,
            "measured localhost link ({:.2e} s/B) should cost more than the \
             EDR preset ({:.2e} s/B)",
            report.link.beta_s_per_byte,
            ClusterSpec::frontera(64).link.beta_s_per_byte,
        );
        let sweep = scaling_sweep_calibrated(&arch, budget, report.link);
        assert_eq!(sweep.len(), 5);
    }

    /// `AlgoPolicy`'s size threshold is a constant read off the committed
    /// sweep: halving/doubling up to it, the ring above. It must sit
    /// between the largest size at which halving/doubling was measured
    /// to win and the smallest from which the ring does.
    #[test]
    fn policy_default_sits_inside_the_committed_crossover_bracket() {
        let report = committed_report();
        let (lo, hi) = crossover_bracket(&report.points).expect("the committed sweep crosses over");
        let policy_default = kfac_collectives::AlgoPolicy::default().hd_max_bytes as u64;
        assert!(
            lo <= policy_default && policy_default < hi,
            "hd_max_bytes = {policy_default} B is outside the measured bracket [{lo}, {hi}) B"
        );
        // The file's own summary is derived from the same bracket.
        let cross = report.crossover_bytes.expect("committed crossover_bytes");
        assert!(lo <= cross && cross < hi, "{cross} outside [{lo}, {hi})");
    }

    #[test]
    fn crossover_bracket_reads_the_measurements() {
        let point = |bytes, algo: &str, seconds| MeasuredPoint {
            bytes,
            algo: algo.to_string(),
            seconds,
        };
        let sweep = |hd: [f64; 3], ring: [f64; 3]| -> Vec<MeasuredPoint> {
            let sizes = [1024, 4096, 16384];
            let hd = sizes
                .iter()
                .zip(hd)
                .map(|(&b, s)| point(b, "halving-doubling", s));
            let ring = sizes
                .iter()
                .zip(ring)
                .map(|(&b, s)| point(b, "pipelined-ring", s));
            hd.chain(ring).collect()
        };
        // hd wins at 1 KiB and 4 KiB, loses at 16 KiB.
        let crossing = sweep([1.0, 2.0, 9.0], [3.0, 3.0, 4.0]);
        assert_eq!(crossover_bracket(&crossing), Some((4096, 16384)));
        // hd never wins: the ring takes over below the smallest size.
        let ring_only = sweep([5.0, 5.0, 9.0], [3.0, 3.0, 4.0]);
        assert_eq!(crossover_bracket(&ring_only), Some((0, 1024)));
        // hd wins everywhere: no crossover inside the sweep.
        let hd_only = sweep([1.0, 2.0, 3.0], [3.0, 3.0, 4.0]);
        assert_eq!(crossover_bracket(&hd_only), None);
        // A series missing: nothing to compare.
        assert_eq!(crossover_bracket(&crossing[..3]), None);
    }

    #[test]
    fn parse_rejects_malformed_reports() {
        assert!(BenchReport::parse("not json").is_err());
        assert!(BenchReport::parse("{\"ranks\": 4}").is_err());
        let no_results = r#"{"ranks": 4, "fitted": {"alpha_s": 1e-6, "beta_s_per_byte": 1e-9}}"#;
        assert!(BenchReport::parse(no_results).is_err());
    }

    #[test]
    fn parse_roundtrips_a_synthetic_report() {
        let text = r#"{
            "backend": "proc", "ranks": 4, "iters": 3,
            "results": [
                {"bytes": 1024, "algo": "pipelined-ring", "seconds": 1.0e-4},
                {"bytes": 1048576, "algo": "pipelined-ring", "seconds": 2.0e-3}
            ],
            "fits": [],
            "fitted": {"alpha_s": 2.0e-6, "beta_s_per_byte": 1.0e-9},
            "crossover_bytes": 65536
        }"#;
        let r = BenchReport::parse(text).unwrap();
        assert_eq!(r.ranks, 4);
        assert_eq!(r.crossover_bytes, Some(65536));
        assert_eq!(r.points.len(), 2);
        assert_eq!(r.link.alpha_s, 2.0e-6);
        assert!(r.median_rel_error().is_finite());
    }
}
