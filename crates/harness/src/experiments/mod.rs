//! One driver per table/figure of the paper's evaluation (§VI).
//!
//! | module | regenerates |
//! |---|---|
//! | [`table1`] | Table I — inverse vs eigen K-FAC accuracy across batch sizes |
//! | [`correctness`] | Fig. 4 + Table II — CIFAR accuracy across worker counts |
//! | [`fig5`] | Fig. 5 — ImageNet-style accuracy curves, K-FAC 55-epoch budget vs SGD 90 |
//! | [`freq`] | Table III + Fig. 6 — accuracy/time vs K-FAC update frequency |
//! | [`scaling`] | Figs. 7–9 + Table IV — time-to-solution across 16–256 GPUs |
//! | [`table5`] | Table V — factor/eig stage time profile |
//! | [`table6`] | Table VI — per-worker eig imbalance (+ LPT placement ablation) |
//! | [`fig10`] | Fig. 10 — factor computation time vs model size (measured + projected) |
//! | [`elastic`] | elastic membership — kill a rank mid-run, shrink, bitwise resume |
//! | [`randeig`] | randomized vs exact eigensolver — 4-rank CIFAR loss parity |
//!
//! Each driver returns an [`ExperimentOutput`] of markdown tables plus
//! free-form notes; the `xp` binary prints them and appends to
//! `results/`.

pub mod ablations;
pub mod correctness;
pub mod elastic;
pub mod fig10;
pub mod fig5;
pub mod freq;
pub mod randeig;
pub mod scaling;
pub mod table1;
pub mod table5;
pub mod table6;

use crate::presets::Scale;
use crate::report::Table;

/// Rendered output of one experiment driver.
pub struct ExperimentOutput {
    /// Experiment id (`"table1"`, `"fig7"`, …).
    pub id: &'static str,
    /// Markdown tables in paper order.
    pub tables: Vec<Table>,
    /// Free-form observations (shape checks, substitutions used).
    pub notes: Vec<String>,
}

impl ExperimentOutput {
    /// Render everything to markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("## Experiment `{}`\n\n", self.id);
        for t in &self.tables {
            out.push_str(&t.to_markdown());
            out.push('\n');
        }
        if !self.notes.is_empty() {
            out.push_str("Notes:\n");
            for n in &self.notes {
                out.push_str(&format!("- {n}\n"));
            }
        }
        out
    }
}

/// All experiment ids the `xp` binary accepts.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "table1",
    "table2",
    "fig4",
    "correctness",
    "fig5",
    "table3",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "table4",
    "table5",
    "table6",
    "fig10",
    "ablations",
    "elastic",
    "randeig",
];

/// The words `xp` accepts in place of an experiment id: `all`, `list`
/// and the standalone tools. `xp` refuses any first argument that is in
/// neither this list nor [`ALL_EXPERIMENTS`], and the documentation's
/// command lines are checked against both.
pub const SUBCOMMANDS: &[&str] = &[
    "all",
    "list",
    "prom-lint",
    "bench-kernels",
    "bench-eig",
    "bench-allreduce",
    "proc-train",
];

/// The experiments `xp all` runs, in paper order: one id per driver of
/// the paper's evaluation (aliases such as `fig4` and `fig6` share one).
pub const XP_ALL: &[&str] = &[
    "table1", "table2", "fig5", "table3", "fig7", "fig8", "fig9", "table4", "table5", "table6",
    "fig10",
];

/// The driver behind one experiment id.
fn driver(id: &str) -> Option<fn(Scale) -> ExperimentOutput> {
    let run: fn(Scale) -> ExperimentOutput = match id {
        "table1" => table1::run,
        "table2" | "fig4" | "correctness" => correctness::run,
        "fig5" => fig5::run,
        "table3" | "fig6" => freq::run,
        "fig7" => |_| scaling::run_model(50),
        "fig8" => |_| scaling::run_model(101),
        "fig9" => |_| scaling::run_model(152),
        "table4" => |_| scaling::run_table4(),
        "table5" => |_| table5::run(),
        "table6" => |_| table6::run(),
        "fig10" => fig10::run,
        "ablations" => ablations::run,
        "elastic" => elastic::run,
        "randeig" => randeig::run,
        _ => return None,
    };
    Some(run)
}

/// Dispatch one experiment by id.
pub fn run(id: &str, scale: Scale) -> Option<ExperimentOutput> {
    driver(id).map(|run| run(scale))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kfac_telemetry::Registry;

    #[test]
    fn dispatch_knows_every_listed_experiment() {
        for id in ALL_EXPERIMENTS.iter().chain(XP_ALL) {
            assert!(driver(id).is_some(), "{id} has no driver");
        }
        assert!(run("nonsense", Scale::Smoke).is_none());
        // The projection-only experiments run instantly. They are numbers,
        // not measurements: with a registry installed they record no span,
        // so a trace or `/metrics` holds only timed work.
        for id in ["fig7", "fig8", "fig9", "table4", "table5", "table6"] {
            let registry = Registry::new();
            let guard = registry.install(0);
            let out = run(id, Scale::Smoke).expect("dispatch");
            drop(guard);
            assert!(!out.tables.is_empty(), "{id} returned no tables");
            assert!(registry.events().is_empty(), "{id} recorded spans");
        }
    }
}
