//! Names, units, directions and bounds of every reported metric — the
//! same table `BENCHMARK.json` states; a test holds the two together.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the training stack sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the reference median by which it may get worse before a
    /// change counts as a regression.
    pub bound: f64,
}

/// A per-layer metric (layer = crate); no bound.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, prefixed with its layer.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured on `kfac_harness::train` with the
/// benchmark's tracing off.
///
/// Every bound is the contract's maximum. On the reference box — two
/// vCPUs with a noisy neighbour: seconds-long stretches at 0.75× speed
/// with no steal time accounted, a scalar probe loop unaffected — the
/// step of ten runs of one commit spreads by 2–10% of its median
/// depending on the hour, and medians an hour apart differed by 11%; the
/// loss varies by 7–10% across seeds. A bound has to be about three
/// times the spread to resolve anything, so tighter ones would only
/// reject noise.
pub const END_TO_END: [EndToEnd; 3] = [
    // Fastest iteration of each kind (with and without an eigen update),
    // weighted over the K-FAC update cycle: the amortised step the
    // paper's time-to-solution multiplies.
    EndToEnd {
        name: "iter_ms",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    // Mean training loss of the last epoch, fixed sample budget: the
    // "preserving convergence" half of the paper's claim.
    EndToEnd {
        name: "final_loss",
        unit: "nats",
        better: Lower,
        bound: 0.25,
    },
    // Communicator creation, model build, Kfac::new, warm-up iterations.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
];

const fn ms(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "ms",
        better: Lower,
    }
}

const fn count(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "count",
        better: Lower,
    }
}

const fn bytes(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "bytes",
        better: Lower,
    }
}

const fn gflops(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "GFLOP/s",
        better: Higher,
    }
}

const fn ratio(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "ratio",
        better: Lower,
    }
}

/// Per-layer metrics, from the traced pass. `*_ms` rows are rank-0 self
/// times per iteration, averaged over the traced trial, unless the
/// README says otherwise; a row that does not apply to a workload is 0.
pub const PER_LAYER: [PerLayer; 60] = [
    ms("data.batch_ms"),
    ms("nn.forward_ms"),
    ms("nn.backward_ms"),
    ms("nn.backward_capture_ms"),
    count("nn.flops_per_iter"),
    gflops("nn.gflops"),
    gflops("tensor.gemm_gflops"),
    gflops("tensor.gram_gflops"),
    gflops("tensor.gram_bf16_gflops"),
    ms("tensor.eig_ql_ms_n144"),
    ms("tensor.eig_ql_ms_n576"),
    ms("tensor.eig_rand_ms_n576"),
    count("tensor.eig_rand_rank_n576"),
    ms("kfac.factor_comp_ms"),
    ms("kfac.factor_pack_ms"),
    ms("kfac.eig_comp_ms"),
    ms("kfac.eig_codec_ms"),
    ratio("kfac.eig_imbalance"),
    count("kfac.eig_fallbacks"),
    ms("kfac.grad_matrix_ms"),
    ms("kfac.precond_ms"),
    ms("kfac.clip_apply_ms"),
    ms("kfac.step_self_ms"),
    bytes("kfac.state_bytes"),
    ms("comm.grad_ms"),
    bytes("comm.grad_bytes"),
    count("comm.grad_calls"),
    ms("comm.grad_skew_ms"),
    ms("comm.factor_ms"),
    bytes("comm.factor_bytes"),
    count("comm.factor_calls"),
    ms("comm.factor_skew_ms"),
    ms("comm.eigen_ms"),
    bytes("comm.eigen_bytes"),
    count("comm.eigen_calls"),
    ms("comm.eigen_skew_ms"),
    ms("comm.precond_ms"),
    bytes("comm.precond_bytes"),
    count("comm.precond_calls"),
    ms("comm.precond_skew_ms"),
    bytes("comm.bytes_per_iter"),
    ms("exec.iter_ms"),
    ms("exec.replay_iter_ms"),
    ms("exec.seq_iter_ms"),
    ratio("exec.overlap_ratio"),
    ms("exec.graph_overhead_ms"),
    ms("optim.step_ms"),
    ms("harness.grad_sync_self_ms"),
    ms("harness.ckpt_save_ms"),
    ms("harness.ckpt_restore_ms"),
    bytes("harness.ckpt_bytes"),
    ms("harness.unattributed_ms"),
    ms("harness.outside_loop_ms"),
    PerLayer {
        name: "harness.peak_rss_mb",
        unit: "MiB",
        better: Lower,
    },
    ratio("harness.vs_sgd_ratio"),
    PerLayer {
        name: "telemetry.span_ns",
        unit: "ns",
        better: Lower,
    },
    count("telemetry.spans_per_iter"),
    PerLayer {
        name: "telemetry.est_frac",
        unit: "fraction",
        better: Lower,
    },
    ratio("trace.vs_e2e_ratio"),
    PerLayer {
        name: "trace.rows_sum_frac",
        unit: "fraction",
        better: Higher,
    },
];

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonio::Json;

    /// `BENCHMARK.json` sits at the repository root, one level above this
    /// package; the driver reads that file, the program this table.
    #[test]
    fn table_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_str).unwrap().to_string();

        let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit, "{}", m.name);
            assert_eq!(field(j, "better"), m.better.name(), "{}", m.name);
            assert_eq!(
                j.get("bound").and_then(Json::as_f64),
                Some(m.bound),
                "{}",
                m.name
            );
        }
        let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(j, "name"), m.name);
            assert_eq!(field(j, "unit"), m.unit, "{}", m.name);
            assert_eq!(field(j, "better"), m.better.name(), "{}", m.name);
        }
        let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(workloads.len(), crate::workload::ALL.len());
        for (j, w) in workloads.iter().zip(crate::workload::ALL) {
            assert_eq!(field(j, "name"), w.name);
            assert_eq!(field(j, "why"), w.why, "{}", w.name);
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let ok = |s: &str, extra: &str, max: usize| {
            s.len() <= max
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for n in &names {
            assert!(ok(n, "_.-", 64), "{n}");
        }
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(ok(u, "_/%.-", 16), "{u}");
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }
}
