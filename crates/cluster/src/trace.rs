//! Synthetic span emission — the simulator's timeline through the same
//! telemetry API the runnable trainer uses.
//!
//! The analytic model prices stages ([`IterationModel`]); this module
//! *schedules* them: per-rank cursors advance through forward, backward,
//! and the K-FAC stages on their real update intervals, collectives
//! rendezvous at the slowest participant, and every stage lands in the
//! shared [`Registry`] as a [`SpanEvent`]. `xp --trace-out` then renders
//! simulated 64-GPU timelines and measured CPU runs into one Chrome
//! trace with identical tooling — Table VI's eigendecomposition
//! imbalance is directly visible as ragged `sim/eig_comp` bars.

use crate::iteration::{IterationModel, KfacRunConfig};
use kfac_telemetry::{AttrValue, Registry, SpanEvent};

/// Per-rank emission state: a time cursor plus a sequence counter.
struct RankCursor {
    /// Current time, microseconds since the synthetic origin.
    now_us: u64,
    /// Next sequence number (orders ties in the exporter).
    seq: u64,
    /// Worker lane tag stamped on every emitted span (`None` = main).
    lane: Option<&'static str>,
    /// Events buffered for this rank.
    events: Vec<SpanEvent>,
}

impl RankCursor {
    fn new(rank_origin_us: u64) -> Self {
        RankCursor {
            now_us: rank_origin_us,
            seq: 0,
            lane: None,
            events: Vec::new(),
        }
    }

    fn new_lane(rank_origin_us: u64, lane: &'static str) -> Self {
        RankCursor {
            lane: Some(lane),
            ..RankCursor::new(rank_origin_us)
        }
    }

    /// Append a span starting at the cursor and advance it.
    fn emit(
        &mut self,
        name: &'static str,
        rank: usize,
        depth: u32,
        dur_us: u64,
        attrs: Vec<(&'static str, AttrValue)>,
    ) {
        self.events.push(SpanEvent {
            name,
            rank,
            lane: self.lane,
            depth,
            seq: self.seq,
            start_us: self.now_us,
            dur_us,
            attrs,
        });
        self.seq += 1;
        self.now_us += dur_us;
    }
}

fn us(seconds: f64) -> u64 {
    (seconds.max(0.0) * 1e6).round() as u64
}

/// Emit a synthetic K-FAC-opt timeline for `iterations` iterations into
/// `registry`, one thread lane per simulated rank. Returns the simulated
/// wall time in seconds (the slowest rank's finish).
///
/// The schedule follows Algorithm 1 on its real intervals: factor
/// updates every [`KfacRunConfig::factor_interval`] iterations,
/// eigendecompositions every `update_freq` iterations (both fire on
/// iteration 0, like the runnable preconditioner). Collectives are
/// rendezvous points — every rank's collective span starts at the
/// slowest rank's arrival — so eigendecomposition imbalance from the
/// real placement code shows up as idle gaps before `sim/eig_comm`.
pub fn emit_kfac_opt_trace(
    registry: &Registry,
    model: &IterationModel,
    cfg: KfacRunConfig,
    iterations: usize,
) -> f64 {
    let world = model.cluster.gpus;
    let times = model.kfac_opt_iteration(cfg);
    let (factor_comp_s, factor_comm_s) = model.factor_stage_s();
    let (_, eig_comm_s) = model.eig_stage_s(cfg.placement);
    let eig_workers = model.eig_worker_times_s(cfg.placement);

    let mut ranks: Vec<RankCursor> = (0..world).map(|_| RankCursor::new(0)).collect();

    // Rendezvous: align every cursor at the slowest rank, then run the
    // collective for `dur_us` on all of them.
    let sync_emit = |ranks: &mut Vec<RankCursor>,
                     name: &'static str,
                     dur_us: u64,
                     bytes: u64,
                     class: &'static str| {
        let barrier = ranks.iter().map(|r| r.now_us).max().unwrap_or(0);
        for (rank, rc) in ranks.iter_mut().enumerate() {
            rc.now_us = barrier;
            rc.emit(
                name,
                rank,
                1,
                dur_us,
                vec![("bytes", bytes.into()), ("class", class.into())],
            );
        }
    };

    for iter in 0..iterations {
        let iter_starts: Vec<u64> = ranks.iter().map(|r| r.now_us).collect();
        let factor_iter = iter % cfg.factor_interval() == 0;
        let eig_iter = iter % cfg.update_freq == 0;

        for (rank, rc) in ranks.iter_mut().enumerate() {
            rc.emit("sim/forward", rank, 1, us(times.fwd), Vec::new());
            rc.emit("sim/backward", rank, 1, us(times.bwd), Vec::new());
        }
        sync_emit(
            &mut ranks,
            "sim/grad_allreduce",
            us(times.grad_comm),
            model.profile.grad_bytes(),
            "gradient",
        );
        if factor_iter {
            for (rank, rc) in ranks.iter_mut().enumerate() {
                rc.emit("sim/factor_comp", rank, 1, us(factor_comp_s), Vec::new());
            }
            sync_emit(
                &mut ranks,
                "sim/factor_comm",
                us(factor_comm_s),
                model.profile.factor_bytes(),
                "factor",
            );
        }
        if eig_iter {
            // Per-rank imbalance from the real placement: ragged bars.
            for (rank, rc) in ranks.iter_mut().enumerate() {
                rc.emit(
                    "sim/eig_comp",
                    rank,
                    1,
                    us(eig_workers[rank]),
                    vec![("factors", 0u64.into())],
                );
            }
            sync_emit(
                &mut ranks,
                "sim/eig_comm",
                us(eig_comm_s),
                model.profile.eig_bytes(),
                "eigen",
            );
        }
        for (rank, rc) in ranks.iter_mut().enumerate() {
            rc.emit("sim/precond", rank, 1, us(times.precond), Vec::new());
            rc.emit("sim/opt_step", rank, 1, us(times.framework), Vec::new());
        }

        // Enclosing iteration span per rank, emitted after its children
        // so the duration is known; seq 0..children keeps exporter order
        // stable (ties broken by seq, and the parent starts earliest).
        for (rank, rc) in ranks.iter_mut().enumerate() {
            let start = iter_starts[rank];
            let seq = rc.seq;
            rc.events.push(SpanEvent {
                name: "sim/iteration",
                rank,
                lane: rc.lane,
                depth: 0,
                seq,
                start_us: start,
                dur_us: rc.now_us.saturating_sub(start),
                attrs: vec![
                    ("iter", (iter as u64).into()),
                    ("factor_update", u64::from(factor_iter).into()),
                    ("eig_update", u64::from(eig_iter).into()),
                ],
            });
            rc.seq += 1;
        }
    }

    let wall_us = ranks.iter().map(|r| r.now_us).max().unwrap_or(0);
    for rc in ranks {
        for ev in rc.events {
            registry.record_raw(ev);
        }
    }
    wall_us as f64 / 1e6
}

/// Emit the overlapped (task-graph) variant of the K-FAC-opt timeline
/// into `registry`: each rank gets a compute lane plus a `comm` lane,
/// backward is split into `buckets` chunks whose gradient allreduces
/// start as soon as the chunk finishes, factor computation overlaps the
/// gradient traffic, and factor allreduces overlap preconditioning on
/// non-eigendecomposition iterations — a pipelined schedule in the manner
/// of Shi et al. (arXiv:2107.06533) under the paper's every-update factor
/// exchange. Of it the `kfac-exec` runtime runs the bucketed gradient
/// overlap only; the measured step exchanges factors once per eigen
/// update and runs its K-FAC stages straight-line. Returns the simulated
/// wall time in seconds (the slowest lane's finish).
pub fn emit_kfac_opt_overlap_trace(
    registry: &Registry,
    model: &IterationModel,
    cfg: KfacRunConfig,
    iterations: usize,
    buckets: usize,
) -> f64 {
    let world = model.cluster.gpus;
    let buckets = buckets.max(1);
    let times = model.kfac_opt_iteration(cfg);
    let (factor_comp_s, factor_comm_s) = model.factor_stage_s();
    let (_, eig_comm_s) = model.eig_stage_s(cfg.placement);
    let eig_workers = model.eig_worker_times_s(cfg.placement);

    let mut comp: Vec<RankCursor> = (0..world).map(|_| RankCursor::new(0)).collect();
    let mut comm: Vec<RankCursor> = (0..world)
        .map(|_| RankCursor::new_lane(0, "comm"))
        .collect();

    // A collective on the comm lanes: every rank's comm worker picks the
    // op up once its own lane is free AND the rank's input is ready; the
    // collective itself starts when the last rank arrives.
    let sync_comm = |comm: &mut Vec<RankCursor>,
                     ready: &[u64],
                     name: &'static str,
                     dur_us: u64,
                     bytes: u64,
                     class: &'static str,
                     bucket: Option<u64>| {
        let barrier = comm
            .iter()
            .zip(ready)
            .map(|(c, &r)| c.now_us.max(r))
            .max()
            .unwrap_or(0);
        for (rank, cc) in comm.iter_mut().enumerate() {
            cc.now_us = barrier;
            let mut attrs = vec![("bytes", bytes.into()), ("class", class.into())];
            if let Some(b) = bucket {
                attrs.push(("bucket", b.into()));
            }
            cc.emit(name, rank, 0, dur_us, attrs);
        }
    };

    for iter in 0..iterations {
        let iter_starts: Vec<u64> = comp.iter().map(|r| r.now_us).collect();
        let factor_iter = iter % cfg.factor_interval() == 0;
        let eig_iter = iter % cfg.update_freq == 0;

        for (rank, rc) in comp.iter_mut().enumerate() {
            rc.emit("sim/forward", rank, 1, us(times.fwd), Vec::new());
        }

        // Backward in bucket-sized chunks; each chunk's gradient bucket
        // goes out on the comm lane while later chunks keep computing.
        let chunk_us = us(times.bwd / buckets as f64);
        let grad_chunk_us = us(times.grad_comm / buckets as f64);
        let grad_chunk_bytes = model.profile.grad_bytes() / buckets as u64;
        let mut grad_done = vec![0u64; world];
        for c in 0..buckets {
            let mut ready = vec![0u64; world];
            for (rank, rc) in comp.iter_mut().enumerate() {
                rc.emit(
                    "sim/backward",
                    rank,
                    1,
                    chunk_us,
                    vec![("bucket", (c as u64).into())],
                );
                ready[rank] = rc.now_us;
            }
            sync_comm(
                &mut comm,
                &ready,
                "sim/grad_allreduce",
                grad_chunk_us,
                grad_chunk_bytes,
                "gradient",
                Some(c as u64),
            );
            for (rank, cc) in comm.iter().enumerate() {
                grad_done[rank] = cc.now_us;
            }
        }

        // Factor work overlaps the gradient traffic still in flight.
        let mut factor_done = vec![0u64; world];
        if factor_iter {
            let mut ready = vec![0u64; world];
            for (rank, rc) in comp.iter_mut().enumerate() {
                rc.emit("sim/factor_comp", rank, 1, us(factor_comp_s), Vec::new());
                ready[rank] = rc.now_us;
            }
            sync_comm(
                &mut comm,
                &ready,
                "sim/factor_comm",
                us(factor_comm_s),
                model.profile.factor_bytes(),
                "factor",
                None,
            );
            for (rank, cc) in comm.iter().enumerate() {
                factor_done[rank] = cc.now_us;
            }
        }

        // Eigendecomposition needs the averaged factors, so it waits for
        // the factor allreduce; its allgather then rides the comm lane.
        let mut eig_done = vec![0u64; world];
        if eig_iter {
            let mut ready = vec![0u64; world];
            for (rank, rc) in comp.iter_mut().enumerate() {
                if factor_iter {
                    rc.now_us = rc.now_us.max(factor_done[rank]);
                }
                rc.emit(
                    "sim/eig_comp",
                    rank,
                    1,
                    us(eig_workers[rank]),
                    vec![("factors", 0u64.into())],
                );
                ready[rank] = rc.now_us;
            }
            sync_comm(
                &mut comm,
                &ready,
                "sim/eig_comm",
                us(eig_comm_s),
                model.profile.eig_bytes(),
                "eigen",
                None,
            );
            for (rank, cc) in comm.iter().enumerate() {
                eig_done[rank] = cc.now_us;
            }
        }

        // Preconditioning needs the gradients (and fresh eigenbases on
        // eig iterations) but NOT the factor allreduce, which may still
        // be in flight on factor-only iterations.
        for (rank, rc) in comp.iter_mut().enumerate() {
            rc.now_us = rc.now_us.max(grad_done[rank]).max(eig_done[rank]);
            rc.emit("sim/precond", rank, 1, us(times.precond), Vec::new());
            rc.emit("sim/opt_step", rank, 1, us(times.framework), Vec::new());
        }

        for (rank, rc) in comp.iter_mut().enumerate() {
            let start = iter_starts[rank];
            let seq = rc.seq;
            rc.events.push(SpanEvent {
                name: "sim/iteration",
                rank,
                lane: rc.lane,
                depth: 0,
                seq,
                start_us: start,
                dur_us: rc.now_us.saturating_sub(start),
                attrs: vec![
                    ("iter", (iter as u64).into()),
                    ("factor_update", u64::from(factor_iter).into()),
                    ("eig_update", u64::from(eig_iter).into()),
                ],
            });
            rc.seq += 1;
        }
    }

    let wall_us = comp
        .iter()
        .chain(comm.iter())
        .map(|r| r.now_us)
        .max()
        .unwrap_or(0);
    for rc in comp.into_iter().chain(comm) {
        for ev in rc.events {
            registry.record_raw(ev);
        }
    }
    wall_us as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hardware::ClusterSpec;
    use crate::profile::ModelProfile;
    use kfac_nn::arch::resnet50;

    fn model_at(gpus: usize) -> IterationModel {
        IterationModel::new(
            ModelProfile::from_arch(&resnet50()),
            ClusterSpec::frontera(gpus),
            32,
        )
    }

    #[test]
    fn trace_covers_every_rank_and_iteration() {
        let registry = Registry::new();
        let model = model_at(8);
        let wall = emit_kfac_opt_trace(&registry, &model, KfacRunConfig::with_freq(4), 6);
        assert!(wall > 0.0);

        let events = registry.events();
        let iters: Vec<_> = events
            .iter()
            .filter(|e| e.name == "sim/iteration")
            .collect();
        assert_eq!(iters.len(), 8 * 6, "one iteration span per rank");
        for rank in 0..8 {
            let n = events.iter().filter(|e| e.rank == rank).count();
            assert!(n > 6, "rank {rank} has a full timeline, got {n} events");
        }
        // Eig fires on iterations 0 and 4 only.
        let eigs = events.iter().filter(|e| e.name == "sim/eig_comp").count();
        assert_eq!(eigs, 8 * 2);
    }

    #[test]
    fn collectives_rendezvous_at_slowest_rank() {
        let registry = Registry::new();
        let model = model_at(8);
        emit_kfac_opt_trace(&registry, &model, KfacRunConfig::with_freq(1), 1);
        let events = registry.events();
        // All ranks' eig_comm spans start at the same microsecond, at or
        // after every rank's eig_comp end (the barrier).
        let comm_starts: Vec<u64> = events
            .iter()
            .filter(|e| e.name == "sim/eig_comm")
            .map(|e| e.start_us)
            .collect();
        assert_eq!(comm_starts.len(), 8);
        assert!(comm_starts.iter().all(|&s| s == comm_starts[0]));
        let max_comp_end = events
            .iter()
            .filter(|e| e.name == "sim/eig_comp")
            .map(|e| e.end_us())
            .max()
            .unwrap();
        assert_eq!(comm_starts[0], max_comp_end);
    }

    #[test]
    fn eig_imbalance_is_visible_in_span_durations() {
        let registry = Registry::new();
        let model = model_at(16);
        emit_kfac_opt_trace(&registry, &model, KfacRunConfig::with_freq(1), 1);
        let durs: Vec<u64> = registry
            .events()
            .iter()
            .filter(|e| e.name == "sim/eig_comp")
            .map(|e| e.dur_us)
            .collect();
        let (min, max) = (durs.iter().min().unwrap(), durs.iter().max().unwrap());
        assert!(max > min, "Table VI imbalance must show up in the trace");
    }

    #[test]
    fn overlap_trace_beats_sequential_wall_time() {
        let model = model_at(8);
        let cfg = KfacRunConfig::with_freq(4);
        let seq_registry = Registry::new();
        let seq_wall = emit_kfac_opt_trace(&seq_registry, &model, cfg, 6);
        let ovl_registry = Registry::new();
        let ovl_wall = emit_kfac_opt_overlap_trace(&ovl_registry, &model, cfg, 6, 4);
        assert!(
            ovl_wall < seq_wall,
            "overlap must hide communication: {ovl_wall} >= {seq_wall}"
        );
    }

    #[test]
    fn overlap_trace_comm_rides_its_own_lane_and_overlaps_backward() {
        let registry = Registry::new();
        let model = model_at(8);
        emit_kfac_opt_overlap_trace(&registry, &model, KfacRunConfig::with_freq(4), 2, 4);
        let events = registry.events();
        let comm: Vec<_> = events
            .iter()
            .filter(|e| e.name == "sim/grad_allreduce")
            .collect();
        assert!(!comm.is_empty());
        assert!(comm.iter().all(|e| e.lane == Some("comm")));
        // At least one gradient allreduce overlaps a later backward chunk
        // of the same rank — the whole point of the bucketed schedule.
        let overlapped = comm.iter().any(|c| {
            events.iter().any(|b| {
                b.name == "sim/backward"
                    && b.rank == c.rank
                    && b.lane.is_none()
                    && b.start_us < c.end_us()
                    && c.start_us < b.end_us()
            })
        });
        assert!(overlapped, "no grad allreduce overlapped backward");
    }

    #[test]
    fn overlap_trace_respects_dependencies() {
        let registry = Registry::new();
        let model = model_at(4);
        emit_kfac_opt_overlap_trace(&registry, &model, KfacRunConfig::with_freq(1), 1, 4);
        let events = registry.events();
        for rank in 0..4 {
            // Every grad bucket's allreduce starts at or after the same
            // bucket's backward chunk ends on that rank.
            for c in events
                .iter()
                .filter(|e| e.name == "sim/grad_allreduce" && e.rank == rank)
            {
                let bucket = c.attr("bucket").cloned();
                let bwd = events
                    .iter()
                    .find(|b| {
                        b.name == "sim/backward"
                            && b.rank == rank
                            && b.attr("bucket").cloned() == bucket
                    })
                    .expect("matching backward chunk");
                assert!(bwd.end_us() <= c.start_us);
            }
            // Preconditioning waits for the last gradient bucket.
            let last_grad = events
                .iter()
                .filter(|e| e.name == "sim/grad_allreduce" && e.rank == rank)
                .map(|e| e.end_us())
                .max()
                .unwrap();
            let precond = events
                .iter()
                .find(|e| e.name == "sim/precond" && e.rank == rank)
                .unwrap();
            assert!(last_grad <= precond.start_us);
        }
    }

    #[test]
    fn children_are_contained_in_iteration_spans() {
        let registry = Registry::new();
        let model = model_at(4);
        emit_kfac_opt_trace(&registry, &model, KfacRunConfig::with_freq(2), 3);
        let events = registry.events();
        for rank in 0..4 {
            let parents: Vec<_> = events
                .iter()
                .filter(|e| e.rank == rank && e.depth == 0)
                .collect();
            for child in events.iter().filter(|e| e.rank == rank && e.depth == 1) {
                assert!(
                    parents
                        .iter()
                        .any(|p| p.start_us <= child.start_us && child.end_us() <= p.end_us()),
                    "child {} at {} not contained in any iteration",
                    child.name,
                    child.start_us
                );
            }
        }
    }
}
