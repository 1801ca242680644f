//! Integration: a 4-rank CIFAR smoke run must leave a complete, valid
//! telemetry trail — per-rank per-iteration spans with the expected
//! names, byte-tagged collectives, a parseable Chrome trace, a stage
//! breakdown that accounts for the measured wall time, and one registry
//! whose counters and histograms — what a flight-recorder snapshot
//! holds — aggregate every rank's.

use kfac::KfacConfig;
use kfac_data::synthetic_cifar;
use kfac_harness::trainer::{train, TrainConfig};
use kfac_nn::resnet::resnet_cifar;
use kfac_nn::Sequential;
use kfac_optim::LrSchedule;
use kfac_telemetry::{export, AttrValue, Registry};
use kfac_tensor::Rng64;

fn build(seed: u64) -> Sequential {
    let mut rng = Rng64::new(seed);
    resnet_cifar(1, 4, 10, 3, &mut rng)
}

fn run_4rank_smoke() -> (kfac_harness::trainer::TrainResult, Registry) {
    let (train_ds, val_ds) = synthetic_cifar(8, 256, 64, 17);
    let registry = Registry::new();
    let cfg = TrainConfig {
        telemetry: Some(registry.clone()),
        ..TrainConfig::new(
            4,
            16,
            2,
            LrSchedule {
                warmup_epochs: 1.0,
                ..LrSchedule::paper_steps(0.1, vec![1])
            },
        )
    }
    .with_kfac(KfacConfig {
        update_freq: 4,
        damping: 0.1,
        ..KfacConfig::default()
    });
    let result = train(build, &train_ds, &val_ds, &cfg);
    (result, registry)
}

#[test]
fn four_rank_run_traces_every_stage_on_every_rank() {
    let (result, registry) = run_4rank_smoke();
    let events = registry.events();
    assert!(!events.is_empty(), "training must record spans");

    // 256 samples / (4 ranks × batch 16) = 4 iterations/epoch × 2 epochs.
    let iters_per_rank = 8;
    let expected = [
        "train/iteration",
        "train/forward",
        "train/backward",
        "train/grad_allreduce",
        "train/kfac_step",
        "train/opt_step",
    ];
    for rank in 0..4 {
        for name in expected {
            let n = events
                .iter()
                .filter(|e| e.rank == rank && e.name == name)
                .count();
            assert_eq!(
                n, iters_per_rank,
                "rank {rank} should record {iters_per_rank} `{name}` spans, got {n}"
            );
        }
        // K-FAC stages fired: factor updates every iteration here
        // (update_freq 4 → factor interval 1), eig on iterations 0 and 4.
        assert!(
            events
                .iter()
                .any(|e| e.rank == rank && e.name == "kfac/eig_comp"),
            "rank {rank} missing eigendecomposition spans"
        );
        assert!(
            events
                .iter()
                .any(|e| e.rank == rank && e.name == "kfac/precond"),
            "rank {rank} missing preconditioning spans"
        );
    }

    // Collectives carry non-zero byte tags with a traffic class.
    let allreduces: Vec<_> = events
        .iter()
        .filter(|e| e.name == "comm/allreduce")
        .collect();
    assert!(!allreduces.is_empty());
    for e in &allreduces {
        match e.attr("bytes") {
            Some(&AttrValue::U64(b)) => assert!(b > 0, "allreduce tagged with zero bytes"),
            other => panic!("allreduce missing byte tag: {other:?}"),
        }
        assert!(e.attr("class").is_some(), "allreduce missing traffic class");
    }

    // The preconditioner's stats view agrees with the registry.
    let stats = result.stage_stats.expect("kfac run has stage stats");
    assert_eq!(stats.steps, iters_per_rank as u64);
    let precond_total = registry.span_agg("kfac/precond", Some(0)).total;
    assert_eq!(stats.precond, precond_total);
}

/// The registry's mirrored traffic counters must equal the merge of all
/// per-rank counters — the sum of every rank's own `traffic()` — even
/// when payload sizes differ across ranks.
#[test]
fn registry_merge_equals_group_traffic() {
    let registry = Registry::new();
    let comms = kfac_collectives::ThreadComm::create(4);
    let registry_ref = &registry;
    let group = std::thread::scope(|s| {
        let handles: Vec<_> = comms
            .into_iter()
            .enumerate()
            .map(|(rank, comm)| {
                s.spawn(move || {
                    use kfac_collectives::{Communicator, ReduceOp, TrafficClass};
                    let _guard = registry_ref.install(rank);
                    // Symmetric gradient traffic, asymmetric eigen
                    // payloads (like the round-robin eig allgather).
                    let mut buf = vec![1.0f32; 64];
                    comm.allreduce_tagged(&mut buf, ReduceOp::Average, TrafficClass::Gradient);
                    let payload = vec![rank as f32; 8 * (rank + 1)];
                    let _ = comm.allgather_tagged(&payload, TrafficClass::Eigen);
                    comm
                })
            })
            .collect();
        let mut group = kfac_collectives::Traffic::default();
        for comm in handles.into_iter().map(|h| h.join().unwrap()) {
            use kfac_collectives::Communicator;
            let rank = comm.traffic();
            group.gradient_bytes += rank.gradient_bytes;
            group.eigen_bytes += rank.eigen_bytes;
            group.ops += rank.ops;
        }
        group
    });
    assert!(group.eigen_bytes > 0 && group.gradient_bytes > 0);
    assert_eq!(
        registry.counter("comm/bytes/gradient").get(),
        group.gradient_bytes
    );
    assert_eq!(
        registry.counter("comm/bytes/eigen").get(),
        group.eigen_bytes
    );
    assert_eq!(registry.counter("comm/ops").get(), group.ops);
}

/// The shared registry merges every rank's counters and histograms, so
/// a flight-recorder snapshot of it holds the per-rank sums, and the
/// K-FAC numerics probes land in it.
#[test]
fn registry_aggregates_all_ranks_and_records_probes() {
    let (result, registry) = run_4rank_smoke();

    // Every rank records symmetric collective traffic (same model, same
    // batch shape, same schedule), and each rank mirrors its own ops
    // into the shared registry — so registry totals must equal
    // 4 × rank 0's per-rank traffic snapshot, i.e. the merge of the
    // per-rank counters.
    let counter = |name: &str| registry.counter(name).get();
    let t = result.traffic;
    assert_eq!(counter("comm/bytes/gradient"), 4 * t.gradient_bytes);
    assert_eq!(counter("comm/bytes/factor"), 4 * t.factor_bytes);
    assert_eq!(counter("comm/ops"), 4 * t.ops);
    // Eigen allgather payloads differ per rank (round-robin eig
    // placement), so the group total is not 4 × rank 0's; it must still
    // be positive and is pinned exactly by `registry_merge_equals_group_traffic`.
    assert!(counter("comm/bytes/eigen") > 0);

    // Iteration-time histogram: one sample per iteration per rank.
    let iters_total = 4 * 8;
    let hist = registry.histogram("train/iter_time_us");
    assert_eq!(hist.count(), iters_total);

    // K-FAC numerics probes landed: per-layer spectrum gauges, the
    // damping/clip trajectory, and staleness.
    let gauges = registry.gauges();
    let has = |name: &str| gauges.iter().any(|(n, v)| n == name && v.is_finite());
    for name in [
        "kfac/damping",
        "kfac/kl_nu",
        "kfac/staleness_age",
        "kfac/precond_ratio",
        "kfac/max_cond",
        "kfac/layer0/a_cond",
        "kfac/layer0/g_lambda_max",
    ] {
        assert!(has(name), "missing probe gauge `{name}`");
    }
    assert!(
        registry.histogram("kfac/cond").count() > 0,
        "condition-number histogram empty"
    );
}

#[test]
fn four_rank_trace_exports_and_accounts_for_wall_time() {
    let (_result, registry) = run_4rank_smoke();
    let events = registry.events();

    // Chrome trace: well-formed JSON with all four rank lanes.
    let trace = export::chrome_trace(&events);
    let parsed = kfac_telemetry::json::Json::parse(&trace).expect("valid JSON");
    let trace_events = parsed
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    assert!(trace_events.len() > events.len(), "X events plus metadata");
    for rank in 0..4u32 {
        assert!(
            trace_events.iter().any(|e| {
                e.get("ph").and_then(|p| p.as_str()) == Some("X")
                    && e.get("tid").and_then(|t| t.as_f64()) == Some(f64::from(rank))
            }),
            "rank {rank} has no lane in the Chrome trace"
        );
    }

    // Stage accounting: summed top-level spans (setup + iterations +
    // eval) must explain each rank's measured wall clock to within 5% —
    // only inter-span instruction gaps are untraced.
    let wall = export::wall_time(&events);
    let iter_agg = registry.span_agg("train/iteration", Some(0));
    assert!(iter_agg.total <= wall, "busy time cannot exceed wall time");
    for rank in 0..4 {
        let lane: Vec<_> = events
            .iter()
            .filter(|e| e.rank == rank && e.depth == 0)
            .collect();
        let busy_us: u64 = lane.iter().map(|e| e.dur_us).sum();
        let start = lane.iter().map(|e| e.start_us).min().unwrap();
        let end = lane.iter().map(|e| e.end_us()).max().unwrap();
        let lane_wall_us = end - start;
        assert!(
            busy_us as f64 >= 0.95 * lane_wall_us as f64,
            "rank {rank}: stage spans cover {busy_us} of {lane_wall_us} µs (<95%)"
        );
    }
}
