//! The relational pins again, under a second-order state that holds
//! short eigenbases. None of `proc_train`, `overlap_*`, `elastic` or
//! `resilient` runs [`EigenSolver::Randomized`], so without these no
//! `n × r` basis ever crosses the allgather, the bucketed exchange or a
//! checkpoint in a test. Every run here asserts that at least one factor
//! was in fact kept below its dimension. Each pin takes both precision
//! policies: with bf16 wires the gradients, the factors and the short
//! bases all cross rounded, and the relations must hold all the same.
//! And each takes two eigen intervals: 2, and 5 — where four factor
//! iterations of five fold into rank-local averages and exchange nothing
//! (twelve iterations: updates at 0, 5 and 10).

use kfac::{DistStrategy, EigenSolver, Kfac, KfacConfig, PrecisionPolicy, RandEigPolicy};
use kfac_collectives::{CommBackend, Communicator, LocalComm, ThreadComm};
use kfac_data::{batch_of, Dataset};
use kfac_harness::procrun::{cifar_demo_config, cifar_demo_data, cifar_demo_model};
use kfac_harness::trainer::allreduce_gradients_fused;
use kfac_harness::{checkpoint, train, ExecStrategy, TrainConfig, TrainResult};
use kfac_nn::{layer::Mode, CrossEntropyLoss, Layer, Sequential};
use kfac_optim::{Optimizer, Sgd};
use kfac_telemetry::Registry;

/// K-FAC-opt with the randomized solver forced onto every factor of the
/// demo model (whose dimensions all sit below the production `min_dim`),
/// on a policy loose enough that six iterations from a random start
/// already truncate: 90 % of the mass, ranks up to n/2. Retained ranks
/// come out as 18 of 36, 16–36 of 72, 36 of 144 and 4 of 17.
fn truncating_kfac(precision: PrecisionPolicy, update_freq: usize) -> KfacConfig {
    KfacConfig {
        update_freq,
        precision,
        eigen_solver: EigenSolver::Randomized,
        rand_eig: RandEigPolicy {
            min_dim: 1,
            init_rank: 4,
            mass_threshold: 0.9,
            max_rank_frac: 0.5,
            ..RandEigPolicy::default()
        },
        ..KfacConfig::default()
    }
}

fn demo(ranks: usize, (precision, update_freq): Variant) -> TrainConfig {
    let mut cfg = cifar_demo_config(ranks);
    cfg.kfac = Some(truncating_kfac(precision, update_freq));
    cfg
}

/// Wire policy × eigen interval.
type Variant = (PrecisionPolicy, usize);

fn variants() -> [Variant; 4] {
    let (f32, bf16) = (PrecisionPolicy::f32(), PrecisionPolicy::bf16());
    [(f32, 2), (bf16, 2), (f32, 5), (bf16, 5)]
}

/// At least one factor's last eigenbasis has fewer columns than rows,
/// read from the per-layer rank gauges `record_spectrum` sets.
fn assert_some_basis_is_short(telemetry: &Registry) {
    let mut model = cifar_demo_model(0);
    let mut layers = Vec::new();
    model.collect_kfac(&mut layers);
    let short = layers.iter().enumerate().any(|(li, layer)| {
        let (dim_a, dim_g) = layer.factor_dims();
        let rank = |kind| {
            telemetry
                .gauge(&format!("kfac/layer{li}/{kind}_eig_rank"))
                .get()
        };
        rank("a") < dim_a as f64 || rank("g") < dim_g as f64
    });
    assert!(short, "no factor was truncated: the run pinned nothing new");
}

fn assert_same_trajectory(reference: &TrainResult, got: &TrainResult, what: &str) {
    assert_eq!(reference.final_params, got.final_params, "{what}: weights");
    assert_eq!(reference.epochs.len(), got.epochs.len());
    for (r, g) in reference.epochs.iter().zip(&got.epochs) {
        assert_eq!(
            r.train_loss.to_bits(),
            g.train_loss.to_bits(),
            "{what}: loss"
        );
    }
}

#[test]
fn sequential_equals_overlapped_with_short_bases() {
    let (train_ds, val_ds) = cifar_demo_data();
    for strategy in [DistStrategy::Opt, DistStrategy::Lw] {
        for variant in variants() {
            let mut cfg = demo(2, variant);
            cfg.kfac.as_mut().unwrap().strategy = strategy;
            let sequential = train(cifar_demo_model, &train_ds, &val_ds, &cfg);
            assert_some_basis_is_short(&sequential.telemetry);
            let bucketed = cfg.with_exec(ExecStrategy::Overlapped { compute_workers: 1 });
            let overlapped = train(cifar_demo_model, &train_ds, &val_ds, &bucketed);
            assert_same_trajectory(
                &sequential,
                &overlapped,
                &format!("{strategy:?} {variant:?} overlapped"),
            );
        }
    }
}

/// Both fabrics in one process: two ranks over the thread mesh, and two
/// over loopback TCP (`ProcComm`), where each rank's variable-length
/// Eigen payload is framed, sent and decoded for real.
#[test]
fn thread_fabric_equals_tcp_fabric_with_short_bases() {
    let (train_ds, val_ds) = cifar_demo_data();
    for variant in variants() {
        let cfg = demo(2, variant);
        let thread = train(cifar_demo_model, &train_ds, &val_ds, &cfg);
        assert_some_basis_is_short(&thread.telemetry);
        let tcp = cfg.clone().with_backend(CommBackend::Proc);
        let tcp = train(cifar_demo_model, &train_ds, &val_ds, &tcp);
        assert_same_trajectory(&thread, &tcp, &format!("{variant:?} tcp fabric"));
        let overlapped_tcp = cfg
            .with_backend(CommBackend::Proc)
            .with_exec(ExecStrategy::Overlapped { compute_workers: 1 });
        let overlapped_tcp = train(cifar_demo_model, &train_ds, &val_ds, &overlapped_tcp);
        assert_same_trajectory(
            &thread,
            &overlapped_tcp,
            &format!("{variant:?} overlapped over tcp"),
        );
    }
}

/// One rank's training state, stepped by hand so it can be interrupted.
struct Run {
    model: Sequential,
    optimizer: Sgd,
    kfac: Kfac,
}

impl Run {
    fn new(seed: u64, (precision, update_freq): Variant) -> Run {
        let mut model = cifar_demo_model(seed);
        let kfac = Kfac::new(&mut model, truncating_kfac(precision, update_freq));
        Run {
            model,
            optimizer: Sgd::new(0.9, 1e-4),
            kfac,
        }
    }

    /// One Listing-1 iteration on this rank's shard of batch `it`.
    fn iterate(&mut self, data: &dyn Dataset, it: u64, comm: &dyn Communicator) {
        let first = 8 * (it as usize * comm.size() + comm.rank());
        let indices: Vec<usize> = (0..8).map(|i| (first + i) % data.len()).collect();
        let (x, labels) = batch_of(data, &indices, 1);
        self.model.zero_grad();
        self.model.set_capture(self.kfac.needs_capture());
        let out = self.model.forward(&x, Mode::Train);
        let (_, grad) = CrossEntropyLoss::new().forward(&out, &labels);
        let _ = self.model.backward(&grad);
        let wire = self.kfac.precision().grad_wire;
        allreduce_gradients_fused(&mut self.model, comm, None, wire);
        self.kfac.step(&mut self.model, comm, 0.05);
        self.optimizer.step(&mut self.model, 0.05);
    }

    fn params(&mut self) -> Vec<u32> {
        let mut bits = Vec::new();
        self.model.visit_params("", &mut |_, w, _| {
            bits.extend(w.iter().map(|v| v.to_bits()))
        });
        bits
    }
}

/// Two ranks, so that every exchange is a real one and the bf16 policy's
/// wires round what crosses them: each rank runs twelve iterations whole,
/// then seven, a checkpoint, a restore into a differently-seeded run, and
/// the last five. At interval 5 the cut falls between exchanges: each
/// rank saves, and restores, averages that are its own.
#[test]
fn checkpoint_resume_equals_uninterrupted_with_short_bases() {
    let (train_ds, _) = cifar_demo_data();
    for variant in variants() {
        let registry = Registry::new();
        std::thread::scope(|s| {
            for comm in ThreadComm::create(2) {
                let (train_ds, registry) = (&train_ds, &registry);
                s.spawn(move || {
                    let _guard = registry.install(comm.rank());
                    let mut whole = Run::new(3, variant);
                    for it in 0..12 {
                        whole.iterate(train_ds, it, &comm);
                    }

                    let mut first = Run::new(3, variant);
                    for it in 0..7 {
                        first.iterate(train_ds, it, &comm);
                    }
                    assert_eq!(first.kfac.factors_in_sync(), variant.1 == 2);
                    let blob = checkpoint::save(
                        &mut first.model,
                        &first.optimizer,
                        Some(&first.kfac),
                        7,
                        0,
                    );
                    let mut resumed = Run::new(999, variant); // to be overwritten
                    let (it, _) = checkpoint::restore(
                        &blob,
                        &mut resumed.model,
                        &mut resumed.optimizer,
                        Some(&mut resumed.kfac),
                    )
                    .expect("restore");
                    for it in it..12 {
                        resumed.iterate(train_ds, it, &comm);
                    }
                    assert!(
                        whole.params() == resumed.params(),
                        "{variant:?}: resumed run diverged"
                    );
                    assert!(
                        whole.kfac.save_state() == resumed.kfac.save_state(),
                        "{variant:?}: K-FAC state diverged"
                    );
                });
            }
        });
        assert_some_basis_is_short(&registry);
    }
}

#[test]
fn version_1_state_blob_is_refused() {
    let (train_ds, _) = cifar_demo_data();
    let mut run = Run::new(3, (PrecisionPolicy::f32(), 2));
    run.iterate(&train_ds, 0, &LocalComm::new());
    let mut blob = run.kfac.save_state();
    assert_eq!(
        blob[4..12],
        2u64.to_le_bytes(),
        "format version follows the magic"
    );
    run.kfac.restore_state(&blob).expect("own blob restores");
    // Version 1 stored every basis n × n; nothing reads that layout now.
    blob[4..12].copy_from_slice(&1u64.to_le_bytes());
    assert_eq!(
        run.kfac.restore_state(&blob).unwrap_err(),
        "unsupported kfac state version"
    );
}
