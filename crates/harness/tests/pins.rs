//! The relational pins as one matrix.
//!
//! The distributed design rests on equivalences: K-FAC-opt and K-FAC-lw
//! compute the same update (on the f32 wire), and the gradient-exchange
//! schedule, the fabric, a checkpoint, the loop that drives an iteration
//! and the rank an eigendecomposition is placed on change when or where
//! work runs, not what it computes. Each is pinned bitwise here as a
//! relation from a subject cell to the oracle cell it must equal, on one
//! witness — loss bits, parameter bits, `Kfac::save_state` bytes wherever
//! the driver holds the `Kfac`, and bytes per traffic class — compared on
//! every rank the driver returns.
//!
//! A cell is one value per axis. [`TABLE`] lists each relation's cells,
//! chosen so that every pair of values of the axes the relation leaves
//! free meets in some cell, with the full product of the axes in
//! [`FULL_PRODUCTS`] where a past bug lived ([`cells_cover_every_pair`]).
//! Shrink-resume stays in `tests/elastic.rs`: its `ElasticSpec` fixes every
//! axis, so it is the one cell (Opt, f32, complete, 2, fused, thread, 4 → 3
//! ranks, ladder, in-sync cut, round-robin).

use kfac::{
    assign_factors, factor_descs, DistStrategy, EigenSolver, Kfac, KfacConfig, PlacementPolicy,
    PrecisionPolicy, RandEigPolicy,
};
use kfac_collectives::{CommBackend, Communicator, LocalComm, ProcComm, ThreadComm, Traffic};
use kfac_data::{batch_of, Dataset, ShardedSampler};
use kfac_harness::procrun::params_bit_hash;
use kfac_harness::trainer::{allreduce_gradients_fused, train_iteration};
use kfac_harness::{
    checkpoint, train, Demo, ExecStrategy, FaultTolerance, ResilientTrainer, StepOutcome,
    TrainConfig,
};
use kfac_nn::{layer::Mode, CrossEntropyLoss, Layer, Sequential};
use kfac_optim::Optimizer;
use kfac_telemetry::Registry;
use std::collections::{HashMap, HashSet};
use std::sync::{Mutex, OnceLock};

/// An axis: its values, and `ALL` of them in index order.
macro_rules! axis {
    ($name:ident: $($value:ident),+) => {
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        enum $name {
            $($value),+
        }
        impl $name {
            const ALL: &[$name] = &[$($name::$value),+];
        }
    };
}

axis!(Precond: Sgd, Opt, Lw);
axis!(Wire: F32, Bf16);
// Complete eigenbases, or short ones from the randomized solver.
axis!(Bases: Complete, Short);
axis!(Sched: Fused, Bucketed);
axis!(Fab: Thread, Tcp);
// `train()`; `train_iteration` stepped by hand; `ResilientTrainer::step`
// on a clean fabric; `allreduce_gradients_fused → Kfac::step → opt.step`.
// The three hand-driven ones draw each batch, its learning rate and the
// epoch as `train()` does.
axis!(Drv: Train, ByHand, Ladder, Listing1);
// Where a hand-driven run stops, checkpoints and restores into a
// differently seeded replica: nowhere, right after a factor exchange, or
// between two exchanges (each rank then saves averages of its own).
axis!(Cut: Uncut, InSync, Between);
// Which rank decomposes each factor: `PlacementPolicy::{RoundRobin,
// SizeBalanced}`.
axis!(Place: RoundRobin, SizeBalanced);
// A subject cell and the oracle cell it must equal: fused == bucketed,
// thread == loopback TCP, resumed == uninterrupted, `train()`, ladder and
// by hand == Listing-1 loop, one cell run twice, and every K-FAC plan —
// size-balanced -opt, -lw — == round-robin -opt.
axis!(Rel: Schedule, Fabric, Resume, Driver, Determinism, Plan);

use Bases::*;
use Cut::*;
use Drv::*;
use Fab::*;
use Place::*;
use Precond::*;
use Rel::*;
use Sched::*;
use Wire::*;

/// Preconditioner, wire, bases, eigen interval, schedule, fabric, world,
/// driver, cut, placement.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct Cell(
    Precond,
    Wire,
    Bases,
    usize,
    Sched,
    Fab,
    usize,
    Drv,
    Cut,
    Place,
);

const AXES: [&str; 10] = [
    "precond", "wire", "bases", "every", "sched", "fabric", "world", "driver", "cut", "place",
];
const PRECOND: usize = 0;
const WIRE: usize = 1;
const BASES: usize = 2;
const EVERY: usize = 3;
const DRIVER: usize = 7;
const CUT: usize = 8;

impl Cell {
    /// SGD has no second-order state to vary, only `train_iteration`
    /// takes the bucketed schedule by hand, `train()` cannot stop, and the
    /// ladder checkpoints only in sync.
    fn valid(self) -> bool {
        let Cell(p, w, b, every, s, _, _, d, cut, place) = self;
        (p != Sgd || (w, b, every, place) == (F32, Complete, 2, RoundRobin))
            && (s == Fused || matches!(d, Train | ByHand))
            && (d != Train || cut == Uncut)
            && (cut != Between || (p != Sgd && d != Ladder))
    }

    /// The first iteration from 2 on that does, or does not, follow an
    /// exchange: at interval 2, 3 and 2; at interval 5, 6 and 2.
    fn cut_at(self) -> Option<u64> {
        let in_sync = |k: &u64| (k - 1).is_multiple_of(self.3 as u64);
        match self.8 {
            Uncut => None,
            InSync => (2..).find(in_sync),
            Between => (2..).find(|k| !in_sync(k)),
        }
    }

    fn kfac(self) -> Option<KfacConfig> {
        let Cell(p, w, b, every, ..) = self;
        let strategy = [None, Some(DistStrategy::Opt), Some(DistStrategy::Lw)][p as usize]?;
        let precision = [PrecisionPolicy::f32(), PrecisionPolicy::bf16()][w as usize];
        let placement = [PlacementPolicy::RoundRobin, PlacementPolicy::SizeBalanced];
        let mut cfg = KfacConfig {
            update_freq: every,
            strategy,
            precision,
            placement: placement[self.9 as usize],
            ..KfacConfig::default()
        };
        if b == Short {
            // The randomized solver on every factor of the demo model
            // (all below the production `min_dim`), loose enough that a
            // few iterations from a random start truncate: 90 % of the
            // mass, ranks up to n/2.
            cfg.eigen_solver = EigenSolver::Randomized;
            cfg.rand_eig = RandEigPolicy {
                min_dim: 1,
                init_rank: 4,
                mass_threshold: 0.9,
                max_rank_frac: 0.5,
                ..RandEigPolicy::default()
            };
        }
        Some(cfg)
    }

    fn exec(self) -> ExecStrategy {
        let bucketed = ExecStrategy::Overlapped { compute_workers: 1 };
        [ExecStrategy::Sequential, bucketed][self.4 as usize]
    }

    /// Each axis's value as an index, in [`AXES`] order.
    fn coords(self) -> [usize; 10] {
        let Cell(p, w, b, every, s, f, world, d, cut, place) = self;
        let (every, world) = ((every == 5) as usize, (world == 4) as usize);
        let [p, w, b, s, f, d, cut] = [p as _, w as _, b as _, s as _, f as _, d as _, cut as _];
        [p, w, b, every, s, f, world, d, cut, place as _]
    }
}

impl Rel {
    /// Placement is read by `Kfac::new` alone, which every driver calls
    /// with the cell's `KfacConfig`: a size-balanced -opt plan runs by
    /// hand, where the witness holds every rank and the K-FAC state, and
    /// the other relations at the default placement. -lw is held to -opt
    /// on the f32 wire, where neither plan's messages round.
    fn admits(self, c: Cell) -> bool {
        let Cell(p, w, .., s, f, _, d, cut, place) = c;
        c.valid()
            && (place == SizeBalanced) == (self == Plan && p == Opt && d == ByHand)
            && match self {
                Schedule => s == Bucketed && cut == Uncut,
                Fabric => f == Tcp && cut == Uncut,
                Resume => cut != Uncut,
                Driver => d != Listing1 && s == Fused && cut == Uncut,
                Determinism => cut == Uncut,
                Plan => cut == Uncut && (place == SizeBalanced || (p == Lw && w == F32)),
            }
    }

    fn oracle(self, mut c: Cell) -> Cell {
        match self {
            Schedule => c.4 = Fused,
            Fabric => c.5 = Thread,
            Resume => c.8 = Uncut,
            Driver => c.7 = Listing1,
            Determinism => {}
            Plan => (c.0, c.9) = (Opt, RoundRobin),
        }
        c
    }
}

/// Every relation's subject cells.
#[rustfmt::skip]
const TABLE: &[(Rel, Cell)] = &[
    // relation        precond wire  bases     every sched     fabric  world driver    cut      place
    (Schedule,    Cell(Sgd,    F32,  Complete, 2,    Bucketed, Tcp,    2,    Train,    Uncut,   RoundRobin)),
    (Schedule,    Cell(Opt,    Bf16, Complete, 5,    Bucketed, Thread, 4,    Train,    Uncut,   RoundRobin)),
    (Schedule,    Cell(Lw,     F32,  Short,    5,    Bucketed, Tcp,    4,    Train,    Uncut,   RoundRobin)),
    (Schedule,    Cell(Sgd,    F32,  Complete, 2,    Bucketed, Thread, 4,    ByHand,   Uncut,   RoundRobin)),
    (Schedule,    Cell(Opt,    Bf16, Complete, 2,    Bucketed, Thread, 2,    ByHand,   Uncut,   RoundRobin)),
    (Schedule,    Cell(Opt,    F32,  Complete, 5,    Bucketed, Tcp,    2,    ByHand,   Uncut,   RoundRobin)),
    (Schedule,    Cell(Opt,    F32,  Short,    2,    Bucketed, Thread, 2,    ByHand,   Uncut,   RoundRobin)),
    (Schedule,    Cell(Lw,     Bf16, Complete, 2,    Bucketed, Thread, 2,    ByHand,   Uncut,   RoundRobin)),
    (Schedule,    Cell(Lw,     Bf16, Short,    5,    Bucketed, Tcp,    2,    ByHand,   Uncut,   RoundRobin)),
    (Schedule,    Cell(Lw,     F32,  Complete, 2,    Bucketed, Thread, 2,    ByHand,   Uncut,   RoundRobin)),

    (Fabric,      Cell(Sgd,    F32,  Complete, 2,    Bucketed, Tcp,    2,    Train,    Uncut,   RoundRobin)),
    (Fabric,      Cell(Sgd,    F32,  Complete, 2,    Bucketed, Tcp,    4,    Train,    Uncut,   RoundRobin)),
    (Fabric,      Cell(Opt,    Bf16, Complete, 5,    Fused,    Tcp,    4,    Train,    Uncut,   RoundRobin)),
    (Fabric,      Cell(Lw,     F32,  Short,    5,    Fused,    Tcp,    4,    Train,    Uncut,   RoundRobin)),
    (Fabric,      Cell(Sgd,    F32,  Complete, 2,    Fused,    Tcp,    4,    ByHand,   Uncut,   RoundRobin)),
    (Fabric,      Cell(Opt,    F32,  Short,    2,    Bucketed, Tcp,    2,    ByHand,   Uncut,   RoundRobin)),
    (Fabric,      Cell(Lw,     Bf16, Short,    5,    Bucketed, Tcp,    2,    ByHand,   Uncut,   RoundRobin)),
    (Fabric,      Cell(Sgd,    F32,  Complete, 2,    Fused,    Tcp,    4,    Ladder,   Uncut,   RoundRobin)),
    (Fabric,      Cell(Opt,    Bf16, Short,    2,    Fused,    Tcp,    2,    Ladder,   Uncut,   RoundRobin)),
    (Fabric,      Cell(Lw,     F32,  Complete, 5,    Fused,    Tcp,    2,    Ladder,   Uncut,   RoundRobin)),
    (Fabric,      Cell(Sgd,    F32,  Complete, 2,    Fused,    Tcp,    4,    Listing1, Uncut,   RoundRobin)),
    (Fabric,      Cell(Opt,    Bf16, Short,    5,    Fused,    Tcp,    2,    Listing1, Uncut,   RoundRobin)),
    (Fabric,      Cell(Lw,     Bf16, Complete, 2,    Fused,    Tcp,    2,    Listing1, Uncut,   RoundRobin)),

    (Resume,      Cell(Sgd,    F32,  Complete, 2,    Bucketed, Tcp,    2,    ByHand,   InSync,  RoundRobin)),
    (Resume,      Cell(Sgd,    F32,  Complete, 2,    Bucketed, Thread, 4,    ByHand,   InSync,  RoundRobin)),
    (Resume,      Cell(Sgd,    F32,  Complete, 2,    Fused,    Tcp,    4,    ByHand,   InSync,  RoundRobin)),
    (Resume,      Cell(Opt,    F32,  Short,    2,    Bucketed, Thread, 2,    ByHand,   Between, RoundRobin)),
    (Resume,      Cell(Lw,     Bf16, Short,    5,    Bucketed, Thread, 2,    ByHand,   Between, RoundRobin)),
    (Resume,      Cell(Lw,     F32,  Complete, 5,    Fused,    Thread, 2,    ByHand,   InSync,  RoundRobin)),
    (Resume,      Cell(Sgd,    F32,  Complete, 2,    Fused,    Thread, 4,    Ladder,   InSync,  RoundRobin)),
    (Resume,      Cell(Opt,    Bf16, Short,    5,    Fused,    Tcp,    2,    Ladder,   InSync,  RoundRobin)),
    (Resume,      Cell(Lw,     F32,  Complete, 5,    Fused,    Thread, 2,    Ladder,   InSync,  RoundRobin)),
    (Resume,      Cell(Sgd,    F32,  Complete, 2,    Fused,    Thread, 2,    Listing1, InSync,  RoundRobin)),
    (Resume,      Cell(Opt,    F32,  Complete, 5,    Fused,    Thread, 4,    Listing1, Between, RoundRobin)),
    (Resume,      Cell(Lw,     Bf16, Complete, 2,    Fused,    Tcp,    2,    Listing1, Between, RoundRobin)),
    (Resume,      Cell(Lw,     Bf16, Short,    5,    Fused,    Thread, 4,    Listing1, InSync,  RoundRobin)),

    (Driver,      Cell(Sgd,    F32,  Complete, 2,    Fused,    Thread, 2,    ByHand,   Uncut,   RoundRobin)),
    (Driver,      Cell(Sgd,    F32,  Complete, 2,    Fused,    Thread, 4,    ByHand,   Uncut,   RoundRobin)),
    (Driver,      Cell(Opt,    Bf16, Short,    5,    Fused,    Thread, 2,    ByHand,   Uncut,   RoundRobin)),
    (Driver,      Cell(Opt,    F32,  Short,    2,    Fused,    Thread, 2,    ByHand,   Uncut,   RoundRobin)),
    (Driver,      Cell(Lw,     Bf16, Complete, 2,    Fused,    Thread, 2,    ByHand,   Uncut,   RoundRobin)),
    (Driver,      Cell(Lw,     Bf16, Short,    5,    Fused,    Tcp,    2,    ByHand,   Uncut,   RoundRobin)),
    (Driver,      Cell(Lw,     F32,  Complete, 5,    Fused,    Thread, 2,    ByHand,   Uncut,   RoundRobin)),
    (Driver,      Cell(Sgd,    F32,  Complete, 2,    Fused,    Tcp,    4,    Ladder,   Uncut,   RoundRobin)),
    (Driver,      Cell(Opt,    Bf16, Short,    5,    Fused,    Tcp,    2,    Ladder,   Uncut,   RoundRobin)),
    (Driver,      Cell(Opt,    F32,  Complete, 5,    Fused,    Thread, 4,    Ladder,   Uncut,   RoundRobin)),
    (Driver,      Cell(Lw,     Bf16, Short,    5,    Fused,    Thread, 4,    Ladder,   Uncut,   RoundRobin)),
    (Driver,      Cell(Lw,     F32,  Complete, 5,    Fused,    Thread, 2,    Ladder,   Uncut,   RoundRobin)),
    (Driver,      Cell(Sgd,    F32,  Complete, 2,    Fused,    Tcp,    4,    Train,    Uncut,   RoundRobin)),
    (Driver,      Cell(Opt,    Bf16, Complete, 2,    Fused,    Thread, 4,    Train,    Uncut,   RoundRobin)),
    (Driver,      Cell(Opt,    F32,  Short,    5,    Fused,    Tcp,    2,    Train,    Uncut,   RoundRobin)),
    (Driver,      Cell(Lw,     Bf16, Short,    5,    Fused,    Thread, 2,    Train,    Uncut,   RoundRobin)),
    (Driver,      Cell(Lw,     F32,  Complete, 5,    Fused,    Tcp,    4,    Train,    Uncut,   RoundRobin)),

    (Determinism, Cell(Sgd,    F32,  Complete, 2,    Bucketed, Tcp,    2,    Train,    Uncut,   RoundRobin)),
    (Determinism, Cell(Opt,    Bf16, Complete, 5,    Bucketed, Thread, 4,    Train,    Uncut,   RoundRobin)),
    (Determinism, Cell(Lw,     F32,  Short,    5,    Fused,    Thread, 4,    Train,    Uncut,   RoundRobin)),
    (Determinism, Cell(Sgd,    F32,  Complete, 2,    Fused,    Thread, 4,    ByHand,   Uncut,   RoundRobin)),
    (Determinism, Cell(Opt,    F32,  Short,    2,    Fused,    Thread, 2,    ByHand,   Uncut,   RoundRobin)),
    (Determinism, Cell(Lw,     Bf16, Short,    5,    Bucketed, Tcp,    2,    ByHand,   Uncut,   RoundRobin)),
    (Determinism, Cell(Sgd,    F32,  Complete, 2,    Fused,    Thread, 4,    Ladder,   Uncut,   RoundRobin)),
    (Determinism, Cell(Opt,    Bf16, Short,    5,    Fused,    Tcp,    2,    Ladder,   Uncut,   RoundRobin)),
    (Determinism, Cell(Lw,     F32,  Complete, 5,    Fused,    Thread, 2,    Ladder,   Uncut,   RoundRobin)),
    (Determinism, Cell(Sgd,    F32,  Complete, 2,    Fused,    Tcp,    4,    Listing1, Uncut,   RoundRobin)),
    (Determinism, Cell(Opt,    Bf16, Short,    5,    Fused,    Thread, 2,    Listing1, Uncut,   RoundRobin)),
    (Determinism, Cell(Lw,     Bf16, Complete, 2,    Fused,    Thread, 2,    Listing1, Uncut,   RoundRobin)),

    (Plan,        Cell(Opt,    F32,  Complete, 2,    Fused,    Thread, 2,    ByHand,   Uncut,   SizeBalanced)),
    (Plan,        Cell(Opt,    Bf16, Short,    5,    Bucketed, Tcp,    4,    ByHand,   Uncut,   SizeBalanced)),
    (Plan,        Cell(Opt,    Bf16, Short,    5,    Fused,    Thread, 2,    ByHand,   Uncut,   SizeBalanced)),
    (Plan,        Cell(Opt,    Bf16, Complete, 2,    Bucketed, Tcp,    2,    ByHand,   Uncut,   SizeBalanced)),
    (Plan,        Cell(Opt,    F32,  Short,    2,    Bucketed, Thread, 4,    ByHand,   Uncut,   SizeBalanced)),
    (Plan,        Cell(Opt,    F32,  Complete, 5,    Fused,    Tcp,    4,    ByHand,   Uncut,   SizeBalanced)),
    (Plan,        Cell(Lw,     F32,  Complete, 2,    Fused,    Thread, 2,    Train,    Uncut,   RoundRobin)),
    (Plan,        Cell(Lw,     F32,  Short,    5,    Bucketed, Tcp,    4,    Train,    Uncut,   RoundRobin)),
    (Plan,        Cell(Lw,     F32,  Complete, 2,    Bucketed, Thread, 2,    ByHand,   Uncut,   RoundRobin)),
    (Plan,        Cell(Lw,     F32,  Short,    5,    Fused,    Tcp,    4,    ByHand,   Uncut,   RoundRobin)),
    (Plan,        Cell(Lw,     F32,  Complete, 2,    Fused,    Tcp,    4,    Ladder,   Uncut,   RoundRobin)),
    (Plan,        Cell(Lw,     F32,  Short,    5,    Fused,    Thread, 2,    Ladder,   Uncut,   RoundRobin)),
    (Plan,        Cell(Lw,     F32,  Complete, 5,    Fused,    Thread, 4,    Listing1, Uncut,   RoundRobin)),
    (Plan,        Cell(Lw,     F32,  Short,    2,    Fused,    Tcp,    2,    Listing1, Uncut,   RoundRobin)),
];

/// Axis sets a relation covers in full, not pairwise, because a past bug
/// lived in their product.
const FULL_PRODUCTS: &[(Rel, [usize; 3])] = &[
    // The bucketed schedule spelt the K-FAC step out again, without the
    // health gate, until it ran `train_iteration`'s for -opt and -lw alike
    // (0e1d203).
    (Schedule, [PRECOND, WIRE, EVERY]),
    // Variable-length Eigen frames of short bases on a real socket
    // (7743bf1).
    (Fabric, [BASES, WIRE, EVERY]),
    // A checkpoint after a dropped exchange held rank-local averages
    // (c93f323).
    (Resume, [DRIVER, EVERY, CUT]),
    // A private copy of the iteration in the ladder ignored reduced wires
    // (8ddef30).
    (Driver, [DRIVER, WIRE, PRECOND]),
];

/// What a run ends with on one rank: loss bits per iteration (for
/// `train()`, per epoch, each followed by the epoch's validation accuracy
/// bits); parameters; `Kfac::save_state()` where the driver holds the
/// `Kfac`; and gradient, factor, eigen and precond bytes. Not `ops`: the
/// bucketed schedule issues one gradient allreduce per bucket by design.
struct Witness(Vec<u64>, Vec<f32>, Option<Vec<u8>>, [u64; 4]);

fn bytes(t: Traffic) -> [u64; 4] {
    [
        t.gradient_bytes,
        t.factor_bytes,
        t.eigen_bytes,
        t.precond_bytes,
    ]
}

/// The run every cell trains: the demo configuration at the cell's world,
/// schedule and preconditioner, for three epochs — at 4 ranks, 9
/// iterations, so that the cut after the exchange at 5 leaves some to run.
fn config(cell: Cell) -> TrainConfig {
    let Cell(.., f, world, _, _, _) = cell;
    let mut cfg = Demo::config(world).with_exec(cell.exec());
    cfg.epochs = 3;
    cfg.kfac = cell.kfac();
    cfg.backend = [CommBackend::Thread, CommBackend::Proc][f as usize];
    cfg
}

/// One rank's model, optimizer, preconditioner and ladder, stepped by
/// hand so that a run can be cut.
struct Replica(Sequential, kfac_optim::Sgd, Option<Kfac>, ResilientTrainer);

impl Replica {
    fn new(cell: Cell, seed: u64) -> Replica {
        let cfg = config(cell);
        let mut model = Demo::model(seed);
        let kfac = cfg.kfac.map(|k| Kfac::new(&mut model, k));
        let ft = FaultTolerance {
            checkpoint_every: cell.cut_at().unwrap_or(0) as usize,
            ..FaultTolerance::default()
        };
        let optimizer = kfac_optim::Sgd::new(cfg.momentum, cfg.weight_decay);
        Replica(model, optimizer, kfac, ResilientTrainer::new(ft))
    }

    /// Iteration `it` on this rank's shard, as the cell's driver runs it.
    /// The batch, its variant, the learning rate and the epoch are drawn
    /// the way `train()` draws them.
    fn step(&mut self, cell: Cell, data: &dyn Dataset, it: u64, comm: &dyn Communicator) -> u64 {
        let cfg = config(cell);
        let (world, rank) = (comm.size(), comm.rank());
        let sampler =
            ShardedSampler::new(data.len(), world, rank, cfg.local_batch, cfg.seed ^ 0x5a5a);
        let per_epoch = sampler.batches_per_epoch();
        let (epoch, bi) = (it as usize / per_epoch, it as usize % per_epoch);
        let indices = &sampler.epoch_batches(epoch)[bi];
        let (x, labels) = batch_of(data, indices, epoch as u64 + 1);
        let lr = cfg.lr.lr_at(epoch as f32 + bi as f32 / per_epoch as f32);
        let criterion = CrossEntropyLoss::with_smoothing(cfg.label_smoothing);
        let Replica(model, optimizer, kfac, ladder) = self;
        if let (Some(k), 0) = (kfac.as_mut(), bi) {
            k.set_epoch(epoch);
        }
        let loss = match cell.7 {
            Train => unreachable!("train() is not stepped by hand"),
            ByHand => {
                let (loss, outcome, faults) = train_iteration(
                    model,
                    kfac,
                    optimizer,
                    comm,
                    &x,
                    &labels,
                    &criterion,
                    lr,
                    cell.exec().exec_mode(),
                    &FaultTolerance::default(),
                );
                assert_eq!((outcome, faults), (StepOutcome::Stepped, 0));
                loss
            }
            Ladder => {
                let (loss, outcome) = ladder.step(
                    cell.exec().exec_mode(),
                    model,
                    kfac,
                    optimizer,
                    comm,
                    &x,
                    &labels,
                    &criterion,
                    lr,
                    epoch,
                );
                assert_eq!(outcome, StepOutcome::Stepped);
                assert_eq!((ladder.skipped_steps, ladder.comm_faults), (0, 0));
                loss
            }
            Listing1 => {
                model.zero_grad();
                model.set_capture(kfac.as_ref().is_some_and(Kfac::needs_capture));
                let out = model.forward(&x, Mode::Train);
                let (loss, grad) = criterion.forward(&out, &labels);
                let _ = model.backward(&grad);
                let wire = kfac.as_ref().map(Kfac::precision).unwrap_or_default();
                allreduce_gradients_fused(model, comm, None, wire.grad_wire);
                if let Some(k) = kfac {
                    k.step(model, comm, lr);
                }
                optimizer.step(model, lr);
                loss
            }
        };
        loss.to_bits().into()
    }
}

/// One rank of a hand-driven run: every iteration of `train()`'s epochs,
/// or up to the cut, a checkpoint, a restore into a replica seeded
/// otherwise, and the rest.
fn run_rank(cell: Cell, data: &dyn Dataset, comm: &dyn Communicator) -> Witness {
    let cfg = config(cell);
    let iters = (cfg.epochs * (data.len() / comm.size() / cfg.local_batch)) as u64;
    let mut replica = Replica::new(cell, cfg.seed);
    let cut = cell.cut_at();
    let mut losses = Vec::new();
    for it in 0..cut.unwrap_or(iters) {
        losses.push(replica.step(cell, data, it, comm));
    }
    if let Some(cut) = cut {
        assert!(cut < iters, "{cell:?}: nothing runs after the cut at {cut}");
        let Replica(model, optimizer, kfac, ladder) = &mut replica;
        if let Some(k) = kfac {
            assert_eq!(k.factors_in_sync(), cell.8 == InSync, "{cell:?} at {cut}");
        }
        let blob = match cell.7 {
            Ladder => ladder.latest_checkpoint().expect("taken in sync").to_vec(),
            _ => checkpoint::save(model, optimizer, kfac.as_ref(), cut, 0),
        };
        replica = Replica::new(cell, 999);
        let Replica(model, optimizer, kfac, _) = &mut replica;
        let (it, _) = checkpoint::restore(&blob, model, optimizer, kfac.as_mut()).expect("restore");
        assert_eq!(it, cut, "{cell:?}");
        for it in cut..iters {
            losses.push(replica.step(cell, data, it, comm));
        }
    }
    let Replica(mut model, _, kfac, _) = replica;
    let mut params = Vec::new();
    model.visit_params("", &mut |_, w, _| params.extend_from_slice(w));
    let state = kfac.map(|k| k.save_state());
    Witness(losses, params, state, bytes(comm.traffic()))
}

fn run_group<C: Communicator + Sync>(cell: Cell, comms: &[C], registry: &Registry) -> Vec<Witness> {
    let (train_ds, _) = Demo::data();
    std::thread::scope(|s| {
        let ranks: Vec<_> = comms
            .iter()
            .map(|comm| {
                let train_ds = &train_ds;
                s.spawn(move || {
                    let _guard = registry.install(comm.rank());
                    run_rank(cell, train_ds, comm)
                })
            })
            .collect();
        ranks.into_iter().map(|r| r.join().unwrap()).collect()
    })
}

/// The driver: run `cell` and return the witness of every rank it sees,
/// after asserting the cell's own preconditions — a short-bases cell
/// truncates some factor, a size-balanced cell places some factor on
/// another rank than round-robin does, and only a -lw cell moves precond
/// bytes.
fn run(cell: Cell) -> Vec<Witness> {
    let Cell(p, _, b, _, _, f, world, d, _, place) = cell;
    let registry = Registry::new();
    let ends = match (d, f) {
        (Train, _) => {
            let (train_ds, val_ds) = Demo::data();
            let mut cfg = config(cell);
            cfg.telemetry = Some(registry.clone());
            let r = train(Demo::model, &train_ds, &val_ds, &cfg);
            let epochs = r.epochs.iter();
            let losses = epochs.flat_map(|e| [e.train_loss.to_bits(), e.val_acc.to_bits()]);
            let losses = losses.collect();
            vec![Witness(losses, r.final_params, None, bytes(r.traffic))]
        }
        (_, Thread) => run_group(cell, &ThreadComm::create(world), &registry),
        (_, Tcp) => run_group(cell, &ProcComm::create_local(world), &registry),
    };
    let mut model = Demo::model(0);
    let mut layers = Vec::new();
    model.collect_kfac(&mut layers);
    if place == SizeBalanced {
        let dims: Vec<_> = layers.iter().map(|layer| layer.factor_dims()).collect();
        let owners = |policy| assign_factors(policy, &factor_descs(&dims), world);
        let moved = owners(PlacementPolicy::SizeBalanced) != owners(PlacementPolicy::RoundRobin);
        assert!(moved, "{cell:?}: placement moves no factor");
    }
    if b == Short {
        let short = layers.iter().enumerate().any(|(li, layer)| {
            let (dim_a, dim_g) = layer.factor_dims();
            let rank = |kind| {
                registry
                    .gauge(&format!("kfac/layer{li}/{kind}_eig_rank"))
                    .get()
            };
            rank("a") < dim_a as f64 || rank("g") < dim_g as f64
        });
        assert!(short, "{cell:?}: no factor was truncated");
    }
    for end in &ends {
        assert_eq!(end.3[3] > 0, p == Lw, "{cell:?}: precond bytes");
    }
    ends
}

/// `run(cell)`, once per cell per process: an oracle several relations
/// share runs once.
fn witness(cell: Cell) -> &'static [Witness] {
    type Runs = Mutex<HashMap<Cell, &'static OnceLock<Vec<Witness>>>>;
    static RUNS: OnceLock<Runs> = OnceLock::new();
    let slot = {
        let mut runs = RUNS.get_or_init(Default::default).lock().unwrap();
        *runs
            .entry(cell)
            .or_insert_with(|| Box::leak(Box::default()))
    };
    slot.get_or_init(|| run(cell))
}

fn check(rel: Rel) {
    for &(_, cell) in TABLE.iter().filter(|(r, _)| *r == rel) {
        let oracle = witness(rel.oracle(cell));
        let again;
        let subject = match rel {
            Determinism => {
                again = run(cell);
                &again[..]
            }
            _ => witness(cell),
        };
        // `train()` returns rank 0's witness alone, with per-epoch losses
        // and no K-FAC state: against a hand-driven oracle, only its
        // parameters and bytes per class compare.
        let by_hand = rel.oracle(cell).7 != Train;
        let train_vs_hand = cell.7 == Train && by_hand;
        assert!(
            oracle.len() == subject.len() || train_vs_hand,
            "{rel:?} {cell:?}"
        );
        // -lw keeps bases with their owners and sends preconditioned gradients.
        let lw = rel == Plan && cell.0 == Lw;
        if rel == Plan && !lw {
            // Each rank sends the bases it decomposed, so placement moves
            // eigen bytes between ranks; the group sends the same total.
            let eigen = |w: &[Witness]| w.iter().map(|w| w.3[2]).sum::<u64>();
            assert_eq!(eigen(oracle), eigen(subject), "{cell:?}: eigen bytes");
        }
        for (rank, (o, s)) in oracle.iter().zip(subject).enumerate() {
            let at = format!("{rel:?} {cell:?} rank {rank}");
            let first = o.0.iter().zip(&s.0).position(|(a, b)| a != b);
            assert!(
                o.0 == s.0 || train_vs_hand,
                "{at}: losses differ from {first:?}"
            );
            let bits = |p: &[f32]| p.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let (want, got) = (params_bit_hash(&o.1), params_bit_hash(&s.1));
            assert!(
                bits(&o.1) == bits(&s.1),
                "{at}: parameters {want:016x} != {got:016x}"
            );
            let state = train_vs_hand || lw;
            assert!(o.2 == s.2 || state, "{at}: K-FAC state differs");
            let (mut want, mut got) = (o.3, s.3);
            if rel == Schedule && cell.1 == Bf16 {
                // A bf16 message carries a length word and pads to whole
                // words: the bucketed schedule's extra gradient messages
                // frame the same payload in more bytes.
                assert!(got[0] > want[0], "{at}: gradient bytes {got:?} {want:?}");
                (want[0], got[0]) = (0, 0);
            }
            if rel == Plan {
                (want[2], got[2]) = (0, 0);
            }
            if lw {
                (want[3], got[3]) = (0, 0);
            }
            assert_eq!(want, got, "{at}: bytes per class");
        }
    }
}

/// One `#[test]` per relation, so that the harness runs them side by side.
macro_rules! relation_tests {
    ($($name:ident: $rel:ident),+ $(,)?) => {
        $(
            #[test]
            fn $name() {
                check($rel);
            }
        )+
    };
}

relation_tests! {
    fused_equals_bucketed: Schedule,
    thread_equals_tcp: Fabric,
    resumed_equals_uninterrupted: Resume,
    ladder_and_by_hand_equal_listing1: Driver,
    a_cell_run_twice_is_the_same_run: Determinism,
    every_plan_equals_round_robin_opt: Plan,
}

/// Version 1 stored every basis n × n and version 2 every average; the
/// state is version 3 (packed averages) and nothing reads the older
/// layouts.
#[test]
fn older_state_versions_are_refused() {
    let cell = Cell(
        Opt, F32, Short, 2, Fused, Thread, 1, ByHand, Uncut, RoundRobin,
    );
    let (train_ds, _) = Demo::data();
    let mut replica = Replica::new(cell, 3);
    replica.step(cell, &train_ds, 0, &LocalComm::new());
    let kfac = replica.2.as_mut().unwrap();
    let blob = kfac.save_state();
    assert_eq!(blob[4..12], 3u64.to_le_bytes(), "version after magic");
    kfac.restore_state(&blob).expect("own blob restores");
    for version in [1u64, 2] {
        let mut old = blob.clone();
        old[4..12].copy_from_slice(&version.to_le_bytes());
        let refused = kfac.restore_state(&old).unwrap_err();
        assert_eq!(
            refused, "unsupported kfac state version",
            "version {version}"
        );
    }
}

/// Every cell of [`TABLE`] is a subject of its relation; together they
/// meet every pair of values of any two axes, and every combination of
/// [`FULL_PRODUCTS`], that some subject of the relation takes; and each
/// meets one that no other cell of its relation does.
#[test]
fn cells_cover_every_pair() {
    fn pick<T: Copy>(k: &mut usize, all: &[T]) -> T {
        let value = all[*k % all.len()];
        *k /= all.len();
        value
    }
    let mut universe = Vec::new();
    for mut k in 0..3 * 2 * 2 * 2 * 2 * 2 * 2 * 4 * 3 * 2 {
        let k = &mut k;
        let (p, w, every) = (pick(k, Precond::ALL), pick(k, Wire::ALL), pick(k, &[2, 5]));
        let (b, s, f) = (pick(k, Bases::ALL), pick(k, Sched::ALL), pick(k, Fab::ALL));
        let (world, d, cut) = (pick(k, &[2, 4]), pick(k, Drv::ALL), pick(k, Cut::ALL));
        universe.push(Cell(
            p,
            w,
            b,
            every,
            s,
            f,
            world,
            d,
            cut,
            pick(k, Place::ALL),
        ));
    }
    for &rel in Rel::ALL {
        // Each plan meets every pair on its own.
        let plan: &[usize] = if rel == Plan { &[PRECOND] } else { &[] };
        let mut sets: Vec<Vec<usize>> = Vec::new();
        for i in 0..AXES.len() {
            sets.extend((i + 1..AXES.len()).map(|j| [plan, &[i, j]].concat()));
        }
        for (r, axes) in FULL_PRODUCTS {
            if *r == rel {
                sets.push(axes.to_vec());
            }
        }
        // Each axis set, with the values some cell takes on it.
        let meets = |cells: &[Cell]| {
            let mut met = HashSet::new();
            for (c, axes) in cells.iter().flat_map(|c| sets.iter().map(move |a| (c, a))) {
                let values: Vec<usize> = axes.iter().map(|&a| c.coords()[a]).collect();
                met.insert((axes.clone(), values));
            }
            met
        };
        let cells: Vec<Cell> = TABLE.iter().filter(|r| r.0 == rel).map(|r| r.1).collect();
        for c in &cells {
            assert!(rel.admits(*c), "{rel:?}: {c:?} is not one of its subjects");
        }
        let mut subjects = universe.clone();
        subjects.retain(|&c| rel.admits(c));
        let needed = meets(&subjects);
        let mut missing: Vec<String> = (needed.difference(&meets(&cells)))
            .map(|(axes, values)| {
                let names: Vec<_> = axes.iter().map(|&a| AXES[a]).collect();
                let takes = |c: &&Cell| axes.iter().zip(values).all(|(&a, &v)| c.coords()[a] == v);
                format!("{names:?} as in {:?}", subjects.iter().find(takes).unwrap())
            })
            .collect();
        missing.sort();
        assert!(missing.is_empty(), "{rel:?} never meets {missing:#?}");
        for k in 0..cells.len() {
            let mut others = cells.clone();
            let cell = others.remove(k);
            assert!(
                meets(&others) != needed,
                "{rel:?}: {cell:?} meets nothing new"
            );
        }
    }
}
