//! # kfac-harness
//!
//! Training harness and experiment drivers for the `kfac-rs` reproduction
//! of *Convolutional Neural Network Training with Distributed K-FAC*
//! (Pauloski et al., SC 2020).
//!
//! * [`trainer`] — the distributed synchronous training loop (Fig. 1 +
//!   Listing 1): thread-rank replicas, fused gradient allreduce, optional
//!   K-FAC preconditioning, sharded validation.
//! * [`overlap`] — the iteration's other gradient-exchange schedule:
//!   backward on the `kfac-exec` task graph, per-child buckets allreduced
//!   while it runs (`xp --overlap`).
//! * [`resilient`] — fault-tolerant iterations: retry, stale-factor and
//!   identity-preconditioner degradation, skipped steps, checkpoints.
//! * [`elastic`] — shrink-world recovery trials: kill a rank mid-run,
//!   fence it behind a membership epoch, restore the checkpoint on the
//!   survivors, and verify the trajectory bitwise (`xp elastic`).
//! * [`checkpoint`] — bitwise-resumable training-state serialization
//!   with atomic on-disk persistence.
//! * [`presets`] — CPU-tractable stand-ins for the paper's
//!   CIFAR-10/ResNet-32 and ImageNet/ResNet-50 setups at three scales
//!   (smoke/quick/full), preserving the paper's budget ratios.
//! * [`experiments`] — one driver per table and figure of §VI.
//! * [`benchkernels`] — packed GEMM/Gram kernel benchmark (f32 and bf16 storage)
//!   behind `xp bench-kernels`.
//! * [`procrun`] — multi-process orchestration: `xp` re-executed as one
//!   OS process per rank over the TCP collective fabric
//!   (`xp proc-train`, `xp bench-allreduce`).
//! * [`report`] — markdown rendering of results.
//! * [`runtime`] — [`RuntimeConfig`]: the one reader of the `KFAC_*`
//!   environment, resolved once at `xp`'s entry and installed
//!   process-wide; everything else takes values.
//!
//! Regenerate any experiment with the `xp` binary:
//!
//! ```text
//! cargo run --release -p kfac-harness --bin xp -- table1 --scale quick
//! cargo run --release -p kfac-harness --bin xp -- all --scale smoke
//! ```

pub mod bencheig;
pub mod benchkernels;
pub mod checkpoint;
pub mod elastic;
pub mod experiments;
pub mod overlap;
pub mod presets;
pub mod procrun;
pub mod report;
pub mod resilient;
pub mod runtime;
pub mod trainer;

pub use overlap::ExecStrategy;
pub use presets::{CifarSetup, ImagenetSetup, Scale};
pub use resilient::{FaultTolerance, ResilientTrainer, StepOutcome};
pub use runtime::RuntimeConfig;
pub use trainer::{train, train_with_comm, TrainConfig, TrainResult};
