//! # kfac-cluster
//!
//! Calibrated analytic cluster simulator for the `kfac-rs` reproduction of
//! *Convolutional Neural Network Training with Distributed K-FAC*
//! (Pauloski et al., SC 2020).
//!
//! The paper's scaling experiments (Figures 7–10, Tables III–VI) ran on
//! 16–256 V100 GPUs. No GPUs exist here, so — per the substitution policy
//! in DESIGN.md — those experiments are reproduced with an analytic model
//! built from three verifiable ingredients:
//!
//! 1. **Real layer dimensions**: the full-size ResNet-50/101/152 factor
//!    inventories from [`kfac_nn::arch`] (validated against published
//!    parameter counts), which determine eigendecomposition cost and
//!    placement imbalance.
//! 2. **Real placement code**: the same `kfac::distribution` assignment
//!    functions the runnable preconditioner uses, so per-worker loads are
//!    the genuine article, not a model of one.
//! 3. **Standard collective cost models**: the bandwidth-optimal ring
//!    allreduce the paper itself cites ([35]), priced with α/β link
//!    parameters.
//!
//! Absolute times depend on documented V100-class rate constants
//! ([`hardware::GpuSpec::v100`]); the *shapes* — who wins, where the
//! crossovers fall, how imbalance grows — come from (1)–(3).

pub mod calibrate;
pub mod hardware;
pub mod iteration;
pub mod profile;
pub mod scaling;

pub use calibrate::BenchReport;
pub use hardware::{ClusterSpec, GpuSpec};
pub use iteration::{IterationModel, KfacRunConfig, StageTimes};
pub use profile::ModelProfile;
pub use scaling::{
    efficiency, paper_update_freq, scaling_sweep, time_to_solution, ScalingPoint, TrainingBudget,
};
