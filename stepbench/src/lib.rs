//! `stepbench`: the measured training step.
//!
//! The repository's benchmark. It times whole training iterations of
//! SGD and distributed K-FAC through the public `kfac_harness::train`
//! entry point (end-to-end metrics), then runs the same iterations
//! through its own instrumented rank loop to say where the time went,
//! crate by crate (per-layer metrics). See `README.md` beside this
//! package for the workloads, the metrics and how to read the output.

pub mod compare;
pub mod envpin;
pub mod jsonio;
pub mod metrics;
pub mod micro;
pub mod run;
pub mod stats;
pub mod suite;
pub mod timed_comm;
pub mod trace;
pub mod traced;
pub mod workload;
