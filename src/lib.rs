//! `kfac-suite`: umbrella crate for the `kfac-rs` reproduction of
//! *Convolutional Neural Network Training with Distributed K-FAC*
//! (Pauloski et al., SC 2020).
//!
//! This crate exists to host the runnable examples (`examples/`) and the
//! cross-crate integration tests (`tests/`). The actual functionality lives
//! in the member crates, re-exported here for convenience:
//!
//! * [`tensor`] — dense linear algebra (GEMM, symmetric eigendecomposition,
//!   reference inverse and Kronecker product for tests).
//! * [`collectives`] — Horovod-like collective communication.
//! * [`nn`] — neural-network layers, ResNet builders and K-FAC capture hooks.
//! * [`data`] — synthetic CIFAR-10/ImageNet-like datasets.
//! * [`optim`] — SGD/Adam/LARS and learning-rate schedules.
//! * [`kfac`] — the distributed K-FAC preconditioner (the paper's contribution).
//! * [`cluster`] — calibrated analytic cluster/scaling simulator.
//! * [`harness`] — distributed trainer and per-table/figure experiment drivers.

pub use kfac;
pub use kfac_cluster as cluster;
pub use kfac_collectives as collectives;
pub use kfac_data as data;
pub use kfac_harness as harness;
pub use kfac_nn as nn;
pub use kfac_optim as optim;
pub use kfac_tensor as tensor;
