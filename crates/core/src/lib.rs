//! # kfac
//!
//! The core contribution of *Convolutional Neural Network Training with
//! Distributed K-FAC* (Pauloski et al., SC 2020), reproduced in Rust: a
//! **distributed K-FAC gradient preconditioner** that drops in front of
//! any first-order optimizer.
//!
//! ## Usage (the Rust analogue of the paper's Listing 1)
//!
//! ```no_run
//! use kfac::{Kfac, KfacConfig};
//! use kfac_collectives::{Communicator, LocalComm, ReduceOp, TrafficClass};
//! use kfac_nn::{Layer, Mode, CrossEntropyLoss};
//! # fn get_model() -> kfac_nn::Sequential { unimplemented!() }
//! # fn get_batch() -> (kfac_tensor::Tensor4, Vec<usize>) { unimplemented!() }
//!
//! let mut model = get_model();
//! let comm = LocalComm::new();
//! let mut optimizer = kfac_optim::Sgd::paper_default(5e-4);
//! let mut preconditioner = Kfac::new(&mut model, KfacConfig::default());
//! let criterion = CrossEntropyLoss::with_smoothing(0.1);
//!
//! for step in 0..100 {
//!     let (data, target) = get_batch();
//!     model.zero_grad();
//!     model.set_capture(preconditioner.needs_capture());
//!     let output = model.forward(&data, Mode::Train);
//!     let (_loss, grad) = criterion.forward(&output, &target);
//!     model.backward(&grad);
//!
//!     // optimizer.synchronize() — average gradients across ranks:
//!     let mut flat = Vec::new();
//!     model.visit_params("", &mut |_, _, g| flat.extend_from_slice(g));
//!     comm.allreduce_tagged(&mut flat, ReduceOp::Average, TrafficClass::Gradient);
//!     let mut off = 0;
//!     model.visit_params("", &mut |_, _, g| {
//!         g.copy_from_slice(&flat[off..off + g.len()]);
//!         off += g.len();
//!     });
//!
//!     preconditioner.step(&mut model, &comm, 0.1); // KFAC.step()
//!     use kfac_optim::Optimizer;
//!     optimizer.step(&mut model, 0.1);             // optimizer.step()
//! }
//! ```
//!
//! ## Module map
//!
//! * [`config`] — every §V-C hyper-parameter: damping + decay, KL-clip κ,
//!   `kfac-update-freq` + decay, factor-update multiplier, inversion
//!   method, distribution strategy, placement policy.
//! * [`math`] — Eq. 11–15 and 18: the eigendecomposition path, the
//!   explicit-inverse path, and KL-clipping, property-tested against
//!   dense Kronecker ground truth.
//! * [`distribution`] — round-robin factor placement (the paper's), the
//!   layer-wise scheme of Osawa et al. \[6\] for K-FAC-lw, and the
//!   size-balanced LPT policy the paper proposes as future work.
//! * [`precision`] — [`PrecisionPolicy`]: the width (f32 | bf16) of the
//!   gradient wire and of the K-FAC collectives' wire, with f32 on both
//!   as the bitwise-identical default.
//! * [`preconditioner`] — [`Kfac`]: Algorithm 1 end-to-end over a
//!   [`Communicator`](kfac_collectives::Communicator).
//! * [`stats`] — per-stage timing (Table V / Fig. 10 instrumentation).
//! * [`codec`] — the byte codec of the state blobs ([`Kfac::save_state`],
//!   the harness checkpoint).

pub mod codec;
pub mod config;
pub mod distribution;
pub mod math;
pub mod precision;
pub mod preconditioner;
pub mod stats;

pub use config::{
    DistStrategy, EigenSolver, InversionMethod, KfacConfig, PlacementPolicy, RandEigPolicy,
};
pub use distribution::{assign_factors, factor_descs, FactorDesc, FactorKind};
pub use precision::PrecisionPolicy;
pub use preconditioner::Kfac;
pub use stats::StageStats;
