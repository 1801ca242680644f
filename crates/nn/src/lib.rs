//! # kfac-nn
//!
//! Neural-network substrate for the `kfac-rs` reproduction of
//! *Convolutional Neural Network Training with Distributed K-FAC*
//! (Pauloski et al., SC 2020).
//!
//! This crate plays the role PyTorch plays in the paper: it provides the
//! layers, explicit forward/backward propagation, the ResNet model family,
//! and — critically — the **K-FAC capture hooks**. The paper registers
//! forward/backward hooks "to save the activation of the previous layer
//! and gradient with respect to the output of the current layer" (§IV-B);
//! here the [`layer::Layer`] trait carries a capture flag and the two
//! K-FAC-eligible layer types ([`linear::Linear`], [`conv::Conv2d`])
//! implement [`layer::KfacEligible`], which exposes exactly the factor and
//! gradient views Algorithm 1 needs.
//!
//! Modules:
//!
//! * [`layer`] — `Layer` / `KfacEligible` traits, train/eval modes.
//! * [`linear`], [`conv`], [`batchnorm`], [`activation`], [`pool`],
//!   [`reshape`] — primitive layers (Conv2d lowers to GEMM block by
//!   block via [`lowering`]).
//! * [`sequential`], [`residual`] — containers; ResNets are built from
//!   them in [`resnet`].
//! * [`arch`] — *full-size* ResNet-50/101/152 dimension tables (metadata
//!   only) for the scaling simulator.
//! * [`loss`] — softmax cross-entropy with label smoothing.
//! * [`metrics`] — top-1 accuracy.
//! * [`testutil`] — finite-difference gradient checking used across the
//!   test suite.

pub mod activation;
pub mod arch;
pub mod batchnorm;
pub mod conv;
pub mod layer;
pub mod linear;
pub mod loss;
pub mod lowering;
pub mod metrics;
pub mod pool;
pub mod reshape;
pub mod residual;
pub mod resnet;
pub mod sequential;
pub mod testutil;

pub use activation::ReLU;
pub use batchnorm::BatchNorm2d;
pub use conv::Conv2d;
pub use layer::{KfacEligible, Layer, Mode};
pub use linear::Linear;
pub use loss::CrossEntropyLoss;
pub use metrics::{top1_correct, Accuracy};
pub use pool::{GlobalAvgPool, MaxPool2d};
pub use reshape::Flatten;
pub use residual::ResidualBlock;
pub use sequential::Sequential;
