//! # kfac-collectives
//!
//! Horovod-like collective-communication substrate for the `kfac-rs`
//! reproduction of *Convolutional Neural Network Training with Distributed
//! K-FAC* (Pauloski et al., SC 2020).
//!
//! The paper's distributed K-FAC (Algorithm 1) is expressed entirely in
//! terms of the three primitives Horovod exposes — `allreduce()`,
//! `allgather()` and `broadcast()` (§II-D) — plus the implicit barrier of
//! synchronous training. This crate provides:
//!
//! * [`Communicator`] — the primitive set as a trait, with MPI-style
//!   `rank`/`size` identity.
//! * [`ThreadComm`] — N ranks as threads within one process, exchanging
//!   messages through per-rank in-memory mailboxes (blocking waits, no
//!   spinning). This substitutes for Horovod+NCCL: it preserves the
//!   *synchronization structure* of the algorithm (who contributes what,
//!   when everyone blocks), which is what the correctness experiments
//!   need.
//! * [`LocalComm`] — the trivial single-rank communicator.
//! * [`error`] — [`CollectiveError`], the typed outcome of every fallible
//!   (`try_*`) collective.
//! * [`cost`] — the α/β analytic cost model for ring allreduce /
//!   allgather / tree broadcast (Patarasuk & Yuan, the paper's [35]),
//!   consumed by the `kfac-cluster` scaling simulator.
//! * [`traffic`] — per-class byte accounting so experiments can report
//!   communication volumes (gradients vs factors vs eigendecompositions).

//! * [`faults`] — deterministic fault injection: a [`FaultPlan`] of
//!   faults placed on (traffic class, attempt) positions, injected by a
//!   [`FaultyCommunicator`] wrapper — stragglers, outages, corruption,
//!   rank loss — plus [`RetryPolicy`], the bounded exponential-backoff
//!   retry loop the hardened paths use.

//! * [`algo`] — the one implementation of every collective, on both
//!   fabrics, before and after a shrink: chunk-pipelined ring and
//!   recursive halving/doubling allreduce (plus ring allgather, binomial
//!   broadcast and a dissemination barrier) over any point-to-point
//!   [`Transport`], with size-based auto-selection behind a
//!   [`CollectiveAlgo`] policy and a bitwise-pinned rank-order reduction.
//! * [`mailbox`] — [`Mailbox`], the receive side both transports share:
//!   tagged queues, the dead/fenced view of the peers, the epoch purge,
//!   and the one deadline-bounded wait loop.
//! * [`proc`] — the multi-process backend: [`ProcComm`] ranks as OS
//!   processes over localhost TCP (length-prefixed frames, broker
//!   rendezvous, per-peer reader threads delivering into the mailbox).
//!   [`ThreadComm`] and [`ProcComm`] are the same [`ShrunkComm`] over two
//!   transports, so their results are bit-identical by construction.
//! * [`membership`] — elastic group membership: failure detection
//!   (heartbeats on the proc fabric, injectable [`ShrunkComm::mark_dead`]
//!   on the thread fabric), a min-rank–coordinated agreement round, and
//!   epoch-fenced [`ShrunkComm`] communicators so survivors of a
//!   permanent rank loss reconfigure and continue instead of aborting.
//! * [`backend`] — [`CommBackend`], the one switch (`KFAC_COMM_BACKEND`)
//!   that picks the fabric everywhere.
//! * [`wire`] — the two f32-only wire entry points the frozen benchmark
//!   package calls; every collective travels as f32.

pub mod algo;
pub mod backend;
pub mod communicator;
pub mod cost;
pub mod error;
pub mod faults;
pub mod fusion;
pub mod local;
pub mod mailbox;
pub mod membership;
pub mod proc;
pub mod retry;
pub mod thread;
pub mod traffic;
pub mod transport;
pub mod wire;

pub use algo::{AlgoComm, AlgoPolicy, CollectiveAlgo};
pub use backend::CommBackend;
pub use communicator::{Communicator, ReduceOp};
pub use cost::LinkSpec;
pub use error::CollectiveError;
pub use faults::{Fault, FaultKind, FaultPlan, FaultyCommunicator};
pub use local::LocalComm;
pub use mailbox::{FailOn, Mailbox};
pub use membership::{Elastic, GroupView, Membership, ShrunkComm, ViewTransport};
pub use proc::{HeartbeatConfig, ProcComm, ProcConfig};
pub use retry::RetryPolicy;
pub use thread::{MeshTransport, ThreadComm};
pub use traffic::{Traffic, TrafficClass};
pub use transport::Transport;
pub use wire::{try_allgather_half, try_allreduce_half};
