//! # Multi-process collective backend
//!
//! Real N-process groups over localhost TCP — the step from "N threads
//! pretending to be ranks" to separate OS processes with a wire protocol,
//! which is what makes the α/β cost model *measurable* instead of assumed
//! (`xp bench-allreduce` → `BENCH_allreduce.json` → `kfac-cluster`
//! calibration).
//!
//! Layers, bottom up:
//!
//! * [`wire`] — length-prefixed frames: `[len u32][tag u64][payload]`,
//!   `f32` payloads in little-endian.
//! * [`bootstrap`] — broker rendezvous described by a [`ProcConfig`]
//!   (rank, world, root address, deadline) and pairwise mesh dialing,
//!   deadline-bounded with typed errors.
//! * [`ProcTransport`] — per-peer persistent connections, one reader
//!   thread per peer delivering into the rank's [`crate::Mailbox`] (sends
//!   never deadlock against receives), per-receive deadlines.
//! * [`ProcComm`] — the [`crate::Communicator`] built by running the
//!   [`crate::algo`] layer (pipelined ring / halving-doubling / flat,
//!   auto-selected by size) over that mesh: the same
//!   [`crate::ShrunkComm`] as [`crate::ThreadComm`], over a different
//!   transport. Wraps cleanly in [`crate::FaultyCommunicator`] and
//!   [`crate::RetryPolicy`].
//!
//! Launching: a parent picks a rendezvous port and spawns N workers, each
//! of which builds its [`ProcConfig`] and calls [`ProcComm::connect`] (the
//! `xp` binary does both, passing the rendezvous through the
//! `KFAC_PROC_*` variables `kfac_harness::runtime` resolves — see
//! `kfac-harness::procrun`). Tests use [`ProcComm::create_local`], which
//! drives the identical TCP stack from threads of one process.

pub mod bootstrap;
pub mod comm;
pub mod wire;

pub use bootstrap::ProcConfig;
pub use comm::{HeartbeatConfig, ProcComm, ProcTransport};
