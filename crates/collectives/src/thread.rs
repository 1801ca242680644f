//! Thread-rank communicator: N workers in one process.
//!
//! This is the stand-in for Horovod + NCCL. A group is created with
//! [`ThreadComm::create`], which returns one handle per rank; each rank
//! thread owns its handle and calls collectives, which block until every
//! rank has made the matching call — the same synchronous-SGD structure
//! the paper's Figure 1 depicts.
//!
//! There is no thread-specific collective code. [`ThreadComm`] is the
//! same [`ShrunkComm`] the TCP fabric boots and every shrink returns: the
//! [`crate::algo`] layer over an epoch-fenced view of a point-to-point
//! mesh. The mesh here is [`MeshTransport`] — one [`Mailbox`] per rank in
//! shared memory, where a send is a push into the peer's mailbox — so the
//! thread and TCP fabrics run one program and differ only in how a frame
//! reaches the receiver.

use crate::algo::AlgoPolicy;
use crate::error::CollectiveError;
use crate::mailbox::{FailOn, Mailbox};
use crate::membership::{GroupView, Membership, ShrunkComm};
use crate::transport::Transport;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a mesh receive waits before declaring the sender lost — the
/// deadline [`ThreadComm::create`] passes. Generous: in-process peers only
/// miss a send when their thread died or the ranks' call sequences differ.
pub const MESH_RECV_TIMEOUT: Duration = Duration::from_secs(20);

/// One rank's endpoint on the in-process mailbox mesh.
pub struct MeshTransport {
    rank: usize,
    recv_timeout: Duration,
    /// Every rank's receive side; `mesh[r]` belongs to rank `r`.
    mesh: Arc<Vec<Mailbox>>,
}

impl Transport for MeshTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.mesh.len()
    }

    fn try_send(&self, to: usize, tag: u64, payload: &[f32]) -> Result<(), CollectiveError> {
        self.mailbox().check_alive(to)?;
        self.mesh[to].deliver(self.rank, tag, payload.to_vec());
        Ok(())
    }

    fn try_recv(&self, from: usize, tag: u64) -> Result<Vec<f32>, CollectiveError> {
        let deadline = Instant::now() + self.recv_timeout;
        self.mailbox().recv(from, tag, deadline, FailOn::SenderLeft)
    }
}

impl Membership for MeshTransport {
    fn mailbox(&self) -> &Mailbox {
        &self.mesh[self.rank]
    }

    /// The thread fabric's injectable failure detector (the proc fabric
    /// detects EOF/heartbeat loss): every rank of the mesh observes the
    /// death at once, which keeps chaos and elastic tests deterministic.
    fn mark_dead(&self, original: usize) {
        for mailbox in self.mesh.iter() {
            mailbox.mark_dead(original);
        }
    }
}

/// One rank's handle onto a thread-rank communicator group: the boot
/// group is the identity view at epoch 0, and
/// [`Elastic::shrink`](crate::Elastic::shrink) returns the same type
/// fenced to the next epoch.
pub type ThreadComm = ShrunkComm<MeshTransport>;

impl ShrunkComm<MeshTransport> {
    /// Create a group of `size` connected communicators, one per rank,
    /// with the default algorithm policy and [`MESH_RECV_TIMEOUT`].
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn create(size: usize) -> Vec<ThreadComm> {
        Self::create_with(size, AlgoPolicy::default(), MESH_RECV_TIMEOUT)
    }

    /// [`ThreadComm::create`] with an explicit policy and receive deadline.
    pub fn create_with(size: usize, policy: AlgoPolicy, recv_timeout: Duration) -> Vec<ThreadComm> {
        assert!(size > 0, "communicator group must have at least one rank");
        let mesh: Arc<Vec<Mailbox>> =
            Arc::new((0..size).map(|rank| Mailbox::new(rank, size)).collect());
        (0..size)
            .map(|rank| {
                let transport = MeshTransport {
                    rank,
                    recv_timeout,
                    mesh: Arc::clone(&mesh),
                };
                ShrunkComm::new(Arc::new(transport), GroupView::boot(rank, size), policy)
            })
            .collect()
    }
}
