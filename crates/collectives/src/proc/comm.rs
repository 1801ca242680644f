//! The multi-process communicator: a TCP mesh transport under the same
//! [`ShrunkComm`] stack the thread fabric runs. What is specific to TCP
//! is here — sockets, per-peer reader threads, wire framing, the
//! heartbeat detector; queues, failure flags and the receive wait loop
//! are the shared [`Mailbox`] the readers deliver into.

use super::bootstrap::{establish, ProcConfig};
use super::wire::{bytes_to_f32s, f32s_to_bytes, read_frame, write_frame};
use crate::algo::AlgoPolicy;
use crate::error::CollectiveError;
use crate::mailbox::{FailOn, Mailbox};
use crate::membership::{GroupView, Membership, ShrunkComm};
use crate::transport::{Transport, TAG_HEARTBEAT};
use parking_lot::Mutex;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Failure-detector tuning for the proc fabric.
///
/// The per-peer reader threads already detect a *closed* peer instantly
/// (EOF/torn frame). Heartbeats catch the other failure mode — a peer
/// that is wedged with its socket still open: every `interval` each rank
/// writes an empty control frame to every peer, and a peer from which
/// nothing (heartbeat or data) has arrived for `timeout` is declared
/// dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatConfig {
    /// Send/scan period. `Duration::ZERO` disables the detector (EOF
    /// detection by the reader threads still works).
    pub interval: Duration,
    /// Silence threshold after which a peer is declared dead.
    pub timeout: Duration,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        HeartbeatConfig {
            interval: Duration::from_millis(500),
            timeout: Duration::from_secs(15),
        }
    }
}

impl HeartbeatConfig {
    fn enabled(&self) -> bool {
        self.interval > Duration::ZERO
    }
}

/// State shared by callers, reader threads and the heartbeat thread.
struct SharedState {
    /// This rank's receive side: the reader threads deliver into it.
    mailbox: Mailbox,
    /// Last time anything (heartbeat or data) arrived from each peer.
    last_heard: Mutex<Vec<Instant>>,
}

/// TCP mesh endpoint implementing [`Transport`].
///
/// One dedicated reader thread per peer drains that peer's socket into
/// this rank's [`Mailbox`], so sends never deadlock against receives
/// (both sides of an exchange can write first; the kernel plus the reader
/// thread buffer everything in flight). Writes go directly to the socket
/// under a per-peer mutex. A heartbeat thread ([`HeartbeatConfig`])
/// doubles as the liveness monitor.
pub struct ProcTransport {
    rank: usize,
    world: usize,
    timeout: Duration,
    state: Arc<SharedState>,
    writers: Arc<Vec<Option<Mutex<TcpStream>>>>,
    readers: Vec<JoinHandle<()>>,
    heartbeat: Option<(Arc<AtomicBool>, JoinHandle<()>)>,
}

impl ProcTransport {
    /// Bootstrap the mesh per `cfg` and start the reader threads (and,
    /// when enabled, the heartbeat thread).
    pub fn establish(
        cfg: &ProcConfig,
        hb: HeartbeatConfig,
        pre_bound_root: Option<TcpListener>,
    ) -> Result<ProcTransport, CollectiveError> {
        let streams = establish(cfg, pre_bound_root)?;
        let state = Arc::new(SharedState {
            mailbox: Mailbox::new(cfg.rank, cfg.world),
            last_heard: Mutex::new(vec![Instant::now(); cfg.world]),
        });
        let mut writers: Vec<Option<Mutex<TcpStream>>> = Vec::with_capacity(cfg.world);
        let mut readers = Vec::new();
        for (peer, stream) in streams.into_iter().enumerate() {
            let Some(stream) = stream else {
                writers.push(None);
                continue;
            };
            let mut read_half = stream
                .try_clone()
                .map_err(|_| CollectiveError::RankFailed(cfg.rank))?;
            let state = Arc::clone(&state);
            let handle = std::thread::Builder::new()
                .name(format!("kfac-proc-r{}-p{}", cfg.rank, peer))
                .spawn(move || loop {
                    // A torn frame poisons the peer like a closed socket:
                    // callers see RankFailed, never silent corruption.
                    let frame = read_frame(&mut read_half).ok();
                    match frame.and_then(|(tag, bytes)| Some((tag, bytes_to_f32s(&bytes)?))) {
                        Some((tag, msg)) => {
                            state.last_heard.lock()[peer] = Instant::now();
                            // Heartbeats are liveness only.
                            if tag != TAG_HEARTBEAT {
                                state.mailbox.deliver(peer, tag, msg);
                            }
                        }
                        None => {
                            state.mailbox.mark_dead(peer);
                            return;
                        }
                    }
                })
                .map_err(|_| CollectiveError::RankFailed(cfg.rank))?;
            readers.push(handle);
            writers.push(Some(Mutex::new(stream)));
        }
        let writers = Arc::new(writers);
        let heartbeat = if hb.enabled() && cfg.world > 1 {
            Some(spawn_heartbeat(
                cfg.rank,
                hb,
                Arc::clone(&state),
                Arc::clone(&writers),
            ))
        } else {
            None
        };
        Ok(ProcTransport {
            rank: cfg.rank,
            world: cfg.world,
            timeout: cfg.timeout,
            state,
            writers,
            readers,
            heartbeat,
        })
    }

    /// Close every peer connection: peers' readers see EOF, and this
    /// rank's readers wake out of their blocking reads.
    fn shutdown_links(&self) {
        for writer in self.writers.iter().flatten() {
            let _ = writer.lock().shutdown(Shutdown::Both);
        }
    }
}

/// Periodically write heartbeat frames to every peer and declare peers
/// dead after `hb.timeout` of silence.
fn spawn_heartbeat(
    rank: usize,
    hb: HeartbeatConfig,
    state: Arc<SharedState>,
    writers: Arc<Vec<Option<Mutex<TcpStream>>>>,
) -> (Arc<AtomicBool>, JoinHandle<()>) {
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name(format!("kfac-proc-hb-{rank}"))
        .spawn(move || {
            while !stop2.load(Ordering::Relaxed) {
                for (peer, writer) in writers.iter().enumerate() {
                    let Some(writer) = writer else {
                        continue; // this rank itself
                    };
                    if state.mailbox.check_alive(peer).is_err() {
                        continue;
                    }
                    let silent = state.last_heard.lock()[peer].elapsed() > hb.timeout;
                    if silent || write_frame(&mut *writer.lock(), TAG_HEARTBEAT, &[]).is_err() {
                        state.mailbox.mark_dead(peer);
                    }
                }
                std::thread::park_timeout(hb.interval);
            }
        })
        .expect("spawn heartbeat thread");
    (stop, handle)
}

impl Transport for ProcTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.world
    }

    fn try_send(&self, to: usize, tag: u64, payload: &[f32]) -> Result<(), CollectiveError> {
        let Some(writer) = self.writers.get(to).and_then(|w| w.as_ref()) else {
            return Err(CollectiveError::Mismatch("send to invalid peer"));
        };
        self.state.mailbox.check_alive(to)?;
        let bytes = f32s_to_bytes(payload);
        let failed = write_frame(&mut *writer.lock(), tag, &bytes).is_err();
        if failed {
            self.state.mailbox.mark_dead(to);
            return Err(CollectiveError::RankFailed(to));
        }
        Ok(())
    }

    fn try_recv(&self, from: usize, tag: u64) -> Result<Vec<f32>, CollectiveError> {
        let deadline = Instant::now() + self.timeout;
        self.state
            .mailbox
            .recv(from, tag, deadline, FailOn::SenderLeft)
    }
}

impl Membership for ProcTransport {
    fn mailbox(&self) -> &Mailbox {
        &self.state.mailbox
    }

    /// Records the observation locally (real failures are detected by the
    /// reader and heartbeat threads). A rank told that *it* is dead also
    /// severs its links, so every peer observes the death as an EOF — the
    /// in-process stand-in for the process exiting.
    fn mark_dead(&self, original: usize) {
        self.state.mailbox.mark_dead(original);
        if original == self.rank {
            self.shutdown_links();
        }
    }
}

impl Drop for ProcTransport {
    fn drop(&mut self) {
        // Stop the heartbeat first so it doesn't race the socket
        // shutdowns, then wake the reader threads out of their blocking
        // reads and join them so no thread outlives the mailboxes.
        if let Some((stop, handle)) = self.heartbeat.take() {
            stop.store(true, Ordering::Relaxed);
            handle.thread().unpark();
            let _ = handle.join();
        }
        self.shutdown_links();
        for handle in self.readers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Multi-process communicator over localhost TCP.
///
/// Implements the full [`Communicator`](crate::Communicator) contract —
/// fallible and infallible collectives, typed [`CollectiveError`]s,
/// barrier, traffic accounting — by running the [`crate::algo`] algorithm
/// layer over a [`ProcTransport`] mesh, wrapped in an epoch-fenced
/// [`ViewTransport`](crate::ViewTransport): the boot group *is* a
/// [`ShrunkComm`] whose view is the identity (epoch 0, members
/// `0..world`), which stamps every tag with epoch 0 — bitwise identical
/// on the wire to the pre-membership protocol. [`crate::ThreadComm`] is
/// the same type over the in-process mesh, so the two fabrics' results
/// are bitwise identical by construction, and
/// [`crate::FaultyCommunicator`] / [`crate::RetryPolicy`] wrap either. After a rank dies,
/// [`Elastic::shrink`](crate::Elastic::shrink) agrees on the survivors and
/// returns a new `ProcComm` fenced to the next epoch.
pub type ProcComm = ShrunkComm<ProcTransport>;

impl ShrunkComm<ProcTransport> {
    /// Join (or, for rank 0, host) the group described by `cfg` with an
    /// explicit algorithm policy and heartbeat tuning; `pre_bound_root`
    /// hands rank 0 an already-bound root listener (in-process launches).
    pub fn connect(
        cfg: &ProcConfig,
        policy: AlgoPolicy,
        hb: HeartbeatConfig,
        pre_bound_root: Option<TcpListener>,
    ) -> Result<ProcComm, CollectiveError> {
        let transport = Arc::new(ProcTransport::establish(cfg, hb, pre_bound_root)?);
        Ok(ShrunkComm::new(
            transport,
            GroupView::boot(cfg.rank, cfg.world),
            policy,
        ))
    }

    /// In-process group of `world` connected `ProcComm`s: real TCP
    /// sockets, reader threads and wire framing, driven from threads of
    /// one process. This is what unit/property/chaos tests use — it
    /// exercises the entire proc stack without process spawning.
    ///
    /// # Panics
    /// Panics if the local rendezvous fails (loopback networking broken).
    pub fn create_local(world: usize) -> Vec<ProcComm> {
        Self::create_local_with(world, AlgoPolicy::default(), ProcConfig::DEFAULT_TIMEOUT)
            .expect("local proc rendezvous failed")
    }

    /// [`ProcComm::create_local`] with explicit policy and deadline.
    pub fn create_local_with(
        world: usize,
        policy: AlgoPolicy,
        timeout: Duration,
    ) -> Result<Vec<ProcComm>, CollectiveError> {
        assert!(world > 0, "communicator group must have at least one rank");
        let root_listener =
            TcpListener::bind("127.0.0.1:0").map_err(|_| CollectiveError::RankFailed(0))?;
        let root = root_listener
            .local_addr()
            .map_err(|_| CollectiveError::RankFailed(0))?
            .to_string();
        let mut pre_bound = Some(root_listener);
        let handles: Vec<_> = (0..world)
            .map(|rank| {
                let cfg = ProcConfig {
                    rank,
                    world,
                    root: root.clone(),
                    timeout,
                };
                let listener = if rank == 0 { pre_bound.take() } else { None };
                std::thread::Builder::new()
                    .name(format!("kfac-proc-boot-{rank}"))
                    .spawn(move || {
                        ProcComm::connect(&cfg, policy, HeartbeatConfig::default(), listener)
                    })
                    .expect("spawn bootstrap thread")
            })
            .collect();
        let mut comms = Vec::with_capacity(world);
        for h in handles {
            comms.push(h.join().map_err(|_| CollectiveError::RankFailed(0))??);
        }
        Ok(comms)
    }
}
