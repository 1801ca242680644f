//! The multi-process communicator: TCP mesh transport + algorithm layer.

use super::bootstrap::{establish, ProcConfig};
use super::wire::{bytes_to_f32s, f32s_to_bytes, read_frame, write_frame};
use crate::algo::AlgoPolicy;
use crate::error::CollectiveError;
use crate::membership::{GroupView, Membership, ShrunkComm};
use crate::transport::{tag_epoch, Transport, CTRL_BIT, TAG_HEARTBEAT};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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

/// Mailbox state shared between reader threads and collective callers.
struct MailState {
    /// Delivered-but-unclaimed messages, keyed by `(from, tag)`.
    boxes: HashMap<(usize, u64), VecDeque<Vec<f32>>>,
    /// Peers whose connection has closed, errored, or gone silent past
    /// the heartbeat timeout.
    dead: Vec<bool>,
    /// Peers acknowledged as removed from the group by a membership
    /// shrink: excluded from the any-dead failure scan so the survivor
    /// group keeps communicating.
    fenced: Vec<bool>,
    /// Last time anything (heartbeat or data) arrived from each peer.
    last_heard: Vec<Instant>,
}

/// State shared by callers, reader threads and the heartbeat thread.
struct SharedState {
    mail: Mutex<MailState>,
    cv: Condvar,
    /// Current membership epoch; readers drop data frames stamped with
    /// an older epoch on arrival (straggler fencing).
    epoch: AtomicU64,
}

impl SharedState {
    fn mark_dead(&self, peer: usize) {
        let mut st = self.mail.lock();
        if !st.dead[peer] {
            st.dead[peer] = true;
            self.cv.notify_all();
        }
    }
}

/// TCP mesh endpoint implementing [`Transport`].
///
/// One dedicated reader thread per peer drains that peer's socket into
/// the tag-keyed mailboxes, so sends never deadlock against receives
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
        let now = Instant::now();
        let state = Arc::new(SharedState {
            mail: Mutex::new(MailState {
                boxes: HashMap::new(),
                dead: vec![false; cfg.world],
                fenced: vec![false; cfg.world],
                last_heard: vec![now; cfg.world],
            }),
            cv: Condvar::new(),
            epoch: AtomicU64::new(0),
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
                    match read_frame(&mut read_half) {
                        Ok((tag, payload)) => match bytes_to_f32s(&payload) {
                            Some(msg) => {
                                let mut st = state.mail.lock();
                                st.last_heard[peer] = Instant::now();
                                if tag == TAG_HEARTBEAT {
                                    continue; // liveness only, nothing to deliver
                                }
                                // Fence stragglers: a data frame stamped
                                // with a pre-shrink epoch is dropped on
                                // arrival.
                                if tag & CTRL_BIT == 0
                                    && tag_epoch(tag) < state.epoch.load(Ordering::Relaxed)
                                {
                                    continue;
                                }
                                st.boxes.entry((peer, tag)).or_default().push_back(msg);
                                state.cv.notify_all();
                            }
                            None => {
                                // Torn frame: poison the peer, callers see
                                // RankFailed rather than silent corruption.
                                state.mark_dead(peer);
                                return;
                            }
                        },
                        Err(_) => {
                            state.mark_dead(peer);
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
                cfg.world,
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

    /// First peer that is dead and not yet fenced, if any.
    fn unfenced_dead(st: &MailState) -> Option<usize> {
        st.dead.iter().zip(&st.fenced).position(|(&d, &f)| d && !f)
    }
}

/// Periodically write heartbeat frames to every peer and declare peers
/// dead after `hb.timeout` of silence.
fn spawn_heartbeat(
    rank: usize,
    world: usize,
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
                for peer in 0..world {
                    if peer == rank {
                        continue;
                    }
                    let already_dead = state.mail.lock().dead[peer];
                    if already_dead {
                        continue;
                    }
                    if let Some(writer) = &writers[peer] {
                        let failed = write_frame(&mut *writer.lock(), TAG_HEARTBEAT, &[]).is_err();
                        if failed {
                            state.mark_dead(peer);
                        }
                    }
                }
                {
                    let mut st = state.mail.lock();
                    let now = Instant::now();
                    let mut changed = false;
                    for peer in 0..world {
                        if peer != rank
                            && !st.dead[peer]
                            && now.duration_since(st.last_heard[peer]) > hb.timeout
                        {
                            st.dead[peer] = true;
                            changed = true;
                        }
                    }
                    if changed {
                        state.cv.notify_all();
                    }
                }
                std::thread::sleep(hb.interval);
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
        let bytes = f32s_to_bytes(payload);
        let failed = write_frame(&mut *writer.lock(), tag, &bytes).is_err();
        if failed {
            self.state.mark_dead(to);
            return Err(CollectiveError::RankFailed(to));
        }
        Ok(())
    }

    fn try_recv(&self, from: usize, tag: u64) -> Result<Vec<f32>, CollectiveError> {
        let key = (from, tag);
        let deadline = Instant::now() + self.timeout;
        let mut st = self.state.mail.lock();
        loop {
            if let Some(q) = st.boxes.get_mut(&key) {
                if let Some(msg) = q.pop_front() {
                    if q.is_empty() {
                        st.boxes.remove(&key);
                    }
                    return Ok(msg);
                }
            }
            // A collective cannot complete once *any* group member is
            // gone: fail promptly with the culprit instead of burning the
            // deadline, so callers can start reconfiguring immediately.
            // Fenced peers are acknowledged-dead (previous epochs) and
            // don't count.
            if from >= self.world {
                return Err(CollectiveError::RankFailed(from));
            }
            if let Some(culprit) = Self::unfenced_dead(&st) {
                return Err(CollectiveError::RankFailed(culprit));
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(CollectiveError::Timeout {
                    waited_ms: self.timeout.as_millis() as u64,
                });
            }
            self.state.cv.wait_for(&mut st, deadline - now);
        }
    }
}

impl Membership for ProcTransport {
    fn observed_dead(&self) -> Vec<usize> {
        let st = self.state.mail.lock();
        st.dead
            .iter()
            .zip(&st.fenced)
            .enumerate()
            .filter(|(_, (&d, &f))| d && !f)
            .map(|(i, _)| i)
            .collect()
    }

    fn mark_dead(&self, original: usize) {
        if original < self.world {
            self.state.mark_dead(original);
        }
    }

    fn fence(&self, dead: &[usize], new_epoch: u64) {
        let mut st = self.state.mail.lock();
        for &d in dead {
            if d < self.world {
                st.dead[d] = true;
                st.fenced[d] = true;
            }
        }
        self.state.epoch.store(new_epoch, Ordering::Relaxed);
        let fenced = st.fenced.clone();
        st.boxes.retain(|&(peer, tag), _| {
            !fenced[peer] && (tag & CTRL_BIT != 0 || tag_epoch(tag) >= new_epoch)
        });
        self.state.cv.notify_all();
    }

    fn recv_deadline(
        &self,
        from: usize,
        tag: u64,
        deadline: Instant,
    ) -> Result<Vec<f32>, CollectiveError> {
        let key = (from, tag);
        let mut st = self.state.mail.lock();
        loop {
            if let Some(q) = st.boxes.get_mut(&key) {
                if let Some(msg) = q.pop_front() {
                    if q.is_empty() {
                        st.boxes.remove(&key);
                    }
                    return Ok(msg);
                }
            }
            if *st.dead.get(from).unwrap_or(&true) {
                return Err(CollectiveError::RankFailed(from));
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(CollectiveError::Timeout { waited_ms: 0 });
            }
            self.state.cv.wait_for(&mut st, deadline - now);
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
            let _ = handle.join();
        }
        for writer in self.writers.iter().flatten() {
            let _ = writer.lock().shutdown(Shutdown::Both);
        }
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
/// on the wire to the pre-membership protocol — so a `ProcComm` allreduce
/// stays bitwise identical to a [`crate::ThreadComm`] allreduce of the
/// same inputs, and [`crate::FaultyCommunicator`] / [`crate::RetryPolicy`]
/// wrap it unchanged. After a rank dies,
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
