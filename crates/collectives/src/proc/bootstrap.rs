//! Rendezvous and mesh bootstrap for the proc backend.
//!
//! An N-process group needs two things before the first collective: every
//! rank must learn every peer's address, and every pair must hold one
//! persistent TCP connection. The protocol is broker-based and
//! deadline-bounded end to end:
//!
//! 1. Every rank binds a *mesh listener* on an ephemeral localhost port.
//! 2. Non-root ranks connect to the root address ([`ProcConfig::root`]) and
//!    send a `HELLO` frame: `[rank: u64 LE][mesh addr, utf-8]`. Connects
//!    retry with a short sleep until the rendezvous deadline, because rank
//!    0 may not have bound its listener yet.
//! 3. Rank 0 collects all `world − 1` hellos, then answers each with a
//!    `ROSTER` frame: all mesh addresses, rank order, newline-joined.
//! 4. Mesh wiring: rank j dials every rank i < j and identifies itself
//!    with an `IDENT` frame `[j: u64 LE]`; rank i accepts `world − 1 − i`
//!    connections. Every socket gets `TCP_NODELAY`.
//!
//! Any step that outlives the deadline fails with
//! [`CollectiveError::Timeout`]; a peer that vanishes mid-handshake
//! surfaces as [`CollectiveError::RankFailed`]. Both are ordinary typed
//! errors, so a failed launch is reported instead of hanging CI.

use super::wire::{read_frame, write_frame};
use crate::error::CollectiveError;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Bootstrap frame tags (collective traffic never uses these sockets, so
/// the namespace is private to this module).
const TAG_HELLO: u64 = 1;
const TAG_ROSTER: u64 = 2;
const TAG_IDENT: u64 = 3;

/// How long to sleep between connect attempts while a listener comes up.
const CONNECT_RETRY: Duration = Duration::from_millis(20);

/// Identity and rendezvous parameters of one rank in a proc group.
#[derive(Debug, Clone)]
pub struct ProcConfig {
    /// This process's rank in `0..world`.
    pub rank: usize,
    /// Number of processes in the group.
    pub world: usize,
    /// Rendezvous address rank 0 listens on, e.g. `127.0.0.1:29500`.
    pub root: String,
    /// Deadline for the whole bootstrap *and* per-receive deadline of the
    /// established transport.
    pub timeout: Duration,
}

impl ProcConfig {
    /// Default per-op / bootstrap deadline.
    pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);
}

fn io_timeout(deadline: Instant, start: Instant) -> CollectiveError {
    let _ = deadline;
    CollectiveError::Timeout {
        waited_ms: start.elapsed().as_millis() as u64,
    }
}

fn remaining(deadline: Instant) -> Option<Duration> {
    deadline.checked_duration_since(Instant::now())
}

/// Dial `addr`, retrying while the listener may still be coming up,
/// until `deadline`.
fn connect_until(addr: &str, deadline: Instant, peer: usize) -> Result<TcpStream, CollectiveError> {
    let start = Instant::now();
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(_) if remaining(deadline).is_some() => std::thread::sleep(CONNECT_RETRY),
            Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => {
                return Err(io_timeout(deadline, start))
            }
            Err(_) => return Err(CollectiveError::RankFailed(peer)),
        }
    }
}

/// Read one frame with the socket's read deadline set from `deadline`.
fn read_frame_deadline(
    stream: &mut TcpStream,
    deadline: Instant,
    peer: usize,
) -> Result<(u64, Vec<u8>), CollectiveError> {
    let start = Instant::now();
    let Some(left) = remaining(deadline) else {
        return Err(io_timeout(deadline, start));
    };
    stream
        .set_read_timeout(Some(left))
        .map_err(|_| CollectiveError::RankFailed(peer))?;
    match read_frame(stream) {
        Ok(f) => Ok(f),
        Err(e) if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            Err(io_timeout(deadline, start))
        }
        Err(_) => Err(CollectiveError::RankFailed(peer)),
    }
}

/// Run the full rendezvous + mesh bootstrap. Returns one connected,
/// `TCP_NODELAY` stream per peer (`streams[rank]` is `None`).
///
/// `pre_bound_root` lets an in-process launcher ([`super::ProcComm::create_local`])
/// hand rank 0 an already-bound root listener so the ephemeral port is
/// known before the group starts.
pub fn establish(
    cfg: &ProcConfig,
    pre_bound_root: Option<TcpListener>,
) -> Result<Vec<Option<TcpStream>>, CollectiveError> {
    let start = Instant::now();
    let deadline = start + cfg.timeout;
    let world = cfg.world;
    let rank = cfg.rank;

    // Everyone binds their mesh listener first so roster addresses are
    // live by the time anyone reads them.
    let mesh_listener =
        TcpListener::bind("127.0.0.1:0").map_err(|_| CollectiveError::RankFailed(rank))?;
    let mesh_addr = mesh_listener
        .local_addr()
        .map_err(|_| CollectiveError::RankFailed(rank))?
        .to_string();

    if world == 1 {
        return Ok(vec![None]);
    }

    // Phase 1+2: rendezvous through the root broker.
    let roster: Vec<String> = if rank == 0 {
        let root_listener = match pre_bound_root {
            Some(l) => l,
            None => TcpListener::bind(&cfg.root).map_err(|_| CollectiveError::RankFailed(0))?,
        };
        let mut addrs: Vec<Option<String>> = vec![None; world];
        addrs[0] = Some(mesh_addr.clone());
        let mut children: Vec<(usize, TcpStream)> = Vec::with_capacity(world - 1);
        while children.len() < world - 1 {
            if remaining(deadline).is_none() {
                return Err(io_timeout(deadline, start));
            }
            let (mut stream, _) = root_listener
                .accept()
                .map_err(|_| CollectiveError::RankFailed(0))?;
            let (tag, payload) = read_frame_deadline(&mut stream, deadline, 0)?;
            if tag != TAG_HELLO || payload.len() < 8 {
                return Err(CollectiveError::Mismatch("malformed proc hello frame"));
            }
            let peer = u64::from_le_bytes(payload[..8].try_into().unwrap()) as usize;
            let addr = String::from_utf8(payload[8..].to_vec())
                .map_err(|_| CollectiveError::Mismatch("malformed proc hello frame"))?;
            if peer == 0 || peer >= world || addrs[peer].is_some() {
                return Err(CollectiveError::Mismatch(
                    "proc hello rank out of range or duplicated",
                ));
            }
            addrs[peer] = Some(addr);
            children.push((peer, stream));
        }
        let roster: Vec<String> = addrs.into_iter().map(|a| a.unwrap()).collect();
        let payload = roster.join("\n").into_bytes();
        for (peer, mut stream) in children {
            write_frame(&mut stream, TAG_ROSTER, &payload)
                .map_err(|_| CollectiveError::RankFailed(peer))?;
        }
        roster
    } else {
        let mut stream = connect_until(&cfg.root, deadline, 0)?;
        let mut hello = Vec::with_capacity(8 + mesh_addr.len());
        hello.extend_from_slice(&(rank as u64).to_le_bytes());
        hello.extend_from_slice(mesh_addr.as_bytes());
        write_frame(&mut stream, TAG_HELLO, &hello).map_err(|_| CollectiveError::RankFailed(0))?;
        let (tag, payload) = read_frame_deadline(&mut stream, deadline, 0)?;
        if tag != TAG_ROSTER {
            return Err(CollectiveError::Mismatch("malformed proc roster frame"));
        }
        let roster: Vec<String> = String::from_utf8(payload)
            .map_err(|_| CollectiveError::Mismatch("malformed proc roster frame"))?
            .split('\n')
            .map(str::to_string)
            .collect();
        if roster.len() != world {
            return Err(CollectiveError::Mismatch("proc roster size mismatch"));
        }
        roster
    };

    // Phase 3: pairwise mesh. Rank j dials every i < j; rank i accepts
    // from every j > i and learns who called from the IDENT frame.
    let mut streams: Vec<Option<TcpStream>> = (0..world).map(|_| None).collect();
    for peer in 0..rank {
        let mut s = connect_until(&roster[peer], deadline, peer)?;
        write_frame(&mut s, TAG_IDENT, &(rank as u64).to_le_bytes())
            .map_err(|_| CollectiveError::RankFailed(peer))?;
        streams[peer] = Some(s);
    }
    for _ in rank + 1..world {
        if remaining(deadline).is_none() {
            return Err(io_timeout(deadline, start));
        }
        let (mut s, _) = mesh_listener
            .accept()
            .map_err(|_| CollectiveError::RankFailed(rank))?;
        let (tag, payload) = read_frame_deadline(&mut s, deadline, rank)?;
        if tag != TAG_IDENT || payload.len() != 8 {
            return Err(CollectiveError::Mismatch("malformed proc ident frame"));
        }
        let peer = u64::from_le_bytes(payload.try_into().unwrap()) as usize;
        if peer <= rank || peer >= world || streams[peer].is_some() {
            return Err(CollectiveError::Mismatch(
                "proc ident rank out of range or duplicated",
            ));
        }
        streams[peer] = Some(s);
    }

    for s in streams.iter().flatten() {
        // Collective frames are written whole; Nagle only adds latency.
        let _ = s.set_nodelay(true);
        // Clear bootstrap read deadlines: the reader threads block
        // indefinitely and are woken by shutdown() on drop.
        let _ = s.set_read_timeout(None);
    }
    Ok(streams)
}
