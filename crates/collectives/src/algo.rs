//! Collective algorithms over a point-to-point [`Transport`].
//!
//! Horovod/NCCL pick among several allreduce algorithms by message size and
//! rank count (§II-D of the paper): latency-bound small messages go through
//! recursive halving/doubling, bandwidth-bound large messages through a
//! chunk-pipelined ring. This module reproduces that selection behind
//! [`CollectiveAlgo`] / [`AlgoPolicy`] — on *any* transport, in-process
//! thread mailboxes or multi-process TCP alike. It is the only
//! implementation of the collectives in the crate: both fabrics' boot
//! groups and every group a shrink returns run it.
//!
//! ## The determinism contract
//!
//! The whole repo pins one canonical reduction order: **left-associated
//! rank order** `((x₀ + x₁) + x₂) + …`, the bits a serial fold over the
//! ranks' buffers produces. Floating-point addition is not associative,
//! so the textbook versions of both fast algorithms would break
//! bit-reproducibility (a scatter-reduce ring accumulates each chunk in a
//! rotated rank order; halving/doubling combines pairwise like a tree).
//! Instead:
//!
//! * **Pipelined ring** here is a chunked *chain*: chunks flow rank
//!   0 → 1 → … → p−1, each rank folding its own contribution into the
//!   running partial with [`combine_into`] (which *is* left-associated rank
//!   order), then the finalized chunks flow back down p−1 → … → 0.
//!   Chunking keeps many chunks in flight, so the chain is pipelined: the
//!   per-rank data volume is 2n (vs the scatter-reduce ring's 2n(p−1)/p) —
//!   a deliberate bandwidth premium paid for bitwise determinism.
//! * **Halving/doubling** is recursive-doubling *allgather of the raw
//!   contributions* (log₂ p rounds, non-power-of-two ranks folded in and
//!   out) followed by a local rank-order reduce. Bandwidth-heavier than
//!   true reduce-scatter halving/doubling, but it runs in the log-round
//!   latency envelope — and it is only ever selected for small messages
//!   where the α term dominates anyway.
//! * **Flat** is a plain ring allgather + local rank-order reduce, the
//!   reference the property tests compare everything against.
//!
//! All three produce bit-identical results to each other and to that
//! serial fold, written out in the tests as the reference: pinned by
//! proptests in `tests/algos.rs`, on both transports.

use crate::communicator::{combine_into, finalize, Communicator, ReduceOp};
use crate::error::CollectiveError;
use crate::traffic::{Traffic, TrafficClass, TrafficCounter};
use crate::transport::{make_tag, Transport};
use kfac_telemetry::Span;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Tag phases: one namespace per algorithm stage so chunks of concurrent
/// stages never collide.
const PHASE_RING_REDUCE: u8 = 0;
const PHASE_RING_BCAST: u8 = 1;
const PHASE_GATHER: u8 = 2;
const PHASE_TREE: u8 = 3;
const PHASE_BARRIER: u8 = 4;
const PHASE_HD: u8 = 5;

/// Which allreduce algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveAlgo {
    /// Ring allgather of raw contributions + local rank-order reduce.
    /// The reference algorithm; O(p·n) bytes per rank.
    Flat,
    /// Chunk-pipelined chain reduce + chain broadcast. Bandwidth-bound
    /// workhorse for large messages.
    PipelinedRing,
    /// Recursive-doubling allgather + local rank-order reduce. Log-round
    /// latency; selected for small messages.
    HalvingDoubling,
    /// Pick by message size via [`AlgoPolicy::select`].
    Auto,
}

impl CollectiveAlgo {
    /// Stable name used in telemetry tags and accepted by [`CollectiveAlgo::parse`].
    pub fn name(self) -> &'static str {
        match self {
            CollectiveAlgo::Flat => "flat",
            CollectiveAlgo::PipelinedRing => "pipelined-ring",
            CollectiveAlgo::HalvingDoubling => "halving-doubling",
            CollectiveAlgo::Auto => "auto",
        }
    }

    /// Parse the `KFAC_COMM_ALGO` spelling (aliases accepted).
    pub fn parse(s: &str) -> Option<CollectiveAlgo> {
        match s.trim().to_ascii_lowercase().as_str() {
            "flat" => Some(CollectiveAlgo::Flat),
            "ring" | "pipelined-ring" | "pipelined_ring" => Some(CollectiveAlgo::PipelinedRing),
            "hd" | "halving-doubling" | "halving_doubling" => Some(CollectiveAlgo::HalvingDoubling),
            "auto" => Some(CollectiveAlgo::Auto),
            _ => None,
        }
    }
}

/// Size-based algorithm selection policy, the `CollectiveAlgo` dial plus
/// its thresholds.
#[derive(Debug, Clone, Copy)]
pub struct AlgoPolicy {
    /// Forced algorithm, or [`CollectiveAlgo::Auto`] for size-based choice.
    pub algo: CollectiveAlgo,
    /// Pipelined-ring chunk size in elements (f32s).
    pub chunk_elems: usize,
    /// `Auto`: messages of at most this many bytes use halving/doubling.
    /// The default sits inside the measured crossover bracket of
    /// `BENCH_allreduce.json` (see `xp bench-allreduce`; pinned by
    /// `kfac_cluster::calibrate`'s tests).
    pub hd_max_bytes: usize,
}

impl Default for AlgoPolicy {
    fn default() -> Self {
        AlgoPolicy {
            algo: CollectiveAlgo::Auto,
            // 64 KiB chunks: large enough to amortize per-message framing,
            // small enough that 4-rank chains keep several chunks in
            // flight for megabyte gradients.
            chunk_elems: 16 * 1024,
            // Both algorithms earn their place on the 4-process localhost
            // TCP sweep in BENCH_allreduce.json: halving/doubling is 1.2–2.5×
            // faster up to 16 KiB (log p latency-bound rounds against a
            // 2(p−1)-hop chain), the pipelined ring 1.3–6× faster from
            // 64 KiB up. The threshold is the geometric midpoint of that
            // measured bracket. (At 2 processes the bracket is 64–256 KiB,
            // so 32 KiB is on halving/doubling's side there too.)
            hd_max_bytes: 32 * 1024,
        }
    }
}

impl AlgoPolicy {
    /// The default policy with `KFAC_COMM_ALGO` read straight from the
    /// process environment. Kept only for `stepbench`, which calls it by
    /// this name (and refuses to start under any `KFAC_*` variable, so it
    /// always gets the default); everything in this workspace takes the
    /// policy as a value resolved by `kfac_harness::runtime`.
    ///
    /// # Panics
    /// Panics on a value [`CollectiveAlgo::parse`] rejects.
    pub fn from_env() -> AlgoPolicy {
        let algo = match std::env::var("KFAC_COMM_ALGO") {
            Ok(s) => CollectiveAlgo::parse(&s).unwrap_or_else(|| {
                panic!("KFAC_COMM_ALGO={s:?} invalid; expected flat|ring|hd|auto")
            }),
            Err(_) => CollectiveAlgo::Auto,
        };
        AlgoPolicy {
            algo,
            ..AlgoPolicy::default()
        }
    }

    /// Resolve the algorithm for a message of `bytes` across `size` ranks.
    pub fn select(&self, bytes: usize, size: usize) -> CollectiveAlgo {
        match self.algo {
            CollectiveAlgo::Auto => {
                if size <= 1 {
                    CollectiveAlgo::Flat
                } else if bytes <= self.hd_max_bytes {
                    CollectiveAlgo::HalvingDoubling
                } else {
                    CollectiveAlgo::PipelinedRing
                }
            }
            forced => forced,
        }
    }
}

/// Chunk-pipelined chain allreduce (see module docs for why a chain and
/// not a scatter-reduce ring).
pub fn pipelined_ring_allreduce(
    t: &dyn Transport,
    seq: u64,
    buf: &mut [f32],
    op: ReduceOp,
    chunk_elems: usize,
) -> Result<(), CollectiveError> {
    let p = t.size();
    if p == 1 {
        return Ok(());
    }
    let rank = t.rank();
    let chunk = chunk_elems.max(1);
    // An empty buffer still runs one (empty) chunk through the chain so
    // the collective keeps its group-synchronizing behavior.
    let len = buf.len();
    let nchunks = len.div_ceil(chunk).max(1);
    let range = move |c: usize| c * chunk..len.min((c + 1) * chunk);

    if rank == 0 {
        // Head: stream every chunk into the chain, then collect the
        // finalized chunks coming back.
        for c in 0..nchunks {
            t.try_send(
                1,
                make_tag(seq, PHASE_RING_REDUCE, c as u32),
                &buf[range(c)],
            )?;
        }
        for c in 0..nchunks {
            let done = t.try_recv(1, make_tag(seq, PHASE_RING_BCAST, c as u32))?;
            let r = range(c);
            if done.len() != r.len() {
                return Err(CollectiveError::Mismatch(
                    "allreduce length mismatch across ranks",
                ));
            }
            buf[r].copy_from_slice(&done);
        }
        return Ok(());
    }

    // Middle and tail ranks: fold own contribution into the running
    // partial, forward; the tail finalizes and reverses the flow.
    for c in 0..nchunks {
        let r = range(c);
        let mut acc = t.try_recv(rank - 1, make_tag(seq, PHASE_RING_REDUCE, c as u32))?;
        if acc.len() != r.len() {
            return Err(CollectiveError::Mismatch(
                "allreduce length mismatch across ranks",
            ));
        }
        combine_into(&mut acc, &buf[r.clone()], op);
        if rank < p - 1 {
            t.try_send(rank + 1, make_tag(seq, PHASE_RING_REDUCE, c as u32), &acc)?;
        } else {
            finalize(&mut acc, op, p);
            buf[r].copy_from_slice(&acc);
            t.try_send(rank - 1, make_tag(seq, PHASE_RING_BCAST, c as u32), &acc)?;
        }
    }
    if rank < p - 1 {
        for c in 0..nchunks {
            let done = t.try_recv(rank + 1, make_tag(seq, PHASE_RING_BCAST, c as u32))?;
            let r = range(c);
            if done.len() != r.len() {
                return Err(CollectiveError::Mismatch(
                    "allreduce length mismatch across ranks",
                ));
            }
            buf[r].copy_from_slice(&done);
            if rank > 0 {
                t.try_send(rank - 1, make_tag(seq, PHASE_RING_BCAST, c as u32), &done)?;
            }
        }
    }
    Ok(())
}

/// The origin ranks whose raw contributions `core` holds once its
/// recursive-doubling group has grown to `group` members, given `q` core
/// ranks and `extra` folded-in ranks (`extra = p - q`).
fn hd_origins(core: usize, group: usize, q: usize, extra: usize) -> Vec<usize> {
    let base = core & !(group - 1);
    let mut v = Vec::with_capacity(group * 2);
    for c in base..base + group {
        v.push(c);
        if c < extra {
            v.push(c + q);
        }
    }
    v.sort_unstable();
    v
}

/// Recursive halving/doubling allreduce: allgather the raw contributions
/// in log₂ p rounds, then reduce locally in rank order (see module docs).
pub fn halving_doubling_allreduce(
    t: &dyn Transport,
    seq: u64,
    buf: &mut [f32],
    op: ReduceOp,
) -> Result<(), CollectiveError> {
    let p = t.size();
    if p == 1 {
        return Ok(());
    }
    let rank = t.rank();
    let n = buf.len();
    let q = {
        // Largest power of two ≤ p.
        let mut q = 1usize;
        while q * 2 <= p {
            q *= 2;
        }
        q
    };
    let extra = p - q;
    let mut blocks: Vec<Option<Vec<f32>>> = (0..p).map(|_| None).collect();
    blocks[rank] = Some(buf.to_vec());

    // Fold-in: ranks ≥ q hand their contribution to rank − q and sit out
    // the doubling rounds.
    if rank >= q {
        t.try_send(rank - q, make_tag(seq, PHASE_HD, 0), buf)?;
    } else if rank < extra {
        let b = t.try_recv(rank + q, make_tag(seq, PHASE_HD, 0))?;
        if b.len() != n {
            return Err(CollectiveError::Mismatch(
                "allreduce length mismatch across ranks",
            ));
        }
        blocks[rank + q] = Some(b);
    }

    let rounds = q.trailing_zeros();
    if rank < q {
        let mut group = 1usize;
        for round in 1..=rounds {
            let partner = rank ^ group;
            let mine = hd_origins(rank, group, q, extra);
            let theirs = hd_origins(partner, group, q, extra);
            let mut payload = Vec::with_capacity(mine.len() * n);
            for &o in &mine {
                payload.extend_from_slice(blocks[o].as_ref().expect("own block present"));
            }
            t.try_send(partner, make_tag(seq, PHASE_HD, round), &payload)?;
            let got = t.try_recv(partner, make_tag(seq, PHASE_HD, round))?;
            if got.len() != theirs.len() * n {
                return Err(CollectiveError::Mismatch(
                    "allreduce length mismatch across ranks",
                ));
            }
            for (k, &o) in theirs.iter().enumerate() {
                blocks[o] = Some(got[k * n..(k + 1) * n].to_vec());
            }
            group *= 2;
        }
    }

    // Fold-out: the gathered set goes back to the ranks that sat out.
    let final_round = rounds + 1;
    if rank < extra {
        let mut payload = Vec::with_capacity(p * n);
        for b in &blocks {
            payload.extend_from_slice(b.as_ref().expect("all blocks gathered"));
        }
        t.try_send(rank + q, make_tag(seq, PHASE_HD, final_round), &payload)?;
    } else if rank >= q {
        let got = t.try_recv(rank - q, make_tag(seq, PHASE_HD, final_round))?;
        if got.len() != p * n {
            return Err(CollectiveError::Mismatch(
                "allreduce length mismatch across ranks",
            ));
        }
        for o in 0..p {
            blocks[o] = Some(got[o * n..(o + 1) * n].to_vec());
        }
    }

    // Local reduce in canonical rank order.
    let mut acc = blocks[0].take().expect("block 0 gathered");
    for b in blocks.iter().skip(1) {
        combine_into(&mut acc, b.as_ref().expect("block gathered"), op);
    }
    finalize(&mut acc, op, p);
    buf.copy_from_slice(&acc);
    Ok(())
}

/// Ring allgather with per-rank variable payload lengths (frames carry
/// their own length, so no length pre-exchange is needed).
pub fn ring_allgather(
    t: &dyn Transport,
    seq: u64,
    payload: &[f32],
) -> Result<Vec<Vec<f32>>, CollectiveError> {
    let p = t.size();
    let rank = t.rank();
    let mut out: Vec<Vec<f32>> = vec![Vec::new(); p];
    out[rank] = payload.to_vec();
    if p == 1 {
        return Ok(out);
    }
    let right = (rank + 1) % p;
    let left = (rank + p - 1) % p;
    for s in 0..p - 1 {
        let send_origin = (rank + p - s) % p;
        t.try_send(
            right,
            make_tag(seq, PHASE_GATHER, s as u32),
            &out[send_origin],
        )?;
        let recv_origin = (rank + p - 1 - s) % p;
        out[recv_origin] = t.try_recv(left, make_tag(seq, PHASE_GATHER, s as u32))?;
    }
    Ok(out)
}

/// Reference allreduce: ring allgather of raw contributions + local
/// rank-order reduce.
pub fn flat_allreduce(
    t: &dyn Transport,
    seq: u64,
    buf: &mut [f32],
    op: ReduceOp,
) -> Result<(), CollectiveError> {
    let p = t.size();
    if p == 1 {
        return Ok(());
    }
    let gathered = ring_allgather(t, seq, buf)?;
    if gathered.iter().any(|g| g.len() != buf.len()) {
        return Err(CollectiveError::Mismatch(
            "allreduce length mismatch across ranks",
        ));
    }
    let mut acc = gathered[0].clone();
    for g in gathered.iter().skip(1) {
        combine_into(&mut acc, g, op);
    }
    finalize(&mut acc, op, p);
    buf.copy_from_slice(&acc);
    Ok(())
}

/// Binomial-tree broadcast from `root`.
pub fn binomial_broadcast(
    t: &dyn Transport,
    seq: u64,
    buf: &mut [f32],
    root: usize,
) -> Result<(), CollectiveError> {
    let p = t.size();
    if root >= p {
        return Err(CollectiveError::Mismatch("broadcast root out of range"));
    }
    if p == 1 {
        return Ok(());
    }
    let rank = t.rank();
    let vr = (rank + p - root) % p;
    if vr != 0 {
        // Parent = vr with its lowest set bit cleared.
        let lsb = vr & vr.wrapping_neg();
        let parent = (vr - lsb + root) % p;
        let got = t.try_recv(parent, make_tag(seq, PHASE_TREE, vr as u32))?;
        if got.len() != buf.len() {
            return Err(CollectiveError::Mismatch("broadcast length mismatch"));
        }
        buf.copy_from_slice(&got);
    }
    // Children: vr + m for powers of two m below vr's lowest set bit
    // (every power of two for the root).
    let limit = if vr == 0 { p } else { vr & vr.wrapping_neg() };
    let mut m = 1;
    while m < limit {
        if vr + m < p {
            let child = (vr + m + root) % p;
            t.try_send(child, make_tag(seq, PHASE_TREE, (vr + m) as u32), buf)?;
        }
        m <<= 1;
    }
    Ok(())
}

/// Dissemination barrier: ⌈log₂ p⌉ rounds of token exchange.
pub fn dissemination_barrier(t: &dyn Transport, seq: u64) -> Result<(), CollectiveError> {
    let p = t.size();
    if p == 1 {
        return Ok(());
    }
    let rank = t.rank();
    let mut step = 1usize;
    let mut round = 0u32;
    while step < p {
        let to = (rank + step) % p;
        let from = (rank + p - step) % p;
        t.try_send(to, make_tag(seq, PHASE_BARRIER, round), &[])?;
        t.try_recv(from, make_tag(seq, PHASE_BARRIER, round))?;
        step <<= 1;
        round += 1;
    }
    Ok(())
}

/// A [`Communicator`] built from a [`Transport`] plus an [`AlgoPolicy`].
///
/// This is the bridge that gives any point-to-point backend the full
/// Horovod-style primitive set: [`crate::ThreadComm`] embeds one over
/// in-process mailboxes and the multi-process [`crate::proc::ProcComm`]
/// one over its TCP mesh, each behind an epoch-fenced membership view
/// ([`crate::ShrunkComm`]). Per-collective
/// sequence numbers keep concurrent chunk traffic of successive
/// collectives disjoint; the MPI ordering contract (every rank issues the
/// same collective sequence) keeps the numbers agreed group-wide.
pub struct AlgoComm<T: Transport> {
    transport: T,
    policy: AlgoPolicy,
    seq: AtomicU64,
    traffic: Arc<TrafficCounter>,
}

impl<T: Transport> AlgoComm<T> {
    /// Wrap `transport` with the given selection policy.
    pub fn new(transport: T, policy: AlgoPolicy) -> Self {
        AlgoComm {
            transport,
            policy,
            seq: AtomicU64::new(0),
            traffic: TrafficCounter::new(),
        }
    }

    /// The underlying transport endpoint.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// The active selection policy.
    pub fn policy(&self) -> AlgoPolicy {
        self.policy
    }

    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Mirror traffic into this rank's counter and the ambient telemetry
    /// registry, tagging the algorithm that carried the bytes.
    fn record(&self, class: TrafficClass, bytes: u64, algo: &'static str) {
        self.traffic.record(class, bytes);
        if let Some((registry, _)) = kfac_telemetry::current() {
            registry.counter("comm/ops").inc();
            registry.counter(class.byte_counter_name()).add(bytes);
            registry.counter(&format!("comm/algo/{algo}")).inc();
        }
    }
}

impl<T: Transport> Communicator for AlgoComm<T> {
    fn rank(&self) -> usize {
        self.transport.rank()
    }

    fn size(&self) -> usize {
        self.transport.size()
    }

    fn try_allreduce_tagged(
        &self,
        buf: &mut [f32],
        op: ReduceOp,
        class: TrafficClass,
    ) -> Result<(), CollectiveError> {
        let bytes = std::mem::size_of_val(buf);
        let algo = self.policy.select(bytes, self.size());
        let _span = Span::enter("comm/allreduce")
            .with("class", class.name())
            .with("bytes", bytes as u64)
            .with("algo", algo.name());
        self.record(class, bytes as u64, algo.name());
        let seq = self.next_seq();
        match algo {
            CollectiveAlgo::Flat => flat_allreduce(&self.transport, seq, buf, op),
            CollectiveAlgo::PipelinedRing => {
                pipelined_ring_allreduce(&self.transport, seq, buf, op, self.policy.chunk_elems)
            }
            CollectiveAlgo::HalvingDoubling => {
                halving_doubling_allreduce(&self.transport, seq, buf, op)
            }
            CollectiveAlgo::Auto => unreachable!("select() resolves Auto"),
        }
    }

    fn try_allgather_tagged(
        &self,
        payload: &[f32],
        class: TrafficClass,
    ) -> Result<Vec<Vec<f32>>, CollectiveError> {
        let bytes = std::mem::size_of_val(payload);
        let _span = Span::enter("comm/allgather")
            .with("class", class.name())
            .with("bytes", bytes as u64)
            .with("algo", "ring-allgather");
        self.record(class, bytes as u64, "ring-allgather");
        let seq = self.next_seq();
        ring_allgather(&self.transport, seq, payload)
    }

    fn try_broadcast_tagged(
        &self,
        buf: &mut [f32],
        root: usize,
        class: TrafficClass,
    ) -> Result<(), CollectiveError> {
        let bytes = std::mem::size_of_val(buf);
        let _span = Span::enter("comm/broadcast")
            .with("class", class.name())
            .with("bytes", bytes as u64)
            .with("root", root)
            .with("algo", "binomial-tree");
        self.record(class, bytes as u64, "binomial-tree");
        let seq = self.next_seq();
        binomial_broadcast(&self.transport, seq, buf, root)
    }

    fn barrier(&self) {
        let _span = Span::enter("comm/barrier");
        let seq = self.next_seq();
        dissemination_barrier(&self.transport, seq).unwrap_or_else(|e| panic!("{e}"));
    }

    fn traffic(&self) -> Traffic {
        self.traffic.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hd_origins_cover_all_ranks_at_final_group() {
        for p in [2usize, 3, 4, 5, 6, 7, 8, 12] {
            let mut q = 1;
            while q * 2 <= p {
                q *= 2;
            }
            let extra = p - q;
            let all = hd_origins(0, q, q, extra);
            let expect: Vec<usize> = (0..p).collect();
            assert_eq!(all, expect, "p={p}");
        }
    }

    #[test]
    fn hd_origins_partition_within_round() {
        // At every round the partner groups must own disjoint origin
        // sets whose union is stable under merging.
        let (p, q) = (7usize, 4usize);
        let extra = p - q;
        let a = hd_origins(0, 2, q, extra); // group {0,1}
        let b = hd_origins(2, 2, q, extra); // group {2,3}
        assert_eq!(a, vec![0, 1, 4, 5]);
        assert_eq!(b, vec![2, 3, 6]);
    }

    #[test]
    fn policy_auto_selects_by_size() {
        let p = AlgoPolicy::default();
        assert_eq!(p.select(1024, 4), CollectiveAlgo::HalvingDoubling);
        // The default threshold sits between the sizes BENCH_allreduce.json
        // measured either side of the crossover: 16 KiB is latency-bound
        // (halving/doubling), 64 KiB is bandwidth-bound (ring).
        assert_eq!(p.select(16 * 1024, 4), CollectiveAlgo::HalvingDoubling);
        assert_eq!(p.select(p.hd_max_bytes, 4), CollectiveAlgo::HalvingDoubling);
        assert_eq!(p.select(64 * 1024, 4), CollectiveAlgo::PipelinedRing);
        assert_eq!(p.select(8 << 20, 4), CollectiveAlgo::PipelinedRing);
        assert_eq!(p.select(8 << 20, 1), CollectiveAlgo::Flat);
        let forced = AlgoPolicy {
            algo: CollectiveAlgo::Flat,
            ..AlgoPolicy::default()
        };
        assert_eq!(forced.select(8 << 20, 4), CollectiveAlgo::Flat);
    }

    #[test]
    fn algo_names_round_trip() {
        for a in [
            CollectiveAlgo::Flat,
            CollectiveAlgo::PipelinedRing,
            CollectiveAlgo::HalvingDoubling,
            CollectiveAlgo::Auto,
        ] {
            assert_eq!(CollectiveAlgo::parse(a.name()), Some(a));
        }
        assert_eq!(CollectiveAlgo::parse("nccl"), None);
    }
}
