//! Point-to-point transport under the collective algorithm layer.
//!
//! The algorithm layer ([`crate::algo`]) expresses ring, halving/doubling
//! and tree collectives purely in terms of tagged point-to-point messages
//! between ranks. Anything that can move a tagged `f32` payload from one
//! rank to another can host every algorithm: the in-process mailbox mesh
//! ([`crate::MeshTransport`]) and the multi-process TCP mesh
//! ([`crate::proc::ProcTransport`]) both implement this trait and share
//! their receive side ([`crate::Mailbox`]), so one algorithm
//! implementation serves both fabrics and is *bitwise identical* across
//! them by construction.
//!
//! Semantics:
//!
//! * `try_send` is **non-blocking and buffered**: it enqueues (or writes to
//!   a kernel socket buffer drained by a peer reader thread) and returns.
//!   Messages between a `(sender, receiver)` pair are delivered in send
//!   order.
//! * `try_recv` blocks until a message with the exact `(from, tag)` key is
//!   available, up to the transport's configured deadline, then fails with
//!   [`CollectiveError::Timeout`] carrying the time it waited. A sender
//!   that is permanently gone — or that has given up on the epoch's
//!   collectives over someone else's death ([`gave_up_tag`]) — surfaces as
//!   [`CollectiveError::RankFailed`] naming the dead rank. So does
//!   `try_send` to a rank already known dead, which queues nothing.
//! * Tags disambiguate messages of different operations/phases/chunks that
//!   may be in flight concurrently (the pipelined algorithms keep many
//!   chunks outstanding). See [`make_tag`].

use crate::error::CollectiveError;

/// A rank's endpoint in a fully-connected point-to-point mesh.
pub trait Transport: Send + Sync {
    /// This endpoint's rank in `0..size()`.
    fn rank(&self) -> usize;

    /// Number of ranks in the mesh.
    fn size(&self) -> usize;

    /// Buffered, ordered send of `payload` to rank `to` under `tag`.
    fn try_send(&self, to: usize, tag: u64, payload: &[f32]) -> Result<(), CollectiveError>;

    /// Blocking receive of the next message from rank `from` with exactly
    /// this `tag`, bounded by the transport deadline.
    fn try_recv(&self, from: usize, tag: u64) -> Result<Vec<f32>, CollectiveError>;
}

/// Bits of the tag reserved for the chunk/step index.
const IDX_BITS: u32 = 20;
/// Bits of the tag reserved for the algorithm phase.
const PHASE_BITS: u32 = 4;

/// Bits of the tag carrying collective payload (`op_seq`/phase/idx). The
/// top ten bits are reserved for the membership plane: 8 epoch bits and
/// the control-frame namespace.
pub const PAYLOAD_BITS: u32 = 54;
/// Mask selecting the payload portion of a tag.
pub const PAYLOAD_MASK: u64 = (1 << PAYLOAD_BITS) - 1;
/// Bit offset of the membership epoch within a data tag.
pub const EPOCH_SHIFT: u32 = PAYLOAD_BITS;
/// Width of the epoch field; epochs fence modulo 256, far beyond any
/// realistic number of shrink events in one run.
pub const EPOCH_BITS: u32 = 8;
/// Control-plane namespace flag (heartbeats, membership agreement).
/// Control frames never collide with data tags of any epoch.
pub const CTRL_BIT: u64 = 1 << 63;

/// Pack `(op_seq, phase, idx)` into one wire tag.
///
/// `op_seq` is a per-endpoint collective sequence number (every rank issues
/// the same collective sequence, so sequence numbers agree group-wide),
/// `phase` separates stages within one collective (reduce vs broadcast legs
/// of the ring), and `idx` is the chunk or round index within a phase.
/// 2^20 chunks × 2^4 phases leaves 2^30 collectives inside the 54-bit
/// payload field before wraparound.
pub fn make_tag(op_seq: u64, phase: u8, idx: u32) -> u64 {
    debug_assert!(idx < (1 << IDX_BITS));
    debug_assert!((phase as u32) < (1 << PHASE_BITS));
    ((op_seq << (IDX_BITS + PHASE_BITS)) | ((phase as u64) << IDX_BITS) | idx as u64) & PAYLOAD_MASK
}

/// Stamp a data tag with a membership epoch.
///
/// Epoch 0 (the boot group) maps every tag to itself, so a run that never
/// shrinks is bitwise identical on the wire to a build without fencing.
/// After a shrink, survivors stamp the new epoch into every frame and
/// receivers key their mailboxes on the stamped tag — a straggler's
/// old-epoch frame can never match a new-epoch receive.
pub fn fence_tag(epoch: u64, tag: u64) -> u64 {
    ((epoch & ((1 << EPOCH_BITS) - 1)) << EPOCH_SHIFT) | (tag & PAYLOAD_MASK)
}

/// Extract the epoch stamp from a data tag.
pub fn tag_epoch(tag: u64) -> u64 {
    (tag >> EPOCH_SHIFT) & ((1 << EPOCH_BITS) - 1)
}

/// Control tag: periodic liveness heartbeat (payload ignored).
pub const TAG_HEARTBEAT: u64 = CTRL_BIT | (3 << 40);

/// Control tag: membership-agreement PROPOSE carrying a dead-rank mask
/// for the round that forms `epoch`.
pub fn propose_tag(epoch: u64) -> u64 {
    CTRL_BIT | (1 << 40) | (epoch & 0xffff_ffff)
}

/// Control tag: membership-agreement COMMIT carrying the final dead-rank
/// mask for the round that forms `epoch`.
pub fn commit_tag(epoch: u64) -> u64 {
    CTRL_BIT | (2 << 40) | (epoch & 0xffff_ffff)
}

/// Control tag: the sender has given up on the collectives of `epoch`
/// because a member died (payload: the culprit's original rank). Whatever
/// it had not sent by then will never come, so a peer waiting on it fails
/// with the culprit now instead of at its deadline — and a peer waiting on
/// anyone else keeps waiting: a death alone dooms no collective the
/// victim had already completed.
pub fn gave_up_tag(epoch: u64) -> u64 {
    CTRL_BIT | (4 << 40) | (epoch & 0xffff_ffff)
}

/// The epoch of a [`gave_up_tag`], or `None` for any other tag.
pub fn gave_up_epoch(tag: u64) -> Option<u64> {
    (tag & !0xffff_ffff == gave_up_tag(0)).then_some(tag & 0xffff_ffff)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_unique_across_fields() {
        let mut seen = std::collections::HashSet::new();
        for seq in 0..4u64 {
            for phase in 0..4u8 {
                for idx in 0..8u32 {
                    assert!(seen.insert(make_tag(seq, phase, idx)));
                }
            }
        }
    }

    #[test]
    fn epoch_zero_fencing_is_identity() {
        for seq in 0..16u64 {
            for phase in 0..4u8 {
                let t = make_tag(seq, phase, 7);
                assert_eq!(fence_tag(0, t), t);
                assert_eq!(tag_epoch(fence_tag(0, t)), 0);
            }
        }
    }

    #[test]
    fn fenced_tags_differ_across_epochs_and_round_trip() {
        let t = make_tag(9, 2, 3);
        let mut seen = std::collections::HashSet::new();
        for epoch in 0..8u64 {
            let f = fence_tag(epoch, t);
            assert!(seen.insert(f));
            assert_eq!(tag_epoch(f), epoch);
            assert_eq!(f & PAYLOAD_MASK, t);
        }
    }

    #[test]
    fn control_tags_never_collide_with_fenced_data_tags() {
        let data = fence_tag(255, make_tag(u64::MAX >> 34, 15, (1 << 20) - 1));
        assert_eq!(data & CTRL_BIT, 0);
        for ctrl in [TAG_HEARTBEAT, propose_tag(7), commit_tag(7), gave_up_tag(7)] {
            assert_ne!(ctrl & CTRL_BIT, 0);
            assert_eq!(gave_up_epoch(ctrl), (ctrl == gave_up_tag(7)).then_some(7));
        }
        assert_ne!(propose_tag(3), commit_tag(3));
        assert_ne!(propose_tag(3), propose_tag(4));
    }
}
