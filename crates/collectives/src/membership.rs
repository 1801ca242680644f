//! Elastic group membership: epoch-fenced views over a point-to-point
//! transport, a min-rank–coordinated agreement protocol, and shrunken
//! communicators that continue on the survivors of a permanent rank loss.
//!
//! The paper's K-FAC-opt placement is recomputable: every rank derives the
//! same factor→rank assignment from `(factors, world_size)` with no
//! communication (Algorithm 1), so after a rank dies the survivors can
//! re-derive a consistent work distribution for the smaller world. This
//! module supplies the communication half of that story:
//!
//! * [`GroupView`] — an immutable `(epoch, rank, members)` snapshot of the
//!   group. Member ids are *original* (epoch-0) ranks, sorted ascending;
//!   a survivor's new rank is its index in that list, so views are
//!   contiguous and identical on every survivor by construction.
//! * [`ViewTransport`] — adapts a base [`Transport`] to a view: ranks are
//!   translated through `members[]` and every data tag is stamped with the
//!   view's epoch ([`fence_tag`]). Epoch 0 is the identity mapping, so a
//!   run that never shrinks is bitwise identical on the wire to a build
//!   without fencing. Frames stamped with an old epoch key different
//!   mailbox entries and are additionally purged/dropped by the [`Mailbox`] —
//!   stragglers from a dead epoch cannot corrupt the new group.
//! * [`Membership`] — the backend surface the agreement protocol needs on
//!   top of `Transport`: the endpoint's [`Mailbox`] (failure
//!   observations, epoch fencing, and a deadline-bounded receive that
//!   fails only for the *addressed* peer so agreement can keep polling
//!   while other peers are dead) and failure injection (`mark_dead`,
//!   which keeps chaos tests deterministic on the thread fabric).
//! * [`agree_on_survivors`] — the reconfiguration round. The minimum
//!   believed-live original rank acts as coordinator; survivors resend
//!   PROPOSE(dead-mask) and short-poll for COMMIT until the coordinator
//!   observes a stable union and commits it. Because dead sets only grow
//!   and a failed receive names its culprit, every party converges on the
//!   same coordinator and the same survivor set, or the round times out
//!   and the caller falls back to the abort rung of the degradation
//!   ladder.
//! * [`ShrunkComm`] — an [`AlgoComm`] over a [`ViewTransport`], i.e. a
//!   full [`Communicator`] for one membership view, itself re-shrinkable
//!   via [`Elastic`]. Both fabrics' boot groups are one (the identity
//!   view at epoch 0), so a group before a shrink and after it is the
//!   same type running the same code.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::algo::{AlgoComm, AlgoPolicy};
use crate::communicator::{Communicator, ReduceOp};
use crate::error::CollectiveError;
use crate::mailbox::{FailOn, Mailbox};
use crate::traffic::{Traffic, TrafficClass};
use crate::transport::{commit_tag, fence_tag, gave_up_tag, propose_tag, Transport};
use kfac_telemetry::Span;

/// Default wall-clock budget for one membership-agreement round.
pub const AGREEMENT_DEADLINE: Duration = Duration::from_secs(10);

/// Poll interval for agreement receives: short enough that a coordinator
/// change is noticed quickly, long enough not to spin.
const AGREE_POLL: Duration = Duration::from_millis(150);

/// An immutable snapshot of group membership at one epoch.
///
/// `members` holds the *original* (epoch-0) rank ids of the live group,
/// sorted ascending. A member's rank in this view is its index, so the
/// view is contiguous (`0..world`) and every survivor derives the same
/// view from the same member set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupView {
    /// Membership epoch: 0 at boot, +1 per committed shrink.
    pub epoch: u64,
    /// This endpoint's rank within `members` (its index).
    pub rank: usize,
    /// Original rank ids of the live group, sorted ascending.
    pub members: Vec<usize>,
}

impl GroupView {
    /// The boot view: epoch 0, identity membership over `world` ranks.
    pub fn boot(rank: usize, world: usize) -> Self {
        assert!(rank < world, "rank {rank} outside world {world}");
        GroupView {
            epoch: 0,
            rank,
            members: (0..world).collect(),
        }
    }

    /// Number of live ranks in this view.
    pub fn world(&self) -> usize {
        self.members.len()
    }

    /// This endpoint's original (epoch-0) rank id.
    pub fn original_rank(&self) -> usize {
        self.members[self.rank]
    }

    /// Translate a view rank to its original rank id.
    pub fn to_original(&self, view_rank: usize) -> usize {
        self.members[view_rank]
    }

    /// Translate an original rank id to its view rank, if a member.
    pub fn from_original(&self, original: usize) -> Option<usize> {
        self.members.binary_search(&original).ok()
    }
}

/// Backend surface the membership plane needs beyond [`Transport`]: the
/// endpoint's [`Mailbox`] — failure observations
/// ([`Mailbox::observed_dead`]), epoch fencing ([`Mailbox::fence`]) and
/// the receive that fails only for the addressed peer
/// ([`FailOn::SenderDead`]) all live there — and failure injection.
///
/// All rank arguments are *original* (epoch-0) ids: membership operates
/// beneath the view translation.
pub trait Membership: Transport {
    /// This endpoint's receive side.
    fn mailbox(&self) -> &Mailbox;

    /// Inject a failure observation for `original` (used by the victim or
    /// by chaos tests; also called on survivors when agreement learns of
    /// a death second-hand). Wakes any blocked receivers. A rank that
    /// marks *itself* dead is from then on observed dead by every peer.
    fn mark_dead(&self, original: usize);
}

/// A [`Transport`] restricted to a [`GroupView`]: ranks are translated
/// through the member list and data tags are stamped with the view epoch.
pub struct ViewTransport<T: Transport> {
    base: Arc<T>,
    view: GroupView,
}

impl<T: Transport> ViewTransport<T> {
    /// Wrap `base` in `view`. The view's members must all be valid base
    /// ranks.
    pub fn new(base: Arc<T>, view: GroupView) -> Self {
        debug_assert!(view.members.iter().all(|&m| m < base.size()));
        ViewTransport { base, view }
    }

    /// The underlying full-world transport.
    pub fn base(&self) -> &Arc<T> {
        &self.base
    }

    /// The membership view this transport is fenced to.
    pub fn view(&self) -> &GroupView {
        &self.view
    }

    /// A failed send or receive ends this rank's part in the epoch's
    /// collectives. If a death caused it, tell the other members so that
    /// whoever is waiting on this rank fails now, with the same culprit,
    /// rather than at its deadline ([`gave_up_tag`]); then map the culprit
    /// into view-rank space where possible, so callers above the view see
    /// it in their own coordinates.
    fn give_up(&self, e: CollectiveError) -> CollectiveError {
        let CollectiveError::RankFailed(orig) = e else {
            return e;
        };
        let notice = gave_up_tag(self.view.epoch);
        for &peer in &self.view.members {
            if peer != self.view.original_rank() {
                // Best effort: the culprit, for one, is not listening.
                let _ = self.base.try_send(peer, notice, &[orig as f32]);
            }
        }
        CollectiveError::RankFailed(self.view.from_original(orig).unwrap_or(orig))
    }
}

impl<T: Transport> Transport for ViewTransport<T> {
    fn rank(&self) -> usize {
        self.view.rank
    }

    fn size(&self) -> usize {
        self.view.world()
    }

    fn try_send(&self, to: usize, tag: u64, payload: &[f32]) -> Result<(), CollectiveError> {
        self.base
            .try_send(
                self.view.to_original(to),
                fence_tag(self.view.epoch, tag),
                payload,
            )
            .map_err(|e| self.give_up(e))
    }

    fn try_recv(&self, from: usize, tag: u64) -> Result<Vec<f32>, CollectiveError> {
        self.base
            .try_recv(self.view.to_original(from), fence_tag(self.view.epoch, tag))
            .map_err(|e| self.give_up(e))
    }
}

/// Run one epoch-fenced membership-agreement round and return the
/// committed next view.
///
/// Every survivor calls this with its current `view` plus a `dead_hint`
/// of original ranks it already believes dead (typically the culprit from
/// the failed collective). The protocol:
///
/// 1. Each party maintains a cumulative non-member mask over original
///    ranks: everyone outside `view.members`, plus observed/hinted/learned
///    deaths. Dead sets only grow.
/// 2. The coordinator is the minimum believed-live original rank.
///    Non-coordinators resend `PROPOSE(mask)` and short-poll for
///    `COMMIT`; a coordinator short-polls `PROPOSE` from every believed
///    survivor (overwrite-dedup per sender) and commits the union once it
///    is stable across all of them.
/// 3. A receive failing with `RankFailed(r)` teaches the caller that `r`
///    is dead; masks merge on receipt. Both mechanisms only grow the dead
///    set, so all parties converge on the same coordinator and the same
///    final mask, or the round exceeds `deadline` and returns
///    [`CollectiveError::Timeout`] (callers then fall to the abort rung).
///
/// On commit the caller's backend is fenced (`mark_dead` + `fence`) and
/// the new contiguous view (epoch + 1, survivors sorted by original id)
/// is returned. If the committed mask excludes the caller itself —
/// possible under false suspicion — the round fails with
/// `RankFailed(self)` rather than continuing in a split group.
pub fn agree_on_survivors<T: Membership + ?Sized>(
    base: &T,
    view: &GroupView,
    dead_hint: &[usize],
    deadline: Duration,
) -> Result<GroupView, CollectiveError> {
    let me = view.original_rank();
    let world = base.size();
    let mailbox = base.mailbox();
    let next_epoch = view.epoch + 1;
    let overall = Instant::now() + deadline;

    // Cumulative non-member mask over original ranks. Start from
    // everything already outside this view, then the caller's own
    // observations and hints.
    let mut dead = vec![false; world];
    for (r, d) in dead.iter_mut().enumerate() {
        if view.from_original(r).is_none() {
            *d = true;
        }
    }
    for &r in dead_hint {
        if r < world {
            dead[r] = true;
        }
    }
    let mut committed: Option<Vec<bool>> = None;

    'round: while committed.is_none() {
        if Instant::now() >= overall {
            return Err(CollectiveError::Timeout {
                waited_ms: deadline.as_millis() as u64,
            });
        }
        for r in mailbox.observed_dead() {
            if r < world {
                dead[r] = true;
            }
        }
        if dead[me] {
            // Someone committed us out of the group: do not continue in a
            // split view.
            return Err(CollectiveError::RankFailed(me));
        }
        let survivors: Vec<usize> = (0..world).filter(|&r| !dead[r]).collect();
        let coordinator = survivors[0];

        if me == coordinator {
            // Collect a PROPOSE from every other believed survivor;
            // restart whenever the union grows so the survivor set is
            // stable at commit time.
            let mut have: Vec<bool> = vec![false; world];
            have[me] = true;
            for &peer in survivors.iter().skip(1) {
                let poll = Instant::now() + AGREE_POLL;
                match mailbox.recv(
                    peer,
                    propose_tag(next_epoch),
                    poll.min(overall),
                    FailOn::SenderDead,
                ) {
                    Ok(mask) => {
                        let grew = merge_mask(&mut dead, &mask);
                        have[peer] = true;
                        if grew {
                            continue 'round;
                        }
                    }
                    Err(CollectiveError::RankFailed(_)) => {
                        dead[peer] = true;
                        continue 'round;
                    }
                    Err(_) => continue 'round, // timeout: re-derive and re-poll
                }
            }
            if survivors.iter().all(|&s| have[s]) {
                let mask: Vec<f32> = dead.iter().map(|&d| if d { 1.0 } else { 0.0 }).collect();
                for &peer in survivors.iter().skip(1) {
                    // A failed commit send marks the peer dead at the
                    // transport level; the next round (its re-PROPOSE
                    // timing out against a vanished coordinator on its
                    // side, or our own re-commit) sorts it out. We adopt
                    // regardless: commits only ever carry grown masks.
                    let _ = base.try_send(peer, commit_tag(next_epoch), &mask);
                }
                committed = Some(dead.clone());
            }
        } else {
            let mask: Vec<f32> = dead.iter().map(|&d| if d { 1.0 } else { 0.0 }).collect();
            if let Err(CollectiveError::RankFailed(_)) =
                base.try_send(coordinator, propose_tag(next_epoch), &mask)
            {
                dead[coordinator] = true;
                continue 'round;
            }
            let poll = Instant::now() + AGREE_POLL;
            match mailbox.recv(
                coordinator,
                commit_tag(next_epoch),
                poll.min(overall),
                FailOn::SenderDead,
            ) {
                Ok(mask) => {
                    // Adopt the committed mask *exactly* — every survivor
                    // must end up with the identical view. If we know of
                    // a death the commit missed, the first collective on
                    // the new group fails promptly and triggers the next
                    // shrink round.
                    committed = Some(mask.iter().map(|&m| m != 0.0).collect());
                }
                Err(CollectiveError::RankFailed(_)) => {
                    dead[coordinator] = true;
                }
                Err(_) => {} // timeout: resend the proposal
            }
        }
    }

    let final_dead = committed.expect("loop exits only on commit");
    if final_dead[me] {
        return Err(CollectiveError::RankFailed(me));
    }
    let members: Vec<usize> = (0..world).filter(|&r| !final_dead[r]).collect();
    let newly_dead: Vec<usize> = view
        .members
        .iter()
        .copied()
        .filter(|&r| final_dead[r])
        .collect();
    for &r in &newly_dead {
        base.mark_dead(r);
    }
    mailbox.fence(&newly_dead, next_epoch);
    let rank = members
        .iter()
        .position(|&r| r == me)
        .expect("self is a survivor");
    let _span = Span::enter("comm/membership_shrink")
        .with("epoch", next_epoch)
        .with("dead", newly_dead.len() as u64)
        .with("world", members.len() as u64);
    Ok(GroupView {
        epoch: next_epoch,
        rank,
        members,
    })
}

/// OR a received f32 dead-mask into `dead`; true if anything new appeared.
fn merge_mask(dead: &mut [bool], mask: &[f32]) -> bool {
    let mut grew = false;
    for (d, &m) in dead.iter_mut().zip(mask) {
        if m != 0.0 && !*d {
            *d = true;
            grew = true;
        }
    }
    grew
}

/// A communicator that can reconfigure to its survivors after a
/// permanent rank loss.
pub trait Elastic: Communicator {
    /// The communicator type produced by a shrink.
    type Shrunk: Elastic;

    /// Run membership agreement with the other survivors, fence the dead
    /// ranks behind a new epoch, and return a communicator for the
    /// shrunken contiguous group. `dead_hint` is in *this* communicator's
    /// rank space (typically the culprit of the failed collective).
    fn shrink(&self, dead_hint: &[usize]) -> Result<Self::Shrunk, CollectiveError>;

    /// Current membership epoch (0 = boot group).
    fn epoch(&self) -> u64;
}

/// A full [`Communicator`] over one membership view of a base transport:
/// the algorithm layer running on an epoch-fenced [`ViewTransport`]. The
/// survivors of a shrink run on one, and so do both fabrics' boot groups
/// ([`crate::ThreadComm`], [`crate::ProcComm`]: the identity view at
/// epoch 0).
pub struct ShrunkComm<T: Membership> {
    inner: AlgoComm<ViewTransport<T>>,
}

impl<T: Membership + 'static> ShrunkComm<T> {
    /// Build the communicator for `view` over `base`.
    pub fn new(base: Arc<T>, view: GroupView, policy: AlgoPolicy) -> Self {
        ShrunkComm {
            inner: AlgoComm::new(ViewTransport::new(base, view), policy),
        }
    }

    /// The membership view this communicator runs in.
    pub fn view(&self) -> &GroupView {
        self.inner.transport().view()
    }

    /// The algorithm policy in force.
    pub fn policy(&self) -> AlgoPolicy {
        self.inner.policy()
    }

    /// Inject a failure observation (original rank id) into the base
    /// transport — what chaos tests call; real failures on the proc
    /// fabric are detected by its reader/heartbeat threads.
    pub fn mark_dead(&self, original: usize) {
        self.inner.transport().base().mark_dead(original);
    }
}

impl<T: Membership + 'static> Communicator for ShrunkComm<T> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn try_allreduce_tagged(
        &self,
        buf: &mut [f32],
        op: ReduceOp,
        class: TrafficClass,
    ) -> Result<(), CollectiveError> {
        self.inner.try_allreduce_tagged(buf, op, class)
    }

    fn try_allgather_tagged(
        &self,
        payload: &[f32],
        class: TrafficClass,
    ) -> Result<Vec<Vec<f32>>, CollectiveError> {
        self.inner.try_allgather_tagged(payload, class)
    }

    fn try_broadcast_tagged(
        &self,
        buf: &mut [f32],
        root: usize,
        class: TrafficClass,
    ) -> Result<(), CollectiveError> {
        self.inner.try_broadcast_tagged(buf, root, class)
    }

    fn barrier(&self) {
        self.inner.barrier();
    }

    fn traffic(&self) -> Traffic {
        self.inner.traffic()
    }
}

impl<T: Membership + 'static> Elastic for ShrunkComm<T> {
    type Shrunk = ShrunkComm<T>;

    fn shrink(&self, dead_hint: &[usize]) -> Result<ShrunkComm<T>, CollectiveError> {
        let vt = self.inner.transport();
        let view = vt.view();
        let hint: Vec<usize> = dead_hint
            .iter()
            .filter(|&&r| r < view.world())
            .map(|&r| view.to_original(r))
            .collect();
        let next = agree_on_survivors(vt.base().as_ref(), view, &hint, AGREEMENT_DEADLINE)?;
        Ok(ShrunkComm::new(
            Arc::clone(vt.base()),
            next,
            self.inner.policy(),
        ))
    }

    fn epoch(&self) -> u64 {
        self.view().epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::make_tag;

    /// A send to a rank already observed dead fails with the culprit and
    /// queues nothing: nobody would ever drain or purge it.
    fn send_to_a_dead_rank_fails_and_queues_nothing<T: Membership + 'static>(
        comms: Vec<ShrunkComm<T>>,
    ) {
        let [sender, victim] = [0, 1].map(|r| comms[r].inner.transport().base());
        let tag = make_tag(0, 0, 0);
        sender.try_send(1, tag, &[1.0]).expect("live peer");
        sender.mark_dead(1);
        assert_eq!(
            sender.try_send(1, tag, &[2.0]),
            Err(CollectiveError::RankFailed(1))
        );
        // Inspect the victim's queue from outside (`SenderDead`: on the
        // thread mesh its own mailbox carries the injected death too).
        let soon = || Instant::now() + Duration::from_millis(200);
        let inbox = victim.mailbox();
        assert_eq!(
            inbox.recv(0, tag, soon(), FailOn::SenderDead),
            Ok(vec![1.0])
        );
        assert!(matches!(
            inbox.recv(0, tag, soon(), FailOn::SenderDead),
            Err(CollectiveError::Timeout { waited_ms }) if waited_ms >= 200
        ));
    }

    #[test]
    fn send_to_a_dead_rank_fails_on_both_fabrics() {
        send_to_a_dead_rank_fails_and_queues_nothing(crate::ThreadComm::create(2));
        send_to_a_dead_rank_fails_and_queues_nothing(crate::ProcComm::create_local(2));
    }

    #[test]
    fn a_shrunken_group_keeps_its_parents_policy() {
        let policy = AlgoPolicy {
            algo: crate::CollectiveAlgo::Flat,
            ..AlgoPolicy::default()
        };
        let comms = crate::ThreadComm::create_with(3, policy, Duration::from_secs(20));
        comms[2].mark_dead(2);
        std::thread::scope(|s| {
            for comm in &comms[..2] {
                s.spawn(move || {
                    let shrunk = comm.shrink(&[2]).expect("membership agreement");
                    assert_eq!((shrunk.epoch(), shrunk.size()), (1, 2));
                    assert_eq!(shrunk.policy().algo, crate::CollectiveAlgo::Flat);
                });
            }
        });
    }

    #[test]
    fn boot_view_is_identity() {
        let v = GroupView::boot(2, 4);
        assert_eq!(v.epoch, 0);
        assert_eq!(v.world(), 4);
        assert_eq!(v.original_rank(), 2);
        for r in 0..4 {
            assert_eq!(v.to_original(r), r);
            assert_eq!(v.from_original(r), Some(r));
        }
    }

    #[test]
    fn shrunken_view_is_contiguous_and_translates() {
        let v = GroupView {
            epoch: 1,
            rank: 1,
            members: vec![0, 2, 3],
        };
        assert_eq!(v.world(), 3);
        assert_eq!(v.original_rank(), 2);
        assert_eq!(v.to_original(2), 3);
        assert_eq!(v.from_original(3), Some(2));
        assert_eq!(v.from_original(1), None);
    }

    #[test]
    fn merge_mask_only_grows() {
        let mut dead = vec![false, true, false];
        assert!(merge_mask(&mut dead, &[1.0, 0.0, 0.0]));
        assert_eq!(dead, vec![true, true, false]);
        // A zero in the mask never resurrects a dead rank.
        assert!(!merge_mask(&mut dead, &[0.0, 0.0, 0.0]));
        assert_eq!(dead, vec![true, true, false]);
    }
}
