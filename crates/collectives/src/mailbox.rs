//! The receive side of a point-to-point endpoint, shared by both fabrics.
//!
//! A [`Mailbox`] holds what has been delivered to one rank and not yet
//! claimed — queues keyed by `(from, tag)` — together with that rank's
//! view of which peers are gone (`dead`) and which of those a membership
//! shrink has already removed from the group (`fenced`). The two
//! transports differ only in how a frame reaches it: on the thread mesh
//! ([`crate::MeshTransport`]) the sender pushes into the peer's mailbox,
//! on the TCP mesh ([`crate::proc::ProcTransport`]) a per-peer reader
//! thread does. Everything a receive can do — claim a message, fail with
//! the culprit, time out — is the one wait loop in [`Mailbox::recv`].

use crate::error::CollectiveError;
use crate::transport::{gave_up_epoch, tag_epoch, CTRL_BIT};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// What fails a blocked [`Mailbox::recv`] before its deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailOn {
    /// The message can no longer arrive: the sender is dead, or it has
    /// given up on this epoch's collectives over a death it ran into
    /// ([`gave_up_tag`](crate::transport::gave_up_tag)) — fail with the
    /// culprit now and let the caller start reconfiguring. A death
    /// elsewhere in the group is *not* enough: the victim may have
    /// finished this collective before it died, and then every survivor
    /// finishes it too — the failure lands on the same collective on
    /// every rank, which is what checkpoint-restore recovery relies on.
    SenderLeft,
    /// Only the sender's own death: membership agreement keeps polling
    /// its coordinator while the rest of the group is in disarray.
    SenderDead,
}

struct State {
    /// Delivered-but-unclaimed messages, keyed by `(from, tag)`.
    boxes: HashMap<(usize, u64), VecDeque<Vec<f32>>>,
    /// Peers observed gone: closed/torn/silent connection, or an injected
    /// observation ([`crate::Membership::mark_dead`]).
    dead: Vec<bool>,
    /// Dead peers a membership shrink has removed from the group; they no
    /// longer fail receives and nothing more is accepted from them.
    fenced: Vec<bool>,
    /// The latest epoch whose collectives each peer gave up on, if any,
    /// and the death it blamed. Not a death *this* rank observed: the
    /// victim's last frames may still be in flight to it on their own
    /// connection, and only that connection's EOF orders after them.
    gave_up: Vec<Option<(u64, usize)>>,
    /// Current membership epoch: data frames stamped with an older one
    /// are stragglers and are dropped on arrival.
    epoch: u64,
}

/// One rank's inbound queues and failure view. See the module docs.
pub struct Mailbox {
    /// The rank this mailbox belongs to. Its own death outranks any
    /// peer's as the culprit: a dead rank observes its own death rather
    /// than blaming whichever peer it lost touch with first.
    owner: usize,
    state: Mutex<State>,
    cv: Condvar,
}

impl Mailbox {
    /// An empty mailbox for rank `owner` of a `world`-rank mesh, every
    /// rank live.
    pub fn new(owner: usize, world: usize) -> Mailbox {
        Mailbox {
            owner,
            state: Mutex::new(State {
                boxes: HashMap::new(),
                dead: vec![false; world],
                fenced: vec![false; world],
                gave_up: vec![None; world],
                epoch: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Queue `msg` from `from` under `tag` and wake the receiver. Frames
    /// from a fenced peer and data frames of a pre-shrink epoch are
    /// dropped: a straggler can never reach the new group. A gave-up
    /// notice is recorded rather than queued.
    pub fn deliver(&self, from: usize, tag: u64, msg: Vec<f32>) {
        let mut st = self.state.lock();
        let stale = tag & CTRL_BIT == 0 && tag_epoch(tag) < st.epoch;
        if stale || st.fenced.get(from).copied().unwrap_or(true) {
            return;
        }
        if let Some(epoch) = gave_up_epoch(tag) {
            let culprit = msg.first().map_or(from, |&c| c as usize);
            st.gave_up[from] = st.gave_up[from].max(Some((epoch, culprit)));
        } else {
            st.boxes.entry((from, tag)).or_default().push_back(msg);
        }
        self.cv.notify_all();
    }

    /// Record that `peer` is gone and wake the receiver so a blocked
    /// receive fails now rather than at its deadline.
    pub fn mark_dead(&self, peer: usize) {
        let mut st = self.state.lock();
        if let Some(d) = st.dead.get_mut(peer) {
            if !*d {
                *d = true;
                self.cv.notify_all();
            }
        }
    }

    /// `Err(RankFailed(r))` if the owner or else `peer` is known gone (or
    /// `peer` was never a rank of this mesh) — what a send checks before
    /// queueing anything for a peer that will never drain it.
    pub fn check_alive(&self, peer: usize) -> Result<(), CollectiveError> {
        let st = self.state.lock();
        match [self.owner, peer]
            .into_iter()
            .find(|&r| st.dead.get(r) != Some(&false))
        {
            Some(gone) => Err(CollectiveError::RankFailed(gone)),
            None => Ok(()),
        }
    }

    /// Peers observed dead and not yet fenced out of the group.
    pub fn observed_dead(&self) -> Vec<usize> {
        let st = self.state.lock();
        (0..st.dead.len())
            .filter(|&r| st.dead[r] && !st.fenced[r])
            .collect()
    }

    /// Acknowledge `dead` as removed from the group as of `new_epoch`:
    /// they stop failing receives, and their pending messages plus every
    /// data frame stamped with an epoch `< new_epoch` are purged.
    pub fn fence(&self, dead: &[usize], new_epoch: u64) {
        let mut st = self.state.lock();
        for &d in dead {
            if d < st.dead.len() {
                st.dead[d] = true;
                st.fenced[d] = true;
            }
        }
        st.epoch = new_epoch;
        let State { boxes, fenced, .. } = &mut *st;
        boxes.retain(|&(from, tag), _| {
            !fenced[from] && (tag & CTRL_BIT != 0 || tag_epoch(tag) >= new_epoch)
        });
        self.cv.notify_all();
    }

    /// Claim the next message from `from` under exactly `tag`, waiting
    /// until `deadline`. A queued message always wins; otherwise a death
    /// selected by `fail_on` is [`CollectiveError::RankFailed`] naming the
    /// culprit, and an expired deadline is [`CollectiveError::Timeout`]
    /// carrying the time actually waited.
    pub fn recv(
        &self,
        from: usize,
        tag: u64,
        deadline: Instant,
        fail_on: FailOn,
    ) -> Result<Vec<f32>, CollectiveError> {
        let start = Instant::now();
        let key = (from, tag);
        let mut st = self.state.lock();
        loop {
            if let Some(q) = st.boxes.get_mut(&key) {
                if let Some(msg) = q.pop_front() {
                    if q.is_empty() {
                        st.boxes.remove(&key);
                    }
                    return Ok(msg);
                }
            }
            let culprit = match fail_on {
                FailOn::SenderLeft if st.dead[self.owner] => Some(self.owner),
                _ if from >= st.dead.len() || st.dead[from] => Some(from),
                FailOn::SenderLeft => st.gave_up[from]
                    .filter(|&(epoch, _)| epoch == st.epoch & 0xffff_ffff)
                    .map(|(_, culprit)| culprit),
                FailOn::SenderDead => None,
            };
            if let Some(culprit) = culprit {
                return Err(CollectiveError::RankFailed(culprit));
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(CollectiveError::Timeout {
                    waited_ms: (now - start).as_millis() as u64,
                });
            }
            self.cv.wait_for(&mut st, deadline - now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{fence_tag, gave_up_tag, make_tag, propose_tag};
    use std::time::Duration;

    fn soon() -> Instant {
        Instant::now() + Duration::from_millis(40)
    }

    #[test]
    fn messages_are_claimed_in_order_per_key_and_win_over_a_death() {
        let mb = Mailbox::new(0, 3);
        mb.deliver(1, 7, vec![1.0]);
        mb.deliver(1, 7, vec![2.0]);
        mb.deliver(2, 7, vec![3.0]);
        mb.mark_dead(1);
        assert_eq!(mb.recv(1, 7, soon(), FailOn::SenderLeft), Ok(vec![1.0]));
        assert_eq!(mb.recv(1, 7, soon(), FailOn::SenderDead), Ok(vec![2.0]));
        assert_eq!(
            mb.recv(1, 7, soon(), FailOn::SenderDead),
            Err(CollectiveError::RankFailed(1))
        );
        assert_eq!(mb.recv(2, 7, soon(), FailOn::SenderDead), Ok(vec![3.0]));
    }

    fn timed_out(r: Result<Vec<f32>, CollectiveError>) -> u64 {
        match r {
            Err(CollectiveError::Timeout { waited_ms }) => waited_ms,
            other => panic!("expected a timeout, got {other:?}"),
        }
    }

    #[test]
    fn a_death_elsewhere_fails_a_receive_only_once_the_sender_gave_up() {
        let mb = Mailbox::new(0, 4);
        mb.mark_dead(3);
        // Rank 1 may still send: the victim could have finished this
        // collective. The timeout reports the time really waited.
        let waited = timed_out(mb.recv(1, 0, soon(), FailOn::SenderLeft));
        assert!((40..5_000).contains(&waited), "waited {waited} ms");
        // Rank 1 gave up over a death this rank has not seen itself (and
        // does not take on hearsay: rank 2's last frames may be in flight).
        // What rank 1 sent before giving up is still delivered first.
        mb.deliver(1, 0, vec![1.0]);
        mb.deliver(1, gave_up_tag(0), vec![2.0]);
        assert_eq!(mb.observed_dead(), vec![3]);
        assert_eq!(mb.recv(1, 0, soon(), FailOn::SenderLeft), Ok(vec![1.0]));
        assert_eq!(
            mb.recv(1, 0, soon(), FailOn::SenderLeft),
            Err(CollectiveError::RankFailed(2))
        );
        timed_out(mb.recv(2, 0, soon(), FailOn::SenderLeft));
        // Agreement keeps polling rank 1 regardless.
        timed_out(mb.recv(1, propose_tag(1), soon(), FailOn::SenderDead));
        // The notice dies with its epoch; one from the next epoch that
        // overtook the fence is kept.
        mb.deliver(1, gave_up_tag(1), vec![3.0]);
        mb.fence(&[2], 1);
        assert_eq!(
            mb.recv(1, 0, soon(), FailOn::SenderLeft),
            Err(CollectiveError::RankFailed(3))
        );
        mb.fence(&[3], 2);
        timed_out(mb.recv(1, 0, soon(), FailOn::SenderLeft));
    }

    #[test]
    fn the_owners_own_death_outranks_the_senders() {
        let mb = Mailbox::new(2, 3);
        for gone in [1, 2, 9] {
            mb.mark_dead(gone);
        }
        assert_eq!(mb.check_alive(0), Err(CollectiveError::RankFailed(2)));
        assert_eq!(
            mb.recv(1, 0, soon(), FailOn::SenderLeft),
            Err(CollectiveError::RankFailed(2))
        );
        assert_eq!(
            mb.recv(9, 0, soon(), FailOn::SenderDead),
            Err(CollectiveError::RankFailed(9))
        );
    }

    #[test]
    fn fence_purges_and_then_drops_stragglers_but_keeps_control_frames() {
        let mb = Mailbox::new(0, 3);
        let old = fence_tag(0, make_tag(4, 0, 0));
        let new = fence_tag(1, make_tag(0, 0, 0));
        mb.deliver(1, old, vec![1.0]);
        mb.deliver(1, new, vec![2.0]);
        mb.deliver(1, propose_tag(2), vec![3.0]);
        mb.deliver(2, new, vec![4.0]);
        mb.mark_dead(2);
        assert_eq!(mb.observed_dead(), vec![2]);
        mb.fence(&[2], 1);
        assert!(mb.observed_dead().is_empty());
        assert_eq!(mb.check_alive(2), Err(CollectiveError::RankFailed(2)));
        // After the fence: stale data and anything from the fenced peer
        // is refused on arrival too.
        mb.deliver(1, old, vec![5.0]);
        mb.deliver(2, new, vec![6.0]);
        assert_eq!(mb.recv(1, new, soon(), FailOn::SenderLeft), Ok(vec![2.0]));
        assert_eq!(
            mb.recv(1, propose_tag(2), soon(), FailOn::SenderDead),
            Ok(vec![3.0])
        );
        timed_out(mb.recv(1, old, soon(), FailOn::SenderLeft));
        assert_eq!(
            mb.recv(2, new, soon(), FailOn::SenderLeft),
            Err(CollectiveError::RankFailed(2))
        );
    }
}
