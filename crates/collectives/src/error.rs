//! The typed failure of a collective operation.

use std::fmt;

/// Failure of a collective operation, surfaced as a value instead of a
/// panic so callers can recover (or at least report) cleanly.
///
/// These are *transport* outcomes raised by fault-aware communicators
/// (see [`crate::faults`]), the transports and the wire codec.
/// [`CollectiveError::is_retryable`] distinguishes transient faults
/// (worth retrying with backoff) from permanent ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveError {
    /// The collective did not complete within its deadline (a straggler
    /// or a transiently failed transport). Retryable.
    Timeout {
        /// How long the caller waited before giving up, in milliseconds.
        waited_ms: u64,
    },
    /// A rank has permanently left the group; no collective can complete
    /// until the group is rebuilt. Not retryable.
    RankFailed(
        /// The failed rank.
        usize,
    ),
    /// The payload failed an integrity check (bit-flip corruption was
    /// detected in flight). Retryable: the source data is still intact.
    Corrupted,
    /// Ranks disagreed on the collective call (kind, reduce op, length,
    /// or root). Not retryable: retrying replays the same mismatch.
    Mismatch(
        /// What disagreed.
        &'static str,
    ),
}

impl CollectiveError {
    /// `true` for transient faults where retrying the same collective
    /// (with backoff) can succeed; `false` for permanent failures and
    /// protocol mismatches.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            CollectiveError::Timeout { .. } | CollectiveError::Corrupted
        )
    }
}

impl fmt::Display for CollectiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CollectiveError::Timeout { waited_ms } => {
                write!(f, "collective timed out after {waited_ms} ms")
            }
            CollectiveError::RankFailed(rank) => {
                write!(f, "rank {rank} failed permanently")
            }
            CollectiveError::Corrupted => {
                write!(f, "collective payload failed integrity check")
            }
            CollectiveError::Mismatch(what) => write!(f, "{what}"),
        }
    }
}

impl std::error::Error for CollectiveError {}
