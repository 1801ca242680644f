//! Bounded retry with exponential backoff for transient collective
//! faults.
//!
//! On 16–256 GPU clusters the common failure mode is not a dead rank but
//! a *transiently* slow or lossy collective (NCCL timeout, a switch
//! hiccup); production stacks retry those with backoff before escalating.
//! [`RetryPolicy`] packages that loop: it retries only errors that
//! [`CollectiveError::is_retryable`] marks transient (timeouts,
//! detected corruption), never permanent rank failures or protocol
//! mismatches, and sleeps an exponentially growing, capped backoff
//! between attempts.
//!
//! All ranks observing the same deterministic fault schedule (see
//! [`crate::faults`]) make identical retry decisions, so the group's
//! collective call sequences stay aligned through the retries — the MPI
//! ordering contract survives the fault handling.

use crate::error::CollectiveError;
use std::time::Duration;

/// Bounded-attempt retry schedule with exponential backoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). `1` disables retries.
    pub max_attempts: u32,
    /// Sleep before the first retry; doubles each further retry.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
}

impl RetryPolicy {
    /// No retries: fail on the first error.
    pub const fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }

    /// Default for in-process chaos testing: a handful of fast retries.
    pub fn default_comm() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(20),
        }
    }

    /// Backoff before retry number `retry` (0-based): `base * 2^retry`,
    /// capped at `max_backoff`.
    pub fn backoff(&self, retry: u32) -> Duration {
        let factor = 1u32.checked_shl(retry).unwrap_or(u32::MAX);
        self.base_backoff
            .saturating_mul(factor)
            .min(self.max_backoff)
    }

    /// Run `attempt` until it succeeds, returns a non-retryable error,
    /// or the attempt budget is exhausted (the last error is returned).
    pub fn run<T>(
        &self,
        mut attempt: impl FnMut() -> Result<T, CollectiveError>,
    ) -> Result<T, CollectiveError> {
        let mut tried = 0u32;
        loop {
            match attempt() {
                Ok(v) => return Ok(v),
                Err(e) => {
                    tried += 1;
                    if !e.is_retryable() || tried >= self.max_attempts.max(1) {
                        return Err(e);
                    }
                    // Count only retries actually taken (not terminal
                    // failures); flight-recorder snapshots carry it.
                    if let Some((registry, _)) = kfac_telemetry::current() {
                        registry.counter("comm/retries").inc();
                    }
                    let pause = self.backoff(tried - 1);
                    if !pause.is_zero() {
                        std::thread::sleep(pause);
                    }
                }
            }
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::default_comm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn succeeds_after_transient_failures() {
        let policy = RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        };
        let mut calls = 0;
        let out = policy.run(|| {
            calls += 1;
            if calls < 3 {
                Err(CollectiveError::Timeout { waited_ms: 1 })
            } else {
                Ok(calls)
            }
        });
        assert_eq!(out, Ok(3));
    }

    #[test]
    fn gives_up_after_max_attempts() {
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        };
        let mut calls = 0;
        let out: Result<(), _> = policy.run(|| {
            calls += 1;
            Err(CollectiveError::Timeout { waited_ms: 1 })
        });
        assert_eq!(out, Err(CollectiveError::Timeout { waited_ms: 1 }));
        assert_eq!(calls, 3);
    }

    #[test]
    fn permanent_errors_are_not_retried() {
        let policy = RetryPolicy::default_comm();
        let mut calls = 0;
        let out: Result<(), _> = policy.run(|| {
            calls += 1;
            Err(CollectiveError::RankFailed(2))
        });
        assert_eq!(out, Err(CollectiveError::RankFailed(2)));
        assert_eq!(calls, 1);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
        };
        assert_eq!(policy.backoff(0), Duration::from_millis(1));
        assert_eq!(policy.backoff(1), Duration::from_millis(2));
        assert_eq!(policy.backoff(2), Duration::from_millis(4));
        assert_eq!(policy.backoff(3), Duration::from_millis(4)); // capped
        assert_eq!(policy.backoff(40), Duration::from_millis(4)); // no overflow
    }
}
