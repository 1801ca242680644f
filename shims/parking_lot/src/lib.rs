//! Offline stand-in for `parking_lot`.
//!
//! The build container has no access to crates.io, so the workspace
//! patches `parking_lot` to this crate. It wraps `std::sync` primitives
//! behind the part of parking_lot's poison-free API the workspace calls:
//! `Mutex::lock` returns a guard directly (a poisoned std lock is
//! recovered, matching parking_lot's behaviour of not propagating panics
//! through locks), and `Condvar::{wait, wait_for}` take the guard by
//! `&mut` instead of by value.

use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;

/// Poison-free mutex with parking_lot's `lock() -> guard` signature.
#[derive(Default)]
pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

/// RAII guard returned by [`Mutex::lock`].
///
/// Holds the underlying std guard in an `Option` so [`Condvar::wait`] can
/// temporarily take ownership (std's wait consumes the guard).
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    /// Create a mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the lock, blocking until available. Never poisons.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(PoisonError::into_inner)),
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present outside wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present outside wait")
    }
}

/// Condition variable with parking_lot's `wait(&mut guard)` signature.
#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    /// Create a condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    /// Atomically release the guard's lock and wait for a notification,
    /// re-acquiring before returning. Spurious wakeups are possible, as
    /// with parking_lot — callers loop on their predicate.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.inner.take().expect("guard present before wait");
        let inner = self
            .inner
            .wait(inner)
            .unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(inner);
    }

    /// Atomically release the guard's lock and wait for a notification or
    /// the timeout, re-acquiring before returning. Unlike parking_lot's
    /// `wait_for` it reports nothing: callers loop on their predicate and
    /// their own deadline, because spurious wakeups are possible.
    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: std::time::Duration) {
        let inner = guard.inner.take().expect("guard present before wait");
        let (inner, _) = self
            .inner
            .wait_timeout(inner, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(inner);
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_and_mutate() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn condvar_rendezvous() {
        let pair = Arc::new((Mutex::new(0usize), Condvar::new()));
        let n = 4;
        std::thread::scope(|s| {
            for _ in 0..n {
                let pair = Arc::clone(&pair);
                s.spawn(move || {
                    let (m, cv) = &*pair;
                    let mut count = m.lock();
                    *count += 1;
                    if *count == n {
                        cv.notify_all();
                    } else {
                        while *count < n {
                            cv.wait(&mut count);
                        }
                    }
                });
            }
        });
        assert_eq!(*pair.0.lock(), n);
    }

    #[test]
    fn wait_for_times_out_without_notification() {
        let m = Mutex::new(false);
        let cv = Condvar::new();
        let mut guard = m.lock();
        let timeout = std::time::Duration::from_millis(10);
        let start = std::time::Instant::now();
        cv.wait_for(&mut guard, timeout);
        assert!(start.elapsed() >= timeout);
        // The guard is usable again after the timed wait.
        *guard = true;
        drop(guard);
        assert!(*m.lock());
    }
}
