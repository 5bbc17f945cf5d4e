//! Spin-wait policy shared by all locks in this crate.
//!
//! Two kinds of waiter need two policies. A waiter on a *shared* word
//! (ticket grant, TTAS/TAS lock word) backs off with [`Backoff`], so a
//! crowd of pollers does not hammer the line the releaser must write.
//! A waiter on a word *only it reads* (an MCS/CLH node word, a Hemlock
//! grant cell, an Anderson slot) has no crowd to thin out; it polls
//! after every pause with [`Waiter`](crate::park::Waiter) so it notices
//! its grant within one `PAUSE`.

use std::hint;
use std::thread;

/// Exponential spin backoff that degrades to yielding — the wait policy
/// for *shared-word* spinners (ticket, TTAS, TAS+backoff).
///
/// The paper's evaluation pins one thread per CPU on idle servers, where
/// pure spinning is appropriate. This library must also behave on
/// oversubscribed hosts (CI machines, laptops, the 1-CPU box this
/// reproduction was built on), where a spinning waiter can prevent the
/// lock holder from ever running. `Backoff` therefore spins with
/// [`core::hint::spin_loop`] for exponentially growing bursts and, once
/// the burst limit is reached, calls [`std::thread::yield_now`] so the
/// holder can make progress.
///
/// The growing bursts thin out the polls of many waiters on one word,
/// at the price of noticing a release up to a whole burst late (128
/// `spin_loop` hints at the default ceiling). A waiter that spins on a
/// word nobody else reads should use [`Waiter`](crate::park::Waiter)
/// instead, which polls after every hint.
///
/// # Examples
///
/// ```
/// use clof_locks::Backoff;
/// use std::sync::atomic::{AtomicBool, Ordering};
///
/// let flag = AtomicBool::new(true);
/// let mut backoff = Backoff::new();
/// while !flag.load(Ordering::Acquire) {
///     backoff.snooze();
/// }
/// ```
#[derive(Debug)]
pub struct Backoff {
    step: u32,
    limit: u32,
}

impl Backoff {
    /// Default maximum exponent: bursts of up to `2^SPIN_LIMIT` spin hints.
    pub(crate) const SPIN_LIMIT: u32 = 7;

    /// Creates a fresh backoff in its shortest-burst state.
    #[inline]
    pub fn new() -> Self {
        Self::with_limit(Self::SPIN_LIMIT)
    }

    /// Creates a backoff whose burst ceiling is capped at `2^limit` spin
    /// hints (clamped to the default ceiling). Contended levels cap the
    /// ceiling low so a waiter that is about to lose the hand-off race
    /// does not sit in a long burst while the grant goes by.
    #[inline]
    pub fn with_limit(limit: u32) -> Self {
        Backoff {
            step: 0,
            limit: limit.min(Self::SPIN_LIMIT),
        }
    }

    /// Waits one round: a burst of spin hints, or a yield once saturated.
    #[inline]
    pub fn snooze(&mut self) {
        if self.step <= self.limit {
            for _ in 0..(1u32 << self.step) {
                hint::spin_loop();
            }
            self.step += 1;
        } else {
            thread::yield_now();
        }
    }

    /// Resets to the shortest-burst state.
    #[inline]
    pub fn reset(&mut self) {
        self.step = 0;
    }

    /// Whether the backoff has saturated and is now yielding.
    #[inline]
    pub fn is_yielding(&self) -> bool {
        self.step > self.limit
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Self::new()
    }
}

/// Spins until `cond` returns `true`, using [`Backoff`] (the shared-word
/// policy).
#[inline]
pub fn spin_until(mut cond: impl FnMut() -> bool) {
    let mut backoff = Backoff::new();
    while !cond() {
        backoff.snooze();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn backoff_saturates_to_yielding() {
        let mut b = Backoff::new();
        assert!(!b.is_yielding());
        for _ in 0..64 {
            b.snooze();
        }
        assert!(b.is_yielding());
        b.reset();
        assert!(!b.is_yielding());
    }

    #[test]
    fn spin_until_observes_concurrent_store() {
        let flag = Arc::new(AtomicBool::new(false));
        let setter = {
            let flag = Arc::clone(&flag);
            std::thread::spawn(move || flag.store(true, Ordering::Release))
        };
        spin_until(|| flag.load(Ordering::Acquire));
        setter.join().unwrap();
    }

    #[test]
    fn spin_until_returns_immediately_when_true() {
        spin_until(|| true);
    }
}
