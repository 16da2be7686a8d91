//! Cooperative cancellation and deadlines.
//!
//! A [`CancelToken`] is a cheap, cloneable handle shared by the caller and
//! every machine thread of a run. Cancellation is *cooperative*: nothing is
//! interrupted pre-emptively — the scheduling loop, the steal loop,
//! `Fault::Delay` slices and the `PUSH-JOIN` probe all poll the token at
//! batch granularity and unwind with a typed error
//! ([`EngineError::Cancelled`](crate::EngineError) /
//! [`EngineError::DeadlineExceeded`](crate::EngineError)) when it fires.
//! Because every machine parks on a short timeout (≈1 ms) while idle, the
//! whole cluster observes a cancellation within a few polling intervals.
//!
//! Deadlines ([`ClusterConfig::deadline`](crate::ClusterConfig)) are mapped
//! onto the same token: [`CancelToken::check`] lazily flips the token into
//! the `DeadlineExceeded` state the first time it is polled past the
//! deadline, so no timer thread is needed.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a run stopped early. Distinguishes an explicit
/// [`CancelToken::cancel`] from a configured deadline expiring.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelCause {
    /// [`CancelToken::cancel`] was called.
    Cancelled,
    /// The run outlived [`ClusterConfig::deadline`](crate::ClusterConfig).
    DeadlineExceeded,
}

const LIVE: u8 = 0;
const CANCELLED: u8 = 1;
const DEADLINE: u8 = 2;

struct Inner {
    /// `LIVE` until the first cancel/deadline observation; monotonic after.
    state: AtomicU8,
    /// Deadline as nanoseconds past `epoch`; `u64::MAX` = no deadline.
    deadline_nanos: AtomicU64,
    /// When the winning cause fired, nanoseconds past `epoch` plus one
    /// (0 = not fired). Stamped exactly once, by the CAS winner, so the
    /// flight recorder can place the cancellation on the run timeline.
    fired_nanos: AtomicU64,
    /// Reference instant the deadline is measured from.
    epoch: Instant,
}

/// A cloneable cancellation handle shared by a run's caller and machines.
///
/// All clones observe the same state; firing is monotonic (a token never
/// goes back to live) and idempotent — the first cause to fire wins.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cause", &self.cause())
            .finish()
    }
}

impl CancelToken {
    /// A live token with no deadline.
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                state: AtomicU8::new(LIVE),
                deadline_nanos: AtomicU64::new(u64::MAX),
                fired_nanos: AtomicU64::new(0),
                epoch: Instant::now(),
            }),
        }
    }

    /// Arms (or re-arms) a deadline `timeout` from now. The token flips to
    /// `DeadlineExceeded` the first time it is polled past that instant.
    pub fn arm_deadline(&self, timeout: Duration) {
        let nanos = self
            .inner
            .epoch
            .elapsed()
            .saturating_add(timeout)
            .as_nanos()
            .min(u64::MAX as u128 - 1) as u64;
        self.inner.deadline_nanos.store(nanos, Ordering::Release);
    }

    /// Requests cancellation. Idempotent; loses to an already-fired
    /// deadline (the first cause wins).
    pub fn cancel(&self) {
        if self
            .inner
            .state
            .compare_exchange(LIVE, CANCELLED, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            self.stamp_fired();
        }
    }

    fn stamp_fired(&self) {
        let nanos = (self.inner.epoch.elapsed().as_nanos() as u64).saturating_add(1);
        self.inner.fired_nanos.store(nanos, Ordering::Release);
    }

    /// When the winning cause fired, or `None` while the token is live. The
    /// cluster uses this to place the cancellation/deadline instant on the
    /// flight-recorder timeline at its true wall-clock position.
    pub fn fired_at(&self) -> Option<Instant> {
        match self.inner.fired_nanos.load(Ordering::Acquire) {
            0 => None,
            nanos => self
                .inner
                .epoch
                .checked_add(Duration::from_nanos(nanos - 1)),
        }
    }

    /// Why the token fired, or `None` while it is still live. Polling here
    /// also lazily trips an expired deadline.
    pub fn cause(&self) -> Option<CancelCause> {
        match self.inner.state.load(Ordering::Acquire) {
            CANCELLED => Some(CancelCause::Cancelled),
            DEADLINE => Some(CancelCause::DeadlineExceeded),
            _ => {
                let deadline = self.inner.deadline_nanos.load(Ordering::Acquire);
                if deadline != u64::MAX && self.inner.epoch.elapsed().as_nanos() as u64 >= deadline
                {
                    if self
                        .inner
                        .state
                        .compare_exchange(LIVE, DEADLINE, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok()
                    {
                        self.stamp_fired();
                    }
                    self.cause_fast()
                } else {
                    None
                }
            }
        }
    }

    fn cause_fast(&self) -> Option<CancelCause> {
        match self.inner.state.load(Ordering::Acquire) {
            CANCELLED => Some(CancelCause::Cancelled),
            DEADLINE => Some(CancelCause::DeadlineExceeded),
            _ => None,
        }
    }

    /// `true` once the token has fired (either cause).
    pub fn is_cancelled(&self) -> bool {
        self.cause().is_some()
    }

    /// Polls the token, returning the matching typed error once it fires.
    /// This is the single check every cooperative loop calls at batch
    /// granularity; the `RunReport` payload is attached later by the
    /// cluster, which owns the partial stats.
    pub fn check(&self) -> crate::Result<()> {
        match self.cause() {
            None => Ok(()),
            Some(CancelCause::Cancelled) => Err(crate::EngineError::Cancelled(None)),
            Some(CancelCause::DeadlineExceeded) => Err(crate::EngineError::DeadlineExceeded(None)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_token_passes_checks() {
        let t = CancelToken::new();
        assert!(t.cause().is_none());
        assert!(!t.is_cancelled());
        assert!(t.check().is_ok());
        assert!(t.fired_at().is_none());
    }

    #[test]
    fn cancel_fires_once_and_sticks() {
        let t = CancelToken::new();
        let clone = t.clone();
        t.cancel();
        let fired = clone.fired_at().expect("winner stamps the fire instant");
        t.cancel(); // idempotent
        assert_eq!(clone.fired_at(), Some(fired));
        assert_eq!(clone.cause(), Some(CancelCause::Cancelled));
        assert!(matches!(
            clone.check(),
            Err(crate::EngineError::Cancelled(None))
        ));
    }

    #[test]
    fn deadline_trips_lazily_on_poll() {
        let t = CancelToken::new();
        t.arm_deadline(Duration::from_millis(0));
        // The state flips on the first poll past the deadline.
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(t.cause(), Some(CancelCause::DeadlineExceeded));
        assert!(matches!(
            t.check(),
            Err(crate::EngineError::DeadlineExceeded(None))
        ));
    }

    #[test]
    fn first_cause_wins() {
        let t = CancelToken::new();
        t.arm_deadline(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(t.cause(), Some(CancelCause::DeadlineExceeded));
        t.cancel(); // too late: deadline already fired
        assert_eq!(t.cause(), Some(CancelCause::DeadlineExceeded));
    }

    #[test]
    fn far_deadline_stays_live() {
        let t = CancelToken::new();
        t.arm_deadline(Duration::from_secs(3600));
        assert!(t.cause().is_none());
        t.cancel();
        assert_eq!(t.cause(), Some(CancelCause::Cancelled));
    }
}
