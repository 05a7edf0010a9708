//! Cooperative mid-simulation abort.
//!
//! A simulation point can run for many milliseconds; cancellation that only
//! skips *pending* points leaves the in-flight one burning a worker until it
//! finishes.  This module threads a shared abort flag into the run engine
//! without touching any machine API: the caller installs an [`AbortToken`]
//! in thread-local storage around the run ([`with_abort_token`]), the engine
//! reads the flag once at loop entry and polls it every
//! [`ABORT_POLL_INTERVAL`] iterations.  When the flag is set the engine
//! unwinds with an [`AbortedSimulation`] payload — callers that installed a
//! token are expected to `catch_unwind` and downcast to tell a cooperative
//! abort apart from a genuine panic.
//!
//! The unwind travels through [`std::panic::resume_unwind`], which skips the
//! panic hook: an abort is a normal control transfer, not an error worth a
//! backtrace on stderr.
//!
//! Runs with no installed token pay one pointer-null check per engine
//! iteration and never unwind.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// How many engine loop iterations pass between abort-flag polls.
///
/// An iteration advances the clock by at least one cycle (usually many, via
/// time skips), so 512 iterations bound the abort latency to well under a
/// millisecond of wall time while keeping the hot loop's common case to a
/// single predictable branch.
pub(crate) const ABORT_POLL_INTERVAL: u32 = 512;

/// A shared flag that requests cooperative abort of any simulation run with
/// this token installed (see [`with_abort_token`]).
///
/// Cloning shares the flag; aborting through any clone aborts them all.
#[derive(Clone, Debug, Default)]
pub struct AbortToken {
    flag: Arc<AtomicBool>,
}

impl AbortToken {
    /// A fresh, unsignalled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps an existing shared flag (lets a higher layer reuse one atomic
    /// for both "skip pending points" and "abort the running point").
    pub fn from_flag(flag: Arc<AtomicBool>) -> Self {
        Self { flag }
    }

    /// Requests abort: every simulation running under this token unwinds
    /// with [`AbortedSimulation`] at its next poll.
    pub fn abort(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }
}

/// The panic payload carried by a cooperative abort.  Catch the unwind and
/// downcast to this type to distinguish an abort from a real panic.
#[derive(Debug)]
pub struct AbortedSimulation;

thread_local! {
    static CURRENT: Cell<Option<Arc<AtomicBool>>> = const { Cell::new(None) };
}

/// Runs `f` with `token` installed as this thread's abort token; any engine
/// loop entered inside `f` polls it.  The previous token (if any) is
/// restored afterwards, including when `f` unwinds — which is exactly what
/// an abort does.
pub fn with_abort_token<R>(token: &AbortToken, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<AtomicBool>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT.with(|c| c.set(self.0.take()));
        }
    }
    let _restore = Restore(CURRENT.with(|c| c.replace(Some(Arc::clone(&token.flag)))));
    f()
}

/// The engine-side poller: captures the thread's installed token (if any)
/// once at run start, then [`poll`](AbortChecker::poll)s it cheaply from the
/// run loop.
pub(crate) struct AbortChecker {
    flag: Option<Arc<AtomicBool>>,
    countdown: u32,
}

impl AbortChecker {
    /// Snapshots the thread-local token at loop entry.  The first poll
    /// fires on the very first loop iteration (a token that is already set
    /// when the run starts aborts before any simulation work); subsequent
    /// polls are [`ABORT_POLL_INTERVAL`] iterations apart.
    pub(crate) fn install() -> Self {
        let flag = CURRENT.with(|c| {
            let current = c.take();
            let copy = current.clone();
            c.set(current);
            copy
        });
        Self { flag, countdown: 1 }
    }

    /// One loop iteration's worth of abort accounting.  With no installed
    /// token this is a single branch; with one, the atomic is read every
    /// [`ABORT_POLL_INTERVAL`] calls and a set flag unwinds with
    /// [`AbortedSimulation`].
    #[inline]
    pub(crate) fn poll(&mut self) {
        let Some(flag) = &self.flag else { return };
        self.countdown -= 1;
        if self.countdown == 0 {
            self.countdown = ABORT_POLL_INTERVAL;
            if flag.load(Ordering::Relaxed) {
                std::panic::resume_unwind(Box::new(AbortedSimulation));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn tokens_share_their_flag_across_clones() {
        let token = AbortToken::new();
        let peer = token.clone();
        assert!(!peer.flag.load(Ordering::Relaxed));
        token.abort();
        assert!(peer.flag.load(Ordering::Relaxed));
    }

    #[test]
    fn the_installed_token_is_restored_after_an_unwind() {
        let outer = AbortToken::new();
        with_abort_token(&outer, || {
            let inner = AbortToken::new();
            inner.abort();
            let hit = catch_unwind(AssertUnwindSafe(|| {
                with_abort_token(&inner, || {
                    let mut checker = AbortChecker::install();
                    for _ in 0..=ABORT_POLL_INTERVAL {
                        checker.poll();
                    }
                })
            }));
            let payload = hit.expect_err("a set token must unwind at the poll");
            assert!(payload.downcast_ref::<AbortedSimulation>().is_some());
            // The outer (unset) token is back: a full poll interval passes
            // without unwinding.
            let mut checker = AbortChecker::install();
            for _ in 0..=ABORT_POLL_INTERVAL {
                checker.poll();
            }
        });
    }

    #[test]
    fn polling_without_a_token_never_unwinds() {
        let mut checker = AbortChecker::install();
        for _ in 0..(4 * ABORT_POLL_INTERVAL) {
            checker.poll();
        }
    }
}
