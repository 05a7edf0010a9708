//! Fault-injection hooks for the robustness test suites.
//!
//! The fault-tolerance guarantees (panic isolation, deadline expiry,
//! mid-stream disconnects) are only testable if faults can be provoked on
//! demand.  This module holds process-global, always-compiled hooks that
//! the streamed sweep path consults at the start of every point's
//! simulation job: a test arms a hook, drives a request through the full
//! server stack, and the fault fires exactly where a real one would — on a
//! worker thread, inside the per-point `catch_unwind`.
//!
//! The hooks are plain atomics with no synchronization beyond their own
//! updates, deliberately cheap enough to leave in release builds (two
//! relaxed loads per point when disarmed, against a point's
//! multi-microsecond-to-millisecond simulation).  They are process-global:
//! suites that arm them serialize themselves (e.g. by living in one
//! `#[test]`) and call [`reset`] when done.
//!
//! This is test infrastructure, not API — hidden from docs, subject to
//! change.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Once;
use std::time::Duration;

/// Disarmed sentinel for [`PANIC_COUNTDOWN`].
const DISARMED: u64 = 0;

/// When non-zero, counts down per started point; the point that moves it
/// to zero panics.
static PANIC_COUNTDOWN: AtomicU64 = AtomicU64::new(DISARMED);

/// When non-zero, every started point sleeps this many milliseconds before
/// simulating (makes deadline expiry deterministic in tests).
static SLOW_POINT_MS: AtomicU64 = AtomicU64::new(0);

/// One-time environment arming (see [`arm_from_env`]).
static ENV_ARM: Once = Once::new();

/// Arms the hooks from the process environment, once, on the first point.
///
/// In-process suites arm the hooks programmatically, but the sharded
/// fault tests spawn real backend *processes* and need to provoke faults
/// inside them: `DAE_FAULT_SLOW_POINT_MS=<ms>` arms the slow-point hook
/// and `DAE_FAULT_PANIC_ON_NTH=<n>` the panic hook, exactly as the
/// corresponding functions would.  Unset, empty or unparsable variables
/// leave the hooks disarmed — production processes pay only this
/// `Once` check plus the usual two relaxed loads per point.
fn arm_from_env() {
    ENV_ARM.call_once(|| {
        if let Some(ms) = env_u64("DAE_FAULT_SLOW_POINT_MS") {
            if ms > 0 {
                slow_every_point_ms(ms);
            }
        }
        if let Some(n) = env_u64("DAE_FAULT_PANIC_ON_NTH") {
            if n > 0 {
                panic_on_nth_start(n);
            }
        }
    });
}

/// A parsed `u64` environment variable, `None` when unset or malformed.
fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// Arms the panic hook: the `n`-th point to *start* simulating after this
/// call panics with an "injected fault" message (`n` is 1-based; `n == 1`
/// fails the very next point).
pub fn panic_on_nth_start(n: u64) {
    assert!(n > 0, "the panic hook is 1-based");
    PANIC_COUNTDOWN.store(n, Ordering::SeqCst);
}

/// Arms the slow-point hook: every point sleeps `ms` milliseconds before
/// simulating until [`reset`].
pub fn slow_every_point_ms(ms: u64) {
    SLOW_POINT_MS.store(ms, Ordering::SeqCst);
}

/// Disarms every hook.
pub fn reset() {
    PANIC_COUNTDOWN.store(DISARMED, Ordering::SeqCst);
    SLOW_POINT_MS.store(0, Ordering::SeqCst);
}

/// The per-point entry hook, called by the stream worker inside its
/// `catch_unwind` just before the simulation.  Fires any armed fault.
pub(crate) fn on_point_start() {
    arm_from_env();
    let slow = SLOW_POINT_MS.load(Ordering::Relaxed);
    if slow > 0 {
        std::thread::sleep(Duration::from_millis(slow));
    }
    if PANIC_COUNTDOWN.load(Ordering::Relaxed) != DISARMED {
        // Armed: take a ticket. `fetch_sub` hands each starting point a
        // distinct pre-decrement value; the point that reads 1 is the
        // n-th starter and fails.  A racing reset can leave the counter
        // mid-countdown, which `reset` clears — acceptable for a test hook.
        match PANIC_COUNTDOWN.fetch_sub(1, Ordering::SeqCst) {
            0 => {
                // A concurrent starter already consumed the fault (or a
                // reset landed between the load and the sub): restore the
                // disarmed state.
                PANIC_COUNTDOWN.store(DISARMED, Ordering::SeqCst);
            }
            1 => panic!("injected fault: point panic"),
            _ => {}
        }
    }
}
