//! Session-level fault tolerance: cancellation aborts running points with
//! balanced accounting, worker panics surface as events instead of
//! unwinding the consumer (or re-throw on a batched caller), and neither
//! ever leaves a partial result in the sweep cache.
//!
//! The fault-injection hooks (`dae_core::fault`) are process-global, so
//! every test in this binary serializes on [`FAULT_LOCK`] — including the
//! ones that arm nothing, which must not run while a peer has a hook armed.

use dae_core::{
    fault, CancelToken, Machine, RequestClass, SweepEvent, SweepPoint, SweepSession, WindowSpec,
};
use dae_workloads::PerfectProgram;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Serializes the binary's tests and guarantees hook reset even if the
/// previous holder panicked.
fn faults() -> MutexGuard<'static, ()> {
    let guard = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    fault::reset();
    guard
}

fn grid(session: &mut SweepSession) -> Vec<SweepPoint> {
    let id = session.pin_program(PerfectProgram::Trfd, 120);
    vec![
        (id, Machine::Decoupled, WindowSpec::Entries(16), 60),
        (id, Machine::Superscalar, WindowSpec::Entries(32), 60),
        (id, Machine::Decoupled, WindowSpec::Entries(64), 0),
        (id, Machine::Scalar, WindowSpec::Entries(1), 60),
    ]
}

/// Cancelling mid-flight aborts the points that are already simulating and
/// skips the rest; the accounting balances, nothing lands in the cache,
/// and the session then produces correct results for the same grid.
#[test]
fn cancellation_aborts_running_points_with_balanced_accounting() {
    let _guard = faults();
    let mut session = SweepSession::new();
    let points = grid(&mut session);

    // Every point sleeps before simulating, so at cancel time each started
    // point is still pre-simulation and hits the engine's first-iteration
    // abort poll with the flag already set: nothing can complete.
    fault::slow_every_point_ms(150);
    let token = CancelToken::new();
    let mut stream = session.stream_classified(&points, &token, RequestClass::default());
    std::thread::sleep(Duration::from_millis(40));
    token.cancel();

    let mut delivered = 0;
    while let Some(event) = stream.next_event() {
        match event {
            SweepEvent::Point(_) => delivered += 1,
            SweepEvent::Skipped { .. } | SweepEvent::Aborted { .. } => {}
            SweepEvent::Failed { index, message } => {
                panic!("point {index} failed unexpectedly: {message}")
            }
        }
    }
    assert_eq!(delivered, 0, "no point can finish through the sleep");
    assert_eq!(
        delivered + stream.skipped() + stream.aborted() + stream.failed(),
        stream.total(),
        "accounting must balance"
    );
    assert!(
        stream.aborted() >= 1,
        "at least the first point was already started and must abort \
         (aborted: {}, skipped: {})",
        stream.aborted(),
        stream.skipped()
    );
    assert_eq!(
        session.cache_stats().entries,
        0,
        "aborted points must leave no cache entries"
    );

    // Post-fault: the same grid on the same session is correct.
    fault::reset();
    let clean: Vec<u64> = session.stream(&points).collect_ordered();
    let reference = session.sweep_multi(&points);
    assert_eq!(clean, reference);
    assert!(clean.iter().all(|&c| c > 0));
}

/// An injected worker panic surfaces as exactly one `Failed` event; the
/// other points deliver, the cache only holds the completed ones, and the
/// pool keeps serving.
#[test]
fn a_panicking_point_fails_alone_and_spares_the_cache() {
    let _guard = faults();
    let mut session = SweepSession::new();
    let points = grid(&mut session);

    fault::panic_on_nth_start(1);
    let mut stream = session.stream(&points);
    let mut delivered = 0;
    let mut failures = Vec::new();
    while let Some(event) = stream.next_event() {
        match event {
            SweepEvent::Point(point) => {
                assert!(point.cycles > 0);
                delivered += 1;
            }
            SweepEvent::Failed { index, message } => failures.push((index, message)),
            SweepEvent::Skipped { .. } | SweepEvent::Aborted { .. } => {
                panic!("nothing was cancelled here")
            }
        }
    }
    assert_eq!(failures.len(), 1, "exactly one point was sabotaged");
    assert!(
        failures[0].1.contains("injected fault"),
        "the panic message travels with the event: {:?}",
        failures[0]
    );
    assert_eq!(delivered, points.len() - 1);
    assert_eq!(stream.failed(), 1);
    assert_eq!(
        session.cache_stats().entries,
        points.len() - 1,
        "the failed point must not be cached"
    );

    // Post-fault: re-running the grid heals the hole and matches the
    // batched oracle bit for bit.
    let healed: Vec<u64> = session.stream(&points).collect_ordered();
    let reference = session.sweep_multi(&points);
    assert_eq!(healed, reference);
}

/// `clear_cache` is a *fence* against in-flight streamed jobs: points
/// submitted before the clear — held pre-simulation by the slow-points
/// hook so they finish strictly after it — still deliver to their stream,
/// but their results carry a stale generation and must not repopulate the
/// just-cleared cache.
#[test]
fn clearing_mid_stream_fences_out_in_flight_inserts() {
    let _guard = faults();
    let mut session = SweepSession::new();
    let points = grid(&mut session);

    // Every started point sleeps 120 ms before simulating, so the clear
    // below lands while all of them are pre-simulation: each insert
    // happens after the clear returned, with the pre-clear generation.
    fault::slow_every_point_ms(120);
    let mut stream = session.stream(&points);
    std::thread::sleep(Duration::from_millis(30));
    session.clear_cache();
    fault::reset();

    let mut delivered = 0;
    while let Some(event) = stream.next_event() {
        match event {
            SweepEvent::Point(point) => {
                assert!(point.cycles > 0);
                assert!(!point.cached, "nothing was cached before this grid");
                delivered += 1;
            }
            other => panic!("unexpected outcome: {other:?}"),
        }
    }
    assert_eq!(delivered, points.len(), "the clear loses no results");
    assert_eq!(
        session.cache_stats().entries,
        0,
        "clear is a fence: pre-clear jobs must not repopulate the cache"
    );

    // Jobs submitted *after* the clear populate it again as usual, with
    // results bit-for-bit equal to the fenced-out run.
    let again: Vec<u64> = session.stream(&points).collect_ordered();
    let reference = session.sweep_multi(&points);
    assert_eq!(again, reference);
    assert_eq!(session.cache_stats().entries, points.len());
}

/// The timeout-capable wait: an idle stream times out without consuming an
/// event, then yields the event once it arrives.
#[test]
fn next_event_timeout_reports_idle_streams() {
    use dae_core::StreamWait;

    let _guard = faults();
    let mut session = SweepSession::new();
    let points = grid(&mut session);

    fault::slow_every_point_ms(120);
    let mut stream = session.stream(&points);
    match stream.next_event_timeout(Duration::from_millis(5)) {
        StreamWait::TimedOut => {}
        other => panic!("a sleeping grid cannot produce an event in 5 ms: {other:?}"),
    }
    fault::reset();
    let mut outcomes = 0;
    loop {
        match stream.next_event_timeout(Duration::from_secs(30)) {
            StreamWait::Event(_) => outcomes += 1,
            StreamWait::TimedOut => panic!("the grid must finish"),
            StreamWait::Exhausted => break,
        }
    }
    assert_eq!(outcomes, stream.total());
}

/// Racing cancellation against the pool's claim path: with a wide
/// grid queued behind one slow point, jobs cancelled *while still queued*
/// are dropped at claim time (the pool's `claim_drops` counter advances)
/// and surface as `Skipped` — never `Point` — no matter which worker claims
/// them, and the accounting still balances.
#[test]
fn jobs_cancelled_while_queued_are_dropped_at_claim_time() {
    let _guard = faults();
    let mut session = SweepSession::new();
    let id = session.pin_program(PerfectProgram::Trfd, 120);
    let mut points = Vec::new();
    for &window in &[4usize, 8, 12, 16, 24, 32, 48, 64] {
        for &md in &[0u64, 20, 40, 60] {
            points.push((id, Machine::Decoupled, WindowSpec::Entries(window), md));
            points.push((id, Machine::Superscalar, WindowSpec::Entries(window), md));
        }
    }
    assert_eq!(points.len(), 64);

    // Each started point sleeps 100 ms before simulating, so when the
    // cancel lands ~30 ms in, at most one point per worker has been claimed
    // (and is still pre-simulation); the rest of the grid is queued.
    fault::slow_every_point_ms(100);
    let drops_before = rayon::global_pool_stats().claim_drops;
    let token = CancelToken::new();
    let mut stream = session.stream_classified(&points, &token, RequestClass::default());
    std::thread::sleep(Duration::from_millis(30));
    token.cancel();

    let mut delivered = 0;
    while let Some(event) = stream.next_event() {
        match event {
            SweepEvent::Point(_) => delivered += 1,
            SweepEvent::Skipped { .. } | SweepEvent::Aborted { .. } => {}
            SweepEvent::Failed { index, message } => {
                panic!("point {index} failed unexpectedly: {message}")
            }
        }
    }
    let claim_drops = rayon::global_pool_stats().claim_drops - drops_before;

    assert_eq!(delivered, 0, "no point can finish through the sleep");
    assert_eq!(
        delivered + stream.skipped() + stream.aborted() + stream.failed(),
        stream.total(),
        "accounting must balance even for claim-dropped jobs"
    );
    assert!(
        claim_drops >= 1,
        "with ~60 jobs still queued at cancel time, some must be dropped \
         at claim (claim_drops delta: {claim_drops})"
    );
    assert!(
        stream.skipped() as u64 >= claim_drops,
        "every claim-dropped job surfaces as Skipped, never Point \
         (skipped: {}, claim drops: {claim_drops})",
        stream.skipped()
    );
    assert_eq!(
        session.cache_stats().entries,
        0,
        "cancelled points must leave no cache entries"
    );

    // Post-fault: the same grid on the same session is correct.
    fault::reset();
    let clean: Vec<u64> = session.stream(&points).collect_ordered();
    let reference = session.sweep_multi(&points);
    assert_eq!(clean, reference);
}

/// A panicking point inside a *batched* sweep re-throws on the caller with
/// its message, leaves no cache entry, and the next grid on the same
/// session is bit-for-bit correct.  The grid repeats one point, so its one
/// simulation job is the only one that can start — and fail.
#[test]
fn a_panicking_point_in_a_batched_sweep_rethrows_and_spares_the_cache() {
    let _guard = faults();
    let mut session = SweepSession::new();
    let points = grid(&mut session);
    let repeated = vec![points[0]; 3];

    fault::panic_on_nth_start(1);
    let thrown = catch_unwind(AssertUnwindSafe(|| session.sweep_multi(&repeated)))
        .expect_err("the injected panic must reach the caller");
    let message = thrown
        .downcast_ref::<String>()
        .expect("re-thrown with the panic's message");
    assert!(message.contains("injected fault"), "message: {message}");
    let stats = session.cache_stats();
    assert_eq!(stats.entries, 0, "the failed point must not be cached");
    assert_eq!(
        (stats.lookups, stats.hits, stats.misses),
        (3, 2, 1),
        "the repeats rode the failed point's job"
    );

    // Post-fault: the next grid re-simulates the failed point and matches a
    // cache-off reference session bit for bit.
    fault::reset();
    let mut reference = SweepSession::new();
    reference.set_cache_enabled(false);
    let reference_points = grid(&mut reference);
    let expected = reference.sweep_multi(&reference_points);
    assert_eq!(session.sweep_multi(&points), expected);
    assert_eq!(session.cache_stats().entries, points.len());
    assert_eq!(session.cache_stats().misses, 1 + points.len() as u64);
}

/// Cancelling a stream whose grid repeats points: followers settle with
/// their job's skip or abort, every index is accounted exactly once and
/// the totals balance.
#[test]
fn a_cancelled_stream_with_repeated_points_balances() {
    let _guard = faults();
    let mut session = SweepSession::new();
    let distinct = grid(&mut session);
    let points: Vec<SweepPoint> = (0..3).flat_map(|_| distinct.iter().copied()).collect();

    fault::slow_every_point_ms(120);
    let token = CancelToken::new();
    let mut stream = session.stream_classified(&points, &token, RequestClass::default());
    std::thread::sleep(Duration::from_millis(30));
    token.cancel();

    let mut seen = vec![false; points.len()];
    let mut delivered = 0;
    while let Some(event) = stream.next_event() {
        let index = match event {
            SweepEvent::Point(point) => {
                delivered += 1;
                point.index
            }
            SweepEvent::Skipped { index } | SweepEvent::Aborted { index } => index,
            SweepEvent::Failed { index, message } => {
                panic!("point {index} failed unexpectedly: {message}")
            }
        };
        assert!(!seen[index], "point {index} settled twice");
        seen[index] = true;
    }
    assert!(seen.iter().all(|&s| s), "every point settles");
    assert_eq!(delivered, 0, "no point can finish through the sleep");
    assert_eq!(
        delivered + stream.skipped() + stream.aborted() + stream.failed(),
        stream.total(),
        "accounting must balance"
    );
    assert_eq!(session.cache_stats().entries, 0);

    fault::reset();
    let clean: Vec<u64> = session.stream(&points).collect_ordered();
    assert_eq!(clean, session.sweep_multi(&points));
}
