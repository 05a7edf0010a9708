//! The shared multi-unit run engine.
//!
//! Every machine of the paper is "one or more out-of-order units around some
//! memory structure", and before this module existed each machine carried
//! its own copy of the run loop — clock management, time-skip bookkeeping
//! and the idle-advance fallback boilerplate, three times over.  The engine
//! owns all of that once.  A machine reduces to a [`MachineSpec`]: how to
//! step one unit (building its [`ExecContext`](dae_ooo::ExecContext) against
//! the shared memory structures and the peer units), how to forward
//! cross-unit wakeups after a step, and what to sample per cycle.
//!
//! Two clocking disciplines exist:
//!
//! * [`run_event`] — the production loop over
//!   [`EventUnit`](dae_ooo::EventUnit)s with **asymmetric per-unit clocks**:
//!   every unit keeps its own next-activity horizon and is stepped only when
//!   its own horizon arrives.  A unit sleeping through a 60-cycle memory
//!   stall costs nothing even while its peer is stepping every cycle — the
//!   decoupled machine no longer steps the DU on the AU's schedule or vice
//!   versa (the old loop stepped both units on the *union* of their active
//!   cycles).
//! * [`run_lockstep`] — the reference loop over any
//!   [`SchedulerUnit`](dae_ooo::SchedulerUnit): every unit steps every
//!   cycle.  Driving [`NaiveUnitSim`](dae_ooo::NaiveUnitSim) through it
//!   reproduces the seed simulator exactly; the differential suites hold
//!   [`run_event`] to bit-for-bit equality against it.
//!
//! ## Why asymmetric clocks stay cycle-exact
//!
//! Stepping a unit on a cycle its own `next_activity` did not name is, by
//! that method's contract, indistinguishable from `idle_advance(1)` — same
//! counters, same state.  So each unit's statistics may be settled lazily:
//! the engine tracks how far each unit's accounting has advanced and pays
//! the accumulated idle span immediately before the unit's next real step
//! (and once more at termination).  Observable cross-unit state (completion
//! times, window probes) is frozen between a unit's steps, so a peer
//! stepping in between reads exactly what the lockstep loop would read.
//!
//! The one way this could go wrong is a peer creating work for a sleeping
//! unit *earlier* than its current horizon — a cross-unit wakeup, a transfer
//! arrival.  Three invariants close that hole:
//!
//! 1. every cross-unit influence travels through
//!    [`schedule_reeval`](dae_ooo::EventUnit::schedule_reeval) or through
//!    completion times that are immutable once written, and always lands at
//!    least one cycle in the future;
//! 2. after any unit steps, the engine re-arms **every** unit's horizon
//!    (`next_activity` reflects newly injected events), so a skip in
//!    progress is interrupted by the peer's wakeup rather than slept
//!    through;
//! 3. gates that can open early without an event (finite-capacity polls)
//!    pin their unit's horizon to the very next cycle, so a polling unit is
//!    never asleep in the first place.

use crate::abort::AbortChecker;
use dae_isa::Cycle;
use dae_ooo::{EventUnit, SchedulerUnit};

/// Machine-specific glue driven by the engine: unit stepping (with whatever
/// memory structures and peer visibility the machine wires into its
/// [`ExecContext`](dae_ooo::ExecContext)), cross-unit wakeup forwarding, and
/// per-cycle sampling.
pub(crate) trait MachineSpec<U: SchedulerUnit> {
    /// Steps unit `u` at cycle `now`, building its execution context.
    fn step_unit(&mut self, units: &mut [U], u: usize, now: Cycle);

    /// Forwards the cross-unit wakeups implied by what unit `u` issued in
    /// the step that just ran.  Single-unit machines keep the default no-op.
    fn forward_wakeups(&mut self, units: &mut [U], u: usize)
    where
        U: EventUnit,
    {
        let _ = (units, u);
    }

    /// Accounts `cycles` cycles of per-cycle machine-level sampling (ESW /
    /// slippage for the DM) against the units' current — frozen — state.
    fn sample(&mut self, units: &[U], cycles: u64) {
        let _ = (units, cycles);
    }
}

/// The event-driven run loop with asymmetric per-unit clocks (see the
/// module docs).  Runs until every unit is done.
///
/// The unit count is a compile-time constant (every machine knows its
/// shape), so the per-unit bookkeeping lives in stack arrays — the loop
/// performs no allocation at all — and the single-unit machines (SWSM,
/// scalar) monomorphise straight into [`run_event_single`], which has no
/// multi-unit bookkeeping to begin with.
///
/// Both event loops poll the thread's installed abort token (see
/// [`crate::with_abort_token`]) every [`crate::abort::ABORT_POLL_INTERVAL`]
/// iterations, so a cancelled point unwinds mid-run instead of burning its
/// worker to completion.  The lockstep reference loop is deliberately left
/// uninstrumented: it is the oracle the event loops are differentially held
/// to, and it never runs under a server token.
///
/// # Panics
///
/// Panics if the clock reaches `safety_bound` cycles, which indicates a
/// machine deadlock (e.g. a cross wakeup that can never arrive) rather than
/// a slow program.  Unwinds with [`crate::AbortedSimulation`] when the
/// installed abort token is signalled.
pub(crate) fn run_event<U, S, const N: usize>(
    units: &mut [U; N],
    spec: &mut S,
    safety_bound: Cycle,
    machine: &str,
) where
    U: EventUnit,
    S: MachineSpec<U>,
{
    if N == 1 {
        return run_event_single(units, spec, safety_bound, machine);
    }
    if units.iter().all(U::is_done) {
        return;
    }
    let n = N;
    let mut aborts = AbortChecker::install();
    // Cycles already settled into each unit's statistics: cycles
    // `[0, synced[u])` are accounted, via steps or bulk idle advances.
    let mut synced = [0 as Cycle; N];
    // Units whose horizon is the current cycle.  Everyone steps at cycle 0.
    let mut due = [true; N];
    let mut horizon: [Option<Cycle>; N] = [None; N];
    let mut now: Cycle = 0;
    loop {
        aborts.poll();
        for u in 0..n {
            if due[u] {
                let lag = now - synced[u];
                if lag > 0 {
                    units[u].idle_advance(lag);
                }
                spec.step_unit(units, u, now);
                synced[u] = now + 1;
                spec.forward_wakeups(units, u);
            }
        }
        spec.sample(units, 1);

        if units.iter().all(U::is_done) {
            // The machine finished at the end of cycle `now`: settle every
            // unit's accounting to the common total (the lockstep loop keeps
            // stepping finished units until the last one is done, and an
            // idle advance is exactly such a step).
            let total = now + 1;
            for u in 0..n {
                let lag = total - synced[u];
                if lag > 0 {
                    units[u].idle_advance(lag);
                }
            }
            return;
        }

        // Re-arm every horizon: a step above may have injected events into
        // a peer (cross wakeups), moving its next activity earlier than the
        // skip it was sleeping through.
        let mut next = Cycle::MAX;
        for u in 0..n {
            horizon[u] = units[u].next_activity(now);
            if let Some(at) = horizon[u] {
                debug_assert!(at > now);
                next = next.min(at);
            }
        }
        if next == Cycle::MAX {
            // No unit can name a horizon but the machine is not done: only
            // an external event could help, and none is coming.  Limp
            // forward cycle by cycle so the safety bound turns this into a
            // diagnosable deadlock panic instead of a silent hang.
            next = now + 1;
            for u in 0..n {
                due[u] = !units[u].is_done();
            }
        } else {
            for u in 0..n {
                due[u] = horizon[u] == Some(next);
            }
        }
        let skipped = next - now - 1;
        if skipped > 0 {
            // Machine-level per-cycle samples cover the skipped span with
            // the frozen window state, exactly as the lockstep loop would
            // have sampled it.
            spec.sample(units, skipped);
        }
        now = next;
        assert!(
            now < safety_bound,
            "{machine} simulation exceeded {safety_bound} cycles — likely a deadlock"
        );
    }
}

/// The single-unit specialisation of [`run_event`].
///
/// With one unit the general loop's machinery is pure overhead: there is no
/// peer to inject events, so no horizon needs re-arming after a step (the
/// unit's own `next_activity` is the whole schedule), no `synced` lag can
/// accumulate (the unit is stepped at every advance), and the `due`
/// bookkeeping collapses to "step at the horizon".  The calendar-queue
/// generality cost the scalar machine ~10% per step through exactly this
/// bookkeeping; the specialisation restores the straight-line loop.
///
/// Accounting equivalence with the general loop: after a step at `now` the
/// unit's statistics cover `[0, now + 1)`; a skip to `next` pays
/// `idle_advance(next - now - 1)` immediately (the general loop defers it
/// until just before the next step, but no one can observe the difference —
/// there is no peer), and machine-level samples cover the skipped span with
/// the same frozen state.
fn run_event_single<U, S>(units: &mut [U], spec: &mut S, safety_bound: Cycle, machine: &str)
where
    U: EventUnit,
    S: MachineSpec<U>,
{
    debug_assert_eq!(units.len(), 1);
    if units[0].is_done() {
        return;
    }
    let mut aborts = AbortChecker::install();
    let mut now: Cycle = 0;
    loop {
        aborts.poll();
        spec.step_unit(units, 0, now);
        spec.sample(units, 1);
        if units[0].is_done() {
            return;
        }
        // No peer exists to move the horizon, so the unit's own answer is
        // final; `None` (only external events could help, and none can
        // come) limps forward cycle by cycle into the safety bound.
        let next = units[0].next_activity(now).unwrap_or(now + 1);
        debug_assert!(next > now);
        let skipped = next - now - 1;
        if skipped > 0 {
            units[0].idle_advance(skipped);
            spec.sample(units, skipped);
        }
        now = next;
        assert!(
            now < safety_bound,
            "{machine} simulation exceeded {safety_bound} cycles — likely a deadlock"
        );
    }
}

/// The reference run loop: every unit steps every cycle, in unit order.
/// Drives the naive scheduler for `run_reference` (and works over any
/// [`SchedulerUnit`]); this is the oracle the event-driven loop is held to.
///
/// # Panics
///
/// Panics if the clock reaches `safety_bound` cycles (deadlock).
pub(crate) fn run_lockstep<U, S>(units: &mut [U], spec: &mut S, safety_bound: Cycle, machine: &str)
where
    U: SchedulerUnit,
    S: MachineSpec<U>,
{
    let mut now: Cycle = 0;
    while !units.iter().all(U::is_done) {
        for u in 0..units.len() {
            spec.step_unit(units, u, now);
        }
        spec.sample(units, 1);
        now += 1;
        assert!(
            now < safety_bound,
            "{machine} simulation exceeded {safety_bound} cycles — likely a deadlock"
        );
    }
}

/// A generous upper bound on how long any legitimate simulation can take:
/// every instruction fully serialised at the worst-case latency, doubled,
/// plus slack.
pub(crate) fn safety_bound(instructions: usize, md: Cycle, max_latency: Cycle) -> Cycle {
    (instructions as Cycle + 16) * (md + max_latency + 4) * 2 + 10_000
}
