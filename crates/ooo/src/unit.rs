//! The out-of-order unit simulator (event-driven scheduling core).
//!
//! This is the performance-critical engine of the whole reproduction: every
//! table and figure is built from thousands of full-trace simulations.  The
//! scheduler is therefore *event driven* rather than cycle-scanned:
//!
//! * each instruction carries a **remaining-operand counter** over its
//!   local [`Dep`](dae_trace::Dep) edges;
//! * when an instruction issues, a completion event is queued; when it
//!   fires, only the consumers recorded in a precomputed
//!   [`WakeupList`](dae_trace::WakeupList) are woken — never the whole
//!   window;
//! * instructions whose operands are all available sit in an explicit
//!   **ready set** — a bitset keyed by stream index, which *is* window age —
//!   so the oldest-first select is a find-first-set scan over exactly the
//!   issuable instructions;
//! * instructions blocked on machine state (cross-unit dependences, memory
//!   arrivals) park until an event re-evaluates them: either a self wake at
//!   a time the [`ExecContext`] can name ([`GateWait::At`]), or an external
//!   wake injected by the machine model via [`UnitSim::schedule_reeval`].
//!
//! The result is O(instructions × dependences) scheduling work instead of
//! the naive O(cycles × window × dependences) — see
//! [`NaiveUnitSim`](crate::NaiveUnitSim) for the retained reference
//! implementation, and `tests/scheduler_differential.rs` for the proof of
//! cycle-exact equivalence.
//!
//! ## Time-skipping support
//!
//! A machine run loop does not have to tick the unit every cycle: after a
//! step, [`UnitSim::next_activity`] names the earliest future cycle at
//! which stepping this unit could change any state, and
//! [`UnitSim::idle_advance`] bulk-accounts the skipped idle cycles so every
//! per-cycle statistic (occupancy integral, starvation, window pressure)
//! remains bit-for-bit identical to stepping through the stall one cycle at
//! a time.  `next_activity` is allowed to be conservative (too early is
//! merely slower) but never late — the invariant the differential tests
//! enforce.

use crate::calendar::{EventRing, ReadySet, NIL as NIL_EVENT};
use crate::fu::{FuClass, FuPool};
use crate::{RetirePolicy, UnitConfig, UnitStats};
use dae_isa::{Cycle, LatencyModel};
use dae_trace::{ExecKind, MachineInst, WakeupList};
use std::sync::{Arc, Weak};

/// How long a machine-specific readiness gate will stay closed.
///
/// Returned by [`ExecContext::gate_wait`]; the scheduler uses it to decide
/// when to look at a gated instruction again without polling it every cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateWait {
    /// The gate is open: the instruction may issue now (equivalent to
    /// [`ExecContext::data_ready`] returning `true`).
    Open,
    /// The gate opens at the given cycle under current knowledge (e.g. the
    /// arrival time of an in-flight memory transaction).  The scheduler
    /// re-evaluates then; if the time moved (a re-prefetch), it simply waits
    /// again.
    At(Cycle),
    /// No opening time can be named (e.g. waiting for another instruction
    /// to release buffer capacity).  The scheduler re-checks the gate every
    /// cycle, exactly like the naive reference.
    Poll,
}

/// Machine-specific behaviour the unit delegates to its owner.
///
/// A [`UnitSim`] knows how to dispatch, select and retire; it does *not*
/// know what a load means on the machine it is part of.  The machine models
/// in `dae-machines` implement this trait to supply:
///
/// * the completion times of cross-unit dependences (decoupled machine
///   only), already including the cross-unit transfer latency;
/// * the data-arrival gate for `LoadConsume` instructions (decoupled memory
///   or prefetch buffer), plus — for the event-driven scheduler — *when*
///   a closed gate will open ([`ExecContext::gate_wait`]); and
/// * the execution of memory instructions themselves.
pub trait ExecContext {
    /// The cycle at which the cross-unit dependence `idx` (an index into the
    /// other unit's stream) is satisfied, including any transfer latency.
    /// `None` if the producer has not been issued yet.
    ///
    /// Contract: once this returns `Some(t)`, later calls must keep
    /// returning the same `t` (completion times are immutable) — the
    /// scheduler relies on satisfied dependences *staying* satisfied.
    ///
    /// Units that never see cross dependences (SWSM, scalar) may keep the
    /// default implementation, which panics.
    fn cross_ready_at(&self, idx: usize) -> Option<Cycle> {
        let _ = idx;
        unreachable!("this machine has no cross-unit dependences")
    }

    /// Machine-specific readiness gate evaluated in addition to operand
    /// availability — e.g. "has the decoupled memory received the data for
    /// this tag yet?".  Defaults to always ready.
    fn data_ready(&self, inst: &MachineInst, now: Cycle) -> bool {
        let _ = (inst, now);
        true
    }

    /// When the [`ExecContext::data_ready`] gate for `inst` opens.
    ///
    /// The default derives a conservative answer from `data_ready`: open
    /// gates report [`GateWait::Open`], closed gates report
    /// [`GateWait::Poll`] (per-cycle re-checks, the naive behaviour).
    /// Machines that know the arrival time of the blocking transaction
    /// override this with [`GateWait::At`] so the scheduler can sleep until
    /// then.
    ///
    /// Contract: the gate must not open *earlier* than reported — `Open`
    /// must agree with `data_ready(inst, now)`, and `At(t)` requires the
    /// gate to stay closed strictly before `t` under current machine state
    /// (later state changes may postpone, but never advance, the opening).
    fn gate_wait(&self, inst: &MachineInst, now: Cycle) -> GateWait {
        if self.data_ready(inst, now) {
            GateWait::Open
        } else {
            GateWait::Poll
        }
    }

    /// Executes a memory-kind instruction (`LoadRequest`, `LoadConsume`,
    /// `LoadBlocking`, `StoreOp`) issued at `now` and returns its completion
    /// cycle, performing any side effects on the memory structures.
    fn execute_memory(&mut self, inst: &MachineInst, now: Cycle) -> Cycle;
}

/// A trivial [`ExecContext`] for streams without memory instructions or
/// cross dependences; useful in tests and for purely arithmetic studies.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoMemoryContext;

impl ExecContext for NoMemoryContext {
    fn execute_memory(&mut self, _inst: &MachineInst, now: Cycle) -> Cycle {
        now + 1
    }
}

/// Scheduling state of one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InstState {
    /// Not yet dispatched into the window.
    Pending,
    /// Dispatched; waiting for local operands (remaining counter > 0).
    Waiting,
    /// Local operands available; blocked on a cross dependence or a data
    /// gate, waiting for an event (self-scheduled, machine-injected, or a
    /// per-cycle poll) to re-evaluate it.
    Parked,
    /// In the ready queue, eligible for selection.
    Ready,
    /// Issued to a functional unit; may still hold its window slot.
    Issued,
    /// Window slot released.
    Retired,
}

const NONE: u32 = u32::MAX;

/// The reusable per-run buffers of a [`UnitSim`] — everything the simulator
/// allocates per construction (window links, ready bitset, event ring,
/// completion and state arrays, poll and scratch lists), detached from any
/// particular stream.
///
/// Constructing a unit is ~5% of a short decoupled-machine run, and sweeps
/// construct units per (window, memory-differential) point; recycling the
/// buffers through [`UnitSim::into_scratch`] /
/// [`UnitSim::with_wakeups_scratch`] makes every construction after the
/// first allocation-free (buffers are cleared and re-sized, keeping their
/// capacity — including the event ring's grown bucket array and node pool).
/// A scratch is not tied to a stream, configuration or machine: the same
/// one may serve a DM unit, then an SWSM unit, then a scalar unit of
/// different lengths.  `dae-machines` keeps a per-thread pool of these for
/// the parallel sweep drivers.
#[derive(Debug)]
pub struct UnitScratch {
    remaining_local: Vec<u32>,
    state: Vec<InstState>,
    win_prev: Vec<u32>,
    win_next: Vec<u32>,
    pending_free: Vec<usize>,
    ready: ReadySet,
    poll_list: Vec<usize>,
    in_poll: Vec<bool>,
    poll_scan: Vec<usize>,
    events: EventRing,
    issued_now: Vec<(usize, Cycle)>,
    completions: Vec<Cycle>,
    /// Pristine remaining-operand counters for [`UnitScratch::template_of`]
    /// — when consecutive runs execute the *same* shared stream (a sweep
    /// varying only machine parameters), the per-instruction dependence
    /// walk is replaced by one memcpy.
    remaining_template: Vec<u32>,
    /// Identity of the stream `remaining_template` was computed from.  A
    /// `Weak` rather than a raw pointer: if the stream has been dropped,
    /// the upgrade fails and the template is recomputed — a recycled
    /// allocation at the same address can never alias a stale template.
    template_of: Weak<Vec<MachineInst>>,
}

impl Default for UnitScratch {
    fn default() -> Self {
        UnitScratch {
            remaining_local: Vec::new(),
            state: Vec::new(),
            win_prev: Vec::new(),
            win_next: Vec::new(),
            pending_free: Vec::new(),
            ready: ReadySet::new(0),
            poll_list: Vec::new(),
            in_poll: Vec::new(),
            poll_scan: Vec::new(),
            events: EventRing::new(),
            issued_now: Vec::new(),
            completions: Vec::new(),
            remaining_template: Vec::new(),
            template_of: Weak::new(),
        }
    }
}

/// Sentinel for "not yet completed" in the packed completion array.  It
/// compares greater than every reachable cycle, so readiness checks reduce
/// to one comparison (the deadlock safety bounds trip long before any real
/// completion could approach it).
const PENDING: Cycle = Cycle::MAX;

/// A cycle-level simulator of one out-of-order unit (event-driven; see the
/// module docs).
///
/// Per cycle ([`UnitSim::step`]):
///
/// 1. **events** — fire due completion wakeups and re-evaluations;
/// 2. **retire** — release window slots according to the [`RetirePolicy`];
/// 3. **dispatch** — insert the next instructions of the stream, in program
///    order, while slots and dispatch bandwidth remain;
/// 4. **select & issue** — pop the ready queue oldest-first and issue up to
///    `issue_width` instructions (re-verifying readiness and functional
///    unit availability exactly as the naive scheduler would).
///
/// The unit is [`done`](UnitSim::is_done) once the whole stream has been
/// dispatched and every window slot has been released; the final execution
/// time is the maximum completion cycle observed.
///
/// # Example
///
/// ```
/// use dae_isa::{LatencyModel, OpKind};
/// use dae_ooo::{NoMemoryContext, UnitConfig, UnitSim};
/// use dae_trace::{Dep, MachineInst};
///
/// // A chain of three dependent 1-cycle integer operations.
/// let stream = vec![
///     MachineInst::arith(0, OpKind::IntAlu, vec![]),
///     MachineInst::arith(1, OpKind::IntAlu, vec![Dep::local(0)]),
///     MachineInst::arith(2, OpKind::IntAlu, vec![Dep::local(1)]),
/// ];
/// let mut unit = UnitSim::new(stream, UnitConfig::new(8, 4), LatencyModel::paper_default());
/// let mut ctx = NoMemoryContext;
/// let mut cycle = 0;
/// while !unit.is_done() {
///     unit.step(cycle, &mut ctx);
///     cycle += 1;
/// }
/// assert_eq!(unit.max_completion(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct UnitSim {
    stream: Arc<Vec<MachineInst>>,
    config: UnitConfig,
    latencies: LatencyModel,
    fu: FuPool,
    /// Producer → same-stream consumers, built once per stream and shared
    /// across runs.
    wakeups: Arc<WakeupList>,
    /// Unsatisfied local-dependence edges per instruction.
    remaining_local: Vec<u32>,
    state: Vec<InstState>,
    /// Intrusive doubly-linked window list over stream indices (`u32`
    /// links: streams are bounded well below `u32::MAX` and the two arrays
    /// are re-initialised on every run, so width is memory traffic).
    win_prev: Vec<u32>,
    win_next: Vec<u32>,
    win_head: u32,
    win_tail: u32,
    window_len: usize,
    unissued_in_window: usize,
    /// Issued instructions whose slot frees at the next retire
    /// (`FreeAtIssue` only).
    pending_free: Vec<usize>,
    /// Ready set: bitset over stream index = window age.
    ready: ReadySet,
    /// Parked instructions whose gate can only be polled.
    poll_list: Vec<usize>,
    /// Membership flags for `poll_list` (prevents duplicate entries).
    in_poll: Vec<bool>,
    /// Scratch: sorted poll candidates for the current issue scan.
    poll_scan: Vec<usize>,
    /// Pending completion / re-evaluation events in a calendar queue.
    events: EventRing,
    /// Instructions issued during the current/most recent step, with their
    /// completion cycles — drained by machine models to forward cross-unit
    /// wakeups.
    issued_now: Vec<(usize, Cycle)>,
    dispatch_ptr: usize,
    /// Completion cycle per instruction, [`PENDING`] until issued (packed —
    /// half the footprint of `Option<Cycle>`, and operand checks become a
    /// single comparison).
    completions: Vec<Cycle>,
    max_completion: Cycle,
    stats: UnitStats,
    /// Carried through from [`UnitScratch`] (never touched by the run) so
    /// [`UnitSim::into_scratch`] can hand the template cache back.
    remaining_template: Vec<u32>,
    template_of: Weak<Vec<MachineInst>>,
}

impl UnitSim {
    /// Creates a unit that will execute `stream` under `config`.
    ///
    /// The local wakeup lists are built here, once per stream — the only
    /// O(instructions × dependences) pass outside the simulation itself.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`UnitConfig::validate`]).
    #[must_use]
    pub fn new(
        stream: impl Into<Arc<Vec<MachineInst>>>,
        config: UnitConfig,
        latencies: LatencyModel,
    ) -> Self {
        let stream = stream.into();
        let wakeups = Arc::new(WakeupList::local(&stream));
        Self::with_wakeups_scratch(stream, wakeups, config, latencies, UnitScratch::default())
    }

    /// Creates a unit from a stream whose wakeup lists were already built
    /// (e.g. by the trace lowerings, which attach them to their program
    /// structures so sweeps can reuse them across runs), recycling the
    /// buffers of a previous run.
    ///
    /// Every per-run structure is cleared and re-sized for the new stream
    /// but keeps its allocation, so constructing a unit from a warm
    /// [`UnitScratch`] performs no allocation at all (until a structure
    /// outgrows its recycled capacity).  The scratch may come from a unit
    /// of any stream, configuration or machine.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or `wakeups` does not cover
    /// the stream.
    #[must_use]
    pub fn with_wakeups_scratch(
        stream: Arc<Vec<MachineInst>>,
        wakeups: Arc<WakeupList>,
        config: UnitConfig,
        latencies: LatencyModel,
        scratch: UnitScratch,
    ) -> Self {
        config
            .validate()
            .unwrap_or_else(|msg| panic!("invalid unit configuration: {msg}"));
        let len = stream.len();
        assert!(u32::try_from(len).is_ok(), "stream too long");
        assert_eq!(
            wakeups.producers(),
            len,
            "wakeup list does not match stream"
        );
        let UnitScratch {
            mut remaining_local,
            mut state,
            mut win_prev,
            mut win_next,
            mut pending_free,
            mut ready,
            mut poll_list,
            mut in_poll,
            mut poll_scan,
            mut events,
            mut issued_now,
            mut completions,
            mut remaining_template,
            mut template_of,
        } = scratch;
        // Same shared stream as the previous run of this scratch (the
        // common shape of a sweep): the counters are a memcpy of the cached
        // template.  Otherwise walk the dependence lists once and cache.
        let same_stream = template_of
            .upgrade()
            .is_some_and(|cached| Arc::ptr_eq(&cached, &stream));
        remaining_local.clear();
        if same_stream {
            remaining_local.extend_from_slice(&remaining_template);
        } else {
            remaining_local.extend(stream.iter().map(|inst| {
                u32::try_from(inst.deps.iter().filter(|d| !d.is_cross()).count())
                    .expect("too many dependences")
            }));
            remaining_template.clear();
            remaining_template.extend_from_slice(&remaining_local);
            template_of = Arc::downgrade(&stream);
        }
        state.clear();
        state.resize(len, InstState::Pending);
        // The window links and poll-membership flags are restored to their
        // pristine state by a *completed* run (every dispatched instruction
        // is unlinked at retirement, every poll entry is pruned once it
        // issues) and [`UnitSim::into_scratch`] scrubs the rare abandoned
        // unit, so only the length needs adjusting here.
        debug_assert!(win_prev.iter().all(|&link| link == NONE));
        debug_assert!(win_next.iter().all(|&link| link == NONE));
        debug_assert!(in_poll.iter().all(|&flag| !flag));
        win_prev.resize(len, NONE);
        win_next.resize(len, NONE);
        in_poll.resize(len, false);
        pending_free.clear();
        ready.reset(len);
        poll_list.clear();
        poll_scan.clear();
        events.reset();
        issued_now.clear();
        completions.clear();
        completions.resize(len, PENDING);
        UnitSim {
            stream,
            config,
            latencies,
            fu: FuPool::new(config.fu),
            wakeups,
            remaining_local,
            state,
            win_prev,
            win_next,
            win_head: NONE,
            win_tail: NONE,
            window_len: 0,
            unissued_in_window: 0,
            pending_free,
            ready,
            poll_list,
            in_poll,
            poll_scan,
            events,
            issued_now,
            dispatch_ptr: 0,
            completions,
            max_completion: 0,
            stats: UnitStats::default(),
            remaining_template,
            template_of,
        }
    }

    /// Consumes the unit and returns its buffers for reuse by a later
    /// [`UnitSim::with_wakeups_scratch`] construction (the stream, wakeup
    /// list and counters are dropped; the allocations survive).
    #[must_use]
    pub fn into_scratch(mut self) -> UnitScratch {
        if !self.is_done() {
            // An abandoned mid-run unit leaves window links and poll flags
            // set; scrub them so the pristine-state invariant the pooled
            // constructor relies on holds unconditionally.  (Completed
            // runs — the only shape the machines produce — skip this.)
            self.win_prev.fill(NONE);
            self.win_next.fill(NONE);
            self.in_poll.fill(false);
        }
        UnitScratch {
            remaining_local: self.remaining_local,
            state: self.state,
            win_prev: self.win_prev,
            win_next: self.win_next,
            pending_free: self.pending_free,
            ready: self.ready,
            poll_list: self.poll_list,
            in_poll: self.in_poll,
            poll_scan: self.poll_scan,
            events: self.events,
            issued_now: self.issued_now,
            completions: self.completions,
            remaining_template: self.remaining_template,
            template_of: self.template_of,
        }
    }

    /// The instruction stream being executed.
    #[must_use]
    pub fn stream(&self) -> &[MachineInst] {
        &self.stream
    }

    /// Returns `true` once the stream has been fully dispatched and every
    /// window slot has been released.
    #[must_use]
    #[inline]
    pub fn is_done(&self) -> bool {
        self.dispatch_ptr == self.stream.len() && self.window_len == 0
    }

    /// The completion cycle of stream instruction `idx`, if it has issued.
    #[must_use]
    #[inline]
    pub fn completion(&self, idx: usize) -> Option<Cycle> {
        self.completions.get(idx).copied().filter(|&t| t != PENDING)
    }

    /// The largest completion cycle observed so far.
    #[must_use]
    #[inline]
    pub fn max_completion(&self) -> Cycle {
        self.max_completion
    }

    /// Counters accumulated so far.
    #[must_use]
    #[inline]
    pub fn stats(&self) -> &UnitStats {
        &self.stats
    }

    /// Total rejected issue attempts due to functional-unit limits.
    #[must_use]
    pub fn fu_rejections(&self) -> u64 {
        self.fu.rejections()
    }

    /// The architectural trace position of the oldest instruction still
    /// holding a window slot (used for effective-single-window and slippage
    /// measurements).
    #[must_use]
    #[inline]
    pub(crate) fn oldest_inflight_trace_pos(&self) -> Option<usize> {
        (self.win_head != NONE).then(|| self.stream[self.win_head as usize].trace_pos)
    }

    /// The architectural trace position of the most recently dispatched
    /// instruction.
    #[must_use]
    #[inline]
    pub(crate) fn youngest_dispatched_trace_pos(&self) -> Option<usize> {
        if self.dispatch_ptr == 0 {
            None
        } else {
            Some(self.stream[self.dispatch_ptr - 1].trace_pos)
        }
    }

    /// The instructions issued by the most recent [`UnitSim::step`], with
    /// their completion cycles.  Machine models read this after stepping a
    /// unit to forward cross-unit wakeups to the other unit.
    #[must_use]
    #[inline]
    pub(crate) fn issued_this_step(&self) -> &[(usize, Cycle)] {
        &self.issued_now
    }

    /// Injects an external wakeup: instruction `idx` is re-evaluated at the
    /// first step whose cycle is `>= at`.  Used by machine models when an
    /// event outside this unit (a cross-unit producer issuing, a memory
    /// transaction being requested) may unblock a parked instruction.
    ///
    /// Spurious wakeups are harmless — re-evaluation of a still-blocked or
    /// already-issued instruction is a no-op.
    #[inline]
    pub(crate) fn schedule_reeval(&mut self, idx: usize, at: Cycle) {
        self.events.push_reeval(at, idx as u32);
    }

    /// The earliest cycle after `now` at which stepping this unit could
    /// change any state (issue, dispatch, retire, counter or readiness
    /// transition), or `None` when the unit is finished.
    ///
    /// The bound is conservative: it may name a cycle where nothing happens
    /// (costing an extra step, never correctness), but it never skips a
    /// cycle where the naive scheduler would have acted.
    #[must_use]
    #[inline]
    pub fn next_activity(&self, now: Cycle) -> Option<Cycle> {
        if self.is_done() {
            return None;
        }
        // Anything already actionable pins the horizon to the very next
        // cycle — no probe can name anything earlier, so the busy case
        // (dispatchable stream, ready or polled or freeable instructions)
        // returns without touching the retire head or the event queue.
        let can_dispatch = self.dispatch_ptr < self.stream.len()
            && match self.config.window_size {
                Some(cap) => self.window_len < cap,
                None => true,
            };
        if can_dispatch
            || !self.ready.is_empty()
            || !self.poll_list.is_empty()
            || !self.pending_free.is_empty()
        {
            return Some(now + 1);
        }
        let mut t = Cycle::MAX;
        if self.config.retire == RetirePolicy::InOrderAtComplete && self.win_head != NONE {
            let done_at = self.completions[self.win_head as usize];
            if done_at != PENDING {
                t = done_at.max(now + 1);
            }
        }
        if let Some(at) = self.events.next_cycle() {
            t = t.min(at.max(now + 1));
        }
        (t != Cycle::MAX).then_some(t)
    }

    /// Bulk-accounts `cycles` idle cycles during which the machine proved
    /// (via [`UnitSim::next_activity`]) that stepping would change nothing.
    /// Every per-cycle statistic advances exactly as `cycles` naive steps
    /// would have advanced it.
    #[inline]
    pub fn idle_advance(&mut self, cycles: Cycle) {
        if cycles == 0 {
            return;
        }
        self.stats.cycles += cycles;
        self.stats.issue_slots += cycles * self.config.issue_width as u64;
        self.stats.occupancy_sum += cycles * self.window_len as u64;
        if self.unissued_in_window > 0 {
            self.stats.starved_cycles += cycles;
        }
        if self.dispatch_ptr < self.stream.len()
            && self
                .config
                .window_size
                .is_some_and(|cap| self.window_len >= cap)
        {
            self.stats.window_full_cycles += cycles;
        }
    }

    /// Executes one machine cycle.
    pub fn step<C: ExecContext>(&mut self, now: Cycle, ctx: &mut C) {
        self.stats.cycles += 1;
        self.stats.issue_slots += self.config.issue_width as u64;
        self.fu.begin_cycle();
        self.issued_now.clear();

        self.process_events(now, ctx);
        self.retire(now);
        self.dispatch(now, ctx);
        self.issue(now, ctx);

        self.stats.occupancy_sum += self.window_len as u64;
        self.stats.occupancy_max = self.stats.occupancy_max.max(self.window_len);
    }

    fn process_events<C: ExecContext>(&mut self, now: Cycle, ctx: &mut C) {
        while let Some(at) = self.events.next_cycle() {
            if at > now {
                break;
            }
            // All completions of a cycle fire before its re-evaluations, so
            // a woken instruction sees the decremented counters.  (Anything
            // these handlers queue lands at `now + 1` or later, never back
            // into the cycle being drained — the detached chains are safe
            // to walk while handlers push.)
            let (mut complete, mut reeval) = self.events.take_at(at);
            while complete != NIL_EVENT {
                let (next, idx) = self.events.chain_next(complete);
                complete = next;
                // `idx` completed at `at`: wake its local consumers.  The
                // list is re-indexed per consumer rather than held across
                // `evaluate`'s `&mut self`; cloning the `Arc` instead would
                // write its shared refcount every cycle, and that cache
                // line bounces between workers simulating one program.
                let idx = idx as usize;
                for k in 0..self.wakeups.of(idx).len() {
                    let consumer = self.wakeups.of(idx)[k] as usize;
                    self.remaining_local[consumer] -= 1;
                    if self.remaining_local[consumer] == 0
                        && self.state[consumer] == InstState::Waiting
                    {
                        self.evaluate(consumer, now, ctx);
                    }
                }
            }
            while reeval != NIL_EVENT {
                let (next, idx) = self.events.chain_next(reeval);
                reeval = next;
                let idx = idx as usize;
                if self.state[idx] == InstState::Parked {
                    self.evaluate(idx, now, ctx);
                }
            }
        }
        self.events.advance_base(now + 1);
    }

    /// Decides what a dispatched instruction with all local operands
    /// available is waiting for, and files it accordingly: the ready queue,
    /// a timed self-wakeup, the poll list, or (for cross dependences whose
    /// producer has not issued) nothing — the machine model is responsible
    /// for injecting a wakeup when that producer issues.
    fn evaluate<C: ExecContext>(&mut self, idx: usize, now: Cycle, ctx: &C) {
        debug_assert_eq!(self.remaining_local[idx], 0);
        // Cross-unit dependences first: all must be satisfied before the
        // data gate can matter (and, for consumes, before the gate's opening
        // time is knowable).
        let mut wake_at: Cycle = 0;
        let mut unknown = false;
        for dep in &self.stream[idx].deps {
            if dep.is_cross() {
                match ctx.cross_ready_at(dep.index()) {
                    Some(t) if t <= now => {}
                    Some(t) => wake_at = wake_at.max(t),
                    None => unknown = true,
                }
            }
        }
        if unknown {
            // Await the machine-injected wakeup for the unissued producer.
            self.state[idx] = InstState::Parked;
            return;
        }
        if wake_at > now {
            self.state[idx] = InstState::Parked;
            self.events.push_reeval(wake_at, idx as u32);
            return;
        }
        match ctx.gate_wait(&self.stream[idx], now) {
            GateWait::Open => {
                self.state[idx] = InstState::Ready;
                self.ready.insert(idx);
            }
            GateWait::At(t) => {
                self.state[idx] = InstState::Parked;
                self.events.push_reeval(t.max(now + 1), idx as u32);
            }
            GateWait::Poll => {
                self.state[idx] = InstState::Parked;
                if !self.in_poll[idx] {
                    self.in_poll[idx] = true;
                    self.poll_list.push(idx);
                }
            }
        }
    }

    fn retire(&mut self, now: Cycle) {
        match self.config.retire {
            RetirePolicy::InOrderAtComplete => {
                // `PENDING` compares greater than `now`, so one comparison
                // covers both "not issued" and "still executing".
                while self.win_head != NONE && self.completions[self.win_head as usize] <= now {
                    let head = self.win_head as usize;
                    self.unlink(head);
                    self.state[head] = InstState::Retired;
                    self.stats.retired += 1;
                }
            }
            RetirePolicy::FreeAtIssue => {
                // Slots of instructions issued in earlier cycles free now —
                // an O(issued) unlink instead of the naive full-window
                // `retain` scan.
                for i in 0..self.pending_free.len() {
                    let idx = self.pending_free[i];
                    self.unlink(idx);
                    self.state[idx] = InstState::Retired;
                    self.stats.retired += 1;
                }
                self.pending_free.clear();
            }
        }
    }

    fn unlink(&mut self, idx: usize) {
        let prev = self.win_prev[idx];
        let next = self.win_next[idx];
        if prev == NONE {
            self.win_head = next;
        } else {
            self.win_next[prev as usize] = next;
        }
        if next == NONE {
            self.win_tail = prev;
        } else {
            self.win_prev[next as usize] = prev;
        }
        self.win_prev[idx] = NONE;
        self.win_next[idx] = NONE;
        self.window_len -= 1;
    }

    fn dispatch<C: ExecContext>(&mut self, now: Cycle, ctx: &mut C) {
        let mut dispatched = 0;
        let dispatch_width = self.config.effective_dispatch_width();
        let mut blocked_by_full_window = false;
        while self.dispatch_ptr < self.stream.len() && dispatched < dispatch_width {
            let has_space = match self.config.window_size {
                Some(cap) => self.window_len < cap,
                None => true,
            };
            if !has_space {
                blocked_by_full_window = true;
                break;
            }
            let idx = self.dispatch_ptr;
            self.dispatch_ptr += 1;
            dispatched += 1;
            self.stats.dispatched += 1;
            // Link at the window tail.
            if self.win_tail == NONE {
                self.win_head = idx as u32;
            } else {
                self.win_next[self.win_tail as usize] = idx as u32;
                self.win_prev[idx] = self.win_tail;
            }
            self.win_tail = idx as u32;
            self.window_len += 1;
            self.unissued_in_window += 1;
            if self.remaining_local[idx] == 0 {
                self.evaluate(idx, now, ctx);
            } else {
                self.state[idx] = InstState::Waiting;
            }
        }
        if blocked_by_full_window {
            self.stats.window_full_cycles += 1;
        }
    }

    fn issue<C: ExecContext>(&mut self, now: Cycle, ctx: &mut C) {
        let mut issued_this_cycle = 0;
        let had_unissued = self.unissued_in_window > 0;

        // Poll-gated candidates join the scan at their window position, so
        // a gate opened by an *earlier issue of the same cycle* (a consume
        // freeing decoupled-memory capacity, a prefetch evicting a buffer
        // entry) is observed exactly where the naive window scan would
        // observe it.
        self.poll_scan.clear();
        if !self.poll_list.is_empty() {
            for i in 0..self.poll_list.len() {
                let idx = self.poll_list[i];
                if self.state[idx] == InstState::Parked {
                    self.poll_scan.push(idx);
                }
            }
            self.poll_scan.sort_unstable();
        }
        let mut poll_cursor = 0;
        // Next stream index the ready-set scan considers.  A candidate
        // rejected by the functional units simply stays in the set while the
        // cursor moves past it (the heap needed a pop/re-push stash here).
        let mut ready_cursor = 0;

        while issued_this_cycle < self.config.issue_width {
            let ready_top = self.ready.peek_ge(ready_cursor);
            let poll_top = self.poll_scan.get(poll_cursor).copied();
            let (idx, from_poll) = match (ready_top, poll_top) {
                (Some(r), Some(p)) if p < r => (p, true),
                (Some(r), _) => (r, false),
                (None, Some(p)) => (p, true),
                (None, None) => break,
            };
            if from_poll {
                poll_cursor += 1;
                if self.state[idx] != InstState::Parked {
                    continue;
                }
                // Evaluated mid-scan with the naive predicate; a still
                // closed gate leaves the instruction parked for the next
                // cycle's poll.
                if !self.is_ready(idx, now, ctx) {
                    continue;
                }
                if !self.fu.try_acquire(FuClass::of(&self.stream[idx])) {
                    // Rejection counted, exactly like the naive scan; the
                    // instruction stays parked and polls again next cycle.
                    continue;
                }
                self.complete_issue(idx, now, ctx);
                issued_this_cycle += 1;
            } else {
                ready_cursor = idx + 1;
                debug_assert_eq!(self.state[idx], InstState::Ready);
                // Re-verify only the data gate: operand satisfaction is
                // monotone (completion times are immutable once set, see
                // the `cross_ready_at` contract), but a gate may have
                // regressed since this instruction was filed as ready
                // (e.g. a re-prefetch pushed an arrival time back).
                debug_assert!(
                    self.is_ready(idx, now, ctx) == ctx.data_ready(&self.stream[idx], now)
                );
                if !ctx.data_ready(&self.stream[idx], now) {
                    self.ready.remove(idx);
                    self.state[idx] = InstState::Parked;
                    self.events.push_reeval(now + 1, idx as u32);
                    continue;
                }
                if !self.fu.try_acquire(FuClass::of(&self.stream[idx])) {
                    // Rejected this cycle; stays ready (and counted, exactly
                    // as the naive scan counts one rejection per ready
                    // candidate).
                    continue;
                }
                self.ready.remove(idx);
                self.complete_issue(idx, now, ctx);
                issued_this_cycle += 1;
            }
        }
        if had_unissued && issued_this_cycle == 0 {
            self.stats.starved_cycles += 1;
        }
        // Prune poll entries that issued (or otherwise moved on) this cycle.
        if !self.poll_list.is_empty() {
            let mut list = std::mem::take(&mut self.poll_list);
            list.retain(|&idx| {
                if self.state[idx] == InstState::Parked {
                    true
                } else {
                    self.in_poll[idx] = false;
                    false
                }
            });
            self.poll_list = list;
        }
    }

    fn complete_issue<C: ExecContext>(&mut self, idx: usize, now: Cycle, ctx: &mut C) {
        let completion = self.execute(idx, now, ctx);
        self.completions[idx] = completion;
        self.max_completion = self.max_completion.max(completion);
        self.state[idx] = InstState::Issued;
        self.unissued_in_window -= 1;
        if !self.wakeups.of(idx).is_empty() {
            self.events.push_complete(completion, idx as u32);
        }
        if self.config.retire == RetirePolicy::FreeAtIssue {
            self.pending_free.push(idx);
        }
        self.issued_now.push((idx, completion));
        self.stats.issued += 1;
    }

    fn is_ready<C: ExecContext>(&self, idx: usize, now: Cycle, ctx: &C) -> bool {
        let inst = &self.stream[idx];
        let operands_ready = inst.deps.iter().all(|dep| {
            if dep.is_cross() {
                ctx.cross_ready_at(dep.index()).is_some_and(|t| t <= now)
            } else {
                self.completions[dep.index()] <= now
            }
        });
        operands_ready && ctx.data_ready(inst, now)
    }

    fn execute<C: ExecContext>(&mut self, idx: usize, now: Cycle, ctx: &mut C) -> Cycle {
        let inst = &self.stream[idx];
        match inst.kind {
            ExecKind::Arith => now + self.latencies.latency_of(inst.op),
            ExecKind::CopySend => now + 1,
            ExecKind::LoadRequest
            | ExecKind::LoadConsume
            | ExecKind::LoadBlocking
            | ExecKind::StoreOp => ctx.execute_memory(inst, now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dae_isa::OpKind;
    use dae_trace::Dep;

    fn run(unit: &mut UnitSim) -> Cycle {
        let mut ctx = NoMemoryContext;
        run_with(unit, &mut ctx)
    }

    fn run_with<C: ExecContext>(unit: &mut UnitSim, ctx: &mut C) -> Cycle {
        let mut cycle = 0;
        while !unit.is_done() {
            unit.step(cycle, ctx);
            cycle += 1;
            assert!(cycle < 1_000_000, "simulation did not terminate");
        }
        unit.max_completion()
    }

    fn chain(n: usize, op: OpKind) -> Vec<MachineInst> {
        (0..n)
            .map(|i| {
                let deps = if i == 0 {
                    vec![]
                } else {
                    vec![Dep::local(i - 1)]
                };
                MachineInst::arith(i, op, deps)
            })
            .collect()
    }

    fn independent(n: usize, op: OpKind) -> Vec<MachineInst> {
        (0..n).map(|i| MachineInst::arith(i, op, vec![])).collect()
    }

    #[test]
    fn dependent_chain_is_serialised() {
        let mut unit = UnitSim::new(
            chain(10, OpKind::IntAlu),
            UnitConfig::new(16, 4),
            LatencyModel::paper_default(),
        );
        assert_eq!(run(&mut unit), 10);
        let mut fp = UnitSim::new(
            chain(10, OpKind::FpAdd),
            UnitConfig::new(16, 4),
            LatencyModel::paper_default(),
        );
        assert_eq!(run(&mut fp), 20);
    }

    #[test]
    fn independent_work_is_limited_by_issue_width() {
        let mut unit = UnitSim::new(
            independent(40, OpKind::IntAlu),
            UnitConfig::new(64, 4),
            LatencyModel::paper_default(),
        );
        // 40 independent 1-cycle ops at width 4: 10 issue cycles.
        assert_eq!(run(&mut unit), 10);
    }

    #[test]
    fn window_size_one_behaves_like_a_scalar_machine() {
        let mut unit = UnitSim::new(
            independent(10, OpKind::FpMul),
            UnitConfig::new(1, 4),
            LatencyModel::paper_default(),
        );
        // Each multiply occupies the single slot until it completes (2 cycles).
        assert_eq!(run(&mut unit), 20);
    }

    #[test]
    fn unlimited_window_matches_dataflow_limit() {
        let mut insts = independent(30, OpKind::IntAlu);
        // Add a final instruction depending on the last independent one.
        insts.push(MachineInst::arith(30, OpKind::FpAdd, vec![Dep::local(29)]));
        let mut unit = UnitSim::new(
            insts,
            UnitConfig {
                issue_width: 64,
                ..UnitConfig::unlimited_window(64)
            },
            LatencyModel::paper_default(),
        );
        // All 30 int ops issue in cycle 0, fp add issues at cycle 1, done at 3.
        assert_eq!(run(&mut unit), 3);
    }

    #[test]
    fn in_order_retirement_blocks_dispatch_behind_a_slow_op() {
        // One slow divide followed by many independent 1-cycle ops, window 2:
        // the divide occupies the front slot, so only one op can be resident
        // with it at a time.
        let mut insts = vec![MachineInst::arith(0, OpKind::FpDiv, vec![])];
        insts.extend((1..9).map(|i| MachineInst::arith(i, OpKind::IntAlu, vec![])));
        let in_order = UnitSim::new(
            insts.clone(),
            UnitConfig::new(2, 4),
            LatencyModel::paper_default(),
        );
        let free = UnitSim::new(
            insts,
            UnitConfig {
                retire: RetirePolicy::FreeAtIssue,
                ..UnitConfig::new(2, 4)
            },
            LatencyModel::paper_default(),
        );
        let mut in_order = in_order;
        let mut free = free;
        let t_in_order = run(&mut in_order);
        let t_free = run(&mut free);
        assert!(
            t_free < t_in_order,
            "free-at-issue ({t_free}) should beat in-order retirement ({t_in_order})"
        );
    }

    #[test]
    fn fu_limits_throttle_issue() {
        let cfg = UnitConfig {
            fu: crate::FuConfig::restricted(1, 1, 1),
            ..UnitConfig::new(64, 8)
        };
        let mut unit = UnitSim::new(
            independent(20, OpKind::IntAlu),
            cfg,
            LatencyModel::paper_default(),
        );
        // One integer unit: one op per cycle.
        assert_eq!(run(&mut unit), 20);
        assert!(unit.fu_rejections() > 0);
    }

    #[test]
    fn memory_instructions_are_delegated_to_the_context() {
        struct FixedMd(Cycle);
        impl ExecContext for FixedMd {
            fn execute_memory(&mut self, inst: &MachineInst, now: Cycle) -> Cycle {
                match inst.kind {
                    ExecKind::LoadBlocking => now + 1 + self.0,
                    _ => now + 1,
                }
            }
        }
        let insts = vec![
            MachineInst::memory(0, OpKind::Load, ExecKind::LoadBlocking, vec![], 0, Some(0)),
            MachineInst::arith(1, OpKind::FpAdd, vec![Dep::local(0)]),
        ];
        let mut unit = UnitSim::new(insts, UnitConfig::new(8, 2), LatencyModel::paper_default());
        let mut ctx = FixedMd(60);
        assert_eq!(run_with(&mut unit, &mut ctx), 63);
    }

    #[test]
    fn data_ready_gate_delays_issue() {
        struct GateAt(Cycle);
        impl ExecContext for GateAt {
            fn data_ready(&self, inst: &MachineInst, now: Cycle) -> bool {
                inst.kind != ExecKind::LoadConsume || now >= self.0
            }
            fn execute_memory(&mut self, _inst: &MachineInst, now: Cycle) -> Cycle {
                now + 1
            }
        }
        let insts = vec![MachineInst::memory(
            0,
            OpKind::Load,
            ExecKind::LoadConsume,
            vec![],
            0,
            Some(0),
        )];
        let mut unit = UnitSim::new(insts, UnitConfig::new(4, 2), LatencyModel::paper_default());
        let mut ctx = GateAt(25);
        assert_eq!(run_with(&mut unit, &mut ctx), 26);
        assert!(unit.stats().starved_cycles >= 24);
    }

    #[test]
    fn timed_gate_wait_skips_polling_but_matches_poll_semantics() {
        // Same gate as above, but the context names the opening cycle: the
        // scheduler parks the consume on a timed wakeup instead of polling.
        struct GateKnown(Cycle);
        impl ExecContext for GateKnown {
            fn data_ready(&self, inst: &MachineInst, now: Cycle) -> bool {
                inst.kind != ExecKind::LoadConsume || now >= self.0
            }
            fn gate_wait(&self, inst: &MachineInst, now: Cycle) -> GateWait {
                if self.data_ready(inst, now) {
                    GateWait::Open
                } else {
                    GateWait::At(self.0)
                }
            }
            fn execute_memory(&mut self, _inst: &MachineInst, now: Cycle) -> Cycle {
                now + 1
            }
        }
        let insts = vec![MachineInst::memory(
            0,
            OpKind::Load,
            ExecKind::LoadConsume,
            vec![],
            0,
            Some(0),
        )];
        let mut unit = UnitSim::new(
            insts.clone(),
            UnitConfig::new(4, 2),
            LatencyModel::paper_default(),
        );
        let mut ctx = GateKnown(25);
        assert_eq!(run_with(&mut unit, &mut ctx), 26);

        // And the unit can sleep through the stall: after the first step the
        // next activity is the gate opening, not the next cycle.
        let mut unit = UnitSim::new(insts, UnitConfig::new(4, 2), LatencyModel::paper_default());
        let mut ctx = GateKnown(25);
        unit.step(0, &mut ctx);
        assert_eq!(unit.next_activity(0), Some(25));
        unit.idle_advance(24);
        unit.step(25, &mut ctx);
        unit.step(26, &mut ctx);
        assert!(unit.is_done());
        assert_eq!(unit.max_completion(), 26);
        assert_eq!(unit.stats().cycles, 27, "idle cycles are accounted");
    }

    #[test]
    fn external_reevals_wake_parked_cross_dependences() {
        struct CrossCtx {
            ready_at: Option<Cycle>,
        }
        impl ExecContext for CrossCtx {
            fn cross_ready_at(&self, _idx: usize) -> Option<Cycle> {
                self.ready_at
            }
            fn execute_memory(&mut self, _inst: &MachineInst, now: Cycle) -> Cycle {
                now + 1
            }
        }
        let insts = vec![MachineInst::arith(0, OpKind::IntAlu, vec![Dep::cross(7)])];
        let mut unit = UnitSim::new(insts, UnitConfig::new(4, 2), LatencyModel::paper_default());
        let mut ctx = CrossCtx { ready_at: None };
        unit.step(0, &mut ctx);
        assert!(!unit.is_done());
        // Parked with no known wake: only dispatch-side activity remains —
        // and there is none, so the unit reports no local activity.
        assert_eq!(unit.next_activity(0), None);
        // The "machine" learns the producer issued, completing at 9 (+1
        // transfer) and injects the wakeup.
        ctx.ready_at = Some(10);
        unit.schedule_reeval(0, 10);
        assert_eq!(unit.next_activity(0), Some(10));
        unit.idle_advance(9);
        unit.step(10, &mut ctx);
        assert_eq!(unit.max_completion(), 11, "woken instruction issues at 10");
        unit.step(11, &mut ctx);
        assert!(unit.is_done(), "slot frees once the completion retires");
    }

    #[test]
    fn stats_track_dispatch_issue_retire_counts() {
        let mut unit = UnitSim::new(
            independent(25, OpKind::IntAlu),
            UnitConfig::new(8, 4),
            LatencyModel::paper_default(),
        );
        run(&mut unit);
        let st = unit.stats();
        assert_eq!(st.dispatched, 25);
        assert_eq!(st.issued, 25);
        assert_eq!(st.retired, 25);
        assert!(st.occupancy_max <= 8);
        assert!(st.issue_utilization() <= 1.0);
    }

    #[test]
    fn trace_position_probes_track_window_contents() {
        let insts = vec![
            MachineInst::arith(10, OpKind::FpDiv, vec![]),
            MachineInst::arith(11, OpKind::IntAlu, vec![]),
            MachineInst::arith(12, OpKind::IntAlu, vec![]),
        ];
        let mut unit = UnitSim::new(insts, UnitConfig::new(4, 4), LatencyModel::paper_default());
        let mut ctx = NoMemoryContext;
        unit.step(0, &mut ctx);
        assert_eq!(unit.oldest_inflight_trace_pos(), Some(10));
        assert_eq!(unit.youngest_dispatched_trace_pos(), Some(12));
        assert!(!unit.is_done());
    }

    #[test]
    #[should_panic(expected = "invalid unit configuration")]
    fn invalid_configuration_panics() {
        let _ = UnitSim::new(vec![], UnitConfig::new(8, 0), LatencyModel::paper_default());
    }

    #[test]
    fn empty_stream_is_immediately_done() {
        let unit = UnitSim::new(vec![], UnitConfig::new(8, 4), LatencyModel::paper_default());
        assert!(unit.is_done());
        assert_eq!(unit.max_completion(), 0);
        assert_eq!(unit.oldest_inflight_trace_pos(), None);
        assert_eq!(unit.youngest_dispatched_trace_pos(), None);
        assert_eq!(unit.next_activity(0), None);
    }
}
