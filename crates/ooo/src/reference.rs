//! The naive cycle-stepped scheduler, retained verbatim as the semantic
//! reference for the event-driven [`UnitSim`](crate::UnitSim).
//!
//! [`NaiveUnitSim`] is the original implementation of the out-of-order unit:
//! every cycle it rescans the whole window and re-polls every dependence of
//! every unissued instruction — O(cycles × window × deps) work.  It is kept
//! because it is *obviously* correct, which makes it the oracle for the
//! differential tests (`tests/scheduler_differential.rs` and the machine
//! level `run_reference` paths) and the baseline the benchmark suite
//! measures speedups against.  Its behaviour must never change; performance
//! work happens in the event-driven scheduler only.

use crate::fu::{FuClass, FuPool};
use crate::{ExecContext, RetirePolicy, UnitConfig, UnitStats};
use dae_isa::{Cycle, LatencyModel};
use dae_trace::{ExecKind, MachineInst};
use std::collections::VecDeque;
use std::sync::Arc;

#[derive(Debug, Clone, Copy)]
struct WindowEntry {
    /// Index into the unit's instruction stream.
    idx: usize,
    issued: bool,
}

/// The original cycle-stepped simulator of one out-of-order unit (see the
/// module docs; use [`UnitSim`](crate::UnitSim) for anything
/// performance-sensitive).
///
/// # Example
///
/// ```
/// use dae_isa::{LatencyModel, OpKind};
/// use dae_ooo::{NaiveUnitSim, NoMemoryContext, UnitConfig};
/// use dae_trace::{Dep, MachineInst};
///
/// let stream = vec![
///     MachineInst::arith(0, OpKind::IntAlu, vec![]),
///     MachineInst::arith(1, OpKind::IntAlu, vec![Dep::local(0)]),
/// ];
/// let mut unit = NaiveUnitSim::new(stream, UnitConfig::new(8, 4), LatencyModel::paper_default());
/// let mut cycle = 0;
/// while !unit.is_done() {
///     unit.step(cycle, &mut NoMemoryContext);
///     cycle += 1;
/// }
/// assert_eq!(unit.max_completion(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct NaiveUnitSim {
    stream: Arc<Vec<MachineInst>>,
    config: UnitConfig,
    latencies: LatencyModel,
    fu: FuPool,
    window: VecDeque<WindowEntry>,
    dispatch_ptr: usize,
    completions: Vec<Option<Cycle>>,
    max_completion: Cycle,
    stats: UnitStats,
}

impl NaiveUnitSim {
    /// Creates a unit that will execute `stream` under `config`.
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
        config
            .validate()
            .unwrap_or_else(|msg| panic!("invalid unit configuration: {msg}"));
        let stream = stream.into();
        let len = stream.len();
        NaiveUnitSim {
            stream,
            config,
            latencies,
            fu: FuPool::new(config.fu),
            window: VecDeque::new(),
            dispatch_ptr: 0,
            completions: vec![None; len],
            max_completion: 0,
            stats: UnitStats::default(),
        }
    }

    /// Returns `true` once the stream has been fully dispatched and every
    /// window slot has been released.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.dispatch_ptr == self.stream.len() && self.window.is_empty()
    }

    /// The completion cycle of stream instruction `idx`, if it has issued.
    #[must_use]
    pub(crate) fn completion(&self, idx: usize) -> Option<Cycle> {
        self.completions.get(idx).copied().flatten()
    }

    /// The completion cycles of every instruction (indexed by stream
    /// position).
    #[must_use]
    pub fn completions(&self) -> &[Option<Cycle>] {
        &self.completions
    }

    /// The largest completion cycle observed so far.
    #[must_use]
    pub fn max_completion(&self) -> Cycle {
        self.max_completion
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &UnitStats {
        &self.stats
    }

    /// Total rejected issue attempts due to functional-unit limits.
    #[must_use]
    pub fn fu_rejections(&self) -> u64 {
        self.fu.rejections()
    }

    /// The architectural trace position of the oldest instruction still
    /// holding a window slot.
    #[must_use]
    pub(crate) fn oldest_inflight_trace_pos(&self) -> Option<usize> {
        self.window.front().map(|e| self.stream[e.idx].trace_pos)
    }

    /// The architectural trace position of the most recently dispatched
    /// instruction.
    #[must_use]
    pub(crate) fn youngest_dispatched_trace_pos(&self) -> Option<usize> {
        if self.dispatch_ptr == 0 {
            None
        } else {
            Some(self.stream[self.dispatch_ptr - 1].trace_pos)
        }
    }

    /// Executes one machine cycle.
    pub fn step<C: ExecContext>(&mut self, now: Cycle, ctx: &mut C) {
        self.stats.cycles += 1;
        self.stats.issue_slots += self.config.issue_width as u64;
        self.fu.begin_cycle();

        self.retire(now);
        self.dispatch();
        self.issue(now, ctx);

        self.stats.occupancy_sum += self.window.len() as u64;
        self.stats.occupancy_max = self.stats.occupancy_max.max(self.window.len());
    }

    fn retire(&mut self, now: Cycle) {
        match self.config.retire {
            RetirePolicy::InOrderAtComplete => {
                while let Some(front) = self.window.front() {
                    let done = self.completions[front.idx].is_some_and(|t| t <= now);
                    if done {
                        self.window.pop_front();
                        self.stats.retired += 1;
                    } else {
                        break;
                    }
                }
            }
            RetirePolicy::FreeAtIssue => {
                let before = self.window.len();
                self.window.retain(|e| !e.issued);
                self.stats.retired += (before - self.window.len()) as u64;
            }
        }
    }

    fn dispatch(&mut self) {
        let mut dispatched = 0;
        let dispatch_width = self.config.effective_dispatch_width();
        let mut blocked_by_full_window = false;
        while self.dispatch_ptr < self.stream.len() && dispatched < dispatch_width {
            let has_space = match self.config.window_size {
                Some(cap) => self.window.len() < cap,
                None => true,
            };
            if !has_space {
                blocked_by_full_window = true;
                break;
            }
            self.window.push_back(WindowEntry {
                idx: self.dispatch_ptr,
                issued: false,
            });
            self.dispatch_ptr += 1;
            dispatched += 1;
            self.stats.dispatched += 1;
        }
        if blocked_by_full_window {
            self.stats.window_full_cycles += 1;
        }
    }

    fn issue<C: ExecContext>(&mut self, now: Cycle, ctx: &mut C) {
        let mut issued_this_cycle = 0;
        let had_unissued = self.window.iter().any(|e| !e.issued);
        for slot in 0..self.window.len() {
            if issued_this_cycle >= self.config.issue_width {
                break;
            }
            let entry = self.window[slot];
            if entry.issued {
                continue;
            }
            if !self.is_ready(entry.idx, now, ctx) {
                continue;
            }
            let class = FuClass::of(&self.stream[entry.idx]);
            if !self.fu.try_acquire(class) {
                continue;
            }
            let completion = self.execute(entry.idx, now, ctx);
            self.completions[entry.idx] = Some(completion);
            self.max_completion = self.max_completion.max(completion);
            self.window[slot].issued = true;
            issued_this_cycle += 1;
            self.stats.issued += 1;
        }
        if had_unissued && issued_this_cycle == 0 {
            self.stats.starved_cycles += 1;
        }
    }

    fn is_ready<C: ExecContext>(&self, idx: usize, now: Cycle, ctx: &C) -> bool {
        let inst = &self.stream[idx];
        let operands_ready = inst.deps.iter().all(|dep| {
            if dep.is_cross() {
                ctx.cross_ready_at(dep.index()).is_some_and(|t| t <= now)
            } else {
                self.completions[dep.index()].is_some_and(|t| t <= now)
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
