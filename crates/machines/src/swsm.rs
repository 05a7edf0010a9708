//! The single-window superscalar machine (SWSM).

use crate::engine::{self, MachineSpec};
use crate::{ExecutionSummary, SimPool, SwsmConfig, SwsmResult};
use dae_isa::{Address, Cycle};
use dae_mem::{FxHashMap, PrefetchBuffer};
use dae_ooo::{ExecContext, GateWait, NaiveUnitSim, SchedulerUnit, UnitSim};
use dae_trace::{expand_swsm, ExecKind, MachineInst, SwsmProgram, Trace};

/// The single-window out-of-order superscalar machine of the paper
/// (figure 2), with the hybrid prefetch scheme: every memory operation is a
/// prefetch instruction (which fills the fully associative prefetch buffer)
/// followed by an access instruction (a single-cycle buffer hit once the
/// data has arrived).
///
/// Unlike the decoupled machine, the full issue width is available to a
/// single instruction window every cycle — but prefetches, accesses and
/// compute all compete for the same window slots, which is exactly the
/// effect the paper studies.
///
/// The run loop is the shared time-skipping engine (see `crate::engine`)
/// over one unit; [`SuperscalarMachine::run_reference`] retains the original
/// cycle-by-cycle lockstep loop as the differential-testing oracle.
///
/// # Example
///
/// ```
/// use dae_isa::{KernelBuilder, Operand};
/// use dae_machines::{SuperscalarMachine, SwsmConfig};
/// use dae_trace::expand;
///
/// let mut b = KernelBuilder::new("scale");
/// let i = b.induction();
/// let x = b.load_strided(&[Operand::Local(i)], 0, 8);
/// let y = b.fp_mul(&[Operand::Local(x), Operand::Invariant(0)]);
/// b.store_strided(&[Operand::Local(y), Operand::Local(i)], 0x10000, 8);
/// let trace = expand(&b.build()?, 200);
///
/// let machine = SuperscalarMachine::new(SwsmConfig::paper(64, 60));
/// let result = machine.run(&trace);
/// assert!(result.cycles() > 0);
/// assert_eq!(result.lowering.prefetches, 400);
/// # Ok::<(), dae_isa::KernelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SuperscalarMachine {
    config: SwsmConfig,
}

/// The SWSM as seen by the shared engine; doubles as the single unit's
/// execution context (the prefetch buffer is the machine's only memory
/// structure).
struct SwsmSpec {
    buffer: PrefetchBuffer,
    memory_differential: Cycle,
    /// Whether LRU replacement can evict entries (finite capacity): if so,
    /// a reported arrival time may be invalidated by an eviction, so closed
    /// gates fall back to polling.
    can_evict: bool,
}

impl SwsmSpec {
    fn new(config: &SwsmConfig) -> Self {
        Self::with_scratch(config, FxHashMap::default())
    }

    /// [`SwsmSpec::new`] over a recycled prefetch-buffer map (cleared and
    /// reused when the buffer is unbounded — the sweep configuration).
    fn with_scratch(config: &SwsmConfig, scratch: FxHashMap<Address, Cycle>) -> Self {
        SwsmSpec {
            buffer: PrefetchBuffer::with_scratch(
                config.memory_differential,
                config.prefetch_buffer,
                scratch,
            ),
            memory_differential: config.memory_differential,
            can_evict: config.prefetch_buffer.capacity.is_some(),
        }
    }
}

impl ExecContext for SwsmSpec {
    fn data_ready(&self, inst: &MachineInst, now: Cycle) -> bool {
        match inst.kind {
            ExecKind::LoadConsume => {
                let addr = inst.addr.unwrap_or(0);
                match self.buffer.available_at(addr) {
                    // Prefetched: wait until the data has actually arrived,
                    // then the access is a single-cycle buffer hit.
                    Some(arrival) => arrival <= now,
                    // Evicted or never prefetched (only possible with a
                    // finite buffer): the access is free to issue and will
                    // pay the full memory latency itself.
                    None => true,
                }
            }
            _ => true,
        }
    }

    fn gate_wait(&self, inst: &MachineInst, now: Cycle) -> GateWait {
        match inst.kind {
            ExecKind::LoadConsume => {
                let addr = inst.addr.unwrap_or(0);
                match self.buffer.available_at(addr) {
                    Some(arrival) if arrival <= now => GateWait::Open,
                    Some(_) if self.can_evict => {
                        // An eviction between now and the arrival would open
                        // the gate *early* (the access becomes a miss that
                        // is free to issue), which a timed sleep would skip
                        // over.  Finite buffers only appear in ablations, so
                        // polling there keeps the common case fast and the
                        // rare case naive-exact.
                        GateWait::Poll
                    }
                    Some(arrival) => GateWait::At(arrival),
                    None => GateWait::Open,
                }
            }
            _ => GateWait::Open,
        }
    }

    fn execute_memory(&mut self, inst: &MachineInst, now: Cycle) -> Cycle {
        let addr = inst.addr.unwrap_or(0);
        match inst.kind {
            ExecKind::LoadRequest => {
                self.buffer.prefetch(addr, now);
                now + 1
            }
            ExecKind::LoadConsume => match self.buffer.access(addr, now) {
                Some(_arrival) => now + 1,
                None => now + 1 + self.memory_differential,
            },
            ExecKind::StoreOp => now + 1,
            ExecKind::LoadBlocking => now + 1 + self.memory_differential,
            ExecKind::Arith | ExecKind::CopySend => unreachable!("handled by the unit"),
        }
    }
}

impl<U: SchedulerUnit> MachineSpec<U> for SwsmSpec {
    fn step_unit(&mut self, units: &mut [U], u: usize, now: Cycle) {
        units[u].step(now, self);
    }
}

impl SuperscalarMachine {
    /// Creates a superscalar machine with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn new(config: SwsmConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|msg| panic!("invalid SWSM configuration: {msg}"));
        SuperscalarMachine { config }
    }

    /// Runs `trace` to completion and returns the detailed result.
    ///
    /// # Panics
    ///
    /// Panics if the simulation exceeds the deadlock safety bound.
    #[must_use]
    pub fn run(&self, trace: &Trace) -> SwsmResult {
        let program = expand_swsm(trace);
        self.run_lowered(&program, trace.len())
    }

    /// Runs an already-lowered program (the sweep drivers lower each trace
    /// once and reuse it across every window / memory-differential point).
    ///
    /// # Panics
    ///
    /// Panics if the simulation exceeds the deadlock safety bound.
    #[must_use]
    pub fn run_lowered(&self, program: &SwsmProgram, trace_instructions: usize) -> SwsmResult {
        self.run_pooled(program, trace_instructions, &mut SimPool::new())
    }

    /// [`SuperscalarMachine::run_lowered`] over recycled simulation buffers
    /// (the unit's working set and the prefetch-buffer map are checked out
    /// of `pool` and returned after the run).  Results are bit-for-bit
    /// identical to the fresh path (`tests/pool_reuse.rs`).
    ///
    /// # Panics
    ///
    /// Panics if the simulation exceeds the deadlock safety bound.
    #[must_use]
    pub fn run_pooled(
        &self,
        program: &SwsmProgram,
        trace_instructions: usize,
        pool: &mut SimPool,
    ) -> SwsmResult {
        let mut units = [UnitSim::with_wakeups_scratch(
            std::sync::Arc::clone(&program.insts),
            std::sync::Arc::clone(&program.wakeups),
            self.config.unit,
            self.config.latencies,
            pool.take_unit(),
        )];
        let mut spec = SwsmSpec::with_scratch(&self.config, std::mem::take(&mut pool.prefetch));
        engine::run_event(&mut units, &mut spec, self.safety_bound(program), "SWSM");
        let result = self.assemble(&units, &spec, program, trace_instructions);
        pool.prefetch = spec.buffer.into_scratch();
        let [unit] = units;
        pool.put_unit(unit.into_scratch());
        result
    }

    /// Runs `trace` on the retained naive reference scheduler with the
    /// original cycle-by-cycle lockstep loop (the differential-testing
    /// oracle).
    ///
    /// # Panics
    ///
    /// Panics if the simulation exceeds the deadlock safety bound.
    #[must_use]
    pub fn run_reference(&self, trace: &Trace) -> SwsmResult {
        let program = &expand_swsm(trace);
        let mut units = [NaiveUnitSim::new(
            std::sync::Arc::clone(&program.insts),
            self.config.unit,
            self.config.latencies,
        )];
        let mut spec = SwsmSpec::new(&self.config);
        engine::run_lockstep(&mut units, &mut spec, self.safety_bound(program), "SWSM");
        self.assemble(&units, &spec, program, trace.len())
    }

    fn safety_bound(&self, program: &SwsmProgram) -> Cycle {
        engine::safety_bound(
            program.insts.len(),
            self.config.memory_differential,
            self.config.latencies.max_arith_latency(),
        )
    }

    fn assemble<U: SchedulerUnit>(
        &self,
        units: &[U; 1],
        spec: &SwsmSpec,
        program: &SwsmProgram,
        trace_instructions: usize,
    ) -> SwsmResult {
        SwsmResult {
            summary: ExecutionSummary {
                cycles: units[0].max_completion(),
                trace_instructions,
                machine_instructions: program.insts.len(),
            },
            unit: *units[0].stats(),
            lowering: program.stats,
            buffer: spec.buffer.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dae_isa::{KernelBuilder, Operand};
    use dae_mem::PrefetchBufferConfig;
    use dae_trace::expand;

    fn streaming_trace(iters: u64) -> Trace {
        let mut b = KernelBuilder::new("daxpy");
        let i = b.induction();
        let x = b.load_strided(&[Operand::Local(i)], 0, 8);
        let y = b.load_strided(&[Operand::Local(i)], 0x100_000, 8);
        let ax = b.fp_mul(&[Operand::Local(x), Operand::Invariant(0)]);
        let s = b.fp_add(&[Operand::Local(ax), Operand::Local(y)]);
        b.store_strided(&[Operand::Local(s), Operand::Local(i)], 0x100_000, 8);
        expand(&b.build().unwrap(), iters)
    }

    #[test]
    fn bigger_windows_hide_more_of_the_latency() {
        // The SWSM's prefetching ability is bounded by its window: the
        // window must hold every instruction between a prefetch and its
        // access for the prefetch to run ahead.  A 128-entry window hides a
        // good part of a 60-cycle differential; an 8-entry window hides very
        // little.  (It takes a window of several hundred entries to hide it
        // completely — exactly the paper's point.)
        let trace = streaming_trace(200);
        let near = SuperscalarMachine::new(SwsmConfig::paper(128, 0)).run(&trace);
        let far_small = SuperscalarMachine::new(SwsmConfig::paper(8, 60)).run(&trace);
        let far_large = SuperscalarMachine::new(SwsmConfig::paper(128, 60)).run(&trace);
        let slowdown_small = far_small.cycles() as f64 / near.cycles() as f64;
        let slowdown_large = far_large.cycles() as f64 / near.cycles() as f64;
        assert!(
            slowdown_large < 6.0,
            "a 128-entry window should hide a useful part of the latency, slowdown = {slowdown_large:.2}"
        );
        assert!(
            slowdown_small > 2.0 * slowdown_large,
            "an 8-entry window should hide far less: {slowdown_small:.2} vs {slowdown_large:.2}"
        );
    }

    #[test]
    fn small_windows_expose_the_latency() {
        let trace = streaming_trace(100);
        let small = SuperscalarMachine::new(SwsmConfig::paper(4, 60)).run(&trace);
        let large = SuperscalarMachine::new(SwsmConfig::paper(128, 60)).run(&trace);
        assert!(
            small.cycles() > 2 * large.cycles(),
            "small window {} vs large window {}",
            small.cycles(),
            large.cycles()
        );
    }

    #[test]
    fn every_access_hits_the_unbounded_buffer() {
        let trace = streaming_trace(80);
        let result = SuperscalarMachine::new(SwsmConfig::paper(64, 30)).run(&trace);
        // 2 loads per iteration hit; stores never query the buffer.
        assert_eq!(result.buffer.hits, 160);
        assert_eq!(result.buffer.misses, 0);
        assert_eq!(result.buffer.prefetches, 240);
    }

    #[test]
    fn a_tiny_buffer_causes_misses_but_still_terminates() {
        let trace = streaming_trace(80);
        let mut cfg = SwsmConfig::paper(64, 30);
        cfg.prefetch_buffer = PrefetchBufferConfig { capacity: Some(2) };
        let result = SuperscalarMachine::new(cfg).run(&trace);
        assert!(result.buffer.misses > 0, "evictions should cause misses");
        let unbounded = SuperscalarMachine::new(SwsmConfig::paper(64, 30)).run(&trace);
        assert!(result.cycles() >= unbounded.cycles());
    }

    #[test]
    fn result_counters_are_consistent() {
        let trace = streaming_trace(50);
        let result = SuperscalarMachine::new(SwsmConfig::paper(32, 20)).run(&trace);
        assert_eq!(result.summary.trace_instructions, trace.len());
        assert_eq!(
            result.summary.machine_instructions as u64,
            result.unit.dispatched
        );
        assert_eq!(result.unit.dispatched, result.unit.issued);
        assert!((result.lowering.expansion_ratio() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn zero_md_runs_fast() {
        let trace = streaming_trace(100);
        let result = SuperscalarMachine::new(SwsmConfig::paper(64, 0)).run(&trace);
        let ipc = result.summary.trace_instructions as f64 / result.cycles() as f64;
        assert!(ipc > 1.5, "ipc = {ipc}");
    }

    #[test]
    fn event_driven_run_matches_the_reference_exactly() {
        for (window, md) in [(8, 60), (64, 30), (32, 0)] {
            let trace = streaming_trace(60);
            let machine = SuperscalarMachine::new(SwsmConfig::paper(window, md));
            assert_eq!(machine.run(&trace), machine.run_reference(&trace));
        }
        // Finite buffer: the polling fallback must stay exact too.
        let trace = streaming_trace(50);
        let mut cfg = SwsmConfig::paper(32, 40);
        cfg.prefetch_buffer = PrefetchBufferConfig { capacity: Some(4) };
        let machine = SuperscalarMachine::new(cfg);
        assert_eq!(machine.run(&trace), machine.run_reference(&trace));
    }
}
