//! The scalar reference machine (the speedup denominator).

use crate::engine::{self, MachineSpec};
use crate::{ExecutionSummary, ScalarConfig, ScalarResult, SimPool};
use dae_isa::Cycle;
use dae_mem::FixedLatencyMemory;
use dae_ooo::{ExecContext, NaiveUnitSim, SchedulerUnit, UnitConfig, UnitSim};
use dae_trace::{lower_scalar, ExecKind, MachineInst, ScalarProgram, Trace};

/// The scalar reference: a single-issue, in-order machine with a one-entry
/// window and no prefetching, so every load exposes the full memory
/// differential.
///
/// The paper plots "speedup" without stating the baseline (it lives in the
/// companion technical report); this reproduction uses the scalar reference
/// at the *same* memory differential as the machine under test, which leaves
/// every comparative claim between the DM and the SWSM unchanged (see
/// DESIGN.md).
///
/// The run loop is the shared time-skipping engine (see `crate::engine`),
/// which jumps straight through every blocking-load stall (a 60-cycle memory
/// wait is one engine iteration) — that matters because sweeps simulate this
/// machine for every (program, MD) point.
/// [`ScalarReference::run_reference`] keeps the cycle-by-cycle lockstep
/// loop.
///
/// # Example
///
/// ```
/// use dae_isa::{KernelBuilder, Operand};
/// use dae_machines::{ScalarConfig, ScalarReference};
/// use dae_trace::expand;
///
/// let mut b = KernelBuilder::new("sum");
/// let i = b.induction();
/// let x = b.load_strided(&[Operand::Local(i)], 0, 8);
/// b.fp_add_carried_self(&[Operand::Local(x)]);
/// let trace = expand(&b.build()?, 10);
///
/// let result = ScalarReference::new(ScalarConfig::new(60)).run(&trace);
/// // Each iteration pays 1 (int) + 61 (load) + 2 (fp) cycles, fully serial.
/// assert_eq!(result.cycles(), 640);
/// # Ok::<(), dae_isa::KernelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ScalarReference {
    config: ScalarConfig,
}

/// The scalar machine as seen by the shared engine; doubles as the unit's
/// execution context (a fixed-latency memory is the only structure).
struct ScalarSpec {
    memory: FixedLatencyMemory,
}

impl ExecContext for ScalarSpec {
    fn execute_memory(&mut self, inst: &MachineInst, now: Cycle) -> Cycle {
        let addr = inst.addr.unwrap_or(0);
        match inst.kind {
            ExecKind::LoadBlocking => self.memory.request_load(addr, now),
            ExecKind::StoreOp => {
                self.memory.request_store(addr, now);
                now + 1
            }
            ExecKind::LoadRequest | ExecKind::LoadConsume => now + 1,
            ExecKind::Arith | ExecKind::CopySend => unreachable!("handled by the unit"),
        }
    }
}

impl<U: SchedulerUnit> MachineSpec<U> for ScalarSpec {
    fn step_unit(&mut self, units: &mut [U], u: usize, now: Cycle) {
        units[u].step(now, self);
    }
}

fn scalar_unit_config() -> UnitConfig {
    UnitConfig {
        window_size: Some(1),
        issue_width: 1,
        dispatch_width: Some(1),
        ..UnitConfig::default()
    }
}

impl ScalarReference {
    /// Creates a scalar reference machine.
    #[must_use]
    pub fn new(config: ScalarConfig) -> Self {
        ScalarReference { config }
    }

    /// Runs `trace` to completion.
    ///
    /// # Panics
    ///
    /// Panics if the simulation exceeds the deadlock safety bound.
    #[must_use]
    pub fn run(&self, trace: &Trace) -> ScalarResult {
        let program = lower_scalar(trace);
        self.run_lowered(&program, trace.len())
    }

    /// Runs an already-lowered program (sweep / benchmark path; no
    /// per-run lowering).
    ///
    /// # Panics
    ///
    /// Panics if the simulation exceeds the deadlock safety bound.
    #[must_use]
    pub fn run_lowered(&self, program: &ScalarProgram, trace_instructions: usize) -> ScalarResult {
        self.run_pooled(program, trace_instructions, &mut SimPool::new())
    }

    /// [`ScalarReference::run_lowered`] over a recycled unit working set
    /// checked out of `pool` (the fixed-latency memory holds no per-run
    /// buffers worth pooling).  Results are bit-for-bit identical to the
    /// fresh path (`tests/pool_reuse.rs`).
    ///
    /// # Panics
    ///
    /// Panics if the simulation exceeds the deadlock safety bound.
    #[must_use]
    pub fn run_pooled(
        &self,
        program: &ScalarProgram,
        trace_instructions: usize,
        pool: &mut SimPool,
    ) -> ScalarResult {
        let mut units = [UnitSim::with_wakeups_scratch(
            std::sync::Arc::clone(&program.insts),
            std::sync::Arc::clone(&program.wakeups),
            scalar_unit_config(),
            self.config.latencies,
            pool.take_unit(),
        )];
        let mut spec = ScalarSpec {
            memory: FixedLatencyMemory::new(self.config.memory_differential),
        };
        engine::run_event(&mut units, &mut spec, self.safety_bound(program), "scalar");
        let result = self.assemble(&units, program, trace_instructions);
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
    pub fn run_reference(&self, trace: &Trace) -> ScalarResult {
        let program = &lower_scalar(trace);
        let mut units = [NaiveUnitSim::new(
            std::sync::Arc::clone(&program.insts),
            scalar_unit_config(),
            self.config.latencies,
        )];
        let mut spec = ScalarSpec {
            memory: FixedLatencyMemory::new(self.config.memory_differential),
        };
        engine::run_lockstep(&mut units, &mut spec, self.safety_bound(program), "scalar");
        self.assemble(&units, program, trace.len())
    }

    fn safety_bound(&self, program: &ScalarProgram) -> Cycle {
        engine::safety_bound(
            program.insts.len(),
            self.config.memory_differential,
            self.config.latencies.max_arith_latency(),
        )
    }

    fn assemble<U: SchedulerUnit>(
        &self,
        units: &[U; 1],
        program: &ScalarProgram,
        trace_instructions: usize,
    ) -> ScalarResult {
        ScalarResult {
            summary: ExecutionSummary {
                cycles: units[0].max_completion(),
                trace_instructions,
                machine_instructions: program.insts.len(),
            },
            unit: *units[0].stats(),
        }
    }

    /// The analytic execution time of the scalar reference: the sum of every
    /// instruction's latency, with loads costing `1 + MD`.
    ///
    /// Useful for tests (the simulated result must match) and for cheap
    /// speedup denominators in large sweeps.
    #[must_use]
    pub fn analytic_cycles(&self, trace: &Trace) -> Cycle {
        trace
            .iter()
            .map(|inst| {
                if inst.op.is_load() {
                    self.config.latencies.latency_of(inst.op) + self.config.memory_differential
                } else {
                    self.config.latencies.latency_of(inst.op)
                }
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dae_isa::{KernelBuilder, Operand};
    use dae_trace::expand;

    fn small_trace(iters: u64) -> Trace {
        let mut b = KernelBuilder::new("axpy");
        let i = b.induction();
        let x = b.load_strided(&[Operand::Local(i)], 0, 8);
        let y = b.fp_mul(&[Operand::Local(x), Operand::Invariant(0)]);
        b.store_strided(&[Operand::Local(y), Operand::Local(i)], 0x1000, 8);
        expand(&b.build().unwrap(), iters)
    }

    #[test]
    fn simulated_time_matches_the_analytic_sum_of_latencies() {
        for md in [0, 10, 60] {
            let trace = small_trace(25);
            let machine = ScalarReference::new(ScalarConfig::new(md));
            let result = machine.run(&trace);
            assert_eq!(result.cycles(), machine.analytic_cycles(&trace), "md={md}");
        }
    }

    #[test]
    fn analytic_cycles_formula() {
        let trace = small_trace(10);
        let machine = ScalarReference::new(ScalarConfig::new(60));
        // Per iteration: 1 (int) + 61 (load) + 2 (fmul) + 1 (store) = 65.
        assert_eq!(machine.analytic_cycles(&trace), 650);
    }

    #[test]
    fn the_scalar_reference_never_overlaps_anything() {
        let trace = small_trace(30);
        let result = ScalarReference::new(ScalarConfig::new(20)).run(&trace);
        assert!(result.cycles() > result.summary.trace_instructions as u64);
        assert_eq!(result.unit.occupancy_max, 1);
    }

    #[test]
    fn zero_length_traces_are_handled() {
        let trace = small_trace(0);
        let result = ScalarReference::new(ScalarConfig::new(60)).run(&trace);
        assert_eq!(result.cycles(), 0);
        assert_eq!(result.summary.trace_instructions, 0);
    }

    #[test]
    fn event_driven_run_matches_the_reference_exactly() {
        for md in [0, 10, 60] {
            let trace = small_trace(40);
            let machine = ScalarReference::new(ScalarConfig::new(md));
            assert_eq!(machine.run(&trace), machine.run_reference(&trace));
        }
    }
}
