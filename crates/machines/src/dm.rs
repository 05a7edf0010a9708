//! The access decoupled machine (DM).

use crate::engine::{self, MachineSpec};
use crate::{DmConfig, DmResult, EswStats, ExecutionSummary, SimPool};
use dae_isa::Cycle;
use dae_mem::DecoupledMemory;
use dae_ooo::{EventUnit, ExecContext, GateWait, NaiveUnitSim, SchedulerUnit, UnitSim};
use dae_trace::{
    partition, DecoupledProgram, ExecKind, MachineInst, PartitionMode, Trace, WakeupList,
};
use std::sync::Arc;

/// The access decoupled machine of the paper (figure 1): two out-of-order
/// superscalar units — the Address Unit executing the access stream and the
/// Data Unit executing the compute stream — joined by the decoupled memory.
///
/// The AU runs ahead of the DU ("slips"), sending load addresses to the
/// memory system long before the DU needs the values; the decoupled memory
/// buffers returned values until the DU requests them with a single-cycle
/// latency.  Cross-unit register traffic travels over explicit copy
/// instructions with a configurable transfer latency.
///
/// The run loop is the shared multi-unit engine (see `crate::engine`) with
/// **asymmetric per-unit clocks**: each unit is stepped only when its own
/// horizon arrives, so the DU sleeps through the memory stalls the AU is
/// busy prefetching across, and a 60-cycle stall costs one engine iteration
/// instead of sixty.  [`DecoupledMachine::run_reference`] retains the
/// original cycle-by-cycle lockstep loop over the naive scheduler; the two
/// paths produce bit-for-bit identical results (see `tests/differential.rs`).
///
/// # Example
///
/// ```
/// use dae_isa::{KernelBuilder, Operand};
/// use dae_machines::{DecoupledMachine, DmConfig};
/// use dae_trace::expand;
///
/// let mut b = KernelBuilder::new("scale");
/// let i = b.induction();
/// let x = b.load_strided(&[Operand::Local(i)], 0, 8);
/// let y = b.fp_mul(&[Operand::Local(x), Operand::Invariant(0)]);
/// b.store_strided(&[Operand::Local(y), Operand::Local(i)], 0x10000, 8);
/// let trace = expand(&b.build()?, 200);
///
/// let machine = DecoupledMachine::new(DmConfig::paper(32, 60));
/// let result = machine.run(&trace);
/// // The AU prefetches far ahead: execution time is a small multiple of the
/// // iteration count, not of the 60-cycle memory latency.
/// assert!(result.cycles() < 1_000);
/// assert!(result.esw.max_slip > 32);
/// # Ok::<(), dae_isa::KernelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DecoupledMachine {
    config: DmConfig,
}

/// Execution context for one unit of the DM: resolves cross-unit
/// dependences against the other unit's completion times and talks to the
/// decoupled memory.  Generic over the peer's scheduler so both the
/// event-driven and the naive reference run share one context.
struct DmUnitContext<'a, U> {
    other: &'a U,
    transfer_latency: Cycle,
    memory: &'a mut DecoupledMemory,
    consumers_remaining: &'a mut [u32],
}

impl<U: SchedulerUnit> ExecContext for DmUnitContext<'_, U> {
    #[inline]
    fn cross_ready_at(&self, idx: usize) -> Option<Cycle> {
        self.other
            .completion(idx)
            .map(|t| t + self.transfer_latency)
    }

    fn data_ready(&self, inst: &MachineInst, now: Cycle) -> bool {
        match inst.kind {
            ExecKind::LoadConsume => {
                let tag = inst.tag.expect("load consume carries a tag");
                self.memory.data_ready(tag, now)
            }
            ExecKind::LoadRequest => self.memory.can_accept(),
            _ => true,
        }
    }

    fn gate_wait(&self, inst: &MachineInst, now: Cycle) -> GateWait {
        match inst.kind {
            ExecKind::LoadConsume => {
                let tag = inst.tag.expect("load consume carries a tag");
                match self.memory.arrival(tag) {
                    Some(arrival) if arrival <= now => GateWait::Open,
                    // The transaction is in flight; sleep until it lands.
                    Some(arrival) => GateWait::At(arrival),
                    // Not requested yet — unreachable in practice because
                    // the consume's dependence on its request gates the
                    // evaluation, but stay safe (and naive-exact) if a
                    // lowering ever breaks that invariant.
                    None => GateWait::Poll,
                }
            }
            ExecKind::LoadRequest => {
                if self.memory.can_accept() {
                    GateWait::Open
                } else {
                    // Capacity frees when some consume issues; no crystal
                    // ball for that, so poll (finite capacities only appear
                    // in the ablation studies).
                    GateWait::Poll
                }
            }
            _ => GateWait::Open,
        }
    }

    fn execute_memory(&mut self, inst: &MachineInst, now: Cycle) -> Cycle {
        let tag = inst.tag.expect("memory instruction carries a tag");
        match inst.kind {
            ExecKind::LoadRequest => {
                self.memory.request_load(tag, inst.addr.unwrap_or(0), now);
                now + 1
            }
            ExecKind::LoadConsume => {
                let remaining = &mut self.consumers_remaining[tag as usize];
                *remaining = remaining.saturating_sub(1);
                if *remaining == 0 {
                    self.memory.consume(tag, now + 1);
                }
                now + 1
            }
            ExecKind::StoreOp => {
                self.memory.request_store(inst.addr.unwrap_or(0), now);
                now + 1
            }
            ExecKind::LoadBlocking => {
                // The DM lowering never produces blocking loads, but handle
                // the kind anyway for robustness.
                now + 1 + self.memory.differential()
            }
            ExecKind::Arith | ExecKind::CopySend => unreachable!("handled by the unit"),
        }
    }
}

/// Accumulates the per-cycle effective-single-window / slippage samples,
/// including in bulk over skipped idle spans (window contents are frozen
/// while idle, so the sample repeats verbatim).
#[derive(Default)]
struct EswAccumulator {
    // u64 sums: esw/slip are bounded by the trace length and cycle counts
    // by the deadlock safety bound, so the products stay far below 2^64
    // for any simulation that terminates.
    esw_sum: u64,
    esw_max: usize,
    slip_sum: u64,
    slip_max: usize,
    samples: u64,
}

impl EswAccumulator {
    fn sample(&mut self, oldest_du: Option<usize>, youngest_au: Option<usize>, cycles: u64) {
        if let (Some(oldest_du), Some(youngest_au)) = (oldest_du, youngest_au) {
            if youngest_au >= oldest_du {
                let esw = youngest_au - oldest_du + 1;
                let slip = youngest_au - oldest_du;
                self.esw_sum += esw as u64 * cycles;
                self.slip_sum += slip as u64 * cycles;
                self.esw_max = self.esw_max.max(esw);
                self.slip_max = self.slip_max.max(slip);
                self.samples += cycles;
            }
        }
    }

    fn finish(&self) -> EswStats {
        EswStats {
            max_esw: self.esw_max,
            avg_esw: if self.samples == 0 {
                0.0
            } else {
                self.esw_sum as f64 / self.samples as f64
            },
            max_slip: self.slip_max,
            avg_slip: if self.samples == 0 {
                0.0
            } else {
                self.slip_sum as f64 / self.samples as f64
            },
            samples: self.samples,
        }
    }
}

/// Per-run preparation shared by both run loops: how many LoadConsume
/// instructions read each transaction, so the decoupled-memory entry can be
/// released after its last consumer.  Fills (and re-sizes) a recycled
/// buffer rather than allocating one per run.
fn consumer_counts_into(program: &DecoupledProgram, counts: &mut Vec<u32>) {
    counts.clear();
    counts.resize(program.transactions as usize, 0);
    for inst in program.au.iter().chain(program.du.iter()) {
        if inst.kind == ExecKind::LoadConsume {
            counts[inst.tag.expect("tagged") as usize] += 1;
        }
    }
}

/// Index of the AU in the engine's unit slice.
const AU: usize = 0;
/// Index of the DU in the engine's unit slice.
const DU: usize = 1;

/// The DM as seen by the shared engine: the decoupled memory and
/// consumer-reference counts behind both units' execution contexts, the
/// cross wakeup lists, and the ESW/slippage sampler.
struct DmSpec<'a> {
    memory: DecoupledMemory,
    consumers_remaining: Vec<u32>,
    transfer: Cycle,
    /// AU producer index → DU instructions waiting on it through a
    /// cross `Dep` edge (prebuilt by the partitioner; each issue forwards a
    /// wakeup to exactly its consumers).
    cross_to_du: &'a WakeupList,
    /// DU producer index → AU instructions waiting on it.
    cross_to_au: &'a WakeupList,
    esw: EswAccumulator,
}

impl<'a> DmSpec<'a> {
    fn new(config: &DmConfig, program: &'a DecoupledProgram) -> Self {
        let mut counts = Vec::new();
        consumer_counts_into(program, &mut counts);
        Self::with_scratch(config, program, Vec::new(), counts)
    }

    /// [`DmSpec::new`] over recycled buffers: `arrivals` backs the
    /// decoupled memory's tag table and `counts` carries the
    /// already-populated consumer reference counts.
    fn with_scratch(
        config: &DmConfig,
        program: &'a DecoupledProgram,
        arrivals: Vec<Cycle>,
        counts: Vec<u32>,
    ) -> Self {
        debug_assert_eq!(counts.len(), program.transactions as usize);
        DmSpec {
            memory: DecoupledMemory::with_scratch(
                config.memory_differential,
                config.decoupled_memory,
                arrivals,
            ),
            consumers_remaining: counts,
            transfer: config.transfer_latency,
            cross_to_du: &program.cross_to_du,
            cross_to_au: &program.cross_to_au,
            esw: EswAccumulator::default(),
        }
    }
}

impl<U: SchedulerUnit> MachineSpec<U> for DmSpec<'_> {
    fn step_unit(&mut self, units: &mut [U], u: usize, now: Cycle) {
        let (au, du) = units.split_at_mut(1);
        let (unit, other) = match u {
            AU => (&mut au[0], &du[0]),
            _ => (&mut du[0], &au[0]),
        };
        let mut ctx = DmUnitContext {
            other,
            transfer_latency: self.transfer,
            memory: &mut self.memory,
            consumers_remaining: &mut self.consumers_remaining,
        };
        unit.step(now, &mut ctx);
    }

    // Forward the step's issues as cross-dependence wakeups for the peer
    // instructions waiting on them.  Data arrivals need no separate wakeup:
    // a consume is only evaluated once its request dependence is satisfied,
    // at which point the decoupled memory can name the arrival cycle
    // (`GateWait::At`).
    fn forward_wakeups(&mut self, units: &mut [U], u: usize)
    where
        U: EventUnit,
    {
        let (au, du) = units.split_at_mut(1);
        let (source, peer, waiters) = match u {
            AU => (&au[0], &mut du[0], self.cross_to_du),
            _ => (&du[0], &mut au[0], self.cross_to_au),
        };
        for &(idx, completion) in source.issued_this_step() {
            for &waiter in waiters.of(idx) {
                peer.schedule_reeval(waiter as usize, completion + self.transfer);
            }
        }
    }

    fn sample(&mut self, units: &[U], cycles: u64) {
        self.esw.sample(
            units[DU].oldest_inflight_trace_pos(),
            units[AU].youngest_dispatched_trace_pos(),
            cycles,
        );
    }
}

impl DecoupledMachine {
    /// Creates a decoupled machine with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    #[must_use]
    pub fn new(config: DmConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|msg| panic!("invalid DM configuration: {msg}"));
        DecoupledMachine { config }
    }

    /// Runs `trace`, split into access and compute streams by its
    /// instructions' tags ([`PartitionMode::Tagged`]), to completion and
    /// returns the detailed result.
    ///
    /// # Panics
    ///
    /// Panics if the simulation exceeds a generous safety bound on the cycle
    /// count, which would indicate a deadlock bug rather than a slow
    /// program.
    #[must_use]
    pub fn run(&self, trace: &Trace) -> DmResult {
        let program = partition(trace, PartitionMode::Tagged);
        self.run_lowered(&program, trace.len())
    }

    /// Runs an already-partitioned program (the sweep drivers lower each
    /// trace once and reuse it across every window / memory-differential
    /// point).
    ///
    /// # Panics
    ///
    /// Panics if the simulation exceeds the deadlock safety bound.
    #[must_use]
    pub fn run_lowered(&self, program: &DecoupledProgram, trace_instructions: usize) -> DmResult {
        self.run_pooled(program, trace_instructions, &mut SimPool::new())
    }

    /// [`DecoupledMachine::run_lowered`] over recycled simulation buffers:
    /// the two units' working sets, the decoupled memory's tag table and
    /// the consumer counts are checked out of `pool`, reset for this
    /// program, and returned when the run finishes — a warm pool makes the
    /// whole run allocation-free.  Results are bit-for-bit identical to the
    /// fresh path (`tests/pool_reuse.rs`).
    ///
    /// # Panics
    ///
    /// Panics if the simulation exceeds the deadlock safety bound.
    #[must_use]
    pub fn run_pooled(
        &self,
        program: &DecoupledProgram,
        trace_instructions: usize,
        pool: &mut SimPool,
    ) -> DmResult {
        let mut units = [
            UnitSim::with_wakeups_scratch(
                Arc::clone(&program.au),
                Arc::clone(&program.au_wakeups),
                self.config.au,
                self.config.latencies,
                pool.take_unit(),
            ),
            UnitSim::with_wakeups_scratch(
                Arc::clone(&program.du),
                Arc::clone(&program.du_wakeups),
                self.config.du,
                self.config.latencies,
                pool.take_unit(),
            ),
        ];
        let mut counts = std::mem::take(&mut pool.tag_counts);
        pool.consumer_counts(&program.au, &mut counts, |counts| {
            consumer_counts_into(program, counts);
        });
        let mut spec = DmSpec::with_scratch(
            &self.config,
            program,
            std::mem::take(&mut pool.arrivals),
            counts,
        );
        engine::run_event(&mut units, &mut spec, self.safety_bound(program), "DM");
        let result = assemble(&units, &spec, program, trace_instructions);
        pool.arrivals = spec.memory.into_scratch();
        pool.tag_counts = spec.consumers_remaining;
        // Reverse unit order, so the next run's AU pops the AU scratch
        // (keeping each scratch's cached stream template on its stream).
        let [au, du] = units;
        pool.put_unit(du.into_scratch());
        pool.put_unit(au.into_scratch());
        result
    }

    /// Runs `trace` on the retained naive reference scheduler with the
    /// original cycle-by-cycle lockstep loop.  Slow; exists as the oracle
    /// for the differential tests.
    ///
    /// # Panics
    ///
    /// Panics if the simulation exceeds the deadlock safety bound.
    #[must_use]
    pub fn run_reference(&self, trace: &Trace) -> DmResult {
        let program = &partition(trace, PartitionMode::Tagged);
        let mut units = [
            NaiveUnitSim::new(
                Arc::clone(&program.au),
                self.config.au,
                self.config.latencies,
            ),
            NaiveUnitSim::new(
                Arc::clone(&program.du),
                self.config.du,
                self.config.latencies,
            ),
        ];
        let mut spec = DmSpec::new(&self.config, program);
        engine::run_lockstep(&mut units, &mut spec, self.safety_bound(program), "DM");
        assemble(&units, &spec, program, trace.len())
    }

    fn safety_bound(&self, program: &DecoupledProgram) -> Cycle {
        engine::safety_bound(
            program.au.len() + program.du.len(),
            self.config.memory_differential,
            self.config.latencies.max_arith_latency(),
        )
    }
}

/// Collects the result of a finished run, whichever scheduler drove it.
fn assemble<U: SchedulerUnit>(
    units: &[U; 2],
    spec: &DmSpec<'_>,
    program: &DecoupledProgram,
    trace_instructions: usize,
) -> DmResult {
    DmResult {
        summary: ExecutionSummary {
            cycles: units[AU].max_completion().max(units[DU].max_completion()),
            trace_instructions,
            machine_instructions: program.au.len() + program.du.len(),
        },
        au: *units[AU].stats(),
        du: *units[DU].stats(),
        esw: spec.esw.finish(),
        partition: program.stats,
        memory: spec.memory.stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dae_isa::{KernelBuilder, Operand};
    use dae_trace::expand;

    fn streaming_trace(iters: u64) -> Trace {
        // y[i] = a*x[i] + y[i]: independent iterations, decouples perfectly.
        let mut b = KernelBuilder::new("daxpy");
        let i = b.induction();
        let x = b.load_strided(&[Operand::Local(i)], 0, 8);
        let y = b.load_strided(&[Operand::Local(i)], 0x100_000, 8);
        let ax = b.fp_mul(&[Operand::Local(x), Operand::Invariant(0)]);
        let s = b.fp_add(&[Operand::Local(ax), Operand::Local(y)]);
        b.store_strided(&[Operand::Local(s), Operand::Local(i)], 0x100_000, 8);
        expand(&b.build().unwrap(), iters)
    }

    fn pointer_chase_trace(iters: u64) -> Trace {
        // Each load's address depends on the previous load's *value*: the
        // serial chain runs through memory and no decoupling is possible.
        let mut b = KernelBuilder::new("chase");
        let p_id = b.len();
        let p = b.load_indirect(
            &[Operand::Carried {
                stmt: p_id,
                distance: 1,
            }],
            0x100_000,
            1 << 16,
            0,
        );
        assert_eq!(p, p_id);
        b.fp_add_carried_self(&[Operand::Local(p)]);
        expand(&b.build().unwrap(), iters)
    }

    #[test]
    fn zero_md_equals_fast_execution() {
        let trace = streaming_trace(100);
        let result = DecoupledMachine::new(DmConfig::paper(32, 0)).run(&trace);
        // 6 architectural instructions per iteration, combined width 9 and a
        // short dependence chain: a few cycles per iteration at most.
        assert!(result.cycles() < 400, "cycles = {}", result.cycles());
        assert_eq!(result.summary.trace_instructions, 600);
    }

    #[test]
    fn large_md_is_mostly_hidden_for_streaming_code() {
        let trace = streaming_trace(200);
        let near = DecoupledMachine::new(DmConfig::paper(64, 0)).run(&trace);
        let far = DecoupledMachine::new(DmConfig::paper(64, 60)).run(&trace);
        // Latency hiding: the md=60 run should cost far less than one full
        // memory latency per iteration more than the md=0 run.
        let slowdown = far.cycles() as f64 / near.cycles() as f64;
        assert!(
            slowdown < 2.5,
            "expected most of the latency to be hidden, slowdown = {slowdown:.2}"
        );
    }

    #[test]
    fn pointer_chasing_cannot_hide_latency() {
        let trace = pointer_chase_trace(50);
        let near = DecoupledMachine::new(DmConfig::paper(32, 0)).run(&trace);
        let far = DecoupledMachine::new(DmConfig::paper(32, 60)).run(&trace);
        // Every iteration must wait for the previous load: the md=60 run pays
        // close to the full differential per iteration.
        assert!(far.cycles() > near.cycles() + 50 * 40);
    }

    #[test]
    fn au_slips_ahead_of_du() {
        let trace = streaming_trace(300);
        let result = DecoupledMachine::new(DmConfig::paper(16, 60)).run(&trace);
        assert!(result.esw.samples > 0);
        assert!(
            result.esw.max_slip > 16,
            "AU should run ahead of the DU by more than one window: slip = {}",
            result.esw.max_slip
        );
        assert!(result.esw.avg_esw > 16.0);
        assert!(result.esw.max_esw >= result.esw.max_slip);
    }

    #[test]
    fn bigger_windows_never_hurt_streaming_code() {
        let trace = streaming_trace(150);
        let small = DecoupledMachine::new(DmConfig::paper(4, 60)).run(&trace);
        let medium = DecoupledMachine::new(DmConfig::paper(16, 60)).run(&trace);
        let large = DecoupledMachine::new(DmConfig::paper(64, 60)).run(&trace);
        assert!(medium.cycles() <= small.cycles());
        assert!(large.cycles() <= medium.cycles());
    }

    #[test]
    fn unlimited_window_is_a_lower_bound() {
        let trace = streaming_trace(100);
        let limited = DecoupledMachine::new(DmConfig::paper(8, 60)).run(&trace);
        let unlimited = DecoupledMachine::new(DmConfig::paper_unlimited(60)).run(&trace);
        assert!(unlimited.cycles() <= limited.cycles());
    }

    #[test]
    fn result_counters_are_consistent() {
        let trace = streaming_trace(50);
        let result = DecoupledMachine::new(DmConfig::paper(32, 20)).run(&trace);
        assert_eq!(result.summary.trace_instructions, trace.len());
        assert_eq!(
            result.summary.machine_instructions as u64,
            result.au.dispatched + result.du.dispatched
        );
        assert_eq!(result.au.dispatched, result.au.issued);
        assert_eq!(result.du.dispatched, result.du.issued);
        assert_eq!(result.partition.loads, 100);
    }

    #[test]
    fn memory_counters_match_the_partition() {
        let trace = streaming_trace(40);
        let result = DecoupledMachine::new(DmConfig::paper(32, 20)).run(&trace);
        assert_eq!(result.memory.load_requests, 80);
        assert_eq!(result.memory.consumed, 80);
        // Store address + store data both notify the decoupled memory.
        assert_eq!(result.memory.store_requests, 80);
    }

    #[test]
    fn event_driven_run_matches_the_reference_exactly() {
        for (iters, window, md) in [(60, 16, 60), (60, 8, 0), (40, 32, 20)] {
            let trace = streaming_trace(iters);
            let machine = DecoupledMachine::new(DmConfig::paper(window, md));
            assert_eq!(machine.run(&trace), machine.run_reference(&trace));
        }
        let chase = pointer_chase_trace(30);
        let machine = DecoupledMachine::new(DmConfig::paper(16, 60));
        assert_eq!(machine.run(&chase), machine.run_reference(&chase));
    }
}
