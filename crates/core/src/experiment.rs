//! Convenience layer for running the paper's machines over workloads.

use dae_isa::Cycle;
use dae_machines::{
    DecoupledMachine, DmConfig, ScalarConfig, ScalarReference, SuperscalarMachine, SwsmConfig,
};
use dae_trace::{
    expand_swsm, lower_scalar, partition, ContentHasher, DecoupledProgram, SwsmProgram, Trace,
    TraceHash,
};
use std::fmt;

/// A window size: a finite number of entries or the paper's idealised
/// unlimited window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum WindowSpec {
    /// A finite window with this many entries (per unit, for the DM).
    Entries(usize),
    /// An unlimited window.
    Unlimited,
}

impl fmt::Display for WindowSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WindowSpec::Entries(n) => write!(f, "{n}"),
            WindowSpec::Unlimited => write!(f, "inf"),
        }
    }
}

/// Which machine to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Machine {
    /// The access decoupled machine.
    Decoupled,
    /// The single-window superscalar machine.
    Superscalar,
    /// The scalar reference.
    Scalar,
}

impl fmt::Display for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Machine::Decoupled => "DM",
            Machine::Superscalar => "SWSM",
            Machine::Scalar => "scalar",
        };
        f.write_str(name)
    }
}

/// The DM configuration used by the experiments for a given window and
/// memory differential (the paper's issue widths, everything else
/// idealised).
#[must_use]
pub fn dm_config(window: WindowSpec, memory_differential: Cycle) -> DmConfig {
    match window {
        WindowSpec::Entries(w) => DmConfig::paper(w, memory_differential),
        WindowSpec::Unlimited => DmConfig::paper_unlimited(memory_differential),
    }
}

/// The SWSM configuration used by the experiments for a given window and
/// memory differential.
#[must_use]
pub fn swsm_config(window: WindowSpec, memory_differential: Cycle) -> SwsmConfig {
    match window {
        WindowSpec::Entries(w) => SwsmConfig::paper(w, memory_differential),
        WindowSpec::Unlimited => SwsmConfig::paper_unlimited(memory_differential),
    }
}

/// A trace lowered once for every machine, so a sweep can run many
/// (window, memory differential) points without re-partitioning or
/// re-expanding per point.
///
/// Lowering is a third to half of a single simulation's cost, and the
/// figure sweeps run dozens of points per trace; every experiment generator
/// builds one of these per program and shares it across its (parallel)
/// points.  The lowered streams and wakeup lists inside the programs are
/// reference counted, so cloning into each run is O(1).
#[derive(Debug, Clone)]
pub struct LoweredTrace {
    trace_instructions: usize,
    dm_program: DecoupledProgram,
    swsm_program: SwsmProgram,
    /// `scalar analytic time = scalar_base + loads × MD`.
    scalar_base: Cycle,
    scalar_loads: Cycle,
    /// Structural digest of every lowered stream plus the analytic scalar
    /// coefficients — the process-independent identity the sweep cache
    /// keys on (see [`LoweredTrace::content_hash`]).
    content_hash: TraceHash,
}

impl LoweredTrace {
    /// Lowers `trace` for the DM (the paper's tagged partition), the SWSM
    /// and the scalar reference.
    #[must_use]
    pub fn new(trace: &Trace) -> Self {
        // The scalar analytic time is affine in the memory differential by
        // construction, so two probes of the one authoritative formula
        // (`ScalarReference::analytic_cycles`) recover its coefficients —
        // no second copy of the latency accounting exists here.
        let scalar_base = ScalarReference::new(ScalarConfig::new(0)).analytic_cycles(trace);
        let scalar_loads =
            ScalarReference::new(ScalarConfig::new(1)).analytic_cycles(trace) - scalar_base;
        let dm_program = partition(trace, dae_trace::PartitionMode::Tagged);
        let swsm_program = expand_swsm(trace);
        // Canonical digest over everything the simulators read: the three
        // lowered streams (wakeup lists are derived from them), the trace
        // length and the analytic scalar coefficients.  Computed once per
        // lowering; two lowerings of the same trace — in any process —
        // digest identically, which is what lets cache entries survive
        // re-lowering and restarts.
        let mut hasher = ContentHasher::new();
        hasher.word(trace.len() as u64);
        hasher.stream(&dm_program.au);
        hasher.stream(&dm_program.du);
        hasher.stream(&swsm_program.insts);
        // The scalar lowering is hashed but not kept (scalar points use
        // the analytic formula): persisted cache entries are keyed by this
        // digest, so what it covers must not change.
        hasher.stream(&lower_scalar(trace).insts);
        hasher.word(scalar_base);
        hasher.word(scalar_loads);
        let content_hash = hasher.finish();
        LoweredTrace {
            trace_instructions: trace.len(),
            dm_program,
            swsm_program,
            scalar_base,
            scalar_loads,
            content_hash,
        }
    }

    /// Architectural instructions in the source trace.
    #[must_use]
    pub fn trace_instructions(&self) -> usize {
        self.trace_instructions
    }

    /// The structural content hash of this lowering.
    ///
    /// Stable across re-lowering and across processes: any two
    /// [`LoweredTrace`]s built from the same trace return the same hash,
    /// and the cache differential suite pins hash-equal ⇒ bit-for-bit
    /// equal sweep results.  [`SweepSession`](crate::SweepSession) keys its
    /// result cache on this (not on the pinned `Arc`), which is what makes
    /// cached figures survive re-pinning and on-disk persistence
    /// meaningful.
    #[must_use]
    pub fn content_hash(&self) -> TraceHash {
        self.content_hash
    }

    /// Execution time of `machine` at one sweep point (the scalar
    /// reference ignores `window`).
    ///
    /// The DM and the SWSM run over the calling thread's recycled
    /// simulation buffers ([`dae_machines::with_thread_pool`]): sweep
    /// points executed back to back — or by the same parallel worker —
    /// rebuild nothing.  The scalar reference is its exact analytic formula,
    /// O(1) per point; the simulated scalar machine matches it bit for bit
    /// (pinned by property tests on random kernels and the PERFECT suite).
    #[must_use]
    pub fn machine_cycles(
        &self,
        machine: Machine,
        window: WindowSpec,
        memory_differential: Cycle,
    ) -> Cycle {
        let n = self.trace_instructions;
        match machine {
            Machine::Decoupled => {
                let machine = DecoupledMachine::new(dm_config(window, memory_differential));
                dae_machines::with_thread_pool(|pool| {
                    machine.run_pooled(&self.dm_program, n, pool).cycles()
                })
            }
            Machine::Superscalar => {
                let machine = SuperscalarMachine::new(swsm_config(window, memory_differential));
                dae_machines::with_thread_pool(|pool| {
                    machine.run_pooled(&self.swsm_program, n, pool).cycles()
                })
            }
            Machine::Scalar => self.scalar_base + self.scalar_loads * memory_differential,
        }
    }
}

/// Shared knobs of the experiment generators: how long the traces are and
/// which grids are swept.  The paper's figures use
/// `dae_bench::paper_config()`; tests build smaller grids literally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentConfig {
    /// Iterations each workload kernel is expanded for.
    pub iterations: u64,
    /// The DM window sizes swept by the figures (per unit).
    pub dm_windows: Vec<usize>,
    /// The SWSM window sizes swept by the figures.
    pub swsm_windows: Vec<usize>,
    /// The SWSM window grid searched when computing equivalent window
    /// ratios (extends well beyond the plotted range so large ratios can be
    /// resolved).
    pub equivalence_search_windows: Vec<usize>,
    /// The memory differentials swept by the equivalent-window figures.
    pub memory_differentials: Vec<Cycle>,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dae_workloads::stream;

    /// The small grid the generator tests in `experiments` sweep.
    pub(crate) fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            iterations: 120,
            dm_windows: vec![8, 32, 64],
            swsm_windows: vec![8, 32, 64],
            equivalence_search_windows: vec![8, 16, 32, 64, 128, 256],
            memory_differentials: vec![0, 60],
        }
    }

    fn small_trace() -> Trace {
        stream().trace(150)
    }

    #[test]
    fn window_spec_display_and_entries() {
        assert_eq!(format!("{}", WindowSpec::Entries(32)), "32");
        assert_eq!(format!("{}", WindowSpec::Unlimited), "inf");
    }

    #[test]
    fn machine_cycles_dispatches_to_each_machine() {
        let trace = small_trace();
        let lowered = LoweredTrace::new(&trace);
        let window = WindowSpec::Entries(32);
        let dm = lowered.machine_cycles(Machine::Decoupled, window, 20);
        let swsm = lowered.machine_cycles(Machine::Superscalar, window, 20);
        let scalar = lowered.machine_cycles(Machine::Scalar, window, 20);
        assert!(dm > 0 && swsm > 0 && scalar > 0);
        assert!(dm < scalar);
        assert!(swsm < scalar);
        // Each against its machine built directly from the raw trace.
        let direct_dm = DecoupledMachine::new(dm_config(window, 20)).run(&trace);
        let direct_swsm = SuperscalarMachine::new(swsm_config(window, 20)).run(&trace);
        let analytic = ScalarReference::new(ScalarConfig::new(20)).analytic_cycles(&trace);
        assert_eq!(dm, direct_dm.cycles());
        assert_eq!(swsm, direct_swsm.cycles());
        assert_eq!(scalar, analytic);
    }

    #[test]
    fn curves_are_monotone_for_streaming_code() {
        let lowered = LoweredTrace::new(&small_trace());
        for machine in [Machine::Decoupled, Machine::Superscalar] {
            let cycles: Vec<Cycle> = [8, 16, 32, 64]
                .iter()
                .map(|&w| lowered.machine_cycles(machine, WindowSpec::Entries(w), 60))
                .collect();
            for pair in cycles.windows(2) {
                assert!(pair[1] <= pair[0], "bigger windows should not be slower");
            }
        }
    }

    #[test]
    fn unlimited_windows_are_at_least_as_fast_as_finite_ones() {
        let lowered = LoweredTrace::new(&small_trace());
        for machine in [Machine::Decoupled, Machine::Superscalar] {
            assert!(
                lowered.machine_cycles(machine, WindowSpec::Unlimited, 60)
                    <= lowered.machine_cycles(machine, WindowSpec::Entries(16), 60)
            );
        }
    }

    #[test]
    fn experiment_configs_have_sane_grids() {
        // The generator tests read results at md 0 and 60 and resolve
        // equivalent windows beyond the largest DM window.
        let cfg = tiny_config();
        assert!(cfg.iterations > 0);
        assert!(!cfg.dm_windows.is_empty());
        assert!(!cfg.memory_differentials.is_empty());
        assert!(cfg.memory_differentials.contains(&0));
        assert!(cfg.memory_differentials.contains(&60));
        assert!(cfg.equivalence_search_windows.last().unwrap() >= cfg.dm_windows.last().unwrap());
    }
}
