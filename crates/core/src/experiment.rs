//! Convenience layer for running the paper's machines over workloads.

use crate::{SweepSession, WindowCurve};
use dae_isa::Cycle;
use dae_machines::{
    DecoupledMachine, DmConfig, ScalarConfig, ScalarReference, SuperscalarMachine, SwsmConfig,
};
use dae_trace::{
    expand_swsm, lower_scalar, partition, ContentHasher, DecoupledProgram, ScalarProgram,
    SwsmProgram, Trace, TraceHash,
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

impl WindowSpec {
    /// The finite size, if any.
    #[must_use]
    pub fn entries(self) -> Option<usize> {
        match self {
            WindowSpec::Entries(n) => Some(n),
            WindowSpec::Unlimited => None,
        }
    }
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

/// How sweep points evaluate the scalar reference.
///
/// The analytic formula (`base + loads × MD`) is exact — the simulated
/// machine matches it bit for bit on every trace (pinned by property tests
/// on random kernels and the whole PERFECT suite) — so figures default to
/// the O(1) evaluation.  Ablations that perturb the machine model beyond
/// what the formula describes (functional-unit limits, caches) switch a
/// sweep session to [`ScalarMode::Simulated`], which runs the lowered
/// scalar program through the pooled simulator like the other machines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ScalarMode {
    /// Evaluate the affine analytic formula, O(1) per point.
    #[default]
    Analytic,
    /// Simulate the lowered scalar program over pooled buffers.
    Simulated,
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
    /// The scalar lowering, kept so sessions can *simulate* the scalar
    /// machine (pooled, like the other machines) when an ablation needs
    /// more than the analytic formula.
    scalar_program: ScalarProgram,
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
        let scalar_program = lower_scalar(trace);
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
        hasher.stream(&scalar_program.insts);
        hasher.word(scalar_base);
        hasher.word(scalar_loads);
        let content_hash = hasher.finish();
        LoweredTrace {
            trace_instructions: trace.len(),
            dm_program,
            swsm_program,
            scalar_program,
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
    /// equal sweep results.  [`SweepSession`] keys its result cache on
    /// this (not on the pinned `Arc`), which is what makes cached figures
    /// survive re-pinning and on-disk persistence meaningful.
    #[must_use]
    pub fn content_hash(&self) -> TraceHash {
        self.content_hash
    }

    /// Execution time of the DM at one sweep point.
    ///
    /// Runs over the calling thread's recycled simulation buffers
    /// ([`dae_machines::with_thread_pool`]): sweep points executed back to
    /// back — or by the same parallel worker — rebuild nothing, which
    /// removes the ~5% per-point construction cost the figure sweeps used
    /// to pay.
    #[must_use]
    pub fn dm_cycles(&self, window: WindowSpec, memory_differential: Cycle) -> Cycle {
        let machine = DecoupledMachine::new(dm_config(window, memory_differential));
        dae_machines::with_thread_pool(|pool| {
            machine
                .run_pooled(&self.dm_program, self.trace_instructions, pool)
                .cycles()
        })
    }

    /// Execution time of the SWSM at one sweep point (pooled, like
    /// [`LoweredTrace::dm_cycles`]).
    #[must_use]
    pub fn swsm_cycles(&self, window: WindowSpec, memory_differential: Cycle) -> Cycle {
        let machine = SuperscalarMachine::new(swsm_config(window, memory_differential));
        dae_machines::with_thread_pool(|pool| {
            machine
                .run_pooled(&self.swsm_program, self.trace_instructions, pool)
                .cycles()
        })
    }

    /// Analytic execution time of the scalar reference (O(1) per point).
    #[must_use]
    pub fn scalar_cycles(&self, memory_differential: Cycle) -> Cycle {
        self.scalar_base + self.scalar_loads * memory_differential
    }

    /// Execution time of the *simulated* scalar reference at one sweep
    /// point, over pooled buffers like [`LoweredTrace::dm_cycles`].
    ///
    /// Bit-for-bit equal to [`LoweredTrace::scalar_cycles`] (pinned by the
    /// scalar property tests); exists so sweep sessions can run ablations
    /// whose machine perturbations the analytic formula does not model.
    #[must_use]
    pub fn scalar_cycles_simulated(&self, memory_differential: Cycle) -> Cycle {
        let machine = ScalarReference::new(ScalarConfig::new(memory_differential));
        dae_machines::with_thread_pool(|pool| {
            machine
                .run_pooled(&self.scalar_program, self.trace_instructions, pool)
                .cycles()
        })
    }

    /// Execution time of the scalar reference under `mode`.
    #[must_use]
    pub fn scalar_cycles_in(&self, memory_differential: Cycle, mode: ScalarMode) -> Cycle {
        match mode {
            ScalarMode::Analytic => self.scalar_cycles(memory_differential),
            ScalarMode::Simulated => self.scalar_cycles_simulated(memory_differential),
        }
    }

    /// Execution time of `machine` at one sweep point.
    #[must_use]
    pub fn machine_cycles(
        &self,
        machine: Machine,
        window: WindowSpec,
        memory_differential: Cycle,
    ) -> Cycle {
        self.machine_cycles_in(machine, window, memory_differential, ScalarMode::Analytic)
    }

    /// [`LoweredTrace::machine_cycles`] with an explicit scalar-evaluation
    /// mode (what sweep sessions dispatch through).
    #[must_use]
    pub fn machine_cycles_in(
        &self,
        machine: Machine,
        window: WindowSpec,
        memory_differential: Cycle,
        scalar_mode: ScalarMode,
    ) -> Cycle {
        match machine {
            Machine::Decoupled => self.dm_cycles(window, memory_differential),
            Machine::Superscalar => self.swsm_cycles(window, memory_differential),
            Machine::Scalar => self.scalar_cycles_in(memory_differential, scalar_mode),
        }
    }

    /// Runs a list of `(machine, window, MD)` sweep points in parallel,
    /// returning their execution times in point order.
    ///
    /// One-shot convenience over a throwaway [`SweepSession`]; callers
    /// sweeping the same programs repeatedly should hold a session instead,
    /// which also offers a streaming (per-point delivery) API.
    #[must_use]
    pub fn sweep(&self, points: &[(Machine, WindowSpec, Cycle)]) -> Vec<Cycle> {
        let mut session = SweepSession::new();
        let id = session.pin_lowered(self.clone());
        session.sweep(id, points)
    }

    /// Sweeps the SWSM over `windows` at a fixed memory differential (the
    /// points run in parallel).
    #[must_use]
    pub fn swsm_window_curve(&self, windows: &[usize], memory_differential: Cycle) -> WindowCurve {
        let points: Vec<_> = windows
            .iter()
            .map(|&w| {
                (
                    Machine::Superscalar,
                    WindowSpec::Entries(w),
                    memory_differential,
                )
            })
            .collect();
        WindowCurve::new(windows.iter().copied().zip(self.sweep(&points)).collect())
    }

    /// Sweeps the DM over `windows` at a fixed memory differential (the
    /// points run in parallel).
    #[must_use]
    pub fn dm_window_curve(&self, windows: &[usize], memory_differential: Cycle) -> WindowCurve {
        let points: Vec<_> = windows
            .iter()
            .map(|&w| {
                (
                    Machine::Decoupled,
                    WindowSpec::Entries(w),
                    memory_differential,
                )
            })
            .collect();
        WindowCurve::new(windows.iter().copied().zip(self.sweep(&points)).collect())
    }
}

/// Execution time of the DM on `trace`.
#[must_use]
pub fn dm_cycles(trace: &Trace, window: WindowSpec, memory_differential: Cycle) -> Cycle {
    DecoupledMachine::new(dm_config(window, memory_differential))
        .run(trace)
        .cycles()
}

/// Execution time of the SWSM on `trace`.
#[must_use]
pub fn swsm_cycles(trace: &Trace, window: WindowSpec, memory_differential: Cycle) -> Cycle {
    SuperscalarMachine::new(swsm_config(window, memory_differential))
        .run(trace)
        .cycles()
}

/// Execution time of the scalar reference on `trace` (computed analytically;
/// the simulated machine agrees — see the `dae-machines` tests).
#[must_use]
pub fn scalar_cycles(trace: &Trace, memory_differential: Cycle) -> Cycle {
    ScalarReference::new(ScalarConfig::new(memory_differential)).analytic_cycles(trace)
}

/// Execution time of `machine` on `trace` (windows are ignored by the scalar
/// reference).
#[must_use]
pub fn machine_cycles(
    machine: Machine,
    trace: &Trace,
    window: WindowSpec,
    memory_differential: Cycle,
) -> Cycle {
    match machine {
        Machine::Decoupled => dm_cycles(trace, window, memory_differential),
        Machine::Superscalar => swsm_cycles(trace, window, memory_differential),
        Machine::Scalar => scalar_cycles(trace, memory_differential),
    }
}

/// Sweeps the SWSM over `windows` at a fixed memory differential, producing
/// the curve used by the equivalent-window-ratio experiments.  The trace is
/// lowered once and the points run in parallel.
#[must_use]
pub fn swsm_window_curve(
    trace: &Trace,
    windows: &[usize],
    memory_differential: Cycle,
) -> WindowCurve {
    LoweredTrace::new(trace).swsm_window_curve(windows, memory_differential)
}

/// Sweeps the DM over `windows` at a fixed memory differential (lowered
/// once, points in parallel).
#[must_use]
pub fn dm_window_curve(
    trace: &Trace,
    windows: &[usize],
    memory_differential: Cycle,
) -> WindowCurve {
    LoweredTrace::new(trace).dm_window_curve(windows, memory_differential)
}

/// Shared knobs of the experiment generators: how long the traces are and
/// which grids are swept.  The defaults trade a few percent of fidelity for
/// run time; `ExperimentConfig::paper_scale` uses the workloads' full
/// default traces.
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

impl ExperimentConfig {
    /// A fast configuration suitable for tests and continuous integration.
    #[must_use]
    pub fn quick() -> Self {
        ExperimentConfig {
            iterations: 300,
            dm_windows: vec![8, 16, 32, 48, 64, 96, 128],
            swsm_windows: vec![8, 16, 32, 48, 64, 96, 128],
            equivalence_search_windows: vec![8, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512],
            memory_differentials: vec![0, 20, 40, 60],
        }
    }

    /// The configuration used to regenerate the paper's tables and figures.
    #[must_use]
    pub fn paper_scale() -> Self {
        ExperimentConfig {
            iterations: 1200,
            dm_windows: vec![4, 8, 16, 24, 32, 48, 64, 80, 96, 128],
            swsm_windows: vec![4, 8, 16, 24, 32, 48, 64, 80, 96, 128],
            equivalence_search_windows: vec![
                8, 16, 24, 32, 48, 64, 80, 96, 128, 160, 192, 256, 320, 384, 448, 512, 640, 768,
            ],
            memory_differentials: vec![0, 10, 20, 30, 40, 50, 60],
        }
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig::quick()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dae_workloads::stream;

    fn small_trace() -> Trace {
        stream().trace(150)
    }

    #[test]
    fn window_spec_display_and_entries() {
        assert_eq!(format!("{}", WindowSpec::Entries(32)), "32");
        assert_eq!(format!("{}", WindowSpec::Unlimited), "inf");
        assert_eq!(WindowSpec::Entries(32).entries(), Some(32));
        assert_eq!(WindowSpec::Unlimited.entries(), None);
    }

    #[test]
    fn machine_cycles_dispatches_to_each_machine() {
        let trace = small_trace();
        let dm = machine_cycles(Machine::Decoupled, &trace, WindowSpec::Entries(32), 20);
        let swsm = machine_cycles(Machine::Superscalar, &trace, WindowSpec::Entries(32), 20);
        let scalar = machine_cycles(Machine::Scalar, &trace, WindowSpec::Entries(32), 20);
        assert!(dm > 0 && swsm > 0 && scalar > 0);
        assert!(dm < scalar);
        assert!(swsm < scalar);
        assert_eq!(dm, dm_cycles(&trace, WindowSpec::Entries(32), 20));
        assert_eq!(swsm, swsm_cycles(&trace, WindowSpec::Entries(32), 20));
        assert_eq!(scalar, scalar_cycles(&trace, 20));
    }

    #[test]
    fn curves_are_monotone_for_streaming_code() {
        let trace = small_trace();
        for curve in [
            dm_window_curve(&trace, &[8, 16, 32, 64], 60),
            swsm_window_curve(&trace, &[8, 16, 32, 64], 60),
        ] {
            for pair in curve.points().windows(2) {
                assert!(
                    pair[1].1 <= pair[0].1,
                    "bigger windows should not be slower"
                );
            }
        }
    }

    #[test]
    fn unlimited_windows_are_at_least_as_fast_as_finite_ones() {
        let trace = small_trace();
        assert!(
            dm_cycles(&trace, WindowSpec::Unlimited, 60)
                <= dm_cycles(&trace, WindowSpec::Entries(16), 60)
        );
        assert!(
            swsm_cycles(&trace, WindowSpec::Unlimited, 60)
                <= swsm_cycles(&trace, WindowSpec::Entries(16), 60)
        );
    }

    #[test]
    fn experiment_configs_have_sane_grids() {
        for cfg in [ExperimentConfig::quick(), ExperimentConfig::paper_scale()] {
            assert!(cfg.iterations > 0);
            assert!(!cfg.dm_windows.is_empty());
            assert!(!cfg.memory_differentials.is_empty());
            assert!(cfg.memory_differentials.contains(&0));
            assert!(cfg.memory_differentials.contains(&60));
            assert!(
                cfg.equivalence_search_windows.last().unwrap() >= cfg.dm_windows.last().unwrap()
            );
        }
    }
}
