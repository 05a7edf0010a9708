//! Dataflow analyses over traces: critical path, ideal ILP, run lengths.

use crate::Trace;
use dae_isa::{Cycle, LatencyModel};

/// Results of the dataflow-limit analysis of a trace.
///
/// These numbers describe the program itself, independent of any machine:
/// the critical (longest dependence) path bounds how fast *any* machine with
/// the given latencies can run the trace, and the ideal ILP is the average
/// parallelism available if resources were infinite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataflowSummary {
    /// Length of the longest dependence chain, in cycles, when every memory
    /// access costs `1 + memory_differential` cycles.
    pub critical_path: Cycle,
    /// Length of the longest dependence chain when memory accesses cost a
    /// single cycle (perfect latency hiding).
    pub critical_path_perfect: Cycle,
    /// Dynamic instruction count.
    pub instructions: usize,
    /// Total work in cycles (sum of instruction latencies, memory charged at
    /// one cycle) — the single-issue lower bound with perfect hiding.
    pub total_work: Cycle,
    /// `instructions / critical_path_perfect`: the average instruction-level
    /// parallelism exposed by the dataflow graph alone.
    pub ideal_ilp: f64,
    /// How much of the critical path consists of memory latency
    /// (`1 - critical_path_perfect / critical_path`).
    pub memory_bound_fraction: f64,
}

/// Computes the dataflow limits of `trace` under `latencies` and a fixed
/// `memory_differential` (extra cycles per memory access over a register
/// access).
///
/// The critical path treats a load as costing `1 + memory_differential`
/// cycles from issue to the availability of its value, and every other
/// operation as its functional-unit latency.  Stores cost a single cycle and
/// terminate chains (nothing depends on a store in this model).
///
/// # Example
///
/// ```
/// use dae_isa::{KernelBuilder, LatencyModel, Operand};
/// use dae_trace::{expand, dataflow_summary};
///
/// // A serial floating point recurrence: the critical path grows linearly
/// // with the iteration count.
/// let mut b = KernelBuilder::new("recurrence");
/// let i = b.induction();
/// let x = b.load_strided(&[Operand::Local(i)], 0, 8);
/// b.fp_add_carried_self(&[Operand::Local(x)]);
/// let kernel = b.build()?;
/// let trace = expand(&kernel, 50);
///
/// let summary = dataflow_summary(&trace, &LatencyModel::paper_default(), 0);
/// assert!(summary.critical_path >= 100); // 50 iterations x 2-cycle fp add
/// assert!(summary.ideal_ilp > 1.0);
/// # Ok::<(), dae_isa::KernelError>(())
/// ```
#[must_use]
pub fn dataflow_summary(
    trace: &Trace,
    latencies: &LatencyModel,
    memory_differential: Cycle,
) -> DataflowSummary {
    let critical_path_perfect = critical_path(trace, latencies, 0);
    let critical_path = critical_path(trace, latencies, memory_differential);
    let instructions = trace.len();
    let total_work: Cycle = trace.iter().map(|inst| latencies.latency_of(inst.op)).sum();
    let ideal_ilp = if critical_path_perfect == 0 {
        0.0
    } else {
        instructions as f64 / critical_path_perfect as f64
    };
    let memory_bound_fraction = if critical_path == 0 {
        0.0
    } else {
        1.0 - critical_path_perfect as f64 / critical_path as f64
    };
    DataflowSummary {
        critical_path,
        critical_path_perfect,
        instructions,
        total_work,
        ideal_ilp,
        memory_bound_fraction,
    }
}

/// The length in cycles of the longest dependence chain of `trace`, charging
/// each load `1 + memory_differential` cycles.
fn critical_path(trace: &Trace, latencies: &LatencyModel, md: Cycle) -> Cycle {
    // Longest-path DP over the (acyclic, topologically ordered) trace.
    let mut finish: Vec<Cycle> = Vec::with_capacity(trace.len());
    let mut longest = 0;
    for inst in trace.iter() {
        let ready = inst.all_deps().map(|p| finish[p]).max().unwrap_or(0);
        let cost = match inst.op {
            op if op.is_load() => latencies.latency_of(op) + md,
            op => latencies.latency_of(op),
        };
        let done = ready + cost;
        longest = longest.max(done);
        finish.push(done);
    }
    longest
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand;
    use dae_isa::{KernelBuilder, Operand};

    fn parallel_kernel() -> dae_isa::Kernel {
        // Independent iterations: wide dataflow.
        let mut b = KernelBuilder::new("parallel");
        let i = b.induction();
        let x = b.load_strided(&[Operand::Local(i)], 0, 8);
        let y = b.fp_mul(&[Operand::Local(x), Operand::Invariant(0)]);
        b.store_strided(&[Operand::Local(y), Operand::Local(i)], 0x8000, 8);
        b.build().unwrap()
    }

    fn serial_kernel() -> dae_isa::Kernel {
        // A long floating-point recurrence: almost no parallelism.
        let mut b = KernelBuilder::new("serial");
        let i = b.induction();
        let x = b.load_strided(&[Operand::Local(i)], 0, 8);
        b.fp_add_carried_self(&[Operand::Local(x)]);
        b.build().unwrap()
    }

    #[test]
    fn serial_recurrence_has_linear_critical_path() {
        let lat = LatencyModel::paper_default();
        let t = expand(&serial_kernel(), 100);
        let cp = critical_path(&t, &lat, 0);
        // 100 iterations of a 2-cycle dependent fp add, plus the first load.
        assert!(cp >= 200, "critical path {cp}");
        assert!(cp <= 210, "critical path {cp}");
    }

    #[test]
    fn parallel_kernel_critical_path_is_short() {
        let lat = LatencyModel::paper_default();
        let t = expand(&parallel_kernel(), 100);
        let cp = critical_path(&t, &lat, 0);
        // The induction chain (1 cycle per iteration) dominates.
        assert!(cp <= 100 + 10, "critical path {cp}");
        let summary = dataflow_summary(&t, &lat, 0);
        assert!(summary.ideal_ilp > 3.0, "ilp {}", summary.ideal_ilp);
    }

    #[test]
    fn memory_differential_lengthens_the_path_of_memory_bound_code() {
        let lat = LatencyModel::paper_default();
        let t = expand(&serial_kernel(), 50);
        let near = critical_path(&t, &lat, 0);
        let far = critical_path(&t, &lat, 60);
        // Loads feed the recurrence but are not serialised by it, so the
        // increase is the one exposed load latency, not 50 of them.
        assert!(far > near);
        assert!(far >= near + 60);
        let summary = dataflow_summary(&t, &lat, 60);
        assert!(summary.memory_bound_fraction > 0.0);
        assert!(summary.memory_bound_fraction < 1.0);
    }

    #[test]
    fn empty_trace_has_zero_paths() {
        let lat = LatencyModel::paper_default();
        let t = expand(&parallel_kernel(), 0);
        assert_eq!(critical_path(&t, &lat, 60), 0);
        let s = dataflow_summary(&t, &lat, 60);
        assert_eq!(s.critical_path, 0);
        assert_eq!(s.ideal_ilp, 0.0);
        assert_eq!(s.memory_bound_fraction, 0.0);
    }

    #[test]
    fn total_work_is_sum_of_latencies() {
        let lat = LatencyModel::paper_default();
        let t = expand(&parallel_kernel(), 10);
        let s = dataflow_summary(&t, &lat, 60);
        // per iteration: int(1) + load(1) + fmul(2) + store(1) = 5
        assert_eq!(s.total_work, 50);
        assert_eq!(s.instructions, 40);
    }
}
