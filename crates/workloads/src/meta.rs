//! Workload metadata and the `Workload` wrapper.

use dae_isa::Kernel;
use dae_trace::{expand, Trace};
use std::fmt;

/// The three latency-hiding-effectiveness bands of Table 1 of the paper.
///
/// With unlimited windows and a 60-cycle memory differential the seven
/// PERFECT programs split into programs that hide latency almost completely,
/// a middle band, and programs that hide very little.  The workload models
/// in this crate are calibrated to land in the same bands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LatencyHidingBand {
    /// Latency is almost completely hidden (LHE close to 1).
    High,
    /// A substantial part of the latency is hidden.
    Moderate,
    /// Little of the latency can be hidden.
    Poor,
}

impl fmt::Display for LatencyHidingBand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            LatencyHidingBand::High => "high",
            LatencyHidingBand::Moderate => "moderate",
            LatencyHidingBand::Poor => "poor",
        };
        f.write_str(name)
    }
}

/// Descriptive metadata attached to a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadMeta {
    /// Short name (the PERFECT program name for the suite workloads).
    pub name: String,
    /// One-line description of the program being modelled and of the
    /// synthetic structure standing in for it.
    pub description: String,
    /// The latency-hiding band the workload is expected to fall into at a
    /// memory differential of 60 cycles (None for synthetic extras).
    pub expected_band: Option<LatencyHidingBand>,
    /// The workload's natural trace length in iterations, chosen so that
    /// a trace has a few tens of thousands of dynamic instructions (the
    /// bypass ablation caps its traces at this length).
    pub default_iterations: u64,
}

/// A workload: a kernel plus metadata, ready to be expanded into traces.
///
/// # Example
///
/// ```
/// use dae_workloads::PerfectProgram;
///
/// let workload = PerfectProgram::Flo52q.workload();
/// let trace = workload.trace(100);
/// assert_eq!(trace.iterations(), 100);
/// assert!(trace.stats().loads > 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    kernel: Kernel,
    meta: WorkloadMeta,
}

impl Workload {
    /// Wraps a kernel with its metadata.
    #[must_use]
    pub(crate) fn new(kernel: Kernel, meta: WorkloadMeta) -> Self {
        Workload { kernel, meta }
    }

    /// The workload's short name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.meta.name
    }

    /// The workload's metadata.
    #[must_use]
    pub fn meta(&self) -> &WorkloadMeta {
        &self.meta
    }

    /// The underlying static kernel (for this crate's kernel checks).
    #[cfg(test)]
    #[must_use]
    pub(crate) fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// Expands the kernel into a trace of `iterations` iterations.
    #[must_use]
    pub fn trace(&self, iterations: u64) -> Trace {
        expand(&self.kernel, iterations)
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} statements/iteration): {}",
            self.meta.name,
            self.kernel.len(),
            self.meta.description
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dae_isa::{KernelBuilder, Operand};

    fn tiny_workload() -> Workload {
        let mut b = KernelBuilder::new("tiny");
        let i = b.induction();
        let x = b.load_strided(&[Operand::Local(i)], 0, 8);
        b.fp_add(&[Operand::Local(x)]);
        Workload::new(
            b.build().unwrap(),
            WorkloadMeta {
                name: "tiny".to_string(),
                description: "a tiny test workload".to_string(),
                expected_band: Some(LatencyHidingBand::High),
                default_iterations: 256,
            },
        )
    }

    #[test]
    fn traces_scale_with_iteration_count() {
        let w = tiny_workload();
        assert_eq!(w.trace(10).len(), 30);
    }

    #[test]
    fn accessors_expose_metadata() {
        let w = tiny_workload();
        assert_eq!(w.name(), "tiny");
        assert_eq!(w.kernel().len(), 3);
        assert_eq!(w.meta().expected_band, Some(LatencyHidingBand::High));
        assert!(format!("{w}").contains("tiny"));
    }

    #[test]
    fn bands_order_from_best_to_worst() {
        assert!(LatencyHidingBand::High < LatencyHidingBand::Moderate);
        assert!(LatencyHidingBand::Moderate < LatencyHidingBand::Poor);
        assert_eq!(format!("{}", LatencyHidingBand::Moderate), "moderate");
    }
}
