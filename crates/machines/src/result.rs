//! Simulation results.

use dae_isa::Cycle;
use dae_mem::{DecoupledMemoryStats, PrefetchBufferStats};
use dae_ooo::UnitStats;
use dae_trace::{PartitionStats, SwsmStats};

/// The part of a simulation result every machine shares.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutionSummary {
    /// Total execution time in cycles.
    pub cycles: Cycle,
    /// Architectural (trace) instructions executed.
    pub trace_instructions: usize,
    /// Lowered machine instructions executed (includes prefetches, copies,
    /// request/consume pairs).
    pub machine_instructions: usize,
}

/// Slippage / effective-single-window statistics of a decoupled-machine run.
///
/// The *effective single window* (ESW, §3 of the paper) is the span of
/// architectural program order between the oldest instruction still held by
/// the DU and the youngest instruction already fetched by the AU: the window
/// a single-window machine would need to cover the same set of in-flight
/// instructions.  Because the AU slips ahead of the DU, the ESW can be much
/// larger than the sum of the two physical windows.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EswStats {
    /// Largest effective single window observed (architectural
    /// instructions).
    pub max_esw: usize,
    /// Mean effective single window over the sampled cycles.
    pub avg_esw: f64,
    /// Largest AU-ahead-of-DU slip observed, in architectural instructions.
    pub max_slip: usize,
    /// Mean slip over the sampled cycles.
    pub avg_slip: f64,
    /// Number of cycles sampled (cycles in which both units had work in
    /// flight).
    pub samples: u64,
}

/// Result of running the access decoupled machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DmResult {
    /// Shared execution summary.
    pub summary: ExecutionSummary,
    /// Address-unit pipeline statistics.
    pub au: UnitStats,
    /// Data-unit pipeline statistics.
    pub du: UnitStats,
    /// Slippage / effective-single-window statistics.
    pub esw: EswStats,
    /// Structure of the partitioned program.
    pub partition: PartitionStats,
    /// Decoupled-memory counters.
    pub memory: DecoupledMemoryStats,
}

impl DmResult {
    /// Total execution time in cycles.
    #[must_use]
    pub fn cycles(&self) -> Cycle {
        self.summary.cycles
    }
}

/// Result of running the single-window superscalar machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwsmResult {
    /// Shared execution summary.
    pub summary: ExecutionSummary,
    /// Pipeline statistics.
    pub unit: UnitStats,
    /// Structure of the prefetch-expanded program.
    pub lowering: SwsmStats,
    /// Prefetch-buffer counters.
    pub buffer: PrefetchBufferStats,
}

impl SwsmResult {
    /// Total execution time in cycles.
    #[must_use]
    pub fn cycles(&self) -> Cycle {
        self.summary.cycles
    }
}

/// Result of running the scalar reference machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalarResult {
    /// Shared execution summary.
    pub summary: ExecutionSummary,
    /// Pipeline statistics.
    pub unit: UnitStats,
}

impl ScalarResult {
    /// Total execution time in cycles.
    #[must_use]
    pub fn cycles(&self) -> Cycle {
        self.summary.cycles
    }
}
