//! # dae-workloads — workload models for the DAE prefetching study
//!
//! The paper evaluates its two machines on traces of seven PERFECT Club
//! benchmarks.  Those Fortran programs (and the authors' tracing
//! infrastructure) are not available, so this crate provides calibrated
//! synthetic stand-ins — see [`PerfectProgram`] and the module documentation
//! of the [`PerfectProgram`] models — plus a handful of micro-pattern
//! kernels and a random-kernel generator used by property tests.
//!
//! Every workload is a [`Workload`]: a static kernel plus metadata (expected
//! latency-hiding band, default trace length).  Expanding a workload yields
//! a [`Trace`](dae_trace::Trace) ready for any of the machine models.
//!
//! ## Example
//!
//! ```
//! use dae_workloads::{PerfectProgram, suite};
//!
//! // The full Table 1 suite, in the paper's order.
//! let all = suite();
//! assert_eq!(all.len(), 7);
//!
//! // The paper's three representative programs.
//! let flo = PerfectProgram::Flo52q.workload();
//! let stats = flo.trace(500).stats();
//! assert!(10 * (stats.loads + stats.stores) > 3 * stats.instructions);
//! ```

mod meta;
mod perfect;
mod synthetic;

pub use meta::{LatencyHidingBand, Workload, WorkloadMeta};
pub use perfect::{suite, PerfectProgram};
pub use synthetic::{
    gather_scatter, pointer_chase, random_kernel, reduction, stencil, stream, synthetic_suite,
};
