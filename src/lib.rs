//! # dae — reproduction of *A Comparison of Data Prefetching on an Access
//! Decoupled and Superscalar Machine* (Jones & Topham, MICRO-30, 1997)
//!
//! This facade crate re-exports the whole workspace behind one dependency:
//!
//! * [`isa`] — operation kinds, latencies, static kernels and the kernel
//!   builder DSL;
//! * [`trace`] — dynamic trace expansion, dataflow analysis and the three
//!   machine lowerings (decoupled partition, SWSM prefetch expansion,
//!   scalar);
//! * [`workloads`] — the seven PERFECT Club workload models and synthetic
//!   extras;
//! * [`mem`] — the memory differential model, decoupled memory, prefetch
//!   buffer and LRU structures;
//! * [`ooo`] — the out-of-order unit simulator and the issue-logic
//!   complexity model;
//! * [`machines`] — the access decoupled machine (DM), the single-window
//!   superscalar (SWSM) and the scalar reference;
//! * [`core`] — metrics, sweeps and the per-table/figure experiment
//!   generators.
//!
//! The most common entry points are also re-exported at the crate root.
//!
//! ## Quickstart
//!
//! ```
//! use dae::core::LoweredTrace;
//! use dae::{speedup, Machine, PerfectProgram, WindowSpec};
//!
//! // The paper's middle-band program, a realistic window, a 60-cycle
//! // memory differential.
//! let lowered = LoweredTrace::new(&PerfectProgram::Mdg.workload().trace(200));
//! let cycles = |machine| lowered.machine_cycles(machine, WindowSpec::Entries(32), 60);
//! let reference = cycles(Machine::Scalar);
//! let dm = speedup(reference, cycles(Machine::Decoupled));
//! let swsm = speedup(reference, cycles(Machine::Superscalar));
//! assert!(dm > swsm, "the decoupled machine hides a 60-cycle latency better");
//! ```

pub use dae_core as core;
pub use dae_isa as isa;
pub use dae_machines as machines;
pub use dae_mem as mem;
pub use dae_ooo as ooo;
pub use dae_trace as trace;
pub use dae_workloads as workloads;

pub use dae_core::{speedup, ExperimentConfig, Machine, WindowSpec};
pub use dae_machines::{
    DecoupledMachine, DmConfig, ScalarConfig, ScalarReference, SuperscalarMachine, SwsmConfig,
};
pub use dae_workloads::{PerfectProgram, Workload};
