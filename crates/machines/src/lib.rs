//! # dae-machines — the machine models of the paper
//!
//! Three machines execute the same architectural traces:
//!
//! * [`DecoupledMachine`] (DM) — two out-of-order units (Address Unit and
//!   Data Unit) joined by a decoupled memory; the AU slips ahead of the DU
//!   and prefetches by construction (paper figure 1);
//! * [`SuperscalarMachine`] (SWSM) — a single-window out-of-order machine
//!   with the hybrid prefetch scheme and a fully associative prefetch
//!   buffer (paper figure 2);
//! * [`ScalarReference`] — the 1-wide in-order machine with blocking loads
//!   used as the common speedup denominator.
//!
//! Each `run` consumes a [`Trace`](dae_trace::Trace) and returns a detailed
//! result ([`DmResult`], [`SwsmResult`], [`ScalarResult`]) containing the
//! execution time, per-unit pipeline statistics, memory-structure counters
//! and — for the DM — the slippage / effective-single-window measurements
//! that back the paper's §3 discussion.
//!
//! ## Example: the paper's core comparison on one kernel
//!
//! ```
//! use dae_isa::{KernelBuilder, Operand};
//! use dae_machines::{DecoupledMachine, DmConfig, SuperscalarMachine, SwsmConfig};
//! use dae_trace::expand;
//!
//! let mut b = KernelBuilder::new("daxpy");
//! let i = b.induction();
//! let x = b.load_strided(&[Operand::Local(i)], 0, 8);
//! let y = b.load_strided(&[Operand::Local(i)], 0x100_000, 8);
//! let ax = b.fp_mul(&[Operand::Local(x), Operand::Invariant(0)]);
//! let s = b.fp_add(&[Operand::Local(ax), Operand::Local(y)]);
//! b.store_strided(&[Operand::Local(s), Operand::Local(i)], 0x100_000, 8);
//! let trace = expand(&b.build()?, 300);
//!
//! // Small windows, large memory latency: the decoupled machine wins.
//! let dm = DecoupledMachine::new(DmConfig::paper(16, 60)).run(&trace);
//! let swsm = SuperscalarMachine::new(SwsmConfig::paper(16, 60)).run(&trace);
//! assert!(dm.cycles() < swsm.cycles());
//! # Ok::<(), dae_isa::KernelError>(())
//! ```

mod abort;
mod config;
mod dm;
mod engine;
mod pool;
mod result;
mod scalar;
mod swsm;

pub use abort::{with_abort_token, AbortToken, AbortedSimulation};
pub use config::{
    DmConfig, ScalarConfig, SwsmConfig, PAPER_AU_ISSUE_WIDTH, PAPER_DU_ISSUE_WIDTH,
    PAPER_SWSM_ISSUE_WIDTH,
};
pub use dm::DecoupledMachine;
pub use pool::{pool_diagnostics, with_thread_pool, PoolDiagnostics, SimPool};
pub use result::{DmResult, EswStats, ExecutionSummary, ScalarResult, SwsmResult};
pub use scalar::ScalarReference;
pub use swsm::SuperscalarMachine;
