//! # dae-trace — dynamic traces and machine lowerings
//!
//! This crate turns the static kernels of [`dae_isa`] into the dynamic
//! instruction streams that the paper's simulators consume:
//!
//! 1. [`expand`] unrolls a kernel for N iterations into an architectural
//!    [`Trace`] of [`DynInst`]s with explicit true data dependences (the
//!    paper assumes perfect dependence analysis and renaming);
//! 2. [`dataflow_summary`] measures the machine-independent limits of a
//!    trace (critical path, ideal ILP, memory-boundedness);
//! 3. the three lowerings produce the per-machine instruction streams:
//!    * [`partition`] — the access decoupled machine's AU / DU streams,
//!      with load request/consume pairs, store address/data pairs,
//!      cross-unit copies and loss-of-decoupling accounting;
//!    * [`expand_swsm`] — the single-window superscalar machine's hybrid
//!      prefetch expansion (prefetch + access per memory operation);
//!    * [`lower_scalar`] — the scalar reference machine with blocking
//!      loads.
//!
//! All lowered streams use the shared [`MachineInst`] format, so a single
//! out-of-order engine (in `dae-ooo`) can execute any of them.
//!
//! ## Example: from kernel to both machines
//!
//! ```
//! use dae_isa::{KernelBuilder, Operand};
//! use dae_trace::{expand, expand_swsm, partition, PartitionMode};
//!
//! let mut b = KernelBuilder::new("axpy");
//! let i = b.induction();
//! let x = b.load_strided(&[Operand::Local(i)], 0, 8);
//! let y = b.fp_mul(&[Operand::Local(x), Operand::Invariant(0)]);
//! b.store_strided(&[Operand::Local(y), Operand::Local(i)], 0x1000, 8);
//! let trace = expand(&b.build()?, 100);
//!
//! let dm = partition(&trace, PartitionMode::Tagged);
//! let swsm = expand_swsm(&trace);
//!
//! // The decoupled machine splits work across two units; the SWSM pays for
//! // prefetches in a single stream.
//! assert_eq!(dm.au.len() + dm.du.len(), swsm.insts.len());
//! assert_eq!(dm.stats.copies_du_to_au, 0);
//! # Ok::<(), dae_isa::KernelError>(())
//! ```

mod analysis;
mod classify;
mod content;
mod dyninst;
mod expand;
mod machine_inst;
mod partition;
mod scalar;
mod swsm;
mod trace;
mod wakeup;

pub use analysis::{dataflow_summary, DataflowSummary};
pub use classify::{classification_disagreement, classify};
pub use content::{ContentHasher, TraceHash};
pub use dyninst::{DepEdge, DepRole, DynInst};
pub use expand::expand;
pub use machine_inst::{Dep, DepList, ExecKind, MachineInst};
pub use partition::{partition, DecoupledProgram, PartitionMode, PartitionStats};
pub use scalar::{lower_scalar, ScalarProgram};
pub use swsm::{expand_swsm, SwsmProgram, SwsmStats};
pub use trace::{Trace, TraceStats};
pub use wakeup::WakeupList;
