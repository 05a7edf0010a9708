//! # dae-isa — instruction-set and static kernel model
//!
//! This crate defines the *architectural* vocabulary shared by every other
//! crate in the reproduction of Jones & Topham, *A Comparison of Data
//! Prefetching on an Access Decoupled and Superscalar Machine* (MICRO-30,
//! 1997):
//!
//! * [`OpKind`] — the operation classes the paper's idealised machine
//!   distinguishes (1-cycle integer/address arithmetic, multi-cycle floating
//!   point, loads and stores),
//! * [`UnitClass`] — whether an operation belongs to the *access* stream
//!   (executed on the Address Unit of the decoupled machine) or the *compute*
//!   stream (executed on the Data Unit),
//! * [`LatencyModel`] — the fixed functional-unit latencies,
//! * [`Kernel`] / [`Statement`] / [`Operand`] — a compact static
//!   representation of a loop body (the unit of workload description used by
//!   `dae-workloads`), together with [`KernelBuilder`] for constructing one
//!   programmatically, and
//! * [`AddressPattern`] — how a memory statement generates its effective
//!   addresses when the kernel is expanded into a dynamic trace.
//!
//! The paper's simulations are trace driven and idealised: perfect dependence
//! analysis, register renaming removes all false dependences, loop-closing
//! branches are removed, and there is no speculation.  Consequently a kernel
//! here is a pure dataflow description — statements name their producers
//! directly (within the iteration, across iterations at a given distance, or
//! as loop invariants) and there are no architectural registers to allocate.
//!
//! ## Example
//!
//! ```
//! use dae_isa::{KernelBuilder, AddressPattern, Operand, UnitClass};
//!
//! // A tiny DAXPY-like kernel:  y[i] = a * x[i] + y[i]
//! let mut b = KernelBuilder::new("daxpy");
//! let i = b.induction();
//! let x = b.load_strided(&[Operand::Local(i)], 0x1000, 8);
//! let y = b.load_strided(&[Operand::Local(i)], 0x8000, 8);
//! let ax = b.fp_mul(&[Operand::Local(x), Operand::Invariant(0)]);
//! let s = b.fp_add(&[Operand::Local(ax), Operand::Local(y)]);
//! b.store_strided(&[Operand::Local(s), Operand::Local(i)], 0x8000, 8);
//! let kernel = b.build()?;
//!
//! assert_eq!(kernel.statements().len(), 6);
//! assert_eq!(kernel.stats().loads + kernel.stats().stores, 3);
//! assert_eq!(kernel.statements()[0].unit, UnitClass::Access);
//! # Ok::<(), dae_isa::KernelError>(())
//! ```

mod builder;
mod error;
mod kernel;
mod latency;
mod op;
mod unit;

pub use builder::KernelBuilder;
pub use error::KernelError;
pub use kernel::{AddressPattern, AddressSpec, Kernel, KernelStats, Operand, Statement, StmtId};
pub use latency::LatencyModel;
pub use op::OpKind;
pub use unit::UnitClass;

/// A machine cycle count.
///
/// Every simulator in the workspace reports time in cycles of the idealised
/// machine clock; the paper never uses wall-clock time.
pub type Cycle = u64;

/// A byte address in the simulated flat address space.
///
/// Only equality of addresses matters to the models (prefetch-buffer and
/// bypass matching); there is no simulated data memory content.
pub type Address = u64;
