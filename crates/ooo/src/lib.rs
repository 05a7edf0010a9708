//! # dae-ooo — out-of-order unit building blocks
//!
//! The two machines of the paper (the access decoupled machine and the
//! single-window superscalar) are both built out of the same ingredient: an
//! idealised out-of-order unit with an instruction window, oldest-first
//! selection and a configurable issue width.  This crate provides that
//! ingredient:
//!
//! * [`UnitConfig`] / [`RetirePolicy`] / [`FuConfig`] — the knobs the paper
//!   sweeps (window size, issue width) and the ones it idealises away
//!   (functional-unit counts, retirement policy), kept explicit so the
//!   ablation experiments can un-idealise them;
//! * [`UnitSim`] — the cycle-level simulator of one unit, which delegates
//!   machine-specific behaviour (decoupled memory, prefetch buffer, blocking
//!   loads) to an [`ExecContext`] implemented by `dae-machines`;
//! * [`UnitStats`] — occupancy, utilisation and stall counters;
//! * [`IssueLogicModel`] — the Palacharla-style quadratic issue-logic delay
//!   model backing the paper's "simpler window logic" argument.
//!
//! ## Example
//!
//! ```
//! use dae_isa::{LatencyModel, OpKind};
//! use dae_ooo::{NoMemoryContext, UnitConfig, UnitSim};
//! use dae_trace::MachineInst;
//!
//! // Sixteen independent floating point multiplies on a 4-wide unit.
//! let stream: Vec<_> = (0..16)
//!     .map(|i| MachineInst::arith(i, OpKind::FpMul, vec![]))
//!     .collect();
//! let mut unit = UnitSim::new(stream, UnitConfig::new(32, 4), LatencyModel::paper_default());
//! let mut cycle = 0;
//! while !unit.is_done() {
//!     unit.step(cycle, &mut NoMemoryContext);
//!     cycle += 1;
//! }
//! // Four per cycle, two-cycle latency: the last completes at cycle 5.
//! assert_eq!(unit.max_completion(), 5);
//! ```

mod calendar;
mod complexity;
mod config;
mod drive;
mod fu;
mod reference;
mod stats;
mod unit;

pub use complexity::IssueLogicModel;
pub use config::{FuConfig, RetirePolicy, UnitConfig};
pub use drive::{EventUnit, SchedulerUnit};
pub use reference::NaiveUnitSim;
pub use stats::UnitStats;
pub use unit::{ExecContext, GateWait, NoMemoryContext, UnitScratch, UnitSim};
