//! # dae-core — the experiment API of the reproduction
//!
//! This crate ties the workload models, the trace lowerings and the machine
//! simulators together into the experiments of Jones & Topham's MICRO-30
//! paper:
//!
//! * [`metrics`](crate::speedup) — speedup, latency-hiding effectiveness and
//!   the equivalent window ratio (with interpolation over window sweeps);
//! * [`experiment`](crate::ExperimentConfig) — a trace lowered once for
//!   every machine ([`LoweredTrace`]), whose
//!   [`machine_cycles`](LoweredTrace::machine_cycles) is the one way to ask
//!   for the cycles of one machine at one (window, memory differential)
//!   point, and the shared sweep grids;
//! * [`experiments`](crate::table1_in) — generators for every table and
//!   figure of the paper's evaluation, each over a caller-held session:
//!   [`table1_in`], [`speedup_figure_in`] (figures 4–6),
//!   [`equivalent_window_figure_in`] (figures 7–9) and
//!   [`window_ratio_claim_in`] (the §5 headline claim);
//! * [`session`](crate::SweepSession) — persistent sweep sessions: lowered
//!   programs pinned once over the long-lived worker pool, grids executed
//!   batched or streamed (per-point delivery, no full-grid barrier), with
//!   finished points cached by `(content hash, machine, window, MD)` —
//!   bounded by cost-aware LRU eviction, persistable to a versioned
//!   on-disk store ([`CacheStore`]) — and per-stream cancellation
//!   ([`CancelToken`]);
//! * [`report`](crate::TextTable) — aligned text tables and CSV export so
//!   the experiment binaries print exactly the rows/series the paper
//!   reports.
//!
//! ## Example
//!
//! ```
//! use dae_core::{speedup, LoweredTrace, Machine, WindowSpec};
//! use dae_workloads::PerfectProgram;
//!
//! let lowered = LoweredTrace::new(&PerfectProgram::Track.workload().trace(100));
//! let cycles = |machine| lowered.machine_cycles(machine, WindowSpec::Entries(32), 60);
//! let reference = cycles(Machine::Scalar);
//! let dm = speedup(reference, cycles(Machine::Decoupled));
//! let swsm = speedup(reference, cycles(Machine::Superscalar));
//! // At a realistic window and a large memory differential the decoupled
//! // machine is ahead (the paper's central result).
//! assert!(dm > swsm);
//! ```

mod experiment;
mod experiments;
#[doc(hidden)]
pub mod fault;
mod metrics;
mod placement;
mod report;
mod session;
mod store;

pub use experiment::{dm_config, swsm_config, ExperimentConfig, LoweredTrace, Machine, WindowSpec};
pub use experiments::{
    equivalent_window_figure_in, speedup_figure_in, table1_in, window_ratio_claim_in, EwrFigure,
    EwrSeries, SpeedupFigure, SpeedupSeries, Table1, Table1Row, WindowRatioClaim,
};
pub use metrics::{equivalent_window_ratio, speedup, WindowCurve};
pub use placement::cache_key_digest;
pub use report::TextTable;
pub use session::{
    CacheStats, CancelToken, EventSink, RequestClass, SessionStats, StreamWait, StreamedPoint,
    SweepEvent, SweepPoint, SweepSession, SweepStream, TraceId,
};
pub use store::{CacheStore, StoreLoad, StoreRecord};

/// The structural lowering digest the sweep cache keys on (re-exported
/// from `dae-trace`; see [`LoweredTrace::content_hash`]).
pub use dae_trace::TraceHash;

/// The worker pool's scheduling band for streamed point jobs (re-exported
/// from the vendored pool so servers can classify requests; see
/// [`RequestClass`] and [`SweepSession::stream_classified`]).
pub use rayon::Priority;
