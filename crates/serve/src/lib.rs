//! # dae-serve — a long-lived sweep server over [`dae_core::SweepSession`]
//!
//! Every figure of the paper is a (machine × window × memory-differential)
//! sweep, and the reproduction's north star is a resident service rather
//! than a batch tool.  This crate is the serving front end: a line-based
//! protocol (newline-delimited, hand-written text requests and responses —
//! see `docs/PROTOCOL.md`) over one shared sweep session.
//!
//! * [`protocol`] — the wire format: [`Request`] / [`Response`] parsing
//!   and printing shared by the server, the clients and the tests, plus
//!   the inline-kernel grammar (documented in `docs/PROTOCOL.md`).
//! * [`lifecycle`] — the request lifecycle every serving mode shares,
//!   generic over a [`SweepBackend`]: [`serve_connection`] (one client:
//!   concurrent tagged sweeps, per-request cancellation and deadlines,
//!   balanced `done` accounting) and the TCP / Unix-socket accept loop.
//! * [`server`] — [`SweepServer`], the local backend: the shared session
//!   behind one brief mutex, with admission control.
//! * [`coordinator`] — [`Coordinator`], the fleet backend: the same wire
//!   protocol over backend `dae-serve` processes.  Each grid is forwarded
//!   whole as one `sweep` line, placed by consistent hashing on its trace
//!   and iterations ([`SweepRequest::placement_digest`]) so every shard's
//!   result cache stays hot, and a dead or refusing backend's unsettled
//!   points are re-dispatched.
//! * [`route`] — the coordinator's routing core, [`route::Router`]: a
//!   state machine with no sockets, clocks or threads, which the
//!   coordinator drives behind one lock and a checker drives through
//!   every interleaving of small fleets.
//!
//! What the session layer provides, the server inherits: lowered programs
//! pin once per `(source, iterations)` and are shared by every client, the
//! sweep-result cache answers repeated points without simulating (the
//! figure grids overlap heavily), streamed grids deliver per point with no
//! full-grid barrier, and cancellation drops pending points mid-flight.
//!
//! ## Example
//!
//! ```
//! use dae_serve::{parse_response, serve_connection, Response, SweepServer};
//! use std::sync::Arc;
//!
//! let server = Arc::new(SweepServer::new());
//! let requests = "sweep id=demo trace=TRFD iterations=60 machines=dm \
//!                 windows=16 mds=60 mode=batch\n";
//! let mut output = Vec::new();
//! serve_connection(&server, requests.as_bytes(), &mut output).unwrap();
//! let lines = String::from_utf8(output).unwrap();
//! let mut responses = lines.lines().map(|l| parse_response(l).unwrap());
//! assert!(matches!(responses.next(), Some(Response::Point { .. })));
//! assert!(matches!(
//!     responses.next(),
//!     Some(Response::Done { delivered: 1, .. })
//! ));
//! ```

pub mod coordinator;
pub mod lifecycle;
pub mod protocol;
pub mod route;
pub mod server;
mod table;

pub use coordinator::Coordinator;
#[cfg(unix)]
pub use lifecycle::serve_unix;
pub use lifecycle::{await_drained, serve_connection, serve_tcp, SweepBackend};
pub use route::Partitioner;

pub use protocol::{
    parse_request, parse_response, CacheAction, DeliveryMode, DoneStatus, Request, RequestError,
    Response, ShutdownMode, SweepRequest, TraceSource,
};

/// The scheduling band of a sweep request's point jobs (the wire
/// `priority=` field), re-exported from `dae_core` for clients.
pub use dae_core::Priority;
pub use server::{ClientGuard, ServerLimits, Submission, SubmitError, SweepServer};
