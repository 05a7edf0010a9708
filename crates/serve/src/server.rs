//! The serving layer: one shared [`SweepSession`] multiplexed across
//! client connections.
//!
//! A [`SweepServer`] owns the session (and a table resolving request trace
//! sources to pinned lowerings) behind one mutex.  The mutex is held only
//! while a request is *submitted* — resolving the trace, pinning a missing
//! lowering (unpinning whatever the table evicts for it), and handing the
//! grid to
//! [`SweepSession::stream_classified`], which returns immediately — so
//! the simulations themselves run unlocked on the global worker pool and
//! grids from concurrent clients interleave point by point.  Each grid's
//! jobs are tagged with the request's `priority=` band and the
//! connection's client id: the pool serves interactive jobs before queued
//! bulk grids and interleaves clients round-robin within a band.
//!
//! The server is the local [`SweepBackend`]: connections run the shared
//! lifecycle ([`crate::serve_connection`]), which writes each grid's
//! results to the connection as tagged `point` lines (stream mode) or in
//! grid order once complete (batch mode), followed by a `done` line.  A
//! grid the cache answers whole is written by the connection's reader
//! thread; the points of one that simulates are sent by the jobs that
//! settle them, through [`SweepSession::submit`]'s sink, to the
//! connection's one drainer thread.  Because every line is tagged with
//! its request id, a client may keep several sweeps in flight and cancel
//! any of them mid-flight ([`CancelToken`]).
//!
//! ## Fault tolerance
//!
//! The server is built to degrade gracefully, never to wedge:
//!
//! * **Cancellation is deep.**  A cancelled request's pending points are
//!   never simulated, and its *running* points are cooperatively aborted
//!   mid-simulation (the run engine polls the token) — cancel, deadline
//!   expiry, dead-client cleanup and `shutdown mode=abort` all reclaim the
//!   workers within microseconds.
//! * **Deadlines.**  A sweep with `deadline_ms=` is cancelled when the
//!   budget expires; finished points are delivered and the `done` line
//!   reports `status=timeout`.
//! * **Admission control.**  [`ServerLimits`] bounds the global queue
//!   depth and the per-client in-flight points; an over-limit sweep is
//!   refused with a structured `busy` line (retry hint included) instead
//!   of queueing without bound.
//! * **Panic isolation.**  A panicking point produces an `error` line and
//!   a `failed` count on its own request only; the session reports it as
//!   an event (no unwind into the drainer), the sweep cache is never
//!   populated with partial results, and every lock the server shares is
//!   poison-recovering, so one bad point cannot take the process down.
//! * **Graceful shutdown.**  A `shutdown` request stops admission and
//!   either drains or aborts in-flight work; the accept loops exit and the
//!   binary terminates once the queue is empty.

use crate::lifecycle::{Slot, Submitted, SweepBackend, SHUTTING_DOWN};
use crate::protocol::{CacheAction, Response, ShutdownMode, SweepRequest};
use crate::table::ProgramTable;
use dae_core::{
    CancelToken, EventSink, RequestClass, SweepEvent, SweepSession, SweepStream, TraceId,
};
use dae_machines::pool_diagnostics;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};

/// The most lowered trace instructions a [`SweepServer`] keeps pinned
/// (about 25 MB of lowerings), plus one larger-than-budget newest program.
/// Past it the least recently used lowerings are unpinned (see
/// `table.rs`); a later request for an evicted program re-lowers it and
/// still hits the result cache, which keys on the structural `TraceHash`.
pub(crate) const LOWERING_BUDGET: usize = 1 << 17;

/// Admission-control bounds for a [`SweepServer`].
///
/// The defaults admit any single legal request (both limits are at least
/// the largest grid the protocol accepts, 65,536 points) while
/// bounding what a misbehaving client — or a crowd of well-behaved ones —
/// can pile onto the queue.
#[derive(Debug, Clone, Copy)]
pub struct ServerLimits {
    /// The most points one client may have queued or running at once.
    pub max_client_in_flight: usize,
    /// The most points the whole server may have queued or running.
    pub max_queue_depth: usize,
    /// The retry hint written on `busy` rejections, in milliseconds.
    pub retry_after_ms: u64,
}

impl Default for ServerLimits {
    fn default() -> Self {
        ServerLimits {
            max_client_in_flight: crate::protocol::MAX_POINTS,
            max_queue_depth: 4 * crate::protocol::MAX_POINTS,
            retry_after_ms: 50,
        }
    }
}

/// Why a submission was refused (see [`SweepServer::submit_for`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Admission control refused the sweep: too much is already queued
    /// against `limit`.  Nothing was submitted; retry after the hint.
    Busy {
        /// Points currently counted against the exceeded limit.
        queued: usize,
        /// The exceeded limit.
        limit: usize,
        /// Retry hint, in milliseconds.
        retry_after_ms: u64,
    },
    /// The request is invalid (bad inline kernel) or the server is
    /// shutting down.
    Rejected(String),
}

/// A long-lived sweep service over one shared [`SweepSession`].
///
/// Clone-free sharing: wrap it in an [`Arc`] and hand it to any number of
/// connection handlers ([`crate::serve_connection`], [`crate::serve_tcp`],
/// `serve_unix`).
#[derive(Debug)]
pub struct SweepServer {
    state: Mutex<ServerState>,
    limits: ServerLimits,
    counters: Arc<Counters>,
    shutting_down: AtomicBool,
    /// Monotone fault-path counters, reported by `stats`.
    timeout_requests: AtomicU64,
    busy_rejections: AtomicU64,
}

/// The counters that settling points update, shared with every
/// submission's [`AdmissionGuard`].
#[derive(Debug, Default)]
struct Counters {
    /// Points queued or running across all clients (admission increments
    /// under the state lock; settled points decrement).
    queue_depth: AtomicUsize,
    /// Monotone fault-path counters, reported by `stats`.
    aborted_points: AtomicU64,
    failed_points: AtomicU64,
}

#[derive(Debug)]
struct ServerState {
    session: SweepSession,
    /// Resolves trace sources to their pinned lowering: `(source key,
    /// iterations) → TraceId`, weighted by trace instructions under
    /// [`LOWERING_BUDGET`].  Requests with equal keys share one lowering
    /// across every client while it is resident; the result cache is
    /// shared regardless.
    programs: ProgramTable<TraceId>,
    /// Registered clients: id → live in-flight point counter.
    clients: HashMap<u64, Arc<AtomicUsize>>,
    next_client: u64,
    /// Live submissions (for `shutdown mode=abort`, which cancels their
    /// tokens); dropped ones are pruned opportunistically.
    active: Vec<Weak<AdmissionGuard>>,
}

/// A submission's admission reservation, and the token that cancels it,
/// which `shutdown mode=abort` reaches through the server's registry of
/// live guards.  Served sweeps release it one point per settled event;
/// whatever remains is released on drop (so a submission abandoned
/// mid-way cannot leak queue depth).
#[derive(Debug)]
struct AdmissionGuard {
    counters: Arc<Counters>,
    client: Option<Arc<AtomicUsize>>,
    remaining: AtomicUsize,
    token: CancelToken,
}

impl AdmissionGuard {
    /// Releases `n` points of the reservation: never more than remain,
    /// because each point settles once.
    fn release(&self, n: usize) {
        self.remaining.fetch_sub(n, Ordering::Relaxed);
        self.counters.queue_depth.fetch_sub(n, Ordering::Relaxed);
        if let Some(client) = &self.client {
            client.fetch_sub(n, Ordering::Relaxed);
        }
    }

    /// Counts one settled point: its admission, and the fault-path
    /// counter its event bumps.
    fn settle(&self, event: &SweepEvent) {
        self.release(1);
        let counter = match event {
            SweepEvent::Aborted { .. } => &self.counters.aborted_points,
            SweepEvent::Failed { .. } => &self.counters.failed_points,
            SweepEvent::Point(_) | SweepEvent::Skipped { .. } => return,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

impl Drop for AdmissionGuard {
    fn drop(&mut self) {
        let remaining = *self.remaining.get_mut();
        self.release(remaining);
    }
}

/// A submitted sweep: the result stream plus the handle that cancels it.
#[derive(Debug)]
pub struct Submission {
    /// Per-point results, in completion order.
    pub stream: SweepStream,
    /// Cancels this request: pending points are skipped, running points
    /// abort mid-simulation.
    pub token: CancelToken,
    /// Admission bookkeeping, released when the submission is dropped.
    _guard: Arc<AdmissionGuard>,
}

/// One connection's registration with the server: its identity in
/// `stats` (`client_<id>=<in_flight>`) and the counter admission control
/// charges its sweeps against.  Deregisters on drop.
#[derive(Debug)]
pub struct ClientGuard<'a> {
    server: &'a SweepServer,
    id: u64,
    in_flight: Arc<AtomicUsize>,
}

impl Drop for ClientGuard<'_> {
    fn drop(&mut self) {
        self.server.lock_state().clients.remove(&self.id);
    }
}

impl Default for SweepServer {
    fn default() -> Self {
        SweepServer::new()
    }
}

impl SweepServer {
    /// A server over a fresh session (result cache enabled), default
    /// limits.
    #[must_use]
    pub fn new() -> Self {
        SweepServer::with_session(SweepSession::new())
    }

    /// A server over a caller-configured session (cache toggle, bound or
    /// attached store), default limits.
    #[must_use]
    pub fn with_session(session: SweepSession) -> Self {
        SweepServer::with_session_and_limits(session, ServerLimits::default())
    }

    /// A server with explicit admission-control limits (fault suites use
    /// tiny ones; production keeps the defaults).
    #[must_use]
    pub fn with_session_and_limits(session: SweepSession, limits: ServerLimits) -> Self {
        SweepServer {
            state: Mutex::new(ServerState {
                session,
                programs: ProgramTable::new(LOWERING_BUDGET),
                clients: HashMap::new(),
                next_client: 1,
                active: Vec::new(),
            }),
            limits,
            counters: Arc::default(),
            shutting_down: AtomicBool::new(false),
            timeout_requests: AtomicU64::new(0),
            busy_rejections: AtomicU64::new(0),
        }
    }

    /// Points currently queued or running across all clients.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.counters.queue_depth.load(Ordering::Relaxed)
    }

    /// The server state, recovering from mutex poisoning.  Every mutation
    /// under this lock is transactional (insertions of whole entries,
    /// counter bumps), so a panicking holder cannot leave torn state — and
    /// a server that keeps serving other clients after one request
    /// panicked is the whole point of the fault-tolerance layer.
    fn lock_state(&self) -> MutexGuard<'_, ServerState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers a connection for per-client admission accounting and
    /// `stats` visibility.
    #[must_use]
    pub fn register_client(&self) -> ClientGuard<'_> {
        let mut state = self.lock_state();
        let id = state.next_client;
        state.next_client += 1;
        let in_flight = Arc::new(AtomicUsize::new(0));
        state.clients.insert(id, Arc::clone(&in_flight));
        ClientGuard {
            server: self,
            id,
            in_flight,
        }
    }

    /// Submits a sweep request: checks admission, resolves (pinning on
    /// first sight) the trace source, enqueues the grid on the shared
    /// session, and returns the result stream with its cancellation
    /// token.  Returns as soon as the points are queued — results arrive
    /// on the stream as workers finish.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Busy`] when the global queue-depth cap or the
    /// client's in-flight cap would be exceeded (nothing is submitted);
    /// [`SubmitError::Rejected`] for invalid inline kernels and for any
    /// sweep after shutdown began.
    pub fn submit_for(
        &self,
        request: &SweepRequest,
        client: Option<&ClientGuard<'_>>,
    ) -> Result<Submission, SubmitError> {
        let (mut state, id, guard) = self.admit_and_pin(request, client)?;
        // Jobs are tagged with the connection's client id, so the pool's
        // fair-share rotor interleaves concurrent clients round-robin
        // within a priority band (clientless submissions share queue 0).
        let class = RequestClass::new(request.priority, client.map_or(0, |c| c.id));
        let token = guard.token.clone();
        let points = request.points(id);
        let stream = state.session.stream_classified(&points, &token, class);
        Ok(Submission {
            stream,
            token,
            _guard: guard,
        })
    }

    /// Checks admission and resolves the trace source, pinning it on
    /// first sight.  Returns the locked state, the pinned program and the
    /// submission's reservation.
    fn admit_and_pin(
        &self,
        request: &SweepRequest,
        client: Option<&ClientGuard<'_>>,
    ) -> Result<(MutexGuard<'_, ServerState>, TraceId, Arc<AdmissionGuard>), SubmitError> {
        if self.is_shutting_down() {
            return Err(SubmitError::Rejected(SHUTTING_DOWN.to_string()));
        }
        let points = request.grid().len();
        let key = (request.source.key(), request.iterations);
        // Admission + fast-path submit under one brief lock.  Only
        // submissions (which hold the lock) increment the depth counters,
        // so the check-then-reserve pair is exact; settling points
        // decrementing concurrently can only make room, never take it.
        let mut state = self.lock_state();
        self.admit(points, client)?;
        let guard = self.reserve(&mut state, points, client);
        let id = match state.programs.get(&key) {
            Some(id) => id,
            None => {
                // First sight: trace expansion and lowering are pure and
                // can take whole milliseconds at large iteration counts,
                // so they run *outside* the lock — a client pinning a big
                // program must not stall every other client's
                // submissions.  The reservation stays held: the points
                // are committed capacity either way.
                drop(state);
                let trace = request
                    .source
                    .trace(request.iterations)
                    .map_err(SubmitError::Rejected)?;
                let lowered = dae_core::LoweredTrace::new(&trace);
                let weight = lowered.trace_instructions();
                state = self.lock_state();
                match state.programs.get(&key) {
                    // Another client pinned the same source while we
                    // lowered; use theirs (and drop ours).
                    Some(id) => id,
                    None => {
                        // Evicted lowerings are unpinned under this same
                        // lock, so no submission can resolve a handle the
                        // session no longer holds; grids already running
                        // keep their own reference.
                        let id = state.session.pin_lowered(lowered);
                        for evicted in state.programs.insert(key, id, weight) {
                            state.session.unpin(evicted);
                        }
                        id
                    }
                }
            }
        };
        Ok((state, id, guard))
    }

    /// The admission check (caller holds the state lock).
    fn admit(&self, points: usize, client: Option<&ClientGuard<'_>>) -> Result<(), SubmitError> {
        let busy = |queued: usize, limit: usize| {
            self.busy_rejections.fetch_add(1, Ordering::Relaxed);
            Err(SubmitError::Busy {
                queued,
                limit,
                retry_after_ms: self.limits.retry_after_ms,
            })
        };
        let depth = self.queue_depth();
        if depth + points > self.limits.max_queue_depth {
            return busy(depth, self.limits.max_queue_depth);
        }
        if let Some(client) = client {
            let in_flight = client.in_flight.load(Ordering::Relaxed);
            if in_flight + points > self.limits.max_client_in_flight {
                return busy(in_flight, self.limits.max_client_in_flight);
            }
        }
        Ok(())
    }

    /// Reserves `points` of queue capacity (caller holds the state lock
    /// and has passed [`SweepServer::admit`]) for a submission, registered
    /// for `shutdown mode=abort` while it lives.
    fn reserve(
        &self,
        state: &mut ServerState,
        points: usize,
        client: Option<&ClientGuard<'_>>,
    ) -> Arc<AdmissionGuard> {
        self.counters
            .queue_depth
            .fetch_add(points, Ordering::Relaxed);
        let client = client.map(|c| {
            c.in_flight.fetch_add(points, Ordering::Relaxed);
            Arc::clone(&c.in_flight)
        });
        let guard = Arc::new(AdmissionGuard {
            counters: Arc::clone(&self.counters),
            client,
            remaining: AtomicUsize::new(points),
            token: CancelToken::new(),
        });
        state.active.retain(|live| live.strong_count() > 0);
        state.active.push(Arc::downgrade(&guard));
        guard
    }

    /// Attaches a persistent cache store rooted at `dir` to the shared
    /// session (see [`SweepSession::attach_cache_store`]), returning the
    /// number of records replayed into the cache.
    ///
    /// # Errors
    ///
    /// Propagates the store's I/O error when `dir` cannot be created or
    /// its log cannot be read.
    pub fn attach_cache_store(&self, dir: &std::path::Path) -> io::Result<u64> {
        self.lock_state().session.attach_cache_store(dir)
    }

    /// Compacts the attached cache store down to the resident entries —
    /// the supported shutdown path for `--cache-dir` servers.  A no-op
    /// without a store.
    ///
    /// # Errors
    ///
    /// Propagates the store's I/O error when the compacted log cannot be
    /// written.
    pub fn persist_cache(&self) -> io::Result<()> {
        self.lock_state().session.persist_cache()
    }
}

/// The local backend: sweeps run on the shared session's worker pool.
impl SweepBackend for SweepServer {
    type Client<'a> = ClientGuard<'a>;

    fn register(&self) -> ClientGuard<'_> {
        self.register_client()
    }

    /// Submits the grid with a sink that counts each point a job settles
    /// and sends it on to the request's slot; the points settled at submit
    /// are counted at once.
    fn submit_sweep(
        &self,
        request: &SweepRequest,
        client: &ClientGuard<'_>,
        slot: Slot,
    ) -> Result<Submitted, SubmitError> {
        let (mut state, id, guard) = self.admit_and_pin(request, Some(client))?;
        let class = RequestClass::new(request.priority, client.id);
        let (settle, token) = (Arc::clone(&guard), guard.token.clone());
        let sink: EventSink = Arc::new(move |event| {
            settle.settle(&event);
            slot.send(vec![event]);
        });
        let points = request.points(id);
        let ready = state.session.submit(&points, &token, class, sink);
        guard.release(ready.len());
        Ok(Submitted {
            settled: ready.len() == request.grid().len(),
            ready: Box::new(ready.into_iter()),
            cancel: Arc::new(move || token.cancel()),
        })
    }

    /// The counters behind the `stats` reply: session activity, the
    /// program table (lowerings pinned in total and now, table hits and
    /// evictions), sweep-result cache state, queue depth and per-client in-flight
    /// points, the fault-path counters, and the process-wide
    /// simulation-pool diagnostics (`dae_machines::pool_diagnostics`), in
    /// one flat list.
    fn stats_fields(&self) -> Vec<(String, u64)> {
        let state = self.lock_state();
        let stats = state.session.stats();
        let cache = state.session.cache_stats();
        let pools = pool_diagnostics();
        let pool_stats = rayon::global_pool_stats();
        let count = |name: &str, n: &AtomicU64| (name.to_string(), n.load(Ordering::Relaxed));
        let mut fields = vec![
            ("pinned".to_string(), stats.pinned_traces),
            ("pinned_resident".to_string(), state.programs.len() as u64),
            ("pin_hits".to_string(), state.programs.hits()),
            ("pin_evictions".to_string(), state.programs.evictions()),
            ("batched_points".to_string(), stats.batched_points),
            ("streamed_points".to_string(), stats.streamed_points),
            ("cache_entries".to_string(), cache.entries as u64),
            ("cache_hits".to_string(), cache.hits),
            ("cache_misses".to_string(), cache.misses),
            ("cache_lookups".to_string(), cache.lookups),
            ("cache_evictions".to_string(), cache.evictions),
            ("cache_loaded".to_string(), cache.loaded),
            ("cache_persisted".to_string(), cache.persisted),
            ("cache_corrupt_records".to_string(), cache.corrupt_records),
            ("warm_unit_takes".to_string(), pools.warm_unit_takes),
            ("fresh_unit_takes".to_string(), pools.fresh_unit_takes),
            ("template_hits".to_string(), pools.template_hits),
            ("queue_depth".to_string(), self.queue_depth() as u64),
            ("clients".to_string(), state.clients.len() as u64),
            count("aborted_points", &self.counters.aborted_points),
            count("failed_points", &self.counters.failed_points),
            count("timeout_requests", &self.timeout_requests),
            count("busy_rejections", &self.busy_rejections),
            ("worker_task_panics".to_string(), pool_stats.task_panics),
            // Dispatcher counters: claim-time drops of cancelled jobs and
            // the per-band queue-depth gauges.
            ("claim_drops".to_string(), pool_stats.claim_drops),
            (
                "queued_interactive".to_string(),
                pool_stats.queued_interactive,
            ),
            ("queued_normal".to_string(), pool_stats.queued_normal),
            ("queued_bulk".to_string(), pool_stats.queued_bulk),
        ];
        let mut clients: Vec<_> = state.clients.iter().collect();
        clients.sort_by_key(|&(&id, _)| id);
        for (&id, in_flight) in clients {
            fields.push((
                format!("client_{id}"),
                in_flight.load(Ordering::Relaxed) as u64,
            ));
        }
        fields
    }

    /// Applies a `cache` administration request and reports the cache's
    /// state afterwards.  `Clear` empties the map, truncates the attached
    /// store, and fences out every in-flight sweep's inserts; `Limit`
    /// (re)bounds the resident set, evicting down immediately.
    fn cache_action(&self, action: CacheAction) -> Response {
        let mut state = self.lock_state();
        match action {
            CacheAction::Clear => state.session.clear_cache(),
            CacheAction::Limit(limit) => state.session.set_cache_limit(limit),
        }
        Response::Cache {
            entries: state.session.cache_stats().entries,
            limit: state.session.cache_limit(),
        }
    }

    /// Stops admitting sweeps.  `Drain` lets in-flight work finish;
    /// `Abort` additionally cancels every live submission (their `done`
    /// lines still arrive, with the usual balanced accounting).
    fn shutdown(&self, mode: ShutdownMode) {
        self.shutting_down.store(true, Ordering::Release);
        if mode == ShutdownMode::Abort {
            let state = self.lock_state();
            for guard in state.active.iter().filter_map(Weak::upgrade) {
                guard.token.cancel();
            }
        }
    }

    fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Acquire)
    }

    fn in_flight(&self) -> usize {
        self.queue_depth()
    }

    fn note_timeout(&self) {
        self.timeout_requests.fetch_add(1, Ordering::Relaxed);
    }
}
