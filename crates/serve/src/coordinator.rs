//! The shard coordinator: one wire-protocol front end over N `dae-serve`
//! backends.
//!
//! `dae-serve --coordinator backend1,backend2,…` speaks the *same*
//! newline-delimited protocol as a single server (`docs/PROTOCOL.md`) but
//! owns no session of its own: each accepted grid is split into
//! per-point subrequests, each point is placed on a backend by consistent
//! hashing over its sweep-cache key ([`dae_core::cache_key_digest`] —
//! `TraceHash`, machine, window, MD), and the request-tagged replies are
//! merged back into one client response.  Placement by the cache key is
//! the load-bearing choice: a repeated grid re-lands every repeated point
//! on the backend whose result cache already holds it, so a sharded
//! deployment keeps the single-server warm-cache behaviour per shard.
//!
//! ## Fault model
//!
//! A point is forwarded to the client once, when its subrequest's `done`
//! line arrives: the backend's `point` line only records the cycles, and
//! the `done` line settles the point with them and its `cached` flag.  A
//! backend that dies (its data connection drops) or sits on a point past
//! the retry timeout gets its unfinished points re-dispatched to the
//! surviving backends; points whose cycles it already reported are
//! settled as delivered, uncached.  Every point therefore settles
//! exactly once — delivered, dropped, aborted or failed — and the
//! client's `done` line keeps the protocol invariant
//! `delivered + dropped + aborted + failed == points` through any
//! combination of deaths, retries, cancels and deadlines.  Determinism
//! makes re-dispatch safe: a re-simulated point produces bit-for-bit the
//! cycles the dead backend would have reported.
//!
//! This module is designated in `dae-lint`'s panic-path rule: a malformed
//! backend reply, a dead socket or a poisoned lock must degrade into a
//! counter or a structured error, never a panic.  Lock order: the
//! `pending` routing map and a backend `conn` writer are never held at
//! the same time (collect under one, act under the other).

use crate::lifecycle::{Canceller, SweepBackend, SweepEvents};
use crate::protocol::{
    parse_response, CacheAction, DeliveryMode, Response, ShutdownMode, SweepRequest, TraceSource,
};
use crate::server::SubmitError;
use crate::table::ProgramTable;
use dae_core::{cache_key_digest, StreamWait, StreamedPoint, SweepEvent, TraceHash};
use dae_isa::Cycle;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};
use std::time::{Duration, Instant};

/// Ring points per backend.  Enough that removing one backend spreads its
/// keys roughly evenly over the survivors; small enough that building and
/// searching the ring is negligible.
const DEFAULT_VNODES: usize = 64;

/// How long a dispatched, unsettled point may sit on one backend before
/// the watchdog reclaims it.  Deliberately generous: death detection (the
/// dropped connection) is the fast path, and a false timeout only costs a
/// redundant deterministic simulation (or a finished point's `cached`
/// flag).
const DEFAULT_RETRY_TIMEOUT: Duration = Duration::from_secs(30);

/// Watchdog scan period.
const WATCHDOG_POLL: Duration = Duration::from_millis(100);

/// Read timeout on ephemeral control connections (`stats` / `cache` /
/// `shutdown` fan-out), so a wedged backend cannot hang a control verb.
const CONTROL_TIMEOUT: Duration = Duration::from_secs(5);

/// Programs whose placement hash the coordinator keeps (each entry is a
/// key and a hash, whatever the program's length); past it the least
/// recently used are dropped, and re-lowered if requested again.
const PLACEMENT_BUDGET: usize = 1 << 12;

/// A consistent-hash ring over `backends` numbered `0..n`.
///
/// Each backend contributes `vnodes` deterministically-placed ring
/// points; a key digest is assigned to the backend owning the first ring
/// point at or after it (wrapping).  Placement is a pure function of
/// `(backends, vnodes, digest)` — every coordinator over the same fleet
/// agrees — and removing a backend moves *only* the keys that lived on
/// it: the ring walk simply skips the dead backend's points, so
/// survivors keep their assignments (the property the partitioner
/// proptest pins).
#[derive(Debug, Clone)]
pub struct Partitioner {
    /// `(ring position, backend)`, sorted by position.
    ring: Vec<(u64, usize)>,
}

impl Partitioner {
    /// A ring over `backends` with the default vnode count.
    #[must_use]
    pub fn new(backends: usize) -> Self {
        Partitioner::with_vnodes(backends, DEFAULT_VNODES)
    }

    /// A ring over `backends` with `vnodes` ring points each.
    #[must_use]
    pub fn with_vnodes(backends: usize, vnodes: usize) -> Self {
        let mut ring = Vec::with_capacity(backends.saturating_mul(vnodes));
        for backend in 0..backends {
            for vnode in 0..vnodes {
                ring.push((mix64(((backend as u64) << 32) ^ vnode as u64), backend));
            }
        }
        // Sorting by (position, backend) makes a position collision
        // resolve to the lowest backend on every build — placement stays
        // a pure function of the configuration.
        ring.sort_unstable();
        ring.dedup_by_key(|&mut (position, _)| position);
        Partitioner { ring }
    }

    /// The backend owning `digest` with every backend eligible.  `None`
    /// only for an empty ring.
    #[must_use]
    pub fn assign(&self, digest: u64) -> Option<usize> {
        self.assign_among(digest, |_| true)
    }

    /// The backend owning `digest` among the backends `eligible` accepts:
    /// the ring is walked clockwise from the digest's position until an
    /// eligible owner is found.  `None` when no backend is eligible.
    pub fn assign_among(&self, digest: u64, eligible: impl Fn(usize) -> bool) -> Option<usize> {
        if self.ring.is_empty() {
            return None;
        }
        let start = self
            .ring
            .partition_point(|&(position, _)| position < digest);
        for step in 0..self.ring.len() {
            let (_, backend) = self.ring[(start + step) % self.ring.len()];
            if eligible(backend) {
                return Some(backend);
            }
        }
        None
    }
}

/// SplitMix64 finalizer: a deterministic, well-distributed 64-bit mix
/// with no process-dependent state (the ring must be identical in every
/// coordinator over the same fleet).
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// One backend of the fleet.
#[derive(Debug)]
struct Backend {
    /// The address subrequests are forwarded to (and control connections
    /// dialled at).
    addr: String,
    /// The write half of the long-lived data connection; `None` once the
    /// backend died (or always, in a detached test coordinator).
    conn: Mutex<Option<TcpStream>>,
    /// Cleared when the data connection drops or a write fails.
    alive: AtomicBool,
}

/// Routing state for one client request: everything a backend reply (or
/// a death sweep) needs to push results back to the request's drainer.
#[derive(Debug)]
struct RequestRoute {
    /// The original client request (re-dispatch rebuilds subrequest lines
    /// from its source / iterations / priority).
    request: SweepRequest,
    /// The structural content hash placement digests are built from.
    hash: TraceHash,
    /// Each point's one settling event, to the request's drainer thread.
    tx: mpsc::Sender<SweepEvent>,
    /// Set by client `cancel`, deadline expiry and dead-client cleanup;
    /// once set, reclaimed points settle as dropped instead of
    /// re-dispatching.
    cancelled: AtomicBool,
}

/// One dispatched, unsettled point.
#[derive(Debug)]
struct PendingPoint {
    route: Arc<RequestRoute>,
    /// Index in the client request's canonical grid order (its machine,
    /// window and MD come from the route's request).
    index: usize,
    /// The backend currently responsible for the point.
    backend: usize,
    /// When the current dispatch was written (watchdog timeout base).
    dispatched: Instant,
    /// The cycles of the backend's `point` line; the point settles with
    /// them when the closing `done` (with its `cached` flag) arrives.
    cycles: Option<Cycle>,
    /// A `point … failed:` error message the backend sent ahead of its
    /// `done failed=1` line.
    failure: Option<String>,
    /// A backend to avoid on the next dispatch (the one that just timed
    /// out), unless it is the only survivor.
    avoid: Option<usize>,
}

/// Shared coordinator state: the fleet, the ring, and the subrequest
/// routing map (keyed by coordinator-issued `x<n>` subrequest ids).
#[derive(Debug)]
struct CoordInner {
    backends: Vec<Backend>,
    partitioner: Partitioner,
    /// subrequest id → unsettled point.  The single routing authority:
    /// whoever removes an entry (reply handler, death sweep, watchdog,
    /// failed dispatch) owns its settlement, so a point cannot settle
    /// twice.
    pending: Mutex<HashMap<String, PendingPoint>>,
    /// `(source key, iterations)` → content hash, so placement lowers a
    /// program once while it stays in this [`PLACEMENT_BUDGET`]-bounded
    /// table.
    hashes: Mutex<ProgramTable<TraceHash>>,
    next_subid: AtomicU64,
    shutting_down: AtomicBool,
    retry_timeout: Duration,
    // Monotone counters, reported by `stats`.
    forwarded_points: AtomicU64,
    redispatched_points: AtomicU64,
    backend_deaths: AtomicU64,
    backend_reply_errors: AtomicU64,
    /// Watchdog re-dispatches of points that sat too long on one backend.
    coordinator_timeouts: AtomicU64,
    /// Client requests whose `deadline_ms` expired here.
    timeout_requests: AtomicU64,
}

/// A shard coordinator over N `dae-serve` backends.  See the module docs
/// for the protocol and fault model; as a [`SweepBackend`] it is served
/// by the same front ends as a single server ([`crate::serve_connection`],
/// [`crate::serve_tcp`], `serve_unix`).
#[derive(Debug)]
pub struct Coordinator {
    inner: Arc<CoordInner>,
}

impl Coordinator {
    /// Connects to every backend address (long-lived data connection plus
    /// a reply-reader thread each) and starts the retry watchdog.
    ///
    /// # Errors
    ///
    /// Fails fast when `addrs` is empty or any backend is unreachable —
    /// a coordinator that starts degraded would silently serve a
    /// differently-partitioned fleet.
    pub fn connect(addrs: &[String]) -> io::Result<Coordinator> {
        Coordinator::connect_with(addrs, DEFAULT_RETRY_TIMEOUT)
    }

    /// [`Coordinator::connect`] reclaiming points that sit unsettled on one
    /// backend longer than `retry_timeout`.
    ///
    /// # Errors
    ///
    /// See [`Coordinator::connect`].
    pub fn connect_with(addrs: &[String], retry_timeout: Duration) -> io::Result<Coordinator> {
        if addrs.is_empty() {
            return Err(io::Error::other("a coordinator needs at least one backend"));
        }
        let mut backends = Vec::with_capacity(addrs.len());
        let mut read_halves = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let stream = TcpStream::connect(addr)
                .map_err(|e| io::Error::other(format!("cannot connect to backend {addr}: {e}")))?;
            read_halves.push(stream.try_clone()?);
            backends.push(Backend {
                addr: addr.clone(),
                conn: Mutex::new(Some(stream)),
                alive: AtomicBool::new(true),
            });
        }
        let inner = CoordInner::new(backends, retry_timeout);
        for (index, read_half) in read_halves.into_iter().enumerate() {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || {
                reader_loop(&inner, index, read_half);
            });
        }
        let watchdog = Arc::downgrade(&inner);
        std::thread::spawn(move || {
            watchdog_loop(&watchdog);
        });
        Ok(Coordinator { inner })
    }

    /// A coordinator with `backends` nominal, *unconnected* backends: no
    /// sockets, no reader threads, no watchdog.  The reply parse path
    /// ([`Coordinator::handle_backend_reply`]) is fully exercisable this
    /// way, which is what the protocol fuzz suite does.
    #[must_use]
    pub fn detached(backends: usize) -> Coordinator {
        let backends = (0..backends)
            .map(|index| Backend {
                addr: format!("detached-{index}"),
                conn: Mutex::new(None),
                alive: AtomicBool::new(true),
            })
            .collect::<Vec<_>>();
        Coordinator {
            inner: CoordInner::new(backends, DEFAULT_RETRY_TIMEOUT),
        }
    }

    /// Feeds one backend reply line through the coordinator's parse and
    /// routing path — the entry point the reader threads use, public so
    /// the fuzz suite can drive it with malformed input.  Never panics:
    /// unparsable lines bump a counter, and parsable lines for unknown
    /// subrequest ids are ignored (they are the expected residue of
    /// re-dispatched or cancelled points).
    pub fn handle_backend_reply(&self, line: &str) {
        self.inner.handle_backend_reply(line);
    }

    /// Points dispatched to backends and not yet settled.
    #[must_use]
    pub fn pending_points(&self) -> usize {
        self.inner.lock_pending().len()
    }
}

/// The fleet backend: each grid point is forwarded to the backend owning
/// its sweep-cache key, and the replies settle through the routing map.
impl SweepBackend for Coordinator {
    type Client<'a> = ();

    fn register(&self) {}

    fn submit_sweep<'a>(
        &'a self,
        request: &SweepRequest,
        _client: &(),
    ) -> Result<Box<dyn SweepEvents + 'a>, SubmitError> {
        let hash = self
            .inner
            .resolve_hash(&request.source, request.iterations)
            .map_err(SubmitError::Rejected)?;
        let (tx, rx) = mpsc::channel();
        let route = Arc::new(RequestRoute {
            request: request.clone(),
            hash,
            tx,
            cancelled: AtomicBool::new(false),
        });
        for index in 0..request.grid().len() {
            self.inner.dispatch(PendingPoint {
                route: Arc::clone(&route),
                index,
                backend: 0,
                dispatched: Instant::now(),
                cycles: None,
                failure: None,
                avoid: None,
            });
        }
        Ok(Box::new(RouteEvents {
            inner: Arc::clone(&self.inner),
            settled: 0,
            route,
            rx,
        }))
    }

    /// The aggregated `stats` reply: the coordinator's own counters
    /// (fleet size and health, forwarding and retry traffic) followed by
    /// the per-name *sums* of every live backend's counters (their
    /// per-connection `client_<id>=` fields are dropped — backend-local
    /// connection ids mean nothing fleet-wide).
    fn stats_fields(&self) -> Vec<(String, u64)> {
        let inner = &self.inner;
        let alive = inner
            .backends
            .iter()
            .filter(|b| b.alive.load(Ordering::Acquire))
            .count();
        let count = |name: &str, n: &AtomicU64| (name.to_string(), n.load(Ordering::Relaxed));
        let mut fields = vec![
            ("backends_total".to_string(), inner.backends.len() as u64),
            ("backends_alive".to_string(), alive as u64),
            count("forwarded_points", &inner.forwarded_points),
            count("redispatched_points", &inner.redispatched_points),
            count("backend_deaths", &inner.backend_deaths),
            count("backend_reply_errors", &inner.backend_reply_errors),
            count("coordinator_timeouts", &inner.coordinator_timeouts),
            (
                "coordinator_pending".to_string(),
                self.pending_points() as u64,
            ),
        ];
        // Deadlines act here, not on the backends (subrequests carry none),
        // so the coordinator's expiries seed the fleet's `timeout_requests`.
        let mut sums = vec![count("timeout_requests", &inner.timeout_requests)];
        for backend in &inner.backends {
            if !backend.alive.load(Ordering::Acquire) {
                continue;
            }
            let Some(reply) = control_roundtrip(&backend.addr, "stats") else {
                continue;
            };
            if let Ok(Response::Stats { fields }) = parse_response(&reply) {
                for (name, value) in fields {
                    if name.starts_with("client_") {
                        continue;
                    }
                    match sums.iter_mut().find(|(n, _)| *n == name) {
                        Some((_, sum)) => *sum += value,
                        None => sums.push((name, value)),
                    }
                }
            }
        }
        fields.extend(sums);
        fields
    }

    /// Fans a `cache` action out to every live backend and merges the
    /// acknowledgements: `entries` is summed across the fleet, `limit` is
    /// the (shared, since the action reached every backend) reported
    /// bound.  An error response when no backend answered.
    fn cache_action(&self, action: CacheAction) -> Response {
        let line = match action {
            CacheAction::Clear => "cache clear".to_string(),
            CacheAction::Limit(Some(n)) => format!("cache limit={n}"),
            CacheAction::Limit(None) => "cache limit=none".to_string(),
        };
        let mut entries = 0usize;
        let mut limit = None;
        let mut answered = false;
        for backend in &self.inner.backends {
            if !backend.alive.load(Ordering::Acquire) {
                continue;
            }
            let Some(reply) = control_roundtrip(&backend.addr, &line) else {
                continue;
            };
            if let Ok(Response::Cache {
                entries: backend_entries,
                limit: backend_limit,
            }) = parse_response(&reply)
            {
                entries += backend_entries;
                limit = backend_limit;
                answered = true;
            }
        }
        if answered {
            Response::Cache { entries, limit }
        } else {
            Response::Error {
                id: None,
                message: "no backend answered the cache action".to_string(),
            }
        }
    }

    /// Stops admitting sweeps and forwards the shutdown to every backend
    /// over ephemeral control connections (drain lets their in-flight
    /// subrequests finish; abort cancels them — either way their `done`
    /// lines settle this side's accounting).
    fn shutdown(&self, mode: ShutdownMode) {
        self.inner.shutting_down.store(true, Ordering::Release);
        let line = format!("shutdown mode={mode}");
        for backend in &self.inner.backends {
            let _ = control_roundtrip(&backend.addr, &line);
        }
    }

    fn is_shutting_down(&self) -> bool {
        self.inner.is_shutting_down()
    }

    fn in_flight(&self) -> usize {
        self.pending_points()
    }

    fn note_timeout(&self) {
        self.inner.timeout_requests.fetch_add(1, Ordering::Relaxed);
    }
}

/// One coordinated request's settlement channel, as the shared drainer
/// sees it: one event per point, exhausted once every point has settled.
struct RouteEvents {
    inner: Arc<CoordInner>,
    route: Arc<RequestRoute>,
    rx: mpsc::Receiver<SweepEvent>,
    /// Events (settlements) received so far.
    settled: usize,
}

impl SweepEvents for RouteEvents {
    fn next_event(&mut self, deadline: Option<Instant>) -> StreamWait {
        if self.settled == self.route.request.grid().len() {
            return StreamWait::Exhausted;
        }
        let received = match deadline {
            Some(at) => self
                .rx
                .recv_timeout(at.saturating_duration_since(Instant::now())),
            None => self.rx.recv().map_err(RecvTimeoutError::from),
        };
        match received {
            Ok(event) => {
                self.settled += 1;
                StreamWait::Event(event)
            }
            Err(RecvTimeoutError::Timeout) => StreamWait::TimedOut,
            Err(RecvTimeoutError::Disconnected) => StreamWait::Exhausted,
        }
    }

    fn canceller(&self) -> Canceller {
        let inner = Arc::clone(&self.inner);
        let route = Arc::clone(&self.route);
        Arc::new(move || inner.cancel_route(&route))
    }
}

impl CoordInner {
    /// Fresh state over `backends`: an empty routing map, zeroed counters.
    fn new(backends: Vec<Backend>, retry_timeout: Duration) -> Arc<CoordInner> {
        Arc::new(CoordInner {
            partitioner: Partitioner::new(backends.len()),
            backends,
            pending: Mutex::new(HashMap::new()),
            hashes: Mutex::new(ProgramTable::new(PLACEMENT_BUDGET)),
            next_subid: AtomicU64::new(1),
            shutting_down: AtomicBool::new(false),
            retry_timeout,
            forwarded_points: AtomicU64::new(0),
            redispatched_points: AtomicU64::new(0),
            backend_deaths: AtomicU64::new(0),
            backend_reply_errors: AtomicU64::new(0),
            coordinator_timeouts: AtomicU64::new(0),
            timeout_requests: AtomicU64::new(0),
        })
    }

    /// The routing map, recovering from poisoning (every mutation under
    /// it is transactional: whole-entry inserts and removes).
    fn lock_pending(&self) -> MutexGuard<'_, HashMap<String, PendingPoint>> {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The placement-hash cache, recovering from poisoning.
    fn lock_hashes(&self) -> MutexGuard<'_, ProgramTable<TraceHash>> {
        self.hashes.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Acquire)
    }

    /// The content hash of `(source, iterations)`, lowering on first
    /// sight (or after eviction).  Lowering is pure and can take
    /// milliseconds, so it runs outside the lock; a racing duplicate
    /// insert is harmless (equal keys hash equal).
    fn resolve_hash(&self, source: &TraceSource, iterations: u64) -> Result<TraceHash, String> {
        let key = (source.key(), iterations);
        if let Some(hash) = self.lock_hashes().get(&key) {
            return Ok(hash);
        }
        let trace = source.trace(iterations)?;
        let hash = dae_core::LoweredTrace::new(&trace).content_hash();
        self.lock_hashes().insert(key, hash, 1);
        Ok(hash)
    }

    /// Writes one protocol line on a backend's data connection, line and
    /// newline in one `write` (a separate newline would wait out the
    /// backend's delayed ACK under Nagle).  `false` means the backend is
    /// unreachable (the connection is torn down so later writers fail
    /// fast; the caller escalates to `mark_dead`).
    fn write_backend(&self, backend: usize, line: &str) -> bool {
        let Some(slot) = self.backends.get(backend) else {
            return false;
        };
        let mut conn = slot.conn.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(stream) = conn.as_mut() else {
            return false;
        };
        let ok = stream
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| stream.flush())
            .is_ok();
        if !ok {
            *conn = None;
        }
        ok
    }

    /// Dispatches (or re-dispatches) one point: picks a live backend by
    /// the point's cache-key digest, registers the subrequest in the
    /// routing map, and writes the single-point sweep line.  Falls back
    /// across backends on write failure; settles the point as dropped
    /// under cancellation/shutdown and as failed when no backend
    /// survives.
    fn dispatch(&self, mut point: PendingPoint) {
        loop {
            if point.route.cancelled.load(Ordering::Acquire) || self.is_shutting_down() {
                let _ = point
                    .route
                    .tx
                    .send(SweepEvent::Skipped { index: point.index });
                return;
            }
            let (machine, window, md) = point.route.request.coordinate(point.index);
            let digest = cache_key_digest(point.route.hash, machine, window, md);
            let avoid = point.avoid.take();
            let eligible = |b: usize| {
                self.backends
                    .get(b)
                    .is_some_and(|backend| backend.alive.load(Ordering::Acquire))
            };
            let choice = match avoid {
                Some(avoided) => self
                    .partitioner
                    .assign_among(digest, |b| b != avoided && eligible(b))
                    .or_else(|| self.partitioner.assign_among(digest, eligible)),
                None => self.partitioner.assign_among(digest, eligible),
            };
            let Some(backend) = choice else {
                let _ = point.route.tx.send(SweepEvent::Failed {
                    index: point.index,
                    message: "no backends available".to_string(),
                });
                return;
            };
            let subid = format!("x{}", self.next_subid.fetch_add(1, Ordering::Relaxed));
            let line = subrequest_line(&point, &subid);
            point.backend = backend;
            point.dispatched = Instant::now();
            point.failure = None;
            {
                let mut pending = self.lock_pending();
                pending.insert(subid.clone(), point);
            }
            if self.write_backend(backend, &line) {
                self.forwarded_points.fetch_add(1, Ordering::Relaxed);
                return;
            }
            // The write failed: reclaim the entry (unless the death sweep
            // raced us to it and already re-dispatched) and try another
            // backend.
            let reclaimed = {
                let mut pending = self.lock_pending();
                pending.remove(&subid)
            };
            self.mark_dead(backend);
            match reclaimed {
                Some(p) => point = p,
                None => return,
            }
        }
    }

    /// Re-dispatches a reclaimed point to a surviving backend.
    fn redispatch(&self, point: PendingPoint) {
        self.redispatched_points.fetch_add(1, Ordering::Relaxed);
        self.dispatch(point);
    }

    /// Settles or re-dispatches a point taken off a dead or slow backend:
    /// with its cycles already reported it is delivered, uncached (only
    /// the backend's `done` was lost); under cancellation it is dropped;
    /// otherwise it is re-dispatched, away from `avoid` when another
    /// backend survives.
    fn reclaim(&self, mut point: PendingPoint, avoid: Option<usize>) {
        let index = point.index;
        if let Some(cycles) = point.cycles {
            let _ = point.route.tx.send(SweepEvent::Point(StreamedPoint {
                index,
                cycles,
                cached: false,
            }));
        } else if point.route.cancelled.load(Ordering::Acquire) {
            let _ = point.route.tx.send(SweepEvent::Skipped { index });
        } else {
            point.avoid = avoid;
            self.redispatch(point);
        }
    }

    /// Declares a backend dead: tears down its connection, then reclaims
    /// every point routed to it.
    fn mark_dead(&self, backend: usize) {
        let Some(slot) = self.backends.get(backend) else {
            return;
        };
        let was_alive = slot.alive.swap(false, Ordering::AcqRel);
        {
            let mut conn = slot.conn.lock().unwrap_or_else(PoisonError::into_inner);
            *conn = None;
        }
        if !was_alive {
            return;
        }
        self.backend_deaths.fetch_add(1, Ordering::Relaxed);
        let swept: Vec<PendingPoint> = {
            let mut pending = self.lock_pending();
            let subids: Vec<String> = pending
                .iter()
                .filter(|(_, p)| p.backend == backend)
                .map(|(subid, _)| subid.clone())
                .collect();
            subids
                .iter()
                .filter_map(|subid| pending.remove(subid))
                .collect()
        };
        for point in swept {
            self.reclaim(point, None);
        }
    }

    /// Routes one backend reply line (see
    /// [`Coordinator::handle_backend_reply`]).
    fn handle_backend_reply(&self, line: &str) {
        if line.trim().is_empty() {
            return;
        }
        match parse_response(line) {
            Err(_) => {
                self.backend_reply_errors.fetch_add(1, Ordering::Relaxed);
            }
            Ok(Response::Point { id, cycles, .. }) => self.note_point(&id, cycles),
            Ok(Response::Done {
                id,
                aborted,
                failed,
                cached,
                ..
            }) => self.settle_done(&id, aborted, failed, cached),
            Ok(Response::Error {
                id: Some(id),
                message,
            }) => self.note_failure(&id, message),
            Ok(Response::Busy { id, .. }) => self.requeue_busy(&id),
            // Cancel acknowledgements, un-attributed errors and control
            // replies that strayed onto the data connection carry no
            // routing information.
            Ok(_) => {}
        }
    }

    /// A backend `point` line: record its cycles for the settlement the
    /// subrequest's `done` makes.
    fn note_point(&self, subid: &str, cycles: Cycle) {
        let mut pending = self.lock_pending();
        if let Some(point) = pending.get_mut(subid) {
            point.cycles = Some(cycles);
        }
    }

    /// A backend `error id=…` line ahead of a failing subrequest's
    /// `done`: remember the message for the settlement.
    fn note_failure(&self, subid: &str, message: String) {
        let mut pending = self.lock_pending();
        if let Some(point) = pending.get_mut(subid) {
            point.failure = Some(message);
        }
    }

    /// A backend `busy` rejection: the subrequest was never queued there;
    /// re-dispatch it (the ring walk naturally lands on the same backend
    /// once its queue drains, or elsewhere if it died meanwhile).
    fn requeue_busy(&self, subid: &str) {
        let reclaimed = {
            let mut pending = self.lock_pending();
            pending.remove(subid)
        };
        if let Some(point) = reclaimed {
            self.redispatch(point);
        }
    }

    /// A subrequest's closing `done` line: settle its point, with the
    /// cycles its `point` line reported when there was one.  Unfinished
    /// uncancelled points (a backend shutdown-abort, or a `done` whose
    /// `point` line was lost) are re-dispatched rather than dropped.
    fn settle_done(&self, subid: &str, aborted: usize, failed: usize, cached: u64) {
        let reclaimed = {
            let mut pending = self.lock_pending();
            pending.remove(subid)
        };
        let Some(mut point) = reclaimed else {
            return;
        };
        let index = point.index;
        if let Some(cycles) = point.cycles {
            let _ = point.route.tx.send(SweepEvent::Point(StreamedPoint {
                index,
                cycles,
                cached: cached > 0,
            }));
        } else if failed > 0 {
            let message = point
                .failure
                .take()
                .map(|m| strip_point_prefix(&m))
                .unwrap_or_else(|| "backend simulation failed".to_string());
            let _ = point.route.tx.send(SweepEvent::Failed { index, message });
        } else if point.route.cancelled.load(Ordering::Acquire) {
            let event = if aborted > 0 {
                SweepEvent::Aborted { index }
            } else {
                SweepEvent::Skipped { index }
            };
            let _ = point.route.tx.send(event);
        } else {
            // Dropped or aborted without our cancel (backend-side abort),
            // or delivered by the backend without a parsable point line:
            // the client still needs the point — re-dispatch.
            self.redispatch(point);
        }
    }

    /// Cancels one request: flags the route, then forwards a `cancel` for
    /// every in-flight subrequest so backends drop or abort their points
    /// (their `done` lines settle the accounting).
    fn cancel_route(&self, route: &Arc<RequestRoute>) {
        route.cancelled.store(true, Ordering::Release);
        let targets: Vec<(usize, String)> = {
            let pending = self.lock_pending();
            pending
                .iter()
                .filter(|(_, p)| Arc::ptr_eq(&p.route, route))
                .map(|(subid, p)| (p.backend, subid.clone()))
                .collect()
        };
        for (backend, subid) in targets {
            if !self.write_backend(backend, &format!("cancel id={subid}")) {
                self.mark_dead(backend);
            }
        }
    }

    /// One watchdog pass: reclaim points older than the retry timeout,
    /// re-dispatching unfinished ones away from their slow backend.
    fn scan_timeouts(&self) {
        let expired: Vec<PendingPoint> = {
            let mut pending = self.lock_pending();
            let subids: Vec<String> = pending
                .iter()
                .filter(|(_, p)| p.dispatched.elapsed() >= self.retry_timeout)
                .map(|(subid, _)| subid.clone())
                .collect();
            subids
                .iter()
                .filter_map(|subid| pending.remove(subid))
                .collect()
        };
        for point in expired {
            self.coordinator_timeouts.fetch_add(1, Ordering::Relaxed);
            let slow = point.backend;
            self.reclaim(point, Some(slow));
        }
    }
}

/// The canonical single-point subrequest line for a dispatch: the
/// original request's source, iterations and priority with a
/// one-machine × one-window × one-MD grid under the coordinator-issued
/// subid.  Mode is always `stream` (one point has no ordering to batch)
/// and the client deadline is *not* forwarded — deadlines act at the
/// coordinator, where the whole grid is visible.
fn subrequest_line(point: &PendingPoint, subid: &str) -> String {
    let request = &point.route.request;
    let (machine, window, md) = request.coordinate(point.index);
    SweepRequest {
        id: subid.to_string(),
        source: request.source.clone(),
        iterations: request.iterations,
        machines: vec![machine],
        windows: vec![window],
        mds: vec![md],
        mode: DeliveryMode::Stream,
        deadline_ms: None,
        priority: request.priority,
    }
    .to_string()
}

/// Strips the backend's `point 0 failed: ` framing from a forwarded
/// failure message (the coordinator re-frames it with the client-side
/// point index).
fn strip_point_prefix(message: &str) -> String {
    match message.split_once(" failed: ") {
        Some((head, tail)) if head.starts_with("point ") => tail.to_string(),
        _ => message.to_string(),
    }
}

/// Reads one backend's replies until the connection drops, then declares
/// the backend dead (sweeping its points to the survivors).
fn reader_loop(inner: &Arc<CoordInner>, backend: usize, read_half: TcpStream) {
    let reader = BufReader::new(read_half);
    for line in reader.lines() {
        let Ok(line) = line else {
            break;
        };
        inner.handle_backend_reply(&line);
    }
    inner.mark_dead(backend);
}

/// The retry watchdog: scans for timed-out dispatches until the
/// coordinator is dropped.
fn watchdog_loop(inner: &Weak<CoordInner>) {
    loop {
        std::thread::sleep(WATCHDOG_POLL);
        let Some(inner) = inner.upgrade() else {
            return;
        };
        inner.scan_timeouts();
    }
}

/// One control-verb round trip on an ephemeral connection: dial, send
/// `line`, read one reply line.  `None` on any connection, write, read
/// or timeout failure — control verbs degrade per backend, they do not
/// wedge the coordinator.
fn control_roundtrip(addr: &str, line: &str) -> Option<String> {
    let stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(CONTROL_TIMEOUT)).ok()?;
    let mut write_half = stream.try_clone().ok()?;
    write_half.write_all(format!("{line}\n").as_bytes()).ok()?;
    write_half.flush().ok()?;
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).ok()?;
    let reply = reply.trim_end_matches(['\n', '\r']).to_string();
    if reply.is_empty() {
        None
    } else {
        Some(reply)
    }
}
