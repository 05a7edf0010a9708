//! The shard coordinator: one wire-protocol front end over N `dae-serve`
//! backends.
//!
//! `dae-serve --coordinator backend1,backend2,…` speaks the *same*
//! newline-delimited protocol as a single server (`docs/PROTOCOL.md`) but
//! owns no session of its own: each accepted grid is split into one
//! *slice* per memory differential — its `machines × windows × {md}`
//! subgrid, itself a valid `sweep` line — each slice is placed on a
//! backend by consistent hashing over its request text
//! ([`SweepRequest::placement_digest`] — trace source, iterations, MD),
//! and the request-tagged replies are merged back into one client
//! response.  Placement by the request text is the load-bearing choice: a
//! repeated grid re-lands every repeated slice on the backend whose
//! result cache already holds it, so a sharded deployment keeps the
//! single-server warm-cache behaviour per shard, and the coordinator
//! never lowers a trace.
//!
//! ## Fault model
//!
//! A slice's points are forwarded to the client when its subrequest's
//! `done` line arrives: the backend's `point` lines only record the
//! cycles, and the `done` line settles the points with them and its
//! `cached` count.  A backend that dies (its data connection drops), goes
//! silent on a slice for the retry timeout, or answers `busy` has its
//! slice reclaimed: points whose cycles it already reported settle as
//! delivered, uncached, and the whole slice is resent to the next ring
//! owner, which relays only the points still unsettled.  A point settles
//! only through its slice's `settled` bitmap, so it settles exactly once
//! — delivered, dropped, aborted or failed — and the client's `done` line
//! keeps the protocol invariant
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
    parse_response, CacheAction, DeliveryMode, Response, ShutdownMode, SweepRequest,
};
use crate::server::SubmitError;
use dae_core::{StreamWait, StreamedPoint, SweepEvent};
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

/// How long a backend may go without a reply on a dispatched, unsettled
/// slice before the watchdog reclaims it.  Deliberately generous: death
/// detection (the dropped connection) is the fast path, and a false
/// timeout only costs a redundant deterministic simulation (or a finished
/// point's `cached` flag).
const DEFAULT_RETRY_TIMEOUT: Duration = Duration::from_secs(30);

/// Watchdog scan period.
const WATCHDOG_POLL: Duration = Duration::from_millis(100);

/// Read timeout on ephemeral control connections (`stats` / `cache` /
/// `shutdown` fan-out), so a wedged backend cannot hang a control verb.
const CONTROL_TIMEOUT: Duration = Duration::from_secs(5);

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
    /// The original client request (each slice's subrequest line is cut
    /// from its source / iterations / grid / priority).
    request: SweepRequest,
    /// Each point's one settling event, to the request's drainer thread.
    tx: mpsc::Sender<SweepEvent>,
    /// Set by client `cancel`, deadline expiry and dead-client cleanup;
    /// once set, reclaimed points settle as dropped instead of
    /// re-dispatching.
    cancelled: AtomicBool,
}

/// One dispatched slice with unsettled points: the `machines × windows`
/// subgrid of a client request at one of its MDs.  Slice-local index `j`
/// is client index `j * mds + md_index`.
#[derive(Debug)]
struct PendingSlice {
    route: Arc<RequestRoute>,
    /// The slice's position in the request's `mds`.
    md_index: usize,
    /// The backend currently responsible for the slice.
    backend: usize,
    /// When the current backend last showed progress on the slice — its
    /// dispatch or its latest reply (the watchdog's timeout base).
    progress: Instant,
    /// Per point, what the current backend reported ahead of its `done`:
    /// the cycles of its `point` line, or the message of its `point …
    /// failed:` error line.
    replies: Vec<Option<Result<Cycle, String>>>,
    /// Per point, whether it has settled towards the client.  Kept across
    /// re-dispatches, and the only way a point settles.
    settled: Vec<bool>,
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
    /// subrequest id → slice with unsettled points.  The single routing
    /// authority: whoever removes an entry (reply handler, death sweep,
    /// watchdog, failed dispatch) owns its settlement.
    pending: Mutex<HashMap<String, PendingSlice>>,
    next_subid: AtomicU64,
    shutting_down: AtomicBool,
    retry_timeout: Duration,
    // Monotone counters, reported by `stats`.
    forwarded_points: AtomicU64,
    redispatched_points: AtomicU64,
    backend_deaths: AtomicU64,
    backend_reply_errors: AtomicU64,
    /// Unsettled points whose slice went silent on one backend for the
    /// retry timeout and was reclaimed by the watchdog.
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

    /// [`Coordinator::connect`] reclaiming slices whose backend sends no
    /// reply on them for `retry_timeout`.
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
    /// unparsable lines and point indices outside their slice bump a
    /// counter, and parsable lines for unknown subrequest ids are ignored
    /// (they are the expected residue of re-dispatched or cancelled
    /// slices).
    pub fn handle_backend_reply(&self, line: &str) {
        self.inner.handle_backend_reply(line);
    }

    /// Points dispatched to backends and not yet settled.
    #[must_use]
    pub fn pending_points(&self) -> usize {
        self.inner
            .lock_pending()
            .values()
            .map(PendingSlice::unsettled)
            .sum()
    }
}

/// The fleet backend: each slice of a grid is forwarded to the backend
/// owning its placement digest, and the replies settle through the
/// routing map.
impl SweepBackend for Coordinator {
    type Client<'a> = ();

    fn register(&self) {}

    fn submit_sweep<'a>(
        &'a self,
        request: &SweepRequest,
        _client: &(),
    ) -> Result<Box<dyn SweepEvents + 'a>, SubmitError> {
        let (tx, rx) = mpsc::channel();
        let route = Arc::new(RequestRoute {
            request: request.clone(),
            tx,
            cancelled: AtomicBool::new(false),
        });
        let points = request.machines.len() * request.windows.len();
        for md_index in 0..request.mds.len() {
            self.inner.dispatch(PendingSlice {
                route: Arc::clone(&route),
                md_index,
                backend: 0,
                progress: Instant::now(),
                replies: vec![None; points],
                settled: vec![false; points],
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
    /// over control connections.  Drain mode waits for the dispatched
    /// slices to settle first (a stopping backend refuses slice lines it
    /// has not read yet); in abort mode their `done` lines settle them.
    fn shutdown(&self, mode: ShutdownMode) {
        self.inner.shutting_down.store(true, Ordering::Release);
        while mode == ShutdownMode::Drain && self.pending_points() > 0 {
            std::thread::sleep(WATCHDOG_POLL);
        }
        let line = format!("shutdown mode={mode}");
        for backend in &self.inner.backends {
            let _ = control_roundtrip(&backend.addr, &line);
        }
    }

    fn is_shutting_down(&self) -> bool {
        self.inner.shutting_down.load(Ordering::Acquire)
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
    fn lock_pending(&self) -> MutexGuard<'_, HashMap<String, PendingSlice>> {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner)
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

    /// Dispatches (or re-dispatches) one slice: picks a live backend by
    /// the slice's placement digest, registers the subrequest in the
    /// routing map, and writes the slice's sweep line.  Falls back across
    /// backends on write failure; settles the unsettled points as dropped
    /// under cancellation/shutdown and as failed when no backend survives.
    fn dispatch(&self, mut slice: PendingSlice) {
        let route = Arc::clone(&slice.route);
        let md = route.request.mds[slice.md_index];
        let digest = route.request.placement_digest(md);
        loop {
            if route.cancelled.load(Ordering::Acquire) || self.shutting_down.load(Ordering::Acquire)
            {
                slice.settle_all(|index| SweepEvent::Skipped { index });
                return;
            }
            let avoid = slice.avoid.take();
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
                slice.settle_all(|index| SweepEvent::Failed {
                    index,
                    message: "no backends available".to_string(),
                });
                return;
            };
            let subid = format!("x{}", self.next_subid.fetch_add(1, Ordering::Relaxed));
            let line = slice_line(&route.request, md, &subid);
            let points = slice.unsettled() as u64;
            slice.backend = backend;
            slice.progress = Instant::now();
            slice.replies.fill(None);
            self.lock_pending().insert(subid.clone(), slice);
            if self.write_backend(backend, &line) {
                self.forwarded_points.fetch_add(points, Ordering::Relaxed);
                return;
            }
            // The write failed: reclaim the entry (unless the death sweep
            // raced us to it and already re-dispatched) and try another
            // backend.
            let reclaimed = self.lock_pending().remove(&subid);
            self.mark_dead(backend);
            match reclaimed {
                Some(s) => slice = s,
                None => return,
            }
        }
    }

    /// Takes a slice off a dead, slow or `busy` backend: points with
    /// reported cycles settle as delivered, uncached (only the backend's
    /// `done` was lost), and the rest go to [`CoordInner::settle_rest`].
    fn reclaim(&self, mut slice: PendingSlice, avoid: Option<usize>) {
        slice.deliver_reported(0);
        self.settle_rest(slice, 0, avoid);
    }

    /// Settles or resends what a backend left unsettled of a slice.  Under
    /// cancellation the first `aborted` points settle as aborted and the
    /// rest as dropped.  Otherwise the client still needs them — a
    /// backend-side abort, a lost `point` line, a death or a timeout — so
    /// the whole slice is resent to the ring owner, away from `avoid` when
    /// another backend survives.
    fn settle_rest(&self, mut slice: PendingSlice, mut aborted: usize, avoid: Option<usize>) {
        if slice.route.cancelled.load(Ordering::Acquire) {
            for j in 0..slice.settled.len() {
                let abort = aborted > 0;
                let event = |index| match abort {
                    true => SweepEvent::Aborted { index },
                    false => SweepEvent::Skipped { index },
                };
                if slice.settle(j, event) && abort {
                    aborted -= 1;
                }
            }
        } else if slice.unsettled() > 0 {
            self.redispatched_points
                .fetch_add(slice.unsettled() as u64, Ordering::Relaxed);
            slice.avoid = avoid;
            self.dispatch(slice);
        }
    }

    /// Removes every pending slice `matches` selects, with its subrequest id.
    fn take_pending(&self, matches: impl Fn(&PendingSlice) -> bool) -> Vec<(String, PendingSlice)> {
        self.lock_pending()
            .extract_if(|_, slice| matches(slice))
            .collect()
    }

    /// Declares a backend dead: tears down its connection, then reclaims
    /// every slice routed to it.
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
        for (_, slice) in self.take_pending(|slice| slice.backend == backend) {
            self.reclaim(slice, None);
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
            Ok(Response::Point {
                id, index, cycles, ..
            }) => self.note_reply(&id, index, Ok(cycles)),
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
            }) => {
                if let Some((index, message)) = point_failure(&message) {
                    self.note_reply(&id, index, Err(message));
                }
            }
            // Never queued there: resend the slice (the ring walk lands on
            // the same backend once its queue drains, or elsewhere if it
            // died meanwhile).
            Ok(Response::Busy { id, .. }) => {
                let reclaimed = self.lock_pending().remove(&id);
                if let Some(slice) = reclaimed {
                    self.reclaim(slice, None);
                }
            }
            // Cancel acknowledgements, errors that name no point (the
            // `done` counts settle those) and control replies that strayed
            // onto the data connection carry no routing information.
            Ok(_) => {}
        }
    }

    /// Records what a backend reported for point `index` of a slice
    /// ahead of its `done`: the cycles of a `point` line, or the message
    /// of a `point <index> failed:` error; it restarts the slice's
    /// watchdog clock.  An index outside the slice is a reply error.
    fn note_reply(&self, subid: &str, index: usize, reply: Result<Cycle, &str>) {
        let mut pending = self.lock_pending();
        let Some(slice) = pending.get_mut(subid) else {
            return;
        };
        let Some(slot) = slice.replies.get_mut(index) else {
            self.backend_reply_errors.fetch_add(1, Ordering::Relaxed);
            return;
        };
        *slot = Some(reply.map_err(str::to_string));
        slice.progress = Instant::now();
    }

    /// A subrequest's closing `done` line: settle its slice.  Points with
    /// reported cycles are delivered, the first `cached` as cache hits;
    /// `failed` of the rest fail, those the backend named in an `error`
    /// line first; what is left goes to [`CoordInner::settle_rest`].
    fn settle_done(&self, subid: &str, aborted: usize, mut failed: usize, cached: u64) {
        let Some(mut slice) = self.lock_pending().remove(subid) else {
            return;
        };
        slice.deliver_reported(cached);
        for j in 0..slice.replies.len() {
            let Some(Err(message)) = slice.replies[j].take() else {
                continue;
            };
            if failed > 0 && slice.settle(j, |index| SweepEvent::Failed { index, message }) {
                failed -= 1;
            }
        }
        for j in 0..slice.replies.len() {
            if failed == 0 {
                break;
            }
            let message = "backend simulation failed".to_string();
            if slice.settle(j, |index| SweepEvent::Failed { index, message }) {
                failed -= 1;
            }
        }
        self.settle_rest(slice, aborted, None);
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
                .filter(|(_, slice)| Arc::ptr_eq(&slice.route, route))
                .map(|(subid, slice)| (slice.backend, subid.clone()))
                .collect()
        };
        for (backend, subid) in targets {
            if !self.write_backend(backend, &format!("cancel id={subid}")) {
                self.mark_dead(backend);
            }
        }
    }

    /// One watchdog pass: reclaim each slice its backend has been silent
    /// on for the retry timeout, cancelling that backend's copy.
    fn scan_timeouts(&self) {
        let silent = |slice: &PendingSlice| slice.progress.elapsed() >= self.retry_timeout;
        for (subid, slice) in self.take_pending(silent) {
            self.coordinator_timeouts
                .fetch_add(slice.unsettled() as u64, Ordering::Relaxed);
            let slow = slice.backend;
            if !self.write_backend(slow, &format!("cancel id={subid}")) {
                self.mark_dead(slow);
            }
            self.reclaim(slice, Some(slow));
        }
    }
}

impl PendingSlice {
    /// Points not yet settled towards the client.
    fn unsettled(&self) -> usize {
        self.settled.iter().filter(|&&settled| !settled).count()
    }

    /// Settles point `j` with the event `event` builds from its client
    /// index — the one way a point reaches the client.  `false`, and
    /// nothing sent, when `j` already settled.
    fn settle(&mut self, j: usize, event: impl FnOnce(usize) -> SweepEvent) -> bool {
        let Some(settled) = self.settled.get_mut(j) else {
            return false;
        };
        if std::mem::replace(settled, true) {
            return false;
        }
        let index = j * self.route.request.mds.len() + self.md_index;
        let _ = self.route.tx.send(event(index));
        true
    }

    /// Settles every unsettled point with `event`.
    fn settle_all(&mut self, event: impl Fn(usize) -> SweepEvent) {
        for j in 0..self.settled.len() {
            self.settle(j, &event);
        }
    }

    /// Delivers every unsettled point whose cycles the backend reported,
    /// the first `cached` of them as cache hits.
    fn deliver_reported(&mut self, mut cached: u64) {
        for j in 0..self.replies.len() {
            let Some(Ok(cycles)) = self.replies[j] else {
                continue;
            };
            let hit = cached > 0;
            let point = |index| {
                SweepEvent::Point(StreamedPoint {
                    index,
                    cycles,
                    cached: hit,
                })
            };
            if self.settle(j, point) && hit {
                cached -= 1;
            }
        }
    }
}

/// The subrequest line of a slice: the original request's source,
/// iterations, machines, windows and priority at the one MD `md`, under
/// the coordinator-issued subid.  Mode is always `stream` (the slice
/// settles on its `done` either way) and the client deadline is *not*
/// forwarded — deadlines act at the coordinator, where the whole grid is
/// visible.
fn slice_line(request: &SweepRequest, md: Cycle, subid: &str) -> String {
    SweepRequest {
        id: subid.to_string(),
        source: request.source.clone(),
        iterations: request.iterations,
        machines: request.machines.clone(),
        windows: request.windows.clone(),
        mds: vec![md],
        mode: DeliveryMode::Stream,
        deadline_ms: None,
        priority: request.priority,
    }
    .to_string()
}

/// Splits a backend's `point <j> failed: <message>` error into the slice
/// index and the message (the coordinator re-frames the message with the
/// client-side index).
fn point_failure(message: &str) -> Option<(usize, &str)> {
    let (index, message) = message.strip_prefix("point ")?.split_once(" failed: ")?;
    Some((index.parse().ok()?, message))
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
