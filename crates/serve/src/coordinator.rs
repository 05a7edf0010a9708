//! The shard coordinator: one wire-protocol front end over N `dae-serve`
//! backends.
//!
//! `dae-serve --coordinator backend1,backend2,…` speaks the *same*
//! newline-delimited protocol as a single server (`docs/PROTOCOL.md`) but
//! owns no session of its own: each accepted grid is forwarded whole, as
//! one subrequest under a coordinator-issued `x<n>` id, to the backend
//! that owns it on a consistent-hash ring
//! ([`SweepRequest::placement_digest`] — trace source and iterations),
//! and the backend's replies are relayed back under the client's id, with
//! the same point indices.  Placement by the request text is the
//! load-bearing choice: every grid over one program lands on the backend
//! whose result cache already holds that program's points, so a sharded
//! deployment keeps the single-server warm-cache behaviour per shard, and
//! the coordinator never lowers a trace.  The trade: one grid runs on one
//! backend, so a lone cold grid does not spread its MDs over the fleet;
//! grids over different programs still spread.
//!
//! ## Fault model
//!
//! A grid's points are forwarded to the client when its subrequest's
//! `done` line arrives: the backend's `point` lines only record the
//! cycles, and the `done` line settles the points with them and its
//! `cached` count, in one message to the request's drainer (so a
//! cache-hot grid leaves the front end in one `write`).  A backend that
//! dies (its data connection drops), goes silent on a subrequest for the
//! retry timeout, answers `busy`, or refuses the subrequest (an `error`
//! naming no point, such as `server is shutting down`) has it reclaimed:
//! points whose cycles it already reported settle as delivered, uncached,
//! and the whole grid is resent to the next ring owner — never again to a
//! backend that refused it — which relays only the points still
//! unsettled.  A point settles only through its grid's `settled` bitmap,
//! so it settles exactly once — delivered, dropped, aborted or failed —
//! and the client's `done` line keeps the protocol invariant
//! `delivered + dropped + aborted + failed == points` through any
//! combination of deaths, refusals, retries, cancels and deadlines.
//! Determinism makes re-dispatch safe: a re-simulated point produces
//! bit-for-bit the cycles the dead backend would have reported.
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
/// grid before the watchdog reclaims it.  Deliberately generous: death
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
    /// The original client request (its subrequest line is this request
    /// under a coordinator id).
    request: SweepRequest,
    /// Each point's one settling event, to the request's drainer thread,
    /// batched per settling operation: one message per batch.
    tx: mpsc::Sender<Vec<SweepEvent>>,
    /// Set by client `cancel`, deadline expiry and dead-client cleanup;
    /// once set, reclaimed points settle as dropped instead of
    /// re-dispatching.
    cancelled: AtomicBool,
}

/// One dispatched client grid with unsettled points.  A point's index is
/// the same on the backend and on the client.
#[derive(Debug)]
struct PendingGrid {
    route: Arc<RequestRoute>,
    /// The backend currently responsible for the grid.
    backend: usize,
    /// When the current backend last showed progress on the grid — its
    /// dispatch or its latest reply (the watchdog's timeout base).
    progress: Instant,
    /// Per point, what the current backend reported ahead of its `done`:
    /// the cycles of its `point` line, or the message of its `point …
    /// failed:` error line.
    replies: Vec<Option<Result<Cycle, String>>>,
    /// Per point, whether it has settled towards the client.  Kept across
    /// re-dispatches, and the only way a point settles.
    settled: Vec<bool>,
    /// Events settled and not yet sent to the drainer.
    settling: Vec<SweepEvent>,
    /// A backend to avoid on the next dispatch (the one that just timed
    /// out), unless it is the only survivor.
    avoid: Option<usize>,
    /// Each backend that refused the subrequest, with its message: never
    /// chosen for the grid again.
    refusals: Vec<(usize, String)>,
}

/// Shared coordinator state: the fleet, the ring, and the subrequest
/// routing map (keyed by coordinator-issued `x<n>` subrequest ids).
#[derive(Debug)]
struct CoordInner {
    backends: Vec<Backend>,
    partitioner: Partitioner,
    /// subrequest id → grid with unsettled points.  The single routing
    /// authority: whoever removes an entry (reply handler, death sweep,
    /// watchdog, failed dispatch) owns its settlement.
    pending: Mutex<HashMap<String, PendingGrid>>,
    next_subid: AtomicU64,
    shutting_down: AtomicBool,
    retry_timeout: Duration,
    // Monotone counters, reported by `stats`.
    forwarded_points: AtomicU64,
    redispatched_points: AtomicU64,
    backend_deaths: AtomicU64,
    backend_reply_errors: AtomicU64,
    /// Unsettled points whose grid went silent on one backend for the
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

    /// [`Coordinator::connect`] reclaiming grids whose backend sends no
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
    /// unparsable lines and point indices outside their grid bump a
    /// counter, and parsable lines for unknown subrequest ids are ignored
    /// (they are the expected residue of re-dispatched or cancelled
    /// grids).
    pub fn handle_backend_reply(&self, line: &str) {
        self.inner.handle_backend_reply(line);
    }

    /// Points dispatched to backends and not yet settled.
    #[must_use]
    pub fn pending_points(&self) -> usize {
        self.inner
            .lock_pending()
            .values()
            .map(PendingGrid::unsettled)
            .sum()
    }
}

/// The fleet backend: each grid is forwarded whole to the backend owning
/// its placement digest, and the replies settle through the routing map.
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
        let points = request.grid().len();
        self.inner.dispatch(
            PendingGrid {
                route: Arc::clone(&route),
                backend: 0,
                progress: Instant::now(),
                replies: vec![None; points],
                settled: vec![false; points],
                settling: Vec::new(),
                avoid: None,
                refusals: Vec::new(),
            },
            false,
        );
        Ok(Box::new(RouteEvents {
            inner: Arc::clone(&self.inner),
            route,
            rx,
            received: Vec::new().into_iter(),
            settled: 0,
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
    /// grids to settle first (a stopping backend refuses subrequest lines
    /// it has not read yet); in abort mode their `done` lines, or the
    /// backends' refusals, settle them.
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
/// Each message carries one settling operation's events; they are handed
/// out without waiting, so the drainer never sees an operation half done.
/// It is never settled at submit (`SweepEvents::settled`'s default): its
/// points settle only when the backend answers.
struct RouteEvents {
    inner: Arc<CoordInner>,
    route: Arc<RequestRoute>,
    rx: mpsc::Receiver<Vec<SweepEvent>>,
    /// The rest of the last message received.
    received: std::vec::IntoIter<SweepEvent>,
    /// Events (settlements) handed out so far.
    settled: usize,
}

impl SweepEvents for RouteEvents {
    fn next_event(&mut self, deadline: Option<Instant>) -> StreamWait {
        if self.settled == self.route.request.grid().len() {
            return StreamWait::Exhausted;
        }
        loop {
            if let Some(event) = self.received.next() {
                self.settled += 1;
                return StreamWait::Event(event);
            }
            let received = match deadline {
                Some(at) => self
                    .rx
                    .recv_timeout(at.saturating_duration_since(Instant::now())),
                None => self.rx.recv().map_err(RecvTimeoutError::from),
            };
            match received {
                Ok(events) => self.received = events.into_iter(),
                Err(RecvTimeoutError::Timeout) => return StreamWait::TimedOut,
                Err(RecvTimeoutError::Disconnected) => return StreamWait::Exhausted,
            }
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
    fn lock_pending(&self) -> MutexGuard<'_, HashMap<String, PendingGrid>> {
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

    /// Dispatches (or re-dispatches) one grid: picks a live backend by the
    /// request's placement digest, registers the subrequest in the
    /// routing map, and writes the request's sweep line.  Falls back
    /// across backends on write failure; settles the unsettled points as
    /// dropped under cancellation/shutdown and as failed when no backend
    /// that has not refused the grid survives.  A `resend` that reaches a
    /// backend counts its points as re-dispatched.
    fn dispatch(&self, mut grid: PendingGrid, resend: bool) {
        let route = Arc::clone(&grid.route);
        let digest = route.request.placement_digest();
        loop {
            if route.cancelled.load(Ordering::Acquire) || self.shutting_down.load(Ordering::Acquire)
            {
                grid.settle_all(|index| SweepEvent::Skipped { index });
                return;
            }
            let avoid = grid.avoid.take();
            let eligible = |b: usize| {
                !grid.refusals.iter().any(|&(refuser, _)| refuser == b)
                    && self
                        .backends
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
                let message = match grid.refusals.pop() {
                    Some((_, message)) => message,
                    None => "no backends available".to_string(),
                };
                grid.settle_all(|index| SweepEvent::Failed {
                    index,
                    message: message.clone(),
                });
                return;
            };
            let subid = format!("x{}", self.next_subid.fetch_add(1, Ordering::Relaxed));
            let line = subrequest_line(&route.request, &subid);
            let points = grid.unsettled() as u64;
            grid.backend = backend;
            grid.progress = Instant::now();
            grid.replies.fill(None);
            self.lock_pending().insert(subid.clone(), grid);
            if self.write_backend(backend, &line) {
                self.forwarded_points.fetch_add(points, Ordering::Relaxed);
                if resend {
                    self.redispatched_points
                        .fetch_add(points, Ordering::Relaxed);
                }
                return;
            }
            // The write failed: reclaim the entry (unless the death sweep
            // raced us to it and already re-dispatched) and try another
            // backend.
            let reclaimed = self.lock_pending().remove(&subid);
            self.mark_dead(backend);
            match reclaimed {
                Some(g) => grid = g,
                None => return,
            }
        }
    }

    /// Takes a grid off a dead, slow, `busy` or refusing backend: points
    /// with reported cycles settle as delivered, uncached (only the
    /// backend's `done` was lost), and the rest go to
    /// [`CoordInner::settle_rest`].
    fn reclaim(&self, mut grid: PendingGrid, avoid: Option<usize>) {
        grid.deliver_reported(0);
        self.settle_rest(grid, 0, avoid);
    }

    /// Settles or resends what a backend left unsettled of a grid, after
    /// sending the drainer what the caller settled.  Under cancellation
    /// the first `aborted` points settle as aborted and the rest as
    /// dropped.  Otherwise the client still needs them — a backend-side
    /// abort, a lost `point` line, a death, a refusal or a timeout — so
    /// the whole grid is resent to the ring owner, away from `avoid` when
    /// another backend survives.
    fn settle_rest(&self, mut grid: PendingGrid, mut aborted: usize, avoid: Option<usize>) {
        let cancelled = grid.route.cancelled.load(Ordering::Acquire);
        if cancelled {
            for j in 0..grid.settled.len() {
                let abort = aborted > 0;
                let event = |index| match abort {
                    true => SweepEvent::Aborted { index },
                    false => SweepEvent::Skipped { index },
                };
                if grid.settle(j, event) && abort {
                    aborted -= 1;
                }
            }
        }
        grid.send_settled();
        if !cancelled && grid.unsettled() > 0 {
            grid.avoid = avoid;
            self.dispatch(grid, true);
        }
    }

    /// Removes every pending grid `matches` selects, with its subrequest id.
    fn take_pending(&self, matches: impl Fn(&PendingGrid) -> bool) -> Vec<(String, PendingGrid)> {
        self.lock_pending()
            .extract_if(|_, grid| matches(grid))
            .collect()
    }

    /// Declares a backend dead: tears down its connection, then reclaims
    /// every grid routed to it.
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
        for (_, grid) in self.take_pending(|grid| grid.backend == backend) {
            self.reclaim(grid, None);
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
            }) => match point_failure(&message) {
                Some((index, message)) => self.note_reply(&id, index, Err(message)),
                // The subrequest was refused whole and no `done` follows:
                // resend it elsewhere now, not after the retry timeout.
                None => self.refuse(&id, message),
            },
            // Never queued there: resend the grid (the ring walk lands on
            // the same backend once its queue drains, or elsewhere if it
            // died meanwhile).
            Ok(Response::Busy { id, .. }) => {
                let reclaimed = self.lock_pending().remove(&id);
                if let Some(grid) = reclaimed {
                    self.reclaim(grid, None);
                }
            }
            // Cancel acknowledgements and control replies that strayed onto
            // the data connection carry no routing information.
            Ok(_) => {}
        }
    }

    /// Records what a backend reported for point `index` of a grid ahead
    /// of its `done`: the cycles of a `point` line, or the message of a
    /// `point <index> failed:` error; it restarts the grid's watchdog
    /// clock.  An index outside the grid is a reply error.
    fn note_reply(&self, subid: &str, index: usize, reply: Result<Cycle, &str>) {
        let mut pending = self.lock_pending();
        let Some(grid) = pending.get_mut(subid) else {
            return;
        };
        let Some(slot) = grid.replies.get_mut(index) else {
            self.backend_reply_errors.fetch_add(1, Ordering::Relaxed);
            return;
        };
        *slot = Some(reply.map_err(str::to_string));
        grid.progress = Instant::now();
    }

    /// A subrequest's closing `done` line: settle its grid.  Points with
    /// reported cycles are delivered, the first `cached` as cache hits;
    /// `failed` of the rest fail, those the backend named in an `error`
    /// line first; what is left goes to [`CoordInner::settle_rest`].
    fn settle_done(&self, subid: &str, aborted: usize, mut failed: usize, cached: u64) {
        let Some(mut grid) = self.lock_pending().remove(subid) else {
            return;
        };
        grid.deliver_reported(cached);
        for j in 0..grid.replies.len() {
            let Some(Err(message)) = grid.replies[j].take() else {
                continue;
            };
            if failed > 0 && grid.settle(j, |index| SweepEvent::Failed { index, message }) {
                failed -= 1;
            }
        }
        for j in 0..grid.replies.len() {
            if failed == 0 {
                break;
            }
            let message = "backend simulation failed".to_string();
            if grid.settle(j, |index| SweepEvent::Failed { index, message }) {
                failed -= 1;
            }
        }
        self.settle_rest(grid, aborted, None);
    }

    /// A subrequest refused whole by its backend (an `error` line naming
    /// no point, such as `server is shutting down`): reclaim it at once,
    /// never to return to that backend.  With no other backend left, its
    /// unsettled points fail with the backend's message.
    fn refuse(&self, subid: &str, message: String) {
        let Some(mut grid) = self.lock_pending().remove(subid) else {
            return;
        };
        grid.refusals.push((grid.backend, message));
        self.reclaim(grid, None);
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
                .filter(|(_, grid)| Arc::ptr_eq(&grid.route, route))
                .map(|(subid, grid)| (grid.backend, subid.clone()))
                .collect()
        };
        for (backend, subid) in targets {
            if !self.write_backend(backend, &format!("cancel id={subid}")) {
                self.mark_dead(backend);
            }
        }
    }

    /// One watchdog pass: reclaim each grid its backend has been silent on
    /// for the retry timeout, cancelling that backend's copy.
    fn scan_timeouts(&self) {
        let silent = |grid: &PendingGrid| grid.progress.elapsed() >= self.retry_timeout;
        for (subid, grid) in self.take_pending(silent) {
            self.coordinator_timeouts
                .fetch_add(grid.unsettled() as u64, Ordering::Relaxed);
            let slow = grid.backend;
            if !self.write_backend(slow, &format!("cancel id={subid}")) {
                self.mark_dead(slow);
            }
            self.reclaim(grid, Some(slow));
        }
    }
}

impl PendingGrid {
    /// Points not yet settled towards the client.
    fn unsettled(&self) -> usize {
        self.settled.iter().filter(|&&settled| !settled).count()
    }

    /// Settles point `index` with the event `event` builds from it — the
    /// one way a point reaches the client, on the next
    /// [`PendingGrid::send_settled`].  `false`, and nothing settled, when
    /// `index` already settled.
    fn settle(&mut self, index: usize, event: impl FnOnce(usize) -> SweepEvent) -> bool {
        let Some(settled) = self.settled.get_mut(index) else {
            return false;
        };
        if std::mem::replace(settled, true) {
            return false;
        }
        self.settling.push(event(index));
        true
    }

    /// Sends the events settled since the last send to the request's
    /// drainer as one message.
    fn send_settled(&mut self) {
        if !self.settling.is_empty() {
            let _ = self.route.tx.send(std::mem::take(&mut self.settling));
        }
    }

    /// Settles every unsettled point with `event`, and sends them.
    fn settle_all(&mut self, event: impl Fn(usize) -> SweepEvent) {
        for index in 0..self.settled.len() {
            self.settle(index, &event);
        }
        self.send_settled();
    }

    /// Settles every unsettled point whose cycles the backend reported as
    /// delivered, the first `cached` of them as cache hits.
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

/// The subrequest line of a grid: the client's request under the
/// coordinator-issued subid.  Mode is always `stream` (the grid settles
/// on its `done` either way) and the client deadline is *not* forwarded —
/// deadlines act at the coordinator, where the client's clock runs.
fn subrequest_line(request: &SweepRequest, subid: &str) -> String {
    SweepRequest {
        id: subid.to_string(),
        mode: DeliveryMode::Stream,
        deadline_ms: None,
        ..request.clone()
    }
    .to_string()
}

/// Splits a backend's `point <j> failed: <message>` error into the point
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
