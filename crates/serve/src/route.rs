//! The coordinator's routing core: a state machine with no sockets,
//! clocks, threads or channels.
//!
//! A [`Router`] owns everything the coordinator decides with — the ring,
//! each backend's alive flag and queued lines, the pending grids with
//! their `settled` bitmaps and refusals, the shutdown flag, the counters
//! — and changes it only in [`Router::on`]: one [`Input`] at a given
//! `now`, answered with the [`Effect`]s to carry out.  The coordinator
//! drives it behind one mutex; `tests/route_check.rs` drives it through
//! every interleaving of small fleets.  A route is an opaque handle given
//! at submit: a request's channel there, an integer in the checker.
//!
//! ## Fault model
//!
//! A grid is forwarded whole, as the client's request under an `x<n>` id,
//! to the ring owner of its placement digest.  The backend's `point`
//! lines only record the cycles; its `done` settles the points with them
//! and its `cached` count, as one [`Effect::Settle`] (so a cache-hot grid
//! leaves the front end in one `write`).  A backend that dies (its
//! connection drops or a write to it fails), goes silent on a grid for
//! the retry timeout, or refuses it (an `error` naming no point) has it
//! reclaimed in that step: points whose cycles it reported settle as
//! delivered, uncached, and the grid goes to the next ring owner — never
//! to a refuser, to a silent one last — which relays only the points
//! still unsettled.  A grid answered `busy` is resent on the first tick
//! past the backend's `retry_after_ms`.  A point settles only through its
//! grid's `settled` bitmap, so exactly once, and the client's `done`
//! keeps `delivered + dropped + aborted + failed == points`.  Determinism
//! makes a resend safe: it yields the cycles the lost one would have.
//!
//! A backend's lines wait here, in the order decided, until the shell
//! takes them all with [`Router::take_output`] under that backend's
//! connection lock, so a grid's `cancel` never overtakes its `sweep`.
//! Backend bytes are untrusted (`dae-lint`'s panic-path rule covers this
//! module): a malformed line is counted or ignored, never unwound on.

use crate::protocol::{parse_response, DeliveryMode, Response, ShutdownMode, SweepRequest};
use dae_core::{StreamedPoint, SweepEvent};
use dae_isa::Cycle;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Ring points per backend: enough to spread a removed backend's keys
/// evenly over the survivors, few enough to build and search cheaply.
pub(crate) const DEFAULT_VNODES: usize = 64;

/// A consistent-hash ring over `backends` numbered `0..n`: each backend
/// has `vnodes` deterministic ring points, and a digest belongs to the
/// owner of the first point at or after it (wrapping).  Placement is a
/// pure function of `(backends, vnodes, digest)`, and removing a backend
/// moves only its own keys: the walk skips its points (the partitioner
/// proptest pins both).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
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
        let point = |b: usize| move |v: usize| (mix64(((b as u64) << 32) ^ v as u64), b);
        let mut ring: Vec<_> = (0..backends)
            .flat_map(|b| (0..vnodes).map(point(b)))
            .collect();
        // Sorting by (position, backend) makes a position collision
        // resolve to the lowest backend on every build — placement stays
        // a pure function of the configuration.
        ring.sort_unstable();
        ring.dedup_by_key(|&mut (position, _)| position);
        Partitioner { ring }
    }

    /// The backend owning `digest`; `None` only for an empty ring.
    #[must_use]
    pub fn assign(&self, digest: u64) -> Option<usize> {
        self.assign_among(digest, |_| true)
    }

    /// The backend owning `digest` among the backends `eligible` accepts:
    /// the ring is walked clockwise from the digest's position until an
    /// eligible owner is found.  `None` when no backend is eligible.
    pub fn assign_among(&self, digest: u64, eligible: impl Fn(usize) -> bool) -> Option<usize> {
        let start = self
            .ring
            .partition_point(|&(position, _)| position < digest);
        let (before, from) = self.ring.split_at(start);
        let walk = from.iter().chain(before).map(|&(_, backend)| backend);
        walk.into_iter().find(|&backend| eligible(backend))
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

/// One event the core reacts to.
#[derive(Debug)]
pub enum Input<'a, R> {
    /// A client grid to forward, with the route its events go to.
    Submit(&'a SweepRequest, R),
    /// One line (without its newline) a backend sent on its connection.
    Line(usize, &'a str),
    /// A backend's data connection dropped, or a write to it failed.
    Death(usize),
    /// A watchdog pass: reclaim silent grids, resend `busy` ones due.
    Tick,
    /// A client cancel, an expired deadline or a dead client.
    Cancel(R),
    /// A `shutdown`, fed again until forwarded (a drain once none pend).
    Shutdown(ShutdownMode),
}

/// One thing the caller must do after [`Router::on`] returns.
#[derive(Debug)]
pub enum Effect<R> {
    /// Write what [`Router::take_output`] gives for this backend.
    Write(usize),
    /// Send these settled events to the route, as one message.
    Settle(R, Vec<SweepEvent>),
    /// The backend is dead: drop its connection.
    Drop(usize),
    /// Forward the shutdown to every backend.
    Forward(ShutdownMode),
}

/// The monotone counters `stats` reports, as `docs/PROTOCOL.md` defines
/// them.  A subrequest line counts as forwarded once queued for a live
/// backend: a write that then fails is that backend's death, which
/// reclaims the grid and counts its resend again.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
struct Counters {
    forwarded_points: u64,
    redispatched_points: u64,
    backend_deaths: u64,
    backend_reply_errors: u64,
    coordinator_timeouts: u64,
    timeout_requests: u64,
}

/// One client grid with unsettled points.  A point's index is the same on
/// the backend and on the client.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Grid<R> {
    route: R,
    /// The subrequest line after `sweep id=`: the request in stream mode,
    /// without its deadline (deadlines act here).
    tail: String,
    digest: u64,
    /// The backend holding the grid; `None` before dispatch and while it
    /// waits out a `busy` backend's retry hint.
    backend: Option<usize>,
    /// With a backend: its last progress on the grid (dispatch or latest
    /// reply), the watchdog's base.  Without: the earliest resend.
    clock: Instant,
    /// Per point, what the current backend reported ahead of its `done`.
    replies: Vec<Option<Result<Cycle, String>>>,
    /// Per point, whether it has settled: the only way a point settles.
    settled: Vec<bool>,
    cancelled: bool,
    /// Backends that went silent on the grid: chosen only when no other
    /// is left, so a grid cannot bounce between two silent backends.
    silent: Vec<usize>,
    /// Each backend that refused the grid, with its message.
    refusals: Vec<(usize, String)>,
}

/// The routing state machine; see the module docs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Router<R> {
    ring: Partitioner,
    retry_timeout: Duration,
    alive: Vec<bool>,
    /// Per backend, lines decided and not yet taken by a writer.
    output: Vec<String>,
    /// Subrequest number (`x<n>`) → grid.
    grids: BTreeMap<u64, Grid<R>>,
    next_subid: u64,
    shutting_down: bool,
    counters: Counters,
}

/// One input's `now`, and the effects it has produced so far.
struct Step<R> {
    now: Instant,
    fx: Vec<Effect<R>>,
}

impl<R: Clone + PartialEq> Router<R> {
    /// A router over `backends` on a ring of `vnodes` points each, which
    /// reclaims a grid its backend is silent on for `retry_timeout`.
    #[must_use]
    pub fn new(backends: usize, vnodes: usize, retry_timeout: Duration) -> Self {
        Router {
            ring: Partitioner::with_vnodes(backends, vnodes),
            retry_timeout,
            alive: vec![true; backends],
            output: vec![String::new(); backends],
            grids: BTreeMap::new(),
            next_subid: 1,
            shutting_down: false,
            counters: Counters::default(),
        }
    }

    /// Whether each backend is alive.
    #[must_use]
    pub fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// The coordinator's own `stats` fields.
    #[must_use]
    pub fn stats(&self) -> Vec<(String, u64)> {
        let (c, live) = (&self.counters, self.alive.iter().filter(|&&a| a).count());
        [
            ("backends_total", self.alive.len() as u64),
            ("backends_alive", live as u64),
            ("forwarded_points", c.forwarded_points),
            ("redispatched_points", c.redispatched_points),
            ("backend_deaths", c.backend_deaths),
            ("backend_reply_errors", c.backend_reply_errors),
            ("coordinator_timeouts", c.coordinator_timeouts),
            ("coordinator_pending", self.pending_points() as u64),
            ("timeout_requests", c.timeout_requests),
        ]
        .map(|(name, value)| (name.to_string(), value))
        .into()
    }

    /// Counts a client request whose `deadline_ms` expired.
    pub fn note_timeout(&mut self) {
        self.counters.timeout_requests += 1;
    }

    /// Whether a shutdown was fed: new grids are dropped.
    #[must_use]
    pub fn shutting_down(&self) -> bool {
        self.shutting_down
    }

    /// Points submitted and not yet settled.
    #[must_use]
    pub fn pending_points(&self) -> usize {
        self.grids.values().map(Grid::unsettled).sum()
    }

    /// Each grid on a backend: its subrequest number and backend.
    pub fn dispatched(&self) -> impl Iterator<Item = (u64, usize)> + '_ {
        let held = |(&subid, grid): (&u64, &Grid<R>)| Some((subid, grid.backend?));
        self.grids.iter().filter_map(held)
    }

    /// Takes the lines queued for `backend`, each ending in a newline.
    pub fn take_output(&mut self, backend: usize) -> String {
        let output = self.output.get_mut(backend);
        output.map(std::mem::take).unwrap_or_default()
    }

    /// Applies one input at `now`; what the caller must do, in order.
    pub fn on(&mut self, input: Input<'_, R>, now: Instant) -> Vec<Effect<R>> {
        let step = &mut Step { now, fx: vec![] };
        match input {
            Input::Submit(request, route) => {
                let (points, mut sub) = (request.grid().len(), request.clone());
                (sub.id, sub.mode, sub.deadline_ms) = (String::new(), DeliveryMode::Stream, None);
                let text = sub.to_string();
                let grid = Grid {
                    route,
                    tail: text.strip_prefix("sweep id=").unwrap_or(&text).to_string(),
                    digest: request.placement_digest(),
                    backend: None,
                    clock: now,
                    replies: vec![None; points],
                    settled: vec![false; points],
                    cancelled: false,
                    silent: Vec::new(),
                    refusals: Vec::new(),
                };
                self.dispatch(grid, false, step);
            }
            Input::Line(backend, line) => self.line(backend, line, step),
            Input::Death(backend) => self.death(backend, step),
            Input::Tick => self.tick(step),
            Input::Cancel(route) => self.cancel(&route, step),
            Input::Shutdown(mode) => {
                self.shutting_down = true;
                if mode == ShutdownMode::Abort || self.grids.is_empty() {
                    step.fx.push(Effect::Forward(mode));
                }
            }
        }
        std::mem::take(&mut step.fx)
    }

    /// Queues one line for a live backend.
    fn queue(&mut self, backend: usize, line: &str, step: &mut Step<R>) {
        let (Some(true), Some(output)) = (self.alive.get(backend), self.output.get_mut(backend))
        else {
            return;
        };
        if output.is_empty() {
            step.fx.push(Effect::Write(backend));
        }
        output.push_str(line);
        output.push('\n');
    }

    /// Sends a grid to the ring owner of its digest among the live
    /// backends that have not refused it (preferring those not silent on
    /// it), or parks it while a `busy` hint runs.  A cancelled grid, or
    /// any once shutdown began, is dropped; one no backend may take fails.
    fn dispatch(&mut self, mut grid: Grid<R>, resend: bool, step: &mut Step<R>) {
        if grid.cancelled || self.shutting_down {
            return grid.settle_all(|index| SweepEvent::Skipped { index }, step);
        }
        let subid = self.next_subid;
        self.next_subid += 1;
        let eligible = |b: usize| {
            !grid.refusals.iter().any(|&(refuser, _)| refuser == b)
                && self.alive.get(b) == Some(&true)
        };
        let (ring, silent) = (&self.ring, &grid.silent);
        let owner = ring.assign_among(grid.digest, |b| !silent.contains(&b) && eligible(b));
        let owner = owner.or_else(|| ring.assign_among(grid.digest, eligible));
        match owner {
            _ if grid.clock > step.now => grid.backend = None,
            Some(backend) => {
                let points = grid.unsettled() as u64;
                self.counters.forwarded_points += points;
                self.counters.redispatched_points += if resend { points } else { 0 };
                self.queue(backend, &format!("sweep id=x{subid}{}", grid.tail), step);
                grid.backend = Some(backend);
                grid.clock = step.now;
                grid.replies.fill(None);
            }
            None => {
                let message = grid.refusals.pop().map(|(_, message)| message);
                let message = message.unwrap_or_else(|| "no backends available".to_string());
                let failed = |index| SweepEvent::Failed {
                    index,
                    message: message.clone(),
                };
                return grid.settle_all(failed, step);
            }
        }
        self.grids.insert(subid, grid);
    }

    /// The subrequest number of the grid `id` names, if `backend` holds it.
    fn held(&self, backend: usize, id: &str) -> Option<u64> {
        let subid = id.strip_prefix('x')?.parse().ok()?;
        (self.grids.get(&subid)?.backend == Some(backend)).then_some(subid)
    }

    /// Removes the grid `id` names, if `backend` holds it.
    fn take(&mut self, backend: usize, id: &str) -> Option<Grid<R>> {
        self.grids.remove(&self.held(backend, id)?)
    }

    /// Sends the route `events` and every point whose cycles the backend
    /// reported (delivered, uncached: only the `done` was lost).  The rest
    /// settle under cancellation — the first `aborted` as aborted, the
    /// others dropped — or else go to [`Router::dispatch`] again.
    fn settle_rest(
        &mut self,
        mut grid: Grid<R>,
        mut events: Vec<SweepEvent>,
        mut aborted: usize,
        step: &mut Step<R>,
    ) {
        grid.deliver_reported(0, &mut events);
        for j in 0..grid.settled.len() {
            let abort = aborted > 0;
            let event = |index| match abort {
                true => SweepEvent::Aborted { index },
                false => SweepEvent::Skipped { index },
            };
            if grid.cancelled && grid.settle(j, event, &mut events) && abort {
                aborted -= 1;
            }
        }
        grid.send(events, step);
        if grid.unsettled() > 0 {
            self.dispatch(grid, true, step);
        }
    }

    /// Declares a backend dead and reclaims every grid it held.
    fn death(&mut self, backend: usize, step: &mut Step<R>) {
        let Some(alive) = self.alive.get_mut(backend) else {
            return;
        };
        if !std::mem::replace(alive, false) {
            return;
        }
        self.counters.backend_deaths += 1;
        self.take_output(backend);
        step.fx.push(Effect::Drop(backend));
        let held = self.dispatched().filter(|&(_, b)| b == backend);
        for (subid, _) in held.collect::<Vec<_>>() {
            if let Some(grid) = self.grids.remove(&subid) {
                self.settle_rest(grid, Vec::new(), 0, step);
            }
        }
    }

    /// Routes one backend line.  Unparsable lines and point indices
    /// outside their grid are reply errors; lines naming no grid the
    /// backend holds (the residue of reclaimed grids) are ignored.
    fn line(&mut self, backend: usize, line: &str, step: &mut Step<R>) {
        if line.trim().is_empty() {
            return;
        }
        let Ok(response) = parse_response(line) else {
            self.counters.backend_reply_errors += 1;
            return;
        };
        let (id, reply) = match response {
            Response::Point {
                id, index, cycles, ..
            } => (id, Some((index, Ok(cycles)))),
            Response::Error {
                id: Some(id),
                message,
            } => match point_failure(&message) {
                Some((index, failure)) => (id, Some((index, Err(failure.to_string())))),
                // Refused whole, and no `done` follows: resend it now, and
                // never to this backend again.
                None => {
                    if let Some(mut grid) = self.take(backend, &id) {
                        grid.refusals.push((backend, message));
                        self.settle_rest(grid, Vec::new(), 0, step);
                    }
                    return;
                }
            },
            Response::Done {
                id,
                aborted,
                failed,
                cached,
                ..
            } => {
                if let Some(grid) = self.take(backend, &id) {
                    self.settle_done(grid, aborted, failed, cached, step);
                }
                return;
            }
            // Never queued there: park the grid until the backend's retry
            // hint has passed; the first tick after it resends the grid.
            Response::Busy {
                id, retry_after_ms, ..
            } => {
                if let Some(mut grid) = self.take(backend, &id) {
                    grid.clock = step.now + Duration::from_millis(retry_after_ms);
                    self.settle_rest(grid, Vec::new(), 0, step);
                }
                return;
            }
            // Cancel acknowledgements and control replies carry no
            // routing information.
            _ => return,
        };
        // A `point` line or a `point <j> failed:` error, ahead of the
        // `done`: recorded, and the grid's watchdog clock restarts.
        let held = self.held(backend, &id);
        let Some((grid, (index, reply))) = held.and_then(|s| self.grids.get_mut(&s)).zip(reply)
        else {
            return;
        };
        let Some(slot) = grid.replies.get_mut(index) else {
            self.counters.backend_reply_errors += 1;
            return;
        };
        *slot = Some(reply);
        grid.clock = step.now;
    }

    /// A subrequest's closing `done` line.  Points with reported cycles
    /// are delivered, the first `cached` as cache hits; `failed` of the
    /// rest fail, those the backend named in an `error` line first; what
    /// is left goes to [`Router::settle_rest`].
    fn settle_done(
        &mut self,
        mut grid: Grid<R>,
        aborted: usize,
        mut failed: usize,
        cached: u64,
        step: &mut Step<R>,
    ) {
        let mut events = Vec::new();
        grid.deliver_reported(cached, &mut events);
        let named = (0..grid.replies.len()).filter(|&j| matches!(grid.replies[j], Some(Err(_))));
        for j in named.chain(0..grid.replies.len()).collect::<Vec<_>>() {
            let message = match grid.replies[j].take() {
                Some(Err(message)) => message,
                _ => "backend simulation failed".to_string(),
            };
            let event = |index| SweepEvent::Failed { index, message };
            if failed > 0 && grid.settle(j, event, &mut events) {
                failed -= 1;
            }
        }
        self.settle_rest(grid, events, aborted, step);
    }

    /// Cancels a route's grid: a grid on a backend is sent a `cancel` and
    /// settles on that backend's `done`; a parked grid settles at once.
    fn cancel(&mut self, route: &R, step: &mut Step<R>) {
        let Some((&subid, grid)) = self.grids.iter_mut().find(|(_, g)| g.route == *route) else {
            return;
        };
        grid.cancelled = true;
        match grid.backend {
            Some(backend) => self.queue(backend, &format!("cancel id=x{subid}"), step),
            None => {
                if let Some(mut grid) = self.grids.remove(&subid) {
                    grid.settle_all(|index| SweepEvent::Skipped { index }, step);
                }
            }
        }
    }

    /// One watchdog pass: reclaim each grid its backend has been silent
    /// on for the retry timeout, cancelling that backend's copy, and
    /// resend each parked grid whose retry time has come.
    fn tick(&mut self, step: &mut Step<R>) {
        let now = step.now;
        let due = |g: &Grid<R>| match g.backend {
            Some(_) => now.saturating_duration_since(g.clock) >= self.retry_timeout,
            None => g.clock <= now,
        };
        let due: Vec<u64> = self
            .grids
            .iter()
            .filter_map(|(&subid, g)| due(g).then_some(subid))
            .collect();
        for subid in due {
            let Some(mut grid) = self.grids.remove(&subid) else {
                continue;
            };
            match grid.backend {
                Some(slow) => {
                    self.counters.coordinator_timeouts += grid.unsettled() as u64;
                    self.queue(slow, &format!("cancel id=x{subid}"), step);
                    grid.silent.retain(|&b| b != slow);
                    grid.silent.push(slow);
                    self.settle_rest(grid, Vec::new(), 0, step);
                }
                None => self.dispatch(grid, true, step),
            }
        }
    }
}

impl<R: Clone> Grid<R> {
    /// Points not yet settled towards the client.
    fn unsettled(&self) -> usize {
        self.settled.iter().filter(|&&settled| !settled).count()
    }

    /// Settles point `index` with the event `event` builds from it, onto
    /// `events` — the one way a point reaches the client.  `false`, and
    /// nothing settled, when `index` already settled.
    fn settle(
        &mut self,
        index: usize,
        event: impl FnOnce(usize) -> SweepEvent,
        events: &mut Vec<SweepEvent>,
    ) -> bool {
        let settled = self.settled.get_mut(index);
        let fresh = settled.is_some_and(|s| !std::mem::replace(s, true));
        if fresh {
            events.push(event(index));
        }
        fresh
    }

    /// Settles every unsettled point with `event`, in one message.
    fn settle_all(&mut self, event: impl Fn(usize) -> SweepEvent, step: &mut Step<R>) {
        let mut events = Vec::new();
        for index in 0..self.settled.len() {
            self.settle(index, &event, &mut events);
        }
        self.send(events, step);
    }

    /// Sends `events` to the route as one message, if there are any.
    fn send(&self, events: Vec<SweepEvent>, step: &mut Step<R>) {
        if !events.is_empty() {
            step.fx.push(Effect::Settle(self.route.clone(), events));
        }
    }

    /// Settles every unsettled point whose cycles the backend reported as
    /// delivered, the first `cached` of them as cache hits.
    fn deliver_reported(&mut self, mut cached: u64, events: &mut Vec<SweepEvent>) {
        for j in 0..self.replies.len() {
            let Some(Ok(cycles)) = self.replies[j] else {
                continue;
            };
            let hit = cached > 0;
            let point = StreamedPoint {
                index: j,
                cycles,
                cached: hit,
            };
            if self.settle(j, |_| SweepEvent::Point(point), events) && hit {
                cached -= 1;
            }
        }
    }
}

/// Splits a backend's `point <j> failed: <message>` error into the point
/// index and the message.
fn point_failure(message: &str) -> Option<(usize, &str)> {
    let (index, message) = message.strip_prefix("point ")?.split_once(" failed: ")?;
    Some((index.parse().ok()?, message))
}
