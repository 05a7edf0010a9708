//! Exhaustive interleaving check of the coordinator's routing core.
//!
//! Each scenario is a small fleet — 2 or 3 model backends, each with one
//! behaviour (answers all; answers k points then dies; refuses; goes
//! silent; answers `busy` once) — and 1 or 2 client grids of up to 3
//! points.  A depth-first search with a visited set walks every order of
//! the events the coordinator can see: a grid's submission, each line a
//! backend sends, its death, a watchdog tick, a client cancel (a deadline
//! is the same input) and a drain or abort `shutdown`, fed again until it
//! is forwarded.  The model carries out the core's effects the way the
//! coordinator shell does: the lines the core queues for a backend reach
//! it in the order queued (the shell writes a backend's whole queue under
//! its connection lock), a settlement reaches its route, and a forwarded
//! shutdown reaches every backend.  Time is a counter of 100 ms ticks; the retry timeout is two
//! ticks and a `busy` backend's hint one.  A few ticks may fall anywhere;
//! after that time passes only when nothing else can happen, so every run
//! ends.
//!
//! In every reachable state it checks that no point settles twice, that
//! every delivered point carries the cycles its backend reported, that no
//! grid is written to a backend that refused it, that nothing is written
//! for a grid that had fully settled, that a grid is reclaimed for
//! silence only when its backend sent nothing on it for the retry
//! timeout, that a refusal or a death takes the grid off that backend in
//! the same step, that a drain `shutdown` is forwarded only with no grid
//! pending, and that nothing is resent for a grid before its `busy`
//! backend's hint.  In every terminal state every grid has settled, with
//! `delivered + dropped + aborted + failed == points`.
//!
//! On a violation it prints the scenario and a shrunk input sequence.
//! Run with `-- --nocapture` to see the number of states it visited.

use dae_core::SweepEvent;
use dae_mem::FxHasher;
use dae_serve::route::{Effect, Input, Router};
use dae_serve::SweepRequest;
use dae_serve::{parse_request, DoneStatus, Partitioner, Request, Response, ShutdownMode};
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// One watchdog period of model time.
const TICK: Duration = Duration::from_millis(100);
/// The retry timeout: two ticks.
const RETRY: Duration = Duration::from_millis(200);
/// A `busy` backend's retry hint: one tick.
const BUSY_HINT_MS: u64 = 100;
/// Ticks that may fall at any step; later ones only when nothing else can.
const FREE_TICKS: u32 = 2;
/// What a stopping backend answers a sweep line with.
const REFUSAL: &str = "server is shutting down; not accepting new sweeps";

/// How a model backend answers the sweep lines it reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Behaviour {
    /// Every point, then `done`.
    All,
    /// Its first `k` points in all, then its connection drops.
    Dies(u8),
    /// An `error` naming no point, as a stopping server does.
    Refuses,
    /// Nothing at all.
    Silent,
    /// `busy` to its first sweep line, then like `All`.
    Busy,
}

/// Why a backend stopped a subrequest early.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Stop {
    Cancelled,
    Aborted,
}

/// What a backend will send next, in order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Out {
    Line(String),
    /// A subrequest it is answering: `next` points sent so far.
    Job {
        subid: String,
        grid: usize,
        next: usize,
        /// Set by a `cancel` (dropped) or an abort shutdown (aborted).
        stop: Option<Stop>,
    },
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Backend {
    behaviour: Behaviour,
    out: VecDeque<Out>,
    points_sent: u8,
    busy_used: bool,
    stopping: bool,
    dead: bool,
}

/// One client grid of a scenario.
#[derive(Debug, Clone)]
struct GridSpec {
    request: SweepRequest,
    points: usize,
}

/// A fleet, its grids and the client events that may fall.
#[derive(Debug, Clone)]
struct Scenario {
    behaviours: Vec<Behaviour>,
    grids: Vec<GridSpec>,
    shutdown: Option<ShutdownMode>,
}

/// How a point settled, as the client's `done` counts it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Settled {
    Delivered,
    Dropped,
    Aborted,
    Failed,
}

/// One step the search can take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Action {
    Submit,
    Reply(usize),
    Tick,
    Cancel(usize),
    Shutdown,
}

/// The whole model: the core, the backends, the lines in transit and the
/// bookkeeping the checks need.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct World {
    core: Router<usize>,
    ticks: u32,
    backends: Vec<Backend>,
    submitted: usize,
    cancelled: Vec<bool>,
    /// Per grid, per point: how it settled.
    settled: Vec<Vec<Option<Settled>>>,
    /// `None`: not requested; `Some(false)`: fed, not yet forwarded.
    shutdown: Option<bool>,
    /// Subrequest id → grid.
    subids: BTreeMap<String, usize>,
    /// Subrequest number → tick of its dispatch or its latest line.
    heard: BTreeMap<u64, u32>,
    /// (grid, backend) pairs of refusals.
    refused: BTreeSet<(usize, usize)>,
    /// Per grid, the earliest time a `busy` backend allows a resend, in
    /// milliseconds.
    busy_until: Vec<u64>,
}

/// The search's context: the scenario and the clock's origin.
struct Checker<'a> {
    scenario: &'a Scenario,
    base: Instant,
}

/// The cycles every backend reports for `index` of grid `grid`.
fn cycles(grid: usize, index: usize) -> u64 {
    1000 * (grid as u64 + 1) + index as u64
}

impl Checker<'_> {
    fn now(&self, world: &World) -> Instant {
        self.base + TICK * world.ticks
    }

    fn root(&self) -> World {
        let s = self.scenario;
        World {
            core: Router::new(s.behaviours.len(), 1, RETRY),
            ticks: 0,
            backends: s
                .behaviours
                .iter()
                .map(|&behaviour| Backend {
                    behaviour,
                    out: VecDeque::new(),
                    points_sent: 0,
                    busy_used: false,
                    stopping: false,
                    dead: false,
                })
                .collect(),
            submitted: 0,
            cancelled: vec![false; s.grids.len()],
            settled: s.grids.iter().map(|g| vec![None; g.points]).collect(),
            shutdown: None,
            subids: BTreeMap::new(),
            heard: BTreeMap::new(),
            refused: BTreeSet::new(),
            busy_until: vec![0; s.grids.len()],
        }
    }

    /// The actions enabled in `world`; none in a terminal state.
    fn enabled(&self, world: &World) -> Vec<Action> {
        let mut work = Vec::new();
        if world.submitted < self.scenario.grids.len() {
            work.push(Action::Submit);
        }
        for (b, backend) in world.backends.iter().enumerate() {
            if !backend.dead && !backend.out.is_empty() {
                work.push(Action::Reply(b));
            }
        }
        let pending = world.core.pending_points() > 0;
        let quiet = work.is_empty();
        let mut actions = work;
        if pending && (world.ticks < FREE_TICKS || quiet) {
            actions.push(Action::Tick);
        }
        for g in 0..world.submitted {
            if !world.cancelled[g] {
                actions.push(Action::Cancel(g));
            }
        }
        if self.scenario.shutdown.is_some() && world.shutdown != Some(true) {
            // A waiting shutdown is fed again only while something is
            // pending, or it would loop on one unchanged state anyway.
            if world.shutdown.is_none() || !pending || quiet {
                actions.push(Action::Shutdown);
            }
        }
        actions
    }

    /// Applies `action` to `world`, checking every state invariant the
    /// step touches.  `Err` names the violated rule.  `log`, when given,
    /// receives a line per event.
    fn apply(
        &self,
        world: &mut World,
        action: Action,
        mut log: Option<&mut Vec<String>>,
    ) -> Result<(), String> {
        let mut note = |line: String| {
            if let Some(log) = log.as_deref_mut() {
                log.push(line);
            }
        };
        let fully_settled: Vec<bool> = world
            .settled
            .iter()
            .map(|points| points.iter().all(Option::is_some))
            .collect();
        let held_before: Vec<(u64, usize)> = world.core.dispatched().collect();
        let input_now = self.now(world);
        let mut reply: Option<(usize, String)> = None;
        let effects = match action {
            Action::Submit => {
                let g = world.submitted;
                world.submitted += 1;
                note(format!("client submits grid {g}"));
                let request = &self.scenario.grids[g].request;
                world.core.on(Input::Submit(request, g), input_now)
            }
            Action::Reply(b) => match self.next_reply(world, b) {
                Some(line) => {
                    note(format!("backend {b} → core: {line}"));
                    let effects = world.core.on(Input::Line(b, &line), input_now);
                    reply = Some((b, line));
                    effects
                }
                None => {
                    note(format!("backend {b} dies"));
                    world.backends[b].dead = true;
                    world.backends[b].out.clear();
                    let effects = world.core.on(Input::Death(b), input_now);
                    if let Some((subid, _)) = world.core.dispatched().find(|&(_, h)| h == b) {
                        return Err(format!("x{subid} stays on backend {b} after its death"));
                    }
                    effects
                }
            },
            Action::Tick => {
                world.ticks += 1;
                note(format!("watchdog tick at {} ms", world.ticks * 100));
                world.core.on(Input::Tick, self.now(world))
            }
            Action::Cancel(g) => {
                world.cancelled[g] = true;
                note(format!("client cancels grid {g}"));
                world.core.on(Input::Cancel(g), input_now)
            }
            Action::Shutdown => {
                let mode = self.scenario.shutdown.unwrap_or_default();
                note(format!("client sends shutdown mode={mode}"));
                world.shutdown = Some(false);
                world.core.on(Input::Shutdown(mode), input_now)
            }
        };
        let now_ms = u64::from(world.ticks) * 100;
        let mut written = Vec::new();
        for effect in effects {
            match effect {
                Effect::Settle(g, events) => {
                    note(format!("core settles grid {g}: {events:?}"));
                    self.settle(world, g, events)?;
                }
                Effect::Forward(mode) => {
                    note(format!("core forwards shutdown mode={mode}"));
                    if mode == ShutdownMode::Drain && world.core.pending_points() > 0 {
                        return Err("a drain shutdown was forwarded with grids pending".into());
                    }
                    world.shutdown = Some(true);
                    for backend in &mut world.backends {
                        backend.stopping = true;
                        for out in &mut backend.out {
                            if let Out::Job {
                                stop: stop @ None, ..
                            } = out
                            {
                                if mode == ShutdownMode::Abort {
                                    *stop = Some(Stop::Aborted);
                                }
                            }
                        }
                    }
                }
                Effect::Write(b) => written.push(b),
                Effect::Drop(_) => {}
            }
        }
        let held_after: Vec<(u64, usize)> = world.core.dispatched().collect();
        if action == Action::Tick {
            for &(subid, b) in &held_before {
                if held_after.contains(&(subid, b)) {
                    continue;
                }
                let silent = world.ticks - world.heard.get(&subid).copied().unwrap_or(0);
                if TICK * silent < RETRY {
                    return Err(format!(
                        "x{subid} was reclaimed from backend {b} after {} ms of silence",
                        silent * 100
                    ));
                }
            }
        }
        if let Some((b, line)) = reply {
            self.check_reply(world, b, &line, &held_before, &held_after)?;
        }
        // What the core queued in this step reaches each backend in order,
        // as the shell writes it.
        for b in 0..world.backends.len() {
            let output = world.core.take_output(b);
            if !output.is_empty() && !written.contains(&b) {
                return Err(format!(
                    "lines were queued for backend {b} with no write effect"
                ));
            }
            for line in output.lines() {
                note(format!("core → backend {b}: {line}"));
                self.check_queued(world, b, line, &fully_settled, now_ms)?;
                self.deliver(world, b, line);
            }
        }
        Ok(())
    }

    /// Checks a line the core queued for backend `b` and records it.
    fn check_queued(
        &self,
        world: &mut World,
        b: usize,
        line: &str,
        fully_settled: &[bool],
        now_ms: u64,
    ) -> Result<(), String> {
        let (id, grid) = match parse_request(line) {
            Ok(Request::Sweep(sub)) => {
                let grid = self
                    .scenario
                    .grids
                    .iter()
                    .position(|g| g.request.iterations == sub.iterations)
                    .ok_or_else(|| format!("a sweep line for no grid: {line}"))?;
                if world.refused.contains(&(grid, b)) {
                    return Err(format!(
                        "grid {grid} was resent to backend {b}, which refused it"
                    ));
                }
                if now_ms < world.busy_until[grid] {
                    return Err(format!(
                        "grid {grid} was resent at {now_ms} ms, before its busy backend's \
                         hint at {} ms",
                        world.busy_until[grid]
                    ));
                }
                let subid = sub.id.trim_start_matches('x').parse().unwrap_or(0);
                world.heard.insert(subid, world.ticks);
                world.subids.insert(sub.id.clone(), grid);
                (sub.id, grid)
            }
            Ok(Request::Cancel { id }) => {
                let grid = world.subids.get(&id).copied();
                (
                    id,
                    grid.ok_or_else(|| format!("a cancel for no subrequest: {line}"))?,
                )
            }
            _ => return Err(format!("the core queued a line no backend reads: {line}")),
        };
        if fully_settled[grid] {
            return Err(format!(
                "{id} was written after grid {grid} had fully settled"
            ));
        }
        Ok(())
    }

    /// Checks what the core did with backend `b`'s `line`.
    fn check_reply(
        &self,
        world: &mut World,
        b: usize,
        line: &str,
        held_before: &[(u64, usize)],
        held_after: &[(u64, usize)],
    ) -> Result<(), String> {
        let response = parse_response_model(line);
        let Some((id, kind)) = response else {
            return Ok(());
        };
        let subid: u64 = id.trim_start_matches('x').parse().unwrap_or(0);
        if !held_before.contains(&(subid, b)) {
            return Ok(());
        }
        let grid = world.subids.get(&id).copied().unwrap_or(0);
        match kind {
            Kind::Progress => {
                world.heard.insert(subid, world.ticks);
            }
            Kind::Refusal => {
                world.refused.insert((grid, b));
                if held_after.contains(&(subid, b)) {
                    return Err(format!("{id} stays on backend {b} after its refusal"));
                }
            }
            Kind::Busy => {
                world.busy_until[grid] = u64::from(world.ticks) * 100 + BUSY_HINT_MS;
            }
        }
        Ok(())
    }

    /// Records one settlement message for grid `g`.
    fn settle(&self, world: &mut World, g: usize, events: Vec<SweepEvent>) -> Result<(), String> {
        let points = world
            .settled
            .get_mut(g)
            .ok_or_else(|| format!("a settlement for unknown route {g}"))?;
        for event in events {
            let (index, how) = match event {
                SweepEvent::Point(point) => {
                    if point.cycles != cycles(g, point.index) {
                        return Err(format!(
                            "grid {g} point {} delivered {} cycles, its backend reported {}",
                            point.index,
                            point.cycles,
                            cycles(g, point.index)
                        ));
                    }
                    (point.index, Settled::Delivered)
                }
                SweepEvent::Skipped { index } => (index, Settled::Dropped),
                SweepEvent::Aborted { index } => (index, Settled::Aborted),
                SweepEvent::Failed { index, .. } => (index, Settled::Failed),
            };
            let slot = points
                .get_mut(index)
                .ok_or_else(|| format!("grid {g} settled point {index}, outside the grid"))?;
            if slot.replace(how).is_some() {
                return Err(format!("grid {g} point {index} settled twice"));
            }
        }
        Ok(())
    }

    /// The line backend `b` sends next; `None` when it dies instead.
    fn next_reply(&self, world: &mut World, b: usize) -> Option<String> {
        let backend = &mut world.backends[b];
        let dies_at = match backend.behaviour {
            Behaviour::Dies(k) => Some(k),
            _ => None,
        };
        match backend.out.front_mut()? {
            Out::Line(_) => match backend.out.pop_front() {
                Some(Out::Line(line)) => Some(line),
                _ => None,
            },
            Out::Job {
                subid,
                grid,
                next,
                stop,
            } => {
                let points = self.scenario.grids[*grid].points;
                let (subid, grid) = (subid.clone(), *grid);
                if stop.is_none() && *next < points {
                    if dies_at.is_some_and(|k| backend.points_sent >= k) {
                        return None;
                    }
                    let (index, request) = (*next, &self.scenario.grids[grid].request);
                    *next += 1;
                    backend.points_sent += 1;
                    let (machine, window, md) = request.grid().nth(index)?;
                    let point = Response::Point {
                        id: subid,
                        index,
                        machine,
                        window,
                        md,
                        cycles: cycles(grid, index),
                    };
                    return Some(point.to_string());
                }
                if dies_at.is_some() {
                    return None;
                }
                let (sent, stop) = (*next, *stop);
                backend.out.pop_front();
                let rest = points - sent;
                let (dropped, aborted) = match stop {
                    Some(Stop::Aborted) => (0, rest),
                    Some(Stop::Cancelled) => (rest, 0),
                    None => (0, 0),
                };
                let done = Response::Done {
                    id: subid,
                    points,
                    delivered: sent,
                    dropped,
                    aborted,
                    failed: 0,
                    cached: 0,
                    status: match stop {
                        None => DoneStatus::Ok,
                        Some(_) => DoneStatus::Cancelled,
                    },
                };
                Some(done.to_string())
            }
        }
    }

    /// Backend `b` reads one line the core wrote to it.
    fn deliver(&self, world: &mut World, b: usize, line: &str) {
        let backend = &mut world.backends[b];
        if backend.dead {
            return;
        }
        match parse_request(line) {
            Ok(Request::Sweep(sub)) => {
                let id = sub.id.clone();
                let reply = |message: &str| Out::Line(format!("error id={id} msg={message}"));
                let grid = self
                    .scenario
                    .grids
                    .iter()
                    .position(|g| g.request.iterations == sub.iterations)
                    .unwrap_or(0);
                let job = Out::Job {
                    subid: sub.id.clone(),
                    grid,
                    next: 0,
                    stop: None,
                };
                match backend.behaviour {
                    _ if backend.stopping => backend.out.push_back(reply(REFUSAL)),
                    Behaviour::Refuses => backend.out.push_back(reply(REFUSAL)),
                    Behaviour::Silent => {}
                    Behaviour::Busy if !backend.busy_used => {
                        backend.busy_used = true;
                        let busy = format!(
                            "busy id={} queued=1 limit=1 retry_after_ms={BUSY_HINT_MS}",
                            sub.id
                        );
                        backend.out.push_back(Out::Line(busy));
                    }
                    _ => backend.out.push_back(job),
                }
            }
            Ok(Request::Cancel { id }) => {
                let active = backend.out.iter_mut().find_map(|out| match out {
                    Out::Job { subid, stop, .. } if *subid == id => Some(stop),
                    _ => None,
                });
                match active {
                    Some(stop) => {
                        stop.get_or_insert(Stop::Cancelled);
                    }
                    None if backend.behaviour != Behaviour::Silent => {
                        let error = format!("error id={id} msg=no such active request");
                        backend.out.push_back(Out::Line(error));
                    }
                    None => {}
                }
            }
            _ => {}
        }
    }

    /// The terminal-state checks.
    fn check_terminal(&self, world: &World) -> Result<(), String> {
        for (g, points) in world.settled.iter().enumerate() {
            if points.iter().any(Option::is_none) {
                return Err(format!("grid {g} never fully settled: {points:?}"));
            }
            let count = |how| points.iter().filter(|&&p| p == Some(how)).count();
            let sum = count(Settled::Delivered)
                + count(Settled::Dropped)
                + count(Settled::Aborted)
                + count(Settled::Failed);
            if sum != self.scenario.grids[g].points {
                return Err(format!(
                    "grid {g}: delivered + dropped + aborted + failed != points"
                ));
            }
        }
        if world.core.pending_points() != 0 {
            return Err("points stay pending in a terminal state".into());
        }
        Ok(())
    }

    /// Replays `actions` from the root; the index and message of the first
    /// violation, if any, and the event log.
    fn replay(&self, actions: &[Action]) -> (Option<(usize, String)>, Vec<String>) {
        let mut world = self.root();
        let mut log = Vec::new();
        for (i, &action) in actions.iter().enumerate() {
            if !self.enabled(&world).contains(&action) {
                return (None, log);
            }
            if let Err(message) = self.apply(&mut world, action, Some(&mut log)) {
                return (Some((i, message)), log);
            }
        }
        if self.enabled(&world).is_empty() {
            if let Err(message) = self.check_terminal(&world) {
                return (Some((actions.len(), message)), log);
            }
        }
        (None, log)
    }

    /// Drops every action whose removal still fails, until none can go.
    fn shrink(&self, mut actions: Vec<Action>) -> Vec<Action> {
        let mut i = 0;
        while i < actions.len() {
            let mut shorter = actions.clone();
            shorter.remove(i);
            match self.replay(&shorter) {
                (Some((at, _)), _) => {
                    shorter.truncate(at + 1);
                    actions = shorter;
                    i = 0;
                }
                (None, _) => i += 1,
            }
        }
        actions
    }

    /// Explores every interleaving; the number of states visited, or the
    /// report of the first violation.
    fn explore(&self) -> Result<usize, String> {
        let root = self.root();
        let mut visited = HashSet::new();
        visited.insert(fingerprint(&root));
        let mut stack = vec![(self.enabled(&root), 0, root)];
        let mut path: Vec<Action> = Vec::new();
        while let Some((actions, next, world)) = stack.last_mut() {
            let Some(&action) = actions.get(*next) else {
                stack.pop();
                path.pop();
                continue;
            };
            *next += 1;
            let mut child = world.clone();
            path.push(action);
            let mut outcome = self.apply(&mut child, action, None);
            let fresh = outcome.is_ok() && visited.insert(fingerprint(&child));
            let enabled = if fresh {
                self.enabled(&child)
            } else {
                Vec::new()
            };
            if fresh && enabled.is_empty() {
                outcome = self.check_terminal(&child);
            }
            if let Err(message) = outcome {
                return Err(self.report(&path, &message));
            }
            if fresh {
                stack.push((enabled, 0, child));
            } else {
                path.pop();
            }
        }
        Ok(visited.len())
    }

    /// The scenario, the violation and a shrunk input sequence.
    fn report(&self, path: &[Action], message: &str) -> String {
        let shrunk = self.shrink(path.to_vec());
        let (found, log) = self.replay(&shrunk);
        let message = found.map_or(message.to_string(), |(_, m)| m);
        let mut report = format!(
            "{message}\nscenario: {self}\ninput sequence ({} steps, shrunk from {}):\n",
            shrunk.len(),
            path.len()
        );
        for line in log {
            report.push_str(&format!("  {line}\n"));
        }
        report
    }
}

impl fmt::Display for Checker<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.scenario;
        write!(f, "backends {:?}", s.behaviours)?;
        for (g, grid) in s.grids.iter().enumerate() {
            write!(f, ", grid {g}: {}", grid.request)?;
        }
        write!(f, ", shutdown {:?}", s.shutdown)
    }
}

/// What a backend line means to the checks.
enum Kind {
    Progress,
    Refusal,
    Busy,
}

/// A backend line's subrequest id and kind, if it names one.
fn parse_response_model(line: &str) -> Option<(String, Kind)> {
    Some(match dae_serve::parse_response(line).ok()? {
        Response::Point { id, .. } => (id, Kind::Progress),
        Response::Error {
            id: Some(id),
            message,
        } => match message.starts_with("point ") {
            true => (id, Kind::Progress),
            false => (id, Kind::Refusal),
        },
        Response::Busy { id, .. } => (id, Kind::Busy),
        _ => return None,
    })
}

/// A 64-bit digest of a state: the visited set keeps digests, not states
/// (hash compaction; at a million states a collision, which would prune
/// one unexplored state, has odds of about 1 in 10^7).
fn fingerprint(world: &World) -> u64 {
    let mut hasher = FxHasher::default();
    world.hash(&mut hasher);
    hasher.finish()
}

/// A `points`-point grid over TRFD whose placement digest puts it on
/// backend `owner` of an `n`-backend ring of one vnode each, with an
/// iteration count no other grid uses.
fn grid_on(owner: usize, n: usize, points: usize, taken: &[GridSpec]) -> GridSpec {
    let ring = Partitioner::with_vnodes(n, 1);
    let mds: Vec<String> = (0..points).map(|i| (i * 60).to_string()).collect();
    for iterations in 1.. {
        let line = format!(
            "sweep id=client trace=TRFD iterations={iterations} machines=dm windows=8 mds={}",
            mds.join(",")
        );
        let Ok(Request::Sweep(request)) = parse_request(&line) else {
            panic!("not a sweep: {line}");
        };
        let unused = !taken.iter().any(|g| g.request.iterations == iterations);
        if unused && ring.assign(request.placement_digest()) == Some(owner) {
            return GridSpec { request, points };
        }
    }
    unreachable!("some iteration count lands on every backend")
}

/// The behaviours a model backend can have.
const BEHAVIOURS: [Behaviour; 7] = [
    Behaviour::All,
    Behaviour::Dies(0),
    Behaviour::Dies(1),
    Behaviour::Dies(3),
    Behaviour::Refuses,
    Behaviour::Silent,
    Behaviour::Busy,
];

/// The fleets of `n` backends over `behaviours`, in every order.  A grid
/// on a silent backend completes only if a backend that answers is left
/// to take it, so a fleet with a silent backend has one that answers.
fn fleets(n: usize, behaviours: &[Behaviour]) -> Vec<Vec<Behaviour>> {
    let mut fleets: Vec<Vec<Behaviour>> = vec![Vec::new()];
    for _ in 0..n {
        let grown = fleets.iter().flat_map(|fleet| {
            behaviours
                .iter()
                .map(|&b| [fleet.as_slice(), &[b]].concat())
        });
        fleets = grown.collect();
    }
    fleets.retain(|fleet| {
        let silent = fleet.iter().filter(|&&b| b == Behaviour::Silent).count();
        let answers = fleet
            .iter()
            .any(|&b| matches!(b, Behaviour::All | Behaviour::Busy));
        silent == 0 || answers
    });
    fleets
}

/// One scenario per fleet and shutdown mode, with grids of `points`
/// points owned by backends `owners` on the ring.
fn scenarios(
    fleets: &[Vec<Behaviour>],
    shutdowns: &[Option<ShutdownMode>],
    grids: &[(usize, usize)],
) -> Vec<Scenario> {
    let mut scenarios = Vec::new();
    for fleet in fleets {
        let mut specs = Vec::new();
        for &(owner, points) in grids {
            let spec = grid_on(owner, fleet.len(), points, &specs);
            specs.push(spec);
        }
        for &shutdown in shutdowns {
            scenarios.push(Scenario {
                behaviours: fleet.clone(),
                grids: specs.clone(),
                shutdown,
            });
        }
    }
    scenarios
}

/// Explores every scenario and prints how many states that took; panics
/// with the first violation's report.
fn check_all(name: &str, scenarios: &[Scenario]) {
    let (base, started) = (Instant::now(), Instant::now());
    let mut states = 0;
    for scenario in scenarios {
        match (Checker { scenario, base }).explore() {
            Ok(visited) => states += visited,
            Err(report) => panic!("{name}: {report}"),
        }
    }
    println!(
        "route_check {name}: {} scenarios, {states} states visited in {:.1?}",
        scenarios.len(),
        started.elapsed()
    );
}

const SHUTDOWNS: [Option<ShutdownMode>; 3] =
    [None, Some(ShutdownMode::Drain), Some(ShutdownMode::Abort)];

/// Two backends of every behaviour, one three-point grid, and every
/// shutdown mode.
#[test]
fn one_grid_over_two_backends() {
    check_all(
        "1 grid, 2 backends",
        &scenarios(&fleets(2, &BEHAVIOURS), &SHUTDOWNS, &[(0, 3)]),
    );
}

/// Two grids, on different backends and on one, over two backends.
#[test]
fn two_grids_over_two_backends() {
    let fleets = fleets(2, &BEHAVIOURS);
    let mut all = scenarios(&fleets, &[None], &[(0, 2), (1, 1)]);
    all.extend(scenarios(&fleets, &[None], &[(0, 2), (0, 1)]));
    check_all("2 grids, 2 backends", &all);
}

/// Three backends, the third answering everything, one two-point grid.
#[test]
fn one_grid_over_three_backends() {
    let fleets = fleets(3, &BEHAVIOURS);
    check_all(
        "1 grid, 3 backends",
        &scenarios(&fleets, &SHUTDOWNS, &[(0, 2)]),
    );
}
