//! The wire format of the sweep server.
//!
//! Everything is newline-delimited UTF-8 text in a hand-written line format
//! (see `docs/PROTOCOL.md` for the full specification and a worked
//! transcript).  A request or response is one line; fields are
//! space-separated `key=value` tokens after a leading verb, and only the
//! trailing `msg=` field of an error may contain spaces.
//!
//! This module is the single source of truth for both directions: the
//! server parses [`Request`]s and prints [`Response`]s, and clients (the
//! end-to-end example, the tests, the smoke script) print requests and
//! parse responses through the same types, so the two sides cannot drift.

use dae_core::{Machine, Priority, SweepPoint, TraceId, WindowSpec};
use dae_isa::Cycle;
use dae_mem::FxHasher;
use dae_trace::{expand, Trace};
use dae_workloads::{
    gather_scatter, pointer_chase, reduction, stencil, stream, PerfectProgram, Workload,
};
use std::fmt;
use std::hash::Hasher;

/// The largest accepted `iterations=` value: a million iterations of a
/// ten-statement kernel is a ~10M-instruction trace per simulation — far
/// beyond any figure of the paper, and a sensible ceiling for a shared
/// server.
pub(crate) const MAX_ITERATIONS: u64 = 1_000_000;

/// The largest accepted memory differential in `mds=`, in cycles: far above
/// any figure of the paper (60) or client of this crate, and low enough
/// that the simulators' cycle arithmetic cannot overflow.
const MAX_MD: Cycle = 1_000_000;

/// The largest accepted grid (`machines × windows × mds`) per request;
/// bigger studies split into several requests and interleave naturally.
pub(crate) const MAX_POINTS: usize = 65_536;

/// The default `iterations=` when a request omits the field (the quick
/// experiment configuration's trace length).
pub(crate) const DEFAULT_ITERATIONS: u64 = 300;

/// How a request wants its results delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeliveryMode {
    /// `point` lines are written the moment each worker finishes
    /// (completion order — the no-barrier shape).
    #[default]
    Stream,
    /// `point` lines are written together, in grid order, once the whole
    /// grid has completed.
    Batch,
}

impl DeliveryMode {
    fn token(self) -> &'static str {
        match self {
            DeliveryMode::Stream => "stream",
            DeliveryMode::Batch => "batch",
        }
    }
}

/// How a `shutdown` request treats in-flight work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShutdownMode {
    /// Stop admitting requests, let in-flight sweeps finish (default).
    #[default]
    Drain,
    /// Stop admitting requests and cancel every in-flight sweep (their
    /// `done` lines still arrive, with cancelled/timeout accounting).
    Abort,
}

impl ShutdownMode {
    fn token(self) -> &'static str {
        match self {
            ShutdownMode::Drain => "drain",
            ShutdownMode::Abort => "abort",
        }
    }
}

impl fmt::Display for ShutdownMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// The terminal status of a request, reported on its `done` line.
///
/// One status per request, by severity: a deadline expiry reports
/// `timeout` even if points also failed; failures outrank a plain client
/// cancellation; `cancelled` covers client `cancel` lines, dead-client
/// cleanup and shutdown aborts; `ok` means every point was delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DoneStatus {
    /// Every point of the grid was delivered.
    #[default]
    Ok,
    /// The request was cancelled (client `cancel`, dead client, shutdown).
    Cancelled,
    /// The request's `deadline_ms` expired before the grid finished.
    Timeout,
    /// At least one point's simulation failed (worker panic).
    Error,
}

impl DoneStatus {
    fn token(self) -> &'static str {
        match self {
            DoneStatus::Ok => "ok",
            DoneStatus::Cancelled => "cancelled",
            DoneStatus::Timeout => "timeout",
            DoneStatus::Error => "error",
        }
    }

    fn parse(token: &str) -> Result<Self, String> {
        match token {
            "ok" => Ok(DoneStatus::Ok),
            "cancelled" => Ok(DoneStatus::Cancelled),
            "timeout" => Ok(DoneStatus::Timeout),
            "error" => Ok(DoneStatus::Error),
            other => Err(format!("unknown done status '{other}'")),
        }
    }
}

impl fmt::Display for DoneStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// What a sweep request simulates: a named workload or an inline kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceSource {
    /// One of the seven PERFECT Club workload models (`trace=TRFD`, …).
    Perfect(PerfectProgram),
    /// A named synthetic workload (`trace=stream`, `trace=stencil`, …);
    /// the stored name is normalised to lowercase.
    Synthetic(String),
    /// An inline kernel specification (`kernel=i;ld:%0;…`); the grammar
    /// is documented in `docs/PROTOCOL.md`.
    Inline(String),
}

impl TraceSource {
    /// A canonical identity string: requests with equal keys (at equal
    /// iteration counts) share one pinned lowering — and therefore the
    /// session's sweep-result cache — on the server.
    #[must_use]
    pub(crate) fn key(&self) -> String {
        match self {
            TraceSource::Perfect(p) => format!("perfect:{}", p.name()),
            TraceSource::Synthetic(name) => format!("synthetic:{name}"),
            TraceSource::Inline(spec) => format!("kernel:{spec}"),
        }
    }

    /// Expands the source into a trace of `iterations` iterations.
    ///
    /// # Errors
    ///
    /// An inline kernel that fails validation reports the builder's error,
    /// and a synthetic name that no longer resolves (a `TraceSource` built
    /// by hand rather than through `parse_request`'s normalisation)
    /// reports the unknown name.
    pub fn trace(&self, iterations: u64) -> Result<Trace, String> {
        match self {
            TraceSource::Perfect(p) => Ok(p.workload().trace(iterations)),
            TraceSource::Synthetic(name) => Ok(synthetic_by_name(name)
                .ok_or_else(|| format!("unknown synthetic trace '{name}'"))?
                .trace(iterations)),
            TraceSource::Inline(spec) => Ok(expand(&parse_kernel(spec)?, iterations)),
        }
    }

    fn request_field(&self) -> String {
        match self {
            TraceSource::Perfect(p) => format!("trace={}", p.name()),
            TraceSource::Synthetic(name) => format!("trace={name}"),
            TraceSource::Inline(spec) => format!("kernel={spec}"),
        }
    }
}

/// The named synthetic workloads the server accepts besides the PERFECT
/// suite.  Names are canonical (hyphenated, lowercase); `parse_request`
/// normalises aliases *before* the name reaches [`TraceSource`], so
/// `pointer_chase` and `pointer-chase` share one key — and therefore one
/// pinned lowering and one set of cache entries — on the server.
fn synthetic_by_name(name: &str) -> Option<Workload> {
    match name {
        "stream" => Some(stream()),
        "stencil" => Some(stencil()),
        "pointer-chase" => Some(pointer_chase()),
        "reduction" => Some(reduction()),
        "gather-scatter" => Some(gather_scatter()),
        _ => None,
    }
}

/// One parsed `sweep` request: a grid of (machine × window × MD) points
/// against one trace source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepRequest {
    /// The client-chosen request tag echoed on every response line.
    pub id: String,
    /// What to simulate.
    pub source: TraceSource,
    /// Trace length in kernel iterations.
    pub iterations: u64,
    /// The machines of the grid.
    pub machines: Vec<Machine>,
    /// The window sizes of the grid.
    pub windows: Vec<WindowSpec>,
    /// The memory differentials of the grid.
    pub mds: Vec<Cycle>,
    /// Result delivery shape.
    pub mode: DeliveryMode,
    /// Wall-clock budget in milliseconds: when it expires the server
    /// cancels the remaining points (mid-simulation included), delivers
    /// what finished, and closes the request with `status=timeout`.
    /// `None` means no deadline.
    pub deadline_ms: Option<u64>,
    /// The scheduling band the request's point jobs enter on the worker
    /// pool: `interactive` jumps every queued bulk grid, `bulk` yields to
    /// everyone else.  Defaults to [`Priority::Normal`]; within a band,
    /// concurrent clients are served round-robin.
    pub priority: Priority,
}

impl SweepRequest {
    /// The request's grid in canonical order — machines outermost, then
    /// windows, then memory differentials.  `point` responses carry this
    /// order's index, on a single server and through the coordinator alike.
    pub fn grid(&self) -> impl ExactSizeIterator<Item = (Machine, WindowSpec, Cycle)> + '_ {
        (0..self.machines.len() * self.windows.len() * self.mds.len()).map(|i| self.coordinate(i))
    }

    /// The `(machine, window, md)` at `index` of the canonical grid order:
    /// row-major over (machine, window, md), in O(1).
    pub(crate) fn coordinate(&self, index: usize) -> (Machine, WindowSpec, Cycle) {
        let (windows, mds) = (self.windows.len(), self.mds.len());
        (
            self.machines[index / (windows * mds)],
            self.windows[index / mds % windows],
            self.mds[index % mds],
        )
    }

    /// The shard placement digest of this request: an `FxHasher` over the
    /// trace source's identity key and the iteration count — the
    /// construction of [`dae_core::cache_key_digest`], over the request
    /// text instead of the lowered program.  Id, grid (machines, windows,
    /// MDs), mode, priority and deadline do not enter it, so a grid lands
    /// where the same program landed before, whatever points it asks for.
    /// Two spellings of one trace that parse to the same [`TraceSource`]
    /// (`trace=trfd`, `trace=TRFD`) share a digest; two spellings of one
    /// inline kernel may not.
    #[must_use]
    pub fn placement_digest(&self) -> u64 {
        let mut hasher = FxHasher::default();
        hasher.write(self.source.key().as_bytes());
        hasher.write_u64(self.iterations);
        hasher.finish()
    }

    /// The canonical grid ([`SweepRequest::grid`]) addressed at the pinned
    /// lowering `id`.
    #[must_use]
    pub fn points(&self, id: TraceId) -> Vec<SweepPoint> {
        self.grid()
            .map(|(machine, window, md)| (id, machine, window, md))
            .collect()
    }
}

impl fmt::Display for SweepRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sweep id={} {} iterations={} machines={} windows={} mds={} mode={}",
            self.id,
            self.source.request_field(),
            self.iterations,
            join(self.machines.iter().map(|&m| machine_token(m).to_string())),
            join(self.windows.iter().map(window_token)),
            join(self.mds.iter().map(Cycle::to_string)),
            self.mode.token(),
        )?;
        if let Some(deadline) = self.deadline_ms {
            write!(f, " deadline_ms={deadline}")?;
        }
        // The default band is elided so pre-priority request lines print
        // (and golden transcripts diff) unchanged.
        if self.priority != Priority::Normal {
            write!(f, " priority={}", self.priority)?;
        }
        Ok(())
    }
}

/// What a `cache` request does to the server's sweep-result cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheAction {
    /// `cache clear`: empty the cache (and truncate the persistent log,
    /// when one is attached).  In-flight sweeps are fenced out — results
    /// computed before the clear cannot repopulate it.
    Clear,
    /// `cache limit=N` / `cache limit=none`: bound the cache to at most
    /// `N` resident entries (evicting down immediately), or lift the
    /// bound.
    Limit(Option<usize>),
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Submit a sweep grid.
    Sweep(SweepRequest),
    /// Cancel an active sweep: pending points are dropped, the `done` line
    /// still arrives with the dropped count.
    Cancel {
        /// The id of the request to cancel.
        id: String,
    },
    /// Ask for the server's session / cache / pool counters.
    Stats,
    /// Administer the sweep-result cache.
    Cache {
        /// What to do to it.
        action: CacheAction,
    },
    /// Stop admitting new sweeps and shut the server down, draining or
    /// aborting in-flight work.
    Shutdown {
        /// What happens to in-flight sweeps.
        mode: ShutdownMode,
    },
}

/// A rejected request line: the reply carries the request id when one was
/// recovered from the line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// The `id=` field of the offending line, if it parsed.
    pub id: Option<String>,
    /// What was wrong.
    pub message: String,
}

impl RequestError {
    fn new(id: Option<&str>, message: impl Into<String>) -> Self {
        RequestError {
            id: id.map(str::to_string),
            message: message.into(),
        }
    }
}

/// One response line, as written by the server and parsed by clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// One finished sweep point.
    Point {
        /// The request the point belongs to.
        id: String,
        /// The point's index in the request's canonical grid order.
        index: usize,
        /// The machine of the point.
        machine: Machine,
        /// The window of the point.
        window: WindowSpec,
        /// The memory differential of the point.
        md: Cycle,
        /// The simulated (or cached) execution time.
        cycles: Cycle,
    },
    /// A request finished.  The accounting always balances —
    /// `delivered + dropped + aborted + failed == points` — and `cached`
    /// counts delivered points answered from the sweep-result cache.
    Done {
        /// The finished request.
        id: String,
        /// Grid size.
        points: usize,
        /// Points delivered as `point` lines.
        delivered: usize,
        /// Points dropped by cancellation before their simulation started.
        dropped: usize,
        /// Points cooperatively aborted mid-simulation.
        aborted: usize,
        /// Points whose simulation failed (worker panic, isolated to this
        /// request).
        failed: usize,
        /// Delivered points that came from the cache.
        cached: u64,
        /// The request's terminal status.
        status: DoneStatus,
    },
    /// Acknowledgement that a cancel was applied (the `done` line of the
    /// cancelled request follows separately).
    Cancelled {
        /// The request being cancelled.
        id: String,
    },
    /// A sweep was refused by admission control: the server (or this
    /// client) already has too much queued.  Nothing was submitted; retry
    /// after the hinted delay.
    Busy {
        /// The refused request.
        id: String,
        /// Points currently queued against the exceeded limit.
        queued: usize,
        /// The limit that refused the request.
        limit: usize,
        /// A retry hint, in milliseconds.
        retry_after_ms: u64,
    },
    /// A rejected request or server-side failure.
    Error {
        /// The offending request, when known.
        id: Option<String>,
        /// Human-readable reason (the only field that may contain spaces).
        message: String,
    },
    /// The reply to `stats`: named monotone counters.
    Stats {
        /// `(name, value)` pairs, in the server's canonical order.
        fields: Vec<(String, u64)>,
    },
    /// Acknowledgement of a `cache` request: the cache's state after the
    /// action was applied.
    Cache {
        /// Resident entries after the action.
        entries: usize,
        /// The bound in force (`None` = unbounded).
        limit: Option<usize>,
    },
    /// Acknowledgement of a `shutdown` request: the server stops admitting
    /// sweeps and will exit once in-flight work settles.
    Shutdown {
        /// The mode that was applied to in-flight work.
        mode: ShutdownMode,
    },
}

impl fmt::Display for Response {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Response::Point {
                id,
                index,
                machine,
                window,
                md,
                cycles,
            } => write!(
                f,
                "point id={id} index={index} machine={} window={} md={md} cycles={cycles}",
                machine_token(*machine),
                window_token(window),
            ),
            Response::Done {
                id,
                points,
                delivered,
                dropped,
                aborted,
                failed,
                cached,
                status,
            } => write!(
                f,
                "done id={id} points={points} delivered={delivered} dropped={dropped} \
                 aborted={aborted} failed={failed} cached={cached} status={}",
                status.token()
            ),
            Response::Cancelled { id } => write!(f, "cancelled id={id}"),
            Response::Busy {
                id,
                queued,
                limit,
                retry_after_ms,
            } => write!(
                f,
                "busy id={id} queued={queued} limit={limit} retry_after_ms={retry_after_ms}"
            ),
            Response::Error { id, message } => match id {
                Some(id) => write!(f, "error id={id} msg={message}"),
                None => write!(f, "error msg={message}"),
            },
            Response::Stats { fields } => {
                f.write_str("stats")?;
                for (name, value) in fields {
                    write!(f, " {name}={value}")?;
                }
                Ok(())
            }
            Response::Cache { entries, limit } => {
                write!(f, "cache entries={entries} limit=")?;
                match limit {
                    Some(limit) => write!(f, "{limit}"),
                    None => f.write_str("none"),
                }
            }
            Response::Shutdown { mode } => write!(f, "shutdown mode={}", mode.token()),
        }
    }
}

fn join(items: impl Iterator<Item = String>) -> String {
    items.collect::<Vec<_>>().join(",")
}

/// The protocol token of a machine (`dm` / `swsm` / `scalar`).
#[must_use]
pub(crate) fn machine_token(machine: Machine) -> &'static str {
    match machine {
        Machine::Decoupled => "dm",
        Machine::Superscalar => "swsm",
        Machine::Scalar => "scalar",
    }
}

fn parse_machine(token: &str) -> Result<Machine, String> {
    match token {
        "dm" => Ok(Machine::Decoupled),
        "swsm" => Ok(Machine::Superscalar),
        "scalar" => Ok(Machine::Scalar),
        other => Err(format!(
            "unknown machine '{other}' (expected dm, swsm or scalar)"
        )),
    }
}

/// The protocol token of a window (`32` / `inf`).
#[must_use]
pub(crate) fn window_token(window: &WindowSpec) -> String {
    match window {
        WindowSpec::Entries(n) => n.to_string(),
        WindowSpec::Unlimited => "inf".to_string(),
    }
}

fn parse_window(token: &str) -> Result<WindowSpec, String> {
    if token == "inf" {
        return Ok(WindowSpec::Unlimited);
    }
    match token.parse::<usize>() {
        Ok(n) if n > 0 => Ok(WindowSpec::Entries(n)),
        _ => Err(format!(
            "bad window '{token}' (expected a positive integer or 'inf')"
        )),
    }
}

/// Splits a request/response line into its verb and `key=value` fields.
fn fields(line: &str) -> (Option<&str>, Vec<(&str, &str)>) {
    let mut tokens = line.split_whitespace();
    let verb = tokens.next();
    let pairs = tokens.filter_map(|token| token.split_once('=')).collect();
    (verb, pairs)
}

fn lookup<'a>(pairs: &[(&str, &'a str)], key: &str) -> Option<&'a str> {
    pairs.iter().find(|&&(k, _)| k == key).map(|&(_, v)| v)
}

fn valid_id(id: &str) -> bool {
    !id.is_empty()
        && id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.'))
}

/// Parses one request line.
///
/// # Errors
///
/// Returns a [`RequestError`] (carrying the line's `id=` when one was
/// recovered) for unknown verbs, missing or malformed fields, and
/// over-limit grids.
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let (verb, pairs) = fields(line);
    let id = lookup(&pairs, "id");
    let err = |message: String| Err(RequestError::new(id, message));
    match verb {
        Some("stats") => Ok(Request::Stats),
        // `clear` is a bare token (not `key=value`), so the cache verb
        // inspects the raw second token as well as the parsed pairs.
        Some("cache") => match (line.split_whitespace().nth(1), lookup(&pairs, "limit")) {
            (Some("clear"), None) => Ok(Request::Cache {
                action: CacheAction::Clear,
            }),
            (_, Some("none")) => Ok(Request::Cache {
                action: CacheAction::Limit(None),
            }),
            (_, Some(token)) => match token.parse::<usize>() {
                Ok(n) if n > 0 => Ok(Request::Cache {
                    action: CacheAction::Limit(Some(n)),
                }),
                _ => err(format!(
                    "bad cache limit '{token}' (a positive integer or none)"
                )),
            },
            _ => err("cache needs 'clear' or limit=<N|none>".to_string()),
        },
        Some("shutdown") => match lookup(&pairs, "mode") {
            None | Some("drain") => Ok(Request::Shutdown {
                mode: ShutdownMode::Drain,
            }),
            Some("abort") => Ok(Request::Shutdown {
                mode: ShutdownMode::Abort,
            }),
            Some(other) => err(format!("bad shutdown mode '{other}' (drain or abort)")),
        },
        Some("cancel") => match id {
            Some(id) if valid_id(id) => Ok(Request::Cancel { id: id.to_string() }),
            _ => err("cancel needs id=<request-id>".to_string()),
        },
        Some("sweep") => {
            let Some(id_str) = id else {
                return err("sweep needs id=<request-id>".to_string());
            };
            if !valid_id(id_str) {
                return err(format!(
                    "bad id '{id_str}' (letters, digits, '_', '-', '.' only)"
                ));
            }
            let source = match (lookup(&pairs, "trace"), lookup(&pairs, "kernel")) {
                (Some(_), Some(_)) => {
                    return err("give either trace= or kernel=, not both".to_string())
                }
                (None, None) => return err("sweep needs trace=<name> or kernel=<spec>".to_string()),
                (Some(name), None) => match PerfectProgram::from_name(name) {
                    Some(p) => TraceSource::Perfect(p),
                    None => {
                        // Canonical form: lowercase, hyphenated — aliases
                        // must map to one identity key.
                        let canonical = name.to_ascii_lowercase().replace('_', "-");
                        if synthetic_by_name(&canonical).is_some() {
                            TraceSource::Synthetic(canonical)
                        } else {
                            return err(format!("unknown trace '{name}'"));
                        }
                    }
                },
                (None, Some(spec)) => {
                    // Validate eagerly so a bad kernel is rejected at parse
                    // time, before anything is pinned.
                    if let Err(e) = parse_kernel(spec) {
                        return err(format!("bad kernel: {e}"));
                    }
                    TraceSource::Inline(spec.to_string())
                }
            };
            let iterations = match lookup(&pairs, "iterations") {
                None => DEFAULT_ITERATIONS,
                Some(token) => match token.parse::<u64>() {
                    Ok(n) if (1..=MAX_ITERATIONS).contains(&n) => n,
                    _ => {
                        return err(format!(
                            "bad iterations '{token}' (expected 1..={MAX_ITERATIONS})"
                        ))
                    }
                },
            };
            let machines = match lookup(&pairs, "machines") {
                None => return err("sweep needs machines=<dm,swsm,scalar list>".to_string()),
                Some(list) => match list
                    .split(',')
                    .map(parse_machine)
                    .collect::<Result<Vec<_>, _>>()
                {
                    Ok(machines) if !machines.is_empty() => machines,
                    Ok(_) => return err("machines= must not be empty".to_string()),
                    Err(e) => return err(e),
                },
            };
            let windows = match lookup(&pairs, "windows") {
                None => return err("sweep needs windows=<size list>".to_string()),
                Some(list) => match list
                    .split(',')
                    .map(parse_window)
                    .collect::<Result<Vec<_>, _>>()
                {
                    Ok(windows) if !windows.is_empty() => windows,
                    Ok(_) => return err("windows= must not be empty".to_string()),
                    Err(e) => return err(e),
                },
            };
            let mds = match lookup(&pairs, "mds") {
                None => return err("sweep needs mds=<memory differential list>".to_string()),
                Some(list) => {
                    match list
                        .split(',')
                        .map(|t| match t.parse::<Cycle>() {
                            Ok(md) if md <= MAX_MD => Ok(md),
                            _ => Err(format!(
                                "bad memory differential '{t}' (expected 0..={MAX_MD})"
                            )),
                        })
                        .collect::<Result<Vec<_>, _>>()
                    {
                        Ok(mds) if !mds.is_empty() => mds,
                        Ok(_) => return err("mds= must not be empty".to_string()),
                        Err(e) => return err(e),
                    }
                }
            };
            let mode = match lookup(&pairs, "mode") {
                None | Some("stream") => DeliveryMode::Stream,
                Some("batch") => DeliveryMode::Batch,
                Some(other) => return err(format!("bad mode '{other}' (stream or batch)")),
            };
            let deadline_ms = match lookup(&pairs, "deadline_ms") {
                None => None,
                Some(token) => match token.parse::<u64>() {
                    Ok(ms) if ms > 0 => Some(ms),
                    _ => {
                        return err(format!(
                            "bad deadline_ms '{token}' (expected a positive integer)"
                        ))
                    }
                },
            };
            let priority = match lookup(&pairs, "priority") {
                None => Priority::Normal,
                Some(token) => match Priority::parse(token) {
                    Some(priority) => priority,
                    None => {
                        return err(format!(
                            "bad priority '{token}' (expected interactive, normal or bulk)"
                        ))
                    }
                },
            };
            // Checked product: huge (duplicate-laden) lists must hit the
            // cap, not wrap around it.
            let grid = machines
                .len()
                .checked_mul(windows.len())
                .and_then(|n| n.checked_mul(mds.len()));
            if grid.is_none_or(|g| g > MAX_POINTS) {
                return err(format!(
                    "grid of {} points exceeds the {MAX_POINTS} cap",
                    grid.map_or_else(|| "far too many".to_string(), |g| g.to_string())
                ));
            }
            Ok(Request::Sweep(SweepRequest {
                id: id_str.to_string(),
                source,
                iterations,
                machines,
                windows,
                mds,
                mode,
                deadline_ms,
                priority,
            }))
        }
        Some(other) => err(format!("unknown verb '{other}'")),
        None => err("empty request".to_string()),
    }
}

/// Parses one response line (the client half of the protocol).
///
/// # Errors
///
/// Returns a description of the malformed line.
pub fn parse_response(line: &str) -> Result<Response, String> {
    let (verb, pairs) = fields(line);
    let need = |key: &str| lookup(&pairs, key).ok_or_else(|| format!("missing {key}= in '{line}'"));
    let need_num = |key: &str| -> Result<u64, String> {
        need(key)?
            .parse::<u64>()
            .map_err(|_| format!("bad {key}= in '{line}'"))
    };
    match verb {
        Some("point") => Ok(Response::Point {
            id: need("id")?.to_string(),
            index: need_num("index")? as usize,
            machine: parse_machine(need("machine")?)?,
            window: parse_window(need("window")?)?,
            md: need_num("md")?,
            cycles: need_num("cycles")?,
        }),
        Some("done") => Ok(Response::Done {
            id: need("id")?.to_string(),
            points: need_num("points")? as usize,
            delivered: need_num("delivered")? as usize,
            dropped: need_num("dropped")? as usize,
            aborted: need_num("aborted")? as usize,
            failed: need_num("failed")? as usize,
            cached: need_num("cached")?,
            status: DoneStatus::parse(need("status")?)?,
        }),
        Some("cancelled") => Ok(Response::Cancelled {
            id: need("id")?.to_string(),
        }),
        Some("busy") => Ok(Response::Busy {
            id: need("id")?.to_string(),
            queued: need_num("queued")? as usize,
            limit: need_num("limit")? as usize,
            retry_after_ms: need_num("retry_after_ms")?,
        }),
        Some("cache") => Ok(Response::Cache {
            entries: need_num("entries")? as usize,
            limit: match need("limit")? {
                "none" => None,
                token => Some(
                    token
                        .parse::<usize>()
                        .map_err(|_| format!("bad limit= in '{line}'"))?,
                ),
            },
        }),
        Some("shutdown") => match need("mode")? {
            "drain" => Ok(Response::Shutdown {
                mode: ShutdownMode::Drain,
            }),
            "abort" => Ok(Response::Shutdown {
                mode: ShutdownMode::Abort,
            }),
            other => Err(format!("unknown shutdown mode '{other}'")),
        },
        Some("error") => {
            let (head, message) = line
                .split_once("msg=")
                .ok_or_else(|| format!("missing msg= in '{line}'"))?;
            // Only the fields *before* msg= belong to the frame: the
            // free-text message may itself contain `id=` tokens (e.g.
            // "cancel needs id=<request-id>").
            let (_, head_pairs) = fields(head);
            Ok(Response::Error {
                id: lookup(&head_pairs, "id").map(str::to_string),
                message: message.to_string(),
            })
        }
        Some("stats") => Ok(Response::Stats {
            fields: pairs
                .iter()
                .map(|&(k, v)| {
                    v.parse::<u64>()
                        .map(|v| (k.to_string(), v))
                        .map_err(|_| format!("bad counter {k}= in '{line}'"))
                })
                .collect::<Result<Vec<_>, _>>()?,
        }),
        _ => Err(format!("unknown response '{line}'")),
    }
}

// ---------------------------------------------------------------------------
// The inline kernel grammar
// ---------------------------------------------------------------------------

/// Parses an inline kernel specification into a validated kernel.
///
/// The grammar (one loop body; statement `k` produces value `%k`):
///
/// ```text
/// spec  :=  stmt (';' stmt)*
/// stmt  :=  'i'                     induction variable (i = i + 1)
///        |  'ld:' refs              strided 8-byte load  (address inputs)
///        |  'st:' refs              strided 8-byte store (value + address inputs)
///        |  'add:' refs             floating point add
///        |  'mul:' refs             floating point multiply
///        |  'div:' refs             floating point divide
///        |  'int:' refs             integer / address arithmetic
/// refs  :=  ref (',' ref)*
/// ref   :=  '%' N                   value of statement N, same iteration
///        |  '%' N '@' D             value of statement N, D iterations back
///        |  '$' K                   loop-invariant value K
/// ```
///
/// Every load and store draws from its own non-aliasing address region.
/// Example — daxpy (`y[i] = a*x[i] + y[i]`):
///
/// ```text
/// i;ld:%0;ld:%0;mul:%1,$0;add:%3,%2;st:%4,%0
/// ```
///
/// # Errors
///
/// Reports the first offending statement or reference, or the kernel
/// builder's own validation error (dangling reference, non-causal local
/// dependence, empty kernel).
pub(crate) fn parse_kernel(spec: &str) -> Result<dae_isa::Kernel, String> {
    use dae_isa::{KernelBuilder, Operand};

    let statements: Vec<&str> = spec.split(';').collect();
    let total = statements.len();
    let parse_ref = |token: &str, stmt: usize| -> Result<Operand, String> {
        let bad = |why: &str| Err(format!("statement {stmt}: {why} in reference '{token}'"));
        if let Some(rest) = token.strip_prefix('$') {
            return match rest.parse::<u32>() {
                Ok(k) => Ok(Operand::Invariant(k)),
                Err(_) => bad("bad invariant index"),
            };
        }
        let Some(rest) = token.strip_prefix('%') else {
            return bad("expected '%N', '%N@D' or '$K'");
        };
        let (index, distance) = match rest.split_once('@') {
            None => (rest, None),
            Some((index, distance)) => (index, Some(distance)),
        };
        let Ok(index) = index.parse::<usize>() else {
            return bad("bad statement index");
        };
        if index >= total {
            return bad("reference beyond the last statement");
        }
        match distance {
            None => Ok(Operand::Local(index)),
            Some(d) => match d.parse::<u32>() {
                Ok(d) if d >= 1 => Ok(Operand::Carried {
                    stmt: index,
                    distance: d,
                }),
                _ => bad("carried distance must be >= 1"),
            },
        }
    };

    let mut b = KernelBuilder::new("inline");
    for (k, stmt) in statements.iter().enumerate() {
        let (op, refs) = match stmt.split_once(':') {
            None => (*stmt, Vec::new()),
            Some((op, refs)) => (
                op,
                refs.split(',')
                    .map(|token| parse_ref(token, k))
                    .collect::<Result<Vec<_>, _>>()?,
            ),
        };
        // One region per statement, spaced like the workload models so no
        // two memory statements alias.
        let base = 0x0100_0000u64 * (k as u64 + 1);
        let id = match op {
            "i" => b.induction(),
            "ld" => b.load_strided(&refs, base, 8),
            "st" => b.store_strided(&refs, base, 8),
            "add" => b.fp_add(&refs),
            "mul" => b.fp_mul(&refs),
            "div" => b.fp_div(&refs),
            "int" => b.int(&refs),
            other => return Err(format!("statement {k}: unknown operation '{other}'")),
        };
        debug_assert_eq!(id, k, "builder statement ids track spec indices");
    }
    b.build().map_err(|e| format!("{e:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep_line() -> &'static str {
        "sweep id=fig4 trace=TRFD iterations=200 machines=dm,swsm windows=8,32,inf mds=0,60 mode=batch"
    }

    #[test]
    fn sweep_requests_roundtrip() {
        let Ok(Request::Sweep(req)) = parse_request(sweep_line()) else {
            panic!("sweep line must parse");
        };
        assert_eq!(req.id, "fig4");
        assert_eq!(req.source, TraceSource::Perfect(PerfectProgram::Trfd));
        assert_eq!(req.iterations, 200);
        assert_eq!(req.machines, vec![Machine::Decoupled, Machine::Superscalar]);
        assert_eq!(
            req.windows,
            vec![
                WindowSpec::Entries(8),
                WindowSpec::Entries(32),
                WindowSpec::Unlimited
            ]
        );
        assert_eq!(req.mds, vec![0, 60]);
        assert_eq!(req.mode, DeliveryMode::Batch);
        // Display renders the canonical form, which re-parses identically.
        assert_eq!(parse_request(&req.to_string()), Ok(Request::Sweep(req)));
    }

    #[test]
    fn grid_order_is_machine_then_window_then_md() {
        let Ok(Request::Sweep(req)) = parse_request(sweep_line()) else {
            panic!("sweep line must parse");
        };
        let mut session = dae_core::SweepSession::new();
        let id = session.pin_trace(&stream().trace(10));
        let points = req.points(id);
        assert_eq!(points.len(), 12);
        assert_eq!(
            points[0],
            (id, Machine::Decoupled, WindowSpec::Entries(8), 0)
        );
        assert_eq!(
            points[1],
            (id, Machine::Decoupled, WindowSpec::Entries(8), 60)
        );
        assert_eq!(
            points[2],
            (id, Machine::Decoupled, WindowSpec::Entries(32), 0)
        );
        assert_eq!(
            points[6],
            (id, Machine::Superscalar, WindowSpec::Entries(8), 0)
        );
    }

    #[test]
    fn defaults_and_aliases_apply() {
        let Ok(Request::Sweep(req)) =
            parse_request("sweep id=a trace=stream machines=dm windows=16 mds=60")
        else {
            panic!("minimal sweep must parse");
        };
        assert_eq!(req.iterations, DEFAULT_ITERATIONS);
        assert_eq!(req.mode, DeliveryMode::Stream);
        assert_eq!(req.source, TraceSource::Synthetic("stream".to_string()));
        assert!(req.source.trace(50).is_ok());
    }

    #[test]
    fn malformed_sweeps_are_rejected_with_their_id() {
        for (line, needle) in [
            ("sweep trace=TRFD machines=dm windows=8 mds=0", "id="),
            ("sweep id=x machines=dm windows=8 mds=0", "trace="),
            (
                "sweep id=x trace=NOPE machines=dm windows=8 mds=0",
                "unknown trace",
            ),
            (
                "sweep id=x trace=TRFD machines=vliw windows=8 mds=0",
                "unknown machine",
            ),
            (
                "sweep id=x trace=TRFD machines=dm windows=0 mds=0",
                "bad window",
            ),
            (
                "sweep id=x trace=TRFD machines=dm windows=8 mds=big",
                "bad memory differential",
            ),
            (
                "sweep id=x trace=TRFD machines=dm windows=8 mds=60,1000001",
                "bad memory differential",
            ),
            (
                "sweep id=x trace=TRFD machines=dm windows=8 mds=0 mode=carrier",
                "bad mode",
            ),
            (
                "sweep id=x trace=TRFD iterations=0 machines=dm windows=8 mds=0",
                "bad iterations",
            ),
            (
                "sweep id=b@d trace=TRFD machines=dm windows=8 mds=0",
                "bad id",
            ),
            ("warp id=x", "unknown verb"),
        ] {
            let err = parse_request(line).expect_err(line);
            assert!(
                err.message.contains(needle),
                "'{line}' → '{}' (wanted '{needle}')",
                err.message
            );
            if line.contains("id=x") {
                assert_eq!(err.id.as_deref(), Some("x"), "{line}");
            }
        }
    }

    #[test]
    fn responses_roundtrip_through_display() {
        let responses = [
            Response::Point {
                id: "a".to_string(),
                index: 3,
                machine: Machine::Superscalar,
                window: WindowSpec::Unlimited,
                md: 60,
                cycles: 1234,
            },
            Response::Done {
                id: "a".to_string(),
                points: 12,
                delivered: 8,
                dropped: 2,
                aborted: 1,
                failed: 1,
                cached: 2,
                status: DoneStatus::Timeout,
            },
            Response::Cancelled {
                id: "a".to_string(),
            },
            Response::Busy {
                id: "a".to_string(),
                queued: 70_000,
                limit: 65_536,
                retry_after_ms: 50,
            },
            Response::Shutdown {
                mode: ShutdownMode::Abort,
            },
            Response::Error {
                id: Some("a".to_string()),
                message: "something with spaces".to_string(),
            },
            Response::Error {
                id: None,
                message: "no id recovered".to_string(),
            },
            Response::Stats {
                fields: vec![("pinned".to_string(), 3), ("cache_hits".to_string(), 44)],
            },
        ];
        for response in responses {
            assert_eq!(parse_response(&response.to_string()), Ok(response.clone()));
        }
    }

    #[test]
    fn inline_kernels_build_and_reject() {
        // daxpy: y[i] = a*x[i] + y[i]
        let kernel = parse_kernel("i;ld:%0;ld:%0;mul:%1,$0;add:%3,%2;st:%4,%0").expect("daxpy");
        assert_eq!(kernel.len(), 6);
        // A carried self-reference (pointer chase shape) is legal.
        assert!(parse_kernel("i;ld:%1@1;add:%1,$0").is_ok());
        for (spec, needle) in [
            ("i;frob:%0", "unknown operation"),
            ("i;ld:%9", "beyond the last"),
            ("i;ld:%0@0", "distance must be"),
            ("i;ld:x", "expected"),
            ("i;ld:%1", ""), // non-causal local reference → builder error
        ] {
            let err = parse_kernel(spec).expect_err(spec);
            assert!(err.contains(needle), "'{spec}' → '{err}'");
        }
    }

    #[test]
    fn error_messages_containing_id_tokens_do_not_confuse_attribution() {
        // An id-less error whose free text mentions `id=` must stay
        // id-less through the Display/parse round trip.
        let response = Response::Error {
            id: None,
            message: "cancel needs id=<request-id>".to_string(),
        };
        assert_eq!(parse_response(&response.to_string()), Ok(response));
    }

    #[test]
    fn synthetic_aliases_share_one_identity_key() {
        let parse = |line: &str| {
            let Ok(Request::Sweep(req)) = parse_request(line) else {
                panic!("{line}");
            };
            req.source.key()
        };
        let hyphen = parse("sweep id=x trace=pointer-chase machines=dm windows=8 mds=0");
        let underscore = parse("sweep id=x trace=POINTER_CHASE machines=dm windows=8 mds=0");
        assert_eq!(hyphen, underscore, "aliases must pin one lowering");
    }

    #[test]
    fn placement_digest_covers_program_and_iterations_only() {
        let digest = |line: &str| {
            let Ok(Request::Sweep(req)) = parse_request(line) else {
                panic!("{line}");
            };
            req.placement_digest()
        };
        let base = digest("sweep id=a trace=TRFD iterations=120 machines=dm windows=8 mds=0");
        let same = [
            "sweep id=a trace=trfd iterations=120 machines=dm windows=8 mds=0",
            "sweep id=zz trace=TRFD iterations=120 machines=swsm,scalar windows=16,inf \
             mds=0,60 mode=batch priority=bulk deadline_ms=5",
        ];
        for line in same {
            assert_eq!(digest(line), base, "{line}");
        }
        let md = "sweep id=a trace=TRFD iterations=120 machines=dm windows=8 mds=60";
        assert_eq!(digest(md), base, "the MD does not enter the digest");
        let iterations = "sweep id=a trace=TRFD iterations=121 machines=dm windows=8 mds=0";
        assert_ne!(digest(iterations), base, "iterations enter the digest");
        let program = "sweep id=a trace=MDG iterations=120 machines=dm windows=8 mds=0";
        assert_ne!(digest(program), base, "the program enters the digest");
    }

    #[test]
    fn oversized_grids_are_rejected_without_overflow() {
        // Duplicates are legal list entries, so the cap must count them.
        let windows: Vec<String> = vec!["8".to_string(); 300];
        let mds: Vec<String> = vec!["0".to_string(); 300];
        let line = format!(
            "sweep id=x trace=TRFD machines=dm windows={} mds={}",
            windows.join(","),
            mds.join(",")
        );
        let err = parse_request(&line).expect_err("90000 points exceed the cap");
        assert!(err.message.contains("cap"), "{}", err.message);
    }

    #[test]
    fn cancel_and_stats_parse() {
        assert_eq!(
            parse_request("cancel id=fig4"),
            Ok(Request::Cancel {
                id: "fig4".to_string()
            })
        );
        assert_eq!(parse_request("stats"), Ok(Request::Stats));
        assert!(parse_request("cancel").is_err());
    }

    #[test]
    fn deadlines_parse_and_roundtrip() {
        let line = "sweep id=x trace=TRFD machines=dm windows=8 mds=0 deadline_ms=250";
        let Ok(Request::Sweep(req)) = parse_request(line) else {
            panic!("deadline sweep must parse");
        };
        assert_eq!(req.deadline_ms, Some(250));
        assert_eq!(parse_request(&req.to_string()), Ok(Request::Sweep(req)));
        for bad in ["deadline_ms=0", "deadline_ms=-5", "deadline_ms=soon"] {
            let line = format!("sweep id=x trace=TRFD machines=dm windows=8 mds=0 {bad}");
            let err = parse_request(&line).expect_err(&line);
            assert!(err.message.contains("bad deadline_ms"), "{}", err.message);
        }
    }

    #[test]
    fn priorities_parse_and_roundtrip() {
        for (token, priority) in [
            ("interactive", Priority::Interactive),
            ("normal", Priority::Normal),
            ("bulk", Priority::Bulk),
        ] {
            let line =
                format!("sweep id=x trace=TRFD machines=dm windows=8 mds=0 priority={token}");
            let Ok(Request::Sweep(req)) = parse_request(&line) else {
                panic!("priority sweep must parse: {line}");
            };
            assert_eq!(req.priority, priority);
            assert_eq!(parse_request(&req.to_string()), Ok(Request::Sweep(req)));
        }
        // Omitted means normal, and the default band never prints (so
        // pre-priority golden transcripts stay bit-for-bit).
        let Ok(Request::Sweep(req)) =
            parse_request("sweep id=x trace=TRFD machines=dm windows=8 mds=0")
        else {
            panic!("plain sweep must parse");
        };
        assert_eq!(req.priority, Priority::Normal);
        assert!(!req.to_string().contains("priority="));
        for bad in ["priority=", "priority=urgent", "priority=Interactive"] {
            let line = format!("sweep id=x trace=TRFD machines=dm windows=8 mds=0 {bad}");
            let err = parse_request(&line).expect_err(&line);
            assert!(err.message.contains("bad priority"), "{}", err.message);
            assert_eq!(err.id.as_deref(), Some("x"), "id must be recovered");
        }
    }

    #[test]
    fn cache_requests_parse() {
        assert_eq!(
            parse_request("cache clear"),
            Ok(Request::Cache {
                action: CacheAction::Clear
            })
        );
        assert_eq!(
            parse_request("cache limit=64"),
            Ok(Request::Cache {
                action: CacheAction::Limit(Some(64))
            })
        );
        assert_eq!(
            parse_request("cache limit=none"),
            Ok(Request::Cache {
                action: CacheAction::Limit(None)
            })
        );
        for bad in ["cache", "cache flush", "cache limit=0", "cache limit=lots"] {
            assert!(parse_request(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn cache_responses_roundtrip() {
        for response in [
            Response::Cache {
                entries: 12,
                limit: Some(64),
            },
            Response::Cache {
                entries: 0,
                limit: None,
            },
        ] {
            assert_eq!(parse_response(&response.to_string()), Ok(response.clone()));
        }
        assert_eq!(
            Response::Cache {
                entries: 3,
                limit: None
            }
            .to_string(),
            "cache entries=3 limit=none"
        );
    }

    #[test]
    fn shutdown_requests_parse() {
        assert_eq!(
            parse_request("shutdown"),
            Ok(Request::Shutdown {
                mode: ShutdownMode::Drain
            })
        );
        assert_eq!(
            parse_request("shutdown mode=abort"),
            Ok(Request::Shutdown {
                mode: ShutdownMode::Abort
            })
        );
        assert!(parse_request("shutdown mode=later").is_err());
    }
}
