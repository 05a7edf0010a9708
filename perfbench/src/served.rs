//! The served workloads: `dae-serve --tcp` (and `--coordinator` over two
//! `--tcp` backends) driven over TCP by seeded request streams.  The
//! program receives only the generated request lines; every delivered
//! point is checked against an in-process oracle after the timed window.

use crate::fleet::{Fleet, Server};
use crate::layers::{self, LayerInput};
use crate::spans::{Tracer, NO_SPAN};
use crate::stats::{percentile_label, Samples};
use crate::wire::{check, response_id, send_line, Conn, Grid, Oracle, Reply, Rng};
use crate::{Ctx, Outcome};
use dae_core::{Machine, Priority, WindowSpec};
use dae_serve::Response;
use dae_workloads::PerfectProgram;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

/// Trace length of the hot grid.  Long enough that simulating the grid
/// during warm-up takes several times the ~40 ms a delayed ACK can add to
/// the last reply, so the warm-up's engine rate is steady.
const HOT_ITERATIONS: u64 = 1000;
/// Trace length of the probes.
const PROBE_ITERATIONS: u64 = 300;
/// The hot grid's windows and memory differentials (× 7 programs × 3
/// machines = 315 points).
const HOT_WINDOWS: [WindowSpec; 5] = [
    WindowSpec::Entries(8),
    WindowSpec::Entries(16),
    WindowSpec::Entries(32),
    WindowSpec::Entries(64),
    WindowSpec::Unlimited,
];
const HOT_MDS: [u64; 3] = [0, 30, 60];
const MACHINES: [Machine; 3] = [Machine::Decoupled, Machine::Superscalar, Machine::Scalar];
/// Closed-loop connections of the hot workloads.
const CLIENTS: usize = 2;
/// Server start-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Open-loop probe rate of `serve-mixed`, per second.
const PROBE_HZ: u32 = 40;
/// Bulk requests `serve-mixed` keeps in flight on its bulk connection.
const BULK_IN_FLIGHT: usize = 2;
/// Bulk trace lengths: each bulk request pins a distinct (program,
/// iterations) pair drawn from 7 × this range.
const BULK_ITERATIONS: std::ops::Range<u64> = 100..300;
/// Requests replayed in process by the traced run.
const REPLAY_MAX: usize = 48;

/// A single server or a coordinator fleet.
enum Deployment {
    Single(Server),
    Sharded(Fleet),
}

impl Deployment {
    fn spawn(ctx: &Ctx, sharded: bool) -> Result<Deployment, String> {
        if sharded {
            Fleet::spawn(&ctx.serve_bin, 2).map(Deployment::Sharded)
        } else {
            Server::spawn(&ctx.serve_bin, &["--tcp", "127.0.0.1:0"]).map(Deployment::Single)
        }
    }

    fn addr(&self) -> &str {
        match self {
            Deployment::Single(server) => server.addr(),
            Deployment::Sharded(fleet) => fleet.coordinator.addr(),
        }
    }

    fn peak_rss_mb(&self) -> Option<f64> {
        match self {
            Deployment::Single(server) => server.peak_rss_mb(),
            Deployment::Sharded(fleet) => fleet.peak_rss_mb(),
        }
    }

    /// Stops and reaps every process.  A clean exit that closed the
    /// connection before acknowledging `shutdown`, and a backend the
    /// coordinator's `shutdown` did not reach, are counted in the report,
    /// not failed.
    fn shutdown(self, out: &mut Outcome) {
        let result = match self {
            Deployment::Single(server) => server.shutdown().map(|acked| (acked, 0)),
            Deployment::Sharded(fleet) => fleet.shutdown(),
        };
        if let Ok((acked, stragglers)) = result {
            out.lost_acks += u64::from(!acked);
            out.stragglers += stragglers as u64;
        }
        out.tally(result.map(|_| ()));
    }
}

/// The hot grid: every program × dm/swsm/scalar × 5 windows × 3 MDs, one
/// request per program.
fn hot_grids() -> Vec<Grid> {
    PerfectProgram::ALL
        .iter()
        .map(|&program| Grid {
            program,
            iterations: HOT_ITERATIONS,
            machines: MACHINES.to_vec(),
            windows: HOT_WINDOWS.to_vec(),
            mds: HOT_MDS.to_vec(),
            priority: Priority::Normal,
        })
        .collect()
}

/// An 8-point request drawn from the hot grid: one program, 2 machines ×
/// 2 windows × 2 MDs.
fn draw_hot(rng: &mut Rng) -> Grid {
    Grid {
        program: PerfectProgram::ALL[rng.below(7)],
        iterations: HOT_ITERATIONS,
        machines: rng.pick(&MACHINES, 2),
        windows: rng.pick(&HOT_WINDOWS, 2),
        mds: rng.pick(&HOT_MDS, 2),
        priority: Priority::Normal,
    }
}

/// The per-layer engine sample of the served workloads.
fn sample_grids(grids: &[Grid]) -> Vec<Grid> {
    grids
        .iter()
        .map(|g| Grid {
            windows: g.windows.iter().copied().take(3).collect(),
            mds: g.mds.iter().copied().take(2).collect(),
            ..g.clone()
        })
        .collect()
}

/// Sends every grid on one connection back to back and reads until each
/// has its `done`.
fn submit_all(addr: &str, grids: &[Grid], prefix: &str) -> Result<Vec<Reply>, String> {
    let mut conn = Conn::connect(addr)?;
    let ids: Vec<String> = (0..grids.len()).map(|i| format!("{prefix}{i}")).collect();
    for (grid, id) in grids.iter().zip(&ids) {
        conn.send(&grid.line(id))?;
    }
    let mut replies: Vec<Reply> = (0..grids.len()).map(|_| Reply::default()).collect();
    let mut open = grids.len();
    while open > 0 {
        let response = conn.recv()?;
        let Some(i) = response_id(&response).and_then(|id| ids.iter().position(|x| x == id)) else {
            return Err(format!("unexpected line {response}"));
        };
        if replies[i].absorb(response) {
            open -= 1;
        }
    }
    Ok(replies)
}

/// Checks one reply and returns the simulated instructions it implies.
fn check_one(grid: &Grid, reply: &Reply, oracle: &Oracle, out: &mut Outcome) -> f64 {
    match check(grid, reply, oracle) {
        Ok(checked) => {
            out.tally(Ok(()));
            let missed = (checked.points as u64 - checked.cached) as f64 / checked.points as f64;
            grid.simulated_points() as f64
                * missed
                * oracle.trace_instructions(grid.program, grid.iterations) as f64
        }
        Err(e) => {
            out.tally(Err(format!("{}: {e}", grid.line("?"))));
            0.0
        }
    }
}

/// Checks replies and returns the simulated instructions they imply.
fn check_all(grids: &[Grid], replies: &[Reply], oracle: &Oracle, out: &mut Outcome) -> f64 {
    grids
        .iter()
        .zip(replies)
        .map(|(grid, reply)| check_one(grid, reply, oracle, out))
        .sum()
}

/// The `cached=` count of a reply's `done` line (0 without one).
fn cached(reply: &Reply) -> u64 {
    match reply.done {
        Some(Response::Done { cached, .. }) => cached,
        _ => 0,
    }
}

/// Spawns the deployment [`SETUP_REPS`] times, each time until it can take
/// the first timed request (`ready` runs on it first), and keeps the last.
fn setups(
    ctx: &Ctx,
    sharded: bool,
    out: &mut Outcome,
    mut ready: impl FnMut(&Deployment, &mut Outcome) -> Result<(), String>,
) -> Result<(Deployment, Samples), String> {
    let mut setup_s = Samples::new();
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let deployment = Deployment::spawn(ctx, sharded)?;
        ready(&deployment, out)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if rep + 1 == SETUP_REPS {
            return Ok((deployment, setup_s));
        }
        deployment.shutdown(out);
    }
    unreachable!("SETUP_REPS is positive")
}

/// A finished request: what was asked, what came back, and its wire
/// latency (ms).
type Finished = (Grid, Reply, f64);

/// What a closed-loop pass of the hot workloads measured.
#[derive(Debug, Default)]
struct LoopResult {
    latencies: Samples,
    requests: Vec<Finished>,
    elapsed_s: f64,
    errors: Vec<String>,
}

impl LoopResult {
    fn points(&self) -> usize {
        self.requests.iter().map(|(_, r, _)| r.points.len()).sum()
    }
}

/// [`CLIENTS`] connections, each sending its next seeded request when the
/// previous one is done, until `window` has passed.
fn closed_loop(addr: &str, window: Duration, seed: u64, pass: u64, tracer: &Tracer) -> LoopResult {
    let start = Instant::now();
    let deadline = start + window;
    let per_client: Vec<(Vec<Finished>, Option<String>)> = thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    let mut rng = Rng::new(seed, pass * 64 + client as u64);
                    let error = (|| -> Result<(), String> {
                        let mut conn = Conn::connect(addr)?;
                        for k in 0.. {
                            if Instant::now() >= deadline {
                                break;
                            }
                            let grid = draw_hot(&mut rng);
                            let id = format!("c{client}-{k}");
                            let t = Instant::now();
                            conn.send(&grid.line(&id))?;
                            let reply = Reply::read(&mut conn, &id)?;
                            let end = Instant::now();
                            let request = ((client as u64) << 32) | k;
                            tracer.record("client.request", NO_SPAN, request, t, end);
                            done.push((grid, reply, (end - t).as_secs_f64() * 1e3));
                        }
                        Ok(())
                    })()
                    .err();
                    (done, error)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut result = LoopResult {
        elapsed_s: start.elapsed().as_secs_f64(),
        ..LoopResult::default()
    };
    for (done, error) in per_client {
        for (grid, reply, latency) in done {
            result.latencies.push(latency);
            result.requests.push((grid, reply, latency));
        }
        result.errors.extend(error);
    }
    result
}

/// Counts the `stats` invariants: `hits + misses == lookups`, no busy
/// refusals, and — through a coordinator — no re-dispatch or timeout.
fn check_counters(counters: &HashMap<String, u64>, out: &mut Outcome) {
    let c = |name: &str| counters.get(name).copied().unwrap_or(0);
    out.tally(
        if c("cache_hits") + c("cache_misses") == c("cache_lookups") {
            Ok(())
        } else {
            Err(format!(
                "stats: cache_hits {} + cache_misses {} != cache_lookups {}",
                c("cache_hits"),
                c("cache_misses"),
                c("cache_lookups")
            ))
        },
    );
    for name in [
        "busy_rejections",
        "failed_points",
        "aborted_points",
        "timeout_requests",
        "redispatched_points",
        "coordinator_timeouts",
    ] {
        out.tally(if c(name) == 0 {
            Ok(())
        } else {
            Err(format!("stats: {name}={}", c(name)))
        });
    }
}

pub fn serve_hot(ctx: &Ctx) -> Result<Outcome, String> {
    hot(ctx, false)
}

pub fn sharded_hot(ctx: &Ctx) -> Result<Outcome, String> {
    hot(ctx, true)
}

/// `serve-hot` / `sharded-hot`: warm the cache with the hot grid (part of
/// setup), then two closed-loop connections of 8-point hot requests.
fn hot(ctx: &Ctx, sharded: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let grids = hot_grids();
    let mut oracle = Oracle::new();
    oracle.add(&grids);

    // Simulated instructions and wall time of every warm-up pass: the
    // timed window simulates nothing, so the engine rate is taken here.
    let (mut warm_insts, mut warm_secs) = (0.0, 0.0);
    let (deployment, setup_s) = setups(ctx, sharded, &mut out, |d, out| {
        let t = Instant::now();
        let replies = submit_all(d.addr(), &grids, "w")?;
        warm_secs += t.elapsed().as_secs_f64();
        warm_insts += check_all(&grids, &replies, &oracle, out);
        Ok(())
    })?;

    let untraced = closed_loop(
        deployment.addr(),
        ctx.window(),
        ctx.seed,
        0,
        &Tracer::new(false),
    );
    let traced = ctx
        .tracer
        .enabled()
        .then(|| closed_loop(deployment.addr(), ctx.window(), ctx.seed, 1, &ctx.tracer));
    let counters = Conn::connect(deployment.addr())?.stats()?;
    check_counters(&counters, &mut out);
    let rss = deployment
        .peak_rss_mb()
        .ok_or("cannot read the servers' VmHWM")?;

    // The coordinator's own cost: the same stream sent straight to one
    // backend, warmed with the whole grid first.
    let mut direct_p50 = None;
    if let (Some(_), Deployment::Sharded(fleet)) = (&traced, &deployment) {
        let backend = fleet.backends[0].addr();
        let replies = submit_all(backend, &grids, "d")?;
        check_all(&grids, &replies, &oracle, &mut out);
        let direct = closed_loop(
            backend,
            ctx.window().min(Duration::from_secs(2)),
            ctx.seed,
            2,
            &Tracer::new(false),
        );
        tally_loop(&direct, &oracle, &mut out);
        direct_p50 = Some(direct.latencies.median());
    }
    deployment.shutdown(&mut out);

    tally_loop(&untraced, &oracle, &mut out);
    let hits: u64 = untraced.requests.iter().map(|(_, r, _)| cached(r)).sum();
    let points = untraced.points();
    let (q, tail) = untraced.latencies.tail();
    out.metric("setup_s", setup_s.median(), "s", setup_s.len());
    out.metric(
        "points_per_s",
        points as f64 / untraced.elapsed_s,
        "1/s",
        untraced.requests.len(),
    );
    out.metric(
        "sim_minst_per_s",
        warm_insts / warm_secs / 1e6,
        "Minst/s",
        SETUP_REPS,
    );
    out.metric(
        "request_p50_ms",
        untraced.latencies.median(),
        "ms",
        untraced.latencies.len(),
    );
    out.metric("request_p99_ms", tail, "ms", untraced.latencies.len());
    out.metric("rss_peak_mb", rss, "MB", if sharded { 3 } else { 1 });
    out.line(format!(
        "request = one 8-point sweep, written to its done line; tail is {} of {}; \
         sim_minst_per_s measured over the {SETUP_REPS} warm-up passes (the timed window \
         simulates nothing)",
        percentile_label(q),
        untraced.latencies.len()
    ));
    out.line(format!(
        "workload: hit share {:.4} ({hits} of {points} points), 8 points per request, \
         {} programs pinned, {:.0} simulated instructions per simulated point, \
         {CLIENTS} closed-loop clients{}",
        hits as f64 / points.max(1) as f64,
        counters.get("pinned").copied().unwrap_or(0),
        mean_insts(&grids, &oracle),
        if sharded {
            ", coordinator over 2 backends"
        } else {
            ""
        },
    ));

    if let Some(traced) = traced {
        tally_loop(&traced, &oracle, &mut out);
        layers::report_overhead(
            &mut out,
            "request_p50_ms",
            untraced.latencies.median(),
            traced.latencies.median(),
        );
        if let Some(direct) = direct_p50 {
            out.line(format!(
                "coordinator.forward_ms {:.3} (sharded p50 {:.3} ms minus direct-to-backend p50 {direct:.3} ms)",
                untraced.latencies.median() - direct,
                untraced.latencies.median(),
            ));
        }
        let input = LayerInput {
            sample: sample_grids(&grids),
            warm: grids.clone(),
            replay: replay_of(&traced.requests),
            counters,
        };
        layers::measure(ctx, &input, &mut oracle, &mut out);
        layers::report_spans(ctx, &mut out);
    }
    Ok(out)
}

fn tally_loop(result: &LoopResult, oracle: &Oracle, out: &mut Outcome) {
    for error in &result.errors {
        out.tally(Err(format!("client: {error}")));
    }
    for (grid, reply, _) in &result.requests {
        out.tally(check(grid, reply, oracle).map(|_| ()));
    }
}

fn replay_of(requests: &[Finished]) -> Vec<(Grid, Option<f64>)> {
    requests
        .iter()
        .take(REPLAY_MAX)
        .map(|(g, _, latency)| (g.clone(), Some(*latency)))
        .collect()
}

/// Mean trace instructions per program of `grids`.
fn mean_insts(grids: &[Grid], oracle: &Oracle) -> f64 {
    let total: usize = grids
        .iter()
        .map(|g| oracle.trace_instructions(g.program, g.iterations))
        .sum();
    total as f64 / grids.len().max(1) as f64
}

/// The seeded request plan of `serve-mixed`, shared by its passes.
struct MixedPlan {
    bulk_keys: Vec<(PerfectProgram, u64)>,
    next_bulk: usize,
    rng: Rng,
    probes_seen: Vec<Grid>,
    probe_keys: HashSet<(PerfectProgram, Machine, WindowSpec, u64)>,
}

fn single(program: PerfectProgram, machine: Machine, window: WindowSpec, md: u64) -> Grid {
    Grid {
        program,
        iterations: PROBE_ITERATIONS,
        machines: vec![machine],
        windows: vec![window],
        mds: vec![md],
        priority: Priority::Interactive,
    }
}

impl MixedPlan {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed, 7);
        let mut bulk_keys: Vec<(PerfectProgram, u64)> = PerfectProgram::ALL
            .iter()
            .flat_map(|&p| BULK_ITERATIONS.map(move |it| (p, it)))
            .collect();
        rng.shuffle(&mut bulk_keys);
        MixedPlan {
            bulk_keys,
            next_bulk: 0,
            rng,
            probes_seen: Vec::new(),
            probe_keys: HashSet::new(),
        }
    }

    /// The single points that pin the probe programs during setup.
    fn pins() -> Vec<Grid> {
        PerfectProgram::ALL
            .iter()
            .map(|&p| single(p, Machine::Decoupled, WindowSpec::Entries(16), 0))
            .collect()
    }

    /// A cold bulk grid: a (program, iterations) pair no earlier request
    /// used, DM and SWSM × 3 windows × 2 MDs.
    fn bulk(&mut self) -> Option<Grid> {
        let &(program, iterations) = self.bulk_keys.get(self.next_bulk)?;
        self.next_bulk += 1;
        Some(Grid {
            program,
            iterations,
            machines: vec![Machine::Decoupled, Machine::Superscalar],
            windows: self
                .rng
                .pick(&[8, 16, 32, 64, 128].map(WindowSpec::Entries), 3),
            mds: self.rng.pick(&[0, 20, 40, 60], 2),
            priority: Priority::Bulk,
        })
    }

    /// The next probe: half the time a repeat of an earlier probe, else a
    /// point no probe asked for yet.
    fn probe(&mut self) -> Grid {
        if !self.probes_seen.is_empty() && self.rng.below(2) == 0 {
            let i = self.rng.below(self.probes_seen.len());
            return self.probes_seen[i].clone();
        }
        loop {
            let program = PerfectProgram::ALL[self.rng.below(7)];
            let machine = [Machine::Decoupled, Machine::Superscalar][self.rng.below(2)];
            let window = WindowSpec::Entries(4 + self.rng.below(253));
            let md = self.rng.below(121) as u64;
            if self.probe_keys.insert((program, machine, window, md)) {
                let grid = single(program, machine, window, md);
                self.probes_seen.push(grid.clone());
                return grid;
            }
        }
    }
}

/// What one `serve-mixed` pass measured.
#[derive(Debug, Default)]
struct MixedResult {
    bulk: Vec<Finished>,
    bulk_latency: Samples,
    probes: Vec<(Grid, Reply)>,
    probe_latency: Samples,
    lag: Samples,
    elapsed_s: f64,
    errors: Vec<String>,
}

/// One `serve-mixed` pass: a bulk connection with [`BULK_IN_FLIGHT`] cold
/// grids outstanding, and an open-loop probe connection at [`PROBE_HZ`].
fn mixed_pass(
    addr: &str,
    plan: &mut MixedPlan,
    window: Duration,
    pass: u64,
    tracer: &Tracer,
) -> MixedResult {
    let period = Duration::from_secs(1) / PROBE_HZ;
    let count = (window.as_secs_f64() * f64::from(PROBE_HZ)).ceil() as usize;
    let probes: Vec<Grid> = (0..count).map(|_| plan.probe()).collect();
    let start = Instant::now();
    let deadline = start + window;
    let mut result = MixedResult::default();

    let sent = AtomicUsize::new(0);
    thread::scope(|scope| {
        let probe_conn = Conn::connect(addr);
        let probes = &probes;
        let sent = &sent;
        let (writer, reader) = match probe_conn.and_then(|c| Ok((c.writer()?, c))) {
            Ok((writer, conn)) => {
                let writer = scope.spawn(move || {
                    probe_writer(writer, probes, start, period, deadline, sent, pass)
                });
                let reader = scope
                    .spawn(move || probe_reader(conn, probes, start, period, sent, pass, tracer));
                (Some(writer), Some(reader))
            }
            Err(e) => {
                result.errors.push(e);
                (None, None)
            }
        };

        // The bulk connection runs on this thread; replies are kept by send
        // order, so the first grids of a pass are the same on every run.
        let mut finished: Vec<(usize, Finished)> = Vec::new();
        let bulk = (|| -> Result<(), String> {
            let mut conn = Conn::connect(addr)?;
            let mut in_flight: HashMap<String, (usize, Grid, Instant, Reply)> = HashMap::new();
            let mut sent_bulk = 0;
            let mut send = |conn: &mut Conn, in_flight: &mut HashMap<_, _>| -> Result<(), String> {
                let grid = plan.bulk().ok_or("bulk key space exhausted")?;
                let id = format!("b{pass}-{sent_bulk}");
                conn.send(&grid.line(&id))?;
                in_flight.insert(id, (sent_bulk, grid, Instant::now(), Reply::default()));
                sent_bulk += 1;
                Ok(())
            };
            for _ in 0..BULK_IN_FLIGHT {
                send(&mut conn, &mut in_flight)?;
            }
            while !in_flight.is_empty() {
                let response = conn.recv()?;
                let id = response_id(&response).unwrap_or("").to_string();
                let Some(entry) = in_flight.get_mut(&id) else {
                    return Err(format!("unexpected bulk line {response}"));
                };
                if entry.3.absorb(response) {
                    let (k, grid, sent_at, reply) = in_flight.remove(&id).expect("entry exists");
                    let end = Instant::now();
                    tracer.record("client.bulk", NO_SPAN, k as u64, sent_at, end);
                    let latency = (end - sent_at).as_secs_f64() * 1e3;
                    result.bulk_latency.push(latency);
                    finished.push((k, (grid, reply, latency)));
                    if end < deadline {
                        send(&mut conn, &mut in_flight)?;
                    }
                }
            }
            Ok(())
        })();
        if let Err(e) = bulk {
            result.errors.push(format!("bulk: {e}"));
        }
        finished.sort_by_key(|&(k, _)| k);
        result.bulk = finished.into_iter().map(|(_, f)| f).collect();
        if let Some(writer) = writer {
            match writer.join().expect("probe writer panicked") {
                Ok(lags) => result.lag = lags,
                Err(e) => result.errors.push(format!("probe writer: {e}")),
            }
        }
        if let Some(reader) = reader {
            match reader.join().expect("probe reader panicked") {
                Ok((replies, latency)) => {
                    result.probe_latency = latency;
                    result.probes = probes.iter().cloned().zip(replies).collect();
                }
                Err(e) => result.errors.push(format!("probe reader: {e}")),
            }
        }
    });
    result.elapsed_s = start.elapsed().as_secs_f64();
    result
}

/// Sends probe `k` at `start + k·period`, whatever the replies do, then a
/// `stats` line that tells the reader how many were sent.  Returns each
/// probe's send lag behind its due time (ms).
fn probe_writer(
    mut writer: std::net::TcpStream,
    probes: &[Grid],
    start: Instant,
    period: Duration,
    deadline: Instant,
    sent: &AtomicUsize,
    pass: u64,
) -> Result<Samples, String> {
    let mut lags = Samples::new();
    for (k, probe) in probes.iter().enumerate() {
        let due = start + period * k as u32;
        if due >= deadline {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            thread::sleep(wait);
        }
        send_line(&mut writer, &probe.line(&format!("p{pass}-{k}")))?;
        lags.push(due.elapsed().as_secs_f64() * 1e3);
        sent.store(k + 1, Ordering::SeqCst);
    }
    send_line(&mut writer, "stats")?;
    Ok(lags)
}

/// Collects probe replies; each probe's latency runs from its due time to
/// its `done` line.
fn probe_reader(
    mut conn: Conn,
    probes: &[Grid],
    start: Instant,
    period: Duration,
    sent: &AtomicUsize,
    pass: u64,
    tracer: &Tracer,
) -> Result<(Vec<Reply>, Samples), String> {
    let mut replies: Vec<Reply> = (0..probes.len()).map(|_| Reply::default()).collect();
    let mut latency = Samples::new();
    let prefix = format!("p{pass}-");
    let (mut done, mut total) = (0, None);
    while total != Some(done) {
        let response = conn.recv()?;
        if matches!(response, Response::Stats { .. }) {
            // The writer's end marker: everything it sent precedes it.
            total = Some(sent.load(Ordering::SeqCst));
            continue;
        }
        let k = response_id(&response)
            .and_then(|id| id.strip_prefix(&prefix))
            .and_then(|k| k.parse::<usize>().ok())
            .filter(|&k| k < replies.len())
            .ok_or_else(|| format!("unexpected probe line {response}"))?;
        if replies[k].absorb(response) {
            let due = start + period * k as u32;
            let end = Instant::now();
            tracer.record("client.probe", NO_SPAN, k as u64, due, end);
            latency.push((end - due).as_secs_f64() * 1e3);
            done += 1;
        }
    }
    replies.truncate(done);
    Ok((replies, latency))
}

/// `serve-mixed`: cold bulk grids next to open-loop interactive probes on
/// one server.
pub fn serve_mixed(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let pins = MixedPlan::pins();
    let mut oracle = Oracle::new();
    oracle.add(&pins);
    let (deployment, setup_s) = setups(ctx, false, &mut out, |d, out| {
        let replies = submit_all(d.addr(), &pins, "pin")?;
        check_all(&pins, &replies, &oracle, out);
        Ok(())
    })?;

    let mut plan = MixedPlan::new(ctx.seed);
    for pin in &pins {
        for key in pin.keys() {
            plan.probe_keys.insert((key.0, key.2, key.3, key.4));
        }
    }
    let untraced = mixed_pass(
        deployment.addr(),
        &mut plan,
        ctx.window(),
        0,
        &Tracer::new(false),
    );
    let traced = ctx
        .tracer
        .enabled()
        .then(|| mixed_pass(deployment.addr(), &mut plan, ctx.window(), 1, &ctx.tracer));
    let counters = Conn::connect(deployment.addr())?.stats()?;
    check_counters(&counters, &mut out);
    let rss = deployment
        .peak_rss_mb()
        .ok_or("cannot read the server's VmHWM")?;
    deployment.shutdown(&mut out);

    // The oracle simulates every delivered point, outside the window.
    let mut delivered: Vec<Grid> = Vec::new();
    for pass in [Some(&untraced), traced.as_ref()].into_iter().flatten() {
        delivered.extend(pass.bulk.iter().map(|(g, _, _)| g.clone()));
        delivered.extend(pass.probes.iter().map(|(g, _)| g.clone()));
    }
    oracle.add(&delivered);
    let tally_pass = |pass: &MixedResult, out: &mut Outcome| -> (f64, u64, u64) {
        for error in &pass.errors {
            out.tally(Err(error.clone()));
        }
        let mut simulated = 0.0;
        for (grid, reply, _) in &pass.bulk {
            simulated += check_one(grid, reply, &oracle, out);
        }
        for (grid, reply) in &pass.probes {
            simulated += check_one(grid, reply, &oracle, out);
        }
        let bulk_hits = pass.bulk.iter().map(|(_, r, _)| cached(r)).sum();
        let probe_hits = pass.probes.iter().map(|(_, r)| cached(r)).sum();
        (simulated, bulk_hits, probe_hits)
    };
    let (simulated, bulk_hits, probe_hits) = tally_pass(&untraced, &mut out);

    let bulk_points: usize = untraced.bulk.iter().map(|(_, r, _)| r.points.len()).sum();
    let probe_points = untraced.probes.len();
    let (q, tail) = untraced.bulk_latency.tail();
    out.metric("setup_s", setup_s.median(), "s", setup_s.len());
    out.metric(
        "points_per_s",
        (bulk_points + probe_points) as f64 / untraced.elapsed_s,
        "1/s",
        untraced.bulk.len() + untraced.probes.len(),
    );
    out.metric(
        "sim_minst_per_s",
        simulated / untraced.elapsed_s / 1e6,
        "Minst/s",
        untraced.bulk.len() + probe_points,
    );
    out.metric(
        "request_p50_ms",
        untraced.bulk_latency.median(),
        "ms",
        untraced.bulk_latency.len(),
    );
    out.metric("request_p99_ms", tail, "ms", untraced.bulk_latency.len());
    out.metric("rss_peak_mb", rss, "MB", 1);
    let (probe_q, probe_tail) = untraced.probe_latency.tail();
    let (lag_q, lag_tail) = untraced.lag.tail();
    out.line(format!(
        "request = one bulk grid, written to its done line; tail is {} of {}",
        percentile_label(q),
        untraced.bulk_latency.len()
    ));
    out.line(format!(
        "probe_p50_ms {:.4}  probe_p99_ms {probe_tail:.4} ({} of {} probes, timed from due time)",
        untraced.probe_latency.median(),
        percentile_label(probe_q),
        untraced.probe_latency.len()
    ));
    out.line(format!(
        "gen_lag_p99_ms {lag_tail:.4} ({} of {}; median lag {:.4} ms)",
        percentile_label(lag_q),
        untraced.lag.len(),
        untraced.lag.median()
    ));
    out.line(format!(
        "workload: bulk hit share {:.4} ({bulk_hits} of {bulk_points}), probe hit share {:.4} \
         ({probe_hits} of {probe_points}), 12 points per bulk request and 1 per probe, {} programs pinned, \
         {:.0} simulated instructions per simulated point, 1 bulk client with {BULK_IN_FLIGHT} in flight \
         + open-loop probes at {PROBE_HZ}/s",
        bulk_hits as f64 / bulk_points.max(1) as f64,
        probe_hits as f64 / probe_points.max(1) as f64,
        counters.get("pinned").copied().unwrap_or(0),
        {
            let sim_points = (bulk_points as u64 - bulk_hits) + (probe_points as u64 - probe_hits);
            simulated / sim_points.max(1) as f64
        },
    ));

    if let Some(traced) = traced {
        tally_pass(&traced, &mut out);
        layers::report_overhead(
            &mut out,
            "request_p50_ms",
            untraced.bulk_latency.median(),
            traced.bulk_latency.median(),
        );
        // The untraced pass's first bulk grids are the same on every run
        // with this seed (the traced pass starts where it left off); the
        // sample adds the scalar reference at their points.
        let sample: Vec<Grid> = untraced
            .bulk
            .iter()
            .take(7)
            .map(|(g, _, _)| Grid {
                machines: MACHINES.to_vec(),
                ..g.clone()
            })
            .collect();
        let input = LayerInput {
            sample,
            warm: pins.clone(),
            replay: replay_of(&traced.bulk),
            counters,
        };
        layers::measure(ctx, &input, &mut oracle, &mut out);
        layers::report_spans(ctx, &mut out);
    }
    Ok(out)
}
