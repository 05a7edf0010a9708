//! Per-layer attribution for the traced run.
//!
//! Every number here comes from timing a call into one layer's public
//! functions from the benchmark process, on the workload's own inputs, or
//! from the server's `stats` counters.  Nothing inside the crates is
//! instrumented.  Each timed call is also recorded as a span.

use crate::spans::{SpanId, NO_SPAN};
use crate::stats::Samples;
use crate::wire::{fnv1a, Grid, Oracle, PointKey};
use crate::{Ctx, Outcome};
use dae_core::{
    cache_key_digest, dm_config, swsm_config, CancelToken, LoweredTrace, Machine, RequestClass,
    SweepEvent, SweepPoint, SweepSession,
};
use dae_machines::{DecoupledMachine, SuperscalarMachine};
use dae_serve::{parse_request, Partitioner, Request, Response, SweepServer, TraceSource};
use dae_trace::{
    expand_swsm, lower_scalar, partition, ContentHasher, DecoupledProgram, PartitionMode,
    SwsmProgram,
};
use dae_workloads::PerfectProgram;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// What the per-layer pass is measured on.
#[derive(Debug, Default)]
pub struct LayerInput {
    /// Grids whose programs are traced, lowered, hashed and pinned, and
    /// whose points are simulated one by one (a fixed sample of the
    /// workload's points).
    pub sample: Vec<Grid>,
    /// Grids submitted to the in-process server before the replay, so the
    /// replay sees the cache state the workload saw.
    pub warm: Vec<Grid>,
    /// The workload's requests, replayed in process, each with the wire
    /// latency the workload measured for it (ms), when it has one.
    pub replay: Vec<(Grid, Option<f64>)>,
    /// The program's own counters (`stats` verb names).
    pub counters: HashMap<String, u64>,
}

fn us(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// Measures every per-layer metric and adds it to `out`.
pub fn measure(ctx: &Ctx, input: &LayerInput, oracle: &mut Oracle, out: &mut Outcome) {
    let tracer = &ctx.tracer;
    let root = tracer.begin("layers", NO_SPAN, 0);
    oracle.add(&input.sample);

    // dae-workloads and dae-trace: expand, lower, hash — per program.
    let mut programs: Vec<(PerfectProgram, u64)> = input
        .sample
        .iter()
        .map(|g| (g.program, g.iterations))
        .collect();
    programs.sort_by_key(|&(p, it)| (p.name(), it));
    programs.dedup();
    let (mut trace_us, mut lower_us, mut hash_us, mut pin_us) = (
        Samples::new(),
        Samples::new(),
        Samples::new(),
        Samples::new(),
    );
    // Per program: the session's lowering and the DM and SWSM programs the
    // unit-statistics runs take.
    let mut lowered: HashMap<(PerfectProgram, u64), (LoweredTrace, DecoupledProgram, SwsmProgram)> =
        HashMap::new();
    let mut session = SweepSession::new();
    let mut ids = HashMap::new();
    for (i, &(program, iterations)) in programs.iter().enumerate() {
        let request = i as u64;
        let t = Instant::now();
        let trace = TraceSource::Perfect(program)
            .trace(iterations)
            .expect("PERFECT programs always expand");
        tracer.record("workloads.trace", root, request, t, Instant::now());
        trace_us.push(us(t));

        let t = Instant::now();
        let lowering = black_box(LoweredTrace::new(&trace));
        tracer.record("trace.lower", root, request, t, Instant::now());
        lower_us.push(us(t));

        // The content hash is computed inside `LoweredTrace::new`; time the
        // public hasher over the same lowered streams on its own.
        let dm = partition(&trace, PartitionMode::Tagged);
        let swsm = expand_swsm(&trace);
        let scalar = lower_scalar(&trace);
        let t = Instant::now();
        let mut hasher = ContentHasher::new();
        hasher.word(trace.len() as u64);
        hasher.stream(&dm.au);
        hasher.stream(&dm.du);
        hasher.stream(&swsm.insts);
        hasher.stream(&scalar.insts);
        black_box(hasher.finish());
        tracer.record("trace.hash", root, request, t, Instant::now());
        hash_us.push(us(t));

        let t = Instant::now();
        let id = session.pin_program(program, iterations);
        tracer.record("core.pin", root, request, t, Instant::now());
        pin_us.push(us(t));
        ids.insert((program, iterations), id);
        lowered.insert((program, iterations), (lowering, dm, swsm));
    }
    out.metric(
        "workloads.trace_us",
        trace_us.median(),
        "us",
        trace_us.len(),
    );
    out.metric("trace.lower_us", lower_us.median(), "us", lower_us.len());
    out.metric("trace.hash_us", hash_us.median(), "us", hash_us.len());
    out.metric("core.pin_us", pin_us.median(), "us", pin_us.len());

    // The engine: one point at a time on this thread, checked against the
    // oracle; unit statistics from `run_lowered` on the same points.
    let keys: Vec<PointKey> = input.sample.iter().flat_map(Grid::keys).collect();
    let mut point_us: HashMap<Machine, Samples> = HashMap::new();
    let (mut engine_ns, mut engine_insts) = (0.0, 0.0);
    let (mut starved, mut clocked) = (0u64, 0u64);
    for (i, &(program, iterations, machine, window, md)) in keys.iter().enumerate() {
        let (lowering, dm, swsm) = &lowered[&(program, iterations)];
        let t = Instant::now();
        let cycles = black_box(lowering.machine_cycles(machine, window, md));
        let elapsed = us(t);
        tracer.record("engine.point", root, i as u64, t, Instant::now());
        point_us.entry(machine).or_default().push(elapsed);
        let want = oracle.cycles(&(program, iterations, machine, window, md));
        out.tally(if want == Some(cycles) {
            Ok(())
        } else {
            Err(format!(
                "engine sample {program} {machine} w={window} md={md}: {cycles} vs oracle {want:?}"
            ))
        });
        let n = lowering.trace_instructions();
        match machine {
            Machine::Decoupled => {
                engine_ns += elapsed * 1e3;
                engine_insts += n as f64;
                let result = DecoupledMachine::new(dm_config(window, md)).run_lowered(dm, n);
                starved += result.au.starved_cycles + result.du.starved_cycles;
                clocked += result.au.cycles + result.du.cycles;
            }
            Machine::Superscalar => {
                engine_ns += elapsed * 1e3;
                engine_insts += n as f64;
                let result = SuperscalarMachine::new(swsm_config(window, md)).run_lowered(swsm, n);
                starved += result.unit.starved_cycles;
                clocked += result.unit.cycles;
            }
            Machine::Scalar => {}
        }
    }
    for (machine, name) in [
        (Machine::Decoupled, "engine.dm_point_us"),
        (Machine::Superscalar, "engine.swsm_point_us"),
        (Machine::Scalar, "engine.scalar_point_us"),
    ] {
        let samples = point_us.remove(&machine).unwrap_or_default();
        out.metric(name, samples.median(), "us", samples.len());
    }
    out.metric(
        "engine.ns_per_inst",
        engine_ns / engine_insts.max(1.0),
        "ns",
        keys.len(),
    );
    // `UnitStats::cycles` counts the cycles the engine skipped as well as
    // the ones it stepped, so the stepped share is not visible from
    // outside; the starved share — unit-cycles with a non-empty window and
    // nothing issuable — bounds what time-skipping can skip.
    out.line(format!(
        "engine.starved_share {:.6} (deterministic: {starved} of {clocked} unit-cycles over the sample)",
        ratio(starved, clocked)
    ));

    // dae-core session: streamed submit and queue wait with a cold cache,
    // then the batched path on a cleared cache, then a fully cached stream.
    let grid_points = |g: &Grid| -> Vec<SweepPoint> {
        let id = ids[&(g.program, g.iterations)];
        g.points()
            .into_iter()
            .map(|(m, w, md)| (id, m, w, md))
            .collect()
    };
    let (mut submit_us, mut wait_us) = (Samples::new(), Samples::new());
    for (i, grid) in input.sample.iter().enumerate() {
        let points = grid_points(grid);
        let t = Instant::now();
        let mut stream = session.stream_classified(
            &points,
            &CancelToken::new(),
            RequestClass::new(grid.priority, 1),
        );
        submit_us.push(us(t));
        let submitted = Instant::now();
        tracer.record("core.submit", root, i as u64, t, submitted);
        let first = stream.next_event();
        wait_us.push(us(t));
        tracer.record("core.queue_wait", root, i as u64, submitted, Instant::now());
        if !matches!(first, Some(SweepEvent::Point(_))) {
            out.fail(format!("core sample {i}: first event {first:?}"));
        }
        while stream.next_event().is_some() {}
    }
    out.metric("core.submit_us", submit_us.median(), "us", submit_us.len());
    out.metric("core.queue_wait_us", wait_us.median(), "us", wait_us.len());

    session.clear_cache();
    let base = session.cache_stats();
    let all: Vec<SweepPoint> = keys
        .iter()
        .map(|&(p, it, m, w, md)| (ids[&(p, it)], m, w, md))
        .collect();
    let t = Instant::now();
    let cycles = black_box(session.sweep_multi(&all));
    tracer.record("core.batch", root, 0, t, Instant::now());
    out.metric(
        "core.batch_point_us",
        us(t) / all.len() as f64,
        "us",
        all.len(),
    );
    out.tally(
        if keys
            .iter()
            .zip(&cycles)
            .all(|(k, &c)| oracle.cycles(k) == Some(c))
        {
            Ok(())
        } else {
            Err("batched sample differs from the oracle".to_string())
        },
    );
    let mut hit_ns = Samples::new();
    for rep in 0..7 {
        let t = Instant::now();
        let cached = black_box(session.stream(&all).collect_ordered());
        tracer.record("core.hit_stream", root, rep, t, Instant::now());
        hit_ns.push(us(t) * 1e3 / all.len() as f64);
        if cached != cycles {
            out.fail("cached stream differs from the batched sweep".to_string());
        }
    }
    out.metric("core.hit_ns_per_point", hit_ns.median(), "ns", hit_ns.len());
    let cache = session.cache_stats();
    out.line(format!(
        "deterministic: sample cycles digest {:016x} over {} points, sample cache hits {} \
         misses {} lookups {}",
        fnv1a(format!("{cycles:?}").as_bytes()),
        cycles.len(),
        cache.hits - base.hits,
        cache.misses - base.misses,
        cache.lookups - base.lookups
    ));

    // The program's own counters.
    let c = |name: &str| input.counters.get(name).copied().unwrap_or(0);
    out.metric(
        "core.cache_hit_ratio",
        ratio(c("cache_hits"), c("cache_lookups")),
        "ratio",
        c("cache_lookups") as usize,
    );
    out.metric(
        "machines.warm_unit_share",
        ratio(
            c("warm_unit_takes"),
            c("warm_unit_takes") + c("fresh_unit_takes"),
        ),
        "ratio",
        (c("warm_unit_takes") + c("fresh_unit_takes")) as usize,
    );
    out.line(format!(
        "counters: cache hits {} / lookups {} (misses {}), pool.steals {}, pool.steal_success {:.4} \
         ({} attempts), pool.local_pops {}, pool.claim_drops {}, serve.busy_rejections {}, \
         redispatched_points {}, coordinator_timeouts {}",
        c("cache_hits"),
        c("cache_lookups"),
        c("cache_misses"),
        c("steals"),
        ratio(c("steals"), c("steal_attempts")),
        c("steal_attempts"),
        c("local_pops"),
        c("claim_drops"),
        c("busy_rejections"),
        c("redispatched_points"),
        c("coordinator_timeouts"),
    ));

    replay(ctx, input, oracle, root, out);

    // Coordinator placement: digest + ring lookup per point.
    let partitioner = Partitioner::new(2);
    let hashes: Vec<_> = keys
        .iter()
        .map(|&(p, it, m, w, md)| (lowered[&(p, it)].0.content_hash(), m, w, md))
        .collect();
    const REPS: usize = 200;
    let t = Instant::now();
    let mut placed = 0usize;
    for _ in 0..REPS {
        for &(hash, m, w, md) in &hashes {
            placed += black_box(partitioner.assign(cache_key_digest(hash, m, w, md))).unwrap_or(0);
        }
    }
    black_box(placed);
    tracer.record("coordinator.place", root, 0, t, Instant::now());
    out.metric(
        "coordinator.place_ns",
        us(t) * 1e3 / (REPS * hashes.len()) as f64,
        "ns",
        REPS * hashes.len(),
    );
    tracer.end(root);
}

/// Replays the workload's request lines through an in-process
/// [`SweepServer`]: parse, submit, drain, format — the server's work for a
/// request without the wire.
fn replay(ctx: &Ctx, input: &LayerInput, oracle: &mut Oracle, root: SpanId, out: &mut Outcome) {
    let tracer = &ctx.tracer;
    let server = SweepServer::new();
    let client = server.register_client();
    let parse = |line: &str| match parse_request(line) {
        Ok(Request::Sweep(request)) => Ok(request),
        other => Err(format!("{line:?} parsed as {other:?}")),
    };
    for (i, grid) in input.warm.iter().enumerate() {
        let drained = parse(&grid.line(&format!("w{i}")))
            .and_then(|r| {
                server
                    .submit_for(&r, Some(&client))
                    .map_err(|e| format!("{e:?}"))
            })
            .map(|mut s| while s.stream.next_event().is_some() {});
        if let Err(e) = drained {
            out.fail(format!("replay warm-up: {e}"));
        }
    }
    oracle.add(
        &input
            .replay
            .iter()
            .map(|(g, _)| g.clone())
            .collect::<Vec<_>>(),
    );

    let (mut submit_us, mut format_ns) = (Samples::new(), 0.0);
    let (mut formatted, mut attributed_ms, mut wire_ms) = (0usize, 0.0, 0.0);
    let (mut wire, mut in_process) = (Samples::new(), Samples::new());
    for (i, (grid, wire_latency)) in input.replay.iter().enumerate() {
        let request_id = i as u64;
        let line = grid.line(&format!("r{i}"));
        let started = Instant::now();
        let span = tracer.begin("replay.request", root, request_id);
        let request = match tracer.time("serve.parse", span, request_id, || parse(&line)) {
            Ok(request) => request,
            Err(e) => {
                out.fail(e);
                continue;
            }
        };
        let t = Instant::now();
        let submitted = server.submit_for(&request, Some(&client));
        submit_us.push(us(t));
        tracer.record("serve.submit", span, request_id, t, Instant::now());
        let mut submission = match submitted {
            Ok(submission) => submission,
            Err(e) => {
                out.fail(format!("replay submit: {e:?}"));
                continue;
            }
        };
        let drain = tracer.begin("core.drain", span, request_id);
        let mut points = Vec::new();
        while let Some(event) = submission.stream.next_event() {
            match event {
                SweepEvent::Point(p) => points.push(p),
                other => out.fail(format!("replay event {other:?}")),
            }
        }
        tracer.end(drain);
        let drained_ms = started.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let format = tracer.begin("serve.format", span, request_id);
        let mut bytes = 0;
        let grid_points = grid.points();
        for p in &points {
            let (machine, window, md) = grid_points[p.index];
            let line = Response::Point {
                id: request.id.clone(),
                index: p.index,
                machine,
                window,
                md,
                cycles: p.cycles,
            }
            .to_string();
            bytes += black_box(line).len();
        }
        black_box(bytes);
        tracer.end(format);
        format_ns += us(t) * 1e3;
        formatted += points.len();
        tracer.end(span);
        let layer_ms = started.elapsed().as_secs_f64() * 1e3;
        let all_match = points.len() == grid_points.len()
            && points.iter().all(|p| {
                let (m, w, md) = grid_points[p.index];
                oracle.cycles(&(grid.program, grid.iterations, m, w, md)) == Some(p.cycles)
            });
        out.tally(if all_match {
            Ok(())
        } else {
            Err(format!("replayed request {i} differs from the oracle"))
        });
        if let Some(w) = *wire_latency {
            wire.push(w);
            in_process.push(drained_ms);
            wire_ms += w;
            attributed_ms += layer_ms;
        }
    }
    // Parsing is sub-microsecond: time many passes over all lines.
    let lines: Vec<String> = input
        .replay
        .iter()
        .enumerate()
        .map(|(i, (g, _))| g.line(&format!("r{i}")))
        .collect();
    const PARSE_REPS: usize = 50;
    let t = Instant::now();
    for _ in 0..PARSE_REPS {
        for line in &lines {
            black_box(parse_request(black_box(line)).is_ok());
        }
    }
    let parses = PARSE_REPS * lines.len();
    out.metric(
        "serve.parse_ns",
        us(t) * 1e3 / parses.max(1) as f64,
        "ns",
        parses,
    );
    out.metric(
        "serve.format_ns",
        format_ns / formatted.max(1) as f64,
        "ns",
        formatted,
    );
    out.metric("serve.submit_us", submit_us.median(), "us", submit_us.len());
    if wire.len() > 0 {
        out.line(format!(
            "serve.wire_us {:.1} us (wire p50 {:.3} ms minus in-process submit+drain p50 {:.3} ms, n={})",
            (wire.median() - in_process.median()) * 1e3,
            wire.median(),
            in_process.median(),
            wire.len()
        ));
        out.line(format!(
            "unattributed_share {:.5} (wire time no layer span covers, over {} replayed requests)",
            1.0 - attributed_ms / wire_ms,
            wire.len()
        ));
    }
}

/// Prints each layer's span count, total and self time.
pub fn report_spans(ctx: &Ctx, out: &mut Outcome) {
    for (name, totals) in ctx.tracer.totals() {
        out.line(format!(
            "span {name:<20} n={:<6} total {:>10.3} ms  self {:>10.3} ms",
            totals.count,
            totals.total_ns as f64 / 1e6,
            totals.self_ns as f64 / 1e6
        ));
    }
}

/// Prints the tracing overhead: the traced pass against the untraced one.
pub fn report_overhead(out: &mut Outcome, what: &str, untraced: f64, traced: f64) {
    out.line(format!(
        "tracing overhead on {what}: untraced {untraced:.4}, traced {traced:.4} ({:+.2}%)",
        (traced - untraced) / untraced * 100.0
    ));
}
