//! The server's bounded working set of lowerings: pinned programs stay
//! under the server's budget of trace instructions however many distinct
//! programs arrive, eviction never changes a result, a grid still running
//! on an evicted program completes, an evicted program's repeat is served
//! from the result cache, and a program that keeps being re-requested
//! outlives churn by one-shot programs.
//!
//! One test arms the process-global slow-point hook (`dae_core::fault`),
//! so every test in this binary serializes on [`HOOK_LOCK`].

use dae_core::{fault, StreamWait, SweepEvent, SweepSession};
use dae_serve::{
    parse_request, parse_response, serve_connection, Request, Response, SweepBackend, SweepRequest,
    SweepServer,
};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

static HOOK_LOCK: Mutex<()> = Mutex::new(());

/// The server's budget of resident lowered trace instructions
/// (`LOWERING_BUDGET` in `crates/serve/src/server.rs`); the programs below
/// are sized against it, so change both together.
const LOWERING_BUDGET: usize = 1 << 17;

/// Serializes the binary's tests, with the fault hooks disarmed.
fn serialized() -> MutexGuard<'static, ()> {
    let guard = HOOK_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    fault::reset();
    guard
}

fn request(line: &str) -> SweepRequest {
    match parse_request(line) {
        Ok(Request::Sweep(request)) => request,
        other => panic!("not a sweep request: {line}: {other:?}"),
    }
}

/// Trace instructions of a request's program: its weight in the table.
fn weight(line: &str) -> usize {
    let request = request(line);
    request
        .source
        .trace(request.iterations)
        .expect("source expands")
        .len()
}

/// Iterations of `trace` that expand to about `instructions` trace
/// instructions.
fn iterations_for(trace: &str, instructions: usize) -> u64 {
    let per_100 = weight(&line("size", trace, 100));
    (instructions * 100).div_ceil(per_100) as u64
}

/// A sweep over `trace` sized to about `instructions` trace instructions,
/// `extra` iterations longer so each call can name a distinct program.
fn sweep(id: &str, trace: &str, instructions: usize, extra: u64) -> String {
    line(id, trace, iterations_for(trace, instructions) + extra)
}

/// A four-point grid whose DM points run at a 4-entry window (small
/// windows simulate fast even in debug builds).
fn line(id: &str, trace: &str, iterations: u64) -> String {
    format!(
        "sweep id={id} trace={trace} iterations={iterations} machines=scalar,dm windows=4 \
         mds=0,60 mode=batch"
    )
}

/// The cache-off oracle: the request's grid on a private session.
fn oracle(line: &str) -> Vec<u64> {
    let request = request(line);
    let mut session = SweepSession::new();
    session.set_cache_enabled(false);
    let trace = request.source.trace(request.iterations).expect("expands");
    let id = session.pin_trace(&trace);
    session.sweep_multi(&request.points(id))
}

/// What one sequential run of `lines` answered.
struct Run {
    cycles: HashMap<String, Vec<u64>>,
    cached: HashMap<String, u64>,
}

/// Serves `lines` on `server` in order, each on a connection of its own,
/// so each request finishes before the next is read; their responses.
fn serve_each(server: &Arc<SweepServer>, lines: &[String]) -> Vec<u8> {
    let mut output = Vec::new();
    for line in lines {
        serve_connection(server, format!("{line}\n").as_bytes(), &mut output).expect("serve");
    }
    output
}

/// Serves `lines` sequentially on `server`.
fn serve(server: &Arc<SweepServer>, lines: &[String]) -> Run {
    let output = serve_each(server, lines);
    let mut run = Run {
        cycles: HashMap::new(),
        cached: HashMap::new(),
    };
    for text in String::from_utf8(output).expect("utf8").lines() {
        match parse_response(text).expect("well-formed response") {
            Response::Point { id, cycles, .. } => run.cycles.entry(id).or_default().push(cycles),
            Response::Done {
                id,
                points,
                delivered,
                cached,
                ..
            } => {
                assert_eq!(delivered, points, "{text}");
                run.cached.insert(id, cached);
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    run
}

/// The server's `stats` counters by name.
fn stats(server: &SweepServer) -> HashMap<String, u64> {
    server.stats_fields().into_iter().collect()
}

/// Asserts that every request of `lines` answered its oracle's cycles.
fn assert_exact(run: &Run, lines: &[String]) {
    for line in lines {
        let id = &request(line).id;
        assert_eq!(run.cycles[id], oracle(line), "{line}");
    }
}

#[test]
fn distinct_programs_past_the_budget_stay_bounded_and_exact() {
    let _guard = serialized();
    let server = Arc::new(SweepServer::new());
    let programs = ["TRFD", "MDG", "QCD", "TRACK"];
    let lines: Vec<String> = (0..8)
        .map(|n| {
            let trace = programs[n % programs.len()];
            sweep(&format!("p{n}"), trace, LOWERING_BUDGET / 4, n as u64)
        })
        .collect();
    let lightest = lines.iter().map(|l| weight(l)).min().expect("programs");
    let run = serve(&server, &lines);
    assert_exact(&run, &lines);

    let stats = stats(&server);
    assert_eq!(stats["pinned"], 8, "{stats:?}");
    assert!(stats["pinned_resident"] >= 1);
    assert!(
        stats["pinned_resident"] as usize <= LOWERING_BUDGET / lightest,
        "resident lowerings exceed the budget: {stats:?}"
    );
    assert_eq!(
        stats["pin_evictions"],
        stats["pinned"] - stats["pinned_resident"]
    );
    assert_eq!(stats["pin_hits"], 0);
}

#[test]
fn a_grid_still_running_on_an_evicted_program_completes_exactly() {
    let _guard = serialized();
    let server = SweepServer::new();
    // Together the two programs exceed the budget, so pinning the second
    // evicts the first.
    let half = LOWERING_BUDGET / 2 + LOWERING_BUDGET / 16;
    let cold = format!(
        "sweep id=cold trace=TRFD iterations={} machines=dm,swsm windows=8 mds=0,60 \
         mode=stream",
        iterations_for("TRFD", half)
    );
    let evictor = sweep("evictor", "MDG", half, 0);

    // Every point sleeps first, so the cold grid is certainly running
    // when its lowering is evicted.
    fault::slow_every_point_ms(500);
    let mut running = server.submit_for(&request(&cold), None).expect("admitted");
    let other = server
        .submit_for(&request(&evictor), None)
        .expect("admitted");
    let stats_now = stats(&server);
    assert_eq!(stats_now["pin_evictions"], 1, "{stats_now:?}");
    assert_eq!(stats_now["pinned_resident"], 1, "{stats_now:?}");
    other.token.cancel();
    drop(other);

    let total = running.stream.total();
    let mut cycles = vec![None; total];
    let mut ready = 0;
    loop {
        match running.stream.next_event_timeout(Duration::ZERO) {
            StreamWait::Event(SweepEvent::Point(p)) => {
                cycles[p.index] = Some(p.cycles);
                ready += 1;
            }
            StreamWait::TimedOut => break,
            other => panic!("unexpected event: {other:?}"),
        }
    }
    assert!(ready < total, "the grid finished before its eviction");
    for event in &mut running.stream {
        cycles[event.index] = Some(event.cycles);
    }
    fault::reset();
    let cycles: Vec<u64> = cycles.into_iter().map(|c| c.expect("delivered")).collect();
    assert_eq!(cycles, oracle(&cold));
}

#[test]
fn a_repeat_after_eviction_is_answered_from_the_result_cache() {
    let _guard = serialized();
    let server = Arc::new(SweepServer::new());
    let first = sweep("first", "TRACK", LOWERING_BUDGET / 3, 0);
    let churn: Vec<String> = (0..4)
        .map(|n| sweep(&format!("c{n}"), "QCD", LOWERING_BUDGET / 3, n))
        .collect();
    let again = first.replace("id=first", "id=again");
    let lines: Vec<String> = [vec![first], churn, vec![again]].concat();
    let run = serve(&server, &lines);
    assert_exact(&run, &lines);

    let points = request(&lines[0]).grid().len() as u64;
    assert_eq!(run.cached["first"], 0);
    assert_eq!(run.cached["again"], points, "the repeat simulates nothing");
    let stats = stats(&server);
    assert!(stats["pin_evictions"] > 0, "{stats:?}");
    assert_eq!(stats["pinned"], 6, "the evicted program is re-lowered");
    assert_eq!(stats["pin_hits"], 0);
}

#[test]
fn a_re_requested_program_outlives_one_shot_churn() {
    let _guard = serialized();
    let server = Arc::new(SweepServer::new());
    let hot = |n: usize| line(&format!("hot{n}"), "FLO52Q", 200);
    let mut lines = vec![hot(0), hot(1)];
    let mut churned = 0;
    let mut one_shots = 0;
    while churned <= 2 * LOWERING_BUDGET {
        let once = sweep(
            &format!("once{one_shots}"),
            "DYFESM",
            LOWERING_BUDGET / 5,
            one_shots as u64,
        );
        churned += weight(&once);
        lines.push(once);
        lines.push(hot(2 + one_shots));
        one_shots += 1;
    }
    let run = serve(&server, &lines);
    let hot_lines: Vec<String> = lines
        .iter()
        .filter(|l| l.starts_with("sweep id=hot"))
        .cloned()
        .collect();
    assert_exact(&run, &hot_lines);

    let stats = stats(&server);
    assert!(stats["pin_evictions"] > 0, "{stats:?}");
    assert_eq!(
        stats["pinned"],
        1 + one_shots as u64,
        "the re-requested program was never re-lowered: {stats:?}"
    );
    assert_eq!(stats["pin_hits"], 1 + one_shots as u64);
    let last = hot(1 + one_shots);
    assert_eq!(
        run.cached[&request(&last).id],
        request(&last).grid().len() as u64
    );
}

/// The two-sweep transcript of `docs/PROTOCOL.md`: the repeat is a
/// program-table hit and the sweep-result cache answers all its points.
#[test]
fn the_protocol_transcript_counts_its_pin_hit() {
    let _guard = serialized();
    let server = Arc::new(SweepServer::new());
    let grid = "trace=TRFD iterations=100 machines=dm,swsm windows=8,32 mds=0,60 mode=stream";
    let lines = [
        format!("sweep id=a {grid}"),
        format!("sweep id=b {grid}"),
        "stats".to_string(),
    ];
    let output = serve_each(&server, &lines);
    let text = String::from_utf8(output).expect("utf8");
    let stats_line = text.lines().last().expect("a stats reply");
    let Ok(Response::Stats { fields }) = parse_response(stats_line) else {
        panic!("not a stats reply: {stats_line}");
    };
    let fields: HashMap<String, u64> = fields.into_iter().collect();
    assert_eq!(fields["pinned"], 1);
    assert_eq!(fields["pin_hits"], 1);
    assert_eq!(fields["pinned_resident"], 1);
    assert_eq!(fields["pin_evictions"], 0);
    assert!(text.contains("done id=b points=8 delivered=8 dropped=0 aborted=0 failed=0 cached=8"));
}
