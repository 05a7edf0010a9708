//! Fault-injection end-to-end suite: the server must survive panicking
//! points, expired deadlines, admission pressure, mid-stream disconnects,
//! oversized grids and shutdown — each with balanced `done` accounting,
//! and each followed by a bit-for-bit correct sweep to prove nothing was
//! poisoned.
//!
//! The fault hooks (`dae_core::fault`) are process-global, so every test
//! in this binary serializes on [`FAULT_LOCK`] — including the ones that
//! arm nothing.

use dae_core::{fault, SweepSession};
use dae_serve::{
    await_drained, parse_request, parse_response, serve_connection, serve_tcp, Coordinator,
    DoneStatus, Partitioner, Request, Response, ServerLimits, ShutdownMode, SweepBackend,
    SweepServer,
};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Serializes the binary's tests and guarantees hook reset even if the
/// previous holder panicked.
fn faults() -> MutexGuard<'static, ()> {
    let guard = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    fault::reset();
    guard
}

/// A four-point grid over the TRFD kernel (distinct enough to exercise
/// several machines, small enough to drain in milliseconds unfaulted).
fn sweep_line(id: &str, extra: &str) -> String {
    format!(
        "sweep id={id} trace=TRFD iterations=120 machines=dm,swsm windows=16 mds=0,60 \
         mode=stream{extra}"
    )
}

/// The in-process oracle for one request line: the canonical grid on a
/// private session.
fn oracle(line: &str) -> Vec<u64> {
    let Ok(Request::Sweep(request)) = parse_request(line) else {
        panic!("oracle line must be a sweep request: {line}");
    };
    let mut session = SweepSession::new();
    let trace = request
        .source
        .trace(request.iterations)
        .expect("oracle source expands");
    let id = session.pin_trace(&trace);
    session.sweep_multi(&request.points(id))
}

/// Everything one request produced on the wire.
#[derive(Default)]
struct Outcome {
    points: HashMap<usize, u64>,
    errors: Vec<String>,
    done: Option<Response>,
}

/// Runs `input` through a fresh stdin-shaped connection on `server` and
/// groups the responses by request id (errors without an id land under
/// `""`).
fn run(server: &Arc<SweepServer>, input: &str) -> HashMap<String, Outcome> {
    outcomes(&transcript(server, input))
}

/// What a fresh stdin-shaped connection on `server` writes for `input`.
fn transcript(server: &Arc<SweepServer>, input: &str) -> String {
    let mut output = Vec::new();
    serve_connection(server, input.as_bytes(), &mut output).expect("serve");
    String::from_utf8(output).expect("utf8")
}

/// The responses of a transcript, grouped by request id.
fn outcomes(transcript: &str) -> HashMap<String, Outcome> {
    let mut outcomes: HashMap<String, Outcome> = HashMap::new();
    for line in transcript.lines() {
        match parse_response(line).expect("well-formed response") {
            Response::Point {
                id, index, cycles, ..
            } => {
                outcomes.entry(id).or_default().points.insert(index, cycles);
            }
            Response::Error { id, message } => {
                outcomes
                    .entry(id.unwrap_or_default())
                    .or_default()
                    .errors
                    .push(message);
            }
            done @ Response::Done { .. } => {
                let Response::Done { id, .. } = &done else {
                    unreachable!()
                };
                let id = id.clone();
                outcomes.entry(id).or_default().done = Some(done);
            }
            busy @ Response::Busy { .. } => {
                let Response::Busy { id, .. } = &busy else {
                    unreachable!()
                };
                let id = id.clone();
                outcomes.entry(id).or_default().done = Some(busy);
            }
            Response::Shutdown { .. }
            | Response::Stats { .. }
            | Response::Cancelled { .. }
            | Response::Cache { .. } => {}
        }
    }
    outcomes
}

/// Asserts that `server` still serves correctly: a fresh sweep of the
/// canonical grid matches the in-process oracle bit for bit.
fn assert_still_serving(server: &Arc<SweepServer>, id: &str) {
    fault::reset();
    let line = sweep_line(id, "");
    let outcomes = run(server, &format!("{line}\n"));
    let outcome = &outcomes[id];
    let expected = oracle(&line);
    assert_eq!(outcome.points.len(), expected.len(), "post-fault sweep");
    for (index, cycles) in expected.iter().enumerate() {
        assert_eq!(
            outcome.points[&index], *cycles,
            "post-fault point {index} must match the reference"
        );
    }
    let Some(Response::Done {
        delivered,
        dropped,
        aborted,
        failed,
        status,
        ..
    }) = outcome.done
    else {
        panic!("post-fault sweep must finish");
    };
    assert_eq!(delivered, expected.len());
    assert_eq!(dropped + aborted + failed, 0);
    assert_eq!(status, DoneStatus::Ok);
}

/// An injected point panic produces one `error` line and a `done` with
/// `failed=1 status=error`; the other points deliver correctly and the
/// server keeps serving bit-for-bit afterwards.
#[test]
fn a_panicking_point_fails_its_own_request_only() {
    let _guard = faults();
    let server = Arc::new(SweepServer::new());
    let line = sweep_line("wounded", "");
    let expected = oracle(&line);

    fault::panic_on_nth_start(1);
    let outcomes = run(&server, &format!("{line}\n"));
    let outcome = &outcomes["wounded"];
    assert_eq!(outcome.errors.len(), 1, "exactly one point was sabotaged");
    assert!(
        outcome.errors[0].contains("injected fault"),
        "the panic message travels to the client: {:?}",
        outcome.errors
    );
    let Some(Response::Done {
        points,
        delivered,
        dropped,
        aborted,
        failed,
        status,
        ..
    }) = outcome.done
    else {
        panic!("the request must still finish");
    };
    assert_eq!(points, expected.len());
    assert_eq!(failed, 1);
    assert_eq!(delivered, expected.len() - 1);
    assert_eq!(delivered + dropped + aborted + failed, points);
    assert_eq!(status, DoneStatus::Error);
    for (index, cycles) in &outcome.points {
        assert_eq!(*cycles, expected[*index], "delivered point {index}");
    }

    assert_still_serving(&server, "healed");
}

/// Two grids pipelined on one connection, the second a copy of the
/// first's first two points: the second is submitted while the first
/// still runs, so its points miss at submit time, yet its jobs find the
/// first grid's results resident and deliver them `cached`.  Those points
/// count as cache hits, so with every request `status=ok` the `done`
/// lines' `cached` sum equals `cache_hits`.  The slow-point hook orders it
/// without a race: each simulated point sleeps first, and the pool runs
/// one client's jobs first in, first out, so the second grid's jobs start
/// only once all sixteen of the first grid's have, long after its first
/// two finished.
#[test]
fn points_delivered_cached_are_counted_as_cache_hits() {
    let _guard = faults();
    let server = Arc::new(SweepServer::new());
    let first = "sweep id=first trace=TRFD iterations=120 machines=dm,swsm windows=8,16,32,64 \
                 mds=0,60 mode=stream";
    let second = "sweep id=second trace=TRFD iterations=120 machines=dm windows=8 mds=0,60 \
                  mode=stream";

    fault::slow_every_point_ms(10);
    let outcomes = run(&server, &format!("{first}\n{second}\n"));
    fault::reset();
    let mut cached = HashMap::new();
    for (id, points) in [("first", 16), ("second", 2)] {
        let Some(Response::Done {
            delivered,
            cached: from_cache,
            status,
            ..
        }) = outcomes[id].done
        else {
            panic!("{id} must finish");
        };
        assert_eq!((delivered, status), (points, DoneStatus::Ok), "{id}");
        cached.insert(id, from_cache);
    }
    assert_eq!(cached["first"], 0, "the first grid simulates everything");
    assert_eq!(
        cached["second"], 2,
        "the second grid rode the first's results"
    );
    let stats: HashMap<String, u64> = server.stats_fields().into_iter().collect();
    assert_eq!(
        cached.values().sum::<u64>(),
        stats["cache_hits"],
        "every point delivered cached is a cache hit: {stats:?}"
    );
    assert_eq!(
        stats["cache_hits"] + stats["cache_misses"],
        stats["cache_lookups"]
    );
}

/// A sweep whose deadline expires is cancelled mid-flight: running points
/// abort, the `done` reports `status=timeout` with balanced accounting,
/// and the request returns long before the grid could have finished.
#[test]
fn an_expired_deadline_cancels_the_sweep_mid_flight() {
    let _guard = faults();
    let server = Arc::new(SweepServer::new());

    // Every point sleeps 300 ms before simulating; the request allows 40.
    fault::slow_every_point_ms(300);
    let line = sweep_line("late", " deadline_ms=40");
    let started = Instant::now();
    let outcomes = run(&server, &format!("{line}\n"));
    let elapsed = started.elapsed();
    let outcome = &outcomes["late"];
    let Some(Response::Done {
        points,
        delivered,
        dropped,
        aborted,
        failed,
        status,
        ..
    }) = outcome.done
    else {
        panic!("a timed-out request must still write its done line");
    };
    assert_eq!(status, DoneStatus::Timeout);
    assert_eq!(delivered, 0, "no point can finish through a 300 ms sleep");
    assert_eq!(delivered + dropped + aborted + failed, points);
    assert!(
        aborted >= 1,
        "points already sleeping at expiry must abort (aborted={aborted}, dropped={dropped})"
    );
    // Each worker sleeps once (300 ms), aborts on its first engine poll,
    // and never picks up another point; a full run would cost ~4 sleeps on
    // a narrow pool, plus simulation time.
    assert!(
        elapsed < Duration::from_millis(900),
        "expiry must cut the request short, not run the grid: {elapsed:?}"
    );
    let fields = server.stats_fields();
    let field = |name: &str| {
        fields
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("stats must report {name}"))
            .1
    };
    assert_eq!(field("timeout_requests"), 1);
    assert!(field("aborted_points") >= 1);

    assert_still_serving(&server, "punctual");
}

/// Two sweeps on one connection share its drainer yet stay independent.
/// One whose deadline expires ends `status=timeout` at that deadline,
/// before the other, which ends `ok` with every point; a `cancel` of one
/// leaves the other's points and `done` intact.  (A client that
/// disconnects cancels both: `a_mid_stream_disconnect_cancels_the_sweep`
/// sends two grids.)
#[test]
fn sweeps_sharing_a_connection_stay_independent() {
    let _guard = faults();
    let server = Arc::new(SweepServer::new());
    // Every point sleeps 100 ms, so neither sweep finishes before the
    // deadline or the cancel lands.
    fault::slow_every_point_ms(100);
    let cases = [
        ("late", " deadline_ms=50", DoneStatus::Timeout),
        ("gone", "\ncancel id=gone", DoneStatus::Cancelled),
    ];
    for (window, (id, extra, status)) in [32, 48].into_iter().zip(cases) {
        let first = sweep_line(id, extra);
        // The other sweep's points are its own: none is cached or shared
        // with the first sweep's jobs.
        let keep = format!("keep-{id}");
        let other = format!(
            "sweep id={keep} trace=TRFD iterations=120 machines=dm,swsm windows={window} \
             mds=0,60 mode=stream"
        );
        let expected = oracle(&other);
        let text = transcript(&server, &format!("{first}\n{other}\n"));
        let done_at = |id: &str| text.find(&format!("done id={id} ")).expect("a done line");
        assert!(done_at(id) < done_at(&keep), "{id} ends first:\n{text}");
        let outcomes = outcomes(&text);
        let Some(Response::Done {
            points,
            delivered,
            dropped,
            aborted,
            failed,
            status: ended,
            ..
        }) = outcomes[id].done
        else {
            panic!("{id} must finish");
        };
        assert_eq!(ended, status, "{id}:\n{text}");
        assert!(dropped + aborted > 0, "{id} was cut short:\n{text}");
        assert_eq!(delivered + dropped + aborted + failed, points);
        let kept = &outcomes[&keep];
        let Some(Response::Done {
            delivered, status, ..
        }) = kept.done
        else {
            panic!("{keep} must finish");
        };
        assert_eq!(
            (delivered, status),
            (expected.len(), DoneStatus::Ok),
            "{keep}:\n{text}"
        );
        for (index, cycles) in expected.iter().enumerate() {
            assert_eq!(kept.points[&index], *cycles, "{keep} point {index}");
        }
    }
    fault::reset();
    assert_eq!(server.queue_depth(), 0);
}

/// Admission control: a sweep exceeding the global queue cap is refused
/// with a structured `busy` line (nothing submitted, nothing leaked), a
/// sweep within the cap still runs, and the per-client cap binds too.
#[test]
fn over_limit_sweeps_get_busy_with_a_retry_hint() {
    let _guard = faults();
    let limits = ServerLimits {
        max_client_in_flight: 3,
        max_queue_depth: 3,
        retry_after_ms: 25,
    };
    let server = Arc::new(SweepServer::with_session_and_limits(
        SweepSession::new(),
        limits,
    ));

    // Four points > both caps; the same grid shrunk to two fits.
    let big = sweep_line("big", "");
    let small = "sweep id=small trace=TRFD iterations=120 machines=dm windows=16 mds=0,60 \
                 mode=stream";
    let outcomes = run(&server, &format!("{big}\n{small}\n"));
    let Some(Response::Busy {
        queued,
        limit,
        retry_after_ms,
        ..
    }) = outcomes["big"].done
    else {
        panic!("the oversized sweep must be refused with busy");
    };
    assert_eq!(limit, 3);
    assert_eq!(queued, 0, "nothing was queued when the refusal happened");
    assert_eq!(retry_after_ms, 25);
    let Some(Response::Done {
        delivered, status, ..
    }) = outcomes["small"].done
    else {
        panic!("the small sweep fits under the cap");
    };
    assert_eq!(delivered, 2);
    assert_eq!(status, DoneStatus::Ok);
    assert_eq!(
        server.queue_depth(),
        0,
        "refusals and completions must both release their reservations"
    );
    let rejections = server
        .stats_fields()
        .iter()
        .find(|(n, _)| n == "busy_rejections")
        .expect("stats report rejections")
        .1;
    assert_eq!(rejections, 1);

    // Still serving (with a grid that fits under the tiny caps): the
    // repeat of the admitted sweep is answered correctly — and from cache.
    let again = run(&server, &format!("{small}\n"));
    let outcome = &again["small"];
    let reference = oracle(small);
    assert_eq!(outcome.points.len(), reference.len());
    for (index, cycles) in reference.iter().enumerate() {
        assert_eq!(outcome.points[&index], *cycles, "post-busy point {index}");
    }
    let Some(Response::Done { cached, .. }) = outcome.done else {
        panic!("the repeat must finish");
    };
    assert_eq!(cached, reference.len() as u64);
}

/// A grid larger than the protocol's hard cap is rejected at parse time
/// with an `error` line and the server keeps serving.
#[test]
fn oversized_grids_are_rejected_outright() {
    let _guard = faults();
    let server = Arc::new(SweepServer::new());
    // 2 machines × 33 windows × 1000 mds = 66 000 points > MAX_POINTS.
    let windows: Vec<String> = (1..=33).map(|w| (w * 2).to_string()).collect();
    let mds: Vec<String> = (0..1000).map(|m| m.to_string()).collect();
    let oversized = format!(
        "sweep id=huge trace=TRFD iterations=120 machines=dm,swsm windows={} mds={} mode=stream",
        windows.join(","),
        mds.join(",")
    );
    let outcomes = run(&server, &format!("{oversized}\n"));
    let errors = &outcomes["huge"].errors;
    assert_eq!(errors.len(), 1, "one structured rejection: {errors:?}");
    assert!(
        errors[0].contains("points"),
        "the rejection names the cap: {errors:?}"
    );
    assert!(outcomes["huge"].done.is_none(), "nothing was submitted");

    assert_still_serving(&server, "after-huge");
}

/// Dead-client cleanup: when a streaming client disconnects mid-sweep, the
/// failed write cancels its requests — pending points are skipped and
/// running points abort — so the queue drains long before either of its
/// two grids could have finished, almost nothing is simulated, and the
/// server keeps serving.  (That a cancelled token aborts a point *mid-simulation* is
/// pinned deterministically by the deadline test above, whose expiry fires
/// while workers sleep; here the cancel races worker boundaries, so the
/// drop-vs-abort split is not asserted.)
#[test]
fn a_mid_stream_disconnect_cancels_the_sweep() {
    let _guard = faults();
    let server = Arc::new(SweepServer::new());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let port = listener.local_addr().expect("addr").port();
    {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            let _ = serve_tcp(&server, &listener);
        });
    }

    // A wide slow grid: 320 points × 150 ms sleep each — over three
    // seconds of sleep even for a 16-worker pool, 48 s for one worker.
    // The client reads one point line and vanishes; a later delivery's
    // write fails, cancelling the token.
    fault::slow_every_point_ms(150);
    let mds: Vec<String> = (0..20).map(|m| (m * 7).to_string()).collect();
    let wide = format!(
        "sweep id=wide trace=TRFD iterations=120 machines=dm,swsm \
         windows=4,8,12,16,24,32,48,64 mds={} mode=stream",
        mds.join(",")
    );
    // A second grid beside it shares the connection's drainer, and the
    // disconnect must cancel it too.
    let beside = wide.replace("id=wide", "id=beside").replace(
        "windows=4,8,12,16,24,32,48,64",
        "windows=6,10,14,20,28,40,56,72",
    );
    {
        let mut client = TcpStream::connect(("127.0.0.1", port)).expect("connect");
        let mut reader = BufReader::new(client.try_clone().expect("clone"));
        writeln!(client, "{wide}\n{beside}").unwrap();
        let mut line = String::new();
        assert!(reader.read_line(&mut line).expect("first point") > 0);
        assert!(line.starts_with("point "), "unexpected line: {line}");
        // Dropping both halves closes the socket abruptly from the
        // server's point of view: its next writes fail.
    }

    // The queue must drain far faster than the grid could possibly run:
    // cancellation skips the pending points and aborts the in-flight ones.
    let deadline = Instant::now() + Duration::from_millis(2_500);
    while server.queue_depth() > 0 {
        assert!(
            Instant::now() < deadline,
            "disconnect must drain the queue, not run the grid (depth {})",
            server.queue_depth()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let cache_entries = server
        .stats_fields()
        .iter()
        .find(|(n, _)| n == "cache_entries")
        .expect("stats report cache entries")
        .1;
    assert!(
        cache_entries < 160,
        "most of the grid must never simulate after the client vanished \
         (cache_entries={cache_entries})"
    );

    assert_still_serving(&server, "after-disconnect");
}

/// Graceful shutdown, drain mode: in-flight sweeps finish and write their
/// `done` lines, the shutdown is acknowledged, and later sweeps on the
/// same server are refused.
#[test]
fn shutdown_drain_finishes_in_flight_work_then_refuses_new_sweeps() {
    let _guard = faults();
    let server = Arc::new(SweepServer::new());
    let line = sweep_line("final", "");
    let expected = oracle(&line);

    let mut output = Vec::new();
    serve_connection(
        &server,
        format!("{line}\nshutdown\n").as_bytes(),
        &mut output,
    )
    .expect("serve");
    let text = String::from_utf8(output).expect("utf8");
    let mut saw_ack = false;
    let mut done = None;
    for wire in text.lines() {
        match parse_response(wire).expect("well-formed") {
            Response::Shutdown { mode } => {
                assert_eq!(mode, ShutdownMode::Drain);
                saw_ack = true;
            }
            d @ Response::Done { .. } => done = Some(d),
            Response::Point { .. } => {}
            other => panic!("unexpected: {other:?}"),
        }
    }
    assert!(saw_ack, "shutdown must be acknowledged");
    let Some(Response::Done {
        delivered, status, ..
    }) = done
    else {
        panic!("the in-flight sweep must drain to its done line");
    };
    assert_eq!(delivered, expected.len(), "drain mode finishes the work");
    assert_eq!(status, DoneStatus::Ok);
    assert!(server.is_shutting_down());
    assert!(await_drained(&server, Duration::from_secs(5)));

    // A later connection is refused.
    let refused = run(&server, &format!("{}\n", sweep_line("too-late", "")));
    let errors = &refused["too-late"].errors;
    assert_eq!(errors.len(), 1);
    assert!(
        errors[0].contains("shutting down"),
        "the refusal says why: {errors:?}"
    );
}

/// Graceful shutdown, abort mode: a slow in-flight sweep on another
/// connection is cancelled (its done line arrives with balanced
/// accounting and aborted points), the accept loop exits, and the queue
/// drains.
#[test]
fn shutdown_abort_cancels_in_flight_work_everywhere() {
    let _guard = faults();
    let server = Arc::new(SweepServer::new());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let port = listener.local_addr().expect("addr").port();
    let accept_loop = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || serve_tcp(&server, &listener))
    };

    fault::slow_every_point_ms(400);
    let wide = "sweep id=doomed trace=TRFD iterations=120 machines=dm,swsm \
                windows=4,8,16,32 mds=0,20,40,60 mode=stream";
    let mut victim = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    let mut victim_reader = BufReader::new(victim.try_clone().expect("clone"));
    writeln!(victim, "{wide}").unwrap();
    // Let the submission land and the first points start sleeping.
    std::thread::sleep(Duration::from_millis(100));
    assert!(server.queue_depth() > 0, "the sweep must be in flight");

    let mut admin = TcpStream::connect(("127.0.0.1", port)).expect("connect admin");
    let mut admin_reader = BufReader::new(admin.try_clone().expect("clone admin"));
    writeln!(admin, "shutdown mode=abort").unwrap();
    let mut ack = String::new();
    assert!(admin_reader.read_line(&mut ack).expect("ack") > 0);
    assert!(
        matches!(
            parse_response(ack.trim_end()),
            Ok(Response::Shutdown {
                mode: ShutdownMode::Abort
            })
        ),
        "unexpected ack: {ack}"
    );

    // The victim's done line arrives promptly — cancelled, balanced.
    let done = loop {
        let mut line = String::new();
        assert!(
            victim_reader.read_line(&mut line).expect("victim read") > 0,
            "victim connection must carry a done line"
        );
        match parse_response(line.trim_end()).expect("well-formed") {
            done @ Response::Done { .. } => break done,
            Response::Point { .. } | Response::Error { .. } => {}
            other => panic!("unexpected: {other:?}"),
        }
    };
    let Response::Done {
        points,
        delivered,
        dropped,
        aborted,
        failed,
        status,
        ..
    } = done
    else {
        unreachable!()
    };
    assert_eq!(delivered + dropped + aborted + failed, points);
    assert!(
        dropped + aborted > 0,
        "abort-mode shutdown cancels the in-flight sweep"
    );
    assert_eq!(status, DoneStatus::Cancelled);
    assert!(
        await_drained(&server, Duration::from_secs(5)),
        "the queue drains after an abort shutdown"
    );
    accept_loop
        .join()
        .expect("accept loop exits")
        .expect("accept loop exits cleanly");
}

/// Spawns a real `dae-serve` backend process on an ephemeral TCP port,
/// with `envs` set (the `DAE_FAULT_*` variables arm the fault hooks
/// inside the child), returning the child and its dialable address.
fn spawn_backend(envs: &[(&str, &str)]) -> (Child, String) {
    let mut command = Command::new(env!("CARGO_BIN_EXE_dae-serve"));
    command
        .args(["--tcp", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    for (name, value) in envs {
        command.env(name, value);
    }
    let mut child = command.spawn().expect("spawn backend process");
    let stderr = child.stderr.take().expect("stderr is piped");
    let mut reader = BufReader::new(stderr);
    let addr = loop {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("read backend stderr") > 0,
            "backend exited before announcing its address"
        );
        if let Some(rest) = line.strip_prefix("dae-serve: listening on tcp ") {
            break rest
                .split_whitespace()
                .next()
                .expect("an address after the banner")
                .to_string();
        }
    };
    std::thread::spawn(move || {
        let mut sink = String::new();
        while reader.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
            sink.clear();
        }
    });
    (child, addr)
}

/// A connected loopback byte-stream pair (client half, server half), so a
/// blocking `serve_connection` can run on a thread while the
/// test reads its output incrementally.
fn socket_pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind pair");
    let addr = listener.local_addr().expect("pair addr");
    let client = TcpStream::connect(addr).expect("connect pair");
    let (server, _) = listener.accept().expect("accept pair");
    (client, server)
}

/// The sharded fault test: of two real backend processes, the one owning
/// the grid is killed mid-grid (its points are still sleeping on an
/// env-armed slow hook when the process dies), and the grid must still
/// complete — every point delivered exactly once, bit-for-bit equal to
/// the in-process oracle, with balanced `status=ok` accounting — because
/// the coordinator re-dispatches the dead backend's undelivered points to
/// the survivor.  The coordinator keeps serving afterwards on the one
/// surviving backend, and its stats record the death and the re-dispatch
/// traffic.
#[test]
fn killing_a_backend_mid_grid_completes_the_sweep_bit_for_bit() {
    let _guard = faults();
    let grid = "sweep id=resilient trace=TRFD iterations=120 machines=dm,swsm \
                windows=4,8,16,32 mds=0,20,40,60 mode=stream";
    let expected = oracle(grid);
    let Ok(Request::Sweep(request)) = parse_request(grid) else {
        panic!("not a sweep: {grid}");
    };
    // The victim sleeps 400 ms per point (armed via the environment, so
    // the hook fires inside the child process); the survivor is fast.  The
    // victim sits at the ring index that owns the grid.
    let owner = Partitioner::new(2)
        .assign(request.placement_digest())
        .expect("a ring of two");
    let (mut victim, victim_addr) = spawn_backend(&[("DAE_FAULT_SLOW_POINT_MS", "400")]);
    let (mut survivor, survivor_addr) = spawn_backend(&[]);
    let mut addrs = vec![survivor_addr];
    addrs.insert(owner, victim_addr);
    let coordinator = Arc::new(Coordinator::connect(&addrs).expect("connect the fleet"));
    let follow_up = "sweep id=after-death trace=MDG iterations=100 machines=dm windows=16,64 \
                     mds=0,60 mode=stream";
    let follow_up_expected = oracle(follow_up);

    let (mut client, server_half) = socket_pair();
    let serve = {
        let coordinator = Arc::clone(&coordinator);
        let reader = BufReader::new(server_half.try_clone().expect("clone server half"));
        std::thread::spawn(move || serve_connection(&coordinator, reader, server_half))
    };
    let mut replies = BufReader::new(client.try_clone().expect("clone client half"));

    writeln!(client, "{grid}").unwrap();
    // The whole grid goes to the victim, whose points sleep 400 ms each.
    // Kill it as soon as the coordinator has forwarded the grid.
    let forwarded = || {
        coordinator
            .stats_fields()
            .into_iter()
            .find(|(name, _)| name == "forwarded_points")
            .map_or(0, |(_, n)| n)
    };
    let give_up = Instant::now() + Duration::from_secs(10);
    while forwarded() < expected.len() as u64 {
        assert!(Instant::now() < give_up, "the grid was never forwarded");
        std::thread::sleep(Duration::from_millis(5));
    }
    victim.kill().expect("kill the victim backend");
    victim.wait().expect("reap the victim");

    let mut points: HashMap<usize, u64> = HashMap::new();
    let done = loop {
        let mut line = String::new();
        assert!(
            replies.read_line(&mut line).expect("read reply") > 0,
            "coordinator connection closed before the done line"
        );
        match parse_response(line.trim_end()).expect("well-formed response") {
            Response::Point { index, cycles, .. } => {
                assert!(
                    points.insert(index, cycles).is_none(),
                    "point {index} delivered twice through the failover"
                );
            }
            done @ Response::Done { .. } => break done,
            other => panic!("unexpected response: {other:?}"),
        }
    };
    let Response::Done {
        points: total,
        delivered,
        dropped,
        aborted,
        failed,
        status,
        ..
    } = done
    else {
        unreachable!()
    };
    assert_eq!(total, expected.len());
    assert_eq!(
        delivered,
        expected.len(),
        "every point must survive the backend death"
    );
    assert_eq!(delivered + dropped + aborted + failed, total);
    assert_eq!(status, DoneStatus::Ok);
    assert_eq!(points.len(), expected.len());
    for (index, cycles) in expected.iter().enumerate() {
        assert_eq!(
            points[&index], *cycles,
            "failover point {index} must be bit-for-bit the oracle result"
        );
    }

    // The coordinator keeps serving on the surviving backend.
    writeln!(client, "{follow_up}").unwrap();
    let mut follow_points: HashMap<usize, u64> = HashMap::new();
    loop {
        let mut line = String::new();
        assert!(
            replies.read_line(&mut line).expect("read follow-up") > 0,
            "coordinator connection closed before the follow-up done line"
        );
        match parse_response(line.trim_end()).expect("well-formed response") {
            Response::Point { index, cycles, .. } => {
                follow_points.insert(index, cycles);
            }
            Response::Done {
                delivered, status, ..
            } => {
                assert_eq!(delivered, follow_up_expected.len());
                assert_eq!(status, DoneStatus::Ok);
                break;
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    for (index, cycles) in follow_up_expected.iter().enumerate() {
        assert_eq!(follow_points[&index], *cycles, "post-death point {index}");
    }

    // The death and the re-dispatch traffic are visible in stats.
    writeln!(client, "stats").unwrap();
    let mut line = String::new();
    assert!(replies.read_line(&mut line).expect("stats reply") > 0);
    let Ok(Response::Stats { fields }) = parse_response(line.trim_end()) else {
        panic!("expected a stats line, got '{line}'");
    };
    let field = |name: &str| {
        fields
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("coordinator stats must report {name}: {fields:?}"))
            .1
    };
    assert_eq!(field("backends_total"), 2);
    assert_eq!(field("backends_alive"), 1);
    assert_eq!(field("backend_deaths"), 1);
    assert!(
        field("redispatched_points") >= 1,
        "the victim's sleeping points must have been re-dispatched: {fields:?}"
    );
    assert_eq!(field("coordinator_pending"), 0, "everything settled");

    drop(client);
    drop(replies);
    serve
        .join()
        .expect("serve thread")
        .expect("serve returns cleanly at EOF");
    survivor.kill().expect("kill the survivor backend");
    survivor.wait().expect("reap the survivor");
}

/// The scheduling tentpole, end to end: with a slow 64-point bulk grid
/// (`priority=bulk`) queued by one client, a `priority=interactive`
/// single-point probe from another client is claimed ahead of every queued
/// bulk point — it completes (bit-for-bit correct) while most of the bulk
/// grid is still waiting, instead of queueing behind it.
#[test]
fn an_interactive_probe_overtakes_a_queued_bulk_grid() {
    let _guard = faults();
    let server = Arc::new(SweepServer::new());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let port = listener.local_addr().expect("addr").port();
    {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            let _ = serve_tcp(&server, &listener);
        });
    }

    // Every point sleeps 60 ms: the 64-point bulk grid is ~4 s of queued
    // work for one worker, and still far from drained on a wide pool when
    // the probe lands.
    fault::slow_every_point_ms(60);
    let bulk = "sweep id=bulkload trace=TRFD iterations=120 machines=dm,swsm \
                windows=4,8,12,16,24,32,48,64 mds=0,20,40,60 mode=stream priority=bulk";
    let mut bulk_client = TcpStream::connect(("127.0.0.1", port)).expect("connect bulk");
    let mut bulk_reader = BufReader::new(bulk_client.try_clone().expect("clone bulk"));
    writeln!(bulk_client, "{bulk}").unwrap();
    let submitted = Instant::now();
    while server.queue_depth() == 0 {
        assert!(
            submitted.elapsed() < Duration::from_secs(5),
            "bulk grid must be admitted"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // Let the workers claim their first bulk points before probing.
    std::thread::sleep(Duration::from_millis(80));

    let probe = "sweep id=probe trace=TRFD iterations=120 machines=dm windows=16 mds=60 \
                 mode=stream priority=interactive";
    let expected = oracle(probe);
    let mut probe_client = TcpStream::connect(("127.0.0.1", port)).expect("connect probe");
    let mut probe_reader = BufReader::new(probe_client.try_clone().expect("clone probe"));
    let started = Instant::now();
    writeln!(probe_client, "{probe}").unwrap();
    let mut probe_cycles = None;
    let done = loop {
        let mut line = String::new();
        assert!(
            probe_reader.read_line(&mut line).expect("probe read") > 0,
            "probe connection must carry a done line"
        );
        match parse_response(line.trim_end()).expect("well-formed") {
            Response::Point { cycles, .. } => probe_cycles = Some(cycles),
            done @ Response::Done { .. } => break done,
            other => panic!("unexpected: {other:?}"),
        }
    };
    let probe_latency = started.elapsed();
    let backlog_at_done = server.queue_depth();
    let Response::Done {
        delivered, status, ..
    } = done
    else {
        unreachable!()
    };
    assert_eq!(delivered, 1);
    assert_eq!(status, DoneStatus::Ok);
    assert_eq!(
        probe_cycles,
        Some(expected[0]),
        "priority scheduling must not change results"
    );
    // The probe waited for at most the points already *running* (one per
    // worker, 60 ms each) plus its own sleep — never for the queued bulk
    // backlog, which alone is seconds of work.
    assert!(
        probe_latency < Duration::from_millis(1_000),
        "an interactive probe must overtake the queued bulk grid: {probe_latency:?}"
    );
    assert!(
        backlog_at_done > 8,
        "most of the bulk grid must still be queued when the probe finishes \
         (backlog={backlog_at_done})"
    );

    // Wind the bulk grid down quickly and check its accounting balances.
    writeln!(bulk_client, "cancel id=bulkload").unwrap();
    let done = loop {
        let mut line = String::new();
        assert!(
            bulk_reader.read_line(&mut line).expect("bulk read") > 0,
            "bulk connection must carry a done line"
        );
        match parse_response(line.trim_end()).expect("well-formed") {
            done @ Response::Done { .. } => break done,
            Response::Point { .. } | Response::Cancelled { .. } => {}
            other => panic!("unexpected: {other:?}"),
        }
    };
    let Response::Done {
        points,
        delivered,
        dropped,
        aborted,
        failed,
        status,
        ..
    } = done
    else {
        unreachable!()
    };
    assert_eq!(points, 64);
    assert_eq!(delivered + dropped + aborted + failed, points);
    assert_eq!(status, DoneStatus::Cancelled);

    assert_still_serving(&server, "after-probe");
}
