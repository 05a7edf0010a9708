//! Backend conformance for the shared request lifecycle: the same request
//! transcript through `serve_connection` must produce the same responses
//! whether the backend is a local `SweepServer` or a two-backend
//! `Coordinator` (its backends served in-process by `serve_tcp` threads),
//! and one grid must run through the shared accept loop over a Unix
//! socket for each backend.
//!
//! Through the coordinator, a grid goes out whole as one line to the
//! backend owning its program, a repeated grid is answered from that
//! backend's cache, the retry watchdog reclaims (and cancels) a grid from
//! a backend that never answers but leaves one that answers slowly
//! alone, a grid a backend refuses is resent at once (or fails when no
//! other backend is left), a grid a backend answers `busy` is resent only
//! after the backend's retry hint, a failing point fails only its own client
//! index, a backend that dies after some or all of a grid's `point`
//! lines still settles every point exactly once, and replies naming
//! points outside their grid are counted, not obeyed.
//!
//! A grid whose every event is queued at submit (a stub's, or a
//! `SweepServer`'s cache-hot repeat) is drained on the reader thread; any
//! other grid on the connection's one drainer thread.  So while such a grid's
//! replies cannot be written, the connection reads no further request:
//! a client must read replies while it writes.
//!
//! The transcript slows every point with the process-global
//! `dae_core::fault` hooks, so every test here serializes on
//! [`FAULT_LOCK`].

use dae_core::{fault, Machine, StreamedPoint, SweepEvent, SweepSession, WindowSpec};
use dae_serve::lifecycle::{Slot, Submitted};
use dae_serve::{
    parse_request, parse_response, serve_connection, serve_tcp, CacheAction, Coordinator,
    DoneStatus, Partitioner, Request, Response, ShutdownMode, SubmitError, SweepBackend,
    SweepRequest, SweepServer,
};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Serializes the binary's tests and guarantees hook reset even if the
/// previous holder panicked.
fn faults() -> MutexGuard<'static, ()> {
    let guard = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    fault::reset();
    guard
}

/// A fresh `SweepServer` accepting on an ephemeral TCP port on its own
/// `serve_tcp` thread; returns its address and the server.
fn in_process_server() -> (String, Arc<SweepServer>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a backend");
    let addr = listener.local_addr().expect("backend addr").to_string();
    let server = Arc::new(SweepServer::new());
    let served = Arc::clone(&server);
    std::thread::spawn(move || serve_tcp(&served, &listener));
    (addr, server)
}

/// The address of a fresh in-process backend.
fn in_process_backend() -> String {
    in_process_server().0
}

/// A two-backend fleet's addresses: `addr` at ring index `at`, a fresh
/// in-process backend at the other.
fn beside_in_process(at: usize, addr: String) -> Vec<String> {
    let mut addrs = vec![in_process_backend()];
    addrs.insert(at, addr);
    addrs
}

/// A coordinator over two in-process backends.
fn in_process_fleet() -> Arc<Coordinator> {
    let addrs = [in_process_backend(), in_process_backend()];
    Arc::new(Coordinator::connect(&addrs).expect("connect the fleet"))
}

/// One response line normalized for comparison across backends: `stats`
/// bodies dropped, and a `done` line's racy drop-versus-abort split folded
/// into `dropped`.
fn normalize(line: &str) -> String {
    let response = match parse_response(line).expect("well-formed response") {
        Response::Stats { .. } => Response::Stats { fields: Vec::new() },
        Response::Done {
            id,
            points,
            delivered,
            dropped,
            aborted,
            failed,
            cached,
            status,
        } => Response::Done {
            id,
            points,
            delivered,
            dropped: dropped + aborted,
            aborted: 0,
            failed,
            cached,
            status,
        },
        other => other,
    };
    response.to_string()
}

/// The `stats` counter `name` of `backend`.
fn stat<B: SweepBackend>(backend: &B, name: &str) -> u64 {
    backend
        .stats_fields()
        .into_iter()
        .find(|(field, _)| field == name)
        .unwrap_or_else(|| panic!("stats report no {name}"))
        .1
}

/// Runs `input` through one `serve_connection` and returns its normalized
/// responses, sorted (concurrent drainers interleave freely).
fn transcript<B: SweepBackend>(backend: &Arc<B>, input: &str) -> Vec<String> {
    let mut output = Vec::new();
    serve_connection(backend, input.as_bytes(), &mut output).expect("serve");
    let mut lines: Vec<String> = String::from_utf8(output)
        .expect("utf8")
        .lines()
        .map(normalize)
        .collect();
    lines.sort();
    lines
}

/// A four-point TRFD grid; every point sleeps under the armed slow hook.
fn sweep(id: &str, mds: &str, extra: &str) -> String {
    format!(
        "sweep id={id} trace=TRFD iterations=120 machines=dm,swsm windows=16 mds={mds} \
         mode=stream{extra}"
    )
}

/// The conformance transcript, run against `backend`: malformed input, a
/// duplicate active id, cancel of an unknown and of a live request, an
/// expired deadline, then `shutdown` and a refused sweep on a second
/// connection.  Returns both connections' normalized responses.
fn run_transcript<B: SweepBackend>(backend: &Arc<B>) -> Vec<String> {
    // Points sleep far longer than the transcript takes to read, so every
    // request is still live when its follow-up lines arrive.
    fault::slow_every_point_ms(400);
    let input = [
        "nonsense here".to_string(),
        sweep("slow", "0,60", ""),
        sweep("slow", "0,60", ""),
        "cancel id=ghost".to_string(),
        "cancel id=slow".to_string(),
        sweep("late", "20,40", " deadline_ms=60"),
        sweep("huge", "0,18446744073709551615", ""),
        "stats".to_string(),
        "shutdown".to_string(),
    ]
    .join("\n");
    let mut lines = transcript(backend, &format!("{input}\n"));
    fault::reset();
    assert!(backend.is_shutting_down());
    let timeouts = stat(&**backend, "timeout_requests");
    assert_eq!(timeouts, 1, "the expired deadline is counted once");
    lines.extend(transcript(
        backend,
        &format!("{}\n", sweep("refused", "0", "")),
    ));
    lines
}

#[test]
fn a_server_and_a_coordinator_answer_one_transcript_identically() {
    let _guard = faults();
    let server = Arc::new(SweepServer::new());
    let single = run_transcript(&server);
    let coordinator = in_process_fleet();
    let sharded = run_transcript(&coordinator);
    assert_eq!(single, sharded, "the backends must be indistinguishable");

    // Pin what the shared transcript actually says.
    let expect = |line: &str| {
        assert!(
            single.iter().any(|l| l == line),
            "missing `{line}` in {single:#?}"
        );
    };
    expect("error msg=unknown verb 'nonsense'");
    expect("error id=slow msg=request id already active");
    expect("error id=ghost msg=no such active request");
    expect("cancelled id=slow");
    expect("shutdown mode=drain");
    expect("error id=refused msg=server is shutting down; not accepting new sweeps");
    expect(
        "error id=huge msg=bad memory differential '18446744073709551615' \
         (expected 0..=1000000)",
    );
    assert!(
        !single
            .iter()
            .any(|l| l.contains("id=huge ") && !l.starts_with("error ")),
        "an over-cap memory differential runs no point: {single:#?}"
    );
    let status_of = |id: &str| {
        single
            .iter()
            .find_map(|l| match parse_response(l) {
                Ok(Response::Done {
                    id: done_id,
                    points,
                    delivered,
                    dropped,
                    status,
                    ..
                }) if done_id == id => {
                    assert_eq!((points, delivered, dropped), (4, 0, 4), "{l}");
                    Some(status)
                }
                _ => None,
            })
            .unwrap_or_else(|| panic!("no done line for {id}"))
    };
    assert_eq!(status_of("slow"), DoneStatus::Cancelled);
    assert_eq!(status_of("late"), DoneStatus::Timeout);
}

/// Serves one grid through `serve_unix` and checks it against the
/// in-process oracle, then shuts the accept loop down over the socket.
#[cfg(unix)]
fn unix_grid<B: SweepBackend + 'static>(backend: Arc<B>, name: &str) {
    use std::os::unix::net::{UnixListener, UnixStream};
    let path = std::env::temp_dir().join(format!("dae-lifecycle-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path).expect("bind the unix socket");
    let accept_loop = std::thread::spawn(move || dae_serve::serve_unix(&backend, &listener));

    let line = sweep("unix", "0,60", "");
    let Ok(Request::Sweep(request)) = parse_request(&line) else {
        panic!("not a sweep: {line}");
    };
    let mut session = SweepSession::new();
    let trace = request.source.trace(request.iterations).expect("expand");
    let id = session.pin_trace(&trace);
    let expected = session.sweep_multi(&request.points(id));

    let mut client = UnixStream::connect(&path).expect("connect");
    let mut replies = BufReader::new(client.try_clone().expect("clone"));
    writeln!(client, "{line}\nshutdown").expect("send");
    let mut cycles = vec![None; expected.len()];
    let mut acked = false;
    let mut done = None;
    while !acked || done.is_none() {
        let mut reply = String::new();
        assert!(
            replies.read_line(&mut reply).expect("read") > 0,
            "closed early"
        );
        match parse_response(reply.trim_end()).expect("well-formed") {
            Response::Point {
                index, cycles: c, ..
            } => cycles[index] = Some(c),
            Response::Shutdown { .. } => acked = true,
            d @ Response::Done { .. } => done = Some(d),
            other => panic!("unexpected: {other:?}"),
        }
    }
    let expected: Vec<_> = expected.into_iter().map(Some).collect();
    assert_eq!(cycles, expected, "{name}: unix-served grid vs the oracle");
    assert!(matches!(
        done,
        Some(Response::Done {
            status: DoneStatus::Ok,
            ..
        })
    ));
    accept_loop
        .join()
        .expect("accept loop thread")
        .expect("accept loop exits cleanly after shutdown");
    let _ = std::fs::remove_file(&path);
}

#[cfg(unix)]
#[test]
fn both_backends_serve_a_grid_over_a_unix_socket() {
    let _guard = faults();
    unix_grid(Arc::new(SweepServer::new()), "server");
    unix_grid(in_process_fleet(), "coordinator");
}

/// The 12-point TRFD grid the coordinator fault tests send, forwarded
/// whole to the backend owning TRFD at 120 iterations.
const FLEET_GRID: &str =
    "sweep id=fleet trace=TRFD iterations=120 machines=dm,swsm windows=8,16,32 mds=0,20";

/// A grid point's coordinates, the key of an oracle's cycles.
type Coordinate = (Machine, WindowSpec, u64);

/// `line`'s request, its cycles from a cache-off session in grid order,
/// and the backend of a two-backend ring that owns the grid.
fn oracle(line: &str) -> (SweepRequest, Vec<u64>, usize) {
    let Ok(Request::Sweep(request)) = parse_request(line) else {
        panic!("not a sweep: {line}");
    };
    let trace = request.source.trace(request.iterations).expect("expand");
    let mut reference = SweepSession::new();
    reference.set_cache_enabled(false);
    let id = reference.pin_trace(&trace);
    let expected = reference.sweep_multi(&request.points(id));
    let owner = Partitioner::new(2)
        .assign(request.placement_digest())
        .expect("a ring of two");
    (request, expected, owner)
}

/// Serves `line` through `coordinator` on its own thread, failing after
/// five seconds instead of hanging, and returns the grid's cycles by index
/// (each index at most once) and its `error` and `done` lines.
fn serve_grid(coordinator: &Arc<Coordinator>, line: &str) -> (Vec<Option<u64>>, Vec<Response>) {
    let Ok(Request::Sweep(request)) = parse_request(line) else {
        panic!("not a sweep: {line}");
    };
    let (tx, rx) = mpsc::channel();
    let served = Arc::clone(coordinator);
    let input = format!("{line}\n");
    std::thread::spawn(move || {
        let mut output = Vec::new();
        serve_connection(&served, input.as_bytes(), &mut output).expect("serve");
        let _ = tx.send(output);
    });
    let output = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("the grid never completed");
    let mut cycles = vec![None; request.grid().len()];
    let mut done = Vec::new();
    for reply in String::from_utf8(output).expect("utf8").lines() {
        match parse_response(reply).expect("well-formed") {
            Response::Point {
                index, cycles: c, ..
            } => {
                assert!(cycles[index].replace(c).is_none(), "point {index} twice");
            }
            d @ (Response::Done { .. } | Response::Error { .. }) => done.push(d),
            other => panic!("unexpected: {other:?}"),
        }
    }
    (cycles, done)
}

/// Asserts `done` is one balanced `status=ok` line over `points` points
/// with `cached` cache hits.
fn assert_one_ok_done(done: &[Response], points: usize, cached: u64) {
    let [Response::Done {
        points: total,
        delivered,
        dropped,
        aborted,
        failed,
        cached: hits,
        status,
        ..
    }] = done
    else {
        panic!("exactly one done line expected: {done:?}");
    };
    assert_eq!(*status, DoneStatus::Ok);
    assert_eq!(
        (*total, *delivered, *dropped, *aborted, *failed, *hits),
        (points, points, 0, 0, 0, cached)
    );
}

/// Cache hits pass through the coordinator: the same grid sent twice is
/// simulated once, on the backend owning its program, and the repeat is
/// answered entirely from that backend's cache with the first run's
/// cycles.
#[test]
fn a_repeated_grid_is_answered_from_the_backends_caches() {
    let _guard = faults();
    let (_, expected, owner) = oracle(FLEET_GRID);
    let servers = [in_process_server(), in_process_server()];
    let addrs: Vec<String> = servers.iter().map(|(addr, _)| addr.clone()).collect();
    let coordinator = Arc::new(Coordinator::connect(&addrs).expect("connect the fleet"));
    let (first, done) = serve_grid(&coordinator, FLEET_GRID);
    assert_one_ok_done(&done, expected.len(), 0);
    let entries: Vec<u64> = servers
        .iter()
        .map(|(_, server)| stat(&**server, "cache_entries"))
        .collect();
    let mut whole = vec![0; 2];
    whole[owner] = expected.len() as u64;
    assert_eq!(entries, whole, "the grid runs whole on its owner");
    let (repeat, done) = serve_grid(&coordinator, FLEET_GRID);
    assert_one_ok_done(&done, expected.len(), expected.len() as u64);
    assert_eq!(repeat, first, "cached cycles equal the simulated ones");
    let expected: Vec<_> = expected.into_iter().map(Some).collect();
    assert_eq!(first, expected, "coordinated grid vs the oracle");
    assert_eq!(coordinator.pending_points(), 0, "every point settled");
}

/// A stub backend on an ephemeral port.  Each sweep line on the
/// coordinator's data connection is handed to `answer` with the
/// connection to reply on; the connection closes once `answer` returns
/// `false`.  Each `cancel` line's id goes to the returned receiver.
/// Control connections close at once, so `stats` does not wait out the
/// control timeout.  Returns its address and the cancelled ids.
fn stub_backend<F>(mut answer: F) -> (String, mpsc::Receiver<String>)
where
    F: FnMut(SweepRequest, &mut TcpStream) -> bool + Send + 'static,
{
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind the stub");
    let addr = listener.local_addr().expect("stub addr").to_string();
    let (cancels, cancelled) = mpsc::channel();
    std::thread::spawn(move || {
        let mut incoming = listener.incoming();
        let Some(Ok(data)) = incoming.next() else {
            return;
        };
        std::thread::spawn(move || {
            let mut writer = data.try_clone().expect("clone the stub connection");
            for line in BufReader::new(data).lines() {
                let line = line.expect("read a subrequest");
                match parse_request(&line) {
                    Ok(Request::Sweep(sub)) => {
                        if !answer(sub, &mut writer) {
                            return;
                        }
                    }
                    Ok(Request::Cancel { id }) => {
                        let _ = cancels.send(id);
                    }
                    _ => panic!("neither a sweep nor a cancel: {line}"),
                }
            }
        });
        for control in incoming {
            drop(control);
        }
    });
    (addr, cancelled)
}

/// The `point` line a backend sends for index `index` of `sub`, with the
/// oracle's cycles.
fn point_line(sub: &SweepRequest, index: usize, cycles: &HashMap<Coordinate, u64>) -> Response {
    let (machine, window, md) = sub.grid().nth(index).expect("index in the grid");
    Response::Point {
        id: sub.id.clone(),
        index,
        machine,
        window,
        md,
        cycles: cycles[&(machine, window, md)],
    }
}

/// Answers `sub` as a cache-off backend would: every point with the
/// oracle's cycles, each after `pace`, then one balanced `done`.
fn answer_all(
    sub: &SweepRequest,
    cycles: &HashMap<Coordinate, u64>,
    out: &mut TcpStream,
    pace: Duration,
) {
    let points = sub.grid().len();
    for index in 0..points {
        std::thread::sleep(pace);
        writeln!(out, "{}", point_line(sub, index, cycles)).expect("answer");
    }
    let done = Response::Done {
        id: sub.id.clone(),
        points,
        delivered: points,
        dropped: 0,
        aborted: 0,
        failed: 0,
        cached: 0,
        status: DoneStatus::Ok,
    };
    writeln!(out, "{done}").expect("answer");
}

/// The retry watchdog re-dispatches points a backend sits on: a grid
/// owned by a backend that never answers still completes on the real one
/// beside it, balanced and bit-for-bit equal to a cache-off reference,
/// and the silent backend is sent a `cancel` for the grid it held.
#[test]
fn the_watchdog_redispatches_points_a_silent_backend_holds() {
    let _guard = faults();
    let (_, expected, owner) = oracle(FLEET_GRID);
    let (held_tx, held) = mpsc::channel();
    let (silent, cancelled) = stub_backend(move |sub, _| held_tx.send(sub.id).is_ok());
    let addrs = beside_in_process(owner, silent);
    let coordinator =
        Arc::new(Coordinator::connect_with(&addrs, Duration::from_millis(200)).expect("connect"));
    let (cycles, done) = serve_grid(&coordinator, FLEET_GRID);
    let points = expected.len();
    let expected: Vec<_> = expected.into_iter().map(Some).collect();
    assert_eq!(cycles, expected, "watchdog-rescued grid vs the oracle");
    assert_one_ok_done(&done, points, 0);

    let timeouts = stat(&*coordinator, "coordinator_timeouts");
    assert!(timeouts >= 1, "the watchdog must have fired");
    assert_eq!(coordinator.pending_points(), 0, "every point settled");
    let held: Vec<String> = held.try_iter().collect();
    assert_eq!(held.len(), 1, "the grid reached its silent owner once");
    let cancel = cancelled.recv_timeout(Duration::from_secs(5));
    assert_eq!(cancel.ok(), held.first().cloned(), "its copy is cancelled");
}

/// The watchdog times a grid by its backend's progress, not from its
/// dispatch: a backend that answers its 12-point grid one point every
/// 100 ms — 1.2 s in all — under a 300 ms retry timeout keeps the grid,
/// and the grid completes with no timeout and no re-dispatch.
#[test]
fn the_watchdog_leaves_a_slowly_answering_backend_its_slice() {
    let _guard = faults();
    let (request, expected, owner) = oracle(FLEET_GRID);
    let by_point: HashMap<Coordinate, u64> = request.grid().zip(expected.iter().copied()).collect();
    let (answered_tx, answered) = mpsc::channel();
    let (slow, _) = stub_backend(move |sub, out| {
        answer_all(&sub, &by_point, out, Duration::from_millis(100));
        answered_tx.send(sub.id).is_ok()
    });
    let addrs = beside_in_process(owner, slow);
    let coordinator =
        Arc::new(Coordinator::connect_with(&addrs, Duration::from_millis(300)).expect("connect"));
    let (cycles, done) = serve_grid(&coordinator, FLEET_GRID);
    let points = expected.len();
    let expected: Vec<_> = expected.into_iter().map(Some).collect();
    assert_eq!(cycles, expected, "slowly answered grid vs the oracle");
    assert_one_ok_done(&done, points, 0);
    assert_eq!(stat(&*coordinator, "coordinator_timeouts"), 0);
    assert_eq!(stat(&*coordinator, "redispatched_points"), 0);
    assert_eq!(answered.try_iter().count(), 1, "the slow owner answered");
    assert_eq!(coordinator.pending_points(), 0, "every point settled");
}

/// A backend that refuses every sweep line it is sent with an `error`
/// naming no point, as a stopping server does.  Returns its address and
/// the refused subrequest ids.
fn refusing_backend() -> (String, mpsc::Receiver<String>) {
    let (refused_tx, refused) = mpsc::channel();
    let (addr, _) = stub_backend(move |sub, out| {
        let refusal = Response::Error {
            id: Some(sub.id.clone()),
            message: "server is shutting down; not accepting new sweeps".to_string(),
        };
        writeln!(out, "{refusal}").expect("refuse");
        refused_tx.send(sub.id).is_ok()
    });
    (addr, refused)
}

/// A grid its owner refuses is reclaimed at once, not after the retry
/// timeout: it completes on the other backend with the oracle's cycles,
/// well inside the 30 s default timeout, and no watchdog timeout fires.
#[test]
fn a_refused_grid_is_resent_at_once() {
    let _guard = faults();
    let (_, expected, owner) = oracle(FLEET_GRID);
    let (refuser, refused) = refusing_backend();
    let addrs = beside_in_process(owner, refuser);
    let coordinator = Arc::new(Coordinator::connect(&addrs).expect("connect"));
    // `serve_grid` gives up after 5 s, far inside the 30 s retry timeout.
    let (cycles, done) = serve_grid(&coordinator, FLEET_GRID);
    let points = expected.len();
    let expected: Vec<_> = expected.into_iter().map(Some).collect();
    assert_eq!(
        cycles, expected,
        "grid beside a refusing backend vs the oracle"
    );
    assert_one_ok_done(&done, points, 0);
    assert_eq!(refused.try_iter().count(), 1, "the owner refused it once");
    assert_eq!(stat(&*coordinator, "coordinator_timeouts"), 0);
    assert_eq!(stat(&*coordinator, "redispatched_points"), points as u64);
    assert_eq!(coordinator.pending_points(), 0, "every point settled");
}

/// With no other backend to resend it to, a refused grid fails every
/// point with the backend's message instead of hanging or resending to
/// the refuser.
#[test]
fn a_grid_refused_by_the_only_backend_fails() {
    let _guard = faults();
    let (_, expected, _) = oracle(FLEET_GRID);
    let (refuser, refused) = refusing_backend();
    let coordinator = Arc::new(Coordinator::connect(&[refuser]).expect("connect"));
    let (cycles, closing) = serve_grid(&coordinator, FLEET_GRID);
    assert!(cycles.iter().all(Option::is_none), "no point delivered");
    let Some((
        Response::Done {
            points,
            delivered,
            dropped,
            aborted,
            failed,
            status,
            ..
        },
        errors,
    )) = closing.split_last()
    else {
        panic!("a done line expected: {closing:?}");
    };
    assert_eq!(
        (*points, *delivered, *dropped, *aborted, *failed, *status),
        (expected.len(), 0, 0, 0, expected.len(), DoneStatus::Error)
    );
    assert_eq!(errors.len(), expected.len(), "one error line per point");
    for error in errors {
        let Response::Error { message, .. } = error else {
            panic!("not an error line: {error:?}");
        };
        assert!(
            message.ends_with("failed: server is shutting down; not accepting new sweeps"),
            "the backend's message: {message}"
        );
    }
    assert_eq!(refused.try_iter().count(), 1, "refused once, not resent");
    assert_eq!(stat(&*coordinator, "redispatched_points"), 0);
    assert_eq!(coordinator.pending_points(), 0, "every point settled");
}

/// A grid a backend answers `busy` is resent after the backend's
/// `retry_after_ms`, not once per round trip: a backend that answers
/// `busy retry_after_ms=100` to every sweep line for its first 300 ms, and
/// then answers everything, sees at most 5 sweep lines, and the grid
/// completes with the oracle's cycles and `status=ok`.
#[test]
fn a_busy_backend_is_retried_after_its_hint() {
    let _guard = faults();
    let (request, expected, _) = oracle(FLEET_GRID);
    let by_point: HashMap<Coordinate, u64> = request.grid().zip(expected.iter().copied()).collect();
    let (seen_tx, seen) = mpsc::channel();
    let start = Instant::now();
    let (busy, _) = stub_backend(move |sub, out| {
        if start.elapsed() < Duration::from_millis(300) {
            let busy = Response::Busy {
                id: sub.id.clone(),
                queued: 1,
                limit: 1,
                retry_after_ms: 100,
            };
            writeln!(out, "{busy}").expect("busy");
        } else {
            answer_all(&sub, &by_point, out, Duration::ZERO);
        }
        seen_tx.send(sub.id).is_ok()
    });
    let coordinator = Arc::new(Coordinator::connect(&[busy]).expect("connect"));
    let (cycles, done) = serve_grid(&coordinator, FLEET_GRID);
    let points = expected.len();
    let expected: Vec<_> = expected.into_iter().map(Some).collect();
    assert_eq!(cycles, expected, "grid behind a busy backend vs the oracle");
    assert_one_ok_done(&done, points, 0);
    let lines = seen.try_iter().count();
    assert!(lines <= 5, "the busy backend saw {lines} sweep lines");
    assert_eq!(coordinator.pending_points(), 0, "every point settled");
}

/// A point that fails on a backend fails only its own client index: over
/// a two-backend fleet whose first simulated point panics, exactly one
/// index arrives as an `error` line carrying the backend's message under
/// the client-side index, every other index carries the oracle's cycles,
/// nothing is re-dispatched, and the `done` is `failed=1 status=error`.
#[test]
fn a_failing_point_fails_only_its_own_client_index() {
    let _guard = faults();
    let (_, expected, _) = oracle(FLEET_GRID);
    let coordinator = in_process_fleet();
    fault::panic_on_nth_start(1);
    let (cycles, closing) = serve_grid(&coordinator, FLEET_GRID);
    fault::reset();

    let missing: Vec<usize> = (0..cycles.len()).filter(|&i| cycles[i].is_none()).collect();
    let [failed_index] = missing[..] else {
        panic!("exactly one index must fail: {missing:?}");
    };
    for (index, (got, want)) in cycles.iter().zip(&expected).enumerate() {
        if index != failed_index {
            assert_eq!(*got, Some(*want), "delivered point {index}");
        }
    }
    let [Response::Error {
        id: Some(id),
        message,
    }, Response::Done {
        points,
        delivered,
        dropped,
        aborted,
        failed,
        status,
        ..
    }] = &closing[..]
    else {
        panic!("one error line, then one done line: {closing:?}");
    };
    assert_eq!(id, "fleet");
    let prefix = format!("point {failed_index} failed: ");
    assert!(
        message.starts_with(&prefix) && message.contains("injected fault"),
        "the backend's message under the client index: {message}"
    );
    assert_eq!(
        (*points, *delivered, *dropped, *aborted, *failed, *status),
        (
            expected.len(),
            expected.len() - 1,
            0,
            0,
            1,
            DoneStatus::Error
        )
    );
    assert_eq!(stat(&*coordinator, "redispatched_points"), 0);
    assert_eq!(coordinator.pending_points(), 0, "every point settled");
}

/// A backend that answers the first `answers` points of the sweep lines
/// it is sent with a correct `point` line each, then closes its data
/// connection before any `done`.  Returns its address.
fn dying_backend(answers: usize, cycles: HashMap<Coordinate, u64>) -> String {
    let mut answered = 0;
    let (addr, _) = stub_backend(move |sub, out| {
        for index in 0..sub.grid().len() {
            if answered == answers {
                break;
            }
            writeln!(out, "{}", point_line(&sub, index, &cycles)).expect("answer");
            answered += 1;
        }
        answered < answers
    });
    addr
}

/// Serves `FLEET_GRID` beside its owner, a backend that answers the first
/// `answers(points)` points of the grid and dies before `done`: the death
/// sweep settles the answered points with the reported cycles and
/// re-dispatches only the rest, so the client still gets every index
/// exactly once and one balanced `done`.
fn grid_beside_a_dying_backend(answers: impl Fn(usize) -> usize) {
    let (request, expected, owner) = oracle(FLEET_GRID);
    let by_point = request.grid().zip(expected.iter().copied()).collect();
    let answers = answers(expected.len());

    let addrs = beside_in_process(owner, dying_backend(answers, by_point));
    let coordinator = Arc::new(Coordinator::connect(&addrs).expect("connect"));
    let (cycles, done) = serve_grid(&coordinator, FLEET_GRID);
    let points = expected.len();
    let expected: Vec<_> = expected.into_iter().map(Some).collect();
    assert_eq!(cycles, expected, "grid over a dying backend vs the oracle");
    assert_one_ok_done(&done, points, 0);
    assert_eq!(coordinator.pending_points(), 0, "every point settled");
    let redispatched = stat(&*coordinator, "redispatched_points");
    assert_eq!(redispatched as usize, points - answers, "unanswered points");
}

/// A backend that dies between its `point` lines and their `done` lines:
/// reported cycles settle without a re-run.
#[test]
fn a_backend_dying_between_point_and_done_settles_each_point_once() {
    let _guard = faults();
    grid_beside_a_dying_backend(|points| points);
}

/// A backend that answers one point of its grid and dies before `done`:
/// only the grid's other points are re-dispatched to — and relayed
/// from — the survivor.
#[test]
fn a_partly_answered_slice_relays_only_its_unanswered_points() {
    let _guard = faults();
    grid_beside_a_dying_backend(|_| 1);
}

/// The coordinator forwards a grid whole, as one line: an 8-point grid of
/// two MDs reaches only the backend owning its program, as the client's
/// own request under a coordinator id, and is counted as 8 forwarded
/// points.
#[test]
fn a_grid_is_forwarded_as_one_line() {
    let _guard = faults();
    let line = "sweep id=whole trace=TRFD iterations=120 machines=dm,swsm windows=8,32 mds=0,60";
    let (request, expected, owner) = oracle(line);
    let by_point: HashMap<Coordinate, u64> = request.grid().zip(expected.iter().copied()).collect();
    let received = Arc::new(Mutex::new(Vec::new()));
    let recording = |backend: usize| {
        let (received, cycles) = (Arc::clone(&received), by_point.clone());
        let (addr, _) = stub_backend(move |sub, out| {
            answer_all(&sub, &cycles, out, Duration::ZERO);
            received.lock().expect("record").push((backend, sub));
            true
        });
        addr
    };
    let addrs = [recording(0), recording(1)];
    let coordinator = Arc::new(Coordinator::connect(&addrs).expect("connect"));
    let (cycles, done) = serve_grid(&coordinator, line);
    let expected: Vec<_> = expected.into_iter().map(Some).collect();
    assert_eq!(cycles, expected, "forwarded grid vs the oracle");
    assert_one_ok_done(&done, expected.len(), 0);

    let received = received.lock().expect("recorded").clone();
    let [(backend, sub)] = &received[..] else {
        panic!("one line per grid: {received:?}");
    };
    assert_eq!(*backend, owner, "the grid reaches its owner");
    let client = SweepRequest {
        id: sub.id.clone(),
        ..request
    };
    assert_eq!(*sub, client, "the client's grid under a coordinator id");
    assert_eq!(stat(&*coordinator, "forwarded_points"), 8);
    assert_eq!(coordinator.pending_points(), 0, "every point settled");
}

/// A backend whose replies name points the grid does not have — a
/// `point` line past its end, an `error` for point 99 — is counted, not
/// obeyed: the coordinator does not panic, and the grid still completes
/// with the oracle's cycles.
#[test]
fn out_of_range_slice_replies_are_counted_not_obeyed() {
    let _guard = faults();
    let (request, expected, owner) = oracle(FLEET_GRID);
    let by_point: HashMap<Coordinate, u64> = request.grid().zip(expected.iter().copied()).collect();
    let (garbling, _) = stub_backend(move |sub, out| {
        let mut past_end = point_line(&sub, 0, &by_point);
        if let Response::Point { index, .. } = &mut past_end {
            *index = sub.grid().len();
        }
        let bad_failure = Response::Error {
            id: Some(sub.id.clone()),
            message: "point 99 failed: x".to_string(),
        };
        writeln!(out, "{past_end}\n{bad_failure}").expect("answer");
        answer_all(&sub, &by_point, out, Duration::ZERO);
        true
    });
    let addrs = beside_in_process(owner, garbling);
    let coordinator = Arc::new(Coordinator::connect(&addrs).expect("connect"));
    let (cycles, done) = serve_grid(&coordinator, FLEET_GRID);
    let points = expected.len();
    let expected: Vec<_> = expected.into_iter().map(Some).collect();
    assert_eq!(
        cycles, expected,
        "grid beside a garbling backend vs the oracle"
    );
    assert_one_ok_done(&done, points, 0);
    assert_eq!(stat(&*coordinator, "backend_reply_errors"), 2);
    assert_eq!(coordinator.pending_points(), 0, "every point settled");
}

/// The threads a stub sweep's events were taken on, one entry per
/// `next_event` call.
type Takers = Arc<Mutex<Vec<ThreadId>>>;

/// A backend that simulates nothing: each grid's events are cached
/// points, all ready at submit, and `settled` answers what the test says.
struct ThreadStub {
    settled: bool,
    takers: Takers,
}

/// A stub grid's ready events, recording the thread each is taken on.
struct ThreadStubEvents {
    remaining: usize,
    takers: Takers,
}

impl Iterator for ThreadStubEvents {
    type Item = SweepEvent;

    fn next(&mut self) -> Option<SweepEvent> {
        self.takers
            .lock()
            .unwrap()
            .push(std::thread::current().id());
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(SweepEvent::Point(StreamedPoint {
            index: self.remaining,
            cycles: 1,
            cached: true,
        }))
    }
}

impl SweepBackend for ThreadStub {
    type Client<'a> = ();

    fn register(&self) {}

    fn submit_sweep(
        &self,
        request: &SweepRequest,
        _client: &(),
        _slot: Slot,
    ) -> Result<Submitted, SubmitError> {
        Ok(Submitted {
            ready: Box::new(ThreadStubEvents {
                remaining: request.grid().len(),
                takers: Arc::clone(&self.takers),
            }),
            settled: self.settled,
            cancel: Arc::new(|| {}),
        })
    }

    fn stats_fields(&self) -> Vec<(String, u64)> {
        Vec::new()
    }

    fn cache_action(&self, _action: CacheAction) -> Response {
        Response::Cache {
            entries: 0,
            limit: None,
        }
    }

    fn shutdown(&self, _mode: ShutdownMode) {}

    fn is_shutting_down(&self) -> bool {
        false
    }

    fn in_flight(&self) -> usize {
        0
    }

    fn note_timeout(&self) {}
}

/// The threads that took `line`'s events through `serve_connection` on a
/// stub whose grids are `settled` or not, after checking the reply: one
/// entry per `next` call on the grid's ready events.
fn stub_takers(settled: bool, line: &str) -> Vec<ThreadId> {
    let takers = Takers::default();
    let stub = Arc::new(ThreadStub {
        settled,
        takers: Arc::clone(&takers),
    });
    let mut output = Vec::new();
    serve_connection(&stub, format!("{line}\n").as_bytes(), &mut output).expect("serve");
    let output = String::from_utf8(output).expect("utf8");
    assert!(
        output.ends_with("delivered=4 dropped=0 aborted=0 failed=0 cached=4 status=ok\n"),
        "{output}"
    );
    let takers = takers.lock().unwrap().clone();
    assert_eq!(takers.len(), 5, "four events, then exhausted");
    takers
}

/// A grid whose events were all queued at submit is drained on the
/// connection's reader thread; one that may still wait goes to the
/// connection's drainer thread.
#[test]
fn a_settled_grid_is_drained_on_the_reader_thread() {
    let _guard = faults();
    let line = sweep("stub", "0,60", "");
    let reader = std::thread::current().id();
    let inline = stub_takers(true, &line);
    assert!(inline.iter().all(|&t| t == reader), "settled: {inline:?}");
    let threaded = stub_takers(false, &line);
    assert!(
        threaded.iter().all(|&t| t != reader),
        "unsettled: {threaded:?}"
    );
}

/// A writer that records the thread of every `write` that reaches it.
struct ThreadWriter(Takers);

impl Write for ThreadWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().push(std::thread::current().id());
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The threads that wrote `line`'s replies to the connection, served by
/// `server`.
fn writer_threads(server: &Arc<SweepServer>, line: &str) -> Vec<ThreadId> {
    let writers = Takers::default();
    let writer = ThreadWriter(Arc::clone(&writers));
    serve_connection(server, format!("{line}\n").as_bytes(), writer).expect("serve");
    let writers = writers.lock().unwrap().clone();
    assert!(!writers.is_empty(), "the grid was answered");
    writers
}

/// The same on a `SweepServer`: a cold grid is written by the drainer
/// thread, and its cache-hot repeat by the reader thread, which the
/// session tells is settled at submit.
#[test]
fn a_sweep_server_drains_a_cache_hot_grid_on_the_reader_thread() {
    let _guard = faults();
    let server = Arc::new(SweepServer::new());
    let line = sweep("hot", "0,60", "");
    let reader = std::thread::current().id();
    let cold = writer_threads(&server, &line);
    assert!(cold.iter().all(|&t| t != reader), "cold: {cold:?}");
    let hot = writer_threads(&server, &line);
    assert!(hot.iter().all(|&t| t == reader), "cache-hot: {hot:?}");
}

/// One direction of an in-memory pipe that holds at most `capacity`
/// bytes, like an OS pipe with a small buffer: a write blocks while the
/// pipe is full and the read end is open, a read while it is empty and
/// the write end is open.
struct Pipe {
    /// The bytes in the pipe, and whether each end is still open.
    state: Mutex<(VecDeque<u8>, bool, bool)>,
    changed: Condvar,
    capacity: usize,
}

struct PipeWriter(Arc<Pipe>);
struct PipeReader(Arc<Pipe>);

fn pipe(capacity: usize) -> (PipeWriter, PipeReader) {
    let pipe = Arc::new(Pipe {
        state: Mutex::new((VecDeque::new(), true, true)),
        changed: Condvar::new(),
        capacity,
    });
    (PipeWriter(Arc::clone(&pipe)), PipeReader(pipe))
}

impl Write for PipeWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let pipe = &self.0;
        let mut state = pipe.state.lock().unwrap();
        while state.0.len() == pipe.capacity && state.2 {
            state = pipe.changed.wait(state).unwrap();
        }
        if !state.2 {
            return Err(std::io::ErrorKind::BrokenPipe.into());
        }
        let n = buf.len().min(pipe.capacity - state.0.len());
        state.0.extend(&buf[..n]);
        pipe.changed.notify_all();
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Drop for PipeWriter {
    fn drop(&mut self) {
        self.0.state.lock().unwrap().1 = false;
        self.0.changed.notify_all();
    }
}

impl Read for PipeReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let pipe = &self.0;
        let mut state = pipe.state.lock().unwrap();
        while state.0.is_empty() && state.1 && !buf.is_empty() {
            state = pipe.changed.wait(state).unwrap();
        }
        let n = buf.len().min(state.0.len());
        for (slot, byte) in buf.iter_mut().zip(state.0.drain(..n)) {
            *slot = byte;
        }
        pipe.changed.notify_all();
        Ok(n)
    }
}

impl Drop for PipeReader {
    fn drop(&mut self) {
        self.0.state.lock().unwrap().2 = false;
        self.0.changed.notify_all();
    }
}

/// A client that writes many settled grids before reading any reply
/// stalls once the output pipe is full: the reader thread, draining a
/// settled grid, blocks on the write and reads no further request until
/// the client reads.  Once it does, every grid completes.
#[test]
fn a_client_that_writes_settled_grids_without_reading_stalls_until_it_reads() {
    let _guard = faults();
    const GRIDS: usize = 64;
    let stub = Arc::new(ThreadStub {
        settled: true,
        takers: Takers::default(),
    });
    let (mut requests, input) = pipe(1024);
    let (output, replies) = pipe(1024);
    let server = std::thread::spawn(move || {
        serve_connection(&stub, BufReader::with_capacity(256, input), output)
    });
    let written = Arc::new(AtomicUsize::new(0));
    let client = {
        let written = Arc::clone(&written);
        std::thread::spawn(move || {
            for i in 0..GRIDS {
                let line = sweep(&format!("s{i}"), "0,20,40,60", "");
                writeln!(requests, "{line}").expect("write request");
                written.fetch_add(1, Ordering::Relaxed);
            }
        })
    };

    // Wait until the client makes no progress for a while.
    let (mut last, mut since) = (0, Instant::now());
    let give_up = Instant::now() + Duration::from_secs(20);
    while since.elapsed() < Duration::from_millis(300) && Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(10));
        let now = written.load(Ordering::Relaxed);
        if now != last {
            (last, since) = (now, Instant::now());
        }
    }
    assert!(
        last < GRIDS,
        "the client wrote all {GRIDS} grids without reading a reply"
    );

    let replies: Vec<String> = BufReader::new(replies)
        .lines()
        .map(|line| line.expect("read reply"))
        .collect();
    client.join().expect("client");
    server.join().expect("server").expect("serve");
    let done = replies.iter().filter(|l| l.starts_with("done ")).count();
    assert_eq!(done, GRIDS, "every grid completes once the client reads");
    assert!(replies
        .iter()
        .filter(|l| l.starts_with("done "))
        .all(|l| l.ends_with("status=ok")));
}
