//! Backend conformance for the shared request lifecycle: the same request
//! transcript through `serve_connection` must produce the same responses
//! whether the backend is a local `SweepServer` or a two-backend
//! `Coordinator` (its backends served in-process by `serve_tcp` threads),
//! and one grid must run through the shared accept loop over a Unix
//! socket for each backend.
//!
//! Through the coordinator, a repeated grid is answered from the
//! backends' caches, the retry watchdog is driven against a backend that
//! never answers, and a backend that dies between its `point` and `done`
//! lines still settles every point exactly once.
//!
//! The transcript slows every point with the process-global
//! `dae_core::fault` hooks, so every test here serializes on
//! [`FAULT_LOCK`].

use dae_core::{cache_key_digest, fault, LoweredTrace, Machine, SweepSession, WindowSpec};
use dae_serve::{
    parse_request, parse_response, serve_connection, serve_tcp, Coordinator, DoneStatus,
    Partitioner, Request, Response, SweepBackend, SweepRequest, SweepServer,
};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Serializes the binary's tests and guarantees hook reset even if the
/// previous holder panicked.
fn faults() -> MutexGuard<'static, ()> {
    let guard = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    fault::reset();
    guard
}

/// A fresh `SweepServer` accepting on an ephemeral TCP port on its own
/// `serve_tcp` thread; returns its address.
fn in_process_backend() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a backend");
    let addr = listener.local_addr().expect("backend addr").to_string();
    let server = Arc::new(SweepServer::new());
    std::thread::spawn(move || serve_tcp(&server, &listener));
    addr
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

/// The 12-point TRFD grid the coordinator fault tests send.
const FLEET_GRID: &str =
    "sweep id=fleet trace=TRFD iterations=120 machines=dm,swsm windows=8,16,32 mds=0,60";

/// `line`'s request, its cycles from a cache-off session in grid order,
/// and how many of its points a two-backend ring places on backend 1.
fn oracle(line: &str) -> (SweepRequest, Vec<u64>, usize) {
    let Ok(Request::Sweep(request)) = parse_request(line) else {
        panic!("not a sweep: {line}");
    };
    let trace = request.source.trace(request.iterations).expect("expand");
    let mut reference = SweepSession::new();
    reference.set_cache_enabled(false);
    let id = reference.pin_trace(&trace);
    let points = request.points(id);
    let expected = reference.sweep_multi(&points);
    let hash = LoweredTrace::new(&trace).content_hash();
    let ring = Partitioner::new(2);
    let on_second = points
        .iter()
        .filter(|&&(_, m, w, md)| ring.assign(cache_key_digest(hash, m, w, md)) == Some(1))
        .count();
    (request, expected, on_second)
}

/// Serves `line` through `coordinator` on its own thread, failing after
/// five seconds instead of hanging, and returns the grid's cycles by index
/// (each index at most once) and its `done` lines.
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
            d @ Response::Done { .. } => done.push(d),
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
/// simulated once, and the repeat is answered entirely from the backends'
/// caches with the first run's cycles.
#[test]
fn a_repeated_grid_is_answered_from_the_backends_caches() {
    let _guard = faults();
    let (_, expected, on_second) = oracle(FLEET_GRID);
    assert!(on_second > 0 && on_second < expected.len(), "spans both");
    let coordinator = in_process_fleet();
    let (first, done) = serve_grid(&coordinator, FLEET_GRID);
    assert_one_ok_done(&done, expected.len(), 0);
    let (repeat, done) = serve_grid(&coordinator, FLEET_GRID);
    assert_one_ok_done(&done, expected.len(), expected.len() as u64);
    assert_eq!(repeat, first, "cached cycles equal the simulated ones");
    let expected: Vec<_> = expected.into_iter().map(Some).collect();
    assert_eq!(first, expected, "coordinated grid vs the oracle");
    assert_eq!(coordinator.pending_points(), 0, "every point settled");
}

/// A backend that accepts the coordinator's data connection and never
/// answers on it, and closes every later (control) connection at once so
/// `stats` does not wait out the control timeout.  Returns its address.
fn silent_backend() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind the stub");
    let addr = listener.local_addr().expect("stub addr").to_string();
    std::thread::spawn(move || {
        let mut incoming = listener.incoming();
        let Some(Ok(mut data)) = incoming.next() else {
            return;
        };
        // Swallow every forwarded sweep line; never reply.
        std::thread::spawn(move || std::io::copy(&mut data, &mut std::io::sink()));
        for control in incoming {
            drop(control);
        }
    });
    addr
}

/// The retry watchdog re-dispatches points a backend sits on: over a real
/// backend and one that never answers, a grid placed on both still
/// completes, balanced and bit-for-bit equal to a cache-off reference.
#[test]
fn the_watchdog_redispatches_points_a_silent_backend_holds() {
    let _guard = faults();
    let (_, expected, on_second) = oracle(FLEET_GRID);
    // The grid must reach the silent backend (index 1) and the real one.
    assert!(
        on_second > 0 && on_second < expected.len(),
        "the grid must span both backends"
    );

    let addrs = [in_process_backend(), silent_backend()];
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
}

/// A backend that answers the first `subrequests` sweep lines on its data
/// connection with a correct `point` line each (looked up in `cycles` by
/// the line's single grid point), then closes that connection before any
/// `done`.  Control connections close at once.  Returns its address.
fn dying_backend(subrequests: usize, cycles: HashMap<(Machine, WindowSpec, u64), u64>) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind the stub");
    let addr = listener.local_addr().expect("stub addr").to_string();
    std::thread::spawn(move || {
        let mut incoming = listener.incoming();
        let Some(Ok(data)) = incoming.next() else {
            return;
        };
        let mut writer = data.try_clone().expect("clone the stub connection");
        for line in BufReader::new(data).lines().take(subrequests) {
            let line = line.expect("read a subrequest");
            let Ok(Request::Sweep(sub)) = parse_request(&line) else {
                panic!("not a sweep: {line}");
            };
            let (machine, window, md) = sub.grid().next().expect("one point");
            let reply = Response::Point {
                id: sub.id,
                index: 0,
                machine,
                window,
                md,
                cycles: cycles[&(machine, window, md)],
            };
            writeln!(writer, "{reply}").expect("answer");
        }
        drop(writer);
        for control in incoming {
            drop(control);
        }
    });
    addr
}

/// A backend that dies between its `point` lines and their `done` lines:
/// the death sweep settles those points with the reported cycles, so the
/// client still gets every index exactly once and one balanced `done`.
#[test]
fn a_backend_dying_between_point_and_done_settles_each_point_once() {
    let _guard = faults();
    let (request, expected, on_second) = oracle(FLEET_GRID);
    assert!(on_second > 0 && on_second < expected.len(), "spans both");
    let by_point = request.grid().zip(expected.iter().copied()).collect();

    let addrs = [in_process_backend(), dying_backend(on_second, by_point)];
    let coordinator = Arc::new(Coordinator::connect(&addrs).expect("connect"));
    let (cycles, done) = serve_grid(&coordinator, FLEET_GRID);
    let points = expected.len();
    let expected: Vec<_> = expected.into_iter().map(Some).collect();
    assert_eq!(cycles, expected, "grid over a dying backend vs the oracle");
    assert_one_ok_done(&done, points, 0);
    assert_eq!(coordinator.pending_points(), 0, "every point settled");
    let redispatched = stat(&*coordinator, "redispatched_points");
    assert_eq!(redispatched, 0, "reported cycles settle without a re-run");
}
