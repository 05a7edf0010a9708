//! Backend conformance for the shared request lifecycle: the same request
//! transcript through `serve_connection` must produce the same responses
//! whether the backend is a local `SweepServer` or a two-backend
//! `Coordinator` (its backends served in-process by `serve_tcp` threads),
//! and one grid must run through the shared accept loop over a Unix
//! socket for each backend.
//!
//! The transcript slows every point with the process-global
//! `dae_core::fault` hooks, so every test here serializes on
//! [`FAULT_LOCK`].

use dae_core::{fault, SweepSession};
use dae_serve::{
    parse_request, parse_response, serve_connection, serve_tcp, Coordinator, DoneStatus, Request,
    Response, SweepBackend, SweepServer,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Serializes the binary's tests and guarantees hook reset even if the
/// previous holder panicked.
fn faults() -> MutexGuard<'static, ()> {
    let guard = FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    fault::reset();
    guard
}

/// A coordinator over two fresh `SweepServer`s, each accepting on an
/// ephemeral TCP port on its own `serve_tcp` thread.
fn in_process_fleet() -> Arc<Coordinator> {
    let addrs: Vec<String> = (0..2)
        .map(|_| {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind a backend");
            let addr = listener.local_addr().expect("backend addr").to_string();
            let server = Arc::new(SweepServer::new());
            std::thread::spawn(move || serve_tcp(&server, &listener));
            addr
        })
        .collect();
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
        "stats".to_string(),
        "shutdown".to_string(),
    ]
    .join("\n");
    let mut lines = transcript(backend, &format!("{input}\n"));
    fault::reset();
    assert!(backend.is_shutting_down());
    let timeouts = backend
        .stats_fields()
        .into_iter()
        .find(|(name, _)| name == "timeout_requests")
        .expect("stats report timeout_requests")
        .1;
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
