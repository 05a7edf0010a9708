//! End-to-end server tests: clients over real sockets (and the stdin-shaped
//! in-memory path) must receive exactly the in-process `SweepSession`
//! results, correctly tagged per request, with the cache answering repeats
//! and cancellation dropping pending points.

use dae_core::{SweepSession, TraceId};
use dae_serve::{
    parse_request, parse_response, serve_connection, serve_tcp, Coordinator, Request, Response,
    SweepBackend, SweepServer,
};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Serves `backend` on an ephemeral TCP port, returning the port.
fn serve_on_tcp<B: SweepBackend + 'static>(backend: Arc<B>) -> u16 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let port = listener.local_addr().expect("local addr").port();
    std::thread::spawn(move || {
        let _ = serve_tcp(&backend, &listener);
    });
    port
}

/// Starts a server on an ephemeral TCP port, returning the port.
fn start_tcp_server() -> u16 {
    serve_on_tcp(Arc::new(SweepServer::new()))
}

/// The in-process oracle: the request's canonical grid run on a private
/// session, exactly what the served `point` lines must reproduce.
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

/// Grid size of a request line.
fn grid_len(line: &str) -> usize {
    let Ok(Request::Sweep(request)) = parse_request(line) else {
        panic!("not a sweep request: {line}");
    };
    request.points(TraceId::from_raw_for_tests()).len()
}

/// One request's collected responses: cycles by grid index plus the final
/// `done` accounting.
struct Collected {
    points: HashMap<usize, u64>,
    done: Option<Response>,
}

/// Reads tagged responses until a `done` line has arrived for every id in
/// `ids`; panics on `error` lines and on points tagged for unknown
/// requests.
fn read_all<R: BufRead>(reader: &mut R, ids: &[&str]) -> HashMap<String, Collected> {
    let mut collected: HashMap<String, Collected> = ids
        .iter()
        .map(|&id| {
            (
                id.to_string(),
                Collected {
                    points: HashMap::new(),
                    done: None,
                },
            )
        })
        .collect();
    while collected.values().any(|c| c.done.is_none()) {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("read response") > 0,
            "connection closed with requests outstanding"
        );
        match parse_response(line.trim_end()).expect("well-formed response") {
            Response::Point {
                id, index, cycles, ..
            } => {
                let entry = collected
                    .get_mut(&id)
                    .unwrap_or_else(|| panic!("point tagged for unknown request '{id}'"));
                assert!(
                    entry.points.insert(index, cycles).is_none(),
                    "point {index} of {id} delivered twice"
                );
            }
            done @ Response::Done { .. } => {
                let Response::Done { ref id, .. } = done else {
                    unreachable!()
                };
                let entry = collected
                    .get_mut(id)
                    .unwrap_or_else(|| panic!("done tagged for unknown request '{id}'"));
                assert!(entry.done.is_none(), "two done lines for {id}");
                entry.done = Some(done);
            }
            Response::Cancelled { .. } => {}
            other => panic!("unexpected response: {other:?}"),
        }
    }
    collected
}

trait TraceIdTestExt {
    fn from_raw_for_tests() -> TraceId;
}

impl TraceIdTestExt for TraceId {
    /// Grid sizing only needs *a* TraceId; borrow one from a scratch
    /// session.
    fn from_raw_for_tests() -> TraceId {
        let mut session = SweepSession::new();
        session.pin_trace(&dae_workloads::stream().trace(1))
    }
}

/// Two clients on separate sockets, submitting interleaved grids (one of
/// them two tagged requests on one connection), receive exactly the
/// in-process session results.
#[test]
fn interleaved_tcp_clients_receive_in_process_results() {
    let alpha = "sweep id=alpha trace=TRFD iterations=120 machines=dm,swsm windows=8,32 mds=0,60 mode=stream";
    let gamma =
        "sweep id=gamma trace=stream iterations=100 machines=dm windows=16 mds=0,60 mode=stream";
    let beta =
        "sweep id=beta trace=MDG iterations=120 machines=dm,scalar windows=16,64 mds=60 mode=batch";

    let port = start_tcp_server();
    let mut client_a = TcpStream::connect(("127.0.0.1", port)).expect("connect a");
    let mut client_b = TcpStream::connect(("127.0.0.1", port)).expect("connect b");
    let mut reader_a = BufReader::new(client_a.try_clone().expect("clone a"));
    let mut reader_b = BufReader::new(client_b.try_clone().expect("clone b"));

    // Interleave submissions: both of client A's requests are in flight
    // together, concurrently with client B's.
    writeln!(client_a, "{alpha}").unwrap();
    writeln!(client_b, "{beta}").unwrap();
    writeln!(client_a, "{gamma}").unwrap();

    let from_a = read_all(&mut reader_a, &["alpha", "gamma"]);
    let from_b = read_all(&mut reader_b, &["beta"]);

    for (line, id, client) in [
        (alpha, "alpha", &from_a),
        (gamma, "gamma", &from_a),
        (beta, "beta", &from_b),
    ] {
        let expected = oracle(line);
        let got = &client[id];
        assert_eq!(got.points.len(), expected.len(), "{line}");
        for (index, cycles) in expected.iter().enumerate() {
            assert_eq!(got.points[&index], *cycles, "point {index} of '{line}'");
        }
        let Some(Response::Done {
            points: total,
            delivered,
            dropped,
            ..
        }) = got.done
        else {
            unreachable!()
        };
        assert_eq!(total, expected.len());
        assert_eq!(delivered, expected.len());
        assert_eq!(dropped, 0);
    }
}

/// A repeated request over the socket is answered from the sweep-result
/// cache — identical cycles, `done cached=` equal to the grid size.
#[test]
fn repeated_requests_hit_the_cache_across_the_wire() {
    let first = "sweep id=r1 trace=FLO52Q iterations=100 machines=dm,swsm windows=8,32 mds=0,60 mode=stream";
    let second = "sweep id=r2 trace=FLO52Q iterations=100 machines=dm,swsm windows=8,32 mds=0,60 mode=stream";

    let port = start_tcp_server();
    let mut client = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    let mut reader = BufReader::new(client.try_clone().expect("clone"));

    writeln!(client, "{first}").unwrap();
    let cold = read_all(&mut reader, &["r1"]).remove("r1").unwrap();
    // Submitted only after r1's done line: every point is resident now.
    writeln!(client, "{second}").unwrap();
    let warm = read_all(&mut reader, &["r2"]).remove("r2").unwrap();

    let n = grid_len(first);
    assert_eq!(cold.points.len(), n);
    assert_eq!(
        warm.points, cold.points,
        "cached repeat must be bit-for-bit identical"
    );
    let Some(Response::Done { cached, .. }) = cold.done else {
        unreachable!()
    };
    assert_eq!(cached, 0, "a cold request simulates everything");
    let Some(Response::Done { cached, .. }) = warm.done else {
        unreachable!()
    };
    assert_eq!(
        cached, n as u64,
        "a warm repeat is answered entirely from cache"
    );
}

/// An 8-point grid of the TRFD kernel, one request line with its newline.
fn hot_line(id: &str, mode: &str) -> String {
    format!(
        "sweep id={id} trace=TRFD iterations=120 machines=dm,swsm windows=8,32 mds=0,60 \
         mode={mode}\n"
    )
}

/// A coordinator over two in-process backends, each on its own
/// `serve_tcp` listener.
fn in_process_coordinator() -> Arc<Coordinator> {
    let addrs: Vec<String> = (0..2)
        .map(|_| format!("127.0.0.1:{}", start_tcp_server()))
        .collect();
    Arc::new(Coordinator::connect(&addrs).expect("connect the fleet"))
}

/// The median time, in ms, from sending a cache-hot `hot_line` grid to
/// reading its `done`, over 20 repeats by one client that leaves Nagle's
/// algorithm on, against the front end on `port`; also every time, sorted.
fn cache_hot_median_ms(port: u16) -> (f64, Vec<f64>) {
    let mut client = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    let mut reader = BufReader::new(client.try_clone().expect("clone"));
    client
        .write_all(hot_line("warm", "stream").as_bytes())
        .unwrap();
    read_all(&mut reader, &["warm"]);

    let mut elapsed_ms: Vec<f64> = (0..20)
        .map(|i| {
            let id = format!("hot{i}");
            let started = Instant::now();
            client
                .write_all(hot_line(&id, "stream").as_bytes())
                .unwrap();
            let got = read_all(&mut reader, &[&id]).remove(&id).unwrap();
            let elapsed = started.elapsed().as_secs_f64() * 1e3;
            let Some(Response::Done { cached, .. }) = got.done else {
                unreachable!()
            };
            assert_eq!(cached, 8, "a repeat is answered from the cache");
            elapsed
        })
        .collect();
    elapsed_ms.sort_by(f64::total_cmp);
    (elapsed_ms[elapsed_ms.len() / 2], elapsed_ms)
}

/// Nagle's algorithm left on at both ends: a client that does not set
/// `TCP_NODELAY` gets a cache-hot grid back well inside the ~40 ms a
/// delayed ACK costs, because the server sends the lines that are ready
/// together in one `write` rather than one per format fragment.  (The
/// client, too, sends each request in one `write`.)
#[test]
fn cache_hot_grids_are_not_held_back_by_nagle() {
    let (median, sorted) = cache_hot_median_ms(start_tcp_server());
    assert!(
        median < 10.0,
        "cache-hot median {median:.2} ms: response lines held back by Nagle \
         (sorted: {sorted:?})"
    );
}

/// The same through a two-backend coordinator behind `serve_tcp`, with
/// Nagle on at every hop: the 2-MD grid goes to one backend whole, so its
/// points settle in one message and leave the front end in one `write`.
/// Settled in two parts, the second write would wait for the client's
/// delayed ACK.
#[test]
fn cache_hot_grids_through_a_coordinator_are_not_held_back_by_nagle() {
    let (median, sorted) = cache_hot_median_ms(serve_on_tcp(in_process_coordinator()));
    assert!(
        median < 10.0,
        "coordinated cache-hot median {median:.2} ms: response lines held back by Nagle \
         (sorted: {sorted:?})"
    );
}

/// The same with requests pipelined: four cache-hot grids sent in one
/// `write` are drained one by one on the reader thread, and their 36
/// lines still leave in one `write`, because the connection flushes only
/// once its reader has no whole request left and every drainer is idle.
/// Flushed drain by drain, all but the first write would wait for the
/// client's delayed ACK.
#[test]
fn pipelined_cache_hot_grids_are_not_held_back_by_nagle() {
    let port = start_tcp_server();
    let mut client = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    let mut reader = BufReader::new(client.try_clone().expect("clone"));
    client
        .write_all(hot_line("warm", "stream").as_bytes())
        .unwrap();
    read_all(&mut reader, &["warm"]);

    let mut elapsed_ms: Vec<f64> = (0..20)
        .map(|round| {
            let ids: Vec<String> = (0..4).map(|k| format!("hot{round}-{k}")).collect();
            let burst: String = ids.iter().map(|id| hot_line(id, "stream")).collect();
            let started = Instant::now();
            client.write_all(burst.as_bytes()).unwrap();
            let ids: Vec<&str> = ids.iter().map(String::as_str).collect();
            let got = read_all(&mut reader, &ids);
            let elapsed = started.elapsed().as_secs_f64() * 1e3;
            for id in ids {
                let Some(Response::Done { cached, .. }) = got[id].done else {
                    unreachable!()
                };
                assert_eq!(cached, 8, "{id}: a repeat is answered from the cache");
            }
            elapsed
        })
        .collect();
    elapsed_ms.sort_by(f64::total_cmp);
    let median = elapsed_ms[elapsed_ms.len() / 2];
    assert!(
        median < 10.0,
        "pipelined cache-hot median {median:.2} ms: response lines held back by Nagle \
         (sorted: {elapsed_ms:?})"
    );
}

/// The reader loop holds the connection's output back only while a whole
/// request line is buffered: the start of the next line, sent with a
/// request, does not keep that request's reply from the client.
#[test]
fn a_partial_request_line_does_not_hold_back_replies() {
    let port = start_tcp_server();
    let mut client = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut reader = BufReader::new(client.try_clone().expect("clone"));
    let burst = format!("{}sta", hot_line("first", "stream"));
    client.write_all(burst.as_bytes()).unwrap();
    read_all(&mut reader, &["first"]);
    client.write_all(b"ts\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).expect("stats reply");
    assert!(
        matches!(parse_response(line.trim_end()), Ok(Response::Stats { .. })),
        "the completed line is served: {line}"
    );
}

/// A writer that records every `write` call that reaches it.
struct CountingWriter {
    writes: Arc<Mutex<Vec<Vec<u8>>>>,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes.lock().unwrap().push(buf.to_vec());
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Warms `backend` with `hot_line`, then asserts that a repeat's nine
/// lines (eight cached `point`s and the `done`) reach the connection in
/// exactly one `write`, in stream and in batch mode alike.
fn assert_cache_hot_grid_in_one_write<B: SweepBackend>(backend: &Arc<B>) {
    serve_connection(backend, hot_line("warm", "stream").as_bytes(), io::sink()).expect("warm");
    for mode in ["stream", "batch"] {
        let writes = Arc::new(Mutex::new(Vec::new()));
        let writer = CountingWriter {
            writes: Arc::clone(&writes),
        };
        serve_connection(backend, hot_line(mode, mode).as_bytes(), writer).expect("serve");
        let writes = writes.lock().unwrap();
        let text = String::from_utf8(writes.concat()).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 9, "{mode}: eight points and done:\n{text}");
        let Ok(Response::Done { cached, .. }) = parse_response(lines[8]) else {
            panic!("{mode}: the last line is done:\n{text}");
        };
        assert_eq!(cached, 8, "{mode}: every point from the cache");
        assert_eq!(
            writes.len(),
            1,
            "{mode}: nine lines in {} writes",
            writes.len()
        );
    }
}

/// The mechanism behind the tests above, with no clock: a fully cached
/// grid's nine lines are all ready when its drainer starts, so they reach
/// the connection in one `write`.
#[test]
fn a_cache_hot_grid_reaches_the_socket_in_one_write() {
    assert_cache_hot_grid_in_one_write(&Arc::new(SweepServer::new()));
}

/// The same through a two-backend coordinator: the backend's `done`
/// settles the whole 2-MD grid in one message to the drainer, so it too
/// leaves in one `write`.
#[test]
fn a_cache_hot_grid_reaches_the_socket_in_one_write_through_a_coordinator() {
    assert_cache_hot_grid_in_one_write(&in_process_coordinator());
}

/// A connection to a fresh server whose cache holds `hot_line`'s grid,
/// with a read timeout so a missing reply fails instead of hanging.
fn warmed_connection() -> (TcpStream, BufReader<TcpStream>) {
    let port = start_tcp_server();
    let mut client = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut reader = BufReader::new(client.try_clone().expect("clone"));
    client
        .write_all(hot_line("warm", "stream").as_bytes())
        .unwrap();
    read_all(&mut reader, &["warm"]);
    (client, reader)
}

/// Reads response lines up to and including the `done` of `id`.
fn lines_until_done<R: BufRead>(reader: &mut R, id: &str) -> Vec<String> {
    let done = format!("done id={id} ");
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("read") > 0,
            "closed before the done of {id}: {lines:?}"
        );
        let finished = line.starts_with(&done);
        lines.push(line.trim_end().to_string());
        if finished {
            return lines;
        }
    }
}

/// A cache-hot grid is drained before the reader reads on, so it is no
/// longer active by the next line: a `cancel` for it gets the reply a
/// finished request gets, its id may be reused at once, and a 1 ms
/// deadline cannot expire on points that were all ready at submit.
#[test]
fn a_cache_hot_request_is_finished_before_the_next_line() {
    let (mut client, mut reader) = warmed_connection();
    let burst = format!(
        "{}cancel id=hot\n{}{} deadline_ms=1\n",
        hot_line("hot", "stream"),
        hot_line("hot", "batch"),
        hot_line("dl", "stream").trim_end(),
    );
    client.write_all(burst.as_bytes()).unwrap();
    let ok = "delivered=8 dropped=0 aborted=0 failed=0 cached=8 status=ok";
    let first = lines_until_done(&mut reader, "hot");
    assert_eq!(first.len(), 9, "eight points, then done: {first:?}");
    assert!(first[8].ends_with(ok), "{first:?}");
    let mut line = String::new();
    reader.read_line(&mut line).expect("the cancel's reply");
    assert_eq!(line.trim_end(), "error id=hot msg=no such active request");
    let again = lines_until_done(&mut reader, "hot");
    assert_eq!(again.len(), 9, "the reused id is served: {again:?}");
    assert!(again[8].ends_with(ok), "{again:?}");
    let deadline = lines_until_done(&mut reader, "dl");
    assert_eq!(deadline.len(), 9, "{deadline:?}");
    assert!(deadline[8].ends_with(ok), "{deadline:?}");
}

/// A cache-hot grid pipelined behind a cold one on the same connection is
/// answered while the cold grid still simulates: a drain on the reader
/// thread never waits behind a drainer thread.
#[test]
fn a_cache_hot_grid_overtakes_a_cold_grid_pipelined_ahead_of_it() {
    let (mut client, mut reader) = warmed_connection();
    let cold = "sweep id=cold trace=MDG iterations=400 machines=dm,swsm windows=16,32,64 \
                mds=0,60 mode=batch\n";
    let burst = format!("{cold}{}", hot_line("hot", "stream"));
    client.write_all(burst.as_bytes()).unwrap();
    let lines = lines_until_done(&mut reader, "cold");
    let done_at = |id: &str| {
        let done = format!("done id={id} ");
        lines.iter().position(|l| l.starts_with(&done))
    };
    let hot = done_at("hot").unwrap_or_else(|| panic!("no done for hot: {lines:?}"));
    assert!(lines[hot].ends_with("cached=8 status=ok"), "{lines:?}");
    assert!(
        lines[..hot].iter().all(|l| !l.contains("id=cold ")),
        "the cache-hot grid waited behind the cold one: {lines:?}"
    );
    assert_eq!(lines.len(), 9 + 13, "{lines:?}");
}

/// Cancelling an in-flight request drops its pending points: the `done`
/// accounting always balances and delivered points are still bit-for-bit
/// correct.  Whether any point is still pending when the cancel lands is
/// a race (guaranteed-drop semantics are pinned deterministically at the
/// session layer by `a_cancelled_stream_skips_pending_points`), so the
/// wire-path drop is asserted over a few attempts on fresh servers — a
/// fresh server each time, because a warm cache would deliver every
/// point at submission and leave nothing pending.
#[test]
fn cancellation_drops_pending_points_and_accounting_balances() {
    let big = "sweep id=big trace=QCD iterations=200 machines=dm,swsm windows=4,8,12,16,24,32,48,64 mds=0,20,40,60,80,100,120,140 mode=stream";
    let total = grid_len(big);
    let expected = oracle(big);
    let mut any_dropped = false;

    for attempt in 0..5 {
        let port = start_tcp_server();
        let mut client = TcpStream::connect(("127.0.0.1", port)).expect("connect");
        let mut reader = BufReader::new(client.try_clone().expect("clone"));

        writeln!(client, "{big}").unwrap();
        writeln!(client, "cancel id=big").unwrap();

        let mut saw_ack = false;
        let mut delivered_points: HashMap<usize, u64> = HashMap::new();
        let done = loop {
            let mut line = String::new();
            assert!(
                reader.read_line(&mut line).expect("read") > 0,
                "closed early"
            );
            match parse_response(line.trim_end()).expect("well-formed response") {
                Response::Cancelled { id } => {
                    assert_eq!(id, "big");
                    saw_ack = true;
                }
                Response::Point { index, cycles, .. } => {
                    delivered_points.insert(index, cycles);
                }
                done @ Response::Done { .. } => break done,
                // The cancel can lose the race with the last point: the
                // server then reports it as no longer active.
                Response::Error { id, .. } => assert_eq!(id.as_deref(), Some("big")),
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
        assert_eq!(points, total);
        assert_eq!(
            delivered + dropped + aborted + failed,
            points,
            "accounting must balance"
        );
        assert_eq!(failed, 0, "nothing injects faults here");
        assert_eq!(delivered, delivered_points.len());
        assert!(
            saw_ack || dropped + aborted == 0,
            "dropped or aborted points require an acknowledged cancel"
        );
        if dropped + aborted > 0 {
            assert_eq!(status, dae_serve::DoneStatus::Cancelled);
        }
        // The delivered subset still matches the oracle.
        for (index, cycles) in &delivered_points {
            assert_eq!(*cycles, expected[*index], "delivered point {index}");
        }
        if dropped + aborted > 0 {
            any_dropped = true;
            break;
        }
        eprintln!("attempt {attempt}: cancel lost the race (all {points} points ran); retrying");
    }
    assert!(
        any_dropped,
        "a cancel racing a {total}-point grid should drop or abort points in at least one of 5 attempts"
    );
}

/// The stdin-shaped path (one in-memory connection, no sockets): tagged
/// concurrent sweeps, a stats reply and error replies all arrive on one
/// writer, and sweep results equal the oracle.
#[test]
fn stdin_shaped_connections_serve_tagged_requests_and_stats() {
    let one = "sweep id=one trace=TRACK iterations=90 machines=dm windows=8,32 mds=60 mode=stream";
    let two = "sweep id=two kernel=i;ld:%0;ld:%0;mul:%1,$0;add:%3,%2;st:%4,%0 iterations=150 machines=dm,swsm windows=16 mds=0,60 mode=batch";
    let input = format!("{one}\n{two}\nstats\nnonsense here\n");

    let server = Arc::new(SweepServer::new());
    let mut output = Vec::new();
    serve_connection(&server, input.as_bytes(), &mut output).expect("serve");
    let text = String::from_utf8(output).expect("utf8 output");

    let mut per_id: HashMap<String, HashMap<usize, u64>> = HashMap::new();
    let mut dones = 0;
    let mut saw_stats = false;
    let mut saw_error = false;
    for line in text.lines() {
        match parse_response(line).expect("well-formed response") {
            Response::Point {
                id, index, cycles, ..
            } => {
                per_id.entry(id).or_default().insert(index, cycles);
            }
            Response::Done {
                delivered, points, ..
            } => {
                assert_eq!(delivered, points);
                dones += 1;
            }
            Response::Stats { fields } => {
                saw_stats = true;
                for required in [
                    "cache_entries",
                    "queue_depth",
                    "clients",
                    "aborted_points",
                    "failed_points",
                    "timeout_requests",
                    "busy_rejections",
                ] {
                    assert!(
                        fields.iter().any(|(name, _)| name == required),
                        "stats must report {required}: {fields:?}"
                    );
                }
                // This connection is registered, so its in-flight count
                // appears under its server-assigned client id.
                assert!(
                    fields.iter().any(|(name, _)| name.starts_with("client_")),
                    "stats must report per-client in-flight points: {fields:?}"
                );
            }
            Response::Error { message, .. } => {
                saw_error = true;
                assert!(message.contains("unknown verb"));
            }
            other => panic!("unexpected: {other:?}"),
        }
    }
    assert_eq!(dones, 2);
    assert!(saw_stats && saw_error);
    for line in [one, two] {
        let Ok(Request::Sweep(request)) = parse_request(line) else {
            unreachable!()
        };
        let expected = oracle(line);
        let got = &per_id[&request.id];
        assert_eq!(got.len(), expected.len());
        for (index, cycles) in expected.iter().enumerate() {
            assert_eq!(got[&index], *cycles, "{line} point {index}");
        }
    }
}

/// Spawns one real `dae-serve` backend process on an ephemeral TCP port
/// and returns the child plus its dialable address.
fn spawn_backend() -> (Child, String) {
    spawn_serve(&["--tcp", "127.0.0.1:0"])
}

/// Spawns a `dae-serve` process with `args` (which must include a `--tcp`
/// listener) and returns the child plus its dialable address (parsed from
/// the binary's "listening on tcp" stderr line).
fn spawn_serve(args: &[&str]) -> (Child, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dae-serve"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn backend process");
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
    // Keep draining stderr so later diagnostics can never fill the pipe
    // and wedge the backend.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while reader.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
            sink.clear();
        }
    });
    (child, addr)
}

/// Waits for a child process to exit, panicking after `timeout`.
fn await_exit(child: &mut Child, timeout: Duration, who: &str) {
    let deadline = Instant::now() + timeout;
    loop {
        if child.try_wait().expect("poll child").is_some() {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{who} did not exit in {timeout:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The sharded differential test: the same grids run three ways — through
/// a coordinator over two real backend processes, through a single
/// in-process server, and on a private `SweepSession` (the oracle) — must
/// produce bit-for-bit identical cycles with clean accounting; the
/// coordinator's `stats` reports the fleet; and a `shutdown` through the
/// coordinator fans out and terminates both backends.
#[test]
fn a_two_backend_coordinator_matches_single_server_and_session_bit_for_bit() {
    let stream_line = "sweep id=shard-s trace=TRFD iterations=120 machines=dm,swsm windows=8,32 \
                       mds=0,60 mode=stream";
    let batch_line = "sweep id=shard-b trace=MDG iterations=100 machines=dm,scalar windows=16,64 \
                      mds=0,60 mode=batch";
    let input = format!("{stream_line}\n{batch_line}\nstats\n");

    let (mut backend_one, addr_one) = spawn_backend();
    let (mut backend_two, addr_two) = spawn_backend();
    let coordinator =
        Arc::new(Coordinator::connect(&[addr_one, addr_two]).expect("connect the fleet"));

    let mut sharded = Vec::new();
    serve_connection(&coordinator, input.as_bytes(), &mut sharded).expect("coordinated serve");

    let mut single = Vec::new();
    let server = Arc::new(SweepServer::new());
    serve_connection(&server, input.as_bytes(), &mut single).expect("single serve");

    // Group both outputs by request id; any error line is a failure.
    let collect = |output: &[u8]| {
        let mut points: HashMap<String, HashMap<usize, u64>> = HashMap::new();
        let mut dones: HashMap<String, Response> = HashMap::new();
        let mut stats = None;
        for line in String::from_utf8(output.to_vec()).expect("utf8").lines() {
            match parse_response(line).expect("well-formed response") {
                Response::Point {
                    id, index, cycles, ..
                } => {
                    assert!(
                        points
                            .entry(id)
                            .or_default()
                            .insert(index, cycles)
                            .is_none(),
                        "a point delivered twice"
                    );
                }
                done @ Response::Done { .. } => {
                    let Response::Done { ref id, .. } = done else {
                        unreachable!()
                    };
                    dones.insert(id.clone(), done);
                }
                Response::Stats { fields } => stats = Some(fields),
                other => panic!("unexpected response: {other:?}"),
            }
        }
        (points, dones, stats)
    };
    let (sharded_points, sharded_dones, sharded_stats) = collect(&sharded);
    let (single_points, _, _) = collect(&single);

    let mut forwarded_total = 0;
    for line in [stream_line, batch_line] {
        let Ok(Request::Sweep(request)) = parse_request(line) else {
            unreachable!()
        };
        let expected = oracle(line);
        forwarded_total += expected.len();
        let via_coordinator = &sharded_points[&request.id];
        let via_single = &single_points[&request.id];
        assert_eq!(via_coordinator.len(), expected.len(), "{line}");
        for (index, cycles) in expected.iter().enumerate() {
            assert_eq!(
                via_coordinator[&index], *cycles,
                "sharded point {index} of '{line}' vs the session oracle"
            );
            assert_eq!(
                via_single[&index], *cycles,
                "single-server point {index} of '{line}' vs the session oracle"
            );
        }
        let Some(Response::Done {
            points,
            delivered,
            dropped,
            aborted,
            failed,
            status,
            ..
        }) = sharded_dones.get(&request.id)
        else {
            panic!("no done line for {line}");
        };
        assert_eq!(*points, expected.len());
        assert_eq!(*delivered, expected.len());
        assert_eq!(delivered + dropped + aborted + failed, *points);
        assert_eq!(*status, dae_serve::DoneStatus::Ok);
    }

    // The aggregated stats name the fleet and the forwarding traffic, and
    // carry the backends' summed session counters.
    let fields = sharded_stats.expect("the coordinator answers stats");
    let field = |name: &str| {
        fields
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("coordinator stats must report {name}: {fields:?}"))
            .1
    };
    assert_eq!(field("backends_total"), 2);
    assert_eq!(field("backends_alive"), 2);
    assert!(field("forwarded_points") >= forwarded_total as u64);
    assert_eq!(field("backend_deaths"), 0);
    assert!(
        fields.iter().any(|(n, _)| n == "cache_entries"),
        "backend session counters must be aggregated: {fields:?}"
    );
    // The stats line races the sweeps, so only the residency fields'
    // presence is certain; two small programs never evict.
    assert!(field("pinned_resident") <= 4);
    assert_eq!(field("pin_evictions"), 0);

    // A shutdown through the coordinator is acknowledged and fans out:
    // both backend processes exit.
    let mut shutdown_out = Vec::new();
    serve_connection(&coordinator, "shutdown\n".as_bytes(), &mut shutdown_out)
        .expect("shutdown path");
    let ack = String::from_utf8(shutdown_out).expect("utf8");
    assert!(
        matches!(
            parse_response(ack.trim_end()),
            Ok(Response::Shutdown {
                mode: dae_serve::ShutdownMode::Drain
            })
        ),
        "unexpected shutdown ack: {ack}"
    );
    await_exit(&mut backend_one, Duration::from_secs(20), "backend one");
    await_exit(&mut backend_two, Duration::from_secs(20), "backend two");
}

/// A `shutdown` sent over TCP to a `--tcp` coordinator is acknowledged
/// before the coordinator exits, and it reaches both backends first: all
/// three processes exit on their own.  Repeated, because an exit that
/// raced the fan-out and the ack would lose the ack only some of the time.
#[test]
fn a_tcp_coordinator_acknowledges_shutdown_and_its_fleet_exits() {
    for round in 0..12 {
        let (mut backend_one, addr_one) = spawn_backend();
        let (mut backend_two, addr_two) = spawn_backend();
        let fleet = format!("{addr_one},{addr_two}");
        let (mut coordinator, addr) =
            spawn_serve(&["--coordinator", &fleet, "--tcp", "127.0.0.1:0"]);
        let mut client = TcpStream::connect(&addr).expect("connect to the coordinator");
        writeln!(client, "shutdown").expect("send shutdown");
        let mut ack = String::new();
        BufReader::new(client)
            .read_line(&mut ack)
            .expect("read the ack");
        assert_eq!(ack.trim_end(), "shutdown mode=drain", "round {round}");
        await_exit(&mut coordinator, Duration::from_secs(20), "coordinator");
        await_exit(&mut backend_one, Duration::from_secs(20), "backend one");
        await_exit(&mut backend_two, Duration::from_secs(20), "backend two");
    }
}

/// The `cache` verb and `--cache-dir` persistence, end to end: a cold
/// server simulates a grid and compacts its store on shutdown; a fresh
/// server attached to the same directory answers the identical grid
/// entirely from the loaded entries (the `done` line's `cached` count
/// equals the grid), `cache limit=` bounds the resident set, `cache
/// clear` empties it, and `stats` reports the persistence counters.
#[test]
fn cache_verb_and_cache_dir_restarts_answer_grids_warm() {
    let dir = std::env::temp_dir().join(format!("dae-serve-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let sweep =
        "sweep id=warm trace=TRFD iterations=90 machines=dm,swsm windows=8,32 mds=0,60 mode=batch";
    let expected = oracle(sweep);

    // Cold run: everything simulated, nothing cached yet.
    let cold = Arc::new(SweepServer::new());
    assert_eq!(cold.attach_cache_store(&dir).expect("fresh dir"), 0);
    let mut output = Vec::new();
    serve_connection(&cold, format!("{sweep}\n").as_bytes(), &mut output).expect("cold serve");
    let text = String::from_utf8(output).expect("utf8");
    let done = text.lines().last().expect("a done line");
    let Ok(Response::Done {
        cached, delivered, ..
    }) = parse_response(done)
    else {
        panic!("expected a done line, got '{done}'");
    };
    assert_eq!(delivered, expected.len());
    assert_eq!(cached, 0, "a cold store cannot answer anything");
    cold.persist_cache().expect("shutdown compaction");
    drop(cold);

    // "Restart": a fresh server, fresh session, same directory.
    let warm = Arc::new(SweepServer::new());
    let loaded = warm.attach_cache_store(&dir).expect("warm dir");
    assert_eq!(loaded as usize, expected.len(), "every record replays");
    // One connection per line keeps the replies in request order.
    let mut output = Vec::new();
    for line in [sweep, "cache limit=2", "cache clear", "stats"] {
        serve_connection(&warm, format!("{line}\n").as_bytes(), &mut output).expect("warm serve");
    }
    let text = String::from_utf8(output).expect("utf8");

    let mut cycles_by_index = HashMap::new();
    let mut cache_replies = Vec::new();
    let mut done_cached = None;
    let mut stats_fields = None;
    for line in text.lines() {
        match parse_response(line).expect("well-formed response") {
            Response::Point { index, cycles, .. } => {
                cycles_by_index.insert(index, cycles);
            }
            Response::Done {
                cached, delivered, ..
            } => {
                assert_eq!(delivered, expected.len());
                done_cached = Some(cached);
            }
            Response::Cache { entries, limit } => cache_replies.push((entries, limit)),
            Response::Stats { fields } => stats_fields = Some(fields),
            other => panic!("unexpected: {other:?}"),
        }
    }
    for (index, cycles) in expected.iter().enumerate() {
        assert_eq!(
            cycles_by_index[&index], *cycles,
            "warm point {index} must be bit-for-bit the cold result"
        );
    }
    assert_eq!(
        done_cached,
        Some(expected.len() as u64),
        "the restarted server simulated nothing"
    );
    // limit=2 evicted down to two entries; clear then emptied the map
    // (the bound itself stays in force).
    assert_eq!(cache_replies, vec![(2, Some(2)), (0, Some(2))]);
    let fields = stats_fields.expect("a stats line");
    let field = |name: &str| {
        fields
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("stats must report {name}: {fields:?}"))
            .1
    };
    assert_eq!(field("cache_loaded") as usize, expected.len());
    assert_eq!(field("cache_misses"), 0, "no warm miss");
    assert_eq!(field("cache_hits"), expected.len() as u64);
    assert_eq!(field("cache_lookups"), expected.len() as u64);
    assert_eq!(field("cache_corrupt_records"), 0);
    assert!(field("cache_evictions") >= 1, "limit=2 must evict");
    assert_eq!(field("cache_persisted"), 0, "nothing new was simulated");
    let _ = std::fs::remove_dir_all(&dir);
}
