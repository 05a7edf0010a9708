//! A connection runs on two threads however many sweeps it keeps in
//! flight: its reader loop and its drainer.  One client pipelines 64
//! sweeps that all still simulate, and the process may gain at most two
//! threads while they are in flight — on a `SweepServer` whose points are
//! slowed by the `dae_core::fault` hooks, and through a `Coordinator` over
//! a stub backend that holds its `done` lines.
//!
//! The suite is one test in a binary of its own, so no test running in
//! parallel changes the thread count it reads from `/proc/self/task`
//! (Linux only).
#![cfg(target_os = "linux")]

use dae_core::fault;
use dae_serve::{
    parse_request, serve_connection, serve_tcp, Coordinator, DoneStatus, Request, Response,
    SweepBackend, SweepRequest, SweepServer,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Sweeps one connection pipelines.
const SWEEPS: usize = 64;

/// The threads of this process.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .count()
}

/// Waits up to five seconds for the thread count to fall to `at_most`.
fn settle_threads(at_most: usize) {
    let give_up = Instant::now() + Duration::from_secs(5);
    while threads() > at_most && Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Serves `backend` on an ephemeral TCP port, returning the port.
fn serve_on_tcp<B: SweepBackend + 'static>(backend: Arc<B>) -> u16 {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let port = listener.local_addr().expect("addr").port();
    std::thread::spawn(move || serve_tcp(&backend, &listener));
    port
}

/// The `i`th sweep: one point, a memory differential no other sweep of
/// the run asks for, so each one simulates.
fn sweep(i: usize) -> String {
    format!("sweep id=s{i} trace=TRFD iterations=120 machines=dm windows=16 mds={i} mode=stream\n")
}

/// Reads reply lines until one starts with `prefix`; returns how many
/// `done` lines came before it, that one included.
fn read_until<R: BufRead>(reader: &mut R, prefix: &str) -> usize {
    let mut dones = 0;
    loop {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).expect("read") > 0, "closed");
        if line.starts_with("done ") {
            dones += 1;
        }
        if line.starts_with(prefix) {
            return dones;
        }
    }
}

/// Pipelines [`SWEEPS`] sweeps on one new connection to `port` and
/// returns how many threads the process gained from before the connection
/// opened to when the front end had submitted them all.  Then `release`
/// lets the sweeps end, and every one must write its `done` line.
fn threads_gained_in_flight(port: u16, release: impl FnOnce(&mut TcpStream)) -> usize {
    let before = threads();
    let mut client = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let mut reader = BufReader::new(client.try_clone().expect("clone"));
    let burst: String = (0..SWEEPS).map(sweep).collect();
    // The reply to a `cancel` of an id never used comes once the reader
    // has submitted every sweep sent before it.
    client
        .write_all(format!("{burst}cancel id=barrier\n").as_bytes())
        .expect("send");
    let early = read_until(&mut reader, "error id=barrier ");
    let gained = threads().saturating_sub(before);
    release(&mut client);
    let mut dones = early;
    while dones < SWEEPS {
        dones += read_until(&mut reader, "done ");
    }
    drop((client, reader));
    settle_threads(before);
    eprintln!("{before} threads before the connection, {gained} more in flight");
    gained
}

/// A backend that answers each sweep's points at once but holds its
/// `done` line until released.
#[derive(Default)]
struct HoldingStub {
    /// Whether `done` lines go out at once, the connection's write half,
    /// and the sweeps whose `done` is held.
    state: Mutex<(bool, Option<TcpStream>, Vec<SweepRequest>)>,
}

impl HoldingStub {
    /// Listens on an ephemeral port and serves the one data connection a
    /// coordinator opens; returns the stub and its address.
    fn start() -> (Arc<HoldingStub>, String) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub");
        let addr = listener.local_addr().expect("stub addr").to_string();
        let stub = Arc::new(HoldingStub::default());
        let serving = Arc::clone(&stub);
        std::thread::spawn(move || {
            let (connection, _) = listener.accept().expect("accept");
            let reader = BufReader::new(connection.try_clone().expect("clone"));
            serving.state.lock().unwrap().1 = Some(connection);
            for line in reader.lines() {
                let Ok(Request::Sweep(request)) = parse_request(&line.expect("read")) else {
                    continue;
                };
                let mut state = serving.state.lock().unwrap();
                let writer = state.1.as_mut().expect("writer");
                for (index, (machine, window, md)) in request.grid().enumerate() {
                    let point = Response::Point {
                        id: request.id.clone(),
                        index,
                        machine,
                        window,
                        md,
                        cycles: 1_000 + md,
                    };
                    writeln!(writer, "{point}").expect("write point");
                }
                if state.0 {
                    HoldingStub::done(state.1.as_mut().expect("writer"), &request);
                } else {
                    state.2.push(request);
                }
            }
        });
        (stub, addr)
    }

    /// Writes `request`'s `done` line.
    fn done(writer: &mut TcpStream, request: &SweepRequest) {
        let points = request.grid().len();
        let done = Response::Done {
            id: request.id.clone(),
            points,
            delivered: points,
            dropped: 0,
            aborted: 0,
            failed: 0,
            cached: 0,
            status: DoneStatus::Ok,
        };
        writeln!(writer, "{done}").expect("write done");
    }

    /// Writes every held `done` line, and each later one at once.
    fn release(&self) {
        let mut state = self.state.lock().unwrap();
        state.0 = true;
        let held = std::mem::take(&mut state.2);
        let writer = state.1.as_mut().expect("writer");
        for request in &held {
            HoldingStub::done(writer, request);
        }
    }
}

#[test]
fn a_connection_runs_on_at_most_two_threads() {
    // On a server: every point sleeps before it simulates, so all of them
    // are still queued or running when the threads are counted.  A warm-up
    // sweep starts the worker pool first.
    let server = Arc::new(SweepServer::new());
    serve_connection(&server, sweep(SWEEPS).as_bytes(), std::io::sink()).expect("warm up");
    let port = serve_on_tcp(Arc::clone(&server));
    fault::slow_every_point_ms(200);
    let gained = threads_gained_in_flight(port, |client| {
        let cancels: String = (0..SWEEPS).map(|i| format!("cancel id=s{i}\n")).collect();
        client.write_all(cancels.as_bytes()).expect("cancel");
    });
    fault::reset();
    assert!(
        gained <= 2,
        "a server connection with {SWEEPS} sweeps in flight gained {gained} threads"
    );

    // Through a coordinator: no backend `done` arrives, so no point
    // settles, until the stub is released.
    let (stub, addr) = HoldingStub::start();
    let coordinator = Arc::new(Coordinator::connect(&[addr]).expect("connect the stub"));
    let port = serve_on_tcp(coordinator);
    let gained = threads_gained_in_flight(port, |_| stub.release());
    assert!(
        gained <= 2,
        "a coordinator connection with {SWEEPS} sweeps in flight gained {gained} threads"
    );
}
