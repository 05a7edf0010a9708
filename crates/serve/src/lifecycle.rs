//! The request lifecycle shared by every serving mode: one connection
//! loop, one drainer and one accept loop, generic over a [`SweepBackend`].
//!
//! A backend turns a parsed [`SweepRequest`] into a stream of per-point
//! [`SweepEvent`]s — the session's own event type, one per point, each
//! settling its point: the local [`crate::SweepServer`] submits the grid to
//! its shared session, the [`crate::Coordinator`] fans it out over a
//! fleet of backend processes.  Everything between the socket and that
//! submission lives here exactly once — request parsing, active-id
//! tracking, cancellation, deadlines, stream/batch ordering, dead-client
//! cleanup, balanced `done` accounting and shutdown.
//!
//! Each connection writes through one buffer, its `Outbox`.  The reader
//! loop and every drainer add their lines to it; the buffer is flushed
//! when the last of them goes idle — the reader once no whole request is
//! queued in its input, a drainer about to wait for its next event or
//! done — and the reader loop's own replies flush at once.  So the lines a connection has ready
//! leave in one `write`, even when several pipelined requests produced
//! them, and no line sits in the buffer while every party waits.
//!
//! Lock order: the per-connection outbox mutex is taken only inside
//! `Outbox` methods, which never call into the backend, so it is never
//! held together with a backend lock (the server's state, the
//! coordinator's routing core).

use crate::protocol::{
    parse_request, CacheAction, DeliveryMode, DoneStatus, Request, Response, ShutdownMode,
    SweepRequest,
};
use crate::server::SubmitError;
use dae_core::{StreamWait, SweepEvent};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The refusal written for a sweep that arrives after `shutdown`.
pub(crate) const SHUTTING_DOWN: &str = "server is shutting down; not accepting new sweeps";

/// How often the accept loop wakes to check for shutdown.
const ACCEPT_POLL: Duration = Duration::from_millis(50);

/// Cancels one submitted sweep from any thread: pending points are
/// dropped, running points abort.  Idempotent.
pub(crate) type Canceller = Arc<dyn Fn() + Send + Sync>;

/// The event source of one submitted sweep: one [`SweepEvent`] per point,
/// then [`StreamWait::Exhausted`].
pub trait SweepEvents: Send {
    /// The next event, waiting at most until `deadline` when one is given.
    fn next_event(&mut self, deadline: Option<Instant>) -> StreamWait;

    /// A handle that cancels this sweep.
    fn canceller(&self) -> Canceller;

    /// Whether every event was already queued at submit, so a drain never
    /// waits: the reader loop then drains the sweep itself instead of
    /// spawning a drainer thread for it.
    fn settled(&self) -> bool {
        false
    }
}

/// What serves sweeps behind the shared lifecycle: a local session
/// ([`crate::SweepServer`]) or a fleet ([`crate::Coordinator`]).
pub trait SweepBackend: Send + Sync {
    /// One connection's registration, held while the connection lives.
    type Client<'a>
    where
        Self: 'a;

    /// Registers a connection.
    fn register(&self) -> Self::Client<'_>;

    /// Submits a parsed sweep and returns its event source.  Returns as
    /// soon as the points are queued; results arrive on the source.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Busy`] when admission control refuses the grid;
    /// [`SubmitError::Rejected`] for an invalid trace source or a sweep
    /// after shutdown began.
    fn submit_sweep<'a>(
        &'a self,
        request: &SweepRequest,
        client: &Self::Client<'_>,
    ) -> Result<Box<dyn SweepEvents + 'a>, SubmitError>;

    /// The counters behind the `stats` reply.
    fn stats_fields(&self) -> Vec<(String, u64)>;

    /// Applies a `cache` administration request and reports the cache's
    /// state afterwards.
    fn cache_action(&self, action: CacheAction) -> Response;

    /// Stops admitting sweeps.  `Drain` lets in-flight work finish;
    /// `Abort` cancels it (its `done` lines still arrive, with the usual
    /// balanced accounting).  Returns once the shutdown has reached
    /// everything the backend forwards work to.
    fn shutdown(&self, mode: ShutdownMode);

    /// Whether a `shutdown` request has been accepted (new sweeps are
    /// refused from then on).
    fn is_shutting_down(&self) -> bool;

    /// Points queued, running or dispatched and not yet settled.
    fn in_flight(&self) -> usize;

    /// Counts one request whose `deadline_ms` expired (`timeout_requests`
    /// in `stats`).
    fn note_timeout(&self);
}

/// One connection's outgoing side: its response buffer, and how many of
/// the parties writing into it — the reader loop and each drainer — are
/// producing lines right now.  The buffer is flushed when the last of
/// them goes idle (out of queued requests, waiting for an event, or
/// done), so what the connection has ready leaves in one `write` however
/// many requests it came from, and no line sits in the buffer while
/// every party waits.
struct Outbox<W: Write> {
    buffer: Mutex<BufWriter<W>>,
    /// Kept outside the mutex so that going busy or idle takes the lock
    /// only to flush, and the reader loop never contends with a drainer
    /// that is writing its lines.
    busy: AtomicUsize,
}

impl<W: Write> Outbox<W> {
    /// An outbox with no party busy.
    fn new(writer: W) -> Self {
        Outbox {
            buffer: Mutex::new(BufWriter::new(writer)),
            busy: AtomicUsize::new(0),
        }
    }

    /// The buffer, recovering from poisoning: a writer is a byte sink
    /// whose worst torn state is a partial line on a connection that is
    /// being abandoned anyway.
    fn lock(&self) -> MutexGuard<'_, BufWriter<W>> {
        self.buffer.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Adds one response line to the buffer.  `false` means the client
    /// went away; callers use the signal to cancel the work they relay.
    fn buffer_line(&self, response: &Response) -> bool {
        writeln!(self.lock(), "{response}").is_ok()
    }

    /// Writes one reply of the reader loop itself and sends the buffer.
    fn reply(&self, response: &Response) {
        let mut buffer = self.lock();
        let _ = writeln!(buffer, "{response}").and_then(|()| buffer.flush());
    }

    /// One more party is producing lines.
    fn busy(&self) {
        self.busy.fetch_add(1, Ordering::AcqRel);
    }

    /// One party goes idle; the last one sends the buffer, which holds
    /// every line written before any party's `idle`.  `false` means the
    /// client went away.
    fn idle(&self) -> bool {
        self.busy.fetch_sub(1, Ordering::AcqRel) > 1 || self.lock().flush().is_ok()
    }
}

/// Drains one submitted sweep to the connection writer: `point` lines
/// (as they arrive in stream mode, sorted into grid order in batch mode),
/// `error` lines for points whose simulation failed, and finally the
/// request's `done` accounting line with its terminal status.  Lines go
/// into the connection's [`Outbox`]; the drainer counts as busy there
/// from its submission (the caller marks it) until it waits for an event
/// or has written `done`, so what is ready together is written together.
///
/// A deadline, when present, bounds the whole drain: on expiry the sweep
/// is cancelled (running points abort mid-simulation) and the residue is
/// collected with `status=timeout`.  A failed client write likewise
/// cancels the sweep — dead-client cleanup stops simulating what no one
/// will read, *including* the points already running.
fn drain<B: SweepBackend, W: Write>(
    backend: &B,
    mut events: Box<dyn SweepEvents + '_>,
    request: &SweepRequest,
    out: &Outbox<W>,
) {
    let (id, mode) = (&request.id, request.mode);
    let total = request.grid().len();
    let cancel = events.canceller();
    let mut deadline = request
        .deadline_ms
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let mut timed_out = false;
    let (mut delivered, mut aborted, mut failed, mut cached) = (0usize, 0usize, 0usize, 0u64);
    let mut batched: Vec<Response> = Vec::new();
    let mut failures: Vec<Response> = Vec::new();
    // Stream mode buffers each line now, batch mode holds it for the end.
    // A failed write or flush cancels the sweep; its events still drain,
    // keeping the accounting consistent.
    let emit = |line: Response, held: &mut Vec<Response>| match mode {
        DeliveryMode::Stream => {
            if !out.buffer_line(&line) {
                cancel();
            }
        }
        DeliveryMode::Batch => held.push(line),
    };
    loop {
        // Take what is ready without waiting; only when nothing is does
        // the drainer go idle (the last idle party sends the buffer) for
        // the wait for the next event.
        let wait = match events.next_event(Some(Instant::now())) {
            StreamWait::TimedOut => {
                if !out.idle() {
                    cancel();
                }
                let wait = events.next_event(deadline);
                out.busy();
                wait
            }
            ready => ready,
        };
        let event = match wait {
            StreamWait::Event(event) => event,
            StreamWait::Exhausted => break,
            StreamWait::TimedOut => {
                // Budget spent: cancel (running points abort at their next
                // engine poll) and drain the residue without a deadline —
                // it settles in microseconds.
                timed_out = true;
                deadline = None;
                backend.note_timeout();
                cancel();
                continue;
            }
        };
        match event {
            SweepEvent::Point(point) => {
                delivered += 1;
                cached += u64::from(point.cached);
                let (index, cycles) = (point.index, point.cycles);
                let (machine, window, md) = request.coordinate(index);
                let line = Response::Point {
                    id: id.to_string(),
                    index,
                    machine,
                    window,
                    md,
                    cycles,
                };
                emit(line, &mut batched);
            }
            SweepEvent::Failed { index, message } => {
                failed += 1;
                let line = Response::Error {
                    id: Some(id.to_string()),
                    message: format!("point {index} failed: {message}"),
                };
                emit(line, &mut failures);
            }
            SweepEvent::Skipped { .. } => {}
            SweepEvent::Aborted { .. } => aborted += 1,
        }
    }
    batched.sort_by_key(|line| match line {
        Response::Point { index, .. } => *index,
        _ => usize::MAX,
    });
    for line in batched.iter().chain(&failures) {
        out.buffer_line(line);
    }
    // Every point settles exactly once, so whatever was neither delivered,
    // aborted nor failed was dropped — which also keeps the accounting
    // balanced should a source end short of its total.
    let dropped = total.saturating_sub(delivered + aborted + failed);
    // One status per request, by severity (see `DoneStatus`).
    let status = if timed_out {
        DoneStatus::Timeout
    } else if failed > 0 {
        DoneStatus::Error
    } else if dropped + aborted > 0 {
        DoneStatus::Cancelled
    } else {
        DoneStatus::Ok
    };
    out.buffer_line(&Response::Done {
        id: id.to_string(),
        points: total,
        delivered,
        dropped,
        aborted,
        failed,
        cached,
        status,
    });
    out.idle();
}

/// One in-flight request of a connection, as the reader loop tracks it.
struct Active {
    cancel: Canceller,
    finished: Arc<AtomicBool>,
}

/// Serves one client connection: reads newline-delimited requests from
/// `reader` until end of file, writes tagged responses to `writer`.
/// Several sweeps may be in flight at once: a simulating one drains on its
/// own thread, a settled one on the reader's, which reads on only once its
/// replies are written.  Returns once the input is exhausted *and* every
/// submitted sweep has written its `done` line.
///
/// The connection registers with the backend (on a single server: for
/// per-client admission control, with its live point count in `stats` as
/// `client_<id>=`).  A `shutdown` request stops the whole backend
/// admitting new sweeps and, in abort mode, cancels in-flight work
/// everywhere; this connection then stops reading further requests (its
/// in-flight drainers still finish).
///
/// # Errors
///
/// Propagates read errors on the request stream; client-side write errors
/// only stop the affected response stream.
pub fn serve_connection<B, R, W>(backend: &Arc<B>, reader: R, writer: W) -> io::Result<()>
where
    B: SweepBackend,
    R: BufRead,
    W: Write + Send,
{
    serve_requests(&**backend, reader, writer, &AtomicUsize::new(0), |_| false)
}

/// The reader loop behind [`serve_connection`] and the accept loop.
/// `acking` counts the accept loop's connections still acknowledging a
/// `shutdown`: raised before the backend is told to stop, lowered once the
/// ack line is written.  A settled sweep drains before the loop reads on.
/// `buffered` tells whether `reader` already holds a whole request line;
/// while it does, the reader loop counts as busy in the connection's
/// [`Outbox`].
fn serve_requests<B, R, W>(
    backend: &B,
    mut reader: R,
    writer: W,
    acking: &AtomicUsize,
    buffered: fn(&R) -> bool,
) -> io::Result<()>
where
    B: SweepBackend,
    R: BufRead,
    W: Write + Send,
{
    let out = Outbox::new(writer);
    let client = backend.register();
    let error = |id: String, message: String| Response::Error {
        id: Some(id),
        message,
    };
    // Scoped drainer threads: every threaded sweep is joined (its `done`
    // line written) before this call returns, even on a read error.
    std::thread::scope(|scope| {
        let mut active: HashMap<String, Active> = HashMap::new();
        let mut read = Ok(());
        let mut line = String::new();
        // The reader counts as busy only while whole requests are queued
        // in its input: it holds back the replies of the ones it already
        // submitted until the burst is submitted.  One request at a time
        // leaves the flush to its drainer alone.
        let mut holding = false;
        loop {
            if holding && !buffered(&reader) {
                out.idle();
                holding = false;
            }
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) => {
                    read = Err(e);
                    break;
                }
            }
            if !holding && buffered(&reader) {
                out.busy();
                holding = true;
            }
            // The framing of `BufRead::lines`: `\n` or `\r\n` ends a line.
            let line = match line.strip_suffix('\n') {
                Some(line) => line.strip_suffix('\r').unwrap_or(line),
                None => &line,
            };
            if line.trim().is_empty() {
                continue;
            }
            let response = match parse_request(line) {
                Err(e) => Response::Error {
                    id: e.id,
                    message: e.message,
                },
                Ok(Request::Stats) => Response::Stats {
                    fields: backend.stats_fields(),
                },
                Ok(Request::Cache { action }) => backend.cache_action(action),
                Ok(Request::Shutdown { mode }) => {
                    acking.fetch_add(1, Ordering::SeqCst);
                    backend.shutdown(mode);
                    out.reply(&Response::Shutdown { mode });
                    acking.fetch_sub(1, Ordering::SeqCst);
                    // Stop reading: nothing this connection could send
                    // would be admitted.  The scope still joins the
                    // in-flight drainers, so their `done` lines land.
                    break;
                }
                Ok(Request::Cancel { id }) => match active.get(&id) {
                    Some(request) if !request.finished.load(Ordering::Acquire) => {
                        (request.cancel)();
                        Response::Cancelled { id }
                    }
                    _ => error(id, "no such active request".to_string()),
                },
                Ok(Request::Sweep(request)) => {
                    active.retain(|_, a| !a.finished.load(Ordering::Acquire));
                    let submitted = if active.contains_key(&request.id) {
                        Err(SubmitError::Rejected(
                            "request id already active".to_string(),
                        ))
                    } else if backend.is_shutting_down() {
                        Err(SubmitError::Rejected(SHUTTING_DOWN.to_string()))
                    } else {
                        backend.submit_sweep(&request, &client)
                    };
                    match submitted {
                        Err(SubmitError::Busy {
                            queued,
                            limit,
                            retry_after_ms,
                        }) => Response::Busy {
                            id: request.id,
                            queued,
                            limit,
                            retry_after_ms,
                        },
                        Err(SubmitError::Rejected(message)) => error(request.id, message),
                        Ok(events) if events.settled() => {
                            out.busy();
                            drain(backend, events, &request, &out);
                            continue;
                        }
                        Ok(events) => {
                            let finished = Arc::new(AtomicBool::new(false));
                            let cancel = events.canceller();
                            let tracked = Arc::clone(&finished);
                            active.insert(request.id.clone(), Active { cancel, finished });
                            let out = &out;
                            out.busy();
                            scope.spawn(move || {
                                drain(backend, events, &request, out);
                                tracked.store(true, Ordering::Release);
                            });
                            continue;
                        }
                    }
                }
            };
            out.reply(&response);
        }
        if holding {
            out.idle();
        }
        read
    })
}

/// The accept loop behind [`serve_tcp`] and [`serve_unix`]: serves each
/// connection `accept` yields on its own thread (`split` makes it blocking
/// and clones its read half) until shutdown begins *and* every connection
/// that sent `shutdown` has written its ack — so the process cannot exit
/// between a backend's stop and the client's acknowledgement.
fn accept_loop<B, S>(
    backend: &Arc<B>,
    mut accept: impl FnMut() -> io::Result<S>,
    split: fn(&S) -> io::Result<S>,
) -> io::Result<()>
where
    B: SweepBackend + 'static,
    S: Read + Write + Send + 'static,
{
    let acking = Arc::new(AtomicUsize::new(0));
    loop {
        if backend.is_shutting_down() && acking.load(Ordering::SeqCst) == 0 {
            return Ok(());
        }
        match accept() {
            Ok(connection) => {
                let backend = Arc::clone(backend);
                let acking = Arc::clone(&acking);
                std::thread::spawn(move || {
                    if let Ok(read_half) = split(&connection) {
                        let reader = BufReader::new(read_half);
                        let _ = serve_requests(&*backend, reader, connection, &acking, |reader| {
                            reader.buffer().contains(&b'\n')
                        });
                    }
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(e) => return Err(e),
        }
    }
}

/// Accepts TCP connections until a `shutdown` request arrives (from any
/// connection), serving each on its own thread over the shared backend.
/// Returns once shutdown begins and its ack is written; the binary then
/// waits for in-flight work to settle ([`await_drained`]) before exiting.
///
/// # Errors
///
/// Propagates accept errors (per-connection I/O errors only end that
/// connection).
pub fn serve_tcp<B: SweepBackend + 'static>(
    backend: &Arc<B>,
    listener: &TcpListener,
) -> io::Result<()> {
    // Non-blocking accept so the loop can observe shutdown: with no libc
    // binding available there is no signal handling, and a blocking accept
    // would pin the process past the shutdown verb.
    listener.set_nonblocking(true)?;
    accept_loop(
        backend,
        || listener.accept().map(|(connection, _)| connection),
        |connection: &TcpStream| {
            connection.set_nonblocking(false)?;
            connection.try_clone()
        },
    )
}

/// Accepts Unix-domain connections until shutdown, serving each on its own
/// thread over the shared backend (see [`serve_tcp`]).
///
/// # Errors
///
/// Propagates accept errors (per-connection I/O errors only end that
/// connection).
#[cfg(unix)]
pub fn serve_unix<B: SweepBackend + 'static>(
    backend: &Arc<B>,
    listener: &std::os::unix::net::UnixListener,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    accept_loop(
        backend,
        || listener.accept().map(|(connection, _)| connection),
        |connection: &std::os::unix::net::UnixStream| {
            connection.set_nonblocking(false)?;
            connection.try_clone()
        },
    )
}

/// Blocks until the backend has no in-flight work (every point settled)
/// or `timeout` passes — the exit path of the socket modes after shutdown.
/// Returns whether the backend drained.
pub fn await_drained<B: SweepBackend>(backend: &Arc<B>, timeout: Duration) -> bool {
    let give_up = Instant::now() + timeout;
    while backend.in_flight() > 0 {
        if Instant::now() >= give_up {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    true
}
