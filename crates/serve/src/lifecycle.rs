//! The request lifecycle shared by every serving mode: one connection
//! loop, one drainer and one accept loop, generic over a [`SweepBackend`].
//!
//! A backend turns a parsed [`SweepRequest`] into per-point
//! [`SweepEvent`]s — the session's own event type, one per point, each
//! settling its point: the local [`crate::SweepServer`] submits the grid to
//! its shared session, the [`crate::Coordinator`] fans it out over a
//! fleet of backend processes.  Everything between the socket and that
//! submission lives here exactly once — request parsing, active-id
//! tracking, cancellation, deadlines, stream/batch ordering, dead-client
//! cleanup, balanced `done` accounting and shutdown.
//!
//! Each connection runs on two threads, both created with it: its reader
//! loop and its drainer.  A sweep answers with the events that settled at
//! submit.  When they are all of its points (every one a cache hit), the
//! reader loop writes the sweep's lines and `done` itself before it reads
//! on, and the drainer hears nothing of it.  Any other sweep is handed to
//! the drainer, and its remaining events reach the drainer through the
//! connection's one queue, tagged with the sweep's [`Slot`]: the server's
//! jobs send each point as it settles, the coordinator each settling
//! operation as one message.  Events that settle before the reader has
//! handed their sweep over are held in the slot and travel with the
//! hand-over, so the drainer is never woken for a sweep it does not know.
//! The drainer keeps every such sweep's accounting and stream or batch
//! order, writes its `done` once every point has settled, and waits for
//! the next message or the earliest deadline of the sweeps it holds.  So a connection never runs more than
//! two threads, however many sweeps it keeps in flight.
//!
//! Both threads write into the connection's one buffer, its `Outbox`,
//! which counts them busy while they produce lines: the reader from
//! reading a request until no whole request is queued in its input, the
//! drainer except while it waits.  The last of the two to go idle sends
//! the buffer.  So the lines a connection has ready leave in one `write`,
//! even when several pipelined requests produced them, and no line sits
//! in the buffer while both wait.
//!
//! Lock order: the outbox mutex is taken only inside `Outbox` methods,
//! the mutex over the connection's active requests only to read or
//! change the map, and a slot's mutex only to hold or hand over its
//! events; none is held while another lock is taken, so none is ever
//! held together with a backend lock (the server's state, the
//! coordinator's routing core).

use crate::protocol::{
    parse_request, CacheAction, DeliveryMode, DoneStatus, Request, Response, ShutdownMode,
    SweepRequest,
};
use crate::server::SubmitError;
use dae_core::SweepEvent;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The refusal written for a sweep that arrives after `shutdown`.
pub(crate) const SHUTTING_DOWN: &str = "server is shutting down; not accepting new sweeps";

/// How often the accept loop wakes to check for shutdown.
const ACCEPT_POLL: Duration = Duration::from_millis(50);

/// Cancels one submitted sweep from any thread: pending points are
/// dropped, running points abort.  Idempotent.
pub type Canceller = Arc<dyn Fn() + Send + Sync>;

/// A submitted sweep's events that settled at submit, in the order taken.
pub type Ready = Box<dyn Iterator<Item = SweepEvent> + Send>;

/// What a backend answers a sweep it accepted with.
pub struct Submitted {
    /// The events that settled at submit.  The others are sent to the
    /// sweep's [`Slot`] as they settle.
    pub ready: Ready,
    /// Whether `ready` holds every point's event: the reader loop then
    /// drains the sweep itself, and the connection's drainer is not told
    /// of it.
    pub settled: bool,
    /// Cancels the sweep.
    pub cancel: Canceller,
}

impl std::fmt::Debug for Submitted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Submitted")
            .field("settled", &self.settled)
            .finish_non_exhaustive()
    }
}

/// Where one sweep's events go: the sweep's number on its connection,
/// that connection's drainer queue, and whether the reader has handed the
/// sweep to the drainer yet, with the events held back until it does.
/// Equal only to its own clones.
#[derive(Debug, Clone)]
pub struct Slot(u64, Arc<Sender<Message>>, Arc<Handover>);

/// Whether a sweep has been handed to the drainer, and the events held
/// back until it is.
type Handover = Mutex<(bool, Vec<SweepEvent>)>;

impl Slot {
    /// Sends events that settled together to the connection's drainer, as
    /// one message, or holds them for the hand-over if it has not happened
    /// yet, so the drainer is not woken for a sweep it does not know.
    /// Events for a connection that has gone are dropped.
    pub fn send(&self, events: Vec<SweepEvent>) {
        let (begun, held) = &mut *lock(&self.2);
        if *begun {
            let events = Box::new(events.into_iter());
            let _ = self.1.send(Message(self.0, None, events));
        } else {
            held.extend(events);
        }
    }

    /// Hands the sweep to the drainer with the events that settled at
    /// submit and those held since.  Sent under the slot's lock, the
    /// hand-over is queued ahead of every later event.
    fn begin(&self, drain: Drain, ready: Ready) {
        let (begun, held) = &mut *lock(&self.2);
        *begun = true;
        let events = Box::new(ready.chain(std::mem::take(held)));
        let _ = self.1.send(Message(self.0, Some(Box::new(drain)), events));
    }
}

impl PartialEq for Slot {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0 && Arc::ptr_eq(&self.1, &other.1)
    }
}

/// One message on a connection's drainer queue: a sweep's number, the
/// sweep itself when the reader hands it over (the first message with
/// that number), and events of the sweep that settled together.
struct Message(u64, Option<Box<Drain>>, Ready);

/// What serves sweeps behind the shared lifecycle: a local session
/// ([`crate::SweepServer`]) or a fleet ([`crate::Coordinator`]).
pub trait SweepBackend: Send + Sync {
    /// One connection's registration, held while the connection lives.
    type Client<'a>
    where
        Self: 'a;

    /// Registers a connection.
    fn register(&self) -> Self::Client<'_>;

    /// Submits a parsed sweep whose later events go to `slot`.  Returns as
    /// soon as the points are queued, with the events already settled.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Busy`] when admission control refuses the grid;
    /// [`SubmitError::Rejected`] for an invalid trace source or a sweep
    /// after shutdown began.
    fn submit_sweep(
        &self,
        request: &SweepRequest,
        client: &Self::Client<'_>,
        slot: Slot,
    ) -> Result<Submitted, SubmitError>;

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

/// A mutex's contents, recovering from poisoning: the connection's locks
/// guard a byte sink, whose worst torn state is a partial line on a
/// connection being abandoned anyway, and a map changed one whole entry
/// at a time.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One connection's outgoing side: a response buffer that the reader loop
/// and the drainer add lines to, and how many of the two are producing
/// lines right now.  The last of them to go idle sends the buffer.
/// The count is kept outside the mutex, so that going busy or idle takes
/// the lock only to send.
struct Outbox<W: Write>(Mutex<BufWriter<W>>, AtomicUsize);

impl<W: Write> Outbox<W> {
    /// Adds one response line to the buffer.  A client that went away is
    /// noticed when the buffer is next sent.
    fn buffer_line(&self, response: &Response) {
        let _ = writeln!(lock(&self.0), "{response}");
    }

    /// Sends the buffer.  `false` means the client went away.
    fn flush(&self) -> bool {
        lock(&self.0).flush().is_ok()
    }

    /// One party starts producing lines.
    fn busy(&self) {
        self.1.fetch_add(1, Ordering::AcqRel);
    }

    /// One party goes idle; the last one sends the buffer, which holds
    /// every line written before either party's `idle`.  `false` means
    /// the client went away.
    fn idle(&self) -> bool {
        self.1.fetch_sub(1, Ordering::AcqRel) > 1 || self.flush()
    }
}

/// One sweep as it drains.
struct Drain {
    request: SweepRequest,
    cancel: Canceller,
    /// When the sweep is cancelled for its `deadline_ms`; `None` once it
    /// has been, or without one.
    deadline: Option<Instant>,
    tally: Tally,
}

/// What a sweep's `done` line will report, and in batch mode the `point`
/// and `error` lines held back until then.
#[derive(Default)]
struct Tally {
    /// Events taken, one per point.
    taken: usize,
    delivered: usize,
    aborted: usize,
    failed: usize,
    cached: u64,
    timed_out: bool,
    held: Vec<Response>,
}

impl Drain {
    /// A sweep submitted now, cancelled by `cancel`.
    fn new(request: SweepRequest, cancel: Canceller) -> Self {
        let budget = request.deadline_ms.map(Duration::from_millis);
        Drain {
            deadline: budget.map(|budget| Instant::now() + budget),
            request,
            cancel,
            tally: Tally::default(),
        }
    }

    /// Counts one event, and writes its `point` or `error` line (stream
    /// mode) or holds it (batch mode).
    fn take<W: Write>(&mut self, event: SweepEvent, out: &Outbox<W>) {
        let (id, tally) = (&self.request.id, &mut self.tally);
        tally.taken += 1;
        let line = match event {
            SweepEvent::Point(point) => {
                tally.delivered += 1;
                tally.cached += u64::from(point.cached);
                let (machine, window, md) = self.request.coordinate(point.index);
                Response::Point {
                    id: id.to_string(),
                    index: point.index,
                    machine,
                    window,
                    md,
                    cycles: point.cycles,
                }
            }
            SweepEvent::Failed { index, message } => {
                tally.failed += 1;
                Response::Error {
                    id: Some(id.to_string()),
                    message: format!("point {index} failed: {message}"),
                }
            }
            SweepEvent::Skipped { .. } => return,
            SweepEvent::Aborted { .. } => {
                tally.aborted += 1;
                return;
            }
        };
        match self.request.mode {
            DeliveryMode::Stream => out.buffer_line(&line),
            DeliveryMode::Batch => tally.held.push(line),
        }
    }

    /// Cancels the sweep if its deadline has passed by `now`: running
    /// points abort at their next engine poll, and the residue settles in
    /// microseconds.
    fn expire<B: SweepBackend>(&mut self, now: Instant, backend: &B) {
        if self.deadline.is_some_and(|at| at <= now) {
            (self.deadline, self.tally.timed_out) = (None, true);
            backend.note_timeout();
            (self.cancel)();
        }
    }

    /// Writes the held lines, points in grid order then errors, and the
    /// `done` line with the sweep's terminal status.
    fn finish<W: Write>(self, out: &Outbox<W>) {
        let (points, mut t) = (self.request.grid().len(), self.tally);
        t.held.sort_by_key(|line| match line {
            Response::Point { index, .. } => *index,
            _ => usize::MAX,
        });
        t.held.iter().for_each(|line| out.buffer_line(line));
        // Every point settles exactly once, so whatever was neither
        // delivered, aborted nor failed was dropped.
        let dropped = points.saturating_sub(t.delivered + t.aborted + t.failed);
        // One status per request, by severity (see `DoneStatus`).
        let status = if t.timed_out {
            DoneStatus::Timeout
        } else if t.failed > 0 {
            DoneStatus::Error
        } else if dropped + t.aborted > 0 {
            DoneStatus::Cancelled
        } else {
            DoneStatus::Ok
        };
        out.buffer_line(&Response::Done {
            id: self.request.id,
            points,
            delivered: t.delivered,
            dropped,
            aborted: t.aborted,
            failed: t.failed,
            cached: t.cached,
            status,
        });
    }
}

/// A connection's drainer: drains every sweep the reader hands it, from
/// the events on `queue`, until nothing can send on the queue any more:
/// the reader has stopped, and every sweep has settled, so no job, route
/// or canceller holds a [`Slot`].  A buffer that cannot be sent means the
/// client went away: every sweep the drainer holds is cancelled, so
/// nothing is simulated that no one will read, the points already
/// running included; their events still drain, keeping the accounting
/// consistent.  A sweep whose deadline passes is cancelled and ends
/// `status=timeout`.
fn drainer<B: SweepBackend, W: Write>(
    backend: &B,
    queue: &Receiver<Message>,
    out: &Outbox<W>,
    active: &Mutex<HashMap<String, Canceller>>,
) {
    let mut live: HashMap<u64, Drain> = HashMap::new();
    // Busy in the outbox except while it waits; it sends what it wrote
    // before each wait, the last one included.
    out.busy();
    loop {
        // Take what is ready without waiting; only when nothing is does
        // the drainer expire deadlines, go idle in the outbox and wait.
        let message = match queue.try_recv() {
            Ok(message) => message,
            Err(_) => {
                let now = Instant::now();
                live.values_mut()
                    .for_each(|drain| drain.expire(now, backend));
                if !out.idle() {
                    live.values().for_each(|drain| (drain.cancel)());
                }
                let earliest = live.values().filter_map(|drain| drain.deadline).min();
                let received = match earliest {
                    Some(at) => queue.recv_timeout(at.saturating_duration_since(now)),
                    None => queue.recv().map_err(RecvTimeoutError::from),
                };
                out.busy();
                match received {
                    Ok(message) => message,
                    Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        };
        let Message(number, handed_over, events) = message;
        if let Some(drain) = handed_over {
            live.insert(number, *drain);
        }
        // Every message follows its sweep's hand-over (`Slot::begin`).
        let Some(drain) = live.get_mut(&number) else {
            continue;
        };
        events.for_each(|event| drain.take(event, out));
        if drain.tally.taken == drain.request.grid().len() {
            if let Some(drain) = live.remove(&number) {
                lock(active).remove(&drain.request.id);
                drain.finish(out);
            }
        }
    }
}

/// Serves one client connection: reads newline-delimited requests from
/// `reader` until end of file, writes tagged responses to `writer`.
/// Several sweeps may be in flight at once: a settled one drains on the
/// reader's thread, which reads on only once its replies are written, and
/// the others on the connection's drainer thread.  Returns once the input
/// is exhausted *and* every submitted sweep has written its `done` line.
///
/// The connection registers with the backend (on a single server: for
/// per-client admission control, with its live point count in `stats` as
/// `client_<id>=`).  A `shutdown` request stops the whole backend
/// admitting new sweeps and, in abort mode, cancels in-flight work
/// everywhere; this connection then stops reading further requests (its
/// in-flight sweeps still finish).
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

/// The reader loop behind [`serve_connection`] and the accept loop, with
/// the connection's drainer beside it.  `acking` counts the accept loop's
/// connections still acknowledging a `shutdown`: raised before the
/// backend is told to stop, lowered once the ack line is written.
/// `buffered` tells whether `reader` already holds a whole request line;
/// while it does, the reader loop holds its replies back, so a pipelined
/// burst is answered in one `write`.
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
    let out = &Outbox(Mutex::new(BufWriter::new(writer)), AtomicUsize::new(0));
    let client = backend.register();
    // The id and canceller of each sweep the drainer holds: the drainer
    // removes an entry before it writes that sweep's `done`.
    let active = &Mutex::new(HashMap::<String, Canceller>::new());
    let error = |id: String, message: String| Response::Error {
        id: Some(id),
        message,
    };
    // The drainer is scoped: it has written every sweep's `done` line
    // before this call returns, even on a read error.  It stops once the
    // reader's end of the queue is dropped with the closure's locals and
    // every slot is gone.
    std::thread::scope(|scope| {
        let (sender, queue) = mpsc::channel();
        scope.spawn(move || drainer(backend, &queue, out, active));
        let queue = Arc::new(sender);
        let mut read = Ok(());
        let mut line = String::new();
        // The reader counts as busy in the outbox from reading a request
        // until no whole request is queued in its input, so the replies
        // to a pipelined burst, and the drainer's lines written meanwhile,
        // leave together.
        let mut busy = false;
        for number in 0.. {
            if busy && !buffered(&reader) {
                out.idle();
                busy = false;
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
            if !busy {
                out.busy();
                busy = true;
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
                    out.buffer_line(&Response::Shutdown { mode });
                    out.flush();
                    acking.fetch_sub(1, Ordering::SeqCst);
                    // Stop reading: nothing this connection could send
                    // would be admitted.  The drainer still finishes the
                    // sweeps in flight, so their `done` lines land.
                    break;
                }
                Ok(Request::Cancel { id }) => {
                    let cancel = lock(active).get(&id).cloned();
                    match cancel {
                        Some(cancel) => {
                            cancel();
                            Response::Cancelled { id }
                        }
                        None => error(id, "no such active request".to_string()),
                    }
                }
                Ok(Request::Sweep(request)) => {
                    let slot = Slot(number, Arc::clone(&queue), Arc::default());
                    let submitted = if lock(active).contains_key(&request.id) {
                        Err(SubmitError::Rejected(
                            "request id already active".to_string(),
                        ))
                    } else if backend.is_shutting_down() {
                        Err(SubmitError::Rejected(SHUTTING_DOWN.to_string()))
                    } else {
                        backend.submit_sweep(&request, &client, slot.clone())
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
                        Ok(submitted) => {
                            let mut drain = Drain::new(request, submitted.cancel);
                            if submitted.settled {
                                for event in submitted.ready {
                                    drain.take(event, out);
                                }
                                drain.finish(out);
                            } else {
                                let id = drain.request.id.clone();
                                lock(active).insert(id, Arc::clone(&drain.cancel));
                                slot.begin(drain, submitted.ready);
                            }
                            continue;
                        }
                    }
                }
            };
            out.buffer_line(&response);
        }
        if busy {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn indices(events: Ready) -> Vec<usize> {
        events
            .map(|event| match event {
                SweepEvent::Skipped { index } => index,
                other => panic!("unexpected event {other:?}"),
            })
            .collect()
    }

    /// Events that settle before the reader hands their sweep over reach
    /// the queue only with the hand-over, behind the events settled at
    /// submit; later events follow it.
    #[test]
    fn events_settled_before_the_hand_over_travel_with_it() {
        let skipped = |index| SweepEvent::Skipped { index };
        let (sender, queue) = mpsc::channel();
        let slot = Slot(3, Arc::new(sender), Arc::default());
        slot.send(vec![skipped(1)]);
        assert!(queue.try_recv().is_err(), "no message before the hand-over");

        let line = "sweep id=a trace=TRFD iterations=2 machines=dm windows=8 mds=0,1,2";
        let Ok(Request::Sweep(request)) = parse_request(line) else {
            panic!("{line} is a valid sweep");
        };
        let ready = Box::new(std::iter::once(skipped(0)));
        slot.begin(Drain::new(request, Arc::new(|| {})), ready);
        slot.send(vec![skipped(2)]);

        let Message(number, handed_over, events) = queue.try_recv().expect("the hand-over");
        assert_eq!((number, handed_over.is_some()), (3, true));
        assert_eq!(indices(events), [0, 1]);
        let Message(number, handed_over, events) = queue.try_recv().expect("the later event");
        assert_eq!((number, handed_over.is_some()), (3, false));
        assert_eq!(indices(events), [2]);
    }
}
