//! The shard coordinator: one wire-protocol front end over N `dae-serve`
//! backends.
//!
//! `dae-serve --coordinator backend1,backend2,…` speaks the protocol of a
//! single server (`docs/PROTOCOL.md`) but owns no session: each grid goes
//! whole, under a coordinator `x<n>` id, to its owner on a consistent-hash
//! ring over [`SweepRequest::placement_digest`] (trace source and
//! iterations), and the replies come back under the client's id with the
//! same point indices.  So every grid over one program lands where that
//! program's results are cached, and the coordinator never lowers a
//! trace; the trade is that a lone cold grid runs on one backend.
//!
//! The routing lives in [`crate::route::Router`], a state machine with no
//! sockets, clocks or threads, whose docs give the fault model.  This
//! module is its shell: a reader thread per backend connection, a
//! watchdog thread ticking the core every 100 ms, and the `stats` /
//! `cache` / `shutdown` fan-out.  A request's route is its [`Slot`] on
//! the client's connection, so each settling operation reaches that
//! connection's drainer as one message.  Lock order:
//! the core is behind one mutex, and its effects are carried out once it
//! is released; a backend's connection lock is taken before the core's,
//! only to take that backend's queued lines.  Under `dae-lint`'s
//! panic-path rule, a dead socket or a poisoned lock never panics.

use crate::lifecycle::{Slot, Submitted, SweepBackend};
use crate::protocol::{parse_response, CacheAction, Response, ShutdownMode, SweepRequest};
use crate::route::{Effect, Input, Router, DEFAULT_VNODES};
use crate::server::SubmitError;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};
use std::time::{Duration, Instant};

/// How long a backend may send nothing on a grid before the watchdog
/// reclaims it.  Generous: a dropped connection is the fast path, and a
/// false timeout only costs a redundant deterministic simulation.
const DEFAULT_RETRY_TIMEOUT: Duration = Duration::from_secs(30);

/// Watchdog tick period.
const WATCHDOG_POLL: Duration = Duration::from_millis(100);

/// Read timeout on control connections: a wedged backend cannot hang one.
const CONTROL_TIMEOUT: Duration = Duration::from_secs(5);

/// The routing core behind its one lock, and the fleet's sockets.
#[derive(Debug)]
struct Shell {
    core: Mutex<Router<Slot>>,
    /// Where control connections are dialled.
    addrs: Vec<String>,
    /// The write half of each data connection; `None` once dead.
    conns: Vec<Mutex<Option<TcpStream>>>,
}

/// A shard coordinator over N `dae-serve` backends, served as a
/// [`SweepBackend`] by the same front ends as a single server.
#[derive(Debug)]
pub struct Coordinator {
    shell: Arc<Shell>,
}

impl Coordinator {
    /// Connects to every backend (a data connection and a reader thread
    /// each) and starts the retry watchdog.
    ///
    /// # Errors
    ///
    /// When `addrs` is empty or a backend is unreachable: a coordinator
    /// that started degraded would serve a differently-partitioned fleet.
    pub fn connect(addrs: &[String]) -> io::Result<Coordinator> {
        Coordinator::connect_with(addrs, DEFAULT_RETRY_TIMEOUT)
    }

    /// [`Coordinator::connect`] reclaiming grids whose backend sends no
    /// reply on them for `retry_timeout`.
    ///
    /// # Errors
    ///
    /// See [`Coordinator::connect`].
    pub fn connect_with(addrs: &[String], retry_timeout: Duration) -> io::Result<Coordinator> {
        if addrs.is_empty() {
            return Err(io::Error::other("a coordinator needs at least one backend"));
        }
        let (mut conns, mut read_halves) = (Vec::new(), Vec::new());
        for addr in addrs {
            let stream = TcpStream::connect(addr)
                .map_err(|e| io::Error::other(format!("cannot connect to backend {addr}: {e}")))?;
            read_halves.push(stream.try_clone()?);
            conns.push(Mutex::new(Some(stream)));
        }
        let shell = Arc::new(Shell {
            core: Mutex::new(Router::new(addrs.len(), DEFAULT_VNODES, retry_timeout)),
            addrs: addrs.to_vec(),
            conns,
        });
        for (backend, read_half) in read_halves.into_iter().enumerate() {
            let shell = Arc::clone(&shell);
            std::thread::spawn(move || {
                for line in BufReader::new(read_half).lines() {
                    let Ok(line) = line else {
                        break;
                    };
                    shell.run(Input::Line(backend, &line));
                }
                shell.run(Input::Death(backend));
            });
        }
        // The watchdog ticks the core until the coordinator is dropped.
        let watchdog: Weak<Shell> = Arc::downgrade(&shell);
        std::thread::spawn(move || loop {
            std::thread::sleep(WATCHDOG_POLL);
            let Some(shell) = watchdog.upgrade() else {
                return;
            };
            shell.run(Input::Tick);
        });
        Ok(Coordinator { shell })
    }

    /// Points dispatched to backends and not yet settled.
    #[must_use]
    pub fn pending_points(&self) -> usize {
        self.shell.core().pending_points()
    }
}

/// The fleet backend: grids and replies go through the routing core.
impl SweepBackend for Coordinator {
    type Client<'a> = ();

    fn register(&self) {}

    /// Hands the grid to the core with its slot as the route.  Nothing
    /// settles at submit: points settle when a backend answers.
    fn submit_sweep(
        &self,
        request: &SweepRequest,
        _client: &(),
        slot: Slot,
    ) -> Result<Submitted, SubmitError> {
        self.shell.run(Input::Submit(request, slot.clone()));
        let shell = Arc::clone(&self.shell);
        Ok(Submitted {
            ready: Box::new(std::iter::empty()),
            settled: false,
            cancel: Arc::new(move || {
                shell.run(Input::Cancel(slot.clone()));
            }),
        })
    }

    /// The coordinator's own counters, then the per-name sums of every
    /// live backend's (without their per-connection `client_<id>=`).
    fn stats_fields(&self) -> Vec<(String, u64)> {
        let mut fields = self.shell.core().stats();
        // Deadlines act here, not on the backends (subrequests carry none),
        // so the coordinator's `timeout_requests`, its last field, seeds
        // the fleet's sum.
        let own = fields.len() - 1;
        for reply in self.shell.fan_out("stats") {
            let Response::Stats { fields: backend } = reply else {
                continue;
            };
            for (name, value) in backend {
                match fields[own..].iter_mut().find(|(n, _)| *n == name) {
                    Some((_, sum)) => *sum += value,
                    None if !name.starts_with("client_") => fields.push((name, value)),
                    None => {}
                }
            }
        }
        fields
    }

    /// Fans a `cache` action out to every live backend: `entries` summed,
    /// `limit` as reported; an error when no backend answered.
    fn cache_action(&self, action: CacheAction) -> Response {
        let line = match action {
            CacheAction::Clear => "cache clear".to_string(),
            CacheAction::Limit(Some(n)) => format!("cache limit={n}"),
            CacheAction::Limit(None) => "cache limit=none".to_string(),
        };
        let mut merged = None;
        for reply in self.shell.fan_out(&line) {
            if let Response::Cache { entries, limit } = reply {
                let sum = merged.map_or(0, |(sum, _)| sum);
                merged = Some((sum + entries, limit));
            }
        }
        match merged {
            Some((entries, limit)) => Response::Cache { entries, limit },
            None => Response::Error {
                id: None,
                message: "no backend answered the cache action".to_string(),
            },
        }
    }

    /// Stops admitting sweeps and forwards the shutdown to every backend,
    /// in drain mode once no grid is pending (a stopping backend refuses
    /// lines it has not read), asking the core every watchdog period.
    fn shutdown(&self, mode: ShutdownMode) {
        while !self.shell.run(Input::Shutdown(mode)) {
            std::thread::sleep(WATCHDOG_POLL);
        }
    }

    fn is_shutting_down(&self) -> bool {
        self.shell.core().shutting_down()
    }

    fn in_flight(&self) -> usize {
        self.pending_points()
    }

    fn note_timeout(&self) {
        self.shell.core().note_timeout();
    }
}

impl Shell {
    /// The routing core, recovering from poisoning (`on` never panics).
    fn core(&self) -> MutexGuard<'_, Router<Slot>> {
        self.core.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Sends a control `line` to every live backend; their parsed replies.
    fn fan_out(&self, line: &str) -> Vec<Response> {
        let alive = self.core().alive().to_vec();
        let live = self.addrs.iter().zip(alive).filter(|&(_, alive)| alive);
        live.filter_map(|(addr, _)| control_roundtrip(addr, line))
            .filter_map(|reply| parse_response(&reply).ok())
            .collect()
    }

    /// The write half of `backend`'s data connection.
    fn conn(&self, backend: usize) -> Option<MutexGuard<'_, Option<TcpStream>>> {
        let conn = self.conns.get(backend)?;
        Some(conn.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Feeds one input to the core, then carries out its effects with the
    /// core's lock released.  Returns whether a shutdown was forwarded.
    fn run(&self, input: Input<'_, Slot>) -> bool {
        let effects = self.core().on(input, Instant::now());
        let mut forwarded = false;
        for effect in effects {
            match effect {
                Effect::Write(backend) => self.write(backend),
                Effect::Settle(slot, events) => slot.send(events),
                Effect::Drop(backend) => drop(self.conn(backend).map(|mut conn| conn.take())),
                Effect::Forward(mode) => {
                    let line = format!("shutdown mode={mode}");
                    for addr in &self.addrs {
                        let _ = control_roundtrip(addr, &line);
                    }
                    forwarded = true;
                }
            }
        }
        forwarded
    }

    /// Writes the lines the core queued for `backend` in one `write`,
    /// taken under the connection lock so no later writer overtakes them.
    /// A failed write is the backend's death.
    fn write(&self, backend: usize) {
        let Some(mut conn) = self.conn(backend) else {
            return;
        };
        let text = self.core().take_output(backend);
        let failed = match conn.as_mut() {
            Some(stream) => !text.is_empty() && stream.write_all(text.as_bytes()).is_err(),
            None => false,
        };
        drop(conn);
        if failed {
            self.run(Input::Death(backend));
        }
    }
}

/// One control round trip on a new connection: send `line`, read one
/// line.  `None` on any failure, so a control verb degrades per backend.
fn control_roundtrip(addr: &str, line: &str) -> Option<String> {
    let stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(CONTROL_TIMEOUT)).ok()?;
    let mut write_half = stream.try_clone().ok()?;
    write_half.write_all(format!("{line}\n").as_bytes()).ok()?;
    write_half.flush().ok()?;
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).ok()?;
    let reply = reply.trim_end_matches(['\n', '\r']);
    (!reply.is_empty()).then(|| reply.to_string())
}
