//! The client side of the wire protocol: request grids, TCP connections,
//! reply collection and the in-process oracle every delivered point is
//! checked against.

use dae_core::{LoweredTrace, Machine, Priority, SweepPoint, SweepSession, TraceId, WindowSpec};
use dae_isa::Cycle;
use dae_serve::{parse_response, DoneStatus, Response};
use dae_workloads::PerfectProgram;
use rayon::prelude::*;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// How long a client waits for any one response line before declaring the
/// request timed out.
pub const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// One point's identity across processes.
pub type PointKey = (PerfectProgram, u64, Machine, WindowSpec, Cycle);

/// A `sweep` request: one program, the cross product machines × windows ×
/// mds in canonical order.
#[derive(Debug, Clone)]
pub struct Grid {
    pub program: PerfectProgram,
    pub iterations: u64,
    pub machines: Vec<Machine>,
    pub windows: Vec<WindowSpec>,
    pub mds: Vec<Cycle>,
    pub priority: Priority,
}

fn machine_word(machine: Machine) -> &'static str {
    match machine {
        Machine::Decoupled => "dm",
        Machine::Superscalar => "swsm",
        Machine::Scalar => "scalar",
    }
}

fn window_word(window: WindowSpec) -> String {
    match window {
        WindowSpec::Entries(n) => n.to_string(),
        WindowSpec::Unlimited => "inf".to_string(),
    }
}

fn join<T>(items: &[T], word: impl Fn(&T) -> String) -> String {
    items.iter().map(word).collect::<Vec<_>>().join(",")
}

impl Grid {
    /// The grid's points in the protocol's canonical order.
    pub fn points(&self) -> Vec<(Machine, WindowSpec, Cycle)> {
        let mut points = Vec::with_capacity(self.len());
        for &machine in &self.machines {
            for &window in &self.windows {
                for &md in &self.mds {
                    points.push((machine, window, md));
                }
            }
        }
        points
    }

    pub fn len(&self) -> usize {
        self.machines.len() * self.windows.len() * self.mds.len()
    }

    pub fn keys(&self) -> impl Iterator<Item = PointKey> + '_ {
        self.points()
            .into_iter()
            .map(|(m, w, md)| (self.program, self.iterations, m, w, md))
    }

    /// Points the engine simulates on a miss (the scalar reference is
    /// analytic).
    pub fn simulated_points(&self) -> usize {
        let engines = self
            .machines
            .iter()
            .filter(|&&m| m != Machine::Scalar)
            .count();
        engines * self.windows.len() * self.mds.len()
    }

    /// The request line, written by hand from the protocol document so the
    /// benchmark does not measure the server with its own formatter.
    pub fn line(&self, id: &str) -> String {
        let mut line = format!(
            "sweep id={id} trace={} iterations={} machines={} windows={} mds={} mode=stream",
            self.program.name(),
            self.iterations,
            join(&self.machines, |&m| machine_word(m).to_string()),
            join(&self.windows, |&w| window_word(w)),
            join(&self.mds, Cycle::to_string),
        );
        match self.priority {
            Priority::Interactive => line.push_str(" priority=interactive"),
            Priority::Bulk => line.push_str(" priority=bulk"),
            Priority::Normal => {}
        }
        line
    }
}

/// A TCP connection to a server, line-framed.
#[derive(Debug)]
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    /// Connects with `TCP_NODELAY` on the client's side, so the client adds
    /// no Nagle delay of its own to what is measured.
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let open = || -> std::io::Result<Conn> {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            let writer = stream.try_clone()?;
            Ok(Conn {
                reader: BufReader::new(stream),
                writer,
                line: String::new(),
            })
        };
        open().map_err(|e| format!("connect {addr}: {e}"))
    }

    /// A second handle on the same socket, for a writer thread.
    pub fn writer(&self) -> Result<TcpStream, String> {
        self.writer
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))
    }

    pub fn send(&mut self, line: &str) -> Result<(), String> {
        send_line(&mut self.writer, line)
    }

    /// The next response line, parsed.
    pub fn recv(&mut self) -> Result<Response, String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => parse_response(self.line.trim_end())
                .map_err(|e| format!("unparsable line {:?}: {e}", self.line.trim_end())),
            Err(e) => Err(format!("read failed (timeout {IO_TIMEOUT:?}): {e}")),
        }
    }

    /// One `stats` snapshot as name → value.
    pub fn stats(&mut self) -> Result<HashMap<String, u64>, String> {
        self.send("stats")?;
        match self.recv()? {
            Response::Stats { fields } => Ok(fields.into_iter().collect()),
            other => Err(format!("stats answered {other}")),
        }
    }
}

pub fn send_line(writer: &mut TcpStream, line: &str) -> Result<(), String> {
    let mut bytes = Vec::with_capacity(line.len() + 1);
    bytes.extend_from_slice(line.as_bytes());
    bytes.push(b'\n');
    writer
        .write_all(&bytes)
        .map_err(|e| format!("write failed: {e}"))
}

/// Everything a server said about one request.
#[derive(Debug, Default)]
pub struct Reply {
    pub points: Vec<(usize, Machine, WindowSpec, Cycle, Cycle)>,
    pub done: Option<Response>,
    pub problems: Vec<String>,
}

impl Reply {
    /// Files one response line under this request; `true` once it is done.
    pub fn absorb(&mut self, response: Response) -> bool {
        match response {
            Response::Point {
                index,
                machine,
                window,
                md,
                cycles,
                ..
            } => self.points.push((index, machine, window, md, cycles)),
            done @ Response::Done { .. } => {
                self.done = Some(done);
                return true;
            }
            other => self.problems.push(other.to_string()),
        }
        false
    }

    /// Reads until this request's `done`; lines of other requests are
    /// problems (the caller has only this one outstanding).
    pub fn read(conn: &mut Conn, id: &str) -> Result<Reply, String> {
        let mut reply = Reply::default();
        loop {
            let response = conn.recv()?;
            if response_id(&response) != Some(id) {
                reply.problems.push(format!("unexpected line: {response}"));
                if reply.problems.len() > 100 {
                    return Err(format!("request {id}: runaway unexpected lines"));
                }
                continue;
            }
            if reply.absorb(response) {
                return Ok(reply);
            }
        }
    }
}

/// The request id a response line carries, if any.
pub fn response_id(response: &Response) -> Option<&str> {
    match response {
        Response::Point { id, .. }
        | Response::Done { id, .. }
        | Response::Cancelled { id }
        | Response::Busy { id, .. } => Some(id),
        Response::Error { id, .. } => id.as_deref(),
        _ => None,
    }
}

/// A checked reply: how many points it delivered and how many the server
/// answered from its cache.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checked {
    pub points: usize,
    pub cached: u64,
}

/// Checks a reply against the grid and the oracle: every `cycles` value,
/// every coordinate, and the `done` accounting
/// (`delivered + dropped + aborted + failed == points`, status ok).
pub fn check(grid: &Grid, reply: &Reply, oracle: &Oracle) -> Result<Checked, String> {
    if let Some(problem) = reply.problems.first() {
        return Err(problem.clone());
    }
    let Some(Response::Done {
        points,
        delivered,
        dropped,
        aborted,
        failed,
        cached,
        status,
        ..
    }) = &reply.done
    else {
        return Err("no done line".to_string());
    };
    let expected = grid.points();
    if *points != expected.len()
        || delivered + dropped + aborted + failed != *points
        || *delivered != reply.points.len()
        || *delivered != *points
        || *status != DoneStatus::Ok
    {
        return Err(format!(
            "done does not balance: points={points} delivered={delivered} dropped={dropped} \
             aborted={aborted} failed={failed} status={status} (grid {}, {} point lines)",
            expected.len(),
            reply.points.len()
        ));
    }
    let mut seen = vec![false; expected.len()];
    for &(index, machine, window, md, cycles) in &reply.points {
        if index >= expected.len() || seen[index] {
            return Err(format!("bad or repeated point index {index}"));
        }
        seen[index] = true;
        if expected[index] != (machine, window, md) {
            return Err(format!("point {index} has the wrong coordinates"));
        }
        let key = (grid.program, grid.iterations, machine, window, md);
        match oracle.cycles(&key) {
            Some(want) if want == cycles => {}
            want => {
                return Err(format!(
                    "{} it={} {machine} w={window} md={md}: cycles={cycles}, oracle {want:?}",
                    grid.program, grid.iterations
                ))
            }
        }
    }
    Ok(Checked {
        points: *points,
        cached: *cached,
    })
}

/// In-process reference results: a [`SweepSession`] with its result cache
/// off, so every point is simulated on the batched path — a different route
/// from the served, cached, streamed one.
#[derive(Debug)]
pub struct Oracle {
    session: SweepSession,
    ids: HashMap<(PerfectProgram, u64), TraceId>,
    cycles: HashMap<PointKey, Cycle>,
}

impl Oracle {
    pub fn new() -> Self {
        let mut session = SweepSession::new();
        session.set_cache_enabled(false);
        Oracle {
            session,
            ids: HashMap::new(),
            cycles: HashMap::new(),
        }
    }

    /// Computes every point of `grids` not already known.
    pub fn add(&mut self, grids: &[Grid]) {
        let mut programs: Vec<(PerfectProgram, u64)> = grids
            .iter()
            .map(|g| (g.program, g.iterations))
            .filter(|key| !self.ids.contains_key(key))
            .collect();
        programs.sort_by_key(|&(p, it)| (p.name(), it));
        programs.dedup();
        let lowered: Vec<((PerfectProgram, u64), LoweredTrace)> = programs
            .into_par_iter()
            .map(|(p, it)| ((p, it), LoweredTrace::new(&p.workload().trace(it))))
            .collect();
        for (key, lowering) in lowered {
            let id = self.session.pin_lowered(lowering);
            self.ids.insert(key, id);
        }
        let mut keys: Vec<PointKey> = grids
            .iter()
            .flat_map(Grid::keys)
            .filter(|key| !self.cycles.contains_key(key))
            .collect();
        keys.sort_by_key(|&(p, it, m, w, md)| (p.name(), it, machine_word(m), w, md));
        keys.dedup();
        let points: Vec<SweepPoint> = keys
            .iter()
            .map(|&(p, it, m, w, md)| (self.ids[&(p, it)], m, w, md))
            .collect();
        let cycles = self.session.sweep_multi(&points);
        self.cycles.extend(keys.into_iter().zip(cycles));
    }

    pub fn cycles(&self, key: &PointKey) -> Option<Cycle> {
        self.cycles.get(key).copied()
    }

    /// Trace instructions of a program the oracle has pinned.
    pub fn trace_instructions(&self, program: PerfectProgram, iterations: u64) -> usize {
        self.session
            .lowered(self.ids[&(program, iterations)])
            .trace_instructions()
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// SplitMix64's output function.
pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small seeded generator (SplitMix64 stream).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(splitmix(seed ^ splitmix(stream)))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix(self.0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `k` distinct items of `items`, in their original order.
    pub fn pick<T: Copy>(&mut self, items: &[T], k: usize) -> Vec<T> {
        let mut indices: Vec<usize> = (0..items.len()).collect();
        self.shuffle(&mut indices);
        let mut chosen = indices[..k].to_vec();
        chosen.sort_unstable();
        chosen.into_iter().map(|i| items[i]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_parse_back() {
        let grid = Grid {
            program: PerfectProgram::ALL[0],
            iterations: 300,
            machines: vec![Machine::Decoupled, Machine::Scalar],
            windows: vec![WindowSpec::Entries(8), WindowSpec::Unlimited],
            mds: vec![0, 60],
            priority: Priority::Bulk,
        };
        let line = grid.line("a-1");
        match dae_serve::parse_request(&line).expect("the line parses") {
            dae_serve::Request::Sweep(request) => {
                assert_eq!(request.machines, grid.machines);
                assert_eq!(request.windows, grid.windows);
                assert_eq!(request.mds, grid.mds);
                assert_eq!(request.priority, Priority::Bulk);
                assert_eq!(request.iterations, 300);
            }
            other => panic!("parsed as {other:?}"),
        }
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(Rng::new(7, 1).next(), Rng::new(8, 1).next());
    }
}
