//! `dae-serve` processes: spawned on port 0, stopped with the `shutdown`
//! verb and reaped; killed and reaped on every other path (including a
//! panic unwinding through the owner), so no server outlives a run.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How long a spawned server may take to report its bound address.
const READY_TIMEOUT: Duration = Duration::from_secs(20);
/// How long a server may take to exit after `shutdown`.
const EXIT_TIMEOUT: Duration = Duration::from_secs(20);
/// How long a backend may take to exit after its coordinator did.
const STRAGGLER_GRACE: Duration = Duration::from_millis(500);

#[derive(Debug)]
pub struct Server {
    child: Child,
    addr: String,
    log: Arc<Mutex<Vec<String>>>,
    stderr_reader: Option<JoinHandle<()>>,
}

/// The address in a `dae-serve: listening on tcp ADDR (…)` line.
fn bound_addr(line: &str) -> Option<String> {
    let rest = line.split_once("listening on tcp ")?.1;
    rest.split_whitespace().next().map(str::to_string)
}

impl Server {
    /// Spawns `bin args…`, which must bind a TCP listener and announce it
    /// on stderr; returns once the address is known.
    pub fn spawn(bin: &Path, args: &[&str]) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr was piped");
        let log = Arc::new(Mutex::new(Vec::new()));
        let (tx, rx) = mpsc::channel();
        let reader_log = Arc::clone(&log);
        // Keeps draining stderr for the server's whole life, so a chatty
        // server can never block on a full pipe.
        let stderr_reader = thread::spawn(move || {
            let mut tx = Some(tx);
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = bound_addr(&line) {
                    if let Some(tx) = tx.take() {
                        let _ = tx.send(addr);
                    }
                }
                if let Ok(mut log) = reader_log.lock() {
                    log.push(line);
                }
            }
        });
        let mut server = Server {
            child,
            addr: String::new(),
            log,
            stderr_reader: Some(stderr_reader),
        };
        match rx.recv_timeout(READY_TIMEOUT) {
            Ok(addr) => {
                server.addr = addr;
                Ok(server)
            }
            // `server` drops here: killed and reaped.
            Err(_) => Err(format!(
                "{} {} did not report a bound address; stderr: {}",
                bin.display(),
                args.join(" "),
                server.log_tail()
            )),
        }
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn log_tail(&self) -> String {
        self.log
            .lock()
            .map(|log| {
                log.iter()
                    .rev()
                    .take(5)
                    .rev()
                    .cloned()
                    .collect::<Vec<_>>()
                    .join(" | ")
            })
            .unwrap_or_default()
    }

    /// Peak resident set (`VmHWM`) of the process, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Sends `shutdown mode=drain` and waits for the process to exit
    /// cleanly.  Returns whether the `shutdown` acknowledgement arrived
    /// before the connection closed: a server that exits cleanly without
    /// writing it is not a failure here, but the caller reports it.
    pub fn shutdown(self) -> Result<bool, String> {
        let ack = (|| -> std::io::Result<String> {
            let mut stream = TcpStream::connect(&self.addr)?;
            stream.set_read_timeout(Some(EXIT_TIMEOUT))?;
            stream.write_all(b"shutdown mode=drain\n")?;
            let mut line = String::new();
            BufReader::new(stream).read_line(&mut line)?;
            Ok(line)
        })()
        .map_err(|e| format!("shutdown of {} failed: {e}", self.addr))?;
        let acked = ack.starts_with("shutdown");
        if !acked && !ack.is_empty() {
            return Err(format!(
                "shutdown of {} answered {:?}",
                self.addr,
                ack.trim()
            ));
        }
        self.wait_exit().map(|()| acked)
    }

    /// Waits for an already-told-to-stop process to exit with success.
    pub fn wait_exit(mut self) -> Result<(), String> {
        match self.wait_for(EXIT_TIMEOUT) {
            Some(status) if status.success() => Ok(()),
            Some(status) => Err(format!(
                "server {} exited with {status}; stderr: {}",
                self.addr,
                self.log_tail()
            )),
            None => Err(format!("server {} did not exit after shutdown", self.addr)),
        }
    }

    fn wait_for(&mut self, timeout: Duration) -> Option<ExitStatus> {
        let started = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return Some(status),
                Ok(None) if started.elapsed() < timeout => {
                    thread::sleep(Duration::from_millis(2));
                }
                _ => return None,
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(reader) = self.stderr_reader.take() {
            let _ = reader.join();
        }
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Two `--tcp` backends and a `--coordinator` over them.
#[derive(Debug)]
pub struct Fleet {
    pub coordinator: Server,
    pub backends: Vec<Server>,
}

impl Fleet {
    pub fn spawn(bin: &Path, backends: usize) -> Result<Fleet, String> {
        let backends = (0..backends)
            .map(|_| Server::spawn(bin, &["--tcp", "127.0.0.1:0"]))
            .collect::<Result<Vec<_>, _>>()?;
        let list = backends
            .iter()
            .map(|b| b.addr().to_string())
            .collect::<Vec<_>>()
            .join(",");
        let coordinator = Server::spawn(bin, &["--coordinator", &list, "--tcp", "127.0.0.1:0"])?;
        Ok(Fleet {
            coordinator,
            backends,
        })
    }

    /// Summed peak RSS of every process of the fleet, in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let mut total = self.coordinator.peak_rss_mb()?;
        for backend in &self.backends {
            total += backend.peak_rss_mb()?;
        }
        Some(total)
    }

    /// `shutdown` through the coordinator, which forwards it to every
    /// backend; a backend still running shortly after the coordinator
    /// exited is sent `shutdown` directly.  Every process is reaped.
    /// Returns whether the coordinator acknowledged and how many backends
    /// needed the direct `shutdown`.
    pub fn shutdown(self) -> Result<(bool, usize), String> {
        let Fleet {
            coordinator,
            backends,
        } = self;
        let acked = coordinator.shutdown()?;
        let mut stragglers = 0;
        let mut result = Ok(());
        for mut backend in backends {
            let exited = if backend.wait_for(STRAGGLER_GRACE).is_some() {
                backend.wait_exit()
            } else {
                stragglers += 1;
                backend.shutdown().map(|_| ())
            };
            if result.is_ok() {
                result = exited;
            }
        }
        result.map(|()| (acked, stragglers))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_announced_address() {
        assert_eq!(
            bound_addr("dae-serve: listening on tcp 127.0.0.1:4321 (cache on)").as_deref(),
            Some("127.0.0.1:4321")
        );
        assert_eq!(bound_addr("dae-serve: serving stdin (cache on)"), None);
    }
}
