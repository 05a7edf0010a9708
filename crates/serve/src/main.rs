//! The `dae-serve` binary: a long-lived sweep server over one shared
//! [`dae_core::SweepSession`].
//!
//! ```text
//! dae-serve [--stdin]            serve newline-delimited requests on stdin,
//!                                responses on stdout (default; exits at EOF
//!                                once every sweep has finished)
//! dae-serve --tcp ADDR           listen on a TCP address (e.g. 127.0.0.1:7878)
//! dae-serve --unix PATH          listen on a Unix-domain socket
//!       --no-cache               disable the session's sweep-result cache
//!       --cache-dir DIR          persist the sweep-result cache in DIR:
//!                                intact records are loaded on startup and
//!                                the resident set is compacted back on
//!                                clean exit, so a restarted server answers
//!                                previously-served grids without simulating
//!       --coordinator B1,B2,…    run as a shard coordinator over the listed
//!                                backend addresses instead of simulating
//!                                locally: each grid is forwarded whole to
//!                                one backend, placed by consistent hashing
//!                                on its trace and iterations, and points
//!                                lost to a dead or refusing backend are
//!                                re-dispatched to the survivors (composes
//!                                with every mode above; the session flags
//!                                do not apply — caching happens on the
//!                                backends)
//!       --retry-timeout-ms N     coordinator only: reclaim a grid whose
//!                                backend sent no reply on it this long
//!                                (default 30000)
//! ```
//!
//! The wire format is specified in `docs/PROTOCOL.md`.  Diagnostics go to
//! stderr; stdout carries only protocol lines.
//!
//! The socket modes exit cleanly when any connection sends `shutdown`
//! (`mode=drain` finishes in-flight sweeps, `mode=abort` cancels them);
//! with no libc binding in the offline build there is no signal handler,
//! so the protocol verb is the supported shutdown path.

use dae_core::SweepSession;
use dae_serve::{
    await_drained, serve_connection, serve_tcp, Coordinator, SweepBackend, SweepServer,
};
use std::io;
use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// How long the socket modes wait for in-flight work after shutdown.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

enum Mode {
    Stdin,
    Tcp(String),
    Unix(String),
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: dae-serve [--stdin | --tcp ADDR | --unix PATH] \
         [--no-cache] [--cache-dir DIR] \
         [--coordinator B1,B2,... [--retry-timeout-ms N]]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut mode = Mode::Stdin;
    let mut cache = true;
    let mut cache_dir: Option<String> = None;
    let mut backends: Option<Vec<String>> = None;
    let mut retry_timeout_ms: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--stdin" => mode = Mode::Stdin,
            "--tcp" => match args.next() {
                Some(addr) => mode = Mode::Tcp(addr),
                None => return usage(),
            },
            "--unix" => match args.next() {
                Some(path) => mode = Mode::Unix(path),
                None => return usage(),
            },
            "--no-cache" => cache = false,
            "--cache-dir" => match args.next() {
                Some(dir) => cache_dir = Some(dir),
                None => return usage(),
            },
            "--coordinator" => match args.next() {
                Some(list) => {
                    let addrs: Vec<String> = list
                        .split(',')
                        .map(str::trim)
                        .filter(|a| !a.is_empty())
                        .map(str::to_string)
                        .collect();
                    if addrs.is_empty() {
                        eprintln!("dae-serve: --coordinator needs at least one backend address");
                        return ExitCode::from(2);
                    }
                    backends = Some(addrs);
                }
                None => return usage(),
            },
            "--retry-timeout-ms" => match args.next().and_then(|n| n.parse().ok()) {
                Some(ms) if ms > 0 => retry_timeout_ms = Some(ms),
                _ => return usage(),
            },
            _ => return usage(),
        }
    }

    if let Some(backends) = backends {
        // Coordinator mode owns no session: the session flags belong to the
        // backends.
        if !cache || cache_dir.is_some() {
            eprintln!(
                "dae-serve: --coordinator owns no session; \
                 pass --no-cache / --cache-dir to the backends instead"
            );
            return ExitCode::from(2);
        }
        let connected = match retry_timeout_ms {
            Some(ms) => Coordinator::connect_with(&backends, Duration::from_millis(ms)),
            None => Coordinator::connect(&backends),
        };
        let coordinator = match connected {
            Ok(coordinator) => Arc::new(coordinator),
            Err(e) => {
                eprintln!("dae-serve: {e}");
                return ExitCode::FAILURE;
            }
        };
        let what = format!("coordinating {} backends", backends.len());
        return run(&coordinator, mode, &what);
    }
    if retry_timeout_ms.is_some() {
        eprintln!("dae-serve: --retry-timeout-ms needs --coordinator");
        return ExitCode::from(2);
    }

    if cache_dir.is_some() && !cache {
        eprintln!("dae-serve: --cache-dir needs the cache (drop --no-cache)");
        return ExitCode::from(2);
    }
    let mut session = SweepSession::new();
    session.set_cache_enabled(cache);
    let server = Arc::new(SweepServer::with_session(session));
    if let Some(dir) = &cache_dir {
        match server.attach_cache_store(std::path::Path::new(dir)) {
            Ok(loaded) => {
                eprintln!("dae-serve: cache store {dir} attached ({loaded} records loaded)")
            }
            Err(e) => {
                eprintln!("dae-serve: cannot attach cache store {dir}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let code = run(&server, mode, if cache { "cache on" } else { "cache off" });
    // Compact the persistent log down to the resident entries so the next
    // launch replays exactly the warm set.
    if cache_dir.is_some() {
        if let Err(e) = server.persist_cache() {
            eprintln!("dae-serve: cache store compaction failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    code
}

/// Serves `mode` over `backend` (a local server or a coordinator; `what`
/// describes it in the startup banner), then gives in-flight work a
/// bounded window to settle after a `shutdown`.  Failures are reported on
/// stderr.
fn run<B: SweepBackend + 'static>(backend: &Arc<B>, mode: Mode, what: &str) -> ExitCode {
    let result = match mode {
        Mode::Stdin => {
            eprintln!("dae-serve: serving stdin ({what})");
            serve_connection(backend, io::stdin().lock(), io::stdout())
        }
        Mode::Tcp(addr) => match TcpListener::bind(&addr) {
            Ok(listener) => {
                eprintln!(
                    "dae-serve: listening on tcp {} ({what})",
                    listener.local_addr().map_or(addr, |a| a.to_string())
                );
                serve_tcp(backend, &listener)
            }
            Err(e) => {
                eprintln!("dae-serve: cannot bind {addr}: {e}");
                return ExitCode::FAILURE;
            }
        },
        Mode::Unix(path) => serve_unix_at(backend, &path, what),
    };
    // Socket modes return from their accept loops once a `shutdown` has
    // been acknowledged; the drainers' final `done` lines and the
    // coordinator's re-dispatches still need a bounded window to land.
    if backend.is_shutting_down() && !await_drained(backend, DRAIN_TIMEOUT) {
        eprintln!("dae-serve: shutdown drain timed out with work still in flight");
        return ExitCode::FAILURE;
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dae-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(unix)]
fn serve_unix_at<B: SweepBackend + 'static>(
    backend: &Arc<B>,
    path: &str,
    what: &str,
) -> io::Result<()> {
    // A previous run's socket file would make the bind fail.
    let _ = std::fs::remove_file(path);
    let listener = std::os::unix::net::UnixListener::bind(path)?;
    eprintln!("dae-serve: listening on unix {path} ({what})");
    dae_serve::serve_unix(backend, &listener)
}

#[cfg(not(unix))]
fn serve_unix_at<B: SweepBackend + 'static>(
    _backend: &Arc<B>,
    _path: &str,
    _what: &str,
) -> io::Result<()> {
    Err(io::Error::other(
        "unix-domain sockets are not available on this platform",
    ))
}
