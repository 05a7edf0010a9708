//! The repository benchmark: one command per workload that measures the
//! reproduction end to end, checks every output against an in-process
//! oracle, and prints each metric with its unit and sample count.  The last
//! stdout line is one JSON object; see `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --serve-bin PATH
//! ```
//!
//! `--trace 1` runs the same workload with spans recorded around the calls
//! into each layer's public functions and reports the per-layer metrics
//! instead of the end-to-end ones.

mod figures;
mod fleet;
mod layers;
mod served;
mod spans;
mod stats;
mod wire;

use spans::Tracer;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// The end-to-end metrics every workload reports with `--trace 0`, in
/// `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("points_per_s", "1/s"),
    ("sim_minst_per_s", "Minst/s"),
    ("request_p50_ms", "ms"),
    ("request_p99_ms", "ms"),
    ("rss_peak_mb", "MB"),
];

/// The per-layer metrics every workload reports with `--trace 1`.  The
/// traced run also prints counters that are zero or fixed on some
/// workloads (pool steals and local pops, the engine's starved share, busy
/// refusals, re-dispatches); those stay out of the JSON line.
const PER_LAYER: [(&str, &str); 18] = [
    ("workloads.trace_us", "us"),
    ("trace.lower_us", "us"),
    ("trace.hash_us", "us"),
    ("engine.dm_point_us", "us"),
    ("engine.swsm_point_us", "us"),
    ("engine.scalar_point_us", "us"),
    ("engine.ns_per_inst", "ns"),
    ("machines.warm_unit_share", "ratio"),
    ("core.pin_us", "us"),
    ("core.submit_us", "us"),
    ("core.queue_wait_us", "us"),
    ("core.batch_point_us", "us"),
    ("core.hit_ns_per_point", "ns"),
    ("core.cache_hit_ratio", "ratio"),
    ("serve.parse_ns", "ns"),
    ("serve.format_ns", "ns"),
    ("serve.submit_us", "us"),
    ("coordinator.place_ns", "ns"),
];

const WORKLOADS: [&str; 4] = ["figures-cold", "serve-hot", "serve-mixed", "sharded-hot"];

/// What a workload run is given.
#[derive(Debug)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub serve_bin: PathBuf,
    pub tracer: Tracer,
}

impl Ctx {
    /// The timed window of one measured pass: the whole run untraced, or
    /// each half of a traced run (untraced, then traced).
    pub fn window(&self) -> Duration {
        if self.tracer.enabled() {
            self.seconds / 2
        } else {
            self.seconds
        }
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// What a workload run found.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable report lines (workload properties, per-layer self
    /// times, workload-specific latencies).
    pub report: Vec<String>,
    /// Servers that exited cleanly after `shutdown` without acknowledging
    /// it (the connection closed first).
    pub lost_acks: u64,
    /// Coordinator backends that were still running after the coordinator
    /// exited, and were stopped directly.
    pub stragglers: u64,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Counts one checked operation.
    pub fn tally(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(problem) = result {
            self.fail(problem);
        }
    }

    /// Counts a failure of an operation already counted as attempted.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 10 {
            self.problems.push(problem);
        }
    }

    pub fn line(&mut self, line: String) {
        self.report.push(line);
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1 --serve-bin PATH",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage();
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|&s| s > 0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            _ => return usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace), Some(serve_bin)) =
        (workload, seed, seconds, trace, serve_bin)
    else {
        return usage();
    };
    let ctx = Ctx {
        workload,
        seed,
        seconds: Duration::from_secs(seconds),
        serve_bin,
        tracer: Tracer::new(trace),
    };

    let outcome = match ctx.workload.as_str() {
        "figures-cold" => figures::run(&ctx),
        "serve-hot" => served::serve_hot(&ctx),
        "serve-mixed" => served::serve_mixed(&ctx),
        "sharded-hot" => served::sharded_hot(&ctx),
        _ => unreachable!("workload names are checked while parsing"),
    };
    let mut outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", ctx.workload);
            return ExitCode::FAILURE;
        }
    };

    if ctx.tracer.enabled() {
        let path = PathBuf::from(".bench_out")
            .join(format!("spans-{}-seed{}.tsv", ctx.workload, ctx.seed));
        match ctx.tracer.write_tsv(&path) {
            Ok(()) => outcome.line(format!("spans written to {}", path.display())),
            Err(e) => outcome.fail(format!("cannot write {}: {e}", path.display())),
        }
    }
    print_report(&ctx, &outcome);

    let wanted: &[(&str, &str)] = if ctx.tracer.enabled() {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let mut json = String::new();
    for (i, &(name, unit)) in wanted.iter().enumerate() {
        let Some(metric) = outcome.metrics.iter().find(|m| m.name == name) else {
            eprintln!(
                "perfbench: {}: metric {name} was not measured",
                ctx.workload
            );
            return ExitCode::FAILURE;
        };
        assert_eq!(metric.unit, unit, "unit of {name}");
        if !metric.value.is_finite() {
            eprintln!(
                "perfbench: {}: metric {name} is {}",
                ctx.workload, metric.value
            );
            return ExitCode::FAILURE;
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            metric.value
        );
    }
    let correct = outcome.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        outcome.attempted.max(outcome.failed).max(1),
        outcome.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_report(ctx: &Ctx, outcome: &Outcome) {
    let mode = if ctx.tracer.enabled() {
        "traced"
    } else {
        "untraced"
    };
    println!(
        "== {} seed={} window={:?} ({mode}, {} cores)",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    for line in &outcome.report {
        println!("  {line}");
    }
    for metric in &outcome.metrics {
        println!(
            "  {:<26} {:>14.6} {:<8} n={}",
            metric.name, metric.value, metric.unit, metric.samples
        );
    }
    let share = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "  failed_share               {share:>14.6} ratio    ({} of {} operations)",
        outcome.failed, outcome.attempted
    );
    if outcome.lost_acks > 0 || outcome.stragglers > 0 {
        println!(
            "  note: {} clean shutdown(s) closed the connection before the acknowledgement; \
             {} backend(s) outlived their coordinator's shutdown and were stopped directly",
            outcome.lost_acks, outcome.stragglers
        );
    }
    for problem in &outcome.problems {
        println!("  FAILED: {problem}");
    }
}
