//! `figures-cold`: regenerate the paper's full figure set in process, on a
//! fresh `SweepSession` each time, at `dae_bench::paper_config()`.

use crate::layers::{self, LayerInput};
use crate::spans::{SpanId, Tracer, NO_SPAN};
use crate::stats::{percentile_label, Samples};
use crate::wire::{Grid, Oracle};
use crate::{Ctx, Outcome};
use dae_core::{
    equivalent_window_figure_in, speedup_figure_in, table1_in, window_ratio_claim_in,
    ExperimentConfig, Machine, Priority, SweepSession, WindowSpec,
};
use dae_workloads::PerfectProgram;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Table 1's DM windows, as the `table1_lhe` binary prints it.
const TABLE1_WINDOWS: [usize; 6] = [8, 16, 32, 64, 128, 256];
/// The memory differential of Table 1 and the window-ratio claim.
const MD: u64 = 60;
/// The DM windows of the window-ratio claim.
const CLAIM_WINDOWS: [usize; 2] = [32, 64];
/// Regenerations per pass, however short the window.
const MIN_SETS: usize = 3;

/// One call of a figure generator: its name and CSV output.
type Call = (&'static str, String);

/// Every generator call of one figure set, in order, each timed and
/// recorded as a span under `parent`.
fn regenerate(
    tracer: &Tracer,
    session: &mut SweepSession,
    config: &ExperimentConfig,
    parent: SpanId,
    set: u64,
    latencies: &mut Samples,
) -> Vec<Call> {
    let mut calls = Vec::new();
    let mut timed = |name: &'static str, f: &mut dyn FnMut(&mut SweepSession) -> String| {
        let t = Instant::now();
        let csv = f(session);
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        tracer.record(name, parent, set, t, Instant::now());
        calls.push((name, csv));
    };
    let table_config = ExperimentConfig {
        dm_windows: TABLE1_WINDOWS.to_vec(),
        ..config.clone()
    };
    timed("core.table1", &mut |s| {
        table1_in(s, &table_config, MD).to_csv()
    });
    for program in PerfectProgram::ALL {
        timed("core.speedup_figure", &mut |s| {
            speedup_figure_in(s, program, config, &[0, MD]).to_csv()
        });
    }
    for program in PerfectProgram::ALL {
        timed("core.ewr_figure", &mut |s| {
            equivalent_window_figure_in(s, program, config).to_csv()
        });
    }
    for window in CLAIM_WINDOWS {
        timed("core.window_ratio_claim", &mut |s| {
            window_ratio_claim_in(s, config, window, MD)
                .to_table()
                .to_csv()
        });
    }
    calls
}

/// What one timed pass of regenerations measured.
#[derive(Debug, Default)]
struct Pass {
    setup_s: Samples,
    figures_s: Samples,
    /// Per set: grid points (cache lookups) per second of generator time.
    points_per_s: Samples,
    /// Per set: simulated instructions per second of generator time (M).
    sim_minst_per_s: Samples,
    calls_ms: Samples,
    lookups: u64,
    hits: u64,
    misses: u64,
    outputs: Vec<Vec<Call>>,
    invariant_breaks: Vec<String>,
}

/// `insts_per_program`: trace instructions summed over the seven programs.
fn pass(
    ctx: &Ctx,
    config: &ExperimentConfig,
    insts_per_program: f64,
    window: Duration,
    traced: bool,
) -> Pass {
    let mut pass = Pass::default();
    let off = Tracer::new(false);
    let tracer = if traced { &ctx.tracer } else { &off };
    let started = Instant::now();
    while pass.figures_s.len() < MIN_SETS || started.elapsed() < window {
        let set = pass.figures_s.len() as u64;
        let root = tracer.begin("figures.set", NO_SPAN, set);
        let t = Instant::now();
        let mut session = SweepSession::new();
        session.pin_programs(&PerfectProgram::ALL, config.iterations);
        pass.setup_s.push(t.elapsed().as_secs_f64());
        tracer.record("core.pin_programs", root, set, t, Instant::now());
        let t = Instant::now();
        let calls = regenerate(tracer, &mut session, config, root, set, &mut pass.calls_ms);
        let figures_s = t.elapsed().as_secs_f64();
        tracer.end(root);
        let cache = session.cache_stats();
        // Every program sees the same grid shapes, so each accounts for a
        // seventh of the cache misses.
        let simulated = cache.misses as f64 / 7.0 * insts_per_program;
        pass.figures_s.push(figures_s);
        pass.points_per_s.push(cache.lookups as f64 / figures_s);
        pass.sim_minst_per_s.push(simulated / figures_s / 1e6);
        if cache.hits + cache.misses != cache.lookups {
            pass.invariant_breaks.push(format!(
                "set {set}: hits {} + misses {} != lookups {}",
                cache.hits, cache.misses, cache.lookups
            ));
        }
        pass.lookups += cache.lookups;
        pass.hits += cache.hits;
        pass.misses += cache.misses;
        pass.outputs.push(calls);
    }
    pass
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // The seed shifts the trace length within ±8 iterations of the paper
    // configuration, so a held-out seed simulates different traces.
    let mut config = dae_bench::paper_config();
    config.iterations = config.iterations - 8 + ctx.seed % 17;

    let insts_per_program: f64 = PerfectProgram::ALL
        .iter()
        .map(|&p| p.workload().trace(config.iterations).len() as f64)
        .sum();
    let pool_before = rayon::global_pool_stats();
    let diag_before = dae_machines::pool_diagnostics();
    let measured = pass(ctx, &config, insts_per_program, ctx.window(), false);
    let pool_after = rayon::global_pool_stats();
    let diag = dae_machines::pool_diagnostics().since(diag_before);
    let rss = crate::fleet::peak_rss_mb("/proc/self/status").ok_or("cannot read VmHWM")?;

    // Reference output, after the window: the same generators on a
    // session with the result cache off (every point simulated on the
    // uncached batched path).
    let mut oracle_session = SweepSession::new();
    oracle_session.set_cache_enabled(false);
    let reference = regenerate(
        &Tracer::new(false),
        &mut oracle_session,
        &config,
        NO_SPAN,
        0,
        &mut Samples::new(),
    );
    check(&measured, &reference, &mut out);
    let sets = measured.figures_s.len();

    out.metric(
        "setup_s",
        measured.setup_s.median(),
        "s",
        measured.setup_s.len(),
    );
    out.metric("points_per_s", measured.points_per_s.median(), "1/s", sets);
    out.metric(
        "sim_minst_per_s",
        measured.sim_minst_per_s.median(),
        "Minst/s",
        sets,
    );
    let (q, tail) = measured.calls_ms.tail();
    out.metric(
        "request_p50_ms",
        measured.calls_ms.median(),
        "ms",
        measured.calls_ms.len(),
    );
    out.metric("request_p99_ms", tail, "ms", measured.calls_ms.len());
    out.metric("rss_peak_mb", rss, "MB", 1);

    out.line(format!(
        "figures_s {:.4} s (median of {sets} full regenerations: Table 1, 7 speedup, 7 EWR, 2 claims)",
        measured.figures_s.median()
    ));
    out.line(format!(
        "request = one generator call; tail is {} of {} calls",
        percentile_label(q),
        measured.calls_ms.len()
    ));
    out.line(format!(
        "workload: iterations {}, hit share {:.4} ({} hits / {} points), {:.1} points per call, \
         7 programs pinned per set, {:.0} simulated instructions per simulated point, 1 closed-loop caller",
        config.iterations,
        measured.hits as f64 / measured.lookups.max(1) as f64,
        measured.hits,
        measured.lookups,
        measured.lookups as f64 / measured.calls_ms.len().max(1) as f64,
        insts_per_program / 7.0,
    ));

    if ctx.tracer.enabled() {
        let traced = pass(ctx, &config, insts_per_program, ctx.window(), true);
        check(&traced, &reference, &mut out);
        layers::report_overhead(
            &mut out,
            "figures_s",
            measured.figures_s.median(),
            traced.figures_s.median(),
        );
        let totals = ctx.tracer.totals();
        let set_ns = totals.get("figures.set").map_or(0, |t| t.total_ns);
        let self_ns = totals.get("figures.set").map_or(0, |t| t.self_ns);
        out.line(format!(
            "unattributed_share {:.5} (figure-set time outside pin and generator spans)",
            self_ns as f64 / set_ns.max(1) as f64
        ));
        let counters = HashMap::from([
            ("cache_hits".to_string(), measured.hits),
            ("cache_misses".to_string(), measured.misses),
            ("cache_lookups".to_string(), measured.lookups),
            ("warm_unit_takes".to_string(), diag.warm_unit_takes),
            ("fresh_unit_takes".to_string(), diag.fresh_unit_takes),
            ("steals".to_string(), pool_after.steals - pool_before.steals),
            (
                "steal_attempts".to_string(),
                pool_after.steal_attempts - pool_before.steal_attempts,
            ),
            (
                "local_pops".to_string(),
                pool_after.local_pops - pool_before.local_pops,
            ),
            (
                "claim_drops".to_string(),
                pool_after.claim_drops - pool_before.claim_drops,
            ),
        ]);
        let input = LayerInput {
            sample: sample_grids(config.iterations),
            warm: Vec::new(),
            replay: table1_grids(config.iterations)
                .into_iter()
                .map(|g| (g, None))
                .collect(),
            counters,
        };
        let mut oracle = Oracle::new();
        layers::measure(ctx, &input, &mut oracle, &mut out);
        layers::report_spans(ctx, &mut out);
    }
    Ok(out)
}

/// Compares every generator call of every regeneration with the reference.
fn check(pass: &Pass, reference: &[Call], out: &mut Outcome) {
    for problem in &pass.invariant_breaks {
        out.fail(problem.clone());
    }
    for (set, calls) in pass.outputs.iter().enumerate() {
        for (i, (name, csv)) in calls.iter().enumerate() {
            out.tally(match reference.get(i) {
                Some((_, want)) if want == csv => Ok(()),
                _ => Err(format!(
                    "set {set} call {i} ({name}) CSV differs from the reference"
                )),
            });
        }
    }
}

/// The per-layer engine sample: each program's DM and SWSM at three
/// windows and both memory differentials, plus the scalar reference.
fn sample_grids(iterations: u64) -> Vec<Grid> {
    PerfectProgram::ALL
        .iter()
        .flat_map(|&program| {
            [
                Grid {
                    program,
                    iterations,
                    machines: vec![Machine::Decoupled, Machine::Superscalar],
                    windows: [8, 32, 128].map(WindowSpec::Entries).to_vec(),
                    mds: vec![0, MD],
                    priority: Priority::Normal,
                },
                Grid {
                    program,
                    iterations,
                    machines: vec![Machine::Scalar],
                    windows: vec![WindowSpec::Entries(32)],
                    mds: vec![0, MD],
                    priority: Priority::Normal,
                },
            ]
        })
        .collect()
}

/// Table 1's grid per program, as request lines for the serving layers.
fn table1_grids(iterations: u64) -> Vec<Grid> {
    PerfectProgram::ALL
        .iter()
        .map(|&program| Grid {
            program,
            iterations,
            machines: vec![Machine::Decoupled],
            windows: TABLE1_WINDOWS.map(WindowSpec::Entries).to_vec(),
            mds: vec![0, MD],
            priority: Priority::Normal,
        })
        .collect()
}
