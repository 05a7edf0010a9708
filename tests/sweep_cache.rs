//! Sweep-result cache differential suite: cached, uncached and naive
//! reference results must be bit-for-bit identical on randomized grids
//! across all three machines; overlapping EWR-style figure grids must
//! actually *hit*; and identity is *structural* — a re-lowered (distinct
//! `Arc`) copy of the same program shares the first copy's content hash,
//! hits its entries, and is proven to receive exactly the results its own
//! simulations would have produced (the hash-equal ⇒ bit-for-bit-equal
//! differential that makes content addressing safe).

use dae::core::{
    dm_config, equivalent_window_figure_in, swsm_config, window_ratio_claim_in, ExperimentConfig,
    Machine, SweepPoint, SweepSession, TraceId, WindowSpec,
};
use dae::machines::{DecoupledMachine, ScalarConfig, ScalarReference, SuperscalarMachine};
use dae::trace::Trace;
use dae::workloads::random_kernel;
use dae::PerfectProgram;
use proptest::prelude::*;
use std::collections::HashSet;

/// The naive-reference execution time of one sweep point: the retained
/// seed scheduler driven cycle by cycle, constructed from scratch.
fn reference_cycles(trace: &Trace, machine: Machine, window: WindowSpec, md: u64) -> u64 {
    match machine {
        Machine::Decoupled => DecoupledMachine::new(dm_config(window, md))
            .run_reference(trace)
            .cycles(),
        Machine::Superscalar => SuperscalarMachine::new(swsm_config(window, md))
            .run_reference(trace)
            .cycles(),
        Machine::Scalar => ScalarReference::new(ScalarConfig::new(md))
            .run_reference(trace)
            .cycles(),
    }
}

/// `points` addressed at the pinned program `id`.
fn at(id: TraceId, points: &[(Machine, WindowSpec, u64)]) -> Vec<SweepPoint> {
    points.iter().map(|&(m, w, md)| (id, m, w, md)).collect()
}

/// Decodes a proptest-generated raw point into a sweep point.
fn decode_point(machine: u8, window: u8, md: u64) -> (Machine, WindowSpec, u64) {
    let machine = match machine % 3 {
        0 => Machine::Decoupled,
        1 => Machine::Superscalar,
        _ => Machine::Scalar,
    };
    let window = match window % 5 {
        0 => WindowSpec::Entries(4),
        1 => WindowSpec::Entries(13),
        2 => WindowSpec::Entries(32),
        3 => WindowSpec::Entries(128),
        _ => WindowSpec::Unlimited,
    };
    (machine, window, md)
}

/// Runs `points` four ways — a caching session (twice, so the second run
/// is answered from the cache), a session whose cache is bounded at two
/// entries, an uncached session, and the naive reference per point — and
/// asserts bit-for-bit equality everywhere.
fn assert_cached_uncached_and_reference_agree(
    trace: &Trace,
    points: &[(Machine, WindowSpec, u64)],
) {
    let mut cached = SweepSession::new();
    assert!(cached.cache_enabled(), "sessions cache by default");
    let c = cached.pin_trace(trace);
    let first = cached.sweep_multi(&at(c, points));
    let second = cached.sweep_multi(&at(c, points));
    let streamed = cached.stream(&at(c, points)).collect_ordered();

    let mut uncached = SweepSession::new();
    uncached.set_cache_enabled(false);
    let u = uncached.pin_trace(trace);
    let plain = uncached.sweep_multi(&at(u, points));

    // A cache bounded well below the grid evicts on nearly every insert;
    // eviction churn must never change a result.
    let mut bounded = SweepSession::new();
    bounded.set_cache_limit(Some(2));
    let b = bounded.pin_trace(trace);
    for pass in [
        bounded.sweep_multi(&at(b, points)),
        bounded.sweep_multi(&at(b, points)),
        bounded.stream(&at(b, points)).collect_ordered(),
    ] {
        assert_eq!(pass, plain, "bounded-cache pass != uncached run");
    }
    let bounded_stats = bounded.cache_stats();
    let distinct = points.iter().collect::<HashSet<_>>().len();
    assert!(bounded_stats.entries <= 2, "the bound holds after eviction");
    assert!(
        bounded_stats.evictions >= distinct.saturating_sub(2) as u64,
        "populating {distinct} distinct points through a bound of 2 evicts"
    );
    assert_eq!(
        bounded_stats.hits + bounded_stats.misses,
        bounded_stats.lookups,
        "lookup classification is exact under eviction"
    );

    assert_eq!(first, plain, "cached first run != uncached run");
    assert_eq!(second, plain, "cache-served repeat != uncached run");
    assert_eq!(streamed, plain, "cache-served stream != uncached run");
    for (&(machine, window, md), &cycles) in points.iter().zip(&plain) {
        assert_eq!(
            cycles,
            reference_cycles(trace, machine, window, md),
            "{machine} w={window} md={md} diverges from the naive reference"
        );
    }

    // The repeat and the stream were answered without simulating: every
    // distinct point was simulated exactly once across all three passes.
    let stats = cached.cache_stats();
    assert!(stats.entries <= points.len());
    assert_eq!(
        stats.misses, stats.entries as u64,
        "one simulation per entry"
    );
    assert_eq!(
        stats.hits + stats.misses,
        3 * points.len() as u64,
        "every pass accounted each point as a hit or a miss"
    );
    assert_eq!(
        stats.hits + stats.misses,
        stats.lookups,
        "lookup classification is exact"
    );
    assert_eq!(uncached.cache_stats(), Default::default());

    // Content addressing: an independently re-lowered pin of the same
    // trace shares the structural hash, so it is answered entirely from
    // the first pin's entries — and the results are bit-for-bit the ones
    // its own simulations would have produced (`plain`).
    let relowered = cached.pin_trace(trace);
    assert_ne!(relowered, c, "distinct pins, shared structural identity");
    let via_cache = cached.sweep_multi(&at(relowered, points));
    assert_eq!(via_cache, plain, "hash-equal must imply result-equal");
    let after = cached.cache_stats();
    assert_eq!(after.misses, stats.misses, "no new simulations");
    assert_eq!(after.entries, stats.entries, "no new entries");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Randomized grids over random kernels: caching never changes a
    /// result, and repeats never re-simulate.
    #[test]
    fn cache_is_invisible_on_random_kernels(
        seed in 4000u64..8000,
        stmts in 6usize..24,
        raw_points in proptest::collection::vec((0u8..6, 0u8..10, 0u64..80), 1..6)
    ) {
        let kernel = random_kernel(seed, stmts);
        let trace = dae::trace::expand(&kernel, 25);
        prop_assume!(!trace.is_empty());
        let points: Vec<_> = raw_points
            .into_iter()
            .map(|(m, w, md)| decode_point(m, w, md))
            .collect();
        assert_cached_uncached_and_reference_agree(&trace, &points);
    }

    /// Randomized grids over the PERFECT workloads.
    #[test]
    fn cache_is_invisible_on_perfect_workloads(
        program_idx in 0usize..7,
        raw_points in proptest::collection::vec((0u8..6, 0u8..10, 0u64..80), 1..5)
    ) {
        let trace = PerfectProgram::ALL[program_idx].workload().trace(40);
        let points: Vec<_> = raw_points
            .into_iter()
            .map(|(m, w, md)| decode_point(m, w, md))
            .collect();
        assert_cached_uncached_and_reference_agree(&trace, &points);
    }
}

/// The motivating workload shape: the equivalent-window-ratio figure and
/// the §5 window-ratio claim sweep heavily overlapping grids (the claim
/// re-visits the figure's SWSM search windows and its DM point at MD =
/// 60).  Sharing a session, the second generator must *hit* — and both
/// must produce exactly the figures a cold fresh session produces.
#[test]
fn overlapping_ewr_grids_hit_the_cache_and_figures_are_unchanged() {
    let cfg = ExperimentConfig {
        iterations: 120,
        dm_windows: vec![8, 32, 64],
        swsm_windows: vec![8, 32, 64],
        equivalence_search_windows: vec![8, 16, 32, 64, 128, 256],
        memory_differentials: vec![0, 60],
    };
    let mut session = SweepSession::new();

    let fig = equivalent_window_figure_in(&mut session, PerfectProgram::Mdg, &cfg);
    let after_figure = session.cache_stats();
    assert!(after_figure.misses > 0, "a cold session simulates");

    let claim = window_ratio_claim_in(&mut session, &cfg, 32, 60);
    let after_claim = session.cache_stats();
    let claim_hits = after_claim.hits - after_figure.hits;
    assert!(
        claim_hits >= cfg.equivalence_search_windows.len() as u64,
        "the claim's MDG search grid must come from the figure's entries \
         (hit {claim_hits} of at least {})",
        cfg.equivalence_search_windows.len()
    );

    // Repeating the whole figure re-simulates nothing at all.
    let again = equivalent_window_figure_in(&mut session, PerfectProgram::Mdg, &cfg);
    let after_repeat = session.cache_stats();
    assert_eq!(
        after_repeat.misses, after_claim.misses,
        "a repeated figure must not simulate a single point"
    );

    // And every cached figure equals its cold fresh-session counterpart.
    assert_eq!(
        fig,
        equivalent_window_figure_in(&mut SweepSession::new(), PerfectProgram::Mdg, &cfg)
    );
    assert_eq!(again, fig);
    assert_eq!(
        claim,
        window_ratio_claim_in(&mut SweepSession::new(), &cfg, 32, 60)
    );
}

/// Identity is the structural content hash of the lowering, not the
/// pinned `Arc`: re-lowering the same source trace into a second pin
/// produces the same hash, so the copy is answered entirely from the
/// first pin's entries — with results proven bit-for-bit equal to a fresh
/// simulation by the differential above.  Distinct traces keep distinct
/// hashes (no false aliasing), and `pin_program`'s id-level dedup still
/// works on top.
#[test]
fn a_relowered_copy_of_the_same_program_hits_structurally() {
    let trace = PerfectProgram::Trfd.workload().trace(80);
    let grid: Vec<(Machine, WindowSpec, u64)> = vec![
        (Machine::Decoupled, WindowSpec::Entries(16), 60),
        (Machine::Superscalar, WindowSpec::Entries(32), 60),
        (Machine::Scalar, WindowSpec::Entries(1), 60),
    ];
    let mut session = SweepSession::new();

    // Two separate pins of the same source trace: distinct ids, one
    // structural identity.
    let first = session.pin_trace(&trace);
    let second = session.pin_trace(&trace);
    assert_ne!(first, second);
    assert_eq!(
        session.lowered(first).content_hash(),
        session.lowered(second).content_hash(),
        "re-lowering is deterministic"
    );

    let first_cycles = session.sweep_multi(&at(first, &grid));
    let between = session.cache_stats();
    assert_eq!(between.misses, grid.len() as u64);

    let second_cycles = session.sweep_multi(&at(second, &grid));
    let after = session.cache_stats();
    assert_eq!(first_cycles, second_cycles, "same program, same results");
    assert_eq!(
        after.hits,
        between.hits + grid.len() as u64,
        "the re-lowered copy is answered from the original's entries"
    );
    assert_eq!(
        after.misses,
        grid.len() as u64,
        "no point of the copy re-simulated"
    );
    assert_eq!(after.entries, grid.len(), "no duplicate entries");

    // A *different* program must not alias: its hash differs and its
    // sweep misses everywhere.
    let other = session.pin_trace(&PerfectProgram::Mdg.workload().trace(80));
    assert_ne!(
        session.lowered(other).content_hash(),
        session.lowered(first).content_hash()
    );
    let _ = session.sweep_multi(&at(other, &grid));
    let distinct = session.cache_stats();
    assert_eq!(distinct.misses, 2 * grid.len() as u64);
    assert_eq!(distinct.entries, 2 * grid.len());

    // pin_program's id-level dedup still resolves to one identity.
    let mut programs = SweepSession::new();
    let a = programs.pin_program(PerfectProgram::Trfd, 80);
    let b = programs.pin_program(PerfectProgram::Trfd, 80);
    assert_eq!(a, b);
    let _ = programs.sweep_multi(&at(a, &grid));
    let _ = programs.sweep_multi(&at(b, &grid));
    assert_eq!(programs.cache_stats().hits, grid.len() as u64);
    assert_eq!(programs.cache_stats().misses, grid.len() as u64);
}
