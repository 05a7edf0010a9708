//! Session-differential suite: streamed [`SweepSession`] results must be
//! bit-for-bit identical to the batched session API, to the per-point
//! `LoweredTrace::machine_cycles`, and to the naive reference scheduler
//! (`run_reference`) — on randomized point grids across all three
//! machines, and across session reuse (multiple grids, multiple traces,
//! back to back on one session).  Grids that repeat points must also leave
//! the same cache accounting whichever shape ran them.

use dae::core::{
    dm_config, swsm_config, LoweredTrace, Machine, SweepPoint, SweepSession, TraceId, WindowSpec,
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

/// `points` addressed at the pinned program `id`.
fn at(id: TraceId, points: &[(Machine, WindowSpec, u64)]) -> Vec<SweepPoint> {
    points.iter().map(|&(m, w, md)| (id, m, w, md)).collect()
}

/// The per-point execution times of `points` on `lowered`, in order.
fn per_point(lowered: &LoweredTrace, points: &[(Machine, WindowSpec, u64)]) -> Vec<u64> {
    points
        .iter()
        .map(|&(m, w, md)| lowered.machine_cycles(m, w, md))
        .collect()
}

/// Runs `points` on a fresh session four ways (batched, streamed,
/// per point, naive reference) and asserts bit-for-bit equality.
fn assert_all_paths_agree(trace: &Trace, points: &[(Machine, WindowSpec, u64)]) {
    let lowered = LoweredTrace::new(trace);
    let one_shot = per_point(&lowered, points);

    let mut session = SweepSession::new();
    let id = session.pin_lowered(lowered);
    let batched = session.sweep_multi(&at(id, points));
    let streamed = session.stream(&at(id, points)).collect_ordered();

    assert_eq!(batched, one_shot, "batched session != per-point cycles");
    assert_eq!(streamed, one_shot, "streamed session != per-point cycles");
    for (&(machine, window, md), &cycles) in points.iter().zip(&one_shot) {
        assert_eq!(
            cycles,
            reference_cycles(trace, machine, window, md),
            "{machine} w={window} md={md} diverges from the naive reference"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Randomized grids over random kernels: every delivery path and the
    /// naive reference agree on every point.
    #[test]
    fn session_paths_agree_on_random_kernels(
        seed in 0u64..4000,
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
        assert_all_paths_agree(&trace, &points);
    }

    /// Randomized grids that repeat points: batched and streamed sessions
    /// agree with each other and the naive reference, and from equal fresh
    /// sessions both shapes classify the grid identically — one miss per
    /// distinct point, every repeat a hit riding that point's simulation.
    #[test]
    fn repeated_points_classify_alike_in_both_shapes(
        seed in 0u64..4000,
        raw_distinct in proptest::collection::vec((0u8..6, 0u8..10, 0u64..80), 1..4),
        picks in proptest::collection::vec(0usize..4, 2..9)
    ) {
        let trace = dae::trace::expand(&random_kernel(seed, 12), 25);
        prop_assume!(!trace.is_empty());
        let distinct: Vec<_> = raw_distinct
            .into_iter()
            .map(|(m, w, md)| decode_point(m, w, md))
            .collect();
        let points: Vec<_> = picks.iter().map(|&i| distinct[i % distinct.len()]).collect();

        let mut batched_session = SweepSession::new();
        let b = batched_session.pin_trace(&trace);
        let batched = batched_session.sweep_multi(&at(b, &points));
        let mut streamed_session = SweepSession::new();
        let s = streamed_session.pin_trace(&trace);
        let streamed = streamed_session.stream(&at(s, &points)).collect_ordered();

        prop_assert_eq!(&batched, &streamed);
        for (&(machine, window, md), &cycles) in points.iter().zip(&batched) {
            prop_assert_eq!(cycles, reference_cycles(&trace, machine, window, md));
        }
        let (by_batch, by_stream) = (batched_session.cache_stats(), streamed_session.cache_stats());
        prop_assert_eq!(
            (by_batch.lookups, by_batch.hits, by_batch.misses, by_batch.entries),
            (by_stream.lookups, by_stream.hits, by_stream.misses, by_stream.entries)
        );
        let unique: HashSet<_> = points.iter().collect();
        prop_assert_eq!(by_stream.lookups, points.len() as u64);
        prop_assert_eq!(by_stream.misses, unique.len() as u64);
        prop_assert_eq!(by_stream.hits, (points.len() - unique.len()) as u64);
    }

    /// Randomized grids over the PERFECT workloads.
    #[test]
    fn session_paths_agree_on_perfect_workloads(
        program_idx in 0usize..7,
        raw_points in proptest::collection::vec((0u8..6, 0u8..10, 0u64..80), 1..5)
    ) {
        let trace = PerfectProgram::ALL[program_idx].workload().trace(40);
        let points: Vec<_> = raw_points
            .into_iter()
            .map(|(m, w, md)| decode_point(m, w, md))
            .collect();
        assert_all_paths_agree(&trace, &points);
    }
}

/// One session, several traces, several grids, streamed and batched
/// interleaved back to back — reuse must never change a result.
#[test]
fn one_session_serves_multiple_grids_and_traces_unchanged() {
    let trace_a = PerfectProgram::Mdg.workload().trace(90);
    let trace_b = PerfectProgram::Track.workload().trace(70);
    let lowered_a = LoweredTrace::new(&trace_a);
    let lowered_b = LoweredTrace::new(&trace_b);

    let grid_one: Vec<(Machine, WindowSpec, u64)> = vec![
        (Machine::Decoupled, WindowSpec::Entries(16), 60),
        (Machine::Superscalar, WindowSpec::Entries(32), 60),
        (Machine::Scalar, WindowSpec::Entries(1), 60),
    ];
    let grid_two: Vec<(Machine, WindowSpec, u64)> = vec![
        (Machine::Superscalar, WindowSpec::Unlimited, 0),
        (Machine::Decoupled, WindowSpec::Entries(8), 20),
    ];

    let mut session = SweepSession::new();
    let a = session.pin_trace(&trace_a);
    let b = session.pin_trace(&trace_b);

    let expect_a1 = per_point(&lowered_a, &grid_one);
    let expect_a2 = per_point(&lowered_a, &grid_two);
    let expect_b1 = per_point(&lowered_b, &grid_one);
    let expect_b2 = per_point(&lowered_b, &grid_two);

    // Interleave traces and grids, repeating grid one on trace A at the
    // end: a warm session must reproduce its own cold results.
    assert_eq!(session.sweep_multi(&at(a, &grid_one)), expect_a1);
    assert_eq!(session.sweep_multi(&at(b, &grid_one)), expect_b1);
    assert_eq!(session.sweep_multi(&at(a, &grid_two)), expect_a2);
    assert_eq!(
        session.stream(&at(a, &grid_one)).collect_ordered(),
        expect_a1
    );
    assert_eq!(session.sweep_multi(&at(a, &grid_one)), expect_a1);

    // A mixed-trace grid through one call, streamed.
    let mixed: Vec<SweepPoint> = vec![
        (a, Machine::Decoupled, WindowSpec::Entries(16), 60),
        (b, Machine::Decoupled, WindowSpec::Entries(8), 20),
        (a, Machine::Scalar, WindowSpec::Entries(1), 60),
    ];
    let mixed_got = session.stream(&mixed).collect_ordered();
    assert_eq!(mixed_got[0], expect_a1[0]);
    assert_eq!(mixed_got[1], expect_b2[1]);
    assert_eq!(mixed_got[2], expect_a1[2]);
}
