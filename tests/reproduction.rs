//! Integration tests asserting the paper's qualitative results.
//!
//! These tests run the full pipeline (workload model -> trace -> lowering ->
//! cycle-level machine) and check the *shape* of the results the paper
//! reports: who wins, in which regime, and by roughly what kind of factor.
//! Absolute cycle counts are implementation specific and are not asserted.

mod common;

use common::direct_cycles;
use dae::core::{
    equivalent_window_figure_in, speedup, speedup_figure_in, table1_in, ExperimentConfig, Machine,
    SweepSession, WindowSpec,
};
use dae::machines::{DecoupledMachine, DmConfig};
use dae::workloads::{LatencyHidingBand, PerfectProgram};

fn quick_config() -> ExperimentConfig {
    ExperimentConfig {
        iterations: 200,
        dm_windows: vec![8, 16, 32, 64, 128],
        swsm_windows: vec![8, 16, 32, 64, 128],
        equivalence_search_windows: vec![8, 16, 32, 64, 128, 256, 512],
        memory_differentials: vec![0, 20, 60],
    }
}

/// §5, figures 4-6: at MD = 60 the DM outperforms the SWSM at every window
/// size the paper sweeps, for every program in the suite.
#[test]
fn dm_beats_swsm_at_md60_for_every_program_and_window() {
    for program in PerfectProgram::ALL {
        let trace = program.workload().trace(200);
        for window in [8usize, 32, 128] {
            let dm = direct_cycles(Machine::Decoupled, &trace, WindowSpec::Entries(window), 60);
            let swsm = direct_cycles(
                Machine::Superscalar,
                &trace,
                WindowSpec::Entries(window),
                60,
            );
            assert!(
                dm < swsm,
                "{program} window {window}: DM {dm} should beat SWSM {swsm} at MD=60"
            );
        }
    }
}

/// §5: at MD = 0 and small windows the DM is still ahead (two windows mean
/// fewer conflicts for window slots), but with a large enough window the
/// SWSM's unified issue width lets it catch up.
#[test]
fn md0_small_windows_favour_dm_and_large_windows_favour_swsm() {
    for program in PerfectProgram::REPRESENTATIVE {
        let trace = program.workload().trace(200);
        let dm_small = direct_cycles(Machine::Decoupled, &trace, WindowSpec::Entries(8), 0);
        let swsm_small = direct_cycles(Machine::Superscalar, &trace, WindowSpec::Entries(8), 0);
        assert!(
            dm_small <= swsm_small,
            "{program}: DM should win at an 8-entry window and MD=0"
        );

        // With unlimited windows the SWSM's width-9 single pipeline matches
        // or beats the width-4/5 pair for these width-bound programs.
        let dm_unlimited = direct_cycles(Machine::Decoupled, &trace, WindowSpec::Unlimited, 0);
        let swsm_unlimited = direct_cycles(Machine::Superscalar, &trace, WindowSpec::Unlimited, 0);
        assert!(
            swsm_unlimited as f64 <= dm_unlimited as f64 * 1.05,
            "{program}: SWSM with an unlimited window should at least match the DM at MD=0 \
             (DM {dm_unlimited}, SWSM {swsm_unlimited})"
        );
    }
}

/// Figures 4-6: the speedup-figure generator reports the crossover
/// behaviour: a crossover exists at MD=0 for FLO52Q and TRACK within the
/// swept windows, and none exists at MD=60 for any representative program.
#[test]
fn crossover_exists_at_md0_but_not_at_md60() {
    let config = quick_config();
    for program in PerfectProgram::REPRESENTATIVE {
        let figure = speedup_figure_in(&mut SweepSession::new(), program, &config, &[0, 60]);
        assert_eq!(
            figure.crossover_window(60),
            None,
            "{program}: no crossover expected at MD=60"
        );
        if program != PerfectProgram::Mdg {
            assert!(
                figure.crossover_window(0).is_some(),
                "{program}: a crossover should appear at MD=0 within 128 entries"
            );
        }
    }
}

/// §5: the DM/SWSM gap at MD = 60 is large for the highly parallel FLO52Q
/// and small for the serial TRACK.
#[test]
fn the_gap_orders_flo52q_above_track() {
    let window = WindowSpec::Entries(64);
    let gap = |program: PerfectProgram| {
        let trace = program.workload().trace(200);
        let dm = direct_cycles(Machine::Decoupled, &trace, window, 60) as f64;
        let swsm = direct_cycles(Machine::Superscalar, &trace, window, 60) as f64;
        swsm / dm
    };
    let flo = gap(PerfectProgram::Flo52q);
    let track = gap(PerfectProgram::Track);
    assert!(
        flo > 1.5 * track,
        "FLO52Q's DM advantage ({flo:.2}x) should clearly exceed TRACK's ({track:.2}x)"
    );
}

/// Table 1: with unlimited windows and MD = 60 the seven programs fall into
/// the paper's three latency-hiding bands, in the right order.
#[test]
fn table1_reproduces_the_three_bands() {
    let config = ExperimentConfig {
        iterations: 400,
        dm_windows: vec![32],
        ..quick_config()
    };
    let table = table1_in(&mut SweepSession::new(), &config, 60);
    let lhe = |p: PerfectProgram| table.lhe(p, WindowSpec::Unlimited).unwrap();

    let high = [
        PerfectProgram::Trfd,
        PerfectProgram::Adm,
        PerfectProgram::Flo52q,
    ];
    let moderate = [
        PerfectProgram::Dyfesm,
        PerfectProgram::Qcd,
        PerfectProgram::Mdg,
    ];

    let min_high = high.iter().map(|&p| lhe(p)).fold(f64::INFINITY, f64::min);
    let max_moderate = moderate.iter().map(|&p| lhe(p)).fold(0.0, f64::max);
    let min_moderate = moderate
        .iter()
        .map(|&p| lhe(p))
        .fold(f64::INFINITY, f64::min);
    let track = lhe(PerfectProgram::Track);

    assert!(
        min_high > max_moderate,
        "high band ({min_high:.3}) should sit above the moderate band ({max_moderate:.3})"
    );
    assert!(
        min_moderate > track,
        "moderate band ({min_moderate:.3}) should sit above TRACK ({track:.3})"
    );
    assert!(min_high > 0.7, "high band should hide most of the latency");
    assert!(track < 0.4, "TRACK should hide little of the latency");

    // The expected_band metadata on the workloads agrees with the measured bands.
    for program in PerfectProgram::ALL {
        let expected = program.expected_band();
        let measured = lhe(program);
        match expected {
            LatencyHidingBand::High => assert!(measured > 0.7, "{program}: {measured:.3}"),
            LatencyHidingBand::Moderate => {
                assert!(
                    (0.35..=0.85).contains(&measured),
                    "{program}: {measured:.3}"
                )
            }
            LatencyHidingBand::Poor => assert!(measured < 0.4, "{program}: {measured:.3}"),
        }
    }
}

/// Table 1: at realistic window sizes the LHE is far below the
/// unlimited-window LHE ("even with large window sizes we do not approach
/// the LHE of an DM with unlimited resources").
#[test]
fn finite_windows_do_not_reach_the_unlimited_window_lhe() {
    let config = ExperimentConfig {
        iterations: 300,
        dm_windows: vec![32, 128],
        ..quick_config()
    };
    let table = table1_in(&mut SweepSession::new(), &config, 60);
    for program in [
        PerfectProgram::Trfd,
        PerfectProgram::Flo52q,
        PerfectProgram::Mdg,
    ] {
        let at_32 = table.lhe(program, WindowSpec::Entries(32)).unwrap();
        let at_128 = table.lhe(program, WindowSpec::Entries(128)).unwrap();
        let unlimited = table.lhe(program, WindowSpec::Unlimited).unwrap();
        assert!(
            at_32 < unlimited * 0.8,
            "{program}: 32-entry LHE {at_32:.3} vs unlimited {unlimited:.3}"
        );
        assert!(at_128 <= unlimited + 1e-9, "{program}");
        assert!(
            at_32 <= at_128 + 0.05,
            "{program}: more window should not hide much less"
        );
    }
}

/// Figures 7-9 and the §5 claim: the equivalent window ratio at a realistic
/// DM window and MD = 60 is a small multiple (the paper says 2-4x; the
/// synthetic workloads land between about 2x and 6x), and the ratio grows
/// with the memory differential.
#[test]
fn equivalent_window_ratio_is_a_small_multiple_and_grows_with_md() {
    let config = quick_config();
    for program in PerfectProgram::REPRESENTATIVE {
        let figure = equivalent_window_figure_in(&mut SweepSession::new(), program, &config);
        let at_md60 = figure.ratio(32, 60).expect("ratio at MD=60 resolves");
        assert!(
            (1.5..8.0).contains(&at_md60),
            "{program}: ratio at MD=60 was {at_md60:.2}"
        );
        // The overall trend of figures 7-9: a large memory differential needs
        // a clearly larger equivalent window than no differential at all.
        // (Between intermediate differentials the curve can flatten or dip
        // slightly — see EXPERIMENTS.md.)
        if let Some(at_md0) = figure.ratio(32, 0) {
            assert!(
                at_md60 >= at_md0 * 0.95,
                "{program}: ratio at MD=60 ({at_md60:.2}) should not fall below the MD=0 ratio ({at_md0:.2})"
            );
        }
    }
}

/// §3: the DM's dynamic slippage makes the effective single window larger
/// than the sum of the two physical windows for a well-decoupled program.
#[test]
fn effective_single_window_exceeds_the_physical_windows() {
    let trace = PerfectProgram::Flo52q.workload().trace(300);
    let window = 24;
    let result = DecoupledMachine::new(DmConfig::paper(window, 60)).run(&trace);
    assert!(result.esw.samples > 0);
    assert!(
        result.esw.max_esw > 2 * window,
        "ESW ({}) should exceed the sum of the two {window}-entry windows",
        result.esw.max_esw
    );
}

/// Speedups are always measured against the scalar reference and are always
/// greater than one for the windowed machines.
#[test]
fn both_machines_beat_the_scalar_reference() {
    for program in PerfectProgram::ALL {
        let trace = program.workload().trace(150);
        for md in [0u64, 60] {
            let reference = direct_cycles(Machine::Scalar, &trace, WindowSpec::Unlimited, md);
            for machine in [Machine::Decoupled, Machine::Superscalar] {
                let cycles = direct_cycles(machine, &trace, WindowSpec::Entries(32), md);
                let s = speedup(reference, cycles);
                assert!(s > 1.0, "{program} {machine} md={md}: speedup {s:.2}");
            }
        }
    }
}
