//! Cross-crate consistency checks: the machines, lowerings and analytical
//! bounds must agree with each other on every workload.

mod common;

use common::direct_cycles;
use dae::core::{Machine, WindowSpec};
use dae::isa::LatencyModel;
use dae::machines::{
    DecoupledMachine, DmConfig, ScalarConfig, ScalarReference, SuperscalarMachine, SwsmConfig,
};
use dae::trace::{dataflow_summary, expand_swsm, partition, PartitionMode};
use dae::workloads::{suite, synthetic_suite, PerfectProgram};

/// Every machine's execution time is bounded below by the dataflow critical
/// path (with single-cycle memory) and bounded above by the scalar
/// reference's fully serialised time.
#[test]
fn execution_times_sit_between_the_dataflow_limit_and_the_serial_bound() {
    let latencies = LatencyModel::paper_default();
    for workload in suite().iter().chain(synthetic_suite().iter()) {
        let trace = workload.trace(120);
        if trace.is_empty() {
            continue;
        }
        let summary = dataflow_summary(&trace, &latencies, 0);
        for md in [0u64, 60] {
            let serial = direct_cycles(Machine::Scalar, &trace, WindowSpec::Unlimited, md);
            for (name, cycles) in [
                (
                    "DM",
                    direct_cycles(Machine::Decoupled, &trace, WindowSpec::Entries(32), md),
                ),
                (
                    "SWSM",
                    direct_cycles(Machine::Superscalar, &trace, WindowSpec::Entries(32), md),
                ),
            ] {
                assert!(
                    cycles >= summary.critical_path_perfect,
                    "{} {name} md={md}: {cycles} below the dataflow limit {}",
                    workload.name(),
                    summary.critical_path_perfect
                );
                assert!(
                    cycles <= serial,
                    "{} {name} md={md}: {cycles} exceeds the serial bound {serial}",
                    workload.name(),
                );
            }
        }
    }
}

/// Larger windows never hurt, and the unlimited window is the fastest
/// configuration of all, for both machines.
#[test]
fn bigger_windows_are_never_slower() {
    for program in [
        PerfectProgram::Trfd,
        PerfectProgram::Mdg,
        PerfectProgram::Track,
    ] {
        let trace = program.workload().trace(150);
        for md in [0u64, 60] {
            let mut previous_dm = u64::MAX;
            let mut previous_swsm = u64::MAX;
            for window in [4usize, 16, 64, 256] {
                let dm = direct_cycles(Machine::Decoupled, &trace, WindowSpec::Entries(window), md);
                let swsm = direct_cycles(
                    Machine::Superscalar,
                    &trace,
                    WindowSpec::Entries(window),
                    md,
                );
                assert!(dm <= previous_dm, "{program} md={md} window {window}");
                assert!(swsm <= previous_swsm, "{program} md={md} window {window}");
                previous_dm = dm;
                previous_swsm = swsm;
            }
            assert!(
                direct_cycles(Machine::Decoupled, &trace, WindowSpec::Unlimited, md) <= previous_dm
            );
            assert!(
                direct_cycles(Machine::Superscalar, &trace, WindowSpec::Unlimited, md)
                    <= previous_swsm
            );
        }
    }
}

/// A larger memory differential never makes any machine faster.
#[test]
fn more_memory_latency_never_helps() {
    for program in PerfectProgram::ALL {
        let trace = program.workload().trace(100);
        let mut previous = (0u64, 0u64, 0u64);
        for md in [0u64, 20, 40, 60] {
            let current = (
                direct_cycles(Machine::Decoupled, &trace, WindowSpec::Entries(32), md),
                direct_cycles(Machine::Superscalar, &trace, WindowSpec::Entries(32), md),
                direct_cycles(Machine::Scalar, &trace, WindowSpec::Unlimited, md),
            );
            assert!(current.0 >= previous.0, "{program} DM md={md}");
            assert!(current.1 >= previous.1, "{program} SWSM md={md}");
            assert!(current.2 >= previous.2, "{program} scalar md={md}");
            previous = current;
        }
    }
}

/// The static (tagged) and automatic (slice-based) partitions give the same
/// execution time for every program that does not deliberately compute
/// addresses on the data unit.
#[test]
fn tagged_and_automatic_partitions_agree_except_for_track() {
    for program in PerfectProgram::ALL {
        let trace = program.workload().trace(120);
        let machine = DecoupledMachine::new(DmConfig::paper(32, 60));
        let tagged = machine.run(&trace);
        let automatic = partition(&trace, PartitionMode::Automatic);
        let auto = machine.run_lowered(&automatic, trace.len());
        if program == PerfectProgram::Track {
            // TRACK computes its gate index from floating point data, so a
            // DU -> AU copy per iteration is unavoidable under either
            // partition (the integer conversion can move to the AU, but the
            // floating point value it consumes cannot).  The two partitions
            // may differ slightly in where the copy sits but must stay close
            // in performance.
            assert!(tagged.partition.copies_du_to_au > 0);
            assert!(auto.partition.copies_du_to_au > 0);
            let ratio = auto.cycles() as f64 / tagged.cycles() as f64;
            assert!(
                (0.8..1.2).contains(&ratio),
                "TRACK: partitions diverge too much ({ratio:.2})"
            );
        } else {
            assert_eq!(tagged.cycles(), auto.cycles(), "{program}");
            assert_eq!(tagged.partition, auto.partition, "{program}");
        }
    }
}

/// The simulated scalar machine matches its analytic execution-time formula
/// on every workload in the suite.
#[test]
fn scalar_simulation_matches_the_analytic_formula() {
    for workload in suite() {
        let trace = workload.trace(60);
        for md in [0u64, 30, 60] {
            let machine = ScalarReference::new(ScalarConfig::new(md));
            assert_eq!(
                machine.run(&trace).cycles(),
                machine.analytic_cycles(&trace),
                "{} md={md}",
                workload.name()
            );
        }
    }
}

/// Machine-instruction accounting: every lowered instruction is dispatched,
/// issued and retired exactly once by the machines.
#[test]
fn every_lowered_instruction_is_executed_exactly_once() {
    for program in [
        PerfectProgram::Adm,
        PerfectProgram::Qcd,
        PerfectProgram::Track,
    ] {
        let trace = program.workload().trace(100);
        let lowered = partition(&trace, PartitionMode::Tagged);
        let expanded = expand_swsm(&trace);

        let dm = DecoupledMachine::new(DmConfig::paper(16, 40)).run(&trace);
        assert_eq!(
            dm.au.issued + dm.du.issued,
            (lowered.au.len() + lowered.du.len()) as u64,
            "{program} DM"
        );
        assert_eq!(dm.au.retired + dm.du.retired, dm.au.issued + dm.du.issued);

        let swsm = SuperscalarMachine::new(SwsmConfig::paper(16, 40)).run(&trace);
        assert_eq!(
            swsm.unit.issued,
            expanded.insts.len() as u64,
            "{program} SWSM"
        );
        assert_eq!(swsm.unit.retired, swsm.unit.issued);
    }
}

/// The decoupled machine's memory counters are consistent with the
/// partition's structure.
#[test]
fn decoupled_memory_counters_match_the_partition() {
    for program in PerfectProgram::ALL {
        let trace = program.workload().trace(80);
        let result = DecoupledMachine::new(DmConfig::paper(32, 60)).run(&trace);
        assert_eq!(
            result.memory.load_requests as usize, result.partition.loads,
            "{program}: one memory request per architectural load"
        );
        assert!(
            result.memory.consumed as usize
                <= result.partition.du_consumed_loads + result.partition.au_self_loads,
            "{program}: consumes cannot exceed consumers"
        );
        assert_eq!(
            result.memory.store_requests as usize,
            2 * result.partition.stores,
            "{program}: store address + store data both notify the decoupled memory"
        );
    }
}
