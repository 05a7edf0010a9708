//! Differential guard for the simulation-buffer pool: a recycled
//! [`SimPool`] must be invisible in the results.
//!
//! The pool hands the same buffers to wildly different consumers — a DM
//! unit pair, then an SWSM unit, then a scalar unit, across mismatched
//! window sizes, stream lengths and memory differentials — so the reset
//! logic in `UnitSim::with_wakeups_scratch` (and the memory-structure
//! scratch constructors) must clear *everything* a previous run could have
//! left behind: stale window links, ready bits, queued events in a grown
//! event ring, poll flags, completion times, tag arrivals, prefetch
//! entries.  Every run here is compared against a fresh construction and
//! (spot-checked) against the naive reference oracle.

use dae_machines::{
    DecoupledMachine, DmConfig, ScalarConfig, ScalarReference, SimPool, SuperscalarMachine,
    SwsmConfig,
};
use dae_trace::{expand_swsm, lower_scalar, partition, PartitionMode, Trace};
use dae_workloads::{stream, PerfectProgram};

fn traces() -> Vec<Trace> {
    // Different lengths so pooled buffers must both shrink and grow between
    // runs, over kernels with different dependence shapes.
    vec![
        stream().trace(120),
        PerfectProgram::Adm.workload().trace(60),
        PerfectProgram::Dyfesm.workload().trace(90),
    ]
}

/// Interleaves all three machines on one pool across every (trace, window,
/// MD) combination and checks each pooled result against a fresh
/// construction.
#[test]
fn interleaved_pooled_runs_match_fresh_construction() {
    let pool = &mut SimPool::new();
    for trace in traces() {
        let dm_program = partition(&trace, PartitionMode::Tagged);
        let swsm_program = expand_swsm(&trace);
        let scalar_program = lower_scalar(&trace);
        for (window, md) in [(4, 60), (32, 20), (64, 0), (16, 300)] {
            let dm = DecoupledMachine::new(DmConfig::paper(window, md));
            assert_eq!(
                dm.run_pooled(&dm_program, trace.len(), pool),
                dm.run_lowered(&dm_program, trace.len()),
                "DM pooled/fresh mismatch at w{window}/md{md}"
            );
            // A different machine with a different window shape reuses the
            // buffers the DM just returned.
            let swsm = SuperscalarMachine::new(SwsmConfig::paper(window * 2, md));
            assert_eq!(
                swsm.run_pooled(&swsm_program, trace.len(), pool),
                swsm.run_lowered(&swsm_program, trace.len()),
                "SWSM pooled/fresh mismatch at w{}/md{md}",
                window * 2
            );
            let scalar = ScalarReference::new(ScalarConfig::new(md));
            assert_eq!(
                scalar.run_pooled(&scalar_program, trace.len(), pool),
                scalar.run_lowered(&scalar_program, trace.len()),
                "scalar pooled/fresh mismatch at md{md}"
            );
        }
    }
}

/// The pooled path must also stay bit-for-bit equal to the naive reference
/// oracle (not just to the fresh event-driven path) — the full differential
/// chain pooled → fresh → naive holds end to end.
#[test]
fn pooled_runs_match_the_naive_reference() {
    let pool = &mut SimPool::new();
    let trace = stream().trace(100);
    let dm_program = partition(&trace, PartitionMode::Tagged);
    let swsm_program = expand_swsm(&trace);
    let scalar_program = lower_scalar(&trace);
    for md in [0, 60] {
        let dm = DecoupledMachine::new(DmConfig::paper(16, md));
        assert_eq!(
            dm.run_pooled(&dm_program, trace.len(), pool),
            dm.run_reference(&trace)
        );
        let swsm = SuperscalarMachine::new(SwsmConfig::paper(16, md));
        assert_eq!(
            swsm.run_pooled(&swsm_program, trace.len(), pool),
            swsm.run_reference(&trace)
        );
        let scalar = ScalarReference::new(ScalarConfig::new(md));
        assert_eq!(
            scalar.run_pooled(&scalar_program, trace.len(), pool),
            scalar.run_reference(&trace)
        );
    }
}

/// Unlimited windows and asymmetric AU/DU shapes exercise the unbounded
/// dispatch paths over recycled buffers.
#[test]
fn pooled_unlimited_and_asymmetric_windows_match() {
    let pool = &mut SimPool::new();
    let trace = PerfectProgram::Mdg.workload().trace(50);
    let dm_program = partition(&trace, PartitionMode::Tagged);
    for config in [
        DmConfig::paper_unlimited(60),
        DmConfig::paper(8, 60),
        DmConfig::paper_unlimited(0),
    ] {
        let dm = DecoupledMachine::new(config);
        assert_eq!(
            dm.run_pooled(&dm_program, trace.len(), pool),
            dm.run_lowered(&dm_program, trace.len())
        );
    }
    let swsm_program = expand_swsm(&trace);
    let swsm = SuperscalarMachine::new(SwsmConfig::paper_unlimited(60));
    assert_eq!(
        swsm.run_pooled(&swsm_program, trace.len(), pool),
        swsm.run_lowered(&swsm_program, trace.len())
    );
}

/// Repeated pooled runs of the same point are deterministic (the recycled
/// buffers carry no run-to-run state).
#[test]
fn pooled_runs_are_deterministic() {
    let pool = &mut SimPool::new();
    let trace = stream().trace(80);
    let dm_program = partition(&trace, PartitionMode::Tagged);
    let dm = DecoupledMachine::new(DmConfig::paper(32, 60));
    let first = dm.run_pooled(&dm_program, trace.len(), pool);
    for _ in 0..3 {
        assert_eq!(dm.run_pooled(&dm_program, trace.len(), pool), first);
    }
}
