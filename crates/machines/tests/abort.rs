//! Cooperative mid-simulation abort: the run engine polls the installed
//! [`AbortToken`] and unwinds with [`AbortedSimulation`], so a cancelled
//! point stops orders of magnitude before its natural completion.

use dae_machines::{
    with_abort_token, AbortToken, AbortedSimulation, DecoupledMachine, DmConfig,
    SuperscalarMachine, SwsmConfig,
};
use dae_workloads::PerfectProgram;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// A pre-set token aborts a run on its very first engine iteration, for
/// every event-driven machine.
#[test]
fn a_preset_token_aborts_immediately() {
    let trace = PerfectProgram::Trfd.workload().trace(200);
    let token = AbortToken::new();
    token.abort();

    let dm = catch_unwind(AssertUnwindSafe(|| {
        with_abort_token(&token, || {
            DecoupledMachine::new(DmConfig::paper(32, 60)).run(&trace)
        })
    }));
    let payload = dm.expect_err("the DM run must abort");
    assert!(
        payload.downcast_ref::<AbortedSimulation>().is_some(),
        "the unwind payload must be the abort marker"
    );

    let swsm = catch_unwind(AssertUnwindSafe(|| {
        with_abort_token(&token, || {
            SuperscalarMachine::new(SwsmConfig::paper(32, 60)).run(&trace)
        })
    }));
    assert!(swsm
        .expect_err("the SWSM run must abort")
        .downcast_ref::<AbortedSimulation>()
        .is_some());
}

/// Runs without an installed token are untouched: same results as before
/// the instrumentation, no unwind.
#[test]
fn runs_without_a_token_are_unaffected() {
    let trace = PerfectProgram::Mdg.workload().trace(150);
    let bare = DecoupledMachine::new(DmConfig::paper(16, 60)).run(&trace);
    let token = AbortToken::new(); // never aborted
    let under_token = with_abort_token(&token, || {
        DecoupledMachine::new(DmConfig::paper(16, 60)).run(&trace)
    });
    assert_eq!(
        bare, under_token,
        "an unsignalled token must change nothing"
    );
}

/// The acceptance criterion: a long-running point aborts mid-simulation
/// with latency far below its full runtime.  The trace is lowered once up
/// front (as the sweep drivers do — lowering is not cancellable) and sized
/// until one uncancelled simulation takes a measurable wall time; then the
/// same simulation is aborted shortly after it starts, and the elapsed
/// time must stay well under the full runtime (generous margins — this
/// guards against "cancellation waits for the point to finish"
/// regressions, not against scheduler jitter).
#[test]
fn abort_latency_is_far_below_the_full_runtime() {
    let machine = DecoupledMachine::new(DmConfig::paper(64, 60));
    // Size the point so one full pre-lowered simulation is comfortably
    // measurable (≥ 120 ms).
    let mut iterations = 2_000;
    let (program, instructions, full) = loop {
        let trace = PerfectProgram::Trfd.workload().trace(iterations);
        let program = dae_trace::partition(&trace, dae_trace::PartitionMode::Tagged);
        let start = Instant::now();
        let _ = machine.run_lowered(&program, trace.len());
        let full = start.elapsed();
        if full >= Duration::from_millis(120) || iterations >= 512_000 {
            break (program, trace.len(), full);
        }
        iterations *= 2;
    };

    let token = AbortToken::new();
    let aborter = {
        let token = token.clone();
        let delay = full / 10;
        std::thread::spawn(move || {
            std::thread::sleep(delay);
            token.abort();
        })
    };
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        with_abort_token(&token, || machine.run_lowered(&program, instructions))
    }));
    let aborted_after = start.elapsed();
    aborter.join().expect("aborter thread");

    assert!(
        result
            .expect_err("the run must abort")
            .downcast_ref::<AbortedSimulation>()
            .is_some(),
        "the unwind payload must be the abort marker"
    );
    assert!(
        aborted_after < full / 2,
        "abort latency must be far below the full runtime \
         (full: {full:?}, aborted after: {aborted_after:?})"
    );
}
