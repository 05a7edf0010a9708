//! Helpers shared by the integration tests.

use dae::core::{dm_config, swsm_config, Machine, WindowSpec};
use dae::machines::{DecoupledMachine, ScalarConfig, ScalarReference, SuperscalarMachine};
use dae::trace::Trace;

/// The execution time of `machine` on `trace` from a machine built for this
/// one run (the scalar reference by its analytic formula) — an oracle
/// independent of `LoweredTrace::machine_cycles` and the sweep sessions.
pub(crate) fn direct_cycles(machine: Machine, trace: &Trace, window: WindowSpec, md: u64) -> u64 {
    match machine {
        Machine::Decoupled => DecoupledMachine::new(dm_config(window, md))
            .run(trace)
            .cycles(),
        Machine::Superscalar => SuperscalarMachine::new(swsm_config(window, md))
            .run(trace)
            .cycles(),
        Machine::Scalar => ScalarReference::new(ScalarConfig::new(md)).analytic_cycles(trace),
    }
}
