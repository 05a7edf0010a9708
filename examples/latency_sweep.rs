//! Latency sweep: how both machines degrade as main memory gets further
//! away.
//!
//! Sweeps the memory differential from 0 to 100 cycles for a fixed window
//! size and prints the speedup of the DM and the SWSM over the scalar
//! reference, together with the fraction of the latency each machine hides.
//! This is the experiment behind the paper's observation that the DM's
//! advantage *grows* with the memory differential.
//!
//! Run with:
//! ```text
//! cargo run --release --example latency_sweep [PROGRAM] [WINDOW]
//! ```
//! where `PROGRAM` is one of the PERFECT names (default FLO52Q) and
//! `WINDOW` is the per-unit window size (default 32).

use dae::core::{LoweredTrace, TextTable};
use dae::{speedup, Machine, PerfectProgram, WindowSpec};

fn main() {
    let mut args = std::env::args().skip(1);
    let program = args
        .next()
        .and_then(|name| PerfectProgram::from_name(&name))
        .unwrap_or(PerfectProgram::Flo52q);
    let window: usize = args.next().and_then(|w| w.parse().ok()).unwrap_or(32);

    let trace = program.workload().trace(1000);
    let lowered = LoweredTrace::new(&trace);
    let cycles = |machine, md| lowered.machine_cycles(machine, WindowSpec::Entries(window), md);
    let perfect_dm = cycles(Machine::Decoupled, 0);
    let perfect_swsm = cycles(Machine::Superscalar, 0);

    println!(
        "Memory-differential sweep for {program} with {window}-entry windows ({} instructions)\n",
        trace.len()
    );

    let mut table = TextTable::new(vec![
        "md".into(),
        "scalar cycles".into(),
        "DM speedup".into(),
        "SWSM speedup".into(),
        "DM LHE".into(),
        "SWSM LHE".into(),
        "DM / SWSM".into(),
    ]);

    for md in [0u64, 10, 20, 30, 40, 50, 60, 80, 100] {
        let reference = cycles(Machine::Scalar, md);
        let dm = cycles(Machine::Decoupled, md);
        let swsm = cycles(Machine::Superscalar, md);
        table.push_row(vec![
            md.to_string(),
            reference.to_string(),
            format!("{:.1}", speedup(reference, dm)),
            format!("{:.1}", speedup(reference, swsm)),
            format!("{:.3}", perfect_dm as f64 / dm as f64),
            format!("{:.3}", perfect_swsm as f64 / swsm as f64),
            format!("{:.2}", swsm as f64 / dm as f64),
        ]);
    }

    println!("{table}");
    println!(
        "(LHE = execution time at MD=0 divided by execution time at the given MD, per machine.)"
    );
}
