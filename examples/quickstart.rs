//! Quickstart: the paper's core comparison on one workload.
//!
//! Builds the MDG workload model, runs the access decoupled machine (DM),
//! the single-window superscalar (SWSM) and the scalar reference at a
//! realistic window size, and prints the headline numbers: execution time,
//! speedup, latency-hiding effectiveness and the DM's measured slippage.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use dae::machines::{
    DecoupledMachine, DmConfig, ScalarConfig, ScalarReference, SuperscalarMachine, SwsmConfig,
};
use dae::{speedup, PerfectProgram};

fn main() {
    let window = 32;
    let memory_differential = 60;
    let workload = PerfectProgram::Mdg.workload();
    let trace = workload.trace(1000);

    println!("workload : {workload}");
    println!(
        "trace    : {} instructions ({} loads, {} stores)",
        trace.len(),
        trace.stats().loads,
        trace.stats().stores
    );
    println!(
        "machine  : {window}-entry windows, memory differential {memory_differential} cycles\n"
    );

    // The scalar reference defines the common speedup denominator.
    let reference =
        ScalarReference::new(ScalarConfig::new(memory_differential)).analytic_cycles(&trace);

    // The access decoupled machine.
    let dm_cfg = DmConfig::paper(window, memory_differential);
    let dm = DecoupledMachine::new(dm_cfg).run(&trace);
    let dm_perfect = DecoupledMachine::new(DmConfig::paper(window, 0)).run(&trace);

    // The single-window superscalar with hybrid prefetching.
    let swsm_cfg = SwsmConfig::paper(window, memory_differential);
    let swsm = SuperscalarMachine::new(swsm_cfg).run(&trace);
    let swsm_perfect = SuperscalarMachine::new(SwsmConfig::paper(window, 0)).run(&trace);

    println!("scalar reference : {reference} cycles");
    println!(
        "DM               : {} cycles  (speedup {:.1}x, LHE {:.3})",
        dm.cycles(),
        speedup(reference, dm.cycles()),
        dm_perfect.cycles() as f64 / dm.cycles() as f64,
    );
    println!(
        "SWSM             : {} cycles  (speedup {:.1}x, LHE {:.3})",
        swsm.cycles(),
        speedup(reference, swsm.cycles()),
        swsm_perfect.cycles() as f64 / swsm.cycles() as f64,
    );

    println!("\n-- decoupled machine internals --");
    println!(
        "AU issue utilisation {:.2}, DU issue utilisation {:.2}",
        dm.au.issue_utilization(),
        dm.du.issue_utilization()
    );
    println!(
        "slippage: avg {:.0} / max {} architectural instructions (effective single window avg {:.0}, max {})",
        dm.esw.avg_slip, dm.esw.max_slip, dm.esw.avg_esw, dm.esw.max_esw
    );
    println!(
        "partition: {} AU + {} DU instructions, {} AU self loads, {} loss-of-decoupling copies",
        dm.partition.au_instructions,
        dm.partition.du_instructions,
        dm.partition.au_self_loads,
        dm.partition.copies_du_to_au
    );
    println!(
        "decoupled memory: {} load requests, peak occupancy {}, values buffered {:.1} cycles on average",
        dm.memory.load_requests,
        dm.memory.peak_occupancy,
        dm.memory.buffered_cycles as f64 / dm.memory.consumed.max(1) as f64
    );

    println!("\n-- superscalar internals --");
    println!(
        "issue utilisation {:.2}, window pressure {:.2}",
        swsm.unit.issue_utilization(),
        swsm.unit.window_pressure()
    );
    println!(
        "prefetch buffer: {} prefetches, {} hits, {} misses, peak occupancy {}",
        swsm.buffer.prefetches, swsm.buffer.hits, swsm.buffer.misses, swsm.buffer.peak_occupancy
    );

    println!(
        "\nConclusion: at a {window}-entry window and MD = {memory_differential}, the DM runs {:.1}x faster than the SWSM.",
        swsm.cycles() as f64 / dm.cycles() as f64
    );
}
