//! Regenerates **figures 7–9** of the paper: the equivalent window ratio —
//! the SWSM window size needed to match the DM's performance, expressed as a
//! multiple of the DM window size — against the DM window size, for memory
//! differentials from 0 to 60 cycles.
//!
//! ```text
//! cargo run --release -p dae-bench --bin fig_ewr -- [flo52q|mdg|track] [--csv]
//! ```

use dae_bench::{paper_config, program_from_args};
use dae_core::{equivalent_window_figure_in, SweepSession};
use dae_workloads::PerfectProgram;

fn main() {
    let csv = std::env::args().any(|a| a == "--csv");
    let program = program_from_args(PerfectProgram::Flo52q);
    let config = paper_config();

    let figure = equivalent_window_figure_in(&mut SweepSession::new(), program, &config);
    if csv {
        print!("{}", figure.to_csv());
        return;
    }
    println!("{figure}");
    println!(
        "\nPaper reference (qualitative): the ratio grows as the memory differential grows\n\
         and shrinks as the DM window grows; at a realistic DM window and MD=60 the SWSM\n\
         needs a window a few times larger.  ('-' marks points where even the largest\n\
         window in the search grid was not enough.)"
    );
}
