//! Regenerates **figures 4–6** of the paper: speedup against window size for
//! the DM and the SWSM at memory differentials of 0 and 60 cycles.
//!
//! ```text
//! cargo run --release -p dae-bench --bin fig_speedup -- [flo52q|mdg|track] [--csv]
//! ```
//!
//! FLO52Q reproduces figure 4, MDG figure 5 and TRACK figure 6; any other
//! PERFECT program name is also accepted.

use dae_bench::{paper_config, program_from_args};
use dae_core::{speedup_figure_in, SweepSession};
use dae_workloads::PerfectProgram;

fn main() {
    let csv = std::env::args().any(|a| a == "--csv");
    let program = program_from_args(PerfectProgram::Flo52q);
    let config = paper_config();

    let figure = speedup_figure_in(&mut SweepSession::new(), program, &config, &[0, 60]);
    if csv {
        print!("{}", figure.to_csv());
        return;
    }
    println!("{figure}");
    for md in [0u64, 60] {
        match figure.crossover_window(md) {
            Some(w) => {
                println!("MD={md}: the SWSM catches the DM at a window of about {w} entries.")
            }
            None => println!("MD={md}: the DM stays ahead over the whole sweep."),
        }
    }
    println!(
        "\nPaper reference (qualitative): the DM wins at small windows; at MD=0 the SWSM\n\
         eventually overtakes thanks to its unified issue width; at MD=60 there is no\n\
         crossover and the gap is largest for the highly parallel FLO52Q and smallest for TRACK."
    );
}
