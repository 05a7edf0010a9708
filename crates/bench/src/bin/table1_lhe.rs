//! Regenerates **Table 1** of the paper: the latency-hiding effectiveness of
//! the access decoupled machine for all seven PERFECT workload models at a
//! memory differential of 60 cycles, across DM window sizes up to the
//! unlimited window.
//!
//! ```text
//! cargo run --release -p dae-bench --bin table1_lhe [--csv]
//! ```

use dae_bench::paper_config;
use dae_core::{table1_in, SweepSession};

fn main() {
    let csv = std::env::args().any(|a| a == "--csv");
    let mut config = paper_config();
    config.dm_windows = vec![8, 16, 32, 64, 128, 256];

    let table = table1_in(&mut SweepSession::new(), &config, 60);
    if csv {
        print!("{}", table.to_csv());
    } else {
        println!("{table}");
        println!(
            "\nPaper reference (qualitative): the seven programs fall into three bands — high\n\
             (TRFD, ADM, FLO52Q), moderate (DYFESM, QCD, MDG) and poor (TRACK) — and the LHE\n\
             at realistic windows stays well below the unlimited-window LHE."
        );
    }
}
