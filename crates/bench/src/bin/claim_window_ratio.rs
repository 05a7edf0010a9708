//! Checks the paper's §5/§6 headline claim across the whole suite: "to
//! achieve the same speedup as the DM, the SWSM needs a window 2x to 4x
//! larger" at a realistic DM window size and a 60-cycle memory differential.
//!
//! ```text
//! cargo run --release -p dae-bench --bin claim_window_ratio
//! ```

use dae_bench::paper_config;
use dae_core::{window_ratio_claim_in, SweepSession};

fn main() {
    let config = paper_config();
    // One session: the second claim reuses the suite's lowerings and the
    // SWSM search grid the first one simulated.
    let mut session = SweepSession::new();
    for dm_window in [32usize, 64] {
        let claim = window_ratio_claim_in(&mut session, &config, dm_window, 60);
        println!("{claim}\n");
        if let Some((min, max)) = claim.range() {
            println!(
                "=> at a {dm_window}-entry DM window the SWSM needs a {min:.1}x to {max:.1}x larger window (paper: roughly 2x-4x).\n"
            );
        }
    }
}
