//! Ablation A: issue-logic complexity.
//!
//! The paper argues (citing Palacharla, Jouppi & Smith) that because
//! issue-logic delay grows quadratically with window size and issue width, a
//! decoupled machine that matches a superscalar with two *small* windows
//! also wins on cycle time.  This ablation quantifies that claim for the
//! measured equivalent windows: for each representative program and several
//! DM window sizes it reports the SWSM window needed for performance parity
//! and the resulting issue-logic delay ratio.
//!
//! ```text
//! cargo run --release -p dae-bench --bin ablation_complexity
//! ```

use dae_bench::paper_config;
use dae_core::{Machine, SweepPoint, SweepSession, TextTable, WindowCurve, WindowSpec};
use dae_machines::{PAPER_AU_ISSUE_WIDTH, PAPER_DU_ISSUE_WIDTH, PAPER_SWSM_ISSUE_WIDTH};
use dae_ooo::IssueLogicModel;
use dae_workloads::PerfectProgram;

fn main() {
    let config = paper_config();
    let model = IssueLogicModel::default();
    let md = 60;

    let mut table = TextTable::new(vec![
        "program".into(),
        "DM window".into(),
        "SWSM window for parity".into(),
        "window ratio".into(),
        "issue-delay ratio".into(),
    ]);

    let dm_windows = [16usize, 32, 64];
    let search = &config.equivalence_search_windows;
    let mut session = SweepSession::new();
    let ids = session.pin_programs(&PerfectProgram::REPRESENTATIVE, config.iterations);
    for (program, id) in PerfectProgram::REPRESENTATIVE.into_iter().zip(ids) {
        // The SWSM search grid, then the DM windows, in one sweep.
        let point = |machine, w| (id, machine, WindowSpec::Entries(w), md);
        let mut points: Vec<SweepPoint> = search
            .iter()
            .map(|&w| point(Machine::Superscalar, w))
            .collect();
        points.extend(dm_windows.iter().map(|&w| point(Machine::Decoupled, w)));
        let cycles = session.sweep_multi(&points);
        let (swsm, dm) = cycles.split_at(search.len());
        let curve = WindowCurve::new(search.iter().copied().zip(swsm.iter().copied()).collect());
        for (&dm_window, &dm) in dm_windows.iter().zip(dm) {
            match curve.window_for_cycles(dm) {
                Some(swsm_window) => {
                    let ratio = swsm_window / dm_window as f64;
                    let delay_ratio = model.relative_delay(
                        swsm_window.ceil() as usize,
                        PAPER_SWSM_ISSUE_WIDTH,
                        dm_window,
                        PAPER_AU_ISSUE_WIDTH,
                        dm_window,
                        PAPER_DU_ISSUE_WIDTH,
                    );
                    table.push_row(vec![
                        program.name().to_string(),
                        dm_window.to_string(),
                        format!("{swsm_window:.0}"),
                        format!("{ratio:.2}"),
                        format!("{delay_ratio:.2}"),
                    ]);
                }
                None => table.push_row(vec![
                    program.name().to_string(),
                    dm_window.to_string(),
                    "> search grid".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                ]),
            }
        }
    }

    println!("Issue-logic complexity ablation (MD = {md}, quadratic delay model)\n");
    println!("{table}");
    println!(
        "\nA delay ratio above 1 means the performance-equivalent SWSM needs slower issue\n\
         logic than the DM's two small windows — the paper's complexity-effectiveness argument."
    );
}
