//! # dae-bench — the experiment binaries
//!
//! The binaries in `src/bin/` regenerate the paper's tables and figures
//! and print them in the same rows/series shape the paper reports:
//!
//! ```text
//! cargo run --release -p dae-bench --bin table1_lhe
//! cargo run --release -p dae-bench --bin fig_speedup -- flo52q
//! cargo run --release -p dae-bench --bin fig_ewr -- mdg
//! cargo run --release -p dae-bench --bin claim_window_ratio
//! cargo run --release -p dae-bench --bin ablation_complexity
//! cargo run --release -p dae-bench --bin ablation_resources
//! cargo run --release -p dae-bench --bin ablation_bypass
//! ```
//!
//! This library part only provides the small amount of shared plumbing the
//! binaries need: argument parsing and the paper-scale experiment
//! configuration.  The repository benchmark (`perfbench/`) times the same
//! figures at the same configuration.

use dae_core::ExperimentConfig;
use dae_workloads::PerfectProgram;

/// The experiment configuration used by the figure/table binaries (and
/// timed by the repository benchmark): full window grids, the memory
/// differentials 0–60 in steps of 10, 800-iteration traces.
#[must_use]
pub fn paper_config() -> ExperimentConfig {
    ExperimentConfig {
        iterations: 800,
        dm_windows: vec![4, 8, 16, 24, 32, 48, 64, 80, 96, 128],
        swsm_windows: vec![4, 8, 16, 24, 32, 48, 64, 80, 96, 128],
        equivalence_search_windows: vec![
            8, 16, 24, 32, 48, 64, 80, 96, 128, 160, 192, 256, 320, 384, 448, 512, 640, 768,
        ],
        memory_differentials: vec![0, 10, 20, 30, 40, 50, 60],
    }
}

/// Resolves an optional program name to a [`PerfectProgram`].
///
/// # Errors
///
/// Returns a message listing the valid names when `name` is not recognised.
pub(crate) fn resolve_program(
    name: Option<&str>,
    fallback: PerfectProgram,
) -> Result<PerfectProgram, String> {
    match name {
        None => Ok(fallback),
        Some(name) => PerfectProgram::from_name(name).ok_or_else(|| {
            format!(
                "unknown program '{name}'; expected one of: {}",
                PerfectProgram::ALL
                    .iter()
                    .map(|p| p.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        }),
    }
}

/// Parses the first command-line argument as a PERFECT program name,
/// defaulting to `fallback` when absent, and exiting with a helpful message
/// when the name is unknown.
#[must_use]
pub fn program_from_args(fallback: PerfectProgram) -> PerfectProgram {
    let arg = std::env::args().nth(1);
    match resolve_program(arg.as_deref(), fallback) {
        Ok(program) => program,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_are_consistent() {
        let cfg = paper_config();
        assert!(cfg.iterations > 0);
        assert!(!cfg.dm_windows.is_empty());
        assert!(!cfg.memory_differentials.is_empty());
        assert!(cfg.memory_differentials.contains(&0));
        assert!(cfg.memory_differentials.contains(&60));
        assert!(cfg.equivalence_search_windows.last().unwrap() >= cfg.dm_windows.last().unwrap());
    }

    #[test]
    fn program_resolution() {
        assert_eq!(
            resolve_program(None, PerfectProgram::Track),
            Ok(PerfectProgram::Track)
        );
        assert_eq!(
            resolve_program(Some("mdg"), PerfectProgram::Track),
            Ok(PerfectProgram::Mdg)
        );
        assert!(resolve_program(Some("nosuch"), PerfectProgram::Track).is_err());
    }
}
