//! Golden outputs: what the reproduction prints, pinned byte for byte.
//!
//! Each test runs one of this package's figure binaries at the paper
//! configuration and compares its stdout with a file under `goldens/`; one
//! more pins the structural `TraceHash` of the seven PERFECT traces at
//! `paper_config().iterations`.  A change that is meant to leave results
//! alone (a refactor, a deletion, a speed-up) must pass unchanged.  A change
//! that moves a result regenerates the golden with the command the failure
//! prints and says why in its change notes.

use dae_bench::paper_config;
use dae_core::LoweredTrace;
use dae_workloads::PerfectProgram;
use std::path::Path;
use std::process::Command;

/// Compares `actual` with the golden file `name`, naming the file, the first
/// differing line and how to regenerate it on a mismatch.
fn assert_golden(name: &str, actual: &str, regenerate: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("goldens")
        .join(name);
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read golden {}: {e}", path.display()));
    if actual == expected {
        return;
    }
    let mut expected_lines = expected.lines();
    let mut actual_lines = actual.lines();
    let mut line = 1;
    loop {
        match (expected_lines.next(), actual_lines.next()) {
            (Some(e), Some(a)) if e == a => line += 1,
            (e, a) => panic!(
                "{} differs at line {line}\n  golden: {}\n  actual: {}\nregenerate with:\n  {regenerate}",
                path.display(),
                e.unwrap_or("<end of file>"),
                a.unwrap_or("<end of output>"),
            ),
        }
    }
}

/// Runs a figure binary and compares its stdout with `goldens/<golden>`.
fn assert_binary_golden(exe: &str, bin: &str, args: &[&str], golden: &str) {
    let output = Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"));
    assert!(
        output.status.success(),
        "{bin} {args:?} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("figure output is UTF-8");
    let args = if args.is_empty() {
        String::new()
    } else {
        format!(" -- {}", args.join(" "))
    };
    let regenerate = format!(
        "cargo run --release -q -p dae-bench --bin {bin}{args} > crates/bench/goldens/{golden}"
    );
    assert_golden(golden, &stdout, &regenerate);
}

/// One test per pinned binary invocation.
macro_rules! golden_tests {
    ($($test:ident: $bin:literal [$($arg:literal),*] => $golden:literal;)*) => {
        $(
            #[test]
            fn $test() {
                assert_binary_golden(
                    env!(concat!("CARGO_BIN_EXE_", $bin)),
                    $bin,
                    &[$($arg),*],
                    $golden,
                );
            }
        )*
    };
}

golden_tests! {
    table1: "table1_lhe" ["--csv"] => "table1_lhe.csv";
    speedup_flo52q: "fig_speedup" ["flo52q", "--csv"] => "fig_speedup_flo52q.csv";
    speedup_mdg: "fig_speedup" ["mdg", "--csv"] => "fig_speedup_mdg.csv";
    speedup_track: "fig_speedup" ["track", "--csv"] => "fig_speedup_track.csv";
    ewr_flo52q: "fig_ewr" ["flo52q", "--csv"] => "fig_ewr_flo52q.csv";
    ewr_mdg: "fig_ewr" ["mdg", "--csv"] => "fig_ewr_mdg.csv";
    ewr_track: "fig_ewr" ["track", "--csv"] => "fig_ewr_track.csv";
    window_ratio_claim: "claim_window_ratio" [] => "claim_window_ratio.txt";
    ablation_bypass: "ablation_bypass" [] => "ablation_bypass.txt";
    ablation_complexity: "ablation_complexity" [] => "ablation_complexity.txt";
    ablation_resources: "ablation_resources" [] => "ablation_resources.txt";
}

#[test]
fn perfect_trace_hashes() {
    let iterations = paper_config().iterations;
    let actual: String = PerfectProgram::ALL
        .iter()
        .map(|program| {
            let trace = program.workload().trace(iterations);
            format!(
                "{} {}\n",
                program.name(),
                LoweredTrace::new(&trace).content_hash()
            )
        })
        .collect();
    assert_golden(
        "trace_hashes.txt",
        &actual,
        &format!("write these lines to crates/bench/goldens/trace_hashes.txt:\n{actual}"),
    );
}
