//! The self-check and the census pin: `cargo test` alone catches drift.

use std::path::PathBuf;

use dae_lint::LintConfig;

/// The repository root (two levels up from this crate's manifest).
fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(PathBuf::from)
        .expect("crates/lint sits two levels below the workspace root")
}

/// The linter must run clean over the live workspace — a finding anywhere
/// (or a heuristic regression producing a false positive) fails the test
/// suite, not just the separate CI lint step.
#[test]
fn live_workspace_is_clean() {
    let cfg = LintConfig::workspace(workspace_root());
    let findings = dae_lint::run(&cfg);
    assert!(
        findings.is_empty(),
        "dae-lint found {} issue(s) in the live workspace:\n{}",
        findings.len(),
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// `vendor/README.md` and `docs/LINTS.md` claim the workspace carries no
/// `unsafe` block.  Pin the census so the claim is enforced, not asserted:
/// any new `unsafe` fails here with the exact file list.
#[test]
fn unsafe_census_is_pinned() {
    let files = dae_lint::lex_workspace(&workspace_root());
    let census = dae_lint::unsafe_census(&files);
    assert_eq!(
        census,
        Vec::<(String, usize)>::new(),
        "the workspace unsafe census drifted; update the allowlist in \
         crates/lint/src/config.rs and the docs only after review"
    );
}
