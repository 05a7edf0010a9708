//! Lint configuration: which files each rule reads and the pinned
//! invariants it enforces.
//!
//! The defaults ([`LintConfig::workspace`]) encode the *live* workspace's
//! invariants — the designated hot regions of PR 3, the single-unsafe
//! census of PR 4, the serve request path of PR 5/6, the Fx-hashed hot
//! crates of PR 2 and the lock-bearing modules of PR 5–7.  The fixture
//! tests build custom configs over `crates/lint/fixtures/` instead, so
//! every rule is proven to fire without seeding violations in real code.

use std::path::PathBuf;

/// A designated allocation-free region: a file (suffix-matched against the
/// workspace-relative path) and the functions inside it that the hot-path
/// allocation rule scans.
#[derive(Debug, Clone)]
pub struct HotRegion {
    /// Workspace-relative file path (or unique suffix of one).
    pub file: String,
    /// The function names designated allocation-free in that file.
    pub functions: Vec<String>,
}

/// Everything the rules need to know about the tree under scrutiny.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// The directory the walk starts from (the workspace root, or a
    /// fixture directory in tests).
    pub root: PathBuf,
    /// Designated allocation-free regions (hot-path-alloc rule).
    pub hot_regions: Vec<HotRegion>,
    /// Files on the server request path (panic-path rule); suffix match.
    pub panic_path_files: Vec<String>,
    /// Path prefixes of the hot crates that must not use the default
    /// SipHash hasher (default-hasher rule).
    pub hasher_paths: Vec<String>,
    /// Path prefixes of the lock-bearing modules the lock-order rule
    /// analyses.
    pub lock_paths: Vec<String>,
    /// The pinned unsafe census: exactly these files may contain `unsafe`,
    /// with exactly these occurrence counts (unsafe-audit rule).
    pub unsafe_allowlist: Vec<(String, usize)>,
}

impl LintConfig {
    /// The live workspace configuration rooted at `root`.
    #[must_use]
    pub fn workspace(root: PathBuf) -> Self {
        let hot = |file: &str, functions: &[&str]| HotRegion {
            file: file.to_string(),
            functions: functions.iter().map(ToString::to_string).collect(),
        };
        LintConfig {
            root,
            // PR 3's allocation-free property: the engine run loops, the
            // scheduler's step/event/ready path, and the pooled sweep path.
            // `EventRing::grow` and the pool-fill paths are deliberately
            // NOT designated — they allocate by design (amortised growth /
            // cold-start), see docs/LINTS.md.
            hot_regions: vec![
                hot(
                    "crates/machines/src/engine.rs",
                    &["run_event", "run_event_single", "run_lockstep"],
                ),
                hot(
                    "crates/ooo/src/unit.rs",
                    &[
                        "step",
                        "process_events",
                        "evaluate",
                        "retire",
                        "unlink",
                        "dispatch",
                        "issue",
                        "complete_issue",
                        "is_ready",
                        "execute",
                        "next_activity",
                        "idle_advance",
                        "schedule_reeval",
                    ],
                ),
                hot(
                    "crates/ooo/src/calendar.rs",
                    &[
                        "push_complete",
                        "push_reeval",
                        "next_cycle",
                        "take_at",
                        "chain_next",
                        "advance_base",
                        "slot_for",
                        "mark",
                        "insert",
                        "remove",
                        "peek_ge",
                    ],
                ),
                hot(
                    "crates/machines/src/pool.rs",
                    &["take_unit", "put_unit", "consumer_counts"],
                ),
            ],
            // PR 5/6: a request must answer with an `error` line, not
            // unwind.
            panic_path_files: vec![
                "crates/serve/src/lib.rs".to_string(),
                "crates/serve/src/protocol.rs".to_string(),
                "crates/serve/src/server.rs".to_string(),
                "crates/serve/src/main.rs".to_string(),
                // The request lifecycle both serve backends share.
                "crates/serve/src/lifecycle.rs".to_string(),
                // PR 10: the coordinator forwards malformed backend bytes
                // through the same guarantee — count or ignore, never
                // unwind.
                "crates/serve/src/coordinator.rs".to_string(),
                // The coordinator's routing core parses backend lines: it
                // counts or ignores malformed ones, never unwinds.
                "crates/serve/src/route.rs".to_string(),
                // The bounded program table both serve backends consult
                // on every submission.
                "crates/serve/src/table.rs".to_string(),
                // PR 9: the persistent cache store must tolerate any
                // on-disk corruption without panicking.
                "crates/core/src/store.rs".to_string(),
            ],
            // PR 2: Fx hashing in the hot crates.
            hasher_paths: vec![
                "crates/ooo/src".to_string(),
                "crates/mem/src".to_string(),
                "crates/machines/src".to_string(),
            ],
            // PR 5-7: the three lock-bearing modules the server multiplexes.
            lock_paths: vec![
                "crates/serve/src".to_string(),
                "crates/core/src".to_string(),
                "vendor/rayon/src".to_string(),
            ],
            // The workspace carries no unsafe block; a new one must be
            // allowlisted here and in the census pin.
            unsafe_allowlist: Vec::new(),
        }
    }

    /// An empty config over `root`: only the workspace-wide rules (unsafe
    /// audit with an empty allowlist) apply.  Fixture tests start here.
    #[must_use]
    pub fn bare(root: PathBuf) -> Self {
        LintConfig {
            root,
            hot_regions: Vec::new(),
            panic_path_files: Vec::new(),
            hasher_paths: Vec::new(),
            lock_paths: Vec::new(),
            unsafe_allowlist: Vec::new(),
        }
    }
}
