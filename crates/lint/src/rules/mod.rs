//! The rule-trait pass infrastructure and the five shipped rules.

mod default_hasher;
mod hot_alloc;
mod lock_order;
mod panic_path;
mod unsafe_audit;

pub use unsafe_audit::census as unsafe_census;

use crate::config::LintConfig;
use crate::diag::Diagnostic;
use crate::lexer::SourceFile;

/// One lint pass.  The engine feeds every workspace file through
/// [`Rule::check_file`] and calls [`Rule::finish`] once at the end —
/// workspace-wide rules (the unsafe census, the lock graph) accumulate
/// state across files and report from `finish`.
pub(crate) trait Rule {
    /// The rule's id: its diagnostic tag and its `lint:allow(…)` key.
    fn id(&self) -> &'static str;

    /// Inspects one file, appending findings to `out`.
    fn check_file(&mut self, file: &SourceFile, cfg: &LintConfig, out: &mut Vec<Diagnostic>);

    /// Reports whatever needs the whole workspace seen first.
    fn finish(&mut self, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
        let _ = (cfg, out);
    }
}

/// The shipped rule set, in reporting order.
#[must_use]
pub(crate) fn all() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(hot_alloc::HotAlloc::default()),
        Box::new(unsafe_audit::UnsafeAudit::default()),
        Box::new(lock_order::LockOrder::default()),
        Box::new(default_hasher::DefaultHasher),
        Box::new(panic_path::PanicPath),
    ]
}

/// Whether `path` (workspace-relative, `/`-separated) matches `pat` as a
/// whole path or a path suffix on a component boundary.
pub(crate) fn suffix_match(path: &str, pat: &str) -> bool {
    path == pat || path.ends_with(&format!("/{pat}")) || path.ends_with(pat)
}

/// Whether `path` starts with `prefix` (on a component boundary) or
/// `prefix` is empty.
pub(crate) fn prefix_match(path: &str, prefix: &str) -> bool {
    prefix.is_empty()
        || path == prefix
        || path
            .strip_prefix(prefix)
            .is_some_and(|rest| rest.starts_with('/'))
}
