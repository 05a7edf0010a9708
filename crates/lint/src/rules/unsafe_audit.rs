//! Rule `unsafe-audit`: every `unsafe` carries a `SAFETY:` comment, and
//! the workspace unsafe census is pinned to an allowlist.
//!
//! The workspace has no `unsafe` (the vendored rayon pool, whose
//! lifetime-erasure block once was the whole unsafe surface, now forbids
//! it), and `docs/LINTS.md` / the vendor README assert as much.  This rule
//! turns the assertion into a gate:
//!
//! * any `unsafe` without a `SAFETY:` comment within the 3 lines above it
//!   (or on its own line) is a finding;
//! * any file containing `unsafe` that is not on the allowlist — or whose
//!   occurrence count differs from the pinned count — is a finding;
//! * an allowlist entry that no longer matches anything is a stale-pin
//!   finding, so the list cannot over-claim either.

use crate::config::LintConfig;
use crate::diag::Diagnostic;
use crate::lexer::SourceFile;
use crate::rules::Rule;

/// How many lines above an `unsafe` token the `SAFETY:` comment may sit.
const SAFETY_WINDOW: u32 = 3;

/// The `unsafe-audit` rule; see module docs.
#[derive(Debug, Default)]
pub(crate) struct UnsafeAudit {
    /// Per-file `unsafe` occurrence counts, in walk order.
    counts: Vec<(String, usize)>,
}

impl Rule for UnsafeAudit {
    fn id(&self) -> &'static str {
        "unsafe-audit"
    }

    fn check_file(&mut self, file: &SourceFile, _cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
        let mut count = 0usize;
        for tok in &file.tokens {
            // The lexer emits `unsafe_code` (the lint name in attributes)
            // as a single distinct ident, so this matches only the keyword.
            if tok.text != "unsafe" {
                continue;
            }
            count += 1;
            if !has_safety_comment(file, tok.line) {
                out.push(Diagnostic::new(
                    &file.path,
                    tok.line,
                    self.id(),
                    format!("`unsafe` without a `SAFETY:` comment within {SAFETY_WINDOW} lines"),
                ));
            }
        }
        if count > 0 {
            self.counts.push((file.path.clone(), count));
        }
    }

    fn finish(&mut self, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
        for (path, count) in &self.counts {
            match cfg.unsafe_allowlist.iter().find(|(p, _)| p == path) {
                None => out.push(Diagnostic::new(
                    path,
                    1,
                    self.id(),
                    format!(
                        "file contains {count} `unsafe` occurrence(s) but is not on the \
                         unsafe allowlist — allowlist it deliberately in \
                         crates/lint/src/config.rs with a reviewed soundness argument"
                    ),
                )),
                Some((_, pinned)) if pinned != count => out.push(Diagnostic::new(
                    path,
                    1,
                    self.id(),
                    format!(
                        "unsafe census drift: {count} occurrence(s) found, allowlist pins \
                         {pinned}"
                    ),
                )),
                Some(_) => {}
            }
        }
        for (path, pinned) in &cfg.unsafe_allowlist {
            if !self.counts.iter().any(|(p, _)| p == path) {
                out.push(Diagnostic::new(
                    path,
                    1,
                    self.id(),
                    format!(
                        "stale unsafe allowlist entry: pins {pinned} occurrence(s) but the \
                         file contains none — remove the entry"
                    ),
                ));
            }
        }
    }
}

/// Whether a `SAFETY:` comment covers the `unsafe` on `line`: either
/// directly within the window, or anywhere in a contiguous comment block
/// whose tail reaches into the window (a long soundness argument keeps its
/// `SAFETY:` tag on the first line).
fn has_safety_comment(file: &SourceFile, line: u32) -> bool {
    let from = line.saturating_sub(SAFETY_WINDOW);
    if file.comment_in_range_contains(from, line, "SAFETY:") {
        return true;
    }
    // Walk upward through the contiguous comment block from the highest
    // commented line inside the window.
    let mut l = (from..=line)
        .rev()
        .find(|l| file.comments_on(*l).next().is_some());
    while let Some(cur) = l {
        if file.comments_on(cur).any(|t| t.contains("SAFETY:")) {
            return true;
        }
        l = (cur > 1 && file.comments_on(cur - 1).next().is_some()).then(|| cur - 1);
    }
    false
}

/// The workspace unsafe census: `(path, occurrence count)` for every file
/// containing the `unsafe` keyword, sorted by path.  Exposed so the census
/// pin test can assert the exact workspace-wide surface.
#[must_use]
pub fn census(files: &[SourceFile]) -> Vec<(String, usize)> {
    let mut counts: Vec<(String, usize)> = files
        .iter()
        .filter_map(|f| {
            let n = f.tokens.iter().filter(|t| t.text == "unsafe").count();
            (n > 0).then(|| (f.path.clone(), n))
        })
        .collect();
    counts.sort();
    counts
}
