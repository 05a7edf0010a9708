//! Rule `panic-path`: no panicking constructs on the server request path.
//!
//! PR 6's fault-tolerance contract is that a request answers with an
//! `error` line — it never unwinds the connection thread.  This rule flags
//! every non-test `.unwrap()` / `.expect(` / `panic!` / `unreachable!` in
//! the configured request-path files; each site must either be rewritten
//! as a structured error or carry a reasoned `lint:allow(panic-path)`.

use crate::config::LintConfig;
use crate::diag::Diagnostic;
use crate::lexer::SourceFile;
use crate::rules::{suffix_match, Rule};

/// Panicking token sequences.
const PATTERNS: &[(&[&str], &str)] = &[
    (&[".", "unwrap", "(", ")"], ".unwrap()"),
    (&[".", "expect", "("], ".expect(…)"),
    (&["panic", "!"], "panic!"),
    (&["unreachable", "!"], "unreachable!"),
];

/// The `panic-path` rule; see module docs.
#[derive(Debug, Default)]
pub(crate) struct PanicPath;

impl Rule for PanicPath {
    fn id(&self) -> &'static str {
        "panic-path"
    }

    fn check_file(&mut self, file: &SourceFile, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
        if !cfg
            .panic_path_files
            .iter()
            .any(|p| suffix_match(&file.path, p))
        {
            return;
        }
        for (i, tok) in file.tokens.iter().enumerate() {
            if tok.test {
                continue;
            }
            for (pat, name) in PATTERNS {
                if file.match_seq(i, pat) {
                    out.push(Diagnostic::new(
                        &file.path,
                        tok.line,
                        self.id(),
                        format!(
                            "`{name}` on the serve request path — answer with a structured \
                             `error` reply instead, or suppress with a written reason"
                        ),
                    ));
                    break;
                }
            }
        }
    }
}
