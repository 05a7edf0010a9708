//! Rule `default-hasher`: no default-hashed `HashMap`/`HashSet` in the
//! hot crates.
//!
//! PR 2 replaced SipHash with the Fx hasher on the per-access paths
//! (`dae-mem`'s prefetch scratch and LRU, and everything layered on them)
//! for a measured double-digit throughput win.  This rule keeps the
//! mandate: inside the configured hasher paths, any non-test use of the
//! `HashMap`/`HashSet` identifiers is a finding *unless* the type names an
//! explicit hasher parameter (`HashMap<K, V, FxBuildHasher>` — which is
//! exactly how `dae-mem::fx` defines `FxHashMap` in the first place).

use crate::config::LintConfig;
use crate::diag::Diagnostic;
use crate::lexer::SourceFile;
use crate::rules::{prefix_match, Rule};

/// The `default-hasher` rule; see module docs.
#[derive(Debug, Default)]
pub(crate) struct DefaultHasher;

impl Rule for DefaultHasher {
    fn id(&self) -> &'static str {
        "default-hasher"
    }

    fn check_file(&mut self, file: &SourceFile, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
        if !cfg.hasher_paths.iter().any(|p| prefix_match(&file.path, p)) {
            return;
        }
        for (i, tok) in file.tokens.iter().enumerate() {
            if tok.test {
                continue;
            }
            let (name, hashed_params) = match tok.text.as_str() {
                // HashMap<K, V, S> / HashSet<T, S>: the hasher is the
                // 3rd / 2nd generic parameter.
                "HashMap" => ("HashMap", 3),
                "HashSet" => ("HashSet", 2),
                _ => continue,
            };
            if has_explicit_hasher(file, i, hashed_params) {
                continue;
            }
            out.push(Diagnostic::new(
                &file.path,
                tok.line,
                self.id(),
                format!(
                    "default-hashed `{name}` in a hot crate — use `dae_mem::FxHashMap` \
                     (or pass an explicit hasher) per the PR 2 Fx mandate"
                ),
            ));
        }
    }
}

/// Whether the `HashMap`/`HashSet` ident at `i` is followed by a generic
/// argument list supplying at least `want` top-level parameters (i.e. an
/// explicit hasher).
fn has_explicit_hasher(file: &SourceFile, i: usize, want: usize) -> bool {
    let Some(next) = file.tokens.get(i + 1) else {
        return false;
    };
    if next.text != "<" {
        // `HashMap::new`, a bare import, `HashMap::default()` — all
        // default-hashed.
        return false;
    }
    let mut depth = 0usize;
    let mut params = 1usize;
    for tok in &file.tokens[i + 1..] {
        match tok.text.as_str() {
            "<" => depth += 1,
            ">" => {
                depth -= 1;
                if depth == 0 {
                    return params >= want;
                }
            }
            "," if depth == 1 => params += 1,
            _ => {}
        }
    }
    false
}
