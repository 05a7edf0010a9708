//! Rule `hot-path-alloc`: the designated hot regions must not allocate.
//!
//! PR 3 made the sweep hot path allocation-free and proved it dynamically
//! with reuse counters; this rule pins the property statically.  Each
//! [`HotRegion`](crate::config::HotRegion) names a file and the functions
//! inside it that run per-event or per-cycle; any allocating construct in
//! one of those bodies is a finding, and so is an `Arc::clone` /
//! `Rc::clone`: it allocates nothing, but its atomic (or plain) refcount
//! write lands on a cache line every clone of the pointer shares, so a
//! per-cycle clone of a program-wide list bounces that line between the
//! cores simulating the same program.  A designation that no longer matches
//! a function is *also* a finding ("stale hot-region designation"), so the
//! config cannot silently rot as code is renamed.

use crate::config::LintConfig;
use crate::diag::Diagnostic;
use crate::lexer::SourceFile;
use crate::rules::{suffix_match, Rule};

/// Shared-refcount writes: no allocation, but a store to the pointee's
/// count, which every clone of the pointer shares.
const REFCOUNT_PATTERNS: &[(&[&str], &str)] = &[
    (&["Arc", ":", ":", "clone"], "Arc::clone"),
    (&["Rc", ":", ":", "clone"], "Rc::clone"),
];

/// Allocating token sequences.  `::` lexes as two `:` puncts.
const PATTERNS: &[(&[&str], &str)] = &[
    (&["Vec", ":", ":", "new"], "Vec::new"),
    (&["Vec", ":", ":", "with_capacity"], "Vec::with_capacity"),
    (&["vec", "!"], "vec!"),
    (&["Box", ":", ":", "new"], "Box::new"),
    (&["format", "!"], "format!"),
    (&["String", ":", ":", "new"], "String::new"),
    (&["String", ":", ":", "from"], "String::from"),
    (&[".", "to_string", "("], ".to_string()"),
    (&[".", "to_owned", "("], ".to_owned()"),
    (&[".", "to_vec", "("], ".to_vec()"),
    (&[".", "collect", "("], ".collect()"),
    (&[".", "collect", ":", ":"], ".collect::<…>()"),
    (&["HashMap", ":", ":", "new"], "HashMap::new"),
    (
        &["HashMap", ":", ":", "with_capacity"],
        "HashMap::with_capacity",
    ),
    (&["HashSet", ":", ":", "new"], "HashSet::new"),
    (&["BTreeMap", ":", ":", "new"], "BTreeMap::new"),
];

/// The `hot-path-alloc` rule; see module docs.
#[derive(Debug, Default)]
pub(crate) struct HotAlloc {
    /// `(file pattern, function)` designations that matched a body.
    matched: Vec<(String, String)>,
}

impl Rule for HotAlloc {
    fn id(&self) -> &'static str {
        "hot-path-alloc"
    }

    fn check_file(&mut self, file: &SourceFile, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
        for region in &cfg.hot_regions {
            if !suffix_match(&file.path, &region.file) {
                continue;
            }
            for func in &region.functions {
                let bodies = file.function_bodies(func);
                if !bodies.is_empty() {
                    self.matched.push((region.file.clone(), func.clone()));
                }
                for (start, end) in bodies {
                    scan_body(file, func, start, end, out);
                }
            }
        }
    }

    fn finish(&mut self, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
        // Designations that never matched a function body are stale: the
        // function was renamed or removed and the guard silently lapsed.
        for region in &cfg.hot_regions {
            for func in &region.functions {
                let hit = self
                    .matched
                    .iter()
                    .any(|(f, g)| f == &region.file && g == func);
                if !hit {
                    out.push(Diagnostic::new(
                        &region.file,
                        1,
                        self.id(),
                        format!(
                            "stale hot-region designation: no function `{func}` found — \
                             update the designated hot regions in crates/lint/src/config.rs"
                        ),
                    ));
                }
            }
        }
    }
}

/// Scans one designated function body for allocating constructs.
fn scan_body(file: &SourceFile, func: &str, start: usize, end: usize, out: &mut Vec<Diagnostic>) {
    let mut i = start;
    while i < end {
        if file.tokens[i].test {
            i += 1;
            continue;
        }
        let matching = |patterns: &[(&[&str], &'static str)]| {
            patterns
                .iter()
                .find(|(pat, _)| file.match_seq(i, pat) && i + pat.len() <= end)
                .map(|&(_, name)| name)
        };
        let hit = matching(PATTERNS)
            .map(|name| format!("allocating construct `{name}`"))
            .or_else(|| {
                matching(REFCOUNT_PATTERNS).map(|name| format!("shared-refcount write `{name}`"))
            });
        if let Some(what) = hit {
            out.push(Diagnostic::new(
                &file.path,
                file.tokens[i].line,
                "hot-path-alloc",
                format!("{what} in designated hot region `{func}`"),
            ));
            // Skip past the match so `.collect::<…>` does not double-report
            // via the `.collect(` pattern.
            i += 2;
            continue;
        }
        i += 1;
    }
}
