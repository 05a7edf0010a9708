//! Rule `lock-order`: build the workspace lock graph and report cycles.
//!
//! The server multiplexes three lock-bearing modules (PRs 5–7): the serve
//! `ServerState` (with its program table), the session result cache and
//! the vendored rayon scheduler.  Their acquisition order is pure convention;
//! this rule makes it checkable.  Per function it extracts `Mutex` /
//! `RwLock` acquisitions, tracks acquired-while-held pairs through lexical
//! scopes plus one level of intra-crate call resolution, builds the
//! directed lock graph, and reports every cycle as a potential deadlock.
//! It also flags bare `.lock().unwrap()` — the workspace convention is
//! poison recovery (`unwrap_or_else(PoisonError::into_inner)`) or an
//! `.expect` with a message.
//!
//! The scope model is a deliberate approximation (this is a linter, not a
//! borrow checker):
//!
//! * a lock chain that terminates a `let` initializer is a guard held to
//!   the end of the enclosing block (released early by `drop(name)`);
//! * a chain that keeps going (`.lock().expect(…).push(x)`) is a
//!   temporary, released at the next `;` at its own depth;
//! * closures handed to `spawn` / `spawn_prioritized` run on another
//!   thread later, so the held set is empty inside them (otherwise the
//!   pool's `ensure_workers` — which spawns `worker_loop` while holding
//!   the handle list — would manufacture a false cycle);
//! * `.read()` / `.write()` count only when the receiver is a declared
//!   `RwLock` (so `io::Write::write` never matches), and a chain hanging
//!   off a call result (`stdin().lock()`) is not a `Mutex` acquisition;
//! * call resolution covers `self.f(…)` / `Self::f(…)` / bare `f(…)` to
//!   functions in the same crate — method calls on other objects are left
//!   unresolved so that iterator adapters like `.map(…)` never resolve to
//!   an unrelated lock-taking method of the same name.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use crate::config::LintConfig;
use crate::diag::Diagnostic;
use crate::lexer::{SourceFile, TokKind};
use crate::rules::{prefix_match, Rule};

/// How long a held lock lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scope {
    /// A temporary: released at the next `;` (or when its block closes).
    Stmt(i32),
    /// A `let`-bound guard: released when the block at this depth closes.
    Block(i32),
}

/// One currently-held lock during a function scan.
#[derive(Debug, Clone)]
struct Held {
    /// Crate-qualified lock id (`serve::state`, `rayon::sleep`, …).
    id: String,
    /// Release point.
    scope: Scope,
    /// The `let` binding name, for `drop(name)` release.
    bind: Option<String>,
}

/// One function slated for analysis.
#[derive(Debug)]
struct Func {
    file_idx: usize,
    crate_name: String,
    name: String,
    start: usize,
    end: usize,
}

/// The `lock-order` rule; see module docs.
#[derive(Debug, Default)]
pub(crate) struct LockOrder {
    /// Lock-path files, retained for whole-workspace analysis in `finish`.
    files: Vec<SourceFile>,
}

impl Rule for LockOrder {
    fn id(&self) -> &'static str {
        "lock-order"
    }

    fn check_file(&mut self, file: &SourceFile, cfg: &LintConfig, _out: &mut Vec<Diagnostic>) {
        if cfg.lock_paths.iter().any(|p| prefix_match(&file.path, p)) {
            self.files.push(file.clone());
        }
    }

    fn finish(&mut self, _cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
        let rwlocks = rwlock_names(&self.files);
        let funcs = collect_functions(&self.files);

        // Pass 1: each function's direct acquisitions, keyed by
        // (crate, name) for one-level call resolution.
        let mut direct: HashMap<(String, String), Vec<String>> = HashMap::new();
        for f in &funcs {
            let mut acq = Vec::new();
            scan(
                &self.files[f.file_idx],
                f,
                &rwlocks,
                None,
                &mut acq,
                &mut Vec::new(),
                &mut Vec::new(),
            );
            let entry = direct
                .entry((f.crate_name.clone(), f.name.clone()))
                .or_default();
            for (id, _) in acq {
                if !entry.contains(&id) {
                    entry.push(id);
                }
            }
        }

        // Pass 2: acquired-while-held edges, with calls resolved.
        let mut edges: Vec<(String, String, String, u32)> = Vec::new();
        for f in &funcs {
            scan(
                &self.files[f.file_idx],
                f,
                &rwlocks,
                Some(&direct),
                &mut Vec::new(),
                &mut edges,
                out,
            );
        }

        // Self-edges are re-acquisitions: an immediate deadlock with
        // std's non-reentrant Mutex.
        let mut evidence: HashMap<(String, String), (String, u32)> = HashMap::new();
        let mut graph: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for (from, to, path, line) in edges {
            if from == to {
                out.push(Diagnostic::new(
                    &path,
                    line,
                    self.id(),
                    format!("lock `{from}` acquired while already held (self-deadlock)"),
                ));
                continue;
            }
            evidence
                .entry((from.clone(), to.clone()))
                .or_insert((path, line));
            graph.entry(from).or_default().insert(to);
        }

        for cycle in find_cycles(&graph) {
            let chain = cycle
                .iter()
                .chain(cycle.first())
                .cloned()
                .collect::<Vec<_>>()
                .join(" → ");
            let sites: Vec<String> = cycle
                .iter()
                .zip(cycle.iter().cycle().skip(1))
                .filter_map(|(a, b)| evidence.get(&(a.clone(), b.clone())))
                .map(|(p, l)| format!("{p}:{l}"))
                .collect();
            let (path, line) = evidence
                .get(&(cycle[0].clone(), cycle[1 % cycle.len()].clone()))
                .cloned()
                .unwrap_or_else(|| (cycle[0].clone(), 1));
            out.push(Diagnostic::new(
                &path,
                line,
                self.id(),
                format!(
                    "potential deadlock: lock-order cycle {chain} (acquisition sites: {})",
                    sites.join(", ")
                ),
            ));
        }
    }
}

/// The crate a workspace-relative path belongs to (`crates/serve/…` →
/// `serve`, `vendor/rayon/…` → `rayon`, `src/…` → `dae`).
fn crate_of(path: &str) -> String {
    let mut parts = path.split('/');
    match parts.next() {
        Some("crates" | "vendor") => parts.next().unwrap_or("dae").to_string(),
        Some("src") => "dae".to_string(),
        _ => "dae".to_string(),
    }
}

/// Every field or binding declared as an `RwLock`, across all files.
fn rwlock_names(files: &[SourceFile]) -> HashSet<String> {
    let mut names = HashSet::new();
    for file in files {
        for i in 0..file.tokens.len() {
            // `name: RwLock<…>` (struct field / param).
            if file.tokens[i].kind == TokKind::Ident && file.match_seq(i + 1, &[":", "RwLock", "<"])
            {
                names.insert(file.tokens[i].text.clone());
            }
            // `let [mut] name = RwLock::new(…)`.
            if file.tokens[i].text == "let" {
                let mut j = i + 1;
                if file.tokens.get(j).is_some_and(|t| t.text == "mut") {
                    j += 1;
                }
                if file.tokens.get(j).is_some_and(|t| t.kind == TokKind::Ident)
                    && file.match_seq(j + 1, &["=", "RwLock", ":", ":", "new"])
                {
                    names.insert(file.tokens[j].text.clone());
                }
            }
        }
    }
    names
}

/// Enumerates every non-test function body in the retained files.
fn collect_functions(files: &[SourceFile]) -> Vec<Func> {
    let mut funcs = Vec::new();
    for (file_idx, file) in files.iter().enumerate() {
        let crate_name = crate_of(&file.path);
        let mut i = 0;
        while i + 1 < file.tokens.len() {
            if file.tokens[i].text == "fn"
                && !file.tokens[i].test
                && file.tokens[i + 1].kind == TokKind::Ident
            {
                let name = file.tokens[i + 1].text.clone();
                let mut j = i + 2;
                let mut nest = 0usize;
                while j < file.tokens.len() && file.tokens[j].text != "{" {
                    match file.tokens[j].text.as_str() {
                        "(" | "[" => nest += 1,
                        ")" | "]" => nest = nest.saturating_sub(1),
                        ";" if nest == 0 => break,
                        _ => {}
                    }
                    j += 1;
                }
                if j < file.tokens.len() && file.tokens[j].text == "{" {
                    let end = file.matching_brace_end(j);
                    funcs.push(Func {
                        file_idx,
                        crate_name: crate_name.clone(),
                        name,
                        start: j + 1,
                        end: end.saturating_sub(1),
                    });
                    i = end;
                    continue;
                }
            }
            i += 1;
        }
    }
    funcs
}

/// Index just past the `)` matching the `(` at `open`.
fn matching_paren_end(file: &SourceFile, open: usize) -> usize {
    let mut depth = 0usize;
    for (i, tok) in file.tokens.iter().enumerate().skip(open) {
        match tok.text.as_str() {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
    }
    file.tokens.len()
}

/// Scans one function body.  With `resolve` set (pass 2) it records
/// acquired-while-held `edges` and bare-unwrap findings in `diags`;
/// without (pass 1) it only collects direct `acquisitions`.
#[allow(clippy::too_many_lines)]
fn scan(
    file: &SourceFile,
    f: &Func,
    rwlocks: &HashSet<String>,
    resolve: Option<&HashMap<(String, String), Vec<String>>>,
    acquisitions: &mut Vec<(String, u32)>,
    edges: &mut Vec<(String, String, String, u32)>,
    diags: &mut Vec<Diagnostic>,
) {
    let toks = &file.tokens;
    let mut holds: Vec<Held> = Vec::new();
    let mut barriers: Vec<(i32, Vec<Held>)> = Vec::new();
    let mut brace: i32 = 0;
    let mut paren: i32 = 0;
    let mut stmt_let: Option<String> = None;
    let mut i = f.start;

    while i < f.end {
        let t = &toks[i];
        match t.text.as_str() {
            "{" => {
                brace += 1;
                stmt_let = None;
            }
            "}" => {
                brace -= 1;
                holds.retain(|h| match h.scope {
                    Scope::Block(d) | Scope::Stmt(d) => d <= brace,
                });
                stmt_let = None;
            }
            "(" => paren += 1,
            ")" => {
                paren -= 1;
                // Leaving a spawn call: the closure ran with an empty held
                // set; restore the caller's.
                while barriers.last().is_some_and(|(d, _)| *d == paren) {
                    let (_, saved) = barriers.pop().expect("just checked");
                    holds = saved;
                }
            }
            ";" => {
                holds.retain(|h| !matches!(h.scope, Scope::Stmt(_)));
                stmt_let = None;
            }
            "let" => {
                let mut j = i + 1;
                if toks.get(j).is_some_and(|t| t.text == "mut") {
                    j += 1;
                }
                if let Some(tok) = toks.get(j) {
                    if tok.kind == TokKind::Ident {
                        stmt_let = Some(tok.text.clone());
                    }
                }
            }
            "drop" if file.match_seq(i + 1, &["("]) => {
                // `drop(name)` releases a named guard early.
                if let (Some(arg), Some(close)) = (toks.get(i + 2), toks.get(i + 3)) {
                    if arg.kind == TokKind::Ident && close.text == ")" {
                        holds.retain(|h| h.bind.as_deref() != Some(arg.text.as_str()));
                    }
                }
            }
            "." => {
                if let Some((id, bare, after)) = acquisition_at(file, f, i, rwlocks) {
                    let line = t.line;
                    if resolve.is_some() && bare {
                        diags.push(Diagnostic::new(
                            &file.path,
                            line,
                            "lock-order",
                            format!(
                                "bare `.lock().unwrap()` on `{id}` — recover from poison \
                                 (`unwrap_or_else(PoisonError::into_inner)`) or `.expect` \
                                 with a message"
                            ),
                        ));
                    }
                    acquisitions.push((id.clone(), line));
                    for h in &holds {
                        edges.push((h.id.clone(), id.clone(), file.path.clone(), line));
                    }
                    let chained = after < f.end && toks[after].text == ".";
                    let (scope, bind) = if chained {
                        (Scope::Stmt(brace), None)
                    } else if let Some(name) = stmt_let.clone() {
                        (Scope::Block(brace), Some(name))
                    } else {
                        (Scope::Stmt(brace), None)
                    };
                    holds.push(Held { id, scope, bind });
                    i += 2;
                    continue;
                }
            }
            name if t.kind == TokKind::Ident => {
                let is_call = toks.get(i + 1).is_some_and(|t| t.text == "(")
                    && (i == 0 || toks[i - 1].text != "fn");
                if is_call {
                    // One-level call resolution: self.f(…) / Self::f(…) /
                    // bare f(…) only — method calls on other receivers stay
                    // unresolved (an iterator `.map(…)` must never resolve
                    // to an unrelated lock-taking method named `map`).
                    let self_call = i >= 2 && toks[i - 1].text == "." && toks[i - 2].text == "self";
                    let assoc_call = i >= 3
                        && toks[i - 1].text == ":"
                        && toks[i - 2].text == ":"
                        && toks[i - 3].text == "Self";
                    let bare_call = i == 0 || (toks[i - 1].text != "." && toks[i - 1].text != ":");
                    if let Some(map) = resolve {
                        if (self_call || assoc_call || bare_call) && name != f.name {
                            if let Some(callee_locks) =
                                map.get(&(f.crate_name.clone(), name.to_string()))
                            {
                                let call_end = matching_paren_end(file, i + 1);
                                let terminal = call_end >= f.end
                                    || toks.get(call_end).is_none_or(|t| t.text != ".");
                                for id in callee_locks {
                                    for h in &holds {
                                        edges.push((
                                            h.id.clone(),
                                            id.clone(),
                                            file.path.clone(),
                                            t.line,
                                        ));
                                    }
                                    // `let g = self.lock_state();` — the
                                    // callee's guard comes back to us.
                                    if terminal {
                                        if let Some(bind) = stmt_let.clone() {
                                            holds.push(Held {
                                                id: id.clone(),
                                                scope: Scope::Block(brace),
                                                bind: Some(bind),
                                            });
                                        }
                                    }
                                }
                            }
                        }
                    }
                    // Closures passed to spawn run later, elsewhere: empty
                    // held set inside.
                    if name == "spawn" || name == "spawn_prioritized" {
                        barriers.push((paren, std::mem::take(&mut holds)));
                    }
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// If the `.` at `i` starts a lock acquisition chain, returns
/// `(crate-qualified lock id, is bare .unwrap(), index past the chain's
/// adapters)`.
fn acquisition_at(
    file: &SourceFile,
    f: &Func,
    i: usize,
    rwlocks: &HashSet<String>,
) -> Option<(String, bool, usize)> {
    let toks = &file.tokens;
    let method = toks.get(i + 1)?;
    let is_lock = method.text == "lock";
    let is_rw = method.text == "read" || method.text == "write";
    if !is_lock && !is_rw {
        return None;
    }
    if toks.get(i + 2)?.text != "(" || toks.get(i + 3)?.text != ")" {
        return None;
    }
    if i == 0 || i <= f.start {
        return None;
    }

    // The receiver: the last path segment before the `.`, stepping over an
    // index expression (`deques[i].lock()` → `deques`).
    let mut j = i - 1;
    if toks[j].text == "]" {
        let mut depth = 0usize;
        loop {
            match toks[j].text.as_str() {
                "]" => depth += 1,
                "[" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            if j == 0 {
                return None;
            }
            j -= 1;
        }
        if j == 0 {
            return None;
        }
        j -= 1;
    }
    if toks[j].kind != TokKind::Ident {
        // `)` → chain off a call result (`stdin().lock()`): not a Mutex
        // field acquisition.
        return None;
    }
    let field = toks[j].text.clone();
    if is_rw && !rwlocks.contains(&field) {
        return None;
    }
    // Walk to the front of the receiver chain; a call result anywhere
    // upstream disqualifies it.
    while j >= 2 && toks[j - 1].text == "." && toks[j - 2].kind == TokKind::Ident {
        j -= 2;
    }
    if j >= 1 && (toks[j - 1].text == ")" || toks[j - 1].text == ".") {
        return None;
    }

    // Step over the poison adapter, noting a bare `.unwrap()`.
    let mut k = i + 4;
    let mut bare = false;
    if file.match_seq(k, &[".", "unwrap", "(", ")"]) {
        bare = true;
        k += 4;
    } else if toks.get(k).is_some_and(|t| t.text == ".")
        && toks
            .get(k + 1)
            .is_some_and(|t| t.text == "expect" || t.text == "unwrap_or_else")
        && toks.get(k + 2).is_some_and(|t| t.text == "(")
    {
        k = matching_paren_end(file, k + 2);
    }

    Some((format!("{}::{field}", f.crate_name), bare, k))
}

/// Every elementary cycle in the lock graph, normalised (rotated so the
/// smallest id is first) and deduplicated.
fn find_cycles(graph: &BTreeMap<String, BTreeSet<String>>) -> Vec<Vec<String>> {
    let mut cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    for start in graph.keys() {
        let mut path = vec![start.clone()];
        dfs(graph, start, &mut path, &mut cycles);
    }
    cycles.into_iter().collect()
}

/// Depth-first search collecting cycles that return to a node on the
/// current path.
fn dfs(
    graph: &BTreeMap<String, BTreeSet<String>>,
    node: &str,
    path: &mut Vec<String>,
    cycles: &mut BTreeSet<Vec<String>>,
) {
    if path.len() > 16 {
        return; // depth guard; the workspace graph is tiny
    }
    let Some(nexts) = graph.get(node) else {
        return;
    };
    for next in nexts {
        if let Some(pos) = path.iter().position(|n| n == next) {
            let mut cycle: Vec<String> = path[pos..].to_vec();
            let min = cycle
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.as_str())
                .map_or(0, |(k, _)| k);
            cycle.rotate_left(min);
            cycles.insert(cycle);
        } else {
            path.push(next.clone());
            dfs(graph, next, path, cycles);
            path.pop();
        }
    }
}
