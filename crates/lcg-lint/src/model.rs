//! The lightweight workspace model behind the scope-aware C-rule family.
//!
//! The line scanner ([`crate::scanner`]) answers *what is on this line*;
//! the C rules need to know *where this line sits*: is it inside a
//! function that runs on the worker pool, inside a protocol closure passed
//! to a step API, is this `merge` impl reachable from a batch closure and
//! does an order-permutation proptest cover it? This module is a second
//! pass over the scanner output that resolves those questions across
//! files, still without a real parser:
//!
//! * **Items.** A brace-tracking pass per file finds `fn` items (name,
//!   line range, enclosing `impl` type, test-ness) — closures are *not*
//!   items, so a line inside a closure belongs to every enclosing `fn`,
//!   which is exactly the conservative attribution the rules want.
//! * **Calls.** Every `ident(` occurrence inside an item's range is a
//!   call edge. Name-matched (no type resolution): coarse, but the names
//!   that matter (`run_batch`, `merge`) are distinctive.
//! * **Batch reachability.** Items whose body calls
//!   [`run_batch`](../../congest/src/executor/pool.rs) are *batch
//!   origins* — their bodies hold the worker closures and the leader's
//!   chunk-order reductions. A BFS over the name-matched call graph from
//!   the origins marks every item (and thus every line) that can execute
//!   under the pool. D004 (float accumulation) and C002 (order-sensitive
//!   reductions) fire only inside this region, so the heavy float math in
//!   the sequential spectral/walk code stays untouched.
//! * **Protocol closures.** The argument regions of
//!   `.step_state(`/`.run_state(`/`.exchange_rounds(` calls are
//!   per-vertex protocol logic; C003 forbids thread-topology reads there.
//! * **Proptest registry.** A `merge` impl is *registered* when some
//!   test-context region mentions its type name together with `merge` and
//!   one of `proptest`/`permutation`/`shuffle` — the C002 ratchet that
//!   keeps every reachable reduction covered by an order-permutation
//!   proptest.
//!
//! [`WorkspaceModel::build`] consumes the scanned files;
//! [`WorkspaceModel::facts`] hands per-file, per-line flags back to the
//! rules. Building from a single file degrades gracefully (fixtures and
//! `lint_source` carry their own origins and registries), so the
//! single-file entry points keep working unchanged.

use std::collections::{BTreeMap, BTreeSet};

use crate::rules::FileCtx;
use crate::scanner::Line;

/// One `fn` item: name, range, enclosing impl type, calls.
#[derive(Debug, Clone)]
pub struct FnItem {
    pub name: String,
    /// Enclosing `impl` block's type (`RoundStats` for
    /// `impl RoundStats { fn merge ... }`), when there is one.
    pub impl_type: Option<String>,
    /// 0-based line of the `fn` keyword.
    pub sig_line: usize,
    /// 0-based line of the closing brace (inclusive).
    pub end_line: usize,
    /// Inside a `#[cfg(test)]`/`#[test]` region.
    pub in_test: bool,
    /// Names called anywhere in the item's range (`ident(`, macro calls
    /// excluded).
    pub calls: BTreeSet<String>,
}

/// One `fn merge` (or `fn fold`) definition the C002 ratchet tracks.
#[derive(Debug, Clone)]
pub struct MergeSite {
    /// 0-based signature line.
    pub line: usize,
    /// Registry key: the impl type when known, else the fn name.
    pub key: String,
    /// Reachable from a batch origin over the name-matched call graph.
    pub reachable: bool,
    /// Carries a `// lcg-lint: commutative -- reason` annotation.
    pub annotated: bool,
    /// Covered by an order-permutation proptest mentioning `key`.
    pub registered: bool,
}

/// Per-file facts the C rules consume, all 0-based and line-indexed.
#[derive(Debug, Clone, Default)]
pub struct FileFacts {
    /// Line sits inside an item reachable from a batch origin.
    pub parallel: Vec<bool>,
    /// Line sits inside the argument region of a step-API call.
    pub protocol_closure: Vec<bool>,
    /// `merge`/`fold` definitions in this file.
    pub merges: Vec<MergeSite>,
}

/// The resolved cross-file model. Build once per lint run, query per file.
#[derive(Debug, Default)]
pub struct WorkspaceModel {
    facts: BTreeMap<String, FileFacts>,
    empty: FileFacts,
}

/// Step APIs whose closure arguments are per-vertex protocol logic.
const STEP_APIS: &[&str] = &[".step_state(", ".run_state(", ".exchange_rounds("];

/// The executor entry point that makes an item a batch origin.
const BATCH_ENTRY: &str = "run_batch";

/// Test-region markers that register an order-permutation proptest.
const REGISTRY_MARKERS: &[&str] = &["proptest", "permutation", "shuffle"];

/// The commutativity annotation marker (reason after `--` is mandatory,
/// same contract as `allow`).
pub const COMMUTATIVE_MARKER: &str = "lcg-lint: commutative";

impl WorkspaceModel {
    /// Builds the model from scanned files. `files` is every first-party
    /// file of the run — the whole workspace for `lint_workspace`, a
    /// single file for `lint_source`.
    pub fn build(files: &[(FileCtx, Vec<Line>)]) -> WorkspaceModel {
        // Phase 1: items + calls per file.
        let mut items: Vec<Vec<FnItem>> = files
            .iter()
            .map(|(_, lines)| parse_items(lines))
            .collect();
        for ((_, lines), file_items) in files.iter().zip(items.iter_mut()) {
            let per_line: Vec<BTreeSet<String>> =
                lines.iter().map(|l| call_names(&l.code)).collect();
            for item in file_items.iter_mut() {
                for calls in per_line
                    .iter()
                    .take(item.end_line + 1)
                    .skip(item.sig_line)
                {
                    item.calls.extend(calls.iter().cloned());
                }
            }
        }

        // Library items only: test helpers calling run_batch directly
        // (the pool's own panic-safety tests) must not drag the whole
        // test suite into the parallel-reachable region.
        let library = |ctx: &FileCtx, it: &FnItem| !it.in_test && !ctx.non_library_target;

        // Phase 2: BFS from batch origins over the name-matched call graph.
        let mut by_name: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
        for (fi, (ctx, _)) in files.iter().enumerate() {
            for (ii, it) in items[fi].iter().enumerate() {
                if library(ctx, it) {
                    by_name.entry(it.name.as_str()).or_default().push((fi, ii));
                }
            }
        }
        let mut reachable: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut seen_names: BTreeSet<&str> = BTreeSet::new();
        let mut work: Vec<(usize, usize)> = Vec::new();
        for (fi, (ctx, _)) in files.iter().enumerate() {
            for (ii, it) in items[fi].iter().enumerate() {
                if library(ctx, it) && it.calls.contains(BATCH_ENTRY) && reachable.insert((fi, ii))
                {
                    work.push((fi, ii));
                }
            }
        }
        while let Some((fi, ii)) = work.pop() {
            // clone-free double borrow dance: collect first
            let calls: Vec<&str> = items[fi][ii].calls.iter().map(String::as_str).collect();
            for call in calls {
                if !seen_names.insert(call) {
                    continue;
                }
                if let Some(defs) = by_name.get(call) {
                    for &(dfi, dii) in defs {
                        if reachable.insert((dfi, dii)) {
                            work.push((dfi, dii));
                        }
                    }
                }
            }
        }

        // Phase 3: merge sites and the proptest registry.
        let mut merges: Vec<(usize, usize)> = Vec::new(); // (file, item)
        for (fi, (ctx, _)) in files.iter().enumerate() {
            if !ctx.deterministic() {
                continue;
            }
            for (ii, it) in items[fi].iter().enumerate() {
                if library(ctx, it) && (it.name == "merge" || it.name == "fold") {
                    merges.push((fi, ii));
                }
            }
        }
        let keys: BTreeSet<String> = merges
            .iter()
            .map(|&(fi, ii)| merge_key(&items[fi][ii]))
            .collect();
        let mut registry: BTreeSet<String> = BTreeSet::new();
        for (ctx, lines) in files {
            let test_text: String = lines
                .iter()
                .filter(|l| l.in_test || ctx.non_library_target)
                .flat_map(|l| [l.code.as_str(), " ", l.comment.as_str(), "\n"])
                .collect();
            if !REGISTRY_MARKERS.iter().any(|m| test_text.contains(m))
                || !test_text.contains("merge")
            {
                continue;
            }
            for key in &keys {
                if test_text.contains(key.as_str()) {
                    registry.insert(key.clone());
                }
            }
        }

        // Phase 4: per-file facts.
        let mut facts: BTreeMap<String, FileFacts> = files
            .iter()
            .map(|(ctx, lines)| {
                (
                    ctx.rel.clone(),
                    FileFacts {
                        parallel: vec![false; lines.len()],
                        protocol_closure: vec![false; lines.len()],
                        merges: Vec::new(),
                    },
                )
            })
            .collect();
        for &(fi, ii) in &reachable {
            let (ctx, _) = &files[fi];
            let it = &items[fi][ii];
            let f = facts.get_mut(&ctx.rel).expect("facts entry per file");
            for flag in f.parallel[it.sig_line..=it.end_line].iter_mut() {
                *flag = true;
            }
        }
        for (fi, (ctx, lines)) in files.iter().enumerate() {
            let f = facts.get_mut(&ctx.rel).expect("facts entry per file");
            mark_step_closures(lines, &mut f.protocol_closure);
            for &(mfi, mii) in merges.iter().filter(|&&(mfi, _)| mfi == fi) {
                let it = &items[mfi][mii];
                let key = merge_key(it);
                f.merges.push(MergeSite {
                    line: it.sig_line,
                    reachable: reachable.contains(&(mfi, mii))
                        || seen_names.contains(it.name.as_str()),
                    annotated: has_commutative_annotation(lines, it.sig_line),
                    registered: registry.contains(&key),
                    key,
                });
            }
        }
        WorkspaceModel { facts, empty: FileFacts::default() }
    }

    /// Facts for one file (empty facts for a file outside the build set —
    /// every flag false, so the C rules simply stay silent).
    pub fn facts(&self, rel: &str) -> &FileFacts {
        self.facts.get(rel).unwrap_or(&self.empty)
    }
}

fn merge_key(it: &FnItem) -> String {
    it.impl_type.clone().unwrap_or_else(|| it.name.clone())
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Keywords that look like `ident(` but are not calls.
const NON_CALLS: &[&str] = &[
    "fn", "if", "while", "for", "match", "loop", "return", "impl", "move", "in", "let", "else",
    "as", "use", "pub", "mod", "struct", "enum", "where", "Some", "Ok", "Err", "None",
];

/// `ident(` occurrences on one code line (macros `ident!(` excluded).
fn call_names(code: &str) -> BTreeSet<String> {
    let chars: Vec<char> = code.chars().collect();
    let mut out = BTreeSet::new();
    let mut j = 0;
    while j < chars.len() {
        if is_ident_start(chars[j]) {
            let start = j;
            while j < chars.len() && is_ident_char(chars[j]) {
                j += 1;
            }
            let mut k = j;
            while k < chars.len() && chars[k] == ' ' {
                k += 1;
            }
            if k < chars.len() && chars[k] == '(' {
                let word: String = chars[start..j].iter().collect();
                if !NON_CALLS.contains(&word.as_str()) {
                    out.insert(word);
                }
            } else if k < chars.len() && chars[k] == '!' {
                // macro: skip
            }
        } else {
            j += 1;
            continue;
        }
    }
    out
}

/// Brace-tracking item parse of one scanned file.
fn parse_items(lines: &[Line]) -> Vec<FnItem> {
    let mut items: Vec<FnItem> = Vec::new();
    let mut depth: i64 = 0;
    // (impl type, depth at which the impl block closes)
    let mut impl_stack: Vec<(String, i64)> = Vec::new();
    // (item index, depth at which the fn body closes)
    let mut open_fns: Vec<(usize, i64)> = Vec::new();
    let mut pending_fn: Option<(String, usize)> = None;
    let mut pending_impl: Option<String> = None;

    for (li, line) in lines.iter().enumerate() {
        let chars: Vec<char> = line.code.chars().collect();
        let mut j = 0;
        while j < chars.len() {
            let c = chars[j];
            if is_ident_start(c) {
                let start = j;
                while j < chars.len() && is_ident_char(chars[j]) {
                    j += 1;
                }
                let word: String = chars[start..j].iter().collect();
                if word == "fn" {
                    let mut k = j;
                    while k < chars.len() && chars[k].is_whitespace() {
                        k += 1;
                    }
                    let ns = k;
                    while k < chars.len() && is_ident_char(chars[k]) {
                        k += 1;
                    }
                    if k > ns {
                        pending_fn = Some((chars[ns..k].iter().collect(), li));
                        j = k;
                    }
                } else if word == "impl" {
                    pending_impl = Some(impl_type_of(&chars[j..]));
                }
                continue;
            }
            match c {
                '{' => {
                    if let Some(ty) = pending_impl.take() {
                        impl_stack.push((ty, depth));
                    } else if let Some((name, sig)) = pending_fn.take() {
                        items.push(FnItem {
                            name,
                            impl_type: impl_stack.last().map(|(t, _)| t.clone()),
                            sig_line: sig,
                            end_line: li,
                            in_test: lines[sig].in_test,
                            calls: BTreeSet::new(),
                        });
                        open_fns.push((items.len() - 1, depth));
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    while open_fns.last().is_some_and(|&(_, d)| d == depth) {
                        let (idx, _) = open_fns.pop().expect("guarded by last()");
                        items[idx].end_line = li;
                    }
                    if impl_stack.last().is_some_and(|&(_, d)| d == depth) {
                        impl_stack.pop();
                    }
                }
                ';' => {
                    // trait method declaration / `impl ...;` — no body
                    pending_fn = None;
                    pending_impl = None;
                }
                _ => {}
            }
            j += 1;
        }
    }
    let last = lines.len().saturating_sub(1);
    for (idx, _) in open_fns {
        items[idx].end_line = last;
    }
    items
}

/// Type name of an `impl` header, given everything after the `impl`
/// keyword on its line: `<T> Foo<T> for Bar<T> {` → `Bar`.
fn impl_type_of(rest: &[char]) -> String {
    let s: String = rest.iter().collect();
    let s = s.split('{').next().unwrap_or("").trim();
    // skip leading generic parameters
    let s = if let Some(stripped) = s.strip_prefix('<') {
        let mut d = 1i32;
        let mut cut = stripped.len();
        for (i, c) in stripped.char_indices() {
            match c {
                '<' => d += 1,
                '>' => {
                    d -= 1;
                    if d == 0 {
                        cut = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        stripped[cut.min(stripped.len())..].trim_start()
    } else {
        s
    };
    let s = s.split(" where ").next().unwrap_or(s).trim();
    let target = match s.rfind(" for ") {
        Some(i) => &s[i + 5..],
        None => s,
    };
    let target = target.split(['<', '(']).next().unwrap_or(target).trim();
    let target = target.split_whitespace().next().unwrap_or(target);
    target.rsplit("::").next().unwrap_or(target).to_string()
}

/// Marks the argument regions (paren-balanced, possibly multi-line) of
/// step-API calls.
fn mark_step_closures(lines: &[Line], flags: &mut [bool]) {
    for li in 0..lines.len() {
        for api in STEP_APIS {
            let mut from = 0;
            while let Some(p) = lines[li].code[from..].find(api).map(|x| x + from) {
                mark_paren_region(lines, flags, li, p + api.len() - 1);
                from = p + api.len();
            }
        }
    }
}

/// Marks lines from the `(` at (`li`, byte `col`) to its matching `)`.
fn mark_paren_region(lines: &[Line], flags: &mut [bool], li: usize, col: usize) {
    let mut depth = 0i32;
    let mut start = col;
    for (l, line) in lines.iter().enumerate().skip(li) {
        flags[l] = true;
        for &b in line.code.as_bytes().iter().skip(start) {
            match b {
                b'(' => depth += 1,
                b')' => {
                    depth -= 1;
                    if depth == 0 {
                        return;
                    }
                }
                _ => {}
            }
        }
        start = 0;
    }
}

/// `true` when the fn at `sig_line` carries a justified
/// `// lcg-lint: commutative -- reason` annotation — on the signature
/// line itself or on a contiguous comment/attribute run above it.
fn has_commutative_annotation(lines: &[Line], sig_line: usize) -> bool {
    let mut l = sig_line;
    loop {
        let line = &lines[l];
        if let Some(pos) = line.comment.find(COMMUTATIVE_MARKER) {
            let tail = &line.comment[pos + COMMUTATIVE_MARKER.len()..];
            if tail
                .find("--")
                .map(|i| !tail[i + 2..].trim().is_empty())
                .unwrap_or(false)
            {
                return true;
            }
        }
        if l == 0 {
            return false;
        }
        l -= 1;
        let above = &lines[l];
        let code = above.code.trim();
        // keep scanning only through comment-only and attribute lines
        if !(code.is_empty() || code.starts_with("#[")) {
            return false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::FileCtx;
    use crate::scanner::scan;

    fn model_of(rel: &str, src: &str) -> WorkspaceModel {
        WorkspaceModel::build(&[(FileCtx::from_rel_path(rel), scan(src))])
    }

    #[test]
    fn items_and_impl_types_resolve() {
        let src = "\
impl RoundStats {
    pub fn merge(&mut self, other: &RoundStats) {
        self.rounds += other.rounds;
    }
}
fn free_helper() { body(); }
";
        let items = parse_items(&scan(src));
        assert_eq!(items.len(), 2, "{items:?}");
        assert_eq!(items[0].name, "merge");
        assert_eq!(items[0].impl_type.as_deref(), Some("RoundStats"));
        assert_eq!((items[0].sig_line, items[0].end_line), (1, 3));
        assert_eq!(items[1].name, "free_helper");
        assert_eq!(items[1].impl_type, None);
    }

    #[test]
    fn trait_impl_resolves_to_the_target_type() {
        let src = "impl<T: Clone> SnapshotState for Flood<T> {\n    fn step(&mut self) { go(); }\n}\n";
        let items = parse_items(&scan(src));
        assert_eq!(items[0].impl_type.as_deref(), Some("Flood"));
    }

    #[test]
    fn batch_reachability_follows_calls() {
        let src = "\
fn engine() {
    pool::run_batch(&chunks, states, &worker, |pool| {
        total.merge(&part);
    });
}
impl Counters {
    fn merge(&mut self, other: &Counters) { self.n += other.n; }
}
fn unrelated() { lazy_float(); }
";
        let m = model_of("crates/congest/src/x.rs", src);
        let f = m.facts("crates/congest/src/x.rs");
        assert!(f.parallel[0] && f.parallel[2], "engine body is parallel");
        assert!(f.parallel[6], "merge is reachable through the call graph: {f:?}");
        assert!(!f.parallel[8], "unrelated fn is not parallel-reachable");
        assert_eq!(f.merges.len(), 1);
        assert!(f.merges[0].reachable);
        assert!(!f.merges[0].annotated);
        assert!(!f.merges[0].registered);
    }

    #[test]
    fn commutative_annotation_and_registry_are_detected() {
        let src = "\
fn engine() { pool::run_batch(&chunks, s, &w, |p| { t.merge(&x); }); }
impl Counters {
    /// Sums commute.
    // lcg-lint: commutative -- field-wise sums, proven by proptest below
    #[inline]
    fn merge(&mut self, other: &Counters) { self.n += other.n; }
}
#[cfg(test)]
mod tests {
    proptest! { fn any_permutation_of_merge_order_agrees(c in counters()) { check(Counters::default(), c); } }
}
";
        let m = model_of("crates/congest/src/x.rs", src);
        let f = m.facts("crates/congest/src/x.rs");
        assert_eq!(f.merges.len(), 1, "{f:?}");
        assert!(f.merges[0].annotated, "annotation above attributes: {f:?}");
        assert!(f.merges[0].registered, "proptest mention registers: {f:?}");
    }

    #[test]
    fn annotation_without_reason_does_not_count() {
        let src = "\
fn engine() { pool::run_batch(&c, s, &w, |p| { t.merge(&x); }); }
impl C {
    // lcg-lint: commutative
    fn merge(&mut self, o: &C) { self.n += o.n; }
}
";
        let m = model_of("crates/congest/src/x.rs", src);
        assert!(!m.facts("crates/congest/src/x.rs").merges[0].annotated);
    }

    #[test]
    fn step_closure_regions_span_lines() {
        let src = "\
fn drive(net: &mut Net) {
    net.step_state(&mut states, |me, v, inbox, out| {
        out.send(0, [1]);
    });
    after();
}
";
        let m = model_of("crates/core/src/x.rs", src);
        let f = m.facts("crates/core/src/x.rs");
        assert!(f.protocol_closure[1] && f.protocol_closure[2] && f.protocol_closure[3]);
        assert!(!f.protocol_closure[4], "region ends at the closing paren");
    }

    #[test]
    fn test_items_are_not_batch_origins() {
        let src = "\
#[cfg(test)]
mod tests {
    fn t() { pool::run_batch(&c, s, &w, |p| { t.merge(&x); }); }
}
impl C { fn merge(&mut self, o: &C) { self.n += o.n; } }
";
        let m = model_of("crates/congest/src/x.rs", src);
        let f = m.facts("crates/congest/src/x.rs");
        assert!(f.merges.iter().all(|s| !s.reachable), "{f:?}");
    }

    #[test]
    fn unknown_file_yields_empty_facts() {
        let m = model_of("crates/congest/src/x.rs", "fn f() { body(); }\n");
        let f = m.facts("crates/other/src/y.rs");
        assert!(f.parallel.is_empty() && f.merges.is_empty());
    }
}
