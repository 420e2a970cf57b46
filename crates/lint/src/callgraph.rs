//! The workspace call graph.
//!
//! Nodes are the `fn` items of every scanned file ([`crate::parse`]);
//! edges are syntactic call sites resolved by name through the file's
//! `use` map, the enclosing `impl` block, and crate proximity. The
//! resolver is deliberately conservative: an ambiguous name links to
//! nothing rather than to everything, so interprocedural findings carry
//! call paths that are real (each hop is a unique-name match), at the cost
//! of missing calls through heavily overloaded names. The honesty limits
//! are catalogued in DESIGN.md §4f.
//!
//! Resolution order for a bare call `name(…)`:
//! 0. nothing, when the caller binds `name` itself (a parameter or a
//!    `let`, typically a closure): the call is to that value,
//! 1. a free fn `name` in the same file (same module preferred),
//! 2. the file's `use` map (`use crate_x::m::name;` → that crate's fn),
//! 3. a unique free fn `name` in the caller's crate,
//! 4. a unique free fn `name` in the workspace.
//!
//! `Type::name(…)` and `Self::name(…)` resolve against `impl Type`
//! blocks; `.name(…)` method calls resolve to a unique workspace method
//! of that name — except names on the [`STD_METHOD_NAMES`] denylist
//! (`push`, `get`, `insert`, …), which collide with std containers far
//! too often to link by name alone.

use crate::dataflow::let_binding;
use crate::parse::ParsedFile;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Method names too common on std types to resolve by bare name.
pub const STD_METHOD_NAMES: &[&str] = &[
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "len",
    "is_empty",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "clone",
    "clear",
    "extend",
    "contains",
    "contains_key",
    "sort",
    "sort_by",
    "sort_unstable",
    "drain",
    "join",
    "split",
    "split_at",
    "take",
    "find",
    "map",
    "filter",
    "fold",
    "sum",
    "min",
    "max",
    "abs",
    "floor",
    "ceil",
    "powi",
    "push_str",
    "to_string",
    "to_vec",
    "fmt",
    "eq",
    "cmp",
    "hash",
    "default",
    "from",
    "into",
    "new",
    "with_capacity",
    "write",
    "read",
    "flush",
    "first",
    "last",
    "entry",
    "keys",
    "values",
    "collect",
    "count",
    "rev",
    "zip",
    "chain",
    "any",
    "all",
    "position",
    "retain",
    "truncate",
    "resize",
    "reserve",
    "swap",
    "replace",
    "expect",
    "unwrap",
    "as_ref",
    "as_mut",
    "as_str",
    "as_bytes",
    "as_slice",
    "trim",
    "starts_with",
    "ends_with",
    "parse",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
];

/// One function node in the workspace graph.
#[derive(Clone, Debug)]
pub struct FnNode {
    /// Index of the owning file in the `ParsedFile` slice.
    pub file: usize,
    /// Index into that file's `items.functions`.
    pub item: usize,
    /// Workspace-relative path of the owning file.
    pub rel_path: String,
    /// Owning crate name.
    pub crate_name: String,
    /// Bare fn name.
    pub name: String,
    /// `impl`/`trait` self type, when any.
    pub self_ty: Option<String>,
    /// `Type::name` or bare `name` — the diagnostic label.
    pub qualified: String,
    /// True for fns inside `#[cfg(test)]` regions.
    pub is_test: bool,
}

/// One resolved call site inside a caller's body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Callee node index.
    pub callee: usize,
    /// 0-based line of the call in the caller's file.
    pub line: usize,
    /// Top-level argument texts of the call.
    pub args: Vec<String>,
    /// Receiver identifier for `recv.name(…)` method calls.
    pub receiver: Option<String>,
}

/// The workspace call graph: nodes plus per-caller call sites.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Every fn item in the workspace, in (file, item) order.
    pub nodes: Vec<FnNode>,
    /// `calls[i]` are the resolved call sites inside `nodes[i]`.
    pub calls: Vec<Vec<CallSite>>,
    /// `owner[file]` maps 0-based lines to the innermost fn node on that
    /// line (`usize::MAX` for lines outside any fn).
    pub owner: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Build the graph over every parsed file.
    pub fn build(files: &[ParsedFile]) -> CallGraph {
        let mut nodes = Vec::new();
        for (fi, pf) in files.iter().enumerate() {
            for (ii, f) in pf.items.functions.iter().enumerate() {
                nodes.push(FnNode {
                    file: fi,
                    item: ii,
                    rel_path: pf.rel_path.clone(),
                    crate_name: pf.crate_name.clone(),
                    name: f.name.clone(),
                    self_ty: f.self_ty.clone(),
                    qualified: f.qualified_name(),
                    is_test: f.is_test,
                });
            }
        }
        // Line → innermost-fn ownership per file (inner fns come later in
        // source order and overwrite their outer's lines).
        let mut owner: Vec<Vec<usize>> = files
            .iter()
            .map(|pf| vec![usize::MAX; pf.masked.code.len()])
            .collect();
        for (ni, n) in nodes.iter().enumerate() {
            let f = &files[n.file].items.functions[n.item];
            for line in f.sig_line..=f.body_end.min(owner[n.file].len().saturating_sub(1)) {
                owner[n.file][line] = ni;
            }
        }

        // The names each fn binds itself: its parameters, then each `let`
        // from its line on.
        let mut bound: Vec<BTreeSet<&str>> = nodes
            .iter()
            .map(|n| {
                let f = &files[n.file].items.functions[n.item];
                f.params.iter().map(|p| p.name.as_str()).collect()
            })
            .collect();
        let index = NameIndex::new(&nodes);
        let mut calls: Vec<Vec<CallSite>> = vec![Vec::new(); nodes.len()];
        for (fi, pf) in files.iter().enumerate() {
            for (line_idx, line) in pf.masked.code.iter().enumerate() {
                let caller = owner[fi][line_idx];
                if caller == usize::MAX {
                    continue;
                }
                for site in call_tokens(line) {
                    if site.qualifier.is_none()
                        && site.receiver.is_none()
                        && bound[caller].contains(site.name.as_str())
                    {
                        continue; // a call to a closure or fn value, not an item
                    }
                    let resolved = index.resolve(&site, &nodes[caller], pf, &nodes);
                    if let Some(callee) = resolved {
                        if callee == caller {
                            continue; // self-recursion adds nothing to paths
                        }
                        let args = split_call_args(&pf.masked.code, line_idx, site.open_paren_col);
                        calls[caller].push(CallSite {
                            callee,
                            line: line_idx,
                            args,
                            receiver: site.receiver.clone(),
                        });
                    }
                }
                if let Some((name, _)) = let_binding(line) {
                    bound[caller].insert(name);
                }
            }
        }
        CallGraph {
            nodes,
            calls,
            owner,
        }
    }

    /// Breadth-first reachability from `entries`; returns, for each
    /// reached node, the call path (entry-first list of node indices).
    pub fn reach_from(&self, entries: &[usize]) -> BTreeMap<usize, Vec<usize>> {
        let mut paths: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut queue = VecDeque::new();
        for &e in entries {
            if let std::collections::btree_map::Entry::Vacant(v) = paths.entry(e) {
                v.insert(vec![e]);
                queue.push_back(e);
            }
        }
        while let Some(n) = queue.pop_front() {
            let base = paths[&n].clone();
            for site in &self.calls[n] {
                if let std::collections::btree_map::Entry::Vacant(v) = paths.entry(site.callee) {
                    let mut p = base.clone();
                    p.push(site.callee);
                    v.insert(p);
                    queue.push_back(site.callee);
                }
            }
        }
        paths
    }

    /// Render a node path as `a → b → c` using qualified names.
    pub fn render_path(&self, path: &[usize]) -> Vec<String> {
        path.iter()
            .map(|&n| self.nodes[n].qualified.clone())
            .collect()
    }
}

/// A raw call token found on a line, before resolution.
#[derive(Debug)]
struct RawCall {
    /// The called name.
    name: String,
    /// Qualifier: `Some("Type")` for `Type::name(`, `Some("Self")` for
    /// `Self::name(`.
    qualifier: Option<String>,
    /// Receiver identifier for `.name(` method calls (`self`, a local, or
    /// the last segment of a field chain).
    receiver: Option<String>,
    /// Column of the opening paren.
    open_paren_col: usize,
}

/// Keywords that look like calls when followed by `(`.
const CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "fn", "loop", "move", "in", "as", "let", "else",
    "impl", "where", "use", "pub", "mod", "unsafe", "dyn", "ref", "mut", "break", "continue",
];

/// Find call-shaped tokens on one masked line.
fn call_tokens(line: &str) -> Vec<RawCall> {
    let bytes = line.as_bytes();
    let mut out = Vec::new();
    for i in 0..bytes.len() {
        if bytes[i] != b'(' {
            continue;
        }
        // Walk back over the identifier directly before `(`.
        let mut s = i;
        while s > 0 && (bytes[s - 1].is_ascii_alphanumeric() || bytes[s - 1] == b'_') {
            s -= 1;
        }
        if s == i {
            continue; // `(` not preceded by an ident
        }
        let name = &line[s..i];
        if name.as_bytes()[0].is_ascii_digit() || CALL_KEYWORDS.contains(&name) {
            continue;
        }
        // `name!` macro? The `!` sits between ident and paren — which means
        // bytes[i-1] is `!`, so we never got here. But `name !(` spaced —
        // ignore that edge.
        let before = &bytes[..s];
        let (qualifier, receiver) = if before.ends_with(b"::") {
            // `Qual::name(` — walk back the qualifier ident.
            let mut q = s - 2;
            while q > 0 && (bytes[q - 1].is_ascii_alphanumeric() || bytes[q - 1] == b'_') {
                q -= 1;
            }
            (Some(line[q..s - 2].to_string()), None)
        } else if before.ends_with(b".") {
            // `recv.name(` — the receiver is the ident chain's last segment.
            let mut r = s - 1;
            while r > 0 && (bytes[r - 1].is_ascii_alphanumeric() || bytes[r - 1] == b'_') {
                r -= 1;
            }
            let recv = &line[r..s - 1];
            (None, Some(recv.to_string()))
        } else {
            (None, None)
        };
        out.push(RawCall {
            name: name.to_string(),
            qualifier,
            receiver,
            open_paren_col: i,
        });
    }
    out
}

/// Capture the top-level argument texts of a call whose `(` is at
/// `(line_idx, col)`, spanning up to 80 lines.
fn split_call_args(code: &[String], line_idx: usize, col: usize) -> Vec<String> {
    let mut args = Vec::new();
    let mut cur = String::new();
    let mut depth = 0i32;
    for (k, line) in code.iter().enumerate().skip(line_idx).take(80) {
        let start = if k == line_idx { col } else { 0 };
        for b in line.bytes().skip(start) {
            match b {
                b'(' | b'[' | b'{' => {
                    depth += 1;
                    if depth > 1 {
                        cur.push(b as char);
                    }
                }
                b')' | b']' | b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        let t = cur.trim();
                        if !t.is_empty() {
                            args.push(t.to_string());
                        }
                        return args;
                    }
                    cur.push(b as char);
                }
                b',' if depth == 1 => {
                    let t = cur.trim();
                    if !t.is_empty() {
                        args.push(t.to_string());
                    }
                    cur.clear();
                }
                _ => {
                    if depth >= 1 {
                        cur.push(b as char);
                    }
                }
            }
        }
        cur.push(' ');
    }
    args
}

/// Name-based candidate index.
struct NameIndex {
    /// name → node indices of free fns (no self type).
    free: BTreeMap<String, Vec<usize>>,
    /// name → node indices of fns under some `impl`/`trait`.
    assoc: BTreeMap<String, Vec<usize>>,
    /// (self_ty, name) → node indices.
    typed: BTreeMap<(String, String), Vec<usize>>,
}

impl NameIndex {
    fn new(nodes: &[FnNode]) -> NameIndex {
        let mut free: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut assoc: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut typed: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
        for (i, n) in nodes.iter().enumerate() {
            if n.is_test {
                continue;
            }
            match &n.self_ty {
                None => free.entry(n.name.clone()).or_default().push(i),
                Some(t) => {
                    assoc.entry(n.name.clone()).or_default().push(i);
                    typed
                        .entry((t.clone(), n.name.clone()))
                        .or_default()
                        .push(i);
                }
            }
        }
        NameIndex { free, assoc, typed }
    }

    fn resolve(
        &self,
        raw: &RawCall,
        caller: &FnNode,
        caller_file: &ParsedFile,
        nodes: &[FnNode],
    ) -> Option<usize> {
        if let Some(q) = &raw.qualifier {
            // `Type::name(` / `Self::name(`.
            let ty = if q == "Self" {
                caller.self_ty.clone()?
            } else {
                q.clone()
            };
            let cands = self.typed.get(&(ty, raw.name.clone()))?;
            return pick(cands, caller, nodes);
        }
        if let Some(recv) = &raw.receiver {
            // `self.name(` resolves within the caller's own impl first.
            if recv == "self" {
                if let Some(ty) = &caller.self_ty {
                    if let Some(cands) = self.typed.get(&(ty.clone(), raw.name.clone())) {
                        if let Some(hit) = pick(cands, caller, nodes) {
                            return Some(hit);
                        }
                    }
                }
            }
            // General method call: unique-name resolution, denylist guarded.
            if STD_METHOD_NAMES.contains(&raw.name.as_str()) {
                return None;
            }
            let cands = self.assoc.get(&raw.name)?;
            return pick(cands, caller, nodes);
        }
        // Bare call: same file → use map → same crate → workspace.
        let cands = self.free.get(&raw.name)?;
        let same_file: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&c| nodes[c].file == caller.file)
            .collect();
        if same_file.len() == 1 {
            return Some(same_file[0]);
        }
        if let Some(u) = caller_file.items.uses.iter().find(|u| u.ident == raw.name) {
            let crate_of_use = u.path.split("::").next().unwrap_or("").replace('_', "-");
            let via_use: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&c| nodes[c].crate_name == crate_of_use)
                .collect();
            if via_use.len() == 1 {
                return Some(via_use[0]);
            }
        }
        pick(cands, caller, nodes)
    }
}

/// Disambiguate candidates: unique workspace match, else unique
/// same-crate match, else nothing.
fn pick(cands: &[usize], caller: &FnNode, nodes: &[FnNode]) -> Option<usize> {
    if cands.len() == 1 {
        return Some(cands[0]);
    }
    let same_crate: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&c| nodes[c].crate_name == caller.crate_name)
        .collect();
    if same_crate.len() == 1 {
        return Some(same_crate[0]);
    }
    None
}

/// The set of node indices whose `(rel_path suffix, self_ty, name)` match
/// an entry-point spec. Used by `panic-reachable-from-serve`.
pub fn match_entries(graph: &CallGraph, specs: &[(&str, Option<&str>, &str)]) -> Vec<usize> {
    let mut out = BTreeSet::new();
    for (i, n) in graph.nodes.iter().enumerate() {
        if n.is_test {
            continue;
        }
        for (path_suffix, self_ty, name) in specs {
            if n.name == *name
                && n.rel_path.ends_with(path_suffix)
                && (self_ty.is_none() || n.self_ty.as_deref() == *self_ty)
            {
                out.insert(i);
            }
        }
    }
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use crate::tokenizer::mask;
    use crate::walk::FileKind;

    fn pf(rel_path: &str, crate_name: &str, src: &str) -> ParsedFile {
        let masked = mask(src);
        let items = parse::parse(&masked);
        ParsedFile {
            rel_path: rel_path.to_string(),
            crate_name: crate_name.to_string(),
            kind: FileKind::Library,
            masked,
            items,
        }
    }

    fn node(g: &CallGraph, q: &str) -> usize {
        g.nodes
            .iter()
            .position(|n| n.qualified == q)
            .unwrap_or_else(|| panic!("no node {q}: {:?}", g.nodes))
    }

    fn callees(g: &CallGraph, q: &str) -> Vec<String> {
        g.calls[node(g, q)]
            .iter()
            .map(|c| g.nodes[c.callee].qualified.clone())
            .collect()
    }

    #[test]
    fn bare_calls_resolve_within_file_then_crate() {
        let files = vec![
            pf(
                "crates/a/src/lib.rs",
                "a",
                "pub fn top() { helper(); remote(); }\nfn helper() {}\n",
            ),
            pf("crates/b/src/lib.rs", "b", "pub fn remote() {}\n"),
        ];
        let g = CallGraph::build(&files);
        assert_eq!(callees(&g, "top"), vec!["helper", "remote"]);
    }

    #[test]
    fn use_map_disambiguates_across_crates() {
        let files = vec![
            pf(
                "crates/a/src/lib.rs",
                "a",
                "use b_lib::shared;\npub fn top() { shared(); }\n",
            ),
            pf("crates/b/src/lib.rs", "b-lib", "pub fn shared() {}\n"),
            pf("crates/c/src/lib.rs", "c-lib", "pub fn shared() {}\n"),
        ];
        let g = CallGraph::build(&files);
        assert_eq!(callees(&g, "top"), vec!["shared"]);
        let callee = g.calls[node(&g, "top")][0].callee;
        assert_eq!(g.nodes[callee].crate_name, "b-lib");
    }

    #[test]
    fn ambiguous_without_use_links_nothing() {
        let files = vec![
            pf("crates/a/src/lib.rs", "a", "pub fn top() { shared(); }\n"),
            pf("crates/b/src/lib.rs", "b", "pub fn shared() {}\n"),
            pf("crates/c/src/lib.rs", "c", "pub fn shared() {}\n"),
        ];
        let g = CallGraph::build(&files);
        assert!(callees(&g, "top").is_empty());
    }

    #[test]
    fn self_and_typed_calls_resolve() {
        let src = "struct Engine;\nimpl Engine {\n    pub fn ingest(&mut self) { self.fold(); Engine::stat(); Self::stat(); }\n    fn fold(&mut self) {}\n    fn stat() {}\n}\n";
        let g = CallGraph::build(&[pf("crates/a/src/serve.rs", "a", src)]);
        assert_eq!(
            callees(&g, "Engine::ingest"),
            vec!["Engine::fold", "Engine::stat", "Engine::stat"]
        );
    }

    #[test]
    fn denylisted_method_names_do_not_link() {
        let files = vec![pf(
            "crates/a/src/lib.rs",
            "a",
            "struct P;\nimpl P {\n    pub fn push(&mut self, v: u32) { panic!(\"boom\") }\n}\n\
             pub fn caller(v: &mut Vec<u32>) { v.push(1); }\n",
        )];
        let g = CallGraph::build(&files);
        assert!(
            callees(&g, "caller").is_empty(),
            "std-colliding method names must not link"
        );
    }

    #[test]
    fn unique_method_call_links() {
        let files = vec![pf(
            "crates/a/src/lib.rs",
            "a",
            "struct T;\nimpl T {\n    pub fn absorb_batch(&mut self) {}\n}\n\
             pub fn caller(t: &mut T) { t.absorb_batch(); }\n",
        )];
        let g = CallGraph::build(&files);
        assert_eq!(callees(&g, "caller"), vec!["T::absorb_batch"]);
    }

    #[test]
    fn reachability_produces_shortest_paths() {
        let src = "pub fn a() { b(); }\npub fn b() { c(); }\npub fn c() {}\npub fn d() { c(); }\n";
        let g = CallGraph::build(&[pf("crates/a/src/lib.rs", "a", src)]);
        let paths = g.reach_from(&[node(&g, "a")]);
        let to_c = paths.get(&node(&g, "c")).expect("c reachable");
        assert_eq!(g.render_path(to_c), vec!["a", "b", "c"]);
        assert!(!paths.contains_key(&node(&g, "d")));
    }

    #[test]
    fn call_args_are_captured() {
        let src = "pub fn top(rng: &mut Rng) { helper(rng, 1 + 2, vec![3, 4]); }\nfn helper(r: &mut Rng, x: u32, v: Vec<u32>) {}\n";
        let g = CallGraph::build(&[pf("crates/a/src/lib.rs", "a", src)]);
        let site = &g.calls[node(&g, "top")][0];
        assert_eq!(site.args, vec!["rng", "1 + 2", "vec![3, 4]"]);
    }

    #[test]
    fn macro_invocations_are_not_calls() {
        let src = "pub fn top() { println!(\"x\"); assert_eq!(1, 1); }\nfn println() {}\n";
        let g = CallGraph::build(&[pf("crates/a/src/main.rs", "a", src)]);
        assert!(callees(&g, "top").is_empty());
    }

    #[test]
    fn entry_matching_by_suffix_type_and_name() {
        let src = "struct ServeEngine;\nimpl ServeEngine {\n    pub fn ingest(&mut self) {}\n    pub fn other(&mut self) {}\n}\n";
        let g = CallGraph::build(&[pf("crates/core/src/serve.rs", "likelab-core", src)]);
        let entries = match_entries(&g, &[("/serve.rs", Some("ServeEngine"), "ingest")]);
        assert_eq!(entries.len(), 1);
        assert_eq!(g.nodes[entries[0]].qualified, "ServeEngine::ingest");
    }
}
