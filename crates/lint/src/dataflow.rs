//! Per-function dataflow summaries over the item tree.
//!
//! The interprocedural rules need three kinds of facts that neither the
//! tokenizer nor the call graph carries on its own:
//!
//! - **Rng values**: which identifiers in a function are seeded-stream
//!   values — parameters whose declared type mentions `Rng`, and locals
//!   bound from `Rng::…` constructors, `derive_stream_seed`, or a
//!   `.split(…)` of an already-known Rng value. Tracking by *type and
//!   construction* is what lets the rules catch an `&mut Rng` named
//!   `sampler` that the name-based `rng-shared-across-parallel` scan
//!   cannot see.
//! - **Parallel boundaries**: the `parallel_map`/`parallel_jobs`/
//!   `parallel_owned` call spans inside each function, with their full
//!   argument text.
//! - **Hazard parameters**: the fixpoint of "this parameter ends up
//!   captured by a parallel closure without an intervening
//!   `split`/`derive_stream_seed`, either directly or by being passed on
//!   to another hazard parameter". Each hazard carries a witness chain so
//!   diagnostics can say *reachable via a → b → c*.
//!
//! Everything here is a summary of masked source lines, not of an AST;
//! the approximations (word-level capture detection, bare-identifier
//! argument matching) are documented per item and in DESIGN.md §4f.

use crate::callgraph::CallGraph;
use crate::parse::ParsedFile;
use crate::rules::{balanced_span, closure_params, find_parallel_call};
use crate::tokenizer::find_word;
use std::collections::{BTreeMap, BTreeSet};

/// How a function came to hold an Rng value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RngOrigin {
    /// The value is the parameter with this index (self excluded).
    Param(usize),
    /// The value is a local bound on this 0-based line.
    Constructed(usize),
}

/// One `parallel_map`/`parallel_jobs`/`parallel_owned` call inside a function.
#[derive(Clone, Debug)]
pub struct ParallelSpan {
    /// 0-based line of the call.
    pub line: usize,
    /// The balanced `(…)` argument text, newlines included.
    pub text: String,
}

/// The dataflow summary of one function (indexed like `CallGraph::nodes`).
#[derive(Clone, Debug, Default)]
pub struct FnFacts {
    /// Known Rng values by identifier.
    pub rng_values: BTreeMap<String, RngOrigin>,
    /// Parallel boundaries in the body.
    pub parallel: Vec<ParallelSpan>,
}

/// Spellings that prove a binding is a seeded-stream value.
const RNG_CONSTRUCTORS: &[&str] = &["Rng::", "derive_stream_seed", "seed_from_u64"];

/// Compute per-function facts for every node of the graph.
pub fn fn_facts(files: &[ParsedFile], graph: &CallGraph) -> Vec<FnFacts> {
    let mut out = vec![FnFacts::default(); graph.nodes.len()];
    for (ni, node) in graph.nodes.iter().enumerate() {
        let pf = &files[node.file];
        let f = &pf.items.functions[node.item];
        let facts = &mut out[ni];
        for (pi, p) in f.params.iter().enumerate() {
            if crate::tokenizer::contains_word(&p.ty, "Rng") {
                facts
                    .rng_values
                    .insert(p.name.clone(), RngOrigin::Param(pi));
            }
        }
        // Locals: two extra passes so `let b = a.split(i)` resolves after
        // `a` itself became known.
        for _ in 0..3 {
            let mut grew = false;
            for line_idx in f.sig_line..=f.body_end.min(pf.masked.code.len().saturating_sub(1)) {
                if graph.owner[node.file][line_idx] != ni {
                    continue;
                }
                let line = &pf.masked.code[line_idx];
                let Some((name, _)) = let_binding(line) else {
                    continue;
                };
                if facts.rng_values.contains_key(name) {
                    continue;
                }
                let stmt = join_statement(&pf.masked.code, line_idx);
                let constructed = RNG_CONSTRUCTORS.iter().any(|c| stmt.contains(c))
                    || facts
                        .rng_values
                        .keys()
                        .any(|known| stmt.contains(&format!("{known}.split(")));
                if constructed {
                    facts
                        .rng_values
                        .insert(name.to_string(), RngOrigin::Constructed(line_idx));
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        // Parallel boundaries.
        for line_idx in f.sig_line..=f.body_end.min(pf.masked.code.len().saturating_sub(1)) {
            if graph.owner[node.file][line_idx] != ni {
                continue;
            }
            let line = &pf.masked.code[line_idx];
            let Some(pos) = find_parallel_call(line) else {
                continue;
            };
            let Some(open) = line[pos..].find('(') else {
                continue;
            };
            facts.parallel.push(ParallelSpan {
                line: line_idx,
                text: balanced_span(&pf.masked.code, line_idx, pos + open),
            });
        }
    }
    out
}

/// A parallel span is stream-safe when it derives a per-item stream
/// anywhere inside — the same evidence `rng-shared-across-parallel` uses.
pub fn span_is_stream_safe(span: &str) -> bool {
    span.contains(".split(") || span.contains("derive_stream_seed")
}

/// The Rng values of `facts` captured by `span` (word match, closure
/// parameters excluded). Empty for stream-safe spans.
pub fn captured_rng_values<'a>(facts: &'a FnFacts, span: &str) -> Vec<&'a str> {
    if span_is_stream_safe(span) {
        return Vec::new();
    }
    let params = closure_params(span);
    facts
        .rng_values
        .keys()
        .filter(|name| find_word(span, name, 0).is_some() && !params.iter().any(|p| p == *name))
        .map(String::as_str)
        .collect()
}

/// Why a parameter is a hazard.
#[derive(Clone, Copy, Debug)]
pub enum Witness {
    /// Captured by a parallel span on this line of the owning function.
    Direct {
        /// 0-based line of the parallel call.
        line: usize,
    },
    /// Passed on to `param` of `callee`, which is itself a hazard.
    Via {
        /// Callee node index.
        callee: usize,
        /// Callee parameter index.
        param: usize,
        /// 0-based line of the forwarding call.
        line: usize,
    },
}

/// `hazards[node][param]` exists when that parameter reaches a parallel
/// boundary un-split through some call chain.
pub fn hazard_params(graph: &CallGraph, facts: &[FnFacts]) -> Vec<BTreeMap<usize, Witness>> {
    let mut hazards: Vec<BTreeMap<usize, Witness>> = vec![BTreeMap::new(); graph.nodes.len()];
    // Seed: direct captures of a parameter.
    for (ni, f) in facts.iter().enumerate() {
        for span in &f.parallel {
            for name in captured_rng_values(f, &span.text) {
                if let Some(RngOrigin::Param(pi)) = f.rng_values.get(name) {
                    hazards[ni]
                        .entry(*pi)
                        .or_insert(Witness::Direct { line: span.line });
                }
            }
        }
    }
    // Propagate: a parameter forwarded (as a bare identifier) into a
    // hazard parameter is a hazard too.
    loop {
        let mut grew = false;
        for ni in 0..graph.nodes.len() {
            for site in &graph.calls[ni] {
                let callee_hazards: Vec<(usize, usize)> = hazards[site.callee]
                    .keys()
                    .map(|&p| (p, site.line))
                    .collect();
                for (cp, line) in callee_hazards {
                    let Some(arg) = site.args.get(cp) else {
                        continue;
                    };
                    let Some(name) = arg_ident(arg) else { continue };
                    if let Some(RngOrigin::Param(pi)) = facts[ni].rng_values.get(name) {
                        if !hazards[ni].contains_key(pi) {
                            hazards[ni].insert(
                                *pi,
                                Witness::Via {
                                    callee: site.callee,
                                    param: cp,
                                    line,
                                },
                            );
                            grew = true;
                        }
                    }
                }
            }
        }
        if !grew {
            break;
        }
    }
    hazards
}

/// Follow a hazard's witness chain downward; returns the node path
/// starting at `node` and the line of the final parallel capture.
pub fn hazard_sink(
    hazards: &[BTreeMap<usize, Witness>],
    node: usize,
    param: usize,
) -> (Vec<usize>, usize) {
    let mut path = vec![node];
    let (mut n, mut p) = (node, param);
    let mut guard = 0usize;
    loop {
        guard += 1;
        match hazards[n].get(&p) {
            Some(Witness::Direct { line }) => return (path, *line),
            Some(Witness::Via {
                callee,
                param,
                line,
            }) if guard < 64 => {
                path.push(*callee);
                let fallback = *line;
                n = *callee;
                p = *param;
                if !hazards[n].contains_key(&p) {
                    return (path, fallback);
                }
            }
            _ => return (path, 0),
        }
    }
}

/// Walk *up* the graph from `(node, param)` to a function that constructs
/// the Rng value it forwards; returns the chain root-first, ending at
/// `node`. Falls back to `[node]` when no workspace caller feeds it.
pub fn rng_root_chain(
    graph: &CallGraph,
    facts: &[FnFacts],
    node: usize,
    param: usize,
) -> Vec<usize> {
    let mut chain = vec![node];
    let mut cur = (node, param);
    let mut visited: BTreeSet<(usize, usize)> = BTreeSet::new();
    'outer: while visited.insert(cur) {
        for (ci, sites) in graph.calls.iter().enumerate() {
            if graph.nodes[ci].is_test {
                continue;
            }
            for site in sites {
                if site.callee != cur.0 {
                    continue;
                }
                let Some(arg) = site.args.get(cur.1) else {
                    continue;
                };
                let Some(name) = arg_ident(arg) else { continue };
                match facts[ci].rng_values.get(name) {
                    Some(RngOrigin::Constructed(_)) => {
                        chain.push(ci);
                        chain.reverse();
                        return chain;
                    }
                    Some(RngOrigin::Param(p)) => {
                        chain.push(ci);
                        cur = (ci, *p);
                        continue 'outer;
                    }
                    None => {}
                }
            }
        }
        break;
    }
    chain.reverse();
    chain
}

/// The bare identifier an argument passes, if it is one (`&mut rng` →
/// `rng`; `rng.split(i)` and richer expressions return `None`).
pub fn arg_ident(arg: &str) -> Option<&str> {
    let s = arg.trim().trim_start_matches('&').trim_start();
    let s = s.strip_prefix("mut ").unwrap_or(s).trim();
    let ok = !s.is_empty()
        && s.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_')
        && !s.as_bytes()[0].is_ascii_digit();
    ok.then_some(s)
}

/// `let [mut] name = …` on one masked line → `(name, rhs)`.
pub fn let_binding(line: &str) -> Option<(&str, &str)> {
    let at = find_word(line, "let", 0)?;
    let rest = line[at + 3..].trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let end = rest
        .bytes()
        .position(|b| !(b.is_ascii_alphanumeric() || b == b'_'))
        .unwrap_or(rest.len());
    if end == 0 {
        return None;
    }
    let (name, tail) = rest.split_at(end);
    // Skip a type ascription, stop at `=` (but not `==`).
    let eq = tail.find('=')?;
    if tail.as_bytes().get(eq + 1) == Some(&b'=') {
        return None;
    }
    Some((name, tail[eq + 1..].trim()))
}

/// Join the statement starting at `idx` (up to 6 lines or the first `;`).
pub fn join_statement(code: &[String], idx: usize) -> String {
    let mut joined = String::new();
    for line in code.iter().skip(idx).take(6) {
        joined.push_str(line.trim());
        joined.push(' ');
        if line.trim_end().ends_with(';') {
            break;
        }
    }
    joined
}

// ---------------------------------------------------------------------------
// Panic sites (for panic-reachable-from-serve)
// ---------------------------------------------------------------------------

/// Classify a masked line's panic potential: `.unwrap()`, `.expect(…)`,
/// `.expect_err(…)`, a panicking macro (`assert!`, `assert_eq!` and
/// `assert_ne!` included; `debug_assert*!` is compiled out of release
/// builds and does not count), or slice/array indexing. Attribute lines
/// are never panic sites.
pub fn panic_kind_on_line(line: &str) -> Option<&'static str> {
    if line.trim_start().starts_with("#[") || line.trim_start().starts_with("#!") {
        return None;
    }
    if line.contains(".unwrap()") {
        return Some(".unwrap()");
    }
    if method_call(line, ".expect") {
        return Some(".expect(…)");
    }
    if method_call(line, ".expect_err") {
        return Some(".expect_err(…)");
    }
    for (word, label) in [
        ("panic", "panic!"),
        ("unreachable", "unreachable!"),
        ("todo", "todo!"),
        ("unimplemented", "unimplemented!"),
        ("assert", "assert!"),
        ("assert_eq", "assert_eq!"),
        ("assert_ne", "assert_ne!"),
    ] {
        if find_word(line, word, 0)
            .is_some_and(|p| line.as_bytes().get(p + word.len()) == Some(&b'!'))
        {
            return Some(label);
        }
    }
    if indexing_on_line(line) {
        return Some("indexing");
    }
    None
}

/// Does the line index into a value (`xs[i]`, `buf[a..b]`)? A `[` counts
/// when the previous non-space byte ends an expression (identifier, `)`,
/// or `]`) — array literals, types, and `vec![…]` do not match.
pub fn indexing_on_line(line: &str) -> bool {
    let bytes = line.as_bytes();
    for i in 0..bytes.len() {
        if bytes[i] != b'[' {
            continue;
        }
        let mut j = i;
        while j > 0 && bytes[j - 1] == b' ' {
            j -= 1;
        }
        if j == 0 {
            continue;
        }
        let prev = bytes[j - 1];
        if prev.is_ascii_alphanumeric() || prev == b'_' || prev == b')' || prev == b']' {
            // `vec![`-style macros end with `!` which already fails this
            // test. A keyword or a lifetime before `[` means a slice TYPE
            // (`&mut [T]`, `&'a [T]`, `dyn [T]`, `as [u8; 4]`), not an
            // indexing expression.
            let mut s = j - 1;
            while s > 0 && (bytes[s - 1].is_ascii_alphanumeric() || bytes[s - 1] == b'_') {
                s -= 1;
            }
            let lifetime = s > 0 && bytes[s - 1] == b'\'';
            if lifetime || matches!(&line[s..j], "mut" | "dyn" | "as" | "in" | "impl") {
                continue;
            }
            return true;
        }
    }
    false
}

/// Is `name` followed directly by `(` somewhere in the line?
fn method_call(line: &str, name: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = line[from..].find(name) {
        let at = from + pos + name.len();
        if line.as_bytes().get(at) == Some(&b'(') {
            return true;
        }
        from = from + pos + 1;
    }
    false
}

// ---------------------------------------------------------------------------
// Float accumulation (for float-order-sensitivity)
// ---------------------------------------------------------------------------

/// Sinks that fold floats in iteration order: reassociation under a
/// different order changes the bits. Complementary to
/// `ORDER_SAFE_SINKS`, which (correctly for integers) treats `.sum::` as
/// order-free.
pub const FLOAT_FOLD_SINKS: &[&str] = &[
    ".sum::<f64>",
    ".sum::<f32>",
    ".product::<f64>",
    ".product::<f32>",
    ".fold(0.0",
    ".fold(0f64",
    ".fold(0f32",
    ".fold(1.0",
];

/// Identifiers in this file declared with a float type (`x: f64`) or
/// bound from a float literal (`let x = 0.0`). Non-test lines only.
pub fn float_idents(file: &crate::tokenizer::MaskedFile) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for (idx, line) in file.code.iter().enumerate() {
        if file.in_test[idx] {
            continue;
        }
        for ty in ["f64", "f32"] {
            let mut from = 0;
            while let Some(pos) = find_word(line, ty, from) {
                let before = line[..pos].trim_end();
                if let Some(before_colon) = before.strip_suffix(':') {
                    if let Some(name) = trailing_ident(before_colon.trim_end()) {
                        out.insert(name.to_string());
                    }
                }
                from = pos + ty.len();
            }
        }
        if let Some((name, rhs)) = let_binding(line) {
            if is_float_literal(rhs.trim_end_matches(';').trim()) {
                out.insert(name.to_string());
            }
        }
    }
    out
}

/// `0.0`, `-1.5`, `2.0e9` — a bare float literal.
fn is_float_literal(s: &str) -> bool {
    let s = s.strip_prefix('-').unwrap_or(s);
    !s.is_empty()
        && s.contains('.')
        && s.bytes()
            .all(|b| b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'-')
}

/// Float accumulations (`name += …`) in `span` onto captured (non-param)
/// identifiers from `floats`.
pub fn captured_float_accumulation(span: &str, floats: &BTreeSet<String>) -> Option<String> {
    let params = closure_params(span);
    let mut from = 0;
    while let Some(pos) = span[from..].find("+=") {
        let at = from + pos;
        if let Some(name) = trailing_ident(span[..at].trim_end()) {
            if floats.contains(name) && !params.iter().any(|p| p == name) {
                return Some(name.to_string());
            }
        }
        from = at + 2;
    }
    None
}

/// The trailing identifier of a string slice, if it ends with one.
fn trailing_ident(s: &str) -> Option<&str> {
    let bytes = s.as_bytes();
    let mut start = bytes.len();
    while start > 0 && (bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'_') {
        start -= 1;
    }
    if start == bytes.len() {
        return None;
    }
    let ident = &s[start..];
    ident
        .chars()
        .next()
        .filter(|c| c.is_ascii_alphabetic() || *c == '_')
        .map(|_| ident)
}

// ---------------------------------------------------------------------------
// Allocation sites (for alloc-in-hot-loop)
// ---------------------------------------------------------------------------

/// Files whose every function counts as hot, by basename — the posting
/// list, like-ledger, event-queue, and list-arena kernels that dominate the
/// ≥10x scale profile. Other functions opt in with `// lint:hot`.
pub const HOT_FILE_BASENAMES: &[&str] = &["posting.rs", "likes.rs", "queue.rs", "arena.rs"];

/// Allocation spellings worth flagging in a hot loop.
const ALLOC_PATTERNS: &[&str] = &[
    "Vec::new(",
    "Vec::with_capacity(",
    "vec![",
    ".collect()",
    ".collect::<",
    "format!(",
    ".to_vec()",
    ".to_string()",
    ".to_owned()",
    "String::new(",
    "String::with_capacity(",
    "Box::new(",
];

/// The first allocation spelling on a masked line, if any.
pub fn alloc_on_line(line: &str) -> Option<&'static str> {
    ALLOC_PATTERNS.iter().find(|p| line.contains(**p)).copied()
}

/// Is this file hot by basename?
pub fn is_hot_file(rel_path: &str) -> bool {
    let base = rel_path.rsplit('/').next().unwrap_or(rel_path);
    HOT_FILE_BASENAMES.contains(&base)
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
        g.nodes.iter().position(|n| n.qualified == q).expect(q)
    }

    #[test]
    fn rng_values_by_type_and_construction() {
        let src = "fn f(sampler: &mut Rng, n: u32) {\n\
                   let fresh = Rng::seed_from_u64(7);\n\
                   let child = fresh.split(1);\n\
                   let parts = name.split(',');\n\
                   let seed = derive_stream_seed(base, 3);\n}\n";
        let files = vec![pf("crates/a/src/lib.rs", "a", src)];
        let g = CallGraph::build(&files);
        let facts = fn_facts(&files, &g);
        let f = &facts[node(&g, "f")];
        assert_eq!(f.rng_values.get("sampler"), Some(&RngOrigin::Param(0)));
        assert_eq!(f.rng_values.get("fresh"), Some(&RngOrigin::Constructed(1)));
        assert_eq!(f.rng_values.get("child"), Some(&RngOrigin::Constructed(2)));
        assert_eq!(f.rng_values.get("seed"), Some(&RngOrigin::Constructed(4)));
        assert!(
            !f.rng_values.contains_key("parts"),
            "str split is not an Rng: {:?}",
            f.rng_values
        );
        assert!(!f.rng_values.contains_key("n"));
    }

    #[test]
    fn hazard_params_propagate_with_witnesses() {
        let src = "\
fn root(items: &[u32]) -> Vec<u64> {\n\
    let master = Rng::seed_from_u64(1);\n\
    middle(&master, items)\n\
}\n\
fn middle(sampler: &Rng, items: &[u32]) -> Vec<u64> {\n\
    leaf(sampler, items)\n\
}\n\
fn leaf(stream: &Rng, items: &[u32]) -> Vec<u64> {\n\
    parallel_map(Exec::auto(), items, |x| stream.peek(*x))\n\
}\n";
        let files = vec![pf("crates/a/src/lib.rs", "a", src)];
        let g = CallGraph::build(&files);
        let facts = fn_facts(&files, &g);
        let hz = hazard_params(&g, &facts);
        let leaf = node(&g, "leaf");
        let middle = node(&g, "middle");
        assert!(matches!(
            hz[leaf].get(&0),
            Some(Witness::Direct { line: 8 })
        ));
        assert!(matches!(hz[middle].get(&0), Some(Witness::Via { .. })));
        let (path, line) = hazard_sink(&hz, middle, 0);
        assert_eq!(path, vec![middle, leaf]);
        assert_eq!(line, 8);
        let chain = rng_root_chain(&g, &facts, leaf, 0);
        assert_eq!(
            g.render_path(&chain),
            vec!["root", "middle", "leaf"],
            "chain: {chain:?}"
        );
    }

    #[test]
    fn split_in_span_is_stream_safe() {
        let src = "\
fn leaf(stream: &Rng, items: &[u32]) -> Vec<u64> {\n\
    parallel_map(Exec::auto(), items, |x| stream.split(*x as u64).peek(1))\n\
}\n";
        let files = vec![pf("crates/a/src/lib.rs", "a", src)];
        let g = CallGraph::build(&files);
        let facts = fn_facts(&files, &g);
        let hz = hazard_params(&g, &facts);
        assert!(hz[node(&g, "leaf")].is_empty());
    }

    #[test]
    fn arg_ident_accepts_references_only() {
        assert_eq!(arg_ident("&mut rng"), Some("rng"));
        assert_eq!(arg_ident("& sampler"), Some("sampler"));
        assert_eq!(arg_ident("rng"), Some("rng"));
        assert_eq!(arg_ident("rng.split(3)"), None);
        assert_eq!(arg_ident("1 + 2"), None);
        assert_eq!(arg_ident("self.rng"), None);
    }

    #[test]
    fn panic_kinds() {
        assert_eq!(panic_kind_on_line("let v = x.unwrap();"), Some(".unwrap()"));
        assert_eq!(panic_kind_on_line("x.expect(  )"), Some(".expect(…)"));
        assert_eq!(panic_kind_on_line("panic!( )"), Some("panic!"));
        assert_eq!(panic_kind_on_line("unreachable!()"), Some("unreachable!"));
        assert_eq!(panic_kind_on_line("let y = xs[i];"), Some("indexing"));
        assert_eq!(panic_kind_on_line("let y = &xs[a..b];"), Some("indexing"));
        assert_eq!(panic_kind_on_line("let a = [0u8; 4];"), None);
        assert_eq!(panic_kind_on_line("let v = vec![1, 2];"), None);
        assert_eq!(panic_kind_on_line("fn f(x: [u8; 4]) {}"), None);
        assert_eq!(
            panic_kind_on_line("fn g(xs: &mut [u32], n: usize) {}"),
            None
        );
        assert_eq!(panic_kind_on_line("let b = x as [u8; 2];"), None);
        assert_eq!(
            panic_kind_on_line("fn h<'a>(xs: &'a mut Vec<u8>) -> &'a [u8] {"),
            None
        );
        assert_eq!(
            panic_kind_on_line("let c = 'x'; let d = c_s[0];"),
            Some("indexing")
        );
        assert_eq!(panic_kind_on_line("#[derive(Debug)]"), None);
        assert_eq!(panic_kind_on_line("x.unwrap_or(0);"), None);
        assert_eq!(
            panic_kind_on_line("x.expect_err( );"),
            Some(".expect_err(…)")
        );
        assert_eq!(panic_kind_on_line("assert!(a < b);"), Some("assert!"));
        assert_eq!(
            panic_kind_on_line("assert_eq!(a, b, \"\");"),
            Some("assert_eq!")
        );
        assert_eq!(panic_kind_on_line("assert_ne!(a, b);"), Some("assert_ne!"));
        assert_eq!(panic_kind_on_line("debug_assert!(a < b);"), None);
        assert_eq!(panic_kind_on_line("debug_assert_eq!(a, b);"), None);
        assert_eq!(panic_kind_on_line("debug_assert_ne!(a, b);"), None);
        assert_eq!(panic_kind_on_line("let asserted = assert_ok(x);"), None);
    }

    #[test]
    fn float_idents_and_accumulation() {
        let file = mask(
            "fn f(score: f64, n: u32) {\n    let acc = 0.0;\n    let k = 3;\n    parallel_map(exec, items, |x| { acc += x; })\n}\n",
        );
        let floats = float_idents(&file);
        assert!(floats.contains("score"));
        assert!(floats.contains("acc"));
        assert!(!floats.contains("k"));
        let span = "(exec, items, |x| { acc += x; })";
        assert_eq!(
            captured_float_accumulation(span, &floats),
            Some("acc".to_string())
        );
        let safe = "(exec, items, |acc| { acc += 1.0; })";
        assert_eq!(captured_float_accumulation(safe, &floats), None);
    }

    #[test]
    fn alloc_and_hot_files() {
        assert_eq!(alloc_on_line("let v = Vec::new();"), Some("Vec::new("));
        assert_eq!(alloc_on_line("let s = format!(  );"), Some("format!("));
        assert_eq!(alloc_on_line("let t = xs.to_vec();"), Some(".to_vec()"));
        assert_eq!(alloc_on_line("out.push(x);"), None);
        assert!(is_hot_file("crates/osn/src/posting.rs"));
        assert!(is_hot_file("crates/sim/src/queue.rs"));
        assert!(!is_hot_file("crates/osn/src/world.rs"));
    }

    #[test]
    fn let_bindings_parse() {
        assert_eq!(
            let_binding("    let mut rng = Rng::seed_from_u64(9);"),
            Some(("rng", "Rng::seed_from_u64(9);"))
        );
        assert_eq!(let_binding("let x: u64 = 3;").map(|(n, _)| n), Some("x"));
        assert_eq!(let_binding("if x == y {"), None);
        assert_eq!(let_binding("letx = 3;"), None);
    }
}
