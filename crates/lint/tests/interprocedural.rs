//! End-to-end fixtures for the interprocedural rules: each bad workspace
//! makes exactly one of the call-graph/dataflow rules fire, and a "good
//! twin" — same shape, hazard removed at the source — stays silent. The
//! twins pin down both halves of each rule's contract: it catches the
//! hazard and it does not cry wolf on the fixed form.

use likelab_lint::callgraph::{match_entries, CallGraph, FnNode};
use likelab_lint::rules::SERVE_ENTRY_POINTS;
use likelab_lint::run;
use std::fs;
use std::path::{Path, PathBuf};

/// A scratch workspace that cleans up after itself.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let root = std::env::temp_dir().join(format!(
            "likelab-lint-interproc-{}-{tag}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("create fixture root");
        fs::write(
            root.join("Cargo.toml"),
            "[workspace]\nmembers = [\"crates/*\"]\n",
        )
        .expect("write workspace manifest");
        Fixture { root }
    }

    fn add_crate(&self, name: &str, lib_source: &str) {
        let dir = self.root.join("crates").join(name);
        fs::create_dir_all(dir.join("src")).expect("create crate dirs");
        fs::write(
            dir.join("Cargo.toml"),
            format!("[package]\nname = \"{name}\"\nversion = \"0.1.0\"\n"),
        )
        .expect("write crate manifest");
        fs::write(dir.join("src/lib.rs"), lib_source).expect("write lib.rs");
    }

    fn write(&self, rel: &str, content: &str) {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().expect("parent")).expect("create parent");
        fs::write(path, content).expect("write file");
    }

    fn path(&self) -> &Path {
        &self.root
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

fn findings_for<'r>(
    report: &'r likelab_lint::diagnostics::Report,
    rule: &str,
) -> Vec<&'r likelab_lint::diagnostics::Finding> {
    report.findings.iter().filter(|f| f.rule == rule).collect()
}

// ---------------------------------------------------------------------------
// rng-escapes-parallel
// ---------------------------------------------------------------------------

/// The Rng is constructed in one function and leaks into a parallel
/// closure two calls later under a name the lexical rule cannot see.
const RNG_ESCAPE_BAD: &str = "\
pub fn run_study(items: &[u32]) -> Vec<u64> {
    let master = Rng::seed_from_u64(7);
    fan_out(&master, items)
}

fn fan_out(sampler: &Rng, items: &[u32]) -> Vec<u64> {
    parallel_map(Exec::auto(), items, |x| sampler.peek(*x))
}
";

/// Good twin: the closure derives a per-item stream, so sharing the
/// parent handle is sound.
const RNG_ESCAPE_GOOD: &str = "\
pub fn run_study(items: &[u32]) -> Vec<u64> {
    let master = Rng::seed_from_u64(7);
    fan_out(&master, items)
}

fn fan_out(sampler: &Rng, items: &[u32]) -> Vec<u64> {
    parallel_map(Exec::auto(), items, |x| sampler.split(*x as u64).peek(1))
}
";

#[test]
fn rng_escape_fires_across_the_call_chain_with_path() {
    let fx = Fixture::new("rng-bad");
    fx.add_crate("study", RNG_ESCAPE_BAD);
    let report = run(fx.path()).expect("lint run");
    let hits = findings_for(&report, "rng-escapes-parallel");
    assert_eq!(hits.len(), 1, "findings: {:?}", report.findings);
    let f = hits[0];
    assert_eq!(f.file, "crates/study/src/lib.rs");
    assert_eq!(f.line, 7, "the parallel_map call site");
    assert!(
        f.hint.contains("sampler"),
        "hint names the value: {}",
        f.hint
    );
    assert_eq!(
        f.path,
        vec!["run_study".to_string(), "fan_out".to_string()],
        "chain runs from the construction site to the parallel boundary"
    );
}

#[test]
fn rng_escape_stays_silent_when_the_closure_splits() {
    let fx = Fixture::new("rng-good");
    fx.add_crate("study", RNG_ESCAPE_GOOD);
    let report = run(fx.path()).expect("lint run");
    assert!(
        findings_for(&report, "rng-escapes-parallel").is_empty(),
        "split inside the span is the sanctioned fix: {:?}",
        report.findings
    );
}

// ---------------------------------------------------------------------------
// panic-reachable-from-serve
// ---------------------------------------------------------------------------

/// The panic hides two hops below the serve loop, in another module.
const SERVE_BAD_LIB: &str = "pub mod serve;\npub mod wire;\n";
const SERVE_BAD_SERVE: &str = "\
use crate::wire::decode;

pub fn serve(lines: &[String]) -> usize {
    let mut n = 0;
    for l in lines {
        n += decode(l);
    }
    n
}
";
const SERVE_BAD_WIRE: &str = "\
pub fn decode(line: &str) -> usize {
    frame_len(line)
}

fn frame_len(l: &str) -> usize {
    l.strip_prefix(\"n=\").unwrap().len()
}
";
/// Good twin: the same shape degrades per line instead of panicking.
const SERVE_GOOD_WIRE: &str = "\
pub fn decode(line: &str) -> usize {
    frame_len(line)
}

fn frame_len(l: &str) -> usize {
    match l.strip_prefix(\"n=\") {
        Some(rest) => rest.len(),
        None => 0,
    }
}
";

#[test]
fn panic_below_serve_is_found_with_its_call_path() {
    let fx = Fixture::new("serve-bad");
    fx.add_crate("served", SERVE_BAD_LIB);
    fx.write("crates/served/src/serve.rs", SERVE_BAD_SERVE);
    fx.write("crates/served/src/wire.rs", SERVE_BAD_WIRE);
    let report = run(fx.path()).expect("lint run");
    let hits = findings_for(&report, "panic-reachable-from-serve");
    assert_eq!(hits.len(), 1, "findings: {:?}", report.findings);
    let f = hits[0];
    assert_eq!(f.file, "crates/served/src/wire.rs");
    assert_eq!(f.line, 6, "the unwrap line");
    assert_eq!(
        f.path,
        vec![
            "serve".to_string(),
            "decode".to_string(),
            "frame_len".to_string()
        ],
        "path walks from the entry point down to the panic"
    );
}

/// An `assert!` below the serve loop panics in a release build; the
/// `debug_assert!` beside it is compiled out of one.
const SERVE_ASSERT_WIRE: &str = "\
pub fn decode(line: &str) -> usize {
    frame_len(line)
}

fn frame_len(l: &str) -> usize {
    debug_assert!(l.len() < 4096, \"frames are short\");
    assert!(l.starts_with(\"n=\"), \"a frame starts with n=\");
    l.len() - 2
}
";

#[test]
fn an_assert_below_serve_fires_and_a_debug_assert_does_not() {
    let fx = Fixture::new("serve-assert");
    fx.add_crate("served", SERVE_BAD_LIB);
    fx.write("crates/served/src/serve.rs", SERVE_BAD_SERVE);
    fx.write("crates/served/src/wire.rs", SERVE_ASSERT_WIRE);
    let report = run(fx.path()).expect("lint run");
    let hits = findings_for(&report, "panic-reachable-from-serve");
    let lines: Vec<usize> = hits.iter().map(|f| f.line).collect();
    assert_eq!(
        lines,
        vec![7],
        "only the assert! line: {:?}",
        report.findings
    );
    assert!(hits[0].hint.starts_with("assert!"), "{}", hits[0].hint);
}

#[test]
fn serve_reachability_is_silent_once_the_panic_degrades() {
    let fx = Fixture::new("serve-good");
    fx.add_crate("served", SERVE_BAD_LIB);
    fx.write("crates/served/src/serve.rs", SERVE_BAD_SERVE);
    fx.write("crates/served/src/wire.rs", SERVE_GOOD_WIRE);
    let report = run(fx.path()).expect("lint run");
    assert!(
        findings_for(&report, "panic-reachable-from-serve").is_empty(),
        "no panic left below the entry point: {:?}",
        report.findings
    );
}

// ---------------------------------------------------------------------------
// call resolution: a name the caller binds itself is never an fn item
// ---------------------------------------------------------------------------

/// The serve loop fans work out through a pool, and another crate has the
/// workspace's only free fn named `run`, which indexes.
const BOUND_SERVE: &str = "\
pub fn serve(lines: &[u32]) -> u32 {
    fan(lines) + fan_with(lines, |xs, x| xs.len() as u32 + x)
}
";
const BOUND_TOOL: &str = "\
pub fn run(xs: &[u32], x: u32) -> u32 {
    xs[x as usize]
}
";
/// The pool calls that free fn.
const BOUND_POOL_BAD: &str = "\
pub fn fan(items: &[u32]) -> u32 {
    items.iter().map(|&x| run(items, x)).sum()
}

pub fn fan_with(items: &[u32], f: impl Fn(&[u32], u32) -> u32) -> u32 {
    items.iter().map(|&x| f(items, x)).sum()
}
";
/// Good twin: the pool binds `run` itself, as a `let` closure and as a
/// parameter, so its bare `run(…)` calls are calls to those values.
const BOUND_POOL_GOOD: &str = "\
pub fn fan(items: &[u32]) -> u32 {
    let run = |xs: &[u32], x: u32| xs.len() as u32 + x;
    items.iter().map(|&x| run(items, x)).sum()
}

pub fn fan_with(items: &[u32], run: impl Fn(&[u32], u32) -> u32) -> u32 {
    items.iter().map(|&x| run(items, x)).sum()
}
";

fn bound_name_fixture(tag: &str, pool: &str) -> Fixture {
    let fx = Fixture::new(tag);
    fx.add_crate("served", "pub mod serve;\n");
    fx.write("crates/served/src/serve.rs", BOUND_SERVE);
    fx.add_crate("pool", pool);
    fx.add_crate("tool", BOUND_TOOL);
    fx
}

#[test]
fn a_bare_call_links_the_workspace_fn_of_that_name() {
    let fx = bound_name_fixture("bound-bad", BOUND_POOL_BAD);
    let report = run(fx.path()).expect("lint run");
    let hits = findings_for(&report, "panic-reachable-from-serve");
    assert_eq!(hits.len(), 1, "findings: {:?}", report.findings);
    assert_eq!(hits[0].file, "crates/tool/src/lib.rs");
    assert_eq!(hits[0].line, 2, "the indexing line");
    assert_eq!(hits[0].path, vec!["serve", "fan", "run"]);
}

#[test]
fn a_bare_call_to_a_closure_or_parameter_links_nothing() {
    let fx = bound_name_fixture("bound-good", BOUND_POOL_GOOD);
    let report = run(fx.path()).expect("lint run");
    assert!(
        findings_for(&report, "panic-reachable-from-serve").is_empty(),
        "`run` is the caller's own closure or parameter: {:?}",
        report.findings
    );
}

// ---------------------------------------------------------------------------
// float-order-sensitivity
// ---------------------------------------------------------------------------

/// `.sum::<f64>()` over HashMap values: order-free for the iteration rule,
/// order-SENSITIVE for float rounding.
const FLOAT_BAD: &str = "\
use std::collections::HashMap;

pub fn total(scores: &HashMap<u32, f64>) -> f64 {
    scores.values().sum::<f64>()
}
";
/// Good twin: a BTreeMap iterates in key order on every run.
const FLOAT_GOOD: &str = "\
use std::collections::BTreeMap;

pub fn total(scores: &BTreeMap<u32, f64>) -> f64 {
    scores.values().sum::<f64>()
}
";

#[test]
fn float_sum_over_hash_iteration_fires_where_iteration_rule_is_silent() {
    let fx = Fixture::new("float-bad");
    fx.add_crate("stats", FLOAT_BAD);
    let report = run(fx.path()).expect("lint run");
    let hits = findings_for(&report, "float-order-sensitivity");
    assert_eq!(hits.len(), 1, "findings: {:?}", report.findings);
    assert_eq!(hits[0].line, 4);
    assert!(
        findings_for(&report, "nondeterministic-iteration").is_empty(),
        "the two rules split this site, they do not double-report"
    );
}

#[test]
fn float_sum_over_ordered_map_is_silent() {
    let fx = Fixture::new("float-good");
    fx.add_crate("stats", FLOAT_GOOD);
    let report = run(fx.path()).expect("lint run");
    assert!(
        report.findings.is_empty(),
        "ordered iteration is fine: {:?}",
        report.findings
    );
}

// ---------------------------------------------------------------------------
// alloc-in-hot-loop
// ---------------------------------------------------------------------------

const ALLOC_BAD: &str = "\
// lint:hot — ledger scatter inner loop
pub fn scatter(xs: &[u32]) -> u64 {
    let mut acc = 0u64;
    for x in xs {
        let mut buf = Vec::new();
        buf.push(*x);
        acc += buf.len() as u64 + u64::from(*x);
    }
    acc
}
";
/// Good twin: the buffer is hoisted and reused.
const ALLOC_GOOD: &str = "\
// lint:hot — ledger scatter inner loop
pub fn scatter(xs: &[u32]) -> u64 {
    let mut acc = 0u64;
    let mut buf = Vec::new();
    for x in xs {
        buf.clear();
        buf.push(*x);
        acc += buf.len() as u64 + u64::from(*x);
    }
    acc
}
";

#[test]
fn alloc_inside_a_hot_loop_fires_on_the_alloc_line() {
    let fx = Fixture::new("alloc-bad");
    fx.add_crate("ledger", ALLOC_BAD);
    let report = run(fx.path()).expect("lint run");
    let hits = findings_for(&report, "alloc-in-hot-loop");
    assert_eq!(hits.len(), 1, "findings: {:?}", report.findings);
    assert_eq!(hits[0].line, 5);
    assert!(hits[0].snippet.contains("Vec::new"));
}

#[test]
fn hoisted_alloc_outside_the_loop_is_silent() {
    let fx = Fixture::new("alloc-good");
    fx.add_crate("ledger", ALLOC_GOOD);
    let report = run(fx.path()).expect("lint run");
    assert!(
        report.findings.is_empty(),
        "hoist-and-clear is the sanctioned fix: {:?}",
        report.findings
    );
}

/// Hot loops inside closures passed as arguments: to a helper, to the
/// worker pool inside a `for` loop's header (the ledger kernels' job
/// shape), and to a thread-local cell. Each loop belongs to the function
/// that holds the closure, so its per-iteration `Vec::new()` is found on
/// line 6 as in a plain loop.
const ALLOC_IN_CLOSURES: [(&str, &str); 3] = [
    (
        "helper",
        "\
// lint:hot — ledger kernel
pub fn scatter(xs: &[u32]) -> u64 {
    helper(xs, |ys| {
        let mut acc = 0u64;
        for y in ys {
            let mut buf = Vec::new();
            buf.push(*y);
            acc += buf.len() as u64;
        }
        acc
    })
}

fn helper(xs: &[u32], f: impl Fn(&[u32]) -> u64) -> u64 {
    f(xs)
}
",
    ),
    (
        "pool-in-loop-header",
        "\
// lint:hot — ledger kernel
pub fn scatter(exec: Exec, jobs: Vec<Vec<u32>>) -> u64 {
    let mut total = 0;
    for job in parallel_owned(exec, jobs, |_, ys| {
        for y in ys {
            let mut buf = Vec::new();
            buf.push(y);
        }
        1u64
    }) {
        total += job;
    }
    total
}
",
    ),
    (
        "thread-local",
        "\
// lint:hot — ledger kernel
pub fn scatter(xs: &[u32]) {
    CELL.with_borrow_mut(|live| {
        live.clear();
        for x in xs {
            let mut buf = Vec::new();
            buf.push(*x);
            live.push(buf.len());
        }
    });
}
",
    ),
];

#[test]
fn alloc_inside_a_hot_loop_in_a_closure_argument_fires() {
    for (tag, src) in ALLOC_IN_CLOSURES {
        let fx = Fixture::new(&format!("alloc-closure-{tag}"));
        fx.add_crate("ledger", src);
        let report = run(fx.path()).expect("lint run");
        let hits = findings_for(&report, "alloc-in-hot-loop");
        assert_eq!(hits.len(), 1, "{tag}: {:?}", report.findings);
        assert_eq!(hits[0].line, 6, "{tag}");
        assert!(hits[0].snippet.contains("Vec::new"), "{tag}");
    }
}

// ---------------------------------------------------------------------------
// pragmas for workspace rules
// ---------------------------------------------------------------------------

#[test]
fn workspace_rules_respect_pragmas() {
    let fx = Fixture::new("pragma");
    let src = ALLOC_BAD.replace(
        "        let mut buf = Vec::new();",
        "        // lint:allow(alloc-in-hot-loop): tiny, measured, reused nowhere\n        let mut buf = Vec::new();",
    );
    fx.add_crate("ledger", &src);
    let report = run(fx.path()).expect("lint run");
    assert!(
        findings_for(&report, "alloc-in-hot-loop").is_empty(),
        "pragma silences the workspace rule too: {:?}",
        report.findings
    );
}

// ---------------------------------------------------------------------------
// self-scan: the real workspace stays clean
// ---------------------------------------------------------------------------

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .to_path_buf()
}

#[test]
fn the_workspace_lints_itself_clean() {
    let report = run(&workspace_root()).expect("self scan");
    // Hazards are fixed at the source or carry an inline invariant pragma.
    assert!(
        report.is_clean(),
        "the tree must lint clean: {:?}",
        report.findings
    );
}

/// The serve rule only checks what the call graph reaches. The path that
/// applies hostile log events to serve's world must be on it, and the
/// worker pool's `let run = |…|` closure must not link to the linter's own
/// `run`.
#[test]
fn serve_reaches_the_world_apply_path_of_the_real_workspace() {
    let files = likelab_lint::parse_workspace(&workspace_root()).expect("parse workspace");
    let graph = CallGraph::build(&files);
    let entries = match_entries(&graph, SERVE_ENTRY_POINTS);
    let reached: Vec<&FnNode> = graph
        .reach_from(&entries)
        .keys()
        .map(|&n| &graph.nodes[n])
        .collect();
    for want in ["OsnWorld::apply_event", "LikeLedger::ingest_columns_owned"] {
        assert!(
            reached.iter().any(|n| n.qualified == want),
            "serve's reach lacks {want}"
        );
    }
    assert!(
        !reached.iter().any(|n| n.crate_name == "likelab-lint"),
        "serve reaches the linter"
    );
}
