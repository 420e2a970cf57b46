//! # likelab-lint — determinism & hygiene analysis for the workspace
//!
//! Every headline number in the reproduction rests on one invariant: a
//! study run is **byte-identical** across worker counts, fault toggles,
//! and machines. That invariant is enforced dynamically by the
//! worker-invariance and golden-checklist tests — but a stray `HashMap`
//! iteration or ambient `SystemTime` call can slip into a rarely-executed
//! report path and break it silently. This crate catches those patterns
//! at the source level, before a test ever runs.
//!
//! It is a deliberately small, zero-external-dependency analyzer: a
//! hand-rolled tokenizer (strings/comments/attributes aware — no `syn`),
//! a syntactic layer on top of it — an item/function parser
//! ([`parse`]), a workspace call graph ([`callgraph`]), and per-function
//! dataflow summaries ([`dataflow`]) powering interprocedural rules with
//! `reachable via a → b → c` diagnostics — plus a rule engine with
//! per-line `// lint:allow(rule)` pragmas. Hazards that need types
//! (unwraps, stdout, ambient time and entropy) are clippy's, configured in
//! the library roots and the workspace's `clippy.toml`.
//!
//! ## Usage
//!
//! ```text
//! cargo run -p likelab-lint -- [--root DIR] [--format human|json|sarif]
//!     [--report-out FILE] [--list-rules] [--explain RULE]
//! ```
//!
//! Exit status is 0 when the workspace is clean, 1 when any finding
//! remains, 2 on usage/IO errors.
//!
//! The rule catalog lives in `LINTS.md` at the workspace root; rule ids
//! are stable and listed by [`rules::RULES`].
//!
//! ## Library example
//!
//! ```
//! use likelab_lint::{rules, walk::FileKind};
//!
//! let src = "pub fn f(l: &mut LikeLedger) {\n    l.ingest_columns(batch, exec);\n}\n";
//! let findings = rules::scan_source("crates/x/src/lib.rs", FileKind::Library, src);
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].rule, "log-bypass");
//! assert_eq!(findings[0].line, 2);
//! ```

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::dbg_macro
)]

pub mod callgraph;
pub mod dataflow;
pub mod diagnostics;
pub mod parse;
pub mod rules;
pub mod tokenizer;
pub mod walk;

use diagnostics::Report;
use std::fs;
use std::path::Path;

/// Read, mask and parse every file of the workspace rooted at `root`.
pub fn parse_workspace(root: &Path) -> Result<Vec<parse::ParsedFile>, String> {
    let files = walk::discover(root).map_err(|e| format!("scan {}: {e}", root.display()))?;
    files
        .into_iter()
        .map(|f| {
            let path = root.join(&f.rel_path);
            let source =
                fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
            let masked = tokenizer::mask(&source);
            let items = parse::parse(&masked);
            Ok(parse::ParsedFile {
                rel_path: f.rel_path,
                crate_name: f.crate_name,
                kind: f.kind,
                masked,
                items,
            })
        })
        .collect()
}

/// Lint the workspace rooted at `root`.
pub fn run(root: &Path) -> Result<Report, String> {
    // Phase 1: read, mask, and parse every file once. The parsed set is
    // shared by the per-file rules and the interprocedural passes.
    let parsed = parse_workspace(root)?;
    // Phase 2: per-file rules, then the workspace rules over the call graph.
    let mut all = Vec::new();
    for pf in &parsed {
        all.extend(rules::scan_masked(&pf.rel_path, pf.kind, &pf.masked));
    }
    let graph = callgraph::CallGraph::build(&parsed);
    all.extend(rules::scan_workspace(&parsed, &graph));
    all.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(Report {
        findings: all,
        files_scanned: parsed.len(),
    })
}

/// Locate the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` contains a `[workspace]` table.
pub fn find_workspace_root(start: &Path) -> Option<std::path::PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}
