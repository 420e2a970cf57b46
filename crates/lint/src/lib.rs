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
//! per-line `// lint:allow(rule)` pragmas and a checked-in baseline
//! (`lint-baseline.json`) so pre-existing findings do not block the
//! build while new ones fail it.
//!
//! ## Usage
//!
//! ```text
//! likelab lint                         # via the main CLI
//! cargo run -p likelab-lint --         # standalone, same flags
//!     [--root DIR] [--format human|json|sarif]
//!     [--baseline lint-baseline.json] [--update-baseline]
//!     [--list-rules] [--explain RULE]
//! ```
//!
//! Exit status is 0 when the workspace is clean (modulo baseline), 1 when
//! any non-baselined finding remains, 2 on usage/IO errors. Refresh the
//! baseline with `LIKELAB_UPDATE_LINT_BASELINE=1` (mirroring the golden
//! checklist's `LIKELAB_UPDATE_GOLDEN=1` convention).
//!
//! The rule catalog lives in `LINTS.md` at the workspace root; rule ids
//! are stable and listed by [`rules::RULES`].
//!
//! ## Library example
//!
//! ```
//! use likelab_lint::{rules, walk::FileKind};
//!
//! let src = "pub fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
//! let findings = rules::scan_source("crates/x/src/lib.rs", "x", FileKind::Library, src);
//! assert_eq!(findings.len(), 1);
//! assert_eq!(findings[0].rule, "unwrap-in-library");
//! assert_eq!(findings[0].line, 1);
//! ```

pub mod baseline;
pub mod callgraph;
pub mod dataflow;
pub mod diagnostics;
pub mod parse;
pub mod rules;
pub mod tokenizer;
pub mod walk;

use baseline::Baseline;
use diagnostics::Report;
use std::fs;
use std::path::Path;

/// Options for a workspace lint run.
#[derive(Clone, Debug, Default)]
pub struct Options {
    /// Baseline file path (workspace-relative or absolute); `None` runs
    /// without a baseline.
    pub baseline: Option<String>,
    /// Rewrite the baseline to exactly the current findings.
    pub update_baseline: bool,
}

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
///
/// When `opts.update_baseline` is set, the baseline file is rewritten to
/// accept every current finding and the returned report is clean.
pub fn run(root: &Path, opts: &Options) -> Result<Report, String> {
    // Phase 1: read, mask, and parse every file once. The parsed set is
    // shared by the per-file rules and the interprocedural passes.
    let parsed = parse_workspace(root)?;
    // Phase 2: per-file rules, then the workspace rules over the call graph.
    let mut all = Vec::new();
    for pf in &parsed {
        all.extend(rules::scan_masked(
            &pf.rel_path,
            &pf.crate_name,
            pf.kind,
            &pf.masked,
        ));
    }
    let graph = callgraph::CallGraph::build(&parsed);
    all.extend(rules::scan_workspace(&parsed, &graph));
    all.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    let files_scanned = parsed.len();

    let Some(baseline_rel) = &opts.baseline else {
        return Ok(Report {
            findings: all,
            files_scanned,
            ..Report::default()
        });
    };
    let baseline_path = root.join(baseline_rel);

    if opts.update_baseline {
        let baseline = Baseline::from_findings(&all);
        fs::write(&baseline_path, baseline.to_json())
            .map_err(|e| format!("write {}: {e}", baseline_path.display()))?;
        return Ok(Report {
            baselined: all,
            files_scanned,
            ..Report::default()
        });
    }

    let baseline = if baseline_path.exists() {
        let text = fs::read_to_string(&baseline_path)
            .map_err(|e| format!("read {}: {e}", baseline_path.display()))?;
        Baseline::parse(&text).map_err(|e| format!("{}: {e}", baseline_path.display()))?
    } else {
        Baseline::default()
    };
    let (findings, baselined, stale_baseline) = baseline.apply(all);
    Ok(Report {
        findings,
        baselined,
        stale_baseline,
        files_scanned,
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
