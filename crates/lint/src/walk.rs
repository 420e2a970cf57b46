//! Workspace file discovery and classification.
//!
//! The analyzer scans the workspace's own source — `crates/*/src`, the
//! root `src/`, and `examples/` — and skips what the rules never apply
//! to: `target/`, `vendor/` (external shims are not ours to lint),
//! integration `tests/`, and `benches/`.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// What kind of source a file is; rules scope themselves by this.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// A library source file (`crates/*/src/**`, root `src/lib.rs`).
    Library,
    /// A binary entry point (any `src/main.rs`).
    Binary,
    /// A file under `examples/`.
    Example,
}

/// One file selected for scanning.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Workspace-relative, `/`-separated path.
    pub rel_path: String,
    /// Crate name (`likelab-sim`, …) or `likelab` for the root package.
    pub crate_name: String,
    /// Classification used for rule scoping.
    pub kind: FileKind,
}

/// Find every scannable source file under `root` (the workspace root),
/// sorted by path for deterministic reports.
pub fn discover(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    // Root package: src/ and examples/.
    collect_dir(root, &root.join("src"), "likelab", &mut out)?;
    collect_dir(root, &root.join("examples"), "likelab", &mut out)?;
    // Member crates: crates/*/src only (tests/ and benches/ are out of
    // scope for every rule; vendor/ is external code).
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let dir = entry?.path();
            if !dir.is_dir() {
                continue;
            }
            let name = crate_name_of(&dir);
            collect_dir(root, &dir.join("src"), &name, &mut out)?;
        }
    }
    out.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(out)
}

/// The package name of a crate directory: parsed from its `Cargo.toml`
/// `name = "…"` line, falling back to the directory name.
fn crate_name_of(dir: &Path) -> String {
    let manifest = dir.join("Cargo.toml");
    if let Ok(text) = fs::read_to_string(&manifest) {
        for line in text.lines() {
            let line = line.trim();
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    return rest.trim().trim_matches('"').to_string();
                }
            }
        }
    }
    dir.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default()
}

/// Recursively collect `.rs` files under `dir` into `out`.
fn collect_dir(
    root: &Path,
    dir: &Path,
    crate_name: &str,
    out: &mut Vec<SourceFile>,
) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut stack: Vec<PathBuf> = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                let kind = classify(&rel);
                out.push(SourceFile {
                    rel_path: rel,
                    crate_name: crate_name.to_string(),
                    kind,
                });
            }
        }
    }
    Ok(())
}

/// Classify a workspace-relative path.
fn classify(rel: &str) -> FileKind {
    if rel.starts_with("examples/") {
        FileKind::Example
    } else if rel.ends_with("/main.rs") {
        FileKind::Binary
    } else {
        FileKind::Library
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        assert_eq!(classify("src/lib.rs"), FileKind::Library);
        assert_eq!(classify("src/main.rs"), FileKind::Binary);
        assert_eq!(classify("crates/lint/src/main.rs"), FileKind::Binary);
        assert_eq!(classify("crates/sim/src/rng.rs"), FileKind::Library);
        assert_eq!(classify("examples/farm_forensics.rs"), FileKind::Example);
    }

    #[test]
    fn discover_finds_this_crate() {
        // The lint crate's own workspace root is two levels up.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        let files = discover(root).expect("discover");
        assert!(files
            .iter()
            .any(|f| f.rel_path == "crates/lint/src/walk.rs"));
        assert!(files
            .iter()
            .all(|f| !f.rel_path.contains("vendor/") && !f.rel_path.contains("target/")));
        // Sorted and unique.
        let mut sorted = files.iter().map(|f| f.rel_path.clone()).collect::<Vec<_>>();
        sorted.dedup();
        assert_eq!(sorted.len(), files.len());
        let this = files
            .iter()
            .find(|f| f.rel_path == "crates/lint/src/walk.rs")
            .expect("self");
        assert_eq!(this.crate_name, "likelab-lint");
        assert_eq!(this.kind, FileKind::Library);
    }
}
