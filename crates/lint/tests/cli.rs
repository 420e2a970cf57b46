//! Black-box tests of the `likelab-lint` binary: flag parsing, `--explain`,
//! and the SARIF output contract that CI uploads to code scanning.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_likelab-lint"))
}

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("workspace root")
        .to_path_buf()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn explain_prints_the_long_description_and_exits_zero() {
    let out = bin()
        .args(["--explain", "panic-reachable-from-serve"])
        .output()
        .expect("run binary");
    assert!(out.status.success(), "status: {:?}", out.status);
    let text = stdout(&out);
    assert!(text.starts_with("panic-reachable-from-serve"));
    assert!(
        text.contains("lint:allow(panic-reachable-from-serve)"),
        "every explanation shows the suppression spelling: {text}"
    );
}

#[test]
fn explain_rejects_unknown_rules_with_the_catalog() {
    let out = bin()
        .args(["--explain", "no-such-rule"])
        .output()
        .expect("run binary");
    assert_eq!(out.status.code(), Some(2), "usage error exit code");
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("unknown rule `no-such-rule`"));
    assert!(
        err.contains("log-bypass") && err.contains("rng-escapes-parallel"),
        "the error lists the known rules: {err}"
    );
}

#[test]
fn sarif_output_is_valid_enough_for_code_scanning() {
    let root = workspace_root();
    let out = bin()
        .args(["--root"])
        .arg(&root)
        .args(["--format", "sarif"])
        .output()
        .expect("run binary");
    assert!(out.status.success(), "clean tree: {:?}", out.status);
    let text = stdout(&out);
    assert!(text.contains("\"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\""));
    assert!(text.contains("\"version\": \"2.1.0\""));
    assert!(text.contains("\"name\": \"likelab-lint\""));
    // The rule catalog rides along even when there are zero results.
    assert!(text.contains("\"id\": \"alloc-in-hot-loop\""));
}

#[test]
fn bad_format_is_a_usage_error() {
    let out = bin()
        .args(["--format", "yaml"])
        .output()
        .expect("run binary");
    assert_eq!(out.status.code(), Some(2));
}
