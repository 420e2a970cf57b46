//! End-to-end fixtures for the analyzer: a synthetic workspace is written
//! to a temp directory and linted through the public [`likelab_lint::run`]
//! entry point, covering discovery, rule firing with exact lines, and
//! pragma suppression.

use likelab_lint::run;
use std::fs;
use std::path::{Path, PathBuf};

/// A scratch workspace that cleans up after itself.
struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(tag: &str) -> Fixture {
        let root =
            std::env::temp_dir().join(format!("likelab-lint-fixture-{}-{tag}", std::process::id()));
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

const BAD_LIB: &str = "\
use std::collections::HashMap;

pub fn totals(m: &HashMap<String, u64>) -> Vec<u64> {
    let mut out = Vec::new();
    for (_k, v) in m {
        out.push(*v);
    }
    out
}

pub fn draws(rng: &Rng, items: &[u32]) -> Vec<u64> {
    parallel_map(Exec::auto(), items, |_x| rng.clone().next_u64())
}

pub fn bypass(ledger: &mut LikeLedger, batch: &LikeColumns) {
    ledger.ingest_columns(batch, Exec::Sequential);
}
";

#[test]
fn known_bad_crate_yields_expected_rules_and_lines() {
    let fx = Fixture::new("known-bad");
    fx.add_crate("demo", BAD_LIB);
    let report = run(fx.path()).expect("lint run");
    assert_eq!(report.files_scanned, 1);

    let got: Vec<(&str, usize)> = report.findings.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(
        got,
        vec![
            ("nondeterministic-iteration", 5),
            ("rng-shared-across-parallel", 12),
            ("log-bypass", 16),
        ],
        "unexpected findings: {:?}",
        report.findings
    );
    let first = &report.findings[0];
    assert_eq!(first.file, "crates/demo/src/lib.rs");
    assert!(first.snippet.contains("for (_k, v) in m"));
    assert!(!first.hint.is_empty(), "every finding carries a fix hint");
}

#[test]
fn pragmas_suppress_exactly_their_rule() {
    let fx = Fixture::new("pragmas");
    let src = "\
use std::collections::HashMap;

pub fn totals(m: &HashMap<String, u64>) -> u64 {
    let mut total = 0;
    // lint:allow(nondeterministic-iteration): summing is commutative.
    for (_k, v) in m {
        total += v;
    }
    total
}

pub fn pick(ledger: &mut LikeLedger, batch: &LikeColumns) {
    ledger.ingest_columns(batch, Exec::Sequential); // lint:allow(log-bypass)
}

pub fn pick2(ledger: &mut LikeLedger, batch: &LikeColumns) {
    // lint:allow(nondeterministic-iteration): wrong rule, must not suppress.
    ledger.ingest_columns(batch, Exec::Sequential);
}
";
    let fx_crate = "demo";
    fx.add_crate(fx_crate, src);
    let report = run(fx.path()).expect("lint run");
    let got: Vec<(&str, usize)> = report.findings.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(
        got,
        vec![("log-bypass", 18)],
        "only the mismatched pragma site stays live: {:?}",
        report.findings
    );
}

#[test]
fn tests_benches_and_binaries_get_the_right_scope() {
    let fx = Fixture::new("scope");
    // Integration tests and benches are never scanned; a crate binary is
    // scanned but the library-only log-bypass rule does not apply there.
    fx.add_crate("demo", "pub fn fine() {}\n");
    fx.write(
        "crates/demo/tests/it.rs",
        "fn main() { ledger.ingest_columns(&batch, exec); }\n",
    );
    fx.write(
        "crates/demo/benches/b.rs",
        "fn main() { world.friends_mut(); }\n",
    );
    fx.write(
        "crates/demo/src/main.rs",
        "fn main() {\n    ledger.ingest_columns(&batch, exec);\n}\n",
    );
    let report = run(fx.path()).expect("lint run");
    assert_eq!(report.files_scanned, 2, "lib.rs and main.rs only");
    assert!(
        report.findings.is_empty(),
        "binaries may call the ledger directly: {:?}",
        report.findings
    );

    // But determinism rules still apply to binaries.
    fx.write(
        "crates/demo/src/main.rs",
        "use std::collections::HashSet;\nfn main() {\n    let s: HashSet<u8> = HashSet::new();\n    for v in &s {\n        eprintln!(\"{v}\");\n    }\n}\n",
    );
    let report = run(fx.path()).expect("lint run");
    let got: Vec<(&str, usize)> = report.findings.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(got, vec![("nondeterministic-iteration", 4)]);
}
