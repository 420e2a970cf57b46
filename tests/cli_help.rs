//! Golden-snapshot test for the `likelab` CLI help text.
//!
//! The help screen is the CLI's public contract — every command and flag
//! the README and docs reference must actually appear there, and drift
//! between the docs and the binary (e.g. a flag documented but never
//! implemented) should fail loudly. The snapshot lives at
//! `tests/golden/cli_help.txt` and is compared byte-for-byte against
//! what `likelab help` prints.
//!
//! To refresh after an *intentional* CLI surface change:
//!
//! ```text
//! LIKELAB_UPDATE_GOLDEN=1 cargo test --test cli_help
//! ```
//!
//! then review the diff of the golden file like any other code change.

use std::process::Command;

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/cli_help.txt");

fn help_output() -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_likelab"))
        .arg("help")
        .output()
        .expect("run likelab help");
    assert!(out.status.success(), "help must exit 0");
    String::from_utf8(out.stdout).expect("help is valid UTF-8")
}

#[test]
fn help_matches_golden_snapshot() {
    let got = help_output();
    if std::env::var_os("LIKELAB_UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &got).expect("write golden");
        eprintln!("golden refreshed: {GOLDEN_PATH}");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN_PATH).expect("golden file present");
    if got != want {
        let mismatch = got
            .lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w);
        match mismatch {
            Some((i, (g, w))) => panic!(
                "help output drifted from the golden snapshot at line {}:\n  \
                 golden: {w}\n  got:    {g}\n\
                 If the change is intentional, refresh with \
                 LIKELAB_UPDATE_GOLDEN=1 cargo test --test cli_help",
                i + 1
            ),
            None => panic!(
                "help output drifted in length: golden {} lines, got {} lines. \
                 Refresh with LIKELAB_UPDATE_GOLDEN=1 if intentional.",
                want.lines().count(),
                got.lines().count()
            ),
        }
    }
}

/// Every flag the run/replay/serve surface implements must be documented
/// in the help text, and vice versa for the claims the docs make — this is
/// the regression that once let a log flag be claimed without existing.
#[test]
fn help_names_every_event_sourcing_flag() {
    let help = help_output();
    for needle in [
        "--log-out",
        "--checkpoint-dir",
        "--checkpoint-every",
        "--resume",
        "replay LOG",
        "--follow",
        "--tcp",
        "serve LOG",
        "SERVING.md",
        "binary",
    ] {
        assert!(help.contains(needle), "help must mention {needle}");
    }
    // Flags whose machinery is gone must not be advertised.
    for gone in [
        "--log-format",
        "--from-seq",
        "--cache",
        "jsonl",
        "--update-baseline",
        "--no-baseline",
    ] {
        assert!(!help.contains(gone), "help must not mention {gone}");
    }
}
