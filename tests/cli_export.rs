//! `likelab export DIR` end to end through the binary: every artifact is
//! written, and the report JSON is the library run's, byte for byte.

use likelab::{run_study, StudyConfig};
use std::process::Command;

/// The files `likelab export` writes into its target directory.
const ARTIFACTS: [&str; 10] = [
    "report.json",
    "dataset.json",
    "figure3_direct.dot",
    "figure3_twohop.dot",
    "figure1.svg",
    "figure2a.svg",
    "figure2b.svg",
    "figure4.svg",
    "figure5a.svg",
    "figure5b.svg",
];

#[test]
fn export_writes_every_artifact_and_the_library_report() {
    let dir = std::env::temp_dir().join(format!("likelab-export-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_likelab"))
        .arg("export")
        .arg(&dir)
        .args(["--scale", "0.02", "--seed", "3"])
        .output()
        .expect("run likelab export");
    assert!(
        out.status.success(),
        "export must exit 0: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    for name in ARTIFACTS {
        let len = std::fs::metadata(dir.join(name))
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .len();
        assert!(len > 0, "{name} is empty");
    }
    let written = std::fs::read_to_string(dir.join("report.json")).unwrap();
    let expected = run_study(&StudyConfig::paper(3, 0.02))
        .report
        .to_json()
        .unwrap();
    assert!(written == expected, "report.json differs from run_study's");
    std::fs::remove_dir_all(&dir).ok();
}
