//! The bytes the JSON codec must never change: the binary study log and
//! the pretty report JSON of one fixed study, pinned by length and FNV-1a
//! digest.
//!
//! A log written by an older build replays under a newer one only while
//! every record renders to the same bytes; that is what lets
//! `FORMAT_VERSION` stay put across a codec rewrite. The report JSON pins
//! the pretty writer the same way.

use likelab::sim::event::FORMAT_VERSION;
use likelab::{run_study_opts, RunOptions, StudyConfig};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[test]
fn log_and_report_bytes_are_pinned() {
    let outcome = run_study_opts(
        &StudyConfig::paper(42, 0.02),
        &RunOptions {
            capture_log: true,
            ..RunOptions::default()
        },
    )
    .expect("logged run");
    let log = outcome.log.as_ref().expect("log captured");
    let binary = log.to_binary().expect("encode log");
    let report = outcome.report.to_json().expect("report json");

    assert_eq!(FORMAT_VERSION, 3, "the pins below are version-3 bytes");
    assert_eq!(
        (binary.len(), format!("{:016x}", fnv1a(&binary))),
        (9_210_257, "5cd2b7a933cca85e".to_string()),
        "study log bytes"
    );
    assert_eq!(
        (report.len(), format!("{:016x}", fnv1a(report.as_bytes()))),
        (39_337, "db7bc83c85cef743".to_string()),
        "report JSON bytes"
    );
}
