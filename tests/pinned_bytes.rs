//! The bytes the JSON codec must never change: the binary study log and
//! the pretty report JSON of fixed studies, pinned by length and FNV-1a
//! digest.
//!
//! A log written by an older build replays under a newer one only while
//! every record renders to the same bytes; that is what lets
//! `FORMAT_VERSION` stay put across a codec rewrite. The report JSON pins
//! the pretty writer the same way. The scale-preset row also pins the
//! population synthesis its log carries row for row: many country slices
//! and a like batch spread over many time buckets.

use likelab::sim::event::FORMAT_VERSION;
use likelab::{run_study_opts, RunOptions, StudyConfig};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// `(length, FNV-1a)` of the study's binary log and of its report JSON.
fn log_and_report_digests(config: &StudyConfig) -> ((usize, String), (usize, String)) {
    let outcome = run_study_opts(
        config,
        &RunOptions {
            capture_log: true,
            ..RunOptions::default()
        },
    )
    .expect("logged run");
    let log = outcome.log.as_ref().expect("log captured");
    let binary = log.to_binary().expect("encode log");
    let report = outcome.report.to_json().expect("report json");
    let digest = |bytes: &[u8]| (bytes.len(), format!("{:016x}", fnv1a(bytes)));
    (digest(&binary), digest(report.as_bytes()))
}

#[test]
fn log_and_report_bytes_are_pinned() {
    let (binary, report) = log_and_report_digests(&StudyConfig::paper(42, 0.02));

    assert_eq!(FORMAT_VERSION, 3, "the pins below are version-3 bytes");
    assert_eq!(
        binary,
        (9_210_257, "5cd2b7a933cca85e".to_string()),
        "study log bytes"
    );
    assert_eq!(
        report,
        (39_337, "db7bc83c85cef743".to_string()),
        "report JSON bytes"
    );
}

#[test]
fn scale_preset_bytes_are_pinned() {
    let (binary, report) = log_and_report_digests(&StudyConfig::scale_world(42, 0.01));

    assert_eq!(FORMAT_VERSION, 3, "the pins below are version-3 bytes");
    assert_eq!(
        binary,
        (13_395_701, "65f2844f79c014c0".to_string()),
        "scale study log bytes"
    );
    assert_eq!(
        report,
        (37_790, "ff74a2b3de806551".to_string()),
        "scale report JSON bytes"
    );
}
