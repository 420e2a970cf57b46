//! Replay-identity guarantees: a captured study log reproduces the run's
//! report and checklist byte-for-byte at any worker count, from memory or
//! from a file on disk; a damaged log, or one naming an account the world
//! never created or carrying a ragged like batch, is a hard structured
//! error.

use likelab::core::record::read_study_log;
use likelab::core::replay::{replay_records, replay_study, ReplayOptions};
use likelab::core::serve::{ServeConfig, ServeEngine};
use likelab::graph::UserId;
use likelab::osn::WorldEvent;
use likelab::sim::event::{encode_binary, LogError, LogHeader, LogRecord};
use likelab::sim::Exec;
use likelab::{
    checklist, render_checklist, run_study_opts, RunOptions, StudyConfig, StudyError, StudyRecord,
};
use std::path::PathBuf;
use std::sync::OnceLock;

/// One small logged study, shared across tests (runs once).
struct Captured {
    report_json: String,
    render: String,
    checklist: String,
    header: LogHeader,
    records: Vec<(u64, StudyRecord)>,
}

fn captured() -> &'static Captured {
    static SHARED: OnceLock<Captured> = OnceLock::new();
    SHARED.get_or_init(|| {
        let config = StudyConfig::paper(21, 0.02);
        let outcome = run_study_opts(
            &config,
            &RunOptions {
                capture_log: true,
                ..RunOptions::default()
            },
        )
        .expect("logged run");
        let log = outcome.log.as_ref().expect("log captured");
        Captured {
            report_json: outcome.report.to_json().expect("report json"),
            render: outcome.report.render(),
            checklist: render_checklist(&checklist(&outcome.report)),
            header: log.header().clone(),
            records: log.records().to_vec(),
        }
    })
}

/// A scratch directory unique to this test binary + tag.
fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("likelab-replay-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn frames(records: &[(u64, StudyRecord)]) -> Vec<LogRecord> {
    records
        .iter()
        .map(|(seq, r)| LogRecord {
            seq: *seq,
            payload: serde_json::to_string(r).expect("render record"),
        })
        .collect()
}

fn binary_log_bytes() -> Vec<u8> {
    let c = captured();
    encode_binary(&c.header, &frames(&c.records)).expect("encode")
}

#[test]
fn replay_is_byte_identical_at_any_worker_count() {
    let c = captured();
    for exec in [
        Exec::Sequential,
        Exec::Parallel { workers: 2 },
        Exec::Parallel { workers: 8 },
    ] {
        let outcome =
            replay_records(&c.header, c.records.clone(), &ReplayOptions { exec }).expect("replay");
        assert_eq!(
            outcome.report.to_json().unwrap(),
            c.report_json,
            "report JSON must match the original run under {exec:?}"
        );
        assert_eq!(outcome.report.render(), c.render);
        assert_eq!(render_checklist(&checklist(&outcome.report)), c.checklist);
    }
}

#[test]
fn replay_round_trips_through_the_binary_log_on_disk() {
    let c = captured();
    let dir = scratch("on-disk");
    let path = dir.join("study.log");
    std::fs::write(&path, binary_log_bytes()).unwrap();
    let replayed = replay_study(&path, &ReplayOptions::default()).expect("replay from disk");
    assert_eq!(replayed.report.render(), c.render);
    assert_eq!(replayed.report.to_json().unwrap(), c.report_json);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_log_is_a_hard_structured_error() {
    let dir = scratch("truncated");
    let bytes = binary_log_bytes();
    let path = dir.join("truncated.log");
    std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
    match read_study_log(&path) {
        Err(StudyError::Log(LogError::Truncated { offset })) => {
            assert!(offset > 0, "offset names the bad frame");
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_log_is_a_hard_structured_error() {
    let dir = scratch("corrupt");
    let mut bytes = binary_log_bytes();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF; // flip a payload byte inside the final frame
    let path = dir.join("corrupt.log");
    std::fs::write(&path, &bytes).unwrap();
    match read_study_log(&path) {
        Err(StudyError::Log(LogError::Corrupt { .. })) => {}
        other => panic!("expected Corrupt, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_file_that_is_not_a_binary_log_is_a_hard_structured_error() {
    let dir = scratch("not-a-log");
    // Text is not a log format, not even JSON lines that hold a real header.
    let path = dir.join("study.jsonl");
    std::fs::write(&path, "{\"magic\":\"likelab-log\",\"version\":1}\n").unwrap();
    match read_study_log(&path) {
        Err(StudyError::Log(LogError::BadMagic)) => {}
        other => panic!("expected BadMagic, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_frame_naming_an_unknown_account_is_a_structured_error() {
    // The captured log up to its first like batch, tampered two ways: its
    // first liker swapped for an account the world never created, and its
    // time column cut one short of the other two.
    let c = captured();
    let last = c
        .records
        .iter()
        .position(|(_, r)| matches!(r, StudyRecord::World(WorldEvent::LikeBatch { .. })))
        .expect("a like batch");
    for (tag, want) in [
        ("unknown-account", "u4000000"),
        ("ragged-batch", "columns differ in length"),
    ] {
        let mut records = c.records[..=last].to_vec();
        let (bad_seq, record) = &mut records[last];
        let StudyRecord::World(WorldEvent::LikeBatch { likes }) = record else {
            unreachable!("picked a like batch");
        };
        if tag == "ragged-batch" {
            likes.times.pop();
        } else {
            likes.users[0] = UserId(4_000_000);
        }
        let (bad_seq, frames) = (*bad_seq, frames(&records));

        let dir = scratch(tag);
        let path = dir.join("study.log");
        std::fs::write(&path, encode_binary(&c.header, &frames).unwrap()).unwrap();
        match replay_study(&path, &ReplayOptions::default()) {
            Err(StudyError::BadRecord { seq, reason }) => {
                assert_eq!(seq, bad_seq);
                assert!(reason.contains(want), "{reason}");
            }
            other => panic!("expected BadRecord, got {:?}", other.err()),
        }
        std::fs::remove_dir_all(&dir).ok();

        let mut engine = ServeEngine::new(&c.header, ServeConfig::default()).unwrap();
        let (bad, good) = frames.split_last().unwrap();
        for frame in good {
            engine.ingest_frame(&frame.as_frame()).expect("valid frame");
        }
        let (watermark, last_seq) = (engine.watermark(), engine.last_seq());
        match engine.ingest_frame(&bad.as_frame()) {
            Err(StudyError::BadRecord { seq, reason }) => {
                assert_eq!(seq, bad_seq);
                assert!(reason.contains(want), "{reason}");
            }
            other => panic!("expected BadRecord, got {other:?}"),
        }
        assert_eq!(
            engine.records_ingested(),
            good.len() as u64,
            "nothing folded"
        );
        assert_eq!(engine.watermark(), watermark, "the clock did not move");
        assert_eq!(engine.last_seq(), last_seq, "the position did not move");
    }
}
