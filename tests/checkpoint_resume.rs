//! Checkpoint/resume: a run killed mid-event-loop and resumed from its
//! checkpoint directory finishes byte-identical to an uninterrupted run.

use likelab::{run_study, run_study_opts, RunOptions, StudyConfig, StudyError, StudyOutcome};
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "likelab-checkpoint-test-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn crash_and_resume_is_byte_identical() {
    let dir = scratch("resume");
    let config = StudyConfig::paper(9, 0.02);
    let uninterrupted = run_study(&config);

    // Run with checkpointing and the crash hook: dies after 1 checkpoint.
    let crashed = run_study_opts(
        &config,
        &RunOptions {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 5_000,
            crash_after_checkpoints: Some(1),
            ..RunOptions::default()
        },
    );
    match crashed {
        Err(StudyError::SimulatedCrash { checkpoints }) => assert_eq!(checkpoints, 1),
        Ok(_) => panic!("the crash hook must fire"),
        Err(other) => panic!("expected SimulatedCrash, got {other}"),
    }
    assert!(dir.join("checkpoint.json").exists());
    assert!(dir.join("world.log").exists());

    // Resume and compare: dataset, report, and trace all byte-identical.
    let resumed = run_study_opts(
        &config,
        &RunOptions {
            checkpoint_dir: Some(dir.clone()),
            resume: true,
            ..RunOptions::default()
        },
    )
    .expect("resume");
    assert_eq!(
        uninterrupted.report.to_json().unwrap(),
        resumed.report.to_json().unwrap(),
        "resumed report must match the uninterrupted run"
    );
    assert_eq!(uninterrupted.report.render(), resumed.report.render());
    assert_eq!(
        uninterrupted.dataset.to_json().unwrap(),
        resumed.dataset.to_json().unwrap(),
        "resumed dataset must match the uninterrupted run"
    );
    assert_eq!(
        format!("{:?}", uninterrupted.trace),
        format!("{:?}", resumed.trace),
        "the run journal survives the crash"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resuming_twice_from_the_same_checkpoint_is_deterministic() {
    let dir = scratch("twice");
    let config = StudyConfig::paper(5, 0.02);
    let crashed = run_study_opts(
        &config,
        &RunOptions {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 5_000,
            crash_after_checkpoints: Some(1),
            ..RunOptions::default()
        },
    );
    assert!(matches!(crashed, Err(StudyError::SimulatedCrash { .. })));

    // Snapshot the checkpoint so the second resume starts from the same
    // frozen state (a resume truncates and appends to world.log).
    let copy = scratch("twice-copy");
    std::fs::create_dir_all(&copy).unwrap();
    for f in ["checkpoint.json", "world.log"] {
        std::fs::copy(dir.join(f), copy.join(f)).unwrap();
    }

    let resume = |d: &PathBuf| {
        run_study_opts(
            &config,
            &RunOptions {
                checkpoint_dir: Some(d.clone()),
                resume: true,
                ..RunOptions::default()
            },
        )
        .expect("resume")
    };
    let a = resume(&dir);
    let b = resume(&copy);
    assert_eq!(
        a.report.to_json().unwrap(),
        b.report.to_json().unwrap(),
        "resume is a pure function of the checkpoint"
    );

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&copy).ok();
}

#[test]
fn resume_without_a_checkpoint_is_a_hard_error() {
    let dir = scratch("missing");
    std::fs::create_dir_all(&dir).unwrap();
    let err = run_study_opts(
        &StudyConfig::paper(1, 0.02),
        &RunOptions {
            checkpoint_dir: Some(dir.clone()),
            resume: true,
            ..RunOptions::default()
        },
    );
    assert!(
        matches!(err, Err(StudyError::Io { .. })),
        "missing checkpoint.json must surface as a structured I/O error"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `checkpoint.json` is read back from disk, so resume treats it as
/// outside input. A queue whose entries could collide with a future push
/// (the next sequence number zeroed, or one entry's pushed past it), a
/// study window that disagrees with the config, a zero sweep interval
/// (either of the last two kept the sweep rescheduling itself forever), a
/// log sequence number that does not continue the pinned log, a config
/// that differs from the log header's, a monitor list that does not match
/// the campaigns, the queued polls or the launched pages, another format
/// version (or none),
/// and planned likes with ragged columns, an unknown account or page, a
/// time before the clock or times out of order, and a log prefix pinned
/// before the campaigns launched are each a structured error, and the log
/// is left as it was.
#[test]
fn a_checkpoint_queue_with_colliding_seqs_is_a_structured_error() {
    use serde::Value;
    let dir = scratch("bad-queue");
    let crashed = run_study_opts(
        &StudyConfig::paper(3, 0.02),
        &RunOptions {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 5_000,
            crash_after_checkpoints: Some(1),
            ..RunOptions::default()
        },
    );
    assert!(matches!(crashed, Err(StudyError::SimulatedCrash { .. })));
    let json = std::fs::read_to_string(dir.join("checkpoint.json")).unwrap();
    let log = std::fs::read(dir.join("world.log")).unwrap();

    fn field<'a>(doc: &'a mut Value, name: &str) -> &'a mut Value {
        let Value::Object(fields) = doc else {
            panic!("checkpoint is an object")
        };
        let (_, value) = fields.iter_mut().find(|(k, _)| k == name).unwrap();
        value
    }
    fn zero_next_seq(doc: &mut Value) {
        *field(doc, "queue_next_seq") = Value::UInt(0);
    }
    fn huge_entry_seq(doc: &mut Value) {
        let Value::Array(entries) = field(doc, "queue") else {
            panic!("queue is an array")
        };
        let Value::Array(entry) = &mut entries[0] else {
            panic!("an entry is an [at, seq, event] array")
        };
        entry[1] = Value::UInt(1 << 63);
    }
    fn shift(doc: &mut Value, name: &str, secs: i64) {
        let Value::UInt(at) = field(doc, name) else {
            panic!("{name} is a number of seconds")
        };
        *at = at.checked_add_signed(secs).unwrap();
    }
    fn endless_end(doc: &mut Value) {
        *field(doc, "end") = Value::UInt(u64::MAX);
    }
    fn end_a_day_early(doc: &mut Value) {
        shift(doc, "end", -86_400);
    }
    fn launch_a_day_late(doc: &mut Value) {
        shift(doc, "launch", 86_400);
    }
    fn zero_sweep_interval(doc: &mut Value) {
        *field(field(doc, "config"), "sweep_interval") = Value::UInt(0);
    }
    fn secs_of(doc: &mut Value, name: &str) -> u64 {
        let Value::UInt(at) = field(doc, name) else {
            panic!("{name} is a number of seconds")
        };
        *at
    }
    fn now_before_launch(doc: &mut Value) {
        *field(doc, "now") = Value::UInt(secs_of(doc, "launch") - 1);
    }
    fn now_a_day_after_end(doc: &mut Value) {
        *field(doc, "now") = Value::UInt(secs_of(doc, "end") + 86_400);
    }
    fn now_past_the_earliest_entry(doc: &mut Value) {
        let Value::Array(entries) = field(doc, "queue") else {
            panic!("queue is an array")
        };
        let earliest = entries
            .iter()
            .map(|entry| match entry {
                Value::Array(entry) => match entry[0] {
                    Value::UInt(at) => at,
                    _ => panic!("an entry's time is a number of seconds"),
                },
                _ => panic!("an entry is an [at, seq, event] array"),
            })
            .min()
            .expect("the checkpoint was taken mid-loop, with events queued");
        *field(doc, "now") = Value::UInt(earliest + 1);
    }
    fn fired_at_the_limit(doc: &mut Value) {
        *field(doc, "fired") = Value::UInt(u64::MAX);
    }
    fn next_seq_one_low(doc: &mut Value) {
        shift(doc, "next_seq", -1);
    }
    fn next_seq_one_high(doc: &mut Value) {
        shift(doc, "next_seq", 1);
    }
    fn monitors_cut_to_the_first(doc: &mut Value) {
        let Value::Array(monitors) = field(doc, "monitors") else {
            panic!("monitors is an array")
        };
        monitors.truncate(1);
    }
    /// The `[at, seq, event]` entry of the first queued `tag` event.
    fn queued<'a>(doc: &'a mut Value, tag: &str) -> &'a mut Vec<Value> {
        let Value::Array(entries) = field(doc, "queue") else {
            panic!("queue is an array")
        };
        entries
            .iter_mut()
            .find_map(|entry| match entry {
                Value::Array(entry) => match &entry[2] {
                    Value::Str(t) if t == tag => Some(entry),
                    Value::Object(ev) if ev.first().is_some_and(|(t, _)| t == tag) => Some(entry),
                    _ => None,
                },
                _ => panic!("an entry is an [at, seq, event] array"),
            })
            .unwrap_or_else(|| panic!("the checkpoint was taken with a {tag} queued"))
    }
    fn null_a_polled_monitor(doc: &mut Value) {
        let polled = match &queued(doc, "Poll")[2] {
            Value::Object(ev) => match ev[0].1 {
                Value::UInt(i) => i as usize,
                _ => panic!("a poll names its campaign"),
            },
            _ => panic!("a poll is a one-field object"),
        };
        let Value::Array(monitors) = field(doc, "monitors") else {
            panic!("monitors is an array")
        };
        monitors[polled] = Value::Null;
    }
    fn monitor_of_an_unknown_page(doc: &mut Value) {
        let Value::Array(monitors) = field(doc, "monitors") else {
            panic!("monitors is an array")
        };
        *field(&mut monitors[0], "page") = Value::UInt(99_999_999);
    }
    fn monitor_on_an_inactive_campaign(doc: &mut Value) {
        let Value::Array(monitors) = field(doc, "monitors") else {
            panic!("monitors is an array")
        };
        let inactive = monitors.iter().position(|m| *m == Value::Null);
        monitors[inactive.expect("the paper preset has inactive campaigns")] = monitors[0].clone();
    }
    fn version_0(doc: &mut Value) {
        *field(doc, "version") = Value::UInt(0);
    }
    fn version_2(doc: &mut Value) {
        *field(doc, "version") = Value::UInt(2);
    }
    fn no_version(doc: &mut Value) {
        let Value::Object(fields) = doc else {
            panic!("checkpoint is an object")
        };
        fields.retain(|(k, _)| k != "version");
    }
    fn planned_column<'a>(doc: &'a mut Value, name: &str) -> &'a mut Vec<Value> {
        let Value::Array(column) = field(field(doc, "planned"), name) else {
            panic!("planned.{name} is an array")
        };
        assert!(column.len() > 1, "the checkpoint has likes still planned");
        column
    }
    fn ragged_planned(doc: &mut Value) {
        planned_column(doc, "pages").pop();
    }
    fn planned_unknown_user(doc: &mut Value) {
        planned_column(doc, "users")[0] = Value::UInt(99_999_999);
    }
    fn planned_unknown_page(doc: &mut Value) {
        planned_column(doc, "pages")[0] = Value::UInt(99_999_999);
    }
    fn planned_before_the_clock(doc: &mut Value) {
        let now = secs_of(doc, "now");
        planned_column(doc, "times")[0] = Value::UInt(now - 1);
    }
    fn planned_out_of_order(doc: &mut Value) {
        let times = planned_column(doc, "times");
        let last = times.len() - 1;
        assert_ne!(times[0], times[last], "the planned likes span time");
        times.swap(0, last);
    }
    fn sweep_at_the_end_of_the_clock(doc: &mut Value) {
        queued(doc, "Sweep")[0] = Value::UInt(u64::MAX);
    }
    fn rename_the_first_campaign(doc: &mut Value) {
        let Value::Array(campaigns) = field(field(doc, "config"), "campaigns") else {
            panic!("campaigns is an array")
        };
        let label = field(&mut campaigns[0], "label");
        assert_eq!(*label, Value::Str("FB-USA".into()));
        *label = Value::Str("FB-XXX".into());
    }
    for (what, mutate, needle) in [
        (
            "queue_next_seq = 0",
            zero_next_seq as fn(&mut Value),
            "restored entry seq",
        ),
        ("entry seq = 2^63", huge_entry_seq, "restored entry seq"),
        ("end = 2^64 - 1", endless_end, "study end d213503982334601"),
        ("end one day early", end_a_day_early, "study end"),
        ("launch one day late", launch_a_day_late, "study launch"),
        (
            "sweep_interval = 0",
            zero_sweep_interval,
            "config.sweep_interval is 0",
        ),
        (
            "now = launch - 1 s",
            now_before_launch,
            "is before the study launch",
        ),
        (
            "now = end + 1 day",
            now_a_day_after_end,
            "is past the study end",
        ),
        (
            "now = earliest queued entry + 1 s",
            now_past_the_earliest_entry,
            "is earlier than the clock",
        ),
        (
            "fired = 2^64 - 1",
            fired_at_the_limit,
            "fired 18446744073709551615 is within 2^32",
        ),
        (
            "next_seq - 1",
            next_seq_one_low,
            "reuses a sequence number of the pinned log",
        ),
        (
            "next_seq + 1",
            next_seq_one_high,
            "leaves a gap after the pinned log",
        ),
        (
            "campaign FB-USA renamed FB-XXX",
            rename_the_first_campaign,
            "config differs from the one in the header",
        ),
        (
            "monitors cut to their first entry",
            monitors_cut_to_the_first,
            "monitors has length 1, but the config has 13 campaigns",
        ),
        (
            "monitors[i] = null with a Poll(i) queued",
            null_a_polled_monitor,
            "is queued, but it has no monitor",
        ),
        (
            "monitors[0].page = 99,999,999",
            monitor_of_an_unknown_page,
            "monitors[0] watches p99999999, but campaign #0 launched",
        ),
        (
            "a monitor for an inactive campaign",
            monitor_on_an_inactive_campaign,
            "is set, but campaign #",
        ),
        (
            "version = 0",
            version_0,
            "format version 0; this build reads version 1",
        ),
        (
            "version = 2",
            version_2,
            "format version 2; this build reads version 1",
        ),
        (
            "version missing",
            no_version,
            "no checkpoint format version (written before version 1); this build reads version 1",
        ),
        (
            "planned.pages one short",
            ragged_planned,
            "planned has ragged columns",
        ),
        (
            "planned.users[0] = 99,999,999",
            planned_unknown_user,
            "names account",
        ),
        (
            "planned.pages[0] = 99,999,999",
            planned_unknown_page,
            "names page",
        ),
        (
            "planned.times[0] = now - 1 s",
            planned_before_the_clock,
            "a planned like at",
        ),
        (
            "planned.times first and last swapped",
            planned_out_of_order,
            "planned likes are out of time order",
        ),
        (
            "a Sweep queued at 2^64 - 1",
            sweep_at_the_end_of_the_clock,
            "a sweep is queued at d213503982334601",
        ),
    ] {
        let mut doc: Value = serde_json::from_str(&json).unwrap();
        mutate(&mut doc);
        refused(what, &doc, needle, &log);
    }

    // Pinned to the log prefix before the first launch record, the
    // checkpoint continues that prefix, but the campaigns it polls were
    // never launched there. A frame is a 4-byte length, an 8-byte seq and
    // an 8-byte checksum, then the payload; the header is 12 bytes and
    // its meta document.
    let mut at = 12 + u32::from_le_bytes(log[8..12].try_into().unwrap()) as usize;
    let (bytes, seq) = loop {
        let len = u32::from_le_bytes(log[at..at + 4].try_into().unwrap()) as usize;
        let seq = u64::from_le_bytes(log[at + 4..at + 12].try_into().unwrap());
        let payload = &log[at + 20..at + 20 + len];
        if payload.windows(16).any(|w| w == b"CampaignLaunched") {
            break (at as u64, seq);
        }
        at += 20 + len;
    };
    let mut doc: Value = serde_json::from_str(&json).unwrap();
    *field(&mut doc, "log_bytes") = Value::UInt(bytes);
    *field(&mut doc, "next_seq") = Value::UInt(seq);
    refused(
        "pinned before the first launch",
        &doc,
        "campaign #0 never launched in the pinned log",
        &log,
    );

    // A poll queued at the end of the clock is no hazard: it fires last,
    // its monitor stops, and the run ends.
    let mut doc: Value = serde_json::from_str(&json).unwrap();
    queued(&mut doc, "Poll")[0] = Value::UInt(u64::MAX);
    let (resumed, late) = resume_copy("late-poll", &doc, &log);
    if let Err(e) = resumed {
        panic!("a Poll queued at 2^64 - 1 must end cleanly: {e}");
    }
    std::fs::remove_dir_all(&late).ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// Resume a copy of the checkpoint directory, made in the scratch
/// directory `tag`, whose `checkpoint.json` is `doc` and `world.log` is
/// `log`. Returns the outcome and the copy's path.
fn resume_copy(
    tag: &str,
    doc: &serde::Value,
    log: &[u8],
) -> (Result<StudyOutcome, StudyError>, PathBuf) {
    let copy = scratch(tag);
    std::fs::create_dir_all(&copy).unwrap();
    std::fs::write(
        copy.join("checkpoint.json"),
        serde_json::to_string_pretty(doc).unwrap(),
    )
    .unwrap();
    std::fs::write(copy.join("world.log"), log).unwrap();
    let resumed = run_study_opts(
        &StudyConfig::paper(3, 0.02),
        &RunOptions {
            checkpoint_dir: Some(copy.clone()),
            resume: true,
            ..RunOptions::default()
        },
    );
    (resumed, copy)
}

/// Resume a copy of the checkpoint directory whose `checkpoint.json` is
/// `doc` and `world.log` is `log`: it must be a `Mismatch` naming
/// `needle`, and leave the log as it was.
fn refused(what: &str, doc: &serde::Value, needle: &str, log: &[u8]) {
    let (resumed, bad) = resume_copy("bad-queue-copy", doc, log);
    match resumed {
        Err(StudyError::Mismatch(why)) => {
            assert!(why.contains(needle), "{what}: {why}");
        }
        Err(other) => panic!("{what}: expected Mismatch, got {other}"),
        Ok(_) => panic!("{what}: resumed from a hostile checkpoint"),
    }
    assert_eq!(std::fs::read(bad.join("world.log")).unwrap(), log, "{what}");
    std::fs::remove_dir_all(&bad).ok();
}
