//! Checkpoint/resume: a run killed mid-event-loop and resumed from its
//! checkpoint directory finishes byte-identical to an uninterrupted run.

use likelab::farms::DeliveryStyle;
use likelab::honeypot::Promotion;
use likelab::{run_study, run_study_opts, RunOptions, StudyConfig, StudyError, StudyOutcome};
use std::path::PathBuf;
use std::process::Command;

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

/// `likelab run --resume DIR` goes on under the config in `DIR/world.log`'s
/// header, so with no preset, seed or scale flag it still prints what the
/// uninterrupted run printed: for a chaos run, the report and the
/// clean-vs-faulted robustness comparison, which the flags' default paper
/// preset has none of.
#[test]
fn a_resumed_chaos_run_prints_the_uninterrupted_stdout() {
    let dir = scratch("chaos-cli");
    let ckpt = dir.to_str().expect("utf-8 temp path");
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_likelab"))
            .arg("run")
            .args(args)
            .output()
            .expect("run likelab")
    };
    let chaos = ["--preset", "chaos", "--scale", "0.03", "--seed", "11"];
    let uninterrupted = run(&chaos);
    assert!(
        uninterrupted.status.success(),
        "the uninterrupted run exits 0"
    );
    let hook = ["--checkpoint-dir", ckpt, "--crash-after-checkpoints", "1"];
    let crashed = run(&[&chaos[..], &hook[..]].concat());
    assert_eq!(crashed.status.code(), Some(86), "the crash hook must fire");
    let resumed = run(&["--resume", ckpt]);
    assert!(
        resumed.status.success(),
        "resume must exit 0: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let stdout = String::from_utf8(resumed.stdout).expect("utf-8 stdout");
    assert!(
        stdout.contains("== Crawl robustness: clean vs faulted =="),
        "the resumed chaos run prints the robustness comparison"
    );
    assert!(
        stdout.as_bytes() == uninterrupted.stdout,
        "the resumed run's stdout differs from the uninterrupted run's"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A resumed run checkpoints at the cadence its `checkpoint.json` stores,
/// so `likelab run --resume DIR` alone ends on the last checkpoint of the
/// uninterrupted checkpointed run, byte for byte, and its banner names the
/// cadence. `--checkpoint-every` beside `--resume` is refused.
#[test]
fn a_resumed_run_keeps_its_checkpoint_cadence() {
    let dir = scratch("cadence");
    let (full, crashed) = (dir.join("full"), dir.join("crashed"));
    let (full_arg, ckpt) = (
        full.to_str().expect("utf-8 temp path"),
        crashed.to_str().expect("utf-8 temp path"),
    );
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_likelab"))
            .arg("run")
            .args(args)
            .output()
            .expect("run likelab")
    };
    let study = ["--preset", "paper", "--scale", "0.08", "--seed", "7"];
    let every = ["--checkpoint-every", "20000"];
    let uninterrupted = run(&[&study[..], &every, &["--checkpoint-dir", full_arg]].concat());
    assert!(
        uninterrupted.status.success(),
        "the checkpointed run exits 0"
    );
    let hook = ["--checkpoint-dir", ckpt, "--crash-after-checkpoints", "1"];
    let killed = run(&[&study[..], &every, &hook].concat());
    assert_eq!(killed.status.code(), Some(86), "the crash hook must fire");

    let both = run(&[&["--resume", ckpt][..], &every].concat());
    assert_eq!(both.status.code(), Some(1), "--checkpoint-every is refused");
    assert!(String::from_utf8_lossy(&both.stderr).contains("drop --checkpoint-every"));
    let resumed = run(&["--resume", ckpt]);
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(resumed.status.success(), "resume must exit 0: {stderr}");
    assert!(
        stderr.contains("checkpoint every 20000 events"),
        "the banner names the cadence: {stderr}"
    );
    let last = |d: &PathBuf| std::fs::read(d.join("checkpoint.json")).unwrap();
    assert!(
        last(&full) == last(&crashed),
        "the resumed run's last checkpoint differs from the uninterrupted run's"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The checkpoint holds only what the log cannot give: no copy of the
/// config or the population, which a resume folds from the pinned log
/// prefix, and no like column, study window, master RNG or sweep engine,
/// which it takes from set-up on the log header's config. What is left of
/// the plan is a cursor into it and its fingerprint; of the sweep engine,
/// its RNG.
#[test]
fn a_checkpoint_holds_only_what_the_log_cannot_give() {
    let dir = scratch("keys");
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
    let serde::Value::Object(fields) = serde_json::from_str(&json).unwrap() else {
        panic!("checkpoint is an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "version",
            "checkpoint_every",
            "log_bytes",
            "next_seq",
            "now",
            "fired",
            "planned_next",
            "plan",
            "queue",
            "queue_next_seq",
            "monitors",
            "api",
            "fraud_rng",
            "trace"
        ]
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
/// outside input, and `world.log`'s header, which holds the config, too.
/// A queue whose entries could collide with a future push (the next
/// sequence number zeroed, or one entry's pushed past it), a clock outside
/// the study window, a header config with a zero sweep interval (it kept
/// the sweep rescheduling itself forever), a window past the end of the
/// clock, a zero scale (set-up's model asserts a positive one) or a
/// population whose frames cannot fit in the pinned prefix, a log
/// sequence number that does not continue the pinned log, a monitor list
/// that does not match the campaigns, the queued polls or the launched
/// pages, another format version (or none, or the previous one),
/// a plan cursor past the plan's end or at a like before the clock, a plan
/// fingerprint that is not set-up's, a header config whose set-up builds
/// another world than the pinned log's, and a log prefix pinned before the
/// campaigns launched are each a structured error, and the log is left as
/// it was.
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
    fn now_before_launch(doc: &mut Value) {
        *field(doc, "now") = Value::UInt(study_window().0 - 1);
    }
    fn now_a_day_after_end(doc: &mut Value) {
        *field(doc, "now") = Value::UInt(study_window().1 + 86_400);
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
    fn version_1(doc: &mut Value) {
        *field(doc, "version") = Value::UInt(1);
    }
    fn version_2(doc: &mut Value) {
        *field(doc, "version") = Value::UInt(2);
    }
    fn version_4(doc: &mut Value) {
        *field(doc, "version") = Value::UInt(4);
    }
    fn no_version(doc: &mut Value) {
        let Value::Object(fields) = doc else {
            panic!("checkpoint is an object")
        };
        fields.retain(|(k, _)| k != "version");
    }
    fn planned_next_at_the_start(doc: &mut Value) {
        *field(doc, "planned_next") = Value::UInt(0);
    }
    fn planned_next_past_the_end(doc: &mut Value) {
        let Value::UInt(len) = *field(field(doc, "plan"), "len") else {
            panic!("plan.len is a number")
        };
        *field(doc, "planned_next") = Value::UInt(len + 1);
    }
    fn plan_hash_plus_one(doc: &mut Value) {
        let Value::UInt(hash) = field(field(doc, "plan"), "fnv1a") else {
            panic!("plan.fnv1a is a number")
        };
        *hash = hash.wrapping_add(1);
    }
    fn plan_len_minus_one(doc: &mut Value) {
        shift(field(doc, "plan"), "len", -1);
    }
    fn sweep_at_the_end_of_the_clock(doc: &mut Value) {
        queued(doc, "Sweep")[0] = Value::UInt(u64::MAX);
    }
    for (what, mutate, needle) in [
        (
            "queue_next_seq = 0",
            zero_next_seq as fn(&mut Value),
            "restored entry seq",
        ),
        ("entry seq = 2^63", huge_entry_seq, "restored entry seq"),
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
            "format version 0; this build reads version 3",
        ),
        (
            "version = 1",
            version_1,
            "format version 1; this build reads version 3",
        ),
        (
            "version = 2",
            version_2,
            "format version 2; this build reads version 3",
        ),
        (
            "version = 4",
            version_4,
            "format version 4; this build reads version 3",
        ),
        (
            "version missing",
            no_version,
            "no checkpoint format version (written before version 1); this build reads version 3",
        ),
        (
            "planned_next = 0",
            planned_next_at_the_start,
            "a planned like at",
        ),
        (
            "planned_next = plan length + 1",
            planned_next_past_the_end,
            "is past the end of the",
        ),
        (
            "plan.fnv1a + 1",
            plan_hash_plus_one,
            "differs from set-up's",
        ),
        ("plan.len - 1", plan_len_minus_one, "differs from set-up's"),
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

    // The config lives in the header of world.log (see `with_header`).
    fn zero_sweep_interval(config: &mut Value) {
        *field(config, "sweep_interval") = Value::UInt(0);
    }
    fn endless_termination_check(config: &mut Value) {
        *field(config, "termination_check_after") = Value::UInt(u64::MAX);
    }
    fn zero_scale(config: &mut Value) {
        *field(config, "scale") = Value::Float(0.0);
    }
    for (what, edit, needle) in [
        (
            "header sweep_interval = 0",
            zero_sweep_interval as fn(&mut Value),
            "config.sweep_interval is 0",
        ),
        (
            "header termination_check_after = 2^64 - 1 s",
            endless_termination_check,
            "ends past the end of the clock",
        ),
        (
            "header scale = 0",
            zero_scale,
            "header config makes set-up panic",
        ),
    ] {
        let (doc, edited) = with_header(&json, &log, edit);
        refused(what, &doc, needle, &edited);
    }

    // A header asking for the paper-size world: 60,000 organic accounts and
    // 30,000 background pages, whose frames alone (218 and 113 bytes at the
    // least) outgrow the pinned prefix. It is refused before set-up would
    // synthesize that world.
    fn scale_1(config: &mut Value) {
        *field(config, "scale") = Value::Float(1.0);
    }
    let (mut doc, edited) = with_header(&json, &log, scale_1);
    let Value::UInt(pinned) = *field(&mut doc, "log_bytes") else {
        panic!("log_bytes is a number")
    };
    refused(
        "header scale = 1.0",
        &doc,
        &format!("at least 16470000 bytes of frames, but the checkpoint pins {pinned} bytes"),
        &edited,
    );

    // A header config that set-up plans from differently: at scale 0.03 it
    // builds a bigger world than the one the log pins, at 0.02. Given that
    // plan's fingerprint, and a cursor at its end so that no planned like
    // runs the clock back, the checkpoint passes every other check.
    let other = scratch("other-scale");
    let crashed = run_study_opts(
        &StudyConfig::paper(3, 0.03),
        &RunOptions {
            checkpoint_dir: Some(other.clone()),
            checkpoint_every: 5_000,
            crash_after_checkpoints: Some(1),
            ..RunOptions::default()
        },
    );
    assert!(matches!(crashed, Err(StudyError::SimulatedCrash { .. })));
    let other_json = std::fs::read_to_string(other.join("checkpoint.json")).unwrap();
    let mut other_doc: Value = serde_json::from_str(&other_json).unwrap();
    let mut plan = field(&mut other_doc, "plan").clone();
    let len = field(&mut plan, "len").clone();
    fn scale_0_03(config: &mut Value) {
        *field(config, "scale") = Value::Float(0.03);
    }
    let (mut doc, edited) = with_header(&json, &log, scale_0_03);
    *field(&mut doc, "planned_next") = len;
    *field(&mut doc, "plan") = plan;
    refused(
        "header scale = 0.03 with that plan's fingerprint",
        &doc,
        "set-up on the header config builds (accounts, pages)",
        &edited,
    );
    std::fs::remove_dir_all(&other).ok();

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

/// The field `name` of the object `doc`.
fn field<'a>(doc: &'a mut serde::Value, name: &str) -> &'a mut serde::Value {
    let serde::Value::Object(fields) = doc else {
        panic!("{name}'s parent is an object")
    };
    let (_, value) = fields.iter_mut().find(|(k, _)| k == name).unwrap();
    value
}

/// The checkpoint `json` and the log `log` with the log header's config
/// edited by `edit`. An edit there moves every frame after it, so the pin
/// moves by the change in the header's length. A header is the 4-byte
/// magic, a 2-byte version, 2 reserved bytes, the 4-byte length of its meta
/// document, then that document.
fn with_header(json: &str, log: &[u8], edit: fn(&mut serde::Value)) -> (serde::Value, Vec<u8>) {
    let meta_len = u32::from_le_bytes(log[8..12].try_into().unwrap()) as usize;
    let meta = std::str::from_utf8(&log[12..12 + meta_len]).unwrap();
    let mut meta: serde::Value = serde_json::from_str(meta).unwrap();
    edit(field(&mut meta, "config"));
    let meta = serde_json::to_string(&meta).unwrap();
    let mut edited = log[..8].to_vec();
    edited.extend_from_slice(&(meta.len() as u32).to_le_bytes());
    edited.extend_from_slice(meta.as_bytes());
    edited.extend_from_slice(&log[12 + meta_len..]);
    let mut doc: serde::Value = serde_json::from_str(json).unwrap();
    let serde::Value::UInt(bytes) = field(&mut doc, "log_bytes") else {
        panic!("log_bytes is a number")
    };
    *bytes = bytes
        .checked_add_signed(meta.len() as i64 - meta_len as i64)
        .unwrap();
    (doc, edited)
}

/// The study window `(launch, end)` of `StudyConfig::paper(3, 0.02)`, in
/// seconds: campaigns launch when the population's history window ends,
/// and the study ends `termination_check_after` past the last promotion.
fn study_window() -> (u64, u64) {
    let config = StudyConfig::paper(3, 0.02);
    let launch = config.population.history.as_secs();
    let days = config
        .campaigns
        .iter()
        .map(|c| match c.promotion {
            Promotion::PlatformAds { duration_days, .. } => duration_days,
            Promotion::FarmOrder { farm, .. } => match config.farms[farm].style {
                DeliveryStyle::Burst { days, .. } | DeliveryStyle::Trickle { days } => days,
            },
        })
        .max()
        .unwrap();
    let end = launch + days * 86_400 + config.termination_check_after.as_secs();
    (launch, end)
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
