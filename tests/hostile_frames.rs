//! Generated-input tests for the JSON codec under the study log.
//!
//! What the writer renders reads back unchanged: `Value` trees and the
//! records of a real capture. A frame whose checksum is right but whose
//! JSON is hostile — nested past the reader's limit, an integer past
//! `u64::MAX`, a wrong type, a missing, unknown or duplicate key, a
//! truncated literal, an id the world does not have — ends in a structured
//! error on every read path (`read_study_log`, `replay_study`, and
//! `TailReader` at random chunk sizes into `ServeEngine::ingest_frame`),
//! never a panic, and the paths agree on which frame failed and why.

use likelab::core::record::read_study_log;
use likelab::core::replay::{replay_study, ReplayOptions};
use likelab::core::serve::{ServeConfig, ServeEngine};
use likelab::sim::event::{encode_binary, LogHeader, LogRecord};
use likelab::sim::tail::TailReader;
use likelab::sim::Rng;
use likelab::{run_study_opts, RunOptions, StudyConfig, StudyError, StudyRecord};
use proptest::prelude::*;
use serde::Value;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Frames of the captured log kept as the valid prefix of every hostile
/// log: the first RNG fork and a few hundred accounts.
const PREFIX: usize = 300;

/// A captured study, its records rendered as frame payloads.
struct Captured {
    header: LogHeader,
    records: Vec<(u64, StudyRecord)>,
    frames: Vec<LogRecord>,
    /// Indices of small records of every kind, the mutation targets.
    targets: Vec<usize>,
}

fn captured() -> &'static Captured {
    static SHARED: OnceLock<Captured> = OnceLock::new();
    SHARED.get_or_init(|| {
        let outcome = run_study_opts(
            &StudyConfig::paper(13, 0.02),
            &RunOptions {
                capture_log: true,
                ..RunOptions::default()
            },
        )
        .expect("logged run");
        let log = outcome.log.expect("log captured");
        let frames: Vec<LogRecord> = log
            .records()
            .iter()
            .map(|(seq, r)| LogRecord {
                seq: *seq,
                payload: serde_json::to_string(r).expect("render record"),
            })
            .collect();
        // Up to four records under 2 KiB of each kind.
        let mut per_kind: Vec<(&str, usize)> = Vec::new();
        let mut targets = Vec::new();
        for (i, frame) in frames.iter().enumerate() {
            let kind = kind(&frame.payload);
            let seen = match per_kind.iter().position(|(k, _)| *k == kind) {
                Some(at) => at,
                None => {
                    per_kind.push((kind, 0));
                    per_kind.len() - 1
                }
            };
            if frame.payload.len() < 2048 && per_kind[seen].1 < 4 {
                per_kind[seen].1 += 1;
                targets.push(i);
            }
        }
        Captured {
            header: log.header().clone(),
            records: log.records().to_vec(),
            frames,
            targets,
        }
    })
}

/// The record kind a payload names: `AccountCreated` for
/// `{"World":{"AccountCreated":...`, `RngFork` for `{"RngFork":...`.
fn kind(payload: &str) -> &str {
    let tagged = payload.trim_start_matches(r#"{"World":"#);
    tagged[2..].split('"').next().unwrap_or_default()
}

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("likelab-hostile-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

// --- Value trees -------------------------------------------------------------

/// A random `Value` tree at most `depth` containers deep. Integers are kept
/// in the variant the reader gives them back in (non-negative ones are
/// `UInt`), and floats finite (a non-finite float renders as `null`).
fn random_value(rng: &mut Rng, depth: usize) -> Value {
    let pick = if depth == 0 {
        rng.below(6)
    } else {
        rng.below(8)
    };
    match pick {
        0 => Value::Null,
        1 => Value::Bool(rng.chance(0.5)),
        2 => Value::UInt(rng.next_u64() >> rng.below(64)),
        3 => Value::Int(-1 - (rng.next_u64() >> (1 + rng.below(63))) as i64),
        4 => {
            let x = f64::from_bits(rng.next_u64());
            Value::Float(if x.is_finite() { x } else { rng.f64() })
        }
        5 => Value::Str(random_string(rng)),
        6 => Value::Array(
            (0..rng.below(4))
                .map(|_| random_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..rng.below(4))
                .map(|_| (random_string(rng), random_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// A short string mixing plain text, every escaped character and
/// multi-byte code points.
fn random_string(rng: &mut Rng) -> String {
    const PIECES: [&str; 12] = [
        "a", "Z", " ", "\"", "\\", "/", "\n", "\t", "\u{1}", "\u{7f}", "é", "😀",
    ];
    (0..rng.below(6))
        .map(|_| PIECES[rng.index(PIECES.len())])
        .collect()
}

/// Paths (child indices from the root) of every node of `v`.
fn paths(v: &Value, here: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
    out.push(here.clone());
    let children: Vec<&Value> = match v {
        Value::Array(items) => items.iter().collect(),
        Value::Object(fields) => fields.iter().map(|(_, v)| v).collect(),
        _ => Vec::new(),
    };
    for (i, child) in children.into_iter().enumerate() {
        here.push(i);
        paths(child, here, out);
        here.pop();
    }
}

fn node<'a>(v: &'a Value, path: &[usize]) -> &'a Value {
    match (path.split_first(), v) {
        (None, _) => v,
        (Some((&i, rest)), Value::Array(items)) => node(&items[i], rest),
        (Some((&i, rest)), Value::Object(fields)) => node(&fields[i].1, rest),
        _ => unreachable!("paths only descend into containers"),
    }
}

fn node_mut<'a>(v: &'a mut Value, path: &[usize]) -> &'a mut Value {
    match (path.split_first(), v) {
        (None, v) => v,
        (Some((&i, rest)), Value::Array(items)) => node_mut(&mut items[i], rest),
        (Some((&i, rest)), Value::Object(fields)) => node_mut(&mut fields[i].1, rest),
        _ => unreachable!("paths only descend into containers"),
    }
}

// --- hostile payloads ------------------------------------------------------------

/// The ways a payload is made hostile.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Attack {
    DeepNesting,
    HugeInteger,
    WrongType,
    MissingKey,
    UnknownKey,
    DuplicateKey,
    TruncatedLiteral,
    UnknownId,
}

impl Attack {
    const ALL: [Attack; 8] = [
        Attack::DeepNesting,
        Attack::HugeInteger,
        Attack::WrongType,
        Attack::MissingKey,
        Attack::UnknownKey,
        Attack::DuplicateKey,
        Attack::TruncatedLiteral,
        Attack::UnknownId,
    ];

    /// Whether every payload it makes fails to read as a record. A missing
    /// key can leave a valid record (a missing `Option` reads as `None`),
    /// an unknown key is skipped, and an unknown id reads fine but fails to
    /// apply.
    fn unreadable(self) -> bool {
        !matches!(
            self,
            Attack::MissingKey | Attack::UnknownKey | Attack::UnknownId
        )
    }
}

/// Stands in for a node whose hostile text is spliced in after rendering.
const HOLE: &str = "\u{0}hole";

/// `payload` made hostile by `attack`, or `None` when the record has
/// nothing the attack can change.
fn attack_payload(payload: &str, attack: Attack, rng: &mut Rng) -> Option<String> {
    let mut doc: Value = serde_json::from_str(payload).expect("captured payloads parse");
    let mut all = Vec::new();
    paths(&doc, &mut Vec::new(), &mut all);
    let pick = |rng: &mut Rng, doc: &Value, keep: &dyn Fn(&Value) -> bool| {
        let fits: Vec<&Vec<usize>> = all.iter().filter(|p| keep(node(doc, p))).collect();
        (!fits.is_empty()).then(|| fits[rng.index(fits.len())].clone())
    };
    let hole = |doc: &mut Value, path: &[usize], text: &str| {
        *node_mut(doc, path) = Value::Str(HOLE.into());
        let hole = serde_json::to_string(HOLE).expect("render hole");
        serde_json::to_string(doc)
            .expect("render")
            .replacen(&hole, text, 1)
    };
    let object = |v: &Value| matches!(v, Value::Object(f) if !f.is_empty());
    Some(match attack {
        Attack::DeepNesting => {
            let path = pick(rng, &doc, &|_| true)?;
            let depth = [129, 1_000, 100_000][rng.index(3)];
            let open = if rng.chance(0.5) { "[" } else { "{\"k\":" };
            hole(&mut doc, &path, &open.repeat(depth))
        }
        Attack::HugeInteger => {
            let path = pick(rng, &doc, &|v| matches!(v, Value::UInt(_)))?;
            let digits: String = (0..rng.below(30)).map(|_| "7").collect();
            hole(&mut doc, &path, &format!("18446744073709551616{digits}"))
        }
        Attack::WrongType => {
            let path = pick(rng, &doc, &|v| {
                !matches!(v, Value::Null | Value::Array(_) | Value::Object(_))
            })?;
            let wrong = match node(&doc, &path) {
                Value::Str(_) => "[]",
                _ => "\"x\"",
            };
            hole(&mut doc, &path, wrong)
        }
        Attack::MissingKey | Attack::UnknownKey | Attack::DuplicateKey => {
            let path = pick(rng, &doc, &object)?;
            let Value::Object(fields) = node_mut(&mut doc, &path) else {
                unreachable!("picked an object")
            };
            let i = rng.index(fields.len());
            match attack {
                Attack::MissingKey => {
                    fields.remove(i);
                }
                Attack::UnknownKey => {
                    fields.insert(i, ("zz_unknown".into(), random_value(rng, 3)));
                }
                _ => {
                    let copy = fields[i].clone();
                    fields.insert(i + 1, copy);
                }
            }
            serde_json::to_string(&doc).expect("render")
        }
        Attack::TruncatedLiteral => {
            match pick(rng, &doc, &|v| matches!(v, Value::Null | Value::Bool(_))) {
                Some(path) => {
                    let literal = serde_json::to_string(node(&doc, &path)).expect("render");
                    let cut = 1 + rng.index(literal.len() - 1);
                    hole(&mut doc, &path, &literal[..cut])
                }
                // No literal to cut: cut the document short instead.
                None => {
                    let text = serde_json::to_string(&doc).expect("render");
                    let cuts: Vec<usize> = (1..text.len())
                        .filter(|&i| text.is_char_boundary(i))
                        .collect();
                    text[..cuts[rng.index(cuts.len())]].to_string()
                }
            }
        }
        Attack::UnknownId => {
            let path = id_path(&doc)?;
            let id = match node(&doc, &path) {
                Value::UInt(n) if *n < 1_000 => 1_000_000,
                _ => u64::from(u32::MAX),
            };
            *node_mut(&mut doc, &path) = Value::UInt(id);
            serde_json::to_string(&doc).expect("render")
        }
    })
}

/// The path of an id the fold checks: an account or page a world event
/// names, or a measurement record's campaign or launched page.
fn id_path(doc: &Value) -> Option<Vec<usize>> {
    let Value::Object(outer) = doc else {
        return None;
    };
    let (kind, body) = outer.first()?;
    let (body, prefix) = match (kind.as_str(), body) {
        ("World", Value::Object(event)) => (&event.first()?.1, vec![0, 0]),
        (_, body) => (body, vec![0]),
    };
    let Value::Object(fields) = body else {
        return None;
    };
    const IDS: [&str; 7] = ["user", "a", "b", "owner", "likes", "campaign", "page"];
    let (i, (name, value)) = fields
        .iter()
        .enumerate()
        .find(|(_, (name, v))| IDS.contains(&name.as_str()) && !matches!(v, Value::Null))?;
    let mut path = prefix;
    path.push(i);
    match (name.as_str(), value) {
        ("likes", Value::Object(columns)) => {
            // The users column of a non-empty batch.
            let users = columns.iter().position(|(k, _)| k == "users")?;
            matches!(&columns[users].1, Value::Array(u) if !u.is_empty()).then_some(())?;
            path.extend([users, 0]);
        }
        ("likes", _) => return None,
        _ => {}
    }
    Some(path)
}

/// Where a read path stopped: the failing record's seq and the error, or
/// `None` when every record of the log was accepted.
type Verdict = Option<(u64, String)>;

fn bad_record(result: Result<(), StudyError>) -> Result<Verdict, String> {
    match result {
        Ok(()) => Ok(None),
        Err(StudyError::BadRecord { seq, reason }) => Ok(Some((seq, reason))),
        Err(other) => Err(other.to_string()),
    }
}

/// `read_study_log` on the file: frames decode and parse, nothing applies.
fn read_verdict(path: &Path) -> Result<Verdict, String> {
    bad_record(read_study_log(path).map(drop))
}

/// `replay_study` on the file. A short log ends without its campaigns
/// launched, which is a mismatch once every record was accepted.
fn replay_verdict(path: &Path) -> Result<Verdict, String> {
    match replay_study(path, &ReplayOptions::default()) {
        Err(StudyError::Mismatch(why)) if why.contains("never launched") => Ok(None),
        other => bad_record(other.map(drop)),
    }
}

/// The log fed to a `TailReader` in random chunks, every frame folded by a
/// serve engine as soon as it decodes.
fn serve_verdict(header: &LogHeader, bytes: &[u8], rng: &mut Rng) -> Result<Verdict, String> {
    let mut engine = ServeEngine::new(header, ServeConfig::default()).map_err(|e| e.to_string())?;
    let mut tail = TailReader::new();
    let mut rest = bytes;
    while !rest.is_empty() {
        let (chunk, next) = rest.split_at((1 + rng.index(4_096)).min(rest.len()));
        rest = next;
        tail.extend(chunk);
        while let Some(frame) = tail.next_record().map_err(|e| e.to_string())? {
            if let Some(verdict) = bad_record(engine.ingest_frame(&frame))? {
                return Ok(Some(verdict));
            }
        }
    }
    tail.finish().map_err(|e| e.to_string())?;
    Ok(None)
}

/// Write `frames` under the captured header to a file and read it back on
/// every path. Returns (read, replay, serve) verdicts.
fn all_verdicts(
    frames: &[LogRecord],
    tag: &str,
    rng: &mut Rng,
) -> Result<(Verdict, Verdict, Verdict), String> {
    let c = captured();
    let bytes = encode_binary(&c.header, frames).map_err(|e| e.to_string())?;
    let dir = scratch(tag);
    let path = dir.join("hostile.log");
    std::fs::write(&path, &bytes).map_err(|e| e.to_string())?;
    let verdicts = (
        read_verdict(&path)?,
        replay_verdict(&path)?,
        serve_verdict(&c.header, &bytes, rng)?,
    );
    std::fs::remove_dir_all(&dir).ok();
    Ok(verdicts)
}

proptest! {
    /// Value trees survive compact and pretty rendering unchanged.
    #[test]
    fn value_trees_round_trip(seed in any::<u64>()) {
        let mut rng = Rng::seed_from_u64(seed);
        let depth = 1 + rng.index(6);
        let doc = random_value(&mut rng, depth);
        let compact = serde_json::to_string(&doc).unwrap();
        prop_assert_eq!(&serde_json::from_str::<Value>(&compact).unwrap(), &doc, "{}", compact);
        let pretty = serde_json::to_string_pretty(&doc).unwrap();
        prop_assert_eq!(&serde_json::from_str::<Value>(&pretty).unwrap(), &doc, "{}", pretty);
    }

    /// Captured records come back from their JSON unchanged, and render to
    /// the same bytes again.
    #[test]
    fn captured_records_round_trip(index in any::<u64>()) {
        let c = captured();
        let (_, record) = &c.records[index as usize % c.records.len()];
        let text = serde_json::to_string(record).unwrap();
        let back: StudyRecord = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(format!("{back:?}"), format!("{record:?}"));
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), text);
    }

    /// A hostile frame after a valid prefix: no read path panics, all of
    /// them stop at the hostile frame for the same reason, and an attack
    /// that leaves no readable record fails every path.
    #[test]
    fn hostile_frames_end_in_structured_errors(seed in any::<u64>()) {
        let c = captured();
        let mut rng = Rng::seed_from_u64(seed);
        let attack = Attack::ALL[rng.index(Attack::ALL.len())];
        let target = c.targets[rng.index(c.targets.len())];
        let Some(payload) = attack_payload(&c.frames[target].payload, attack, &mut rng) else {
            return Ok(());
        };
        let seq = c.frames[PREFIX - 1].seq + 1;
        let mut frames = c.frames[..PREFIX].to_vec();
        frames.push(LogRecord { seq, payload: payload.clone() });
        let (read, replay, serve) = all_verdicts(&frames, "prop", &mut rng)?;

        let what = format!("{attack:?} on record {target}: {payload:.300}");
        for verdict in [&read, &replay, &serve].into_iter().flatten() {
            prop_assert_eq!(verdict.0, seq, "only the hostile frame fails: {}", what);
        }
        match &read {
            // Unreadable: every path reports the reader's error.
            Some(_) => {
                prop_assert_eq!(&replay, &read, "{}", what);
                prop_assert_eq!(&serve, &read, "{}", what);
            }
            // Readable: replay and serve fold it and agree.
            None => prop_assert_eq!(&replay, &serve, "{}", what),
        }
        if attack.unreadable() {
            prop_assert!(read.is_some(), "{} was read", what);
        }
        if attack == Attack::UnknownId {
            prop_assert!(serve.is_some(), "{} was folded", what);
        }
    }
}

/// Regression: a checksum-valid frame of 100,000 `[` used to overflow the
/// stack and abort replay. It is now a bad record on every path, and so is
/// the same nesting inside a field the reader skips.
#[test]
fn a_frame_nested_past_the_limit_is_a_bad_record() {
    let deep = "[".repeat(100_000);
    for (payload, why) in [
        (deep.clone(), "expected StudyRecord variant, found array"),
        (
            format!(r#"{{"RngFork":{{"label":"x","skipped":{deep}}}}}"#),
            "nesting deeper than 128",
        ),
    ] {
        let mut frames = captured().frames[..PREFIX].to_vec();
        let seq = frames[PREFIX - 1].seq + 1;
        frames.push(LogRecord { seq, payload });
        let mut rng = Rng::seed_from_u64(100_000);
        let (read, replay, serve) = all_verdicts(&frames, "deep", &mut rng).unwrap();
        let (bad_seq, reason) = read.clone().expect("the deep frame is refused");
        assert_eq!(bad_seq, seq);
        assert!(reason.contains(why), "{reason}");
        assert_eq!(replay, read);
        assert_eq!(serve, read);
    }
}

/// A launch record naming a page the world does not have is refused when
/// it is folded, before the page's audience would be read from the world.
#[test]
fn a_launch_of_an_unknown_page_is_a_bad_record() {
    let c = captured();
    let launch = c
        .records
        .iter()
        .position(|(_, r)| matches!(r, StudyRecord::CampaignLaunched { .. }))
        .expect("a launch record");
    let mut frames = c.frames[..=launch].to_vec();
    let bad = &mut frames[launch];
    let StudyRecord::CampaignLaunched { page, .. } = &c.records[launch].1 else {
        unreachable!("picked a launch")
    };
    bad.payload = bad
        .payload
        .replace(&format!("\"page\":{}", page.0), "\"page\":4000000");
    let mut rng = Rng::seed_from_u64(7);
    let (read, replay, serve) = all_verdicts(&frames, "launch", &mut rng).unwrap();
    assert_eq!(read, None, "the record reads fine");
    let (seq, reason) = serve.clone().expect("the launch is refused");
    assert_eq!(seq, frames[launch].seq);
    assert!(reason.contains("unknown page"), "{reason}");
    assert_eq!(replay, serve);
}
