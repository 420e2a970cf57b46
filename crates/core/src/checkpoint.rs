//! Checkpoint/resume: freeze a running study mid-event-loop and pick it
//! back up byte-identically after a crash or kill.
//!
//! A checkpoint is two files in the checkpoint directory:
//!
//! * `world.log` — the binary study log, appended continuously as the run
//!   executes. The world is *never* serialized directly; a resume rebuilds
//!   it by folding the log prefix the checkpoint pinned, as replay does.
//! * `checkpoint.json` — what the event loop carries that neither the log
//!   nor set-up can give (`CheckpointState`): its format version, the
//!   checkpoint cadence, the byte offset and sequence number that pin the
//!   log prefix, the clock and fired count, a cursor into the like plan
//!   with the plan's fingerprint, the pending poll and sweep queue, the
//!   page monitors, the crawl API (RNG streams included), the fraud
//!   sweep's RNG and the trace. Written atomically (tmp + rename), so a
//!   kill mid-write leaves the previous checkpoint intact.
//!
//! A resume derives the rest. The config comes from the log header.
//! Set-up, run again on that config with capture off, gives the like plan,
//! the study window and the master RNG, all functions of the config; the
//! fingerprint shows the plan is the one the cursor indexes. The folded
//! prefix gives the world, and the honeypot pages and inactive campaigns
//! from its campaign records. So a resumed run continues the exact event
//! stream the uninterrupted run would have produced: same likes, same
//! sweeps, same crawl faults, same report, byte for byte.

use crate::record::{io_err, read_log_config, write_atomic, StudyError, StudyLog};
use crate::replay::LogFold;
use crate::study::{
    collect, event_loop, setup, Capture, Ev, LoopState, PlanFingerprint, RunOptions, StudyOutcome,
    FIRST_SWEEP,
};
use likelab_honeypot::PageMonitor;
use likelab_osn::{CrawlApi, FraudOps};
use likelab_sim::{Engine, EventQueue, Rng, SimTime, Trace};
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::Read as _;
use std::panic::catch_unwind;
use std::path::Path;

/// What a mid-loop study carries that neither the log nor set-up can give,
/// serialized to `checkpoint.json`. The world and the config are rebuilt
/// by folding the first `log_bytes` bytes of `world.log`; the like plan,
/// the study window and the master RNG by running set-up on that config.
#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct CheckpointState {
    /// The file's format version, [`CHECKPOINT_VERSION`].
    pub version: u64,
    /// The run's checkpoint cadence, in fired events. A resumed run
    /// checkpoints at it, as the run it continues did.
    pub checkpoint_every: u64,
    /// Byte length of the `world.log` prefix this checkpoint pins.
    pub log_bytes: u64,
    /// The next log sequence number to be assigned after resume. It pins
    /// the prefix too: it must continue the last record of the first
    /// `log_bytes` bytes, so neither field can move alone.
    pub next_seq: u64,
    /// Simulation clock at the checkpoint.
    pub now: SimTime,
    /// Events fired so far.
    pub fired: u64,
    /// The index in set-up's like plan of the next like to fire.
    pub planned_next: u64,
    /// The fingerprint of the plan `planned_next` indexes.
    pub plan: PlanFingerprint,
    /// The pending polls and sweeps as `(time, seq, event)` entries.
    pub queue: Vec<(SimTime, u64, Ev)>,
    /// The queue's next insertion sequence number.
    pub queue_next_seq: u64,
    /// Per-campaign page monitors (None for inactive campaigns).
    pub monitors: Vec<Option<PageMonitor>>,
    /// The crawl API (fault regimes, RNG streams, stats).
    pub api: CrawlApi,
    /// The anti-fraud sweep's RNG stream: the rest of the sweep engine is
    /// the config's and a memo the ledger rebuilds.
    pub fraud_rng: Rng,
    /// The run journal so far.
    pub trace: Trace,
}

/// The `checkpoint.json` format this build writes and reads.
pub(crate) const CHECKPOINT_VERSION: u64 = 3;

/// The shortest frame the log writer produces for an account's
/// `AccountCreated` record, and for a page's `PageCreated` record: every
/// number 0, every string empty, each enum at its shortest variant.
const MIN_ACCOUNT_FRAME: u64 = 218;
const MIN_PAGE_FRAME: u64 = 113;

/// Just the format version of a `checkpoint.json`, read before the rest:
/// another version's fields may not parse at all.
#[derive(Deserialize)]
struct VersionProbe {
    version: Option<u64>,
}

/// Pin the current log offset and snapshot the loop state into
/// `<dir>/checkpoint.json` (atomically). `every` is the run's cadence, and
/// `plan` its like plan's fingerprint, computed here at the first
/// checkpoint and kept for the rest.
pub(crate) fn write_checkpoint(
    dir: &Path,
    state: &LoopState,
    every: u64,
    plan: &mut Option<PlanFingerprint>,
    capture: &mut Capture,
) -> Result<(), StudyError> {
    likelab_obs::span!("checkpoint.write");
    let plan = *plan.get_or_insert_with(|| state.planned.fingerprint());
    // A run with a checkpoint directory always streams its log there.
    #[allow(clippy::expect_used)]
    let log = capture
        .log
        .as_mut()
        .expect("checkpointing runs always stream a log");
    log.flush()?;
    let queue = state
        .engine
        .queue()
        .entries()
        .into_iter()
        .map(|(t, s, ev)| (t, s, ev.clone()))
        .collect();
    let cp = CheckpointState {
        version: CHECKPOINT_VERSION,
        checkpoint_every: every,
        log_bytes: log.bytes_written(),
        next_seq: log.next_seq(),
        now: state.engine.now(),
        fired: state.engine.fired(),
        planned_next: state.planned.cursor(),
        plan,
        queue,
        queue_next_seq: state.engine.queue().pushed_total(),
        monitors: state.monitors.clone(),
        api: state.api.clone(),
        fraud_rng: state.fraud.rng().clone(),
        trace: state.trace.clone(),
    };
    let json = serde_json::to_string(&cp)
        .map_err(|e| StudyError::Mismatch(format!("checkpoint serialization: {e}")))?;
    write_atomic(&dir.join("checkpoint.json"), &json)?;
    likelab_obs::metrics::counter("checkpoint.written", 1);
    Ok(())
}

/// Read `path`, a `checkpoint.json`, refusing another format version (or
/// none) by name before the rest of the file is parsed.
fn load(path: &Path) -> Result<CheckpointState, StudyError> {
    let json = std::fs::read_to_string(path).map_err(|e| io_err(path, e))?;
    let refuse = |why: String| StudyError::Mismatch(format!("{}: {why}", path.display()));
    let probe: VersionProbe = serde_json::from_str(&json).map_err(|e| refuse(e.to_string()))?;
    let found = match probe.version {
        Some(CHECKPOINT_VERSION) => {
            return serde_json::from_str(&json).map_err(|e| refuse(e.to_string()))
        }
        Some(v) => format!("checkpoint format version {v}"),
        None => "no checkpoint format version (written before version 1)".into(),
    };
    Err(refuse(format!(
        "{found}; this build reads version {CHECKPOINT_VERSION}"
    )))
}

/// The checkpoint cadence `<dir>/checkpoint.json` stores: a run resumed
/// from `dir` checkpoints at it. A file of another format version is
/// refused, as a resume would refuse it.
pub fn read_checkpoint_every(dir: &Path) -> Result<u64, StudyError> {
    load(&dir.join("checkpoint.json")).map(|cp| cp.checkpoint_every)
}

/// Load a checkpoint directory and run the study to completion from it.
///
/// The checks that need only `checkpoint.json` and the `world.log` header
/// come first. Then set-up runs on the header config with capture off, for
/// the like plan, the study window and the master RNG; its world is
/// dropped before the pinned prefix is folded, so one world is live at a
/// time. The fold, through the log fold replay and serve use
/// ([`LogFold`]), which checks every record, gives the world and the
/// honeypot pages and inactive campaigns (from the campaign slots). Every
/// refusal (DESIGN.md lists them) comes before the log is truncated to the
/// pin; the run then appends from there, at the stored cadence, and ends
/// byte-identical to the uninterrupted run.
pub(crate) fn resume_study(opts: &RunOptions) -> Result<StudyOutcome, StudyError> {
    let dir = opts
        .checkpoint_dir
        .as_deref()
        .ok_or_else(|| StudyError::Mismatch("resume requires a checkpoint directory".into()))?;
    let cp_path = dir.join("checkpoint.json");
    let cp = load(&cp_path)?;
    let refuse = |why: String| StudyError::Mismatch(format!("{}: {why}", cp_path.display()));

    // Both files are outside input, so everything below is checked before
    // the log is truncated. The sweep reschedules itself every
    // `sweep_interval` until `end`, so a zero interval would keep the run
    // going forever.
    let log_path = dir.join("world.log");
    let config = read_log_config(&log_path)?;
    let refuse_header =
        |why: String| StudyError::Mismatch(format!("{}: header {why}", log_path.display()));
    if config.sweep_interval.is_zero() {
        return Err(refuse_header("config.sweep_interval is 0".into()));
    }
    // The engine counts fired events with a plain `+=`. A whole run fires
    // far fewer than 2^32 (scale_study: 333,899), so a count that close to
    // the top is an edited file, and continuing would overflow it.
    if u64::MAX - cp.fired < 1 << 32 {
        return Err(refuse(format!(
            "fired {} is within 2^32 of the counter's limit",
            cp.fired
        )));
    }
    // The event loop polls campaign `i` through `monitors[i]`.
    let campaigns = config.campaigns.len();
    if cp.monitors.len() != campaigns {
        return Err(refuse(format!(
            "monitors has length {}, but the config has {campaigns} campaigns",
            cp.monitors.len()
        )));
    }
    for (_, _, ev) in &cp.queue {
        if let Ev::Poll(i) = *ev {
            if !matches!(cp.monitors.get(i), Some(Some(_))) {
                return Err(refuse(format!(
                    "a poll of campaign #{i} is queued, but it has no monitor"
                )));
            }
        }
    }

    // Set-up journals a frame for every account and page it creates, the
    // scaled population's organic accounts and background pages among
    // them, before the first checkpoint. A header asking for a population
    // whose frames cannot fit in the pinned prefix is refused before set-up
    // builds it.
    let (accounts, pages) = config.population.scaled_sizes(config.scale);
    let floor = (accounts as u64)
        .saturating_mul(MIN_ACCOUNT_FRAME)
        .saturating_add((pages as u64).saturating_mul(MIN_PAGE_FRAME));
    if floor > cp.log_bytes {
        return Err(refuse_header(format!(
            "config asks for {accounts} organic accounts and {pages} background pages, \
             at least {floor} bytes of frames, but the checkpoint pins {} bytes",
            cp.log_bytes
        )));
    }

    // Set-up re-derives the plan, the window and the master RNG. Its world
    // goes before the fold builds the pinned one. It runs the model on the
    // header config, outside input, and the model asserts what every preset
    // holds (a positive scale, medians and weights), so a panic is a refusal.
    let mut set_up = match catch_unwind(|| setup(&config, opts.exec, &mut Capture { log: None })) {
        Ok(Ok(set_up)) => set_up,
        Ok(Err(StudyError::Mismatch(why))) => return Err(refuse_header(why)),
        Ok(Err(e)) => return Err(e),
        Err(_) => return Err(refuse_header("config makes set-up panic".into())),
    };
    let set_up_size = (set_up.world.account_count(), set_up.world.page_count());
    drop(set_up.world);
    let (launch, end) = (set_up.launch, set_up.end);
    let fingerprint = set_up.planned.fingerprint();
    if cp.plan != fingerprint {
        return Err(refuse(format!(
            "plan {:?} differs from set-up's {fingerprint:?}: the header config or the planner changed",
            cp.plan
        )));
    }
    let next_like = set_up.planned.seek(cp.planned_next).map_err(refuse)?;

    // Set-up queues the first sweep at `launch + FIRST_SWEEP`, and a sweep
    // queues the next only while it falls at or before `end`, so no sweep
    // is ever queued later than both. One that is would overflow the clock
    // when it queues the next.
    let last_sweep = end.max(SimTime::from_secs(
        launch.as_secs().saturating_add(FIRST_SWEEP.as_secs()),
    ));
    for &(at, _, ref ev) in &cp.queue {
        if *ev == Ev::Sweep && at > last_sweep {
            return Err(refuse(format!(
                "a sweep is queued at {at}, after {last_sweep}, the last time a sweep can be"
            )));
        }
    }
    // The engine's clock only moves forward: a `now` before the launch (the
    // first event fires at it), or a queued entry or the next planned like
    // before `now`, would run it backwards. A clock past `end` is fine on
    // its own: monitors keep polling up to `hard_stop` past their campaign,
    // so a late checkpoint holds only polls, none of them earlier than the
    // clock.
    let now = cp.now;
    let clock_error = if now < launch {
        Some(format!("clock {now} is before the study launch {launch}"))
    } else {
        let first_like = next_like.map(|at| ("a planned like", at));
        let queued = cp.queue.iter().map(|&(at, _, _)| ("an event queued", at));
        let earlier = first_like
            .into_iter()
            .chain(queued)
            .find(|&(_, at)| at < now);
        earlier.map(|(what, at)| {
            if now > end {
                format!("clock {now} is past the study end {end} with {what} at {at}")
            } else {
                format!("{what} at {at} is earlier than the clock {now}")
            }
        })
    };
    if let Some(why) = clock_error {
        return Err(refuse(why));
    }
    // And no future push may collide with a restored entry's sequence.
    let queue = EventQueue::from_entries(cp.queue, cp.queue_next_seq)
        .map_err(|e| refuse(format!("queue: {e}")))?;

    // Rebuild the world from the pinned log prefix, folding each frame as
    // it decodes.
    let file = File::open(&log_path).map_err(|e| io_err(&log_path, e))?;
    let len = file.metadata().map_err(|e| io_err(&log_path, e))?.len();
    if len < cp.log_bytes {
        return Err(StudyError::Mismatch(format!(
            "{} is {len} bytes but the checkpoint pinned {}",
            log_path.display(),
            cp.log_bytes
        )));
    }
    let (header, fold) = LogFold::replay(file.take(cp.log_bytes))?;
    // The checkpoint must continue the log it pins: appending resumes at
    // `next_seq`.
    let pinned_last = cp.next_seq.checked_sub(1);
    if pinned_last != fold.last_seq {
        let why = if pinned_last < fold.last_seq {
            "reuses a sequence number of"
        } else {
            "leaves a gap after"
        };
        let want = fold.last_seq.map_or(0, |s| s.saturating_add(1));
        return Err(refuse(format!(
            "next_seq {} {why} the pinned log, which continues at seq {want}",
            cp.next_seq
        )));
    }
    // Set-up journals every campaign launch before the first checkpoint,
    // and monitors exactly the active campaigns' pages.
    let mut honeypots = Vec::with_capacity(campaigns);
    for (i, (slot, monitor)) in fold.slots.iter().zip(&cp.monitors).enumerate() {
        let page = slot
            .page
            .ok_or_else(|| refuse(format!("campaign #{i} never launched in the pinned log")))?;
        let why = match (monitor, slot.inactive) {
            (Some(m), false) if m.page == page => None,
            (None, true) => None,
            (Some(m), false) => Some(format!(
                "watches {}, but campaign #{i} launched {page}",
                m.page
            )),
            (Some(_), true) => Some(format!("is set, but campaign #{i} is inactive")),
            (None, false) => Some(format!("is null, but campaign #{i} is active")),
        };
        if let Some(why) = why {
            return Err(refuse(format!("monitors[{i}] {why}")));
        }
        honeypots.push(page);
    }
    // The event loop creates no account or page, so the pinned world is
    // set-up's: the plan names only accounts and pages it has.
    let mut world = fold.world;
    let pinned_size = (world.account_count(), world.page_count());
    if pinned_size != set_up_size {
        return Err(refuse(format!(
            "set-up on the header config builds (accounts, pages) {set_up_size:?}, \
             but the pinned log has {pinned_size:?}"
        )));
    }
    world.set_recording(true);

    let log = StudyLog::resume_file(header, &log_path, cp.log_bytes, cp.next_seq)?;
    let mut capture = Capture { log: Some(log) };
    let fraud = FraudOps::new(config.fraud.clone(), cp.fraud_rng);
    let mut state = LoopState {
        config,
        world,
        engine: Engine::from_parts(cp.now, cp.fired, queue),
        planned: set_up.planned,
        monitors: cp.monitors,
        honeypots,
        launch,
        end,
        api: cp.api,
        fraud,
        rng: set_up.rng,
        trace: cp.trace,
    };
    let opts = RunOptions {
        checkpoint_every: cp.checkpoint_every,
        ..opts.clone()
    };
    event_loop(&mut state, &mut capture, &opts)?;
    collect(state, capture, opts.exec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::StudyRecord;
    use likelab_osn::{
        ActorClass, Country, Gender, PageCategory, PrivacySettings, Profile, WorldEvent,
    };
    use likelab_sim::event::{FrameWriter, LogHeader};

    /// The bytes the log writer frames `ev` in.
    fn framed(ev: WorldEvent) -> u64 {
        let mut w = FrameWriter::new(Vec::new(), &LogHeader::new(serde::Value::Null)).unwrap();
        let header = w.bytes_written();
        w.append(0, &StudyRecord::World(ev)).unwrap();
        w.bytes_written() - header
    }

    #[test]
    fn the_shortest_frames_are_pinned() {
        let flags = [false, true];
        let mut accounts = Vec::new();
        for gender in [Gender::Female, Gender::Male] {
            for country in Country::ALL {
                for class in [
                    ActorClass::Organic,
                    ActorClass::ClickProne,
                    ActorClass::Bot(0),
                    ActorClass::StealthSybil(0),
                ] {
                    for (friend_list_public, likes_public, searchable) in flags
                        .iter()
                        .flat_map(|&a| flags.iter().flat_map(move |&b| flags.map(|c| (a, b, c))))
                    {
                        accounts.push(framed(WorldEvent::AccountCreated {
                            profile: Profile {
                                gender,
                                age: 0,
                                country,
                                home_region: 0,
                            },
                            class,
                            privacy: PrivacySettings {
                                friend_list_public,
                                likes_public,
                                searchable,
                            },
                            at: SimTime::EPOCH,
                        }));
                    }
                }
            }
        }
        let mut pages = Vec::new();
        for owner in [None, Some(likelab_graph::UserId(0))] {
            for category in [PageCategory::Background, PageCategory::Honeypot] {
                pages.push(framed(WorldEvent::PageCreated {
                    name: String::new(),
                    description: String::new(),
                    owner,
                    category,
                    at: SimTime::EPOCH,
                }));
            }
        }
        assert_eq!(accounts.into_iter().min(), Some(MIN_ACCOUNT_FRAME));
        assert_eq!(pages.into_iter().min(), Some(MIN_PAGE_FRAME));
    }
}
