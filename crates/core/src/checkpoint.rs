//! Checkpoint/resume: freeze a running study mid-event-loop and pick it
//! back up byte-identically after a crash or kill.
//!
//! A checkpoint is two files in the checkpoint directory:
//!
//! * `world.log` — the binary study log, appended continuously as the run
//!   executes. The world is *never* serialized directly; a resume rebuilds
//!   it by folding the log prefix the checkpoint pinned, as replay does.
//! * `checkpoint.json` — what the event loop carries that the log cannot
//!   give (`CheckpointState`): its format version, the byte offset and
//!   sequence number that pin the log prefix, the clock and fired count,
//!   the planned likes still to fire (one time-sorted column), the pending
//!   poll and sweep queue, the page monitors, the crawl API and fraud-sweep
//!   engines (RNG positions included), and the trace. Written atomically
//!   (tmp + rename), so a kill mid-write leaves the previous checkpoint
//!   intact.
//!
//! A resume derives the rest from the pinned prefix: the config from its
//! header, the study window from that config, the master RNG by replaying
//! the logged forks, and the honeypot pages and inactive campaigns from
//! its campaign records. Because every consumer's state is either in the
//! log or in the snapshot, a resumed run continues the exact event stream
//! the uninterrupted run would have produced: same likes, same sweeps,
//! same crawl faults, same report, byte for byte.

use crate::record::{io_err, read_records, write_atomic, StudyError, StudyLog};
use crate::replay::LogFold;
use crate::study::{
    collect, event_loop, study_window, Capture, Ev, LoopState, PlannedLikes, RunOptions,
    StudyOutcome, FIRST_SWEEP,
};
use likelab_honeypot::PageMonitor;
use likelab_osn::{CrawlApi, FraudOps, LikeColumns};
use likelab_sim::{Engine, EventQueue, SimTime, Trace};
use serde::{Deserialize, Serialize};
use std::fs::File;
use std::io::Read as _;
use std::path::Path;

/// What a mid-loop study carries that the log cannot give, serialized to
/// `checkpoint.json`. The world, the config and the master RNG are rebuilt
/// by folding the first `log_bytes` bytes of `world.log`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) struct CheckpointState {
    /// The file's format version, [`CHECKPOINT_VERSION`].
    pub version: u64,
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
    /// The planned likes still to fire, sorted by time (ties in plan
    /// order).
    pub planned: LikeColumns,
    /// The pending polls and sweeps as `(time, seq, event)` entries.
    pub queue: Vec<(SimTime, u64, Ev)>,
    /// The queue's next insertion sequence number.
    pub queue_next_seq: u64,
    /// Per-campaign page monitors (None for inactive campaigns).
    pub monitors: Vec<Option<PageMonitor>>,
    /// The crawl API (fault regimes, RNG streams, stats).
    pub api: CrawlApi,
    /// The anti-fraud sweep engine (RNG stream included).
    pub fraud: FraudOps,
    /// The run journal so far.
    pub trace: Trace,
}

/// The `checkpoint.json` format this build writes and reads.
pub(crate) const CHECKPOINT_VERSION: u64 = 2;

/// Just the format version of a `checkpoint.json`, read before the rest:
/// another version's fields may not parse at all.
#[derive(Deserialize)]
struct VersionProbe {
    version: Option<u64>,
}

/// Pin the current log offset and snapshot the loop state into
/// `<dir>/checkpoint.json` (atomically).
pub(crate) fn write_checkpoint(
    dir: &Path,
    state: &LoopState,
    capture: &mut Capture,
) -> Result<(), StudyError> {
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
        log_bytes: log.bytes_written(),
        next_seq: log.next_seq(),
        now: state.engine.now(),
        fired: state.engine.fired(),
        planned: state.planned.remaining(),
        queue,
        queue_next_seq: state.engine.queue().pushed_total(),
        monitors: state.monitors.clone(),
        api: state.api.clone(),
        fraud: state.fraud.clone(),
        trace: state.trace.clone(),
    };
    let json = serde_json::to_string(&cp)
        .map_err(|e| StudyError::Mismatch(format!("checkpoint serialization: {e}")))?;
    write_atomic(&dir.join("checkpoint.json"), &json)?;
    likelab_obs::metrics::counter("checkpoint.written", 1);
    Ok(())
}

/// Load a checkpoint directory and run the study to completion from it.
///
/// The pinned `world.log` prefix is folded first, through the log fold
/// replay and serve use ([`LogFold`]), which checks every record. The fold
/// gives the world, the config (from the log header; the study window
/// follows from it), the master RNG (the config's seed, forked once per
/// logged fork) and the honeypot pages and inactive campaigns (from the
/// campaign slots). A checkpoint of another format version, whose
/// `next_seq` does not continue that prefix, whose monitors, queue or
/// planned likes disagree with the config or the rebuilt world, or whose
/// `fired` count is near overflow, is refused, as is a header config whose
/// window overflows the clock or whose sweep interval is zero, all before
/// the log is touched.
/// Then any bytes past the pin (frames appended after the checkpoint,
/// before the kill) are truncated away so appending continues from a
/// consistent state. The outcome is byte-identical to the uninterrupted
/// run.
pub(crate) fn resume_study(opts: &RunOptions) -> Result<StudyOutcome, StudyError> {
    let dir = opts
        .checkpoint_dir
        .as_deref()
        .ok_or_else(|| StudyError::Mismatch("resume requires a checkpoint directory".into()))?;
    let cp_path = dir.join("checkpoint.json");
    let json = std::fs::read_to_string(&cp_path).map_err(|e| io_err(&cp_path, e))?;
    let refuse = |why: String| StudyError::Mismatch(format!("{}: {why}", cp_path.display()));
    let probe: VersionProbe = serde_json::from_str(&json).map_err(|e| refuse(e.to_string()))?;
    match probe.version {
        Some(CHECKPOINT_VERSION) => {}
        Some(v) => {
            return Err(refuse(format!(
                "checkpoint format version {v}; this build reads version {CHECKPOINT_VERSION}"
            )))
        }
        None => {
            return Err(refuse(format!(
                "no checkpoint format version (written before version 1); \
                 this build reads version {CHECKPOINT_VERSION}"
            )))
        }
    }
    let cp: CheckpointState = serde_json::from_str(&json).map_err(|e| refuse(e.to_string()))?;

    // Rebuild the world from the pinned log prefix; its header holds the
    // config the run goes on under.
    let log_path = dir.join("world.log");
    let file = File::open(&log_path).map_err(|e| io_err(&log_path, e))?;
    let len = file.metadata().map_err(|e| io_err(&log_path, e))?.len();
    if len < cp.log_bytes {
        return Err(StudyError::Mismatch(format!(
            "{} is {len} bytes but the checkpoint pinned {}",
            log_path.display(),
            cp.log_bytes
        )));
    }
    let (header, records) = read_records(file.take(cp.log_bytes))?;
    let fold = LogFold::replay(&header, records)?;
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

    // Both files are outside input, so everything below is checked before
    // the log is truncated. The sweep reschedules itself every
    // `sweep_interval` until `end`, so a zero interval would keep the run
    // going forever.
    let config = &fold.config;
    let refuse_header =
        |why: String| StudyError::Mismatch(format!("{}: header {why}", log_path.display()));
    let (launch, end) = study_window(config).map_err(refuse_header)?;
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
    // Set-up queues the first sweep at `launch + FIRST_SWEEP`, and a sweep
    // queues the next only while it falls at or before `end`, so no sweep
    // is ever queued later than both. One that is would overflow the clock
    // when it queues the next.
    let last_sweep = end.max(SimTime::from_secs(
        launch.as_secs().saturating_add(FIRST_SWEEP.as_secs()),
    ));
    for (at, _, ev) in &cp.queue {
        match *ev {
            Ev::Poll(i) if !matches!(cp.monitors.get(i), Some(Some(_))) => {
                return Err(refuse(format!(
                    "a poll of campaign #{i} is queued, but it has no monitor"
                )));
            }
            Ev::Sweep if *at > last_sweep => {
                return Err(refuse(format!(
                    "a sweep is queued at {at}, after {last_sweep}, the last time a sweep can be"
                )));
            }
            _ => {}
        }
    }
    // The engine's clock only moves forward: a `now` before the launch (the
    // first event fires at it), or a queued entry or planned like before
    // `now`, would run it backwards. A clock past `end` is fine on its
    // own: monitors keep polling up to `hard_stop` past their campaign, so
    // a late checkpoint holds only polls, none of them earlier than the
    // clock.
    let now = cp.now;
    let clock_error = if now < launch {
        Some(format!("clock {now} is before the study launch {launch}"))
    } else {
        let first_like = cp.planned.times.first().map(|&at| ("a planned like", at));
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
    let (accounts, pages) = (fold.world.account_count(), fold.world.page_count());
    let planned = PlannedLikes::restore(cp.planned, accounts, pages).map_err(refuse)?;
    let LogFold {
        config,
        mut world,
        rng,
        ..
    } = fold;
    world.set_recording(true);

    let log = StudyLog::resume_file(header, &log_path, cp.log_bytes, cp.next_seq)?;
    let mut capture = Capture { log: Some(log) };
    let engine = Engine::from_parts(cp.now, cp.fired, queue);
    let mut state = LoopState {
        config,
        world,
        engine,
        planned,
        monitors: cp.monitors,
        honeypots,
        launch,
        end,
        api: cp.api,
        fraud: cp.fraud,
        rng,
        trace: cp.trace,
    };
    event_loop(&mut state, &mut capture, opts)?;
    collect(state, capture, opts.exec)
}
