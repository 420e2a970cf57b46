//! The study log: the record vocabulary and the append-side plumbing.
//!
//! A study run captured with logging on produces a time-ordered stream of
//! [`StudyRecord`]s — every world mutation (as
//! [`WorldEvent`]s), every RNG stream fork (the
//! per-stream provenance), and every measurement artifact the collection
//! pass produced. The stream, prefixed by a header embedding the full
//! [`StudyConfig`](crate::StudyConfig), is *sufficient*: replaying it with
//! [`replay`](crate::replay) reconstructs the final world and dataset
//! byte-for-byte without re-running any model code.
//!
//! [`StudyLog`] is the append side: it assigns monotone sequence numbers
//! and either keeps the records in memory, for same-process replay, or
//! streams them as binary frames to a file ([`FrameWriter`]) and keeps
//! none. The read side streams a file through the log's one decoder,
//! [`TailReader`], and folds each frame where it lies, before the next is
//! decoded: replay and checkpoint resume build their world that way, and
//! [`read_study_log`] collects the records.

use likelab_graph::PageId;
use likelab_honeypot::{BaselineRecord, CrawlCoverage, LikerRecord, Observation};
use likelab_osn::{EventError, WorldEvent};
use likelab_sim::event::{Frame, FrameWriter, LogError, LogHeader};
use likelab_sim::tail::TailReader;
use likelab_sim::SimTime;
use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// One record in a study log, in stream order.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum StudyRecord {
    /// A world mutation (account, page, friendship, like, termination).
    World(WorldEvent),
    /// RNG provenance: the master stream forked a named child here.
    /// Nothing folds it: replay draws nothing, and a resume re-derives the
    /// master RNG by running set-up on the header's config.
    RngFork {
        /// The fork label (`population`, `farms`, `ads`, ...).
        label: String,
    },
    /// A campaign's honeypot page went live.
    CampaignLaunched {
        /// Campaign index (into the config's campaign list).
        campaign: usize,
        /// The honeypot page.
        page: PageId,
        /// Launch time.
        at: SimTime,
    },
    /// A campaign turned out to be a scam (charged, delivered nothing).
    CampaignInactive {
        /// Campaign index.
        campaign: usize,
    },
    /// One crawler poll of a campaign's page.
    CrawlObserved {
        /// Campaign index.
        campaign: usize,
        /// The observation.
        observation: Observation,
    },
    /// Monitoring of a campaign ended; final coverage accounting.
    MonitoringEnded {
        /// Campaign index.
        campaign: usize,
        /// Days monitored (None for inactive campaigns).
        monitoring_days: Option<u64>,
        /// Final crawl coverage (profile-side counters included).
        coverage: CrawlCoverage,
    },
    /// One liker profile collected for a campaign.
    ProfileCollected {
        /// Campaign index.
        campaign: usize,
        /// The collected record.
        record: LikerRecord,
    },
    /// The month-later termination probe of a campaign's likers.
    TerminationsProbed {
        /// Campaign index.
        campaign: usize,
        /// Accounts confirmed gone.
        terminated: usize,
        /// Probes that never got an answer.
        unknown: usize,
    },
    /// The directory baseline sample.
    BaselineSampled {
        /// The sampled records, in draw order.
        records: Vec<BaselineRecord>,
    },
}

/// Why a logged, checkpointed, or replayed study failed.
#[derive(Debug)]
pub enum StudyError {
    /// A log codec failure (truncation, corruption, version skew...).
    Log(LogError),
    /// A filesystem failure, with the offending path.
    Io {
        /// What was being touched.
        path: PathBuf,
        /// The underlying error.
        error: String,
    },
    /// A frame passed the log's integrity checks, but its payload is not
    /// the JSON of a [`StudyRecord`] (malformed, nested too deep, a wrong
    /// or missing field), or it names an account or page the world being
    /// rebuilt does not have.
    BadRecord {
        /// The record's sequence number.
        seq: u64,
        /// Why it was rejected.
        reason: String,
    },
    /// A checkpoint or cache does not match the current run.
    Mismatch(String),
    /// The `--crash-after-checkpoints` test hook fired.
    SimulatedCrash {
        /// Checkpoints written before crashing.
        checkpoints: u64,
    },
}

impl StudyError {
    /// The world event at `seq` failed [`OsnWorld::check_event`].
    ///
    /// [`OsnWorld::check_event`]: likelab_osn::OsnWorld::check_event
    pub(crate) fn bad_event(seq: u64, e: EventError) -> Self {
        StudyError::BadRecord {
            seq,
            reason: e.to_string(),
        }
    }
}

impl fmt::Display for StudyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StudyError::Log(e) => write!(f, "study log: {e}"),
            StudyError::Io { path, error } => write!(f, "{}: {error}", path.display()),
            StudyError::BadRecord { seq, reason } => {
                write!(f, "record seq {seq} rejected: {reason}")
            }
            StudyError::Mismatch(why) => write!(f, "mismatch: {why}"),
            StudyError::SimulatedCrash { checkpoints } => {
                write!(f, "simulated crash after {checkpoints} checkpoint(s)")
            }
        }
    }
}

impl std::error::Error for StudyError {}

impl From<LogError> for StudyError {
    fn from(e: LogError) -> Self {
        StudyError::Log(e)
    }
}

/// Tag an I/O error with the path it happened on.
pub(crate) fn io_err(path: &Path, e: impl fmt::Display) -> StudyError {
    StudyError::Io {
        path: path.to_path_buf(),
        error: e.to_string(),
    }
}

/// The header metadata a study log carries: enough to replay without any
/// out-of-band knowledge.
fn study_meta(config: &crate::StudyConfig) -> Result<Value, StudyError> {
    let tree = serde_json::to_value(config)
        .map_err(|e| StudyError::Mismatch(format!("log header config: {e}")))?;
    Ok(Value::Object(vec![
        ("kind".into(), Value::Str("likelab-study-log".into())),
        ("seed".into(), Value::UInt(config.seed)),
        ("config".into(), tree),
    ]))
}

/// Extract the [`StudyConfig`](crate::StudyConfig) embedded in a log header.
pub fn config_from_header(header: &LogHeader) -> Result<crate::StudyConfig, StudyError> {
    let config = header
        .meta
        .get("config")
        .ok_or_else(|| StudyError::Mismatch("log header has no `config`".into()))?;
    serde_json::from_value(config)
        .map_err(|e| StudyError::Mismatch(format!("log header config: {e}")))
}

/// The [`StudyConfig`](crate::StudyConfig) in the header of the study log
/// at `path`, read without decoding the records after it: the config a
/// resumed run goes on under, whatever the command line says.
pub fn read_log_config(path: &Path) -> Result<crate::StudyConfig, StudyError> {
    let mut file = File::open(path).map_err(|e| io_err(path, e))?;
    config_from_header(&read_header(&mut TailReader::new(), &mut file)?)
}

/// The append side of a study log: monotone sequence numbers into one of
/// two stores. An in-memory capture ([`StudyLog::in_memory`]) keeps every
/// record, for same-process replay and serve. A file log
/// ([`StudyLog::to_file`], [`StudyLog::resume_file`]) frames each record
/// to disk and drops it, so it keeps no records and its memory does not
/// grow with the log.
pub struct StudyLog {
    header: LogHeader,
    next_seq: u64,
    store: LogStore,
}

/// Where a [`StudyLog`]'s records go.
enum LogStore {
    /// Every appended record, in order.
    Memory(Vec<(u64, StudyRecord)>),
    /// The binary sink, and the file it writes.
    File {
        sink: FrameWriter<BufWriter<File>>,
        path: PathBuf,
    },
}

impl StudyLog {
    /// An in-memory capture for `config`.
    pub fn in_memory(config: &crate::StudyConfig) -> Result<Self, StudyError> {
        Ok(StudyLog {
            header: LogHeader::new(study_meta(config)?),
            next_seq: 0,
            store: LogStore::Memory(Vec::new()),
        })
    }

    /// A file log streaming binary frames to `path` (created/truncated).
    pub fn to_file(config: &crate::StudyConfig, path: &Path) -> Result<Self, StudyError> {
        let header = LogHeader::new(study_meta(config)?);
        let file = File::create(path).map_err(|e| io_err(path, e))?;
        let sink = FrameWriter::new(BufWriter::new(file), &header)?;
        Ok(StudyLog {
            header,
            next_seq: 0,
            store: LogStore::File {
                sink,
                path: path.to_path_buf(),
            },
        })
    }

    /// Reopen `path`, whose header is `header`, for appending after a
    /// checkpoint: the file is truncated back to `bytes` (discarding any
    /// frames written after the checkpoint was pinned) and appending
    /// continues at `next_seq`.
    pub fn resume_file(
        header: LogHeader,
        path: &Path,
        bytes: u64,
        next_seq: u64,
    ) -> Result<Self, StudyError> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        file.set_len(bytes).map_err(|e| io_err(path, e))?;
        let mut file = file;
        file.seek(SeekFrom::End(0)).map_err(|e| io_err(path, e))?;
        let sink = FrameWriter::resume(BufWriter::new(file), bytes, next_seq.checked_sub(1));
        Ok(StudyLog {
            header,
            next_seq,
            store: LogStore::File {
                sink,
                path: path.to_path_buf(),
            },
        })
    }

    /// Append one record, returning its sequence number. A capture keeps
    /// it; a file log frames it, writes it and drops it.
    pub fn append(&mut self, record: StudyRecord) -> Result<u64, StudyError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        match &mut self.store {
            LogStore::Memory(records) => records.push((seq, record)),
            LogStore::File { sink, .. } => sink.append(seq, &record)?,
        }
        likelab_obs::metrics::counter("log.append", 1);
        Ok(seq)
    }

    /// Drain the world's buffered mutation events into the log.
    pub fn drain_world(&mut self, world: &mut likelab_osn::OsnWorld) -> Result<(), StudyError> {
        for ev in world.drain_events() {
            self.append(StudyRecord::World(ev))?;
        }
        Ok(())
    }

    /// Flush the sink (no-op for in-memory logs). Call before pinning a
    /// checkpoint offset.
    pub fn flush(&mut self) -> Result<(), StudyError> {
        if let LogStore::File { sink, .. } = &mut self.store {
            sink.flush()?;
        }
        Ok(())
    }

    /// The next sequence number to be assigned.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Bytes written to the sink so far (0 for in-memory logs).
    pub fn bytes_written(&self) -> u64 {
        match &self.store {
            LogStore::Memory(_) => 0,
            LogStore::File { sink, .. } => sink.bytes_written(),
        }
    }

    /// The log header.
    pub fn header(&self) -> &LogHeader {
        &self.header
    }

    /// The records an in-memory capture holds. A file log holds none: its
    /// records are in its file, which [`read_study_log`] reads.
    pub fn records(&self) -> &[(u64, StudyRecord)] {
        match &self.store {
            LogStore::Memory(records) => records,
            LogStore::File { .. } => &[],
        }
    }

    /// Encode an in-memory capture through the binary framing (header,
    /// length-prefixed checksummed frames) — the same bytes a file log
    /// holds. Serve's parity test and the benchmark's `serve_mixed`
    /// set-up use it to hold a log in memory. A file log keeps no records
    /// to encode, so it is a [`StudyError::Mismatch`] naming its file.
    pub fn to_binary(&self) -> Result<Vec<u8>, StudyError> {
        let records = match &self.store {
            LogStore::Memory(records) => records,
            LogStore::File { path, .. } => {
                return Err(StudyError::Mismatch(format!(
                    "a file log keeps no records; its bytes are in {}",
                    path.display()
                )))
            }
        };
        let mut out = FrameWriter::new(Vec::new(), &self.header)?;
        for (seq, r) in records {
            out.append(*seq, r)?;
        }
        Ok(out.into_inner())
    }
}

/// Read a lent log frame's payload text into a study record; a failure
/// (malformed JSON, a wrong or missing field) names the frame's sequence
/// number.
pub(crate) fn parse_record(frame: &Frame<'_>) -> Result<StudyRecord, StudyError> {
    serde_json::from_str(frame.payload).map_err(|e| StudyError::BadRecord {
        seq: frame.seq,
        reason: e.to_string(),
    })
}

/// Bytes read from a log file per decode step.
const READ_CHUNK: u64 = 1 << 16;

/// Read from `source` into `tail` until the log header has arrived, and
/// return it. A stream shorter than its own header is
/// [`LogError::Truncated`].
fn read_header(tail: &mut TailReader, source: &mut impl Read) -> Result<LogHeader, StudyError> {
    loop {
        if let Some(header) = tail.decode_header()? {
            return Ok(header.clone());
        }
        if tail.read_from(&mut *source, READ_CHUNK)? == 0 {
            // Shorter than its own header: `finish` says where it ends.
            tail.finish()?;
        }
    }
}

/// Decode a whole study log from `source` a chunk at a time and fold it:
/// `start` opens the fold on the header, and `apply` takes each record,
/// parsed, before the next frame is decoded, so neither the raw bytes nor
/// the records of the whole log are held at once. Strict end to end —
/// truncation, corruption, version skew, an unparseable record or one
/// `apply` refuses is a hard error, never a partial stream; the first
/// fault in stream order is the one reported.
pub(crate) fn fold_log<S>(
    mut source: impl Read,
    start: impl FnOnce(&LogHeader) -> Result<S, StudyError>,
    mut apply: impl FnMut(&mut S, u64, StudyRecord) -> Result<(), StudyError>,
) -> Result<(LogHeader, S), StudyError> {
    let mut tail = TailReader::new();
    let header = read_header(&mut tail, &mut source)?;
    let mut fold = start(&header)?;
    loop {
        while let Some(frame) = tail.next_record()? {
            apply(&mut fold, frame.seq, parse_record(&frame)?)?;
        }
        if tail.read_from(&mut source, READ_CHUNK)? == 0 {
            break;
        }
    }
    tail.finish()?;
    Ok((header, fold))
}

/// Read a study log from disk into its header and records. Strict end to
/// end — truncation, corruption, version skew, or an unparseable record is
/// a hard error, never a partial stream.
pub fn read_study_log(path: &Path) -> Result<(LogHeader, Vec<(u64, StudyRecord)>), StudyError> {
    let file = File::open(path).map_err(|e| io_err(path, e))?;
    fold_log(
        file,
        |_| Ok(Vec::new()),
        |records, seq, record| {
            records.push((seq, record));
            Ok(())
        },
    )
}

/// Write a text file atomically: write to a sibling `.tmp`, then rename.
pub(crate) fn write_atomic(path: &Path, content: &str) -> Result<(), StudyError> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
        f.write_all(content.as_bytes())
            .map_err(|e| io_err(&tmp, e))?;
        f.flush().map_err(|e| io_err(&tmp, e))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
    Ok(())
}
