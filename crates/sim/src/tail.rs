//! The binary event log's decoder — the only one.
//!
//! [`TailReader`] decodes the framing [`crate::event`] writes. Bytes go in
//! via [`extend`](TailReader::extend) or [`read_from`](TailReader::read_from)
//! in whatever chunks the source produces, complete frames come out of
//! [`next_record`](TailReader::next_record), and an incomplete tail means
//! "not yet" (`Ok(None)`) instead of an error. Every *integrity* defect —
//! bad magic, version skew, checksum mismatch, a payload that is not UTF-8,
//! a sequence number that fails to strictly increase — is a hard error the
//! moment the offending bytes are complete enough to judge. A record's
//! payload comes out as its JSON text: reading it is the caller's job,
//! into whatever type the caller expects.
//!
//! How strict to be about the end of the stream is the caller's choice,
//! not a second decoder. A capture file at rest is read to its end and
//! then [`finish`](TailReader::finish)ed, which turns a leftover partial
//! frame into [`LogError::Truncated`]; replay and checkpoint resume read
//! this way. A live log that a study is still writing ends mid-record
//! almost all the time, and there an incomplete tail is just data that has
//! not arrived yet.
//!
//! [`FollowReader`] wraps a `TailReader` around a file path and polls it:
//! each [`poll`](FollowReader::poll) reads at most [`POLL_BUDGET`] of the
//! bytes appended since the last poll and returns the newly completed
//! records. This is the file-follow substrate `likelab serve` ingests from.

use crate::event::{
    fnv1a, released_capacity, LogError, LogHeader, LogRecord, FORMAT_VERSION, FRAME_FIXED,
    HEADER_FIXED, MAGIC,
};
use serde::Value;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// Incremental binary-log decoder. See the module docs.
///
/// ```
/// use likelab_sim::event::{encode_binary, LogHeader, LogRecord};
/// use likelab_sim::tail::TailReader;
/// use serde::Value;
///
/// let header = LogHeader::new(Value::Null);
/// let records = vec![LogRecord { seq: 1, payload: "7".into() }];
/// let bytes = encode_binary(&header, &records).unwrap();
///
/// // Feed the stream one byte at a time: records appear exactly when
/// // their last byte does, and an incomplete tail is never an error.
/// let mut tail = TailReader::new();
/// let mut seen = Vec::new();
/// for b in &bytes {
///     tail.extend(std::slice::from_ref(b));
///     while let Some(r) = tail.next_record().unwrap() {
///         seen.push(r);
///     }
/// }
/// assert_eq!(seen, records);
/// // No partial frame left behind: the stream is complete.
/// assert_eq!(tail.finish(), Ok(&header));
/// ```
#[derive(Debug, Default)]
pub struct TailReader {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed (decoded into the header/records).
    pos: usize,
    /// Absolute stream offset of `buf[0]` (grows on compaction).
    base: u64,
    header: Option<LogHeader>,
    last_seq: Option<u64>,
    /// A decode error is sticky: once the stream is bad, it stays bad.
    failed: bool,
}

impl TailReader {
    /// A reader that has seen no bytes yet.
    pub fn new() -> Self {
        TailReader::default()
    }

    /// Append newly arrived bytes (any chunking, including one byte at a
    /// time).
    pub fn extend(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Append at most `limit` bytes read straight from `source` into the
    /// decode buffer, returning how many arrived (0 once `source` is
    /// exhausted).
    pub fn read_from(&mut self, source: impl Read, limit: u64) -> Result<usize, LogError> {
        self.compact();
        Ok(source.take(limit).read_to_end(&mut self.buf)?)
    }

    /// The decoded header, once its bytes have fully arrived.
    pub fn header(&self) -> Option<&LogHeader> {
        self.header.as_ref()
    }

    /// The last decoded record's sequence number.
    pub fn last_seq(&self) -> Option<u64> {
        self.last_seq
    }

    /// Absolute stream offset of the first undecoded byte.
    pub fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    /// Bytes buffered but not yet decodable (a partial frame, or nothing).
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Absolute offset helper for error reporting.
    fn abs(&self, rel: usize) -> u64 {
        self.base + rel as u64
    }

    /// `n` bytes at buffer offset `at`, or `None` while they have not
    /// arrived yet.
    fn peek(&self, at: usize, n: usize) -> Option<&[u8]> {
        self.buf.get(at..at + n)
    }

    fn u32_at(&self, at: usize) -> Option<u32> {
        match self.peek(at, 4) {
            Some(&[a, b, c, d]) => Some(u32::from_le_bytes([a, b, c, d])),
            _ => None,
        }
    }

    fn u64_at(&self, at: usize) -> Option<u64> {
        match self.peek(at, 8) {
            Some(&[a, b, c, d, e, f, g, h]) => Some(u64::from_le_bytes([a, b, c, d, e, f, g, h])),
            _ => None,
        }
    }

    /// Drop the consumed prefix before new bytes arrive, once it is at
    /// least as long as the bytes still pending: compaction then never
    /// moves more bytes than were decoded, so a whole file fed in one
    /// piece is decoded without moving any. A buffer that a large frame
    /// grew past [`SCRATCH_BOUND`](crate::event::SCRATCH_BOUND) is then
    /// released down to what the pending bytes need.
    fn compact(&mut self) {
        if self.pos > 0 && self.pos >= self.pending_bytes() {
            self.buf.drain(..self.pos);
            self.base += self.pos as u64;
            self.pos = 0;
        }
        if let Some(keep) = released_capacity(self.buf.capacity(), self.pending_bytes()) {
            self.buf.shrink_to(keep);
        }
    }

    /// Try to decode the header from the buffered bytes. `Ok(true)` once
    /// the header is available (now or previously), `Ok(false)` while more
    /// bytes are needed.
    fn try_header(&mut self) -> Result<bool, LogError> {
        if self.header.is_some() {
            return Ok(true);
        }
        // Judge the magic as soon as its bytes exist — a stream that is
        // not a log should fail on the first 4 bytes, not wait forever.
        let have = self.buf.len().min(4);
        // lint:allow(panic-reachable-from-serve): have <= buf.len() and have <= MAGIC.len() by min()
        if self.buf[..have] != MAGIC[..have] {
            return Err(LogError::BadMagic);
        }
        let version = match self.peek(4, 2) {
            Some(&[a, b]) => u16::from_le_bytes([a, b]),
            _ => return Ok(false),
        };
        if version != FORMAT_VERSION {
            return Err(LogError::VersionMismatch {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let Some(meta_len) = self.u32_at(8) else {
            return Ok(false);
        };
        let meta_len = meta_len as usize;
        let Some(meta_bytes) = self.peek(HEADER_FIXED, meta_len) else {
            return Ok(false);
        };
        let meta_text = std::str::from_utf8(meta_bytes).map_err(|e| LogError::Corrupt {
            offset: self.abs(HEADER_FIXED),
            reason: format!("header not utf-8: {e}"),
        })?;
        let meta: Value = serde_json::from_str(meta_text).map_err(|e| LogError::Corrupt {
            offset: self.abs(HEADER_FIXED),
            reason: format!("header not json: {e}"),
        })?;
        self.header = Some(LogHeader { version, meta });
        self.pos = HEADER_FIXED + meta_len;
        Ok(true)
    }

    /// Decode the next complete record, if its bytes have all arrived.
    ///
    /// `Ok(None)` means the buffer holds no complete frame *yet* — feed
    /// more bytes and call again. Integrity errors (magic, version,
    /// checksum, UTF-8, sequence ordering) are hard and sticky: after an
    /// `Err`, every later call returns the stream-corrupt error again. The
    /// payload's JSON is not read here.
    pub fn next_record(&mut self) -> Result<Option<LogRecord>, LogError> {
        if self.failed {
            return Err(LogError::Corrupt {
                offset: self.offset(),
                reason: "stream already failed an earlier decode".into(),
            });
        }
        match self.next_record_inner() {
            Err(e) => {
                self.failed = true;
                Err(e)
            }
            ok => ok,
        }
    }

    fn next_record_inner(&mut self) -> Result<Option<LogRecord>, LogError> {
        if !self.try_header()? {
            return Ok(None);
        }
        let at = self.pos;
        let Some(len) = self.u32_at(at) else {
            return Ok(None);
        };
        let len = len as usize;
        let (Some(seq), Some(sum)) = (self.u64_at(at + 4), self.u64_at(at + 12)) else {
            return Ok(None);
        };
        let Some(body) = self.peek(at + FRAME_FIXED, len) else {
            return Ok(None);
        };
        if fnv1a(body.iter().copied()) != sum {
            return Err(LogError::Corrupt {
                offset: self.abs(at),
                reason: format!("checksum mismatch on record seq {seq}"),
            });
        }
        if let Some(prev) = self.last_seq {
            if seq <= prev {
                return Err(LogError::NonMonotoneSeq { prev, next: seq });
            }
        }
        let payload = std::str::from_utf8(body)
            .map_err(|e| LogError::Corrupt {
                offset: self.abs(at),
                reason: format!("payload not utf-8: {e}"),
            })?
            .to_owned();
        self.pos = at + FRAME_FIXED + len;
        self.last_seq = Some(seq);
        Ok(Some(LogRecord { seq, payload }))
    }

    /// All records currently decodable, in order.
    pub fn drain(&mut self) -> Result<Vec<LogRecord>, LogError> {
        let mut out = Vec::new();
        while let Some(r) = self.next_record()? {
            out.push(r);
        }
        Ok(out)
    }

    /// Declare the stream complete and return its header. A leftover
    /// partial frame, or a stream too short for its own header, is
    /// [`LogError::Truncated`] at the offset where it starts.
    pub fn finish(&self) -> Result<&LogHeader, LogError> {
        match &self.header {
            Some(header) if self.pending_bytes() == 0 => Ok(header),
            _ => Err(LogError::Truncated {
                offset: self.offset(),
            }),
        }
    }
}

/// The most bytes one [`FollowReader::poll`] reads. It bounds what a poll
/// decodes, so a caller that stops polling while its backlog is full holds
/// at most its backlog plus one budget's records, however long the file.
pub const POLL_BUDGET: u64 = 1 << 20;

/// Follow a binary log file as it grows: each [`poll`](FollowReader::poll)
/// reads up to [`POLL_BUDGET`] of the bytes appended since the last poll
/// and returns the records they complete.
///
/// The file may not exist yet when the reader is constructed (the producer
/// creates it on its first write); polls before that simply return no
/// records. Reads are positional (`seek` + read to end), so the producer
/// and the follower never share a file cursor.
#[derive(Debug)]
pub struct FollowReader {
    path: PathBuf,
    read_bytes: u64,
    tail: TailReader,
}

impl FollowReader {
    /// Follow `path` from its beginning.
    pub fn open(path: &Path) -> Self {
        FollowReader {
            path: path.to_path_buf(),
            read_bytes: 0,
            tail: TailReader::new(),
        }
    }

    /// Read up to [`POLL_BUDGET`] newly appended bytes and return the
    /// records they complete. A poll that reads nothing has reached the
    /// end of the file as it stands ([`read_bytes`](Self::read_bytes) did
    /// not move). A missing file is "nothing yet", not an error.
    ///
    /// # Errors
    /// Besides decode failures, returns [`LogError::ShrunkSource`] when the
    /// file is smaller than the bytes already consumed — the producer
    /// truncated or rotated it, consumed history is gone, and silently
    /// seeking past EOF would stall the follower forever at a stale offset.
    /// The error repeats on every poll until the file grows back past the
    /// committed offset (i.e. it is not masked by a later, unrelated
    /// append); recovery means re-opening the source from scratch.
    pub fn poll(&mut self) -> Result<Vec<LogRecord>, LogError> {
        let mut file = match std::fs::File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(LogError::Io(e.to_string())),
        };
        let len = file.metadata()?.len();
        if len < self.read_bytes {
            return Err(LogError::ShrunkSource {
                read_bytes: self.read_bytes,
                len,
            });
        }
        file.seek(SeekFrom::Start(self.read_bytes))?;
        self.read_bytes += self.tail.read_from(&mut file, POLL_BUDGET)? as u64;
        self.tail.drain()
    }

    /// The wrapped decoder (header, last seq, pending bytes).
    pub fn tail(&self) -> &TailReader {
        &self.tail
    }

    /// Total file bytes consumed so far.
    pub fn read_bytes(&self) -> u64 {
        self.read_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{encode_binary, SCRATCH_BOUND};

    fn sample() -> (LogHeader, Vec<LogRecord>) {
        let header = LogHeader::new(Value::Object(vec![(
            "kind".into(),
            Value::Str("tail-test".into()),
        )]));
        let records = (1..=20)
            .map(|i| LogRecord {
                seq: i * 3,
                payload: format!(r#"{{"n":{i}}}"#),
            })
            .collect();
        (header, records)
    }

    #[test]
    fn whole_stream_round_trips() {
        let (header, records) = sample();
        let bytes = encode_binary(&header, &records).unwrap();
        let mut tail = TailReader::new();
        tail.extend(&bytes);
        assert_eq!(tail.drain().unwrap(), records);
        assert_eq!(tail.finish(), Ok(&header));
    }

    #[test]
    fn header_only_stream_is_an_empty_log() {
        let (header, _) = sample();
        let mut tail = TailReader::new();
        tail.extend(&encode_binary(&header, &[]).unwrap());
        assert_eq!(tail.drain().unwrap(), Vec::new());
        assert_eq!(tail.finish(), Ok(&header));
        assert_eq!(
            TailReader::new().finish(),
            Err(LogError::Truncated { offset: 0 }),
            "no bytes at all is not a log"
        );
    }

    #[test]
    fn byte_at_a_time_yields_every_record_exactly_once() {
        let (header, records) = sample();
        let bytes = encode_binary(&header, &records).unwrap();
        let mut tail = TailReader::new();
        let mut seen = Vec::new();
        for b in &bytes {
            tail.extend(std::slice::from_ref(b));
            seen.extend(tail.drain().unwrap());
        }
        assert_eq!(seen, records);
        assert_eq!(tail.last_seq(), Some(60));
        assert_eq!(tail.pending_bytes(), 0);
    }

    #[test]
    fn partial_tail_is_not_an_error_until_finish() {
        let (header, records) = sample();
        let bytes = encode_binary(&header, &records).unwrap();
        let cut = bytes.len() - 3;
        let mut tail = TailReader::new();
        tail.extend(&bytes[..cut]);
        let drained = tail.drain().unwrap();
        assert_eq!(drained.len(), records.len() - 1, "last record incomplete");
        let last_frame = tail.offset();
        assert_eq!(
            tail.finish(),
            Err(LogError::Truncated { offset: last_frame })
        );
        // The missing bytes arrive: the record completes, finish passes.
        tail.extend(&bytes[cut..]);
        assert_eq!(tail.drain().unwrap(), records[records.len() - 1..]);
        tail.finish().unwrap();
    }

    #[test]
    fn chunked_reads_keep_the_buffer_small_and_offsets_absolute() {
        let (header, records) = sample();
        let bytes = encode_binary(&header, &records).unwrap();
        let head_len = encode_binary(&header, &[]).unwrap().len();
        let frame_len = (bytes.len() - head_len).div_ceil(records.len());
        let mut source = &bytes[..];
        let mut tail = TailReader::new();
        let mut seen = Vec::new();
        while tail.read_from(&mut source, 7).unwrap() > 0 {
            seen.extend(tail.drain().unwrap());
            assert!(
                tail.buf.len() <= 2 * (head_len.max(frame_len) + 7),
                "the consumed prefix must be dropped as decoding goes"
            );
        }
        assert_eq!(seen, records);
        assert_eq!(tail.offset(), bytes.len() as u64);
        assert!(tail.base > 0, "compaction ran");
        assert_eq!(tail.finish(), Ok(&header));

        // A frame over the bound grows the buffer past it, and the read
        // after that frame releases it again.
        let big = LogRecord {
            seq: 61,
            payload: format!(r#"{{"pad":"{}"}}"#, "x".repeat(SCRATCH_BOUND)),
        };
        let small = LogRecord {
            seq: 62,
            payload: "null".into(),
        };
        let more = encode_binary(&header, &[big.clone(), small.clone()]).unwrap();
        let mut source = &more[head_len..];
        let mut grown = 0;
        let mut seen = Vec::new();
        while tail.read_from(&mut source, 1 << 16).unwrap() > 0 {
            grown = grown.max(tail.buf.capacity());
            seen.extend(tail.drain().unwrap());
        }
        assert_eq!(seen, [big, small]);
        assert!(grown > SCRATCH_BOUND, "the large frame was buffered whole");
        assert!(
            tail.buf.capacity() <= SCRATCH_BOUND,
            "the buffer falls back under the bound: {}",
            tail.buf.capacity()
        );
        assert_eq!(tail.finish(), Ok(&header));
    }

    #[test]
    fn bad_magic_fails_on_the_first_bytes() {
        let mut tail = TailReader::new();
        tail.extend(b"LX");
        assert_eq!(tail.next_record(), Err(LogError::BadMagic));
    }

    #[test]
    fn version_skew_is_rejected() {
        let (header, _) = sample();
        let mut bytes = encode_binary(&header, &[]).unwrap();
        bytes[4] = 2; // a version-2 log, whose like batches are rows
        let mut tail = TailReader::new();
        tail.extend(&bytes);
        assert!(matches!(
            tail.next_record(),
            Err(LogError::VersionMismatch { found: 2, .. })
        ));
    }

    #[test]
    fn checksum_corruption_is_hard_and_sticky() {
        let (header, records) = sample();
        let mut bytes = encode_binary(&header, &records).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        let mut tail = TailReader::new();
        tail.extend(&bytes);
        let mut err = None;
        loop {
            match tail.next_record() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(matches!(err, Some(LogError::Corrupt { .. })));
        // Sticky: the reader refuses to continue past corruption.
        assert!(tail.next_record().is_err());
    }

    #[test]
    fn non_monotone_seq_is_rejected_mid_stream() {
        let (header, _) = sample();
        let records = vec![
            LogRecord {
                seq: 5,
                payload: "null".into(),
            },
            LogRecord {
                seq: 5,
                payload: "null".into(),
            },
        ];
        let bytes = encode_binary(&header, &records).unwrap();
        let mut tail = TailReader::new();
        tail.extend(&bytes);
        assert_eq!(tail.next_record(), Ok(Some(records[0].clone())));
        assert_eq!(
            tail.next_record(),
            Err(LogError::NonMonotoneSeq { prev: 5, next: 5 })
        );
    }

    #[test]
    fn follow_reader_sees_appends_across_polls() {
        let dir = std::env::temp_dir().join(format!("likelab-tail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("follow.log");
        let _ = std::fs::remove_file(&path);

        let mut follow = FollowReader::open(&path);
        assert_eq!(follow.poll().unwrap(), Vec::new(), "missing file is empty");

        let (header, records) = sample();
        let bytes = encode_binary(&header, &records).unwrap();
        let split = bytes.len() / 2;
        std::fs::write(&path, &bytes[..split]).unwrap();
        let first = follow.poll().unwrap();
        assert!(first.len() < records.len());

        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        std::io::Write::write_all(&mut f, &bytes[split..]).unwrap();
        drop(f);
        let mut all = first;
        all.extend(follow.poll().unwrap());
        assert_eq!(all, records);
        assert_eq!(follow.tail().finish(), Ok(&header));
        assert_eq!(follow.read_bytes(), bytes.len() as u64);

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn a_log_larger_than_the_budget_arrives_over_several_polls_in_order() {
        let dir = std::env::temp_dir().join(format!("likelab-budget-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("follow.log");
        let (header, _) = sample();
        // 3,000 frames of about 1 KiB: nearly three budgets.
        let records: Vec<LogRecord> = (1..=3_000)
            .map(|i| LogRecord {
                seq: i,
                payload: format!(r#"{{"n":{i},"pad":"{}"}}"#, "x".repeat(1_000)),
            })
            .collect();
        let bytes = encode_binary(&header, &records).unwrap();
        assert!(bytes.len() as u64 > 2 * POLL_BUDGET);
        std::fs::write(&path, &bytes).unwrap();

        let mut follow = FollowReader::open(&path);
        let mut seen = Vec::new();
        let mut polls = 0;
        loop {
            let before = follow.read_bytes();
            let polled = follow.poll().unwrap();
            assert!(follow.read_bytes() - before <= POLL_BUDGET);
            if follow.read_bytes() == before {
                break;
            }
            seen.extend(polled);
            polls += 1;
        }
        assert_eq!(polls, bytes.len().div_ceil(POLL_BUDGET as usize));
        assert_eq!(seen, records);
        assert_eq!(follow.tail().finish(), Ok(&header));

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn follow_reader_detects_mid_follow_truncation() {
        // Regression: a followed file shrinking below the committed offset
        // used to seek past EOF, read zero bytes, and stall silently at the
        // stale offset forever. It must surface ShrunkSource instead.
        let dir = std::env::temp_dir().join(format!("likelab-shrink-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("follow.log");
        let _ = std::fs::remove_file(&path);

        let (header, records) = sample();
        let bytes = encode_binary(&header, &records).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        let mut follow = FollowReader::open(&path);
        assert_eq!(follow.poll().unwrap(), records);
        let consumed = follow.read_bytes();

        // Producer rotates: the file is truncated under the follower.
        let short = bytes.len() / 2;
        std::fs::write(&path, &bytes[..short]).unwrap();
        assert_eq!(
            follow.poll(),
            Err(LogError::ShrunkSource {
                read_bytes: consumed,
                len: short as u64,
            })
        );
        // Sticky while the file stays short — no silent stall, no records.
        assert!(matches!(follow.poll(), Err(LogError::ShrunkSource { .. })));
        assert_eq!(follow.read_bytes(), consumed, "offset never rewinds");

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}
