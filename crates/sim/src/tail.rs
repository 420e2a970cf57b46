//! The binary event log's decoder — the only one.
//!
//! [`TailReader`] decodes the framing [`crate::event`] writes. Bytes go in
//! via [`extend`](TailReader::extend) or [`read_from`](TailReader::read_from)
//! in whatever chunks the source produces, complete frames come out of
//! [`next_record`](TailReader::next_record), and an incomplete tail means
//! "not yet" (`Ok(None)`) instead of an error. Every *integrity* defect —
//! bad magic, version skew, checksum mismatch, a payload that is not UTF-8,
//! a sequence number that fails to strictly increase — is a hard error the
//! moment the offending bytes are complete enough to judge.
//!
//! The decoder lends each record as a [`Frame`]: its sequence number and
//! its payload's JSON text, borrowed in place from the decode buffer.
//! Reading the payload, into whatever type the caller expects, is the
//! caller's job, and the caller does it before the decoder takes more
//! bytes; nothing is copied on the way.
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
//! bytes appended since the last poll into the decoder, where they wait,
//! undecoded, until the caller takes their frames. This is the file-follow
//! substrate `likelab serve` ingests from; its decode buffer is serve's
//! backlog, and [`complete_frames`](TailReader::complete_frames) measures
//! it.

use crate::event::{
    fnv1a, released_capacity, Frame, LogError, LogHeader, FORMAT_VERSION, FRAME_FIXED,
    HEADER_FIXED, MAGIC,
};
use serde::Value;
use std::cell::{Cell, OnceCell};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// Incremental binary-log decoder. See the module docs.
///
/// Decoding takes `&self`: a lent [`Frame`] borrows the buffer, and the
/// header and the position stay readable beside it. Only new bytes
/// ([`extend`](Self::extend), [`read_from`](Self::read_from)) need the
/// decoder to itself, so every frame is read before more bytes go in.
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
///     while let Some(frame) = tail.next_record().unwrap() {
///         assert_eq!(tail.header(), Some(&header));
///         seen.push((frame.seq, frame.payload.to_owned()));
///     }
/// }
/// assert_eq!(seen, [(1, "7".to_owned())]);
/// // No partial frame left behind: the stream is complete.
/// assert_eq!(tail.finish(), Ok(&header));
/// ```
#[derive(Debug, Default)]
pub struct TailReader {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed (decoded into the header/records).
    pos: Cell<usize>,
    /// Absolute stream offset of `buf[0]` (grows on compaction).
    base: u64,
    header: OnceCell<LogHeader>,
    last_seq: Cell<Option<u64>>,
    /// A decode error is sticky: once the stream is bad, it stays bad.
    failed: Cell<bool>,
    /// Complete frames counted by [`complete_frames`](Self::complete_frames)
    /// and not decoded yet: the frames between `pos` and `scanned`.
    ready: Cell<usize>,
    /// The buffer offset where counting resumes. At or below `pos` while
    /// `ready` is 0.
    scanned: Cell<usize>,
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

    /// The decoded header, once its bytes have fully arrived and a decode
    /// call ([`decode_header`](Self::decode_header),
    /// [`next_record`](Self::next_record),
    /// [`complete_frames`](Self::complete_frames)) has read them.
    pub fn header(&self) -> Option<&LogHeader> {
        self.header.get()
    }

    /// The last decoded record's sequence number.
    pub fn last_seq(&self) -> Option<u64> {
        self.last_seq.get()
    }

    /// Absolute stream offset of the first undecoded byte.
    pub fn offset(&self) -> u64 {
        self.base + self.pos.get() as u64
    }

    /// Bytes buffered but not yet decoded: complete frames waiting to be
    /// taken, then a partial frame, or nothing.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos.get()
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
        let pos = self.pos.get();
        if pos > 0 && pos >= self.pending_bytes() {
            self.buf.drain(..pos);
            self.base += pos as u64;
            self.pos.set(0);
            self.scanned.set(self.scanned.get().saturating_sub(pos));
        }
        if let Some(keep) = released_capacity(self.buf.capacity(), self.pending_bytes()) {
            self.buf.shrink_to(keep);
        }
    }

    /// Run one decode step, making its error sticky: after an `Err`, every
    /// later step returns the stream-corrupt error again.
    fn checked<'a, T>(
        &'a self,
        step: impl FnOnce(&'a Self) -> Result<T, LogError>,
    ) -> Result<T, LogError> {
        if self.failed.get() {
            return Err(LogError::Corrupt {
                offset: self.offset(),
                reason: "stream already failed an earlier decode".into(),
            });
        }
        let out = step(self);
        if out.is_err() {
            self.failed.set(true);
        }
        out
    }

    /// Decode the header, if its bytes have all arrived: `Ok(None)` while
    /// more bytes are needed. Errors are sticky, as
    /// [`next_record`](Self::next_record)'s are.
    pub fn decode_header(&self) -> Result<Option<&LogHeader>, LogError> {
        self.checked(Self::try_header)
    }

    fn try_header(&self) -> Result<Option<&LogHeader>, LogError> {
        if let Some(header) = self.header.get() {
            return Ok(Some(header));
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
            _ => return Ok(None),
        };
        if version != FORMAT_VERSION {
            return Err(LogError::VersionMismatch {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        let Some(meta_len) = self.u32_at(8) else {
            return Ok(None);
        };
        let meta_len = meta_len as usize;
        let Some(meta_bytes) = self.peek(HEADER_FIXED, meta_len) else {
            return Ok(None);
        };
        let meta_text = std::str::from_utf8(meta_bytes).map_err(|e| LogError::Corrupt {
            offset: self.abs(HEADER_FIXED),
            reason: format!("header not utf-8: {e}"),
        })?;
        let meta: Value = serde_json::from_str(meta_text).map_err(|e| LogError::Corrupt {
            offset: self.abs(HEADER_FIXED),
            reason: format!("header not json: {e}"),
        })?;
        self.pos.set(HEADER_FIXED + meta_len);
        Ok(Some(
            self.header.get_or_init(|| LogHeader { version, meta }),
        ))
    }

    /// Decode the next complete record, if its bytes have all arrived, and
    /// lend it in place. The header before it is decoded on the way.
    ///
    /// `Ok(None)` means the buffer holds no complete frame *yet* — feed
    /// more bytes and call again. Integrity errors (magic, version,
    /// checksum, UTF-8, sequence ordering) are hard and sticky: after an
    /// `Err`, every later call returns the stream-corrupt error again. The
    /// payload's JSON is not read here.
    pub fn next_record(&self) -> Result<Option<Frame<'_>>, LogError> {
        self.checked(Self::next_record_inner)
    }

    fn next_record_inner(&self) -> Result<Option<Frame<'_>>, LogError> {
        if self.try_header()?.is_none() {
            return Ok(None);
        }
        let at = self.pos.get();
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
        if let Some(prev) = self.last_seq.get() {
            if seq <= prev {
                return Err(LogError::NonMonotoneSeq { prev, next: seq });
            }
        }
        let payload = std::str::from_utf8(body).map_err(|e| LogError::Corrupt {
            offset: self.abs(at),
            reason: format!("payload not utf-8: {e}"),
        })?;
        self.pos.set(at + FRAME_FIXED + len);
        self.last_seq.set(Some(seq));
        self.ready.set(self.ready.get().saturating_sub(1));
        Ok(Some(Frame { seq, payload }))
    }

    /// How many complete frames the buffer holds, counted up to `limit`
    /// from their length prefixes alone: each is judged (checksum, UTF-8,
    /// sequence) only when [`next_record`](Self::next_record) takes it.
    /// The header is decoded first, once its bytes are in; until then no
    /// frame counts. Counting resumes where the last count stopped, so
    /// calling this once per frame taken costs O(1) per frame.
    pub fn complete_frames(&self, limit: usize) -> Result<usize, LogError> {
        self.checked(|tail| {
            if tail.try_header()?.is_none() {
                return Ok(0);
            }
            let mut at = tail.scanned.get().max(tail.pos.get());
            let mut ready = tail.ready.get();
            while ready < limit {
                let Some(len) = tail.u32_at(at) else { break };
                let len = len as usize;
                if tail.peek(at + FRAME_FIXED, len).is_none() {
                    break;
                }
                at += FRAME_FIXED + len;
                ready += 1;
            }
            tail.scanned.set(at);
            tail.ready.set(ready);
            Ok(ready.min(limit))
        })
    }

    /// Declare the stream complete and return its header. A leftover
    /// partial frame, or a stream too short for its own header, is
    /// [`LogError::Truncated`] at the offset where it starts.
    pub fn finish(&self) -> Result<&LogHeader, LogError> {
        match self.header.get() {
            Some(header) if self.pending_bytes() == 0 => Ok(header),
            _ => Err(LogError::Truncated {
                offset: self.offset(),
            }),
        }
    }
}

/// The most bytes one [`FollowReader::poll`] reads. It bounds what a poll
/// adds to the decode buffer, so a caller that stops polling once the
/// buffer holds enough complete frames holds at most those frames plus one
/// budget's bytes, however long the file.
pub const POLL_BUDGET: u64 = 1 << 20;

/// Follow a binary log file as it grows: each [`poll`](FollowReader::poll)
/// reads up to [`POLL_BUDGET`] of the bytes appended since the last poll
/// into the wrapped decoder, whose [`next_record`](TailReader::next_record)
/// lends the frames they complete.
///
/// The file may not exist yet when the reader is constructed (the producer
/// creates it on its first write); polls before that simply read nothing.
/// Reads are positional (`seek` + read to end), so the producer and the
/// follower never share a file cursor.
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

    /// Read up to [`POLL_BUDGET`] newly appended bytes into the decoder and
    /// return how many arrived: 0 means the poll reached the end of the
    /// file as it stands. A missing file is "nothing yet", not an error.
    /// Nothing is decoded here; take the frames from
    /// [`tail`](Self::tail).
    ///
    /// # Errors
    /// Returns [`LogError::ShrunkSource`] when the file is smaller than the
    /// bytes already consumed — the producer truncated or rotated it,
    /// consumed history is gone, and silently seeking past EOF would stall
    /// the follower forever at a stale offset. The error repeats on every
    /// poll until the file grows back past the committed offset (i.e. it is
    /// not masked by a later, unrelated append); recovery means re-opening
    /// the source from scratch.
    pub fn poll(&mut self) -> Result<usize, LogError> {
        let mut file = match std::fs::File::open(&self.path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
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
        let read = self.tail.read_from(&mut file, POLL_BUDGET)?;
        self.read_bytes += read as u64;
        Ok(read)
    }

    /// The wrapped decoder: it lends the frames the polls completed, and
    /// holds the header, the last seq and the bytes not yet taken.
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
    use crate::event::{encode_binary, LogRecord, SCRATCH_BOUND};

    /// Every frame the decoder can lend now, copied out: what `drain`
    /// returned when the decoder copied its frames.
    fn lent(tail: &TailReader) -> Result<Vec<LogRecord>, LogError> {
        let mut out = Vec::new();
        while let Some(frame) = tail.next_record()? {
            out.push(LogRecord {
                seq: frame.seq,
                payload: frame.payload.to_owned(),
            });
        }
        Ok(out)
    }

    /// Poll once and copy out the frames the poll completed.
    fn poll_lent(follow: &mut FollowReader) -> Result<Vec<LogRecord>, LogError> {
        follow.poll()?;
        lent(follow.tail())
    }

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
        assert_eq!(lent(&tail).unwrap(), records);
        assert_eq!(tail.finish(), Ok(&header));
    }

    #[test]
    fn header_only_stream_is_an_empty_log() {
        let (header, _) = sample();
        let mut tail = TailReader::new();
        tail.extend(&encode_binary(&header, &[]).unwrap());
        assert_eq!(lent(&tail).unwrap(), Vec::new());
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
            seen.extend(lent(&tail).unwrap());
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
        let drained = lent(&tail).unwrap();
        assert_eq!(drained.len(), records.len() - 1, "last record incomplete");
        let last_frame = tail.offset();
        assert_eq!(
            tail.finish(),
            Err(LogError::Truncated { offset: last_frame })
        );
        // The missing bytes arrive: the record completes, finish passes.
        tail.extend(&bytes[cut..]);
        assert_eq!(lent(&tail).unwrap(), records[records.len() - 1..]);
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
            seen.extend(lent(&tail).unwrap());
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
            seen.extend(lent(&tail).unwrap());
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
        assert_eq!(tail.next_record(), Ok(Some(records[0].as_frame())));
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
        assert_eq!(
            poll_lent(&mut follow).unwrap(),
            Vec::new(),
            "missing file is empty"
        );

        let (header, records) = sample();
        let bytes = encode_binary(&header, &records).unwrap();
        let split = bytes.len() / 2;
        std::fs::write(&path, &bytes[..split]).unwrap();
        let first = poll_lent(&mut follow).unwrap();
        assert!(first.len() < records.len());

        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        std::io::Write::write_all(&mut f, &bytes[split..]).unwrap();
        drop(f);
        let mut all = first;
        all.extend(poll_lent(&mut follow).unwrap());
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
            let polled = poll_lent(&mut follow).unwrap();
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
        assert_eq!(poll_lent(&mut follow).unwrap(), records);
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

    /// Byte offset where each record's frame ends, in a stream of `header`
    /// then `records`.
    fn frame_ends(header: &LogHeader, records: &[LogRecord]) -> Vec<usize> {
        let mut at = encode_binary(header, &[]).unwrap().len();
        records
            .iter()
            .map(|r| {
                at += FRAME_FIXED + r.payload.len();
                at
            })
            .collect()
    }

    #[test]
    fn complete_frames_counts_what_next_record_will_lend() {
        let (header, records) = sample();
        let bytes = encode_binary(&header, &records).unwrap();
        let ends = frame_ends(&header, &records);
        let mut tail = TailReader::new();
        assert_eq!(tail.complete_frames(usize::MAX), Ok(0), "no header yet");
        let (mut fed, mut taken) = (0, 0);
        for (i, piece) in bytes.chunks(7).enumerate() {
            tail.extend(piece);
            fed += piece.len();
            let complete = ends.iter().filter(|&&end| end <= fed).count();
            assert_eq!(tail.complete_frames(usize::MAX), Ok(complete - taken));
            // A count stays within its limit after a larger one.
            assert_eq!(tail.complete_frames(1), Ok((complete - taken).min(1)));
            // Take a frame every eighth piece, slower than they arrive: the
            // count falls by one.
            if i % 8 == 0 && complete > taken {
                let frame = tail.next_record().unwrap().unwrap();
                assert_eq!(frame, records[taken].as_frame());
                taken += 1;
                assert_eq!(tail.complete_frames(usize::MAX), Ok(complete - taken));
            }
        }
        assert!(records.len() - taken > 2, "frames were left to count");
        assert_eq!(lent(&tail).unwrap(), records[taken..]);
        assert_eq!(tail.complete_frames(usize::MAX), Ok(0));
        assert_eq!(tail.finish(), Ok(&header));
    }

    /// Feed `bytes` in pieces of the given sizes (cycled), lending every
    /// frame as soon as it completes. Returns the frames, copied out, and
    /// then the decode error that stopped the stream or what `finish` said.
    fn decode_in_pieces(
        bytes: &[u8],
        sizes: &[usize],
    ) -> (Vec<LogRecord>, Result<LogHeader, LogError>) {
        let mut tail = TailReader::new();
        let mut frames = Vec::new();
        let mut rest = bytes;
        let mut sizes = sizes.iter().cycle();
        while let Some(&size) = sizes.next().filter(|_| !rest.is_empty()) {
            let (piece, next) = rest.split_at(size.clamp(1, rest.len()));
            rest = next;
            tail.extend(piece);
            loop {
                match tail.next_record() {
                    Ok(Some(frame)) => {
                        // The header stays readable while a frame is lent.
                        let header = tail.header().expect("a frame comes after the header");
                        assert_eq!(header.version, FORMAT_VERSION);
                        frames.push(LogRecord {
                            seq: frame.seq,
                            payload: frame.payload.to_owned(),
                        });
                    }
                    Ok(None) => break,
                    Err(e) => return (frames, Err(e)),
                }
            }
        }
        let end = tail.finish().cloned();
        (frames, end)
    }

    proptest::proptest! {
        /// Any chunking of an encoded stream lends exactly the encoder's
        /// frames, and a flipped byte stops every chunking where it stops
        /// the stream fed whole: inside a payload, at that frame's start.
        #[test]
        fn any_chunking_lends_the_encoders_frames(seed in proptest::prelude::any::<u64>()) {
            let mut rng = crate::Rng::seed_from_u64(seed);
            let header = LogHeader::new(Value::Str("chunking".into()));
            let mut seq = 0;
            let records: Vec<LogRecord> = (0..rng.below(12))
                .map(|_| {
                    seq += 1 + rng.below(3);
                    let payload = (0..rng.below(40))
                        .map(|_| ['a', '"', '{', 'é', '7', ' '][rng.index(6)])
                        .collect();
                    LogRecord { seq, payload }
                })
                .collect();
            let mut bytes = encode_binary(&header, &records).unwrap();
            let sizes: Vec<usize> = (0..1 + rng.below(6)).map(|_| 1 + rng.index(64)).collect();

            let whole = decode_in_pieces(&bytes, &[bytes.len()]);
            proptest::prop_assert_eq!(&whole.0, &records);
            proptest::prop_assert_eq!(&whole.1, &Ok(header.clone()));
            proptest::prop_assert_eq!(&decode_in_pieces(&bytes, &sizes), &whole);

            let flip = rng.index(bytes.len());
            bytes[flip] ^= 1 + rng.below(255) as u8;
            let whole = decode_in_pieces(&bytes, &[bytes.len()]);
            proptest::prop_assert_eq!(&decode_in_pieces(&bytes, &sizes), &whole, "flip at {}", flip);
            let ends = frame_ends(&header, &records);
            if let Some(k) = ends.iter().position(|&end| flip < end) {
                let start = ends[k] - FRAME_FIXED - records[k].payload.len();
                if flip >= start + FRAME_FIXED {
                    proptest::prop_assert_eq!(&whole.0[..], &records[..k]);
                    let failed_at = match &whole.1 {
                        Err(LogError::Corrupt { offset, .. }) => Some(*offset),
                        _ => None,
                    };
                    proptest::prop_assert_eq!(failed_at, Some(start as u64), "flip at {}", flip);
                }
            }
        }
    }
}
