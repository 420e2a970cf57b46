//! The event-log substrate: the record model and its binary framing.
//!
//! A *log* is a header plus a sequence of records. The header carries a
//! format version and a caller-defined metadata document (the study config
//! and RNG provenance live there); each record is a monotone sequence
//! number plus a JSON payload. A writer renders any `Serialize` payload
//! straight into its frame; the decoder lends the payload back as text
//! ([`Frame`]), in place in its buffer.
//! Payload *semantics* belong to higher layers (`likelab_osn::log` defines
//! the world-mutation vocabulary, `likelab_core` the study records, which
//! read the text directly into their own types) — this module only
//! guarantees framing, ordering, and integrity.
//!
//! A log has one encoding, a compact framed stream (`LLOG` magic, version,
//! FNV-1a checksums per record), and one decoder,
//! [`TailReader`](crate::tail::TailReader), which replay, checkpoint
//! resume and `likelab serve` all read through. The stream is appendable:
//! [`FrameWriter`] streams records to any [`io::Write`] and reports byte
//! offsets, so a checkpoint can pin "the log up to byte N".
//!
//! Decoding is strict: a truncated tail, a failed checksum, a version skew,
//! or a sequence number that does not strictly increase is a hard
//! [`LogError`] — never a silent partial replay.

use serde::{Serialize, Value};
use std::fmt;
use std::io;

/// The binary codec's magic bytes.
pub const MAGIC: [u8; 4] = *b"LLOG";

/// Fixed bytes before the header's variable-length meta document:
/// magic (4) + version (2) + reserved (2) + meta length (4).
pub(crate) const HEADER_FIXED: usize = 12;

/// Fixed bytes before a frame's payload: len (4) + seq (8) + checksum (8).
pub(crate) const FRAME_FIXED: usize = 20;

/// Current format version (bump on any framing or vocabulary change; see
/// DESIGN.md for the versioning policy). Version 2 dropped the single-like
/// world event: every like is journaled as a batch. Version 3 journals a
/// like batch as three columns (users, pages, times), not one array per
/// like.
pub const FORMAT_VERSION: u16 = 3;

/// Log header: format version plus caller metadata.
#[derive(Clone, Debug, PartialEq)]
pub struct LogHeader {
    /// Format version of the stream (readers reject mismatches).
    pub version: u16,
    /// Caller-defined metadata (config, seed, RNG stream provenance).
    pub meta: Value,
}

impl LogHeader {
    /// A current-version header around `meta`.
    pub fn new(meta: Value) -> Self {
        LogHeader {
            version: FORMAT_VERSION,
            meta,
        }
    }
}

/// One log record: a monotone sequence number and its payload.
#[derive(Clone, Debug, PartialEq)]
pub struct LogRecord {
    /// Strictly increasing within a stream (gaps allowed, repeats not).
    pub seq: u64,
    /// The payload's JSON text, exactly as framed.
    pub payload: String,
}

impl LogRecord {
    /// The record as the decoder would lend it.
    pub fn as_frame(&self) -> Frame<'_> {
        Frame {
            seq: self.seq,
            payload: &self.payload,
        }
    }
}

/// One decoded record, lent by the decoder that holds its bytes
/// ([`TailReader::next_record`](crate::tail::TailReader::next_record)):
/// reading it copies nothing, and it lives until the decoder takes more
/// bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Frame<'a> {
    /// Strictly increasing within a stream (gaps allowed, repeats not).
    pub seq: u64,
    /// The payload's JSON text, exactly as framed.
    pub payload: &'a str,
}

/// Why a log could not be decoded (or written). Every variant is a hard
/// error: decoders never return a partial record set alongside one.
#[derive(Debug, Clone, PartialEq)]
pub enum LogError {
    /// The stream ends mid-header or mid-record.
    Truncated {
        /// Byte offset of the incomplete header or record.
        offset: u64,
    },
    /// The stream does not start with the expected magic.
    BadMagic,
    /// The stream was written by an incompatible format version.
    VersionMismatch {
        /// Version found in the stream.
        found: u16,
        /// Version this reader implements.
        expected: u16,
    },
    /// A frame failed validation (checksum, UTF-8, header JSON).
    Corrupt {
        /// Byte offset of the offending header or record.
        offset: u64,
        /// Human-readable cause.
        reason: String,
    },
    /// A sequence number failed to strictly increase.
    NonMonotoneSeq {
        /// The previous record's sequence number.
        prev: u64,
        /// The offending record's sequence number.
        next: u64,
    },
    /// A followed file shrank below the follower's committed offset — the
    /// producer truncated or rotated it. Distinct from
    /// [`Truncated`](LogError::Truncated)
    /// (which means the stream *ended* mid-frame): already-consumed bytes
    /// are gone, so the follower cannot continue and the caller must
    /// re-open the source from scratch. Reported by
    /// [`FollowReader::poll`](crate::tail::FollowReader::poll), and sticky
    /// while the file stays short.
    ShrunkSource {
        /// Bytes the follower had already consumed.
        read_bytes: u64,
        /// The file's current (smaller) length.
        len: u64,
    },
    /// An I/O failure while reading or writing a sink.
    Io(String),
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::Truncated { offset } => {
                write!(f, "log truncated at offset {offset}")
            }
            LogError::BadMagic => write!(f, "not a likelab event log (bad magic)"),
            LogError::VersionMismatch { found, expected } => {
                write!(f, "log format version {found}, reader expects {expected}")
            }
            LogError::Corrupt { offset, reason } => {
                write!(f, "log corrupt at offset {offset}: {reason}")
            }
            LogError::NonMonotoneSeq { prev, next } => {
                write!(f, "non-monotone sequence: {next} after {prev}")
            }
            LogError::ShrunkSource { read_bytes, len } => {
                write!(
                    f,
                    "followed log shrank to {len} bytes below the {read_bytes} already \
                     consumed (truncated or rotated under the follower)"
                )
            }
            LogError::Io(e) => write!(f, "log i/o: {e}"),
        }
    }
}

impl std::error::Error for LogError {}

impl From<io::Error> for LogError {
    fn from(e: io::Error) -> Self {
        LogError::Io(e.to_string())
    }
}

/// The capacity past which a reused codec buffer is released. The frame
/// writer's render buffer and the decoder's byte buffer grow to the
/// largest frame they have held, and one population-sized like batch
/// (about 6 MiB of JSON at paper scale 0.05) would otherwise pin that
/// size for the rest of the stream.
pub const SCRATCH_BOUND: usize = 4 << 20;

/// The capacity a released buffer keeps, so the frames after a large one
/// still reuse it.
const SCRATCH_FLOOR: usize = 1 << 20;

/// The capacity to shrink a reused buffer to while it holds `pending` live
/// bytes, or `None` to keep it: a buffer over [`SCRATCH_BOUND`] and over
/// four times `pending` shrinks to twice `pending`, and to no less than
/// 1 MiB. A lower trigger re-grows the buffer after every large batch.
pub(crate) fn released_capacity(capacity: usize, pending: usize) -> Option<usize> {
    (capacity > SCRATCH_BOUND && capacity > pending.saturating_mul(4))
        .then(|| pending.saturating_mul(2).max(SCRATCH_FLOOR))
}

/// FNV-1a over a byte stream — the per-record integrity checksum. Not
/// cryptographic; it catches the bit rot and partial writes a capture file
/// meets in practice. The [`crate::tail`] decoder verifies it; the RNG
/// hashes fork labels with it, and a checkpoint fingerprints its like plan.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Write the header: magic, version, reserved, meta length, meta JSON.
/// Returns the bytes written.
fn write_header(sink: &mut impl io::Write, header: &LogHeader) -> Result<u64, LogError> {
    let mut meta = String::new();
    serde_json::write_compact(&mut meta, &header.meta);
    let len = body_len(&meta)?;
    sink.write_all(&MAGIC)?;
    sink.write_all(&header.version.to_le_bytes())?;
    sink.write_all(&[0u8; 2])?; // reserved
    sink.write_all(&len.to_le_bytes())?;
    sink.write_all(meta.as_bytes())?;
    Ok((HEADER_FIXED + meta.len()) as u64)
}

/// Frame one record: `[len: u32][seq: u64][fnv1a: u64][payload bytes]`.
/// Returns the bytes written.
fn write_frame(sink: &mut impl io::Write, seq: u64, text: &str) -> Result<u64, LogError> {
    let body = text.as_bytes();
    let mut head = [0u8; FRAME_FIXED];
    head[..4].copy_from_slice(&body_len(text)?.to_le_bytes());
    head[4..12].copy_from_slice(&seq.to_le_bytes());
    head[12..].copy_from_slice(&fnv1a(body.iter().copied()).to_le_bytes());
    sink.write_all(&head)?;
    sink.write_all(body)?;
    Ok((FRAME_FIXED + body.len()) as u64)
}

/// A rendered document's length as the `u32` the framing stores.
fn body_len(text: &str) -> Result<u32, LogError> {
    u32::try_from(text.len())
        .map_err(|_| LogError::Io(format!("{}-byte document overflows a frame", text.len())))
}

/// Encode a whole log to the binary format. Unlike [`FrameWriter`], it
/// frames the records' payload text as given, without checking it or
/// their order.
pub fn encode_binary(header: &LogHeader, records: &[LogRecord]) -> Result<Vec<u8>, LogError> {
    let mut out = Vec::new();
    write_header(&mut out, header)?;
    for r in records {
        write_frame(&mut out, r.seq, &r.payload)?;
    }
    Ok(out)
}

/// Streaming binary-log writer over any [`io::Write`] sink.
///
/// Tracks bytes written and the last sequence number, so callers can pin
/// resumable offsets (checkpoints store `bytes_written` and truncate the
/// file back to it before continuing).
pub struct FrameWriter<W: io::Write> {
    sink: W,
    bytes: u64,
    last_seq: Option<u64>,
    /// Payload rendering scratch, reused across appends.
    text: String,
}

impl<W: io::Write> FrameWriter<W> {
    /// Start a fresh stream: writes the header immediately.
    pub fn new(mut sink: W, header: &LogHeader) -> Result<Self, LogError> {
        let bytes = write_header(&mut sink, header)?;
        Ok(FrameWriter {
            sink,
            bytes,
            last_seq: None,
            text: String::new(),
        })
    }

    /// Continue an existing stream (header already on disk): the sink must
    /// be positioned at `bytes` — usually a file truncated to a checkpoint
    /// offset and seeked to its end.
    pub fn resume(sink: W, bytes: u64, last_seq: Option<u64>) -> Self {
        FrameWriter {
            sink,
            bytes,
            last_seq,
            text: String::new(),
        }
    }

    /// Append one record, rendering `payload` straight into the frame
    /// buffer this writer reuses. A frame that fits the buffer allocates
    /// nothing; after one that grew it past [`SCRATCH_BOUND`], the buffer
    /// shrinks back to 1 MiB. `seq` must strictly increase.
    pub fn append<T: Serialize + ?Sized>(&mut self, seq: u64, payload: &T) -> Result<(), LogError> {
        if let Some(prev) = self.last_seq {
            if seq <= prev {
                return Err(LogError::NonMonotoneSeq { prev, next: seq });
            }
        }
        self.text.clear();
        serde_json::write_compact(&mut self.text, payload);
        self.bytes += write_frame(&mut self.sink, seq, &self.text)?;
        self.last_seq = Some(seq);
        if let Some(keep) = released_capacity(self.text.capacity(), 0) {
            self.text.clear();
            self.text.shrink_to(keep);
        }
        Ok(())
    }

    /// Flush the sink (call before pinning a checkpoint offset).
    pub fn flush(&mut self) -> Result<(), LogError> {
        self.sink.flush()?;
        Ok(())
    }

    /// Total bytes written, header included.
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// The last appended sequence number, if any.
    pub fn last_seq(&self) -> Option<u64> {
        self.last_seq
    }

    /// Hand the sink back (e.g. the bytes of a log framed into a `Vec`).
    pub fn into_inner(self) -> W {
        self.sink
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> LogHeader {
        LogHeader::new(Value::Object(vec![
            ("seed".into(), Value::UInt(42)),
            ("preset".into(), Value::Str("paper".into())),
        ]))
    }

    fn sample_records() -> Vec<LogRecord> {
        (0..5)
            .map(|i| LogRecord {
                seq: i,
                payload: format!(r#"{{"kind":"like","user":{}}}"#, i * 7),
            })
            .collect()
    }

    #[test]
    fn frame_writer_matches_batch_encoder() {
        let header = sample_header();
        let mut records = sample_records();
        // One frame over the bound, and one small frame after it.
        records.push(LogRecord {
            seq: 5,
            payload: format!(r#"{{"pad":"{}"}}"#, "x".repeat(SCRATCH_BOUND)),
        });
        records.push(LogRecord {
            seq: 6,
            payload: "[1,2]".into(),
        });
        let batch = encode_binary(&header, &records).unwrap();
        let mut sink = Vec::new();
        {
            let mut w = FrameWriter::new(&mut sink, &header).unwrap();
            for r in &records {
                let payload: Value = serde_json::from_str(&r.payload).unwrap();
                w.append(r.seq, &payload).unwrap();
                if r.seq == 5 {
                    assert!(
                        w.text.capacity() <= SCRATCH_BOUND,
                        "the scratch is released after a frame over the bound"
                    );
                }
            }
            assert_eq!(w.bytes_written(), batch.len() as u64);
            assert_eq!(w.last_seq(), Some(6));
        }
        assert_eq!(sink, batch, "streamed and batch encodings must agree");
    }

    #[test]
    fn frame_writer_rejects_seq_reuse() {
        let mut w = FrameWriter::new(Vec::new(), &sample_header()).unwrap();
        w.append(1, &Value::Null).unwrap();
        assert!(matches!(
            w.append(1, &Value::Null),
            Err(LogError::NonMonotoneSeq { prev: 1, next: 1 })
        ));
    }
}
