//! `likelab serve` — the long-running scoring service over a live study
//! log.
//!
//! Replay ([`crate::replay`]) answers "what happened" after a run is over;
//! serve answers "what is happening" while the log is still being written.
//! The engine tails a `world.log` stream (file-follow via
//! [`FollowReader`], whose decode buffer is the ingest backlog, or any
//! already-decoded record feed), folds every record where its frame lies,
//! through the same log fold replay and checkpoint resume use — a
//! live world replica built by
//! [`OsnWorld::apply_event`](likelab_osn::OsnWorld::apply_event), plus
//! per-campaign measurement slots — routes the
//! [`DetectorUpdate`](likelab_osn::DetectorUpdate)s each accepted mutation
//! emits into the [`OnlineDetectors`] suite, and answers queries over a
//! line-delimited JSON protocol (stdin/stdout or TCP) with bounded
//! latency: ingest happens in chunks of [`ServeConfig::chunk`] records,
//! and all pending queries are answered between chunks, so a query never
//! waits for the whole backlog; once the log is drained, a query is
//! answered as soon as it arrives.
//!
//! The full architecture, the versioned protocol schema, windowing
//! semantics, and the online-vs-batch equivalence contract live in
//! `SERVING.md` at the repository root.

use crate::record::{io_err, parse_record, StudyError, StudyRecord};
use crate::replay::LogFold;
use crate::study::StudyConfig;
use likelab_detect::online::{organic_seeds, score_online, LiveDetectors, OnlineDetectors};
use likelab_detect::{BurstConfig, LockstepConfig, ScorerWeights, SybilRankConfig};
use likelab_graph::{PageId, UserId};
use likelab_obs::Histogram;
use likelab_osn::WorldEvent;
use likelab_sim::event::{Frame, LogHeader};
use likelab_sim::{FollowReader, SimTime};
use serde::Value;
use std::io::{BufRead, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// The protocol version this build speaks. Requests carrying any other
/// `v` are rejected; see `SERVING.md` for the compatibility policy.
pub const PROTOCOL_VERSION: u64 = 1;

/// Detector and service knobs for [`ServeEngine`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Burst-detector parameters (window, share threshold, min events).
    pub burst: BurstConfig,
    /// Lockstep-detector parameters.
    pub lockstep: LockstepConfig,
    /// SybilRank parameters.
    pub sybil: SybilRankConfig,
    /// Scorer weights for `score`/`eval` queries.
    pub weights: ScorerWeights,
    /// Trust-seed stride: every `seed_stride`-th ground-truth organic
    /// account seeds SybilRank (the batch evaluation convention).
    pub seed_stride: usize,
    /// Ingest chunk size: at most this many records are folded between
    /// query-service turns, which bounds query latency under backlog.
    pub chunk: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            burst: BurstConfig::default(),
            lockstep: LockstepConfig::default(),
            sybil: SybilRankConfig::default(),
            weights: ScorerWeights::default(),
            seed_stride: 500,
            chunk: 4_096,
        }
    }
}

/// The incremental fold behind `likelab serve`: the study log's fold (a
/// live world replica and per-campaign measurement slots) and the online
/// detector suite it feeds, advanced one [`StudyRecord`] at a time.
///
/// ```
/// use likelab_core::serve::{ServeConfig, ServeEngine};
/// use likelab_core::{run_study_opts, RunOptions, StudyConfig};
///
/// let outcome = run_study_opts(
///     &StudyConfig::paper(42, 0.02),
///     &RunOptions { capture_log: true, ..RunOptions::default() },
/// )
/// .unwrap();
/// let log = outcome.log.unwrap();
/// let mut engine = ServeEngine::new(log.header(), ServeConfig::default()).unwrap();
/// for (seq, record) in log.records() {
///     engine.ingest(*seq, record.clone()).unwrap();
/// }
/// assert_eq!(engine.records_ingested(), log.records().len() as u64);
/// assert!(engine.world().likes().len() > 0);
/// ```
pub struct ServeEngine {
    serve: ServeConfig,
    fold: LogFold,
    detectors: OnlineDetectors,
    /// Scratch for an account's merged neighbor list, which the clustering
    /// feature reads: every `score` and every account of an `eval` reuse it.
    neighbors: Vec<UserId>,
}

impl ServeEngine {
    /// An engine for the study described by `header` (the log's embedded
    /// [`StudyConfig`] sizes the campaign table).
    pub fn new(header: &LogHeader, serve: ServeConfig) -> Result<Self, StudyError> {
        Ok(ServeEngine {
            fold: LogFold::new(header)?,
            detectors: OnlineDetectors::new(serve.burst, serve.lockstep, serve.sybil),
            serve,
            neighbors: Vec::new(),
        })
    }

    /// Fold one study record into the live state.
    pub fn ingest(&mut self, seq: u64, record: StudyRecord) -> Result<(), StudyError> {
        if let StudyRecord::World(WorldEvent::LikeBatch { likes }) = &record {
            self.detectors.lockstep_mut().reserve(likes.len());
        }
        let detectors = &mut self.detectors;
        self.fold
            .apply(seq, record, |update| detectors.apply(update))?;
        likelab_obs::metrics::counter("serve.ingest.records", 1);
        Ok(())
    }

    /// Parse a lent log frame where it lies and fold it in.
    pub fn ingest_frame(&mut self, frame: &Frame<'_>) -> Result<(), StudyError> {
        self.ingest(frame.seq, parse_record(frame)?)
    }

    /// The study configuration embedded in the log header.
    pub fn config(&self) -> &StudyConfig {
        &self.fold.config
    }

    /// The live world replica.
    pub fn world(&self) -> &likelab_osn::OsnWorld {
        &self.fold.world
    }

    /// The online detector suite paired with the live world replica its
    /// burst verdicts read (for direct, non-protocol access).
    pub fn detectors_mut(&mut self) -> LiveDetectors<'_> {
        self.detectors.with_world(&self.fold.world)
    }

    /// Records folded so far.
    pub fn records_ingested(&self) -> u64 {
        self.fold.records
    }

    /// The highest sequence number folded so far.
    pub fn last_seq(&self) -> Option<u64> {
        self.fold.last_seq
    }

    /// The stream watermark: the maximum event timestamp seen. Online
    /// feature extraction evaluates account age against this clock; at
    /// end-of-stream it equals the batch pipeline's study-end clock.
    pub fn watermark(&self) -> SimTime {
        self.fold.watermark
    }

    /// The online fraud score of one account at the current watermark,
    /// with this engine's configured weights. Splits the world/detector
    /// borrows internally so callers don't have to.
    pub fn online_score(&mut self, user: UserId) -> f64 {
        score_online(
            &self.fold.world,
            self.detectors.burst_mut(),
            user,
            self.fold.watermark,
            &self.serve.weights,
            &mut self.neighbors,
        )
    }

    // --- query handlers ----------------------------------------------------

    /// Answer one parsed query. `pending` is the ingest backlog (complete
    /// records read but not yet folded) at the time the query is served; it
    /// is echoed in `status` responses as the instantaneous ingest lag.
    pub fn query(&mut self, op: &str, params: &Value, pending: usize) -> Result<Value, String> {
        match op {
            "status" => Ok(self.q_status(pending)),
            "score" => self.q_score(params),
            "page" => self.q_page(params),
            "campaign" => self.q_campaign(params),
            "lockstep" => Ok(self.q_lockstep()),
            "sybil" => self.q_sybil(params),
            "eval" => self.q_eval(params),
            other => Err(format!(
                "unknown op `{other}` (status|score|page|campaign|lockstep|sybil|eval|shutdown)"
            )),
        }
    }

    fn q_status(&self, pending: usize) -> Value {
        let LogFold { world, slots, .. } = &self.fold;
        let launched = slots.iter().filter(|s| s.page.is_some()).count();
        let ended = slots.iter().filter(|s| s.monitoring_ended).count();
        obj(vec![
            ("records", Value::UInt(self.fold.records)),
            ("last_seq", opt_uint(self.fold.last_seq)),
            ("pending", Value::UInt(pending as u64)),
            ("watermark_secs", Value::UInt(self.watermark().as_secs())),
            ("accounts", Value::UInt(world.account_count() as u64)),
            ("pages", Value::UInt(world.page_count() as u64)),
            ("likes", Value::UInt(world.likes().len() as u64)),
            ("edges", Value::UInt(world.friends().edge_count() as u64)),
            ("campaigns", Value::UInt(slots.len() as u64)),
            ("campaigns_launched", Value::UInt(launched as u64)),
            ("campaigns_ended", Value::UInt(ended as u64)),
            (
                "baseline_records",
                Value::UInt(self.fold.baseline.len() as u64),
            ),
        ])
    }

    fn q_score(&mut self, params: &Value) -> Result<Value, String> {
        let user = param_u64(params, "user")?;
        if user >= self.fold.world.account_count() as u64 {
            return Err(format!("unknown user {user}"));
        }
        let u = UserId(user as u32);
        let score = self.online_score(u);
        let verdict = self.detectors.burst_mut().user_verdict(&self.fold.world, u);
        let world = &self.fold.world;
        Ok(obj(vec![
            ("user", Value::UInt(user)),
            ("score", Value::Float(score)),
            ("burst_share", Value::Float(verdict.peak_share)),
            ("burst_events", Value::UInt(verdict.events as u64)),
            ("burst_flagged", Value::Bool(verdict.flagged)),
            (
                "likes",
                Value::UInt(world.likes().user_like_count(u) as u64),
            ),
            ("friends", Value::UInt(world.total_friend_count(u) as u64)),
            ("active", Value::Bool(world.is_active(u))),
        ]))
    }

    fn q_page(&mut self, params: &Value) -> Result<Value, String> {
        let page = param_u64(params, "page")?;
        if page >= self.fold.world.page_count() as u64 {
            return Err(format!("unknown page {page}"));
        }
        let p = PageId(page as u32);
        let verdict = self.detectors.burst_mut().page_verdict(&self.fold.world, p);
        Ok(obj(vec![
            ("page", Value::UInt(page)),
            (
                "likes",
                Value::UInt(self.fold.world.likes().page_like_count(p) as u64),
            ),
            ("burst_share", Value::Float(verdict.peak_share)),
            ("burst_events", Value::UInt(verdict.events as u64)),
            ("burst_flagged", Value::Bool(verdict.flagged)),
        ]))
    }

    fn q_campaign(&mut self, params: &Value) -> Result<Value, String> {
        let i = param_u64(params, "campaign")? as usize;
        let LogFold {
            config,
            world,
            slots,
            ..
        } = &self.fold;
        let label = config
            .campaigns
            .get(i)
            .map(|c| c.label.clone())
            .ok_or_else(|| format!("unknown campaign {i}"))?;
        // The campaigns check above implies a slot exists, but `i` came off
        // the wire: a malformed request must answer with an error, never
        // panic the service.
        let slot = slots
            .get(i)
            .ok_or_else(|| format!("unknown campaign {i}"))?;
        let page_likes = slot
            .page
            .map(|p| world.likes().page_like_count(p))
            .unwrap_or(0);
        Ok(obj(vec![
            ("campaign", Value::UInt(i as u64)),
            ("label", Value::Str(label)),
            (
                "page",
                slot.page
                    .map(|p| Value::UInt(u64::from(p.0)))
                    .unwrap_or(Value::Null),
            ),
            ("launched", Value::Bool(slot.page.is_some())),
            ("inactive", Value::Bool(slot.inactive)),
            ("likes", Value::UInt(page_likes as u64)),
            ("observations", Value::UInt(slot.observations.len() as u64)),
            ("likers_collected", Value::UInt(slot.likers.len() as u64)),
            ("monitoring_ended", Value::Bool(slot.monitoring_ended)),
            ("monitoring_days", opt_uint(slot.monitoring_days)),
            (
                "poll_success_rate",
                Value::Float(slot.coverage.poll_success_rate()),
            ),
            (
                "profile_coverage",
                Value::Float(slot.coverage.profile_coverage()),
            ),
            ("terminated", Value::UInt(slot.terminated as u64)),
            ("termination_unknown", Value::UInt(slot.unknown as u64)),
        ]))
    }

    fn q_lockstep(&mut self) -> Value {
        let report = self.detectors.lockstep_mut().report();
        let flagged = report.flagged().len();
        let largest = report.clusters.first().map_or(0, Vec::len);
        obj(vec![
            ("clusters", Value::UInt(report.clusters.len() as u64)),
            ("flagged", Value::UInt(flagged as u64)),
            ("largest", Value::UInt(largest as u64)),
        ])
    }

    fn q_sybil(&mut self, params: &Value) -> Result<Value, String> {
        let user = param_u64(params, "user")?;
        let world = &self.fold.world;
        if user >= world.account_count() as u64 {
            return Err(format!("unknown user {user}"));
        }
        let seeds = organic_seeds(world, self.serve.seed_stride);
        let sybil = self.detectors.sybilrank_mut();
        let was_dirty = sybil.is_dirty();
        let trust = sybil
            .refresh(world.friends(), &seeds)
            .trust(UserId(user as u32));
        Ok(obj(vec![
            ("user", Value::UInt(user)),
            ("trust", Value::Float(trust)),
            ("seeds", Value::UInt(seeds.len() as u64)),
            ("recomputed", Value::Bool(was_dirty)),
        ]))
    }

    /// Ground-truth precision/recall of the online scorer at a threshold.
    /// The one query allowed to peek at actor-class labels — the serve-side
    /// counterpart of the batch `eval` module.
    fn q_eval(&mut self, params: &Value) -> Result<Value, String> {
        let threshold = match params.get("threshold") {
            None | Some(Value::Null) => 0.5,
            Some(Value::Float(f)) => *f,
            Some(Value::UInt(n)) => *n as f64,
            Some(other) => return Err(format!("bad threshold: {}", other.kind())),
        };
        let n = self.fold.world.account_count() as u32;
        let (mut tp, mut fp, mut fn_, mut tn) = (0u64, 0u64, 0u64, 0u64);
        for i in 0..n {
            let u = UserId(i);
            let predicted = self.online_score(u) >= threshold;
            let actual = self.fold.world.account(u).class.is_farm();
            match (predicted, actual) {
                (true, true) => tp += 1,
                (true, false) => fp += 1,
                (false, true) => fn_ += 1,
                (false, false) => tn += 1,
            }
        }
        let precision = if tp + fp == 0 {
            0.0
        } else {
            tp as f64 / (tp + fp) as f64
        };
        let recall = if tp + fn_ == 0 {
            0.0
        } else {
            tp as f64 / (tp + fn_) as f64
        };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        Ok(obj(vec![
            ("threshold", Value::Float(threshold)),
            ("accounts", Value::UInt(u64::from(n))),
            ("tp", Value::UInt(tp)),
            ("fp", Value::UInt(fp)),
            ("fn", Value::UInt(fn_)),
            ("tn", Value::UInt(tn)),
            ("precision", Value::Float(precision)),
            ("recall", Value::Float(recall)),
            ("f1", Value::Float(f1)),
        ]))
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

fn opt_uint(v: Option<u64>) -> Value {
    v.map(Value::UInt).unwrap_or(Value::Null)
}

fn param_u64(params: &Value, name: &str) -> Result<u64, String> {
    match params.get(name) {
        Some(Value::UInt(n)) => Ok(*n),
        Some(other) => Err(format!("`{name}` must be an integer, got {}", other.kind())),
        None => Err(format!("missing required param `{name}`")),
    }
}

/// The protocol layer: one JSON request line in, one JSON response line
/// out. See `SERVING.md` § protocol for the schema.
pub struct ServeSession {
    engine: ServeEngine,
    stats: ServeStats,
}

/// Service-side accounting, reported by [`serve`] and the bench.
#[derive(Clone, Debug, Default)]
pub struct ServeStats {
    /// Queries answered (including errors).
    pub queries: u64,
    /// Query-service latency histogram, nanoseconds.
    pub query_ns: Histogram,
    /// Largest ingest backlog observed at query time, in records.
    pub max_lag_records: u64,
}

impl ServeStats {
    /// Upper-bound p99 query latency in nanoseconds.
    pub fn p99_query_ns(&self) -> u64 {
        self.query_ns.quantile(0.99)
    }
}

impl ServeSession {
    /// Wrap an engine in the protocol layer.
    pub fn new(engine: ServeEngine) -> Self {
        ServeSession {
            engine,
            stats: ServeStats::default(),
        }
    }

    /// The engine, for direct ingest.
    pub fn engine_mut(&mut self) -> &mut ServeEngine {
        &mut self.engine
    }

    /// Accumulated service stats.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Handle one request line; always returns a well-formed response
    /// line (errors are `ok:false` responses, never panics). `pending` is
    /// the current ingest backlog in records. Returns the response plus
    /// whether the request asked the server to shut down.
    pub fn handle_line(&mut self, line: &str, pending: usize) -> (String, bool) {
        // Wall-clock query latency feeds the observability histograms
        // only, never a reply or a simulation result.
        #[allow(clippy::disallowed_types)]
        let started = std::time::Instant::now();
        self.stats.queries += 1;
        self.stats.max_lag_records = self.stats.max_lag_records.max(pending as u64);
        likelab_obs::metrics::record_ns("serve.query.lag.records", pending as u64);
        let (response, shutdown, op_metric) = self.handle_inner(line, pending);
        let elapsed = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        self.stats.query_ns.record(elapsed);
        likelab_obs::metrics::record_ns("serve.query.ns", elapsed);
        likelab_obs::metrics::record_ns(op_metric, elapsed);
        (response, shutdown)
    }

    /// The response line, whether to shut down, and the per-op latency
    /// histogram the request is timed into.
    fn handle_inner(&mut self, line: &str, pending: usize) -> (String, bool, &'static str) {
        let (id, request) = match read_request(line) {
            Ok(read) => read,
            Err(reply) => return (reply, false, QUERY_ERROR_NS),
        };
        let Some(op) = request.get("op").and_then(Value::as_str) else {
            return (error_line(&id, "missing `op` field"), false, QUERY_ERROR_NS);
        };
        let op_metric = op_metric(op);
        if op == "shutdown" {
            let data = obj(vec![("stopping", Value::Bool(true))]);
            return (ok_line(&id, data), true, op_metric);
        }
        let line = match self.engine.query(op, &request, pending) {
            Ok(data) => ok_line(&id, data),
            Err(e) => error_line(&id, &e),
        };
        (line, false, op_metric)
    }
}

/// Parse a request line and check its protocol version. Returns the
/// request's `id` and the request, or the error response line.
fn read_request(line: &str) -> Result<(Value, Value), String> {
    let request: Value = serde_json::from_str(line)
        .map_err(|e| error_line(&Value::Null, &format!("bad request JSON: {e}")))?;
    let id = request.get("id").cloned().unwrap_or(Value::Null);
    match request.get("v") {
        Some(Value::UInt(PROTOCOL_VERSION)) => Ok((id, request)),
        Some(other) => {
            let msg = format!(
                "unsupported protocol version {other:?} (this server speaks v{PROTOCOL_VERSION})"
            );
            Err(error_line(&id, &msg))
        }
        None => Err(error_line(&id, "missing `v` (protocol version) field")),
    }
}

/// The latency histogram of requests that never reach an op handler: bad
/// JSON, a missing or unsupported `v`, a missing or unknown `op`.
const QUERY_ERROR_NS: &str = "serve.query.ns{op=error}";

/// The per-op latency histogram for `op`. The names are static, so the
/// label set stays fixed and timing a request allocates nothing.
fn op_metric(op: &str) -> &'static str {
    match op {
        "status" => "serve.query.ns{op=status}",
        "score" => "serve.query.ns{op=score}",
        "page" => "serve.query.ns{op=page}",
        "campaign" => "serve.query.ns{op=campaign}",
        "lockstep" => "serve.query.ns{op=lockstep}",
        "sybil" => "serve.query.ns{op=sybil}",
        "eval" => "serve.query.ns{op=eval}",
        "shutdown" => "serve.query.ns{op=shutdown}",
        _ => QUERY_ERROR_NS,
    }
}

fn ok_line(id: &Value, data: Value) -> String {
    response_line(id, true, "data", data)
}

fn error_line(id: &Value, message: &str) -> String {
    response_line(id, false, "error", Value::Str(message.into()))
}

/// One compact response line: `v`, `id` and `ok`, then `key: value`.
fn response_line(id: &Value, ok: bool, key: &str, value: Value) -> String {
    let response = Value::Object(vec![
        ("v".into(), Value::UInt(PROTOCOL_VERSION)),
        ("id".into(), id.clone()),
        ("ok".into(), Value::Bool(ok)),
        (key.into(), value),
    ]);
    let mut line = String::new();
    serde_json::write_compact(&mut line, &response);
    line
}

/// Where [`serve`] listens for queries.
#[derive(Clone, Debug)]
pub enum ServeTransport {
    /// Line-delimited JSON on stdin/stdout (the default). The server
    /// exits when stdin closes and the log backlog is drained.
    Stdio,
    /// Line-delimited JSON over TCP on the given `host:port`. Each client
    /// has its own reader, up to [`MAX_CONNECTIONS`] at once, so an idle
    /// client delays no other; the server exits on a `shutdown` request.
    Tcp(String),
}

/// Knobs for [`serve`].
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// The study log to tail (binary framing, as written by `--log-out`
    /// or a checkpoint directory's `world.log`).
    pub log: PathBuf,
    /// Detector and service configuration.
    pub config: ServeConfig,
    /// Keep tailing after end-of-file (a run still writing the log).
    /// Without it the server still answers queries until the transport
    /// closes, but stops polling the file once fully ingested.
    pub follow: bool,
    /// Query transport.
    pub transport: ServeTransport,
    /// How long an idle loop (log drained, nothing to fold) waits for a
    /// request before it polls the file again. A request that arrives
    /// meanwhile is answered at once.
    pub poll_interval: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            log: PathBuf::from("world.log"),
            config: ServeConfig::default(),
            follow: false,
            transport: ServeTransport::Stdio,
            poll_interval: Duration::from_millis(25),
        }
    }
}

/// What a serve session did, reported when the loop exits.
#[derive(Clone, Debug)]
pub struct ServeSummary {
    /// Records ingested.
    pub records: u64,
    /// Queries answered.
    pub queries: u64,
    /// Upper-bound p99 query latency, nanoseconds.
    pub p99_query_ns: u64,
    /// Largest ingest backlog observed at query time.
    pub max_lag_records: u64,
}

/// One query delivered by a transport pump: the raw line and a channel
/// the response line must be sent back on.
struct Request {
    line: String,
    reply: mpsc::Sender<String>,
}

/// The longest request line a transport accepts, in bytes, not counting
/// the line ending (`\n` or `\r\n`). A peer that sends a longer line gets
/// one `ok:false` reply naming the cap and is dropped; the pump never
/// buffers past the cap and a line ending.
pub const MAX_REQUEST_LINE: usize = 65_536;

/// One read from a request stream.
#[derive(Debug, PartialEq)]
enum RequestLine {
    /// A line without its line ending.
    Line(String),
    /// A line longer than [`MAX_REQUEST_LINE`]; reading stopped inside it.
    TooLong,
    /// The peer closed the stream.
    Eof,
}

/// Read one request line, consuming at most [`MAX_REQUEST_LINE`] + 2 bytes:
/// the cap and a CRLF.
fn read_request_line(reader: &mut impl BufRead) -> std::io::Result<RequestLine> {
    let mut buf = Vec::new();
    std::io::Read::take(reader, MAX_REQUEST_LINE as u64 + 2).read_until(b'\n', &mut buf)?;
    if buf.is_empty() {
        return Ok(RequestLine::Eof);
    }
    // Without a newline, this is the stream's last line or a line cut
    // short by the read limit.
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    }
    if buf.len() > MAX_REQUEST_LINE {
        return Ok(RequestLine::TooLong);
    }
    String::from_utf8(buf)
        .map(RequestLine::Line)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// Forward one peer's request lines to the serve loop and write each reply
/// back, until the peer closes, fails, or sends an over-long line. Returns
/// false once the serve loop has stopped taking requests.
fn pump_lines(
    mut reader: impl BufRead,
    mut writer: impl std::io::Write,
    tx: &mpsc::Sender<Request>,
) -> bool {
    let (reply_tx, reply_rx) = mpsc::channel::<String>();
    loop {
        let line = match read_request_line(&mut reader) {
            Ok(RequestLine::Line(line)) => line,
            Ok(RequestLine::TooLong) => {
                let msg = format!("request line longer than {MAX_REQUEST_LINE} bytes");
                let reply = error_line(&Value::Null, &msg);
                // The peer is dropped whether or not the reply reaches it.
                let _ = writeln!(writer, "{reply}").and_then(|()| writer.flush());
                return true;
            }
            Ok(RequestLine::Eof) | Err(_) => return true,
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = Request {
            line,
            reply: reply_tx.clone(),
        };
        if tx.send(request).is_err() {
            return false;
        }
        let Ok(response) = reply_rx.recv() else {
            return true;
        };
        if writeln!(writer, "{response}")
            .and_then(|()| writer.flush())
            .is_err()
        {
            return true;
        }
    }
}

fn spawn_stdio_pump(tx: mpsc::Sender<Request>) {
    std::thread::spawn(move || pump_lines(std::io::stdin().lock(), std::io::stdout(), &tx));
}

/// The most TCP clients served at once. A client that connects past it
/// gets one `ok:false` reply naming the limit and is closed.
pub const MAX_CONNECTIONS: usize = 32;

/// How long a read or write on a TCP client's socket may stall before the
/// pump asks whether the server is full. While a slot is free the call is
/// retried, so no client is dropped for being quiet; once every one of the
/// [`MAX_CONNECTIONS`] slots is taken, a client that has sent nothing (or
/// read none of its replies) for this long is closed, which frees its slot.
pub const CLIENT_IDLE_TIMEOUT: Duration = Duration::from_secs(60);

/// One TCP client's socket, read or written by its pump. A call that runs
/// out its timeout is retried while the server has a free slot and fails
/// once the server is full, which ends the pump.
struct ClientSocket {
    stream: std::net::TcpStream,
    /// Clients now connected, this one included.
    live: Arc<AtomicUsize>,
}

impl ClientSocket {
    /// Whether every slot is taken, so a stalled client should go.
    fn full(&self) -> bool {
        self.live.load(Ordering::SeqCst) >= MAX_CONNECTIONS
    }
}

/// Whether `e` is a socket timeout running out.
fn timed_out(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

impl std::io::Read for ClientSocket {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Err(e) if timed_out(&e) && !self.full() => {}
                result => return result,
            }
        }
    }
}

impl std::io::Write for ClientSocket {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        loop {
            match self.stream.write(buf) {
                Err(e) if timed_out(&e) && !self.full() => {}
                // A blocking send returns short only when its timeout runs
                // out with part of `buf` taken: a peer that reads too little
                // stalls its pump this way as well.
                Ok(n) if n < buf.len() && self.full() => {
                    return Err(std::io::ErrorKind::TimedOut.into());
                }
                result => return result,
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

/// An accepted client's read and write halves, both directions of its
/// socket timing out after [`CLIENT_IDLE_TIMEOUT`].
fn client_halves(
    stream: std::net::TcpStream,
    live: &Arc<AtomicUsize>,
) -> std::io::Result<(std::io::BufReader<ClientSocket>, ClientSocket)> {
    // Timeouts belong to the socket, so the clone shares them.
    stream.set_read_timeout(Some(CLIENT_IDLE_TIMEOUT))?;
    stream.set_write_timeout(Some(CLIENT_IDLE_TIMEOUT))?;
    let read_half = ClientSocket {
        stream: stream.try_clone()?,
        live: Arc::clone(live),
    };
    let write_half = ClientSocket {
        stream,
        live: Arc::clone(live),
    };
    Ok((std::io::BufReader::new(read_half), write_half))
}

/// Accept TCP clients and give each its own pump thread, all feeding the
/// one request channel, while fewer than [`MAX_CONNECTIONS`] are live.
/// Once all are live, a client stalled for [`CLIENT_IDLE_TIMEOUT`] is
/// closed ([`ClientSocket`]). The pump threads are not joined, as the
/// stdio pump is not: each blocks reading its peer, and the serve loop
/// ends without waiting for them.
fn spawn_tcp_pump(listener: std::net::TcpListener, tx: mpsc::Sender<Request>) {
    std::thread::spawn(move || {
        let live = Arc::new(AtomicUsize::new(0));
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            if live.fetch_add(1, Ordering::SeqCst) >= MAX_CONNECTIONS {
                live.fetch_sub(1, Ordering::SeqCst);
                let msg = format!("too many connections (at most {MAX_CONNECTIONS} at once)");
                // The client is closed whether or not the reply reaches it.
                let _ = writeln!(stream, "{}", error_line(&Value::Null, &msg));
                continue;
            }
            let (live, tx) = (Arc::clone(&live), tx.clone());
            std::thread::spawn(move || {
                if let Ok((reader, writer)) = client_halves(stream, &live) {
                    pump_lines(reader, writer, &tx);
                }
                live.fetch_sub(1, Ordering::SeqCst);
            });
        }
    });
}

/// Run the serve loop: tail the log, fold records in bounded chunks, and
/// answer queries between chunks. Returns when the transport closes (or a
/// `shutdown` request arrives) and the backlog is drained.
pub fn serve(opts: &ServeOptions) -> Result<ServeSummary, StudyError> {
    likelab_obs::span!("serve.run");
    // Without --follow the log will never appear later: a missing file is
    // a hard error, not an empty stream served successfully.
    if !opts.follow && !opts.log.exists() {
        return Err(io_err(
            &opts.log,
            std::io::Error::new(
                std::io::ErrorKind::NotFound,
                "no such log file (pass --follow to wait for a producer to create it)",
            ),
        ));
    }
    let (tx, rx) = mpsc::channel::<Request>();
    match &opts.transport {
        ServeTransport::Stdio => spawn_stdio_pump(tx),
        ServeTransport::Tcp(addr) => {
            let listener = std::net::TcpListener::bind(addr)
                .map_err(|e| io_err(std::path::Path::new(addr), e))?;
            eprintln!(
                "serving on {}",
                listener
                    .local_addr()
                    .map_err(|e| io_err(std::path::Path::new(addr), e))?
            );
            spawn_tcp_pump(listener, tx);
        }
    }

    // The follower's decode buffer is the backlog: polls read file bytes
    // into it, and frames are folded where they lie, never copied out.
    let mut follow = FollowReader::open(&opts.log);
    let chunk = opts.config.chunk;
    let mut session: Option<ServeSession> = None;
    let mut transport_closed = false;
    let mut shutdown = false;
    // The last poll read nothing: the file is read to its end, as it
    // stands.
    let mut at_eof = false;

    loop {
        // Read one poll budget of the file while the backlog holds fewer
        // than a chunk of complete frames, so it never holds more than a
        // chunk plus one budget's bytes, and the frames read are folded
        // before the next budget is. A static file is polled no more once
        // it is fully read and folded.
        let polling = opts.follow || !(at_eof && follow.tail().pending_bytes() == 0);
        if polling && follow.tail().complete_frames(chunk)? < chunk {
            let read = likelab_obs::metrics::timed("serve.poll.ns", || follow.poll())?;
            at_eof = read == 0;
        }
        // The header arrives before the first frame; the engine can only
        // be sized once the embedded config is readable.
        if session.is_none() {
            if let Some(header) = follow.tail().decode_header()? {
                let engine = ServeEngine::new(header, opts.config.clone())?;
                session = Some(ServeSession::new(engine));
            }
        }
        // Fold a bounded chunk so queries never wait on the full backlog.
        let tail = follow.tail();
        if let Some(s) = &mut session {
            let take = tail.complete_frames(chunk)?;
            if take > 0 {
                likelab_obs::metrics::timed("serve.ingest.chunk.ns", || {
                    for _ in 0..take {
                        let Some(frame) = tail.next_record()? else {
                            break;
                        };
                        s.engine_mut().ingest_frame(&frame)?;
                    }
                    Ok::<(), StudyError>(())
                })?;
            }
        }
        let pending = tail.complete_frames(usize::MAX)?;
        // Answer everything queued while we were ingesting. With the log
        // drained and nothing to fold, wait up to a poll interval for the
        // first request instead, and answer it the moment it arrives.
        let mut wait = if pending == 0 && at_eof {
            opts.poll_interval
        } else {
            Duration::ZERO
        };
        loop {
            match rx.recv_timeout(wait) {
                Ok(request) => {
                    let response = match &mut session {
                        Some(s) => {
                            let (response, stop) = s.handle_line(&request.line, pending);
                            shutdown |= stop;
                            response
                        }
                        None => error_line(
                            &Value::Null,
                            "log header not yet available; retry once the producer has written it",
                        ),
                    };
                    let _ = request.reply.send(response);
                    wait = Duration::ZERO;
                }
                Err(mpsc::RecvTimeoutError::Timeout) => break,
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    transport_closed = true;
                    break;
                }
            }
        }
        // Without --follow, a closed transport still waits for the rest of
        // the file: a poll reads one budget, so the end of the backlog is
        // not the end of the log.
        if shutdown || (transport_closed && pending == 0 && (opts.follow || at_eof)) {
            break;
        }
    }

    let (records, stats) = match session {
        Some(s) => (s.engine.records_ingested(), s.stats),
        None => (0, ServeStats::default()),
    };
    Ok(ServeSummary {
        records,
        queries: stats.queries,
        p99_query_ns: stats.p99_query_ns(),
        max_lag_records: stats.max_lag_records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::{run_study_opts, RunOptions};
    use crate::StudyLog;

    fn logged_outcome() -> &'static (crate::StudyOutcome, StudyLog) {
        static SHARED: std::sync::OnceLock<(crate::StudyOutcome, StudyLog)> =
            std::sync::OnceLock::new();
        SHARED.get_or_init(|| {
            let mut outcome = run_study_opts(
                &StudyConfig::paper(42, 0.03),
                &RunOptions {
                    capture_log: true,
                    ..RunOptions::default()
                },
            )
            .unwrap();
            let log = outcome.log.take().unwrap();
            (outcome, log)
        })
    }

    fn full_engine() -> ServeEngine {
        let (_, log) = logged_outcome();
        let mut engine = ServeEngine::new(log.header(), ServeConfig::default()).unwrap();
        for (seq, record) in log.records() {
            engine.ingest(*seq, record.clone()).unwrap();
        }
        engine
    }

    #[test]
    fn replica_matches_the_original_run() {
        let (outcome, log) = logged_outcome();
        let engine = full_engine();
        let world = engine.world();
        assert_eq!(world.account_count(), outcome.world.account_count());
        assert_eq!(world.page_count(), outcome.world.page_count());
        assert_eq!(world.likes().len(), outcome.world.likes().len());
        assert_eq!(
            world.friends().edge_count(),
            outcome.world.friends().edge_count()
        );
        // At end of stream the watermark is the study-end clock: the
        // latest time any world event of the log carries.
        let latest = log
            .records()
            .iter()
            .filter_map(|(_, r)| match r {
                StudyRecord::World(ev) => ev.latest_time(),
                _ => None,
            })
            .max()
            .expect("the log carries timed world events");
        assert_eq!(engine.watermark(), latest);
        assert_eq!(engine.last_seq(), log.records().last().map(|(seq, _)| *seq));
    }

    #[test]
    fn status_query_reports_live_state() {
        let mut session = ServeSession::new(full_engine());
        let (line, stop) = session.handle_line(r#"{"v":1,"id":1,"op":"status"}"#, 7);
        assert!(!stop);
        let v: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        let data = v.get("data").unwrap();
        assert_eq!(data.get("pending"), Some(&Value::UInt(7)));
        assert_eq!(data.get("campaigns"), Some(&Value::UInt(13)));
        assert_eq!(data.get("campaigns_launched"), Some(&Value::UInt(13)));
        let Some(Value::UInt(likes)) = data.get("likes") else {
            panic!("likes missing")
        };
        assert!(*likes > 0);
    }

    #[test]
    fn score_and_eval_match_batch_detectors() {
        let (outcome, _) = logged_outcome();
        let mut engine = full_engine();
        // End-of-stream online burst verdict is bitwise-equal to the batch
        // judge on the original world, for every honeypot page.
        for &page in &outcome.honeypots {
            let batch =
                likelab_detect::judge_page(&outcome.world, page, None, &BurstConfig::default());
            let online = engine.detectors_mut().burst_mut().page_verdict(page);
            assert_eq!(online, batch, "page {page:?}");
        }
        // The eval query's confusion counts must partition the population,
        // and at threshold 0 everything is predicted positive so recall
        // is exactly 1 — properties that hold at any study scale.
        let resp = engine
            .query("eval", &obj(vec![("threshold", Value::Float(0.0))]), 0)
            .unwrap();
        let count = |k: &str| match resp.get(k) {
            Some(Value::UInt(n)) => *n,
            other => panic!("{k} missing or wrong type: {other:?}"),
        };
        let (tp, fp, fn_, tn) = (count("tp"), count("fp"), count("fn"), count("tn"));
        assert_eq!(
            tp + fp + fn_ + tn,
            outcome.world.account_count() as u64,
            "confusion counts must partition the account population"
        );
        assert_eq!((fn_, tn), (0, 0), "threshold 0 predicts everyone positive");
        assert!(tp > 0, "ground truth includes farm accounts");
        assert_eq!(resp.get("recall"), Some(&Value::Float(1.0)));
    }

    #[test]
    fn a_folded_like_batch_sizes_the_lockstep_column_once() {
        // Fed one by one, 37 cells would sit in a 64-cell buffer.
        let n = 37u32;
        let log = StudyLog::in_memory(&StudyConfig::paper(1, 0.01)).unwrap();
        let mut engine = ServeEngine::new(log.header(), ServeConfig::default()).unwrap();
        let mut events = vec![WorldEvent::AccountCreated {
            profile: likelab_osn::Profile {
                gender: likelab_osn::Gender::Female,
                age: 30,
                country: likelab_osn::Country::Usa,
                home_region: 0,
            },
            class: likelab_osn::ActorClass::Organic,
            privacy: likelab_osn::PrivacySettings {
                friend_list_public: true,
                likes_public: true,
                searchable: true,
            },
            at: SimTime::EPOCH,
        }];
        events.extend((0..n).map(|i| WorldEvent::PageCreated {
            name: format!("p{i}"),
            description: String::new(),
            owner: None,
            category: likelab_osn::PageCategory::Background,
            at: SimTime::EPOCH,
        }));
        let rows: Vec<_> = (0..n)
            .map(|i| (UserId(0), PageId(i), SimTime::at_day(1)))
            .collect();
        events.push(WorldEvent::LikeBatch {
            likes: likelab_osn::LikeColumns::from_rows(&rows),
        });
        for (seq, ev) in events.into_iter().enumerate() {
            engine.ingest(seq as u64, StudyRecord::World(ev)).unwrap();
        }
        let lockstep = engine.detectors_mut().lockstep_mut();
        assert_eq!((lockstep.likes_seen(), lockstep.capacity()), (37, 37));
    }

    #[test]
    fn protocol_rejects_bad_requests_without_dying() {
        let engine = full_engine();
        let (users, pages) = (engine.world().account_count(), engine.world().page_count());
        let mut session = ServeSession::new(engine);
        let past_last_page = format!(r#"{{"v":1,"op":"page","page":{pages}}}"#);
        for (line, needle) in [
            ("not json", "bad request JSON"),
            (r#"{"op":"status"}"#, "missing `v`"),
            (r#"{"v":2,"op":"status"}"#, "unsupported protocol version"),
            (r#"{"v":1}"#, "missing `op`"),
            (r#"{"v":1,"op":"frobnicate"}"#, "unknown op"),
            (r#"{"v":1,"op":"score"}"#, "missing required param `user`"),
            (r#"{"v":1,"op":"score","user":99999999}"#, "unknown user"),
            (&past_last_page, "unknown page"),
        ] {
            let (resp, stop) = session.handle_line(line, 0);
            assert!(!stop, "{line}");
            let v: Value = serde_json::from_str(&resp).unwrap();
            assert_eq!(v.get("ok"), Some(&Value::Bool(false)), "{line}");
            let err = v.get("error").and_then(Value::as_str).unwrap();
            assert!(err.contains(needle), "{line}: {err}");
        }
        // The session still works after all that abuse, and the last user
        // and the last page are in range.
        for line in [
            r#"{"v":1,"id":9,"op":"lockstep"}"#.to_string(),
            format!(r#"{{"v":1,"id":9,"op":"score","user":{}}}"#, users - 1),
            format!(r#"{{"v":1,"id":9,"op":"page","page":{}}}"#, pages - 1),
        ] {
            let (resp, _) = session.handle_line(&line, 0);
            let v: Value = serde_json::from_str(&resp).unwrap();
            assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{line}: {resp}");
            assert_eq!(v.get("id"), Some(&Value::UInt(9)), "{line}");
        }
    }

    /// Regression: a request line of 40,000 `[`, inside the line cap, used
    /// to overflow the stack and abort the server. Nesting past the JSON
    /// reader's depth limit is a bad request like any other.
    #[test]
    fn a_deeply_nested_request_is_an_error_reply() {
        let mut session = ServeSession::new(full_engine());
        let line = "[".repeat(40_000);
        assert!(line.len() <= MAX_REQUEST_LINE);
        let (resp, stop) = session.handle_line(&line, 0);
        assert!(!stop);
        let v: Value = serde_json::from_str(&resp).unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
        let err = v.get("error").and_then(Value::as_str).unwrap();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        let (resp, _) = session.handle_line(r#"{"v":1,"id":2,"op":"status"}"#, 0);
        let v: Value = serde_json::from_str(&resp).unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "still serving");
    }

    /// Pieces that request lines are generated from: JSON punctuation,
    /// protocol keys and values, and broken literals and numbers.
    const TOKENS: [&str; 20] = [
        "{",
        "}",
        "[",
        "]",
        ":",
        ",",
        "\"",
        "\\",
        " ",
        "\"v\"",
        "1",
        "\"op\"",
        "\"status\"",
        "\"score\"",
        "\"user\"",
        "-",
        "9e999",
        "18446744073709551616",
        "null",
        "tru",
    ];

    proptest::proptest! {
        /// Any request line, nested however deep, gets exactly one
        /// well-formed reply, and the session keeps serving after it.
        #[test]
        fn any_request_line_gets_one_reply(
            tokens in proptest::prelude::vec(0usize..TOKENS.len(), 0..64),
            depth in 0usize..400,
        ) {
            let (_, log) = logged_outcome();
            let engine = ServeEngine::new(log.header(), ServeConfig::default()).unwrap();
            let mut session = ServeSession::new(engine);
            let mut line = "[".repeat(depth);
            line.extend(tokens.into_iter().map(|t| TOKENS[t]));
            let (reply, _) = session.handle_line(&line, 0);
            let v: Value = serde_json::from_str(&reply).unwrap();
            proptest::prop_assert!(matches!(v.get("ok"), Some(Value::Bool(_))), "{}", reply);
            let (reply, _) = session.handle_line(r#"{"v":1,"op":"status"}"#, 0);
            proptest::prop_assert!(reply.contains(r#""ok":true"#), "{}", reply);
        }
    }

    #[test]
    fn shutdown_request_stops_the_session() {
        let mut session = ServeSession::new(full_engine());
        let (resp, stop) = session.handle_line(r#"{"v":1,"id":3,"op":"shutdown"}"#, 0);
        assert!(stop);
        let v: Value = serde_json::from_str(&resp).unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
    }

    #[test]
    fn campaign_query_tracks_measurement_records() {
        let (outcome, _) = logged_outcome();
        let mut engine = full_engine();
        let resp = engine
            .query("campaign", &obj(vec![("campaign", Value::UInt(0))]), 0)
            .unwrap();
        assert_eq!(resp.get("launched"), Some(&Value::Bool(true)));
        let Some(Value::UInt(likers)) = resp.get("likers_collected") else {
            panic!("likers_collected missing")
        };
        assert_eq!(
            *likers as usize,
            outcome.dataset.campaigns[0].likers.len(),
            "collected-liker count must match the original dataset"
        );
        assert_eq!(resp.get("monitoring_ended"), Some(&Value::Bool(true)));
    }

    #[test]
    fn sybil_query_gates_recomputation() {
        let mut engine = full_engine();
        let first = engine
            .query("sybil", &obj(vec![("user", Value::UInt(0))]), 0)
            .unwrap();
        assert_eq!(first.get("recomputed"), Some(&Value::Bool(true)));
        let second = engine
            .query("sybil", &obj(vec![("user", Value::UInt(1))]), 0)
            .unwrap();
        assert_eq!(
            second.get("recomputed"),
            Some(&Value::Bool(false)),
            "no graph delta between the two queries"
        );
    }

    #[test]
    fn request_lines_are_capped_without_buffering_past_the_cap() {
        use std::io::Cursor;
        // At the cap, with either line ending: the ending is not counted.
        let at_cap = "x".repeat(MAX_REQUEST_LINE);
        for ending in ["\n", "\r\n"] {
            let mut reader = Cursor::new(format!("{at_cap}{ending}"));
            assert_eq!(
                read_request_line(&mut reader).unwrap(),
                RequestLine::Line(at_cap.clone()),
                "{ending:?}"
            );
            assert_eq!(read_request_line(&mut reader).unwrap(), RequestLine::Eof);
        }

        // One byte over the cap, then a line that must never be read.
        let over = "x".repeat(MAX_REQUEST_LINE + 1);
        for ending in ["\n", "\r\n"] {
            let input = format!("{over}{ending}{{\"v\":1,\"op\":\"status\"}}\n");
            let mut reader = Cursor::new(input);
            assert_eq!(
                read_request_line(&mut reader).unwrap(),
                RequestLine::TooLong,
                "{ending:?}"
            );
            assert_eq!(reader.position(), MAX_REQUEST_LINE as u64 + 2);
        }

        // A fresh peer's valid line, unterminated at end of stream.
        let status = r#"{"v":1,"id":1,"op":"status"}"#;
        let mut reader = Cursor::new(status);
        assert_eq!(
            read_request_line(&mut reader).unwrap(),
            RequestLine::Line(status.into())
        );
        assert_eq!(read_request_line(&mut reader).unwrap(), RequestLine::Eof);
    }

    #[test]
    fn an_over_long_line_gets_one_error_reply_and_drops_the_peer() {
        let input = format!(
            "{}\n{{\"v\":1,\"id\":2,\"op\":\"status\"}}\n",
            "x".repeat(4 * MAX_REQUEST_LINE)
        );
        let (tx, rx) = mpsc::channel();
        let mut replies = Vec::new();
        assert!(pump_lines(std::io::Cursor::new(input), &mut replies, &tx));
        assert!(rx.try_recv().is_err(), "nothing reaches the serve loop");
        let replies = String::from_utf8(replies).unwrap();
        assert_eq!(replies.lines().count(), 1);
        let v: Value = serde_json::from_str(replies.trim_end()).unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
        let error = v.get("error").and_then(Value::as_str).unwrap();
        assert!(error.contains("65536"), "{error}");
    }

    /// The TCP transport with the test standing in for the serve loop.
    fn tcp_pump() -> (std::net::SocketAddr, mpsc::Receiver<Request>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (tx, rx) = mpsc::channel();
        spawn_tcp_pump(listener, tx);
        (addr, rx)
    }

    /// One reply line read from `stream`.
    fn read_reply(stream: &std::net::TcpStream) -> String {
        let mut line = String::new();
        std::io::BufReader::new(stream)
            .read_line(&mut line)
            .unwrap();
        line
    }

    #[test]
    fn an_idle_tcp_client_does_not_delay_another() {
        use std::net::TcpStream;
        let (addr, rx) = tcp_pump();
        // Connects first and sends nothing.
        let _idle = TcpStream::connect(addr).unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        writeln!(client, r#"{{"v":1,"id":1,"op":"status"}}"#).unwrap();
        let request = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the second client's request arrives while the first idles");
        assert_eq!(request.line, r#"{"v":1,"id":1,"op":"status"}"#);
        request.reply.send("answered".into()).unwrap();
        assert_eq!(read_reply(&client), "answered\n");
    }

    /// A connected pair: the client's end, and the server's end set up as
    /// [`spawn_tcp_pump`] sets it up, counted in `live`.
    fn client_and_halves(
        live: &Arc<AtomicUsize>,
    ) -> (
        std::net::TcpStream,
        (std::io::BufReader<ClientSocket>, ClientSocket),
    ) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        // A reply that never comes fails the test instead of hanging it.
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let (stream, _) = listener.accept().unwrap();
        let halves = client_halves(stream, live).unwrap();
        let socket = &halves.1.stream;
        assert_eq!(socket.read_timeout().unwrap(), Some(CLIENT_IDLE_TIMEOUT));
        assert_eq!(socket.write_timeout().unwrap(), Some(CLIENT_IDLE_TIMEOUT));
        (client, halves)
    }

    /// Run `pump_lines` over `halves` on a thread of its own; the receiver
    /// gets its result when it ends.
    fn spawn_pump(
        (reader, writer): (std::io::BufReader<ClientSocket>, ClientSocket),
        tx: mpsc::Sender<Request>,
    ) -> mpsc::Receiver<bool> {
        let (done_tx, done) = mpsc::channel();
        std::thread::spawn(move || done_tx.send(pump_lines(reader, writer, &tx)));
        done
    }

    /// Whether the pump behind `done` ends within `within` with `client`'s
    /// end still open. Either way `client` is then closed, unread replies
    /// and all, so the pump does end, and it must end its own peer, not
    /// the serve loop.
    fn ends_by_itself(
        done: &mpsc::Receiver<bool>,
        within: Duration,
        client: std::net::TcpStream,
    ) -> bool {
        let by_itself = done.recv_timeout(within).ok();
        drop(client);
        let serving = by_itself.unwrap_or_else(|| done.recv().unwrap());
        assert!(serving, "the serve loop is not told to stop");
        by_itself.is_some()
    }

    #[test]
    fn a_silent_client_keeps_its_slot_until_the_server_is_full() {
        let live = Arc::new(AtomicUsize::new(1));
        let (mut client, halves) = client_and_halves(&live);
        // A short timeout in place of the constant; the halves share it.
        halves
            .1
            .stream
            .set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        let (tx, rx) = mpsc::channel::<Request>();
        let done = spawn_pump(halves, tx);
        // With a slot free, silences of several timeouts, before a request
        // and inside one, cost the client nothing.
        for id in 1..=2 {
            std::thread::sleep(Duration::from_millis(100));
            write!(client, r#"{{"v":1,"id":{id},"#).unwrap();
            std::thread::sleep(Duration::from_millis(100));
            writeln!(client, r#""op":"status"}}"#).unwrap();
            let request = rx
                .recv_timeout(Duration::from_secs(30))
                .expect("a quiet client's request still arrives");
            assert_eq!(
                request.line,
                format!(r#"{{"v":1,"id":{id},"op":"status"}}"#)
            );
            request.reply.send(format!("answered {id}")).unwrap();
            assert_eq!(read_reply(&client), format!("answered {id}\n"));
        }
        // Every slot taken: the next timed-out read ends the pump, though
        // the client's end stays open.
        live.store(MAX_CONNECTIONS, Ordering::SeqCst);
        assert!(
            ends_by_itself(&done, Duration::from_secs(30), client),
            "the pump outlived a full server"
        );
        assert!(
            rx.try_recv().is_err(),
            "nothing more reached the serve loop"
        );
    }

    #[test]
    fn a_client_that_reads_no_replies_keeps_its_slot_until_the_server_is_full() {
        const REPLY: usize = 1 << 20;
        let live = Arc::new(AtomicUsize::new(1));
        let (mut client, halves) = client_and_halves(&live);
        let server_end = halves.1.stream.try_clone().unwrap();
        server_end
            .set_write_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        let (tx, rx) = mpsc::channel::<Request>();
        let done = spawn_pump(halves, tx);
        let loop_side = std::thread::spawn(move || {
            let reply = "x".repeat(REPLY);
            let mut answered = 0;
            while let Ok(request) = rx.recv_timeout(Duration::from_secs(30)) {
                answered += 1;
                // The last reply may find the pump gone.
                let _ = request.reply.send(reply.clone());
            }
            answered
        });
        // With a slot free, replies left unread for several timeouts, far
        // more of them than the socket buffers hold, all arrive whole.
        for id in 0..64 {
            writeln!(client, r#"{{"v":1,"id":{id},"op":"status"}}"#).unwrap();
        }
        std::thread::sleep(Duration::from_millis(300));
        {
            let mut replies = std::io::BufReader::new(&client);
            let mut line = String::new();
            for _ in 0..64 {
                line.clear();
                replies.read_line(&mut line).unwrap();
                assert_eq!(line.len(), REPLY + 1, "a whole reply line");
            }
        }
        // Every slot taken: the first send that runs out its timeout ends
        // the pump, whether it took part of its reply or none. Here that is
        // 2 s on the clock; a pump that waited out a second one would take
        // 4 s.
        server_end
            .set_write_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        live.store(MAX_CONNECTIONS, Ordering::SeqCst);
        for id in 64..320 {
            writeln!(client, r#"{{"v":1,"id":{id},"op":"status"}}"#).unwrap();
        }
        assert!(
            ends_by_itself(&done, Duration::from_millis(3500), client),
            "one stalled send ends the pump within 3.5 s, not two"
        );
        let answered = loop_side.join().unwrap();
        assert!(answered < 320, "the pump stopped before the last request");
    }

    #[test]
    fn a_client_past_the_connection_cap_gets_one_error_line() {
        use std::net::TcpStream;
        let (addr, rx) = tcp_pump();
        let held: Vec<TcpStream> = (0..MAX_CONNECTIONS)
            .map(|_| TcpStream::connect(addr).unwrap())
            .collect();
        let extra = TcpStream::connect(addr).unwrap();
        let reply = read_reply(&extra);
        let v: Value = serde_json::from_str(reply.trim_end()).unwrap();
        assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
        let error = v.get("error").and_then(Value::as_str).unwrap();
        assert!(
            error.contains(&format!("at most {MAX_CONNECTIONS}")),
            "{error}"
        );
        assert_eq!(read_reply(&extra), "", "then the connection is closed");
        assert!(rx.try_recv().is_err(), "nothing reaches the serve loop");

        // Once the held clients leave, their slots free up.
        drop(held);
        for _ in 0..300 {
            let mut client = TcpStream::connect(addr).unwrap();
            // A client still turned away may find its connection closed.
            if writeln!(client, r#"{{"v":1,"op":"status"}}"#).is_err() {
                continue;
            }
            if let Ok(request) = rx.recv_timeout(Duration::from_millis(100)) {
                request.reply.send("answered".into()).unwrap();
                assert_eq!(read_reply(&client), "answered\n");
                return;
            }
        }
        panic!("no slot freed after the held clients closed");
    }
}
