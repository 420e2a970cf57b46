//! `serve_mixed`: `likelab serve`'s ingest path catching up on a
//! paper-preset log while one closed-loop client queries it.
//!
//! Set-up captures the log in memory and judges every honeypot page with
//! the batch burst detector. Timed: the log bytes go in 64 KiB chunks
//! through `TailReader` → `ServeEngine::ingest_frame`; after every 256
//! folded records the client sends one `ServeSession::handle_line` query
//! and waits for the reply before ingest continues — the single-threaded
//! answer-between-chunks shape of `likelab serve`. No synthesis, event
//! loop or batch report runs in the timed phase.

use crate::harness::{Harness, Pass, SETUP_REPS};
use crate::stats;
use likelab_core::serve::{ServeConfig, ServeEngine, ServeSession};
use likelab_core::{run_study_opts, RunOptions, StudyConfig};
use likelab_detect::{judge_page, BurstConfig};
use likelab_graph::PageId;
use likelab_osn::OsnWorld;
use likelab_sim::tail::TailReader;
use likelab_sim::{Exec, Rng};
use std::time::Instant;

/// Default world scale.
pub const DEFAULT_SCALE: f64 = 0.05;

/// Bytes handed to the tail decoder at a time.
const CHUNK: usize = 64 * 1024;

/// Folded records between two queries.
const QUERY_EVERY: u64 = 256;

/// The query mix: op and its share in twentieths (25/30/20/10/5/5/5 %).
const MIX: [(&str, usize); 7] = [
    ("status", 5),
    ("score", 6),
    ("page", 4),
    ("campaign", 2),
    ("lockstep", 1),
    ("sybil", 1),
    ("eval", 1),
];

/// Queries are dealt from a deck holding each op as often as its share,
/// shuffled per seed and re-shuffled whenever it runs out. Every 20
/// queries then hold the exact mix. With independent draws the count of
/// the expensive ops (eval, lockstep) varies from seed to seed and widens
/// the spread of the pass time.
struct Deck {
    cards: Vec<usize>,
    next: usize,
}

impl Deck {
    fn new() -> Self {
        let cards = MIX
            .iter()
            .enumerate()
            .flat_map(|(op, &(_, n))| std::iter::repeat_n(op, n))
            .collect::<Vec<_>>();
        Deck {
            next: cards.len(),
            cards,
        }
    }

    fn deal(&mut self, rng: &mut Rng) -> usize {
        if self.next == self.cards.len() {
            rng.shuffle(&mut self.cards);
            self.next = 0;
        }
        self.next += 1;
        self.cards[self.next - 1]
    }
}

/// A page's burst verdict: page, peak share bits, events, flagged.
type Verdict = (PageId, u64, usize, bool);

/// The generated input: the log bytes plus the batch answers the online
/// state must reproduce.
struct Input {
    bytes: Vec<u8>,
    records: u64,
    campaigns: u64,
    /// The batch burst verdict of every honeypot page.
    verdicts: Vec<Verdict>,
}

fn make_input(config: &StudyConfig, exec: Exec) -> Result<Input, String> {
    let opts = RunOptions {
        exec,
        capture_log: true,
        ..RunOptions::default()
    };
    let outcome = run_study_opts(config, &opts).map_err(|e| e.to_string())?;
    let log = outcome.log.as_ref().ok_or("the run captured no log")?;
    let bytes = log.to_binary().map_err(|e| e.to_string())?;
    let verdicts = batch_verdicts(&outcome.world, &outcome.honeypots);
    Ok(Input {
        bytes,
        records: log.records().len() as u64,
        campaigns: config.campaigns.len() as u64,
        verdicts,
    })
}

fn batch_verdicts(world: &OsnWorld, pages: &[PageId]) -> Vec<Verdict> {
    pages
        .iter()
        .map(|&page| {
            let v = judge_page(world, page, None, &BurstConfig::default());
            (page, v.peak_share.to_bits(), v.events, v.flagged)
        })
        .collect()
}

/// The next query of the seeded mix, with ids drawn only from what the
/// engine has already folded (campaign ids come from the log header, so
/// all are valid from the start). Returns the op's index in [`MIX`].
fn next_query(
    rng: &mut Rng,
    deck: &mut Deck,
    id: u64,
    engine: &ServeEngine,
    campaigns: u64,
) -> (usize, String) {
    let mut op = deck.deal(rng);
    let users = engine.world().account_count() as u64;
    let pages = engine.world().page_count() as u64;
    let line = match MIX[op].0 {
        "score" | "sybil" if users > 0 => format!(
            r#"{{"v":1,"id":{id},"op":"{}","user":{}}}"#,
            MIX[op].0,
            rng.below(users)
        ),
        "page" if pages > 0 => {
            format!(
                r#"{{"v":1,"id":{id},"op":"page","page":{}}}"#,
                rng.below(pages)
            )
        }
        "campaign" => format!(
            r#"{{"v":1,"id":{id},"op":"campaign","campaign":{}}}"#,
            rng.below(campaigns)
        ),
        "lockstep" => format!(r#"{{"v":1,"id":{id},"op":"lockstep"}}"#),
        "eval" => format!(r#"{{"v":1,"id":{id},"op":"eval","threshold":0.5}}"#),
        _ => {
            op = 0;
            format!(r#"{{"v":1,"id":{id},"op":"status"}}"#)
        }
    };
    (op, line)
}

/// One answered query.
struct Reply {
    op: usize,
    ns: u64,
    ok: bool,
    recomputed: bool,
}

/// What one catch-up leaves behind for the checks.
struct Catchup {
    session: ServeSession,
    replies: Vec<Reply>,
    decode_s: f64,
    fold_s: f64,
    query_s: f64,
}

/// Fold the whole log with queries interleaved. `split` times decode,
/// fold and query separately (bench-timed, per record).
fn catch_up(input: &Input, seed: u64, split: bool) -> Result<Catchup, String> {
    let mut rng = Rng::seed_from_u64(seed).fork("serve_mixed.queries");
    let mut deck = Deck::new();
    let mut tail = TailReader::new();
    let mut session: Option<ServeSession> = None;
    let mut replies = Vec::new();
    let (mut decode_s, mut fold_s, mut query_s) = (0.0, 0.0, 0.0);
    let mut folded = 0u64;
    for chunk in input.bytes.chunks(CHUNK) {
        tail.extend(chunk);
        loop {
            let t0 = split.then(Instant::now);
            let Some(frame) = tail.next_record().map_err(|e| format!("decode: {e}"))? else {
                break;
            };
            let t1 = split.then(Instant::now);
            if session.is_none() {
                let header = tail.header().ok_or("a record before the log header")?;
                let engine =
                    ServeEngine::new(header, ServeConfig::default()).map_err(|e| e.to_string())?;
                session = Some(ServeSession::new(engine));
            }
            let s = session.as_mut().expect("session opened above");
            s.engine_mut()
                .ingest_frame(&frame)
                .map_err(|e| format!("fold: {e}"))?;
            folded += 1;
            if let (Some(t0), Some(t1)) = (t0, t1) {
                decode_s += (t1 - t0).as_secs_f64();
                fold_s += t1.elapsed().as_secs_f64();
            }
            if folded.is_multiple_of(QUERY_EVERY) {
                let id = folded / QUERY_EVERY;
                let (op, line) =
                    next_query(&mut rng, &mut deck, id, s.engine_mut(), input.campaigns);
                let pending = input.records.saturating_sub(folded) as usize;
                let started = Instant::now();
                let (reply, _) = s.handle_line(&line, pending);
                let elapsed = started.elapsed();
                query_s += elapsed.as_secs_f64();
                replies.push(Reply {
                    op,
                    ns: u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
                    ok: reply.contains(r#""ok":true"#),
                    recomputed: reply.contains(r#""recomputed":true"#),
                });
            }
        }
    }
    tail.finish()
        .map_err(|e| format!("log ends mid-record: {e}"))?;
    let session = session.ok_or("the log holds no records")?;
    Ok(Catchup {
        session,
        replies,
        decode_s,
        fold_s,
        query_s,
    })
}

/// Raw latency samples, kept across passes.
#[derive(Default)]
struct Samples {
    all: Vec<u64>,
    by_op: [Vec<u64>; 7],
    sybil_recompute: Vec<u64>,
    sybil_cached: Vec<u64>,
}

/// Run the workload.
pub fn run(h: &mut Harness, seed: u64, scale: f64, exec: Exec) {
    let config = StudyConfig::paper(seed, scale);
    let mut input: Option<Input> = None;
    for _ in 0..SETUP_REPS {
        match (h.setup(|| make_input(&config, exec)), &input) {
            (Err(e), _) => h.check(false, || format!("log capture failed: {e}")),
            (Ok(fresh), None) => input = Some(fresh),
            (Ok(fresh), Some(prev)) => h.check(
                fresh.bytes == prev.bytes && fresh.verdicts == prev.verdicts,
                || "log capture is not deterministic".into(),
            ),
        }
    }
    let Some(input) = input else {
        return;
    };

    let mut samples = Samples::default();
    h.passes(|pass: &mut Pass| {
        let traced = pass.traced();
        let result = pass.timed("catchup", || catch_up(&input, seed, traced));
        let mut done = match result {
            Ok(done) => done,
            Err(e) => {
                pass.check(false, || format!("catch-up failed: {e}"));
                return;
            }
        };
        for r in &done.replies {
            pass.op(r.ok, || {
                format!("a {} query answered ok:false", MIX[r.op].0)
            });
            samples.all.push(r.ns);
            samples.by_op[r.op].push(r.ns);
            if MIX[r.op].0 == "sybil" {
                if r.recomputed {
                    samples.sybil_recompute.push(r.ns);
                } else {
                    samples.sybil_cached.push(r.ns);
                }
            }
        }
        let engine = done.session.engine_mut();
        let folded = engine.records_ingested();
        pass.check(folded == input.records, || {
            format!("folded {folded} of {} records", input.records)
        });
        let online = online_verdicts(engine, &input);
        pass.check(online == input.verdicts, || {
            "online burst verdicts differ from the batch judge".into()
        });
        if traced {
            pass.add("serve.decode_s", done.decode_s);
            pass.add("serve.fold_s", done.fold_s);
            pass.add("serve.query_s", done.query_s);
            pass.add("serve.records", folded as f64);
            pass.add("serve.likes", engine.world().likes().len() as f64);
            let refreshes = engine.detectors_mut().sybilrank().refreshes();
            pass.add("serve.sybil.recomputes", refreshes as f64);
        }
    });

    if h.trace() {
        report_latencies(h, &mut samples);
    }
}

/// The online engine's burst verdict for every page the batch judged.
fn online_verdicts(engine: &mut ServeEngine, input: &Input) -> Vec<Verdict> {
    input
        .verdicts
        .iter()
        .map(|&(page, ..)| {
            let v = engine.detectors_mut().burst_mut().page_verdict(page);
            (page, v.peak_share.to_bits(), v.events, v.flagged)
        })
        .collect()
}

fn report_latencies(h: &mut Harness, samples: &mut Samples) {
    let us = |ns: u64| ns as f64 / 1e3;
    if let Some(s) = stats::summarize(&mut samples.all) {
        h.set_layer("serve.query.p50_us", us(s.p50));
        h.set_layer("serve.query.p99_us", us(s.p99));
        h.set_layer("serve.query.tail_pct", s.tail_pct);
        h.set_layer("serve.query.n", s.n as f64);
    }
    for (i, (op, _)) in MIX.iter().enumerate() {
        if let Some(s) = stats::summarize(&mut samples.by_op[i]) {
            h.set_layer(&format!("serve.query.{op}.p50_us"), us(s.p50));
            h.set_layer(&format!("serve.query.{op}.p90_us"), us(s.p90));
            h.set_layer(&format!("serve.query.{op}.n"), s.n as f64);
        }
    }
    if let Some(s) = stats::summarize(&mut samples.sybil_recompute) {
        h.set_layer("serve.query.sybil_recompute.p50_us", us(s.p50));
    }
    if let Some(s) = stats::summarize(&mut samples.sybil_cached) {
        h.set_layer("serve.query.sybil_cached.p50_us", us(s.p50));
    }
}
