//! `scale_study`: the million-account `scale` preset, trimmed, run and
//! rendered.
//!
//! Set-up synthesizes the population with one worker; that world is the
//! reference the timed run's multi-worker synthesis must reproduce
//! (worker-count invariance). Timed: `run_study_opts` → `report.render()`.
//! No log codec or serve code runs.

use crate::harness::{Harness, Pass, SETUP_REPS};
use likelab_core::{run_study_opts, RunOptions, StudyConfig};
use likelab_osn::population::synthesize_with;
use likelab_osn::{LikeColumns, LikeLedger, OsnWorld};
use likelab_sim::{Exec, Rng};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Default world scale: about 53 k accounts, 12 k pages and 1.4 M
/// background likes. Larger worlds leave the caches, and their run-to-run
/// spread then shows the machine's memory traffic more than the code.
pub const DEFAULT_SCALE: f64 = 0.05;

/// The event loop's cap on a coalesced like run.
const RUN_CAP: usize = 8_192;

/// Count and digest of a ledger's first `n` like rows, in ledger order.
fn like_digest(world: &OsnWorld, n: usize) -> (usize, u64) {
    let mut h = DefaultHasher::new();
    let mut count = 0;
    for r in world.likes().records().take(n) {
        (r.user, r.page, r.at).hash(&mut h);
        count += 1;
    }
    (count, h.finish())
}

/// The built world's like rows, as one batch.
fn like_columns(world: &OsnWorld) -> LikeColumns {
    let mut cols = LikeColumns::with_capacity(world.likes().len());
    for r in world.likes().records() {
        cols.push(r.user, r.page, r.at);
    }
    cols
}

/// Run the workload.
pub fn run(h: &mut Harness, seed: u64, scale: f64, exec: Exec) {
    let config = StudyConfig::scale_world(seed, scale);
    let population = config.population.clone().scaled(scale);

    let mut reference: Option<(usize, u64)> = None;
    let mut synth_w1 = Vec::new();
    for _ in 0..SETUP_REPS {
        let (digest, secs) = h.setup(|| {
            let mut world = OsnWorld::new();
            // The study forks its population stream first from a fresh
            // seeded generator; this reproduces that stream.
            let mut rng = Rng::seed_from_u64(seed).fork("population");
            let started = Instant::now();
            synthesize_with(&mut world, &population, &mut rng, Exec::workers(1));
            let secs = started.elapsed().as_secs_f64();
            (like_digest(&world, usize::MAX), secs)
        });
        synth_w1.push(secs);
        match reference {
            None => reference = Some(digest),
            Some(r) => h.check(r == digest, || {
                "population synthesis is not deterministic".into()
            }),
        }
    }
    let (population_likes, population_digest) = reference.expect("at least one set-up");

    let opts = RunOptions {
        exec,
        ..RunOptions::default()
    };
    let mut last_world_rows: Option<(usize, usize, LikeColumns)> = None;
    h.passes(|pass: &mut Pass| {
        let result = pass.timed("study", || {
            run_study_opts(&config, &opts).map(|o| {
                let text = o.report.render();
                (o, text)
            })
        });
        let (outcome, text) = match result {
            Ok(done) => done,
            Err(e) => {
                pass.check(false, || format!("study failed: {e}"));
                return;
            }
        };
        pass.check(text.contains("Table 1"), || "report lacks Table 1".into());
        let digest = like_digest(&outcome.world, population_likes);
        pass.check(digest == (population_likes, population_digest), || {
            format!(
                "{}-worker population differs from the 1-worker synthesis",
                exec.worker_count()
            )
        });
        if pass.traced() {
            pass.add("ledger.likes", outcome.world.likes().len() as f64);
            last_world_rows = Some((
                outcome.world.account_count(),
                outcome.world.page_count(),
                like_columns(&outcome.world),
            ));
        }
    });

    if h.trace() {
        h.set_layer(
            "population.synthesize_w1_s",
            crate::stats::median(&synth_w1),
        );
        let w2 = h.layer_median("population.synthesize_s");
        if w2 > 0.0 {
            h.set_layer(
                "population.speedup_w2",
                crate::stats::median(&synth_w1) / w2,
            );
        }
        if let Some((users, pages, cols)) = last_world_rows {
            ledger_kernels(h, users, pages, &cols, exec);
        }
    }
}

/// Replay the built world's like rows into fresh ledgers: once as one
/// batch (the dense kernel) and once in event-loop-sized runs (the sparse
/// kernel, which the ledger picks for batches under an eighth of its
/// accounts — so in a small world the runs are shorter than the cap).
/// Both must accept every row.
fn ledger_kernels(h: &mut Harness, users: usize, pages: usize, cols: &LikeColumns, exec: Exec) {
    let mut ledger = LikeLedger::new(users, pages);
    let started = Instant::now();
    let accepted = ledger.ingest_columns(cols, exec);
    h.set_layer("ledger.ingest_one_batch_s", started.elapsed().as_secs_f64());
    h.check(accepted == cols.len(), || {
        format!(
            "one-batch ingest accepted {accepted} of {} rows",
            cols.len()
        )
    });
    drop(ledger);

    let run_rows = RUN_CAP.min((users / 8).saturating_sub(1)).max(1);
    let runs: Vec<LikeColumns> = (0..cols.len())
        .step_by(run_rows)
        .map(|lo| {
            let hi = (lo + run_rows).min(cols.len());
            LikeColumns {
                users: cols.users[lo..hi].to_vec(),
                pages: cols.pages[lo..hi].to_vec(),
                times: cols.times[lo..hi].to_vec(),
            }
        })
        .collect();
    let mut ledger = LikeLedger::new(users, pages);
    let started = Instant::now();
    let accepted: usize = runs
        .iter()
        .map(|run| ledger.ingest_columns(run, exec))
        .sum();
    h.set_layer("ledger.ingest_runs_s", started.elapsed().as_secs_f64());
    h.check(accepted == cols.len(), || {
        format!("run-wise ingest accepted {accepted} of {} rows", cols.len())
    });
}
