//! Shared helpers for the kernel benches: the ablations, detectors, crawl
//! pipeline, event engine, sweep scaling and observability overhead.
//!
//! End-to-end and per-layer numbers for the whole program come from
//! `likelab-benchmark` (`benchmark/` at the repository root), not from
//! here. Benches that need a study run it once (cached across benches in
//! the same process, scale from `LIKELAB_BENCH_SCALE`, default 0.2) and
//! print their result blocks through [`print_block`].

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::dbg_macro
)]

use likelab_core::{run_study, StudyConfig, StudyOutcome};
use std::sync::OnceLock;

/// The scale benches run at (override with `LIKELAB_BENCH_SCALE`).
pub fn bench_scale() -> f64 {
    std::env::var("LIKELAB_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.2)
}

/// The cached study outcome all benches share.
pub fn study() -> &'static StudyOutcome {
    static SHARED: OnceLock<StudyOutcome> = OnceLock::new();
    SHARED.get_or_init(|| {
        let scale = bench_scale();
        eprintln!("[likelab-bench] running the study once (seed 42, scale {scale})...");
        // Wall time of the shared study, for the bench log only.
        #[allow(clippy::disallowed_types)]
        let started = std::time::Instant::now();
        let outcome = run_study(&StudyConfig::paper(42, scale));
        eprintln!(
            "[likelab-bench] study ready in {:.1}s ({} campaign likes)",
            started.elapsed().as_secs_f64(),
            outcome.dataset.total_likes()
        );
        outcome
    })
}

/// Print a result block, prefixed for easy grepping in bench logs.
// Printing IS this harness's job: the blocks are the benches' result, so
// stdout here is deliberate.
#[allow(clippy::print_stdout)]
pub fn print_block(title: &str, body: &str) {
    println!("\n==== {title} (scale {}) ====", bench_scale());
    for line in body.lines() {
        println!("  {line}");
    }
    println!();
}
