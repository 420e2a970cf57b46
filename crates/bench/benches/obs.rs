//! Observability overhead bench.
//!
//! The ISSUE contract for `likelab-obs`: instrumentation must cost under 5%
//! of wall-clock when enabled and effectively nothing when disabled. This
//! bench measures both against the real workload — a multi-seed study sweep
//! whose hot paths (population synthesis, event loop, report sections,
//! sweep fan-out) are all instrumented — plus the raw per-call cost of the
//! primitives.
//!
//! ```text
//! cargo bench -p likelab-bench --bench obs
//! ```
//!
//! Environment knobs: `LIKELAB_BENCH_OBS_SCALE` (world scale per run,
//! default 0.02), `LIKELAB_BENCH_OBS_SEEDS` (seeds, default 4),
//! `LIKELAB_BENCH_OBS_REPS` (sweep repetitions per state, default 3).

// A bench measures wall time; it never feeds a simulation result.
#![allow(clippy::disallowed_types)]

use likelab_core::{run_sweep, SweepConfig};
use likelab_sim::Exec;
use std::hint::black_box;
use std::time::Instant;

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Best (minimum) wall-clock over the recorded reps. System noise is
/// strictly additive on wall-clock, so min-of-N is the robust estimator of
/// the true cost on shared hardware — medians still wobble by more than the
/// 5% budget being asserted.
fn best(times: &[f64]) -> f64 {
    times.iter().copied().fold(f64::INFINITY, f64::min)
}

/// One timed sweep under the current obs state.
fn time_sweep(config: &SweepConfig, exec: Exec) -> (f64, String) {
    likelab_obs::reset();
    let t = Instant::now();
    let report = run_sweep(config, exec);
    let wall = t.elapsed().as_secs_f64();
    (wall, report.to_json().expect("sweep report serializes"))
}

fn micro_cost(label: &str, iters: u64, f: impl Fn(u64)) {
    let t = Instant::now();
    for i in 0..iters {
        f(black_box(i));
    }
    let per_call = t.elapsed().as_nanos() as f64 / iters as f64;
    println!("{label:<44} {per_call:>8.1} ns/call");
}

fn main() {
    let scale = env_f64("LIKELAB_BENCH_OBS_SCALE", 0.02);
    let n_seeds = env_usize("LIKELAB_BENCH_OBS_SEEDS", 4);
    let reps = env_usize("LIKELAB_BENCH_OBS_REPS", 3).max(1);
    let config = SweepConfig {
        master_seed: 42,
        n_seeds,
        scales: vec![scale],
    };
    let exec = Exec::auto();
    println!(
        "obs overhead bench: {n_seeds} seeds at scale {scale}, {} workers, best of {reps}\n",
        exec.worker_count()
    );

    // Warm-up run so allocator and page-cache state don't bias the first
    // measured state.
    likelab_obs::disable();
    let _ = run_sweep(&config, exec);

    // Interleave the two states so slow drift (thermal, co-tenants) hits
    // both equally instead of biasing whichever state ran second.
    let mut off_times = Vec::with_capacity(reps);
    let mut on_times = Vec::with_capacity(reps);
    let mut json_off = String::new();
    let mut json_on = String::new();
    for _ in 0..reps {
        likelab_obs::disable();
        let (wall, json) = time_sweep(&config, exec);
        off_times.push(wall);
        json_off = json;
        likelab_obs::enable();
        let (wall, json) = time_sweep(&config, exec);
        on_times.push(wall);
        json_on = json;
    }
    likelab_obs::disable();
    let (t_off, t_on) = (best(&off_times), best(&on_times));

    assert_eq!(
        json_off, json_on,
        "observability must never perturb simulation output"
    );

    let overhead = (t_on - t_off) / t_off * 100.0;
    println!("{:>12}  {:>10}", "obs state", "wall");
    println!("{:>12}  {:>9.3}s", "disabled", t_off);
    println!("{:>12}  {:>9.3}s", "enabled", t_on);
    println!("\nenabled overhead: {overhead:+.2}% (budget: <5%)");
    let snap = likelab_obs::snapshot();
    println!(
        "collected while enabled: {} counters, {} histograms, {} span names, {} trace spans",
        snap.counters.len(),
        snap.histograms.len(),
        snap.span_stats.len(),
        snap.spans.len()
    );
    assert!(
        overhead < 5.0,
        "enabled observability overhead {overhead:.2}% exceeds the 5% budget"
    );

    println!("\nprimitive costs:");
    likelab_obs::reset();
    likelab_obs::disable();
    micro_cost("counter (disabled)", 50_000_000, |i| {
        likelab_obs::metrics::counter("bench.obs.counter", i & 1)
    });
    micro_cost("span enter+drop (disabled)", 50_000_000, |_| {
        let _s = likelab_obs::span::enter("bench.obs.span");
    });
    likelab_obs::enable();
    micro_cost("counter (enabled)", 5_000_000, |i| {
        likelab_obs::metrics::counter("bench.obs.counter", i & 1)
    });
    micro_cost("histogram record (enabled)", 5_000_000, |i| {
        likelab_obs::metrics::record_ns("bench.obs.hist", i)
    });
    micro_cost("span enter+drop (enabled)", 1_000_000, |_| {
        let _s = likelab_obs::span::enter("bench.obs.span");
    });
    likelab_obs::disable();
    likelab_obs::reset();
    println!("\noutput verified byte-identical with observability on and off");
}
