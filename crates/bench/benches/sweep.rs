//! Sweep scaling bench: the same 8-seed study sweep run sequentially and
//! with a worker pool, reporting wall-clock times and the realized speedup.
//!
//! Because the sweep's determinism contract promises bit-identical output
//! for any worker count, this bench also *checks* it: the sequential and
//! parallel reports are compared byte-for-byte through JSON before any
//! timing is reported.
//!
//! ```text
//! cargo bench -p likelab-bench --bench sweep
//! ```
//!
//! Environment knobs: `LIKELAB_BENCH_SWEEP_SCALE` (world scale per run,
//! default 0.02), `LIKELAB_BENCH_SWEEP_SEEDS` (seeds, default 8). The
//! speedup column only becomes meaningful on a multi-core machine — on one
//! core the pool degenerates to the sequential path by design.

// A bench measures wall time; it never feeds a simulation result.
#![allow(clippy::disallowed_types)]

use likelab_core::{run_sweep, SweepConfig};
use likelab_sim::Exec;
use std::num::NonZeroUsize;
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

fn main() {
    let scale = env_f64("LIKELAB_BENCH_SWEEP_SCALE", 0.02);
    let n_seeds = env_usize("LIKELAB_BENCH_SWEEP_SEEDS", 8);
    let config = SweepConfig {
        master_seed: 42,
        n_seeds,
        scales: vec![scale],
    };
    let cores = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    println!("sweep bench: {n_seeds} seeds at scale {scale}, {cores} cores available\n");

    let t = Instant::now();
    let sequential = run_sweep(&config, Exec::Sequential);
    let t_seq = t.elapsed();
    let seq_json = sequential.to_json().expect("sweep report serializes");

    println!("{:>10}  {:>10}  {:>8}", "workers", "wall", "speedup");
    println!(
        "{:>10}  {:>9.2}s  {:>8}",
        "1 (seq)",
        t_seq.as_secs_f64(),
        "1.00x"
    );

    let mut counts: Vec<usize> = [2, 4, 8]
        .into_iter()
        .filter(|w| *w <= cores.max(2))
        .collect();
    if !counts.contains(&cores) && cores > 1 {
        counts.push(cores);
    }
    for workers in counts {
        let t = Instant::now();
        let parallel = run_sweep(&config, Exec::workers(workers));
        let t_par = t.elapsed();
        let par_json = parallel.to_json().expect("sweep report serializes");
        assert_eq!(
            seq_json, par_json,
            "parallel sweep must be byte-identical to sequential"
        );
        println!(
            "{workers:>10}  {:>9.2}s  {:>7.2}x",
            t_par.as_secs_f64(),
            t_seq.as_secs_f64() / t_par.as_secs_f64().max(1e-9),
        );
    }
    println!("\noutput verified byte-identical across all worker counts");
}
