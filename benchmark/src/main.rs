//! `likelab-benchmark` — run one workload, check its outputs, print every
//! metric and a one-line JSON result.
//!
//! ```text
//! likelab-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!                   [--scale X] [--out FILE]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones. `--scale` overrides the workload's world scale (tests use it);
//! `--out` writes the full run record as JSON. Files the workload needs
//! go under `.bench_work/` in the working directory and are removed.

use likelab_benchmark::alloc::CountingAlloc;
use likelab_benchmark::harness::{Harness, Options};
use likelab_benchmark::workloads::{self, paper_log, scale_study, serve_mixed};
use likelab_sim::Exec;
use std::path::PathBuf;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: likelab-benchmark --workload scale_study|paper_log|serve_mixed \
                     --seed N --seconds S --trace 0|1 [--scale X] [--out FILE]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut scale = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--scale" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--scale: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 1.0) {
                    return Err("--scale must be in (0, 1]".into());
                }
                scale = Some(s);
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workloads::default_scale(&workload).is_none() {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
        scale,
        out,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let exec = Exec::workers(nproc.min(2));
    let scale = opts
        .scale
        .or_else(|| workloads::default_scale(&opts.workload))
        .expect("workload validated by parse");
    let (workload, seed) = (opts.workload.clone(), opts.seed);
    let mut h = Harness::new(opts, scale, exec.worker_count());
    match workload.as_str() {
        "scale_study" => scale_study::run(&mut h, seed, scale, exec),
        "paper_log" => paper_log::run(&mut h, seed, scale, exec),
        _ => serve_mixed::run(&mut h, seed, scale, exec),
    }
    std::process::exit(h.finish());
}
