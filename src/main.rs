//! `likelab` — command-line front end for the like-fraud laboratory.
//!
//! ```text
//! likelab run        [--preset P] [--scale S] [--seed N]   run the study, print the report
//! likelab checklist  [--preset P] [--scale S] [--seed N]   reproduction criteria (exit 1 on failure)
//! likelab replay LOG [--checklist]                 rebuild report from a study log
//! likelab serve LOG  [--follow] [--tcp ADDR]       live scoring service over a study log
//! likelab export DIR [--preset P] [--scale S] [--seed N]   write JSON, DOT, and SVG artifacts
//! likelab sweep      [--seeds N] [--scales A,B]    multi-seed study sweep with aggregates
//! likelab paper                                    print the published tables
//! ```
//!
//! The determinism & hygiene analyzer is its own binary, `likelab-lint`
//! (`cargo run -p likelab-lint`; rules in LINTS.md).
//!
//! `run` and `checklist` are event-sourced: `--log-out FILE` streams the
//! binary world log, `--checkpoint-every N` + `--checkpoint-dir DIR` freeze the run
//! periodically, and `--resume DIR` picks a killed run back up
//! byte-identically. `replay` reproduces the identical stdout from the log
//! alone; `serve` tails the log (even mid-run with `--follow`) and answers
//! line-delimited JSON fraud-score queries — protocol in SERVING.md.
//!
//! `run`, `checklist`, and `sweep` accept the observability flags
//! `--timing` (print a per-phase timing table), `--metrics-out FILE`, and
//! `--trace-out FILE` (write the metrics / span-trace JSON documented in
//! OBSERVABILITY.md).
//!
//! The crawl surface can be degraded with `--preset chaos` or
//! `--fault-profile NAME` (none|default|throttled|flaky|chaos); a faulted
//! `run` also prints the clean-vs-faulted robustness comparison, and
//! `--min-coverage F` turns low profile coverage into a nonzero exit.

use likelab::core::checkpoint::read_checkpoint_every;
use likelab::core::paper;
use likelab::core::record::read_log_config;
use likelab::sim::Exec;
use likelab::{
    checklist, render_checklist, replay_study, run_study, run_study_opts, run_sweep, serve,
    ReplayOptions, RunOptions, ServeConfig, ServeOptions, ServeTransport, StudyConfig, StudyError,
    StudyOutcome, SweepConfig,
};
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

/// Which world the study runs on.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Preset {
    /// The paper's population (default scale 0.15).
    Paper,
    /// The million-account world (default scale 1.0 — ~1M accounts,
    /// 50k pages; use `--scale` to trim).
    Scale,
    /// The paper's world against a heavily faulted crawl surface
    /// (rate limits, outages, elevated noise).
    Chaos,
}

struct Opts {
    preset: Preset,
    scale: Option<f64>,
    seed: u64,
    seeds: usize,
    scales: Vec<f64>,
    out: Option<PathBuf>,
    sequential: bool,
    timing: bool,
    metrics_out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    fault_profile: Option<String>,
    min_coverage: Option<f64>,
    log_out: Option<PathBuf>,
    follow: bool,
    tcp: Option<String>,
    chunk: Option<usize>,
    checkpoint_dir: Option<PathBuf>,
    checkpoint_every: Option<u64>,
    resume: bool,
    crash_after: Option<u64>,
    checklist: bool,
    positional: Vec<String>,
}

impl Opts {
    /// Any flag that needs collected data turns instrumentation on.
    fn wants_observability(&self) -> bool {
        self.timing || self.metrics_out.is_some() || self.trace_out.is_some()
    }

    /// Effective scale: `--scale` wins; otherwise each preset's default
    /// (0.15 for `paper`, full size for `scale`).
    fn effective_scale(&self) -> f64 {
        self.scale.unwrap_or(match self.preset {
            Preset::Paper | Preset::Chaos => 0.15,
            Preset::Scale => 1.0,
        })
    }

    /// The study configuration the `run`/`checklist`/`export` commands use:
    /// the preset's config, with `--fault-profile` overriding the crawl
    /// surface when given.
    fn study_config(&self) -> Result<StudyConfig, String> {
        let base = match self.preset {
            Preset::Paper => StudyConfig::paper(self.seed, self.effective_scale()),
            Preset::Scale => StudyConfig::scale_world(self.seed, self.effective_scale()),
            Preset::Chaos => StudyConfig::chaos(self.seed, self.effective_scale()),
        };
        match &self.fault_profile {
            None => Ok(base),
            Some(name) => base.with_fault_profile(name).ok_or_else(|| {
                format!("unknown fault profile: {name} (none|default|throttled|flaky|chaos)")
            }),
        }
    }

    /// Human-readable preset name for progress messages.
    fn preset_name(&self) -> &'static str {
        match self.preset {
            Preset::Paper => "paper",
            Preset::Scale => "scale",
            Preset::Chaos => "chaos",
        }
    }
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        preset: Preset::Paper,
        scale: None,
        seed: 42,
        seeds: 8,
        scales: vec![0.1],
        out: None,
        sequential: false,
        timing: false,
        metrics_out: None,
        trace_out: None,
        fault_profile: None,
        min_coverage: None,
        log_out: None,
        follow: false,
        tcp: None,
        chunk: None,
        checkpoint_dir: None,
        checkpoint_every: None,
        resume: false,
        crash_after: None,
        checklist: false,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--preset" => {
                let v = it.next().ok_or("--preset needs a value (paper|scale)")?;
                opts.preset = match v.as_str() {
                    "paper" => Preset::Paper,
                    "scale" => Preset::Scale,
                    "chaos" => Preset::Chaos,
                    other => return Err(format!("unknown preset: {other} (paper|scale|chaos)")),
                };
            }
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                let s: f64 = v.parse().map_err(|_| format!("bad scale: {v}"))?;
                if s <= 0.0 {
                    return Err("scale must be positive".into());
                }
                opts.scale = Some(s);
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                opts.seed = v.parse().map_err(|_| format!("bad seed: {v}"))?;
            }
            "--seeds" => {
                let v = it.next().ok_or("--seeds needs a value")?;
                opts.seeds = v.parse().map_err(|_| format!("bad seed count: {v}"))?;
                if opts.seeds == 0 {
                    return Err("--seeds must be at least 1".into());
                }
            }
            "--scales" => {
                let v = it.next().ok_or("--scales needs a comma-separated list")?;
                opts.scales = v
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<f64>()
                            .map_err(|_| format!("bad scale: {s}"))
                    })
                    .collect::<Result<_, _>>()?;
                if opts.scales.is_empty() || opts.scales.iter().any(|s| *s <= 0.0) {
                    return Err("--scales needs positive values".into());
                }
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a file path")?;
                opts.out = Some(PathBuf::from(v));
            }
            "--sequential" => opts.sequential = true,
            "--timing" => opts.timing = true,
            "--metrics-out" => {
                let v = it.next().ok_or("--metrics-out needs a file path")?;
                opts.metrics_out = Some(PathBuf::from(v));
            }
            "--trace-out" => {
                let v = it.next().ok_or("--trace-out needs a file path")?;
                opts.trace_out = Some(PathBuf::from(v));
            }
            "--fault-profile" => {
                let v = it
                    .next()
                    .ok_or("--fault-profile needs a name (none|default|throttled|flaky|chaos)")?;
                opts.fault_profile = Some(v.clone());
            }
            "--log-out" => {
                let v = it.next().ok_or("--log-out needs a file path")?;
                opts.log_out = Some(PathBuf::from(v));
            }
            "--follow" => opts.follow = true,
            "--tcp" => {
                let v = it.next().ok_or("--tcp needs a host:port address")?;
                opts.tcp = Some(v.clone());
            }
            "--chunk" => {
                let v = it.next().ok_or("--chunk needs a record count")?;
                let n: usize = v.parse().map_err(|_| format!("bad chunk size: {v}"))?;
                if n == 0 {
                    return Err("--chunk must be at least 1".into());
                }
                opts.chunk = Some(n);
            }
            "--checkpoint-dir" => {
                let v = it.next().ok_or("--checkpoint-dir needs a directory path")?;
                opts.checkpoint_dir = Some(PathBuf::from(v));
            }
            "--checkpoint-every" => {
                let v = it.next().ok_or("--checkpoint-every needs an event count")?;
                let n: u64 = v
                    .parse()
                    .map_err(|_| format!("bad checkpoint cadence: {v}"))?;
                if n == 0 {
                    return Err("--checkpoint-every must be at least 1".into());
                }
                opts.checkpoint_every = Some(n);
            }
            "--resume" => {
                let v = it.next().ok_or("--resume needs a checkpoint directory")?;
                opts.resume = true;
                opts.checkpoint_dir = Some(PathBuf::from(v));
            }
            "--crash-after-checkpoints" => {
                let v = it
                    .next()
                    .ok_or("--crash-after-checkpoints needs a checkpoint count")?;
                let n: u64 = v
                    .parse()
                    .map_err(|_| format!("bad checkpoint count: {v}"))?;
                if n == 0 {
                    return Err("--crash-after-checkpoints must be at least 1".into());
                }
                opts.crash_after = Some(n);
            }
            "--checklist" => opts.checklist = true,
            "--min-coverage" => {
                let v = it.next().ok_or("--min-coverage needs a value in [0, 1]")?;
                let c: f64 = v.parse().map_err(|_| format!("bad coverage floor: {v}"))?;
                if !(0.0..=1.0).contains(&c) {
                    return Err("--min-coverage must be in [0, 1]".into());
                }
                opts.min_coverage = Some(c);
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag: {other}"));
            }
            other => opts.positional.push(other.to_string()),
        }
    }
    if opts.resume && opts.checkpoint_every.is_some() {
        return Err("--resume keeps the checkpoint's cadence; drop --checkpoint-every".into());
    }
    Ok(opts)
}

fn usage() -> &'static str {
    "likelab — honeypot like-fraud laboratory (De Cristofaro et al., IMC 2014)\n\n\
     USAGE:\n\
     \x20 likelab run        [--preset P] [--scale S] [--seed N]   run the study, print every table/figure\n\
     \x20 likelab checklist  [--preset P] [--scale S] [--seed N]   run + evaluate the 23 reproduction criteria\n\
     \x20 likelab replay LOG [--checklist]\n\
     \x20               rebuild the world + report from a captured study log\n\
     \x20               (byte-identical stdout)\n\
     \x20 likelab serve LOG [--follow] [--tcp HOST:PORT] [--chunk N]\n\
     \x20               live fraud-scoring service: tail the study log and\n\
     \x20               answer line-delimited JSON queries on stdin/stdout\n\
     \x20               (or --tcp); --follow keeps tailing a log still being\n\
     \x20               written; protocol + walkthrough in SERVING.md\n\
     \x20 likelab export DIR [--preset P] [--scale S] [--seed N]   run + write report.json, dataset.json, DOT, SVGs\n\
     \x20 likelab sweep [--seeds N] [--scales A,B,..] run N seeds per scale, aggregate mean/std/CI\n\
     \x20               [--seed M] [--out FILE] [--sequential]\n\
     \x20 likelab paper                               print the paper's published tables\n\n\
     Observability (run, checklist, sweep — see OBSERVABILITY.md):\n\
     \x20 --timing             print per-phase wall-time, counters, histograms\n\
     \x20 --metrics-out FILE   write counters/histograms/span aggregates as JSON\n\
     \x20 --trace-out FILE     write the span trace as JSON\n\n\
     Event sourcing (run, checklist — see DESIGN.md):\n\
     \x20 --log-out FILE       stream every world mutation + measurement to\n\
     \x20                      a binary study log (checksummed, tailable,\n\
     \x20                      replayable with `replay`)\n\
     \x20 --checkpoint-dir DIR log to DIR/world.log and snapshot consumer\n\
     \x20                      state to DIR/checkpoint.json\n\
     \x20 --checkpoint-every N checkpoint cadence in fired events (default 5000)\n\
     \x20 --resume DIR         resume a killed checkpointed run; the finished\n\
     \x20                      run is byte-identical to an uninterrupted one\n\
     \x20 --crash-after-checkpoints K  test hook: exit 86 after K checkpoints\n\n\
     Crawl faults (run, checklist, export — see OBSERVABILITY.md):\n\
     \x20 --fault-profile NAME override the crawl surface: none, default,\n\
     \x20                      throttled, flaky, chaos\n\
     \x20 --min-coverage F     (run) exit 1 if profile coverage ends below F\n\n\
     Presets: paper (default; scale 0.15 unless --scale) runs the paper's\n\
     world; scale (default scale 1.0) runs the million-account world —\n\
     ~1M accounts / 50k pages, trim with --scale for smoke tests; chaos is\n\
     the paper preset against a heavily faulted crawl surface (rate-limit\n\
     windows, multi-hour outages, elevated noise) — `run` then also prints\n\
     the clean-vs-faulted robustness comparison.\n\n\
     Defaults: --preset paper --seed 42; sweep: --seeds 8 --scales 0.1.\n\
     scale 1.0 reproduces paper-sized campaigns. Sweep runs fan out across\n\
     cores (limit with LIKELAB_THREADS=k; --sequential forces one thread);\n\
     results are bit-identical for any thread count."
}

/// Write `content` to `path`, naming the offending path on failure.
fn write_file(path: &std::path::Path, content: &str) -> Result<(), String> {
    fs::write(path, content).map_err(|e| format!("write {}: {e}", path.display()))
}

/// Turn instrumentation on if any observability flag asks for it.
fn start_observability(opts: &Opts) {
    if opts.wants_observability() {
        likelab_obs::reset();
        likelab_obs::enable();
    }
}

/// After the workload: print the `--timing` tables and write the
/// `--metrics-out` / `--trace-out` JSON files (formats in OBSERVABILITY.md).
fn emit_observability(opts: &Opts) -> Result<(), String> {
    if !opts.wants_observability() {
        return Ok(());
    }
    likelab_obs::disable();
    let snap = likelab_obs::snapshot();
    if opts.timing {
        println!("\n{}", snap.timing_table());
        println!("== timing: span tree ==");
        print!("{}", snap.flame());
    }
    if let Some(path) = &opts.metrics_out {
        write_file(path, &snap.metrics_json())?;
        eprintln!("metrics written to {}", path.display());
    }
    if let Some(path) = &opts.trace_out {
        write_file(path, &snap.trace_json())?;
        eprintln!("trace written to {}", path.display());
    }
    Ok(())
}

/// The exit code the `--crash-after-checkpoints` test hook produces —
/// distinct from ordinary failure so CI can assert the crash actually
/// happened before resuming.
const CRASH_EXIT: u8 = 86;

/// Map the CLI flags onto the study runner's event-sourcing options.
fn run_options(opts: &Opts) -> RunOptions {
    RunOptions {
        log_out: opts.log_out.clone(),
        checkpoint_dir: opts.checkpoint_dir.clone(),
        checkpoint_every: opts.checkpoint_every.unwrap_or(5_000),
        resume: opts.resume,
        crash_after_checkpoints: opts.crash_after,
        ..RunOptions::default()
    }
}

/// Run the study honoring the logging/checkpoint flags. A simulated crash
/// maps to exit code [`CRASH_EXIT`]; other study errors become messages.
fn run_study_cli(
    config: &StudyConfig,
    opts: &Opts,
) -> Result<Result<StudyOutcome, ExitCode>, String> {
    match run_study_opts(config, &run_options(opts)) {
        Ok(outcome) => {
            if let Some(path) = &opts.log_out {
                eprintln!("study log written to {}", path.display());
            }
            Ok(Ok(outcome))
        }
        Err(StudyError::SimulatedCrash { checkpoints }) => {
            eprintln!(
                "simulated crash after {checkpoints} checkpoint(s); \
                 pick the run back up with --resume <checkpoint-dir>"
            );
            Ok(Err(ExitCode::from(CRASH_EXIT)))
        }
        Err(e) => Err(e.to_string()),
    }
}

/// The config a `run` or `checklist` goes on under, announced on stderr:
/// the flags' preset, or under `--resume` the config in the checkpointed
/// `world.log`'s header, which the resumed run continues whatever the
/// preset, seed and scale flags say, at the cadence its `checkpoint.json`
/// stores.
fn announce_study(opts: &Opts) -> Result<StudyConfig, String> {
    if let Some(dir) = opts.checkpoint_dir.as_deref().filter(|_| opts.resume) {
        let config = read_log_config(&dir.join("world.log")).map_err(|e| e.to_string())?;
        let every = read_checkpoint_every(dir).map_err(|e| e.to_string())?;
        eprintln!(
            "resuming study from {}: seed={}, scale={}, checkpoint every {every} events...",
            dir.display(),
            config.seed,
            config.scale
        );
        return Ok(config);
    }
    let config = opts.study_config()?;
    eprintln!(
        "running study: preset={}, seed={}, scale={}...",
        opts.preset_name(),
        opts.seed,
        opts.effective_scale()
    );
    Ok(config)
}

fn cmd_run(opts: &Opts) -> Result<ExitCode, String> {
    let config = announce_study(opts)?;
    start_observability(opts);
    let outcome = match run_study_cli(&config, opts)? {
        Ok(o) => o,
        Err(code) => return Ok(code),
    };
    println!("{}", outcome.report.render());
    // With structured fault regimes active, run the clean twin and print
    // how far the faulted results drifted.
    if !config.crawl.faults.is_quiet() {
        eprintln!("faults active; running clean twin for the robustness comparison...");
        let clean = run_study(&config.clean_twin());
        println!(
            "{}",
            likelab::analysis::compare_reports(&clean.report, &outcome.report).render()
        );
    }
    emit_observability(opts)?;
    if let Some(floor) = opts.min_coverage {
        let got = outcome.report.crawl.profile_coverage;
        if got < floor {
            eprintln!("error: profile coverage {got:.3} below the --min-coverage floor {floor}");
            return Ok(ExitCode::FAILURE);
        }
        eprintln!("profile coverage {got:.3} >= floor {floor}");
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_checklist(opts: &Opts) -> Result<ExitCode, String> {
    let config = announce_study(opts)?;
    start_observability(opts);
    let outcome = match run_study_cli(&config, opts)? {
        Ok(o) => o,
        Err(code) => return Ok(code),
    };
    let checks = checklist(&outcome.report);
    println!("{}", render_checklist(&checks));
    let failed = checks.iter().filter(|c| !c.pass).count();
    println!("{}/{} criteria hold", checks.len() - failed, checks.len());
    emit_observability(opts)?;
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn cmd_export(opts: &Opts) -> Result<ExitCode, String> {
    let dir = PathBuf::from(
        opts.positional
            .first()
            .ok_or("export needs a target directory")?,
    );
    fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    eprintln!(
        "running study: preset={}, seed={}, scale={}...",
        opts.preset_name(),
        opts.seed,
        opts.effective_scale()
    );
    let outcome = run_study(&opts.study_config()?);
    let r = &outcome.report;
    let write = |name: &str, content: String| -> Result<(), String> {
        write_file(&dir.join(name), &content)
    };
    write("report.json", r.to_json().map_err(|e| e.to_string())?)?;
    write(
        "dataset.json",
        outcome.dataset.to_json().map_err(|e| e.to_string())?,
    )?;
    write("figure3_direct.dot", r.figure3_direct_dot.clone())?;
    write("figure3_twohop.dot", r.figure3_twohop_dot.clone())?;
    use likelab::analysis::svg;
    let (ads, farms): (Vec<_>, Vec<_>) = r.figure2.iter().cloned().partition(|s| s.platform_ads);
    write("figure1.svg", svg::figure1_svg(&r.figure1))?;
    write(
        "figure2a.svg",
        svg::figure2_svg(&ads, "Figure 2(a): Facebook campaigns"),
    )?;
    write(
        "figure2b.svg",
        svg::figure2_svg(&farms, "Figure 2(b): Like farms"),
    )?;
    write("figure4.svg", svg::figure4_svg(&r.figure4, 10_000.0))?;
    write(
        "figure5a.svg",
        svg::figure5_svg(&r.figure5_pages, "Figure 5(a): page-like set similarity"),
    )?;
    write(
        "figure5b.svg",
        svg::figure5_svg(&r.figure5_users, "Figure 5(b): liker set similarity"),
    )?;
    println!("artifacts written to {}", dir.display());
    Ok(ExitCode::SUCCESS)
}

/// `likelab replay LOG` — rebuild the world, dataset, and report from a
/// captured study log; no model code runs and no randomness is consumed.
/// Prints the same report (or, with `--checklist`, the same checklist and
/// exit code) the original `run`/`checklist` invocation printed, byte for
/// byte.
fn cmd_replay(opts: &Opts) -> Result<ExitCode, String> {
    let path = PathBuf::from(opts.positional.first().ok_or("replay needs a log file")?);
    eprintln!("replaying {}...", path.display());
    start_observability(opts);
    let ropts = ReplayOptions { exec: Exec::auto() };
    let outcome = replay_study(&path, &ropts).map_err(|e| e.to_string())?;
    if opts.checklist {
        let checks = checklist(&outcome.report);
        println!("{}", render_checklist(&checks));
        let failed = checks.iter().filter(|c| !c.pass).count();
        println!("{}/{} criteria hold", checks.len() - failed, checks.len());
        emit_observability(opts)?;
        return Ok(if failed == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    println!("{}", outcome.report.render());
    emit_observability(opts)?;
    Ok(ExitCode::SUCCESS)
}

/// `likelab serve LOG` — the live scoring service: tail a study log
/// (optionally while it is still being written) and answer fraud-score
/// queries over line-delimited JSON. See SERVING.md for the protocol,
/// the online-vs-batch equivalence contract, and a load-test walkthrough.
fn cmd_serve(opts: &Opts) -> Result<ExitCode, String> {
    let path = PathBuf::from(opts.positional.first().ok_or("serve needs a log file")?);
    let mut config = ServeConfig::default();
    if let Some(chunk) = opts.chunk {
        config.chunk = chunk;
    }
    let transport = match &opts.tcp {
        Some(addr) => ServeTransport::Tcp(addr.clone()),
        None => ServeTransport::Stdio,
    };
    eprintln!(
        "serving {} ({}, chunk {})...",
        path.display(),
        match transport {
            ServeTransport::Stdio => "stdin/stdout".to_string(),
            ServeTransport::Tcp(ref a) => format!("tcp {a}"),
        },
        config.chunk,
    );
    start_observability(opts);
    let summary = serve(&ServeOptions {
        log: path,
        config,
        follow: opts.follow,
        transport,
        ..ServeOptions::default()
    })
    .map_err(|e| e.to_string())?;
    eprintln!(
        "served {} queries over {} records; p99 query latency {:.3} ms, max ingest lag {} records",
        summary.queries,
        summary.records,
        summary.p99_query_ns as f64 / 1e6,
        summary.max_lag_records,
    );
    emit_observability(opts)?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_sweep(opts: &Opts) -> Result<ExitCode, String> {
    let config = SweepConfig {
        master_seed: opts.seed,
        n_seeds: opts.seeds,
        scales: opts.scales.clone(),
    };
    let exec = if opts.sequential {
        Exec::Sequential
    } else {
        Exec::auto()
    };
    eprintln!(
        "sweeping: {} seeds x {} scales from master seed {} ({} workers)...",
        config.n_seeds,
        config.scales.len(),
        config.master_seed,
        exec.worker_count(),
    );
    start_observability(opts);
    let report = run_sweep(&config, exec);
    print!("{}", report.render());
    if let Some(path) = &opts.out {
        let json = report.to_json().map_err(|e| e.to_string())?;
        write_file(path, &json)?;
        println!("sweep report written to {}", path.display());
    }
    emit_observability(opts)?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_paper() -> ExitCode {
    println!("Published Table 1 (IMC 2014):");
    println!(
        "{:8} {:20} {:10} {:>9} {:>9} {:>11} {:>7} {:>11}",
        "Campaign",
        "Provider",
        "Location",
        "Budget",
        "Duration",
        "Monitoring",
        "#Likes",
        "#Terminated"
    );
    for r in paper::TABLE1 {
        println!(
            "{:8} {:20} {:10} {:>9} {:>9} {:>11} {:>7} {:>11}",
            r.label,
            r.provider,
            r.location,
            r.budget,
            r.duration,
            r.monitoring_days
                .map(|d| format!("{d} days"))
                .unwrap_or_else(|| "-".into()),
            r.likes.map(|l| l.to_string()).unwrap_or_else(|| "-".into()),
            r.terminated
                .map(|t| t.to_string())
                .unwrap_or_else(|| "-".into()),
        );
    }
    println!("\nPublished Table 3:");
    println!(
        "{:20} {:>7} {:>10} {:>8} {:>8} {:>8} {:>8} {:>7}",
        "Provider", "Likers", "PublicFL", "AvgFr", "StdFr", "MedFr", "Edges", "2-Hop"
    );
    for r in paper::TABLE3 {
        println!(
            "{:20} {:>7} {:>10} {:>8.0} {:>8.0} {:>8.0} {:>8} {:>7}",
            r.provider,
            r.likers,
            format!("{} ({:.1}%)", r.public_friend_lists, r.public_pct),
            r.friends_mean,
            r.friends_std,
            r.friends_median,
            r.friendships,
            r.two_hop,
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    };
    let opts = match parse_opts(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "run" => cmd_run(&opts),
        "checklist" => cmd_checklist(&opts),
        "replay" => cmd_replay(&opts),
        "serve" => cmd_serve(&opts),
        "export" => cmd_export(&opts),
        "sweep" => cmd_sweep(&opts),
        "paper" => Ok(cmd_paper()),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(ExitCode::SUCCESS)
        }
        other => {
            eprintln!("unknown command: {other}\n\n{}", usage());
            Ok(ExitCode::FAILURE)
        }
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
