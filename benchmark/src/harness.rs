//! The run loop every workload shares: repeated set-ups, timed passes for
//! a fixed budget, tracing around the timed phases, correctness
//! bookkeeping, and the result record.

use crate::{alloc, layers, stats};
use likelab_obs::Snapshot;
use serde::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// How many times each run repeats its set-up; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

const MIB: f64 = 1024.0 * 1024.0;

/// The end-to-end metrics, reported by every untraced run: name, unit.
/// Pass times are per-layer: on a shared host they do not repeat within
/// the bound a regression gate needs (see `README.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_alloc_mib", "MiB"),
    ("alloc_mib", "MiB"),
    ("alloc_calls", "count"),
];

/// The per-layer metrics, reported by every traced run: name, unit. A
/// layer the workload does not run reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Timed passes and their phases, from the traced run's untraced passes.
    ("pass_s", "s"),
    ("study_s", "s"),
    ("capture_s", "s"),
    ("replay_s", "s"),
    ("catchup_s", "s"),
    ("run.workers", "count"),
    // osn::population
    ("study.population_s", "s"),
    ("population.synthesize_s", "s"),
    ("population.accounts_s", "s"),
    ("population.graph_s", "s"),
    ("population.likes_s", "s"),
    ("population.likes.sort_s", "s"),
    ("population.likes.ingest_s", "s"),
    ("population.synthesize_w1_s", "s"),
    ("population.speedup_w2", "x"),
    // osn::likes
    ("ledger.ingest_one_batch_s", "s"),
    ("ledger.ingest_runs_s", "s"),
    ("ledger.likes", "count"),
    // core::study event loop
    ("study.promotions_s", "s"),
    ("promotions.farm_s", "s"),
    ("study.event_loop_s", "s"),
    ("study.event_loop.self_s", "s"),
    ("study.sweep_s", "s"),
    ("study.poll_s", "s"),
    ("study.collection_s", "s"),
    ("study.events_fired", "count"),
    // sim::parallel
    ("parallel.jobs", "count"),
    ("parallel.queue_wait_s", "s"),
    ("parallel.busy_s", "s"),
    // core::record journal
    ("log.journal_s", "s"),
    ("log.records", "count"),
    ("log.mib", "MiB"),
    // core::replay
    ("replay.decode_s", "s"),
    ("replay.fold_s", "s"),
    ("replay.report_s", "s"),
    ("replay.likes", "count"),
    // analysis::report
    ("study.report_s", "s"),
    ("report.section.crawl_us", "us"),
    ("report.section.figure1_us", "us"),
    ("report.section.figure2_us", "us"),
    ("report.section.figure3_direct_us", "us"),
    ("report.section.figure3_twohop_us", "us"),
    ("report.section.figure4_us", "us"),
    ("report.section.figure5_pages_us", "us"),
    ("report.section.figure5_users_us", "us"),
    ("report.section.table1_us", "us"),
    ("report.section.table2_us", "us"),
    ("report.section.table3_us", "us"),
    ("report.section.termination_us", "us"),
    ("report.section.totals_us", "us"),
    // sim::tail + core::serve
    ("serve.decode_s", "s"),
    ("serve.fold_s", "s"),
    ("serve.query_s", "s"),
    ("serve.records", "count"),
    ("serve.likes", "count"),
    // detect online detectors, through the protocol
    ("serve.query.p50_us", "us"),
    ("serve.query.p99_us", "us"),
    ("serve.query.tail_pct", "%"),
    ("serve.query.n", "count"),
    ("serve.query.status.p50_us", "us"),
    ("serve.query.status.p90_us", "us"),
    ("serve.query.status.n", "count"),
    ("serve.query.score.p50_us", "us"),
    ("serve.query.score.p90_us", "us"),
    ("serve.query.score.n", "count"),
    ("serve.query.page.p50_us", "us"),
    ("serve.query.page.p90_us", "us"),
    ("serve.query.page.n", "count"),
    ("serve.query.campaign.p50_us", "us"),
    ("serve.query.campaign.p90_us", "us"),
    ("serve.query.campaign.n", "count"),
    ("serve.query.lockstep.p50_us", "us"),
    ("serve.query.lockstep.p90_us", "us"),
    ("serve.query.lockstep.n", "count"),
    ("serve.query.sybil.p50_us", "us"),
    ("serve.query.sybil.p90_us", "us"),
    ("serve.query.sybil.n", "count"),
    ("serve.query.eval.p50_us", "us"),
    ("serve.query.eval.p90_us", "us"),
    ("serve.query.eval.n", "count"),
    ("serve.sybil.recomputes", "count"),
    ("serve.query.sybil_recompute.p50_us", "us"),
    ("serve.query.sybil_cached.p50_us", "us"),
    // trace health
    ("trace.overhead_frac", "ratio"),
    ("trace.dropped_spans", "count"),
];

/// What one run was asked to do.
#[derive(Debug)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget for the timed passes.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// World scale override (the workload's default when `None`).
    pub scale: Option<f64>,
    /// Where to write the full run record, if anywhere.
    pub out: Option<PathBuf>,
}

/// One timed pass of a workload.
pub struct Pass {
    traced: bool,
    seconds: f64,
    peak_bytes: usize,
    requested_bytes: usize,
    calls: usize,
    phases: Vec<(&'static str, f64)>,
    snapshots: Vec<(&'static str, Snapshot)>,
    layers: BTreeMap<String, f64>,
    failures: Vec<String>,
    checks_failed: bool,
    ops: u64,
    failed_ops: u64,
}

impl Pass {
    fn new(traced: bool) -> Self {
        Pass {
            traced,
            seconds: 0.0,
            peak_bytes: 0,
            requested_bytes: 0,
            calls: 0,
            phases: Vec::new(),
            snapshots: Vec::new(),
            layers: BTreeMap::new(),
            failures: Vec::new(),
            checks_failed: false,
            ops: 0,
            failed_ops: 0,
        }
    }

    /// Whether this pass records obs spans (and bench-timed layer splits).
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Run one timed phase. Its wall time counts toward the pass; its heap
    /// growth toward the pass's peak; its allocations toward the pass's
    /// totals; in a traced pass it runs with obs enabled and its snapshot
    /// feeds the per-layer metrics.
    pub fn timed<T>(&mut self, phase: &'static str, f: impl FnOnce() -> T) -> T {
        if self.traced {
            likelab_obs::reset();
            likelab_obs::enable();
        }
        let base = alloc::reset_peak();
        let (requested, calls) = (alloc::requested_bytes(), alloc::calls());
        let started = Instant::now();
        let out = f();
        let secs = started.elapsed().as_secs_f64();
        self.requested_bytes += alloc::requested_bytes() - requested;
        self.calls += alloc::calls() - calls;
        let grew = alloc::peak_bytes().saturating_sub(base);
        if self.traced {
            likelab_obs::disable();
            self.snapshots.push((phase, likelab_obs::snapshot()));
        }
        self.seconds += secs;
        self.peak_bytes = self.peak_bytes.max(grew);
        self.phases.push((phase, secs));
        out
    }

    /// The obs snapshot of a finished phase of this traced pass.
    pub fn snapshot(&self, phase: &str) -> Option<&Snapshot> {
        self.snapshots
            .iter()
            .find(|(p, _)| *p == phase)
            .map(|(_, snap)| snap)
    }

    /// Add `value` to a per-layer metric of this pass.
    pub fn add(&mut self, metric: &str, value: f64) {
        *self.layers.entry(metric.to_string()).or_default() += value;
    }

    /// Record a correctness check of the pass's outputs.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.checks_failed = true;
            self.failures.push(what());
        }
    }

    /// Count one client operation inside the pass, and whether it succeeded.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.ops += 1;
        if !ok {
            self.failed_ops += 1;
            self.failures.push(what());
        }
    }
}

/// Run-wide accumulator. See the module docs.
pub struct Harness {
    opts: Options,
    scale: f64,
    workers: usize,
    setup_s: Vec<f64>,
    pass_s: Vec<f64>,
    traced_pass_s: Vec<f64>,
    peak_mib: Vec<f64>,
    alloc_mib: Vec<f64>,
    alloc_calls: Vec<f64>,
    phase_s: BTreeMap<&'static str, Vec<f64>>,
    layers: BTreeMap<String, Vec<f64>>,
    fixed: BTreeMap<String, f64>,
    last_snapshots: Vec<(&'static str, Snapshot)>,
    dropped_spans: u64,
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
}

impl Harness {
    /// A harness for one run at world `scale` with `workers` threads.
    pub fn new(opts: Options, scale: f64, workers: usize) -> Self {
        Harness {
            opts,
            scale,
            workers,
            setup_s: Vec::new(),
            pass_s: Vec::new(),
            traced_pass_s: Vec::new(),
            peak_mib: Vec::new(),
            alloc_mib: Vec::new(),
            alloc_calls: Vec::new(),
            phase_s: BTreeMap::new(),
            layers: BTreeMap::new(),
            fixed: BTreeMap::new(),
            last_snapshots: Vec::new(),
            dropped_spans: 0,
            failures: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Whether this is a traced run.
    pub fn trace(&self) -> bool {
        self.opts.trace
    }

    /// Run one set-up and record its wall time.
    pub fn setup<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.setup_s.push(started.elapsed().as_secs_f64());
        self.attempted += 1;
        out
    }

    /// Median set-up time so far.
    pub fn setup_median(&self) -> f64 {
        stats::median(&self.setup_s)
    }

    /// Median untraced time of a phase so far (0 if it never ran).
    pub fn phase_median(&self, phase: &str) -> f64 {
        self.phase_s.get(phase).map_or(0.0, |v| stats::median(v))
    }

    /// Median of a per-layer metric over the traced passes so far.
    pub fn layer_median(&self, metric: &str) -> f64 {
        self.layers.get(metric).map_or(0.0, |v| stats::median(v))
    }

    /// Record a correctness check made outside any pass; a failure counts
    /// as one failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Set a per-layer metric measured once per run, outside the passes.
    pub fn set_layer(&mut self, metric: &str, value: f64) {
        self.fixed.insert(metric.to_string(), value);
    }

    /// Run passes until the next one would overrun the budget. An untraced
    /// run makes at least one pass; a traced run alternates untraced and
    /// traced passes, at least one of each, so the trace overhead is
    /// measured within the run.
    pub fn passes(&mut self, mut run: impl FnMut(&mut Pass)) {
        let started = Instant::now();
        let min = if self.opts.trace { 2 } else { 1 };
        let mut i = 0usize;
        loop {
            let traced = self.opts.trace && i % 2 == 1;
            let pass_started = Instant::now();
            let mut pass = Pass::new(traced);
            run(&mut pass);
            let wall = pass_started.elapsed().as_secs_f64();
            self.absorb(pass);
            i += 1;
            if i >= min && started.elapsed().as_secs_f64() + wall > self.opts.seconds {
                break;
            }
        }
    }

    fn absorb(&mut self, mut pass: Pass) {
        self.attempted += 1 + pass.ops;
        self.failed += pass.failed_ops + u64::from(pass.checks_failed);
        self.failures.append(&mut pass.failures);
        if pass.traced {
            self.traced_pass_s.push(pass.seconds);
            for (_, snap) in &pass.snapshots {
                self.dropped_spans += snap.dropped_spans;
                for (metric, value) in layers::extract(snap) {
                    *pass.layers.entry(metric).or_default() += value;
                }
            }
            for (metric, value) in pass.layers {
                self.layers.entry(metric).or_default().push(value);
            }
            self.last_snapshots = pass.snapshots;
        } else {
            self.pass_s.push(pass.seconds);
            self.peak_mib.push(pass.peak_bytes as f64 / MIB);
            self.alloc_mib.push(pass.requested_bytes as f64 / MIB);
            self.alloc_calls.push(pass.calls as f64);
            for (phase, secs) in pass.phases {
                self.phase_s.entry(phase).or_default().push(secs);
            }
        }
    }

    fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        if !self.opts.trace {
            let values = [
                stats::median(&self.setup_s),
                stats::median(&self.peak_mib),
                stats::median(&self.alloc_mib),
                stats::median(&self.alloc_calls),
            ];
            return END_TO_END
                .iter()
                .zip(values)
                .map(|(&(name, unit), v)| (name, v, unit))
                .collect();
        }
        let traced = stats::median(&self.traced_pass_s);
        let untraced = stats::median(&self.pass_s);
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "run.workers" => self.workers as f64,
                    "pass_s" => untraced,
                    "trace.overhead_frac" => traced / untraced - 1.0,
                    "trace.dropped_spans" => self.dropped_spans as f64,
                    _ => self
                        .fixed
                        .get(name)
                        .copied()
                        .or_else(|| self.layers.get(name).map(|v| stats::median(v)))
                        .or_else(|| {
                            let phase = name.strip_suffix("_s")?;
                            self.phase_s.get(phase).map(|v| stats::median(v))
                        })
                        .unwrap_or(0.0),
                };
                (name, value, unit)
            })
            .collect()
    }

    /// Print every metric, then the one-line JSON result; write the full
    /// record if asked. Returns the process exit code.
    pub fn finish(self) -> i32 {
        let metrics = self.metrics();
        let correct = self.failed == 0;
        for failure in &self.failures {
            eprintln!("check failed: {failure}");
        }
        println!(
            "workload {} seed {} scale {} workers {} setups {} passes {} traced passes {}",
            self.opts.workload,
            self.opts.seed,
            self.scale,
            self.workers,
            self.setup_s.len(),
            self.pass_s.len(),
            self.traced_pass_s.len(),
        );
        for (name, value, unit) in &metrics {
            println!("{name:<40} {value:>16.6} {unit}");
        }
        let metric_json = Value::Object(
            metrics
                .iter()
                .map(|&(name, value, unit)| {
                    let fields = vec![
                        ("value".to_string(), Value::Float(value)),
                        ("unit".to_string(), Value::Str(unit.into())),
                    ];
                    (name.to_string(), Value::Object(fields))
                })
                .collect(),
        );
        let summary = vec![
            ("correct".to_string(), Value::Bool(correct)),
            ("attempted".to_string(), Value::UInt(self.attempted)),
            ("failed".to_string(), Value::UInt(self.failed)),
            ("metrics".to_string(), metric_json),
        ];
        let mut code = i32::from(!correct);
        if let Some(path) = &self.opts.out {
            if let Err(e) = std::fs::write(path, self.record(&summary)) {
                eprintln!("error: write {}: {e}", path.display());
                code = 1;
            }
        }
        let line = serde_json::to_string(&Value::Object(summary)).expect("render result JSON");
        println!("{line}");
        code
    }

    /// The full run record: the result fields plus the run's context, raw
    /// samples and the last traced pass's `layers`.
    fn record(&self, summary: &[(String, Value)]) -> String {
        let floats = |xs: &[f64]| Value::Array(xs.iter().map(|&x| Value::Float(x)).collect());
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut fields = vec![
            (
                "benchmark".to_string(),
                Value::Str("likelab-benchmark".into()),
            ),
            (
                "workload".to_string(),
                Value::Str(self.opts.workload.clone()),
            ),
            ("seed".to_string(), Value::UInt(self.opts.seed)),
            ("scale".to_string(), Value::Float(self.scale)),
            ("seconds".to_string(), Value::Float(self.opts.seconds)),
            ("trace".to_string(), Value::Bool(self.opts.trace)),
            ("workers".to_string(), Value::UInt(self.workers as u64)),
            ("nproc".to_string(), Value::UInt(nproc as u64)),
        ];
        fields.extend(summary.iter().cloned());
        fields.push((
            "failures".to_string(),
            Value::Array(
                self.failures
                    .iter()
                    .map(|f| Value::Str(f.clone()))
                    .collect(),
            ),
        ));
        let samples = vec![
            ("setup_s".to_string(), floats(&self.setup_s)),
            ("pass_s".to_string(), floats(&self.pass_s)),
            ("traced_pass_s".to_string(), floats(&self.traced_pass_s)),
            ("peak_alloc_mib".to_string(), floats(&self.peak_mib)),
            ("alloc_mib".to_string(), floats(&self.alloc_mib)),
            ("alloc_calls".to_string(), floats(&self.alloc_calls)),
        ];
        fields.push(("samples".to_string(), Value::Object(samples)));
        let layers = self
            .last_snapshots
            .iter()
            .map(|(phase, snap)| (phase.to_string(), layers::to_json(snap)))
            .collect();
        fields.push(("layers".to_string(), Value::Object(layers)));
        let mut text =
            serde_json::to_string_pretty(&Value::Object(fields)).expect("render run record");
        text.push('\n');
        text
    }
}
