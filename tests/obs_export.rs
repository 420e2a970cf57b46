//! The observability exporters against the real workload: run an
//! instrumented sweep, export, and parse the JSON back with the workspace's
//! JSON parser. This is the consumer the OBSERVABILITY.md schemas promise
//! to keep working, and the end-to-end check behind the CLI's
//! `--metrics-out` / `--trace-out` flags.
//!
//! Runs in its own process (integration-test binary), so it owns the global
//! observability state.

use likelab::core::serve::{ServeConfig, ServeEngine, ServeSession};
use likelab::sim::Exec;
use likelab::{run_sweep, StudyConfig, StudyLog, SweepConfig};
use serde::Value;

/// The two tests toggle the same process-global enabled flag; serialize
/// them (the harness runs tests of one binary concurrently).
static OBS_STATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn instrumented_snapshot() -> likelab_obs::Snapshot {
    likelab_obs::reset();
    likelab_obs::enable();
    let config = SweepConfig {
        master_seed: 42,
        n_seeds: 2,
        scales: vec![0.02],
    };
    let report = run_sweep(&config, Exec::workers(2));
    likelab_obs::disable();
    assert_eq!(report.cells.len(), 1);
    likelab_obs::snapshot()
}

#[test]
fn exported_json_parses_and_covers_the_hot_paths() {
    let _state = OBS_STATE.lock().unwrap_or_else(|e| e.into_inner());
    let snap = instrumented_snapshot();

    // --- metrics document ---------------------------------------------
    let metrics: Value = serde_json::from_str(&snap.metrics_json()).expect("metrics JSON parses");
    assert_eq!(metrics.get("version"), Some(&Value::UInt(1)));

    let counters = metrics.get("counters").expect("counters object");
    assert_eq!(
        counters.get("sweep.jobs.completed"),
        Some(&Value::UInt(2)),
        "one count per sweep run"
    );
    match counters.get("likes.synthesized") {
        Some(Value::UInt(n)) => assert!(*n > 1_000, "likes.synthesized = {n}"),
        other => panic!("likes.synthesized missing or wrong type: {other:?}"),
    }
    assert!(counters.get("parallel.jobs.completed").is_some());
    assert!(counters.get("study.events.fired").is_some());

    let histograms = metrics.get("histograms").expect("histograms object");
    let job_ns = histograms.get("parallel.job.ns").expect("per-job timing");
    for field in ["count", "sum", "min", "max", "p50", "p99", "buckets"] {
        assert!(job_ns.get(field).is_some(), "histogram field {field}");
    }
    assert!(histograms.get("parallel.worker.busy_ns").is_some());
    // Per-section report timing carries its label in the metric name.
    assert!(
        histograms
            .get("report.section.ns{section=table1}")
            .is_some(),
        "labelled section histogram"
    );

    let span_stats = metrics.get("spans").expect("span aggregates object");
    for name in [
        "sweep.run",
        "study.run",
        "study.population",
        "study.event_loop",
        "study.report",
        "population.likes",
        "report.compute",
        "parallel.map",
    ] {
        let stat = span_stats
            .get(name)
            .unwrap_or_else(|| panic!("span aggregate {name} missing"));
        match stat.get("count") {
            Some(Value::UInt(n)) => assert!(*n > 0, "{name} count"),
            other => panic!("{name} count wrong: {other:?}"),
        }
    }
    match span_stats.get("study.run").and_then(|s| s.get("count")) {
        Some(Value::UInt(2)) => {}
        other => panic!("expected exactly 2 study.run spans, got {other:?}"),
    }

    // --- trace document -----------------------------------------------
    let trace: Value = serde_json::from_str(&snap.trace_json()).expect("trace JSON parses");
    assert_eq!(trace.get("version"), Some(&Value::UInt(1)));
    let Some(Value::Array(spans)) = trace.get("spans") else {
        panic!("trace spans must be an array");
    };
    assert!(!spans.is_empty());
    for s in spans {
        for field in ["id", "parent", "name", "thread", "start_ns", "dur_ns"] {
            assert!(s.get(field).is_some(), "span field {field}");
        }
    }
    // Parent links resolve: study.population nests under some study.run.
    let run_ids: Vec<&Value> = spans
        .iter()
        .filter(|s| s.get("name").and_then(Value::as_str) == Some("study.run"))
        .map(|s| s.get("id").expect("id"))
        .collect();
    let pop = spans
        .iter()
        .find(|s| s.get("name").and_then(Value::as_str) == Some("study.population"))
        .expect("population span recorded");
    let parent = pop.get("parent").expect("parent field");
    assert!(
        run_ids.contains(&parent),
        "study.population must nest under a study.run span"
    );

    // --- human renderings ----------------------------------------------
    let table = snap.timing_table();
    assert!(table.contains("study.run"), "timing table:\n{table}");
    assert!(table.contains("sweep.jobs.completed"));
    let flame = snap.flame();
    assert!(
        flame.lines().any(|l| l.starts_with("sweep.run")),
        "sweep.run is a flame root:\n{flame}"
    );
    assert!(flame.contains("study.run"));
}

#[test]
fn disabled_observability_collects_nothing_and_changes_nothing() {
    let _state = OBS_STATE.lock().unwrap_or_else(|e| e.into_inner());
    likelab_obs::reset();
    likelab_obs::disable();
    let config = SweepConfig {
        master_seed: 7,
        n_seeds: 1,
        scales: vec![0.02],
    };
    let quiet = run_sweep(&config, Exec::Sequential);
    let snap = likelab_obs::snapshot();
    assert!(snap.counters.is_empty());
    assert!(snap.spans.is_empty());

    // Enabling instrumentation must not perturb results.
    likelab_obs::enable();
    let observed = run_sweep(&config, Exec::Sequential);
    likelab_obs::disable();
    assert_eq!(
        quiet.to_json().expect("serializes"),
        observed.to_json().expect("serializes"),
        "observability must never change simulation output"
    );
}

#[test]
fn serve_query_latency_is_split_by_op() {
    let _state = OBS_STATE.lock().unwrap_or_else(|e| e.into_inner());
    let log = StudyLog::in_memory(&StudyConfig::paper(42, 0.02)).expect("log header");
    let engine = ServeEngine::new(log.header(), ServeConfig::default()).expect("engine");
    let mut session = ServeSession::new(engine);
    let requests = [
        r#"{"v":1,"id":1,"op":"status"}"#,
        r#"{"v":1,"id":2,"op":"score","user":0}"#,
        r#"{"v":1,"id":3,"op":"score"}"#,
        r#"{"v":1,"id":4,"op":"lockstep"}"#,
        r#"{"v":1,"id":5,"op":"eval"}"#,
        r#"{"v":1,"id":6,"op":"nonsense"}"#,
        r#"{"v":2,"id":7,"op":"status"}"#,
        "not json",
        r#"{"v":1,"id":9,"op":"shutdown"}"#,
    ];
    likelab_obs::reset();
    likelab_obs::enable();
    for line in requests {
        session.handle_line(line, 0);
    }
    likelab_obs::disable();
    let snap = likelab_obs::snapshot();

    let count = |name: &str| snap.histograms.get(name).map_or(0, |h| h.count());
    assert_eq!(count("serve.query.ns"), requests.len() as u64);
    let per_op: u64 = snap
        .histograms
        .iter()
        .filter(|(name, _)| name.starts_with("serve.query.ns{op="))
        .map(|(_, h)| h.count())
        .sum();
    assert_eq!(
        per_op,
        count("serve.query.ns"),
        "per-op counts sum to the total"
    );
    // A dispatched request counts under its op even when it fails (the
    // second score lacks its `user`); an unknown op, a wrong version and
    // bad JSON never reach a handler.
    assert_eq!(count("serve.query.ns{op=score}"), 2);
    assert_eq!(count("serve.query.ns{op=error}"), 3);
    for op in ["status", "lockstep", "eval", "shutdown"] {
        assert_eq!(count(&format!("serve.query.ns{{op={op}}}")), 1, "{op}");
    }
}
