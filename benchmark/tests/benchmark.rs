//! The percentile helper, and every workload run through the binary at a
//! small scale, untraced and traced, against the metric names in
//! `BENCHMARK.json`.

use likelab_benchmark::stats::{nearest_rank, summarize, tail_per10k};
use serde::Value;
use std::path::PathBuf;
use std::process::Command;

#[test]
fn percentile_of_one_sample_is_that_sample() {
    let s = summarize(&mut [7]).expect("one sample");
    assert_eq!((s.n, s.p50, s.p90, s.p99), (1, 7, 7, 7));
    assert_eq!(s.tail_pct, 0.0, "no percentile has 10 samples beyond it");
    assert!(summarize(&mut []).is_none());
}

#[test]
fn percentile_of_ten_samples_is_nearest_rank() {
    let mut samples: Vec<u64> = (1..=10).rev().collect();
    let s = summarize(&mut samples).expect("ten samples");
    assert_eq!((s.p50, s.p90, s.p99), (5, 9, 10));
    assert_eq!(tail_per10k(10), None);
}

#[test]
fn percentile_with_ties_returns_the_tied_value() {
    let sorted = [5, 5, 5, 5, 9];
    assert_eq!(nearest_rank(&sorted, 5_000), 5);
    assert_eq!(nearest_rank(&sorted, 8_000), 5);
    assert_eq!(nearest_rank(&sorted, 9_000), 9);
}

#[test]
fn tail_needs_ten_samples_beyond_it() {
    assert_eq!(tail_per10k(19), None);
    assert_eq!(tail_per10k(20), Some(5_000));
    assert_eq!(tail_per10k(999), Some(9_000));
    assert_eq!(tail_per10k(1_000), Some(9_900));
    assert_eq!(tail_per10k(10_000), Some(9_990));
    // Rank arithmetic is exact: 99% of 1000 is rank 990, not 991.
    let sorted: Vec<u64> = (1..=1_000).collect();
    assert_eq!(nearest_rank(&sorted, 9_900), 990);
}

/// Metric names of one list in `BENCHMARK.json`.
fn declared(list: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let doc: Value = serde_json::from_str(&text).expect("parse BENCHMARK.json");
    let Some(Value::Array(metrics)) = doc.get(list) else {
        panic!("BENCHMARK.json lacks `{list}`");
    };
    metrics
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn number(v: &Value) -> f64 {
    match v {
        Value::Float(f) => *f,
        Value::UInt(n) => *n as f64,
        Value::Int(n) => *n as f64,
        other => panic!("not a number: {other:?}"),
    }
}

/// Run one workload at scale 0.01 and check its result line and record.
fn run(workload: &str, trace: bool) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{workload}-{trace}"));
    std::fs::create_dir_all(&dir).expect("test dir");
    let record_path = dir.join("record.json");
    let out = Command::new(env!("CARGO_BIN_EXE_likelab-benchmark"))
        .current_dir(&dir)
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--scale", "0.01"])
        .arg("--out")
        .arg(&record_path)
        .output()
        .expect("run likelab-benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} exited {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("result line is JSON");
    let Value::Object(fields) = &result else {
        panic!("the result line is not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(result.get("failed"), Some(&Value::UInt(0)));
    assert!(number(result.get("attempted").expect("attempted")) >= 1.0);

    let metrics = result.get("metrics").expect("metrics");
    let names = declared(if trace { "per_layer" } else { "end_to_end" });
    let Value::Object(reported) = metrics else {
        panic!("metrics is not an object")
    };
    assert_eq!(
        reported.len(),
        names.len(),
        "{workload}: extra or missing metrics"
    );
    for name in &names {
        let value = metrics
            .get(name)
            .and_then(|m| m.get("value"))
            .unwrap_or_else(|| panic!("{workload}: `{name}` missing"));
        assert!(
            number(value).is_finite(),
            "{workload}: `{name}` is not finite"
        );
        if !trace {
            assert!(number(value) > 0.0, "{workload}: `{name}` is 0");
        }
    }
    if trace {
        let dropped = metrics
            .get("trace.dropped_spans")
            .and_then(|m| m.get("value"));
        assert_eq!(dropped.map(number), Some(0.0), "{workload}: spans dropped");
    }

    let record: Value =
        serde_json::from_str(&std::fs::read_to_string(&record_path).expect("record written"))
            .expect("record is JSON");
    assert_eq!(record.get("scale").map(number), Some(0.01));
    assert_eq!(
        record.get("workload").and_then(Value::as_str),
        Some(workload)
    );
}

#[test]
fn scale_study_untraced() {
    run("scale_study", false);
}

#[test]
fn scale_study_traced() {
    run("scale_study", true);
}

#[test]
fn paper_log_untraced() {
    run("paper_log", false);
}

#[test]
fn paper_log_traced() {
    run("paper_log", true);
}

#[test]
fn serve_mixed_untraced() {
    run("serve_mixed", false);
}

#[test]
fn serve_mixed_traced() {
    run("serve_mixed", true);
}
