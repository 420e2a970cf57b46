//! Per-layer numbers read from an obs [`Snapshot`] taken around one timed
//! phase, and the snapshot's `layers` JSON form.
//!
//! The benchmark adds no spans to the program: every name below is a span,
//! counter or histogram the program already records.

use likelab_obs::Snapshot;
use serde::Value;
use std::collections::{BTreeMap, HashMap};

/// Per-layer metric ← span total, in seconds.
const SPANS: &[(&str, &str)] = &[
    ("study.population_s", "study.population"),
    ("population.synthesize_s", "population.synthesize"),
    ("population.accounts_s", "population.accounts"),
    ("population.graph_s", "population.graph"),
    ("population.likes_s", "population.likes"),
    ("population.likes.sort_s", "population.likes.sort"),
    ("population.likes.ingest_s", "population.likes.ingest"),
    ("study.promotions_s", "study.promotions"),
    ("promotions.farm_s", "promotions.farm"),
    ("study.event_loop_s", "study.event_loop"),
    ("study.sweep_s", "study.sweep"),
    ("study.poll_s", "study.poll"),
    ("study.collection_s", "study.collection"),
    ("study.report_s", "study.report"),
];

/// Per-layer metric ← span self time (total minus same-thread children),
/// in seconds.
const SELF_SPANS: &[(&str, &str)] = &[("study.event_loop.self_s", "study.event_loop")];

/// Per-layer metric ← counter.
const COUNTERS: &[(&str, &str)] = &[
    ("study.events_fired", "study.events.fired"),
    ("parallel.jobs", "parallel.jobs.completed"),
    ("log.records", "log.append"),
];

/// Per-layer metric ← histogram sum of nanoseconds, in seconds.
const HISTOGRAM_SECONDS: &[(&str, &str)] = &[
    ("parallel.queue_wait_s", "parallel.job.queue_ns"),
    ("parallel.busy_s", "parallel.worker.busy_ns"),
    ("replay.fold_s", "log.replay.ns"),
];

/// The report sections timed by `report.section.ns{section=…}`.
pub const REPORT_SECTIONS: [&str; 13] = [
    "crawl",
    "figure1",
    "figure2",
    "figure3_direct",
    "figure3_twohop",
    "figure4",
    "figure5_pages",
    "figure5_users",
    "table1",
    "table2",
    "table3",
    "termination",
    "totals",
];

/// Total seconds spent in spans named `name`.
pub fn span_s(snap: &Snapshot, name: &str) -> f64 {
    snap.span_stats
        .get(name)
        .map_or(0.0, |s| s.total_ns as f64 / 1e9)
}

/// Self nanoseconds of every span, by name: each span's duration minus
/// the durations of its children on the same thread. Exact only when no
/// span was dropped from the rings (`snap.dropped_spans == 0`).
pub fn self_ns(snap: &Snapshot) -> BTreeMap<&str, u64> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in &snap.spans {
        if let Some(parent) = s.parent {
            *child_ns.entry(parent).or_default() += s.dur_ns;
        }
    }
    let mut out: BTreeMap<&str, u64> = BTreeMap::new();
    for s in &snap.spans {
        let own = s
            .dur_ns
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *out.entry(s.name.as_str()).or_default() += own;
    }
    out
}

/// Every per-layer metric this snapshot can supply, by metric name.
pub fn extract(snap: &Snapshot) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for (metric, span) in SPANS {
        out.push((metric.to_string(), span_s(snap, span)));
    }
    let selfs = self_ns(snap);
    for (metric, span) in SELF_SPANS {
        let ns = selfs.get(span).copied().unwrap_or(0);
        out.push((metric.to_string(), ns as f64 / 1e9));
    }
    for (metric, counter) in COUNTERS {
        let n = snap.counters.get(*counter).copied().unwrap_or(0);
        out.push((metric.to_string(), n as f64));
    }
    for (metric, hist) in HISTOGRAM_SECONDS {
        let ns = snap.histograms.get(*hist).map_or(0, |h| h.sum());
        out.push((metric.to_string(), ns as f64 / 1e9));
    }
    for section in REPORT_SECTIONS {
        let name = format!("report.section.ns{{section={section}}}");
        let ns = snap.histograms.get(&name).map_or(0, |h| h.sum());
        out.push((format!("report.section.{section}_us"), ns as f64 / 1e3));
    }
    out
}

/// The snapshot as JSON: spans → `{total_ns, count, self_ns}`, counters,
/// histograms → `{count, sum}`, and the dropped-span count.
pub fn to_json(snap: &Snapshot) -> Value {
    let selfs = self_ns(snap);
    let spans = snap
        .span_stats
        .iter()
        .map(|(name, s)| {
            let fields = vec![
                ("total_ns".to_string(), Value::UInt(s.total_ns)),
                ("count".to_string(), Value::UInt(s.count)),
                (
                    "self_ns".to_string(),
                    Value::UInt(selfs.get(name.as_str()).copied().unwrap_or(0)),
                ),
            ];
            (name.clone(), Value::Object(fields))
        })
        .collect();
    let counters = snap
        .counters
        .iter()
        .map(|(name, n)| (name.clone(), Value::UInt(*n)))
        .collect();
    let histograms = snap
        .histograms
        .iter()
        .map(|(name, h)| {
            let fields = vec![
                ("count".to_string(), Value::UInt(h.count())),
                ("sum".to_string(), Value::UInt(h.sum())),
            ];
            (name.clone(), Value::Object(fields))
        })
        .collect();
    Value::Object(vec![
        ("spans".into(), Value::Object(spans)),
        ("counters".into(), Value::Object(counters)),
        ("histograms".into(), Value::Object(histograms)),
        ("dropped_spans".into(), Value::UInt(snap.dropped_spans)),
    ])
}
