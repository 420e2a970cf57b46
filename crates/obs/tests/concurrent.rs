//! Concurrency tests for the metrics registry: many writer threads, one
//! merged snapshot, exact totals. This binary runs apart from the unit
//! tests, but its own tests run on parallel threads and each one resets,
//! enables and disables the process-global observability state, so they
//! take turns on [`SERIAL`].

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread;

const THREADS: usize = 8;
const INCREMENTS: u64 = 10_000;

/// Held for the whole of each test that touches the global state.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A test that panicked while holding the lock guards no data: the next
    // test resets the registry before it reads anything.
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn concurrent_writers_produce_exact_totals() {
    let _serial = serial();
    likelab_obs::reset();
    likelab_obs::enable();
    thread::scope(|scope| {
        for t in 0..THREADS {
            scope.spawn(move || {
                for i in 0..INCREMENTS {
                    likelab_obs::metrics::counter("cc.shared", 1);
                    likelab_obs::metrics::counter("cc.weighted", 3);
                    likelab_obs::metrics::record_ns("cc.hist", (t as u64) * INCREMENTS + i);
                    if i % 100 == 0 {
                        let _s = likelab_obs::span::enter("cc.span");
                    }
                }
            });
        }
    });
    likelab_obs::disable();
    let snap = likelab_obs::snapshot();

    let n = THREADS as u64 * INCREMENTS;
    assert_eq!(snap.counters["cc.shared"], n);
    assert_eq!(snap.counters["cc.weighted"], 3 * n);

    // Histogram totals are exact under the shard merge; values were the
    // distinct integers 0..n, so count, sum, min, and max are all known.
    let h = &snap.histograms["cc.hist"];
    assert_eq!(h.count(), n);
    assert_eq!(h.sum(), n * (n - 1) / 2);
    assert_eq!(h.min(), 0);
    assert_eq!(h.max(), n - 1);

    // Span aggregates count every span even if rings evicted some records.
    let spans_per_thread = INCREMENTS.div_ceil(100);
    assert_eq!(
        snap.span_stats["cc.span"].count,
        THREADS as u64 * spans_per_thread
    );
}

#[test]
fn snapshot_merge_is_shard_order_independent() {
    // Merging is built on Histogram::merge (associative + commutative) and
    // counter addition; interleave writers with snapshot readers to check a
    // mid-flight snapshot never panics and never over-counts.
    let _serial = serial();
    likelab_obs::reset();
    likelab_obs::enable();
    thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for i in 0..1_000u64 {
                    likelab_obs::metrics::counter("mid.count", 1);
                    likelab_obs::metrics::record_ns("mid.hist", i % 64);
                }
            });
        }
        for _ in 0..2 {
            scope.spawn(|| {
                for _ in 0..50 {
                    let snap = likelab_obs::snapshot();
                    let c = snap.counters.get("mid.count").copied().unwrap_or(0);
                    assert!(c <= 4_000, "snapshot over-counted: {c}");
                    if let Some(h) = snap.histograms.get("mid.hist") {
                        assert!(h.count() <= 4_000);
                        assert!(h.max() < 64);
                    }
                }
            });
        }
    });
    likelab_obs::disable();
    let snap = likelab_obs::snapshot();
    assert_eq!(snap.counters["mid.count"], 4_000);
    assert_eq!(snap.histograms["mid.hist"].count(), 4_000);
}
