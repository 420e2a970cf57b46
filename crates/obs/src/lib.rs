//! # likelab-obs — observability for the like-fraud laboratory
//!
//! A zero-external-dependency instrumentation layer the rest of the
//! workspace threads through its hot paths: hierarchical tracing spans, a
//! registry of named counters and histograms, and exporters to JSON and a
//! flame-style text tree. See `OBSERVABILITY.md` at the repository root for
//! naming conventions and worked examples.
//!
//! ## Design
//!
//! - **Off by default, near-free when off.** Every entry point starts with
//!   one relaxed atomic load of a global flag ([`enabled`]); when the flag
//!   is clear, [`span::enter`] returns an inert guard and
//!   [`metrics::counter`]/[`metrics::record_ns`] return immediately —
//!   no allocation, no locking, no clock read. A traced benchmark run
//!   reports the enabled cost as `trace.overhead_frac`.
//! - **Per-thread shards.** When enabled, each thread writes counters,
//!   histograms, span aggregates, and its span ring buffer into its *own*
//!   shard, so instrumented worker pools never contend with each other on
//!   the hot path; [`snapshot`] merges every shard (counters sum, histogram
//!   buckets add — an associative merge) into one consistent view.
//! - **Bounded memory.** Finished spans land in a fixed-capacity per-thread
//!   ring buffer (oldest evicted first, evictions counted), while per-name
//!   span *aggregates* (count + total wall time) are exact and unbounded —
//!   so the `--timing` table stays truthful even when a trace overflows.
//! - **Observability never perturbs results.** Nothing in this crate feeds
//!   back into simulation state or RNG streams; enabling it changes
//!   wall-clock only. Determinism tests run with it both off and on.
//!
//! ## Example
//!
//! ```
//! likelab_obs::reset();
//! likelab_obs::enable();
//! {
//!     let _outer = likelab_obs::span::enter("demo.outer");
//!     let _inner = likelab_obs::span::enter("demo.inner");
//!     likelab_obs::metrics::counter("demo.widgets", 3);
//!     likelab_obs::metrics::record_ns("demo.step.ns", 1_500);
//! }
//! let snap = likelab_obs::snapshot();
//! assert_eq!(snap.counters["demo.widgets"], 3);
//! assert_eq!(snap.span_stats["demo.inner"].count, 1);
//! // The inner span is a child of the outer one.
//! let inner = snap.spans.iter().find(|s| s.name == "demo.inner").unwrap();
//! let outer = snap.spans.iter().find(|s| s.name == "demo.outer").unwrap();
//! assert_eq!(inner.parent, Some(outer.id));
//! likelab_obs::disable();
//! ```

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::dbg_macro
)]
// Measuring wall time is this crate's job; what it measures never feeds a
// simulation result.
#![allow(clippy::disallowed_types)]

pub mod export;
pub mod metrics;
pub mod shard;
pub mod span;

pub use export::Snapshot;
pub use metrics::Histogram;
pub use span::{SpanGuard, SpanRecord, SpanStat};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn instrumentation on, process-wide.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turn instrumentation off, process-wide. Already-collected data stays
/// available to [`snapshot`] until [`reset`].
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether instrumentation is currently on. This is the only cost an
/// instrumented call site pays when observability is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds since the process-wide observability epoch (the first call
/// into this function). All span timestamps share this origin.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Merge every thread's shard into one consistent [`Snapshot`].
pub fn snapshot() -> Snapshot {
    shard::merge_all()
}

/// Clear all collected data in every shard (counters, histograms, span
/// aggregates, span rings). The enabled flag is left untouched.
pub fn reset() {
    shard::reset_all();
}

/// Open a named span for the rest of the enclosing scope.
///
/// Expands to a `let` binding of a [`SpanGuard`], so the span closes when
/// the scope ends. Use [`span::enter`] directly when the span must close
/// before the scope does.
///
/// ```
/// likelab_obs::reset();
/// likelab_obs::enable();
/// {
///     likelab_obs::span!("demo.phase");
///     // ... work ...
/// }
/// assert_eq!(likelab_obs::snapshot().span_stats["demo.phase"].count, 1);
/// likelab_obs::disable();
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        let _obs_span_guard = $crate::span::enter($name);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    // Global-state tests share one process with the other unit tests in
    // this crate; each locks the harness serially via shard::test_lock.

    #[test]
    fn disabled_is_inert() {
        let _guard = shard::test_lock();
        reset();
        disable();
        metrics::counter("never.recorded", 5);
        metrics::record_ns("never.recorded.ns", 5);
        {
            span!("never.recorded.span");
        }
        let snap = snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.span_stats.is_empty());
        assert!(snap.spans.is_empty());
    }

    #[test]
    fn enable_disable_round_trip() {
        let _guard = shard::test_lock();
        reset();
        enable();
        assert!(enabled());
        metrics::counter("rt.counter", 2);
        disable();
        assert!(!enabled());
        metrics::counter("rt.counter", 40);
        let snap = snapshot();
        assert_eq!(snap.counters["rt.counter"], 2, "post-disable write ignored");
    }

    #[test]
    fn now_ns_is_monotone() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
