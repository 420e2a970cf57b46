//! Exact order statistics over raw samples.
//!
//! Latencies are kept as raw `u64` samples and ranked exactly (nearest
//! rank), never read back from a bucketed histogram: with a few hundred
//! queries a log₂ histogram's "p99" is simply its slowest bucket.

/// Percentiles the tail is chosen from, in hundredths of a percent.
pub const LADDER: [u32; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// Samples that must lie beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted`: the smallest sample with
/// at least `per10k`/10000 of all samples at or below it.
///
/// # Panics
/// On an empty slice — a percentile of nothing is a caller bug.
pub fn nearest_rank(sorted: &[u64], per10k: u32) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), per10k) - 1]
}

/// 1-based nearest rank of percentile `per10k` among `n` samples.
fn rank(n: usize, per10k: u32) -> usize {
    (n * per10k as usize).div_ceil(10_000).clamp(1, n)
}

/// The highest [`LADDER`] percentile with at least [`MIN_BEYOND`] of `n`
/// samples ranked above it, if any.
pub fn tail_per10k(n: usize) -> Option<u32> {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && n - rank(n, p) >= MIN_BEYOND)
}

/// A latency distribution summarized the way the benchmark reports it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile (supported only when `tail_pct >= 99`).
    pub p99: u64,
    /// The highest supported percentile (see [`tail_per10k`]), as a
    /// percentage; 0 when no percentile has enough samples beyond it.
    pub tail_pct: f64,
}

/// Summarize raw samples (sorted in place). `None` when there are none.
pub fn summarize(samples: &mut [u64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    Some(Summary {
        n: samples.len(),
        p50: nearest_rank(samples, 5_000),
        p90: nearest_rank(samples, 9_000),
        p99: nearest_rank(samples, 9_900),
        tail_pct: tail_per10k(samples.len()).map_or(0.0, |p| f64::from(p) / 100.0),
    })
}

/// Median of `xs` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}
