//! Samplers for the distributions the generative models need.
//!
//! The population synthesizer draws demographics from categorical marginals,
//! page popularity follows a Zipf law, per-user like counts are log-normal
//! (heavy-tailed, strictly positive — the paper observed 1 to 10,000 page
//! likes per user), and organic activity is a Poisson process drawn as
//! exponential gaps. Everything takes the crate [`Rng`] so seeded runs stay
//! reproducible.

use crate::rng::Rng;

/// Draw from an exponential distribution with the given rate (λ > 0).
///
/// # Panics
/// Panics when `rate` is not strictly positive and finite.
pub fn exponential(rng: &mut Rng, rate: f64) -> f64 {
    assert!(
        rate.is_finite() && rate > 0.0,
        "exponential rate must be positive, got {rate}"
    );
    // Inverse CDF; 1 - f64() is in (0, 1], so ln() is finite.
    -(1.0 - rng.f64()).ln() / rate
}

/// Draw from a standard normal via the Marsaglia polar method.
pub fn standard_normal(rng: &mut Rng) -> f64 {
    loop {
        let u = 2.0 * rng.f64() - 1.0;
        let v = 2.0 * rng.f64() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Draw from a normal with the given mean and standard deviation (σ ≥ 0).
pub fn normal(rng: &mut Rng, mean: f64, std_dev: f64) -> f64 {
    assert!(
        std_dev.is_finite() && std_dev >= 0.0,
        "standard deviation must be non-negative, got {std_dev}"
    );
    mean + std_dev * standard_normal(rng)
}

/// Draw from a log-normal with the given parameters of the *underlying*
/// normal (`mu`, `sigma`). The median of the distribution is `exp(mu)`.
pub fn log_normal(rng: &mut Rng, mu: f64, sigma: f64) -> f64 {
    normal(rng, mu, sigma).exp()
}

/// Log-normal parameterized by its median and the multiplicative spread
/// `sigma` (in log-space). Convenient for calibrating to published medians,
/// e.g. "median page-like count 34".
pub fn log_normal_median(rng: &mut Rng, median: f64, sigma: f64) -> f64 {
    assert!(median > 0.0, "log-normal median must be positive");
    log_normal(rng, median.ln(), sigma)
}

/// Draws an index with probability proportional to its weight, by
/// inverse-CDF search over the cumulative weights. It is the one search
/// behind [`Zipf`], [`Categorical`] and the Chung–Lu graph generator's
/// endpoint draws.
///
/// Large samplers carry an equi-spaced bucket index over the cumulative
/// range, narrowing each draw's binary search from the full array to a
/// handful of elements: the background-page sampler is hit once per
/// synthesized like, so this is a hot path at scale. A target's bucket is
/// one multiply away. The index only engages when the cumulative array is
/// strictly increasing, and every bucket bound is checked against the
/// actual target before use, so the returned index is always exactly the
/// one the plain full-range search yields.
#[derive(Clone, Debug)]
pub struct WeightedIndex {
    cumulative: Vec<f64>,
    /// The last cumulative weight: the sum of all weights.
    total: f64,
    /// `INDEX_BUCKETS / total`: a target times this is its bucket.
    bucket_scale: f64,
    /// `buckets[k]` = first index whose cumulative weight reaches
    /// `total * k / INDEX_BUCKETS`; empty when the index is disabled.
    buckets: Vec<u32>,
    /// Cumulative weights are strictly increasing (no zero weights, no
    /// weight lost to rounding), which licenses the `partition_point`
    /// formulation.
    strict: bool,
}

/// Arrays shorter than this search the full array directly: the index
/// only pays for itself once the array outgrows a few cache lines.
const INDEX_MIN_WEIGHTS: usize = 256;

/// Bucket count of the sampler's acceleration index.
const INDEX_BUCKETS: usize = 2048;

impl WeightedIndex {
    /// Build from the weights, in index order. Callers check the weights
    /// themselves (finite and non-negative), each with its own message.
    ///
    /// # Panics
    /// Panics when there are no weights.
    pub fn new(weights: impl IntoIterator<Item = f64>) -> Self {
        let mut total = 0.0;
        let cumulative: Vec<f64> = weights
            .into_iter()
            .map(|w| {
                total += w;
                total
            })
            .collect();
        assert!(!cumulative.is_empty(), "weighted index over no weights");
        let strict = cumulative.windows(2).all(|w| w[0] < w[1]);
        let mut buckets = Vec::new();
        if strict && cumulative.len() >= INDEX_MIN_WEIGHTS {
            buckets = (0..=INDEX_BUCKETS)
                .map(|k| {
                    let thr = total * (k as f64 / INDEX_BUCKETS as f64);
                    cumulative.partition_point(|c| *c < thr) as u32
                })
                .collect();
        }
        WeightedIndex {
            cumulative,
            total,
            bucket_scale: INDEX_BUCKETS as f64 / total,
            buckets,
            strict,
        }
    }

    /// The sum of all weights.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Sample an index.
    #[inline]
    pub fn sample(&self, rng: &mut Rng) -> usize {
        self.index_for(rng.f64() * self.total)
    }

    /// The index for an inverse-CDF target in `[0, total)`: the first
    /// cumulative weight strictly above the target, clamped to the last
    /// index.
    fn index_for(&self, target: f64) -> usize {
        let n = self.cumulative.len();
        // With strictly increasing weights, the `binary_search_by(total_cmp)`
        // + Ok/Err mapping of the non-strict path below reduces to "number
        // of weights <= target" (clamped): an exact hit at `i` maps to
        // `i + 1`, a miss to its insertion point — both equal that count.
        if !self.buckets.is_empty() {
            let k = ((target * self.bucket_scale) as usize).min(INDEX_BUCKETS - 1);
            let (lo, hi) = (self.buckets[k] as usize, self.buckets[k + 1] as usize);
            // Guard the narrowed range against float slop at bucket
            // boundaries: everything before `lo` must be <= target and
            // everything from `hi` on must be > target, otherwise fall
            // through to the full search.
            if (lo == 0 || self.cumulative[lo - 1] <= target)
                && (hi == n || self.cumulative[hi] > target)
            {
                let p = lo + self.cumulative[lo..hi].partition_point(|c| *c <= target);
                return p.min(n - 1);
            }
        }
        if self.strict {
            return self.cumulative.partition_point(|c| *c <= target).min(n - 1);
        }
        match self.cumulative.binary_search_by(|c| c.total_cmp(&target)) {
            Ok(i) => (i + 1).min(n - 1),
            Err(i) => i.min(n - 1),
        }
    }
}

/// A Zipf sampler over ranks `1..=n` with exponent `s`, built once and reused
/// (rejection-free inverse-CDF over precomputed cumulative weights).
///
/// Page popularity in the background catalogue follows this law: a few pages
/// are liked by everyone, most are liked by almost no one.
#[derive(Clone, Debug)]
pub struct Zipf {
    index: WeightedIndex,
}

impl Zipf {
    /// Build a sampler over `n` ranks with exponent `s`.
    ///
    /// # Panics
    /// Panics when `n == 0` or `s` is negative/non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over zero ranks");
        assert!(s.is_finite() && s >= 0.0, "Zipf exponent must be >= 0");
        Zipf {
            index: WeightedIndex::new((1..=n).map(|rank| 1.0 / (rank as f64).powf(s))),
        }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.index.cumulative.len()
    }

    /// True when there is exactly one rank (degenerate sampler).
    pub fn is_empty(&self) -> bool {
        false // construction guarantees n > 0
    }

    /// Sample a 0-based rank (0 is the most popular).
    #[inline]
    pub fn sample(&self, rng: &mut Rng) -> usize {
        self.index.sample(rng)
    }
}

/// A categorical distribution with named outcomes, sampled via cumulative
/// weights. Used for demographics marginals (country, gender, age bracket).
#[derive(Clone, Debug)]
pub struct Categorical<T: Clone> {
    outcomes: Vec<T>,
    index: WeightedIndex,
}

impl<T: Clone> Categorical<T> {
    /// Build from `(outcome, weight)` pairs. Weights need not sum to one.
    ///
    /// # Panics
    /// Panics when empty, when a weight is negative/non-finite, or when all
    /// weights are zero.
    pub fn new(pairs: &[(T, f64)]) -> Self {
        assert!(!pairs.is_empty(), "categorical over no outcomes");
        let index = WeightedIndex::new(pairs.iter().map(|&(_, w)| {
            assert!(w.is_finite() && w >= 0.0, "invalid weight {w}");
            w
        }));
        assert!(index.total() > 0.0, "categorical weights sum to zero");
        Categorical {
            outcomes: pairs.iter().map(|(o, _)| o.clone()).collect(),
            index,
        }
    }

    /// Sample an outcome.
    pub fn sample(&self, rng: &mut Rng) -> T {
        self.outcomes[self.index.sample(rng)].clone()
    }

    /// The outcomes, in construction order.
    pub fn outcomes(&self) -> &[T] {
        &self.outcomes
    }

    /// The probability of outcome `i`.
    pub fn probability(&self, i: usize) -> f64 {
        let cumulative = &self.index.cumulative;
        let prev = if i == 0 { 0.0 } else { cumulative[i - 1] };
        (cumulative[i] - prev) / self.index.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::seed_from_u64(0xD15EA5E)
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut r = rng();
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| exponential(&mut r, 2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} should be ~0.5");
    }

    #[test]
    fn exponential_is_positive() {
        let mut r = rng();
        assert!((0..10_000).all(|_| exponential(&mut r, 0.1) >= 0.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn exponential_rejects_zero_rate() {
        exponential(&mut rng(), 0.0);
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| normal(&mut r, 3.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.03, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn log_normal_median_calibration() {
        let mut r = rng();
        let n = 100_001;
        let mut xs: Vec<f64> = (0..n)
            .map(|_| log_normal_median(&mut r, 34.0, 1.2))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[n / 2];
        assert!(
            (median / 34.0 - 1.0).abs() < 0.05,
            "median {median} should be ~34"
        );
        assert!(xs.iter().all(|x| *x > 0.0));
    }

    #[test]
    fn zipf_rank_one_dominates() {
        let z = Zipf::new(1_000, 1.0);
        let mut r = rng();
        let n = 100_000;
        let mut counts = vec![0u32; 1_000];
        for _ in 0..n {
            counts[z.sample(&mut r)] += 1;
        }
        // Under Zipf(s=1, n=1000), P(rank 1) = 1/H_1000 ≈ 0.1336.
        let p1 = f64::from(counts[0]) / n as f64;
        assert!((p1 - 0.1336).abs() < 0.01, "P(rank 1) = {p1}");
        // Monotone-ish decay: first rank beats the 100th by a wide margin.
        assert!(counts[0] > counts[99] * 10);
    }

    #[test]
    fn zipf_uniform_when_s_zero() {
        let z = Zipf::new(10, 0.0);
        let mut r = rng();
        let mut counts = vec![0u32; 10];
        for _ in 0..50_000 {
            counts[z.sample(&mut r)] += 1;
        }
        for c in counts {
            assert!((f64::from(c) / 50_000.0 - 0.1).abs() < 0.01);
        }
    }

    /// The historical inverse-CDF mapping every sampler used: the first
    /// cumulative weight strictly above the target, clamped.
    fn reference_index(cumulative: &[f64], target: f64) -> usize {
        let n = cumulative.len();
        match cumulative.binary_search_by(|c| c.total_cmp(&target)) {
            Ok(i) => (i + 1).min(n - 1),
            Err(i) => i.min(n - 1),
        }
    }

    /// Checks `index_for` against [`reference_index`] on random targets,
    /// every `stride`-th cumulative weight, and the neighborhoods of the
    /// index's bucket boundaries.
    fn assert_matches_reference(w: &WeightedIndex, stride: usize, r: &mut Rng) {
        let total = w.total();
        assert_eq!(
            w.cumulative.last().map(|c| c.to_bits()),
            Some(total.to_bits())
        );
        let mut targets: Vec<f64> = (0..20_000).map(|_| r.f64() * total).collect();
        for k in 0..=64 {
            let thr = total * (k as f64 / 64.0);
            targets.extend([thr, thr.next_down(), thr.next_up()]);
        }
        for c in w.cumulative.iter().step_by(stride) {
            targets.extend([*c, c.next_down(), c.next_up()]);
        }
        for target in targets {
            let target = target.clamp(0.0, total);
            assert_eq!(
                w.index_for(target),
                reference_index(&w.cumulative, target),
                "n={} t={target}",
                w.cumulative.len()
            );
        }
    }

    #[test]
    fn zipf_index_matches_plain_binary_search() {
        // The bucket index must return exactly the rank the historical
        // full-array search picked, target for target — including exact
        // cumulative values and bucket-boundary neighborhoods.
        for (n, s) in [(300usize, 1.0), (1_000, 0.8), (50_000, 1.0), (255, 1.2)] {
            let z = Zipf::new(n, s);
            assert_eq!(z.index.buckets.is_empty(), n < INDEX_MIN_WEIGHTS);
            assert_matches_reference(&z.index, 7, &mut rng());
        }
        // 322 unit weights put the cumulative sum 161 exactly on bucket
        // 1024's threshold, while 161 * (2048 / 322) rounds below 1024: the
        // target's bucket is one too low, and only the guard keeps the
        // index exact.
        assert_matches_reference(&WeightedIndex::new([1.0; 322]), 1, &mut rng());
    }

    proptest::proptest! {
        /// Any weights, zero weights included (anywhere: first, last, in
        /// runs), map every target to the index the historical search
        /// picked. Arrays long enough for the bucket index and free of
        /// zeros exercise the indexed path; the others the full searches.
        #[test]
        fn weighted_index_matches_the_historical_search(
            raw in proptest::prop::collection::vec((0u32..4, 0.0f64..10.0), 1..700),
            zeros in proptest::prelude::any::<bool>(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let weights = raw.iter().map(|&(pick, w)| if zeros && pick == 0 { 0.0 } else { w + 1e-3 });
            let w = WeightedIndex::new(weights);
            if w.total() > 0.0 {
                assert_matches_reference(&w, 1, &mut Rng::seed_from_u64(seed));
            }
        }
    }

    #[test]
    fn zipf_single_rank() {
        let z = Zipf::new(1, 1.5);
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(z.sample(&mut r), 0);
        }
    }

    #[test]
    fn categorical_frequencies_match_weights() {
        let c = Categorical::new(&[("a", 1.0), ("b", 2.0), ("c", 7.0)]);
        let mut r = rng();
        let n = 100_000;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..n {
            *counts.entry(c.sample(&mut r)).or_insert(0u32) += 1;
        }
        assert!((f64::from(counts["a"]) / n as f64 - 0.1).abs() < 0.01);
        assert!((f64::from(counts["b"]) / n as f64 - 0.2).abs() < 0.01);
        assert!((f64::from(counts["c"]) / n as f64 - 0.7).abs() < 0.01);
    }

    #[test]
    fn categorical_zero_weight_is_never_drawn() {
        let c = Categorical::new(&[(1u8, 0.0), (2u8, 1.0)]);
        let mut r = rng();
        for _ in 0..10_000 {
            assert_eq!(c.sample(&mut r), 2);
        }
    }

    #[test]
    fn categorical_probability_accessor() {
        let c = Categorical::new(&[("x", 3.0), ("y", 1.0)]);
        assert!((c.probability(0) - 0.75).abs() < 1e-12);
        assert!((c.probability(1) - 0.25).abs() < 1e-12);
        assert_eq!(c.outcomes(), &["x", "y"]);
    }

    #[test]
    #[should_panic(expected = "sum to zero")]
    fn categorical_rejects_all_zero() {
        let _ = Categorical::new(&[("a", 0.0)]);
    }
}
