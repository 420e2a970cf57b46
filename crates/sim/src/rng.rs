//! Deterministic random number generation.
//!
//! Every stochastic decision in the laboratory flows through [`Rng`], an
//! in-crate implementation of xoshiro256** seeded through SplitMix64. We
//! implement it here rather than depending on an external generator because
//! reproducibility is a first-class requirement: a `(seed, scale)` pair must
//! regenerate a bit-identical study forever, and external crates explicitly
//! reserve the right to change their streams between releases.
//!
//! Independent subsystems get *forked* child generators via [`Rng::fork`], so
//! adding randomness consumption to one subsystem does not perturb any other
//! subsystem's stream (a classic source of accidental non-reproducibility).

/// SplitMix64 step; used for seeding and for hashing fork labels.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive a stream seed for `(master, stream)` — e.g. one study run within a
/// seed sweep, or one shard of a partitioned workload.
///
/// Pure function of its inputs: sweep run `k` of master seed `m` sees the same
/// stream whether runs execute sequentially, in parallel, or in any subset.
/// Two SplitMix64 rounds separate master and stream contributions so that
/// `(m, k)` and `(m ^ x, k ^ x)` do not collide the way a plain XOR would.
pub fn derive_stream_seed(master: u64, stream: u64) -> u64 {
    let mut sm = master;
    let hashed_master = splitmix64(&mut sm);
    let mut mixed = hashed_master ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
    splitmix64(&mut mixed)
}

/// A deterministic xoshiro256** generator.
///
/// Streams are stable across releases of this crate (golden tests pin them).
/// Serializable so checkpoint/resume can freeze a stream mid-run and
/// continue it bit-exactly.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Create a generator from a 64-bit seed (expanded via SplitMix64, as the
    /// xoshiro authors recommend).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng { s }
    }

    /// Derive an independent child generator for the named subsystem.
    ///
    /// The child stream depends on this generator's *current* state and the
    /// label, so distinct labels (or distinct parents) give uncorrelated
    /// streams. Forking advances the parent by one draw.
    pub fn fork(&mut self, label: &str) -> Rng {
        let mixed = self.next_u64() ^ crate::event::fnv1a(label.bytes());
        Rng::seed_from_u64(mixed)
    }

    /// Derive an independent child generator for stream `index` *without*
    /// advancing this generator.
    ///
    /// This is the parallel-safe sibling of [`Rng::fork`]: because the parent
    /// state is only read, any number of workers can derive their streams from
    /// a shared snapshot, and the set of child streams depends only on the
    /// parent state and the indices — never on the order in which workers run.
    /// That property is what makes parallel runs bit-identical to sequential
    /// ones.
    ///
    /// ```
    /// use likelab_sim::Rng;
    ///
    /// let parent = Rng::seed_from_u64(42);
    /// // Splitting is read-only and a pure function of (state, index):
    /// let a = parent.split(0).next_u64();
    /// let b = parent.split(1).next_u64();
    /// assert_ne!(a, b, "distinct indices give distinct streams");
    /// assert_eq!(a, parent.split(0).next_u64(), "same index, same stream");
    /// ```
    pub fn split(&self, index: u64) -> Rng {
        // Hash the full 256-bit state down to 64 bits, then mix in the stream
        // index with an odd multiplier so neighbouring indices land far apart.
        let mut sm = self.s[0]
            ^ self.s[1].rotate_left(17)
            ^ self.s[2].rotate_left(31)
            ^ self.s[3].rotate_left(47);
        let folded = splitmix64(&mut sm);
        let mut mixed = folded ^ index.wrapping_mul(0xA24B_AED4_963E_E407);
        Rng::seed_from_u64(splitmix64(&mut mixed))
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let Rng {
            s: [s0, s1, s2, s3],
        } = self;
        let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = *s1 << 17;
        *s2 ^= *s0;
        *s3 ^= *s1;
        *s1 ^= *s2;
        *s0 ^= *s3;
        *s2 ^= t;
        *s3 = s3.rotate_left(45);
        result
    }

    /// Next raw 32-bit output (upper half of a 64-bit draw).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniform `f64` in `[0, 1)`, with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, bound)` using Lemire's unbiased method.
    ///
    /// # Panics
    /// Panics when `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Lemire's multiply-shift rejection method.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut low = m as u64;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// A uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics when `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.below(hi - lo)
    }

    /// A uniform `usize` index in `[0, len)`.
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// A Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// A uniform `f64` in `[lo, hi)`.
    pub fn f64_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "empty range [{lo}, {hi})");
        lo + (hi - lo) * self.f64()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// A uniformly chosen element, or `None` on an empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.index(slice.len())])
        }
    }

    /// `k` distinct elements sampled uniformly without replacement
    /// (selection sampling; preserves slice order in the result).
    ///
    /// Returns all elements when `k >= slice.len()`.
    pub fn sample_without_replacement<T: Clone>(&mut self, slice: &[T], k: usize) -> Vec<T> {
        let n = slice.len();
        if k >= n {
            return slice.to_vec();
        }
        let mut out = Vec::with_capacity(k);
        let mut remaining = n;
        let mut needed = k;
        for item in slice {
            if needed == 0 {
                break;
            }
            // P(select) = needed / remaining — classic Algorithm S.
            if self.below(remaining as u64) < needed as u64 {
                out.push(item.clone());
                needed -= 1;
            }
            remaining -= 1;
        }
        out
    }

    /// An index drawn according to non-negative `weights`, read from an
    /// iterator that is walked twice, so it must be cheap to clone: an
    /// array, a slice's `iter().copied()`, or a field of each record, with
    /// nothing collected first.
    ///
    /// # Panics
    /// Panics when `weights` is empty, contains a negative/non-finite value,
    /// or sums to zero.
    pub fn weighted_index<I>(&mut self, weights: I) -> usize
    where
        I: IntoIterator<Item = f64>,
        I::IntoIter: Clone,
    {
        let weights = weights.into_iter();
        assert!(
            weights.clone().next().is_some(),
            "weighted_index over no weights"
        );
        let mut total = 0.0;
        let mut last_positive = 0;
        for (i, w) in weights.clone().enumerate() {
            assert!(w.is_finite() && w >= 0.0, "weight {i} is invalid: {w}");
            total += w;
            if w > 0.0 {
                last_positive = i;
            }
        }
        assert!(total > 0.0, "weights sum to zero");
        let mut target = self.f64() * total;
        for (i, w) in weights.enumerate() {
            if target < w {
                return i;
            }
            target -= w;
        }
        // Floating-point slack: fall back to the last positive weight.
        last_positive
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_matches_reference_vectors() {
        // Reference outputs for seed 0 (Steele/Lea/Flood appendix, widely
        // cross-checked across implementations).
        let mut s = 0u64;
        assert_eq!(splitmix64(&mut s), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(&mut s), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(&mut s), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn xoshiro_stream_is_pinned() {
        // Golden values: once recorded, these must never change, or every
        // seeded experiment in the repository silently shifts.
        let mut rng = Rng::seed_from_u64(42);
        let first: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            first,
            vec![
                1546998764402558742,
                6990951692964543102,
                12544586762248559009,
                17057574109182124193,
            ]
        );
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        for _ in 0..1_000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn fork_streams_are_label_dependent_and_deterministic() {
        let mut parent1 = Rng::seed_from_u64(9);
        let mut parent2 = Rng::seed_from_u64(9);
        let mut c1 = parent1.fork("ads");
        let mut c2 = parent2.fork("ads");
        assert_eq!(c1.next_u64(), c2.next_u64());

        let mut parent3 = Rng::seed_from_u64(9);
        let mut other = parent3.fork("farms");
        let mut same_label = Rng::seed_from_u64(9).fork("ads");
        assert_ne!(other.next_u64(), same_label.next_u64());
    }

    #[test]
    fn split_does_not_advance_the_parent() {
        let parent = Rng::seed_from_u64(42);
        let mut advanced = parent.clone();
        let _ = parent.split(0);
        let _ = parent.split(1);
        // The parent state is untouched: it still produces the pinned stream.
        let mut untouched = parent.clone();
        for _ in 0..100 {
            assert_eq!(untouched.next_u64(), advanced.next_u64());
        }
    }

    #[test]
    fn split_streams_are_deterministic_and_index_dependent() {
        let parent = Rng::seed_from_u64(9);
        let mut a = parent.split(3);
        let mut b = Rng::seed_from_u64(9).split(3);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = parent.split(4);
        let mut d = parent.split(3);
        let same = (0..64).filter(|_| c.next_u64() == d.next_u64()).count();
        assert_eq!(same, 0, "distinct indices must give distinct streams");
    }

    #[test]
    fn split_order_is_irrelevant() {
        let parent = Rng::seed_from_u64(123);
        let forward: Vec<u64> = (0..8).map(|i| parent.split(i).next_u64()).collect();
        let backward: Vec<u64> = (0..8).rev().map(|i| parent.split(i).next_u64()).collect();
        let reversed: Vec<u64> = backward.into_iter().rev().collect();
        assert_eq!(forward, reversed);
    }

    #[test]
    fn derive_stream_seed_is_pure_and_spreads() {
        assert_eq!(derive_stream_seed(42, 0), derive_stream_seed(42, 0));
        let seeds: Vec<u64> = (0..64).map(|k| derive_stream_seed(42, k)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "stream seeds must be distinct");
        assert_ne!(derive_stream_seed(1, 0), derive_stream_seed(2, 0));
    }

    #[test]
    fn below_is_in_bounds_and_covers() {
        let mut rng = Rng::seed_from_u64(3);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let v = rng.below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|s| *s), "all residues should appear");
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut rng = Rng::seed_from_u64(11);
        let n = 100_000;
        let k = 10u64;
        let mut counts = vec![0u32; k as usize];
        for _ in 0..n {
            counts[rng.below(k) as usize] += 1;
        }
        let expected = n as f64 / k as f64;
        for c in counts {
            assert!(
                (f64::from(c) - expected).abs() < expected * 0.1,
                "bucket count {c} too far from {expected}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        Rng::seed_from_u64(0).below(0);
    }

    #[test]
    fn f64_is_in_unit_interval_with_plausible_mean() {
        let mut rng = Rng::seed_from_u64(5);
        let mut sum = 0.0;
        for _ in 0..100_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        assert!((sum / 100_000.0 - 0.5).abs() < 0.01);
    }

    #[test]
    fn chance_edges_are_exact() {
        let mut rng = Rng::seed_from_u64(0);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
    }

    #[test]
    fn chance_hits_probability() {
        let mut rng = Rng::seed_from_u64(8);
        let hits = (0..100_000).filter(|_| rng.chance(0.3)).count();
        assert!((hits as f64 / 100_000.0 - 0.3).abs() < 0.01);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from_u64(13);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "astronomically unlikely");
    }

    #[test]
    fn sample_without_replacement_is_distinct_and_sized() {
        let mut rng = Rng::seed_from_u64(17);
        let pop: Vec<u32> = (0..50).collect();
        let s = rng.sample_without_replacement(&pop, 20);
        assert_eq!(s.len(), 20);
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 20, "sample must be distinct");
        // Over-ask returns the whole population.
        assert_eq!(rng.sample_without_replacement(&pop, 99).len(), 50);
    }

    #[test]
    fn sample_without_replacement_is_uniform_ish() {
        let mut rng = Rng::seed_from_u64(19);
        let pop: Vec<usize> = (0..10).collect();
        let mut counts = [0u32; 10];
        for _ in 0..20_000 {
            for x in rng.sample_without_replacement(&pop, 3) {
                counts[x] += 1;
            }
        }
        // Each element picked with P = 3/10.
        for c in counts {
            assert!((f64::from(c) / 20_000.0 - 0.3).abs() < 0.02);
        }
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = Rng::seed_from_u64(23);
        let w = [1.0, 0.0, 3.0];
        let mut counts = [0u32; 3];
        for _ in 0..40_000 {
            counts[rng.weighted_index(w)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = f64::from(counts[2]) / f64::from(counts[0]);
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio} should be ~3");
    }

    #[test]
    #[should_panic(expected = "sum to zero")]
    fn weighted_index_rejects_all_zero() {
        Rng::seed_from_u64(0).weighted_index([0.0, 0.0]);
    }

    #[test]
    fn choose_empty_is_none() {
        let mut rng = Rng::seed_from_u64(1);
        assert_eq!(rng.choose::<u8>(&[]), None);
        assert_eq!(rng.choose(&[42]), Some(&42));
    }

    #[test]
    fn range_endpoints() {
        let mut rng = Rng::seed_from_u64(29);
        for _ in 0..1_000 {
            let v = rng.range(10, 12);
            assert!((10..12).contains(&v));
        }
    }
}
