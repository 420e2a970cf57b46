//! Property-based tests of the simulation kernel's invariants.

use likelab_sim::dist::{exponential, log_normal_median, Categorical, Zipf};
use likelab_sim::{EventQueue, Rng, SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    /// The same seed always regenerates the same stream — the foundation of
    /// every reproducibility claim in the repository.
    #[test]
    fn rng_streams_are_seed_deterministic(seed in any::<u64>()) {
        let mut a = Rng::seed_from_u64(seed);
        let mut b = Rng::seed_from_u64(seed);
        for _ in 0..64 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// `below(b)` is always strictly in range.
    #[test]
    fn below_is_in_range(seed in any::<u64>(), bound in 1u64..=1_000_000) {
        let mut rng = Rng::seed_from_u64(seed);
        for _ in 0..32 {
            prop_assert!(rng.below(bound) < bound);
        }
    }

    /// `f64()` stays in the half-open unit interval.
    #[test]
    fn unit_floats_are_in_range(seed in any::<u64>()) {
        let mut rng = Rng::seed_from_u64(seed);
        for _ in 0..64 {
            let x = rng.f64();
            prop_assert!((0.0..1.0).contains(&x));
        }
    }

    /// Shuffling permutes: the multiset of elements is preserved.
    #[test]
    fn shuffle_preserves_multiset(seed in any::<u64>(), mut v in prop::collection::vec(0u32..100, 0..50)) {
        let mut rng = Rng::seed_from_u64(seed);
        let mut expected = v.clone();
        rng.shuffle(&mut v);
        v.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(v, expected);
    }

    /// Sampling without replacement yields distinct elements of the right
    /// count, all drawn from the population.
    #[test]
    fn sampling_without_replacement_is_sound(
        seed in any::<u64>(),
        n in 0usize..60,
        k in 0usize..80,
    ) {
        let population: Vec<u32> = (0..n as u32).collect();
        let mut rng = Rng::seed_from_u64(seed);
        let sample = rng.sample_without_replacement(&population, k);
        prop_assert_eq!(sample.len(), k.min(n));
        let mut d = sample.clone();
        d.sort_unstable();
        d.dedup();
        prop_assert_eq!(d.len(), sample.len(), "distinct");
        prop_assert!(sample.iter().all(|x| (*x as usize) < n));
    }

    /// Fork with the same label from the same parent state matches; a
    /// different label diverges.
    #[test]
    fn forks_are_label_stable(seed in any::<u64>()) {
        let mut p1 = Rng::seed_from_u64(seed);
        let mut p2 = Rng::seed_from_u64(seed);
        let mut a = p1.fork("x");
        let mut b = p2.fork("x");
        prop_assert_eq!(a.next_u64(), b.next_u64());
        let mut p3 = Rng::seed_from_u64(seed);
        let mut c = p3.fork("y");
        let mut d = Rng::seed_from_u64(seed).fork("x");
        prop_assert_ne!(c.next_u64(), d.next_u64());
    }

    /// The event queue pops in non-decreasing time order, whatever the push
    /// order, and same-time events keep FIFO order.
    #[test]
    fn queue_pops_sorted_and_stable(times in prop::collection::vec(0u64..1_000, 0..100)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.push(SimTime::from_secs(*t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(t >= lt, "time order");
                if t == lt {
                    prop_assert!(i > li, "FIFO on ties");
                }
            }
            last = Some((t, i));
        }
    }

    /// Time arithmetic round-trips.
    #[test]
    fn time_add_sub_roundtrip(base in 0u64..1_000_000_000, d in 0u64..1_000_000) {
        let t = SimTime::from_secs(base);
        let dur = SimDuration::secs(d);
        prop_assert_eq!((t + dur) - dur, t);
        prop_assert_eq!((t + dur).since(t), dur);
        prop_assert_eq!(t.saturating_since(t + dur), SimDuration::ZERO);
    }

    /// Day bucketing is consistent with seconds arithmetic.
    #[test]
    fn day_bucketing(secs in 0u64..10_000_000) {
        let t = SimTime::from_secs(secs);
        prop_assert_eq!(t.day(), secs / 86_400);
        prop_assert!(t.as_days_f64() >= t.day() as f64);
        prop_assert!(t.as_days_f64() < (t.day() + 1) as f64);
    }

    /// Samplers never produce out-of-domain values.
    #[test]
    fn distributions_stay_in_domain(seed in any::<u64>(), n in 1usize..500, s in 0.0f64..2.5) {
        let mut rng = Rng::seed_from_u64(seed);
        let zipf = Zipf::new(n, s);
        for _ in 0..32 {
            prop_assert!(zipf.sample(&mut rng) < n);
        }
        prop_assert!(exponential(&mut rng, 0.5 + s) >= 0.0);
        prop_assert!(log_normal_median(&mut rng, 34.0, 1.0) > 0.0);
    }

    /// Categorical sampling only returns configured outcomes, and never an
    /// outcome with zero weight.
    #[test]
    fn categorical_respects_support(
        seed in any::<u64>(),
        weights in prop::collection::vec(0.0f64..10.0, 1..20),
    ) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let pairs: Vec<(usize, f64)> = weights.iter().copied().enumerate().collect();
        let cat = Categorical::new(&pairs);
        let mut rng = Rng::seed_from_u64(seed);
        for _ in 0..64 {
            let o = cat.sample(&mut rng);
            prop_assert!(o < weights.len());
            prop_assert!(weights[o] > 0.0, "zero-weight outcome drawn");
        }
    }
}
