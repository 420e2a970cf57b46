//! Delivery schedules: *when* the ordered likes land.
//!
//! The paper's Figure 2(b) shows the two signatures this module generates:
//!
//! - **Burst** — SocialFormula, AuthenticLikes, MammothSocials: "likes were
//!   garnered within a short period of time of two hours"; AuthenticLikes
//!   delivered 700+ likes within the first 4 hours of day 2 and then went
//!   silent.
//! - **Trickle** — BoostLikes: "the number of likes steadily increases
//!   during the observation period and no abrupt changes are observed",
//!   visually indistinguishable from a legitimate ad campaign.

use likelab_osn::densest::densest_window;
use likelab_sim::{Rng, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// How a farm paces an order.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum DeliveryStyle {
    /// Automated burst delivery: `bursts` windows of `window` length spread
    /// over `days`, first burst after `start_delay`.
    Burst {
        /// Days the delivery spans.
        days: u64,
        /// Number of burst windows.
        bursts: usize,
        /// Width of each burst window.
        window: SimDuration,
        /// Delay before the first burst.
        start_delay: SimDuration,
    },
    /// Human-paced trickle over `days`, near-linear.
    Trickle {
        /// Days the delivery spans.
        days: u64,
    },
}

/// Generate the like timestamps for `k` likes starting at `start`.
/// Returned times are sorted.
pub fn delivery_times(
    style: DeliveryStyle,
    k: usize,
    start: SimTime,
    rng: &mut Rng,
) -> Vec<SimTime> {
    let mut times = Vec::with_capacity(k);
    match style {
        DeliveryStyle::Burst {
            days,
            bursts,
            window,
            start_delay,
        } => {
            let bursts = bursts.max(1);
            let span = SimDuration::days(days.max(1)).saturating_sub(start_delay);
            // Burst window start offsets, spread over the span with jitter.
            let mut starts: Vec<SimTime> = (0..bursts)
                .map(|i| {
                    let stride = span / bursts as u64;
                    let jitter = SimDuration::secs(rng.below((stride.as_secs() / 2).max(1)));
                    start + start_delay + stride * i as u64 + jitter
                })
                .collect();
            starts.sort_unstable();
            // Split k across bursts, front-loaded (the first burst carries
            // most of the job, as observed for AuthenticLikes).
            let mut weights: Vec<f64> = (0..bursts)
                .map(|i| 1.0 / (i as f64 + 1.0) * rng.f64_range(0.7, 1.3))
                .collect();
            let total: f64 = weights.iter().sum();
            for w in &mut weights {
                *w /= total;
            }
            let mut assigned = 0usize;
            for (i, w) in weights.iter().enumerate() {
                let n = if i == bursts - 1 {
                    k - assigned
                } else {
                    ((k as f64) * w).round() as usize
                };
                let n = n.min(k - assigned);
                assigned += n;
                for _ in 0..n {
                    times.push(starts[i] + SimDuration::secs(rng.below(window.as_secs().max(1))));
                }
            }
        }
        DeliveryStyle::Trickle { days } => {
            let days = days.max(1);
            // Even daily quota with mild noise; uniform within each day.
            let per_day = k as f64 / days as f64;
            let mut remaining = k;
            for d in 0..days {
                let quota = if d == days - 1 {
                    remaining
                } else {
                    let noisy = per_day * rng.f64_range(0.8, 1.2);
                    (noisy.round() as usize).min(remaining)
                };
                remaining -= quota;
                for _ in 0..quota {
                    times.push(start + SimDuration::days(d) + SimDuration::secs(rng.below(86_400)));
                }
            }
        }
    }
    times.sort_unstable();
    times
}

/// Fraction of timestamps that fall inside the densest `window`-wide
/// stretch — the burstiness statistic used across analyses and tests.
pub fn peak_window_share(times: &[SimTime], window: SimDuration) -> f64 {
    if times.is_empty() {
        return 0.0;
    }
    let mut sorted = times.to_vec();
    sorted.sort_unstable();
    densest_window(&sorted, window) as f64 / sorted.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::seed_from_u64(0xFA12)
    }

    fn burst_style() -> DeliveryStyle {
        DeliveryStyle::Burst {
            days: 3,
            bursts: 3,
            window: SimDuration::hours(2),
            start_delay: SimDuration::hours(12),
        }
    }

    #[test]
    fn burst_times_are_concentrated() {
        let times = delivery_times(burst_style(), 1_000, SimTime::EPOCH, &mut rng());
        assert_eq!(times.len(), 1_000);
        let share = peak_window_share(&times, SimDuration::hours(2));
        assert!(share > 0.35, "densest 2h window holds {share} of likes");
        // Everything within the order's span.
        assert!(times
            .iter()
            .all(|t| t.since(SimTime::EPOCH) <= SimDuration::days(4)));
    }

    #[test]
    fn burst_respects_start_delay() {
        let times = delivery_times(burst_style(), 100, SimTime::at_day(10), &mut rng());
        assert!(times
            .iter()
            .all(|t| t.since(SimTime::at_day(10)) >= SimDuration::hours(12)));
    }

    #[test]
    fn trickle_is_spread_and_smooth() {
        let style = DeliveryStyle::Trickle { days: 15 };
        let times = delivery_times(style, 621, SimTime::EPOCH, &mut rng());
        assert_eq!(times.len(), 621);
        let share = peak_window_share(&times, SimDuration::hours(2));
        assert!(share < 0.05, "trickle peak share {share} should be tiny");
        // Likes on every one of the 15 days.
        let mut days_seen = std::collections::HashSet::new();
        for t in &times {
            days_seen.insert(t.day());
        }
        assert!(days_seen.len() >= 14, "active days {}", days_seen.len());
    }

    #[test]
    fn counts_are_exact() {
        for k in [0, 1, 7, 500] {
            assert_eq!(
                delivery_times(burst_style(), k, SimTime::EPOCH, &mut rng()).len(),
                k
            );
            assert_eq!(
                delivery_times(
                    DeliveryStyle::Trickle { days: 5 },
                    k,
                    SimTime::EPOCH,
                    &mut rng()
                )
                .len(),
                k
            );
        }
    }

    #[test]
    fn times_are_sorted() {
        for style in [burst_style(), DeliveryStyle::Trickle { days: 10 }] {
            let times = delivery_times(style, 300, SimTime::EPOCH, &mut rng());
            assert!(times.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn single_burst_everything_inside_window() {
        let style = DeliveryStyle::Burst {
            days: 1,
            bursts: 1,
            window: SimDuration::hours(4),
            start_delay: SimDuration::ZERO,
        };
        let times = delivery_times(style, 700, SimTime::EPOCH, &mut rng());
        let share = peak_window_share(&times, SimDuration::hours(4));
        assert!(
            (share - 1.0).abs() < 1e-12,
            "one burst = all inside: {share}"
        );
    }

    #[test]
    fn peak_share_edge_cases() {
        assert_eq!(peak_window_share(&[], SimDuration::HOUR), 0.0);
        assert_eq!(peak_window_share(&[SimTime::EPOCH], SimDuration::HOUR), 1.0);
    }
}
