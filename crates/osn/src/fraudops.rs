//! The platform's anti-fraud operation: periodic termination sweeps.
//!
//! A month after the campaigns, the paper found 44 AuthenticLikes, 20
//! SocialFormula, and 9 MammothSocials accounts terminated — but only 1 from
//! BoostLikes and 11 from the Facebook campaigns. The interpretation: "bot-
//! like patterns are actually easy to detect", while stealth farms
//! "exhibit patterns closely resembling real users' behavior, thus making
//! fake like detection quite difficult".
//!
//! The sweep here scores *observable behaviour only* — burstiness of the
//! account's own like stream, friend count, account age, like volume —
//! never the ground-truth [`ActorClass`](crate::account::ActorClass). Bursty,
//! friend-poor, freshly created accounts accumulate hazard; embedded,
//! gradual accounts do not. The weights are calibrated so the monthly
//! termination rates land in the paper's regime.

use crate::densest::{densest_window, Densest, DensestWindows};
use crate::world::OsnWorld;
use likelab_graph::UserId;
use likelab_sim::{Rng, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Tunable sweep parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FraudOpsConfig {
    /// Baseline per-sweep termination hazard for any account.
    pub base_hazard: f64,
    /// Weight of like-stream burstiness (fraction of likes inside the
    /// account's densest window).
    pub burst_weight: f64,
    /// Weight of friend poverty (1 / (1 + degree / 10)).
    pub isolation_weight: f64,
    /// Extra hazard for accounts younger than `young_threshold`.
    pub youth_weight: f64,
    /// Account age below which the youth penalty applies.
    pub young_threshold: SimDuration,
    /// Weight of like volume (`min(1, like_count / volume_scale)`) — the
    /// strongest observable separator: disposable farm accounts carry
    /// thousands of likes, organic users a few dozen.
    pub volume_weight: f64,
    /// Like count at which the volume feature saturates.
    pub volume_scale: f64,
    /// Window for the burstiness feature.
    pub burst_window: SimDuration,
    /// Minimum likes before burstiness is considered meaningful.
    pub min_likes_for_burst: usize,
    /// Hazard cap per sweep.
    pub max_hazard: f64,
}

impl Default for FraudOpsConfig {
    fn default() -> Self {
        FraudOpsConfig {
            base_hazard: 2.0e-5,
            burst_weight: 3.0e-3,
            isolation_weight: 2.0e-3,
            youth_weight: 1.2e-3,
            young_threshold: SimDuration::days(150),
            volume_weight: 2.2e-3,
            volume_scale: 2_000.0,
            burst_window: SimDuration::hours(2),
            min_likes_for_burst: 5,
            max_hazard: 0.05,
        }
    }
}

/// Fraction of an account's likes that fall inside its densest
/// `window`-length stretch (0 when the account has fewer than `min_likes`).
/// A bot that fires its whole job list in two hours scores near 1.
/// Computed from scratch (sort the account's like times, run the kernel);
/// the sweep reads the same value from its memo.
pub fn like_stream_burstiness(
    world: &OsnWorld,
    user: UserId,
    window: SimDuration,
    min_likes: usize,
) -> f64 {
    let mut times: Vec<SimTime> = world.likes().user_times(user).collect();
    times.sort_unstable();
    let densest = Densest {
        likes: times.len(),
        peak: densest_window(&times, window),
    };
    burstiness(densest, min_likes)
}

/// The burstiness feature of a densest-window statistic.
fn burstiness(densest: Densest, min_likes: usize) -> f64 {
    if densest.likes < min_likes {
        return 0.0;
    }
    densest.share()
}

/// The hazard formula over precomputed features (the single definition both
/// the public per-account probe and the bulk sweep share, so they cannot
/// drift apart numerically).
fn hazard_value(
    c: &FraudOpsConfig,
    world: &OsnWorld,
    user: UserId,
    now: SimTime,
    burst: f64,
) -> f64 {
    let degree = world.total_friend_count(user) as f64;
    let isolation = 1.0 / (1.0 + degree / 10.0);
    let young = if now.saturating_since(world.created_at(user)) < c.young_threshold {
        1.0
    } else {
        0.0
    };
    let volume = (world.likes().user_like_count(user) as f64 / c.volume_scale).min(1.0);
    (c.base_hazard
        + c.burst_weight * burst
        + c.isolation_weight * isolation
        + c.youth_weight * young
        + c.volume_weight * volume)
        .min(c.max_hazard)
}

/// The anti-fraud operation.
///
/// Its RNG stream position ([`rng`](Self::rng)) is the only state a
/// checkpoint needs: the config is the study's, and the per-account
/// burstiness memo is a pure function of the ledger that rebuilds
/// identically after resume. It is not `Clone`, so the memo is never
/// copied.
#[derive(Debug)]
pub struct FraudOps {
    config: FraudOpsConfig,
    rng: Rng,
    /// Per-account densest-window memo over the ledger: a sweep settles
    /// each active account's, at O(new likes + window) for an account
    /// whose likes arrive in time order.
    burst: DensestWindows<UserId>,
}

impl FraudOps {
    /// A sweep engine with its own RNG stream.
    pub fn new(config: FraudOpsConfig, rng: Rng) -> Self {
        FraudOps {
            burst: DensestWindows::new(config.burst_window),
            config,
            rng,
        }
    }

    /// The sweep's RNG stream, at its current position.
    pub fn rng(&self) -> &Rng {
        &self.rng
    }

    /// Per-sweep hazard of one account at time `now`, from observable
    /// behaviour only.
    pub fn hazard(&self, world: &OsnWorld, user: UserId, now: SimTime) -> f64 {
        let c = &self.config;
        let burst = like_stream_burstiness(world, user, c.burst_window, c.min_likes_for_burst);
        hazard_value(c, world, user, now, burst)
    }

    /// Run one sweep over all active accounts, terminating by hazard.
    /// Returns the terminated ids.
    ///
    /// Scans the status column directly; an account terminated earlier in
    /// the same sweep cannot re-enter the candidate set, so the single pass
    /// draws the exact RNG sequence the old collect-then-score loop did.
    pub fn sweep(&mut self, world: &mut OsnWorld, now: SimTime) -> Vec<UserId> {
        let c = &self.config;
        let mut terminated = Vec::new();
        for i in 0..world.account_count() as u32 {
            let u = UserId(i);
            if !world.is_active(u) {
                continue;
            }
            let burst = burstiness(self.burst.settle(world.likes(), u), c.min_likes_for_burst);
            let h = hazard_value(c, world, u, now, burst);
            if self.rng.chance(h) {
                world.terminate_account(u, now);
                terminated.push(u);
            }
        }
        terminated
    }

    /// The burstiness the last sweep that reached `user` scored it with,
    /// read from the memo without settling it (`None` before any sweep).
    pub fn swept_burstiness(&self, user: UserId) -> Option<f64> {
        let densest = self.burst.settled(user)?;
        Some(burstiness(densest, self.config.min_likes_for_burst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::{ActorClass, PrivacySettings};
    use crate::demographics::{Country, Gender, Profile};
    use crate::page::PageCategory;
    use likelab_graph::PageId;

    fn privacy() -> PrivacySettings {
        PrivacySettings {
            friend_list_public: true,
            likes_public: true,
            searchable: true,
        }
    }

    fn profile() -> Profile {
        Profile {
            gender: Gender::Male,
            age: 20,
            country: Country::Turkey,
            home_region: 0,
        }
    }

    /// A world with one bursty friendless bot (u0) and one embedded
    /// gradual user (u1).
    fn contrast_world() -> OsnWorld {
        let mut w = OsnWorld::new();
        let bot = w.create_account(
            profile(),
            ActorClass::Bot(0),
            privacy(),
            SimTime::at_day(395),
        );
        let real = w.create_account(profile(), ActorClass::Organic, privacy(), SimTime::EPOCH);
        // Friends for the real user.
        for _ in 0..40 {
            let f = w.create_account(profile(), ActorClass::Organic, privacy(), SimTime::EPOCH);
            w.add_friendship(real, f);
        }
        // Pages.
        let pages: Vec<PageId> = (0..30)
            .map(|i| {
                w.create_page(
                    format!("p{i}"),
                    "",
                    None,
                    PageCategory::Background,
                    SimTime::EPOCH,
                )
            })
            .collect();
        // Bot: 30 likes within one hour on day 400.
        for (i, p) in pages.iter().enumerate() {
            w.record_like(
                bot,
                *p,
                SimTime::at_day(400) + SimDuration::minutes(2 * i as u64),
            );
        }
        // Real user: 30 likes spread over 300 days.
        for (i, p) in pages.iter().enumerate() {
            w.record_like(real, *p, SimTime::at_day(100 + 10 * i as u64));
        }
        w
    }

    #[test]
    fn burstiness_separates_bot_from_real() {
        let w = contrast_world();
        let b = like_stream_burstiness(&w, UserId(0), SimDuration::hours(2), 5);
        let r = like_stream_burstiness(&w, UserId(1), SimDuration::hours(2), 5);
        assert!(b > 0.9, "bot burstiness {b}");
        assert!(r < 0.1, "real burstiness {r}");
    }

    #[test]
    fn burstiness_needs_minimum_volume() {
        let mut w = OsnWorld::new();
        let u = w.create_account(profile(), ActorClass::Organic, privacy(), SimTime::EPOCH);
        let p = w.create_page("p", "", None, PageCategory::Background, SimTime::EPOCH);
        w.record_like(u, p, SimTime::EPOCH);
        assert_eq!(like_stream_burstiness(&w, u, SimDuration::hours(2), 5), 0.0);
    }

    #[test]
    fn hazard_orders_bot_above_real() {
        let w = contrast_world();
        let ops = FraudOps::new(FraudOpsConfig::default(), Rng::seed_from_u64(1));
        let now = SimTime::at_day(410);
        let hb = ops.hazard(&w, UserId(0), now);
        let hr = ops.hazard(&w, UserId(1), now);
        assert!(
            hb > hr * 5.0,
            "bot hazard {hb} should dwarf real hazard {hr}"
        );
    }

    #[test]
    fn sweeps_terminate_bots_far_more_often() {
        // Monte-Carlo over many fresh worlds: the bot should be terminated
        // at a much higher rate than the embedded user over ~4 sweeps.
        let mut bot_terms = 0;
        let mut real_terms = 0;
        for seed in 0..300 {
            let mut w = contrast_world();
            let mut ops = FraudOps::new(FraudOpsConfig::default(), Rng::seed_from_u64(seed));
            for week in 0..4 {
                ops.sweep(&mut w, SimTime::at_day(403 + week * 7));
            }
            if !w.account(UserId(0)).is_active() {
                bot_terms += 1;
            }
            if !w.account(UserId(1)).is_active() {
                real_terms += 1;
            }
        }
        assert!(
            bot_terms >= 2,
            "bots should get caught sometimes: {bot_terms}/300"
        );
        assert!(
            bot_terms > real_terms * 3,
            "bot {bot_terms} vs real {real_terms}"
        );
    }

    #[test]
    fn sweep_skips_already_terminated() {
        let mut w = contrast_world();
        w.terminate_account(UserId(0), SimTime::at_day(401));
        let mut ops = FraudOps::new(
            FraudOpsConfig {
                base_hazard: 1.0,
                ..FraudOpsConfig::default()
            },
            Rng::seed_from_u64(1),
        );
        let terminated = ops.sweep(&mut w, SimTime::at_day(402));
        assert!(!terminated.contains(&UserId(0)));
    }

    #[test]
    fn sweep_burst_cache_is_transparent() {
        // Same seed, same worlds: sweeps with warm incremental state must
        // terminate exactly the accounts a cold (post-resume) engine does,
        // with fresh likes landing between sweeps to exercise the fold.
        let mut wa = contrast_world();
        let mut wb = contrast_world();
        let mut warm = FraudOps::new(FraudOpsConfig::default(), Rng::seed_from_u64(7));
        let mut cold = FraudOps::new(FraudOpsConfig::default(), Rng::seed_from_u64(7));
        for week in 0..4u64 {
            let ta = warm.sweep(&mut wa, SimTime::at_day(403 + week * 7));
            cold.burst = DensestWindows::new(cold.config.burst_window);
            let tb = cold.sweep(&mut wb, SimTime::at_day(403 + week * 7));
            assert_eq!(ta, tb, "week {week}");
            for (w, ops_hazard) in [(&mut wa, &warm), (&mut wb, &cold)] {
                let p = w.create_page(
                    format!("new{week}"),
                    "",
                    None,
                    PageCategory::Background,
                    SimTime::at_day(404 + week * 7),
                );
                w.record_like(UserId(0), p, SimTime::at_day(404 + week * 7));
                // Uncached probe agrees with whatever the next sweep sees.
                let _ = ops_hazard.hazard(w, UserId(0), SimTime::at_day(405 + week * 7));
            }
        }
    }

    #[test]
    fn hazard_is_capped() {
        let w = contrast_world();
        let ops = FraudOps::new(
            FraudOpsConfig {
                burst_weight: 10.0,
                ..FraudOpsConfig::default()
            },
            Rng::seed_from_u64(1),
        );
        let h = ops.hazard(&w, UserId(0), SimTime::at_day(410));
        assert!(h <= FraudOpsConfig::default().max_hazard);
    }
}
