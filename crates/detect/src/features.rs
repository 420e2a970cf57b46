//! Per-account feature extraction — the signals the paper says detection
//! "can and should" exploit: burstiness, friend counts, like volume,
//! account age, and social embedding.

use crate::burst::{judge_account, BurstConfig};
use likelab_graph::UserId;
use likelab_osn::OsnWorld;
use likelab_sim::SimTime;
use serde::{Deserialize, Serialize};

/// The feature vector of one account.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct AccountFeatures {
    /// Share of the account's likes inside its densest 2-hour window.
    pub burstiness: f64,
    /// Total friend count (in-world + off-network, as the profile shows).
    pub friend_count: f64,
    /// Total page-like count.
    pub like_count: f64,
    /// Account age in days at evaluation time.
    pub age_days: f64,
    /// Local clustering coefficient of the in-world neighborhood — farm
    /// pairs/triplets and hub-stars cluster very differently from organic
    /// communities.
    pub clustering: f64,
}

/// Extract features for one account at time `now`.
///
/// ```
/// use likelab_detect::features::extract;
/// use likelab_detect::BurstConfig;
/// use likelab_osn::{
///     ActorClass, Country, Gender, OsnWorld, PrivacySettings, Profile,
/// };
/// use likelab_sim::SimTime;
///
/// let mut world = OsnWorld::new();
/// let u = world.create_account(
///     Profile { gender: Gender::Male, age: 30, country: Country::Usa, home_region: 0 },
///     ActorClass::Organic,
///     PrivacySettings { friend_list_public: true, likes_public: true, searchable: true },
///     SimTime::EPOCH,
/// );
/// world.set_off_network_friends(u, 40);
/// let f = extract(&world, u, SimTime::at_day(10), &BurstConfig::default());
/// assert_eq!(f.age_days, 10.0);
/// assert_eq!(f.friend_count, 40.0);
/// assert_eq!(f.like_count, 0.0);
/// ```
pub fn extract(
    world: &OsnWorld,
    user: UserId,
    now: SimTime,
    burst: &BurstConfig,
) -> AccountFeatures {
    let acct = world.account(user);
    AccountFeatures {
        burstiness: judge_account(world, user, burst).peak_share,
        friend_count: world.total_friend_count(user) as f64,
        like_count: world.likes().user_like_count(user) as f64,
        age_days: now.saturating_since(acct.created_at).as_days_f64(),
        clustering: likelab_graph::metrics::local_clustering(
            world.friends(),
            user,
            &mut Vec::new(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use likelab_graph::PageId;
    use likelab_osn::{ActorClass, Country, Gender, PageCategory, PrivacySettings, Profile};
    use likelab_sim::SimDuration;

    #[test]
    fn features_reflect_account_shape() {
        let mut w = OsnWorld::new();
        let mk = |w: &mut OsnWorld, created: SimTime| {
            w.create_account(
                Profile {
                    gender: Gender::Female,
                    age: 30,
                    country: Country::Usa,
                    home_region: 0,
                },
                ActorClass::Organic,
                PrivacySettings {
                    friend_list_public: true,
                    likes_public: true,
                    searchable: true,
                },
                created,
            )
        };
        let bot = mk(&mut w, SimTime::at_day(98));
        let a = mk(&mut w, SimTime::EPOCH);
        let b = mk(&mut w, SimTime::EPOCH);
        let c = mk(&mut w, SimTime::EPOCH);
        // Triangle around `a`.
        w.add_friendship(a, b);
        w.add_friendship(a, c);
        w.add_friendship(b, c);
        w.set_off_network_friends(a, 100);
        // Bot: 30 likes in 30 minutes.
        for i in 0..30 {
            let p = w.create_page(
                format!("p{i}"),
                "",
                None,
                PageCategory::Background,
                SimTime::EPOCH,
            );
            w.record_like(bot, p, SimTime::at_day(100) + SimDuration::minutes(i));
        }
        // `a`: 3 likes spread out.
        for i in 0..3u32 {
            w.record_like(a, PageId(i), SimTime::at_day(10 * u64::from(i)));
        }
        let now = SimTime::at_day(101);
        let cfg = BurstConfig {
            min_events: 3,
            ..BurstConfig::default()
        };
        let fb = extract(&w, bot, now, &cfg);
        let fa = extract(&w, a, now, &cfg);
        assert!(fb.burstiness > 0.99);
        assert!(fa.burstiness < 0.4);
        assert!((fb.age_days - 3.0).abs() < 1e-9);
        assert!((fa.age_days - 101.0).abs() < 1e-9);
        assert_eq!(fa.friend_count, 102.0, "2 in-world + 100 off-network");
        assert_eq!(fb.friend_count, 0.0);
        assert_eq!(fb.like_count, 30.0);
        assert!((fa.clustering - 1.0).abs() < 1e-12, "triangle");
    }
}
