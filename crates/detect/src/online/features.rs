//! Streaming feature extraction: the batch feature vector assembled from
//! the live world replica plus the incremental burst detector.
//!
//! ## Parity contract
//!
//! Four of the five features in [`AccountFeatures`] are point reads of
//! world state (friend count, like count, age, clustering) — on a replica
//! rebuilt from the same accepted events they are identical by
//! construction. The fifth, burstiness, is the account's
//! [`OnlineBurst`](super::OnlineBurst) verdict on the same replica, which
//! is bitwise-equal to the batch judge (see that module's contract). So
//! [`extract_online`] == [`extract`](crate::features::extract) exactly,
//! and feeding either vector to [`crate::scorer::score`] yields the same
//! fraud score bit for bit.

use super::OnlineBurst;
use crate::features::AccountFeatures;
use crate::scorer::{score, ScorerWeights};
use likelab_graph::UserId;
use likelab_osn::OsnWorld;
use likelab_sim::SimTime;

/// Extract one account's features at time `now`, reading world state from
/// the live replica and burstiness from the online burst detector's
/// verdict on it.
///
/// `burst` must have read no other world than `world` (grown since);
/// `now` is the stream watermark (at end-of-stream, the same study-end
/// clock the batch pipeline evaluates at). `neighbors` is scratch for the
/// clustering feature's neighbor list
/// ([`local_clustering`](likelab_graph::metrics::local_clustering)): pass
/// one buffer to every account scored.
///
/// ```
/// use likelab_detect::online::{extract_online, OnlineBurst};
/// use likelab_detect::BurstConfig;
/// use likelab_graph::UserId;
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
/// let mut burst = OnlineBurst::new(BurstConfig::default());
/// let f = extract_online(&world, &mut burst, u, SimTime::at_day(30), &mut Vec::new());
/// assert_eq!(f.age_days, 30.0);
/// assert_eq!(f.like_count, 0.0);
/// ```
pub fn extract_online(
    world: &OsnWorld,
    burst: &mut OnlineBurst,
    user: UserId,
    now: SimTime,
    neighbors: &mut Vec<UserId>,
) -> AccountFeatures {
    let acct = world.account(user);
    AccountFeatures {
        burstiness: burst.user_verdict(world, user).peak_share,
        friend_count: world.total_friend_count(user) as f64,
        like_count: world.likes().user_like_count(user) as f64,
        age_days: now.saturating_since(acct.created_at).as_days_f64(),
        clustering: likelab_graph::metrics::local_clustering(world.friends(), user, neighbors),
    }
}

/// [`extract_online`] piped through [`score`]: one account's fraud score
/// from the live state.
pub fn score_online(
    world: &OsnWorld,
    burst: &mut OnlineBurst,
    user: UserId,
    now: SimTime,
    weights: &ScorerWeights,
    neighbors: &mut Vec<UserId>,
) -> f64 {
    score(&extract_online(world, burst, user, now, neighbors), weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::burst::BurstConfig;
    use crate::features::extract;
    use likelab_graph::PageId;
    use likelab_osn::{ActorClass, Country, Gender, PageCategory, PrivacySettings, Profile};
    use likelab_sim::Rng;

    /// Build one world and check the batch and online feature vectors and
    /// scores over it agree bitwise.
    #[test]
    fn online_features_and_scores_match_batch_bitwise() {
        let mut w = OsnWorld::new();
        let mut users = Vec::new();
        for i in 0..12u32 {
            users.push(w.create_account(
                Profile {
                    gender: Gender::Female,
                    age: 18 + i as u8,
                    country: Country::Usa,
                    home_region: 0,
                },
                if i < 4 {
                    ActorClass::Bot(0)
                } else {
                    ActorClass::Organic
                },
                PrivacySettings {
                    friend_list_public: true,
                    likes_public: true,
                    searchable: true,
                },
                SimTime::at_day(u64::from(i)),
            ));
        }
        for i in 0..10u32 {
            w.create_page(
                format!("p{i}"),
                "",
                None,
                PageCategory::Background,
                SimTime::EPOCH,
            );
        }
        w.add_friendship(users[4], users[5]);
        w.add_friendship(users[4], users[6]);
        w.add_friendship(users[5], users[6]);
        w.set_off_network_friends(users[4], 50);
        let mut rng = Rng::seed_from_u64(21);
        let burst_cfg = BurstConfig {
            min_events: 3,
            ..BurstConfig::default()
        };
        let mut online = OnlineBurst::new(burst_cfg);
        for _ in 0..300 {
            let u = users[rng.index(users.len())];
            let p = PageId(rng.below(10) as u32);
            let at = SimTime::from_secs(rng.below(40 * 86_400));
            w.record_like(u, p, at);
        }
        let now = SimTime::at_day(41);
        let weights = ScorerWeights::default();
        let mut neighbors = Vec::new();
        for &u in &users {
            let batch_f = extract(&w, u, now, &burst_cfg);
            let online_f = extract_online(&w, &mut online, u, now, &mut neighbors);
            assert_eq!(
                batch_f.burstiness.to_bits(),
                online_f.burstiness.to_bits(),
                "user {u:?}"
            );
            assert_eq!(batch_f.friend_count, online_f.friend_count);
            assert_eq!(batch_f.like_count, online_f.like_count);
            assert_eq!(batch_f.age_days.to_bits(), online_f.age_days.to_bits());
            assert_eq!(batch_f.clustering.to_bits(), online_f.clustering.to_bits());
            let batch_score = score(&batch_f, &weights);
            let online_score = score_online(&w, &mut online, u, now, &weights, &mut neighbors);
            assert_eq!(batch_score.to_bits(), online_score.to_bits());
        }
    }
}
