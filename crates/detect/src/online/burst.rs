//! Online burst detection: verdicts on demand from the live world's like
//! ledger, through its densest-window memo.
//!
//! ## Parity contract
//!
//! [`judge`](crate::burst::judge) is a pure function of the *sorted
//! multiset* of timestamps: it sorts its input and takes the densest-window
//! share. So an online variant is bitwise-equal to the batch one iff, at
//! query time, it evaluates the same statistic over the same multiset. The
//! replica's ledger holds exactly the accepted likes, with every like's
//! time per account and per page, so this detector keeps no times of its
//! own: one [`DensestWindows`] memo per side (pages and accounts) settles
//! a stream when a verdict asks for it.
//!
//! - a stream whose likes arrived in time order (the overwhelmingly common
//!   case for a page's live stream) continues its two-pointer scan over
//!   the likes since the last verdict, at O(new likes + window);
//! - a stream that took a like out of order (farm accounts backfill
//!   camouflage histories with past timestamps) is sorted and scanned in
//!   full, as the batch judge does, once per change of its like count.
//!
//! Either way the verdict is the same kernel's count over the same sorted
//! timestamps, divided in the same float expression, so equality is exact,
//! not approximate.

use crate::burst::{BurstConfig, BurstVerdict};
use likelab_graph::{PageId, UserId};
use likelab_osn::densest::{Densest, DensestWindows};
use likelab_osn::OsnWorld;

/// Incremental burst detector over page and account like streams. See the
/// module docs for the parity contract.
///
/// ```
/// use likelab_detect::online::OnlineBurst;
/// use likelab_detect::BurstConfig;
/// use likelab_graph::PageId;
/// use likelab_osn::{ActorClass, Country, Gender, OsnWorld, PageCategory, PrivacySettings, Profile};
/// use likelab_sim::{SimDuration, SimTime};
///
/// let mut world = OsnWorld::new();
/// let page = world.create_page("p", "", None, PageCategory::Background, SimTime::EPOCH);
/// // 4 likes inside one 2-hour window: a full-share burst.
/// for i in 0..4 {
///     let user = world.create_account(
///         Profile { gender: Gender::Male, age: 30, country: Country::Usa, home_region: 0 },
///         ActorClass::Bot(0),
///         PrivacySettings { friend_list_public: true, likes_public: true, searchable: true },
///         SimTime::EPOCH,
///     );
///     world.record_like(user, page, SimTime::at_day(3) + SimDuration::minutes(i));
/// }
/// let config = BurstConfig { min_events: 4, ..BurstConfig::default() };
/// let mut online = OnlineBurst::new(config);
/// let v = online.page_verdict(&world, PageId(0));
/// assert!(v.flagged && v.peak_share == 1.0);
/// ```
#[derive(Debug)]
pub struct OnlineBurst {
    config: BurstConfig,
    pages: DensestWindows<PageId>,
    users: DensestWindows<UserId>,
}

impl OnlineBurst {
    /// An empty detector.
    pub fn new(config: BurstConfig) -> Self {
        OnlineBurst {
            config,
            pages: DensestWindows::new(config.window),
            users: DensestWindows::new(config.window),
        }
    }

    /// The configuration verdicts are judged under.
    pub fn config(&self) -> &BurstConfig {
        &self.config
    }

    /// The page's burst verdict over every like `world` holds — equal to
    /// [`crate::burst::judge_page`] with `since = None`. `world` is the
    /// replica every earlier verdict read, grown since.
    pub fn page_verdict(&mut self, world: &OsnWorld, page: PageId) -> BurstVerdict {
        verdict(self.pages.settle(world.likes(), page), &self.config)
    }

    /// The account's burst verdict — equal to
    /// [`crate::burst::judge_account`] on `world`.
    pub fn user_verdict(&mut self, world: &OsnWorld, user: UserId) -> BurstVerdict {
        verdict(self.users.settle(world.likes(), user), &self.config)
    }
}

/// The batch judge's verdict on a stream's densest-window statistic.
fn verdict(densest: Densest, config: &BurstConfig) -> BurstVerdict {
    let events = densest.likes;
    if events < config.min_events || events == 0 {
        // The batch judge reports an empty stream (reachable only with
        // `min_events == 0`) as share 0.0; `flagged` mirrors its threshold
        // comparison on that same value.
        return BurstVerdict {
            peak_share: 0.0,
            events,
            flagged: events == 0 && config.min_events == 0 && 0.0 >= config.share_threshold,
        };
    }
    let share = densest.share();
    BurstVerdict {
        peak_share: share,
        events,
        flagged: share >= config.share_threshold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::burst::judge;
    use likelab_osn::{ActorClass, Country, Gender, PageCategory, PrivacySettings, Profile};
    use likelab_sim::{Rng, SimTime};

    /// A world in which one account and one page take the same like
    /// stream: the first like joins them, and every later time is both a
    /// like of the page by a fresh account and a like of a fresh page by
    /// the account.
    struct Mirror {
        world: OsnWorld,
        user: UserId,
        page: PageId,
        fed: u32,
    }

    impl Mirror {
        fn new(user: u32, page: u32, likes: u32) -> Self {
            let mut world = OsnWorld::new();
            for _ in 0..user + likes {
                world.create_account(
                    Profile {
                        gender: Gender::Male,
                        age: 30,
                        country: Country::Usa,
                        home_region: 0,
                    },
                    ActorClass::Bot(0),
                    PrivacySettings {
                        friend_list_public: true,
                        likes_public: true,
                        searchable: true,
                    },
                    SimTime::EPOCH,
                );
            }
            for i in 0..page + likes {
                world.create_page(
                    format!("p{i}"),
                    "",
                    None,
                    PageCategory::Background,
                    SimTime::EPOCH,
                );
            }
            Mirror {
                world,
                user: UserId(user),
                page: PageId(page),
                fed: 0,
            }
        }

        fn feed(&mut self, at: SimTime) {
            let (user, page, i) = (self.user, self.page, self.fed);
            if i == 0 {
                assert!(self.world.record_like(user, page, at));
            } else {
                assert!(self.world.record_like(UserId(user.0 + i), page, at));
                assert!(self.world.record_like(user, PageId(page.0 + i), at));
            }
            self.fed += 1;
        }
    }

    /// Compare every intermediate verdict (not just end-of-stream) against
    /// the batch judge on the same prefix.
    fn assert_prefix_parity(times: &[SimTime], config: &BurstConfig) {
        let mut mirror = Mirror::new(0, 0, times.len() as u32);
        let mut online = OnlineBurst::new(*config);
        for (i, &at) in times.iter().enumerate() {
            mirror.feed(at);
            let batch_page = judge(times[..=i].to_vec(), config);
            let batch_user = judge(times[..=i].to_vec(), config);
            let w = &mirror.world;
            assert_eq!(online.page_verdict(w, PageId(0)), batch_page, "prefix {i}");
            assert_eq!(online.user_verdict(w, UserId(0)), batch_user, "prefix {i}");
        }
    }

    #[test]
    fn in_order_stream_matches_batch_at_every_prefix() {
        let times: Vec<SimTime> = (0..50).map(|i| SimTime::from_secs(i * 1800)).collect();
        assert_prefix_parity(
            &times,
            &BurstConfig {
                min_events: 5,
                ..BurstConfig::default()
            },
        );
    }

    #[test]
    fn out_of_order_backfill_matches_batch_at_every_prefix() {
        let mut rng = Rng::seed_from_u64(11);
        let times: Vec<SimTime> = (0..60)
            .map(|_| SimTime::from_secs(rng.below(20 * 86_400)))
            .collect();
        assert_prefix_parity(
            &times,
            &BurstConfig {
                min_events: 3,
                ..BurstConfig::default()
            },
        );
    }

    #[test]
    fn verdicts_are_bitwise_equal_not_just_close() {
        let mut rng = Rng::seed_from_u64(5);
        let times: Vec<SimTime> = (0..200)
            .map(|_| SimTime::from_secs(rng.below(5 * 86_400)))
            .collect();
        let config = BurstConfig::default();
        let mut mirror = Mirror::new(3, 7, times.len() as u32);
        for &at in &times {
            mirror.feed(at);
        }
        let mut online = OnlineBurst::new(config);
        let batch = judge(times, &config);
        let v = online.page_verdict(&mirror.world, PageId(7));
        assert_eq!(v.peak_share.to_bits(), batch.peak_share.to_bits());
        assert_eq!(online.user_verdict(&mirror.world, UserId(3)), batch);
    }

    #[test]
    fn unseen_entities_judge_as_empty_streams() {
        let mut online = OnlineBurst::new(BurstConfig::default());
        let v = online.page_verdict(&OsnWorld::new(), PageId(40));
        assert_eq!(v.events, 0);
        assert!(!v.flagged);
        assert_eq!(v.peak_share, 0.0);
    }

    #[test]
    fn repeated_queries_are_stable_after_resort() {
        let config = BurstConfig {
            min_events: 2,
            ..BurstConfig::default()
        };
        let mut online = OnlineBurst::new(config);
        let mut mirror = Mirror::new(0, 0, 3);
        mirror.feed(SimTime::at_day(5));
        mirror.feed(SimTime::at_day(1)); // backfill
        let first = online.page_verdict(&mirror.world, PageId(0));
        let second = online.page_verdict(&mirror.world, PageId(0));
        assert_eq!(first, second);
        // And further in-order appends extend the rebuilt state correctly.
        mirror.feed(SimTime::at_day(5));
        let batch = judge(
            vec![SimTime::at_day(5), SimTime::at_day(1), SimTime::at_day(5)],
            &config,
        );
        assert_eq!(online.page_verdict(&mirror.world, PageId(0)), batch);
    }
}
