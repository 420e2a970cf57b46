//! Burst detection — the paper's most obvious exploitable signal.
//!
//! "Likes were garnered within a short period of time of two hours":
//! a page whose like stream concentrates in a tiny window was almost
//! certainly farm-boosted; an account whose own like stream does the same
//! is almost certainly a bot. Both detectors share one statistic: the share
//! of events inside the densest window.

use likelab_graph::{PageId, UserId};
use likelab_osn::densest::{densest_window, Densest};
use likelab_osn::OsnWorld;
use likelab_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Burst-detector parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct BurstConfig {
    /// Window length.
    pub window: SimDuration,
    /// Flag when the densest window holds at least this share of events.
    pub share_threshold: f64,
    /// Ignore streams with fewer events than this.
    pub min_events: usize,
}

impl Default for BurstConfig {
    fn default() -> Self {
        BurstConfig {
            window: SimDuration::hours(2),
            share_threshold: 0.4,
            min_events: 20,
        }
    }
}

/// A burst verdict.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct BurstVerdict {
    /// Share of events inside the densest window.
    pub peak_share: f64,
    /// Number of events examined.
    pub events: usize,
    /// Whether the stream is flagged as bursty.
    pub flagged: bool,
}

/// The densest-window share of a sorted-or-not time stream.
///
/// Sorts `times` in place, then runs the ledger's two-pointer kernel
/// ([`densest_window`]). The online detector ([`crate::online::OnlineBurst`])
/// runs the same kernel through the ledger's densest-window memo and
/// divides in the same float expression ([`Densest::share`]), which is what
/// makes their parity contract bitwise rather than approximate.
///
/// ```
/// use likelab_detect::burst::peak_share;
/// use likelab_sim::{SimDuration, SimTime};
///
/// let mut times = vec![
///     SimTime::at_day(9),
///     SimTime::at_day(1),
///     SimTime::at_day(1) + SimDuration::minutes(30),
/// ];
/// // 2 of 3 events fall inside one 2-hour window.
/// let share = peak_share(&mut times, SimDuration::hours(2));
/// assert!((share - 2.0 / 3.0).abs() < 1e-12);
/// ```
pub fn peak_share(times: &mut [SimTime], window: SimDuration) -> f64 {
    if times.is_empty() {
        return 0.0;
    }
    times.sort_unstable();
    Densest {
        likes: times.len(),
        peak: densest_window(times, window),
    }
    .share()
}

/// Judge a time stream.
///
/// Streams shorter than [`BurstConfig::min_events`] are never flagged and
/// report `peak_share` 0.0.
///
/// ```
/// use likelab_detect::burst::{judge, BurstConfig};
/// use likelab_sim::{SimDuration, SimTime};
///
/// let config = BurstConfig { min_events: 4, ..BurstConfig::default() };
/// // 4 likes within minutes of each other: a full-share burst.
/// let times: Vec<SimTime> = (0..4)
///     .map(|i| SimTime::at_day(2) + SimDuration::minutes(i))
///     .collect();
/// let v = judge(times, &config);
/// assert!(v.flagged);
/// assert_eq!(v.peak_share, 1.0);
/// assert_eq!(v.events, 4);
/// ```
pub fn judge(mut times: Vec<SimTime>, config: &BurstConfig) -> BurstVerdict {
    let events = times.len();
    if events < config.min_events {
        return BurstVerdict {
            peak_share: 0.0,
            events,
            flagged: false,
        };
    }
    let share = peak_share(&mut times, config.window);
    BurstVerdict {
        peak_share: share,
        events,
        flagged: share >= config.share_threshold,
    }
}

/// Judge a page's incoming like stream, optionally only counting likes
/// after `since` (so pre-existing organic history doesn't dilute a fresh
/// boost).
pub fn judge_page(
    world: &OsnWorld,
    page: PageId,
    since: Option<SimTime>,
    config: &BurstConfig,
) -> BurstVerdict {
    let times: Vec<SimTime> = world
        .likes()
        .page_times(page)
        .filter(|t| since.is_none_or(|s| *t >= s))
        .collect();
    judge(times, config)
}

/// Judge an account's outgoing like stream.
pub fn judge_account(world: &OsnWorld, user: UserId, config: &BurstConfig) -> BurstVerdict {
    let times: Vec<SimTime> = world.likes().user_times(user).collect();
    judge(times, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use likelab_osn::{ActorClass, Country, Gender, PageCategory, PrivacySettings, Profile};

    fn mk_world(n_users: u32, n_pages: u32) -> OsnWorld {
        let mut w = OsnWorld::new();
        for _ in 0..n_users {
            w.create_account(
                Profile {
                    gender: Gender::Male,
                    age: 20,
                    country: Country::Turkey,
                    home_region: 0,
                },
                ActorClass::Bot(1),
                PrivacySettings {
                    friend_list_public: true,
                    likes_public: true,
                    searchable: true,
                },
                SimTime::EPOCH,
            );
        }
        for i in 0..n_pages {
            w.create_page(
                format!("p{i}"),
                "",
                None,
                PageCategory::Background,
                SimTime::EPOCH,
            );
        }
        w
    }

    #[test]
    fn bursty_page_is_flagged_smooth_is_not() {
        let mut w = mk_world(120, 2);
        // Page 0: 100 likes within 1 hour. Page 1: 100 likes over 100 days.
        for i in 0..100u32 {
            w.record_like(
                UserId(i),
                PageId(0),
                SimTime::at_day(5) + SimDuration::secs(36 * u64::from(i)),
            );
            w.record_like(UserId(i), PageId(1), SimTime::at_day(u64::from(i)));
        }
        let cfg = BurstConfig::default();
        let v0 = judge_page(&w, PageId(0), None, &cfg);
        let v1 = judge_page(&w, PageId(1), None, &cfg);
        assert!(v0.flagged && v0.peak_share > 0.99);
        assert!(!v1.flagged && v1.peak_share < 0.05);
    }

    #[test]
    fn since_filter_isolates_the_boost() {
        let mut w = mk_world(120, 1);
        // 60 organic likes over 60 days, then 50 likes in one hour.
        for i in 0..60u32 {
            w.record_like(UserId(i), PageId(0), SimTime::at_day(u64::from(i)));
        }
        for i in 60..110u32 {
            w.record_like(
                UserId(i),
                PageId(0),
                SimTime::at_day(100) + SimDuration::secs(u64::from(i)),
            );
        }
        let cfg = BurstConfig::default();
        let all = judge_page(&w, PageId(0), None, &cfg);
        let fresh = judge_page(&w, PageId(0), Some(SimTime::at_day(99)), &cfg);
        assert!(all.peak_share < fresh.peak_share);
        assert!(fresh.flagged && fresh.peak_share > 0.99);
        assert!(all.flagged, "50/110 in one window still crosses 0.4");
    }

    #[test]
    fn small_streams_are_ignored() {
        let mut w = mk_world(5, 1);
        for i in 0..5u32 {
            w.record_like(UserId(i), PageId(0), SimTime::at_day(1));
        }
        let v = judge_page(&w, PageId(0), None, &BurstConfig::default());
        assert!(!v.flagged, "below min_events");
        assert_eq!(v.events, 5);
    }

    #[test]
    fn account_stream_burstiness() {
        let mut w = mk_world(1, 60);
        // Account 0 likes 30 pages in 30 minutes, then 30 pages monthly.
        for i in 0..30u32 {
            w.record_like(
                UserId(0),
                PageId(i),
                SimTime::at_day(3) + SimDuration::minutes(u64::from(i)),
            );
        }
        for i in 30..60u32 {
            w.record_like(
                UserId(0),
                PageId(i),
                SimTime::at_day(10 + 30 * u64::from(i)),
            );
        }
        let v = judge_account(&w, UserId(0), &BurstConfig::default());
        assert!(v.flagged);
        assert!((v.peak_share - 0.5).abs() < 0.02);
    }

    #[test]
    fn unsorted_input_is_handled() {
        let times = vec![
            SimTime::at_day(9),
            SimTime::at_day(1),
            SimTime::at_day(1) + SimDuration::minutes(5),
        ];
        let v = judge(
            times,
            &BurstConfig {
                min_events: 2,
                ..BurstConfig::default()
            },
        );
        assert!((v.peak_share - 2.0 / 3.0).abs() < 1e-12);
    }
}
