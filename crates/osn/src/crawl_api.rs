//! The public crawl surface: what a Selenium-driven browser could see.
//!
//! Everything the study's data collection does goes through here, and the
//! privacy rules are enforced *at this boundary* (not baked into the data),
//! so the visibility ablation can dial them. The API also injects crawl
//! faults and counts requests — the paper's crawler was throttled,
//! rate-limited, and occasionally down, and the measurement pipeline has to
//! cope.
//!
//! Faults come in three regimes, all deterministic functions of the API's
//! RNG streams and the simulation clock (see [`FaultProfile`]):
//!
//! - **transient noise** — the pre-existing per-request Bernoulli coin
//!   (timeouts, layout changes);
//! - **rate-limit windows** — at most N requests per sim-hour, rejections
//!   carry a retry-after hint;
//! - **outage intervals** — bursty up/down windows sampled from an
//!   exponential on/off process on a dedicated RNG stream.
//!
//! Determinism contract: the transient coin is the *only* consumer of the
//! request RNG stream, exactly one draw per non-throttled request, so a
//! profile with rate limits and outages disabled reproduces the historical
//! stream byte-for-byte. Backoff jitter draws from a separate
//! [`Rng::split`] stream and never perturbs request outcomes.

use crate::account::AccountStatus;
use crate::world::OsnWorld;
use likelab_graph::{PageId, UserId};
use likelab_sim::{Rng, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Why a crawl request yielded nothing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrawlError {
    /// Transient failure (timeout, layout change...). Retry later.
    Transient,
    /// Throttled: the per-hour request window is exhausted. The hint says
    /// how long until the window resets.
    RateLimited {
        /// Time until the request window rolls over.
        retry_after: SimDuration,
    },
    /// The crawl target is inside an outage window; nothing gets through.
    Outage,
    /// The profile no longer exists — the account was terminated.
    Gone,
}

impl CrawlError {
    /// True for errors a retry can overcome (everything but [`CrawlError::Gone`]).
    pub fn is_retryable(self) -> bool {
        !matches!(self, CrawlError::Gone)
    }
}

impl std::fmt::Display for CrawlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CrawlError::Transient => f.write_str("transient crawl failure"),
            CrawlError::RateLimited { retry_after } => {
                write!(f, "rate limited (retry after {}s)", retry_after.as_secs())
            }
            CrawlError::Outage => f.write_str("crawl target unreachable (outage)"),
            CrawlError::Gone => f.write_str("profile gone (account terminated)"),
        }
    }
}

impl std::error::Error for CrawlError {}

/// A privacy-filtered public view of a profile.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PublicProfile {
    /// Whose profile this is.
    pub user: UserId,
    /// In-world friend list, when public.
    pub friends: Option<Vec<UserId>>,
    /// Total friend count shown on the profile (in-world plus off-network),
    /// when the friend list is public.
    pub total_friend_count: Option<usize>,
    /// Liked pages, when public.
    pub liked_pages: Option<Vec<PageId>>,
}

/// Rate-limit regime: throttle after `max_per_hour` requests in any
/// sim-hour window (fixed windows aligned to the hour).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RateLimitRegime {
    /// Requests allowed per sim-hour window.
    pub max_per_hour: u32,
}

/// Outage regime: alternating up/down windows with exponentially
/// distributed lengths, sampled once from a dedicated RNG stream.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct OutageRegime {
    /// Mean length of an up (reachable) window.
    pub mean_uptime: SimDuration,
    /// Mean length of a down (outage) window.
    pub mean_downtime: SimDuration,
}

/// The full fault configuration of the crawl surface. [`Default`] disables
/// the rate-limit and outage regimes, leaving only transient noise — the
/// historical behavior.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultProfile {
    /// Rate-limit windows, when enabled.
    pub rate_limit: Option<RateLimitRegime>,
    /// Bursty outage intervals, when enabled.
    pub outage: Option<OutageRegime>,
}

impl FaultProfile {
    /// True when neither the rate-limit nor the outage regime is active.
    pub fn is_quiet(&self) -> bool {
        self.rate_limit.is_none() && self.outage.is_none()
    }
}

/// Crawl-surface configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct CrawlConfig {
    /// Probability any single request fails transiently (background noise).
    pub failure_prob: f64,
    /// Structured fault regimes layered on top of the noise.
    pub faults: FaultProfile,
}

impl Default for CrawlConfig {
    fn default() -> Self {
        CrawlConfig {
            failure_prob: 0.01,
            faults: FaultProfile::default(),
        }
    }
}

impl CrawlConfig {
    /// A perfectly reliable crawl surface (no faults at all).
    pub fn clean() -> Self {
        CrawlConfig {
            failure_prob: 0.0,
            faults: FaultProfile::default(),
        }
    }

    /// Only transient background noise at probability `p`.
    pub fn noise(p: f64) -> Self {
        CrawlConfig {
            failure_prob: p,
            faults: FaultProfile::default(),
        }
    }

    /// All three regimes at `intensity` in `[0, 1]`: transient noise up to
    /// 15%, rate limits tightening toward 60 requests/sim-hour, outages
    /// covering up to ~1/3 of wall time in multi-hour bursts.
    pub fn chaos(intensity: f64) -> Self {
        let i = intensity.clamp(0.0, 1.0);
        CrawlConfig {
            failure_prob: 0.02 + 0.13 * i,
            faults: FaultProfile {
                rate_limit: Some(RateLimitRegime {
                    max_per_hour: (600.0 - 540.0 * i) as u32,
                }),
                outage: Some(OutageRegime {
                    mean_uptime: SimDuration::hours((36.0 - 24.0 * i) as u64),
                    mean_downtime: SimDuration::hours((2.0 + 4.0 * i) as u64),
                }),
            },
        }
    }

    /// A named fault profile, the CLI's `--fault-profile` vocabulary:
    /// `none` (clean), `default` (1% noise), `throttled` (noise + tight
    /// rate limit), `flaky` (noise + outages), `chaos` (everything, at
    /// elevated intensity).
    pub fn named(name: &str) -> Option<Self> {
        Some(match name {
            "none" => CrawlConfig::clean(),
            "default" => CrawlConfig::default(),
            "throttled" => CrawlConfig {
                failure_prob: 0.01,
                faults: FaultProfile {
                    rate_limit: Some(RateLimitRegime { max_per_hour: 120 }),
                    outage: None,
                },
            },
            "flaky" => CrawlConfig {
                failure_prob: 0.05,
                faults: FaultProfile {
                    rate_limit: None,
                    outage: Some(OutageRegime {
                        mean_uptime: SimDuration::hours(20),
                        mean_downtime: SimDuration::hours(4),
                    }),
                },
            },
            "chaos" => CrawlConfig::chaos(0.75),
            _ => return None,
        })
    }
}

/// Retry behavior for [`CrawlApi::profile_with_retry`]: capped attempts
/// with jittered exponential backoff on the virtual crawl clock.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Maximum attempts per target (at least 1).
    pub attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_backoff: SimDuration,
    /// Backoff ceiling.
    pub max_backoff: SimDuration,
    /// Jitter fraction in `[0, 1]`: each wait is scaled by a uniform factor
    /// in `[1 - jitter/2, 1 + jitter/2]`.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 5,
            base_backoff: SimDuration::secs(30),
            max_backoff: SimDuration::hours(1),
            jitter: 0.5,
        }
    }
}

/// Request accounting, split by outcome. The invariant `requests ==
/// successes + failures()` always holds; `gone` responses count as
/// successes at the transport level (the server answered).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrawlStats {
    /// Total requests issued.
    pub requests: u64,
    /// Requests that got an answer (including `Gone` responses).
    pub successes: u64,
    /// Transient-noise failures.
    pub transient: u64,
    /// Requests rejected by the rate limiter.
    pub rate_limited: u64,
    /// Requests swallowed by an outage window.
    pub outage: u64,
    /// `Gone` responses (terminated profiles) — a subset of `successes`.
    pub gone: u64,
    /// Retry attempts beyond each target's first request.
    pub retries: u64,
    /// Total virtual time spent waiting in backoff.
    pub backoff_total: SimDuration,
}

impl CrawlStats {
    /// Failed requests across all fault regimes.
    pub fn failures(&self) -> u64 {
        self.transient + self.rate_limited + self.outage
    }
}

/// The deterministic on/off outage process. Queries are expected with
/// non-decreasing `now` (the event loop is monotone); the schedule only
/// ever advances.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct OutageSchedule {
    regime: OutageRegime,
    rng: Rng,
    /// End of the current segment.
    segment_end: SimTime,
    /// Whether the current segment is a down window.
    down: bool,
}

impl OutageSchedule {
    fn new(regime: OutageRegime, mut rng: Rng) -> Self {
        let first_up = Self::sample(&mut rng, regime.mean_uptime);
        OutageSchedule {
            regime,
            rng,
            segment_end: SimTime::EPOCH + first_up,
            down: false,
        }
    }

    /// An exponential draw with the given mean, at least one second.
    fn sample(rng: &mut Rng, mean: SimDuration) -> SimDuration {
        let u = rng.f64();
        let secs = -(1.0 - u).ln() * mean.as_secs() as f64;
        SimDuration::secs((secs.round() as u64).max(1))
    }

    fn is_down(&mut self, now: SimTime) -> bool {
        while now >= self.segment_end {
            self.down = !self.down;
            let mean = if self.down {
                self.regime.mean_downtime
            } else {
                self.regime.mean_uptime
            };
            let len = Self::sample(&mut self.rng, mean);
            self.segment_end += len;
        }
        self.down
    }
}

/// The crawl API: a stateful client with request accounting and fault
/// injection, reading privacy-filtered views of the world.
///
/// Every request method takes the current simulation time; the rate-limit
/// and outage regimes are functions of the clock.
///
/// Serializable so checkpoint/resume can freeze a client mid-run — the RNG
/// streams, outage schedule position, rate-limit window, and stats all
/// travel with it, keeping the resumed fault stream byte-identical.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CrawlApi {
    config: CrawlConfig,
    rng: Rng,
    /// Jitter-only stream: consumed by backoff waits, never by request
    /// outcomes, so enabling retries cannot perturb the fault stream.
    backoff_rng: Rng,
    outage: Option<OutageSchedule>,
    /// Start of the current rate-limit window (aligned to the sim-hour).
    window_start: SimTime,
    window_requests: u32,
    stats: CrawlStats,
}

impl CrawlApi {
    /// A client with the given config and its own RNG stream.
    pub fn new(config: CrawlConfig, rng: Rng) -> Self {
        // Derived via the read-only `split` so the request stream is
        // byte-identical to a client without these side streams.
        let backoff_rng = rng.split(0x0BAC_00FF);
        let outage = config
            .faults
            .outage
            .map(|regime| OutageSchedule::new(regime, rng.split(0x00D0_D0D0)));
        CrawlApi {
            config,
            rng,
            backoff_rng,
            outage,
            window_start: SimTime::EPOCH,
            window_requests: 0,
            stats: CrawlStats::default(),
        }
    }

    /// Request accounting so far.
    pub fn stats(&self) -> &CrawlStats {
        &self.stats
    }

    /// Total requests issued.
    pub fn requests(&self) -> u64 {
        self.stats.requests
    }

    /// Failures injected, across all fault regimes.
    pub fn failures(&self) -> u64 {
        self.stats.failures()
    }

    /// One fault-injection gate: outage, then rate limit, then transient
    /// noise. Exactly one `rng` draw happens per request that reaches the
    /// noise gate, which keeps quiet-profile streams reproducible.
    fn roll(&mut self, now: SimTime) -> Result<(), CrawlError> {
        self.stats.requests += 1;
        likelab_obs::metrics::counter("crawl.requests", 1);
        if let Some(schedule) = &mut self.outage {
            if schedule.is_down(now) {
                self.stats.outage += 1;
                likelab_obs::metrics::counter("crawl.failures{kind=outage}", 1);
                return Err(CrawlError::Outage);
            }
        }
        if let Some(limit) = self.config.faults.rate_limit {
            let window = SimTime::from_secs((now.as_secs() / 3_600) * 3_600);
            if window != self.window_start {
                self.window_start = window;
                self.window_requests = 0;
            }
            self.window_requests += 1;
            if self.window_requests > limit.max_per_hour {
                self.stats.rate_limited += 1;
                likelab_obs::metrics::counter("crawl.failures{kind=rate_limited}", 1);
                let retry_after =
                    SimDuration::secs(3_600u64.saturating_sub(now.as_secs() - window.as_secs()));
                return Err(CrawlError::RateLimited { retry_after });
            }
        }
        if self.rng.chance(self.config.failure_prob) {
            self.stats.transient += 1;
            likelab_obs::metrics::counter("crawl.failures{kind=transient}", 1);
            Err(CrawlError::Transient)
        } else {
            self.stats.successes += 1;
            Ok(())
        }
    }

    /// The current visible likers of a page (active accounts only, in like
    /// order) — what the Selenium crawler scraped every two hours.
    pub fn page_likers(
        &mut self,
        world: &OsnWorld,
        page: PageId,
        now: SimTime,
    ) -> Result<Vec<UserId>, CrawlError> {
        self.roll(now)?;
        Ok(world.visible_likers(page))
    }

    /// A profile's public view. Terminated profiles return [`CrawlError::Gone`]
    /// (this is how the paper counted terminated accounts a month later).
    pub fn profile(
        &mut self,
        world: &OsnWorld,
        user: UserId,
        now: SimTime,
    ) -> Result<PublicProfile, CrawlError> {
        self.roll(now)?;
        let acct = world.account(user);
        if let AccountStatus::Terminated(_) = acct.status {
            self.stats.gone += 1;
            return Err(CrawlError::Gone);
        }
        let (friends, total_friend_count) = if acct.privacy.friend_list_public {
            let visible: Vec<UserId> = world
                .friends()
                .neighbors(user, &mut Vec::new())
                .iter()
                .copied()
                // Friends who are terminated disappear from the list too.
                .filter(|f| world.account(*f).is_active())
                .collect();
            let total = visible.len() + acct.off_network_friends as usize;
            (Some(visible), Some(total))
        } else {
            (None, None)
        };
        let liked_pages = if acct.privacy.likes_public {
            Some(world.likes().user_pages(user).collect())
        } else {
            None
        };
        Ok(PublicProfile {
            user,
            friends,
            total_friend_count,
            liked_pages,
        })
    }

    /// The jittered exponential wait before retry number `retry` (1-based),
    /// never below a rate-limit `retry_after` hint.
    fn backoff(
        &mut self,
        policy: &RetryPolicy,
        retry: u32,
        hint: Option<SimDuration>,
    ) -> SimDuration {
        let doubled = policy
            .base_backoff
            .as_secs()
            .saturating_mul(1u64 << (retry - 1).min(20));
        let capped = doubled.min(policy.max_backoff.as_secs()).max(1);
        let jitter = policy.jitter.clamp(0.0, 1.0);
        let factor = 1.0 - jitter / 2.0 + jitter * self.backoff_rng.f64();
        let wait = SimDuration::secs(((capped as f64 * factor).round() as u64).max(1));
        // A rate-limit hint is a *floor*, never subject to `max_backoff`:
        // the cap bounds only the self-imposed exponential wait. When the
        // limiter reports more of its window left than the capped backoff,
        // sleeping just the backoff would re-hit the limiter and burn
        // another attempt from the budget for a guaranteed failure.
        match hint {
            Some(h) => wait.max(h),
            None => wait,
        }
    }

    /// Retry a profile fetch through retryable failures under `policy`,
    /// waiting out backoff (and rate-limit hints) on the virtual crawl
    /// clock `at`, which advances in place. `Gone` is permanent and
    /// returned immediately.
    pub fn profile_with_retry(
        &mut self,
        world: &OsnWorld,
        user: UserId,
        at: &mut SimTime,
        policy: &RetryPolicy,
    ) -> Result<PublicProfile, CrawlError> {
        let mut last = CrawlError::Transient;
        for attempt in 0..policy.attempts.max(1) {
            if attempt > 0 {
                self.stats.retries += 1;
                likelab_obs::metrics::counter("crawl.retries", 1);
                let hint = match last {
                    CrawlError::RateLimited { retry_after } => Some(retry_after),
                    _ => None,
                };
                let wait = self.backoff(policy, attempt, hint);
                self.stats.backoff_total += wait;
                likelab_obs::metrics::record_ns(
                    "crawl.backoff_ns",
                    wait.as_secs().saturating_mul(1_000_000_000),
                );
                *at += wait;
            }
            match self.profile(world, user, *at) {
                Ok(p) => return Ok(p),
                Err(CrawlError::Gone) => return Err(CrawlError::Gone),
                Err(e) => last = e,
            }
        }
        Err(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::{ActorClass, PrivacySettings};
    use crate::demographics::{Country, Gender, Profile};
    use crate::page::PageCategory;
    use likelab_sim::SimTime;

    fn profile() -> Profile {
        Profile {
            gender: Gender::Male,
            age: 25,
            country: Country::Turkey,
            home_region: 1,
        }
    }

    fn world() -> OsnWorld {
        let mut w = OsnWorld::new();
        // u0: fully public; u1: private friends, public likes; u2: private.
        for (fl, lk) in [(true, true), (false, true), (false, false)] {
            w.create_account(
                profile(),
                ActorClass::Organic,
                PrivacySettings {
                    friend_list_public: fl,
                    likes_public: lk,
                    searchable: true,
                },
                SimTime::EPOCH,
            );
        }
        w.add_friendship(UserId(0), UserId(1));
        w.add_friendship(UserId(0), UserId(2));
        let p = w.create_page("x", "", None, PageCategory::Background, SimTime::EPOCH);
        w.record_like(UserId(0), p, SimTime::EPOCH);
        w.record_like(UserId(1), p, SimTime::EPOCH);
        w
    }

    fn api(failure_prob: f64) -> CrawlApi {
        CrawlApi::new(CrawlConfig::noise(failure_prob), Rng::seed_from_u64(42))
    }

    const NOW: SimTime = SimTime::EPOCH;

    #[test]
    fn privacy_filters_friend_lists_and_likes() {
        let w = world();
        let mut api = api(0.0);
        let p0 = api.profile(&w, UserId(0), NOW).unwrap();
        assert_eq!(p0.friends, Some(vec![UserId(1), UserId(2)]));
        assert_eq!(p0.total_friend_count, Some(2));
        assert_eq!(p0.liked_pages.as_ref().map(Vec::len), Some(1));
        let p1 = api.profile(&w, UserId(1), NOW).unwrap();
        assert_eq!(p1.friends, None, "friend list is private");
        assert!(p1.liked_pages.is_some());
        let p2 = api.profile(&w, UserId(2), NOW).unwrap();
        assert_eq!(p2.friends, None);
        assert_eq!(p2.liked_pages, None);
    }

    #[test]
    fn terminated_profiles_are_gone_and_drop_from_friend_lists() {
        let mut w = world();
        w.terminate_account(UserId(2), SimTime::at_day(1));
        let mut api = api(0.0);
        assert_eq!(api.profile(&w, UserId(2), NOW), Err(CrawlError::Gone));
        let p0 = api.profile(&w, UserId(0), NOW).unwrap();
        assert_eq!(p0.friends, Some(vec![UserId(1)]));
        assert_eq!(api.stats().gone, 1);
    }

    #[test]
    fn page_likers_exclude_terminated() {
        let mut w = world();
        let page = PageId(0);
        let mut api = api(0.0);
        assert_eq!(
            api.page_likers(&w, page, NOW).unwrap(),
            vec![UserId(0), UserId(1)]
        );
        w.terminate_account(UserId(0), SimTime::at_day(1));
        assert_eq!(api.page_likers(&w, page, NOW).unwrap(), vec![UserId(1)]);
    }

    #[test]
    fn failures_are_injected_and_counted() {
        let w = world();
        let mut api = api(0.5);
        let mut failures = 0;
        for _ in 0..1_000 {
            if api.profile(&w, UserId(0), NOW).is_err() {
                failures += 1;
            }
        }
        assert_eq!(api.requests(), 1_000);
        assert_eq!(api.failures(), failures);
        assert!((400..600).contains(&failures), "failures {failures}");
        let s = api.stats();
        assert_eq!(s.requests, s.successes + s.failures(), "coverage identity");
    }

    #[test]
    fn retry_overcomes_transient_failures() {
        let w = world();
        let mut api = api(0.5);
        let policy = RetryPolicy {
            attempts: 8,
            ..RetryPolicy::default()
        };
        let mut ok = 0;
        let mut at = NOW;
        for _ in 0..200 {
            if api
                .profile_with_retry(&w, UserId(0), &mut at, &policy)
                .is_ok()
            {
                ok += 1;
            }
        }
        assert!(
            ok >= 198,
            "8 retries at 50% should almost always land: {ok}"
        );
        assert!(api.stats().retries > 0);
        assert!(!api.stats().backoff_total.is_zero(), "backoff accumulates");
    }

    #[test]
    fn retry_does_not_mask_gone() {
        let mut w = world();
        w.terminate_account(UserId(0), SimTime::at_day(1));
        let mut api = api(0.0);
        let mut at = NOW;
        assert_eq!(
            api.profile_with_retry(&w, UserId(0), &mut at, &RetryPolicy::default()),
            Err(CrawlError::Gone)
        );
        assert_eq!(api.requests(), 1, "Gone is permanent, no retries");
        assert_eq!(at, NOW, "no backoff waits for a permanent answer");
    }

    #[test]
    fn quiet_profile_reproduces_the_historical_stream() {
        // A config with the structured regimes disabled must consume the
        // request RNG exactly as the pre-regime implementation did: one
        // draw per request, nothing else.
        let w = world();
        let mut api = CrawlApi::new(CrawlConfig::noise(0.3), Rng::seed_from_u64(42));
        let outcomes: Vec<bool> = (0..200)
            .map(|i| {
                api.profile(&w, UserId(0), SimTime::from_secs(i * 7_200))
                    .is_ok()
            })
            .collect();
        let mut reference = Rng::seed_from_u64(42);
        let expected: Vec<bool> = (0..200).map(|_| !reference.chance(0.3)).collect();
        assert_eq!(outcomes, expected, "request stream must not drift");
    }

    #[test]
    fn rate_limit_throttles_within_the_hour_and_resets() {
        let w = world();
        let config = CrawlConfig {
            failure_prob: 0.0,
            faults: FaultProfile {
                rate_limit: Some(RateLimitRegime { max_per_hour: 5 }),
                outage: None,
            },
        };
        let mut api = CrawlApi::new(config, Rng::seed_from_u64(1));
        let t = SimTime::from_secs(100);
        for _ in 0..5 {
            assert!(api.profile(&w, UserId(0), t).is_ok());
        }
        match api.profile(&w, UserId(0), t) {
            Err(CrawlError::RateLimited { retry_after }) => {
                assert_eq!(retry_after, SimDuration::secs(3_500), "until window end");
            }
            other => panic!("expected throttle, got {other:?}"),
        }
        // Next window: requests flow again.
        let t2 = SimTime::from_secs(3_600);
        assert!(api.profile(&w, UserId(0), t2).is_ok());
        assert_eq!(api.stats().rate_limited, 1);
    }

    #[test]
    fn rate_limited_retry_waits_out_the_window() {
        let w = world();
        let config = CrawlConfig {
            failure_prob: 0.0,
            faults: FaultProfile {
                rate_limit: Some(RateLimitRegime { max_per_hour: 3 }),
                outage: None,
            },
        };
        let mut api = CrawlApi::new(config, Rng::seed_from_u64(1));
        let mut at = SimTime::EPOCH;
        for _ in 0..3 {
            assert!(api
                .profile_with_retry(&w, UserId(0), &mut at, &RetryPolicy::default())
                .is_ok());
        }
        // The fourth target trips the limiter; the retry-after hint pushes
        // the virtual clock past the window and the retry succeeds.
        let before = at;
        assert!(api
            .profile_with_retry(&w, UserId(0), &mut at, &RetryPolicy::default())
            .is_ok());
        assert!(
            at >= before + SimDuration::hours(1),
            "waited out the window"
        );
    }

    #[test]
    fn long_retry_after_hint_overrides_backoff_cap() {
        // Regression: a `retry_after` hint far above `max_backoff` must be
        // honored in full. With the hint clamped to the 60 s cap, every
        // retry would land inside the same rate-limit window and the whole
        // attempt budget would burn on guaranteed failures.
        let w = world();
        let config = CrawlConfig {
            failure_prob: 0.0,
            faults: FaultProfile {
                rate_limit: Some(RateLimitRegime { max_per_hour: 1 }),
                outage: None,
            },
        };
        let policy = RetryPolicy {
            attempts: 2,
            base_backoff: SimDuration::secs(10),
            max_backoff: SimDuration::secs(60),
            jitter: 0.0,
        };
        let mut api = CrawlApi::new(config, Rng::seed_from_u64(1));
        let mut at = SimTime::EPOCH;
        assert!(api
            .profile_with_retry(&w, UserId(0), &mut at, &policy)
            .is_ok());
        // Window exhausted; the hint is ~the full hour, dwarfing the cap.
        let before = at;
        let requests_before = api.stats().requests;
        assert!(
            api.profile_with_retry(&w, UserId(0), &mut at, &policy)
                .is_ok(),
            "one hint-sized wait must clear the window within 2 attempts"
        );
        assert!(
            at >= before + SimDuration::hours(1),
            "clock must advance by the full retry_after, not the 60 s cap"
        );
        assert_eq!(
            api.stats().requests - requests_before,
            2,
            "exactly one rate-limited probe plus one successful retry"
        );
        assert_eq!(api.stats().rate_limited, 1);
    }

    #[test]
    fn outage_windows_are_deterministic_and_bursty() {
        let w = world();
        let config = CrawlConfig {
            failure_prob: 0.0,
            faults: FaultProfile {
                rate_limit: None,
                outage: Some(OutageRegime {
                    mean_uptime: SimDuration::hours(10),
                    mean_downtime: SimDuration::hours(5),
                }),
            },
        };
        let run = || {
            let mut api = CrawlApi::new(config, Rng::seed_from_u64(9));
            (0..2_000)
                .map(|i| {
                    api.page_likers(&w, PageId(0), SimTime::from_secs(i * 600))
                        .is_err()
                })
                .collect::<Vec<bool>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "outage schedule is a pure function of the seed");
        let downs = a.iter().filter(|d| **d).count();
        assert!(downs > 0, "outages must occur over two weeks");
        assert!(downs < a.len(), "the API must come back up");
        // Bursty: failures cluster — far fewer up/down flips than a
        // Bernoulli process with the same marginal rate would produce.
        let flips = a.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(flips < a.len() / 10, "outages arrive in windows: {flips}");
    }

    #[test]
    fn named_profiles_cover_the_cli_vocabulary() {
        for name in ["none", "default", "throttled", "flaky", "chaos"] {
            assert!(CrawlConfig::named(name).is_some(), "{name}");
        }
        assert!(CrawlConfig::named("bogus").is_none());
        assert_eq!(CrawlConfig::named("none").unwrap().failure_prob, 0.0);
        assert!(CrawlConfig::named("chaos").unwrap().failure_prob > 0.1);
        assert!(CrawlConfig::named("default").unwrap().faults.is_quiet());
    }

    #[test]
    fn stats_identity_holds_under_chaos() {
        let w = world();
        let mut api = CrawlApi::new(CrawlConfig::chaos(1.0), Rng::seed_from_u64(3));
        let mut at = SimTime::EPOCH;
        for i in 0..500u64 {
            at += SimDuration::minutes(7 * (i % 11) + 1);
            let _ = api.profile_with_retry(&w, UserId(0), &mut at, &RetryPolicy::default());
        }
        let s = api.stats();
        assert_eq!(s.requests, s.successes + s.failures());
        assert!(s.rate_limited + s.outage + s.transient > 0, "chaos bites");
    }
}
