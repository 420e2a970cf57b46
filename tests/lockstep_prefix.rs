//! Lockstep parity at every prefix of the stream, not just at its end.
//!
//! SERVING.md §4 promises that an online lockstep report equals the batch
//! detector's at any point in the stream. The online detector sorts new
//! cells into place lazily, at the next report, so reports interleaved
//! with arrivals are exactly what can break it. Each generated case feeds
//! one like stream to a world (the batch side) and to `OnlineLockstep`,
//! and after random prefixes compares the online report with batch
//! `detect` on the world at that point. The streams carry:
//!
//! - backfills: likes stamped into the earliest windows that arrive after
//!   later ones, so the lazy sort must reach back to the front;
//! - `(user, page)` repeats, which the world rejects and the online side
//!   therefore never sees;
//! - a 1 s window and `max_bucket_size` = 3, so lockstep rings of five
//!   accounts fill buckets the kernel must subsample.

use likelab::detect::online::OnlineLockstep;
use likelab::detect::{detect, LockstepConfig};
use likelab::graph::{PageId, UserId};
use likelab::osn::{ActorClass, Country, Gender, OsnWorld, PageCategory, PrivacySettings, Profile};
use likelab::sim::{Rng, SimDuration, SimTime};

const USERS: u32 = 24;
const PAGES: u32 = 6;
/// Seconds of simulated time the chronological part of a stream spans.
const SPAN_SECS: u64 = 60;

fn config() -> LockstepConfig {
    LockstepConfig {
        window: SimDuration::secs(1),
        min_shared_buckets: 2,
        min_bucket_size: 3,
        max_bucket_size: 3,
    }
}

fn world() -> OsnWorld {
    let mut w = OsnWorld::new();
    for _ in 0..USERS {
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
            SimTime::EPOCH,
        );
    }
    for i in 0..PAGES {
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

type Like = (UserId, PageId, SimTime);

/// Five accounts liking `page` inside second `at`, in a shuffled order.
fn ring(rng: &mut Rng, first_user: u32, page: u32, at: u64) -> Vec<Like> {
    let mut likes: Vec<Like> = (first_user..first_user + 5)
        .map(|u| (UserId(u), PageId(page), SimTime::from_secs(at)))
        .collect();
    rng.shuffle(&mut likes);
    likes
}

/// One case's stream: a chronological base of ring jobs and noise, then
/// backfills and repeats inserted at random later positions.
fn stream(rng: &mut Rng) -> Vec<Like> {
    let mut base: Vec<Like> = Vec::new();
    for job in 0..3u32 {
        let at = 10 + 15 * u64::from(job) + rng.below(5);
        base.extend(ring(rng, 0, job, at));
    }
    for _ in 0..40 {
        base.push((
            UserId(rng.below(u64::from(USERS)) as u32),
            PageId(rng.below(u64::from(PAGES)) as u32),
            SimTime::from_secs(rng.below(SPAN_SECS)),
        ));
    }
    base.sort_by_key(|&(_, _, at)| at);

    // A second ring sweeps two pages in the first two windows, and a few
    // stray likes land there too, all arriving after the first third of
    // the stream.
    let mut late: Vec<Like> = Vec::new();
    for (page, at) in [(3, 0), (4, 1)] {
        late.extend(ring(rng, 10, page, at));
    }
    for _ in 0..6 {
        late.push((
            UserId(rng.below(u64::from(USERS)) as u32),
            PageId(rng.below(u64::from(PAGES)) as u32),
            SimTime::from_secs(rng.below(2)),
        ));
    }
    let mut events = base;
    for like in late {
        let at = events.len() / 3 + rng.index(events.len() - events.len() / 3 + 1);
        events.insert(at, like);
    }
    // Repeats of earlier (user, page) pairs at fresh times.
    for _ in 0..8 {
        let from = rng.index(events.len());
        let (user, page, _) = events[from];
        let at = from + 1 + rng.index(events.len() - from);
        events.insert(at, (user, page, SimTime::from_secs(rng.below(SPAN_SECS))));
    }
    events
}

#[test]
fn lockstep_reports_match_batch_at_every_prefix() {
    let config = config();
    let (mut reports, mut rejected, mut clustered) = (0usize, 0usize, 0usize);
    for seed in 0..64u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let events = stream(&mut rng);
        let mut w = world();
        let mut online = OnlineLockstep::new(config);
        for (i, &(user, page, at)) in events.iter().enumerate() {
            if w.record_like(user, page, at) {
                online.record_like(user, page, at);
            } else {
                rejected += 1;
            }
            if rng.below(6) == 0 || i + 1 == events.len() {
                let batch = detect(&w, &config);
                assert_eq!(
                    online.report().clusters,
                    batch.clusters,
                    "seed {seed}, prefix of {} events",
                    i + 1
                );
                assert_eq!(online.likes_seen(), w.likes().len());
                reports += 1;
                clustered += usize::from(!batch.clusters.is_empty());
            }
        }
    }
    // The comparisons must not be vacuous: repeats were rejected, and many
    // reports held clusters.
    assert!(rejected >= 64, "only {rejected} likes rejected");
    assert!(
        clustered * 3 >= reports,
        "only {clustered} of {reports} reports held a cluster"
    );
}
