//! Burst parity at every prefix of the stream, and the sweep's memo against
//! a recomputation from scratch.
//!
//! The online burst detector and the anti-fraud sweep read the
//! densest-window statistic through the ledger's memo
//! (`likelab::osn::densest`), which settles a stream only when asked. A
//! stream whose likes arrived in time order continues its scan where the
//! last settle stopped; one that took a like out of order is sorted and
//! scanned in full. Each generated case feeds one like stream to a world
//! and compares, after random prefixes, every page's and every account's
//! online verdict with batch `judge_page` / `judge_account`, bit for bit,
//! and, after every sweep, the burstiness each swept account's memo holds
//! with `like_stream_burstiness` computed from scratch. The streams carry:
//!
//! - in-order runs: a few likes of one page, minutes apart, at the clock;
//! - backfills: likes stamped up to five days before the clock;
//! - `(user, page)` repeats, which the world rejects;
//! - terminated likers: accounts terminated mid-stream, by hand or by a
//!   sweep, whose likes the world then rejects, and some reinstated later.

use likelab::detect::online::OnlineBurst;
use likelab::detect::{judge_account, judge_page, BurstConfig, BurstVerdict};
use likelab::graph::{PageId, UserId};
use likelab::osn::fraudops::like_stream_burstiness;
use likelab::osn::{
    ActorClass, Country, FraudOps, FraudOpsConfig, Gender, OsnWorld, PageCategory, PrivacySettings,
    Profile,
};
use likelab::sim::{Rng, SimDuration, SimTime};

const USERS: u32 = 30;
const PAGES: u32 = 12;

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

/// A sweep engine that terminates often enough to matter in a small world.
fn fraud_config() -> FraudOpsConfig {
    FraudOpsConfig {
        base_hazard: 0.04,
        max_hazard: 0.2,
        min_likes_for_burst: 3,
        ..FraudOpsConfig::default()
    }
}

/// The verdict as bits, so that equality is bitwise.
fn bits(v: BurstVerdict) -> (u64, usize, bool) {
    (v.peak_share.to_bits(), v.events, v.flagged)
}

/// True when `times` arrived in time order.
fn in_order(times: impl Iterator<Item = SimTime>) -> bool {
    let times: Vec<SimTime> = times.collect();
    times.windows(2).all(|w| w[0] <= w[1])
}

/// What one case saw, so that the comparisons are not vacuous.
#[derive(Default)]
struct Seen {
    checks: usize,
    out_of_order_pages: usize,
    in_order_pages: usize,
    out_of_order_users: usize,
    rejected_repeats: usize,
    rejected_terminated: usize,
    sweeps: usize,
    swept_terminations: usize,
    swept_memos: usize,
}

fn run_case(seed: u64, seen: &mut Seen) {
    let config = BurstConfig {
        min_events: 3,
        ..BurstConfig::default()
    };
    let fraud = fraud_config();
    let mut rng = Rng::seed_from_u64(seed);
    let mut w = world();
    let mut online = OnlineBurst::new(config);
    let mut ops = FraudOps::new(fraud.clone(), rng.fork("fraud"));
    let mut accepted: Vec<(UserId, PageId)> = Vec::new();
    let mut clock = SimTime::at_day(10);
    let user = |rng: &mut Rng| UserId(rng.below(u64::from(USERS)) as u32);
    let page = |rng: &mut Rng| PageId(rng.below(u64::from(PAGES)) as u32);
    for _ in 0..160 {
        let mut likes: Vec<(UserId, PageId, SimTime)> = Vec::new();
        match rng.below(20) {
            0..=10 => {
                let p = page(&mut rng);
                for _ in 0..1 + rng.below(5) {
                    clock += SimDuration::minutes(1 + rng.below(40));
                    likes.push((user(&mut rng), p, clock));
                }
            }
            11..=13 => {
                let back = SimDuration::secs(rng.below(5 * 86_400));
                likes.push((user(&mut rng), page(&mut rng), clock - back));
            }
            14 | 15 if !accepted.is_empty() => {
                let (u, p) = accepted[rng.index(accepted.len())];
                likes.push((u, p, clock));
            }
            16 => {
                w.terminate_account(user(&mut rng), clock);
            }
            17 => {
                w.reinstate_account(user(&mut rng));
            }
            _ => {
                let active: Vec<UserId> = w.user_ids().filter(|&u| w.is_active(u)).collect();
                seen.swept_terminations += ops.sweep(&mut w, clock).len();
                seen.sweeps += 1;
                for u in active {
                    let scratch = like_stream_burstiness(
                        &w,
                        u,
                        fraud.burst_window,
                        fraud.min_likes_for_burst,
                    );
                    assert_eq!(
                        ops.swept_burstiness(u).map(f64::to_bits),
                        Some(scratch.to_bits()),
                        "seed {seed}: the memo of user {} after a sweep",
                        u.0
                    );
                    seen.swept_memos += 1;
                }
            }
        }
        for (u, p, at) in likes {
            let active = w.is_active(u);
            if w.record_like(u, p, at) {
                accepted.push((u, p));
            } else if active {
                seen.rejected_repeats += 1;
            } else {
                seen.rejected_terminated += 1;
            }
        }
        if rng.below(4) == 0 {
            for p in (0..PAGES).map(PageId) {
                let batch = judge_page(&w, p, None, &config);
                assert_eq!(
                    bits(online.page_verdict(&w, p)),
                    bits(batch),
                    "seed {seed}: page {}",
                    p.0
                );
                if in_order(w.likes().page_times(p)) {
                    seen.in_order_pages += 1;
                } else {
                    seen.out_of_order_pages += 1;
                }
            }
            for u in w.user_ids() {
                let batch = judge_account(&w, u, &config);
                assert_eq!(
                    bits(online.user_verdict(&w, u)),
                    bits(batch),
                    "seed {seed}: user {}",
                    u.0
                );
                seen.out_of_order_users += usize::from(!in_order(w.likes().user_times(u)));
            }
            seen.checks += 1;
        }
    }
}

#[test]
fn burst_verdicts_and_sweep_memos_match_batch_at_every_prefix() {
    let mut seen = Seen::default();
    for seed in 0..48u64 {
        run_case(seed, &mut seen);
    }
    // Both of the memo's paths ran, the world rejected repeats and the
    // likes of terminated accounts, and sweeps terminated accounts. (Seeds
    // 0..48 read 1,963 checks, 16,299 in-order and 7,257 out-of-order page
    // streams, 753 sweeps and 642 terminations by them.)
    assert!(seen.checks >= 48 * 20, "only {} checks", seen.checks);
    assert!(seen.in_order_pages * 10 >= seen.checks * PAGES as usize);
    assert!(seen.out_of_order_pages * 4 >= seen.checks * PAGES as usize);
    assert!(seen.out_of_order_users >= seen.checks);
    assert!(
        seen.rejected_repeats >= 48 * 4,
        "{} repeats",
        seen.rejected_repeats
    );
    assert!(
        seen.rejected_terminated >= 48 * 4,
        "{} rejected",
        seen.rejected_terminated
    );
    assert!(seen.sweeps >= 48 * 4, "only {} sweeps", seen.sweeps);
    assert!(
        seen.swept_terminations >= 48,
        "{} terminated",
        seen.swept_terminations
    );
    assert!(seen.swept_memos >= seen.sweeps * 10);
}
