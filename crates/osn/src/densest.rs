//! The densest-window statistic: how many of a stream's likes fall inside
//! its busiest `window`-long stretch.
//!
//! The paper's sharpest bot signal is temporal: farm likes were "garnered
//! within a short period of time of two hours". The anti-fraud sweep
//! ([`crate::fraudops`]) scores it per account, and the burst detectors
//! per account and per page. [`densest_window`] is the one two-pointer
//! kernel they all run over a time-sorted slice.
//!
//! [`DensestWindows`] keeps the statistic for the streams of one side of
//! the like ledger, accounts or pages. The ledger already holds every
//! like's time per account and per page, so a memo holds no times, only
//! scalars: the like count it was settled at, the densest window so far,
//! where the scan's current window starts (a [`PostingPos`] into the
//! stream's posting list, which stays valid as the list grows), and
//! whether the likes so far arrived in time order.
//!
//! - *In-order likes.* Settling a stream whose like count has moved reads
//!   the times from the window's start on and runs the kernel over them:
//!   the window it held, then the new likes. That continues the scan the
//!   last settle stopped, at O(new likes + window), never O(history).
//! - *Out-of-order likes.* Farm accounts backfill camouflage histories
//!   with past timestamps, and a page sees those likes out of time order.
//!   Such a stream falls back to the full sort-and-scan, memoized on its
//!   like count.
//!
//! Settling happens when a caller asks (a query, a sweep), never per
//! ingested batch: a stream that takes likes out of order in many batches
//! is sorted once per question, not once per batch.

use crate::likes::LikeLedger;
use crate::posting::{PostingPos, Postings};
use likelab_graph::{PageId, UserId};
use likelab_sim::{SimDuration, SimTime};
use std::marker::PhantomData;
use std::ops::Sub;

/// Entries inside the densest `window`-long stretch of a sorted sequence
/// (1 for the empty sequence, the accumulator's seed). Runs on instants
/// and on offsets alike.
///
/// ```
/// use likelab_osn::densest::densest_window;
/// use likelab_sim::{SimDuration, SimTime};
///
/// let times = [
///     SimTime::at_day(1),
///     SimTime::at_day(1) + SimDuration::minutes(30),
///     SimTime::at_day(9),
/// ];
/// assert_eq!(densest_window(&times, SimDuration::hours(2)), 2);
/// ```
pub fn densest_window<T>(sorted: &[T], window: SimDuration) -> usize
where
    T: Copy + Sub<Output = SimDuration>,
{
    slide(sorted, window).0
}

/// The kernel behind [`densest_window`]: the most entries any window held,
/// and the index where the last window starts.
fn slide<T>(sorted: &[T], window: SimDuration) -> (usize, usize)
where
    T: Copy + Sub<Output = SimDuration>,
{
    let mut best = 1usize;
    let mut lo = 0usize;
    for (hi, &at) in sorted.iter().enumerate() {
        // lint:allow(panic-reachable-from-serve): lo <= hi < sorted.len() throughout the scan
        while at - sorted[lo] > window {
            lo += 1;
        }
        best = best.max(hi - lo + 1);
    }
    (best, lo)
}

/// One stream's densest-window statistic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Densest {
    /// Likes in the stream.
    pub likes: usize,
    /// Likes inside its densest window (0 for a stream never settled with
    /// a like).
    pub peak: usize,
}

impl Densest {
    /// The share of the stream's likes inside its densest window, in the
    /// float expression every burst statistic uses.
    pub fn share(self) -> f64 {
        self.peak.max(1) as f64 / self.likes as f64
    }
}

/// One side of the like ledger whose streams a [`DensestWindows`] memoizes.
pub trait LedgerSide: Copy {
    /// The stream's slot in the memo table.
    fn slot(self) -> usize;
    /// Streams the ledger holds on this side.
    fn side_len(ledger: &LikeLedger) -> usize;
    /// The stream's posting list of global record indices, in arrival
    /// order (`None` for an id the ledger does not know).
    fn postings(self, ledger: &LikeLedger) -> Option<Postings<'_>>;
}

impl LedgerSide for UserId {
    fn slot(self) -> usize {
        self.idx()
    }
    fn side_len(ledger: &LikeLedger) -> usize {
        ledger.user_count()
    }
    fn postings(self, ledger: &LikeLedger) -> Option<Postings<'_>> {
        ledger.user_postings(self)
    }
}

impl LedgerSide for PageId {
    fn slot(self) -> usize {
        self.idx()
    }
    fn side_len(ledger: &LikeLedger) -> usize {
        ledger.page_count()
    }
    fn postings(self, ledger: &LikeLedger) -> Option<Postings<'_>> {
        ledger.page_postings(self)
    }
}

/// One stream's memo. See the module docs.
#[derive(Clone, Copy, Debug, Default)]
struct Memo {
    /// Likes settled so far.
    count: u32,
    /// Likes inside the densest window of the settled likes.
    best: u32,
    /// Where the current window starts, while the likes are in order.
    start: PostingPos,
    /// A settled like carries an earlier time than one that arrived
    /// before it.
    out_of_order: bool,
}

/// Densest-window memos for every stream on one side of the like ledger:
/// `DensestWindows<UserId>` for accounts, `DensestWindows<PageId>` for
/// pages. See the module docs.
///
/// ```
/// use likelab_graph::UserId;
/// use likelab_osn::densest::DensestWindows;
/// use likelab_osn::{ActorClass, Country, Gender, OsnWorld, PageCategory, PrivacySettings, Profile};
/// use likelab_sim::{SimDuration, SimTime};
///
/// let mut world = OsnWorld::new();
/// let user = world.create_account(
///     Profile { gender: Gender::Male, age: 30, country: Country::Usa, home_region: 0 },
///     ActorClass::Organic,
///     PrivacySettings { friend_list_public: true, likes_public: true, searchable: true },
///     SimTime::EPOCH,
/// );
/// let mut memo = DensestWindows::<UserId>::new(SimDuration::hours(2));
/// for (i, day) in [1, 1, 9].into_iter().enumerate() {
///     let page = world.create_page(format!("p{i}"), "", None, PageCategory::Background, SimTime::EPOCH);
///     world.record_like(user, page, SimTime::at_day(day) + SimDuration::minutes(i as u64));
///     memo.settle(world.likes(), user);
/// }
/// let d = memo.settle(world.likes(), user);
/// assert_eq!((d.likes, d.peak), (3, 2));
/// ```
#[derive(Debug)]
pub struct DensestWindows<K> {
    window: SimDuration,
    memos: Vec<Memo>,
    /// The times of the stream being settled.
    scratch: Vec<SimTime>,
    side: PhantomData<fn(K)>,
}

impl<K: LedgerSide> DensestWindows<K> {
    /// Empty memos for `window`-long windows.
    pub fn new(window: SimDuration) -> Self {
        DensestWindows {
            window,
            memos: Vec::new(),
            scratch: Vec::new(),
            side: PhantomData,
        }
    }

    /// The stream's statistic over every like `ledger` holds for it,
    /// bringing its memo up to date first. A stream the ledger does not
    /// know has no likes.
    pub fn settle(&mut self, ledger: &LikeLedger, key: K) -> Densest {
        let Some(list) = key.postings(ledger) else {
            return Densest { likes: 0, peak: 0 };
        };
        let slot = key.slot();
        if slot >= self.memos.len() {
            self.memos
                .resize(K::side_len(ledger).max(slot + 1), Memo::default());
        }
        // lint:allow(panic-reachable-from-serve): the resize above covers slot
        let memo = &mut self.memos[slot];
        if memo.count as usize != list.len() {
            settle(
                memo,
                list,
                ledger.time_column(),
                self.window,
                &mut self.scratch,
            );
        }
        memo.densest()
    }

    /// The stream's statistic as of its last settle, without settling:
    /// no likes before the first, and `None` past the streams the table
    /// was last sized for.
    pub fn settled(&self, key: K) -> Option<Densest> {
        self.memos.get(key.slot()).map(|m| m.densest())
    }
}

impl Memo {
    fn densest(self) -> Densest {
        Densest {
            likes: self.count as usize,
            peak: self.best as usize,
        }
    }
}

/// Bring `memo` up to the end of `list`, whose values index `times`.
fn settle(
    memo: &mut Memo,
    list: Postings<'_>,
    times: &[SimTime],
    window: SimDuration,
    scratch: &mut Vec<SimTime>,
) {
    // lint:allow(panic-reachable-from-serve): posting values are record indices of this ledger, below its length
    let time = |g: u32| times[g as usize];
    scratch.clear();
    if !memo.out_of_order {
        // The window the last settle ended on, then the new likes.
        scratch.extend(list.iter_from(memo.start).map(time));
        if scratch
            .iter()
            .zip(scratch.iter().skip(1))
            .all(|(a, b)| a <= b)
        {
            // Every held like lies within `window` of the last one, so the
            // kernel passes over them without moving its start and goes on
            // exactly where the last settle stopped.
            let (best, start) = slide(scratch, window);
            let mut from = list.iter_from(memo.start);
            for _ in 0..start {
                from.next();
            }
            memo.start = from.position();
            memo.best = memo.best.max(best as u32);
            memo.count = list.len() as u32;
            likelab_obs::metrics::counter("burst.memo.advance", 1);
            return;
        }
        memo.out_of_order = true;
        if memo.start.index() > 0 {
            scratch.clear();
        }
    }
    if scratch.is_empty() {
        scratch.extend(list.iter().map(time));
    }
    // Equal bare timestamps are indistinguishable, so an unstable sort
    // gives the sequence a stable sort of the likes would.
    scratch.sort_unstable();
    memo.best = densest_window(scratch, window) as u32;
    memo.count = list.len() as u32;
    likelab_obs::metrics::counter("burst.memo.resort", 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::{ActorClass, PrivacySettings};
    use crate::demographics::{Country, Gender, Profile};
    use crate::page::PageCategory;
    use crate::OsnWorld;
    use likelab_sim::Rng;

    fn world(users: u32, pages: u32) -> OsnWorld {
        let mut w = OsnWorld::new();
        for _ in 0..users {
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
        for i in 0..pages {
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

    /// The statistic from scratch: sort the stream, run the kernel.
    fn scratch_densest(mut times: Vec<SimTime>, window: SimDuration) -> Densest {
        times.sort_unstable();
        Densest {
            likes: times.len(),
            peak: if times.is_empty() {
                0
            } else {
                densest_window(&times, window)
            },
        }
    }

    #[test]
    fn kernel_counts_the_densest_stretch() {
        let h = SimDuration::hours;
        let t = |m: u64| SimTime::EPOCH + SimDuration::minutes(m);
        assert_eq!(densest_window::<SimTime>(&[], h(2)), 1);
        assert_eq!(densest_window(&[t(0)], h(2)), 1);
        // The window is closed: a like exactly `window` later still counts.
        assert_eq!(densest_window(&[t(0), t(120), t(121)], h(2)), 2);
        assert_eq!(slide(&[t(0), t(60), t(200), t(230)], h(2)), (2, 2));
        let offsets = [SimDuration::ZERO, SimDuration::minutes(5), h(7)];
        assert_eq!(densest_window(&offsets, h(2)), 2);
    }

    #[test]
    fn in_order_streams_advance_and_backfills_resort() {
        // One page takes likes in time order; its likers' own streams go
        // out of order when a like lands before their earlier ones.
        let mut w = world(40, 1);
        let window = SimDuration::hours(2);
        let mut pages = DensestWindows::<PageId>::new(window);
        let mut users = DensestWindows::<UserId>::new(window);
        let mut rng = Rng::seed_from_u64(3);
        for step in 0..200u64 {
            let u = UserId(rng.below(40) as u32);
            let p = w.create_page(
                format!("q{step}"),
                "",
                None,
                PageCategory::Background,
                SimTime::EPOCH,
            );
            let at = SimTime::from_secs(step * 600 + rng.below(3_600));
            w.record_like(u, p, at);
            w.record_like(
                UserId(step as u32 % 40),
                PageId(0),
                SimTime::from_secs(step * 900),
            );
            if rng.chance(0.3) {
                let page_times: Vec<SimTime> = w.likes().page_times(PageId(0)).collect();
                assert_eq!(
                    pages.settle(w.likes(), PageId(0)),
                    scratch_densest(page_times, window)
                );
                for i in 0..40 {
                    let user_times: Vec<SimTime> = w.likes().user_times(UserId(i)).collect();
                    assert_eq!(
                        users.settle(w.likes(), UserId(i)),
                        scratch_densest(user_times, window),
                        "user {i} at step {step}"
                    );
                }
            }
        }
        assert!(!pages.memos[0].out_of_order);
        assert!(users.memos.iter().any(|m| m.out_of_order));
    }

    #[test]
    fn unknown_streams_have_no_likes() {
        let w = world(1, 1);
        let mut pages = DensestWindows::<PageId>::new(SimDuration::HOUR);
        assert_eq!(
            pages.settle(w.likes(), PageId(7)),
            Densest { likes: 0, peak: 0 }
        );
        assert_eq!(pages.settled(PageId(7)), None);
        assert_eq!(pages.settle(w.likes(), PageId(0)).likes, 0);
        assert_eq!(
            pages.settled(PageId(0)),
            Some(Densest { likes: 0, peak: 0 })
        );
    }
}
