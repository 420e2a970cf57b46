//! Online lockstep detection: the batch detector's sorted cells kept as
//! one flat column, reports produced by the batch kernel.
//!
//! ## Parity contract
//!
//! Batch [`detect`](crate::lockstep::detect) files every like as a
//! `(window index, page, user)` cell, sorts the cells, and runs the
//! pair-counting / clustering kernel over the equal-`(window, page)` runs.
//! The kernel reads only the sorted multiset of cells, so arrival order is
//! irrelevant. [`OnlineLockstep`] pushes one cell per accepted like with
//! the same cell function, sorts lazily at report time, and calls the same
//! kernel. Its report is therefore **bitwise identical** to the batch one
//! over the same accepted likes, at any point in the stream, not just the
//! end.
//!
//! The lazy sort only touches what changed. Cells before `settled` are
//! sorted. A report sorts the newer cells window by window, keeps the
//! sorted prefix below the smallest of them where it is, and merges the
//! sorted runs from there. Arrivals are nearly chronological and the
//! window index leads the key, so the runs are few and long, and the merge
//! starts near the end except where a backfill reaches far into the past.

use crate::lockstep::{cell, detect_sorted, Cell, LockstepConfig, LockstepReport};
use likelab_graph::{PageId, UserId};
use likelab_sim::SimTime;

/// Incremental lockstep detector. See the module docs for the parity
/// contract.
///
/// ```
/// use likelab_detect::online::OnlineLockstep;
/// use likelab_detect::LockstepConfig;
///
/// let mut online = OnlineLockstep::new(LockstepConfig::default());
/// // No likes recorded: no co-liking evidence.
/// assert!(online.report().clusters.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct OnlineLockstep {
    config: LockstepConfig,
    /// One cell per accepted like; `cells[..settled]` is sorted.
    cells: Vec<Cell>,
    settled: usize,
}

impl OnlineLockstep {
    /// An empty detector.
    pub fn new(config: LockstepConfig) -> Self {
        OnlineLockstep {
            config,
            cells: Vec::new(),
            settled: 0,
        }
    }

    /// The configuration reports are produced under.
    pub fn config(&self) -> &LockstepConfig {
        &self.config
    }

    /// Feed one **accepted** like.
    pub fn record_like(&mut self, user: UserId, page: PageId, at: SimTime) {
        self.cells.push(cell(user, page, at, &self.config));
    }

    /// Make room for `likes` more cells at once, before a batch of that
    /// many likes is fed one by one: the column then grows once per batch,
    /// as the ledger's columns do, instead of doubling past it.
    pub fn reserve(&mut self, likes: usize) {
        self.cells.reserve(likes);
    }

    /// Number of likes folded in so far.
    pub fn likes_seen(&self) -> usize {
        self.cells.len()
    }

    /// Cells the column has room for, fed or not.
    pub fn capacity(&self) -> usize {
        self.cells.capacity()
    }

    /// Sort the cells recorded since the last report into place.
    fn settle(&mut self) {
        let (sorted, fresh) = self.cells.split_at_mut(self.settled);
        // Sorting each window's run leaves the new cells in a few long
        // sorted runs, one per stretch of in-order arrivals.
        for run in fresh.chunk_by_mut(|a, b| a.0 == b.0) {
            run.sort_unstable();
        }
        if let Some(&first) = fresh.iter().min() {
            // The stable sort finds the sorted runs from the first cell the
            // new ones displace, and merges them.
            let from = sorted.partition_point(|c| *c < first);
            self.cells.split_at_mut(from).1.sort();
        }
        self.settled = self.cells.len();
    }

    /// Run the batch kernel over the current cells — equal to
    /// [`crate::lockstep::detect`] on a world holding the same accepted
    /// likes.
    ///
    /// Unlike the burst and SybilRank detectors this recomputes the
    /// pair-counting stage on every call (pair counts are not cheaply
    /// decomposable), so callers should query it at a coarser cadence than
    /// per-event; the serve engine does so per query, not per ingest chunk.
    pub fn report(&mut self) -> LockstepReport {
        self.settle();
        detect_sorted(&self.cells, &self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lockstep::detect;
    use likelab_osn::{
        ActorClass, Country, Gender, OsnWorld, PageCategory, PrivacySettings, Profile,
    };
    use likelab_sim::{Rng, SimDuration};

    /// A bot ring plus organic noise, mirrored into both a world (batch
    /// path) and the online detector, with the online feed shuffled to prove
    /// arrival order is irrelevant.
    #[test]
    fn shuffled_online_feed_matches_batch_report() {
        let mut w = OsnWorld::new();
        for i in 0..60u32 {
            let class = if i < 15 {
                ActorClass::Bot(1)
            } else {
                ActorClass::Organic
            };
            w.create_account(
                Profile {
                    gender: Gender::Male,
                    age: 25,
                    country: Country::Usa,
                    home_region: 0,
                },
                class,
                PrivacySettings {
                    friend_list_public: true,
                    likes_public: true,
                    searchable: true,
                },
                SimTime::EPOCH,
            );
        }
        for i in 0..30u32 {
            w.create_page(
                format!("p{i}"),
                "",
                None,
                PageCategory::Background,
                SimTime::EPOCH,
            );
        }
        let mut rng = Rng::seed_from_u64(9);
        let mut feed: Vec<(UserId, PageId, SimTime)> = Vec::new();
        for job in 0..5u32 {
            let start = SimTime::at_day(5 + 2 * u64::from(job));
            for bot in 0..15u32 {
                feed.push((
                    UserId(bot),
                    PageId(job),
                    start + SimDuration::minutes(rng.below(60)),
                ));
            }
        }
        for organic in 15..60u32 {
            for _ in 0..8 {
                feed.push((
                    UserId(organic),
                    PageId(rng.below(30) as u32),
                    SimTime::from_secs(rng.below(60 * 86_400)),
                ));
            }
        }
        // Batch side ingests in generation order; the ledger dedups
        // (user, page) pairs, so feed the online side only accepted likes.
        let mut online = OnlineLockstep::new(LockstepConfig::default());
        let mut accepted: Vec<(UserId, PageId, SimTime)> = Vec::new();
        for &(u, p, at) in &feed {
            if w.record_like(u, p, at) {
                accepted.push((u, p, at));
            }
        }
        // Shuffle the accepted stream before replaying it online.
        for i in (1..accepted.len()).rev() {
            accepted.swap(i, rng.index(i + 1));
        }
        for (u, p, at) in accepted {
            online.record_like(u, p, at);
        }
        let batch = detect(&w, &LockstepConfig::default());
        let online_report = online.report();
        assert_eq!(online_report.clusters, batch.clusters);
        assert!(!batch.clusters.is_empty(), "the ring must be found");
        assert_eq!(online.likes_seen(), w.likes().len());
    }

    #[test]
    fn empty_detector_reports_clean() {
        let mut online = OnlineLockstep::new(LockstepConfig::default());
        assert!(online.report().clusters.is_empty());
        assert_eq!(online.likes_seen(), 0);
    }
}
