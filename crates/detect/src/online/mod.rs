//! Online (streaming) variants of the batch detectors, for the
//! `likelab serve` engine.
//!
//! Each batch detector in this crate is a pure function of world state; the
//! serve path instead sees an *event stream* and must answer queries while
//! ingest continues. The modules here hold per-detector incremental state,
//! fed by [`DetectorUpdate`]s (one per accepted mutation, from
//! [`OsnWorld::apply_event`](likelab_osn::OsnWorld::apply_event) as the
//! serve engine folds the log) or read from the live world replica the
//! same fold builds, and promise the **online-vs-batch equivalence
//! contract** documented in `SERVING.md`:
//!
//! > At end-of-stream — and for burst/lockstep at *every* prefix — a query
//! > answered from online state is bitwise equal to the batch detector run
//! > on a world rebuilt from the same accepted events.
//!
//! How each detector honors it:
//!
//! - [`OnlineBurst`] keeps no times: a verdict settles the stream's
//!   densest-window memo over the replica's like ledger
//!   ([`likelab_osn::densest`]). A stream whose likes arrived in time order
//!   continues its two-pointer scan over the likes since the last verdict;
//!   one that took a backfill falls back to the batch sort-and-scan.
//! - [`OnlineLockstep`] appends one `(window, page, user)` cell per like
//!   to a flat column, sorts the new cells into place at the next report,
//!   and runs the batch lockstep kernel over it.
//! - [`OnlineSybilRank`] gates the exact batch power iteration behind a
//!   graph-delta dirty flag (no warm starts — they converge close, not
//!   equal).
//! - [`extract_online`] / [`score_online`] assemble the feature vector
//!   from the live world replica plus the online burst verdict.
//!
//! [`OnlineDetectors`] bundles all of the above behind a single
//! [`apply`](OnlineDetectors::apply) fanout, and [`LiveDetectors`] pairs
//! the bundle with the replica its verdicts read.
//!
//! [`DetectorUpdate`]: likelab_osn::DetectorUpdate

mod burst;
mod features;
mod lockstep;
mod sybilrank;

pub use burst::OnlineBurst;
pub use features::{extract_online, score_online};
pub use lockstep::OnlineLockstep;
pub use sybilrank::{organic_seeds, OnlineSybilRank};

use crate::burst::{BurstConfig, BurstVerdict};
use crate::lockstep::LockstepConfig;
use crate::sybilrank::SybilRankConfig;
use likelab_graph::{PageId, UserId};
use likelab_osn::{DetectorUpdate, OsnWorld};

/// The full online detector suite behind one update fanout.
///
/// Feed it every [`DetectorUpdate`] `OsnWorld::apply_event` emits; query the
/// individual detectors through the accessors. Updates that only change
/// world state the detectors read on demand (like times, off-network
/// counts, termination status) are no-ops here — the world replica carries
/// them, and [`with_world`](Self::with_world) pairs the suite with it.
///
/// ```
/// use likelab_detect::online::OnlineDetectors;
/// use likelab_detect::{BurstConfig, LockstepConfig, SybilRankConfig};
/// use likelab_graph::{PageId, UserId};
/// use likelab_osn::{
///     ActorClass, Country, Gender, LikeColumns, OsnWorld, PageCategory, PrivacySettings,
///     Profile, WorldEvent,
/// };
/// use likelab_sim::SimTime;
///
/// let mut suite = OnlineDetectors::new(
///     BurstConfig { min_events: 1, ..BurstConfig::default() },
///     LockstepConfig::default(),
///     SybilRankConfig::default(),
/// );
/// let mut world = OsnWorld::new();
/// let events = [
///     WorldEvent::AccountCreated {
///         profile: Profile { gender: Gender::Male, age: 30, country: Country::Usa, home_region: 0 },
///         class: ActorClass::Organic,
///         privacy: PrivacySettings { friend_list_public: true, likes_public: true, searchable: true },
///         at: SimTime::EPOCH,
///     },
///     WorldEvent::PageCreated {
///         name: "p".into(),
///         description: String::new(),
///         owner: None,
///         category: PageCategory::Background,
///         at: SimTime::EPOCH,
///     },
///     WorldEvent::LikeBatch {
///         likes: LikeColumns::from_rows(&[(UserId(0), PageId(0), SimTime::at_day(1))]),
///     },
/// ];
/// for ev in events {
///     world.apply_event(ev, |update| suite.apply(update)).unwrap();
/// }
/// assert_eq!(suite.lockstep_mut().likes_seen(), 1);
/// assert_eq!(suite.with_world(&world).burst_mut().page_verdict(PageId(0)).events, 1);
/// assert!(suite.sybilrank().is_dirty());
/// ```
#[derive(Debug)]
pub struct OnlineDetectors {
    burst: OnlineBurst,
    lockstep: OnlineLockstep,
    sybil: OnlineSybilRank,
    updates_seen: usize,
}

impl OnlineDetectors {
    /// An empty suite with the given per-detector configurations.
    pub fn new(burst: BurstConfig, lockstep: LockstepConfig, sybil: SybilRankConfig) -> Self {
        OnlineDetectors {
            burst: OnlineBurst::new(burst),
            lockstep: OnlineLockstep::new(lockstep),
            sybil: OnlineSybilRank::new(sybil),
            updates_seen: 0,
        }
    }

    /// Route one update to every detector that consumes it.
    pub fn apply(&mut self, update: DetectorUpdate) {
        self.updates_seen += 1;
        match update {
            DetectorUpdate::LikeAccepted { user, page, at } => {
                self.lockstep.record_like(user, page, at);
            }
            DetectorUpdate::AccountAdded { .. } | DetectorUpdate::FriendshipAdded { .. } => {
                // Node and edge deltas invalidate trust propagation.
                self.sybil.mark_dirty();
            }
            DetectorUpdate::PageAdded { .. }
            | DetectorUpdate::OffNetworkChanged { .. }
            | DetectorUpdate::AccountTerminated { .. }
            | DetectorUpdate::AccountReinstated { .. } => {}
        }
    }

    /// Total updates routed through [`apply`](Self::apply).
    pub fn updates_seen(&self) -> usize {
        self.updates_seen
    }

    /// The suite paired with `world`, the replica its updates came from.
    pub fn with_world<'a>(&'a mut self, world: &'a OsnWorld) -> LiveDetectors<'a> {
        LiveDetectors {
            detectors: self,
            world,
        }
    }

    /// The online burst detector (verdicts need `&mut` to settle memos).
    pub fn burst_mut(&mut self) -> &mut OnlineBurst {
        &mut self.burst
    }

    /// The online lockstep detector (reports need `&mut` for lazy sorts).
    pub fn lockstep_mut(&mut self) -> &mut OnlineLockstep {
        &mut self.lockstep
    }

    /// The online SybilRank detector, read-only.
    pub fn sybilrank(&self) -> &OnlineSybilRank {
        &self.sybil
    }

    /// The online SybilRank detector (refreshes need `&mut`).
    pub fn sybilrank_mut(&mut self) -> &mut OnlineSybilRank {
        &mut self.sybil
    }
}

/// The detector suite paired with the world replica its burst verdicts
/// read. Two references: each accessor consumes the view, and
/// [`OnlineDetectors::with_world`] gives another.
pub struct LiveDetectors<'a> {
    detectors: &'a mut OnlineDetectors,
    world: &'a OsnWorld,
}

impl<'a> LiveDetectors<'a> {
    /// The burst detector, judging the paired world.
    pub fn burst_mut(self) -> LiveBurst<'a> {
        LiveBurst {
            burst: &mut self.detectors.burst,
            world: self.world,
        }
    }

    /// The online lockstep detector.
    pub fn lockstep_mut(self) -> &'a mut OnlineLockstep {
        &mut self.detectors.lockstep
    }

    /// The online SybilRank detector, read-only.
    pub fn sybilrank(self) -> &'a OnlineSybilRank {
        &self.detectors.sybil
    }

    /// The online SybilRank detector (refreshes need `&mut`).
    pub fn sybilrank_mut(self) -> &'a mut OnlineSybilRank {
        &mut self.detectors.sybil
    }
}

/// [`OnlineBurst`] judging one world.
pub struct LiveBurst<'a> {
    burst: &'a mut OnlineBurst,
    world: &'a OsnWorld,
}

impl LiveBurst<'_> {
    /// [`OnlineBurst::page_verdict`] on the paired world.
    pub fn page_verdict(&mut self, page: PageId) -> BurstVerdict {
        self.burst.page_verdict(self.world, page)
    }

    /// [`OnlineBurst::user_verdict`] on the paired world.
    pub fn user_verdict(&mut self, user: UserId) -> BurstVerdict {
        self.burst.user_verdict(self.world, user)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use likelab_osn::{
        ActorClass, Country, Gender, LikeColumns, PageCategory, PrivacySettings, Profile,
        WorldEvent,
    };
    use likelab_sim::SimTime;

    #[test]
    fn updates_route_to_the_right_detectors() {
        let mut suite = OnlineDetectors::new(
            BurstConfig {
                min_events: 1,
                ..BurstConfig::default()
            },
            LockstepConfig::default(),
            SybilRankConfig::default(),
        );
        assert!(suite.sybilrank().is_dirty(), "dirty until first refresh");
        let mut world = OsnWorld::new();
        let events = [
            WorldEvent::AccountCreated {
                profile: Profile {
                    gender: Gender::Female,
                    age: 30,
                    country: Country::Usa,
                    home_region: 0,
                },
                class: ActorClass::Organic,
                privacy: PrivacySettings {
                    friend_list_public: true,
                    likes_public: true,
                    searchable: true,
                },
                at: SimTime::EPOCH,
            },
            WorldEvent::PageCreated {
                name: "p".into(),
                description: String::new(),
                owner: None,
                category: PageCategory::Background,
                at: SimTime::EPOCH,
            },
            WorldEvent::LikeBatch {
                likes: LikeColumns::from_rows(&[(UserId(0), PageId(0), SimTime::at_day(2))]),
            },
            WorldEvent::Terminated {
                user: UserId(0),
                at: SimTime::at_day(3),
            },
        ];
        for ev in events {
            world.apply_event(ev, |u| suite.apply(u)).unwrap();
        }
        assert_eq!(suite.updates_seen(), 4);
        let mut live = suite.with_world(&world).burst_mut();
        assert_eq!(live.user_verdict(UserId(0)).events, 1);
        assert_eq!(suite.lockstep_mut().likes_seen(), 1);
    }
}
