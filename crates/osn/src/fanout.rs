//! Event → detector-update fanout: the bridge between a replayed
//! [`WorldEvent`] stream and incremental detectors.
//!
//! A batch detector reads the finished [`OsnWorld`]; an *online* detector
//! needs to know, per event, what actually changed. The world's own
//! [`OsnWorld::apply_event`] deliberately reports nothing (replay is a pure
//! fold), and several events are not 1:1 with mutations anyway: a
//! [`WorldEvent::LikeBatch`] journals the *input* batch verbatim, so some
//! of its items may be duplicates or rejected likes from terminated
//! accounts, and a [`WorldEvent::FriendshipBatch`] can carry edges that
//! already exist.
//!
//! [`EventFanout`] closes that gap. It owns a replica world, applies each
//! event through the world's acceptance-reporting public API (the same
//! methods the original run used, so the replica ends up byte-identical to
//! an [`OsnWorld::apply_event`] fold — asserted by tests), and emits one
//! [`DetectorUpdate`] per **accepted** mutation. Rejected mutations emit
//! nothing, which is exactly the filtering the batch detectors get for
//! free by reading the final ledger. A like batch folds as one ledger
//! ingest; its accepted likes are the records it appended, in batch order.
//! An event that fails [`OsnWorld::check_event`] is refused untouched.
//!
//! The fanout also tracks a *watermark* — the maximum event timestamp seen
//! so far — which online feature extraction uses as "now" (the batch path
//! is called with the study-end clock; at end-of-stream the watermark
//! equals it).

use crate::log::{EventError, WorldEvent};
use crate::world::OsnWorld;
use likelab_graph::{PageId, UserId};
use likelab_sim::{Exec, SimTime};

/// One accepted world mutation, in application order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DetectorUpdate {
    /// A new account exists (dense id, so detectors can size arrays).
    AccountAdded {
        /// The new account's id.
        user: UserId,
    },
    /// A new page exists.
    PageAdded {
        /// The new page's id.
        page: PageId,
    },
    /// A like was accepted into the ledger (not a duplicate, liker active).
    LikeAccepted {
        /// Who liked.
        user: UserId,
        /// What they liked.
        page: PageId,
        /// When.
        at: SimTime,
    },
    /// A friendship edge was added (not previously present).
    FriendshipAdded {
        /// One endpoint.
        a: UserId,
        /// The other endpoint.
        b: UserId,
    },
    /// An account's off-network friend count changed.
    OffNetworkChanged {
        /// Whose count changed.
        user: UserId,
    },
    /// An active account was terminated.
    AccountTerminated {
        /// Who was terminated.
        user: UserId,
    },
    /// A terminated account was reinstated.
    AccountReinstated {
        /// Who came back.
        user: UserId,
    },
}

/// Applies [`WorldEvent`]s to an owned replica world and reports each
/// accepted mutation. See the module docs.
///
/// ```
/// use likelab_osn::fanout::{DetectorUpdate, EventFanout};
/// use likelab_osn::demographics::{Country, Gender, Profile};
/// use likelab_osn::page::PageCategory;
/// use likelab_osn::{ActorClass, OsnWorld, PrivacySettings, WorldEvent};
/// use likelab_sim::SimTime;
///
/// // Record a tiny world: one account, one page, the same like twice.
/// let mut world = OsnWorld::new();
/// world.set_recording(true);
/// let profile = Profile {
///     gender: Gender::Female,
///     age: 31,
///     country: Country::Usa,
///     home_region: 0,
/// };
/// let privacy = PrivacySettings {
///     friend_list_public: true,
///     likes_public: true,
///     searchable: true,
/// };
/// let user = world.create_account(profile, ActorClass::Organic, privacy, SimTime::EPOCH);
/// let page = world.create_page("p", "", None, PageCategory::Background, SimTime::EPOCH);
/// world.record_like(user, page, SimTime::at_day(1));
/// world.record_like(user, page, SimTime::at_day(2)); // duplicate: rejected
/// let events = world.drain_events();
///
/// // Fan the recorded stream out: the duplicate emits no update.
/// let mut fanout = EventFanout::new();
/// let mut likes = 0;
/// for ev in events {
///     fanout
///         .apply(ev, |u| {
///             if matches!(u, DetectorUpdate::LikeAccepted { .. }) {
///                 likes += 1;
///             }
///         })
///         .unwrap();
/// }
/// assert_eq!(likes, 1);
/// assert_eq!(fanout.world().likes().len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct EventFanout {
    world: OsnWorld,
    watermark: SimTime,
}

impl EventFanout {
    /// A fanout over a fresh, empty replica world.
    pub fn new() -> Self {
        EventFanout::default()
    }

    /// The replica world (read-only; every mutation goes through
    /// [`apply`](Self::apply)).
    pub fn world(&self) -> &OsnWorld {
        &self.world
    }

    /// The maximum event timestamp applied so far — online "now".
    pub fn watermark(&self) -> SimTime {
        self.watermark
    }

    fn advance(&mut self, at: SimTime) {
        if at > self.watermark {
            self.watermark = at;
        }
    }

    /// Apply one event to the replica world and hand every accepted
    /// mutation to `sink`, in application order. An event that fails
    /// [`OsnWorld::check_event`] changes nothing and emits nothing. Takes
    /// the event by value: a page's strings move into the replica.
    pub fn apply(
        &mut self,
        ev: WorldEvent,
        mut sink: impl FnMut(DetectorUpdate),
    ) -> Result<(), EventError> {
        self.world.check_event(&ev)?;
        match ev {
            WorldEvent::AccountCreated {
                profile,
                class,
                privacy,
                at,
            } => {
                let user = self.world.create_account(profile, class, privacy, at);
                self.advance(at);
                sink(DetectorUpdate::AccountAdded { user });
            }
            WorldEvent::PageCreated {
                name,
                description,
                owner,
                category,
                at,
            } => {
                let page = self
                    .world
                    .create_page(name, description, owner, category, at);
                self.advance(at);
                sink(DetectorUpdate::PageAdded { page });
            }
            WorldEvent::Friendship { a, b } => {
                if self.world.add_friendship(a, b) {
                    sink(DetectorUpdate::FriendshipAdded { a, b });
                }
            }
            WorldEvent::FriendshipBatch { edges } => {
                // `apply_event` adds batch edges straight to the graph;
                // `add_friendship` is the same insertion plus the acceptance
                // bool we need here.
                for (a, b) in edges {
                    if self.world.add_friendship(a, b) {
                        sink(DetectorUpdate::FriendshipAdded { a, b });
                    }
                }
            }
            WorldEvent::OffNetworkFriends { user, n } => {
                self.world.set_off_network_friends(user, n);
                sink(DetectorUpdate::OffNetworkChanged { user });
            }
            WorldEvent::LikeBatch { likes } => {
                // The journal carries the *input* batch: every item moves
                // the watermark, rejected ones included. The ledger appends
                // exactly the accepted items, in batch order.
                for &at in &likes.times {
                    self.advance(at);
                }
                let start = self.world.likes().len() as u32;
                self.world
                    .ingest_like_columns_owned(likes, Exec::Sequential);
                for r in self.world.likes().records_from(start) {
                    sink(DetectorUpdate::LikeAccepted {
                        user: r.user,
                        page: r.page,
                        at: r.at,
                    });
                }
            }
            WorldEvent::Terminated { user, at } => {
                self.advance(at);
                if self.world.terminate_account(user, at) {
                    sink(DetectorUpdate::AccountTerminated { user });
                }
            }
            WorldEvent::Reinstated { user } => {
                if self.world.reinstate_account(user) {
                    sink(DetectorUpdate::AccountReinstated { user });
                }
            }
        }
        Ok(())
    }

    /// Apply a whole event stream, collecting the updates; stops at the
    /// first event that fails [`OsnWorld::check_event`].
    pub fn apply_all(
        &mut self,
        events: impl IntoIterator<Item = WorldEvent>,
    ) -> Result<Vec<DetectorUpdate>, EventError> {
        let mut out = Vec::new();
        for ev in events {
            self.apply(ev, |u| out.push(u))?;
        }
        Ok(out)
    }

    /// Hand the replica world out (e.g. to run a batch detector over the
    /// final state without a clone).
    pub fn into_world(self) -> OsnWorld {
        self.world
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::{ActorClass, PrivacySettings};
    use crate::demographics::{Country, Gender, Profile};
    use crate::likes::LikeColumns;
    use crate::page::PageCategory;
    use likelab_sim::Exec;

    fn profile() -> Profile {
        Profile {
            gender: Gender::Male,
            age: 24,
            country: Country::India,
            home_region: 1,
        }
    }

    fn privacy() -> PrivacySettings {
        PrivacySettings {
            friend_list_public: true,
            likes_public: true,
            searchable: true,
        }
    }

    fn seeded_events() -> Vec<WorldEvent> {
        let mut w = OsnWorld::new();
        w.set_recording(true);
        let users: Vec<UserId> = (0..6)
            .map(|i| {
                w.create_account(
                    profile(),
                    if i < 4 {
                        ActorClass::Organic
                    } else {
                        ActorClass::Bot(0)
                    },
                    privacy(),
                    SimTime::at_day(i),
                )
            })
            .collect();
        let pages: Vec<PageId> = (0..2)
            .map(|i| {
                w.create_page(
                    format!("p{i}"),
                    "",
                    None,
                    PageCategory::Background,
                    SimTime::EPOCH,
                )
            })
            .collect();
        w.add_friendship(users[0], users[1]);
        w.add_friendship(users[0], users[1]); // duplicate edge: rejected
        w.generate_friendships(|g| {
            let mut added = Vec::new();
            for &(a, b) in &[(users[1], users[2]), (users[0], users[1])] {
                if g.add_edge(a, b) {
                    added.push((a, b));
                }
            }
            added
        });
        w.set_off_network_friends(users[3], 40);
        w.record_like(users[0], pages[0], SimTime::at_day(7));
        w.record_like(users[0], pages[0], SimTime::at_day(8)); // dup: rejected
        w.ingest_like_columns(
            &LikeColumns::from_rows(&[
                (users[1], pages[0], SimTime::at_day(7)),
                (users[1], pages[0], SimTime::at_day(7)), // in-batch dup
                (users[2], pages[1], SimTime::at_day(9)),
            ]),
            Exec::Sequential,
        );
        w.terminate_account(users[4], SimTime::at_day(10));
        w.terminate_account(users[4], SimTime::at_day(11)); // idempotent
        w.record_like(users[4], pages[1], SimTime::at_day(12)); // dead: rejected
        w.reinstate_account(users[4]);
        w.reinstate_account(users[4]); // idempotent: rejected
        w.drain_events()
    }

    #[test]
    fn replica_matches_apply_event_fold() {
        let events = seeded_events();
        let mut folded = OsnWorld::new();
        for ev in events.clone() {
            folded.apply_event(ev).unwrap();
        }
        let mut fanout = EventFanout::new();
        fanout.apply_all(events).unwrap();
        let replica = fanout.world();

        assert_eq!(replica.account_count(), folded.account_count());
        assert_eq!(replica.page_count(), folded.page_count());
        assert_eq!(replica.likes().len(), folded.likes().len());
        assert_eq!(
            replica.friends().edge_count(),
            folded.friends().edge_count()
        );
        let a: Vec<_> = replica.likes().records().collect();
        let b: Vec<_> = folded.likes().records().collect();
        assert_eq!(a, b, "ledger order must match the fold");
        for u in replica.user_ids() {
            assert_eq!(replica.is_active(u), folded.is_active(u));
            assert_eq!(replica.total_friend_count(u), folded.total_friend_count(u));
        }
    }

    #[test]
    fn only_accepted_mutations_emit_updates() {
        let events = seeded_events();
        let mut fanout = EventFanout::new();
        let updates = fanout.apply_all(events).unwrap();
        let count = |f: fn(&DetectorUpdate) -> bool| updates.iter().filter(|u| f(u)).count();

        // The recorder already filters rejected edges, terminations and
        // reinstatements out of the stream; likes are journaled as their
        // input batches, so the fanout re-filters them: 3 accepted likes
        // from 6 attempts (a duplicate of history, an in-batch duplicate,
        // a like by a terminated account).
        assert_eq!(
            count(|u| matches!(u, DetectorUpdate::AccountAdded { .. })),
            6
        );
        assert_eq!(count(|u| matches!(u, DetectorUpdate::PageAdded { .. })), 2);
        assert_eq!(
            count(|u| matches!(u, DetectorUpdate::FriendshipAdded { .. })),
            2
        );
        assert_eq!(
            count(|u| matches!(u, DetectorUpdate::LikeAccepted { .. })),
            3
        );
        assert_eq!(
            count(|u| matches!(u, DetectorUpdate::AccountTerminated { .. })),
            1
        );
        assert_eq!(
            count(|u| matches!(u, DetectorUpdate::AccountReinstated { .. })),
            1
        );
        assert_eq!(
            count(|u| matches!(u, DetectorUpdate::OffNetworkChanged { .. })),
            1
        );
    }

    #[test]
    fn watermark_tracks_the_maximum_event_time() {
        let events = seeded_events();
        let mut fanout = EventFanout::new();
        assert_eq!(fanout.watermark(), SimTime::EPOCH);
        fanout.apply_all(events).unwrap();
        // The rejected day-11 termination never reached the journal, but
        // the day-12 like batch did: every batch item moves the watermark,
        // the one a terminated account sent included.
        assert_eq!(fanout.watermark(), SimTime::at_day(12));
    }

    #[test]
    fn events_naming_unknown_ids_are_refused_untouched() {
        let mut fanout = EventFanout::new();
        fanout.apply_all(seeded_events()).unwrap();
        let mut folded = fanout.world().clone();
        let (likes, watermark) = (folded.likes().len(), fanout.watermark());
        let late = SimTime::at_day(99);
        let far = UserId(4_000_000);
        let mut ragged = LikeColumns::from_rows(&[(UserId(0), PageId(1), late)]);
        ragged.times.push(late);
        let bad = [
            (
                WorldEvent::LikeBatch {
                    likes: LikeColumns::from_rows(&[
                        (UserId(0), PageId(1), late),
                        (far, PageId(0), late),
                    ]),
                },
                EventError::UnknownUser(far),
            ),
            (
                WorldEvent::LikeBatch {
                    likes: LikeColumns::from_rows(&[(UserId(0), PageId(2), late)]),
                },
                EventError::UnknownPage(PageId(2)),
            ),
            (
                WorldEvent::LikeBatch { likes: ragged },
                EventError::RaggedLikeBatch {
                    users: 1,
                    pages: 1,
                    times: 2,
                },
            ),
            (
                WorldEvent::Friendship {
                    a: UserId(3),
                    b: UserId(3),
                },
                EventError::SelfFriendship(UserId(3)),
            ),
            (
                WorldEvent::Terminated {
                    user: UserId(6),
                    at: late,
                },
                EventError::UnknownUser(UserId(6)),
            ),
        ];
        for (ev, want) in bad {
            assert_eq!(
                fanout.apply(ev.clone(), |_| panic!("no update")),
                Err(want.clone())
            );
            assert_eq!(folded.apply_event(ev), Err(want));
        }
        assert_eq!(fanout.world().likes().len(), likes);
        assert_eq!(folded.likes().len(), likes);
        assert_eq!(fanout.watermark(), watermark);
    }
}
