//! Event → detector-update fanout: what a replayed
//! [`WorldEvent`](crate::WorldEvent) changed, for incremental detectors.
//!
//! A batch detector reads the finished [`OsnWorld`](crate::OsnWorld); an
//! *online* detector needs to know, per event, what actually changed.
//! Several events are not 1:1 with mutations: a `LikeBatch` journals the
//! *input* batch verbatim, so some of its items may be duplicates or
//! rejected likes from terminated accounts, and a `FriendshipBatch` can
//! carry edges that already exist.
//!
//! [`OsnWorld::apply_event`](crate::OsnWorld::apply_event), the one
//! applier of logged events, closes that gap: it applies each event
//! through the world's acceptance-reporting API (the same methods the
//! original run used) and hands its sink one [`DetectorUpdate`] per
//! **accepted** mutation. Rejected mutations emit nothing, which is
//! exactly the filtering the batch detectors get for free by reading the
//! final ledger. A like batch folds as one ledger ingest; its accepted
//! likes are the records it appended, in batch order. An event that fails
//! [`OsnWorld::check_event`](crate::OsnWorld::check_event) is refused
//! untouched. Replay and checkpoint resume pass a sink that drops every
//! update; `likelab serve` routes them into its online detectors.
//!
//! A stream's *watermark* — the maximum event time seen so far, which
//! online feature extraction uses as "now" — is the maximum of
//! [`WorldEvent::latest_time`](crate::WorldEvent::latest_time) over the
//! applied events, a like batch's rejected likes included; at
//! end-of-stream it equals the batch path's study-end clock.

use likelab_graph::{PageId, UserId};
use likelab_sim::SimTime;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::{ActorClass, PrivacySettings};
    use crate::demographics::{Country, Gender, Profile};
    use crate::likes::LikeColumns;
    use crate::log::{EventError, WorldEvent};
    use crate::page::PageCategory;
    use crate::world::OsnWorld;
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

    /// A recording world after every kind of mutation, its events still
    /// buffered.
    fn seeded_world() -> OsnWorld {
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
        w
    }

    fn seeded_events() -> Vec<WorldEvent> {
        seeded_world().drain_events()
    }

    /// Apply `events` to `world`, collecting the updates; stops at the
    /// first event that fails [`OsnWorld::check_event`].
    fn apply_all(
        world: &mut OsnWorld,
        events: Vec<WorldEvent>,
    ) -> Result<Vec<DetectorUpdate>, EventError> {
        let mut out = Vec::new();
        for ev in events {
            world.apply_event(ev, |u| out.push(u))?;
        }
        Ok(out)
    }

    #[test]
    fn replica_matches_apply_event_fold() {
        let mut original = seeded_world();
        let events = original.drain_events();
        let mut replica = OsnWorld::new();
        apply_all(&mut replica, events).unwrap();

        assert_eq!(replica.account_count(), original.account_count());
        assert_eq!(replica.page_count(), original.page_count());
        assert_eq!(replica.likes().len(), original.likes().len());
        assert_eq!(
            replica.friends().edge_count(),
            original.friends().edge_count()
        );
        let a: Vec<_> = replica.likes().records().collect();
        let b: Vec<_> = original.likes().records().collect();
        assert_eq!(a, b, "ledger order must match the recorded run");
        for u in replica.user_ids() {
            assert_eq!(replica.is_active(u), original.is_active(u));
            assert_eq!(
                replica.total_friend_count(u),
                original.total_friend_count(u)
            );
        }
    }

    #[test]
    fn only_accepted_mutations_emit_updates() {
        let updates = apply_all(&mut OsnWorld::new(), seeded_events()).unwrap();
        let count = |f: fn(&DetectorUpdate) -> bool| updates.iter().filter(|u| f(u)).count();

        // The recorder already filters rejected edges, terminations and
        // reinstatements out of the stream; likes are journaled as their
        // input batches, so `apply_event` re-filters them: 3 accepted likes
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
        let watermark = events.iter().filter_map(WorldEvent::latest_time).max();
        apply_all(&mut OsnWorld::new(), events).unwrap();
        // The rejected day-11 termination never reached the journal, but
        // the day-12 like batch did: every batch item moves the watermark,
        // the one a terminated account sent included.
        assert_eq!(watermark, Some(SimTime::at_day(12)));
    }

    #[test]
    fn events_naming_unknown_ids_are_refused_untouched() {
        let mut world = OsnWorld::new();
        apply_all(&mut world, seeded_events()).unwrap();
        let (accounts, likes) = (world.account_count(), world.likes().len());
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
            assert_eq!(world.apply_event(ev, |_| panic!("no update")), Err(want));
        }
        assert_eq!(world.account_count(), accounts);
        assert_eq!(world.likes().len(), likes);
    }
}
