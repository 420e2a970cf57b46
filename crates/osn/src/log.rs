//! World mutation events — the vocabulary of the event-sourced world log.
//!
//! Every mutation of [`OsnWorld`](crate::OsnWorld) (account creation,
//! friendship, like, termination, …) can be captured as a [`WorldEvent`].
//! The world carries an embedded recorder: when recording is on, each
//! *accepted* mutation appends one event to an in-memory buffer that the
//! orchestration layer drains into a durable log. Replaying the events in
//! order against a fresh world reproduces the original state exactly —
//! that is the replay-identity guarantee the CI gate checks.
//!
//! Two deliberate asymmetries keep the log compact without breaking
//! identity:
//!
//! - rejected singleton mutations (duplicate edges, double terminations)
//!   are *not* logged — replay applies the same validation, so the
//!   outcomes match;
//! - every like enters the world as a batch, and a batch is logged as its
//!   *input* ([`WorldEvent::LikeBatch`]), duplicates and likes by
//!   terminated accounts included; replay re-filters it against the
//!   replayed account state, which is identical at that point in the
//!   stream.
//!
//! A log comes from outside the process, so replay checks each event
//! against the world first: one naming an account or page the world does
//! not have is an [`EventError`], not an out-of-bounds panic.

use crate::account::{ActorClass, PrivacySettings};
use crate::demographics::Profile;
use crate::likes::LikeColumns;
use crate::page::PageCategory;
use likelab_graph::{PageId, UserId};
use likelab_sim::SimTime;
use std::fmt;

/// One accepted world mutation, in a form that can be serialized, stored,
/// and replayed. Events are self-contained: replay needs no RNG and no
/// model parameters, only the stream in its original order.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum WorldEvent {
    /// An account came into existence. Ids are dense and assigned in
    /// creation order, so the event does not need to carry one.
    AccountCreated {
        /// Demographic profile.
        profile: Profile,
        /// Ground-truth actor class.
        class: ActorClass,
        /// Privacy settings at creation.
        privacy: PrivacySettings,
        /// Creation time.
        at: SimTime,
    },
    /// A page came into existence (dense ids, creation order).
    PageCreated {
        /// Display name.
        name: String,
        /// Free-form description.
        description: String,
        /// Owning account, if any.
        owner: Option<UserId>,
        /// Page category.
        category: PageCategory,
        /// Creation time.
        at: SimTime,
    },
    /// A single new friendship edge.
    Friendship {
        /// One endpoint.
        a: UserId,
        /// The other endpoint.
        b: UserId,
    },
    /// A batch of new edges from a bulk generator, in insertion order.
    FriendshipBatch {
        /// The edges, exactly as the generator added them.
        edges: Vec<(UserId, UserId)>,
    },
    /// The off-network friend count of an account was set.
    OffNetworkFriends {
        /// The account.
        user: UserId,
        /// New off-network friend count.
        n: u32,
    },
    /// A like ingestion — the *input* batch, before filtering; the only
    /// like event. Replay re-applies the same active-account filter and
    /// duplicate rejection, which produce identical results against the
    /// replayed state. Journaled as the columns it arrived in (three
    /// integer arrays), which replay ingests as they are.
    LikeBatch {
        /// The batch exactly as handed to `ingest_like_columns`.
        likes: LikeColumns,
    },
    /// An active account was terminated.
    Terminated {
        /// The account.
        user: UserId,
        /// Termination time.
        at: SimTime,
    },
    /// A terminated account was reinstated.
    Reinstated {
        /// The account.
        user: UserId,
    },
}

impl WorldEvent {
    /// The latest simulation time the event carries: its `at`, or a like
    /// batch's latest like time, rejected likes included. `None` for
    /// events without a time (friendships, off-network counts,
    /// reinstatements) and for an empty batch. A log fold's watermark is
    /// the maximum of these.
    pub fn latest_time(&self) -> Option<SimTime> {
        match self {
            WorldEvent::AccountCreated { at, .. }
            | WorldEvent::PageCreated { at, .. }
            | WorldEvent::Terminated { at, .. } => Some(*at),
            WorldEvent::LikeBatch { likes } => likes.times.iter().max().copied(),
            WorldEvent::Friendship { .. }
            | WorldEvent::FriendshipBatch { .. }
            | WorldEvent::OffNetworkFriends { .. }
            | WorldEvent::Reinstated { .. } => None,
        }
    }
}

/// Why a [`WorldEvent`] cannot apply to a world.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventError {
    /// It names a user id at or past the world's account count.
    UnknownUser(UserId),
    /// It names a page id at or past the world's page count.
    UnknownPage(PageId),
    /// It befriends an account with itself.
    SelfFriendship(UserId),
    /// It carries a like batch whose columns differ in length.
    RaggedLikeBatch {
        /// Length of the `users` column.
        users: usize,
        /// Length of the `pages` column.
        pages: usize,
        /// Length of the `times` column.
        times: usize,
    },
}

impl fmt::Display for EventError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventError::UnknownUser(user) => write!(f, "unknown user {user}"),
            EventError::UnknownPage(page) => write!(f, "unknown page {page}"),
            EventError::SelfFriendship(user) => write!(f, "self-friendship of user {user}"),
            EventError::RaggedLikeBatch {
                users,
                pages,
                times,
            } => write!(
                f,
                "like batch columns differ in length: {users} users, {pages} pages, {times} times"
            ),
        }
    }
}

impl std::error::Error for EventError {}

/// The world's embedded event recorder: a buffer of accepted mutations,
/// filled only while recording is enabled (off by default, so untraced
/// runs pay nothing but a branch per mutation).
#[derive(Clone, Debug, Default)]
pub(crate) struct Recorder {
    enabled: bool,
    buf: Vec<WorldEvent>,
}

impl Recorder {
    pub(crate) fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// Append an event if recording; `ev` is only built when needed.
    pub(crate) fn push_with(&mut self, ev: impl FnOnce() -> WorldEvent) {
        if self.enabled {
            self.buf.push(ev());
        }
    }

    pub(crate) fn drain(&mut self) -> Vec<WorldEvent> {
        std::mem::take(&mut self.buf)
    }

    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::AccountStatus;
    use crate::demographics::{Country, Gender};
    use crate::world::OsnWorld;
    use likelab_sim::parallel::Exec;

    fn profile() -> Profile {
        Profile {
            gender: Gender::Female,
            age: 31,
            country: Country::Usa,
            home_region: 2,
        }
    }

    fn privacy() -> PrivacySettings {
        PrivacySettings {
            friend_list_public: true,
            likes_public: false,
            searchable: true,
        }
    }

    /// Build a small world with every mutation kind while recording, then
    /// replay the drained events into a fresh world and compare state.
    #[test]
    fn replayed_events_reproduce_world_state() {
        let mut w = OsnWorld::new();
        w.set_recording(true);
        for _ in 0..6 {
            w.create_account(profile(), ActorClass::Organic, privacy(), SimTime::EPOCH);
        }
        let p = w.create_page(
            "honeypot",
            "plain page",
            Some(UserId(0)),
            PageCategory::Honeypot,
            SimTime::at_day(1),
        );
        w.add_friendship(UserId(0), UserId(1));
        w.add_friendship(UserId(1), UserId(0)); // duplicate: rejected, not logged
        w.generate_friendships(|g| {
            let mut added = Vec::new();
            if g.add_edge(UserId(2), UserId(3)) {
                added.push((UserId(2), UserId(3)));
            }
            if g.add_edge(UserId(3), UserId(4)) {
                added.push((UserId(3), UserId(4)));
            }
            added
        });
        w.set_off_network_friends(UserId(2), 77);
        w.record_like(UserId(0), p, SimTime::at_day(2));
        w.record_like(UserId(0), p, SimTime::at_day(3)); // dup: re-filtered on replay
        w.terminate_account(UserId(4), SimTime::at_day(3));
        w.terminate_account(UserId(4), SimTime::at_day(4)); // idempotent: not logged
        w.ingest_like_columns(
            &LikeColumns::from_rows(&[
                (UserId(1), p, SimTime::at_day(4)),
                (UserId(4), p, SimTime::at_day(4)), // terminated at replay time too
                (UserId(2), p, SimTime::at_day(5)),
            ]),
            Exec::Sequential,
        );
        w.reinstate_account(UserId(4));
        let events = w.drain_events();
        assert!(
            events.len() >= 12,
            "expected one event per accepted mutation, got {}",
            events.len()
        );

        let mut replayed = OsnWorld::new();
        for ev in events {
            replayed.apply_event(ev, |_| {}).unwrap();
        }
        assert_eq!(replayed.account_count(), w.account_count());
        assert_eq!(replayed.page_count(), w.page_count());
        for id in w.user_ids() {
            assert_eq!(
                format!("{:?}", replayed.account(id)),
                format!("{:?}", w.account(id)),
                "account {id:?}"
            );
            assert_eq!(
                replayed.total_friend_count(id),
                w.total_friend_count(id),
                "friends of {id:?}"
            );
        }
        assert_eq!(replayed.all_likers(p), w.all_likers(p));
        assert_eq!(replayed.visible_likers(p), w.visible_likers(p));
        match replayed.account(UserId(4)).status {
            AccountStatus::Active => {}
            AccountStatus::Terminated(_) => panic!("reinstated account must be active"),
        }
    }

    #[test]
    fn rejected_singleton_mutations_are_not_logged() {
        let mut w = OsnWorld::new();
        w.set_recording(true);
        w.create_account(profile(), ActorClass::Organic, privacy(), SimTime::EPOCH);
        w.create_account(profile(), ActorClass::Organic, privacy(), SimTime::EPOCH);
        let n_create = w.drain_events().len();
        assert_eq!(n_create, 2);
        w.add_friendship(UserId(0), UserId(1));
        w.add_friendship(UserId(0), UserId(1));
        assert_eq!(w.drain_events().len(), 1, "duplicate edge not logged");
        let p = w.create_page("x", "", None, PageCategory::Background, SimTime::EPOCH);
        w.drain_events();
        w.terminate_account(UserId(0), SimTime::at_day(1));
        w.terminate_account(UserId(0), SimTime::at_day(2)); // rejected
        let evs = w.drain_events();
        assert_eq!(
            evs.len(),
            1,
            "only the first termination is logged: {evs:?}"
        );
        assert!(matches!(evs[0], WorldEvent::Terminated { .. }));
        // A like is journaled as its input batch, even when rejected.
        assert!(!w.record_like(UserId(0), p, SimTime::at_day(2)));
        assert!(matches!(
            &w.drain_events()[..],
            [WorldEvent::LikeBatch { likes }] if likes.len() == 1
        ));
    }

    #[test]
    fn recording_off_by_default_and_drains_empty() {
        let mut w = OsnWorld::new();
        assert!(!w.recording());
        w.create_account(profile(), ActorClass::Organic, privacy(), SimTime::EPOCH);
        assert!(w.drain_events().is_empty());
    }

    #[test]
    fn events_roundtrip_through_json() {
        let evs = vec![
            WorldEvent::AccountCreated {
                profile: profile(),
                class: ActorClass::Bot(3),
                privacy: privacy(),
                at: SimTime::at_day(3),
            },
            WorldEvent::FriendshipBatch {
                edges: vec![(UserId(0), UserId(1)), (UserId(2), UserId(0))],
            },
            WorldEvent::LikeBatch {
                likes: LikeColumns::from_rows(&[
                    (UserId(1), PageId(0), SimTime::at_day(9)),
                    (UserId(3), PageId(2), SimTime::at_day(9)),
                ]),
            },
            WorldEvent::Reinstated { user: UserId(7) },
        ];
        // A like batch travels as its three columns.
        assert_eq!(
            serde_json::to_string(&evs[2]).unwrap(),
            r#"{"LikeBatch":{"likes":{"users":[1,3],"pages":[0,2],"times":[777600,777600]}}}"#
        );
        for ev in &evs {
            let json = serde_json::to_string(ev).unwrap();
            let back: WorldEvent = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, ev);
        }
    }
}
