//! The platform state: accounts, pages, friendships, likes — one world.
//!
//! `OsnWorld` is the single mutable state every other subsystem operates on.
//! Farms create accounts in it, the ad engine records likes into it, the
//! crawler reads privacy-filtered views of it, anti-fraud terminates
//! accounts in it.
//!
//! Accounts live in a columnar [`AccountStore`] (struct-of-arrays with an
//! interned demographics table); [`OsnWorld::account`] assembles the full
//! [`Account`] view by value, and hot paths that need a single column go
//! through [`OsnWorld::profile`] / the store accessors directly.

use crate::account::{Account, ActorClass, PrivacySettings};
use crate::demographics::Profile;
use crate::fanout::DetectorUpdate;
use crate::likes::{LikeColumns, LikeLedger};
use crate::log::{EventError, Recorder, WorldEvent};
use crate::page::{Page, PageCategory};
use crate::store::AccountStore;
use likelab_graph::{FriendGraph, PageId, UserId};
use likelab_sim::parallel::Exec;
use likelab_sim::SimTime;
use std::borrow::Cow;

/// The simulated platform.
#[derive(Clone, Debug, Default)]
pub struct OsnWorld {
    accounts: AccountStore,
    pages: Vec<Page>,
    friends: FriendGraph,
    ledger: LikeLedger,
    recorder: Recorder,
}

impl OsnWorld {
    /// An empty world.
    pub fn new() -> Self {
        OsnWorld::default()
    }

    // ----- event recording ----------------------------------------------

    /// Turn mutation recording on or off. While on, every accepted
    /// mutation buffers one [`WorldEvent`]; drain the buffer with
    /// [`drain_events`][Self::drain_events]. Off by default.
    pub fn set_recording(&mut self, on: bool) {
        self.recorder.set_enabled(on);
    }

    /// Whether mutation recording is currently on.
    pub fn recording(&self) -> bool {
        self.recorder.enabled()
    }

    /// Number of buffered (not yet drained) events.
    pub fn pending_events(&self) -> usize {
        self.recorder.len()
    }

    /// Take the buffered events, leaving the buffer empty.
    pub fn drain_events(&mut self) -> Vec<WorldEvent> {
        self.recorder.drain()
    }

    /// Check that every account and page `ev` names exists in this world,
    /// that no friendship is a self-loop and that a like batch's columns
    /// have equal lengths, so applying it cannot index out of bounds.
    /// [`apply_event`][Self::apply_event] calls this first, so every event
    /// replay, checkpoint resume and serve read from a log passes it.
    pub fn check_event(&self, ev: &WorldEvent) -> Result<(), EventError> {
        let (accounts, pages) = (self.accounts.len(), self.pages.len());
        let user = |u: UserId| {
            (u.idx() < accounts)
                .then_some(())
                .ok_or(EventError::UnknownUser(u))
        };
        let page = |p: PageId| {
            (p.idx() < pages)
                .then_some(())
                .ok_or(EventError::UnknownPage(p))
        };
        let edge = |a: UserId, b: UserId| {
            user(a).and(user(b))?;
            (a != b).then_some(()).ok_or(EventError::SelfFriendship(a))
        };
        match ev {
            WorldEvent::AccountCreated { .. } => Ok(()),
            WorldEvent::PageCreated { owner, .. } => owner.map_or(Ok(()), user),
            WorldEvent::Friendship { a, b } => edge(*a, *b),
            WorldEvent::FriendshipBatch { edges } => {
                edges.iter().try_for_each(|&(a, b)| edge(a, b))
            }
            WorldEvent::OffNetworkFriends { user: u, .. }
            | WorldEvent::Terminated { user: u, .. }
            | WorldEvent::Reinstated { user: u } => user(*u),
            WorldEvent::LikeBatch { likes } => {
                let (users, pages, times) =
                    (likes.users.len(), likes.pages.len(), likes.times.len());
                if pages != users || times != users {
                    return Err(EventError::RaggedLikeBatch {
                        users,
                        pages,
                        times,
                    });
                }
                likes
                    .users
                    .iter()
                    .zip(&likes.pages)
                    .try_for_each(|(&u, &p)| user(u).and(page(p)))
            }
        }
    }

    /// Apply a replayed event to this world — the one way a logged event
    /// enters one. Checks it first ([`check_event`][Self::check_event]) and
    /// leaves the world untouched, emitting nothing, when it fails;
    /// otherwise applies the same validation the original mutation did (so
    /// rejected duplicates stay rejected) and hands `sink` one
    /// [`DetectorUpdate`] per **accepted** mutation, in application order.
    /// A like batch's accepted likes are the records its ingest appended,
    /// in batch order. Never records, even when recording is on — replaying
    /// a log must not re-log it. Takes the event by value: a page's strings
    /// move into the world.
    pub fn apply_event(
        &mut self,
        ev: WorldEvent,
        mut sink: impl FnMut(DetectorUpdate),
    ) -> Result<(), EventError> {
        self.check_event(&ev)?;
        let was_recording = self.recorder.enabled();
        self.recorder.set_enabled(false);
        match ev {
            WorldEvent::AccountCreated {
                profile,
                class,
                privacy,
                at,
            } => {
                let user = self.create_account(profile, class, privacy, at);
                sink(DetectorUpdate::AccountAdded { user });
            }
            WorldEvent::PageCreated {
                name,
                description,
                owner,
                category,
                at,
            } => {
                let page = self.create_page(name, description, owner, category, at);
                sink(DetectorUpdate::PageAdded { page });
            }
            WorldEvent::Friendship { a, b } => {
                if self.add_friendship(a, b) {
                    sink(DetectorUpdate::FriendshipAdded { a, b });
                }
            }
            WorldEvent::FriendshipBatch { edges } => {
                for (a, b) in edges {
                    if self.add_friendship(a, b) {
                        sink(DetectorUpdate::FriendshipAdded { a, b });
                    }
                }
            }
            WorldEvent::OffNetworkFriends { user, n } => {
                self.set_off_network_friends(user, n);
                sink(DetectorUpdate::OffNetworkChanged { user });
            }
            WorldEvent::LikeBatch { likes } => {
                let start = self.ledger.len() as u32;
                self.ingest_like_columns_owned(likes, Exec::Sequential);
                for r in self.ledger.records_from(start) {
                    sink(DetectorUpdate::LikeAccepted {
                        user: r.user,
                        page: r.page,
                        at: r.at,
                    });
                }
            }
            WorldEvent::Terminated { user, at } => {
                if self.terminate_account(user, at) {
                    sink(DetectorUpdate::AccountTerminated { user });
                }
            }
            WorldEvent::Reinstated { user } => {
                if self.reinstate_account(user) {
                    sink(DetectorUpdate::AccountReinstated { user });
                }
            }
        }
        self.recorder.set_enabled(was_recording);
        Ok(())
    }

    // ----- accounts -----------------------------------------------------

    /// Create an account and return its id.
    pub fn create_account(
        &mut self,
        profile: Profile,
        class: ActorClass,
        privacy: PrivacySettings,
        created_at: SimTime,
    ) -> UserId {
        let id = self.accounts.push(profile, class, privacy, created_at);
        self.friends.ensure_nodes(self.accounts.len());
        self.ledger.ensure_users(self.accounts.len());
        self.recorder.push_with(|| WorldEvent::AccountCreated {
            profile,
            class,
            privacy,
            at: created_at,
        });
        id
    }

    /// The account record, assembled by value from the columnar store.
    ///
    /// # Panics
    /// Panics on an unknown id.
    pub fn account(&self, id: UserId) -> Account {
        self.accounts.get(id)
    }

    /// The demographic profile alone — the audience-aggregation hot path
    /// (skips assembling the full [`Account`] view).
    pub fn profile(&self, id: UserId) -> Profile {
        self.accounts.profile(id)
    }

    /// True while the account is active (status column only).
    pub fn is_active(&self, id: UserId) -> bool {
        self.accounts.is_active(id)
    }

    /// Creation time alone (columnar; skips assembling the full account).
    pub fn created_at(&self, id: UserId) -> SimTime {
        self.accounts.created_at(id)
    }

    /// The columnar account store (read-only), for aggregations that want
    /// direct column access.
    pub fn account_store(&self) -> &AccountStore {
        &self.accounts
    }

    /// Number of accounts ever created (including terminated).
    pub fn account_count(&self) -> usize {
        self.accounts.len()
    }

    /// All account ids.
    pub fn user_ids(&self) -> impl Iterator<Item = UserId> + '_ {
        (0..self.accounts.len() as u32).map(UserId)
    }

    /// Set the count of friends beyond the simulated window (see
    /// [`Account::off_network_friends`]).
    pub fn set_off_network_friends(&mut self, id: UserId, n: u32) {
        self.accounts.set_off_network_friends(id, n);
        self.recorder
            .push_with(|| WorldEvent::OffNetworkFriends { user: id, n });
    }

    /// Total friend count as the profile reports it: in-world degree plus
    /// off-network friends.
    pub fn total_friend_count(&self, id: UserId) -> usize {
        self.friends.degree(id) + self.accounts.off_network_friends(id) as usize
    }

    /// Terminate an account (idempotent; the first termination time wins).
    /// Returns true when the account was active, false (recording nothing)
    /// when it was already terminated or the world holds no account `id`.
    pub fn terminate_account(&mut self, id: UserId, at: SimTime) -> bool {
        let accepted = self.accounts.terminate(id, at);
        if accepted {
            self.recorder
                .push_with(|| WorldEvent::Terminated { user: id, at });
        }
        accepted
    }

    /// Reinstate a terminated account (the appeal path); its likes become
    /// visible again. Returns true when the account was terminated, false
    /// (recording nothing) when it was active or the world holds no
    /// account `id`.
    pub fn reinstate_account(&mut self, id: UserId) -> bool {
        let accepted = self.accounts.reinstate(id);
        if accepted {
            self.recorder
                .push_with(|| WorldEvent::Reinstated { user: id });
        }
        accepted
    }

    // ----- pages ---------------------------------------------------------

    /// Create a page and return its id.
    pub fn create_page(
        &mut self,
        name: impl Into<String>,
        description: impl Into<String>,
        owner: Option<UserId>,
        category: PageCategory,
        created_at: SimTime,
    ) -> PageId {
        let id = PageId(self.pages.len() as u32);
        let name = name.into();
        let description = description.into();
        self.recorder.push_with(|| WorldEvent::PageCreated {
            name: name.clone(),
            description: description.clone(),
            owner,
            category,
            at: created_at,
        });
        self.pages.push(Page {
            id,
            name,
            description,
            owner,
            created_at,
            category,
        });
        self.ledger.ensure_pages(self.pages.len());
        id
    }

    /// The page record.
    pub fn page(&self, id: PageId) -> &Page {
        &self.pages[id.idx()]
    }

    /// Number of pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// All page ids.
    pub fn page_ids(&self) -> impl Iterator<Item = PageId> + '_ {
        (0..self.pages.len() as u32).map(PageId)
    }

    // ----- friendships ---------------------------------------------------

    /// Befriend two accounts. Returns true when the edge was new.
    pub fn add_friendship(&mut self, a: UserId, b: UserId) -> bool {
        let added = self.friends.add_edge(a, b);
        if added {
            self.recorder.push_with(|| WorldEvent::Friendship { a, b });
        }
        added
    }

    /// Run a bulk friendship generator against the graph and journal the
    /// edges it reports as one [`WorldEvent::FriendshipBatch`]. The closure
    /// must return exactly the edges it added, in insertion order — the
    /// graph generators (`chung_lu`, `pairs_and_triplets`) do.
    ///
    /// This is the sanctioned path for bulk wiring; mutating the graph
    /// behind the world's back would leave holes in the event log (the
    /// `log-bypass` lint flags that).
    pub fn generate_friendships<F>(&mut self, f: F) -> Vec<(UserId, UserId)>
    where
        F: FnOnce(&mut FriendGraph) -> Vec<(UserId, UserId)>,
    {
        let edges = f(&mut self.friends);
        if !edges.is_empty() {
            self.recorder.push_with(|| WorldEvent::FriendshipBatch {
                edges: edges.clone(),
            });
        }
        edges
    }

    /// The friendship graph (read-only).
    pub fn friends(&self) -> &FriendGraph {
        &self.friends
    }

    /// Mutable friendship graph, for bulk generators.
    ///
    /// Prefer [`generate_friendships`][Self::generate_friendships]: edges
    /// added through this escape hatch are invisible to the event log.
    pub fn friends_mut(&mut self) -> &mut FriendGraph {
        &mut self.friends
    }

    // ----- likes -----------------------------------------------------------

    /// Record one like: a one-like batch through
    /// [`ingest_like_columns`][Self::ingest_like_columns], journaled as
    /// such. Returns true when the like was new and its liker active.
    pub fn record_like(&mut self, user: UserId, page: PageId, at: SimTime) -> bool {
        let mut one = LikeColumns::with_capacity(1);
        one.push(user, page, at);
        self.ingest_like_columns(&one, Exec::Sequential) == 1
    }

    /// Ingest a batch of likes — the one way likes enter the world. Likes
    /// by terminated accounts are rejected and duplicates ignored (first
    /// occurrence wins, see [`LikeLedger::ingest_columns`]); returns how
    /// many were new and accepted. Byte-identical outcome for every `exec`.
    /// Journals the *input* batch as one [`WorldEvent::LikeBatch`]; replay
    /// re-applies the same filter against identical state.
    pub fn ingest_like_columns(&mut self, batch: &LikeColumns, exec: Exec) -> usize {
        self.ingest_likes(Cow::Borrowed(batch), exec)
    }

    /// [`ingest_like_columns`][Self::ingest_like_columns] for a batch the
    /// caller gives up, so an empty ledger can take over its columns
    /// instead of copying them: the population's batch, synthesized or
    /// replayed. Same outcome and same journal record.
    pub fn ingest_like_columns_owned(&mut self, batch: LikeColumns, exec: Exec) -> usize {
        self.ingest_likes(Cow::Owned(batch), exec)
    }

    fn ingest_likes(&mut self, batch: Cow<'_, LikeColumns>, exec: Exec) -> usize {
        if !batch.is_empty() {
            self.recorder.push_with(|| WorldEvent::LikeBatch {
                likes: LikeColumns::clone(&batch),
            });
        }
        let batch = if batch.users.iter().all(|&u| self.accounts.is_active(u)) {
            // Synthesis-time fast path: nobody is terminated yet, ingest the
            // batch as it is.
            batch
        } else {
            let mut kept = LikeColumns::with_capacity(batch.len());
            for (user, page, at) in batch.rows() {
                if self.accounts.is_active(user) {
                    kept.push(user, page, at);
                }
            }
            Cow::Owned(kept)
        };
        // lint:allow(log-bypass): the world's own appender; the batch was journaled above.
        self.ledger.ingest_columns_owned(batch, exec)
    }

    /// Make room in the like ledger for likes still to come, `users[i]`
    /// liking `pages[i]` (a study's unfired plan), so that ingesting them
    /// moves no list and grows no buffer (see [`LikeLedger::reserve`]).
    /// Changes no like and journals nothing: where a ledger's lists lie is
    /// not part of the world's state.
    pub fn reserve_likes(&mut self, users: &[UserId], pages: &[PageId]) {
        self.ledger.reserve(users, pages);
    }

    /// The like ledger (read-only).
    pub fn likes(&self) -> &LikeLedger {
        &self.ledger
    }

    /// Current *visible* likers of a page: active accounts only, in like
    /// order. Terminated accounts' likes disappear from public view, which
    /// is how the paper could count terminated likers a month later.
    pub fn visible_likers(&self, page: PageId) -> Vec<UserId> {
        // User column only — the poll path runs this per snapshot.
        self.ledger
            .page_users(page)
            .filter(|&u| self.accounts.is_active(u))
            .collect()
    }

    /// Every account that ever liked `page`, with like times, regardless of
    /// current status. This is the *platform-side* record (admin reports are
    /// computed from it).
    pub fn all_likers(&self, page: PageId) -> Vec<(UserId, SimTime)> {
        self.ledger.page_user_times(page).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::AccountStatus;
    use crate::demographics::{Country, Gender};

    fn profile() -> Profile {
        Profile {
            gender: Gender::Male,
            age: 22,
            country: Country::India,
            home_region: 0,
        }
    }

    fn privacy() -> PrivacySettings {
        PrivacySettings {
            friend_list_public: true,
            likes_public: true,
            searchable: true,
        }
    }

    fn world_with(n: usize) -> OsnWorld {
        let mut w = OsnWorld::new();
        for _ in 0..n {
            w.create_account(profile(), ActorClass::Organic, privacy(), SimTime::EPOCH);
        }
        w
    }

    #[test]
    fn ids_are_dense_and_stable() {
        let w = world_with(3);
        assert_eq!(w.account_count(), 3);
        for (i, id) in w.user_ids().enumerate() {
            assert_eq!(id, UserId(i as u32));
            assert_eq!(w.account(id).id, id);
        }
    }

    #[test]
    fn likes_flow_through_ledger() {
        let mut w = world_with(2);
        let p = w.create_page("x", "", None, PageCategory::Background, SimTime::EPOCH);
        assert!(w.record_like(UserId(0), p, SimTime::at_day(1)));
        assert!(!w.record_like(UserId(0), p, SimTime::at_day(2)), "dup");
        assert_eq!(w.likes().page_like_count(p), 1);
    }

    #[test]
    fn terminated_accounts_cannot_like_and_vanish() {
        let mut w = world_with(3);
        let p = w.create_page("h", "", None, PageCategory::Honeypot, SimTime::EPOCH);
        w.record_like(UserId(0), p, SimTime::at_day(1));
        w.record_like(UserId(1), p, SimTime::at_day(2));
        assert!(w.terminate_account(UserId(0), SimTime::at_day(3)));
        assert!(
            !w.terminate_account(UserId(0), SimTime::at_day(4)),
            "idempotent"
        );
        // New likes rejected.
        assert!(!w.record_like(UserId(0), p, SimTime::at_day(5)));
        // Public view loses the terminated liker; platform record keeps it.
        assert_eq!(w.visible_likers(p), vec![UserId(1)]);
        assert_eq!(w.all_likers(p).len(), 2);
        match w.account(UserId(0)).status {
            AccountStatus::Terminated(t) => assert_eq!(t, SimTime::at_day(3)),
            AccountStatus::Active => unreachable!(),
        }
    }

    #[test]
    fn ingest_rejects_terminated_likers() {
        let mut w = world_with(3);
        let p = w.create_page("h", "", None, PageCategory::Honeypot, SimTime::EPOCH);
        w.terminate_account(UserId(2), SimTime::at_day(1));
        let batch = LikeColumns::from_rows(&[
            (UserId(0), p, SimTime::at_day(2)),
            (UserId(2), p, SimTime::at_day(2)), // terminated: dropped
            (UserId(1), p, SimTime::at_day(3)),
            (UserId(0), p, SimTime::at_day(4)), // dup: dropped
        ]);
        assert_eq!(w.ingest_like_columns(&batch, Exec::Sequential), 2);
        assert_eq!(w.visible_likers(p), vec![UserId(0), UserId(1)]);
        assert_eq!(w.likes().user_like_count(UserId(2)), 0);
    }

    #[test]
    fn off_network_friends_pad_totals() {
        let mut w = world_with(2);
        w.add_friendship(UserId(0), UserId(1));
        assert_eq!(w.total_friend_count(UserId(0)), 1);
        w.set_off_network_friends(UserId(0), 120);
        assert_eq!(w.total_friend_count(UserId(0)), 121);
        assert_eq!(w.total_friend_count(UserId(1)), 1);
    }

    #[test]
    fn friendships_are_shared_graph() {
        let mut w = world_with(3);
        assert!(w.add_friendship(UserId(0), UserId(2)));
        assert!(!w.add_friendship(UserId(2), UserId(0)));
        assert!(w.friends().has_edge(UserId(0), UserId(2)));
        assert_eq!(w.friends().degree(UserId(1)), 0);
    }

    #[test]
    fn pages_are_dense() {
        let mut w = world_with(1);
        let a = w.create_page(
            "a",
            "d",
            Some(UserId(0)),
            PageCategory::Honeypot,
            SimTime::EPOCH,
        );
        let b = w.create_page("b", "d", None, PageCategory::Background, SimTime::EPOCH);
        assert_eq!(a, PageId(0));
        assert_eq!(b, PageId(1));
        assert!(w.page(a).is_honeypot());
        assert!(!w.page(b).is_honeypot());
        assert_eq!(w.page_ids().count(), 2);
    }

    #[test]
    fn profiles_intern_across_accounts() {
        let w = world_with(50);
        assert_eq!(w.account_store().distinct_profiles(), 1);
        assert_eq!(w.profile(UserId(17)), profile());
    }
}
