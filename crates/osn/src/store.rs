//! Struct-of-arrays account storage with an interned demographics table.
//!
//! At million-account scale the natural `Vec<Account>` layout wastes memory
//! (every account repeats a full [`Profile`]) and drags cold fields through
//! the cache on every hot-path scan (audience aggregation touches only
//! demographics; the fraud sweep touches only class and status). This store
//! keeps one dense column per field and deduplicates profiles through an
//! intern table: the value space of [`Profile`] is tiny, so millions of
//! accounts share a few thousand distinct entries and the per-account
//! demographic cost drops to a `u32` handle.
//!
//! [`Account`] remains the public view type — [`AccountStore::get`]
//! assembles one by value on demand, so call sites read exactly as they did
//! with the array-of-structs layout.

use crate::account::{Account, AccountStatus, ActorClass, PrivacySettings};
use crate::demographics::Profile;
use likelab_graph::UserId;
use likelab_sim::SimTime;
use std::collections::HashMap;

/// Columnar account storage. See the module docs for the layout rationale.
#[derive(Clone, Debug, Default)]
pub struct AccountStore {
    /// Handle into `profiles`, one per account.
    profile_ids: Vec<u32>,
    created_at: Vec<SimTime>,
    class: Vec<ActorClass>,
    status: Vec<AccountStatus>,
    /// Packed [`PrivacySettings::to_bits`] per account.
    privacy: Vec<u8>,
    off_network_friends: Vec<u32>,
    /// The interned demographics table, in first-seen order.
    profiles: Vec<Profile>,
    /// Profile → handle. Only used during writes; reads go through
    /// `profiles`, so lookup-map iteration order can never leak into output.
    intern: HashMap<Profile, u32>,
}

impl AccountStore {
    /// An empty store.
    pub fn new() -> Self {
        AccountStore::default()
    }

    /// Number of accounts (including terminated).
    pub fn len(&self) -> usize {
        self.profile_ids.len()
    }

    /// True when no account was created yet.
    pub fn is_empty(&self) -> bool {
        self.profile_ids.is_empty()
    }

    /// Append an account, returning its dense id.
    pub fn push(
        &mut self,
        profile: Profile,
        class: ActorClass,
        privacy: PrivacySettings,
        created_at: SimTime,
    ) -> UserId {
        let id = UserId(self.profile_ids.len() as u32);
        let next = self.profiles.len() as u32;
        let pid = *self.intern.entry(profile).or_insert(next);
        if pid == next {
            self.profiles.push(profile);
        }
        self.profile_ids.push(pid);
        self.created_at.push(created_at);
        self.class.push(class);
        self.status.push(AccountStatus::Active);
        self.privacy.push(privacy.to_bits());
        self.off_network_friends.push(0);
        id
    }

    /// Assemble the full account view by value.
    ///
    /// # Panics
    /// Panics on an unknown id.
    pub fn get(&self, id: UserId) -> Account {
        let i = id.idx();
        Account {
            id,
            profile: self.profiles[self.profile_ids[i] as usize],
            created_at: self.created_at[i],
            class: self.class[i],
            status: self.status[i],
            privacy: PrivacySettings::from_bits(self.privacy[i]),
            off_network_friends: self.off_network_friends[i],
        }
    }

    /// The demographic profile column, without assembling a full account —
    /// the audience-aggregation hot path.
    pub fn profile(&self, id: UserId) -> Profile {
        self.profiles[self.profile_ids[id.idx()] as usize]
    }

    /// The creation-time column.
    pub fn created_at(&self, id: UserId) -> SimTime {
        self.created_at[id.idx()]
    }

    /// The raw status column. Dense scans (the fraud sweep's candidate
    /// filter, activity tallies) walk this branch-predictably instead of
    /// assembling an [`Account`] per row.
    pub fn statuses(&self) -> &[AccountStatus] {
        &self.status
    }

    /// The interned profile-handle column, parallel to account ids. Columnar
    /// aggregations histogram over these `u32`s (the value space is tiny —
    /// thousands of distinct profiles for millions of accounts) and expand
    /// through [`interned_profiles`][Self::interned_profiles] once at the
    /// end instead of touching the demographics table per row.
    pub fn profile_handles(&self) -> &[u32] {
        &self.profile_ids
    }

    /// The interned demographics table, indexed by profile handle.
    pub fn interned_profiles(&self) -> &[Profile] {
        &self.profiles
    }

    /// The ground-truth class column.
    pub fn class(&self, id: UserId) -> ActorClass {
        self.class[id.idx()]
    }

    /// The status column.
    pub fn status(&self, id: UserId) -> AccountStatus {
        self.status[id.idx()]
    }

    /// True while the account is active.
    pub fn is_active(&self, id: UserId) -> bool {
        self.status[id.idx()].is_active()
    }

    /// Set the off-network friend count.
    pub fn set_off_network_friends(&mut self, id: UserId, n: u32) {
        self.off_network_friends[id.idx()] = n;
    }

    /// The off-network friend count.
    pub fn off_network_friends(&self, id: UserId) -> u32 {
        // lint:allow(panic-reachable-from-serve): ids come from this store's own registry
        self.off_network_friends[id.idx()]
    }

    /// Terminate an account (idempotent; the first termination time wins).
    /// Returns true when the account was active, false when it was already
    /// terminated or the store holds no account `id`.
    pub fn terminate(&mut self, id: UserId, at: SimTime) -> bool {
        match self.status.get_mut(id.idx()) {
            Some(status) if status.is_active() => *status = AccountStatus::Terminated(at),
            _ => return false,
        }
        true
    }

    /// Reinstate a terminated account (the appeal path: platforms do give
    /// accounts back, and their likes resurface). Returns true when the
    /// account was terminated, false when it was active or the store holds
    /// no account `id`.
    pub fn reinstate(&mut self, id: UserId) -> bool {
        match self.status.get_mut(id.idx()) {
            Some(status) if !status.is_active() => *status = AccountStatus::Active,
            _ => return false,
        }
        true
    }

    /// Number of distinct interned profiles (a compactness metric for the
    /// scale bench and tests).
    pub fn distinct_profiles(&self) -> usize {
        self.profiles.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demographics::{Country, Gender};

    fn profile(age: u8) -> Profile {
        Profile {
            gender: Gender::Female,
            age,
            country: Country::Usa,
            home_region: 1,
        }
    }

    fn privacy() -> PrivacySettings {
        PrivacySettings {
            friend_list_public: true,
            likes_public: false,
            searchable: true,
        }
    }

    #[test]
    fn round_trips_every_field() {
        let mut s = AccountStore::new();
        let at = SimTime::at_day(3);
        let id = s.push(profile(30), ActorClass::Bot(7), privacy(), at);
        let a = s.get(id);
        assert_eq!(a.id, id);
        assert_eq!(a.profile, profile(30));
        assert_eq!(a.created_at, at);
        assert_eq!(a.class, ActorClass::Bot(7));
        assert_eq!(a.status, AccountStatus::Active);
        assert_eq!(a.privacy, privacy());
        assert_eq!(a.off_network_friends, 0);
    }

    #[test]
    fn profiles_are_interned() {
        let mut s = AccountStore::new();
        for _ in 0..100 {
            s.push(profile(30), ActorClass::Organic, privacy(), SimTime::EPOCH);
        }
        for age in [20, 25] {
            s.push(profile(age), ActorClass::Organic, privacy(), SimTime::EPOCH);
        }
        assert_eq!(s.len(), 102);
        assert_eq!(s.distinct_profiles(), 3, "100 duplicates share one entry");
        assert_eq!(s.profile(UserId(0)), profile(30));
        assert_eq!(s.profile(UserId(101)), profile(25));
    }

    #[test]
    fn termination_is_idempotent() {
        let mut s = AccountStore::new();
        let id = s.push(profile(40), ActorClass::Organic, privacy(), SimTime::EPOCH);
        assert!(s.is_active(id));
        assert!(s.terminate(id, SimTime::at_day(5)));
        assert!(!s.terminate(id, SimTime::at_day(9)), "first time wins");
        assert_eq!(s.status(id), AccountStatus::Terminated(SimTime::at_day(5)));
        assert!(!s.is_active(id));
    }

    #[test]
    fn status_changes_of_an_unknown_id_return_false_untouched() {
        let mut s = AccountStore::new();
        let a = s.push(profile(40), ActorClass::Organic, privacy(), SimTime::EPOCH);
        let b = s.push(profile(41), ActorClass::Organic, privacy(), SimTime::EPOCH);
        assert!(s.terminate(b, SimTime::at_day(2)));
        let before = [s.status(a), s.status(b)];
        assert!(!s.terminate(UserId(2), SimTime::at_day(5)));
        assert!(!s.reinstate(UserId(2)));
        assert!(!s.terminate(UserId(u32::MAX), SimTime::at_day(5)));
        assert!(!s.reinstate(UserId(u32::MAX)));
        assert_eq!([s.status(a), s.status(b)], before);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn off_network_friends_column() {
        let mut s = AccountStore::new();
        let id = s.push(profile(40), ActorClass::Organic, privacy(), SimTime::EPOCH);
        assert_eq!(s.off_network_friends(id), 0);
        s.set_off_network_friends(id, 77);
        assert_eq!(s.off_network_friends(id), 77);
        assert_eq!(s.get(id).off_network_friends, 77);
    }
}
