//! Property: any interleaving-valid permutation of same-timestamp world
//! events replays to the identical world state.
//!
//! Events that carry the same timestamp and touch disjoint entities are
//! commutative by construction — the log's total order between them is an
//! artifact of append order, not causality. Replaying them in any such
//! order must converge on the same world.

use likelab::graph::{PageId, UserId};
use likelab::osn::demographics::Country;
use likelab::osn::{
    ActorClass, Gender, LikeColumns, OsnWorld, PageCategory, PrivacySettings, Profile, WorldEvent,
};
use likelab::sim::{Rng, SimTime};
use proptest::prelude::*;

const USERS: u32 = 8;
const PAGES: u32 = 5;

/// A base world with `USERS` accounts and `PAGES` pages, recording off.
fn base_world() -> OsnWorld {
    let mut w = OsnWorld::new();
    for i in 0..USERS {
        w.create_account(
            Profile {
                gender: if i % 2 == 0 {
                    Gender::Male
                } else {
                    Gender::Female
                },
                age: 20 + (i as u8 % 30),
                country: Country::Usa,
                home_region: (i % 3) as u8,
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
            format!("page-{i}"),
            "",
            None,
            PageCategory::Background,
            SimTime::EPOCH,
        );
    }
    w
}

/// Everything observable about the world, as a comparable string.
fn digest(w: &OsnWorld) -> String {
    let mut out = String::new();
    for u in 0..USERS {
        let id = UserId(u);
        out.push_str(&format!(
            "u{u}: active={} friends={} likes={}\n",
            w.is_active(id),
            w.total_friend_count(id),
            w.likes().user_like_count(id),
        ));
    }
    for p in 0..PAGES {
        let id = PageId(p);
        out.push_str(&format!(
            "p{p}: all={:?} visible={:?}\n",
            w.all_likers(id),
            w.visible_likers(id),
        ));
    }
    out
}

/// A one-like batch — the smallest like event the log carries.
fn like(user: u32, page: u32, at: SimTime) -> WorldEvent {
    WorldEvent::LikeBatch {
        likes: LikeColumns::from_rows(&[(UserId(user), PageId(page), at)]),
    }
}

/// Deterministic shuffle of `items` from `seed`.
fn permute<T>(items: &mut [T], seed: u64) {
    Rng::seed_from_u64(seed).shuffle(items);
}

/// A random *interleaving-valid* permutation: events touching the same
/// entity keep their relative order (grouped by `key`), but the groups are
/// merged in an arbitrary order. Permutations that reorder within a group
/// are not interleaving-valid — e.g. two likes on one page are observably
/// ordered by the page's append-ordered liker list.
fn interleave(
    events: Vec<WorldEvent>,
    key: impl Fn(&WorldEvent) -> u32,
    seed: u64,
) -> Vec<WorldEvent> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut queues: Vec<std::collections::VecDeque<WorldEvent>> = Vec::new();
    let mut keys: Vec<u32> = Vec::new();
    for ev in events {
        let k = key(&ev);
        match keys.iter().position(|&q| q == k) {
            Some(i) => queues[i].push_back(ev),
            None => {
                keys.push(k);
                queues.push(std::collections::VecDeque::from([ev]));
            }
        }
    }
    let mut out = Vec::new();
    while !queues.is_empty() {
        let i = rng.index(queues.len());
        if let Some(ev) = queues[i].pop_front() {
            out.push(ev);
        }
        if queues[i].is_empty() {
            queues.swap_remove(i);
        }
    }
    out
}

proptest! {
    /// Same-timestamp likes on distinct (user, page) pairs commute: any
    /// permutation replays to the identical world.
    #[test]
    fn same_timestamp_like_permutations_commute(
        seed in any::<u64>(),
        picks in prop::collection::hash_set(0u32..(USERS * PAGES), 1..30),
    ) {
        let at = SimTime::from_secs(1_000);
        let mut sorted: Vec<u32> = picks.into_iter().collect();
        sorted.sort_unstable();
        let events: Vec<WorldEvent> = sorted
            .iter()
            .map(|k| like(k / PAGES, k % PAGES, at))
            .collect();

        let mut a = base_world();
        for ev in &events {
            a.apply_event(ev.clone(), |_| {}).unwrap();
        }
        // Interleaving-valid: likes on the same page keep their relative
        // order (the page's liker list is append-ordered), pages merge in
        // any order.
        let shuffled = interleave(
            events,
            |ev| match ev {
                WorldEvent::LikeBatch { likes } => likes.pages[0].0,
                _ => unreachable!(),
            },
            seed,
        );
        let mut b = base_world();
        for ev in &shuffled {
            b.apply_event(ev.clone(), |_| {}).unwrap();
        }
        prop_assert_eq!(digest(&a), digest(&b));
    }

    /// Mixed same-timestamp events on disjoint entities — friendships
    /// between one user pool, likes from another, off-network counts on a
    /// third — commute under any permutation.
    #[test]
    fn disjoint_entity_event_permutations_commute(seed in any::<u64>()) {
        let at = SimTime::from_secs(2_000);
        let mut events = vec![
            WorldEvent::Friendship { a: UserId(0), b: UserId(1) },
            WorldEvent::Friendship { a: UserId(2), b: UserId(3) },
            like(4, 0, at),
            like(5, 1, at),
            WorldEvent::OffNetworkFriends { user: UserId(6), n: 17 },
            WorldEvent::Terminated { user: UserId(7), at },
        ];

        let mut a = base_world();
        for ev in &events {
            a.apply_event(ev.clone(), |_| {}).unwrap();
        }
        let mut b = base_world();
        permute(&mut events, seed);
        for ev in &events {
            b.apply_event(ev.clone(), |_| {}).unwrap();
        }
        prop_assert_eq!(digest(&a), digest(&b));
    }
}
