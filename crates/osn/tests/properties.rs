//! Property-based tests of the platform substrate's invariants.

use std::collections::BTreeSet;

use likelab_graph::{PageId, UserId};
use likelab_osn::demographics::{AgeBracket, Blueprint, Country};
use likelab_osn::{
    ActorClass, AudienceReport, DetectorUpdate, Gender, LikeColumns, LikeLedger, OsnWorld,
    PageCategory, PrivacySettings, Profile, WorldEvent,
};
use likelab_sim::{Exec, Rng, SimTime};
use proptest::prelude::*;

/// Ingest `(user, page, secs)` draws in batches of `chunk`; returns how
/// many were new.
fn ingest_chunks(ledger: &mut LikeLedger, likes: &[(u32, u32, u64)], chunk: usize) -> usize {
    likes
        .chunks(chunk)
        .map(|c| {
            let mut cols = LikeColumns::with_capacity(c.len());
            for &(u, p, t) in c {
                cols.push(UserId(u), PageId(p), SimTime::from_secs(t));
            }
            ledger.ingest_columns(&cols, Exec::Sequential)
        })
        .sum()
}

fn profile() -> Profile {
    Profile {
        gender: Gender::Male,
        age: 30,
        country: Country::Usa,
        home_region: 0,
    }
}

fn public() -> PrivacySettings {
    PrivacySettings {
        friend_list_public: true,
        likes_public: true,
        searchable: true,
    }
}

proptest! {
    /// Age bracketing is total over the platform's age domain and sampling
    /// within a bracket round-trips.
    #[test]
    fn age_brackets_are_total(age in 13u8..=120, seed in any::<u64>()) {
        let b = AgeBracket::from_age(age);
        let mut rng = Rng::seed_from_u64(seed);
        let sampled = b.sample_age(&mut rng);
        prop_assert_eq!(AgeBracket::from_age(sampled), b);
        prop_assert!(b.index() < 6);
    }

    /// Blueprint sampling always produces profiles in the blueprint's
    /// support.
    #[test]
    fn blueprints_sample_their_support(seed in any::<u64>(), female in 0.0f64..=1.0) {
        let bp = Blueprint {
            female_fraction: female,
            age_weights: [0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
            country_weights: vec![(Country::Turkey, 1.0), (Country::India, 0.0)],
        };
        let mut rng = Rng::seed_from_u64(seed);
        for _ in 0..32 {
            let p = bp.sample(&mut rng);
            prop_assert_eq!(p.country, Country::Turkey, "zero-weight country never drawn");
            let b = p.age_bracket();
            prop_assert!(b == AgeBracket::A18_24 || b == AgeBracket::A45_54);
        }
    }

    /// The like ledger's two indexes agree with each other and with the
    /// structural graph, whatever the (possibly duplicated, unordered)
    /// record stream.
    #[test]
    fn ledger_indexes_agree(
        likes in prop::collection::vec((0u32..15, 0u32..15, 0u64..1_000), 0..120),
        chunk in 1usize..40,
    ) {
        let mut ledger = LikeLedger::new(15, 15);
        let accepted = ingest_chunks(&mut ledger, &likes, chunk);
        prop_assert_eq!(ledger.len(), accepted);
        let user_total: usize = (0..15).map(|u| ledger.user_like_count(UserId(u))).sum();
        let page_total: usize = (0..15).map(|p| ledger.page_like_count(PageId(p))).sum();
        prop_assert_eq!(user_total, ledger.len());
        prop_assert_eq!(page_total, ledger.len());
        let membership_total: usize =
            (0..15).map(|u| ledger.user_pages(UserId(u)).count()).sum();
        prop_assert_eq!(membership_total, ledger.len());
        // Sorted accessors really sort.
        for p in 0..15 {
            let sorted = ledger.of_page_sorted(PageId(p));
            prop_assert!(sorted.windows(2).all(|w| w[0].at <= w[1].at));
            prop_assert_eq!(sorted.len(), ledger.page_like_count(PageId(p)));
        }
    }

    /// Per-side streams are order-preserving projections of the global
    /// record stream: `of_user(u)` equals the records with that user, in
    /// global order, and `of_page(p)` likewise — whatever the (possibly
    /// duplicated, unordered) insert stream.
    #[test]
    fn ledger_streams_project_global_order(
        likes in prop::collection::vec((0u32..12, 0u32..12, 0u64..500), 0..150),
        chunk in 1usize..40,
    ) {
        let mut ledger = LikeLedger::new(12, 12);
        ingest_chunks(&mut ledger, &likes, chunk);
        let all: Vec<_> = ledger.records().collect();
        prop_assert_eq!(all.len(), ledger.len());
        for u in 0..12 {
            let direct: Vec<_> = ledger.of_user(UserId(u)).collect();
            let projected: Vec<_> = all.iter().copied().filter(|r| r.user == UserId(u)).collect();
            prop_assert_eq!(direct, projected, "user {} stream", u);
            let sorted = ledger.of_user_sorted(UserId(u));
            prop_assert!(sorted.windows(2).all(|w| w[0].at <= w[1].at));
            prop_assert_eq!(sorted.len(), ledger.user_like_count(UserId(u)));
        }
        for p in 0..12 {
            let direct: Vec<_> = ledger.of_page(PageId(p)).collect();
            let projected: Vec<_> = all.iter().copied().filter(|r| r.page == PageId(p)).collect();
            prop_assert_eq!(direct, projected, "page {} stream", p);
        }
    }

    /// `apply_event` folds each journaled like batch as one ledger ingest
    /// and emits `LikeAccepted` for exactly the likes a positional
    /// first-wins model accepts, in order — whatever the mix of duplicates
    /// inside a batch, duplicates of history, and accounts terminated
    /// between batches. Every batch item moves the watermark, rejected ones
    /// included.
    #[test]
    fn fanout_like_batches_emit_the_positional_model(
        batches in prop::collection::vec(
            (prop::collection::vec((0u32..8, 0u32..6, 0u64..1_000), 0..40), 0u32..24),
            1..8,
        ),
    ) {
        let mut world = OsnWorld::new();
        let mut watermark = SimTime::EPOCH;
        for _ in 0..8 {
            let ev = WorldEvent::AccountCreated {
                profile: profile(),
                class: ActorClass::Organic,
                privacy: public(),
                at: SimTime::EPOCH,
            };
            world.apply_event(ev, |_| {}).unwrap();
        }
        for i in 0..6 {
            let ev = WorldEvent::PageCreated {
                name: format!("p{i}"),
                description: String::new(),
                owner: None,
                category: PageCategory::Background,
                at: SimTime::EPOCH,
            };
            world.apply_event(ev, |_| {}).unwrap();
        }
        let (mut seen, mut dead) = (BTreeSet::new(), BTreeSet::new());
        let (mut expected, mut emitted) = (Vec::new(), Vec::new());
        let mut max_at = SimTime::EPOCH;
        for (likes, kill) in &batches {
            if *kill < 8 {
                // Terminate one account before this batch (idempotently).
                let ev = WorldEvent::Terminated { user: UserId(*kill), at: SimTime::EPOCH };
                world.apply_event(ev, |_| {}).unwrap();
                dead.insert(*kill);
            }
            let rows: Vec<_> = likes
                .iter()
                .map(|&(u, p, t)| (UserId(u), PageId(p), SimTime::from_secs(t)))
                .collect();
            for &(user, page, at) in &rows {
                max_at = max_at.max(at);
                if !dead.contains(&user.0) && seen.insert((user, page)) {
                    expected.push((user, page, at));
                }
            }
            let batch = WorldEvent::LikeBatch { likes: LikeColumns::from_rows(&rows) };
            watermark = watermark.max(batch.latest_time().unwrap_or(SimTime::EPOCH));
            world
                .apply_event(batch, |update| {
                    if let DetectorUpdate::LikeAccepted { user, page, at } = update {
                        emitted.push((user, page, at));
                    }
                })
                .unwrap();
        }
        prop_assert_eq!(emitted, expected);
        prop_assert_eq!(watermark, max_at);
    }

    /// Audience reports conserve mass: gender and age marginals both sum to
    /// the total, and geo shares sum to 1 for non-empty sets.
    #[test]
    fn audience_reports_conserve_mass(
        profiles in prop::collection::vec((any::<bool>(), 13u8..80, 0usize..10), 1..60),
    ) {
        let mut world = OsnWorld::new();
        let mut users = Vec::new();
        for (female, age, country_idx) in &profiles {
            let id = world.create_account(
                Profile {
                    gender: if *female { Gender::Female } else { Gender::Male },
                    age: *age,
                    country: Country::ALL[*country_idx],
                    home_region: 0,
                },
                ActorClass::Organic,
                PrivacySettings {
                    friend_list_public: false,
                    likes_public: false,
                    searchable: false,
                },
                SimTime::EPOCH,
            );
            users.push(id);
        }
        let report = AudienceReport::over_users(&world, &users);
        prop_assert_eq!(report.total, profiles.len());
        prop_assert_eq!(report.female + report.male, report.total);
        prop_assert_eq!(report.age_counts.iter().sum::<usize>(), report.total);
        let geo_sum: f64 = report.geo_distribution().iter().sum();
        prop_assert!((geo_sum - 1.0).abs() < 1e-9);
        let age_sum: f64 = report.age_distribution().iter().sum();
        prop_assert!((age_sum - 1.0).abs() < 1e-9);
    }

    /// Termination is one-way and removes the account from public surfaces
    /// while preserving the platform-side record.
    #[test]
    fn termination_is_permanent_and_hides(order in prop::collection::vec(0usize..6, 1..12)) {
        let mut world = OsnWorld::new();
        for _ in 0..6 {
            world.create_account(profile(), ActorClass::Bot(1), public(), SimTime::EPOCH);
        }
        let page = world.create_page("p", "", None, PageCategory::Honeypot, SimTime::EPOCH);
        for u in 0..6u32 {
            world.record_like(UserId(u), page, SimTime::at_day(1));
        }
        let mut terminated = std::collections::HashSet::new();
        for (i, idx) in order.iter().enumerate() {
            let u = UserId(*idx as u32);
            let was_active = !terminated.contains(&u);
            let result = world.terminate_account(u, SimTime::at_day(2 + i as u64));
            prop_assert_eq!(result, was_active, "terminate returns prior activity");
            terminated.insert(u);
        }
        let visible = world.visible_likers(page);
        prop_assert_eq!(visible.len(), 6 - terminated.len());
        prop_assert!(visible.iter().all(|u| !terminated.contains(u)));
        prop_assert_eq!(world.all_likers(page).len(), 6, "platform record intact");
    }
}
