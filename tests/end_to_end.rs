//! End-to-end integration tests: the full study pipeline across every crate,
//! exercised through the public facade.

use likelab::analysis::{ObservedSocial, Provider, StudyReport};
use likelab::detect::{extract, roc, score, BurstConfig, PositiveClass, ScorerWeights};
use likelab::graph::{PageId, UserId};
use likelab::honeypot::Dataset;
use likelab::osn::ActorClass;
use likelab::sim::SimDuration;
use likelab::{checklist, run_study, StudyConfig, StudyOutcome};
use std::sync::OnceLock;

fn outcome() -> &'static StudyOutcome {
    static SHARED: OnceLock<StudyOutcome> = OnceLock::new();
    SHARED.get_or_init(|| run_study(&StudyConfig::paper(2014, 0.1)))
}

#[test]
fn every_shape_criterion_holds_end_to_end() {
    let checks = checklist(&outcome().report);
    let failures: Vec<String> = checks
        .iter()
        .filter(|c| !c.pass)
        .map(|c| format!("{}: {} (measured {})", c.artifact, c.criterion, c.measured))
        .collect();
    assert!(
        failures.is_empty(),
        "shape criteria failed:\n{}",
        failures.join("\n")
    );
}

#[test]
fn crawler_view_is_consistent_with_platform_truth() {
    let o = outcome();
    for (i, c) in o.dataset.campaigns.iter().enumerate() {
        let page = o.honeypots[i];
        let platform: std::collections::HashMap<UserId, likelab::sim::SimTime> =
            o.world.all_likers(page).into_iter().collect();
        for l in &c.likers {
            // Every crawled liker really liked the page...
            let like_time = platform
                .get(&l.user)
                .unwrap_or_else(|| panic!("{}: phantom liker {}", c.spec.label, l.user));
            // ...and the crawler saw it no earlier than it happened.
            assert!(
                l.first_seen >= *like_time,
                "{}: first_seen {} before the like at {}",
                c.spec.label,
                l.first_seen,
                like_time
            );
            // Poll quantization: within one active-poll interval plus the
            // settled interval bound.
            assert!(
                l.first_seen.since(*like_time) <= SimDuration::days(1),
                "{}: crawler lag too large",
                c.spec.label
            );
        }
    }
}

#[test]
fn dataset_survives_json_round_trip() {
    let o = outcome();
    let json = o.dataset.to_json().expect("serialize");
    let back: likelab::honeypot::Dataset = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back.total_likes(), o.dataset.total_likes());
    assert_eq!(back.campaigns.len(), o.dataset.campaigns.len());
    let report_a = StudyReport::compute(&o.dataset);
    let report_b = StudyReport::compute(&back);
    assert_eq!(
        report_a.to_json().unwrap(),
        report_b.to_json().unwrap(),
        "analysis is a pure function of the dataset"
    );
}

#[test]
fn privacy_visibility_orders_match_the_paper() {
    let o = outcome();
    let row = |p: Provider| {
        o.report
            .table3
            .iter()
            .find(|r| r.provider == p)
            .unwrap()
            .clone()
    };
    // SF exposes friend lists far more often (58%) than the Facebook
    // campaigns' likers (18%); BL sits in between (25.9%).
    let sf = row(Provider::SocialFormula).public_pct();
    let fb = row(Provider::Facebook).public_pct();
    let bl = row(Provider::BoostLikes).public_pct();
    assert!(sf > fb + 15.0, "SF {sf:.0}% vs FB {fb:.0}%");
    assert!(sf > bl + 10.0, "SF {sf:.0}% vs BL {bl:.0}%");
}

#[test]
fn ground_truth_never_leaks_into_the_dataset() {
    // The dataset's JSON must not contain actor-class labels anywhere: the
    // analysis pipeline works from observables only.
    let o = outcome();
    let json = o.dataset.to_json().unwrap();
    for forbidden in ["ClickProne", "StealthSybil", "Bot(", "ActorClass"] {
        assert!(
            !json.contains(forbidden),
            "dataset leaks ground truth: {forbidden}"
        );
    }
}

#[test]
fn detection_catches_bots_but_not_stealth() {
    let o = outcome();
    let now = o.launch + SimDuration::days(45);
    let cfg = BurstConfig::default();
    let weights = ScorerWeights::default();
    let scored: Vec<(UserId, f64)> = o
        .world
        .user_ids()
        .map(|u| (u, score(&extract(&o.world, u, now, &cfg), &weights)))
        .collect();
    let auc_bots = roc(&o.world, &scored, PositiveClass::FarmOnly).auc;
    assert!(
        auc_bots > 0.75,
        "detector should separate farms: AUC {auc_bots}"
    );

    // Mean scores: bots far above organic, stealth close to organic on
    // either side (stealth sybils can score below organic accounts).
    let mean = |pred: &dyn Fn(ActorClass) -> bool| {
        let xs: Vec<f64> = scored
            .iter()
            .filter(|(u, _)| pred(o.world.account(*u).class))
            .map(|(_, s)| *s)
            .collect();
        xs.iter().sum::<f64>() / xs.len().max(1) as f64
    };
    let bots = mean(&|c| matches!(c, ActorClass::Bot(_)));
    let stealth = mean(&|c| matches!(c, ActorClass::StealthSybil(_)));
    let organic = mean(&|c| c == ActorClass::Organic);
    assert!(
        bots - organic > 2.0 * (stealth - organic).abs(),
        "stealth should sit much closer to organic: bots {bots:.3}, stealth {stealth:.3}, organic {organic:.3}"
    );
}

#[test]
fn observed_social_structure_matches_report() {
    let o = outcome();
    let obs = ObservedSocial::build(&o.dataset);
    let rows = obs.table3();
    assert_eq!(rows.len(), o.report.table3.len());
    for (a, b) in rows.iter().zip(&o.report.table3) {
        assert_eq!(a.provider, b.provider);
        assert_eq!(a.likers, b.likers);
        assert_eq!(a.friendships_between_likers, b.friendships_between_likers);
    }
    // Figure 3 DOT exports are well-formed and non-trivial.
    let dot = obs.figure3_dot(false);
    assert!(dot.starts_with("graph likers {"));
    assert!(dot.ends_with("}\n"));
    assert!(dot.matches("--").count() > 10, "the graph has edges");
}

#[test]
fn different_seeds_same_shape_different_numbers() {
    let a = run_study(&StudyConfig::paper(1, 0.05));
    let b = run_study(&StudyConfig::paper(2, 0.05));
    assert_ne!(
        a.dataset.total_likes(),
        b.dataset.total_likes(),
        "stochastic delivery should differ across seeds"
    );
    for o in [&a, &b] {
        let checks = checklist(&o.report);
        let core_failures = checks
            .iter()
            .filter(|c| !c.pass)
            // At 5% scale a few fine-grained criteria can wobble; the
            // structural ones must hold for any seed.
            .filter(|c| c.artifact == "Table 1" || c.artifact == "Figure 2")
            .count();
        assert_eq!(core_failures, 0, "structural criteria failed for a seed");
    }
}

#[test]
fn trace_journal_records_the_run() {
    let o = outcome();
    let journal = o.trace.render();
    assert!(journal.contains("population ready"));
    assert!(
        journal.contains("remained inactive"),
        "scam campaigns noted"
    );
    assert!(journal.contains("event loop drained"));
}

/// Relabel every user and page id of a dataset through one fixed
/// bijection: each id space is reversed over the world's `0..n`, which
/// flips every relative order between ids and keeps the ids dense.
fn relabel(dataset: &Dataset, accounts: usize, pages: usize) -> Dataset {
    let user = |u: UserId| UserId(accounts as u32 - 1 - u.0);
    let page = |p: PageId| PageId(pages as u32 - 1 - p.0);
    let mut out = dataset.clone();
    for c in &mut out.campaigns {
        c.page = page(c.page);
        for l in &mut c.likers {
            l.user = user(l.user);
            for f in l.friends.iter_mut().flatten() {
                *f = user(*f);
            }
            for p in l.liked_pages.iter_mut().flatten() {
                *p = page(*p);
            }
        }
    }
    for b in &mut out.baseline {
        b.user = user(b.user);
    }
    out
}

#[test]
fn study_report_is_invariant_under_anonymization() {
    // Relabel every id consistently, recompute every table and figure, and
    // check the numbers don't move (identities only ever matter up to
    // equality).
    let o = outcome();
    let anon = relabel(&o.dataset, o.world.account_count(), o.world.page_count());
    let report = StudyReport::compute(&anon);
    for (a, b) in o.report.table3.iter().zip(&report.table3) {
        assert_eq!(a.likers, b.likers);
        assert_eq!(a.public_friend_lists, b.public_friend_lists);
        assert_eq!(a.friendships_between_likers, b.friendships_between_likers);
        assert_eq!(a.two_hop_between_likers, b.two_hop_between_likers);
        assert!((a.friends.median - b.friends.median).abs() < 1e-9);
    }
    for (a, b) in o.report.figure2.iter().zip(&report.figure2) {
        assert_eq!(a.daily, b.daily);
        assert!((a.peak_2h_share - b.peak_2h_share).abs() < 1e-12);
    }
    for (i, row) in o.report.figure5_users.matrix.iter().enumerate() {
        for (j, v) in row.iter().enumerate() {
            assert!(
                (v - report.figure5_users.matrix[i][j]).abs() < 1e-9,
                "similarity cell ({i},{j}) moved under anonymization"
            );
        }
    }
    // And the relabelled ids really differ from the originals.
    let raw_first = o.dataset.campaigns[2].likers[0].user;
    let anon_first = anon.campaigns[2].likers[0].user;
    assert_ne!(raw_first, anon_first);
}

#[test]
fn baseline_sample_is_organic_scale() {
    let o = outcome();
    assert!(o.dataset.baseline.len() >= 50);
    let median = {
        let mut counts: Vec<usize> = o.dataset.baseline.iter().map(|b| b.like_count).collect();
        counts.sort_unstable();
        counts[counts.len() / 2]
    };
    assert!(
        (15..=70).contains(&median),
        "baseline median {median} should be near the paper's 34"
    );
}
