//! Scale-invariance tests: the claim that `scale` shrinks counts linearly
//! while percentages, distributions, and per-account observables survive.
//! This is what licenses running tests and CI at small scales while quoting
//! full-scale results in EXPERIMENTS.md.

use likelab::osn::GeoBucket;
use likelab::sim::Exec;
use likelab::{run_study, run_study_with, StudyConfig, StudyOutcome};
use std::sync::OnceLock;

const SMALL: f64 = 0.06;
const LARGE: f64 = 0.18;

fn runs() -> &'static (StudyOutcome, StudyOutcome) {
    static SHARED: OnceLock<(StudyOutcome, StudyOutcome)> = OnceLock::new();
    SHARED.get_or_init(|| {
        (
            run_study(&StudyConfig::paper(5, SMALL)),
            run_study(&StudyConfig::paper(5, LARGE)),
        )
    })
}

#[test]
fn like_counts_scale_linearly() {
    let (small, large) = runs();
    let ratio = LARGE / SMALL;
    for label in ["FB-IND", "FB-EGY", "SF-ALL", "AL-USA", "BL-USA"] {
        let s = small.dataset.campaign(label).unwrap().like_count() as f64;
        let l = large.dataset.campaign(label).unwrap().like_count() as f64;
        let measured_ratio = l / s.max(1.0);
        assert!(
            (measured_ratio / ratio - 1.0).abs() < 0.45,
            "{label}: {s} -> {l} (ratio {measured_ratio:.2}, expected ~{ratio})"
        );
    }
}

#[test]
fn geo_shares_are_scale_invariant() {
    let (small, large) = runs();
    for label in ["FB-IND", "FB-ALL", "SF-USA"] {
        let share = |o: &StudyOutcome, bucket: GeoBucket| {
            o.report
                .figure1
                .iter()
                .find(|r| r.label == label)
                .map(|r| r.share(bucket))
                .unwrap_or(0.0)
        };
        for bucket in [GeoBucket::India, GeoBucket::Turkey, GeoBucket::Usa] {
            let (a, b) = (share(small, bucket), share(large, bucket));
            assert!(
                (a - b).abs() < 0.15,
                "{label}/{bucket}: {a:.2} vs {b:.2} across scales"
            );
        }
    }
}

#[test]
fn per_account_observables_are_scale_invariant() {
    let (small, large) = runs();
    // Figure 4 medians: page-like counts per liker don't shrink with the
    // world.
    for label in ["SF-ALL", "FB-IND", "Facebook"] {
        let median = |o: &StudyOutcome| {
            o.report
                .figure4
                .iter()
                .find(|c| c.label == label)
                .map(|c| c.median())
                .unwrap_or(f64::NAN)
        };
        let (a, b) = (median(small), median(large));
        assert!(
            (a / b - 1.0).abs() < 0.5,
            "{label} median: {a:.0} vs {b:.0} across scales"
        );
    }
    // Table 3 friend-count medians likewise (off-network top-up at work).
    use likelab::analysis::Provider;
    for p in [Provider::BoostLikes, Provider::SocialFormula] {
        let med = |o: &StudyOutcome| {
            o.report
                .table3
                .iter()
                .find(|r| r.provider == p)
                .map(|r| r.friends.median)
                .unwrap()
        };
        let (a, b) = (med(small), med(large));
        assert!(
            (a / b - 1.0).abs() < 0.6,
            "{p} friend median: {a:.0} vs {b:.0} across scales"
        );
    }
}

#[test]
fn kl_divergences_are_scale_invariant() {
    let (small, large) = runs();
    let kl = |o: &StudyOutcome, label: &str| {
        o.report
            .table2
            .iter()
            .find(|r| r.label == label)
            .and_then(|r| r.kl)
            .unwrap()
    };
    // SF stays near zero at both scales; FB-IND stays large at both.
    assert!(kl(small, "SF-ALL") < 0.2 && kl(large, "SF-ALL") < 0.2);
    assert!(kl(small, "FB-IND") > 0.4 && kl(large, "FB-IND") > 0.4);
}

/// The million-account `scale` preset (trimmed so the test stays bounded)
/// produces a byte-identical `StudyReport` JSON document for every worker
/// count — the determinism contract survives the sharded ledger, the
/// chunked report aggregation, and the CSR graph.
#[test]
fn scale_preset_report_is_worker_invariant() {
    let config = StudyConfig::scale_world(11, 0.01);
    let json_for = |exec: Exec| {
        run_study_with(&config, exec)
            .report
            .to_json()
            .expect("report serializes")
    };
    let sequential = json_for(Exec::Sequential);
    assert!(!sequential.is_empty());
    for workers in [1usize, 2, 8] {
        let parallel = json_for(Exec::workers(workers));
        assert!(
            sequential == parallel,
            "scale-preset report differs between sequential and {workers} workers"
        );
    }
}

#[test]
fn temporal_shapes_are_scale_invariant() {
    let (small, large) = runs();
    for label in ["AL-USA", "BL-USA"] {
        let series = |o: &StudyOutcome| {
            o.report
                .figure2
                .iter()
                .find(|s| s.label == label)
                .unwrap()
                .clone()
        };
        let (a, b) = (series(small), series(large));
        // Burst/trickle classification is identical across scales.
        assert_eq!(
            a.peak_2h_share > 0.25,
            b.peak_2h_share > 0.25,
            "{label}: burstiness classification must not depend on scale"
        );
    }
}
