//! Shape comparison: does a measured study reproduce the paper's *shape*?
//!
//! Absolute numbers are not expected to match a live 2014 platform; the
//! reproduction criteria are orderings, dominant shares, and rough factors.
//! This module turns those criteria into a checklist that tests,
//! EXPERIMENTS.md, and the benches all share.

use crate::paper;
use likelab_analysis::{Provider, StudyReport};
use likelab_osn::GeoBucket;
use serde::{Deserialize, Serialize};

/// One shape criterion's outcome.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ShapeCheck {
    /// Which table/figure the criterion belongs to.
    pub artifact: String,
    /// Human-readable criterion.
    pub criterion: String,
    /// The paper's value/statement.
    pub paper: String,
    /// The measured value.
    pub measured: String,
    /// Whether the criterion holds.
    pub pass: bool,
}

fn check(
    artifact: &str,
    criterion: &str,
    paper: String,
    measured: String,
    pass: bool,
) -> ShapeCheck {
    ShapeCheck {
        artifact: artifact.into(),
        criterion: criterion.into(),
        paper,
        measured,
        pass,
    }
}

/// Run the full shape checklist against a measured report.
pub fn checklist(report: &StudyReport) -> Vec<ShapeCheck> {
    let mut out = Vec::new();

    // --- Table 1 / deliveries ------------------------------------------
    let likes = |label: &str| {
        report
            .table1
            .iter()
            .find(|r| r.label == label)
            .and_then(|r| r.likes)
            .unwrap_or(0)
    };
    out.push(check(
        "Table 1",
        "BL-ALL and MS-ALL remain inactive",
        "no likes delivered".into(),
        format!(
            "BL-ALL: {:?}, MS-ALL: {:?}",
            report
                .table1
                .iter()
                .find(|r| r.label == "BL-ALL")
                .and_then(|r| r.likes),
            report
                .table1
                .iter()
                .find(|r| r.label == "MS-ALL")
                .and_then(|r| r.likes)
        ),
        report
            .table1
            .iter()
            .filter(|r| r.label == "BL-ALL" || r.label == "MS-ALL")
            .all(|r| r.likes.is_none()),
    ));
    out.push(check(
        "Table 1",
        "cheap markets deliver far more ad likes (FB-IND ≫ FB-USA)",
        "518 vs 32 (16x)".into(),
        format!("{} vs {}", likes("FB-IND"), likes("FB-USA")),
        likes("FB-IND") > likes("FB-USA") * 6,
    ));
    out.push(check(
        "Table 1",
        "AL-USA is the largest campaign, FB-USA the smallest active",
        "1038 vs 32".into(),
        format!("{} vs {}", likes("AL-USA"), likes("FB-USA")),
        likes("AL-USA") >= likes("FB-USA") * 8,
    ));

    // --- Figure 1 --------------------------------------------------------
    let geo = |label: &str, bucket: GeoBucket| {
        report
            .figure1
            .iter()
            .find(|r| r.label == label)
            .map(|r| r.share(bucket))
            .unwrap_or(0.0)
    };
    out.push(check(
        "Figure 1",
        "worldwide ad targeting collapses to India",
        format!("{:.0}%", paper::FB_ALL_INDIA_SHARE * 100.0),
        format!("{:.0}%", geo("FB-ALL", GeoBucket::India) * 100.0),
        geo("FB-ALL", GeoBucket::India) > 0.85,
    ));
    out.push(check(
        "Figure 1",
        "SocialFormula ships Turkey regardless of USA targeting",
        "Turkish-dominated".into(),
        format!("{:.0}% Turkey", geo("SF-USA", GeoBucket::Turkey) * 100.0),
        geo("SF-USA", GeoBucket::Turkey) > 0.7,
    ));
    for (label, bucket) in [
        ("FB-USA", GeoBucket::Usa),
        ("FB-FRA", GeoBucket::France),
        ("FB-IND", GeoBucket::India),
        ("FB-EGY", GeoBucket::Egypt),
    ] {
        out.push(check(
            "Figure 1",
            &format!("{label} stays in the targeted country"),
            "87–99.8%".into(),
            format!("{:.0}%", geo(label, bucket) * 100.0),
            geo(label, bucket) >= paper::FB_TARGETED_IN_COUNTRY_MIN - 0.05,
        ));
    }

    // --- Table 2 ----------------------------------------------------------
    let kl = |label: &str| {
        report
            .table2
            .iter()
            .find(|r| r.label == label)
            .and_then(|r| r.kl)
            .unwrap_or(f64::NAN)
    };
    out.push(check(
        "Table 2",
        "FB-IND/EGY/ALL diverge hard from the global population",
        "KL 1.12 / 0.64 / 1.04".into(),
        format!(
            "KL {:.2} / {:.2} / {:.2}",
            kl("FB-IND"),
            kl("FB-EGY"),
            kl("FB-ALL")
        ),
        kl("FB-IND") > 0.4 && kl("FB-EGY") > 0.3 && kl("FB-ALL") > 0.4,
    ));
    out.push(check(
        "Table 2",
        "SocialFormula mirrors the global population",
        "KL 0.04".into(),
        format!("KL {:.2} / {:.2}", kl("SF-ALL"), kl("SF-USA")),
        kl("SF-ALL") < 0.15 && kl("SF-USA") < 0.15,
    ));

    // --- Figure 2 ----------------------------------------------------------
    let series = |label: &str| report.figure2.iter().find(|s| s.label == label);
    let burst_ok = ["SF-ALL", "SF-USA", "AL-ALL", "AL-USA", "MS-USA"]
        .iter()
        .all(|l| series(l).map(|s| s.peak_2h_share > 0.25).unwrap_or(false));
    out.push(check(
        "Figure 2",
        "bot farms deliver in bursts (dense 2h windows)",
        "likes garnered within ~2 hours".into(),
        format!(
            "peak 2h shares: SF {:.0}%, AL {:.0}%, MS {:.0}%",
            series("SF-ALL")
                .map(|s| s.peak_2h_share * 100.0)
                .unwrap_or(0.0),
            series("AL-USA")
                .map(|s| s.peak_2h_share * 100.0)
                .unwrap_or(0.0),
            series("MS-USA")
                .map(|s| s.peak_2h_share * 100.0)
                .unwrap_or(0.0),
        ),
        burst_ok,
    ));
    let smooth_ok = ["BL-USA", "FB-IND", "FB-EGY", "FB-ALL"]
        .iter()
        .all(|l| series(l).map(|s| s.peak_2h_share < 0.15).unwrap_or(false));
    out.push(check(
        "Figure 2",
        "BoostLikes is indistinguishable from ad campaigns (steady climb)",
        "no abrupt changes; comparable to Facebook ads".into(),
        format!(
            "BL-USA t90 = {:.1}d, peak 2h {:.0}%",
            series("BL-USA").map(|s| s.days_to_90pct).unwrap_or(0.0),
            series("BL-USA")
                .map(|s| s.peak_2h_share * 100.0)
                .unwrap_or(0.0),
        ),
        smooth_ok
            && series("BL-USA")
                .map(|s| s.days_to_90pct > 8.0)
                .unwrap_or(false),
    ));

    // --- Table 3 / Figure 3 ------------------------------------------------
    // The report's Table 3 has one row for every provider.
    #[allow(clippy::expect_used)]
    let row = |p: Provider| {
        report
            .table3
            .iter()
            .find(|r| r.provider == p)
            .expect("table3 has a row per provider")
    };
    out.push(check(
        "Table 3",
        "BoostLikes likers have far more friends than anyone else",
        "median 850 vs 46–343".into(),
        format!(
            "BL median {:.0} vs SF {:.0} / AL {:.0} / MS {:.0} / FB {:.0}",
            row(Provider::BoostLikes).friends.median,
            row(Provider::SocialFormula).friends.median,
            row(Provider::AuthenticLikes).friends.median,
            row(Provider::MammothSocials).friends.median,
            row(Provider::Facebook).friends.median,
        ),
        {
            let bl = row(Provider::BoostLikes).friends.median;
            bl > row(Provider::SocialFormula).friends.median * 2.0
                && bl > row(Provider::Facebook).friends.median * 2.0
        },
    ));
    out.push(check(
        "Table 3",
        "BoostLikes likers are densely interconnected",
        "540 friendships among 621 likers".into(),
        format!(
            "BL {} edges / {} likers; SF {} / {}",
            row(Provider::BoostLikes).friendships_between_likers,
            row(Provider::BoostLikes).likers,
            row(Provider::SocialFormula).friendships_between_likers,
            row(Provider::SocialFormula).likers,
        ),
        row(Provider::BoostLikes).friendships_between_likers
            > row(Provider::SocialFormula).friendships_between_likers,
    ));
    out.push(check(
        "Table 3",
        "the ALMS overlap group exists (shared AL/MS operator)",
        "213 users liked both".into(),
        format!("{} users", row(Provider::Alms).likers),
        row(Provider::Alms).likers > 0,
    ));

    // --- Figure 4 -----------------------------------------------------------
    let median = |label: &str| {
        report
            .figure4
            .iter()
            .find(|c| c.label == label)
            .map(|c| c.median())
            .unwrap_or(f64::NAN)
    };
    out.push(check(
        "Figure 4",
        "baseline sample median stays tiny",
        format!("{}", paper::BASELINE_MEDIAN_LIKES),
        format!("{:.0}", median("Facebook")),
        (15.0..=70.0).contains(&median("Facebook")),
    ));
    out.push(check(
        "Figure 4",
        "honeypot likers like orders of magnitude more pages",
        "medians 600–1800 vs 34".into(),
        format!(
            "FB-IND {:.0}, SF-ALL {:.0}, baseline {:.0}",
            median("FB-IND"),
            median("SF-ALL"),
            median("Facebook")
        ),
        median("FB-IND") > median("Facebook") * 5.0 && median("SF-ALL") > median("Facebook") * 10.0,
    ));
    out.push(check(
        "Figure 4",
        "BL-USA keeps a small count of likes per user",
        format!("median {}", paper::BL_USA_MEDIAN_LIKES),
        format!("median {:.0}", median("BL-USA")),
        median("BL-USA") < median("SF-ALL") / 5.0,
    ));

    // --- Figure 5 -----------------------------------------------------------
    let users = &report.figure5_users;
    out.push(check(
        "Figure 5",
        "same-farm campaigns reuse accounts (SF pair bright)",
        "SF-ALL ↔ SF-USA relatively large".into(),
        format!("{:.1}", users.get("SF-ALL", "SF-USA")),
        users.get("SF-ALL", "SF-USA") > 1.0
            && users.get("SF-ALL", "SF-USA") > users.get("SF-ALL", "BL-USA") + 0.5,
    ));
    out.push(check(
        "Figure 5",
        "AL and MS share profiles (same operator)",
        "AL-USA ↔ MS-USA relatively large".into(),
        format!("{:.1}", users.get("AL-USA", "MS-USA")),
        users.get("AL-USA", "MS-USA") > 5.0,
    ));
    let pages = &report.figure5_pages;
    out.push(check(
        "Figure 5",
        "FB-IND/EGY/ALL page sets resemble each other",
        "relatively large pairwise similarity".into(),
        format!(
            "IND-EGY {:.1}, IND-ALL {:.1}, IND vs AL {:.1}",
            pages.get("FB-IND", "FB-EGY"),
            pages.get("FB-IND", "FB-ALL"),
            pages.get("FB-IND", "AL-USA")
        ),
        pages.get("FB-IND", "FB-ALL") > pages.get("FB-IND", "AL-USA"),
    ));

    // --- §5 terminations ------------------------------------------------------
    let term = &report.termination;
    out.push(check(
        "§5",
        "bot farms lose far more accounts than the stealth farm",
        "44+20+9 vs 1".into(),
        format!(
            "AL {} + SF {} + MS {} vs BL {}",
            term.provider(Provider::AuthenticLikes),
            term.provider(Provider::SocialFormula),
            term.provider(Provider::MammothSocials),
            term.provider(Provider::BoostLikes),
        ),
        term.provider(Provider::AuthenticLikes)
            + term.provider(Provider::SocialFormula)
            + term.provider(Provider::MammothSocials)
            > term.provider(Provider::BoostLikes) * 3,
    ));

    out
}

/// Render the checklist as an aligned text block.
pub fn render_checklist(checks: &[ShapeCheck]) -> String {
    let mut rows = vec![vec![
        "Artifact".to_string(),
        "Criterion".to_string(),
        "Paper".to_string(),
        "Measured".to_string(),
        "OK".to_string(),
    ]];
    for c in checks {
        rows.push(vec![
            c.artifact.clone(),
            c.criterion.clone(),
            c.paper.clone(),
            c.measured.clone(),
            if c.pass { "yes" } else { "NO" }.to_string(),
        ]);
    }
    likelab_analysis::render::table(&rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_includes_failures_loudly() {
        let checks = vec![ShapeCheck {
            artifact: "T1".into(),
            criterion: "x".into(),
            paper: "1".into(),
            measured: "2".into(),
            pass: false,
        }];
        let text = render_checklist(&checks);
        assert!(text.contains("NO"));
        assert!(text.contains("Criterion"));
    }
}
