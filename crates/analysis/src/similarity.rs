//! Figure 5 — Jaccard similarity matrices across campaigns.
//!
//! (a) over the unions of the likers' page-like sets, (b) over the liker
//! sets themselves. The bright cells are the paper's fingerprinting
//! evidence: FB-IND/FB-EGY/FB-ALL resemble each other, SF-ALL↔SF-USA share
//! accounts, and AL-USA↔MS-USA share an operator.

use crate::stats::jaccard;
use likelab_graph::{PageId, UserId};
use likelab_honeypot::Dataset;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// A labelled symmetric similarity matrix (values ×100, like the paper's
/// color scale).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimilarityMatrix {
    /// Campaign labels, in dataset order (inactive campaigns included, with
    /// all-zero rows — the paper plots them too).
    pub labels: Vec<String>,
    /// `matrix[i][j]` = Jaccard(i, j) × 100.
    pub matrix: Vec<Vec<f64>>,
}

impl SimilarityMatrix {
    /// Look up a cell by labels.
    ///
    /// # Panics
    /// Panics on an unknown label.
    pub fn get(&self, a: &str, b: &str) -> f64 {
        let i = self.index_of(a);
        let j = self.index_of(b);
        self.matrix[i][j]
    }

    // `get` documents this panic: its callers name the study's own
    // campaign labels, never outside input.
    #[allow(clippy::panic)]
    fn index_of(&self, label: &str) -> usize {
        self.labels
            .iter()
            .position(|l| l == label)
            .unwrap_or_else(|| panic!("unknown campaign label {label}"))
    }
}

fn build_matrix<T: Eq + std::hash::Hash>(
    labels: Vec<String>,
    sets: Vec<HashSet<T>>,
) -> SimilarityMatrix {
    let n = sets.len();
    let mut matrix = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in i..n {
            let v = jaccard(&sets[i], &sets[j]) * 100.0;
            matrix[i][j] = v;
            matrix[j][i] = v;
        }
    }
    SimilarityMatrix { labels, matrix }
}

/// Figure 5(a): Jaccard over the unions of likers' public page-like sets.
pub fn figure5_pages(dataset: &Dataset) -> SimilarityMatrix {
    let labels: Vec<String> = dataset
        .campaigns
        .iter()
        .map(|c| c.spec.label.clone())
        .collect();
    let sets: Vec<HashSet<PageId>> = dataset
        .campaigns
        .iter()
        .map(|c| {
            c.likers
                .iter()
                .filter_map(|l| l.liked_pages.as_ref())
                .flatten()
                .copied()
                .collect()
        })
        .collect();
    build_matrix(labels, sets)
}

/// Figure 5(b): Jaccard over the liker sets.
pub fn figure5_users(dataset: &Dataset) -> SimilarityMatrix {
    let labels: Vec<String> = dataset
        .campaigns
        .iter()
        .map(|c| c.spec.label.clone())
        .collect();
    let sets: Vec<HashSet<UserId>> = dataset
        .campaigns
        .iter()
        .map(|c| c.liker_ids().into_iter().collect())
        .collect();
    build_matrix(labels, sets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use likelab_farms::Region;
    use likelab_honeypot::{CampaignData, CampaignSpec, LikerRecord, Promotion};
    use likelab_osn::AudienceReport;
    use likelab_sim::SimTime;

    fn liker(id: u32, pages: Vec<u32>) -> LikerRecord {
        LikerRecord {
            user: UserId(id),
            first_seen: SimTime::EPOCH,
            friends: None,
            total_friend_count: None,
            liked_pages: Some(pages.into_iter().map(PageId).collect()),
            gone_at_collection: false,
            crawl_outcome: likelab_honeypot::CrawlOutcome::Complete,
        }
    }

    fn campaign(label: &str, likers: Vec<LikerRecord>, inactive: bool) -> CampaignData {
        CampaignData {
            spec: CampaignSpec {
                label: label.into(),
                promotion: Promotion::FarmOrder {
                    farm: 0,
                    region: Region::Worldwide,
                    likes: 0,
                    price_cents: 0,
                    advertised_duration: String::new(),
                },
            },
            page: PageId(999),
            observations: vec![],
            likers,
            report: AudienceReport::default(),
            monitoring_days: None,
            terminated_after_month: 0,
            termination_unknown: 0,
            inactive,
            coverage: likelab_honeypot::CrawlCoverage::default(),
        }
    }

    fn dataset() -> Dataset {
        Dataset {
            campaigns: vec![
                // SF-ALL and SF-USA share user 1 and pages {1,2}.
                campaign(
                    "SF-ALL",
                    vec![liker(1, vec![1, 2]), liker(2, vec![3])],
                    false,
                ),
                campaign("SF-USA", vec![liker(1, vec![1, 2])], false),
                campaign("BL-ALL", vec![], true),
                campaign("AL-ALL", vec![liker(9, vec![50])], false),
            ],
            baseline: vec![],
            launch: SimTime::EPOCH,
            global_report: AudienceReport::default(),
        }
    }

    #[test]
    fn user_matrix_captures_shared_accounts() {
        let m = figure5_users(&dataset());
        assert!((m.get("SF-ALL", "SF-USA") - 50.0).abs() < 1e-9, "1 of 2");
        assert_eq!(m.get("SF-ALL", "AL-ALL"), 0.0);
        assert!((m.get("SF-ALL", "SF-ALL") - 100.0).abs() < 1e-9);
    }

    #[test]
    fn page_matrix_captures_shared_histories() {
        let m = figure5_pages(&dataset());
        // SF-ALL pages {1,2,3}; SF-USA pages {1,2} → 2/3.
        assert!((m.get("SF-ALL", "SF-USA") - 200.0 / 3.0).abs() < 1e-9);
        assert_eq!(m.get("SF-USA", "AL-ALL"), 0.0);
    }

    #[test]
    fn inactive_campaigns_have_zero_rows() {
        let m = figure5_users(&dataset());
        for other in ["SF-ALL", "SF-USA", "AL-ALL"] {
            assert_eq!(m.get("BL-ALL", other), 0.0);
        }
        assert_eq!(m.get("BL-ALL", "BL-ALL"), 0.0, "empty-empty is 0");
    }

    #[test]
    fn matrix_is_symmetric() {
        let m = figure5_pages(&dataset());
        for i in 0..m.labels.len() {
            for j in 0..m.labels.len() {
                assert_eq!(m.matrix[i][j], m.matrix[j][i]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "unknown campaign label")]
    fn unknown_label_panics() {
        figure5_users(&dataset()).get("ZZ-TOP", "SF-ALL");
    }
}
