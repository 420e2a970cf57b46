//! Figure 2 — cumulative likes over the 15-day observation window.
//!
//! Built from the crawler's *observed* first-seen times (poll-quantized,
//! exactly what the paper plotted), plus the burstiness statistics that
//! separate the two farm strategies: bot farms land most of a job inside a
//! two-hour window, stealth farms and legitimate ads climb near-linearly.

use likelab_honeypot::{CampaignData, Dataset};
use likelab_osn::densest::densest_window;
use likelab_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// One campaign's cumulative series.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TimeSeries {
    /// Campaign label.
    pub label: String,
    /// Whether this was a legitimate ad campaign (Figure 2a vs. 2b).
    pub platform_ads: bool,
    /// `(day, cumulative likes)` sampled daily on `0..=days`.
    pub daily: Vec<(f64, usize)>,
    /// Share of likes inside the densest 2-hour window.
    pub peak_2h_share: f64,
    /// Days until 90% of the final count was reached.
    pub days_to_90pct: f64,
    /// Coefficient of variation of inter-arrival gaps (a Poisson-like
    /// trickle sits near 1; burst delivery runs far above it).
    pub gap_cv: f64,
    /// Gini coefficient of inter-arrival gaps (0 = perfectly even spacing,
    /// → 1 = a few huge gaps between dense bursts).
    pub gap_gini: f64,
}

fn first_seen_offsets(c: &CampaignData, launch: SimTime) -> Vec<SimDuration> {
    let mut v: Vec<SimDuration> = c
        .likers
        .iter()
        .map(|l| l.first_seen.saturating_since(launch))
        .collect();
    v.sort_unstable();
    v
}

/// Cumulative count sampled at the start of each day `0..=days`.
fn daily_series(offsets: &[SimDuration], days: u64) -> Vec<(f64, usize)> {
    (0..=days)
        .map(|d| {
            let cutoff = SimDuration::days(d);
            let n = offsets.partition_point(|o| *o <= cutoff);
            (d as f64, n)
        })
        .collect()
}

/// Share of a sorted offset stream inside its densest `window`.
fn peak_share(offsets: &[SimDuration], window: SimDuration) -> f64 {
    if offsets.is_empty() {
        return 0.0;
    }
    densest_window(offsets, window) as f64 / offsets.len() as f64
}

/// Coefficient of variation and Gini coefficient of the inter-arrival gaps
/// of a sorted offset stream. Returns `(0, 0)` for fewer than 3 events.
pub fn interarrival_dispersion(offsets: &[SimDuration]) -> (f64, f64) {
    if offsets.len() < 3 {
        return (0.0, 0.0);
    }
    let gaps: Vec<f64> = offsets
        .windows(2)
        .map(|w| (w[1].as_secs() - w[0].as_secs()) as f64)
        .collect();
    let n = gaps.len() as f64;
    let mean = gaps.iter().sum::<f64>() / n;
    if mean <= 0.0 {
        // All likes at the same instant: maximal burstiness. The CV is
        // formally 0/0 here, so report its supremum over n non-negative
        // gaps — sqrt(n-1), approached as all mass concentrates in one
        // gap. Finite on purpose: `f64::INFINITY` serializes to `null`
        // in JSON and corrupted every export of a perfectly-bursty
        // campaign.
        return ((n - 1.0).sqrt(), 1.0);
    }
    let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / n;
    let cv = var.sqrt() / mean;
    // Gini via the sorted-rank formula.
    let mut sorted = gaps.clone();
    sorted.sort_by(f64::total_cmp);
    let weighted: f64 = sorted
        .iter()
        .enumerate()
        .map(|(i, g)| (2.0 * (i as f64 + 1.0) - n - 1.0) * g)
        .sum();
    let gini = weighted / (n * n * mean);
    (cv, gini)
}

fn days_to_fraction(offsets: &[SimDuration], fraction: f64) -> f64 {
    if offsets.is_empty() {
        return 0.0;
    }
    let idx = ((offsets.len() as f64 * fraction).ceil() as usize).clamp(1, offsets.len()) - 1;
    offsets[idx].as_days_f64()
}

/// Compute Figure 2 over `days` (15 in the paper) for all active campaigns.
pub fn figure2(dataset: &Dataset, days: u64) -> Vec<TimeSeries> {
    dataset
        .campaigns
        .iter()
        .filter(|c| !c.inactive)
        .map(|c| {
            let offsets = first_seen_offsets(c, dataset.launch);
            let (gap_cv, gap_gini) = interarrival_dispersion(&offsets);
            TimeSeries {
                label: c.spec.label.clone(),
                platform_ads: c.spec.is_platform_ads(),
                daily: daily_series(&offsets, days),
                peak_2h_share: peak_share(&offsets, SimDuration::hours(2)),
                days_to_90pct: days_to_fraction(&offsets, 0.9),
                gap_cv,
                gap_gini,
            }
        })
        .collect()
}

impl TimeSeries {
    /// Final cumulative count.
    pub fn total(&self) -> usize {
        self.daily.last().map(|(_, n)| *n).unwrap_or(0)
    }

    /// Maximum single-day increment as a share of the total — a second
    /// burstiness lens (a perfectly linear 15-day series scores ≈ 1/15).
    pub fn max_daily_share(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        self.daily
            .windows(2)
            .map(|w| w[1].1 - w[0].1)
            .max()
            .unwrap_or(0) as f64
            / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use likelab_farms::Region;
    use likelab_graph::UserId;
    use likelab_honeypot::{CampaignData, CampaignSpec, LikerRecord, Promotion};
    use likelab_osn::{AudienceReport, Targeting};

    fn campaign(label: &str, ads: bool, first_seen: Vec<SimTime>) -> CampaignData {
        CampaignData {
            spec: CampaignSpec {
                label: label.into(),
                promotion: if ads {
                    Promotion::PlatformAds {
                        targeting: Targeting::worldwide(),
                        daily_budget_cents: 600.0,
                        duration_days: 15,
                    }
                } else {
                    Promotion::FarmOrder {
                        farm: 0,
                        region: Region::Worldwide,
                        likes: 1_000,
                        price_cents: 0,
                        advertised_duration: String::new(),
                    }
                },
            },
            page: likelab_graph::PageId(0),
            observations: vec![],
            likers: first_seen
                .into_iter()
                .enumerate()
                .map(|(i, t)| LikerRecord {
                    user: UserId(i as u32),
                    first_seen: t,
                    friends: None,
                    total_friend_count: None,
                    liked_pages: None,
                    gone_at_collection: false,
                    crawl_outcome: likelab_honeypot::CrawlOutcome::Complete,
                })
                .collect(),
            report: AudienceReport::default(),
            monitoring_days: None,
            terminated_after_month: 0,
            termination_unknown: 0,
            inactive: false,
            coverage: likelab_honeypot::CrawlCoverage::default(),
        }
    }

    fn dataset(campaigns: Vec<CampaignData>, launch: SimTime) -> Dataset {
        Dataset {
            campaigns,
            baseline: vec![],
            launch,
            global_report: AudienceReport::default(),
        }
    }

    #[test]
    fn burst_campaign_scores_high_trickle_low() {
        let launch = SimTime::at_day(100);
        // Burst: 90 likes inside one hour on day 2, 10 stragglers.
        let mut burst: Vec<SimTime> = (0..90)
            .map(|i| launch + SimDuration::days(2) + SimDuration::minutes(i))
            .collect();
        burst.extend((0..10).map(|i| launch + SimDuration::days(3 + i)));
        // Trickle: 4/day for 15 days.
        let trickle: Vec<SimTime> = (0..60)
            .map(|i| launch + SimDuration::hours(i * 6))
            .collect();
        let d = dataset(
            vec![
                campaign("AL-USA", false, burst),
                campaign("BL-USA", false, trickle),
            ],
            launch,
        );
        let fig = figure2(&d, 15);
        let al = &fig[0];
        let bl = &fig[1];
        assert!(al.peak_2h_share > 0.85, "burst share {}", al.peak_2h_share);
        assert!(bl.peak_2h_share < 0.1, "trickle share {}", bl.peak_2h_share);
        assert!(al.days_to_90pct <= 3.0);
        assert!(bl.days_to_90pct > 10.0);
        assert!(al.max_daily_share() > 0.8);
        assert!(bl.max_daily_share() < 0.15);
        // Dispersion statistics separate the two regimes too.
        assert!(
            al.gap_gini > bl.gap_gini + 0.3,
            "burst gini {} vs trickle {}",
            al.gap_gini,
            bl.gap_gini
        );
        assert!(al.gap_cv > bl.gap_cv, "cv {} vs {}", al.gap_cv, bl.gap_cv);
    }

    #[test]
    fn daily_series_is_cumulative_and_anchored() {
        let launch = SimTime::at_day(10);
        let likes = vec![
            launch + SimDuration::hours(1),
            launch + SimDuration::days(1) + SimDuration::hours(3),
            launch + SimDuration::days(5),
        ];
        let d = dataset(vec![campaign("FB-USA", true, likes)], launch);
        let fig = figure2(&d, 15);
        let s = &fig[0].daily;
        assert_eq!(s.len(), 16);
        assert_eq!(s[0], (0.0, 0), "nothing at day 0 sharp");
        assert_eq!(s[1].1, 1);
        assert_eq!(s[2].1, 2);
        assert_eq!(s[5].1, 3, "day-5 like lands exactly on the cutoff");
        assert_eq!(s[15].1, 3);
        assert_eq!(fig[0].total(), 3);
        assert!(fig[0].platform_ads);
    }

    #[test]
    fn dispersion_edge_cases() {
        use likelab_sim::SimDuration as D;
        assert_eq!(interarrival_dispersion(&[]), (0.0, 0.0));
        assert_eq!(interarrival_dispersion(&[D::ZERO, D::HOUR]), (0.0, 0.0));
        // Perfectly even spacing: CV 0, Gini 0.
        let even: Vec<D> = (0..10).map(D::hours).collect();
        let (cv, gini) = interarrival_dispersion(&even);
        assert!(cv.abs() < 1e-12 && gini.abs() < 1e-12);
        // All simultaneous: maximal, but *finite* — the saturated case is
        // reported as the CV supremum sqrt(n_gaps - 1), never infinity.
        let same = vec![D::HOUR; 5];
        let (cv, gini) = interarrival_dispersion(&same);
        assert!(cv.is_finite());
        assert!((cv - 3.0f64.sqrt()).abs() < 1e-12, "sqrt(4 gaps - 1): {cv}");
        assert_eq!(gini, 1.0);
        // And it must dominate any non-degenerate stream of the same size:
        // the supremum is an upper bound, so sorting by burstiness is safe.
        let mut nearly = vec![D::ZERO; 4];
        nearly.push(D::HOUR);
        let (nearly_cv, _) = interarrival_dispersion(&nearly);
        assert!(cv >= nearly_cv - 1e-9, "{cv} vs {nearly_cv}");
        // One big gap among tiny ones: high Gini.
        let mut bursty: Vec<D> = (0..50).map(D::secs).collect();
        bursty.push(D::days(10));
        let (_, gini) = interarrival_dispersion(&bursty);
        assert!(gini > 0.9, "gini {gini}");
    }

    #[test]
    fn saturated_dispersion_round_trips_through_json() {
        // A perfectly-bursty campaign: every like lands on the same poll.
        let launch = SimTime::at_day(100);
        let likes = vec![launch + SimDuration::hours(2); 10];
        let d = dataset(vec![campaign("AL-ALL", false, likes)], launch);
        let series = &figure2(&d, 15)[0];
        assert!(series.gap_cv.is_finite());
        let json = serde_json::to_string(series).unwrap();
        assert!(
            !json.contains("null"),
            "saturated dispersion must not serialize to null: {json}"
        );
        let back: TimeSeries = serde_json::from_str(&json).unwrap();
        assert_eq!(back.gap_cv, series.gap_cv, "gap_cv survives the trip");
        assert_eq!(back.gap_gini, 1.0);
    }

    #[test]
    fn empty_campaign_is_flat_zero() {
        let d = dataset(vec![campaign("FB-FRA", true, vec![])], SimTime::EPOCH);
        let fig = figure2(&d, 15);
        assert_eq!(fig[0].total(), 0);
        assert_eq!(fig[0].peak_2h_share, 0.0);
        assert_eq!(fig[0].max_daily_share(), 0.0);
    }
}
