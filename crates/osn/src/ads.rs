//! Page-like ad campaigns: targeting, budget pacing, delivery planning.
//!
//! A campaign spends its daily budget evenly over its run (Facebook-style
//! pacing), buying likes at the market's per-country prices from the
//! click-prone audience the auction reaches. The output is a *delivery
//! plan* — `(user, time)` pairs — which the study runner schedules as like
//! events; planning is separated from execution so the whole study stays
//! deterministic and inspectable.

use crate::auction::AdMarket;
use crate::demographics::{Country, Gender, Profile};
use crate::population::Population;
use crate::world::OsnWorld;
use likelab_graph::{PageId, UserId};
use likelab_sim::{Rng, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Ad-targeting constraints.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct Targeting {
    /// Restrict to these countries (None = worldwide).
    pub countries: Option<Vec<Country>>,
    /// Restrict to one gender.
    pub gender: Option<Gender>,
    /// Inclusive age range.
    pub age_range: Option<(u8, u8)>,
}

impl Targeting {
    /// Worldwide, untargeted.
    pub fn worldwide() -> Self {
        Targeting::default()
    }

    /// Target a single country.
    pub fn country(c: Country) -> Self {
        Targeting {
            countries: Some(vec![c]),
            ..Targeting::default()
        }
    }

    /// Whether a profile satisfies the targeting.
    pub fn matches(&self, profile: &Profile) -> bool {
        if let Some(cs) = &self.countries {
            if !cs.contains(&profile.country) {
                return false;
            }
        }
        if let Some(g) = self.gender {
            if profile.gender != g {
                return false;
            }
        }
        if let Some((lo, hi)) = self.age_range {
            if profile.age < lo || profile.age > hi {
                return false;
            }
        }
        true
    }
}

/// A page-like ad campaign specification.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AdCampaignSpec {
    /// Promoted page.
    pub page: PageId,
    /// Targeting constraints.
    pub targeting: Targeting,
    /// Daily budget in cents (the paper: $6/day).
    pub daily_budget_cents: f64,
    /// Campaign length in days (the paper: 15).
    pub duration_days: u64,
    /// Fraction of delivered likes that leak from outside the targeted
    /// countries (IP geolocation noise; the paper saw 0.2–13% leakage).
    pub leakage: f64,
}

/// One planned like delivery.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlannedLike {
    /// The account that will like the page.
    pub user: UserId,
    /// When the like lands.
    pub at: SimTime,
}

/// Plan the full delivery of an ad campaign starting at `launch`.
///
/// The plan draws from the population's click-prone pools (the segment that
/// actually clicks page-like ads — the paper found even legitimate-campaign
/// likers wildly unlike baseline users), never reusing a user for the same
/// page, and paces spending day by day with fractional carry-over.
pub fn plan_campaign(
    world: &OsnWorld,
    pop: &Population,
    market: &AdMarket,
    spec: &AdCampaignSpec,
    launch: SimTime,
    rng: &mut Rng,
) -> Vec<PlannedLike> {
    let mut rng = rng.fork("ads.plan");
    let targeted: Vec<Country> = spec
        .targeting
        .countries
        .clone()
        .unwrap_or_else(|| Country::ALL.to_vec());

    // Remaining reachable audience per country, demographic-filtered.
    let mut pools: Vec<(Country, Vec<UserId>)> = targeted
        .iter()
        .map(|c| {
            let pool: Vec<UserId> = pop
                .click_prone_by_country
                .get(c)
                .map(|ids| {
                    ids.iter()
                        .copied()
                        .filter(|u| spec.targeting.matches(&world.account(*u).profile))
                        .collect()
                })
                .unwrap_or_default();
            (*c, pool)
        })
        .collect();
    for (_, pool) in &mut pools {
        rng.shuffle(pool);
    }
    // Leakage pool: click-prone users outside the targeted countries.
    let mut leak_pool: Vec<UserId> = pop
        .click_prone_by_country
        .iter()
        .filter(|(c, _)| !targeted.contains(c))
        .flat_map(|(_, ids)| ids.iter().copied())
        .collect();
    rng.shuffle(&mut leak_pool);

    let mut used: HashSet<UserId> = HashSet::new();
    let mut plan: Vec<PlannedLike> = Vec::new();
    // Fractional spend carry-over per country.
    let mut carry: Vec<f64> = vec![0.0; pools.len()];

    // Market depths are the *reach estimates* at campaign creation: the
    // auction splits budget by initial audience size, not by live pool
    // drain (an advertiser's allocation doesn't re-plan hour by hour).
    // Pools that empty mid-run simply stop converting — wasted spend.
    let initial_depths: Vec<(Country, usize)> =
        pools.iter().map(|(c, pool)| (*c, pool.len())).collect();
    for day in 0..spec.duration_days {
        let day_start = launch + SimDuration::days(day);
        let allocation = market.allocate(spec.daily_budget_cents, &initial_depths);
        for (country, budget) in allocation {
            // `allocate` splits the budget over `initial_depths`, which
            // lists exactly the countries of `pools`.
            #[allow(clippy::expect_used)]
            let idx = pools
                .iter()
                .position(|(c, _)| *c == country)
                .expect("allocated market is in pools");
            let price = market.todays_cost(country, &mut rng).max(0.01);
            carry[idx] += budget;
            let n = (carry[idx] / price).floor() as usize;
            carry[idx] -= n as f64 * price;
            for _ in 0..n {
                let source = if !leak_pool.is_empty() && rng.chance(spec.leakage) {
                    &mut leak_pool
                } else {
                    &mut pools[idx].1
                };
                let Some(user) = source.pop() else { break };
                if !used.insert(user) {
                    continue;
                }
                // Likes land at a uniform moment within the day.
                let at = day_start + SimDuration::secs(rng.below(86_400));
                plan.push(PlannedLike { user, at });
            }
        }
    }
    plan.sort_by_key(|p| (p.at, p.user));
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::{synthesize, PopulationConfig};

    /// World at 20% scale; campaign budgets below are scaled by the same
    /// factor, exactly as the study runner does, so delivery stays
    /// budget-limited rather than pool-limited.
    const SCALE: f64 = 0.2;

    fn setup() -> (OsnWorld, Population, AdMarket) {
        // Synthesis is the expensive part; build one shared world and hand
        // each test a clone.
        static SHARED: std::sync::OnceLock<(OsnWorld, Population)> = std::sync::OnceLock::new();
        let (world, pop) = SHARED.get_or_init(|| {
            let mut world = OsnWorld::new();
            let config = PopulationConfig::default().scaled(SCALE);
            let mut rng = Rng::seed_from_u64(11);
            let pop = synthesize(&mut world, &config, &mut rng);
            (world, pop)
        });
        (world.clone(), pop.clone(), AdMarket::default())
    }

    fn honeypot(world: &mut OsnWorld) -> PageId {
        world.create_page(
            "Virtual Electricity",
            "This is not a real page, so please do not like it.",
            None,
            crate::page::PageCategory::Honeypot,
            SimTime::EPOCH,
        )
    }

    fn spec(page: PageId, targeting: Targeting) -> AdCampaignSpec {
        AdCampaignSpec {
            page,
            targeting,
            daily_budget_cents: 600.0 * SCALE,
            duration_days: 15,
            leakage: 0.02,
        }
    }

    #[test]
    fn targeting_matches_constraints() {
        let p = Profile {
            gender: Gender::Male,
            age: 20,
            country: Country::India,
            home_region: 0,
        };
        assert!(Targeting::worldwide().matches(&p));
        assert!(Targeting::country(Country::India).matches(&p));
        assert!(!Targeting::country(Country::Usa).matches(&p));
        let t = Targeting {
            countries: None,
            gender: Some(Gender::Female),
            age_range: None,
        };
        assert!(!t.matches(&p));
        let t = Targeting {
            countries: None,
            gender: None,
            age_range: Some((13, 19)),
        };
        assert!(!t.matches(&p));
        let t = Targeting {
            countries: None,
            gender: None,
            age_range: Some((18, 24)),
        };
        assert!(t.matches(&p));
    }

    #[test]
    fn india_campaign_delivers_hundreds_usa_tens() {
        let (mut world, pop, market) = setup();
        let page = honeypot(&mut world);
        let mut rng = Rng::seed_from_u64(3);
        let india = plan_campaign(
            &world,
            &pop,
            &market,
            &spec(page, Targeting::country(Country::India)),
            pop.launch,
            &mut rng,
        );
        let usa = plan_campaign(
            &world,
            &pop,
            &market,
            &spec(page, Targeting::country(Country::Usa)),
            pop.launch,
            &mut rng,
        );
        assert!(
            india.len() > usa.len() * 8,
            "India {} vs USA {}",
            india.len(),
            usa.len()
        );
        // At 20% scale the paper's 32 USA likes become ~6.
        assert!((3..=15).contains(&usa.len()), "USA {}", usa.len());
    }

    #[test]
    fn worldwide_campaign_is_india_dominated() {
        let (mut world, pop, market) = setup();
        let page = honeypot(&mut world);
        let mut rng = Rng::seed_from_u64(4);
        let plan = plan_campaign(
            &world,
            &pop,
            &market,
            &spec(page, Targeting::worldwide()),
            pop.launch,
            &mut rng,
        );
        let india = plan
            .iter()
            .filter(|p| world.account(p.user).profile.country == Country::India)
            .count();
        let share = india as f64 / plan.len().max(1) as f64;
        assert!(
            share > 0.85,
            "India share {share} of {} likes should be near-total",
            plan.len()
        );
    }

    #[test]
    fn targeted_campaign_stays_mostly_in_country() {
        let (mut world, pop, market) = setup();
        let page = honeypot(&mut world);
        let mut rng = Rng::seed_from_u64(5);
        let plan = plan_campaign(
            &world,
            &pop,
            &market,
            &spec(page, Targeting::country(Country::Egypt)),
            pop.launch,
            &mut rng,
        );
        let egypt = plan
            .iter()
            .filter(|p| world.account(p.user).profile.country == Country::Egypt)
            .count();
        let share = egypt as f64 / plan.len().max(1) as f64;
        assert!(share > 0.87, "Egypt share {share}");
        assert!(share < 1.0, "some leakage expected");
    }

    #[test]
    fn no_user_is_planned_twice() {
        let (mut world, pop, market) = setup();
        let page = honeypot(&mut world);
        let mut rng = Rng::seed_from_u64(6);
        let plan = plan_campaign(
            &world,
            &pop,
            &market,
            &spec(page, Targeting::worldwide()),
            pop.launch,
            &mut rng,
        );
        let mut users: Vec<UserId> = plan.iter().map(|p| p.user).collect();
        users.sort_unstable();
        let before = users.len();
        users.dedup();
        assert_eq!(users.len(), before);
    }

    #[test]
    fn delivery_is_paced_over_the_whole_run() {
        let (mut world, pop, market) = setup();
        let page = honeypot(&mut world);
        let mut rng = Rng::seed_from_u64(7);
        let plan = plan_campaign(
            &world,
            &pop,
            &market,
            &spec(page, Targeting::country(Country::India)),
            pop.launch,
            &mut rng,
        );
        // Likes on at least 12 of the 15 days, no day over 20% of total.
        let mut per_day = [0usize; 15];
        for p in &plan {
            let day = p.at.since(pop.launch).as_secs() / 86_400;
            per_day[day as usize] += 1;
        }
        let active_days = per_day.iter().filter(|d| **d > 0).count();
        assert!(active_days >= 12, "active days {active_days}");
        let max = *per_day.iter().max().unwrap();
        assert!(
            (max as f64) < plan.len() as f64 * 0.2,
            "bursty ad delivery: {per_day:?}"
        );
    }

    #[test]
    fn plan_is_chronological_and_in_window() {
        let (mut world, pop, market) = setup();
        let page = honeypot(&mut world);
        let mut rng = Rng::seed_from_u64(8);
        let plan = plan_campaign(
            &world,
            &pop,
            &market,
            &spec(page, Targeting::worldwide()),
            pop.launch,
            &mut rng,
        );
        assert!(!plan.is_empty());
        for w in plan.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        let end = pop.launch + SimDuration::days(15);
        assert!(plan.iter().all(|p| p.at >= pop.launch && p.at < end));
    }

    #[test]
    fn empty_audience_yields_empty_plan() {
        let (mut world, pop, market) = setup();
        let page = honeypot(&mut world);
        let mut rng = Rng::seed_from_u64(9);
        // Target an age band the click-prone population barely has.
        let t = Targeting {
            countries: Some(vec![Country::India]),
            gender: None,
            age_range: Some((70, 80)),
        };
        let plan = plan_campaign(&world, &pop, &market, &spec(page, t), pop.launch, &mut rng);
        assert!(
            plan.len() < 5,
            "70-80 year old Indian clickers should be near-absent, got {}",
            plan.len()
        );
    }
}
