//! Ongoing organic activity during the study window.
//!
//! The population synthesizer fills pre-launch like histories; this module
//! keeps the world alive *during* the campaigns: users continue liking
//! background pages at individual Poisson rates. The activity matters for
//! the detection benchmarks (false-positive pressure) and keeps per-user
//! like streams from ending abruptly at launch.

use crate::population::{BackgroundSampler, Population, PopulationConfig};
use crate::world::OsnWorld;
use likelab_graph::{PageId, UserId};
use likelab_sim::dist::exponential;
use likelab_sim::{Rng, SimDuration, SimTime};

/// One planned organic background like.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OrganicLike {
    /// Who likes.
    pub user: UserId,
    /// The liked background page.
    pub page: PageId,
    /// When.
    pub at: SimTime,
}

/// Plan background liking activity for `window` starting at `from`.
///
/// Each user's rate is proportional to their historical appetite (their
/// existing like count spread over the history window), so click-prone users
/// keep liking heavily and light users stay light. Returns a chronologically
/// sorted plan.
pub fn plan_background_activity(
    world: &OsnWorld,
    pop: &Population,
    config: &PopulationConfig,
    from: SimTime,
    window: SimDuration,
    rng: &mut Rng,
) -> Vec<OrganicLike> {
    let mut rng = rng.fork("organic.activity");
    if pop.background_pages.is_empty() || window.is_zero() {
        return Vec::new();
    }
    let sampler = BackgroundSampler::new(pop, config);
    let history_days = from.as_days_f64().max(1.0);
    let mut plan = Vec::new();
    for &user in pop.organic.iter().chain(pop.click_prone.iter()) {
        let appetite = world.likes().user_like_count(user) as f64 / history_days; // likes/day
        if appetite <= 0.0 {
            continue;
        }
        let pages = sampler.for_country(world.account(user).profile.country);
        // Poisson process via exponential inter-arrivals.
        let mut t = from;
        loop {
            let gap_days = exponential(&mut rng, appetite);
            let gap = SimDuration::secs((gap_days * 86_400.0) as u64);
            t += gap;
            if t.since(from) >= window {
                break;
            }
            plan.push(OrganicLike {
                user,
                page: pages.sample(&mut rng),
                at: t,
            });
        }
    }
    plan.sort_by_key(|l| (l.at, l.user));
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::{synthesize, PopulationConfig};

    fn setup() -> (OsnWorld, Population, PopulationConfig) {
        let mut world = OsnWorld::new();
        let config = PopulationConfig::default().scaled(0.01);
        let mut rng = Rng::seed_from_u64(21);
        let pop = synthesize(&mut world, &config, &mut rng);
        (world, pop, config)
    }

    #[test]
    fn activity_is_chronological_and_windowed() {
        let (world, pop, config) = setup();
        let mut rng = Rng::seed_from_u64(1);
        let window = SimDuration::days(15);
        let plan = plan_background_activity(&world, &pop, &config, pop.launch, window, &mut rng);
        assert!(!plan.is_empty());
        for w in plan.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        assert!(plan
            .iter()
            .all(|l| l.at >= pop.launch && l.at.since(pop.launch) < window));
    }

    #[test]
    fn rate_tracks_historical_appetite() {
        let (world, pop, config) = setup();
        let mut rng = Rng::seed_from_u64(2);
        let plan = plan_background_activity(
            &world,
            &pop,
            &config,
            pop.launch,
            SimDuration::days(30),
            &mut rng,
        );
        // Click-prone users (heavy historical likers) should produce far
        // more new likes per capita than organics.
        let cp: std::collections::HashSet<UserId> = pop.click_prone.iter().copied().collect();
        let cp_likes = plan.iter().filter(|l| cp.contains(&l.user)).count() as f64;
        let org_likes = plan.len() as f64 - cp_likes;
        let cp_rate = cp_likes / pop.click_prone.len().max(1) as f64;
        let org_rate = org_likes / pop.organic.len().max(1) as f64;
        assert!(
            cp_rate > org_rate * 4.0,
            "click-prone rate {cp_rate} vs organic {org_rate}"
        );
    }

    #[test]
    fn empty_window_plans_nothing() {
        let (world, pop, config) = setup();
        let mut rng = Rng::seed_from_u64(3);
        let plan = plan_background_activity(
            &world,
            &pop,
            &config,
            pop.launch,
            SimDuration::ZERO,
            &mut rng,
        );
        assert!(plan.is_empty());
    }

    #[test]
    fn pages_are_in_catalogue() {
        let (world, pop, config) = setup();
        let mut rng = Rng::seed_from_u64(4);
        let plan = plan_background_activity(
            &world,
            &pop,
            &config,
            pop.launch,
            SimDuration::days(5),
            &mut rng,
        );
        let catalogue: std::collections::HashSet<PageId> =
            pop.background_pages.iter().copied().collect();
        assert!(plan.iter().all(|l| catalogue.contains(&l.page)));
    }
}
