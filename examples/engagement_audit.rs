//! Engagement audit: what the bought likes are actually worth.
//!
//! Runs the honeypot study, then acts as each page's owner for a month of
//! posting (30 posts) and measures who reacts. The paper's economic framing
//! — a like is valued at $3.60–$214.81 because it predicts engagement — is
//! tested directly: farm audiences are a void, and even legitimate-ad
//! audiences full of click-prone users barely respond.
//!
//! ```text
//! cargo run --release --example engagement_audit [scale]
//! ```

use likelab::osn::{simulate_engagement, ActorClass, EngagementModel};
use likelab::sim::Rng;
use likelab::{run_study, StudyConfig};

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .map(|s| s.parse().unwrap())
        .unwrap_or(0.15);
    eprintln!("running study (scale {scale})...");
    let mut outcome = run_study(&StudyConfig::paper(42, scale));
    let model = EngagementModel::default();
    let mut rng = Rng::seed_from_u64(99);

    // A control page with genuinely interested organic fans, same size as
    // the median campaign.
    let control_page = {
        use likelab::osn::PageCategory;
        use likelab::sim::SimTime;
        // Organic accounts of the population: the honeypot owners are
        // organic too, but created at the launch.
        let fans: Vec<_> = outcome
            .world
            .user_ids()
            .filter(|&u| {
                let a = outcome.world.account(u);
                a.class == ActorClass::Organic && a.created_at < outcome.launch
            })
            .take(400)
            .collect();
        let world = &mut outcome.world;
        let page = world.create_page(
            "control-organic-fans",
            "",
            None,
            PageCategory::Background,
            SimTime::at_day(500),
        );
        for f in fans {
            world.record_like(f, page, SimTime::at_day(500));
        }
        page
    };
    println!(
        "\n{:24} {:>7} {:>13} {:>11} {:>13}",
        "Page", "fans", "impressions", "reactions", "eng. rate"
    );
    let control = simulate_engagement(&outcome.world, control_page, 30, &model, &mut rng);
    println!(
        "{:24} {:>7} {:>13} {:>11} {:>12.2}%",
        "control (organic fans)",
        control.fans,
        control.impressions,
        control.reactions,
        control.engagement_rate() * 100.0
    );
    for (i, c) in outcome.dataset.campaigns.iter().enumerate() {
        if c.inactive {
            continue;
        }
        let r = simulate_engagement(&outcome.world, outcome.honeypots[i], 30, &model, &mut rng);
        println!(
            "{:24} {:>7} {:>13} {:>11} {:>12.2}%",
            c.spec.label,
            r.fans,
            r.impressions,
            r.reactions,
            r.engagement_rate() * 100.0
        );
    }

    // Class composition of one farm audience, for the why.
    let sf_idx = outcome
        .dataset
        .campaigns
        .iter()
        .position(|c| c.spec.label == "SF-ALL")
        .unwrap();
    let sf_fans = outcome.world.visible_likers(outcome.honeypots[sf_idx]);
    let bots = sf_fans
        .iter()
        .filter(|u| matches!(outcome.world.account(**u).class, ActorClass::Bot(_)))
        .count();
    println!(
        "\nSF-ALL audience: {}/{} bot accounts — the page posts into a void.",
        bots,
        sf_fans.len()
    );
    println!(
        "The paper's citations [7][20] observed exactly this: pages stuffed with\n\
         bought likes see engagement collapse, and feed ranking then buries them."
    );
}
