//! Detection evaluation (DESIGN.md §3, D1): run the honeypot study, then
//! act as the platform operator — score every account with the combined
//! detector, run the lockstep detector and SybilRank from organic seeds,
//! and measure all three against ground truth.
//!
//! Reproduces the paper's closing argument quantitatively: bot-burst farm
//! accounts are easy to catch; BoostLikes-style stealth accounts score
//! near-organic and survive.
//!
//! ```text
//! cargo run --release --example detection_eval [scale] [seed]
//! ```

use likelab::detect::{
    confusion_at, detect, extract, roc, score, sybil_rank, BurstConfig, LockstepConfig,
    PositiveClass, ScorerWeights, SybilRankConfig,
};
use likelab::graph::UserId;
use likelab::osn::ActorClass;
use likelab::sim::SimDuration;
use likelab::{run_study, StudyConfig};

fn main() {
    let mut args = std::env::args().skip(1);
    let scale: f64 = args.next().map(|s| s.parse().unwrap()).unwrap_or(0.15);
    let seed: u64 = args.next().map(|s| s.parse().unwrap()).unwrap_or(42);

    eprintln!("running study (seed={seed}, scale={scale})...");
    let outcome = run_study(&StudyConfig::paper(seed, scale));
    let world = &outcome.world;
    let now = outcome.launch + SimDuration::days(45);

    // --- combined per-account scorer ---------------------------------------
    eprintln!("scoring {} accounts...", world.account_count());
    let burst_cfg = BurstConfig::default();
    let weights = ScorerWeights::default();
    let scored: Vec<(UserId, f64)> = world
        .user_ids()
        .map(|u| (u, score(&extract(world, u, now, &burst_cfg), &weights)))
        .collect();

    let r = roc(world, &scored, PositiveClass::FarmOnly);
    println!("combined scorer vs farm accounts: AUC = {:.3}", r.auc);
    let c = confusion_at(world, &scored, 0.5, PositiveClass::FarmOnly);
    println!(
        "at threshold 0.5: precision {:.2}, recall {:.2}, F1 {:.2}, FPR {:.4}",
        c.precision(),
        c.recall(),
        c.f1(),
        c.fpr()
    );

    // --- the stealth gap ----------------------------------------------------
    let mean_score = |pred: &dyn Fn(ActorClass) -> bool| -> f64 {
        let xs: Vec<f64> = scored
            .iter()
            .filter(|(u, _)| pred(world.account(*u).class))
            .map(|(_, s)| *s)
            .collect();
        xs.iter().sum::<f64>() / xs.len().max(1) as f64
    };
    let bot = mean_score(&|c| matches!(c, ActorClass::Bot(_)));
    let stealth = mean_score(&|c| matches!(c, ActorClass::StealthSybil(_)));
    let organic = mean_score(&|c| c == ActorClass::Organic);
    let clickprone = mean_score(&|c| c == ActorClass::ClickProne);
    println!("\nmean detector score by ground-truth class:");
    println!("  bot farm accounts:     {bot:.3}");
    println!("  click-prone accounts:  {clickprone:.3}");
    println!("  stealth sybils:        {stealth:.3}   <- the paper's hard case");
    println!("  organic users:         {organic:.3}");
    println!(
        "stealth gap: stealth sybils score {:.1}x closer to organic than bots do \
         (stealth - organic {:+.3}, bots - organic {:+.3})",
        (bot - organic).abs() / (stealth - organic).abs().max(1e-6),
        stealth - organic,
        bot - organic,
    );

    // --- recall per farm class ------------------------------------------------
    let recall_of = |pred: &dyn Fn(ActorClass) -> bool| -> f64 {
        let (mut tp, mut total) = (0usize, 0usize);
        for (u, s) in &scored {
            if pred(world.account(*u).class) {
                total += 1;
                if *s >= 0.5 {
                    tp += 1;
                }
            }
        }
        tp as f64 / total.max(1) as f64
    };
    println!(
        "\nrecall at 0.5: bots {:.2}, stealth sybils {:.2}",
        recall_of(&|c| matches!(c, ActorClass::Bot(_))),
        recall_of(&|c| matches!(c, ActorClass::StealthSybil(_)))
    );

    // --- lockstep detector ------------------------------------------------------
    eprintln!(
        "\nrunning lockstep detection over {} likes...",
        world.likes().len()
    );
    let report = detect(world, &LockstepConfig::default());
    let flagged = report.flagged();
    let farm_flagged = flagged
        .iter()
        .filter(|u| world.account(**u).class.is_farm())
        .count();
    println!(
        "lockstep: {} clusters, {} accounts flagged, {} of them farm accounts ({:.0}% precision)",
        report.clusters.len(),
        flagged.len(),
        farm_flagged,
        farm_flagged as f64 / flagged.len().max(1) as f64 * 100.0
    );
    if let Some(biggest) = report.clusters.first() {
        let farms_in = biggest
            .iter()
            .filter(|u| world.account(**u).class.is_farm())
            .count();
        println!(
            "largest cluster: {} accounts, {farms_in} of them farm-operated",
            biggest.len()
        );
    }

    // --- graph defense --------------------------------------------------------
    // Organic accounts of the population: the honeypot owners are organic
    // too, but created at the launch.
    let seeds: Vec<UserId> = world
        .user_ids()
        .filter(|&u| {
            let a = world.account(u);
            a.class == ActorClass::Organic && a.created_at < outcome.launch
        })
        .step_by(500)
        .collect();
    let trust = sybil_rank(world.friends(), &seeds, &SybilRankConfig::default());
    let mean_trust = |pred: &dyn Fn(ActorClass) -> bool| -> f64 {
        let xs: Vec<f64> = world
            .user_ids()
            .filter(|u| pred(world.account(*u).class))
            .map(|u| trust.trust(u))
            .collect();
        xs.iter().sum::<f64>() / xs.len().max(1) as f64
    };
    println!(
        "\nsybilrank mean trust from {} organic seeds (every 500th organic account):",
        seeds.len()
    );
    println!(
        "  organic users:         {:.2e}",
        mean_trust(&|c| c == ActorClass::Organic)
    );
    println!(
        "  bot farm accounts:     {:.2e}",
        mean_trust(&|c| matches!(c, ActorClass::Bot(_)))
    );
    println!(
        "  stealth sybils:        {:.2e}",
        mean_trust(&|c| matches!(c, ActorClass::StealthSybil(_)))
    );
}
