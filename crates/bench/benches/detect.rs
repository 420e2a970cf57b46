//! Detection benches: the follow-on algorithms the paper motivates, timed
//! over the study's world and scored against ground truth.

use criterion::{criterion_group, criterion_main, Criterion};
use likelab_bench::{print_block, study};
use likelab_detect::{
    detect, extract, roc, score, sybil_rank, BurstConfig, LockstepConfig, PositiveClass,
    ScorerWeights, SybilRankConfig,
};
use likelab_graph::UserId;
use likelab_osn::ActorClass;
use likelab_sim::SimDuration;
use std::fmt::Write as _;
use std::hint::black_box;

fn print_comparison() {
    let o = study();
    let now = o.launch + SimDuration::days(45);
    let cfg = BurstConfig::default();
    let mut body = String::new();

    // Combined scorer AUC.
    let scored: Vec<(UserId, f64)> = o
        .world
        .user_ids()
        .map(|u| {
            (
                u,
                score(&extract(&o.world, u, now, &cfg), &ScorerWeights::default()),
            )
        })
        .collect();
    let auc = roc(&o.world, &scored, PositiveClass::FarmOnly).auc;
    let _ = writeln!(
        body,
        "combined scorer (hand weights): AUC {auc:.3} vs farm labels"
    );

    // Lockstep.
    let report = detect(&o.world, &LockstepConfig::default());
    let flagged = report.flagged();
    let farm_flagged = flagged
        .iter()
        .filter(|u| o.world.account(**u).class.is_farm())
        .count();
    let _ = writeln!(
        body,
        "lockstep: {} clusters, {} flagged, precision {:.0}%",
        report.clusters.len(),
        flagged.len(),
        farm_flagged as f64 / flagged.len().max(1) as f64 * 100.0
    );

    // SybilRank from organic seeds.
    let seeds: Vec<UserId> = o.population.organic.iter().step_by(500).copied().collect();
    let trust = sybil_rank(o.world.friends(), &seeds, &SybilRankConfig::default());
    let mean = |pred: &dyn Fn(ActorClass) -> bool| {
        let xs: Vec<f64> = o
            .world
            .user_ids()
            .filter(|u| pred(o.world.account(*u).class))
            .map(|u| trust.trust(u))
            .collect();
        xs.iter().sum::<f64>() / xs.len().max(1) as f64
    };
    let organic_trust = mean(&|c| c == ActorClass::Organic);
    let bot_trust = mean(&|c| matches!(c, ActorClass::Bot(_)));
    let stealth_trust = mean(&|c| matches!(c, ActorClass::StealthSybil(_)));
    let _ = writeln!(
        body,
        "sybilrank mean trust: organic {organic_trust:.2e}, bots {bot_trust:.2e}, stealth {stealth_trust:.2e}",
    );
    let _ = writeln!(
        body,
        "story: bots are easy for every detector; the stealth farm's accounts\n\
         score near-organic on behaviour and only the graph defense (low trust\n\
         from organic seeds) touches them — as the paper's structure implies"
    );
    print_block("Detection extension: detectors vs ground truth", &body);
}

fn bench(c: &mut Criterion) {
    print_comparison();
    let o = study();
    let now = o.launch + SimDuration::days(45);
    let cfg = BurstConfig::default();
    c.bench_function("detect/extract_features_1k", |b| {
        let users: Vec<UserId> = o.world.user_ids().take(1_000).collect();
        b.iter(|| {
            for u in &users {
                black_box(extract(&o.world, *u, now, &cfg));
            }
        })
    });
    let mut group = c.benchmark_group("detect/heavy");
    group.sample_size(10);
    group.bench_function("lockstep_full_ledger", |b| {
        b.iter(|| black_box(detect(&o.world, &LockstepConfig::default())))
    });
    group.bench_function("sybilrank_full_graph", |b| {
        let seeds: Vec<UserId> = o.population.organic.iter().step_by(500).copied().collect();
        b.iter(|| {
            black_box(sybil_rank(
                o.world.friends(),
                &seeds,
                &SybilRankConfig::default(),
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
