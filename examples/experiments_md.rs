//! Regenerates EXPERIMENTS.md: runs the study and emits the
//! paper-vs-measured record for every table and figure, in Markdown.
//!
//! ```text
//! cargo run --release --example experiments_md [scale] [seed] > EXPERIMENTS.md
//! ```

use likelab::analysis::{
    demographics::table2,
    geo::figure1,
    pagelikes::figure4,
    similarity::{figure5_pages, figure5_users},
    temporal::figure2,
    Provider,
};
use likelab::core::paper;
use likelab::detect::{judge_page, BurstConfig};
use likelab::farms::{DeliveryStyle, FarmOrder, FarmRoster, FarmSpec, PoolTopology, Region};
use likelab::graph::components::ComponentCensus;
use likelab::graph::twohop::direct_edges_within;
use likelab::graph::{PageId, UserId};
use likelab::osn::{AdMarket, Country, GeoBucket, OsnWorld, PageCategory};
use likelab::sim::{Rng, SimDuration, SimTime};
use likelab::{checklist, run_study, StudyConfig};
use std::collections::BTreeSet;
use std::fmt::Write as _;

fn main() {
    let mut args = std::env::args().skip(1);
    let scale: f64 = args.next().map(|s| s.parse().unwrap()).unwrap_or(1.0);
    let seed: u64 = args.next().map(|s| s.parse().unwrap()).unwrap_or(42);
    eprintln!("generating EXPERIMENTS.md from a seed={seed}, scale={scale} run...");
    // Wall time of the run, for the progress line on stderr only.
    #[allow(clippy::disallowed_types)]
    let started = std::time::Instant::now();
    let o = run_study(&StudyConfig::paper(seed, scale));
    eprintln!("study done in {:.1}s", started.elapsed().as_secs_f64());
    let mut md = String::new();
    let w = &mut md;

    let _ = writeln!(w, "# EXPERIMENTS — paper vs. measured\n");
    let _ = writeln!(
        w,
        "Source run: `run_study(&StudyConfig::paper({seed}, {scale}))` \
         (deterministic; regenerate with `cargo run --release --example \
         experiments_md {scale} {seed} > EXPERIMENTS.md`).\n"
    );
    let _ = writeln!(
        w,
        "World: {} accounts, {} pages, {} likes in the ledger at study end. \
         Paper *count* columns are scaled by {scale} where the quantity scales \
         with world size; distributions, medians, percentages, and KL values \
         compare directly. Absolute numbers are not expected to match a live \
         2014 platform — the reproduction criteria are the *shapes* (who wins, \
         by what factor), summarized by the checklist at the end.\n",
        o.world.account_count(),
        o.world.page_count(),
        o.world.likes().len(),
    );

    // ---- Table 1 ---------------------------------------------------------
    let _ = writeln!(w, "## Table 1 — campaigns and outcomes\n");
    let _ = writeln!(w, "| Campaign | Paper likes (×{scale}) | Measured | Paper terminated | Measured | Paper monitoring | Measured |");
    let _ = writeln!(w, "|---|---|---|---|---|---|---|");
    for row in paper::TABLE1 {
        let c = o.dataset.campaign(row.label).unwrap();
        let f = |v: Option<String>| v.unwrap_or_else(|| "–".into());
        let _ = writeln!(
            w,
            "| {} | {} | {} | {} | {} | {} | {} |",
            row.label,
            f(row.likes.map(|l| format!("{:.0}", l as f64 * scale))),
            f((!c.inactive).then(|| c.like_count().to_string())),
            f(row.terminated.map(|t| t.to_string())),
            f((!c.inactive).then(|| c.terminated_after_month.to_string())),
            f(row.monitoring_days.map(|d| format!("{d} d"))),
            f(c.monitoring_days.map(|d| format!("{d} d"))),
        );
    }
    let _ = writeln!(
        w,
        "\nTotals: measured {} campaign likes ({} farm / {} ads); paper {} \
         ({} / {}; note the paper's own Table 1 column sums to 4,453 farm \
         likes — a 70-like discrepancy in the original we document in \
         `likelab_core::paper`). Observed on liker profiles: {} page likes \
         and {} friendship entries (paper: 6.3 M / 1 M+ at full scale).\n",
        o.dataset.total_likes(),
        o.dataset.farm_likes(),
        o.dataset.ad_likes(),
        paper::TOTAL_CAMPAIGN_LIKES,
        paper::TOTAL_FARM_LIKES,
        paper::TOTAL_AD_LIKES,
        o.dataset.observed_page_likes(),
        o.dataset.observed_friendships(),
    );

    // ---- Figure 1 --------------------------------------------------------
    let _ = writeln!(w, "## Figure 1 — liker geolocation\n");
    let _ = writeln!(
        w,
        "| Campaign | USA% | India% | Egypt% | Turkey% | France% | Other% |"
    );
    let _ = writeln!(w, "|---|---|---|---|---|---|---|");
    for r in figure1(&o.dataset) {
        let _ = writeln!(
            w,
            "| {} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} |",
            r.label,
            r.share(GeoBucket::Usa) * 100.0,
            r.share(GeoBucket::India) * 100.0,
            r.share(GeoBucket::Egypt) * 100.0,
            r.share(GeoBucket::Turkey) * 100.0,
            r.share(GeoBucket::France) * 100.0,
            r.share(GeoBucket::Other) * 100.0,
        );
    }
    let fig1 = figure1(&o.dataset);
    let india = fig1
        .iter()
        .find(|r| r.label == "FB-ALL")
        .unwrap()
        .share(GeoBucket::India);
    let _ = writeln!(
        w,
        "\nPaper headlines: FB-ALL 96% India (measured {:.0}%); targeted FB \
         campaigns 87–99.8% in-country (measured: see rows); SocialFormula \
         Turkish regardless of targeting (measured SF-USA {:.0}% Turkey).\n",
        india * 100.0,
        fig1.iter()
            .find(|r| r.label == "SF-USA")
            .unwrap()
            .share(GeoBucket::Turkey)
            * 100.0,
    );

    // ---- Table 2 ---------------------------------------------------------
    let _ = writeln!(w, "## Table 2 — gender, age, KL divergence\n");
    let _ = writeln!(
        w,
        "| Campaign | Paper %F/%M | Measured | Paper KL | Measured KL |"
    );
    let _ = writeln!(w, "|---|---|---|---|---|");
    let t2 = table2(&o.dataset);
    for row in paper::TABLE2 {
        let Some(m) = t2.iter().find(|r| r.label == row.label) else {
            continue;
        };
        let _ = writeln!(
            w,
            "| {} | {:.0}/{:.0} | {:.0}/{:.0} | {} | {} |",
            row.label,
            row.female_pct,
            row.male_pct,
            m.female_pct,
            m.male_pct,
            row.kl
                .map(|k| format!("{k:.2}"))
                .unwrap_or_else(|| "–".into()),
            m.kl.map(|k| format!("{k:.2}"))
                .unwrap_or_else(|| "–".into()),
        );
    }
    let _ = writeln!(
        w,
        "\nShape held: FB-IND/EGY/ALL diverge hard (young + male), \
         SocialFormula mirrors the global population (KL ≈ 0.04 in the paper).\n"
    );

    // ---- Figure 2 --------------------------------------------------------
    let _ = writeln!(w, "## Figure 2 — cumulative likes over 15 days\n");
    let _ = writeln!(
        w,
        "| Campaign | Panel | Total | Peak-2h share | Days to 90% | Max daily share |"
    );
    let _ = writeln!(w, "|---|---|---|---|---|---|");
    for s in figure2(&o.dataset, 15) {
        let _ = writeln!(
            w,
            "| {} | {} | {} | {:.0}% | {:.1} | {:.0}% |",
            s.label,
            if s.platform_ads {
                "2(a) ads"
            } else {
                "2(b) farms"
            },
            s.total(),
            s.peak_2h_share * 100.0,
            s.days_to_90pct,
            s.max_daily_share() * 100.0,
        );
    }
    let _ = writeln!(
        w,
        "\nPaper: SF/AL/MS deliver in ≤2 h bursts (AL: 700+ likes in 4 hours \
         on day 2, then silence); BL-USA climbs steadily, 'comparable to that \
         observed in the Facebook Ads campaigns'. Both behaviours reproduce.\n"
    );

    // ---- Table 3 / Figure 3 -----------------------------------------------
    let _ = writeln!(w, "## Table 3 — likers and friendships\n");
    let _ = writeln!(w, "| Provider | Paper likers (×{scale}) | Measured | Paper public-FL% | Measured | Paper med. friends | Measured | Paper #edges (×{scale}) | Measured | Paper #2-hop (×{scale}) | Measured |");
    let _ = writeln!(w, "|---|---|---|---|---|---|---|---|---|---|---|");
    for row in paper::TABLE3 {
        let m = o
            .report
            .table3
            .iter()
            .find(|r| r.provider.to_string() == row.provider)
            .unwrap();
        let _ = writeln!(
            w,
            "| {} | {:.0} | {} | {:.1} | {:.1} | {:.0} | {:.0} | {:.1} | {} | {:.1} | {} |",
            row.provider,
            row.likers as f64 * scale,
            m.likers,
            row.public_pct,
            m.public_pct(),
            row.friends_median,
            m.friends.median,
            row.friendships as f64 * scale,
            m.friendships_between_likers,
            row.two_hop as f64 * scale,
            m.two_hop_between_likers,
        );
    }
    let obs = likelab::analysis::ObservedSocial::build(&o.dataset);
    let _ = writeln!(w, "\n### Figure 3 — induced friendship-graph structure\n");
    let _ = writeln!(
        w,
        "| Provider | Members | Singletons | Pairs | Triplets | ≥4 comps | Giant % |"
    );
    let _ = writeln!(w, "|---|---|---|---|---|---|---|");
    for p in Provider::ALL {
        let c = obs.group_census(p);
        let _ = writeln!(
            w,
            "| {} | {} | {} | {} | {} | {} | {:.0}% |",
            p,
            c.members,
            c.singletons,
            c.pairs,
            c.triplets,
            c.larger,
            c.giant_fraction() * 100.0,
        );
    }
    let _ = writeln!(
        w,
        "\nPaper's reading reproduces: dense interconnected BoostLikes blob; \
         SocialFormula pairs/triplets; AL↔MS cross edges ({} measured) point \
         to the shared operator. DOT exports of the drawing itself: \
         `DIR/figure3_*.dot` from `likelab export DIR`.\n",
        obs.cross_group_pairs(Provider::AuthenticLikes, Provider::MammothSocials)
            .len(),
    );

    // ---- Figure 4 ---------------------------------------------------------
    let _ = writeln!(w, "## Figure 4 — page-like count distributions\n");
    let _ = writeln!(
        w,
        "| Curve | Paper median | Measured median | n (public like lists) |"
    );
    let _ = writeln!(w, "|---|---|---|---|");
    for c in figure4(&o.dataset) {
        let paper_median: String = match c.label.as_str() {
            "Facebook" => format!("{}", paper::BASELINE_MEDIAN_LIKES),
            "BL-USA" => format!("{}", paper::BL_USA_MEDIAN_LIKES),
            l if l.starts_with("FB-") => format!(
                "{:.0}–{:.0}",
                paper::FB_CAMPAIGN_MEDIAN_LIKES.0,
                paper::FB_CAMPAIGN_MEDIAN_LIKES.1
            ),
            "BL-ALL" | "MS-ALL" => "–".into(),
            _ => format!(
                "{:.0}–{:.0}",
                paper::FARM_CAMPAIGN_MEDIAN_LIKES.0,
                paper::FARM_CAMPAIGN_MEDIAN_LIKES.1
            ),
        };
        let m = c.median();
        let _ = writeln!(
            w,
            "| {} | {} | {} | {} |",
            c.label,
            paper_median,
            if m.is_nan() {
                "–".into()
            } else {
                format!("{m:.0}")
            },
            c.cdf.len(),
        );
    }
    let _ = writeln!(
        w,
        "\nThe paper's central contrast holds: honeypot likers like 1–2 orders \
         of magnitude more pages than the directory baseline, except BL-USA \
         ('keeping a small count of likes per user').\n"
    );

    // ---- Figure 5 ----------------------------------------------------------
    let _ = writeln!(w, "## Figure 5 — Jaccard similarity (×100)\n");
    let pages = figure5_pages(&o.dataset);
    let users = figure5_users(&o.dataset);
    let _ = writeln!(w, "Hot pairs (the paper's fingerprint cells):\n");
    let _ = writeln!(w, "| Pair | Matrix | Measured | Paper's reading |");
    let _ = writeln!(w, "|---|---|---|---|");
    let rows = [
        (
            "SF-ALL ↔ SF-USA",
            users.get("SF-ALL", "SF-USA"),
            "users",
            "same accounts reused across campaigns",
        ),
        (
            "AL-USA ↔ MS-USA",
            users.get("AL-USA", "MS-USA"),
            "users",
            "same operator runs both farms",
        ),
        (
            "FB-IND ↔ FB-ALL",
            pages.get("FB-IND", "FB-ALL"),
            "pages",
            "FB-IND/EGY/ALL resemble each other",
        ),
        (
            "FB-IND ↔ FB-EGY",
            pages.get("FB-IND", "FB-EGY"),
            "pages",
            "ditto",
        ),
        (
            "SF-ALL ↔ SF-USA",
            pages.get("SF-ALL", "SF-USA"),
            "pages",
            "shared accounts ⇒ shared histories",
        ),
        (
            "AL-USA ↔ MS-USA",
            pages.get("AL-USA", "MS-USA"),
            "pages",
            "shared operator job pool",
        ),
        (
            "SF-ALL ↔ AL-USA",
            pages.get("SF-ALL", "AL-USA"),
            "pages",
            "distinct operators stay dim",
        ),
        (
            "FB-IND ↔ AL-USA",
            pages.get("FB-IND", "AL-USA"),
            "pages",
            "ads vs. farms stay dim",
        ),
    ];
    for (pair, v, matrix, reading) in rows {
        let _ = writeln!(w, "| {pair} | {matrix} | {v:.1} | {reading} |");
    }
    let _ = writeln!(
        w,
        "\nFull matrices: `report.figure5_pages` / `report.figure5_users` \
         (also printed by `likelab run`). Inactive campaigns \
         (BL-ALL, MS-ALL) have all-zero rows, as in the paper.\n"
    );

    // ---- §5 ---------------------------------------------------------------
    let _ = writeln!(w, "## §5 — termination follow-up (month later)\n");
    let _ = writeln!(w, "| Provider | Paper | Measured | Measured rate |");
    let _ = writeln!(w, "|---|---|---|---|");
    let t = &o.report.termination;
    for (p, paper_n) in [
        (Provider::Facebook, paper::TERMINATED_FACEBOOK),
        (Provider::BoostLikes, paper::TERMINATED_BOOSTLIKES),
        (Provider::SocialFormula, paper::TERMINATED_SOCIALFORMULA),
        (Provider::AuthenticLikes, paper::TERMINATED_AUTHENTICLIKES),
        (Provider::MammothSocials, paper::TERMINATED_MAMMOTHSOCIALS),
    ] {
        let likers = o
            .report
            .table3
            .iter()
            .find(|r| r.provider == p)
            .map(|r| r.likers)
            .unwrap_or(0);
        let _ = writeln!(
            w,
            "| {} | {} | {} | {:.1}% |",
            p,
            paper_n,
            t.provider(p),
            t.rate(p, likers.max(1)) * 100.0,
        );
    }
    let _ = writeln!(
        w,
        "\nOrdering reproduces: the bot farms bleed accounts, the stealth farm \
         barely loses any ('bot-like patterns are actually easy to detect').\n"
    );

    // ---- checklist ----------------------------------------------------------
    let _ = writeln!(w, "## Reproduction shape checklist\n");
    let checks = checklist(&o.report);
    let _ = writeln!(w, "| Artifact | Criterion | Paper | Measured | Holds |");
    let _ = writeln!(w, "|---|---|---|---|---|");
    for c in &checks {
        let _ = writeln!(
            w,
            "| {} | {} | {} | {} | {} |",
            c.artifact,
            c.criterion,
            c.paper,
            c.measured,
            if c.pass { "yes" } else { "**NO**" },
        );
    }
    let passed = checks.iter().filter(|c| c.pass).count();
    let _ = writeln!(w, "\n**{passed}/{} criteria hold.**\n", checks.len());
    ablations(w);

    let _ = writeln!(
        w,
        "## Reproducing these numbers\n\n\
         Every command below runs against the current CLI (`cargo install \
         --path .` installs `likelab`).\n\n\
         ```bash\n\
         # This exact document (writes to stdout):\n\
         cargo run --release --example experiments_md {scale} {seed} > EXPERIMENTS.md\n\n\
         # The same run, rendered as aligned tables instead of Markdown:\n\
         likelab run --seed {seed} --scale {scale}\n\n\
         # The 23-criterion shape checklist (exit code 1 if any fails):\n\
         likelab checklist --seed {seed} --scale {scale}\n\n\
         # Error bars: 8 independent seeds at 10% scale, with a JSON report:\n\
         likelab sweep --seeds 8 --scales 0.1 --out sweep.json\n\n\
         # JSON / DOT / SVG artifacts for every table and figure:\n\
         likelab export out/ --seed {seed} --scale {scale}\n\
         ```\n\n\
         Where the time goes (see OBSERVABILITY.md for the schemas):\n\n\
         ```bash\n\
         # Per-phase timing tables + span tree after the run:\n\
         likelab run --seed {seed} --scale {scale} --timing\n\n\
         # Machine-readable metrics and span records from a sweep:\n\
         likelab sweep --seeds 8 --scales 0.1 --timing \\\n\
         \x20    --metrics-out metrics.json --trace-out trace.json\n\n\
         # Instrumentation overhead: traced passes against plain ones,\n\
         # reported as trace.overhead_frac (benchmark/README.md):\n\
         cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \\\n\
         \x20    --workload scale_study --seed {seed} --seconds 15 --trace 1\n\
         ```\n\n\
         Event sourcing — capture a run, replay it, survive a crash (see\n\
         DESIGN.md §4c):\n\n\
         ```bash\n\
         # Stream every accepted mutation to a checksummed binary log:\n\
         likelab run --seed {seed} --scale {scale} --log-out study.log\n\n\
         # Rebuild the full report from the log alone - byte-identical to\n\
         # the original run at any LIKELAB_THREADS:\n\
         likelab replay study.log\n\n\
         # Same bytes + exit code as `likelab checklist`:\n\
         likelab replay study.log --checklist\n\n\
         # Periodic atomic checkpoints, then resume a killed run; the output\n\
         # is byte-identical to a run that never crashed:\n\
         likelab run --seed {seed} --scale {scale} \\\n\
         \x20    --checkpoint-dir ckpt/ --checkpoint-every 20000\n\
         likelab run --resume ckpt/\n\
         ```\n\n\
         Live scoring - tail the log and answer fraud queries while the\n\
         producer is still writing (protocol and semantics in SERVING.md):\n\n\
         ```bash\n\
         # Producer in one terminal:\n\
         likelab run --seed {seed} --scale {scale} --log-out live/world.log\n\n\
         # Consumer in another - line-delimited JSON over stdin/stdout:\n\
         printf '%s\\n' \\\n\
         \x20    '{{\"v\":1,\"id\":1,\"op\":\"status\"}}' \\\n\
         \x20    '{{\"v\":1,\"id\":2,\"op\":\"score\",\"user\":7}}' \\\n\
         \x20    '{{\"v\":1,\"id\":3,\"op\":\"shutdown\"}}' \\\n\
         \x20  | likelab serve live/world.log --follow\n\n\
         # Or over TCP, for many concurrent clients:\n\
         likelab serve study.log --tcp 127.0.0.1:7070\n\n\
         # Fold time and per-op query latency, with online-vs-batch burst\n\
         # parity checked on every run (benchmark/README.md):\n\
         cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \\\n\
         \x20    --workload serve_mixed --seed {seed} --seconds 15 --trace 1\n\
         ```\n"
    );

    println!("{md}");
}

// ---- Ablations ---------------------------------------------------------------

/// Orders per delivery style in A1 (roster seeds `0..A1_TRIALS`).
const A1_TRIALS: u64 = 8;

/// A3's row for the share of public friend lists among BoostLikes'
/// likers in the paper's Table 3.
const PAPER_PUBLIC_RATE: f64 = 0.26;

/// One 1,000-like USA order from `spec`, placed on day 100 for a fresh
/// honeypot page, through a roster at scale 0.3 whose camouflage draws on
/// 3,000 background pages. Returns the world with the order's likes
/// recorded, the honeypot, and the accounts that delivered.
fn one_order(spec: FarmSpec, seed: u64) -> (OsnWorld, PageId, Vec<UserId>) {
    let mut world = OsnWorld::new();
    let background: Vec<PageId> = (0..3_000)
        .map(|i| {
            world.create_page(
                format!("bg{i}"),
                "",
                None,
                PageCategory::Background,
                SimTime::EPOCH,
            )
        })
        .collect();
    let mut roster = FarmRoster::new(vec![spec], background, 0.3, Rng::seed_from_u64(seed));
    let page = world.create_page("h", "", None, PageCategory::Honeypot, SimTime::at_day(100));
    let delivery = roster.fulfill(
        &mut world,
        &FarmOrder {
            farm: 0,
            page,
            region: Region::Country(Country::Usa),
            likes: 1_000,
            placed_at: SimTime::at_day(100),
        },
    );
    for like in delivery.likes {
        world.record_like(like.user, like.page, like.at);
    }
    (world, page, delivery.accounts)
}

fn ablations(w: &mut String) {
    let _ = writeln!(
        w,
        "## Ablations\n\n\
         Each ablation varies one knob of a small fixed set-up, independent \
         of the study run above. A1–A3 each place one USA order for 1,000 \
         likes on a fresh honeypot page on day 100, through a farm roster at \
         scale 0.3 whose camouflage draws on 3,000 background pages; the \
         roster's scale shrinks the delivery, and the rows count what \
         arrived. The detection extension (D1: the scorer's AUC, lockstep \
         precision and SybilRank trust by class) prints from `cargo run \
         --release --example detection_eval`. See DESIGN.md §3 for the \
         index.\n"
    );
    ablation_burst_width(w);
    ablation_stealth_connectivity(w);
    ablation_privacy_rate(w);
    ablation_allocation_sharpness(w);
}

fn ablation_burst_width(w: &mut String) {
    let burst = |days, bursts, hours, delay| DeliveryStyle::Burst {
        days,
        bursts,
        window: SimDuration::hours(hours),
        start_delay: SimDuration::hours(delay),
    };
    let styles = [
        ("burst 1 h ×1", burst(1, 1, 1, 6)),
        ("burst 2 h ×3 over 3 d (SocialFormula)", burst(3, 3, 2, 10)),
        ("burst 12 h ×3 over 5 d", burst(5, 3, 12, 10)),
        ("burst 24 h ×5 over 10 d", burst(10, 5, 24, 10)),
        (
            "trickle over 15 d (BoostLikes)",
            DeliveryStyle::Trickle { days: 15 },
        ),
    ];
    let cfg = BurstConfig::default();
    let _ = writeln!(w, "### A1 — burst width vs. burst-detector recall\n");
    let _ = writeln!(
        w,
        "AuthenticLikes' spec with its delivery style replaced; {A1_TRIALS} \
         orders per style (roster seeds 0–{}). The burst detector, at its \
         defaults, judges the page's likes from day 99 on: it flags a \
         stream of at least {} likes when one {} h window holds ≥ {:.0}% \
         of them.\n",
        A1_TRIALS - 1,
        cfg.min_events,
        cfg.window.as_secs() / 3_600,
        cfg.share_threshold * 100.0,
    );
    let _ = writeln!(
        w,
        "| Delivery style | Likes per order | Peak-2h share | Orders flagged |"
    );
    let _ = writeln!(w, "|---|---|---|---|");
    let mut flagged_by_style = Vec::new();
    for (name, style) in styles {
        let (mut likes, mut share, mut flagged) = (0, 0.0, 0);
        for seed in 0..A1_TRIALS {
            let mut spec = FarmSpec::authenticlikes();
            spec.style = style;
            let (world, page, _) = one_order(spec, seed);
            let v = judge_page(&world, page, Some(SimTime::at_day(99)), &cfg);
            likes += v.events;
            share += v.peak_share;
            flagged += u64::from(v.flagged);
        }
        let _ = writeln!(
            w,
            "| {name} | {:.0} | {:.0}% | {flagged}/{A1_TRIALS} |",
            likes as f64 / A1_TRIALS as f64,
            share / A1_TRIALS as f64 * 100.0,
        );
        flagged_by_style.push((name, flagged));
    }
    let _ = write!(
        w,
        "\nTakeaway: the rows run from the narrowest delivery to the widest."
    );
    match flagged_by_style
        .iter()
        .rposition(|(_, f)| 2 * f > A1_TRIALS)
    {
        Some(i) if i + 1 < flagged_by_style.len() => {
            let _ = write!(
                w,
                " The widest flagged in most orders is \"{}\"; every wider \
                 one, down to BoostLikes' trickle, passes unflagged in most \
                 orders.",
                flagged_by_style[i].0
            );
        }
        Some(_) => w.push_str(" Even BoostLikes' trickle is flagged in most orders."),
        None => w.push_str(" No row is flagged in most orders."),
    }
    let _ = writeln!(w, "\n");
}

fn ablation_stealth_connectivity(w: &mut String) {
    let _ = writeln!(w, "### A2 — stealth connectivity vs. Figure 3 structure\n");
    let _ = writeln!(
        w,
        "BoostLikes' spec with the within-pool degree of its dense network \
         varied; roster seed 7. Components are over the friendships among \
         the order's likers.\n"
    );
    let _ = writeln!(
        w,
        "| Within-pool degree | Likers | Largest component | Liker–liker edges | Pairs |"
    );
    let _ = writeln!(w, "|---|---|---|---|---|");
    let mut giant_by_degree = Vec::new();
    for within in [0usize, 2, 6, 12, 30] {
        let mut spec = FarmSpec::boostlikes();
        spec.topology = PoolTopology::DenseNetwork {
            within_degree: within,
        };
        let (world, _, likers) = one_order(spec, 7);
        let census = ComponentCensus::compute(world.friends(), &likers);
        let giant = census.giant_fraction();
        let _ = writeln!(
            w,
            "| {within} | {} | {:.0}% | {} | {} |",
            likers.len(),
            giant * 100.0,
            direct_edges_within(world.friends(), &likers),
            census.pairs,
        );
        giant_by_degree.push((within, giant));
    }
    let _ = write!(
        w,
        "\nTakeaway: with no in-pool edges the largest component holds \
         {:.0}% of the likers.",
        giant_by_degree[0].1 * 100.0
    );
    if let Some((within, giant)) = giant_by_degree.iter().find(|(d, g)| *d > 0 && *g >= 0.5) {
        let _ = write!(
            w,
            " {within} in-pool edges per account already join {:.0}% of \
             them into one component: the connected blob of Figure 3(a).",
            giant * 100.0
        );
    }
    let _ = writeln!(w, "\n");
}

fn ablation_privacy_rate(w: &mut String) {
    let _ = writeln!(w, "### A3 — friend-list privacy vs. observed structure\n");
    let _ = writeln!(
        w,
        "BoostLikes' spec with the share of its accounts whose friend list \
         is public varied; roster seed 9. The crawler observes a liker–liker \
         edge when it reads it from a public list.\n"
    );
    let _ = writeln!(
        w,
        "| Public friend lists | True edges | Observed edges | Seen |"
    );
    let _ = writeln!(w, "|---|---|---|---|");
    let mut at_paper_rate = (0, 0);
    for public in [0.1, PAPER_PUBLIC_RATE, 0.5, 0.8, 1.0] {
        let mut spec = FarmSpec::boostlikes();
        spec.friend_list_public = public;
        let (world, _, likers) = one_order(spec, 9);
        let truth = direct_edges_within(world.friends(), &likers);
        let members: BTreeSet<UserId> = likers.iter().copied().collect();
        let mut observed = BTreeSet::new();
        let mut buf = Vec::new();
        for &u in &likers {
            if !world.account(u).privacy.friend_list_public {
                continue;
            }
            for &v in world.friends().neighbors(u, &mut buf) {
                if members.contains(&v) {
                    observed.insert((u.min(v), u.max(v)));
                }
            }
        }
        let _ = writeln!(
            w,
            "| {:.0}% | {truth} | {} | {:.0}% |",
            public * 100.0,
            observed.len(),
            observed.len() as f64 / truth.max(1) as f64 * 100.0,
        );
        if public == PAPER_PUBLIC_RATE {
            at_paper_rate = (observed.len(), truth);
        }
    }
    let (seen, truth) = at_paper_rate;
    let _ = writeln!(
        w,
        "\nTakeaway: at the {:.0}% public rate of BoostLikes' likers in \
         the paper's Table 3, the crawler sees {seen} of {truth} liker–liker \
         edges ({:.0}%), so Table 3's edge counts are lower bounds.\n",
        PAPER_PUBLIC_RATE * 100.0,
        seen as f64 / truth.max(1) as f64 * 100.0,
    );
}

fn ablation_allocation_sharpness(w: &mut String) {
    // Reach-estimate pools shaped like the study world's click-prone
    // audiences at scale 1.
    let markets = [
        (Country::India, 1_536),
        (Country::Egypt, 720),
        (Country::Usa, 78),
        (Country::France, 60),
        (Country::Turkey, 147),
        (Country::Brazil, 144),
        (Country::Indonesia, 198),
        (Country::Philippines, 144),
        (Country::Uk, 29),
        (Country::Mexico, 126),
    ];
    let _ = writeln!(w, "### A4 — allocation sharpness vs. FB-ALL India share\n");
    let _ = writeln!(
        w,
        "A worldwide daily budget of 600 ¢ (the paper's $6 a day) split \
         by the ad auction over ten markets whose reachable audiences are \
         shaped like the study world's click-prone accounts at scale 1 \
         (India {}, Egypt {}, …); a market's likes are its budget over its \
         base price.\n",
        markets[0].1, markets[1].1,
    );
    let _ = writeln!(w, "| Sharpness | India share of likes |");
    let _ = writeln!(w, "|---|---|");
    let mut india_by_sharpness = Vec::new();
    for sharpness in [1.0, 2.0, 4.0, 8.0, 16.0] {
        let market = AdMarket {
            allocation_sharpness: sharpness,
            ..AdMarket::default()
        };
        let likes: Vec<(Country, f64)> = market
            .allocate(600.0, &markets)
            .into_iter()
            .map(|(c, budget)| (c, budget / market.base_cost(c)))
            .collect();
        let all: f64 = likes.iter().map(|(_, l)| l).sum();
        let india: f64 = likes
            .iter()
            .filter(|(c, _)| *c == Country::India)
            .map(|(_, l)| l)
            .sum();
        let share = india / all.max(1e-9);
        let _ = writeln!(w, "| {sharpness} | {:.0}% |", share * 100.0);
        india_by_sharpness.push((sharpness, share));
    }
    let (plain, plain_share) = india_by_sharpness[0];
    let (closest, closest_share) = india_by_sharpness
        .iter()
        .copied()
        .min_by(|a, b| {
            let off = |share: f64| (share - paper::FB_ALL_INDIA_SHARE).abs();
            off(a.1).total_cmp(&off(b.1))
        })
        .unwrap_or((plain, plain_share));
    let _ = writeln!(
        w,
        "\nTakeaway: sharpness {plain} already puts {:.0}% of the worldwide \
         likes in India. The row closest to FB-ALL's {:.0}% in the paper is \
         sharpness {closest} ({:.0}%); the study's auction uses {}.\n",
        plain_share * 100.0,
        paper::FB_ALL_INDIA_SHARE * 100.0,
        closest_share * 100.0,
        AdMarket::default().allocation_sharpness,
    );
}
