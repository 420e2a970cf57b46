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
use likelab::osn::GeoBucket;
use likelab::{checklist, run_study, StudyConfig};
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
    let _ = writeln!(
        w,
        "## Ablations\n\nA1 (burst width vs. detectability), A2 (stealth \
         connectivity vs. Figure 3 structure), A3 (privacy rate vs. \
         observed edges), and A4 (auction sharpness vs. the FB-ALL India \
         collapse) print from `cargo bench -p likelab-bench --bench \
         ablation`; the detection extension prints from `--bench detect`. \
         See DESIGN.md §3 for the index.\n"
    );

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
         # Instrumentation overhead budget (<5% enabled, ~0 disabled):\n\
         cargo bench -p likelab-bench --bench obs\n\
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
