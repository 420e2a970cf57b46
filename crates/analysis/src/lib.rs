//! # likelab-analysis — the paper's analysis pipeline
//!
//! Pure functions from the crawled [`Dataset`](likelab_honeypot::Dataset) to
//! every table and figure in the paper's evaluation:
//!
//! | Artifact | Module |
//! |---|---|
//! | Table 1 (campaign roster/outcomes) | [`report`] |
//! | Table 2 (demographics + KL) | [`demographics`] |
//! | Table 3 (likers & friendships) | [`social`] |
//! | Figure 1 (geolocation) | [`geo`] |
//! | Figure 2 (cumulative likes) | [`temporal`] |
//! | Figure 3 (friendship graphs) | [`social`] (census + DOT) |
//! | Figure 4 (page-like CDFs) | [`pagelikes`] |
//! | Figure 5 (Jaccard matrices) | [`similarity`] |
//! | §5 termination follow-up | [`termination`] |
//! | Crawl coverage & robustness | [`crawl`] |
//!
//! Figures can also be rendered as standalone SVG files ([`svg`]).
//!
//! Everything is computed from what the crawler could see — admin reports
//! for demographics, public profiles for friend/like lists — never from the
//! simulator's ground truth, so the pipeline is exactly as blind as the
//! paper's was.

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::dbg_macro
)]

pub mod crawl;
pub mod demographics;
pub mod geo;
pub mod pagelikes;
pub mod provider;
pub mod render;
pub mod report;
pub mod similarity;
pub mod social;
pub mod stats;
pub mod svg;
pub mod temporal;
pub mod termination;

pub use crawl::{compare_reports, CrawlSection, RobustnessComparison};
pub use provider::Provider;
pub use report::{StudyReport, Table1Row, Totals};
pub use social::ObservedSocial;
pub use stats::{jaccard, kl_divergence, Cdf};
