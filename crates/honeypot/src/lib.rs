//! # likelab-honeypot — the paper's measurement methodology
//!
//! The instrumented side of the study: honeypot pages with deflection
//! disclaimers and per-page admin accounts ([`page`]), the campaign roster
//! ([`campaign`]), the Selenium-equivalent monitoring crawler with the
//! paper's exact cadence — every 2 hours during campaigns, daily after,
//! stop after a quiet week ([`crawler`]) — the liker-profile collector and
//! the month-later termination recheck ([`collector`]), and the resulting
//! dataset the analysis pipeline consumes ([`dataset`]).

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::dbg_macro
)]

pub mod campaign;
pub mod collector;
pub mod crawler;
pub mod dataset;
pub mod page;

pub use campaign::{CampaignSpec, Promotion};
pub use collector::{
    check_terminations, collect_profiles, CollectionConfig, CrawlOutcome, LikerRecord,
    TerminationProbe,
};
pub use crawler::{CircuitBreakerConfig, CrawlCoverage, CrawlerConfig, Observation, PageMonitor};
pub use dataset::{BaselineRecord, CampaignData, Dataset};
pub use page::{deploy_honeypot, HONEYPOT_DISCLAIMER, HONEYPOT_NAME};
