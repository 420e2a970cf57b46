//! # likelab-osn — the simulated social platform
//!
//! Everything the honeypot study needs a platform *for*, rebuilt as a
//! deterministic substrate:
//!
//! - accounts with demographics, privacy settings, and ground-truth actor
//!   class ([`account`], [`demographics`]);
//! - pages and the timestamped like ledger ([`page`], [`likes`]);
//! - the organic population synthesizer — community-structured friendships,
//!   Zipf background pages, baseline like histories, and the click-prone
//!   segment legitimate ads actually reach ([`population`]);
//! - the page-like ad platform with per-country pricing and winner-take-most
//!   worldwide allocation ([`ads`], [`auction`]);
//! - the page-admin reports tool that aggregates liker demographics from
//!   public *and* private attributes ([`reports`]);
//! - the privacy-enforcing public crawl surface with fault injection
//!   ([`crawl_api`]) and the public directory ([`directory`]);
//! - the anti-fraud termination sweep that catches bursty, friend-poor
//!   accounts far more often than embedded ones ([`fraudops`]), scoring
//!   burstiness through the ledger's densest-window memo ([`densest`]);
//! - ongoing organic background activity ([`organic`]);
//! - page posts and fan engagement — the economics that make bought likes
//!   worthless ([`posts`]).
//!
//! All of it hangs off one mutable [`OsnWorld`].

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::dbg_macro
)]

pub mod account;
pub mod ads;
pub mod auction;
pub mod crawl_api;
pub mod demographics;
pub mod densest;
pub mod directory;
pub mod fanout;
pub mod fraudops;
pub mod likes;
pub mod log;
pub mod organic;
pub mod page;
pub mod population;
pub mod posting;
pub mod posts;
pub mod reports;
pub mod store;
pub mod world;

pub use account::{Account, AccountStatus, ActorClass, PrivacySettings};
pub use ads::{AdCampaignSpec, PlannedLike, Targeting};
pub use auction::AdMarket;
pub use crawl_api::{
    CrawlApi, CrawlConfig, CrawlError, CrawlStats, FaultProfile, OutageRegime, PublicProfile,
    RateLimitRegime, RetryPolicy,
};
pub use demographics::{AgeBracket, Country, Gender, GeoBucket, Profile};
pub use fanout::DetectorUpdate;
pub use fraudops::{FraudOps, FraudOpsConfig};
pub use likes::{LikeColumns, LikeLedger, LikeRecord};
pub use log::{EventError, WorldEvent};
pub use page::{Page, PageCategory};
pub use population::{Population, PopulationConfig};
pub use posts::{simulate_engagement, EngagementModel, EngagementReport};
pub use reports::AudienceReport;
pub use store::AccountStore;
pub use world::OsnWorld;
