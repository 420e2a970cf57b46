//! # likelab-farms — like-farm behaviour models
//!
//! Generative models of the underground services the paper bought from,
//! parameterized to reproduce their measured signatures:
//!
//! - **Delivery pacing** ([`schedule`]): bot-burst windows (SocialFormula /
//!   AuthenticLikes / MammothSocials) vs. the human-looking trickle
//!   (BoostLikes) — Figure 2(b).
//! - **Account pools** ([`pool`]): capped round-robin segments whose
//!   wraparound produces the paper's cross-campaign liker overlaps,
//!   including the AuthenticLikes ↔ MammothSocials shared-operator group.
//! - **Social structure** ([`spec::PoolTopology`]): BoostLikes' dense,
//!   well-connected sybil network vs. the compartmentalized pairs and
//!   triplets of the bot farms — Figure 3.
//! - **Camouflage** ([`camouflage`]): the thousands of other pages farm
//!   accounts like (Figure 4(b)), sessionized for bots, smooth for stealth
//!   accounts.
//! - **Dishonesty**: scam orders (BL-ALL, MS-ALL took payment and delivered
//!   nothing) and under-delivery (MS-USA delivered 317 of 1000).
//!
//! [`FarmRoster::fulfill`] executes an order against the platform and
//! returns the timed like plan for the study runner.

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::dbg_macro
)]

pub mod camouflage;
pub mod pool;
pub mod region;
pub mod roster;
pub mod schedule;
pub mod spec;

pub use pool::Segment;
pub use region::Region;
pub use roster::{Delivery, FarmOrder, FarmRoster, TimedLike};
pub use schedule::{delivery_times, peak_window_share, DeliveryStyle};
pub use spec::{FarmSpec, GeoSourcing, PoolTopology};
