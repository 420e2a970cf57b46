//! # likelab-graph — social-graph substrate
//!
//! Storage and algorithms for the undirected **friendship graph**
//! ([`FriendGraph`]) the study lives on — Facebook friendships are
//! bidirectional, unlike Twitter's follower edges. Like edges live in the
//! platform's ledger (`likelab_osn::LikeLedger`), not here.
//!
//! On top of the store: the random-graph generators that wire the organic
//! population and the bot-burst farms ([`generate`]), connected components
//! and the pair/triplet census of Figure 3 ([`mod@components`]), direct and
//! 2-hop relation counting for Table 3 ([`twohop`]), summary statistics and
//! local clustering ([`metrics`]), degree-ordered renumbering ([`renumber`]),
//! and DOT export ([`dot`]).

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::dbg_macro
)]

pub mod adjacency;
pub mod components;
pub mod dot;
pub mod generate;
pub mod ids;
pub mod metrics;
pub mod renumber;
pub mod twohop;

pub use adjacency::FriendGraph;
pub use components::{components, ComponentCensus, UnionFind};
pub use ids::{PageId, UserId};
pub use metrics::SummaryStats;
pub use renumber::{RenumberedCsr, Renumbering};
