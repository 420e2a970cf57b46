//! # likelab-detect — like-fraud detection against ground truth
//!
//! The paper closes by arguing that fake likes "exhibit some peculiar
//! characteristics — including demographics, likes, temporal and social
//! graph patterns — that can and should be exploited by like fraud
//! detection algorithms". This crate builds those detectors and scores them
//! against the simulator's labels:
//!
//! - [`burst`] — densest-window share of page and account like streams;
//! - [`lockstep`] — CopyCatch-style co-liking clusters;
//! - [`features`] / [`scorer`] — a combined per-account model with
//!   hand-set weights, the one `likelab serve` scores with;
//! - [`sybilrank`] — SybilRank-style trust propagation, the graph-defense
//!   baseline family the paper's related work discusses;
//! - [`eval`] — precision/recall/F1 and ROC/AUC against [`ActorClass`]
//!   ground truth (the one module allowed to peek at labels);
//! - [`online`] — streaming variants of burst/lockstep/SybilRank/features
//!   for the `likelab serve` engine, each carrying a bitwise
//!   online-vs-batch equivalence contract (see `SERVING.md`).
//!
//! The expected (and reproduced) punchline: bot-burst farm accounts are
//! easy; BoostLikes-style stealth accounts score near-organic.
//!
//! [`ActorClass`]: likelab_osn::ActorClass

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::dbg_macro
)]

pub mod burst;
pub mod eval;
pub mod features;
pub mod lockstep;
pub mod online;
pub mod scorer;
pub mod sybilrank;

pub use burst::{judge_account, judge_page, BurstConfig, BurstVerdict};
pub use eval::{confusion_at, roc, Confusion, PositiveClass, Roc};
pub use features::{extract, AccountFeatures};
pub use lockstep::{detect, LockstepConfig, LockstepReport};
pub use online::{
    LiveBurst, LiveDetectors, OnlineBurst, OnlineDetectors, OnlineLockstep, OnlineSybilRank,
};
pub use scorer::{score, ScorerWeights};
pub use sybilrank::{sybil_rank, SybilRankConfig, TrustScores};
