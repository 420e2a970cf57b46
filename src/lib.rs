//! # likelab — a like-fraud measurement laboratory
//!
//! A full reproduction of **"Paying for Likes? Understanding Facebook Like
//! Fraud Using Honeypots"** (De Cristofaro, Friedman, Jourjon, Kaafar,
//! Shafiq — IMC 2014) as a deterministic simulation: a synthetic social
//! platform, generative models of the four like farms the paper bought
//! from, the honeypot/crawler methodology, the complete analysis pipeline
//! (Tables 1–3, Figures 1–5), and the fraud detectors the paper motivates.
//!
//! ## Quick start
//!
//! ```no_run
//! use likelab::{run_study, StudyConfig};
//!
//! // The paper's 13 campaigns at 25% world scale (seed 42).
//! let outcome = run_study(&StudyConfig::paper(42, 0.25));
//! println!("{}", outcome.report.render());
//! println!("{}", likelab::render_checklist(&likelab::checklist(&outcome.report)));
//! ```
//!
//! ## Crate map
//!
//! - [`sim`] — deterministic discrete-event kernel (clock, queue, RNG);
//! - [`graph`] — friendship/like graph substrate and generators;
//! - [`osn`] — the simulated platform (accounts, ads, reports, privacy,
//!   crawl API, anti-fraud);
//! - [`farms`] — the four like-farm behaviour models;
//! - [`honeypot`] — honeypot pages, the monitoring crawler, the dataset;
//! - [`analysis`] — every table and figure, computed from the dataset;
//! - [`detect`] — burst/lockstep/feature detectors with ROC evaluation;
//! - [`core`] — paper constants, campaign presets, the study runner, and
//!   the reproduction shape checklist.

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::dbg_macro
)]

pub use likelab_analysis as analysis;
pub use likelab_core as core;
pub use likelab_detect as detect;
pub use likelab_farms as farms;
pub use likelab_graph as graph;
pub use likelab_honeypot as honeypot;
pub use likelab_osn as osn;
pub use likelab_sim as sim;

pub use likelab_core::{
    checklist, read_study_log, render_checklist, replay_study, run_study, run_study_opts,
    run_study_with, run_sweep, serve, MetricAggregate, ReplayOptions, ReplayOutcome, RunOptions,
    ServeConfig, ServeOptions, ServeSummary, ServeTransport, ShapeCheck, StudyConfig, StudyError,
    StudyLog, StudyOutcome, StudyRecord, SweepConfig, SweepReport,
};
