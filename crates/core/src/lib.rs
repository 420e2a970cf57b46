//! # likelab-core — the like-fraud laboratory, assembled
//!
//! Reproduction of **"Paying for Likes? Understanding Facebook Like Fraud
//! Using Honeypots"** (De Cristofaro et al., IMC 2014) as a deterministic
//! simulation study:
//!
//! - [`paper`] — the published tables, figures, and headline numbers as
//!   typed constants (calibration anchors + comparison column);
//! - [`presets`] — the 13 campaigns of Table 1 and the four-farm roster;
//! - [`study`] — [`run_study`]: the full protocol from population synthesis
//!   through crawling, collection, and the month-later termination check,
//!   producing a [`StudyReport`](likelab_analysis::StudyReport) with every
//!   table and figure;
//! - [`shape`] — the reproduction checklist (orderings and factors that
//!   must hold, since absolute numbers can't match a live 2014 platform);
//! - [`sweep`] — [`run_sweep`]: N-seed × M-scale study fan-out with
//!   per-metric mean/std/CI aggregation and deterministic per-run seeds.
//!
//! ```no_run
//! use likelab_core::{run_study, StudyConfig};
//!
//! let outcome = run_study(&StudyConfig::paper(42, 1.0));
//! println!("{}", outcome.report.render());
//! ```

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::dbg_macro
)]

pub mod checkpoint;
pub mod paper;
pub mod presets;
pub mod record;
pub mod replay;
pub mod serve;
pub mod shape;
pub mod study;
pub mod sweep;

pub use record::{read_study_log, StudyError, StudyLog, StudyRecord};
pub use replay::{replay_study, ReplayOptions, ReplayOutcome};
pub use serve::{
    serve, ServeConfig, ServeEngine, ServeOptions, ServeSession, ServeSummary, ServeTransport,
};
pub use shape::{checklist, render_checklist, ShapeCheck};
pub use study::{run_study, run_study_opts, run_study_with, RunOptions, StudyConfig, StudyOutcome};
pub use sweep::{run_sweep, MetricAggregate, SweepConfig, SweepReport};
