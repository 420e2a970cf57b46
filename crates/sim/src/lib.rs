//! # likelab-sim — deterministic discrete-event simulation kernel
//!
//! The foundation of the like-fraud laboratory: a virtual clock
//! ([`SimTime`]/[`SimDuration`]), a stable-ordered event queue wrapped in a
//! driver ([`Engine`]), a reproducible random source ([`Rng`], xoshiro256**
//! pinned by golden tests), the distribution samplers the generative models
//! need ([`dist`]), a run journal ([`Trace`]), and [`ListArena`], many
//! growable lists in one buffer for stores that would otherwise allocate
//! per entity.
//!
//! ## Why synchronous and single-threaded?
//!
//! The workload is pure CPU-bound simulation. Following the networking
//! guides' own advice (async runtimes buy nothing for CPU-bound work) the
//! kernel is synchronous; determinism is the feature that matters here,
//! because a `(seed, config)` pair must regenerate an identical study —
//! that's what makes the reproduction auditable.
//!
//! The *event loop* stays single-threaded, but the stages around it —
//! population synthesis before a run, campaign analysis after one, and
//! multi-seed sweeps above it — are embarrassingly parallel. The
//! [`parallel`] module fans those out without giving up determinism: work
//! is identified by index, per-index RNG streams come from
//! [`Rng::split`](rng::Rng::split), and results come back in index order,
//! so parallel output is bit-identical to sequential.
//!
//! ```
//! use likelab_sim::{Engine, SimDuration, SimTime};
//!
//! // A crawler that polls every 2 hours for a day.
//! let mut engine: Engine<&str> = Engine::new();
//! engine.schedule(SimTime::EPOCH, "poll");
//! let mut polls = 0;
//! while let Some((now, _)) = engine.step() {
//!     polls += 1;
//!     if now < SimTime::at_day(1) {
//!         engine.schedule(now + SimDuration::hours(2), "poll");
//!     }
//! }
//! assert_eq!(polls, 13); // 0h, 2h, ..., 24h
//! assert_eq!(engine.now(), SimTime::at_day(1));
//! ```

#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::dbg_macro
)]

pub mod arena;
pub mod dist;
pub mod engine;
pub mod event;
pub mod parallel;
pub mod queue;
pub mod rng;
pub mod tail;
pub mod time;
pub mod trace;

pub use arena::{reserve_eighth, ArenaStats, ListArena};
pub use engine::Engine;
pub use event::{Frame, LogError, LogHeader, LogRecord};
pub use parallel::{parallel_jobs, parallel_map, parallel_owned, split_spans, Exec};
pub use queue::{EventQueue, SeqCollision};
pub use rng::{derive_stream_seed, Rng};
pub use tail::{FollowReader, TailReader};
pub use time::{SimDuration, SimTime};
pub use trace::{Note, Trace};
