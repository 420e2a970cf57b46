//! `likelab-benchmark`: one benchmark for likelab, with end-to-end and
//! per-layer metrics. See `README.md` in this directory for the workloads,
//! the metrics and how to compare two commits.

pub mod alloc;
pub mod harness;
pub mod layers;
pub mod stats;
pub mod workloads;
