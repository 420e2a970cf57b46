//! The three workloads, one per part of the paper's method: build the
//! honeypot world and run the promotions (`scale_study`), capture and
//! re-analyse the study from its log (`paper_log`), and score accounts
//! live (`serve_mixed`).

pub mod paper_log;
pub mod scale_study;
pub mod serve_mixed;

/// The world scale a workload runs at unless `--scale` overrides it;
/// `None` for an unknown workload name.
pub fn default_scale(name: &str) -> Option<f64> {
    match name {
        "scale_study" => Some(scale_study::DEFAULT_SCALE),
        "paper_log" => Some(paper_log::DEFAULT_SCALE),
        "serve_mixed" => Some(serve_mixed::DEFAULT_SCALE),
        _ => None,
    }
}
