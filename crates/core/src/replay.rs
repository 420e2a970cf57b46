//! Replay: rebuild a study's world, dataset, and report from a captured
//! log — no model code, no randomness, byte-identical output.
//!
//! A replay applies every `World` record to a fresh
//! [`OsnWorld`] and reassembles the
//! [`Dataset`] from the measurement records
//! (observations, collected profiles, termination probes, the baseline
//! sample). Only the derived layers — per-page audience reports, the
//! global report, the study report — are recomputed, and those are pure
//! functions of the replayed world and dataset, so the rendered report and
//! checklist match the original run byte for byte at any worker count.

use crate::record::{config_from_header, launched_page, read_study_log, StudyError, StudyRecord};
use crate::study::StudyConfig;
use likelab_analysis::StudyReport;
use likelab_graph::PageId;
use likelab_honeypot::{
    BaselineRecord, CampaignData, CrawlCoverage, Dataset, LikerRecord, Observation,
};
use likelab_osn::{AudienceReport, OsnWorld};
use likelab_sim::event::LogHeader;
use likelab_sim::{Exec, SimTime};
use std::path::Path;

/// Knobs for [`replay_study`].
#[derive(Clone, Debug)]
pub struct ReplayOptions {
    /// Execution policy for the recomputed report stages.
    pub exec: Exec,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions { exec: Exec::auto() }
    }
}

/// What a replay produced.
pub struct ReplayOutcome {
    /// The configuration embedded in the log header.
    pub config: StudyConfig,
    /// The reassembled dataset — identical to the original run's.
    pub dataset: Dataset,
    /// The recomputed report — identical to the original run's.
    pub report: StudyReport,
    /// The replayed final world state.
    pub world: OsnWorld,
}

/// Per-campaign accumulators scraped from the record stream.
#[derive(Clone, Default)]
struct CampaignSlot {
    page: Option<PageId>,
    inactive: bool,
    observations: Vec<Observation>,
    likers: Vec<LikerRecord>,
    monitoring_days: Option<u64>,
    coverage: CrawlCoverage,
    terminated: usize,
    unknown: usize,
}

/// Replay a study log from disk. See the module docs.
pub fn replay_study(path: &Path, opts: &ReplayOptions) -> Result<ReplayOutcome, StudyError> {
    let (header, records) = read_study_log(path)?;
    replay_records(&header, records, opts)
}

/// Replay an already-decoded record stream.
pub fn replay_records(
    header: &LogHeader,
    records: Vec<(u64, StudyRecord)>,
    opts: &ReplayOptions,
) -> Result<ReplayOutcome, StudyError> {
    let config = config_from_header(header)?;
    let mut world = OsnWorld::new();
    let mut slots: Vec<CampaignSlot> = vec![CampaignSlot::default(); config.campaigns.len()];
    let mut baseline: Vec<BaselineRecord> = Vec::new();
    let mut launch: Option<SimTime> = None;

    let record_count = records.len() as u64;
    let result: Result<(), StudyError> = likelab_obs::metrics::timed("log.replay.ns", || {
        for (seq, record) in records {
            match record {
                StudyRecord::World(ev) => world
                    .apply_event(ev)
                    .map_err(|e| StudyError::bad_event(seq, e))?,
                StudyRecord::RngFork { .. } => {}
                StudyRecord::CampaignLaunched { campaign, page, at } => {
                    let page = launched_page(&world, seq, page)?;
                    slot(&mut slots, campaign, seq)?.page = Some(page);
                    launch.get_or_insert(at);
                }
                StudyRecord::CampaignInactive { campaign } => {
                    slot(&mut slots, campaign, seq)?.inactive = true;
                }
                StudyRecord::CrawlObserved {
                    campaign,
                    observation,
                } => {
                    slot(&mut slots, campaign, seq)?
                        .observations
                        .push(observation);
                }
                StudyRecord::MonitoringEnded {
                    campaign,
                    monitoring_days,
                    coverage,
                } => {
                    let s = slot(&mut slots, campaign, seq)?;
                    s.monitoring_days = monitoring_days;
                    s.coverage = coverage;
                }
                StudyRecord::ProfileCollected { campaign, record } => {
                    slot(&mut slots, campaign, seq)?.likers.push(record);
                }
                StudyRecord::TerminationsProbed {
                    campaign,
                    terminated,
                    unknown,
                } => {
                    let s = slot(&mut slots, campaign, seq)?;
                    s.terminated = terminated;
                    s.unknown = unknown;
                }
                StudyRecord::BaselineSampled { records } => {
                    baseline = records;
                }
            }
        }
        Ok(())
    });
    result?;
    likelab_obs::metrics::counter("log.replay", record_count);

    let campaigns = slots
        .into_iter()
        .zip(&config.campaigns)
        .enumerate()
        .map(|(i, (slot, spec))| {
            let page = slot.page.ok_or_else(|| {
                StudyError::Mismatch(format!("campaign #{i} never launched in this log"))
            })?;
            Ok(CampaignData {
                spec: spec.clone(),
                page,
                observations: slot.observations,
                likers: slot.likers,
                report: AudienceReport::for_page(&world, page),
                monitoring_days: slot.monitoring_days,
                terminated_after_month: slot.terminated,
                termination_unknown: slot.unknown,
                inactive: slot.inactive,
                coverage: slot.coverage,
            })
        })
        .collect::<Result<Vec<_>, StudyError>>()?;

    let dataset = Dataset {
        campaigns,
        baseline,
        launch: launch.unwrap_or(SimTime::EPOCH),
        global_report: AudienceReport::global_with(&world, opts.exec),
    };
    let report = StudyReport::compute_with(&dataset, opts.exec);
    Ok(ReplayOutcome {
        config,
        dataset,
        report,
        world,
    })
}

/// Bounds-checked slot access: a campaign index past the config's campaign
/// list means the log and its header disagree.
fn slot(
    slots: &mut [CampaignSlot],
    campaign: usize,
    seq: u64,
) -> Result<&mut CampaignSlot, StudyError> {
    let n = slots.len();
    slots
        .get_mut(campaign)
        .ok_or_else(|| StudyError::BadRecord {
            seq,
            reason: format!("campaign index {campaign} out of range (config has {n})"),
        })
}
