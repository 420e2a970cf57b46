//! Replay: rebuild a study's world, dataset, and report from a captured
//! log — no model code, no randomness, byte-identical output.
//!
//! `LogFold` is the one fold of a study log, shared by replay,
//! checkpoint resume and `likelab serve`: it applies every `World` record
//! to a fresh [`OsnWorld`] through [`OsnWorld::apply_event`] and gathers
//! the measurement records (launches, observations, collected profiles,
//! termination probes, the baseline sample) into per-campaign slots. A
//! replay reassembles the [`Dataset`] from those slots; only the derived
//! layers — per-page audience reports, the global report, the study
//! report — are recomputed, and those are pure functions of the replayed
//! world and dataset, so the rendered report and checklist match the
//! original run byte for byte at any worker count.

use crate::record::{config_from_header, fold_log, io_err, StudyError, StudyRecord};
use crate::study::StudyConfig;
use likelab_analysis::StudyReport;
use likelab_graph::PageId;
use likelab_honeypot::{
    BaselineRecord, CampaignData, CrawlCoverage, Dataset, LikerRecord, Observation,
};
use likelab_osn::{AudienceReport, DetectorUpdate, EventError, OsnWorld};
use likelab_sim::event::LogHeader;
use likelab_sim::{Exec, SimTime};
use std::io::Read;
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

/// One campaign's measurement records, gathered from the log.
#[derive(Clone, Default)]
pub(crate) struct CampaignSlot {
    pub(crate) page: Option<PageId>,
    pub(crate) inactive: bool,
    pub(crate) observations: Vec<Observation>,
    pub(crate) likers: Vec<LikerRecord>,
    pub(crate) monitoring_ended: bool,
    pub(crate) monitoring_days: Option<u64>,
    pub(crate) coverage: CrawlCoverage,
    pub(crate) terminated: usize,
    pub(crate) unknown: usize,
}

/// The fold of a study log, one record at a time: the rebuilt world, the
/// campaign slots, the baseline sample, and the stream's position. Replay
/// and checkpoint resume fold a whole log as they decode it; serve folds it
/// as it arrives.
pub(crate) struct LogFold {
    /// The configuration embedded in the log header.
    pub(crate) config: StudyConfig,
    pub(crate) world: OsnWorld,
    /// One slot per configured campaign.
    pub(crate) slots: Vec<CampaignSlot>,
    pub(crate) baseline: Vec<BaselineRecord>,
    /// The first campaign launch time.
    pub(crate) launch: Option<SimTime>,
    /// Records folded so far.
    pub(crate) records: u64,
    /// The sequence number of the last record folded.
    pub(crate) last_seq: Option<u64>,
    /// The maximum event time folded, a like batch's rejected likes
    /// included — online "now".
    pub(crate) watermark: SimTime,
}

impl LogFold {
    /// An empty fold for the study `header` describes.
    pub(crate) fn new(header: &LogHeader) -> Result<Self, StudyError> {
        let config = config_from_header(header)?;
        Ok(LogFold {
            slots: vec![CampaignSlot::default(); config.campaigns.len()],
            config,
            world: OsnWorld::new(),
            baseline: Vec::new(),
            launch: None,
            records: 0,
            last_seq: None,
            watermark: SimTime::EPOCH,
        })
    }

    /// Decode and fold a whole study log from `source`, each record as its
    /// frame decodes, timed as one replay. Returns the log's header too.
    pub(crate) fn replay(source: impl Read) -> Result<(LogHeader, Self), StudyError> {
        let (header, fold) = likelab_obs::metrics::timed("log.replay.ns", || {
            fold_log(source, LogFold::new, |fold, seq, record| {
                fold.apply(seq, record, |_| {})
            })
        })?;
        likelab_obs::metrics::counter("log.replay", fold.records);
        Ok((header, fold))
    }

    /// Fold the record at `seq`, handing `sink` every accepted world
    /// mutation. A record that names an unknown account, page or campaign
    /// is a [`StudyError::BadRecord`], and the fold is left as it was.
    pub(crate) fn apply(
        &mut self,
        seq: u64,
        record: StudyRecord,
        sink: impl FnMut(DetectorUpdate),
    ) -> Result<(), StudyError> {
        match record {
            StudyRecord::World(ev) => {
                let latest = ev.latest_time();
                self.world
                    .apply_event(ev, sink)
                    .map_err(|e| StudyError::bad_event(seq, e))?;
                self.watermark = self.watermark.max(latest.unwrap_or(SimTime::EPOCH));
            }
            // Provenance only: a resume re-derives the master RNG by
            // running set-up.
            StudyRecord::RngFork { .. } => {}
            StudyRecord::CampaignLaunched { campaign, page, at } => {
                // The page's audience is read from the world later, and a
                // study journals a honeypot page before launching it.
                if page.idx() >= self.world.page_count() {
                    return Err(StudyError::bad_event(seq, EventError::UnknownPage(page)));
                }
                self.slot(campaign, seq)?.page = Some(page);
                self.launch.get_or_insert(at);
            }
            StudyRecord::CampaignInactive { campaign } => {
                self.slot(campaign, seq)?.inactive = true;
            }
            StudyRecord::CrawlObserved {
                campaign,
                observation,
            } => {
                self.slot(campaign, seq)?.observations.push(observation);
            }
            StudyRecord::MonitoringEnded {
                campaign,
                monitoring_days,
                coverage,
            } => {
                let s = self.slot(campaign, seq)?;
                s.monitoring_ended = true;
                s.monitoring_days = monitoring_days;
                s.coverage = coverage;
            }
            StudyRecord::ProfileCollected { campaign, record } => {
                self.slot(campaign, seq)?.likers.push(record);
            }
            StudyRecord::TerminationsProbed {
                campaign,
                terminated,
                unknown,
            } => {
                let s = self.slot(campaign, seq)?;
                s.terminated = terminated;
                s.unknown = unknown;
            }
            StudyRecord::BaselineSampled { records } => {
                self.baseline = records;
            }
        }
        self.records += 1;
        self.last_seq = Some(seq);
        Ok(())
    }

    /// Bounds-checked slot access: a campaign index past the config's
    /// campaign list means the log and its header disagree.
    fn slot(&mut self, campaign: usize, seq: u64) -> Result<&mut CampaignSlot, StudyError> {
        let n = self.slots.len();
        self.slots
            .get_mut(campaign)
            .ok_or_else(|| StudyError::BadRecord {
                seq,
                reason: format!("campaign index {campaign} out of range (config has {n})"),
            })
    }
}

/// Replay a study log from disk. See the module docs.
pub fn replay_study(path: &Path, opts: &ReplayOptions) -> Result<ReplayOutcome, StudyError> {
    let file = std::fs::File::open(path).map_err(|e| io_err(path, e))?;
    let (_, fold) = LogFold::replay(file)?;
    outcome(fold, opts)
}

/// Replay an already-decoded record stream.
pub fn replay_records(
    header: &LogHeader,
    records: Vec<(u64, StudyRecord)>,
    opts: &ReplayOptions,
) -> Result<ReplayOutcome, StudyError> {
    let fold = likelab_obs::metrics::timed("log.replay.ns", || {
        let mut fold = LogFold::new(header)?;
        for (seq, record) in records {
            fold.apply(seq, record, |_| {})?;
        }
        Ok::<_, StudyError>(fold)
    })?;
    likelab_obs::metrics::counter("log.replay", fold.records);
    outcome(fold, opts)
}

/// Reassemble the dataset from a folded log and recompute its report.
fn outcome(fold: LogFold, opts: &ReplayOptions) -> Result<ReplayOutcome, StudyError> {
    let LogFold {
        config,
        world,
        slots,
        baseline,
        launch,
        ..
    } = fold;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::StudyLog;
    use likelab_graph::UserId;
    use likelab_osn::{
        ActorClass, Country, Gender, LikeColumns, PageCategory, PrivacySettings, Profile,
        WorldEvent,
    };

    fn day(d: u64) -> SimTime {
        SimTime::at_day(d)
    }

    #[test]
    fn the_watermark_counts_rejected_likes_and_skips_refused_records() {
        let log = StudyLog::in_memory(&StudyConfig::paper(1, 0.02)).unwrap();
        let mut fold = LogFold::new(log.header()).unwrap();
        let account = WorldEvent::AccountCreated {
            profile: Profile {
                gender: Gender::Female,
                age: 30,
                country: Country::Usa,
                home_region: 0,
            },
            class: ActorClass::Organic,
            privacy: PrivacySettings {
                friend_list_public: true,
                likes_public: true,
                searchable: true,
            },
            at: day(1),
        };
        let page = WorldEvent::PageCreated {
            name: "p".into(),
            description: String::new(),
            owner: None,
            category: PageCategory::Background,
            at: day(2),
        };
        // The batch's day-9 like repeats the day-5 one, so the ledger
        // rejects it; the watermark still moves to day 9.
        let (u, p) = (UserId(0), PageId(0));
        let likes = LikeColumns::from_rows(&[(u, p, day(5)), (u, p, day(9))]);
        for (seq, ev) in [account, page, WorldEvent::LikeBatch { likes }]
            .into_iter()
            .enumerate()
        {
            fold.apply(seq as u64, StudyRecord::World(ev), |_| {})
                .unwrap();
        }
        assert_eq!(fold.world.likes().len(), 1);
        assert_eq!(
            (fold.watermark, fold.last_seq, fold.records),
            (day(9), Some(2), 3)
        );

        // A refused record moves neither the clock nor the position.
        let stray = LikeColumns::from_rows(&[(UserId(7), p, day(20))]);
        let refused = fold.apply(
            3,
            StudyRecord::World(WorldEvent::LikeBatch { likes: stray }),
            |_| {},
        );
        assert!(matches!(refused, Err(StudyError::BadRecord { seq: 3, .. })));
        let late = StudyRecord::CampaignLaunched {
            campaign: 99,
            page: p,
            at: day(30),
        };
        assert!(fold.apply(4, late, |_| {}).is_err());
        assert_eq!(
            (fold.watermark, fold.last_seq, fold.records),
            (day(9), Some(2), 3)
        );
        assert_eq!(fold.launch, None);
    }
}
