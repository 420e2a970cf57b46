//! The study runner: the full IMC 2014 protocol, end to end.
//!
//! One call to [`run_study`] executes everything the paper did:
//!
//! 1. synthesize the platform population (with a pre-launch history window);
//! 2. deploy 13 empty "Virtual Electricity" honeypot pages;
//! 3. launch all campaigns on the same day — 5 legitimate ad buys, 8 farm
//!    orders (two of which turn out to be scams);
//! 4. drive the event loop: timed likes land, the crawler polls every page
//!    every 2 hours (daily after campaigns, stopping after a quiet week),
//!    farm accounts keep doing camouflage jobs, organic users keep liking,
//!    and the platform's anti-fraud sweep runs weekly;
//! 5. collect liker profiles through the privacy-enforcing crawl API, pull
//!    admin reports, sample the 2000-user directory baseline;
//! 6. a month after the campaigns, recheck which likers were terminated;
//! 7. compute every table and figure.
//!
//! Deterministic: a `(seed, scale)` pair reproduces the identical study.
//!
//! The run is event-sourced: with logging enabled (see [`RunOptions`]),
//! every world mutation and measurement artifact is appended to a
//! [`StudyLog`], and [`replay`](crate::replay) rebuilds the identical
//! outcome from the log alone. Checkpointing freezes the run mid-loop and
//! [resumes](crate::checkpoint) byte-identically.

use crate::presets::{paper_campaigns, paper_farms};
use crate::record::{io_err, StudyError, StudyLog, StudyRecord};
use likelab_analysis::StudyReport;
use likelab_farms::{DeliveryStyle, FarmOrder, FarmRoster, FarmSpec, TimedLike};
use likelab_graph::{PageId, UserId};
use likelab_honeypot::{
    check_terminations, collect_profiles, deploy_honeypot, BaselineRecord, CampaignData,
    CampaignSpec, CollectionConfig, CrawlOutcome, CrawlerConfig, Dataset, PageMonitor, Promotion,
};
use likelab_osn::ads::{plan_campaign, AdCampaignSpec};
use likelab_osn::organic::plan_background_activity;
use likelab_osn::population::{synthesize_with, PopulationConfig};
use likelab_osn::{
    AdMarket, AudienceReport, CrawlApi, CrawlConfig, FraudOps, FraudOpsConfig, LikeColumns,
    OsnWorld,
};
use likelab_sim::event::fnv1a;
use likelab_sim::{Engine, Exec, Rng, SimDuration, SimTime, Trace};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// Everything a study run is parameterized by.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StudyConfig {
    /// Master seed; the whole run is a pure function of it (plus the rest
    /// of this config).
    pub seed: u64,
    /// World scale: 1.0 reproduces paper-sized campaigns; smaller values
    /// shrink the world and all campaign volumes together so percentages
    /// and distributions survive.
    pub scale: f64,
    /// Population model (scaled internally by `scale`).
    pub population: PopulationConfig,
    /// Ad-market pricing.
    pub market: AdMarket,
    /// Anti-fraud sweep parameters.
    pub fraud: FraudOpsConfig,
    /// Crawler cadence.
    pub crawler: CrawlerConfig,
    /// Crawl-surface fault injection.
    pub crawl: CrawlConfig,
    /// Profile-collection retry/backoff policy and request budget.
    pub collection: CollectionConfig,
    /// Ad-campaign geo leakage.
    pub ad_leakage: f64,
    /// Baseline directory sample size (scaled; the paper used 2000).
    pub baseline_sample: usize,
    /// How long after the campaigns the termination recheck happens.
    pub termination_check_after: SimDuration,
    /// Interval between anti-fraud sweeps.
    pub sweep_interval: SimDuration,
    /// Whether organic background activity runs during the study.
    pub organic_activity: bool,
    /// The campaigns to run.
    pub campaigns: Vec<CampaignSpec>,
    /// The farm roster (indexed by `Promotion::FarmOrder::farm`).
    pub farms: Vec<FarmSpec>,
}

impl StudyConfig {
    /// The paper's setup at the given scale.
    pub fn paper(seed: u64, scale: f64) -> Self {
        StudyConfig {
            seed,
            scale,
            population: PopulationConfig::default(),
            market: AdMarket::default(),
            fraud: FraudOpsConfig::default(),
            crawler: CrawlerConfig::default(),
            crawl: CrawlConfig::default(),
            collection: CollectionConfig::default(),
            ad_leakage: 0.02,
            baseline_sample: 2_000,
            termination_check_after: SimDuration::days(30),
            sweep_interval: SimDuration::days(7),
            organic_activity: true,
            campaigns: paper_campaigns(),
            farms: paper_farms(),
        }
    }

    /// The million-account `scale` preset: the paper's protocol over the
    /// [`scale_population`][crate::presets::scale_population] world
    /// (~1M accounts / 50k pages at `scale` 1.0). Same campaigns, farms,
    /// and measurement pipeline — only the world is bigger.
    pub fn scale_world(seed: u64, scale: f64) -> Self {
        StudyConfig {
            population: crate::presets::scale_population(),
            ..StudyConfig::paper(seed, scale)
        }
    }

    /// The `chaos` preset: the paper's world run against a heavily faulted
    /// crawl surface — elevated transient noise, tight rate-limit windows,
    /// multi-hour outages (see `CrawlConfig::chaos`). The study must still
    /// complete end to end; the robustness comparison quantifies the drift.
    pub fn chaos(seed: u64, scale: f64) -> Self {
        StudyConfig {
            crawl: CrawlConfig::chaos(0.75),
            ..StudyConfig::paper(seed, scale)
        }
    }

    /// Replace the crawl fault profile with a named one
    /// (`CrawlConfig::named` vocabulary: `none`, `default`, `throttled`,
    /// `flaky`, `chaos`). Returns None for an unknown name.
    pub fn with_fault_profile(mut self, name: &str) -> Option<Self> {
        self.crawl = CrawlConfig::named(name)?;
        Some(self)
    }

    /// The same configuration with a perfectly clean crawl surface — the
    /// twin run the robustness comparison measures against.
    pub fn clean_twin(&self) -> Self {
        StudyConfig {
            crawl: CrawlConfig::clean(),
            ..self.clone()
        }
    }
}

/// The outcome of a study run.
pub struct StudyOutcome {
    /// The crawled dataset (what the authors' disk held).
    pub dataset: Dataset,
    /// Every table and figure, computed.
    pub report: StudyReport,
    /// The final platform state (ground truth — for detection work).
    pub world: OsnWorld,
    /// Campaign launch time.
    pub launch: SimTime,
    /// Honeypot pages, one per campaign in campaign order.
    pub honeypots: Vec<PageId>,
    /// Run journal (scam notes, sweep counts, crawl stats).
    pub trace: Trace,
    /// The study log, when the run was logging. With
    /// [`RunOptions::capture_log`] it holds every record; a run that
    /// streamed its log to a file (`log_out`, `checkpoint_dir`, a resume)
    /// holds none, and the records are in that file.
    pub log: Option<StudyLog>,
}

/// An event-loop queue entry. Serializable so checkpointing can freeze the
/// pending queue mid-run. Planned likes are not queue entries: they wait
/// in [`PlannedLikes`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub(crate) enum Ev {
    /// The crawler polls campaign `i`'s page.
    Poll(usize),
    /// A platform anti-fraud sweep.
    Sweep,
}

/// How long after the launch the first anti-fraud sweep runs. Later
/// sweeps follow every `sweep_interval` while they fall within the study.
pub(crate) const FIRST_SWEEP: SimDuration = SimDuration::days(3);

/// The planned likes, and a cursor at the next one to fire. Set-up plans
/// every like before it schedules the first poll or sweep, so the likes sit
/// in one column beside the event queue, sorted by time with ties in plan
/// order, and fire from `next` on. The plan is a function of the config, so
/// a checkpoint stores only the cursor and the plan's fingerprint, and a
/// resume runs set-up again for the plan itself.
pub(crate) struct PlannedLikes {
    likes: LikeColumns,
    next: usize,
}

/// What identifies a like plan: its length and the FNV-1a of its three
/// columns (user, page and time, each little-endian, column after column).
/// A checkpoint stores it beside its cursor; a resume refuses a plan that
/// set-up re-derives with another fingerprint, which a build whose planner
/// changed would.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub(crate) struct PlanFingerprint {
    /// The number of planned likes.
    pub len: u64,
    /// The FNV-1a of the columns.
    pub fnv1a: u64,
}

impl PlannedLikes {
    /// The planned likes of `plan`, listed in the order set-up scheduled
    /// them. A stable sort keeps that order among equal times: the order
    /// the queue's sequence numbers gave them when every like was a queue
    /// event.
    pub(crate) fn from_schedule(mut plan: Vec<TimedLike>) -> Self {
        plan.sort_by_key(|l| l.at);
        let mut likes = LikeColumns::with_capacity(plan.len());
        for l in plan {
            likes.push(l.user, l.page, l.at);
        }
        PlannedLikes { likes, next: 0 }
    }

    /// The cursor: the index of the next like to fire.
    pub(crate) fn cursor(&self) -> u64 {
        self.next as u64
    }

    /// Move the cursor to a checkpoint's `next`, returning the time of the
    /// like it points at (None once every like has fired). A cursor past
    /// the plan's end is refused, with the reason.
    pub(crate) fn seek(&mut self, next: u64) -> Result<Option<SimTime>, String> {
        let len = self.likes.len();
        let next = usize::try_from(next)
            .ok()
            .filter(|&n| n <= len)
            .ok_or_else(|| format!("planned_next {next} is past the end of the {len}-like plan"))?;
        self.next = next;
        Ok(self.likes.times.get(next).copied())
    }

    /// The plan's fingerprint. It reads the whole plan, so a run computes
    /// it only at its first checkpoint (a resume also once to check it).
    pub(crate) fn fingerprint(&self) -> PlanFingerprint {
        let c = &self.likes;
        let bytes = (c.users.iter().flat_map(|u| u.0.to_le_bytes()))
            .chain(c.pages.iter().flat_map(|p| p.0.to_le_bytes()))
            .chain(c.times.iter().flat_map(|t| t.as_secs().to_le_bytes()));
        PlanFingerprint {
            len: c.len() as u64,
            fnv1a: fnv1a(bytes),
        }
    }

    /// The users and pages of the likes still to fire.
    fn unfired(&self) -> (&[UserId], &[PageId]) {
        let likes = &self.likes;
        (&likes.users[self.next..], &likes.pages[self.next..])
    }

    /// Copy the next run into `run`: at most `cap` likes, none later than
    /// `front`. Returns the run's last time, or `None` (leaving `run` as it
    /// was) when no planned like fires by `front`.
    fn take_run(
        &mut self,
        front: Option<SimTime>,
        cap: usize,
        run: &mut LikeColumns,
    ) -> Option<SimTime> {
        let times = &self.likes.times[self.next..];
        let times = &times[..times.len().min(cap)];
        let n = match front {
            Some(front) => times.partition_point(|&at| at <= front),
            None => times.len(),
        };
        let &last = times[..n].last()?;
        let rows = self.next..self.next + n;
        run.clear();
        run.users.extend_from_slice(&self.likes.users[rows.clone()]);
        run.pages.extend_from_slice(&self.likes.pages[rows.clone()]);
        run.times.extend_from_slice(&self.likes.times[rows.clone()]);
        self.next = rows.end;
        Some(last)
    }
}

/// What the event loop does next (see [`next_dispatch`]).
pub(crate) enum Dispatch {
    /// A run of planned likes, copied into the run buffer.
    Likes,
    /// The queue's next event.
    Event(SimTime, Ev),
}

/// Likes per run at most. Runs are capped so a quiet stretch of millions
/// of likes neither starves the checkpoint cadence nor holds an unbounded
/// batch in memory.
const LIKE_RUN_CAP: usize = 8_192;

/// The event loop's next dispatch. A run is the next at most `cap`
/// planned likes that fire no later than the queue's front; they were all
/// scheduled before any poll or sweep, so they win a tie at the front, as
/// their lower sequence numbers did when every like was a queue event.
/// The run is copied into `run` and the engine counts it as fired;
/// otherwise the queue's next event is stepped. `None` once both are
/// exhausted.
pub(crate) fn next_dispatch(
    engine: &mut Engine<Ev>,
    planned: &mut PlannedLikes,
    cap: usize,
    run: &mut LikeColumns,
) -> Option<Dispatch> {
    match planned.take_run(engine.peek_time(), cap, run) {
        Some(last) => {
            engine.fire_run(last, run.len() as u64);
            Some(Dispatch::Likes)
        }
        None => engine.step().map(|(at, ev)| Dispatch::Event(at, ev)),
    }
}

/// Knobs for [`run_study_opts`]: execution policy, log capture, and
/// checkpoint/resume.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Execution policy for the parallel stages (see [`run_study_with`]).
    pub exec: Exec,
    /// Capture a [`StudyLog`] in memory, every record of it, returned on
    /// [`StudyOutcome::log`]. Mutually exclusive with `log_out` and
    /// `checkpoint_dir`.
    pub capture_log: bool,
    /// Stream the binary log to this file as the run goes. Each record is
    /// written and dropped, so the run keeps no records in memory.
    /// Mutually exclusive with `capture_log` and `checkpoint_dir`.
    pub log_out: Option<PathBuf>,
    /// Checkpoint directory. Enables checkpointing: the log streams to
    /// `<dir>/world.log`, keeping no records in memory, and consumer state
    /// snapshots to `<dir>/checkpoint.json`. Mutually exclusive with
    /// `capture_log` and `log_out`.
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint cadence, in fired events (0 disables checkpoint writes).
    /// Ignored under `resume`: a resumed run checkpoints at the cadence its
    /// `checkpoint.json` stores.
    pub checkpoint_every: u64,
    /// Resume from `checkpoint_dir` instead of starting fresh. The config
    /// in the header of `<dir>/world.log` wins; the config passed to
    /// [`run_study_opts`] is ignored, and so is `checkpoint_every`.
    pub resume: bool,
    /// Test hook: abort with [`StudyError::SimulatedCrash`] after this
    /// many checkpoints have been written. Lets CI exercise the
    /// kill-and-resume path deterministically.
    pub crash_after_checkpoints: Option<u64>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            exec: Exec::auto(),
            capture_log: false,
            log_out: None,
            checkpoint_dir: None,
            checkpoint_every: 5_000,
            resume: false,
            crash_after_checkpoints: None,
        }
    }
}

/// The optional log-capture side channel threaded through a run. All
/// methods are no-ops when the run is not logging.
pub(crate) struct Capture {
    pub(crate) log: Option<StudyLog>,
}

impl Capture {
    fn open(config: &StudyConfig, opts: &RunOptions) -> Result<Self, StudyError> {
        let log = if let Some(dir) = &opts.checkpoint_dir {
            if opts.log_out.is_some() {
                return Err(StudyError::Mismatch(
                    "log-out and checkpoint-dir are mutually exclusive; \
                     the checkpoint dir already owns <dir>/world.log"
                        .into(),
                ));
            }
            std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
            Some(StudyLog::to_file(config, &dir.join("world.log"))?)
        } else if let Some(path) = &opts.log_out {
            Some(StudyLog::to_file(config, path)?)
        } else if opts.capture_log {
            Some(StudyLog::in_memory(config)?)
        } else {
            None
        };
        Ok(Capture { log })
    }

    fn on(&self) -> bool {
        self.log.is_some()
    }

    fn rng_fork(&mut self, label: &str) -> Result<(), StudyError> {
        if let Some(log) = &mut self.log {
            log.append(StudyRecord::RngFork {
                label: label.into(),
            })?;
        }
        Ok(())
    }

    fn world(&mut self, world: &mut OsnWorld) -> Result<(), StudyError> {
        if let Some(log) = &mut self.log {
            log.drain_world(world)?;
        }
        Ok(())
    }

    fn record(&mut self, f: impl FnOnce() -> StudyRecord) -> Result<(), StudyError> {
        if let Some(log) = &mut self.log {
            log.append(f())?;
        }
        Ok(())
    }
}

/// Everything the event loop carries between steps. Checkpointing
/// serializes only what a resume can derive neither from the log (the
/// world, the config, the honeypot pages) nor from set-up (the planned
/// likes, the study window, the master RNG): the plan's cursor, the queue,
/// the monitors, the crawl API, the sweep engine's RNG and the trace. A
/// campaign is inactive exactly when its monitor is `None`.
pub(crate) struct LoopState {
    pub(crate) config: StudyConfig,
    pub(crate) world: OsnWorld,
    pub(crate) engine: Engine<Ev>,
    pub(crate) planned: PlannedLikes,
    pub(crate) monitors: Vec<Option<PageMonitor>>,
    pub(crate) honeypots: Vec<PageId>,
    pub(crate) launch: SimTime,
    pub(crate) end: SimTime,
    pub(crate) api: CrawlApi,
    pub(crate) fraud: FraudOps,
    pub(crate) rng: Rng,
    pub(crate) trace: Trace,
}

/// When a campaign's paid promotion ends (drives the crawler cadence
/// switch). A campaign ordering from a farm `farms` does not have, or an
/// end past the end of the clock, is an error saying so.
fn campaign_end(
    launch: SimTime,
    spec: &CampaignSpec,
    farms: &[FarmSpec],
) -> Result<SimTime, String> {
    let days = match &spec.promotion {
        Promotion::PlatformAds { duration_days, .. } => *duration_days,
        Promotion::FarmOrder { farm, .. } => {
            let farm = farms
                .get(*farm)
                .ok_or_else(|| format!("campaign {} orders from an unknown farm", spec.label))?;
            match farm.style {
                DeliveryStyle::Burst { days, .. } => days,
                DeliveryStyle::Trickle { days } => days,
            }
        }
    };
    days.checked_mul(SimDuration::DAY.as_secs())
        .and_then(|secs| launch.as_secs().checked_add(secs))
        .map(SimTime::from_secs)
        .ok_or_else(|| format!("campaign {} ends past the end of the clock", spec.label))
}

/// The study window `(launch, end)` that `config` implies: campaigns launch
/// at the end of the population's history window, and the study ends
/// `termination_check_after` past the last promotion. Set-up schedules by
/// it, and refuses a config whose window overflows the clock.
fn study_window(config: &StudyConfig) -> Result<(SimTime, SimTime), String> {
    let launch = SimTime::EPOCH + config.population.history;
    let mut last = launch;
    for spec in &config.campaigns {
        last = last.max(campaign_end(launch, spec, &config.farms)?);
    }
    let end = last
        .as_secs()
        .checked_add(config.termination_check_after.as_secs())
        .ok_or("the study ends past the end of the clock")?;
    Ok((launch, SimTime::from_secs(end)))
}

/// Run the study. See the module docs for the protocol.
///
/// Parallelizable stages (population synthesis, report assembly) use
/// [`Exec::auto`]; the outcome is bit-identical for any worker count — see
/// [`run_study_with`].
///
/// ```
/// use likelab_core::{run_study, StudyConfig};
///
/// // Scale 0.01 keeps the doc test fast; 1.0 is paper-sized.
/// let outcome = run_study(&StudyConfig::paper(42, 0.01));
/// assert_eq!(outcome.dataset.campaigns.len(), 13);
/// let text = outcome.report.render();
/// assert!(text.contains("Table 1"));
/// ```
pub fn run_study(config: &StudyConfig) -> StudyOutcome {
    run_study_with(config, Exec::auto())
}

/// Run the study under an explicit execution policy.
///
/// `exec` governs the two embarrassingly parallel stages — per-user like
/// history synthesis and per-section report assembly. The event loop itself
/// is inherently serial and untouched. Every parallel stage derives its
/// randomness from index-split streams and reassembles results in index
/// order, so the returned outcome is bit-identical for every `exec`.
// Only logging and checkpointing return errors, and this run does neither.
#[allow(clippy::expect_used)]
pub fn run_study_with(config: &StudyConfig, exec: Exec) -> StudyOutcome {
    run_study_opts(
        config,
        &RunOptions {
            exec,
            ..RunOptions::default()
        },
    )
    .expect("a study without logging or checkpointing cannot fail")
}

/// Run the study with full control over logging and checkpointing.
///
/// This is the event-sourced entry point: with [`RunOptions::capture_log`]
/// (or `log_out`/`checkpoint_dir`) set, every world mutation and
/// measurement artifact is appended to a [`StudyLog`] as the run executes,
/// kept in memory or streamed to a file, and
/// [`replay`](crate::replay::replay_study) reproduces the identical
/// dataset and report from the log alone. With `checkpoint_dir` set the
/// run can be killed and [resumed](RunOptions::resume) byte-identically.
/// `capture_log` together with `log_out` or `checkpoint_dir` is a
/// [`StudyError::Mismatch`]: a streamed log keeps no records to capture.
pub fn run_study_opts(config: &StudyConfig, opts: &RunOptions) -> Result<StudyOutcome, StudyError> {
    likelab_obs::span!("study.run");
    if opts.capture_log && (opts.log_out.is_some() || opts.checkpoint_dir.is_some()) {
        return Err(StudyError::Mismatch(
            "capture_log is mutually exclusive with log_out and checkpoint_dir; \
             a log streamed to a file keeps no records in memory"
                .into(),
        ));
    }
    if opts.resume {
        return crate::checkpoint::resume_study(opts);
    }
    let mut capture = Capture::open(config, opts)?;
    let mut state = setup(config, opts.exec, &mut capture)?;
    event_loop(&mut state, &mut capture, opts)?;
    collect(state, capture, opts.exec)
}

/// Phases 1–3: population, honeypots, promotions, organic plan, and the
/// initial event queue. A resume runs it again, with capture off, for the
/// plan, the study window and the master RNG.
pub(crate) fn setup(
    config: &StudyConfig,
    exec: Exec,
    capture: &mut Capture,
) -> Result<LoopState, StudyError> {
    let (launch, end) = study_window(config).map_err(StudyError::Mismatch)?;
    let mut rng = Rng::seed_from_u64(config.seed);
    let mut trace = Trace::with_capacity(10_000);
    let mut world = OsnWorld::new();
    world.set_recording(capture.on());

    // --- population -----------------------------------------------------
    let population_span = likelab_obs::span::enter("study.population");
    let pop_config = config.population.clone().scaled(config.scale);
    capture.rng_fork("population")?;
    let population = synthesize_with(&mut world, &pop_config, &mut rng.fork("population"), exec);
    debug_assert_eq!(population.launch, launch, "launch ends the history window");
    trace.note(
        launch,
        format!(
            "population ready: {} accounts, {} pages, {} likes",
            world.account_count(),
            world.page_count(),
            world.likes().len()
        ),
    );
    capture.world(&mut world)?;

    drop(population_span);

    // --- honeypots and promotions ----------------------------------------
    let promotions_span = likelab_obs::span::enter("study.promotions");
    // Farm camouflage draws from the globally popular head of the
    // catalogue: farm accounts mimic generic users, not locals.
    capture.rng_fork("farms")?;
    let mut roster = FarmRoster::new(
        config.farms.clone(),
        population.global_pages.clone(),
        config.scale,
        rng.fork("farms"),
    );
    let mut honeypots = Vec::with_capacity(config.campaigns.len());
    let mut monitors: Vec<Option<PageMonitor>> = Vec::with_capacity(config.campaigns.len());
    // Every like the campaigns and the organic plan schedule, in schedule
    // order.
    let mut planned: Vec<TimedLike> = Vec::new();

    // Each campaign plans its ads from `ads_rng.split(campaign_index)`: the
    // stream is a pure function of (seed, index), so adding draws to one
    // campaign — or planning campaigns out of order, or in parallel — never
    // perturbs another campaign's stream.
    capture.rng_fork("ads")?;
    let ads_rng = rng.fork("ads");
    for (campaign_index, spec) in config.campaigns.iter().enumerate() {
        let (page, _owner) = deploy_honeypot(&mut world, launch);
        honeypots.push(page);
        let campaign_end =
            campaign_end(launch, spec, &config.farms).map_err(StudyError::Mismatch)?;
        let mut is_scam = false;
        match &spec.promotion {
            Promotion::PlatformAds {
                targeting,
                daily_budget_cents,
                duration_days,
            } => {
                let _ads_span = likelab_obs::span::enter("promotions.ads");
                let plan = plan_campaign(
                    &world,
                    &population,
                    &config.market,
                    &AdCampaignSpec {
                        page,
                        targeting: targeting.clone(),
                        daily_budget_cents: daily_budget_cents * config.scale,
                        duration_days: *duration_days,
                        leakage: config.ad_leakage,
                    },
                    launch,
                    &mut ads_rng.split(campaign_index as u64),
                );
                trace.note(
                    launch,
                    format!("{}: ad plan of {} likes", spec.label, plan.len()),
                );
                planned.extend(plan.into_iter().map(|p| TimedLike {
                    user: p.user,
                    page,
                    at: p.at,
                }));
            }
            Promotion::FarmOrder {
                farm,
                region,
                likes,
                ..
            } => {
                let _farm_span = likelab_obs::span::enter("promotions.farm");
                let delivery = roster.fulfill(
                    &mut world,
                    &FarmOrder {
                        farm: *farm,
                        page,
                        region: *region,
                        likes: *likes,
                        placed_at: launch,
                    },
                );
                if delivery.scam {
                    is_scam = true;
                    trace.note(
                        launch,
                        format!(
                            "{}: campaign remained inactive (charged in advance)",
                            spec.label
                        ),
                    );
                } else {
                    trace.note(
                        launch,
                        format!(
                            "{}: farm delivery of {} likes, {} future camouflage events",
                            spec.label,
                            delivery.likes.len(),
                            delivery.future_camouflage.len()
                        ),
                    );
                    planned.extend(delivery.likes.into_iter().chain(delivery.future_camouflage));
                }
            }
        }
        monitors
            .push((!is_scam).then(|| PageMonitor::new(page, launch, campaign_end, config.crawler)));
        capture.world(&mut world)?;
        capture.record(|| StudyRecord::CampaignLaunched {
            campaign: campaign_index,
            page,
            at: launch,
        })?;
        if is_scam {
            capture.record(|| StudyRecord::CampaignInactive {
                campaign: campaign_index,
            })?;
        }
    }

    // --- organic background activity --------------------------------------
    if config.organic_activity {
        let window = end.since(launch);
        capture.rng_fork("organic")?;
        let plan = plan_background_activity(
            &world,
            &population,
            &pop_config,
            launch,
            window,
            &mut rng.fork("organic"),
        );
        trace.note(
            launch,
            format!("organic activity: {} likes planned", plan.len()),
        );
        planned.extend(plan.into_iter().map(|l| TimedLike {
            user: l.user,
            page: l.page,
            at: l.at,
        }));
    }
    let planned = PlannedLikes::from_schedule(planned);

    drop(promotions_span);

    // --- crawler polls and fraud sweeps -----------------------------------
    let mut engine: Engine<Ev> = Engine::new();
    for (i, m) in monitors.iter().enumerate() {
        if m.is_some() {
            engine.schedule(launch, Ev::Poll(i));
        }
    }
    engine.schedule(launch + FIRST_SWEEP, Ev::Sweep);

    capture.rng_fork("crawl")?;
    let api = CrawlApi::new(config.crawl, rng.fork("crawl"));
    capture.rng_fork("fraud")?;
    let fraud = FraudOps::new(config.fraud.clone(), rng.fork("fraud"));

    Ok(LoopState {
        config: config.clone(),
        world,
        engine,
        planned,
        monitors,
        honeypots,
        launch,
        end,
        api,
        fraud,
        rng,
        trace,
    })
}

/// Phase 4: drive the event loop to exhaustion, checkpointing on cadence
/// when a checkpoint directory is configured.
pub(crate) fn event_loop(
    state: &mut LoopState,
    capture: &mut Capture,
    opts: &RunOptions,
) -> Result<(), StudyError> {
    let event_loop_span = likelab_obs::span::enter("study.event_loop");
    let mut checkpoints = 0u64;
    // Checkpoint on bucket crossings of the fired counter rather than exact
    // multiples: a like run advances `fired` by its whole length, so
    // the counter may step over a multiple without landing on it. For
    // single-event steps this is the same cadence as the historical
    // `fired % every == 0` check (a resume never re-checkpoints its own
    // resume point — the bucket starts at the resumed counter).
    let every = opts.checkpoint_every;
    let mut cp_bucket = state.engine.fired().checked_div(every).unwrap_or(0);
    let mut plan = None;
    {
        // Room for every like still to fire, so no run moves a ledger list
        // or grows a buffer.
        let _reserve_span = likelab_obs::span::enter("study.reserve_likes");
        let (users, pages) = state.planned.unfired();
        state.world.reserve_likes(users, pages);
    }
    // Reused columnar buffer for like runs.
    let mut like_run = LikeColumns::with_capacity(0);
    while let Some(dispatch) = next_dispatch(
        &mut state.engine,
        &mut state.planned,
        LIKE_RUN_CAP,
        &mut like_run,
    ) {
        match dispatch {
            // Likes draw no RNG and account status only changes at sweep
            // events (which end the run), so a run ingests exactly as its
            // likes would one by one.
            Dispatch::Likes => {
                let _ingest_span = likelab_obs::span::enter("study.ingest");
                state.world.ingest_like_columns(&like_run, Exec::Sequential);
            }
            Dispatch::Event(now, Ev::Poll(i)) => {
                let _poll_span = likelab_obs::span::enter("study.poll");
                let Some(monitor) = state.monitors.get_mut(i).and_then(Option::as_mut) else {
                    return Err(StudyError::Mismatch(format!(
                        "campaign #{i} is polled but has no monitor"
                    )));
                };
                if let Some(next) = monitor.poll(&state.world, &mut state.api, now) {
                    state.engine.schedule(next, Ev::Poll(i));
                } else {
                    state
                        .trace
                        .note(now, format!("stopped monitoring campaign #{i}"));
                }
            }
            Dispatch::Event(now, Ev::Sweep) => {
                let _sweep_span = likelab_obs::span::enter("study.sweep");
                let terminated = state.fraud.sweep(&mut state.world, now);
                state
                    .trace
                    .count("fraud.terminated", terminated.len() as u64);
                if now + state.config.sweep_interval <= state.end {
                    state
                        .engine
                        .schedule(now + state.config.sweep_interval, Ev::Sweep);
                }
            }
        }
        capture.world(&mut state.world)?;
        if let Some(dir) = &opts.checkpoint_dir {
            let bucket = state.engine.fired().checked_div(every).unwrap_or(0);
            if bucket > cp_bucket {
                cp_bucket = bucket;
                crate::checkpoint::write_checkpoint(dir, state, every, &mut plan, capture)?;
                checkpoints += 1;
                if opts
                    .crash_after_checkpoints
                    .is_some_and(|k| checkpoints >= k)
                {
                    return Err(StudyError::SimulatedCrash { checkpoints });
                }
            }
        }
    }
    state.trace.note(
        state.end,
        format!(
            "event loop drained: {} events, {} sweep terminations, {} crawl requests ({} failed)",
            state.engine.fired(),
            state.trace.counter("fraud.terminated"),
            state.api.requests(),
            state.api.failures()
        ),
    );
    if !state.config.crawl.faults.is_quiet() {
        let s = state.api.stats();
        state.trace.note(
            state.end,
            format!(
                "crawl faults during monitoring: {} rate-limited, {} outage, {} transient",
                s.rate_limited, s.outage, s.transient
            ),
        );
    }

    drop(event_loop_span);
    likelab_obs::metrics::counter("study.events.fired", state.engine.fired());
    Ok(())
}

/// Phases 5–7: profile collection, the termination recheck, the baseline
/// sample, and report computation.
pub(crate) fn collect(
    state: LoopState,
    mut capture: Capture,
    exec: Exec,
) -> Result<StudyOutcome, StudyError> {
    let LoopState {
        config,
        world,
        engine,
        planned,
        monitors,
        honeypots,
        launch,
        end,
        mut api,
        fraud,
        mut rng,
        trace,
    } = state;
    // The fired like column and the sweep engine's per-account state are
    // dead weight now; free both before the report's passes allocate.
    drop((engine, planned));
    drop(fraud);

    let collection_span = likelab_obs::span::enter("study.collection");
    let mut campaigns_data = Vec::with_capacity(config.campaigns.len());
    // The collection passes run on a virtual crawl clock starting at the
    // study's end; backoff waits and rate-limit hints advance it. With
    // fault regimes disabled nothing reads the cursor, so outcomes match
    // the pre-regime pipeline draw for draw.
    let mut crawl_at = end;
    for (i, spec) in config.campaigns.iter().enumerate() {
        let page = honeypots[i];
        let (likers, observations, monitoring_days, mut coverage) = match &monitors[i] {
            Some(m) => (
                collect_profiles(&world, &mut api, m, &mut crawl_at, &config.collection),
                m.observations().to_vec(),
                m.monitoring_days(),
                m.coverage(),
            ),
            None => (Vec::new(), Vec::new(), None, Default::default()),
        };
        for l in &likers {
            match l.crawl_outcome {
                CrawlOutcome::Complete => coverage.profiles_complete += 1,
                CrawlOutcome::Gone => coverage.profiles_gone += 1,
                CrawlOutcome::GaveUp => coverage.profiles_gave_up += 1,
            }
        }
        likelab_obs::metrics::counter(
            &format!("crawl.coverage{{campaign={}}}", spec.label),
            (coverage.profile_coverage() * 10_000.0) as u64,
        );
        let liker_ids: Vec<_> = likers.iter().map(|l| l.user).collect();
        let probe = check_terminations(
            &world,
            &mut api,
            &liker_ids,
            &mut crawl_at,
            &config.collection.retry,
        );
        for o in &observations {
            capture.record(|| StudyRecord::CrawlObserved {
                campaign: i,
                observation: *o,
            })?;
        }
        for l in &likers {
            capture.record(|| StudyRecord::ProfileCollected {
                campaign: i,
                record: l.clone(),
            })?;
        }
        capture.record(|| StudyRecord::TerminationsProbed {
            campaign: i,
            terminated: probe.terminated,
            unknown: probe.unknown,
        })?;
        capture.record(|| StudyRecord::MonitoringEnded {
            campaign: i,
            monitoring_days,
            coverage,
        })?;
        campaigns_data.push(CampaignData {
            spec: spec.clone(),
            page,
            observations,
            likers,
            report: AudienceReport::for_page(&world, page),
            monitoring_days,
            terminated_after_month: probe.terminated,
            termination_unknown: probe.unknown,
            inactive: monitors[i].is_none(),
            coverage,
        });
    }

    capture.rng_fork("baseline")?;
    let n_baseline = ((config.baseline_sample as f64 * config.scale).round() as usize).max(50);
    let baseline: Vec<BaselineRecord> =
        likelab_osn::directory::random_sample(&world, n_baseline, &mut rng.fork("baseline"))
            .into_iter()
            .map(|user| BaselineRecord {
                user,
                like_count: world.likes().user_like_count(user),
            })
            .collect();
    capture.record(|| StudyRecord::BaselineSampled {
        records: baseline.clone(),
    })?;

    let dataset = Dataset {
        campaigns: campaigns_data,
        baseline,
        launch,
        global_report: AudienceReport::global_with(&world, exec),
    };
    drop(collection_span);
    let report = {
        let _s = likelab_obs::span::enter("study.report");
        StudyReport::compute_with(&dataset, exec)
    };

    if let Some(log) = &mut capture.log {
        log.flush()?;
    }

    Ok(StudyOutcome {
        dataset,
        report,
        world,
        launch,
        honeypots,
        trace,
        log: capture.log,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use likelab_sim::EventQueue;

    /// An event of the schedule before planned likes left the queue, when
    /// each like was a queue entry of its own.
    #[derive(Debug)]
    enum QueuedEv {
        Like(u32),
        Other(Ev),
    }

    /// What one dispatch fired: a like run (plan indices), or an event.
    #[derive(Debug, PartialEq)]
    enum Fired {
        Likes(Vec<u32>),
        Event(Ev),
    }

    /// Polls and the sweep reschedule themselves, as in the study, until
    /// second 48.
    fn reschedule(at: SimTime, ev: &Ev) -> Option<SimTime> {
        let gap = match ev {
            Ev::Poll(i) => 3 + *i as u64,
            Ev::Sweep => 7,
        };
        let next = at + SimDuration::secs(gap);
        (next.as_secs() < 48).then_some(next)
    }

    proptest::proptest! {
        /// The event loop's merge of the planned-like column with the poll
        /// and sweep heap dispatches what one `(time, seq)` queue fed the
        /// old schedule did: every like queued first in plan order, then the
        /// polls and the sweep, consecutive likes coalesced into runs of at
        /// most `cap`. Times fall in a few seconds, so ties are common, and
        /// the cap is small, so runs end at both the cap and the queue's
        /// front. The clock and the fired counter match after every
        /// dispatch.
        #[test]
        fn the_like_column_merges_with_the_queue_as_one_queue_would(
            like_times in proptest::prelude::vec(0u64..24, 0..80),
            poll_times in proptest::prelude::vec(0u64..24, 0..4),
            sweep_time in 0u64..24,
            cap in 1usize..6,
        ) {
            let at = SimTime::from_secs;
            let mut old = EventQueue::new();
            for (k, &t) in like_times.iter().enumerate() {
                old.push(at(t), QueuedEv::Like(k as u32));
            }
            for (i, &t) in poll_times.iter().enumerate() {
                old.push(at(t), QueuedEv::Other(Ev::Poll(i)));
            }
            old.push(at(sweep_time), QueuedEv::Other(Ev::Sweep));
            let mut want: Vec<(Fired, SimTime, u64)> = Vec::new();
            let mut fired = 0;
            while let Some((t, ev)) = old.pop() {
                fired += 1;
                match (ev, want.last_mut()) {
                    (QueuedEv::Like(k), Some((Fired::Likes(run), last, n))) if run.len() < cap => {
                        run.push(k);
                        (*last, *n) = (t, fired);
                    }
                    (QueuedEv::Like(k), _) => want.push((Fired::Likes(vec![k]), t, fired)),
                    (QueuedEv::Other(ev), _) => {
                        if let Some(next) = reschedule(t, &ev) {
                            old.push(next, QueuedEv::Other(ev.clone()));
                        }
                        want.push((Fired::Event(ev), t, fired));
                    }
                }
            }

            let plan = like_times.iter().enumerate().map(|(k, &t)| TimedLike {
                user: UserId(k as u32),
                page: PageId(0),
                at: at(t),
            });
            let mut planned = PlannedLikes::from_schedule(plan.collect());
            let mut engine = Engine::new();
            for (i, &t) in poll_times.iter().enumerate() {
                engine.schedule(at(t), Ev::Poll(i));
            }
            engine.schedule(at(sweep_time), Ev::Sweep);
            let mut run = LikeColumns::with_capacity(0);
            let mut got = Vec::new();
            while let Some(dispatch) = next_dispatch(&mut engine, &mut planned, cap, &mut run) {
                let fired = match dispatch {
                    Dispatch::Likes => Fired::Likes(run.users.iter().map(|u| u.0).collect()),
                    Dispatch::Event(t, ev) => {
                        if let Some(next) = reschedule(t, &ev) {
                            engine.schedule(next, ev.clone());
                        }
                        Fired::Event(ev)
                    }
                };
                got.push((fired, engine.now(), engine.fired()));
            }
            proptest::prop_assert_eq!(got, want);
        }
    }

    /// A small but representative study, shared across tests (runs once).
    fn outcome() -> &'static StudyOutcome {
        static SHARED: std::sync::OnceLock<StudyOutcome> = std::sync::OnceLock::new();
        SHARED.get_or_init(|| run_study(&StudyConfig::paper(42, 0.12)))
    }

    #[test]
    fn thirteen_campaigns_two_inactive() {
        let o = outcome();
        assert_eq!(o.dataset.campaigns.len(), 13);
        let inactive: Vec<&str> = o
            .dataset
            .campaigns
            .iter()
            .filter(|c| c.inactive)
            .map(|c| c.spec.label.as_str())
            .collect();
        assert_eq!(inactive, vec!["BL-ALL", "MS-ALL"]);
    }

    #[test]
    fn like_counts_scale_with_table1() {
        let o = outcome();
        let scale = 0.12;
        // Each active campaign should land within a factor-2 band of the
        // scaled Table 1 count (stochastic delivery fractions included).
        for row in crate::paper::TABLE1 {
            let Some(published) = row.likes else { continue };
            let got = o.dataset.campaign(row.label).unwrap().like_count() as f64;
            let expected = published as f64 * scale;
            assert!(
                got > expected * 0.45 && got < expected * 2.2,
                "{}: got {got}, expected ~{expected}",
                row.label
            );
        }
    }

    #[test]
    fn fb_all_is_india_dominated() {
        let o = outcome();
        let fig1 = &o.report.figure1;
        let all = fig1.iter().find(|r| r.label == "FB-ALL").unwrap();
        assert!(
            all.share(likelab_osn::GeoBucket::India) > 0.85,
            "India share {}",
            all.share(likelab_osn::GeoBucket::India)
        );
        let sf = fig1.iter().find(|r| r.label == "SF-USA").unwrap();
        assert!(
            sf.share(likelab_osn::GeoBucket::Turkey) > 0.8,
            "SF ships Turkey: {}",
            sf.share(likelab_osn::GeoBucket::Turkey)
        );
    }

    #[test]
    fn burst_farms_burst_trickles_trickle() {
        let o = outcome();
        let series = |l: &str| o.report.figure2.iter().find(|s| s.label == l).unwrap();
        assert!(
            series("AL-USA").peak_2h_share > 0.3,
            "{}",
            series("AL-USA").peak_2h_share
        );
        assert!(series("SF-ALL").peak_2h_share > 0.3);
        assert!(series("BL-USA").peak_2h_share < 0.1);
        assert!(series("FB-IND").peak_2h_share < 0.1);
        assert!(series("BL-USA").days_to_90pct > 9.0);
        assert!(series("AL-USA").days_to_90pct < 5.0);
    }

    #[test]
    fn kl_ordering_matches_table2() {
        let o = outcome();
        let kl = |l: &str| {
            o.report
                .table2
                .iter()
                .find(|r| r.label == l)
                .and_then(|r| r.kl)
                .unwrap()
        };
        assert!(kl("FB-IND") > 0.5, "FB-IND young+male: {}", kl("FB-IND"));
        assert!(kl("FB-ALL") > 0.5);
        assert!(kl("SF-ALL") < 0.15, "SF mirrors global: {}", kl("SF-ALL"));
        assert!(kl("FB-IND") > kl("SF-ALL") * 4.0);
    }

    #[test]
    fn boostlikes_social_structure_stands_out() {
        let o = outcome();
        let row = |p: likelab_analysis::Provider| {
            o.report.table3.iter().find(|r| r.provider == p).unwrap()
        };
        use likelab_analysis::Provider as P;
        let bl = row(P::BoostLikes);
        let sf = row(P::SocialFormula);
        let fb = row(P::Facebook);
        assert!(
            bl.friends.median > sf.friends.median * 3.0,
            "BL median {} vs SF {}",
            bl.friends.median,
            sf.friends.median
        );
        assert!(
            bl.friendships_between_likers > sf.friendships_between_likers,
            "BL edges {} vs SF {}",
            bl.friendships_between_likers,
            sf.friendships_between_likers
        );
        assert!(fb.likers > 0 && bl.likers > 0);
        // ALMS exists: shared operator.
        assert!(row(P::Alms).likers > 0, "ALMS overlap group must appear");
    }

    #[test]
    fn honeypot_likers_like_far_more_pages_than_baseline() {
        let o = outcome();
        let median = |l: &str| {
            o.report
                .figure4
                .iter()
                .find(|c| c.label == l)
                .unwrap()
                .median()
        };
        let baseline = median("Facebook");
        assert!(
            (20.0..=60.0).contains(&baseline),
            "baseline median ~34, got {baseline}"
        );
        assert!(median("SF-ALL") > baseline * 10.0);
        assert!(median("FB-IND") > baseline * 5.0);
        // BL-USA is the exception: deliberately small like counts.
        assert!(median("BL-USA") < baseline * 5.0);
    }

    #[test]
    fn similarity_hotspots_match_figure5() {
        let o = outcome();
        let users = &o.report.figure5_users;
        let sf_pair = users.get("SF-ALL", "SF-USA");
        let alms = users.get("AL-USA", "MS-USA");
        let cross = users.get("SF-ALL", "AL-USA");
        assert!(sf_pair > 1.0, "SF reuse: {sf_pair}");
        assert!(alms > 10.0, "shared operator: {alms}");
        assert!(cross < 1.0, "distinct operators: {cross}");
        let pages = &o.report.figure5_pages;
        assert!(
            pages.get("AL-USA", "MS-USA") > pages.get("SF-ALL", "AL-USA"),
            "same-operator page overlap beats cross-operator"
        );
        assert!(
            pages.get("FB-IND", "FB-EGY") > pages.get("FB-IND", "AL-USA"),
            "FB campaigns resemble each other more than farms"
        );
    }

    #[test]
    fn termination_ordering_matches_section5() {
        let o = outcome();
        use likelab_analysis::Provider as P;
        let t = &o.report.termination;
        let likers = |p: P| {
            o.report
                .table3
                .iter()
                .find(|r| r.provider == p)
                .unwrap()
                .likers
        };
        let rate = |p: P| t.rate(p, likers(p).max(1));
        assert!(
            rate(P::BoostLikes) < rate(P::AuthenticLikes) + 0.02,
            "stealth farm survives: BL {} vs AL {}",
            rate(P::BoostLikes),
            rate(P::AuthenticLikes)
        );
        assert!(
            t.provider(P::AuthenticLikes) + t.provider(P::SocialFormula)
                > t.provider(P::BoostLikes),
            "bot farms purged more than stealth"
        );
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let a = run_study(&StudyConfig::paper(7, 0.03));
        let b = run_study(&StudyConfig::paper(7, 0.03));
        assert_eq!(
            a.report.to_json().unwrap(),
            b.report.to_json().unwrap(),
            "a (seed, scale) pair must regenerate the identical study"
        );
        let c = run_study(&StudyConfig::paper(8, 0.03));
        assert_ne!(a.report.to_json().unwrap(), c.report.to_json().unwrap());
    }

    #[test]
    fn logged_run_matches_unlogged_run() {
        let config = StudyConfig::paper(11, 0.03);
        let plain = run_study(&config);
        let logged = run_study_opts(
            &config,
            &RunOptions {
                capture_log: true,
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            plain.report.to_json().unwrap(),
            logged.report.to_json().unwrap(),
            "capturing the log must not perturb the run"
        );
        let log = logged.log.expect("log captured");
        assert!(log.records().len() > 1_000, "log is non-trivial");
    }

    #[test]
    fn log_out_file_round_trips() {
        let dir = std::env::temp_dir().join(format!("likelab-log-out-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("world.log");
        let config = StudyConfig::paper(11, 0.03);
        let streamed = RunOptions {
            log_out: Some(path.clone()),
            ..RunOptions::default()
        };
        // A streamed log keeps no records, so there are none to capture.
        for both in [
            RunOptions {
                capture_log: true,
                ..streamed.clone()
            },
            RunOptions {
                capture_log: true,
                checkpoint_dir: Some(dir.join("ckpt")),
                ..RunOptions::default()
            },
        ] {
            match run_study_opts(&config, &both) {
                Err(StudyError::Mismatch(why)) => assert!(why.contains("capture_log"), "{why}"),
                Err(e) => panic!("expected a Mismatch, got {e}"),
                Ok(_) => panic!("capture_log ran beside a streamed log"),
            }
        }
        assert!(!path.exists(), "a refused run writes no log");
        let outcome = run_study_opts(&config, &streamed).unwrap();
        let log = outcome.log.as_ref().expect("the run was logging");
        assert_eq!(log.records().len(), 0, "a streamed log keeps no records");
        assert!(log.to_binary().is_err(), "nor bytes to encode");
        // The streamed file reads back, and replay rebuilds the same study
        // from it.
        let (header, records) = crate::read_study_log(&path).unwrap();
        assert_eq!(
            crate::record::config_from_header(&header).unwrap().seed,
            config.seed
        );
        assert!(records.len() > 1_000);
        let replayed =
            crate::replay::replay_study(&path, &crate::ReplayOptions::default()).unwrap();
        assert_eq!(
            replayed.report.to_json().unwrap(),
            outcome.report.to_json().unwrap(),
            "the streamed log must replay to the identical report"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn monitoring_windows_are_plausible() {
        let o = outcome();
        for c in &o.dataset.campaigns {
            if c.inactive {
                assert!(c.monitoring_days.is_none());
            } else {
                let days = c.monitoring_days.expect("active campaigns stop eventually");
                assert!((8..=40).contains(&days), "{}: {} days", c.spec.label, days);
            }
        }
    }

    #[test]
    fn report_renders_non_trivially() {
        let o = outcome();
        let text = o.report.render();
        assert!(text.contains("FB-USA"));
        assert!(text.contains("MS-USA"));
        assert!(text.contains("ALMS"));
        assert!(text.len() > 2_000);
    }
}
