//! Organic-population synthesis.
//!
//! Builds the background world the honeypot study runs inside: accounts with
//! country/age/gender demographics, a community-structured friendship graph
//! with heavy-tailed degrees, a Zipf-popular background page catalogue, and
//! per-user like histories.
//!
//! Two account classes come out of here:
//!
//! - **Organic** users: global demographics, median ≈ 34 page likes (the
//!   paper's baseline sample), and no interest whatsoever in honeypot pages
//!   (the pages literally say "do not like this").
//! - **Click-prone** users: the segment legitimate ad campaigns
//!   disproportionately reach — young, mostly male in IN/EG (the paper's
//!   Table 2 shows 93–94% male there), very high page-like counts (median
//!   600–1000 in the paper's Figure 4). Their prevalence per country is a
//!   calibration knob; the paper's FB-ALL campaign landing 96% in India is
//!   reproduced by their geography and by per-country ad prices.
//!
//! Background likes are timestamped inside a *history window* before the
//! campaign launch; the study simply launches at the end of that window.

use crate::account::{ActorClass, PrivacySettings};
use crate::demographics::{AgeBracket, Blueprint, Country, Gender, GLOBAL_AGE_DIST};
use crate::likes::LikeColumns;
use crate::page::PageCategory;
use crate::world::OsnWorld;
use likelab_graph::{generate, PageId, UserId};
use likelab_sim::dist::{log_normal_median, Zipf};
use likelab_sim::{parallel_map, parallel_owned, split_spans, Exec, Rng, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Configuration of the synthetic population.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PopulationConfig {
    /// Number of organic accounts.
    pub n_organic: usize,
    /// Country mix of the organic population, as weights.
    pub country_mix: Vec<(Country, f64)>,
    /// Click-prone accounts created per country, as a fraction of that
    /// country's organic head-count.
    pub click_prone_fraction: Vec<(Country, f64)>,
    /// Median friend count of organic users (log-normal).
    pub organic_degree_median: f64,
    /// Log-space spread of organic degrees.
    pub organic_degree_sigma: f64,
    /// Median friend count of click-prone users (Table 3's Facebook row:
    /// median 198, mean 315 ± 454).
    pub click_prone_degree_median: f64,
    /// Log-space spread of click-prone degrees.
    pub click_prone_degree_sigma: f64,
    /// Fraction of friendship edges wired across countries rather than
    /// inside the home community.
    pub cross_country_edge_fraction: f64,
    /// Fraction of each user's friends that exist *inside* the simulated
    /// window as real edges; the rest become `off_network_friends` so
    /// reported friend counts stay scale-invariant.
    pub in_world_degree_fraction: f64,
    /// In-world fraction for click-prone users, much lower: the paper's
    /// Facebook likers had only 6 friendships among 1448 people — ad
    /// clickers are scattered individuals whose friends are overwhelmingly
    /// outside any crawlable window, not a community sample.
    pub click_prone_in_world_fraction: f64,
    /// Number of background pages in the catalogue.
    pub n_background_pages: usize,
    /// Fraction of the catalogue that is globally popular; the rest splits
    /// into per-country slices (Indian users mostly like Indian pages).
    /// The slicing is what keeps Figure 5(a)'s cross-campaign page
    /// similarities from washing out: campaigns only overlap through the
    /// global head and shared slices.
    pub global_page_fraction: f64,
    /// Fraction of each user's background likes drawn from the global head
    /// rather than their country slice.
    pub global_like_fraction: f64,
    /// Zipf exponent of page popularity.
    pub zipf_exponent: f64,
    /// Median background-like count of organic users (the paper's baseline:
    /// median 34, mean ≈ 40).
    pub organic_like_median: f64,
    /// Log-space spread of organic like counts.
    pub organic_like_sigma: f64,
    /// Median like count of click-prone users (paper: 600–1000).
    pub click_prone_like_median: f64,
    /// Log-space spread of click-prone like counts.
    pub click_prone_like_sigma: f64,
    /// Probability an organic account has a public friend list (the paper
    /// observed ~80% of Facebook-campaign likers keeping it private).
    pub organic_friend_list_public: f64,
    /// Probability a click-prone account has a public friend list
    /// (Table 3: 18% for the Facebook group).
    pub click_prone_friend_list_public: f64,
    /// Probability the liked-page list is public (page likes were broadly
    /// crawlable in 2014).
    pub likes_public: f64,
    /// Probability an account appears in the public directory.
    pub searchable: f64,
    /// Length of the pre-launch history window the background likes are
    /// spread over.
    pub history: SimDuration,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            n_organic: 60_000,
            // Calibrated mix: the countries the study touches are
            // over-weighted relative to the real platform so that scaled-down
            // worlds still contain enough of each audience (documented in
            // DESIGN.md — a scale artifact, not a claim about Facebook).
            country_mix: vec![
                (Country::Usa, 0.13),
                (Country::France, 0.05),
                (Country::India, 0.16),
                (Country::Egypt, 0.08),
                (Country::Turkey, 0.07),
                (Country::Brazil, 0.12),
                (Country::Indonesia, 0.11),
                (Country::Philippines, 0.08),
                (Country::Uk, 0.06),
                (Country::Mexico, 0.14),
            ],
            click_prone_fraction: vec![
                (Country::Usa, 0.010),
                (Country::France, 0.020),
                (Country::India, 0.16),
                (Country::Egypt, 0.15),
                (Country::Turkey, 0.035),
                (Country::Brazil, 0.020),
                (Country::Indonesia, 0.030),
                (Country::Philippines, 0.030),
                (Country::Uk, 0.008),
                (Country::Mexico, 0.015),
            ],
            organic_degree_median: 120.0,
            organic_degree_sigma: 0.9,
            click_prone_degree_median: 198.0,
            click_prone_degree_sigma: 1.0,
            cross_country_edge_fraction: 0.12,
            in_world_degree_fraction: 0.5,
            click_prone_in_world_fraction: 0.025,
            n_background_pages: 30_000,
            global_page_fraction: 0.4,
            global_like_fraction: 0.55,
            zipf_exponent: 1.05,
            organic_like_median: 34.0,
            organic_like_sigma: 1.1,
            click_prone_like_median: 750.0,
            click_prone_like_sigma: 0.8,
            organic_friend_list_public: 0.25,
            click_prone_friend_list_public: 0.18,
            likes_public: 0.95,
            searchable: 0.85,
            history: SimDuration::days(365),
        }
    }
}

impl PopulationConfig {
    /// Scale the population size down (or up) by `factor`, keeping all
    /// distributional parameters fixed. Campaign like-targets scale with the
    /// same factor in the study runner, so percentages survive.
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale must be positive");
        (self.n_organic, self.n_background_pages) = self.scaled_sizes(factor);
        // The in-world share of each friend list shrinks with the world so
        // the graph stays sparse at tiny scales; *total* friend counts (what
        // Table 3 reports) stay fixed via off-network top-up.
        if factor < 1.0 {
            self.in_world_degree_fraction =
                (self.in_world_degree_fraction * factor.max(0.02).sqrt()).max(0.02);
            self.click_prone_in_world_fraction =
                (self.click_prone_in_world_fraction * factor.max(0.02).sqrt()).max(0.005);
        }
        self
    }

    /// `(n_organic, n_background_pages)` of [`scaled`](Self::scaled) at
    /// `factor`, without its check: any factor, NaN and negative ones
    /// included, gives at least the floors.
    pub fn scaled_sizes(&self, factor: f64) -> (usize, usize) {
        let n_organic = ((self.n_organic as f64 * factor).round() as usize).max(100);
        // The catalogue must stay much larger than the heaviest per-user like
        // count, or Zipf dedup would silently compress everyone's history
        // and Figure 5(a)'s similarities would saturate.
        let n_pages = ((self.n_background_pages as f64 * factor).round() as usize)
            .max(12_000)
            .max((self.click_prone_like_median * 8.0) as usize);
        (n_organic, n_pages)
    }
}

/// Handles into the synthesized population, used by the ad engine and the
/// public-directory sampler.
#[derive(Clone, Debug, Default)]
pub struct Population {
    /// All organic account ids.
    pub organic: Vec<UserId>,
    /// All click-prone account ids.
    pub click_prone: Vec<UserId>,
    /// Click-prone ids per country (the ad auction's reachable audiences).
    /// Ordered map: iteration order must be deterministic (seeded runs).
    pub click_prone_by_country: BTreeMap<Country, Vec<UserId>>,
    /// Background page catalogue ids (global head followed by slices).
    pub background_pages: Vec<PageId>,
    /// The globally popular head of the catalogue.
    pub global_pages: Vec<PageId>,
    /// Per-country page slices (local brands, media, memes).
    pub country_slices: BTreeMap<Country, Vec<PageId>>,
    /// When the campaign launch happens (end of the history window).
    pub launch: SimTime,
}

/// Samples background pages with the global-head/country-slice mixture.
///
/// It hands out one [`CountrySampler`] per user, so the draws of a user's
/// like history look nothing up by country.
pub struct BackgroundSampler<'a> {
    global: (&'a [PageId], Zipf),
    slices: BTreeMap<Country, (&'a [PageId], Zipf)>,
    global_like_fraction: f64,
}

impl<'a> BackgroundSampler<'a> {
    /// Build a sampler over the population's catalogue.
    pub fn new(pop: &'a Population, config: &PopulationConfig) -> Self {
        let zipf = |pages: &[PageId]| Zipf::new(pages.len().max(1), config.zipf_exponent);
        BackgroundSampler {
            global: (&pop.global_pages, zipf(&pop.global_pages)),
            slices: pop
                .country_slices
                .iter()
                .filter(|(_, pages)| !pages.is_empty())
                .map(|(c, pages)| (*c, (pages.as_slice(), zipf(pages))))
                .collect(),
            global_like_fraction: config.global_like_fraction,
        }
    }

    /// The sampler for users from `country`.
    pub fn for_country(&self, country: Country) -> CountrySampler<'_> {
        let (global_pages, global_zipf) = &self.global;
        CountrySampler {
            global: (global_pages, global_zipf),
            slice: self
                .slices
                .get(&country)
                .map(|(pages, zipf)| (*pages, zipf)),
            global_like_fraction: self.global_like_fraction,
        }
    }
}

/// Background page draws for users from one country: its slice and the
/// global head, each with its Zipf, resolved once.
pub struct CountrySampler<'a> {
    global: (&'a [PageId], &'a Zipf),
    /// The country's slice; `None` when it has none or an empty one.
    slice: Option<(&'a [PageId], &'a Zipf)>,
    global_like_fraction: f64,
}

impl CountrySampler<'_> {
    /// One background page draw. A country without slice pages always
    /// draws from the global head and spends no draw on the choice.
    #[inline]
    pub fn sample(&self, rng: &mut Rng) -> PageId {
        let (pages, zipf) = match self.slice {
            Some(slice) if !rng.chance(self.global_like_fraction) => slice,
            _ => self.global,
        };
        pages[zipf.sample(rng)]
    }
}

/// Demographic blueprint of the click-prone segment in one country.
///
/// Calibrated to Table 2: FB-USA likers were 54% female and very young;
/// FB-IND/FB-EGY were 93/82% male and 13–24. The blueprint interpolates:
/// western clickers skew young-female, the rest young-male.
fn click_prone_blueprint(country: Country) -> Blueprint {
    let (female, ages) = match country {
        Country::Usa => (0.54, [0.54, 0.27, 0.07, 0.07, 0.01, 0.04]),
        Country::France => (0.46, [0.61, 0.21, 0.09, 0.02, 0.05, 0.02]),
        Country::India => (0.07, [0.53, 0.43, 0.02, 0.01, 0.005, 0.005]),
        Country::Egypt => (0.18, [0.55, 0.34, 0.06, 0.03, 0.01, 0.01]),
        _ => (0.20, [0.45, 0.40, 0.08, 0.04, 0.02, 0.01]),
    };
    Blueprint {
        female_fraction: female,
        age_weights: ages,
        country_weights: vec![(country, 1.0)],
    }
}

thread_local! {
    /// Epoch-stamped page-membership scratch for like-history dedup:
    /// `stamps[page] == epoch` means "this user already drew that page".
    /// Bumping the epoch clears the set in O(1) between users.
    static SEEN_STAMPS: std::cell::RefCell<(Vec<u32>, u32)> =
        const { std::cell::RefCell::new((Vec::new(), 0)) };
}

/// Synthesize the population into `world`, returning the handles.
///
/// Uses [`Exec::auto`] for the parallel like-history stage; see
/// [`synthesize_with`] for the determinism contract.
pub fn synthesize(world: &mut OsnWorld, config: &PopulationConfig, rng: &mut Rng) -> Population {
    synthesize_with(world, config, rng, Exec::auto())
}

/// Synthesize the population into `world` under an explicit execution policy.
///
/// Account creation and graph wiring mutate the world arena and stay
/// sequential. Like-history synthesis — the dominant cost at paper scale —
/// fans out over ranges of users: user `j` draws from `likes_rng.split(j)`,
/// a stream that depends only on the seed and the user's index, and the
/// rows are then put in one global order, so the history is the same for
/// [`Exec::Sequential`] and any worker count.
pub fn synthesize_with(
    world: &mut OsnWorld,
    config: &PopulationConfig,
    rng: &mut Rng,
    exec: Exec,
) -> Population {
    likelab_obs::span!("population.synthesize");
    let mut pop = Population {
        launch: SimTime::EPOCH + config.history,
        ..Population::default()
    };
    let mut account_rng = rng.fork("population.accounts");
    let mut graph_rng = rng.fork("population.graph");
    let likes_rng = rng.fork("population.likes");

    // --- accounts, grouped by country ---------------------------------
    let accounts_span = likelab_obs::span::enter("population.accounts");
    let total_weight: f64 = config.country_mix.iter().map(|(_, w)| w).sum();
    let mut organic_by_country: BTreeMap<Country, Vec<UserId>> = BTreeMap::new();
    let mut degree_target: Vec<(UserId, f64)> = Vec::new();

    for (country, weight) in &config.country_mix {
        let n_c = ((config.n_organic as f64) * weight / total_weight).round() as usize;
        let blueprint = Blueprint::global_with_countries(vec![(*country, 1.0)]);
        let mut ids = Vec::with_capacity(n_c);
        for _ in 0..n_c {
            let profile = blueprint.sample(&mut account_rng);
            let privacy = PrivacySettings {
                friend_list_public: account_rng.chance(config.organic_friend_list_public),
                likes_public: account_rng.chance(config.likes_public),
                searchable: account_rng.chance(config.searchable),
            };
            // Account ages: organic accounts were created throughout the
            // platform's life — anywhere in the history window.
            let created = SimTime::from_secs(account_rng.below(config.history.as_secs().max(1)));
            let id = world.create_account(profile, ActorClass::Organic, privacy, created);
            let target = log_normal_median(
                &mut account_rng,
                config.organic_degree_median,
                config.organic_degree_sigma,
            );
            degree_target.push((id, target.min(5_000.0)));
            ids.push(id);
            pop.organic.push(id);
        }

        // Click-prone accounts for this country.
        let frac = config
            .click_prone_fraction
            .iter()
            .find(|(c, _)| c == country)
            .map(|(_, f)| *f)
            .unwrap_or(0.0);
        let n_cp = ((n_c as f64) * frac).round() as usize;
        let cp_blueprint = click_prone_blueprint(*country);
        let mut cp_ids = Vec::with_capacity(n_cp);
        for _ in 0..n_cp {
            let profile = cp_blueprint.sample(&mut account_rng);
            let privacy = PrivacySettings {
                friend_list_public: account_rng.chance(config.click_prone_friend_list_public),
                likes_public: account_rng.chance(config.likes_public),
                searchable: account_rng.chance(config.searchable),
            };
            let created = SimTime::from_secs(account_rng.below(config.history.as_secs().max(1)));
            let id = world.create_account(profile, ActorClass::ClickProne, privacy, created);
            let target = log_normal_median(
                &mut account_rng,
                config.click_prone_degree_median,
                config.click_prone_degree_sigma,
            );
            degree_target.push((id, target.min(5_000.0)));
            cp_ids.push(id);
            pop.click_prone.push(id);
            ids.push(id);
        }
        pop.click_prone_by_country.insert(*country, cp_ids);
        organic_by_country.insert(*country, ids);
    }
    drop(accounts_span);
    let graph_span = likelab_obs::span::enter("population.graph");

    // --- friendships ----------------------------------------------------
    // Each account carries a scale-invariant *total* friend-count target;
    // only a small in-world fraction becomes real edges (within-country
    // Chung–Lu among organics plus a cross-country slice for global
    // connectivity — mutual friends across communities feed the 2-hop
    // analysis). The rest is topped up as off-network friends afterwards.
    //
    // Click-prone users attach *to organics only*, and sparsely: the
    // paper's Facebook-campaign likers shared almost no friendships with
    // each other (6 among 1448) — they are scattered individuals, not a
    // community. Wiring them into the compressed community graph like
    // everyone else would fabricate a dense liker graph the real study
    // never saw.
    let target_of: HashMap<UserId, f64> = degree_target.iter().copied().collect();
    let cp_set: std::collections::HashSet<UserId> = pop.click_prone.iter().copied().collect();
    let in_world = config.in_world_degree_fraction.clamp(0.0, 1.0);
    let cp_in_world = config.click_prone_in_world_fraction.clamp(0.0, 1.0);
    for (country, members) in &organic_by_country {
        let organics: Vec<UserId> = members
            .iter()
            .copied()
            .filter(|u| !cp_set.contains(u))
            .collect();
        let targets: Vec<f64> = organics
            .iter()
            .map(|u| target_of[u] * in_world * (1.0 - config.cross_country_edge_fraction))
            .collect();
        world.generate_friendships(|g| generate::chung_lu(g, &organics, &targets, &mut graph_rng));
        // Click-prone attachment: a handful of edges into the organic
        // community, never to other clickers.
        if organics.is_empty() {
            continue;
        }
        let clickers = pop
            .click_prone_by_country
            .get(country)
            .cloned()
            .unwrap_or_default();
        for cp in clickers {
            let k = (target_of[&cp] * cp_in_world).round() as usize;
            for _ in 0..k {
                let friend = organics[graph_rng.index(organics.len())];
                world.add_friendship(cp, friend);
            }
        }
    }
    let all_organics: Vec<UserId> = pop.organic.clone();
    let cross_targets: Vec<f64> = all_organics
        .iter()
        .map(|u| target_of[u] * in_world * config.cross_country_edge_fraction)
        .collect();
    world.generate_friendships(|g| {
        generate::chung_lu(g, &all_organics, &cross_targets, &mut graph_rng)
    });
    for (u, total) in &degree_target {
        let realized = world.friends().degree(*u) as f64;
        let off = (total - realized).max(0.0).round() as u32;
        world.set_off_network_friends(*u, off);
    }
    drop(graph_span);
    let catalogue_span = likelab_obs::span::enter("population.catalogue");

    // --- background catalogue: global head + country slices ---------------
    let n_global =
        ((config.n_background_pages as f64) * config.global_page_fraction).round() as usize;
    for i in 0..n_global {
        let id = world.create_page(
            format!("bg-global-{i}"),
            "",
            None,
            PageCategory::Background,
            SimTime::EPOCH,
        );
        pop.background_pages.push(id);
        pop.global_pages.push(id);
    }
    let slice_total = config.n_background_pages - n_global;
    for (country, weight) in &config.country_mix {
        let n_slice = (((slice_total as f64) * weight / total_weight).round() as usize).max(50);
        let mut slice = Vec::with_capacity(n_slice);
        for i in 0..n_slice {
            let id = world.create_page(
                format!("bg-{country}-{i}"),
                "",
                None,
                PageCategory::Background,
                SimTime::EPOCH,
            );
            pop.background_pages.push(id);
            slice.push(id);
        }
        pop.country_slices.insert(*country, slice);
    }
    drop(catalogue_span);
    likelab_obs::span!("population.likes");

    // --- like histories ----------------------------------------------------
    // The dominant cost at full scale, and embarrassingly parallel: every
    // user's history is an independent draw. User `j` gets the split stream
    // `likes_rng.split(j)` — a pure function of the seed and the index — so
    // ranges of users can run on any worker in any order and still produce
    // exactly the history the sequential loop would.
    let sampler = BackgroundSampler::new(&pop, config);
    let history_secs = config.history.as_secs().max(1);
    let jobs: Vec<(UserId, Country, f64, f64)> = pop
        .organic
        .iter()
        .map(|u| (*u, config.organic_like_median, config.organic_like_sigma))
        .chain(pop.click_prone.iter().map(|u| {
            (
                *u,
                config.click_prone_like_median,
                config.click_prone_like_sigma,
            )
        }))
        .map(|(id, median, sigma)| (id, world.profile(id).country, median, sigma))
        .collect();
    let n_total_pages = world.page_count();
    let max_likes = (config.n_background_pages / 2).min(10_000);
    let like_target = |user_rng: &mut Rng, (_, _, median, sigma): (UserId, Country, f64, f64)| {
        (log_normal_median(user_rng, median, sigma).round() as usize).min(max_likes)
    };
    let ranges: Vec<std::ops::Range<usize>> = (0..jobs.len())
        .step_by(DRAW_RANGE_USERS)
        .map(|lo| lo..(lo + DRAW_RANGE_USERS).min(jobs.len()))
        .collect();
    let draw_span = likelab_obs::span::enter("population.likes.draw");
    let draws = parallel_map(exec, &ranges, |_, range| {
        // One buffer per range, sized from its users' like targets (each
        // target is the first draw of the user's stream, so it is cheap to
        // draw twice).
        let capacity = range
            .clone()
            .map(|j| like_target(&mut likes_rng.split(j as u64), jobs[j]))
            .sum();
        let mut rows: Vec<Row> = Vec::with_capacity(capacity);
        // Distinct pages: Zipf concentrates mass on the head, so rejection
        // on a per-user seen-set keeps realized like counts on target. The
        // set is an epoch-stamped array indexed by page id — thread-local
        // scratch reused across users, so dedup costs one word probe
        // instead of a hash per draw and allocates nothing per user.
        // Membership answers are exactly a `HashSet`'s, so the RNG stream
        // is unchanged.
        SEEN_STAMPS.with(|cell| {
            let (stamps, epoch) = &mut *cell.borrow_mut();
            if stamps.len() < n_total_pages {
                stamps.resize(n_total_pages, 0);
            }
            for j in range.clone() {
                let (id, country, _, _) = jobs[j];
                let pages = sampler.for_country(country);
                let mut user_rng = likes_rng.split(j as u64);
                let n_likes = like_target(&mut user_rng, jobs[j]);
                *epoch += 1;
                if *epoch == 0 {
                    stamps.fill(0);
                    *epoch = 1;
                }
                let (mut accepted, mut attempts) = (0usize, 0usize);
                while accepted < n_likes && attempts < n_likes * 8 + 16 {
                    attempts += 1;
                    let page = pages.sample(&mut user_rng);
                    let slot = &mut stamps[page.idx()];
                    if *slot != *epoch {
                        *slot = *epoch;
                        accepted += 1;
                        let at = SimTime::from_secs(user_rng.below(history_secs));
                        rows.push((at, id, page));
                    }
                }
            }
        });
        rows
    });
    drop(draw_span);
    let total: usize = draws.iter().map(Vec::len).sum();
    likelab_obs::metrics::counter("likes.synthesized", total as u64);
    // The ledger requires chronological per-page streams: sort globally
    // into columns, then bulk-ingest them through the sharded columnar
    // path, which takes the columns over rather than copying them (the
    // outcome is identical to recording each like in order).
    let cols = sort_into_columns(draws, history_secs, bucket_count(total), exec);
    let ingest_span = likelab_obs::span::enter("population.likes.ingest");
    world.ingest_like_columns_owned(cols, exec);
    drop(ingest_span);

    pop
}

/// One drawn background like, laid out as its sort key: `(at, user, page)`
/// *is* the global order of the population's batch.
type Row = (SimTime, UserId, PageId);

/// Users per like-history draw job: enough jobs to keep every worker busy
/// while the heavy click-prone users (the tail of the job list) finish.
const DRAW_RANGE_USERS: usize = 256;

/// Rows per time bucket the sort aims for: 32 Ki rows of 16 bytes, about
/// a core's L2 cache.
const BUCKET_ROWS: usize = 1 << 15;

/// At most this many buckets, so the one scattering pass writes to few
/// enough places at once to stay cache- and TLB-friendly.
const MAX_BUCKETS: usize = 256;

/// The time-bucket count [`sort_into_columns`] uses for `rows` rows.
fn bucket_count(rows: usize) -> usize {
    rows.div_ceil(BUCKET_ROWS).clamp(1, MAX_BUCKETS)
}

/// Sort drawn rows by `(at, user, page)` into exact-size columns.
///
/// `window_secs` bounds every row's `at` (drawn uniformly from
/// `[0, window_secs)`), and splitting that window into `buckets` equal
/// slices splits the rows into balanced runs whose order is the order of
/// the slices. One pass scatters the rows straight into their bucket's
/// region of the columns; then each bucket's region is sorted on its own
/// ([`sort_bucket`]). Both run through `exec`. The result is exactly the
/// columns of the sorted rows, for any monotone bucket map, any bucket
/// count and any `exec`: the key determines the whole row, so no order
/// among equal keys is left to chance.
fn sort_into_columns(
    draws: Vec<Vec<Row>>,
    window_secs: u64,
    buckets: usize,
    exec: Exec,
) -> LikeColumns {
    let partition_span = likelab_obs::span::enter("population.likes.partition");
    let bucket_of = bucket_map(window_secs, buckets);
    // Consecutive draw buffers holding about equal shares of the rows form
    // one scatter job each.
    let total: usize = draws.iter().map(Vec::len).sum();
    let n_jobs = exec.job_count();
    let mut jobs: Vec<Vec<Vec<Row>>> = vec![Vec::new(); n_jobs];
    let mut before = 0;
    for rows in draws {
        let job = (before * n_jobs / total.max(1)).min(n_jobs - 1);
        before += rows.len();
        jobs[job].push(rows);
    }
    let histograms = parallel_map(exec, &jobs, |_, job| {
        let mut counts = vec![0usize; buckets];
        for &(at, _, _) in job.iter().flatten() {
            counts[bucket_of(at)] += 1;
        }
        counts
    });
    let lens: Vec<usize> = (0..buckets)
        .map(|b| histograms.iter().map(|counts| counts[b]).sum())
        .collect();
    let n = lens.iter().sum();
    let mut cols = LikeColumns {
        users: vec![UserId(0); n],
        pages: vec![PageId(0); n],
        times: vec![SimTime::EPOCH; n],
    };
    // Inside each bucket's region of the columns, every job owns the run
    // its own rows fill, in job order: the jobs write disjoint spans.
    let run_lens = (0..buckets).flat_map(|b| histograms.iter().map(move |counts| counts[b]));
    let runs = split_spans(&mut cols.times, run_lens.clone())
        .zip(split_spans(&mut cols.users, run_lens.clone()))
        .zip(split_spans(&mut cols.pages, run_lens));
    let mut runs_of_job: Vec<Vec<_>> = (0..n_jobs).map(|_| Vec::with_capacity(buckets)).collect();
    for (k, run) in runs.enumerate() {
        runs_of_job[k % n_jobs].push(run);
    }
    parallel_owned(
        exec,
        jobs.into_iter().zip(runs_of_job),
        |_, (job, mut runs)| {
            let mut filled = vec![0usize; buckets];
            for (at, user, page) in job.into_iter().flatten() {
                let b = bucket_of(at);
                let ((times, users), pages) = &mut runs[b];
                times[filled[b]] = at;
                users[filled[b]] = user;
                pages[filled[b]] = page;
                filled[b] += 1;
            }
        },
    );
    drop(partition_span);

    let _sort_span = likelab_obs::span::enter("population.likes.sort");
    let spans = split_spans(&mut cols.times, lens.iter().copied())
        .zip(split_spans(&mut cols.users, lens.iter().copied()))
        .zip(split_spans(&mut cols.pages, lens.iter().copied()));
    // Consecutive buckets share a job, and a job one key scratch for its
    // largest bucket's rows.
    let per_job = buckets.div_ceil(exec.job_count());
    let mut groups: Vec<Vec<_>> = Vec::new();
    for (b, span) in spans.enumerate() {
        if b % per_job == 0 {
            groups.push(Vec::with_capacity(per_job));
        }
        if let Some(group) = groups.last_mut() {
            group.push(span);
        }
    }
    parallel_owned(exec, groups, |_, group| {
        let largest = group.iter().map(|((t, _), _)| t.len()).max().unwrap_or(0);
        let mut keys = vec![0u128; largest];
        for ((times, users), pages) in group {
            let n = times.len();
            sort_bucket(times, users, pages, &mut keys[..n]);
        }
    });
    cols
}

/// The time-bucket map of [`sort_into_columns`]: about
/// `at * buckets / window_secs`, as one multiply and a shift by a 64.64
/// fixed-point factor computed once. It is monotone in `at`, and below
/// `buckets` for every `at < window_secs`: `at * factor <= (window_secs -
/// 1) * buckets * 2^64 / window_secs < buckets * 2^64`, which also keeps
/// the product inside a `u128`.
fn bucket_map(window_secs: u64, buckets: usize) -> impl Fn(SimTime) -> usize + Copy {
    let factor = ((buckets as u128) << 64) / u128::from(window_secs);
    move |at: SimTime| ((u128::from(at.as_secs()) * factor) >> 64) as usize
}

/// Bits per radix digit of [`sort_bucket`]: 2 Ki counters per pass.
const RADIX_BITS: u32 = 11;

/// The most radix passes a bucket takes: enough digits for a 64-bit span.
const MAX_PASSES: usize = u64::BITS.div_ceil(RADIX_BITS) as usize;

/// A row packed as one integer whose order is the row's `(at, user, page)`
/// order.
#[inline]
fn row_key(at: SimTime, user: UserId, page: PageId) -> u128 {
    u128::from(at.as_secs()) << 64 | u128::from(user.0) << 32 | u128::from(page.0)
}

/// The row [`row_key`] packs.
#[inline]
fn row_of_key(key: u128) -> Row {
    (
        SimTime::from_secs((key >> 64) as u64),
        UserId((key >> 32) as u32),
        PageId(key as u32),
    )
}

/// Sort one bucket's rows by `(at, user, page)` in place, with `keys` (as
/// long as the bucket) as its only buffer.
///
/// An LSD radix sort on `at - min_at` in [`RADIX_BITS`]-bit digits, with
/// as many passes as the bucket's own time span needs: none when every
/// `at` is equal, six for a 64-bit span. Each pass scatters the rows
/// stably by one digit, from the columns into `keys` or back, so after the
/// last pass (and a copy back when the count is odd) the columns are in
/// `at` order. Each run of equal `at` is then ordered by `(user, page)`.
fn sort_bucket(
    times: &mut [SimTime],
    users: &mut [UserId],
    pages: &mut [PageId],
    keys: &mut [u128],
) {
    let Some(&first) = times.first() else {
        return;
    };
    let (min, max) = times
        .iter()
        .fold((first, first), |(lo, hi), &at| (lo.min(at), hi.max(at)));
    let span = max.as_secs() - min.as_secs();
    let passes = (u64::BITS - span.leading_zeros()).div_ceil(RADIX_BITS) as usize;
    let digit = |at: SimTime, pass: usize| {
        ((at.as_secs() - min.as_secs()) >> (pass as u32 * RADIX_BITS)) as usize
            & ((1 << RADIX_BITS) - 1)
    };
    // Every pass's digit counts in one read of the times, then turned into
    // each digit's first slot.
    let mut slots = [[0usize; 1 << RADIX_BITS]; MAX_PASSES];
    for &at in times.iter() {
        for (pass, counts) in slots[..passes].iter_mut().enumerate() {
            counts[digit(at, pass)] += 1;
        }
    }
    for counts in &mut slots[..passes] {
        let mut next = 0;
        for slot in counts.iter_mut() {
            (*slot, next) = (next, next + *slot);
        }
    }
    for (pass, next) in slots[..passes].iter_mut().enumerate() {
        if pass % 2 == 0 {
            for ((&at, &user), &page) in times.iter().zip(users.iter()).zip(pages.iter()) {
                let slot = &mut next[digit(at, pass)];
                keys[*slot] = row_key(at, user, page);
                *slot += 1;
            }
        } else {
            for &key in keys.iter() {
                let row = row_of_key(key);
                let slot = &mut next[digit(row.0, pass)];
                (times[*slot], users[*slot], pages[*slot]) = row;
                *slot += 1;
            }
        }
    }
    if passes % 2 == 1 {
        for (k, &key) in keys.iter().enumerate() {
            (times[k], users[k], pages[k]) = row_of_key(key);
        }
    }
    let mut start = 0;
    for run in times.chunk_by(|a, b| a == b) {
        let (at, end) = (run[0], start + run.len());
        if run.len() > 1 {
            let keys = &mut keys[..run.len()];
            for (k, key) in (start..end).zip(keys.iter_mut()) {
                *key = row_key(at, users[k], pages[k]);
            }
            keys.sort_unstable();
            for (k, &key) in (start..end).zip(keys.iter()) {
                (_, users[k], pages[k]) = row_of_key(key);
            }
        }
        start = end;
    }
}

/// Age distribution (fractions over the six brackets) of a set of accounts —
/// convenience used by tests and the calibration benches.
pub fn age_distribution(world: &OsnWorld, users: &[UserId]) -> [f64; 6] {
    let mut counts = [0usize; 6];
    for u in users {
        counts[world.profile(*u).age_bracket().index()] += 1;
    }
    let total = users.len().max(1) as f64;
    let mut out = [0.0; 6];
    for (i, c) in counts.iter().enumerate() {
        out[i] = *c as f64 / total;
    }
    out
}

/// Female fraction of a set of accounts.
pub fn female_fraction(world: &OsnWorld, users: &[UserId]) -> f64 {
    if users.is_empty() {
        return 0.0;
    }
    users
        .iter()
        .filter(|u| world.profile(**u).gender == Gender::Female)
        .count() as f64
        / users.len() as f64
}

/// Sanity helper: checks the global age marginals roughly hold for a user
/// set (used in tests; tolerance in absolute fraction per bracket).
pub fn age_matches_global(dist: &[f64; 6], tolerance: f64) -> bool {
    AgeBracket::ALL
        .iter()
        .enumerate()
        .all(|(i, _)| (dist[i] - GLOBAL_AGE_DIST[i]).abs() <= tolerance)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> PopulationConfig {
        PopulationConfig::default().scaled(0.02) // 1200 organics
    }

    fn build() -> (OsnWorld, Population, PopulationConfig) {
        let mut world = OsnWorld::new();
        let config = small_config();
        let mut rng = Rng::seed_from_u64(7);
        let pop = synthesize(&mut world, &config, &mut rng);
        (world, pop, config)
    }

    #[test]
    fn population_sizes_match_config() {
        let (world, pop, config) = build();
        assert!(
            (pop.organic.len() as f64 / config.n_organic as f64 - 1.0).abs() < 0.02,
            "organic count {} vs {}",
            pop.organic.len(),
            config.n_organic
        );
        assert!(!pop.click_prone.is_empty());
        assert_eq!(
            world.account_count(),
            pop.organic.len() + pop.click_prone.len()
        );
        assert_eq!(world.page_count(), config.n_background_pages);
    }

    #[test]
    fn click_prone_geography_is_skewed() {
        let (_, pop, _) = build();
        let india = pop.click_prone_by_country[&Country::India].len();
        let usa = pop.click_prone_by_country[&Country::Usa].len();
        assert!(
            india > usa * 5,
            "India clickers ({india}) should dwarf USA ({usa})"
        );
    }

    #[test]
    fn organic_demographics_match_global_marginals() {
        let (world, pop, _) = build();
        let dist = age_distribution(&world, &pop.organic);
        assert!(
            age_matches_global(&dist, 0.04),
            "organic age dist {dist:?} vs global {GLOBAL_AGE_DIST:?}"
        );
        let f = female_fraction(&world, &pop.organic);
        assert!((f - 0.46).abs() < 0.04, "female fraction {f}");
    }

    #[test]
    fn click_prone_india_is_young_and_male() {
        let (world, pop, _) = build();
        let india = &pop.click_prone_by_country[&Country::India];
        let f = female_fraction(&world, india);
        assert!(f < 0.15, "India clickers should be male-heavy, {f}");
        let dist = age_distribution(&world, india);
        assert!(
            dist[0] + dist[1] > 0.9,
            "India clickers should be 13-24, {dist:?}"
        );
    }

    #[test]
    fn organic_like_median_tracks_baseline() {
        let (world, pop, config) = build();
        let mut counts: Vec<usize> = pop
            .organic
            .iter()
            .map(|u| world.likes().user_like_count(*u))
            .collect();
        counts.sort_unstable();
        let median = counts[counts.len() / 2] as f64;
        assert!(
            (median / config.organic_like_median - 1.0).abs() < 0.25,
            "median {median} vs target {}",
            config.organic_like_median
        );
    }

    #[test]
    fn click_prone_like_far_more_pages() {
        let (world, pop, _) = build();
        let median = |ids: &[UserId]| {
            let mut c: Vec<usize> = ids
                .iter()
                .map(|u| world.likes().user_like_count(*u))
                .collect();
            c.sort_unstable();
            c[c.len() / 2]
        };
        let org = median(&pop.organic);
        let cp = median(&pop.click_prone);
        assert!(
            cp > org * 5,
            "click-prone median {cp} should dwarf organic {org}"
        );
    }

    #[test]
    fn friendship_graph_is_populated_and_connected_enough() {
        let (world, pop, _) = build();
        let mean_deg = 2.0 * world.friends().edge_count() as f64 / world.account_count() as f64;
        assert!(mean_deg > 4.0, "mean degree {mean_deg} too low");
        // A sample of users should mostly have at least one friend.
        let friendless = pop
            .organic
            .iter()
            .take(500)
            .filter(|u| world.friends().degree(**u) == 0)
            .count();
        assert!(friendless < 150, "{friendless} of 500 friendless");
    }

    #[test]
    fn background_like_times_are_pre_launch() {
        let (world, pop, _) = build();
        for r in world.likes().records().take(10_000) {
            assert!(r.at < pop.launch, "background like after launch");
        }
    }

    #[test]
    fn parallel_synthesis_is_bit_identical_to_sequential() {
        type Postings = Vec<Vec<(UserId, PageId, SimTime)>>;
        let run = |exec: Exec| {
            let mut world = OsnWorld::new();
            let config = small_config();
            let mut rng = Rng::seed_from_u64(77);
            let pop = synthesize_with(&mut world, &config, &mut rng, exec);
            let likes = world.likes();
            let row = |r: crate::LikeRecord| (r.user, r.page, r.at);
            let records: Vec<_> = likes.records().map(row).collect();
            let users = (0..world.account_count() as u32).map(UserId);
            let pages = (0..world.page_count() as u32).map(PageId);
            let by_user: Postings = users
                .clone()
                .map(|u| likes.of_user(u).map(row).collect())
                .collect();
            let page_sets: Vec<Vec<PageId>> =
                users.map(|u| likes.user_pages(u).collect()).collect();
            let by_page: Postings = pages.map(|p| likes.of_page(p).map(row).collect()).collect();
            let sizes = (pop.organic.len(), pop.click_prone.len());
            (records, by_user, page_sets, by_page, sizes)
        };
        let one = run(Exec::workers(1));
        assert!(one.0.len() > 10_000, "the world has a like history");
        for workers in [2, 8] {
            let many = run(Exec::workers(workers));
            assert!(one.0 == many.0, "records differ at workers={workers}");
            assert!(
                one.1 == many.1,
                "user posting lists differ at workers={workers}"
            );
            assert!(one.2 == many.2, "page sets differ at workers={workers}");
            assert!(
                one.3 == many.3,
                "page posting lists differ at workers={workers}"
            );
            assert_eq!(one.4, many.4, "workers={workers}");
        }
    }

    /// The windows [`bucketed_sort_equals_a_plain_sort`] draws from. With
    /// one bucket and rows at both ends of the window, they need 0 (every
    /// `at` equal), 1, 2, 3, 3, 4, 5 and 6 radix passes; 5,000,000 is not
    /// a power of two, so its bucket factor rounds.
    const SORT_WINDOWS: [u64; 8] = [
        1,
        1 << 11,
        1 << 22,
        5_000_000,
        1 << 33,
        1 << 40,
        1 << 55,
        u64::MAX - 1,
    ];

    proptest::proptest! {
        /// The time-bucketed sort is a plain sort: for rows split over any
        /// number of draw buffers (empty ones included, even after the
        /// last row), every bucket count — one bucket, more buckets than
        /// distinct times, the derived default — any worker count and any
        /// window from one second to a 64-bit span give the columns of
        /// `sort_unstable` over all the rows. The windows and bucket counts
        /// make buckets that need every radix pass count from 0 to 6.
        /// `narrow` packs every time into the window's first few seconds,
        /// so all rows share one bucket and the others stay empty; the
        /// edges of the window and ties on `at`, one user's included, are
        /// drawn on purpose.
        #[test]
        fn bucketed_sort_equals_a_plain_sort(
            raw in proptest::prop::collection::vec((0u32..7, 0u32..40, 0u32..40, proptest::prelude::any::<u64>()), 0..400),
            buffers in 1usize..6,
            narrow in proptest::prelude::any::<bool>(),
            workers in 1usize..4,
            window in 0usize..SORT_WINDOWS.len(),
        ) {
            let window = SORT_WINDOWS[window];
            let rows: Vec<Row> = raw
                .iter()
                .map(|&(edge, user, page, x)| {
                    let (user, at) = match edge {
                        0 => (user, 0),
                        1 => (user, window - 1),
                        2 => (user, 1_234 % window), // a shared time: ties on `at`
                        3 => (0, 1_234 % window), // one user on several pages at it
                        _ if narrow => (user, x % 4 % window),
                        _ => (user, x % window),
                    };
                    (SimTime::from_secs(at), UserId(user), PageId(page))
                })
                .collect();
            let mut sorted = rows.clone();
            sorted.sort_unstable();
            let mut want = LikeColumns::with_capacity(sorted.len());
            for &(at, user, page) in &sorted {
                want.push(user, page, at);
            }
            for buckets in [1, 2, 7, bucket_count(rows.len())] {
                // Empty buffers lead and trail the filled ones.
                let mut draws: Vec<Vec<Row>> = vec![Vec::new(); buffers + 2];
                for (i, &row) in rows.iter().enumerate() {
                    draws[1 + i * 7 % buffers].push(row);
                }
                let got = sort_into_columns(draws, window, buckets, Exec::workers(workers));
                proptest::prop_assert_eq!(&got, &want, "buckets={} window={}", buckets, window);
            }
        }

        /// The multiply-shift bucket map is monotone in `at` and below
        /// `buckets` for every `at` in the window, for windows from one
        /// second to `u64::MAX` and every bucket count the sort uses:
        /// checked at random times, the window's ends and both sides of
        /// every slice edge.
        #[test]
        fn bucket_map_is_monotone_and_below_the_bucket_count(
            window in 0usize..5,
            buckets in 1usize..=MAX_BUCKETS,
            xs in proptest::prop::collection::vec(proptest::prelude::any::<u64>(), 0..64),
        ) {
            let window = [1, 2, 1 << 32, 1 << 62, u64::MAX][window];
            let bucket_of = bucket_map(window, buckets);
            let edges = (1..buckets as u128).flat_map(|k| {
                let edge = (k * u128::from(window)).div_ceil(buckets as u128) as u64;
                [edge.saturating_sub(1), edge]
            });
            let mut ats: Vec<u64> = xs.iter().map(|x| x % window).chain(edges).collect();
            ats.retain(|&at| at < window);
            ats.extend([0, window - 1]);
            ats.sort_unstable();
            let mut last = 0;
            for at in ats {
                let b = bucket_of(SimTime::from_secs(at));
                proptest::prop_assert!(b >= last && b < buckets, "at={} bucket={} after {}", at, b, last);
                last = b;
            }
        }
    }

    /// The reference page draw: it looks the user's country up on every
    /// draw.
    struct LookupPerDraw {
        global_zipf: Zipf,
        slice_zipfs: BTreeMap<Country, Zipf>,
        global_like_fraction: f64,
    }

    impl LookupPerDraw {
        fn sample(&self, pop: &Population, country: Country, rng: &mut Rng) -> PageId {
            let use_global = pop
                .country_slices
                .get(&country)
                .map(|s| s.is_empty())
                .unwrap_or(true)
                || rng.chance(self.global_like_fraction);
            if use_global {
                pop.global_pages[self.global_zipf.sample(rng)]
            } else {
                let slice = &pop.country_slices[&country];
                slice[self.slice_zipfs[&country].sample(rng)]
            }
        }
    }

    #[test]
    fn country_sampler_draws_as_a_lookup_per_draw() {
        let pop = Population {
            global_pages: (0..300).map(PageId).collect(),
            country_slices: BTreeMap::from([
                (Country::Usa, (300..700).map(PageId).collect()),
                (Country::France, Vec::new()),
            ]),
            ..Population::default()
        };
        for global_like_fraction in [0.0, 0.3, 1.0] {
            let config = PopulationConfig {
                global_like_fraction,
                ..PopulationConfig::default()
            };
            let zipf = |pages: &[PageId]| Zipf::new(pages.len().max(1), config.zipf_exponent);
            let reference = LookupPerDraw {
                global_zipf: zipf(&pop.global_pages),
                slice_zipfs: pop
                    .country_slices
                    .iter()
                    .map(|(c, p)| (*c, zipf(p)))
                    .collect(),
                global_like_fraction,
            };
            let sampler = BackgroundSampler::new(&pop, &config);
            // A country with a slice, one with an empty slice, one with none.
            for country in [Country::Usa, Country::France, Country::India] {
                let pages = sampler.for_country(country);
                let (mut got, mut want) = (Rng::seed_from_u64(5), Rng::seed_from_u64(5));
                for draw in 0..2_000 {
                    assert_eq!(
                        pages.sample(&mut got),
                        reference.sample(&pop, country, &mut want),
                        "{country} at fraction {global_like_fraction}, draw {draw}"
                    );
                }
                assert_eq!(
                    got.next_u64(),
                    want.next_u64(),
                    "{country} at fraction {global_like_fraction}: the streams part"
                );
            }
        }
    }

    #[test]
    fn synthesis_is_deterministic() {
        let run = || {
            let mut world = OsnWorld::new();
            let config = small_config();
            let mut rng = Rng::seed_from_u64(1234);
            let pop = synthesize(&mut world, &config, &mut rng);
            (
                world.likes().len(),
                world.friends().edge_count(),
                pop.click_prone.len(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn scaled_config_shrinks_world_not_observables() {
        let base = PopulationConfig::default();
        let small = PopulationConfig::default().scaled(0.1);
        assert!(small.n_organic < base.n_organic / 5);
        assert_eq!(small.organic_like_median, base.organic_like_median);
        // Total friend-count targets stay fixed; only the in-world share
        // shrinks.
        assert_eq!(small.organic_degree_median, base.organic_degree_median);
        assert!(small.in_world_degree_fraction < base.in_world_degree_fraction);
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn zero_scale_rejected() {
        let _ = PopulationConfig::default().scaled(0.0);
    }
}
