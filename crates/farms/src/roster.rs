//! The farm roster: order fulfilment against the simulated platform.
//!
//! Owns every farm's pool segments, hub accounts, and customer-job page
//! catalogues, and turns a [`FarmOrder`] into a [`Delivery`]: the accounts
//! used, the timed honeypot likes, and the accounts' ongoing camouflage
//! activity. Account creation, social wiring, off-network padding, and
//! past-history backfill happen as side effects on the world — exactly the
//! trail a real farm leaves on a real platform.

use crate::camouflage::{camouflage_pages, camouflage_times};
use crate::pool::Segment;
use crate::region::Region;
use crate::schedule::delivery_times;
use crate::spec::{FarmSpec, PoolTopology};
use likelab_graph::{generate, PageId, UserId};
use likelab_osn::{ActorClass, LikeColumns, OsnWorld, PageCategory, PrivacySettings};
use likelab_sim::dist::{log_normal_median, Zipf};
use likelab_sim::{Exec, Rng, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// An order placed with a farm.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct FarmOrder {
    /// Index of the farm in the roster.
    pub farm: usize,
    /// The page to be liked.
    pub page: PageId,
    /// Ordered audience region.
    pub region: Region,
    /// Ordered like count, at paper scale (the roster applies the world
    /// scale internally).
    pub likes: usize,
    /// When the order was placed (delivery starts here).
    pub placed_at: SimTime,
}

/// A timed like to be executed by the study runner.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimedLike {
    /// The liking account.
    pub user: UserId,
    /// The liked page.
    pub page: PageId,
    /// When.
    pub at: SimTime,
}

/// What came back from an order.
#[derive(Clone, Debug, Default)]
pub struct Delivery {
    /// True when the farm took the money and delivered nothing.
    pub scam: bool,
    /// Accounts used for the job, in delivery order.
    pub accounts: Vec<UserId>,
    /// The honeypot likes, timed.
    pub likes: Vec<TimedLike>,
    /// Camouflage likes scheduled after the order time (past-history
    /// camouflage is written into the world immediately).
    pub future_camouflage: Vec<TimedLike>,
}

/// The roster of farms and their live state.
pub struct FarmRoster {
    specs: Vec<FarmSpec>,
    scale: f64,
    segments: HashMap<(u16, Region), Segment>,
    job_pages: HashMap<u16, Vec<PageId>>,
    background_pages: Vec<PageId>,
    background_zipf: Option<Zipf>,
    camouflage_horizon: SimDuration,
    job_catalogue_size: usize,
    rng: Rng,
}

impl FarmRoster {
    /// A roster over the given farms. `background_pages` is the world's
    /// public page catalogue (camouflage targets); `scale` shrinks pool
    /// capacities and order sizes together with the study's world scale.
    pub fn new(specs: Vec<FarmSpec>, background_pages: Vec<PageId>, scale: f64, rng: Rng) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        let background_zipf = if background_pages.is_empty() {
            None
        } else {
            Some(Zipf::new(background_pages.len(), 1.05))
        };
        FarmRoster {
            specs,
            scale,
            segments: HashMap::new(),
            job_pages: HashMap::new(),
            background_pages,
            background_zipf,
            camouflage_horizon: SimDuration::days(60),
            job_catalogue_size: 4_000,
            rng,
        }
    }

    /// The farm specs.
    pub fn specs(&self) -> &[FarmSpec] {
        &self.specs
    }

    /// A farm spec by roster index.
    pub fn spec(&self, idx: usize) -> &FarmSpec {
        &self.specs[idx]
    }

    /// The customer-job pages of an operator (empty until first order).
    pub fn operator_job_pages(&self, operator: u16) -> &[PageId] {
        self.job_pages
            .get(&operator)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    fn ensure_job_pages(&mut self, world: &mut OsnWorld, operator: u16, now: SimTime) {
        if self.job_pages.contains_key(&operator) {
            return;
        }
        // Scale the catalogue mildly: even tiny worlds keep enough job
        // pages that heavy camouflage histories don't saturate the
        // catalogue (which would shorten them) and same-operator page
        // overlap stays visible.
        let n = ((self.job_catalogue_size as f64 * self.scale.max(0.45)) as usize).max(200);
        let pages = (0..n)
            .map(|i| {
                world.create_page(
                    format!("op{operator}-customer-{i}"),
                    "",
                    None,
                    PageCategory::Background,
                    now,
                )
            })
            .collect();
        self.job_pages.insert(operator, pages);
    }

    fn create_farm_account(
        world: &mut OsnWorld,
        spec: &FarmSpec,
        region: Region,
        now: SimTime,
        rng: &mut Rng,
    ) -> UserId {
        let profile = spec.blueprint(region).sample(rng);
        let privacy = PrivacySettings {
            friend_list_public: rng.chance(spec.friend_list_public),
            likes_public: rng.chance(0.95),
            searchable: rng.chance(0.6),
        };
        let class = match spec.topology {
            PoolTopology::DenseNetwork { .. } => ActorClass::StealthSybil(spec.operator),
            PoolTopology::PairsAndTriplets { .. } => ActorClass::Bot(spec.operator),
        };
        let age = SimDuration::secs(rng.below(spec.max_account_age.as_secs().max(1)));
        let created_at = SimTime::from_secs(now.as_secs().saturating_sub(age.as_secs()));
        world.create_account(profile, class, privacy, created_at)
    }

    /// Fulfil an order against the world. See module docs for the effects.
    pub fn fulfill(&mut self, world: &mut OsnWorld, order: &FarmOrder) -> Delivery {
        let spec = self.spec(order.farm).clone();
        if spec.is_scam(order.region) {
            return Delivery {
                scam: true,
                ..Delivery::default()
            };
        }
        self.ensure_job_pages(world, spec.operator, order.placed_at);

        // --- allocate accounts from the segment (round-robin) -------------
        let key = (spec.operator, spec.segment_key(order.region));
        let capacity = ((spec.segment_capacity as f64 * self.scale).round() as usize).max(8);
        let fraction = self
            .rng
            .f64_range(spec.delivery_fraction.0, spec.delivery_fraction.1);
        let k = ((order.likes as f64 * fraction * self.scale).round() as usize).max(1);
        let segment = self
            .segments
            .entry(key)
            .or_insert_with(|| Segment::new(capacity));
        let rng = &mut self.rng;
        let mut fresh = Vec::new();
        let accounts = segment.take(k, &mut fresh, || {
            Self::create_farm_account(world, &spec, order.region, order.placed_at, rng)
        });

        // Hubs are born with the segment's first order.
        if segment.hubs().is_empty() && spec.hubs_per_segment > 0 {
            let hubs: Vec<UserId> = (0..spec.hubs_per_segment)
                .map(|_| {
                    Self::create_farm_account(world, &spec, order.region, order.placed_at, rng)
                })
                .collect();
            segment.set_hubs(hubs);
        }
        let hubs: Vec<UserId> = segment.hubs().to_vec();
        let members: Vec<UserId> = segment.members().to_vec();

        // --- wire the fresh batch into the pool topology -------------------
        match spec.topology {
            PoolTopology::DenseNetwork { within_degree } => {
                for &a in &fresh {
                    for _ in 0..within_degree {
                        if let Some(&b) = rng.choose(&members) {
                            if a != b {
                                world.add_friendship(a, b);
                            }
                        }
                    }
                }
            }
            PoolTopology::PairsAndTriplets {
                triplet_fraction,
                isolate_fraction,
            } => {
                world.generate_friendships(|g| {
                    generate::pairs_and_triplets(g, &fresh, triplet_fraction, isolate_fraction, rng)
                });
            }
        }
        for &a in &fresh {
            for &h in &hubs {
                if rng.chance(spec.hub_attach_prob) {
                    world.add_friendship(a, h);
                }
            }
            // Off-network padding up to the farm's friend-count profile.
            let total = log_normal_median(rng, spec.friend_median, spec.friend_sigma);
            let realized = world.friends().degree(a) as f64;
            world.set_off_network_friends(a, (total - realized).max(0.0).round() as u32);
        }

        // --- camouflage histories for the fresh batch ----------------------
        // The past part of every fresh account's history enters the world
        // as one batch; the future part is scheduled like any other like.
        let mut past_camouflage = LikeColumns::default();
        let mut future_camouflage = Vec::new();
        let job_pages = self.job_pages[&spec.operator].clone();
        for &a in &fresh {
            let n = log_normal_median(rng, spec.camouflage_median, spec.camouflage_sigma).round()
                as usize;
            let n = n.min(6_000);
            let pages = match &self.background_zipf {
                Some(zipf) => camouflage_pages(
                    n,
                    &job_pages,
                    &self.background_pages,
                    zipf,
                    spec.job_page_fraction,
                    rng,
                ),
                None => rng.sample_without_replacement(&job_pages, n),
            };
            let created = world.account(a).created_at;
            let until = order.placed_at + self.camouflage_horizon;
            let times = camouflage_times(pages.len(), created, until, spec.bursty_camouflage, rng);
            for (page, at) in pages.into_iter().zip(times) {
                if at <= order.placed_at {
                    past_camouflage.push(a, page, at);
                } else {
                    future_camouflage.push(TimedLike { user: a, page, at });
                }
            }
        }
        world.ingest_like_columns(&past_camouflage, Exec::Sequential);

        // --- the honeypot likes themselves ---------------------------------
        let times = delivery_times(spec.style, accounts.len(), order.placed_at, rng);
        let likes = accounts
            .iter()
            .zip(&times)
            .map(|(u, t)| TimedLike {
                user: *u,
                page: order.page,
                at: *t,
            })
            .collect();
        future_camouflage.sort_by_key(|l| (l.at, l.user));
        Delivery {
            scam: false,
            accounts,
            likes,
            future_camouflage,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use likelab_osn::Country;

    fn setup(scale: f64) -> (OsnWorld, FarmRoster, PageId) {
        let mut world = OsnWorld::new();
        let background: Vec<PageId> = (0..3_000)
            .map(|i| {
                world.create_page(
                    format!("bg{i}"),
                    "",
                    None,
                    PageCategory::Background,
                    SimTime::EPOCH,
                )
            })
            .collect();
        let page = world.create_page(
            "Virtual Electricity",
            "This is not a real page, so please do not like it.",
            None,
            PageCategory::Honeypot,
            SimTime::EPOCH,
        );
        let roster = FarmRoster::new(
            vec![
                FarmSpec::boostlikes(),
                FarmSpec::socialformula(),
                FarmSpec::authenticlikes(),
                FarmSpec::mammothsocials(),
            ],
            background,
            scale,
            Rng::seed_from_u64(404),
        );
        (world, roster, page)
    }

    fn order(farm: usize, page: PageId, region: Region) -> FarmOrder {
        FarmOrder {
            farm,
            page,
            region,
            likes: 1_000,
            placed_at: SimTime::at_day(100),
        }
    }

    const BL: usize = 0;
    const SF: usize = 1;
    const AL: usize = 2;
    const MS: usize = 3;

    #[test]
    fn scam_orders_deliver_nothing() {
        let (mut world, mut roster, page) = setup(0.2);
        let d = roster.fulfill(&mut world, &order(BL, page, Region::Worldwide));
        assert!(d.scam);
        assert!(d.likes.is_empty());
        let d = roster.fulfill(&mut world, &order(MS, page, Region::Worldwide));
        assert!(d.scam);
    }

    #[test]
    fn delivery_counts_track_fraction_and_scale() {
        let (mut world, mut roster, page) = setup(0.2);
        let d = roster.fulfill(&mut world, &order(SF, page, Region::Worldwide));
        // SF delivers 72–100% of 1000, scaled by 0.2 → 144..=200.
        assert!(
            (140..=205).contains(&d.likes.len()),
            "SF delivered {}",
            d.likes.len()
        );
        let d = roster.fulfill(&mut world, &order(MS, page, Region::Country(Country::Usa)));
        // MS under-delivers: 30–34% → 60..=70.
        assert!(
            (55..=75).contains(&d.likes.len()),
            "MS delivered {}",
            d.likes.len()
        );
    }

    #[test]
    fn socialformula_ships_turkey_regardless() {
        let (mut world, mut roster, page) = setup(0.2);
        let d = roster.fulfill(&mut world, &order(SF, page, Region::Country(Country::Usa)));
        let turkish = d
            .accounts
            .iter()
            .filter(|u| world.account(**u).profile.country == Country::Turkey)
            .count();
        assert!(
            turkish as f64 / d.accounts.len() as f64 > 0.85,
            "{turkish}/{} Turkish",
            d.accounts.len()
        );
    }

    #[test]
    fn compliant_farm_ships_the_ordered_country() {
        let (mut world, mut roster, page) = setup(0.2);
        let d = roster.fulfill(&mut world, &order(AL, page, Region::Country(Country::Usa)));
        assert!(d
            .accounts
            .iter()
            .all(|u| world.account(*u).profile.country == Country::Usa));
    }

    #[test]
    fn same_farm_campaigns_overlap_via_wraparound() {
        let (mut world, mut roster, page) = setup(1.0);
        let page2 = world.create_page("h2", "", None, PageCategory::Honeypot, SimTime::EPOCH);
        let d1 = roster.fulfill(&mut world, &order(SF, page, Region::Worldwide));
        let d2 = roster.fulfill(&mut world, &order(SF, page2, Region::Country(Country::Usa)));
        let s1: std::collections::HashSet<UserId> = d1.accounts.iter().copied().collect();
        let overlap = d2.accounts.iter().filter(|u| s1.contains(u)).count();
        let expected = (d1.accounts.len() + d2.accounts.len()).saturating_sub(1_644);
        assert_eq!(overlap, expected, "wraparound overlap");
        assert!(overlap > 0, "the paper saw SF reuse across campaigns");
    }

    #[test]
    fn al_and_ms_share_accounts() {
        let (mut world, mut roster, page) = setup(1.0);
        let page2 = world.create_page("h2", "", None, PageCategory::Honeypot, SimTime::EPOCH);
        let al = roster.fulfill(&mut world, &order(AL, page, Region::Country(Country::Usa)));
        let ms = roster.fulfill(&mut world, &order(MS, page2, Region::Country(Country::Usa)));
        let s: std::collections::HashSet<UserId> = al.accounts.iter().copied().collect();
        let alms = ms.accounts.iter().filter(|u| s.contains(u)).count();
        assert!(
            alms > ms.accounts.len() / 3,
            "ALMS overlap {alms} of {}",
            ms.accounts.len()
        );
        // The fresh MS tail carries MS demographics (low friend counts).
        let fresh: Vec<UserId> = ms
            .accounts
            .iter()
            .copied()
            .filter(|u| !s.contains(u))
            .collect();
        assert!(!fresh.is_empty());
    }

    #[test]
    fn stealth_accounts_look_social_bots_do_not() {
        let (mut world, mut roster, page) = setup(0.3);
        let bl = roster.fulfill(&mut world, &order(BL, page, Region::Country(Country::Usa)));
        let sf = roster.fulfill(&mut world, &order(SF, page, Region::Worldwide));
        let mean_friends = |accounts: &[UserId]| {
            accounts
                .iter()
                .map(|u| world.total_friend_count(*u) as f64)
                .sum::<f64>()
                / accounts.len() as f64
        };
        let bl_friends = mean_friends(&bl.accounts);
        let sf_friends = mean_friends(&sf.accounts);
        assert!(
            bl_friends > sf_friends * 3.0,
            "BL {bl_friends} vs SF {sf_friends}"
        );
        // And the reverse for camouflage like counts.
        let mean_likes = |accounts: &[UserId]| {
            accounts
                .iter()
                .map(|u| world.likes().user_like_count(*u) as f64)
                .sum::<f64>()
                / accounts.len() as f64
        };
        let bl_likes = mean_likes(&bl.accounts);
        let sf_likes = mean_likes(&sf.accounts);
        assert!(bl_likes * 4.0 < sf_likes, "BL {bl_likes} vs SF {sf_likes}");
    }

    #[test]
    fn burst_vs_trickle_delivery_shapes() {
        use crate::schedule::peak_window_share;
        let (mut world, mut roster, page) = setup(0.5);
        let al = roster.fulfill(&mut world, &order(AL, page, Region::Country(Country::Usa)));
        let bl = roster.fulfill(&mut world, &order(BL, page, Region::Country(Country::Usa)));
        let al_times: Vec<SimTime> = al.likes.iter().map(|l| l.at).collect();
        let bl_times: Vec<SimTime> = bl.likes.iter().map(|l| l.at).collect();
        let al_share = peak_window_share(&al_times, SimDuration::hours(4));
        let bl_share = peak_window_share(&bl_times, SimDuration::hours(4));
        assert!(al_share > 0.4, "AL burst share {al_share}");
        assert!(bl_share < 0.1, "BL trickle share {bl_share}");
    }

    #[test]
    fn camouflage_splits_past_and_future() {
        let (mut world, mut roster, page) = setup(0.2);
        let before = world.likes().len();
        let d = roster.fulfill(&mut world, &order(SF, page, Region::Worldwide));
        let backfilled = world.likes().len() - before;
        assert!(backfilled > 0, "past camouflage written immediately");
        assert!(!d.future_camouflage.is_empty(), "ongoing jobs scheduled");
        assert!(d
            .future_camouflage
            .iter()
            .all(|l| l.at > SimTime::at_day(100)));
        assert!(d.future_camouflage.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn pool_topologies_differ() {
        use likelab_graph::components::ComponentCensus;
        let (mut world, mut roster, page) = setup(0.5);
        let bl = roster.fulfill(&mut world, &order(BL, page, Region::Country(Country::Usa)));
        let sf = roster.fulfill(&mut world, &order(SF, page, Region::Worldwide));
        let bl_census = ComponentCensus::compute(world.friends(), &bl.accounts);
        let sf_census = ComponentCensus::compute(world.friends(), &sf.accounts);
        assert!(
            bl_census.giant_fraction() > 0.5,
            "BL forms a blob: {bl_census:?}"
        );
        assert!(
            sf_census.giant_fraction() < 0.3,
            "SF stays fragmented: {sf_census:?}"
        );
        assert!(sf_census.pairs + sf_census.triplets > 5, "{sf_census:?}");
    }

    #[test]
    fn honeypot_likes_target_the_ordered_page() {
        let (mut world, mut roster, page) = setup(0.2);
        let d = roster.fulfill(&mut world, &order(AL, page, Region::Country(Country::Usa)));
        assert!(d.likes.iter().all(|l| l.page == page));
        assert_eq!(d.likes.len(), d.accounts.len());
    }
}
