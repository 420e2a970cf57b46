//! Demographic vocabulary: countries, gender, age brackets, and the global
//! platform marginals the paper compares against.
//!
//! Figure 1 buckets likers into USA / India / Egypt / Turkey / France /
//! Other; Table 2 uses six age brackets and a binary gender split, with the
//! global Facebook row (46/54 F/M; 14.9 / 32.3 / 26.6 / 13.2 / 7.2 / 5.9 %)
//! as the KL-divergence reference. Those published marginals are encoded
//! here and double as the population synthesizer's priors.

use likelab_sim::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Countries the simulation distinguishes. The first five are the ones the
/// paper's Figure 1 names; the rest exist so "Other" has real mass.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Country {
    Usa,
    France,
    India,
    Egypt,
    Turkey,
    Brazil,
    Indonesia,
    Philippines,
    Uk,
    Mexico,
}

impl Country {
    /// All countries, in a fixed order.
    pub const ALL: [Country; 10] = [
        Country::Usa,
        Country::France,
        Country::India,
        Country::Egypt,
        Country::Turkey,
        Country::Brazil,
        Country::Indonesia,
        Country::Philippines,
        Country::Uk,
        Country::Mexico,
    ];

    /// The Figure 1 legend bucket this country falls into.
    pub fn geo_bucket(self) -> GeoBucket {
        match self {
            Country::Usa => GeoBucket::Usa,
            Country::India => GeoBucket::India,
            Country::Egypt => GeoBucket::Egypt,
            Country::Turkey => GeoBucket::Turkey,
            Country::France => GeoBucket::France,
            _ => GeoBucket::Other,
        }
    }
}

impl fmt::Display for Country {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Country::Usa => "USA",
            Country::France => "France",
            Country::India => "India",
            Country::Egypt => "Egypt",
            Country::Turkey => "Turkey",
            Country::Brazil => "Brazil",
            Country::Indonesia => "Indonesia",
            Country::Philippines => "Philippines",
            Country::Uk => "UK",
            Country::Mexico => "Mexico",
        };
        f.write_str(s)
    }
}

/// The six-way location legend of Figure 1.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum GeoBucket {
    Usa,
    India,
    Egypt,
    Turkey,
    France,
    Other,
}

impl GeoBucket {
    /// All buckets in the paper's legend order.
    pub const ALL: [GeoBucket; 6] = [
        GeoBucket::Usa,
        GeoBucket::India,
        GeoBucket::Egypt,
        GeoBucket::Turkey,
        GeoBucket::France,
        GeoBucket::Other,
    ];

    /// Position in [`ALL`][Self::ALL] (dense array aggregation key).
    pub fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for GeoBucket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GeoBucket::Usa => "USA",
            GeoBucket::India => "India",
            GeoBucket::Egypt => "Egypt",
            GeoBucket::Turkey => "Turkey",
            GeoBucket::France => "France",
            GeoBucket::Other => "Other",
        };
        f.write_str(s)
    }
}

/// Binary gender as the platform reports it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Gender {
    Female,
    Male,
}

/// Table 2's six age brackets.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum AgeBracket {
    A13_17,
    A18_24,
    A25_34,
    A35_44,
    A45_54,
    A55Plus,
}

impl AgeBracket {
    /// All brackets in ascending order.
    pub const ALL: [AgeBracket; 6] = [
        AgeBracket::A13_17,
        AgeBracket::A18_24,
        AgeBracket::A25_34,
        AgeBracket::A35_44,
        AgeBracket::A45_54,
        AgeBracket::A55Plus,
    ];

    /// The bracket a given age falls in.
    ///
    /// # Panics
    /// Panics for ages below 13 — the platform's minimum age.
    pub fn from_age(age: u8) -> AgeBracket {
        assert!(age >= 13, "platform minimum age is 13, got {age}");
        match age {
            13..=17 => AgeBracket::A13_17,
            18..=24 => AgeBracket::A18_24,
            25..=34 => AgeBracket::A25_34,
            35..=44 => AgeBracket::A35_44,
            45..=54 => AgeBracket::A45_54,
            _ => AgeBracket::A55Plus,
        }
    }

    /// A uniform age within the bracket (55+ capped at 80).
    pub fn sample_age(self, rng: &mut Rng) -> u8 {
        let (lo, hi) = match self {
            AgeBracket::A13_17 => (13, 17),
            AgeBracket::A18_24 => (18, 24),
            AgeBracket::A25_34 => (25, 34),
            AgeBracket::A35_44 => (35, 44),
            AgeBracket::A45_54 => (45, 54),
            AgeBracket::A55Plus => (55, 80),
        };
        rng.range(lo, hi + 1) as u8
    }

    /// The bracket index into [`AgeBracket::ALL`], which lists the variants
    /// in declaration order — the discriminant doubles as the index.
    pub fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for AgeBracket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AgeBracket::A13_17 => "13-17",
            AgeBracket::A18_24 => "18-24",
            AgeBracket::A25_34 => "25-34",
            AgeBracket::A35_44 => "35-44",
            AgeBracket::A45_54 => "45-54",
            AgeBracket::A55Plus => "55+",
        };
        f.write_str(s)
    }
}

/// Global platform gender split (fraction female) — Table 2 last row.
pub const GLOBAL_FEMALE_FRACTION: f64 = 0.46;

/// Global platform age distribution over [`AgeBracket::ALL`] — Table 2 last
/// row, as fractions.
pub const GLOBAL_AGE_DIST: [f64; 6] = [0.149, 0.323, 0.266, 0.132, 0.072, 0.059];

/// A complete demographic profile.
///
/// Derives `Hash`/`Eq` so world-scale account stores can intern profiles:
/// the value space is tiny (2 genders × ~68 ages × 10 countries × regions),
/// so millions of accounts share a few thousand distinct entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Profile {
    /// Reported gender.
    pub gender: Gender,
    /// Age in years (≥ 13).
    pub age: u8,
    /// Current country (what ad targeting and Figure 1 see; the platform
    /// derives it from the IP address per the paper's footnote).
    pub country: Country,
    /// Hometown region code within the country (coarse; used for hometown
    /// statistics in reports).
    pub home_region: u8,
}

impl Profile {
    /// The age bracket of this profile.
    pub fn age_bracket(&self) -> AgeBracket {
        AgeBracket::from_age(self.age)
    }
}

/// A demographic *blueprint*: the marginals a population segment is drawn
/// from. Farms get their own blueprints (e.g. SocialFormula's near-global
/// demographics; MammothSocials' 26/74 male-heavy 18-34 mix).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Blueprint {
    /// Fraction of profiles that are female.
    pub female_fraction: f64,
    /// Age-bracket weights over [`AgeBracket::ALL`] (need not sum to 1).
    pub age_weights: [f64; 6],
    /// Country weights as `(country, weight)` pairs.
    pub country_weights: Vec<(Country, f64)>,
}

impl Blueprint {
    /// The global-platform blueprint with a given country mix.
    pub fn global_with_countries(country_weights: Vec<(Country, f64)>) -> Self {
        Blueprint {
            female_fraction: GLOBAL_FEMALE_FRACTION,
            age_weights: GLOBAL_AGE_DIST,
            country_weights,
        }
    }

    /// Draw a profile from the blueprint.
    pub fn sample(&self, rng: &mut Rng) -> Profile {
        let gender = if rng.chance(self.female_fraction) {
            Gender::Female
        } else {
            Gender::Male
        };
        let bracket = AgeBracket::ALL[rng.weighted_index(self.age_weights)];
        let weights = self.country_weights.iter().map(|&(_, w)| w);
        let country = self.country_weights[rng.weighted_index(weights)].0;
        Profile {
            gender,
            age: bracket.sample_age(rng),
            country,
            home_region: rng.below(32) as u8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_age_dist_sums_to_one() {
        let sum: f64 = GLOBAL_AGE_DIST.iter().sum();
        assert!((sum - 1.001).abs() < 0.01, "published row sums to ~100.1%");
    }

    #[test]
    fn bracket_boundaries() {
        assert_eq!(AgeBracket::from_age(13), AgeBracket::A13_17);
        assert_eq!(AgeBracket::from_age(17), AgeBracket::A13_17);
        assert_eq!(AgeBracket::from_age(18), AgeBracket::A18_24);
        assert_eq!(AgeBracket::from_age(24), AgeBracket::A18_24);
        assert_eq!(AgeBracket::from_age(25), AgeBracket::A25_34);
        assert_eq!(AgeBracket::from_age(34), AgeBracket::A25_34);
        assert_eq!(AgeBracket::from_age(35), AgeBracket::A35_44);
        assert_eq!(AgeBracket::from_age(44), AgeBracket::A35_44);
        assert_eq!(AgeBracket::from_age(45), AgeBracket::A45_54);
        assert_eq!(AgeBracket::from_age(54), AgeBracket::A45_54);
        assert_eq!(AgeBracket::from_age(55), AgeBracket::A55Plus);
        assert_eq!(AgeBracket::from_age(99), AgeBracket::A55Plus);
    }

    #[test]
    #[should_panic(expected = "minimum age")]
    fn under_13_rejected() {
        AgeBracket::from_age(12);
    }

    #[test]
    fn sample_age_lands_in_bracket() {
        let mut rng = Rng::seed_from_u64(1);
        for bracket in AgeBracket::ALL {
            for _ in 0..200 {
                let age = bracket.sample_age(&mut rng);
                assert_eq!(AgeBracket::from_age(age), bracket);
            }
        }
    }

    #[test]
    fn bracket_index_round_trips() {
        for (i, b) in AgeBracket::ALL.iter().enumerate() {
            assert_eq!(b.index(), i);
        }
    }

    #[test]
    fn geo_buckets_map_named_countries() {
        assert_eq!(Country::Usa.geo_bucket(), GeoBucket::Usa);
        assert_eq!(Country::Turkey.geo_bucket(), GeoBucket::Turkey);
        assert_eq!(Country::Brazil.geo_bucket(), GeoBucket::Other);
        assert_eq!(Country::Uk.geo_bucket(), GeoBucket::Other);
    }

    #[test]
    fn blueprint_sampling_respects_marginals() {
        let bp = Blueprint {
            female_fraction: 0.25,
            age_weights: [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
            country_weights: vec![(Country::India, 3.0), (Country::Egypt, 1.0)],
        };
        let mut rng = Rng::seed_from_u64(2);
        let n = 20_000;
        let mut females = 0;
        let mut india = 0;
        for _ in 0..n {
            let p = bp.sample(&mut rng);
            assert_eq!(p.age_bracket(), AgeBracket::A18_24);
            if p.gender == Gender::Female {
                females += 1;
            }
            if p.country == Country::India {
                india += 1;
            }
        }
        assert!((females as f64 / n as f64 - 0.25).abs() < 0.02);
        assert!((india as f64 / n as f64 - 0.75).abs() < 0.02);
    }

    #[test]
    fn display_labels_match_paper() {
        assert_eq!(AgeBracket::A55Plus.to_string(), "55+");
        assert_eq!(GeoBucket::Usa.to_string(), "USA");
        assert_eq!(Country::France.to_string(), "France");
    }
}
