//! SybilRank-style trust propagation — the graph-based defense family the
//! paper's related work builds on (SybilGuard/SybilLimit/SybilInfer and
//! Cao et al.'s "Aiding the Detection of Fake Accounts in Large Scale
//! Social Online Services", which this follows most closely).
//!
//! Trust is seeded at a set of known-good accounts and spread by degree-
//! normalized power iteration over the friendship graph; after O(log n)
//! iterations the landing probability, normalized by degree, ranks accounts
//! by how reachable they are from the honest region. Sybil pools that wire
//! mostly to each other (both the BoostLikes blob *and* the pair/triplet
//! farms) receive little trust because few attack edges connect them to the
//! honest region.
//!
//! The interesting failure mode the paper's data implies: a stealth farm
//! that buys or builds real attack edges into the organic graph inherits
//! trust — graph defenses are only as good as the attack-edge scarcity
//! assumption. The ablation bench exercises exactly that knob.

use likelab_graph::{FriendGraph, RenumberedCsr, UserId};
use serde::{Deserialize, Serialize};

/// SybilRank parameters.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct SybilRankConfig {
    /// Power-iteration count; `None` uses ⌈log₂ n⌉ as in the paper.
    pub iterations: Option<usize>,
}

/// Degree-normalized trust scores per account (higher = more trusted).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TrustScores {
    scores: Vec<f64>,
}

impl TrustScores {
    /// The trust of one account (0 for isolated/unknown nodes).
    pub fn trust(&self, u: UserId) -> f64 {
        self.scores.get(u.idx()).copied().unwrap_or(0.0)
    }

    /// All scores, indexed by user id.
    pub fn as_slice(&self) -> &[f64] {
        &self.scores
    }

    /// Accounts ranked most-suspicious first (lowest trust), restricted to
    /// nodes with at least one edge (isolated nodes carry no graph signal).
    pub fn ranked_suspicious(&self, graph: &FriendGraph) -> Vec<UserId> {
        let mut v: Vec<UserId> = graph.nodes().filter(|u| graph.degree(*u) > 0).collect();
        v.sort_by(|a, b| self.trust(*a).total_cmp(&self.trust(*b)).then(a.cmp(b)));
        v
    }
}

/// Run trust propagation from `seeds` over the friendship graph.
///
/// ```
/// use likelab_detect::sybilrank::{sybil_rank, SybilRankConfig};
/// use likelab_graph::{FriendGraph, UserId};
///
/// // A triangle seeded at one corner: trust reaches the other two.
/// let mut g = FriendGraph::with_nodes(4);
/// g.add_edge(UserId(0), UserId(1));
/// g.add_edge(UserId(1), UserId(2));
/// g.add_edge(UserId(0), UserId(2));
/// let scores = sybil_rank(&g, &[UserId(0)], &SybilRankConfig::default());
/// assert!(scores.trust(UserId(1)) > 0.0);
/// // The isolated node gets nothing — and ranks most suspicious of none,
/// // since zero-degree nodes carry no graph signal.
/// assert_eq!(scores.trust(UserId(3)), 0.0);
/// assert!(!scores.ranked_suspicious(&g).contains(&UserId(3)));
/// ```
///
/// # Panics
/// Panics when `seeds` is empty. The online wrapper
/// ([`crate::online::OnlineSybilRank`]) guards this case by returning
/// all-zero scores instead.
pub fn sybil_rank(graph: &FriendGraph, seeds: &[UserId], config: &SybilRankConfig) -> TrustScores {
    // lint:allow(panic-reachable-from-serve): documented panic; serve's caller, OnlineSybilRank::refresh, returns before calling with no seeds
    assert!(!seeds.is_empty(), "trust needs at least one seed");
    let n = graph.node_count();
    if n == 0 {
        return TrustScores::default();
    }
    let iterations = config
        .iterations
        .unwrap_or_else(|| (n as f64).log2().ceil().max(1.0) as usize);

    // Power iteration runs over a degree-ordered CSR snapshot: hubs own most
    // edge endpoints, so renumbering them to the low ids keeps the hot
    // accumulator slots cache-resident. The pull form below is bit-identical
    // to the historical push loop ("for u ascending: next[neighbor] +=
    // trust[u]/deg(u)") because:
    //
    // - each CSR row lists neighbors in ascending *old*-id order, so the
    //   additions into a node's accumulator happen in exactly the sequence
    //   the push loop produced;
    // - the push loop skipped zero-trust sources entirely; here they
    //   contribute `share == +0.0`, and `x + 0.0 == x` bitwise for the
    //   non-negative finite values trust can take;
    // - a zero-degree node kept its trust (`next[u] += t` onto 0.0), which
    //   equals the pull form's `next[v] = trust[v]` exactly.
    let csr = RenumberedCsr::degree_ordered(graph);
    let map = csr.map();

    let mut trust = vec![0.0f64; n]; // indexed by new id
    let seed_share = 1.0 / seeds.len() as f64;
    for s in seeds {
        // lint:allow(panic-reachable-from-serve): renumbering maps every old id below n
        trust[map.new_of(*s).idx()] += seed_share;
    }
    let mut share = vec![0.0f64; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..iterations {
        for (v, s) in share.iter_mut().enumerate() {
            // lint:allow(panic-reachable-from-serve): trust, share, next all have length n
            let t = trust[v];
            let d = csr.degree(v);
            *s = if t != 0.0 && d > 0 { t / d as f64 } else { 0.0 };
        }
        for (v, out) in next.iter_mut().enumerate() {
            let row = csr.row(v);
            if row.is_empty() {
                // lint:allow(panic-reachable-from-serve): v < n from enumerate over a length-n vec
                *out = trust[v]; // isolated trust stays put
                continue;
            }
            let mut acc = 0.0f64;
            for &w in row {
                // lint:allow(panic-reachable-from-serve): CSR targets are renumbered ids below n
                acc += share[w as usize];
            }
            *out = acc;
        }
        std::mem::swap(&mut trust, &mut next);
    }
    // Degree normalization: high-degree honest hubs shouldn't dominate.
    // Permute back to old-id space in the same pass.
    let mut scores = vec![0.0f64; n];
    for (old, out) in scores.iter_mut().enumerate() {
        let new = map.new_of(UserId(old as u32)).idx();
        let d = csr.degree(new);
        // `new < n`: renumbering is a permutation of 0..n.
        *out = if d > 0 {
            trust[new] / d as f64 // lint:allow(panic-reachable-from-serve): new < n, see above
        } else {
            trust[new] // lint:allow(panic-reachable-from-serve): new < n, see above
        };
    }
    TrustScores { scores }
}

#[cfg(test)]
mod tests {
    use super::*;
    use likelab_graph::generate;
    use likelab_sim::Rng;

    /// Honest region: a connected small-world of 300; sybil region: a dense
    /// pool of 60 with `attack_edges` random links to the honest region.
    fn two_region_graph(attack_edges: usize, seed: u64) -> (FriendGraph, Vec<UserId>, Vec<UserId>) {
        let mut rng = Rng::seed_from_u64(seed);
        let honest: Vec<UserId> = (0..300).map(UserId).collect();
        let sybil: Vec<UserId> = (300..360).map(UserId).collect();
        let mut g = FriendGraph::with_nodes(360);
        generate::watts_strogatz(&mut g, &honest, 5, 0.1, &mut rng);
        generate::erdos_renyi_gnm(&mut g, &sybil, 300, &mut rng);
        for _ in 0..attack_edges {
            let h = honest[rng.index(honest.len())];
            let s = sybil[rng.index(sybil.len())];
            g.add_edge(h, s);
        }
        (g, honest, sybil)
    }

    fn mean_trust(scores: &TrustScores, users: &[UserId]) -> f64 {
        users.iter().map(|u| scores.trust(*u)).sum::<f64>() / users.len() as f64
    }

    #[test]
    fn sybil_region_gets_little_trust() {
        let (g, honest, sybil) = two_region_graph(5, 1);
        let seeds = &honest[..10];
        let scores = sybil_rank(&g, seeds, &SybilRankConfig::default());
        let h = mean_trust(&scores, &honest);
        let s = mean_trust(&scores, &sybil);
        assert!(
            h > s * 5.0,
            "honest {h:.2e} should dwarf sybil {s:.2e} with few attack edges"
        );
    }

    #[test]
    fn suspicious_ranking_front_loads_sybils() {
        let (g, honest, sybil) = two_region_graph(5, 2);
        let scores = sybil_rank(&g, &honest[..10], &SybilRankConfig::default());
        let ranked = scores.ranked_suspicious(&g);
        let bottom: Vec<UserId> = ranked.into_iter().take(60).collect();
        let sybils_in_bottom = bottom.iter().filter(|u| sybil.contains(u)).count();
        assert!(
            sybils_in_bottom >= 45,
            "{sybils_in_bottom}/60 of the least-trusted should be sybils"
        );
    }

    #[test]
    fn abundant_attack_edges_defeat_the_defense() {
        // The stealth-farm lesson: buy enough real friendships and trust
        // flows in. With 600 attack edges (~10 per sybil) the separation
        // collapses.
        let (g, honest, sybil) = two_region_graph(600, 3);
        let scores = sybil_rank(&g, &honest[..10], &SybilRankConfig::default());
        let h = mean_trust(&scores, &honest);
        let s = mean_trust(&scores, &sybil);
        assert!(
            s > h * 0.3,
            "heavily attached sybils inherit trust: sybil {s:.2e} vs honest {h:.2e}"
        );
    }

    #[test]
    fn trust_mass_is_conserved_before_normalization() {
        let (g, honest, _) = two_region_graph(5, 4);
        // Run one manual iteration-equivalent: total degree-weighted trust
        // should equal 1 after un-normalizing.
        let scores = sybil_rank(&g, &honest[..10], &SybilRankConfig::default());
        let total: f64 = g
            .nodes()
            .map(|u| scores.trust(u) * g.degree(u).max(1) as f64)
            .sum();
        assert!((total - 1.0).abs() < 1e-9, "trust mass {total}");
    }

    #[test]
    fn isolated_seeds_hold_their_trust() {
        let g = FriendGraph::with_nodes(3);
        let scores = sybil_rank(&g, &[UserId(0)], &SybilRankConfig::default());
        assert!((scores.trust(UserId(0)) - 1.0).abs() < 1e-9);
        assert_eq!(scores.trust(UserId(1)), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn empty_seeds_rejected() {
        let g = FriendGraph::with_nodes(2);
        sybil_rank(&g, &[], &SybilRankConfig::default());
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = FriendGraph::with_nodes(0);
        let scores = sybil_rank(&g, &[UserId(0)], &SybilRankConfig::default());
        assert!(scores.as_slice().is_empty());
    }
}
