//! Random-graph generators.
//!
//! Each generator wires edges among a caller-supplied *member set* inside a
//! larger [`FriendGraph`] — farm account pools, country communities, and the
//! organic population are all subsets of one global graph, so generators
//! never assume they own the whole id space.
//!
//! Two generators are models the study runs:
//!
//! - **Chung–Lu** ([`chung_lu`]) — the organic population
//!   (`likelab_osn::population`): heavy-tailed target degrees inside each
//!   country community, plus a sparse cross-country layer.
//! - **Pair/triplet archipelagos** ([`pairs_and_triplets`]) — the bot-burst
//!   farms (SocialFormula): "pairs (and occasionally triplets) ...
//!   mitigating the risk that identification of a user as fake would bring
//!   down the whole network".
//!
//! The stealth farm (BoostLikes) has no generator here: `farms::roster`
//! wires each fresh batch into its pool's dense network directly.
//! [`erdos_renyi_gnm`] and [`watts_strogatz`] are graph fixtures for the
//! SybilRank unit tests and the renumbering-invariance suite.

use crate::adjacency::FriendGraph;
use crate::ids::UserId;
use likelab_sim::dist::WeightedIndex;
use likelab_sim::Rng;

/// Erdős–Rényi G(n, m): exactly `m` distinct edges among `members`
/// (capped at the number of possible pairs).
pub fn erdos_renyi_gnm(g: &mut FriendGraph, members: &[UserId], m: usize, rng: &mut Rng) {
    let n = members.len();
    if n < 2 {
        return;
    }
    let max_edges = n * (n - 1) / 2;
    let target = m.min(max_edges);
    let mut added = 0;
    // Rejection sampling is fine while the graph stays sparse relative to
    // the complete graph; fall back to exhaustive shuffle when dense.
    if target * 3 < max_edges {
        while added < target {
            let a = members[rng.index(n)];
            let b = members[rng.index(n)];
            if a != b && g.add_edge(a, b) {
                added += 1;
            }
        }
    } else {
        let mut pairs = Vec::with_capacity(max_edges);
        for i in 0..n {
            for j in (i + 1)..n {
                pairs.push((members[i], members[j]));
            }
        }
        rng.shuffle(&mut pairs);
        for (a, b) in pairs {
            if added == target {
                break;
            }
            if g.add_edge(a, b) {
                added += 1;
            }
        }
    }
}

/// Watts–Strogatz small world: ring lattice with `k` nearest neighbors per
/// side, each edge rewired with probability `beta`.
pub fn watts_strogatz(g: &mut FriendGraph, members: &[UserId], k: usize, beta: f64, rng: &mut Rng) {
    let n = members.len();
    if n < 3 || k == 0 {
        return;
    }
    let k = k.min((n - 1) / 2).max(1);
    for i in 0..n {
        for d in 1..=k {
            let j = (i + d) % n;
            let (a, b) = (members[i], members[j]);
            if rng.chance(beta) {
                // Rewire to a uniform non-self, non-duplicate target.
                let mut guard = 0;
                loop {
                    guard += 1;
                    let t = members[rng.index(n)];
                    if t != a && !g.has_edge(a, t) {
                        g.add_edge(a, t);
                        break;
                    }
                    if guard > 100 {
                        g.add_edge(a, b); // fall back to the lattice edge
                        break;
                    }
                }
            } else {
                g.add_edge(a, b);
            }
        }
    }
}

/// Chung–Lu style generator: wires edges so each member's expected degree
/// approaches its `target_degrees` entry (heavy-tailed targets produce the
/// large friend-count variance Table 3 reports — e.g. 315 ± 454).
///
/// Endpoints are sampled proportionally to target degree; self-loops and
/// duplicates are skipped, so realized degrees compress slightly at the top
/// of the tail. Edge count is `sum(targets) / 2`.
///
/// Returns the newly added edges in insertion order, so callers can journal
/// the wiring into a world log and replay it without re-running the model.
///
/// # Panics
/// Panics when `members` and `target_degrees` differ in length or a target
/// is negative/non-finite.
pub fn chung_lu(
    g: &mut FriendGraph,
    members: &[UserId],
    target_degrees: &[f64],
    rng: &mut Rng,
) -> Vec<(UserId, UserId)> {
    assert_eq!(
        members.len(),
        target_degrees.len(),
        "one target degree per member"
    );
    let n = members.len();
    if n < 2 {
        return Vec::new();
    }
    // Endpoints are drawn by inverse CDF over the targets, O(log n) each.
    let endpoints = WeightedIndex::new(target_degrees.iter().enumerate().map(|(i, &t)| {
        assert!(t.is_finite() && t >= 0.0, "bad target degree at {i}: {t}");
        t
    }));
    let total = endpoints.total();
    if total <= 0.0 {
        return Vec::new();
    }
    let m = (total / 2.0).round() as usize;
    let max_possible = n * (n - 1) / 2;
    let m = m.min(max_possible);
    let mut edges = Vec::with_capacity(m);
    let mut attempts = 0usize;
    let budget = m.saturating_mul(20).max(1000);
    while edges.len() < m && attempts < budget {
        attempts += 1;
        let a = endpoints.sample(rng);
        let b = endpoints.sample(rng);
        if a != b && g.add_edge(members[a], members[b]) {
            edges.push((members[a], members[b]));
        }
    }
    edges
}

/// Partition `members` into isolated pairs and triplets — the bot-burst
/// farm's compartmentalized topology. `triplet_fraction` of the groups are
/// triplets; `isolate_fraction` of members stay completely disconnected.
///
/// Returns the newly added edges in insertion order (see [`chung_lu`]).
pub fn pairs_and_triplets(
    g: &mut FriendGraph,
    members: &[UserId],
    triplet_fraction: f64,
    isolate_fraction: f64,
    rng: &mut Rng,
) -> Vec<(UserId, UserId)> {
    let mut pool: Vec<UserId> = members.to_vec();
    rng.shuffle(&mut pool);
    let keep_isolated = (pool.len() as f64 * isolate_fraction).round() as usize;
    let mut edges = Vec::new();
    let mut it = pool.into_iter().skip(keep_isolated).peekable();
    while let Some(a) = it.next() {
        let Some(b) = it.next() else { break };
        if g.add_edge(a, b) {
            edges.push((a, b));
        }
        if rng.chance(triplet_fraction) {
            if let Some(c) = it.next() {
                if g.add_edge(b, c) {
                    edges.push((b, c));
                }
                if g.add_edge(a, c) {
                    edges.push((a, c));
                }
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::component_sizes;

    fn u(i: u32) -> UserId {
        UserId(i)
    }

    fn members(n: u32) -> Vec<UserId> {
        (0..n).map(UserId).collect()
    }

    fn rng() -> Rng {
        Rng::seed_from_u64(0xFACE)
    }

    #[test]
    fn gnm_hits_exact_edge_count() {
        let ms = members(100);
        let mut g = FriendGraph::with_nodes(100);
        erdos_renyi_gnm(&mut g, &ms, 250, &mut rng());
        assert_eq!(g.edge_count(), 250);
    }

    #[test]
    fn gnm_caps_at_complete_graph() {
        let ms = members(5);
        let mut g = FriendGraph::with_nodes(5);
        erdos_renyi_gnm(&mut g, &ms, 1_000, &mut rng());
        assert_eq!(g.edge_count(), 10);
    }

    #[test]
    fn gnm_respects_member_subset() {
        let ms: Vec<UserId> = (10..20).map(UserId).collect();
        let mut g = FriendGraph::with_nodes(100);
        erdos_renyi_gnm(&mut g, &ms, 20, &mut rng());
        for (a, b) in g.edges() {
            assert!((10..20).contains(&a.0) && (10..20).contains(&b.0));
        }
    }

    #[test]
    fn watts_strogatz_degree_is_near_2k() {
        let ms = members(300);
        let mut g = FriendGraph::with_nodes(300);
        watts_strogatz(&mut g, &ms, 5, 0.1, &mut rng());
        let mean_deg = 2.0 * g.edge_count() as f64 / 300.0;
        assert!(
            (mean_deg - 10.0).abs() < 1.0,
            "mean degree {mean_deg} should be ~2k"
        );
    }

    #[test]
    fn watts_strogatz_beta_zero_is_lattice() {
        let ms = members(20);
        let mut g = FriendGraph::with_nodes(20);
        watts_strogatz(&mut g, &ms, 2, 0.0, &mut rng());
        assert_eq!(g.edge_count(), 40);
        assert!(g.has_edge(UserId(0), UserId(1)));
        assert!(g.has_edge(UserId(0), UserId(2)));
        assert!(!g.has_edge(UserId(0), UserId(3)));
    }

    #[test]
    fn pairs_and_triplets_components_are_tiny() {
        let ms = members(200);
        let mut g = FriendGraph::with_nodes(200);
        pairs_and_triplets(&mut g, &ms, 0.3, 0.1, &mut rng());
        let sizes = component_sizes(&g, &ms);
        assert!(
            sizes.iter().all(|s| *s <= 3),
            "no component may exceed a triplet: {sizes:?}"
        );
        let isolated = sizes.iter().filter(|s| **s == 1).count();
        assert!(isolated >= 20, "isolates expected, got {isolated}");
        let triplets = sizes.iter().filter(|s| **s == 3).count();
        assert!(triplets > 0, "some triplets expected");
    }

    #[test]
    fn chung_lu_tracks_target_degrees() {
        let ms = members(1_000);
        let targets: Vec<f64> = (0..1_000)
            .map(|i| if i < 10 { 100.0 } else { 10.0 })
            .collect();
        let mut g = FriendGraph::with_nodes(1_000);
        chung_lu(&mut g, &ms, &targets, &mut rng());
        let hub_mean: f64 = (0..10).map(|i| g.degree(u(i)) as f64).sum::<f64>() / 10.0;
        let leaf_mean: f64 = (10..1_000).map(|i| g.degree(u(i)) as f64).sum::<f64>() / 990.0;
        assert!(
            (hub_mean / leaf_mean - 10.0).abs() < 3.0,
            "hub {hub_mean} vs leaf {leaf_mean} should be ~10x"
        );
        let expected_edges = targets.iter().sum::<f64>() / 2.0;
        assert!(
            (g.edge_count() as f64 / expected_edges - 1.0).abs() < 0.05,
            "edge count {} vs {expected_edges}",
            g.edge_count()
        );
    }

    #[test]
    fn chung_lu_zero_targets_do_nothing() {
        let ms = members(10);
        let mut g = FriendGraph::with_nodes(10);
        chung_lu(&mut g, &ms, &[0.0; 10], &mut rng());
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    #[should_panic(expected = "one target degree per member")]
    fn chung_lu_length_mismatch_panics() {
        let ms = members(3);
        let mut g = FriendGraph::with_nodes(3);
        chung_lu(&mut g, &ms, &[1.0], &mut rng());
    }

    #[test]
    fn generators_tolerate_tiny_member_sets() {
        let mut g = FriendGraph::with_nodes(2);
        let ms = members(1);
        erdos_renyi_gnm(&mut g, &ms, 5, &mut rng());
        watts_strogatz(&mut g, &ms, 2, 0.5, &mut rng());
        pairs_and_triplets(&mut g, &ms, 0.5, 0.0, &mut rng());
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn generators_are_deterministic() {
        let ms = members(150);
        let build = || {
            let mut g = FriendGraph::with_nodes(150);
            let mut r = Rng::seed_from_u64(99);
            let targets: Vec<f64> = (0..150).map(|i| 1.0 + f64::from(i % 7)).collect();
            chung_lu(&mut g, &ms, &targets, &mut r);
            pairs_and_triplets(&mut g, &ms, 0.3, 0.1, &mut r);
            g.edges().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
