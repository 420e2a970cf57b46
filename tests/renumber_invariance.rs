//! Renumbering invariance tier.
//!
//! [`likelab::graph::Renumbering`] relabels vertices (degree-descending for
//! the cache-conscious CSR) and every consumer must be observationally
//! unaffected:
//!
//! - **sybilrank** runs on the degree-ordered CSR internally; its trust
//!   vector must be *bitwise* identical to the original push-model power
//!   iteration on the untouched graph (the "renumbering off" reference,
//!   reimplemented here verbatim from the pre-CSR code).
//! - **twohop / components / DOT** produce integer or canonically
//!   ordered output, so running them on a relabeled graph and mapping ids
//!   back must give exactly the same answer.
//! - the renumbering map itself must be a true permutation:
//!   `renumber ∘ renumber⁻¹ = id` in both directions.

use std::collections::{BTreeSet, HashMap};

use likelab::detect::sybilrank::{sybil_rank, SybilRankConfig};
use likelab::graph::{
    components, dot, generate, twohop, FriendGraph, RenumberedCsr, Renumbering, UserId,
};
use likelab::sim::Rng;
use proptest::prelude::*;

/// Random graph: `n` nodes, `m` edge attempts, plus a few isolated nodes so
/// zero-degree handling is always exercised.
fn random_graph(n: usize, m: usize, seed: u64) -> FriendGraph {
    let mut g = FriendGraph::with_nodes(n + 3);
    let members: Vec<UserId> = (0..n as u32).map(UserId).collect();
    let mut rng = Rng::seed_from_u64(seed);
    generate::erdos_renyi_gnm(&mut g, &members, m, &mut rng);
    g
}

/// Random permutation of `n` ids as a [`Renumbering`].
fn random_permutation(n: usize, seed: u64) -> Renumbering {
    let mut old_of_new: Vec<u32> = (0..n as u32).collect();
    Rng::seed_from_u64(seed).shuffle(&mut old_of_new);
    Renumbering::from_old_of_new(old_of_new)
}

/// The pre-CSR sybilrank: push-model power iteration in old-id order. This is
/// the bit-exact reference the degree-ordered implementation must reproduce.
fn sybil_rank_reference(graph: &FriendGraph, seeds: &[UserId], iterations: usize) -> Vec<f64> {
    let n = graph.node_count();
    let mut trust = vec![0.0f64; n];
    let seed_share = 1.0 / seeds.len() as f64;
    for s in seeds {
        trust[s.idx()] += seed_share;
    }
    let mut next = vec![0.0f64; n];
    let mut buf = Vec::new();
    for _ in 0..iterations {
        next.iter_mut().for_each(|v| *v = 0.0);
        for u in graph.nodes() {
            let t = trust[u.idx()];
            if t == 0.0 {
                continue;
            }
            let d = graph.degree(u);
            if d == 0 {
                next[u.idx()] += t;
                continue;
            }
            let share = t / d as f64;
            for v in graph.neighbors(u, &mut buf) {
                next[v.idx()] += share;
            }
        }
        std::mem::swap(&mut trust, &mut next);
    }
    for u in graph.nodes() {
        let d = graph.degree(u);
        if d > 0 {
            trust[u.idx()] /= d as f64;
        }
    }
    trust
}

proptest! {
    /// The CSR-backed sybilrank is bitwise identical to the push-model
    /// reference — not merely close: report goldens and replay identity
    /// depend on the exact f64 bit patterns.
    #[test]
    fn sybilrank_bitwise_matches_push_reference(
        n in 2usize..40,
        m in 0usize..120,
        n_seeds in 1usize..4,
        seed in 0u64..1_000,
    ) {
        let g = random_graph(n, m, seed);
        let seeds: Vec<UserId> = (0..n_seeds as u32).map(UserId).collect();
        let config = SybilRankConfig { iterations: Some(8) };
        let got = sybil_rank(&g, &seeds, &config);
        let want = sybil_rank_reference(&g, &seeds, 8);
        for (u, &w) in want.iter().enumerate() {
            let t = got.trust(UserId(u as u32));
            prop_assert_eq!(
                t.to_bits(),
                w.to_bits(),
                "trust[{}] diverged: {} vs {}",
                u,
                t,
                w
            );
        }
    }

    /// renumber ∘ renumber⁻¹ = id, in both directions, for arbitrary
    /// permutations and for the degree-descending map of a random graph.
    #[test]
    fn renumber_composed_with_inverse_is_identity(
        n in 1usize..200,
        m in 0usize..300,
        seed in 0u64..1_000,
    ) {
        for map in [
            random_permutation(n, seed),
            Renumbering::degree_descending(&random_graph(n, m, seed)),
        ] {
            let inv = map.inverse();
            prop_assert_eq!(map.len(), inv.len());
            for i in 0..map.len() as u32 {
                let id = UserId(i);
                // map⁻¹ ∘ map = id (as old → new → old), and the reverse.
                prop_assert_eq!(map.old_of(map.new_of(id)), id);
                prop_assert_eq!(map.new_of(map.old_of(id)), id);
                // The inverse map swaps the two directions wholesale.
                prop_assert_eq!(inv.new_of(id), map.old_of(id));
                prop_assert_eq!(inv.old_of(id), map.new_of(id));
            }
            let double = inv.inverse();
            for i in 0..map.len() as u32 {
                prop_assert_eq!(double.new_of(UserId(i)), map.new_of(UserId(i)));
            }
        }
    }

    /// Relabeling the graph and mapping results back changes nothing for the
    /// integer-output algorithms: two-hop census and components.
    #[test]
    fn integer_algorithms_are_renumbering_invariant(
        n in 2usize..40,
        m in 0usize..120,
        n_members in 1usize..10,
        seed in 0u64..1_000,
    ) {
        let g = random_graph(n, m, seed);
        let total = g.node_count();
        let map = random_permutation(total, seed ^ 0x9e37);
        let h = map.apply(&g);
        let members: Vec<UserId> = (0..n_members.min(total) as u32).map(UserId).collect();
        let mapped: Vec<UserId> = members.iter().map(|&u| map.new_of(u)).collect();

        // twohop: direct count and the pair census (pairs mapped back, canonical).
        prop_assert_eq!(
            twohop::direct_edges_within(&g, &members),
            twohop::direct_edges_within(&h, &mapped)
        );
        for exclude_direct in [false, true] {
            let pairs_g: BTreeSet<(UserId, UserId)> = twohop::two_hop_pairs(&g, &members, exclude_direct)
                .into_iter()
                .collect();
            let pairs_h: BTreeSet<(UserId, UserId)> = twohop::two_hop_pairs(&h, &mapped, exclude_direct)
                .into_iter()
                .map(|(a, b)| {
                    let (x, y) = (map.old_of(a), map.old_of(b));
                    (x.min(y), x.max(y))
                })
                .collect();
            let pairs_g: BTreeSet<(UserId, UserId)> = pairs_g
                .into_iter()
                .map(|(a, b)| (a.min(b), a.max(b)))
                .collect();
            prop_assert_eq!(pairs_g, pairs_h);
        }

        // components: same partition after mapping back and canonicalizing.
        let all: Vec<UserId> = (0..total as u32).map(UserId).collect();
        let all_mapped: Vec<UserId> = all.iter().map(|&u| map.new_of(u)).collect();
        let canon = |mut comps: Vec<Vec<UserId>>| -> BTreeSet<Vec<UserId>> {
            comps
                .iter_mut()
                .map(|c| {
                    c.sort();
                    c.clone()
                })
                .collect()
        };
        let comps_g = canon(components(&g, &all));
        let comps_h = canon(
            components(&h, &all_mapped)
                .into_iter()
                .map(|c| c.into_iter().map(|u| map.old_of(u)).collect())
                .collect(),
        );
        prop_assert_eq!(comps_g, comps_h);
    }

    /// The degree-ordered CSR is a faithful re-encoding: same degrees, same
    /// neighbor sets, rows sorted by the documented ascending-old-id order.
    #[test]
    fn csr_rows_mirror_graph_adjacency(
        n in 1usize..60,
        m in 0usize..200,
        seed in 0u64..1_000,
    ) {
        let g = random_graph(n, m, seed);
        let csr = RenumberedCsr::degree_ordered(&g);
        let map = csr.map();
        prop_assert_eq!(csr.node_count(), g.node_count());
        let mut buf = Vec::new();
        for old in 0..g.node_count() as u32 {
            let new = map.new_of(UserId(old)).idx();
            prop_assert_eq!(csr.degree(new), g.degree(UserId(old)));
            let row_olds: Vec<u32> = csr.row(new)
                .iter()
                .map(|&w| map.old_of(UserId(w)).0)
                .collect();
            let mut sorted = row_olds.clone();
            sorted.sort_unstable();
            prop_assert_eq!(&row_olds, &sorted, "row order must be ascending old id");
            let neigh: Vec<u32> = g.neighbors(UserId(old), &mut buf).iter().map(|v| v.0).collect();
            prop_assert_eq!(row_olds, neigh);
        }
    }
}

/// DOT export is untouched by renumbering machinery: exporting the identity
/// relabeling of a graph yields byte-identical output.
#[test]
fn dot_export_is_byte_identical_under_identity_renumbering() {
    let g = random_graph(24, 60, 7);
    let id = Renumbering::identity(g.node_count());
    let h = id.apply(&g);
    let members: Vec<UserId> = (0..20).map(UserId).collect();
    let mut group_of: HashMap<UserId, String> = HashMap::new();
    for &u in &members {
        group_of.insert(
            u,
            if u.0 % 2 == 0 {
                "farm".into()
            } else {
                "organic".into()
            },
        );
    }
    for drop_isolated in [false, true] {
        let a = dot::induced_dot(&g, &members, &group_of, drop_isolated);
        let b = dot::induced_dot(&h, &members, &group_of, drop_isolated);
        assert_eq!(a, b, "identity renumbering changed DOT bytes");
    }
}

/// Degree ordering is what it claims: new ids sorted by descending degree,
/// ties broken by ascending old id — the documented, versioned map contract.
#[test]
fn degree_descending_map_orders_by_degree() {
    let g = random_graph(40, 100, 11);
    let map = Renumbering::degree_descending(&g);
    let mut last: Option<(usize, u32)> = None;
    for new in 0..map.len() as u32 {
        let old = map.old_of(UserId(new));
        let key = (g.degree(old), old.0);
        if let Some((last_deg, last_old)) = last {
            assert!(
                key.0 < last_deg || (key.0 == last_deg && key.1 > last_old),
                "degree order violated at new id {new}"
            );
        }
        last = Some(key);
    }
}
