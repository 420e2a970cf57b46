//! Property-based tests of the graph substrate's invariants.

use likelab_graph::components::{component_sizes, components, ComponentCensus};
use likelab_graph::metrics::SummaryStats;
use likelab_graph::twohop::{direct_edges_within, two_hop_pairs};
use likelab_graph::{FriendGraph, UserId};
use proptest::prelude::*;
use std::collections::HashSet;

/// Arbitrary edge list over `n` nodes.
fn edges(n: u32, max_edges: usize) -> impl Strategy<Value = (u32, Vec<(u32, u32)>)> {
    let pairs = prop::collection::vec((0..n, 0..n), 0..max_edges);
    pairs.prop_map(move |es| (n, es))
}

fn build(n: u32, es: &[(u32, u32)]) -> FriendGraph {
    let mut g = FriendGraph::with_nodes(n as usize);
    for (a, b) in es {
        if a != b {
            g.add_edge(UserId(*a), UserId(*b));
        }
    }
    g
}

proptest! {
    /// The friendship graph is symmetric, loop-free, and dedup'd; the edge
    /// count equals the number of distinct unordered pairs inserted.
    #[test]
    fn friendship_graph_is_simple_and_symmetric((n, es) in edges(30, 120)) {
        let g = build(n, &es);
        let distinct: HashSet<(u32, u32)> = es
            .iter()
            .filter(|(a, b)| a != b)
            .map(|(a, b)| (*a.min(b), *a.max(b)))
            .collect();
        prop_assert_eq!(g.edge_count(), distinct.len());
        let mut buf = Vec::new();
        for u in g.nodes() {
            prop_assert!(!g.has_edge(u, u));
            for &v in g.neighbors(u, &mut buf) {
                prop_assert!(g.has_edge(v, u), "symmetry");
            }
        }
        // Handshake lemma.
        let degree_sum: usize = g.nodes().map(|u| g.degree(u)).sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
        // Edge iteration covers each edge exactly once.
        prop_assert_eq!(g.edges().count(), g.edge_count());
    }

    /// Components partition the member set: sizes sum to |members| and every
    /// member appears in exactly one component.
    #[test]
    fn components_partition_members((n, es) in edges(25, 80)) {
        let g = build(n, &es);
        let members: Vec<UserId> = (0..n).map(UserId).collect();
        let comps = components(&g, &members);
        let total: usize = comps.iter().map(Vec::len).sum();
        prop_assert_eq!(total, members.len());
        let mut seen = HashSet::new();
        for c in &comps {
            for u in c {
                prop_assert!(seen.insert(*u), "member in two components");
            }
        }
        // Sizes are sorted descending.
        let sizes = component_sizes(&g, &members);
        prop_assert!(sizes.windows(2).all(|w| w[0] >= w[1]));
        // Census is consistent.
        let census = ComponentCensus::compute(&g, &members);
        prop_assert_eq!(census.members, members.len());
        prop_assert_eq!(census.giant_size, sizes.first().copied().unwrap_or(0));
        prop_assert_eq!(
            census.singletons + 2 * census.pairs + 3 * census.triplets
                + comps.iter().filter(|c| c.len() >= 4).map(Vec::len).sum::<usize>(),
            members.len()
        );
    }

    /// Two connected members are in the same component; disconnected pairs
    /// (no path) are not.
    #[test]
    fn components_respect_connectivity((n, es) in edges(15, 40)) {
        let g = build(n, &es);
        let members: Vec<UserId> = (0..n).map(UserId).collect();
        let comps = components(&g, &members);
        for (a, b) in g.edges() {
            let ca = comps.iter().position(|c| c.contains(&a));
            let cb = comps.iter().position(|c| c.contains(&b));
            prop_assert_eq!(ca, cb, "edge endpoints share a component");
        }
    }

    /// 2-hop pairs are between members, never direct when excluded, and
    /// every reported pair really shares a neighbor.
    #[test]
    fn two_hop_pairs_are_sound((n, es) in edges(20, 60), member_mask in prop::collection::vec(any::<bool>(), 20)) {
        let g = build(n, &es);
        let members: Vec<UserId> = (0..n)
            .filter(|i| member_mask.get(*i as usize).copied().unwrap_or(false))
            .map(UserId)
            .collect();
        let member_set: HashSet<UserId> = members.iter().copied().collect();
        let pairs = two_hop_pairs(&g, &members, true);
        for (a, b) in &pairs {
            prop_assert!(a < b, "canonical ordering");
            prop_assert!(member_set.contains(a) && member_set.contains(b));
            prop_assert!(!g.has_edge(*a, *b), "direct pairs excluded");
            prop_assert!(g.common_neighbors(*a, *b) > 0, "shared neighbor exists");
        }
        // Including direct pairs only adds pairs.
        let with_direct = two_hop_pairs(&g, &members, false);
        prop_assert!(with_direct.len() >= pairs.len());
        // Direct edge counting is consistent with membership.
        let direct = direct_edges_within(&g, &members);
        let expected = g
            .edges()
            .filter(|(a, b)| member_set.contains(a) && member_set.contains(b))
            .count();
        prop_assert_eq!(direct, expected);
    }

    /// The CSR adjacency round-trips against a naive Vec-of-sets reference
    /// built from the same random edge list: identical neighbor lists
    /// (sorted), degrees, membership answers, and canonical edge iteration —
    /// with or without explicit mid-build compaction of the CSR overlay.
    /// Each graph's neighbor lists are read through one reused buffer, so
    /// a merge always lands on an earlier node's list.
    #[test]
    fn csr_round_trips_against_reference(
        (n, es) in edges(30, 160),
        compact_every in 1usize..40,
    ) {
        use std::collections::BTreeSet;
        let mut g = FriendGraph::with_nodes(n as usize);
        let mut compacted = FriendGraph::with_nodes(n as usize);
        let mut reference: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); n as usize];
        for (i, (a, b)) in es.iter().enumerate() {
            if a == b {
                continue;
            }
            let added = g.add_edge(UserId(*a), UserId(*b));
            prop_assert_eq!(added, compacted.add_edge(UserId(*a), UserId(*b)));
            let fresh = reference[*a as usize].insert(*b);
            reference[*b as usize].insert(*a);
            prop_assert_eq!(added, fresh, "dedup disagrees with reference");
            if i % compact_every == 0 {
                compacted.compact();
            }
        }
        compacted.compact();
        prop_assert!(compacted.is_compact());
        let (mut buf, mut buf_c) = (Vec::new(), Vec::new());
        for u in 0..n {
            let want: Vec<UserId> = reference[u as usize].iter().map(|v| UserId(*v)).collect();
            let got = g.neighbors(UserId(u), &mut buf);
            prop_assert_eq!(got, &want[..], "neighbors of {} (overlay)", u);
            let got_c = compacted.neighbors(UserId(u), &mut buf_c);
            prop_assert_eq!(got_c, &want[..], "neighbors of {} (compacted)", u);
            prop_assert_eq!(g.degree(UserId(u)), want.len());
            for v in 0..n {
                let expect = reference[u as usize].contains(&v);
                prop_assert_eq!(g.has_edge(UserId(u), UserId(v)), expect);
                prop_assert_eq!(compacted.has_edge(UserId(u), UserId(v)), expect);
            }
        }
        let expected_edges: usize = reference.iter().map(BTreeSet::len).sum::<usize>() / 2;
        prop_assert_eq!(g.edge_count(), expected_edges);
        let canonical: Vec<(UserId, UserId)> = g.edges().collect();
        prop_assert_eq!(canonical.len(), expected_edges);
        prop_assert!(canonical.iter().all(|(a, b)| a < b));
        prop_assert_eq!(canonical, compacted.edges().collect::<Vec<_>>());
    }

    /// Summary statistics stay within sane bounds.
    #[test]
    fn summary_stats_are_bounded(values in prop::collection::vec(-1_000.0f64..1_000.0, 1..50)) {
        let s = SummaryStats::of(&values);
        let min = values.iter().cloned().fold(f64::MAX, f64::min);
        let max = values.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!(s.mean >= min - 1e-9 && s.mean <= max + 1e-9);
        prop_assert!(s.median >= min && s.median <= max);
        prop_assert!(s.std_dev >= 0.0);
        prop_assert!(s.std_dev <= (max - min) + 1e-9);
        prop_assert_eq!(s.n, values.len());
    }
}
