//! Degree-ordered vertex renumbering and the cache-conscious CSR view.
//!
//! Power-iteration style algorithms walk every adjacency row each round;
//! with vertex ids assigned in creation order, the hottest rows (hubs) are
//! scattered across the whole id range and every round walks the full
//! working set in random order. Renumbering vertices by **descending
//! degree** packs the hubs — which own most of the edge endpoints — into
//! the front of every array, so the accumulator slots they hit stay
//! resident in cache.
//!
//! A [`Renumbering`] is an explicit old↔new permutation; a
//! [`RenumberedCsr`] is a flat adjacency snapshot in new-id space. The
//! contract consumers rely on (and `tests/renumber_invariance.rs` pins):
//! renumbering is **observationally invisible** — every algorithm maps ids
//! in, computes in new space, and maps ids back out, with external outputs
//! byte-identical to a run on the original labeling.
//!
//! One detail makes float byte-identity possible: each CSR row stores new
//! ids but keeps its entries ordered by ascending **old** id (the order
//! [`FriendGraph::neighbors`] yields). A pull-style accumulation over a row
//! therefore adds contributions in exactly the sequence the old-id push
//! loop did, and IEEE addition performed in the same order gives the same
//! bits. See `sybil_rank` in `likelab-detect`.
//!
//! The mapping layout is versioned alongside the event-log schema (see
//! DESIGN.md): [`MAP_FORMAT_VERSION`] guards any serialized form.

use crate::adjacency::FriendGraph;
use crate::ids::UserId;
use serde::{Deserialize, Serialize};

/// Version of the renumbering-map layout (bump on any change to how a
/// mapping is represented or serialized).
pub const MAP_FORMAT_VERSION: u32 = 1;

/// A bijection between old (creation-order) and new (layout-order) ids.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Renumbering {
    /// `new_of_old[old] = new`.
    new_of_old: Vec<u32>,
    /// `old_of_new[new] = old`.
    old_of_new: Vec<u32>,
}

impl Renumbering {
    /// The identity mapping over `n` vertices.
    pub fn identity(n: usize) -> Self {
        let ids: Vec<u32> = (0..n as u32).collect();
        Renumbering {
            new_of_old: ids.clone(),
            old_of_new: ids,
        }
    }

    /// Degree-descending order: new id 0 is the highest-degree vertex, ties
    /// broken by ascending old id (fully deterministic).
    pub fn degree_descending(graph: &FriendGraph) -> Self {
        let n = graph.node_count();
        let mut old_of_new: Vec<u32> = (0..n as u32).collect();
        old_of_new.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(UserId(v))), v));
        Self::from_old_of_new(old_of_new)
    }

    /// Build from an explicit new→old table.
    ///
    /// # Panics
    /// Panics when the table is not a permutation of `0..len`.
    pub fn from_old_of_new(old_of_new: Vec<u32>) -> Self {
        let n = old_of_new.len();
        let mut new_of_old = vec![u32::MAX; n];
        for (new, &old) in old_of_new.iter().enumerate() {
            // Documented panic: the table must be a permutation.
            #[allow(clippy::expect_used)]
            let slot = new_of_old
                .get_mut(old as usize)
                // lint:allow(panic-reachable-from-serve): documented panic — the table must be a permutation
                .expect("renumbering entry out of range");
            // lint:allow(panic-reachable-from-serve): documented panic — the table must be a permutation, as `degree_descending`'s sort of 0..n is
            assert!(*slot == u32::MAX, "duplicate old id {old} in renumbering");
            *slot = new as u32;
        }
        Renumbering {
            new_of_old,
            old_of_new,
        }
    }

    /// Number of vertices covered.
    pub fn len(&self) -> usize {
        self.new_of_old.len()
    }

    /// True when the mapping covers no vertices.
    pub fn is_empty(&self) -> bool {
        self.new_of_old.is_empty()
    }

    /// The new id of an old id.
    pub fn new_of(&self, old: UserId) -> UserId {
        // lint:allow(panic-reachable-from-serve): callers renumber ids drawn from the same graph
        UserId(self.new_of_old[old.idx()])
    }

    /// The old id of a new id.
    pub fn old_of(&self, new: UserId) -> UserId {
        // lint:allow(panic-reachable-from-serve): callers renumber ids drawn from the same graph
        UserId(self.old_of_new[new.idx()])
    }

    /// The inverse mapping (swaps the two directions).
    pub fn inverse(&self) -> Renumbering {
        Renumbering {
            new_of_old: self.old_of_new.clone(),
            old_of_new: self.new_of_old.clone(),
        }
    }

    /// True when this is the identity permutation.
    pub fn is_identity(&self) -> bool {
        self.new_of_old
            .iter()
            .enumerate()
            .all(|(i, &v)| v == i as u32)
    }

    /// Relabel a graph: vertex `old` becomes `new_of(old)`. Edge structure
    /// is preserved exactly; used by the invariance tests to run whole
    /// algorithms in permuted space.
    pub fn apply(&self, graph: &FriendGraph) -> FriendGraph {
        let mut out = FriendGraph::with_nodes(graph.node_count());
        for (a, b) in graph.edges() {
            out.add_edge(self.new_of(a), self.new_of(b));
        }
        out.compact();
        out
    }
}

/// A flat CSR adjacency snapshot in new-id space.
///
/// Row `v` (a new id) lists the neighbors of `old_of(v)` as new ids, in
/// ascending **old**-id order — the property that keeps float accumulation
/// sequences identical to the unrenumbered graph (module docs).
#[derive(Clone, Debug)]
pub struct RenumberedCsr {
    offsets: Vec<u64>,
    targets: Vec<u32>,
    map: Renumbering,
}

impl RenumberedCsr {
    /// Snapshot `graph` under `map`.
    pub fn build(graph: &FriendGraph, map: Renumbering) -> Self {
        let n = graph.node_count();
        // lint:allow(panic-reachable-from-serve): serve's caller, `degree_ordered`, builds the map from this graph's own node count
        assert_eq!(map.len(), n, "mapping must cover every vertex");
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(2 * graph.edge_count());
        offsets.push(0u64);
        let mut buf = Vec::new();
        for new in 0..n as u32 {
            let old = map.old_of(UserId(new));
            // `neighbors` yields ascending old ids; keep that order.
            for w in graph.neighbors(old, &mut buf) {
                targets.push(map.new_of(*w).0);
            }
            offsets.push(targets.len() as u64);
        }
        RenumberedCsr {
            offsets,
            targets,
            map,
        }
    }

    /// Snapshot in degree-descending order (the cache-conscious default).
    pub fn degree_ordered(graph: &FriendGraph) -> Self {
        Self::build(graph, Renumbering::degree_descending(graph))
    }

    /// Number of vertices.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Degree of a new-id vertex.
    pub fn degree(&self, new: usize) -> usize {
        (self.offsets[new + 1] - self.offsets[new]) as usize
    }

    /// Neighbor row of a new-id vertex (new ids, ascending-old-id order).
    pub fn row(&self, new: usize) -> &[u32] {
        // lint:allow(panic-reachable-from-serve): offsets has n+1 monotone entries bounded by targets.len()
        &self.targets[self.offsets[new] as usize..self.offsets[new + 1] as usize]
    }

    /// The old↔new mapping this snapshot was built under.
    pub fn map(&self) -> &Renumbering {
        &self.map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(i: u32) -> UserId {
        UserId(i)
    }

    fn star_plus_pair() -> FriendGraph {
        // Hub 3 with leaves 0,1,4; pair 2-5; node 6 isolated.
        let mut g = FriendGraph::with_nodes(7);
        for leaf in [0, 1, 4] {
            g.add_edge(u(3), u(leaf));
        }
        g.add_edge(u(2), u(5));
        g
    }

    #[test]
    fn degree_descending_orders_hubs_first() {
        let g = star_plus_pair();
        let r = Renumbering::degree_descending(&g);
        assert_eq!(r.old_of(u(0)), u(3), "hub gets new id 0");
        // Degree-1 nodes follow in old-id order: 0, 1, 2, 4, 5; then 6.
        assert_eq!(r.old_of(u(1)), u(0));
        assert_eq!(r.old_of(u(5)), u(5));
        assert_eq!(r.old_of(u(6)), u(6));
    }

    #[test]
    fn roundtrip_is_identity() {
        let g = star_plus_pair();
        let r = Renumbering::degree_descending(&g);
        for i in 0..7 {
            assert_eq!(r.old_of(r.new_of(u(i))), u(i));
            assert_eq!(r.new_of(r.old_of(u(i))), u(i));
        }
        assert!(!r.is_identity());
        assert!(Renumbering::identity(7).is_identity());
        let inv = r.inverse();
        for i in 0..7 {
            assert_eq!(inv.new_of(r.new_of(u(i))), u(i));
        }
    }

    #[test]
    fn csr_rows_match_neighbors_under_mapping() {
        let g = star_plus_pair();
        let csr = RenumberedCsr::degree_ordered(&g);
        assert_eq!(csr.node_count(), 7);
        for new in 0..7usize {
            let old = csr.map().old_of(u(new as u32));
            let expect: Vec<u32> = g
                .neighbors(old, &mut Vec::new())
                .iter()
                .map(|w| csr.map().new_of(*w).0)
                .collect();
            assert_eq!(csr.row(new), expect.as_slice(), "row {new}");
            assert_eq!(csr.degree(new), g.degree(old));
        }
    }

    #[test]
    fn apply_preserves_structure() {
        let g = star_plus_pair();
        let r = Renumbering::degree_descending(&g);
        let relabeled = r.apply(&g);
        assert_eq!(relabeled.edge_count(), g.edge_count());
        for (a, b) in g.edges() {
            assert!(relabeled.has_edge(r.new_of(a), r.new_of(b)));
        }
    }

    #[test]
    #[should_panic(expected = "duplicate old id")]
    fn rejects_non_permutation() {
        Renumbering::from_old_of_new(vec![0, 0, 1]);
    }

    #[test]
    fn identity_on_empty() {
        let r = Renumbering::identity(0);
        assert!(r.is_empty());
        assert!(r.is_identity());
    }
}
