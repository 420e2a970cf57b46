//! Connected components over node subsets.
//!
//! The social-graph analysis (Figure 3) looks at the graph *induced by the
//! likers*: which likers clump into one dense blob (BoostLikes), which form
//! isolated pairs and triplets (SocialFormula), and which bridge providers
//! (AuthenticLikes ↔ MammothSocials). Components are computed over an
//! explicit member set so the global graph never needs copying.

use crate::adjacency::FriendGraph;
use crate::ids::UserId;
use std::collections::{BTreeMap, HashMap};

/// Union-find over an arbitrary set of user ids.
#[derive(Debug)]
pub struct UnionFind {
    parent: HashMap<UserId, UserId>,
    rank: HashMap<UserId, u32>,
}

impl UnionFind {
    /// Disjoint singletons for each member.
    pub fn new(members: &[UserId]) -> Self {
        UnionFind {
            parent: members.iter().map(|u| (*u, *u)).collect(),
            rank: members.iter().map(|u| (*u, 0)).collect(),
        }
    }

    /// Representative of `u`'s set (path-halving). An id never seen
    /// before joins as its own singleton — no panic path.
    pub fn find(&mut self, u: UserId) -> UserId {
        let mut x = u;
        loop {
            let p = *self.parent.entry(x).or_insert(x);
            if p == x {
                return x;
            }
            let gp = *self.parent.entry(p).or_insert(p);
            self.parent.insert(x, gp);
            x = gp;
        }
    }

    /// Merge the sets of `a` and `b`; true when they were distinct.
    pub fn union(&mut self, a: UserId, b: UserId) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let ka = *self.rank.entry(ra).or_insert(0);
        let kb = *self.rank.entry(rb).or_insert(0);
        let (hi, lo) = if ka >= kb { (ra, rb) } else { (rb, ra) };
        self.parent.insert(lo, hi);
        if ka == kb {
            *self.rank.entry(hi).or_insert(0) += 1;
        }
        true
    }

    /// True when `a` and `b` are in the same set.
    pub fn connected(&mut self, a: UserId, b: UserId) -> bool {
        self.find(a) == self.find(b)
    }
}

/// The connected components of the subgraph induced by `members`,
/// as a list of member lists (each sorted; list sorted by size descending,
/// ties by smallest id for determinism).
pub fn components(graph: &FriendGraph, members: &[UserId]) -> Vec<Vec<UserId>> {
    let member_set: std::collections::HashSet<UserId> = members.iter().copied().collect();
    let mut uf = UnionFind::new(members);
    let mut buf = Vec::new();
    for &u in members {
        for &v in graph.neighbors(u, &mut buf) {
            if member_set.contains(&v) {
                uf.union(u, v);
            }
        }
    }
    // BTreeMap so the grouping iterates deterministically; the final sort
    // below is a total order either way, but this keeps the intermediate
    // stages reproducible too.
    let mut groups: BTreeMap<UserId, Vec<UserId>> = BTreeMap::new();
    for &u in members {
        groups.entry(uf.find(u)).or_default().push(u);
    }
    let mut out: Vec<Vec<UserId>> = groups.into_values().collect();
    for g in &mut out {
        g.sort_unstable();
    }
    out.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a[0].cmp(&b[0])));
    out
}

/// Component sizes, descending. Convenience over [`components`].
pub fn component_sizes(graph: &FriendGraph, members: &[UserId]) -> Vec<usize> {
    components(graph, members).iter().map(Vec::len).collect()
}

/// A census of the induced component structure: how many singletons, pairs,
/// triplets, and larger blobs — the vocabulary of the paper's Figure 3
/// discussion.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ComponentCensus {
    /// Members with no induced edges at all.
    pub singletons: usize,
    /// Components of exactly two members.
    pub pairs: usize,
    /// Components of exactly three members.
    pub triplets: usize,
    /// Components of four or more members.
    pub larger: usize,
    /// Size of the largest component.
    pub giant_size: usize,
    /// Total member count (sanity anchor).
    pub members: usize,
}

impl ComponentCensus {
    /// Compute the census for the subgraph induced by `members`.
    pub fn compute(graph: &FriendGraph, members: &[UserId]) -> Self {
        let sizes = component_sizes(graph, members);
        let mut c = ComponentCensus {
            giant_size: sizes.first().copied().unwrap_or(0),
            members: members.len(),
            ..ComponentCensus::default()
        };
        for s in sizes {
            match s {
                1 => c.singletons += 1,
                2 => c.pairs += 1,
                3 => c.triplets += 1,
                _ => c.larger += 1,
            }
        }
        c
    }

    /// Fraction of members inside the largest component.
    pub fn giant_fraction(&self) -> f64 {
        if self.members == 0 {
            0.0
        } else {
            self.giant_size as f64 / self.members as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(i: u32) -> UserId {
        UserId(i)
    }

    fn chain(n: u32) -> FriendGraph {
        let mut g = FriendGraph::with_nodes(n as usize);
        for i in 0..n - 1 {
            g.add_edge(u(i), u(i + 1));
        }
        g
    }

    #[test]
    fn union_find_merges() {
        let ms: Vec<UserId> = (0..4).map(u).collect();
        let mut uf = UnionFind::new(&ms);
        assert!(uf.union(u(0), u(1)));
        assert!(!uf.union(u(1), u(0)), "already merged");
        assert!(uf.connected(u(0), u(1)));
        assert!(!uf.connected(u(0), u(2)));
        uf.union(u(2), u(3));
        uf.union(u(0), u(3));
        assert!(uf.connected(u(1), u(2)));
    }

    #[test]
    fn union_find_admits_unseen_ids_as_singletons() {
        let mut uf = UnionFind::new(&[u(0), u(1)]);
        // 99 was never a member: it joins lazily as its own set.
        assert_eq!(uf.find(u(99)), u(99));
        assert!(!uf.connected(u(99), u(0)));
        assert!(uf.union(u(99), u(0)));
        assert!(uf.connected(u(99), u(0)));
    }

    #[test]
    fn components_respect_member_subset() {
        // Chain 0-1-2-3-4, but only {0, 1, 3, 4} are members: the induced
        // subgraph loses node 2, splitting the chain into two pairs.
        let g = chain(5);
        let ms = vec![u(0), u(1), u(3), u(4)];
        let comps = components(&g, &ms);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![u(0), u(1)]);
        assert_eq!(comps[1], vec![u(3), u(4)]);
    }

    #[test]
    fn components_ordering_is_deterministic() {
        let mut g = FriendGraph::with_nodes(7);
        g.add_edge(u(5), u(6)); // pair
        g.add_edge(u(0), u(1));
        g.add_edge(u(1), u(2)); // triple
        let ms: Vec<UserId> = (0..7).map(u).collect();
        let comps = components(&g, &ms);
        assert_eq!(comps[0], vec![u(0), u(1), u(2)]);
        // Two singletons (3, 4) and the pair; size ties break on smallest id.
        assert_eq!(comps[1], vec![u(5), u(6)]);
        assert_eq!(comps[2], vec![u(3)]);
        assert_eq!(comps[3], vec![u(4)]);
    }

    #[test]
    fn census_counts_shapes() {
        let mut g = FriendGraph::with_nodes(12);
        g.add_edge(u(0), u(1)); // pair
        g.add_edge(u(2), u(3));
        g.add_edge(u(3), u(4)); // triplet
        for i in 6..9 {
            g.add_edge(u(5), u(i)); // star of 4+ (5,6,7,8)
        }
        // 9, 10, 11 isolated
        let ms: Vec<UserId> = (0..12).map(u).collect();
        let c = ComponentCensus::compute(&g, &ms);
        assert_eq!(
            c,
            ComponentCensus {
                singletons: 3,
                pairs: 1,
                triplets: 1,
                larger: 1,
                giant_size: 4,
                members: 12,
            }
        );
        assert!((c.giant_fraction() - 4.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn empty_member_set_is_fine() {
        let g = chain(3);
        assert!(components(&g, &[]).is_empty());
        let c = ComponentCensus::compute(&g, &[]);
        assert_eq!(c.giant_size, 0);
        assert_eq!(c.giant_fraction(), 0.0);
    }
}
