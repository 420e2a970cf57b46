//! Direct and 2-hop relations inside a node subset.
//!
//! Table 3 of the paper counts, per provider, (a) friendship edges between
//! likers and (b) "2-hop friendship relations" — pairs of likers who share a
//! mutual friend (the mutual friend need not be a liker). Figure 3(b) draws
//! the union of both. These queries run over the *global* graph restricted
//! to a member set, so mutual friends outside the set still count.

use crate::adjacency::FriendGraph;
use crate::ids::UserId;
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// Number of friendship edges whose endpoints are both in `members`.
pub fn direct_edges_within(graph: &FriendGraph, members: &[UserId]) -> usize {
    let set: HashSet<UserId> = members.iter().copied().collect();
    let mut count = 0;
    let mut buf = Vec::new();
    for &u in members {
        for &v in graph.neighbors(u, &mut buf) {
            if u < v && set.contains(&v) {
                count += 1;
            }
        }
    }
    count
}

/// The pairs `(a, b)` (with `a < b`, both in `members`) that share at least
/// one mutual friend anywhere in the graph. When `exclude_direct` is set,
/// pairs that are already direct friends are omitted — that matches the
/// paper's separate accounting of direct vs. 2-hop relations.
pub fn two_hop_pairs(
    graph: &FriendGraph,
    members: &[UserId],
    exclude_direct: bool,
) -> Vec<(UserId, UserId)> {
    let set: HashSet<UserId> = members.iter().copied().collect();
    // Invert: for every middle node, which members neighbor it. Each middle
    // node then contributes all pairs of its member-neighbors. BTree
    // containers keep the whole computation order-deterministic without a
    // final sort.
    let mut via: BTreeMap<UserId, Vec<UserId>> = BTreeMap::new();
    let mut buf = Vec::new();
    for &m in members {
        for &mid in graph.neighbors(m, &mut buf) {
            via.entry(mid).or_default().push(m);
        }
    }
    let mut pairs: BTreeSet<(UserId, UserId)> = BTreeSet::new();
    for (mid, ms) in via {
        if ms.len() < 2 {
            continue;
        }
        // `mid` may itself be a member; it still works as a mutual friend for
        // its neighbors, which is consistent with path-of-length-2 semantics.
        let _ = mid;
        for i in 0..ms.len() {
            for j in (i + 1)..ms.len() {
                let (a, b) = if ms[i] < ms[j] {
                    (ms[i], ms[j])
                } else if ms[j] < ms[i] {
                    (ms[j], ms[i])
                } else {
                    continue; // same member reached twice
                };
                pairs.insert((a, b));
            }
        }
    }
    // BTreeSet iterates in ascending order and `filter` preserves it, so the
    // result is already sorted.
    pairs
        .into_iter()
        .filter(|(a, b)| {
            debug_assert!(set.contains(a) && set.contains(b));
            !(exclude_direct && graph.has_edge(*a, *b))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(i: u32) -> UserId {
        UserId(i)
    }

    #[test]
    fn direct_edges_counts_induced_only() {
        let mut g = FriendGraph::with_nodes(5);
        g.add_edge(u(0), u(1));
        g.add_edge(u(1), u(2));
        g.add_edge(u(3), u(4));
        let ms = vec![u(0), u(1), u(3)];
        // Only 0-1 lies fully inside the member set.
        assert_eq!(direct_edges_within(&g, &ms), 1);
    }

    #[test]
    fn two_hop_via_outside_mutual_friend() {
        // 0 - 9 - 1: members {0, 1} share mutual friend 9 (not a member).
        let mut g = FriendGraph::with_nodes(10);
        g.add_edge(u(0), u(9));
        g.add_edge(u(1), u(9));
        let ms = vec![u(0), u(1)];
        assert_eq!(two_hop_pairs(&g, &ms, true), vec![(u(0), u(1))]);
        assert_eq!(direct_edges_within(&g, &ms), 0);
    }

    #[test]
    fn exclude_direct_removes_adjacent_pairs() {
        // 0 and 1 are direct friends AND share mutual friend 2.
        let mut g = FriendGraph::with_nodes(3);
        g.add_edge(u(0), u(1));
        g.add_edge(u(0), u(2));
        g.add_edge(u(1), u(2));
        let ms = vec![u(0), u(1)];
        assert_eq!(two_hop_pairs(&g, &ms, true).len(), 0);
        assert_eq!(two_hop_pairs(&g, &ms, false).len(), 1);
    }

    #[test]
    fn member_middle_node_counts_as_mutual_friend() {
        // Chain 0 - 1 - 2, all members: 0 and 2 are 2-hop via member 1.
        let mut g = FriendGraph::with_nodes(3);
        g.add_edge(u(0), u(1));
        g.add_edge(u(1), u(2));
        let ms = vec![u(0), u(1), u(2)];
        assert_eq!(two_hop_pairs(&g, &ms, true), vec![(u(0), u(2))]);
    }

    #[test]
    fn star_produces_all_leaf_pairs() {
        // Hub 0 with leaves 1..=4; members are the leaves.
        let mut g = FriendGraph::with_nodes(5);
        for i in 1..5 {
            g.add_edge(u(0), u(i));
        }
        let ms: Vec<UserId> = (1..5).map(u).collect();
        assert_eq!(two_hop_pairs(&g, &ms, true).len(), 6); // C(4,2)
    }

    #[test]
    fn multiple_mutual_friends_count_once() {
        // 0 and 1 share mutual friends 2 AND 3 — still one pair.
        let mut g = FriendGraph::with_nodes(4);
        g.add_edge(u(0), u(2));
        g.add_edge(u(1), u(2));
        g.add_edge(u(0), u(3));
        g.add_edge(u(1), u(3));
        let ms = vec![u(0), u(1)];
        assert_eq!(two_hop_pairs(&g, &ms, true).len(), 1);
    }

    #[test]
    fn empty_members_and_no_edges() {
        let g = FriendGraph::with_nodes(3);
        assert_eq!(direct_edges_within(&g, &[]), 0);
        assert_eq!(two_hop_pairs(&g, &[u(0), u(1)], true).len(), 0);
    }
}
