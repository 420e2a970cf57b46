//! Graphviz DOT export.
//!
//! Figure 3 of the paper is a drawing of the likers' friendship graph with
//! nodes colored by provider. We reproduce its *content* numerically in the
//! analysis crate; this module emits the same picture as DOT so a reader can
//! render it (`dot -Tsvg`) and eyeball the BoostLikes blob versus the
//! SocialFormula pairs.

use crate::adjacency::FriendGraph;
use crate::ids::UserId;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Export the subgraph induced by `members` as DOT. `group_of` labels each
/// node with a group (provider) name used for coloring; nodes without an
/// entry render gray. When `drop_isolated` is set, members without any
/// induced edge are omitted — the paper's Figure 3 does the same
/// ("likers who did not have friendship relations with any other likers
/// were excluded").
pub fn induced_dot(
    graph: &FriendGraph,
    members: &[UserId],
    group_of: &HashMap<UserId, String>,
    drop_isolated: bool,
) -> String {
    let member_set: std::collections::HashSet<UserId> = members.iter().copied().collect();
    // Stable palette assignment: groups sorted by name. Collecting through a
    // BTreeSet sorts and dedups in one pass, independent of map order.
    let groups: Vec<&String> = group_of
        .values()
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    const PALETTE: &[&str] = &[
        "#4c78a8", "#f58518", "#54a24b", "#e45756", "#72b7b2", "#b279a2", "#9d755d",
    ];
    let color_of = |g: &str| -> &str {
        groups
            .iter()
            .position(|x| x.as_str() == g)
            .map(|i| PALETTE[i % PALETTE.len()])
            .unwrap_or("#999999")
    };

    let mut induced_edges: Vec<(UserId, UserId)> = Vec::new();
    let mut has_edge: std::collections::HashSet<UserId> = std::collections::HashSet::new();
    let mut buf = Vec::new();
    for &u in members {
        for &v in graph.neighbors(u, &mut buf) {
            if u < v && member_set.contains(&v) {
                induced_edges.push((u, v));
                has_edge.insert(u);
                has_edge.insert(v);
            }
        }
    }

    let mut out = String::from("graph likers {\n  layout=neato;\n  node [shape=point, width=0.08];\n  edge [color=\"#00000040\"];\n");
    let mut sorted_members = members.to_vec();
    sorted_members.sort_unstable();
    for u in &sorted_members {
        if drop_isolated && !has_edge.contains(u) {
            continue;
        }
        let color = group_of.get(u).map(|g| color_of(g)).unwrap_or("#999999");
        let _ = writeln!(out, "  \"{u}\" [color=\"{color}\"];");
    }
    induced_edges.sort_unstable();
    for (a, b) in induced_edges {
        let _ = writeln!(out, "  \"{a}\" -- \"{b}\";");
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(i: u32) -> UserId {
        UserId(i)
    }

    #[test]
    fn dot_contains_nodes_edges_and_colors() {
        let mut g = FriendGraph::with_nodes(4);
        g.add_edge(u(0), u(1));
        let groups: HashMap<UserId, String> = [
            (u(0), "BL".to_string()),
            (u(1), "SF".to_string()),
            (u(2), "BL".to_string()),
        ]
        .into_iter()
        .collect();
        let ms: Vec<UserId> = (0..3).map(u).collect();
        let dot = induced_dot(&g, &ms, &groups, false);
        assert!(dot.starts_with("graph likers {"));
        assert!(dot.contains("\"u0\" -- \"u1\";"));
        assert!(dot.contains("\"u2\""), "isolated node kept");
        // Same group, same color.
        let color_u0 = dot
            .lines()
            .find(|l| l.contains("\"u0\" ["))
            .unwrap()
            .to_string();
        let color_u2 = dot
            .lines()
            .find(|l| l.contains("\"u2\" ["))
            .unwrap()
            .replace("u2", "u0");
        assert_eq!(color_u0, color_u2);
    }

    #[test]
    fn drop_isolated_removes_edge_free_members() {
        let mut g = FriendGraph::with_nodes(3);
        g.add_edge(u(0), u(1));
        let ms: Vec<UserId> = (0..3).map(u).collect();
        let dot = induced_dot(&g, &ms, &HashMap::new(), true);
        assert!(!dot.contains("\"u2\""));
        assert!(dot.contains("\"u0\""));
    }

    #[test]
    fn edges_to_non_members_are_excluded() {
        let mut g = FriendGraph::with_nodes(3);
        g.add_edge(u(0), u(2));
        let ms = vec![u(0), u(1)];
        let dot = induced_dot(&g, &ms, &HashMap::new(), false);
        assert!(!dot.contains("--"), "no induced edge expected");
        assert!(!dot.contains("\"u2\""));
    }

    #[test]
    fn unknown_group_renders_gray() {
        let g = FriendGraph::with_nodes(1);
        let dot = induced_dot(&g, &[u(0)], &HashMap::new(), false);
        assert!(dot.contains("#999999"));
    }

    /// Regression for the nondeterministic-iteration audit: the export must
    /// not depend on `group_of`'s hash order or on member order. Build the
    /// same logical inputs with shuffled insertion orders (which perturbs
    /// `HashMap` iteration order within one process) and demand identical
    /// bytes.
    #[test]
    fn export_is_independent_of_map_and_member_order() {
        let mut g = FriendGraph::with_nodes(8);
        for (a, b) in [(0, 1), (1, 2), (3, 4), (5, 6), (0, 7)] {
            g.add_edge(u(a), u(b));
        }
        let names = ["BL", "SF", "AL", "MS"];
        let entries: Vec<(UserId, String)> = (0..8u32)
            .map(|i| (u(i), names[i as usize % 4].to_string()))
            .collect();
        let members: Vec<UserId> = (0..8).map(u).collect();

        let forward: HashMap<UserId, String> = entries.iter().cloned().collect();
        let backward: HashMap<UserId, String> = entries.iter().rev().cloned().collect();
        let mut rotated_members = members.clone();
        rotated_members.rotate_left(3);

        let reference = induced_dot(&g, &members, &forward, true);
        assert_eq!(reference, induced_dot(&g, &members, &backward, true));
        assert_eq!(reference, induced_dot(&g, &rotated_members, &forward, true));
        assert_eq!(
            reference,
            induced_dot(&g, &rotated_members, &backward, true)
        );
    }
}
