//! Summary statistics and local clustering.
//!
//! Table 3 reports friends per liker as mean ± standard deviation and a
//! median ([`SummaryStats`]); the detectors' per-account features include
//! the local clustering coefficient of the account's friend neighborhood
//! ([`local_clustering`]).

use crate::adjacency::FriendGraph;
use crate::ids::UserId;
use serde::{Deserialize, Serialize};

/// Mean, standard deviation (population), and median of a sample.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SummaryStats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Median (lower of the two middles for even-sized samples — matching
    /// the integer medians the paper reports).
    pub median: f64,
    /// Sample size.
    pub n: usize,
}

impl SummaryStats {
    /// Compute over `values`. Returns a zeroed summary on empty input.
    pub fn of(values: &[f64]) -> Self {
        let n = values.len();
        if n == 0 {
            return SummaryStats {
                mean: 0.0,
                std_dev: 0.0,
                median: 0.0,
                n: 0,
            };
        }
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            sorted[n / 2 - 1]
        };
        SummaryStats {
            mean,
            std_dev: var.sqrt(),
            median,
            n,
        }
    }
}

/// Local clustering coefficient of one node. `buf` takes the node's
/// neighbor list when it must be merged
/// ([`FriendGraph::neighbors`]); a caller that scores many nodes passes
/// the same buffer to each.
pub fn local_clustering(graph: &FriendGraph, u: UserId, buf: &mut Vec<UserId>) -> f64 {
    let ns = graph.neighbors(u, buf);
    let d = ns.len();
    if d < 2 {
        return 0.0;
    }
    let mut links = 0;
    for (i, &a) in ns.iter().enumerate() {
        for &b in &ns[i + 1..] {
            if graph.has_edge(a, b) {
                links += 1;
            }
        }
    }
    links as f64 / (d * (d - 1) / 2) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(i: u32) -> UserId {
        UserId(i)
    }

    fn triangle_plus_tail() -> FriendGraph {
        // Triangle 0-1-2 plus tail 2-3.
        let mut g = FriendGraph::with_nodes(4);
        g.add_edge(u(0), u(1));
        g.add_edge(u(1), u(2));
        g.add_edge(u(0), u(2));
        g.add_edge(u(2), u(3));
        g
    }

    #[test]
    fn summary_stats_basic() {
        let s = SummaryStats::of(&[1.0, 2.0, 3.0, 4.0]);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.median - 2.0).abs() < 1e-12, "lower middle for even n");
        assert!((s.std_dev - (1.25f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.n, 4);
    }

    #[test]
    fn summary_stats_odd_median() {
        let s = SummaryStats::of(&[5.0, 1.0, 3.0]);
        assert!((s.median - 3.0).abs() < 1e-12);
    }

    #[test]
    fn summary_stats_empty_is_zeroed() {
        let s = SummaryStats::of(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn clustering_of_triangle_is_one() {
        let mut g = FriendGraph::with_nodes(3);
        g.add_edge(u(0), u(1));
        g.add_edge(u(1), u(2));
        g.add_edge(u(0), u(2));
        assert!((local_clustering(&g, u(0), &mut Vec::new()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clustering_of_star_is_zero() {
        let mut g = FriendGraph::with_nodes(5);
        for i in 1..5 {
            g.add_edge(u(0), u(i));
        }
        assert_eq!(local_clustering(&g, u(0), &mut Vec::new()), 0.0);
        assert_eq!(
            local_clustering(&g, u(1), &mut Vec::new()),
            0.0,
            "degree-1 node"
        );
    }

    #[test]
    fn clustering_mixed_graph() {
        let g = triangle_plus_tail();
        // Node 2's neighbors {0,1,3}: one link (0-1) of three possible.
        assert!((local_clustering(&g, u(2), &mut Vec::new()) - 1.0 / 3.0).abs() < 1e-12);
    }
}
