//! The undirected friendship graph.
//!
//! Facebook friendships are bidirectional (the paper contrasts this with
//! Twitter's follower model). At million-account scale a `Vec<Vec<UserId>>`
//! adjacency list pays one heap allocation per node and scatters neighbor
//! data across the heap, so the store is a **CSR (compressed sparse row)**
//! representation — one offset array plus one flat edge array, sorted per
//! node — with a small per-node overlay absorbing incremental inserts.
//!
//! The overlay keeps `add_edge` cheap, during generation and while a live
//! replica folds friendships from the log; once it grows past a fraction
//! of the CSR body the graph re-compacts, amortizing to `O(E)` total work.
//! The overlay's per-node lists share one [`ListArena`] buffer, so an
//! insert allocates only when that buffer grows, not once per node, and a
//! compaction empties the lists and keeps the buffer for the next ones.
//! Between compactions some nodes keep overlay entries, and no caller is
//! asked to compact first. Queries (`has_edge`, `neighbors`, `degree`)
//! read both parts: `O(log d)` membership tests, and `O(d)` neighbor scans
//! that lend the CSR slice of a node without overlay entries and merge the
//! others into a buffer the caller owns and reuses, so a scan over every
//! node allocates only as that buffer grows.

use crate::ids::UserId;
use likelab_sim::ListArena;

/// Compaction triggers when the overlay holds at least this many directed
/// entries *and* at least a quarter of the CSR body's size. The floor keeps
/// small graphs from recompacting on every insert; the fraction bounds the
/// total compaction work at a constant factor of the final edge count.
const COMPACT_FLOOR: usize = 4_096;

/// An undirected simple graph over dense [`UserId`]s.
#[derive(Clone, Debug)]
pub struct FriendGraph {
    /// CSR row offsets; `offsets[u]..offsets[u+1]` indexes `csr`.
    offsets: Vec<u64>,
    /// CSR edge array, sorted within each node's range.
    csr: Vec<UserId>,
    /// Per-node sorted overlay of edges added since the last compaction,
    /// as raw ids, one list per node.
    extra: ListArena<u32>,
    /// Total directed entries currently in `extra`.
    extra_len: usize,
    edges: usize,
}

impl Default for FriendGraph {
    fn default() -> Self {
        FriendGraph::with_nodes(0)
    }
}

/// Append the merge of two sorted, disjoint neighbor lists to `out`: a
/// CSR slice and an overlay list.
fn merge_into(out: &mut Vec<UserId>, a: &[UserId], b: &[u32]) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        // lint:allow(panic-reachable-from-serve): loop condition bounds i and j
        if a[i].0 < b[j] {
            out.push(a[i]); // lint:allow(panic-reachable-from-serve): i < a.len() here
            i += 1;
        } else {
            out.push(UserId(b[j])); // lint:allow(panic-reachable-from-serve): j < b.len() here
            j += 1;
        }
    }
    // lint:allow(panic-reachable-from-serve): i <= a.len() after the merge loop
    out.extend_from_slice(&a[i..]);
    // lint:allow(panic-reachable-from-serve): j <= b.len() after the merge loop
    out.extend(b[j..].iter().map(|&v| UserId(v)));
}

impl FriendGraph {
    /// An empty graph over `n` nodes.
    pub fn with_nodes(n: usize) -> Self {
        FriendGraph {
            offsets: vec![0; n + 1],
            csr: Vec::new(),
            extra: ListArena::with_lists(n),
            extra_len: 0,
            edges: 0,
        }
    }

    /// Build a graph over `n` nodes from undirected edges given as pairs, in
    /// any order, duplicates collapsed. Observationally identical to
    /// [`with_nodes`][Self::with_nodes] followed by [`add_edge`][Self::add_edge]
    /// per pair, but assembles the CSR body in one sort + scatter instead of
    /// per-edge overlay inserts punctuated by `O(nodes)` compaction sweeps —
    /// the difference between milliseconds and half a second when a few
    /// thousand edges span a million-account id space.
    ///
    /// # Panics
    /// Panics on a self-loop or an endpoint `>= n`.
    pub fn from_pairs<I>(n: usize, pairs: I) -> Self
    where
        I: IntoIterator<Item = (UserId, UserId)>,
    {
        let mut directed: Vec<(UserId, UserId)> = Vec::new();
        for (a, b) in pairs {
            assert!(a != b, "self-friendship {a} is not a thing");
            assert!(
                a.idx() < n && b.idx() < n,
                "edge endpoint out of range: {a}, {b} (n = {n})"
            );
            directed.push((a, b));
            directed.push((b, a));
        }
        directed.sort_unstable();
        directed.dedup();
        let mut offsets = vec![0u64; n + 1];
        for &(a, _) in &directed {
            offsets[a.idx() + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let csr: Vec<UserId> = directed.iter().map(|&(_, b)| b).collect();
        FriendGraph {
            offsets,
            csr,
            extra: ListArena::with_lists(n),
            extra_len: 0,
            edges: directed.len() / 2,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Grow the node set to at least `n` nodes.
    pub fn ensure_nodes(&mut self, n: usize) {
        if n > self.node_count() {
            let last = self.offsets.last().copied().unwrap_or_default();
            self.offsets.resize(n + 1, last);
            self.extra.ensure_lists(n);
        }
    }

    /// The CSR slice of `u` (overlay entries excluded).
    fn csr_range(&self, u: UserId) -> &[UserId] {
        // lint:allow(panic-reachable-from-serve): offsets has n+1 monotone entries bounded by csr.len()
        &self.csr[self.offsets[u.idx()] as usize..self.offsets[u.idx() + 1] as usize]
    }

    /// Add the undirected edge `{a, b}`. Self-loops are rejected; duplicate
    /// edges are ignored. Returns true when the edge was new.
    ///
    /// # Panics
    /// Panics when either endpoint is out of range or `a == b`.
    pub fn add_edge(&mut self, a: UserId, b: UserId) -> bool {
        // lint:allow(panic-reachable-from-serve): documented panic; serve adds only edges `OsnWorld::check_event` accepted, and it refuses a self-friendship
        assert!(a != b, "self-friendship {a} is not a thing");
        // lint:allow(panic-reachable-from-serve): documented panic; `OsnWorld::check_event` accepts only known accounts, below the node count the world sized the graph to
        assert!(
            a.idx() < self.node_count() && b.idx() < self.node_count(),
            "edge endpoint out of range: {a}, {b} (n = {})",
            self.node_count()
        );
        if self.csr_range(a).binary_search(&b).is_ok() {
            return false;
        }
        let pos = match self.extra.get(a.idx()).binary_search(&b.0) {
            Ok(_) => return false,
            Err(pos) => pos,
        };
        self.extra.insert(a.idx(), pos, b.0);
        let list_b = self.extra.get(b.idx());
        // The overlay lists both directions of every edge: a is absent from
        // b's list, as b was from a's.
        debug_assert!(
            list_b.binary_search(&a.0).is_err(),
            "symmetric edge must be absent"
        );
        let at = list_b.partition_point(|&x| x < a.0);
        self.extra.insert(b.idx(), at, a.0);
        self.extra_len += 2;
        self.edges += 1;
        if self.extra_len >= COMPACT_FLOOR && self.extra_len * 4 >= self.csr.len() {
            self.compact();
        }
        true
    }

    /// Merge the overlay into the CSR body. Idempotent; after this call every
    /// [`neighbors`][Self::neighbors] result borrows the flat edge array.
    pub fn compact(&mut self) {
        if self.extra_len == 0 {
            return;
        }
        let n = self.node_count();
        let mut csr = Vec::with_capacity(self.csr.len() + self.extra_len);
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u64);
        for u in 0..n {
            merge_into(
                &mut csr,
                self.csr_range(UserId(u as u32)),
                self.extra.get(u),
            );
            offsets.push(csr.len() as u64);
        }
        self.csr = csr;
        self.offsets = offsets;
        self.extra.clear();
        self.extra_len = 0;
    }

    /// True when every edge lives in the flat CSR arrays (no overlay).
    pub fn is_compact(&self) -> bool {
        self.extra_len == 0
    }

    /// True when `{a, b}` is an edge.
    pub fn has_edge(&self, a: UserId, b: UserId) -> bool {
        a.idx() < self.node_count()
            && (self.csr_range(a).binary_search(&b).is_ok()
                || self.extra.get(a.idx()).binary_search(&b.0).is_ok())
    }

    /// Degree of `u` (number of friends).
    pub fn degree(&self, u: UserId) -> usize {
        self.csr_range(u).len() + self.extra.get(u.idx()).len()
    }

    /// The sorted neighbor list of `u`. A node with no overlay entries
    /// lends its CSR slice and copies nothing; otherwise its CSR slice and
    /// overlay are merged into `buf`, which the caller owns and reuses
    /// across nodes, so a scan over many nodes allocates at most as often
    /// as `buf` grows.
    pub fn neighbors<'a>(&'a self, u: UserId, buf: &'a mut Vec<UserId>) -> &'a [UserId] {
        let base = self.csr_range(u);
        let over = self.extra.get(u.idx());
        if over.is_empty() {
            return base;
        }
        buf.clear();
        buf.reserve_exact(base.len() + over.len());
        merge_into(buf, base, over);
        buf
    }

    /// Iterate all undirected edges as `(a, b)` with `a < b`, in ascending
    /// `(a, b)` order.
    pub fn edges(&self) -> impl Iterator<Item = (UserId, UserId)> + '_ {
        let mut buf = Vec::new();
        self.nodes().flat_map(move |a| {
            let larger: Vec<UserId> = self
                .neighbors(a, &mut buf)
                .iter()
                .copied()
                .filter(|b| a < *b)
                .collect();
            larger.into_iter().map(move |b| (a, b))
        })
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = UserId> + '_ {
        (0..self.node_count() as u32).map(UserId)
    }

    /// Number of common neighbors of `a` and `b` (sorted-merge intersection).
    pub fn common_neighbors(&self, a: UserId, b: UserId) -> usize {
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        let (xs, ys) = (self.neighbors(a, &mut xs), self.neighbors(b, &mut ys));
        let (mut i, mut j, mut c) = (0, 0, 0);
        while i < xs.len() && j < ys.len() {
            match xs[i].cmp(&ys[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    c += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(i: u32) -> UserId {
        UserId(i)
    }

    #[test]
    fn add_edge_is_symmetric_and_dedups() {
        let mut g = FriendGraph::with_nodes(4);
        assert!(g.add_edge(u(0), u(2)));
        assert!(!g.add_edge(u(2), u(0)), "reverse insert is a duplicate");
        assert!(g.has_edge(u(0), u(2)));
        assert!(g.has_edge(u(2), u(0)));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(u(0)), 1);
        assert_eq!(g.degree(u(2)), 1);
        assert_eq!(g.degree(u(1)), 0);
    }

    #[test]
    #[should_panic(expected = "self-friendship")]
    fn self_loops_rejected() {
        FriendGraph::with_nodes(2).add_edge(u(1), u(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        FriendGraph::with_nodes(2).add_edge(u(0), u(5));
    }

    #[test]
    fn from_pairs_matches_incremental_build() {
        // Unordered pairs, reversed duplicates, an isolated node (4).
        let pairs = [(2, 0), (0, 1), (1, 2), (0, 2), (5, 3), (3, 5)];
        let bulk = FriendGraph::from_pairs(6, pairs.iter().map(|&(a, b)| (u(a), u(b))));
        let mut incremental = FriendGraph::with_nodes(6);
        for &(a, b) in &pairs {
            incremental.add_edge(u(a), u(b));
        }
        assert_eq!(bulk.edge_count(), incremental.edge_count());
        for i in 0..6 {
            assert_eq!(
                bulk.neighbors(u(i), &mut Vec::new()),
                incremental.neighbors(u(i), &mut Vec::new()),
                "neighbors of {i}"
            );
        }
        assert!(bulk.is_compact(), "bulk build leaves no overlay");
        let es: Vec<_> = bulk.edges().collect();
        assert_eq!(
            es,
            vec![(u(0), u(1)), (u(0), u(2)), (u(1), u(2)), (u(3), u(5))]
        );
    }

    #[test]
    #[should_panic(expected = "self-friendship")]
    fn from_pairs_rejects_self_loops() {
        FriendGraph::from_pairs(3, [(u(1), u(1))]);
    }

    #[test]
    fn neighbors_stay_sorted() {
        let mut g = FriendGraph::with_nodes(6);
        for b in [5, 1, 3, 2] {
            g.add_edge(u(0), u(b));
        }
        assert_eq!(g.neighbors(u(0), &mut Vec::new()), [u(1), u(2), u(3), u(5)]);
    }

    #[test]
    fn edges_iterates_each_once() {
        let mut g = FriendGraph::with_nodes(4);
        g.add_edge(u(0), u(1));
        g.add_edge(u(1), u(2));
        g.add_edge(u(3), u(0));
        let es: Vec<_> = g.edges().collect();
        assert_eq!(es, vec![(u(0), u(1)), (u(0), u(3)), (u(1), u(2))]);
        assert_eq!(es.len(), g.edge_count());
    }

    #[test]
    fn common_neighbors_counts_intersection() {
        let mut g = FriendGraph::with_nodes(6);
        // 0 and 1 share neighbors 2 and 3; 0 also knows 4, 1 also knows 5.
        for (a, b) in [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5)] {
            g.add_edge(u(a), u(b));
        }
        assert_eq!(g.common_neighbors(u(0), u(1)), 2);
        assert_eq!(g.common_neighbors(u(4), u(5)), 0);
        assert_eq!(g.common_neighbors(u(2), u(3)), 2, "via 0 and 1");
    }

    #[test]
    fn ensure_nodes_grows_only() {
        let mut g = FriendGraph::with_nodes(2);
        g.ensure_nodes(5);
        assert_eq!(g.node_count(), 5);
        g.ensure_nodes(3);
        assert_eq!(g.node_count(), 5, "never shrinks");
    }

    #[test]
    fn has_edge_handles_out_of_range_gracefully() {
        let g = FriendGraph::with_nodes(2);
        assert!(!g.has_edge(u(9), u(0)));
    }

    #[test]
    fn compaction_preserves_every_query() {
        let mut g = FriendGraph::with_nodes(8);
        for (a, b) in [(0, 3), (0, 5), (1, 2), (2, 3), (4, 7), (5, 6)] {
            g.add_edge(u(a), u(b));
        }
        let degrees: Vec<usize> = g.nodes().map(|n| g.degree(n)).collect();
        let edges: Vec<_> = g.edges().collect();
        g.compact();
        assert!(g.is_compact());
        assert_eq!(degrees, g.nodes().map(|n| g.degree(n)).collect::<Vec<_>>());
        assert_eq!(edges, g.edges().collect::<Vec<_>>());
        assert!(g.has_edge(u(0), u(3)));
        assert!(!g.has_edge(u(0), u(1)));
        assert_eq!(g.neighbors(u(0), &mut Vec::new()), [u(3), u(5)]);
        // Inserting after compaction lands in the overlay and still queries.
        assert!(g.add_edge(u(0), u(1)));
        assert!(!g.is_compact());
        assert_eq!(g.neighbors(u(0), &mut Vec::new()), [u(1), u(3), u(5)]);
        assert_eq!(g.degree(u(0)), 3);
    }

    #[test]
    fn compact_growth_interleaving() {
        // Grow, add, compact, grow again — invariants must hold throughout.
        let mut g = FriendGraph::with_nodes(3);
        g.add_edge(u(0), u(1));
        g.compact();
        g.ensure_nodes(6);
        assert!(g.add_edge(u(4), u(5)));
        assert!(g.add_edge(u(0), u(4)));
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.neighbors(u(0), &mut Vec::new()), [u(1), u(4)]);
        assert_eq!(g.neighbors(u(4), &mut Vec::new()), [u(0), u(5)]);
        g.compact();
        assert_eq!(g.neighbors(u(4), &mut Vec::new()), [u(0), u(5)]);
        assert_eq!(g.degree(u(3)), 0);
    }

    #[test]
    fn empty_and_default_graphs() {
        let g = FriendGraph::default();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.edges().count(), 0);
        assert!(g.is_compact());
    }

    #[test]
    fn neighbors_through_a_reused_buffer_match_the_merged_list() {
        // 0 and 1 sit in the CSR body; 0 and 2 then gain overlay edges.
        let mut g = FriendGraph::from_pairs(6, [(u(0), u(3)), (u(0), u(5)), (u(1), u(4))]);
        g.add_edge(u(0), u(1));
        g.add_edge(u(0), u(4));
        g.add_edge(u(2), u(5));
        let want: [&[UserId]; 6] = [
            &[u(1), u(3), u(4), u(5)],
            &[u(0), u(4)],
            &[u(5)],
            &[u(0)],
            &[u(0), u(1)],
            &[u(0), u(2)],
        ];
        // One buffer for every node, in both orders, so it always holds an
        // earlier node's list, longer or shorter, when the next merges.
        let mut buf = vec![u(9); 7];
        for order in [[0, 1, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0]] {
            for i in order {
                assert_eq!(g.neighbors(u(i), &mut buf), want[i as usize], "node {i}");
            }
        }
        // A node without overlay entries lends its CSR slice: the buffer
        // keeps what the last merge left in it.
        assert_eq!(g.neighbors(u(2), &mut buf), [u(5)]);
        assert_eq!(g.neighbors(u(3), &mut buf), [u(0)]);
        assert_eq!(buf, [u(5)]);
        g.compact();
        for (i, list) in want.iter().enumerate() {
            assert_eq!(
                g.neighbors(u(i as u32), &mut buf),
                *list,
                "node {i}, compacted"
            );
        }
    }
}
