//! The diversity graph (Definition 2).
//!
//! Nodes are search results, an edge joins `v_i` and `v_j` iff
//! `sim(v_i, v_j) > τ` (the two results are *similar*). The diversified
//! top-k results are a maximum-score independent set of size ≤ k in this
//! graph.
//!
//! Invariant (assumed throughout the paper and enforced here): **node ids
//! are assigned in non-increasing score order** — `score(v_0) ≥ score(v_1) ≥
//! …`. `astar-bound` (Algorithm 4) depends on this: walking ids upward from
//! `e.pos + 1` visits candidates from best to worst.
//!
//! ## The adjacency bitmap
//!
//! Alongside the sorted adjacency lists, graphs of up to
//! [`DENSE_ADJ_MAX_NODES`] nodes carry a precomputed **adjacency bitmap**:
//! one `n / 64`-word bitset row per node, in the same word layout as
//! [`DenseNodeSet`](crate::nodeset::DenseNodeSet) (DESIGN.md §7). This is
//! what turns the per-edge probes of the independence checks into word
//! operations: [`are_adjacent`](DiversityGraph::are_adjacent) becomes one
//! bit test, and "is candidate `v` compatible with partial solution `S`"
//! becomes a single AND-any sweep of `S`'s exclusion bitset against
//! [`adjacency_row(v)`](DiversityGraph::adjacency_row).
//!
//! ```
//! use divtopk_core::nodeset::DenseNodeSet;
//! use divtopk_core::prelude::*;
//!
//! let g = DiversityGraph::paper_fig1();
//! assert!(g.has_adjacency_bitmap());
//!
//! // The solution {v1} excludes exactly v1's neighbors: one word test
//! // per candidate instead of a binary search per neighbor.
//! let mut excluded = DenseNodeSet::new(g.len());
//! excluded.union_with_row(g.adjacency_row(0).unwrap());
//! assert!(excluded.contains(2)); // v1 ≈ v3
//! assert!(!excluded.contains(1)); // v2 stays eligible
//! ```

use crate::score::Score;

/// Node identifier within one [`DiversityGraph`]. Dense, `0..n`.
pub type NodeId = u32;

/// Largest node count for which the O(n²)-bit adjacency bitmap is built.
///
/// At 4096 nodes the bitmap costs 2 MiB — negligible next to the search —
/// while per-query diversity graphs and the induced subgraphs the
/// decompositions produce are practically always far below this. Larger
/// graphs skip the bitmap (adjacency falls back to binary-searched lists)
/// rather than risk quadratic memory on pathological inputs.
pub const DENSE_ADJ_MAX_NODES: usize = 4096;

/// An undirected graph whose nodes carry scores, sorted non-increasing.
#[derive(Debug, Clone)]
pub struct DiversityGraph {
    scores: Vec<Score>,
    /// Sorted adjacency lists.
    adj: Vec<Vec<NodeId>>,
    edge_count: usize,
    /// Row-major adjacency bitmap: `adj_words` words per node, bit `u` of
    /// row `v` set iff `u ≈ v`. Empty when `n > DENSE_ADJ_MAX_NODES`.
    adj_bits: Vec<u64>,
    /// Words per bitmap row; 0 when the bitmap is absent.
    adj_words: usize,
}

impl PartialEq for DiversityGraph {
    /// Structural equality on scores and adjacency; whether the adjacency
    /// bitmap is materialized is an acceleration detail, not identity.
    fn eq(&self, other: &Self) -> bool {
        self.scores == other.scores && self.adj == other.adj && self.edge_count == other.edge_count
    }
}

impl DiversityGraph {
    /// Builds a graph from scores already sorted in non-increasing order and
    /// an undirected edge list over those indices.
    ///
    /// # Panics
    /// Panics if scores are not sorted non-increasing, if an edge endpoint is
    /// out of range, or if an edge is a self-loop.
    pub fn from_sorted_scores(scores: Vec<Score>, edges: &[(NodeId, NodeId)]) -> DiversityGraph {
        assert!(
            scores.windows(2).all(|w| w[0] >= w[1]),
            "scores must be sorted in non-increasing order"
        );
        let n = scores.len();
        let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        let mut edge_count = 0usize;
        for &(a, b) in edges {
            assert!(
                (a as usize) < n && (b as usize) < n,
                "edge endpoint out of range"
            );
            assert_ne!(a, b, "self-loops are not allowed (sim(v,v)=1 is implicit)");
            adj[a as usize].push(b);
            adj[b as usize].push(a);
            edge_count += 1;
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        // Recount after dedup so duplicate input edges do not inflate the count.
        let edge_count = if edge_count > 0 {
            adj.iter().map(|l| l.len()).sum::<usize>() / 2
        } else {
            0
        };
        let (adj_bits, adj_words) = build_adj_bits(&adj);
        DiversityGraph {
            scores,
            adj,
            edge_count,
            adj_bits,
            adj_words,
        }
    }

    /// Builds a graph from arbitrarily ordered scores: nodes are re-labelled
    /// in non-increasing score order (ties broken by original index for
    /// determinism). Returns the graph and `perm` where `perm[new_id] =
    /// original_index`.
    pub fn from_unsorted_scores(
        scores: &[Score],
        edges: &[(u32, u32)],
    ) -> (DiversityGraph, Vec<u32>) {
        let n = scores.len();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by(|&a, &b| scores[b as usize].cmp(&scores[a as usize]).then(a.cmp(&b)));
        let mut rank = vec![0u32; n];
        for (new_id, &orig) in order.iter().enumerate() {
            rank[orig as usize] = new_id as u32;
        }
        let sorted_scores: Vec<Score> = order.iter().map(|&o| scores[o as usize]).collect();
        let mapped: Vec<(NodeId, NodeId)> = edges
            .iter()
            .map(|&(a, b)| (rank[a as usize], rank[b as usize]))
            .collect();
        (
            DiversityGraph::from_sorted_scores(sorted_scores, &mapped),
            order,
        )
    }

    /// Builds the diversity graph for a slice of items given a score
    /// accessor and the similarity predicate `≈` (all `O(n²)` pairs are
    /// tested — this is the offline construction; the framework grows the
    /// graph incrementally instead).
    pub fn from_items<T>(
        items: &[T],
        score_of: impl Fn(&T) -> Score,
        similar: impl Fn(&T, &T) -> bool,
    ) -> (DiversityGraph, Vec<u32>) {
        let scores: Vec<Score> = items.iter().map(&score_of).collect();
        let mut edges = Vec::new();
        for i in 0..items.len() {
            for j in (i + 1)..items.len() {
                if similar(&items[i], &items[j]) {
                    edges.push((i as u32, j as u32));
                }
            }
        }
        DiversityGraph::from_unsorted_scores(&scores, &edges)
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// True if the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Score of node `v`.
    #[inline]
    pub fn score(&self, v: NodeId) -> Score {
        self.scores[v as usize]
    }

    /// All scores, indexed by node id (non-increasing).
    #[inline]
    pub fn scores(&self) -> &[Score] {
        &self.scores
    }

    /// Sorted neighbors of `v` (`v.adj(G)` in the paper).
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.adj[v as usize]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v as usize].len()
    }

    /// True iff `u ≈ v` (an edge exists). One bit test when the adjacency
    /// bitmap is present; a binary search over the sorted list otherwise.
    #[inline]
    pub fn are_adjacent(&self, u: NodeId, v: NodeId) -> bool {
        if self.adj_words > 0 {
            let row = u as usize * self.adj_words;
            self.adj_bits[row + (v / 64) as usize] & (1u64 << (v % 64)) != 0
        } else {
            self.adj[u as usize].binary_search(&v).is_ok()
        }
    }

    /// True when the precomputed adjacency bitmap is available (graphs of
    /// at most [`DENSE_ADJ_MAX_NODES`] nodes).
    #[inline]
    pub fn has_adjacency_bitmap(&self) -> bool {
        self.adj_words > 0
    }

    /// The bitmap row for `v`: bit `u` set iff `u ≈ v`, in
    /// [`DenseNodeSet`](crate::nodeset::DenseNodeSet) word layout.
    /// `None` when the bitmap is absent.
    #[inline]
    pub fn adjacency_row(&self, v: NodeId) -> Option<&[u64]> {
        if self.adj_words == 0 {
            return None;
        }
        let start = v as usize * self.adj_words;
        Some(&self.adj_bits[start..start + self.adj_words])
    }

    /// Iterator over all node ids, best score first.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.len() as NodeId
    }

    /// Sum of all node scores.
    pub fn total_score(&self) -> Score {
        self.scores.iter().copied().sum()
    }

    /// True iff `nodes` (sorted or not) form an independent set.
    pub fn is_independent_set(&self, nodes: &[NodeId]) -> bool {
        for (i, &u) in nodes.iter().enumerate() {
            for &v in &nodes[i + 1..] {
                if u == v || self.are_adjacent(u, v) {
                    return false;
                }
            }
        }
        true
    }

    /// Sum of scores of `nodes`.
    pub fn score_of(&self, nodes: &[NodeId]) -> Score {
        nodes.iter().map(|&v| self.score(v)).sum()
    }

    /// Extracts the induced subgraph on `keep` (any order, no duplicates).
    ///
    /// Returns the subgraph (ids relabelled `0..keep.len()` preserving the
    /// score order) and `map` with `map[new_id] = old_id`.
    pub fn induced_subgraph(&self, keep: &[NodeId]) -> (DiversityGraph, Vec<NodeId>) {
        let mut map: Vec<NodeId> = keep.to_vec();
        map.sort_unstable();
        debug_assert!(
            map.windows(2).all(|w| w[0] != w[1]),
            "duplicate node in keep"
        );
        let mut rank = vec![u32::MAX; self.len()];
        for (new_id, &old) in map.iter().enumerate() {
            rank[old as usize] = new_id as u32;
        }
        let scores: Vec<Score> = map.iter().map(|&o| self.score(o)).collect();
        let mut adj: Vec<Vec<NodeId>> = Vec::with_capacity(map.len());
        let mut edge_count = 0usize;
        for &old in &map {
            let list: Vec<NodeId> = self.adj[old as usize]
                .iter()
                .filter_map(|&nb| {
                    let r = rank[nb as usize];
                    (r != u32::MAX).then_some(r)
                })
                .collect();
            edge_count += list.len();
            adj.push(list);
        }
        // Subgraph ids are dense `0..keep.len()` again, so the bitmap stays
        // valid (and small) through every decomposition/compression remap.
        let (adj_bits, adj_words) = build_adj_bits(&adj);
        (
            DiversityGraph {
                scores,
                adj,
                edge_count: edge_count / 2,
                adj_bits,
                adj_words,
            },
            map,
        )
    }

    /// Builds the graph of Fig. 1 in the paper: 6 nodes with scores
    /// 10, 8, 7, 7, 6, 1 and edges making `{v1,v2}` optimal at `k = 2`
    /// (score 18) and `{v3,v4,v5}` optimal at `k = 3` (score 20).
    ///
    /// Provided as a convenient, well-understood fixture for tests, docs and
    /// the quickstart example.
    pub fn paper_fig1() -> DiversityGraph {
        // Node ids (0-based) map to the paper's v1..v6 in score order:
        // v1=10, v2=8, v3=7, v4=7, v5=6, v6=1.
        // Edges (derived from Examples 1 and 2): v1 is adjacent to v3, v4, v5
        // (selecting v1 excludes all of them, leaving v2, v6 => bound 19);
        // v3-v5 are adjacent? No: {v3,v4,v5} must be independent. From
        // Fig. 4: after selecting v3, expansions add v4 then v5; v2's bound
        // is 9 = 8 + 1, so v2 is adjacent to v3, v4, v5 but not v6; v5's
        // bound is 6, so v5 is also adjacent to v6; v4's bound is 13 = 7 + 6
        // (v5 reachable, v6 not) so v4-v6 adjacent; v3's bound is 20 = 7+7+6.
        let scores = vec![10, 8, 7, 7, 6, 1]
            .into_iter()
            .map(Score::from)
            .collect();
        let edges = &[
            (0, 2),
            (0, 3),
            (0, 4),
            (1, 2),
            (1, 3),
            (1, 4),
            (3, 5),
            (4, 5),
        ];
        DiversityGraph::from_sorted_scores(scores, edges)
    }
}

/// Packs sorted adjacency lists into a row-major bitmap, or returns an
/// empty bitmap for graphs above [`DENSE_ADJ_MAX_NODES`].
fn build_adj_bits(adj: &[Vec<NodeId>]) -> (Vec<u64>, usize) {
    let n = adj.len();
    if n == 0 || n > DENSE_ADJ_MAX_NODES {
        return (Vec::new(), 0);
    }
    let words = n.div_ceil(64);
    let mut bits = vec![0u64; words * n];
    for (v, list) in adj.iter().enumerate() {
        let row = &mut bits[v * words..(v + 1) * words];
        for &nb in list {
            row[(nb / 64) as usize] |= 1u64 << (nb % 64);
        }
    }
    (bits, words)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: u32) -> Score {
        Score::from(v)
    }

    #[test]
    fn sorted_construction_and_accessors() {
        let g = DiversityGraph::from_sorted_scores(
            vec![s(5), s(3), s(1)],
            &[(0, 1), (1, 2), (0, 1)], // duplicate edge deduped
        );
        assert_eq!(g.len(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert!(g.are_adjacent(0, 1));
        assert!(!g.are_adjacent(0, 2));
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.total_score(), s(9));
    }

    #[test]
    #[should_panic(expected = "non-increasing")]
    fn rejects_unsorted_scores() {
        DiversityGraph::from_sorted_scores(vec![s(1), s(2)], &[]);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        DiversityGraph::from_sorted_scores(vec![s(1)], &[(0, 0)]);
    }

    #[test]
    fn unsorted_construction_relabels() {
        let scores = [s(1), s(9), s(5)];
        let (g, perm) = DiversityGraph::from_unsorted_scores(&scores, &[(0, 1)]);
        assert_eq!(g.scores(), &[s(9), s(5), s(1)]);
        assert_eq!(perm, vec![1, 2, 0]);
        // Original edge (0,1) becomes (rank0, rank1) = (2, 0).
        assert!(g.are_adjacent(0, 2));
        assert!(!g.are_adjacent(0, 1));
    }

    #[test]
    fn from_items_builds_similarity_edges() {
        // Items: integers; similar when |a - b| <= 1; score = value.
        let items = [10u32, 11, 20];
        let (g, perm) = DiversityGraph::from_items(
            &items,
            |&x| Score::from(x),
            |&a, &b| (a as i64 - b as i64).abs() <= 1,
        );
        // Sorted order: 20, 11, 10 → perm [2, 1, 0].
        assert_eq!(perm, vec![2, 1, 0]);
        assert!(g.are_adjacent(1, 2)); // 11 ≈ 10
        assert!(!g.are_adjacent(0, 1)); // 20 !≈ 11
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn independent_set_checks() {
        let g = DiversityGraph::paper_fig1();
        assert!(g.is_independent_set(&[0, 1])); // v1, v2
        assert!(g.is_independent_set(&[2, 3, 4])); // v3, v4, v5
        assert!(!g.is_independent_set(&[0, 2])); // v1 ≈ v3
        assert!(!g.is_independent_set(&[0, 0])); // duplicates are not a set
        assert_eq!(g.score_of(&[2, 3, 4]), s(20));
    }

    #[test]
    fn induced_subgraph_preserves_order_and_edges() {
        let g = DiversityGraph::paper_fig1();
        let (sub, map) = g.induced_subgraph(&[4, 1, 5]); // v5, v2, v6 (given unsorted)
        assert_eq!(map, vec![1, 4, 5]);
        assert_eq!(sub.scores(), &[s(8), s(6), s(1)]);
        // v2-v5 edge survives; v5-v6 edge survives.
        assert!(sub.are_adjacent(0, 1));
        assert!(sub.are_adjacent(1, 2));
        assert_eq!(sub.edge_count(), 2);
    }

    #[test]
    fn fig1_shape() {
        let g = DiversityGraph::paper_fig1();
        assert_eq!(g.len(), 6);
        assert_eq!(g.edge_count(), 8);
    }

    #[test]
    fn adjacency_bitmap_matches_lists() {
        let g = crate::testgen::random_graph(90, 0.3, 11);
        assert!(g.has_adjacency_bitmap());
        for v in g.nodes() {
            let row = g.adjacency_row(v).unwrap();
            assert_eq!(row.len(), 2);
            let from_row: Vec<NodeId> = (0..g.len() as NodeId)
                .filter(|&u| row[(u / 64) as usize] & (1 << (u % 64)) != 0)
                .collect();
            assert_eq!(from_row, g.neighbors(v), "row of {v}");
        }
    }

    #[test]
    fn graph_past_the_cap_keeps_adjacency_answers_without_a_bitmap() {
        let small = DiversityGraph::paper_fig1();
        let g = crate::testgen::pad_past_bitmap_cap(&small);
        assert!(!g.has_adjacency_bitmap());
        assert!(g.adjacency_row(0).is_none());
        for u in small.nodes() {
            for v in small.nodes() {
                assert_eq!(g.are_adjacent(u, v), small.are_adjacent(u, v), "{u} ≈ {v}");
            }
        }
    }

    #[test]
    fn induced_subgraph_rebuilds_bitmap() {
        let g = DiversityGraph::paper_fig1();
        let (sub, _) = g.induced_subgraph(&[4, 1, 5]);
        assert!(sub.has_adjacency_bitmap());
        assert!(sub.are_adjacent(0, 1));
        assert!(!sub.are_adjacent(0, 2));
    }
}
