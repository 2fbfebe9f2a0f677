//! Per-size solution tables (`D` in the paper, §5).
//!
//! All three exact algorithms return, for one graph, a table `D` where
//! `D.solution_i` is a feasible solution with **exactly** `i` nodes and
//! `D.score_i` its score (`i = 0..=k`; `D.solution_0` is the empty set).
//!
//! Witness node sets are stored as persistent [`NodeSet`]s (O(1) clone /
//! union / remap, flattened only when read) so that `⊕`-folding over
//! thousands of components stays linear in `k` instead of quadratic — see
//! `nodeset.rs` for the measurement story.
//!
//! # The prefix-max contract
//!
//! Algorithm 4's per-round stop condition only guarantees that
//! `max_{i ≤ k'} D.score_i` equals the optimal score over solutions of size
//! ≤ k' — an individual `D.solution_i` may be absent or sub-optimal when a
//! *smaller* solution already scores at least as much (see DESIGN.md §4.1).
//! Every consumer in the paper is compatible with this weaker guarantee:
//!
//! * the final answer is `D.best()`, the prefix maximum at `k`;
//! * `best(S)` (Lemma 1) stays an upper bound: if the true optimum keeps
//!   `n1` seen nodes, `score(O₁) ≤ prefix_best(n1)` which is attained by
//!   some entry of size `j* ≤ n1`, and `(k−n1)·u ≤ (k−j*)·u`;
//! * `⊕` and `⊗` preserve the contract: combined prefix maxima depend only
//!   on the operands' prefix maxima.
//!
//! So the invariant carried by [`SearchResult`] is:
//! 1. every present entry is an independent set of exactly `i` nodes, and
//! 2. (post-condition of the exact algorithms) for every `i ≤ k`,
//!    `prefix_best(i)` equals the true optimum over solutions of size ≤ i.

use crate::graph::NodeId;
use crate::nodeset::NodeSet;
use crate::score::Score;
use std::rc::Rc;

/// A feasible solution of a fixed size: a persistent node set + its score.
#[derive(Debug, Clone)]
pub struct SizedSolution {
    score: Score,
    set: NodeSet,
}

impl SizedSolution {
    /// Creates a solution from materialized nodes.
    pub fn new(nodes: Vec<NodeId>, score: Score) -> SizedSolution {
        SizedSolution {
            score,
            set: NodeSet::from_vec(nodes),
        }
    }

    /// Creates a solution from a persistent set.
    pub fn from_set(set: NodeSet, score: Score) -> SizedSolution {
        SizedSolution { score, set }
    }

    /// Total score.
    #[inline]
    pub fn score(&self) -> Score {
        self.score
    }

    /// Materializes the node ids, sorted ascending.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.set.to_sorted_vec()
    }

    /// The underlying persistent set.
    pub fn set(&self) -> &NodeSet {
        &self.set
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// True for the empty solution.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }
}

impl PartialEq for SizedSolution {
    /// Semantic equality: same score and members.
    fn eq(&self, other: &Self) -> bool {
        self.score == other.score && self.set == other.set
    }
}

/// The table of best-found solutions per exact size, `0..=k`.
///
/// `entries[0]` is always the empty solution. See the module docs for the
/// invariant/contract.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    k: usize,
    entries: Vec<Option<SizedSolution>>,
}

impl SearchResult {
    /// An empty table for sizes `0..=k` (only `solution_0 = ∅` present).
    pub fn empty(k: usize) -> SearchResult {
        let mut entries = vec![None; k + 1];
        entries[0] = Some(SizedSolution::from_set(NodeSet::empty(), Score::ZERO));
        SearchResult { k, entries }
    }

    /// The `k` this table was built for.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// `D.solution_i`: best-known feasible solution with exactly `i` nodes.
    #[inline]
    pub fn solution(&self, i: usize) -> Option<&SizedSolution> {
        self.entries.get(i).and_then(|e| e.as_ref())
    }

    /// `D.score_i`: score of `solution(i)`, or `None` if absent.
    #[inline]
    pub fn score(&self, i: usize) -> Option<Score> {
        self.solution(i).map(|s| s.score())
    }

    /// Score of `solution(i)` treating absent entries as 0 — matches the
    /// paper's pseudocode, which initializes `D.score_i ← 0`.
    #[inline]
    pub fn score_or_zero(&self, i: usize) -> Score {
        self.score(i).unwrap_or(Score::ZERO)
    }

    /// Offers a feasible solution with exactly `nodes.len()` nodes; it is
    /// recorded iff it beats the current entry of that size. Sizes larger
    /// than `k` are ignored.
    pub fn offer(&mut self, nodes: Vec<NodeId>, score: Score) {
        let len = nodes.len();
        if len > self.k {
            return;
        }
        if self.beats_current(len, score) {
            self.entries[len] = Some(SizedSolution::new(nodes, score));
        }
    }

    /// [`offer`](Self::offer) for persistent sets (used by the operators).
    pub fn offer_set(&mut self, set: NodeSet, score: Score) {
        let len = set.len();
        if len > self.k {
            return;
        }
        if self.beats_current(len, score) {
            self.entries[len] = Some(SizedSolution::from_set(set, score));
        }
    }

    /// Stores `set` as the entry of its size, whatever is there now. For
    /// the in-place `⊕` forms (`crate::ops`), which decide that an entry
    /// improves before they build its witness.
    pub(crate) fn replace_set(&mut self, set: NodeSet, score: Score) {
        let len = set.len();
        self.entries[len] = Some(SizedSolution::from_set(set, score));
    }

    /// Offers the solution `base ∪ {extra}` (with `extra > max(base)`,
    /// `base` sorted) without materializing it first: the node vector is
    /// only allocated when the entry actually improves the table. This is
    /// the `div-astar` expansion loop's offer path — in steady state
    /// (child doesn't beat the incumbent of its size) it allocates nothing.
    pub fn offer_extended(&mut self, base: &[NodeId], extra: NodeId, score: Score) {
        let len = base.len() + 1;
        if len > self.k || !self.beats_current(len, score) {
            return;
        }
        debug_assert!(base.last().is_none_or(|&last| last < extra));
        let mut nodes = Vec::with_capacity(len);
        nodes.extend_from_slice(base);
        nodes.push(extra);
        self.entries[len] = Some(SizedSolution::new(nodes, score));
    }

    #[inline]
    fn beats_current(&self, len: usize, score: Score) -> bool {
        match &self.entries[len] {
            Some(existing) => score > existing.score(),
            None => true,
        }
    }

    /// `max_{j ≤ i} D.score_j`: the best score over sizes up to `i`
    /// (0 when `i = 0`). Under the contract this equals the true optimum
    /// over solutions of size ≤ i.
    pub fn prefix_best_score(&self, i: usize) -> Score {
        (0..=i.min(self.k))
            .filter_map(|j| self.score(j))
            .max()
            .unwrap_or(Score::ZERO)
    }

    /// The overall answer `D(S)`: the best entry over all sizes ≤ k.
    /// Ties prefer the smaller size (fewer, equally-scored results).
    pub fn best(&self) -> &SizedSolution {
        let mut best: &SizedSolution = self.entries[0].as_ref().expect("size-0 entry");
        for e in self.entries.iter().flatten() {
            if e.score() > best.score() {
                best = e;
            }
        }
        best
    }

    /// `max{i | D.solution_i ≠ ∅}` over `i ≥ 1`, or 0 when only the empty
    /// solution exists. Used by the necessary stop condition (Lemma 3):
    /// this is the size of the maximum independent set when it is < k.
    pub fn max_feasible_size(&self) -> usize {
        (1..=self.k)
            .rev()
            .find(|&i| self.entries[i].is_some())
            .unwrap_or(0)
    }

    /// Remaps node ids through `map` (`map[local] = global`), e.g. when a
    /// search ran on an induced subgraph. O(k) — the map is shared, not
    /// applied, until a witness is materialized.
    pub fn map_nodes(&self, map: &[NodeId]) -> SearchResult {
        let shared: Rc<Vec<NodeId>> = Rc::new(map.to_vec());
        let entries = self
            .entries
            .iter()
            .map(|e| {
                e.as_ref().map(|s| {
                    SizedSolution::from_set(NodeSet::mapped(s.set(), Rc::clone(&shared)), s.score())
                })
            })
            .collect();
        SearchResult { k: self.k, entries }
    }

    /// Adds `node` (with `score`) to **every** solution in the table,
    /// shifting each size up by one — Algorithm 10 line 21, used when the
    /// cut point is included. The old size-`k` entry drops off; the new
    /// size-1 entry is `{node}` itself (from shifting the empty solution).
    ///
    /// The caller must guarantee `node` is compatible with (not adjacent
    /// to, and absent from) every stored solution.
    pub fn shift_include(&self, node: NodeId, score: Score) -> SearchResult {
        let mut out = SearchResult::empty(self.k);
        for i in 0..self.k {
            if let Some(s) = &self.entries[i] {
                out.offer_set(NodeSet::extend(s.set(), node), s.score() + score);
            }
        }
        out
    }

    /// Iterates `(size, solution)` for present entries, ascending size.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &SizedSolution)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|s| (i, s)))
    }

    /// Debug/test helper: asserts structural invariants (entry sizes match
    /// indices, size-0 present, scores consistent with `graph` if given).
    pub fn assert_well_formed(&self, graph: Option<&crate::graph::DiversityGraph>) {
        assert!(self.entries[0].is_some(), "size-0 entry must exist");
        for (i, e) in self.entries.iter().enumerate() {
            if let Some(s) = e {
                assert_eq!(s.len(), i, "entry at index {i} has {} nodes", s.len());
                let nodes = s.nodes();
                assert!(
                    nodes.windows(2).all(|w| w[0] < w[1]),
                    "entry {i} has duplicate nodes"
                );
                if let Some(g) = graph {
                    assert!(g.is_independent_set(&nodes), "entry {i} not independent");
                    assert!(
                        g.score_of(&nodes).approx_eq(s.score(), 1e-9),
                        "entry {i} score mismatch"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DiversityGraph;

    fn s(v: u32) -> Score {
        Score::from(v)
    }

    #[test]
    fn empty_table_has_only_size_zero() {
        let r = SearchResult::empty(3);
        assert_eq!(r.k(), 3);
        assert_eq!(r.score(0), Some(Score::ZERO));
        assert_eq!(r.score(1), None);
        assert_eq!(r.best().len(), 0);
        assert_eq!(r.max_feasible_size(), 0);
        assert_eq!(r.iter().map(|(i, _)| i).collect::<Vec<_>>(), vec![0]);
        r.assert_well_formed(None);
    }

    #[test]
    fn offer_keeps_best_per_size() {
        let mut r = SearchResult::empty(2);
        r.offer(vec![3], s(5));
        r.offer(vec![1], s(7));
        r.offer(vec![2], s(6)); // worse than 7, ignored
        assert_eq!(r.solution(1).unwrap().nodes(), vec![1]);
        r.offer(vec![4, 0], s(9));
        assert_eq!(r.solution(2).unwrap().nodes(), vec![0, 4]); // sorted
        r.offer(vec![0, 1, 2], s(100)); // size 3 > k, ignored
        assert_eq!(r.score(2), Some(s(9)));
        r.assert_well_formed(None);
    }

    #[test]
    fn prefix_best_and_best() {
        let mut r = SearchResult::empty(3);
        r.offer(vec![0], s(20));
        r.offer(vec![1, 2], s(12));
        assert_eq!(r.prefix_best_score(0), Score::ZERO);
        assert_eq!(r.prefix_best_score(1), s(20));
        assert_eq!(r.prefix_best_score(2), s(20));
        assert_eq!(r.prefix_best_score(3), s(20));
        assert_eq!(r.best().nodes(), vec![0]);
        assert_eq!(r.max_feasible_size(), 2);
        assert_eq!(r.iter().map(|(i, _)| i).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn best_prefers_smaller_size_on_tie() {
        let mut r = SearchResult::empty(2);
        r.offer(vec![0], s(10));
        r.offer(vec![1, 2], s(10));
        assert_eq!(r.best().len(), 1);
    }

    #[test]
    fn map_nodes_relabels_lazily() {
        let mut r = SearchResult::empty(2);
        r.offer(vec![0, 1], s(9));
        let mapped = r.map_nodes(&[7, 3]);
        assert_eq!(mapped.solution(2).unwrap().nodes(), vec![3, 7]);
        assert_eq!(mapped.score(2), Some(s(9)));
        // Double remap composes.
        let mut back = vec![0u32; 10];
        back[3] = 30;
        back[7] = 70;
        let twice = mapped.map_nodes(&back);
        assert_eq!(twice.solution(2).unwrap().nodes(), vec![30, 70]);
    }

    #[test]
    fn shift_include_moves_sizes_up() {
        let mut r = SearchResult::empty(3);
        r.offer(vec![1], s(4));
        r.offer(vec![1, 2], s(7));
        let shifted = r.shift_include(9, s(10));
        assert_eq!(shifted.solution(1).unwrap().nodes(), vec![9]);
        assert_eq!(shifted.score(1), Some(s(10)));
        assert_eq!(shifted.solution(2).unwrap().nodes(), vec![1, 9]);
        assert_eq!(shifted.score(2), Some(s(14)));
        assert_eq!(shifted.solution(3).unwrap().nodes(), vec![1, 2, 9]);
        assert_eq!(shifted.score(3), Some(s(17)));
        shifted.assert_well_formed(None);
    }

    #[test]
    fn well_formed_checks_against_graph() {
        let g = DiversityGraph::paper_fig1();
        let mut r = SearchResult::empty(3);
        r.offer(vec![2, 3, 4], s(20));
        r.assert_well_formed(Some(&g));
    }

    #[test]
    #[should_panic(expected = "not independent")]
    fn well_formed_rejects_dependent_entry() {
        let g = DiversityGraph::paper_fig1();
        let mut r = SearchResult::empty(2);
        r.offer(vec![0, 2], s(17)); // v1 ≈ v3
        r.assert_well_formed(Some(&g));
    }

    #[test]
    fn offer_extended_matches_offer() {
        let mut a = SearchResult::empty(3);
        let mut b = SearchResult::empty(3);
        a.offer(vec![1, 4, 9], s(12));
        b.offer_extended(&[1, 4], 9, s(12));
        assert_eq!(a, b);
        // A losing offer leaves the table untouched.
        b.offer_extended(&[0, 2], 5, s(11));
        assert_eq!(a, b);
        // Oversize offers are ignored.
        b.offer_extended(&[0, 1, 2], 5, s(99));
        assert_eq!(a, b);
    }

    #[test]
    fn offer_set_round_trip() {
        let mut r = SearchResult::empty(4);
        let set = crate::nodeset::NodeSet::join(
            &crate::nodeset::NodeSet::from_vec(vec![5]),
            &crate::nodeset::NodeSet::from_vec(vec![2, 9]),
        );
        r.offer_set(set, s(11));
        assert_eq!(r.solution(3).unwrap().nodes(), vec![2, 5, 9]);
    }
}
