//! Lightweight counters describing what a search did, plus the small
//! dependency-free rank-quality helpers the quality harness is built on.
//!
//! The counters are used by the measurement harnesses (`figures hits`
//! prints every one) and by the framework to expose how much work the
//! early-stop conditions saved. The rank helpers (DCG/NDCG, reciprocal
//! rank, label concentration) live here rather than in the bench crate so
//! they stay testable against hand-computed fixtures without pulling in a
//! corpus.

/// Counters for a single `div-search-current` invocation.
///
/// The A\* counters (`expansions`, `pushes`, `peak_heap`, `astar_calls`)
/// count only searches that run. `div-dp` and `div-cut` fold a one-vertex
/// component, and a component compression shrinks to one vertex, in closed
/// form, so those add to `plus_ops` and to nothing else.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchMetrics {
    /// Heap pops across all A* rounds (all searched components / cptree
    /// subgraphs). The counter `SearchLimits::max_expansions` caps.
    pub expansions: u64,
    /// Entries pushed into A* heaps, roots included.
    pub pushes: u64,
    /// Largest heap size observed after a child push (0 when no search
    /// pushed a child).
    pub peak_heap: usize,
    /// Number of `div-astar` invocations: 1 for plain astar; for `div-dp`
    /// one per component of two or more vertices; for `div-cut` one per
    /// such component or nested subgraph that has no cut point and that
    /// compression does not shrink to one vertex.
    pub astar_calls: u64,
    /// Nodes removed by Lemma 7 compression (div-cut only).
    pub compressed_nodes: u64,
    /// cptree nodes searched (div-cut only).
    pub cptree_nodes: u64,
    /// `⊕` operator applications: one per component folded (closed-form
    /// one-vertex folds included) plus `div-cut`'s cptree combinations.
    pub plus_ops: u64,
    /// `⊗` operator applications.
    pub otimes_ops: u64,
}

impl SearchMetrics {
    /// Merges counters from a sub-search into this one.
    pub fn absorb(&mut self, other: &SearchMetrics) {
        self.expansions += other.expansions;
        self.pushes += other.pushes;
        self.peak_heap = self.peak_heap.max(other.peak_heap);
        self.astar_calls += other.astar_calls;
        self.compressed_nodes += other.compressed_nodes;
        self.cptree_nodes += other.cptree_nodes;
        self.plus_ops += other.plus_ops;
        self.otimes_ops += other.otimes_ops;
    }
}

/// Counters for a whole framework run ([`crate::framework`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameworkMetrics {
    /// Results pulled from the underlying top-k source.
    pub results_generated: u64,
    /// Similarity evaluations performed while growing the diversity
    /// graph: each arriving result is tested against every earlier one,
    /// so this is `n(n−1)/2` for `n` results generated.
    pub similarity_checks: u64,
    /// Edges present in the final diversity graph.
    pub edges: u64,
    /// Times `necessary()` was evaluated.
    pub necessary_checks: u64,
    /// Times `div-search-current()` actually ran (gated by `necessary()`).
    pub inner_searches: u64,
    /// Accumulated metrics of all inner searches.
    pub search: SearchMetrics,
    /// True when the run ended because `sufficient()` held (early stop),
    /// false when the source was exhausted first.
    pub early_stopped: bool,
}

/// Discounted cumulative gain of a ranking whose per-position gains are
/// `gains[0..]` (position 0 first): `Σ gains[i] / log2(i + 2)`.
///
/// Gains are used raw (no `2^rel − 1` exponentiation) because our
/// relevance grades are already real-valued Eq. 3 scores, not integer
/// judgment levels.
pub fn dcg(gains: &[f64]) -> f64 {
    gains
        .iter()
        .enumerate()
        .map(|(i, g)| g / ((i + 2) as f64).log2())
        .sum()
}

/// Normalized DCG: `dcg(gains) / dcg(ideal_gains)`.
///
/// `ideal_gains` must be the gain vector of the best possible ranking
/// (scores in descending order). When the ideal DCG is zero — an empty or
/// all-zero-gain ideal, where every ranking is equally good — returns 1.0
/// rather than dividing by zero.
pub fn ndcg(gains: &[f64], ideal_gains: &[f64]) -> f64 {
    let ideal = dcg(ideal_gains);
    if ideal <= 0.0 {
        1.0
    } else {
        dcg(gains) / ideal
    }
}

/// Reciprocal rank of `target` in `ranking`: `1 / (position + 1)`, or
/// 0.0 when absent. Position is 0-based, so a top-1 hit scores 1.0.
pub fn reciprocal_rank<T: PartialEq>(ranking: &[T], target: &T) -> f64 {
    ranking
        .iter()
        .position(|r| r == target)
        .map_or(0.0, |pos| 1.0 / (pos + 1) as f64)
}

/// Number of distinct labels among `labels` (unique-source@k when the
/// labels are the source/topic ids of a result page).
pub fn unique_labels(labels: &[u32]) -> usize {
    let mut seen: Vec<u32> = labels.to_vec();
    seen.sort_unstable();
    seen.dedup();
    seen.len()
}

/// Share of the most frequent label: `max count / len`, 0.0 when empty
/// (max-share@k — 1.0 means one source monopolized the page).
pub fn max_share(labels: &[u32]) -> f64 {
    if labels.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<u32> = labels.to_vec();
    sorted.sort_unstable();
    let mut best = 0usize;
    let mut run = 0usize;
    let mut prev: Option<u32> = None;
    for &l in &sorted {
        run = if prev == Some(l) { run + 1 } else { 1 };
        prev = Some(l);
        best = best.max(run);
    }
    best as f64 / labels.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-12, "{a} vs {b}");
    }

    #[test]
    fn dcg_matches_hand_computation() {
        // Gains [3, 2, 1]: 3/log2(2) + 2/log2(3) + 1/log2(4)
        //                = 3 + 2/1.584962500721156 + 0.5
        let expected = 3.0 + 2.0 / 3.0f64.log2() + 0.5;
        close(dcg(&[3.0, 2.0, 1.0]), expected);
        close(dcg(&[]), 0.0);
        close(dcg(&[5.0]), 5.0); // log2(2) = 1
    }

    #[test]
    fn ndcg_is_one_for_ideal_order_and_degrades_for_swaps() {
        let ideal = [3.0, 2.0, 1.0];
        close(ndcg(&ideal, &ideal), 1.0);
        // Swapping positions 0 and 2: [1, 2, 3].
        let swapped = [1.0, 2.0, 3.0];
        let expected = dcg(&swapped) / dcg(&ideal);
        close(ndcg(&swapped, &ideal), expected);
        assert!(ndcg(&swapped, &ideal) < 1.0);
    }

    #[test]
    fn ndcg_all_tied_scores_is_one_any_order() {
        // All-tied gains: every permutation has the same DCG, so NDCG = 1.
        close(ndcg(&[2.0, 2.0, 2.0], &[2.0, 2.0, 2.0]), 1.0);
        // Zero ideal (empty result set, k > result count): defined as 1.
        close(ndcg(&[], &[]), 1.0);
        close(ndcg(&[0.0], &[0.0]), 1.0);
    }

    #[test]
    fn reciprocal_rank_hand_fixtures() {
        let ranking = [7u32, 3, 9];
        close(reciprocal_rank(&ranking, &7), 1.0);
        close(reciprocal_rank(&ranking, &3), 0.5);
        close(reciprocal_rank(&ranking, &9), 1.0 / 3.0);
        close(reciprocal_rank(&ranking, &42), 0.0);
        close(reciprocal_rank(&[] as &[u32], &42), 0.0);
    }

    #[test]
    fn label_concentration_hand_fixtures() {
        // [a, a, b, c]: 3 unique, max share 2/4.
        assert_eq!(unique_labels(&[1, 1, 2, 3]), 3);
        close(max_share(&[1, 1, 2, 3]), 0.5);
        // Monoculture.
        assert_eq!(unique_labels(&[4, 4, 4]), 1);
        close(max_share(&[4, 4, 4]), 1.0);
        // Empty (k > result count collapses to this).
        assert_eq!(unique_labels(&[]), 0);
        close(max_share(&[]), 0.0);
        // All distinct.
        assert_eq!(unique_labels(&[5, 9, 1]), 3);
        close(max_share(&[5, 9, 1]), 1.0 / 3.0);
    }

    #[test]
    fn absorb_accumulates_and_maxes() {
        let mut a = SearchMetrics {
            expansions: 5,
            pushes: 10,
            peak_heap: 7,
            astar_calls: 1,
            ..Default::default()
        };
        let b = SearchMetrics {
            expansions: 2,
            pushes: 3,
            peak_heap: 11,
            astar_calls: 2,
            plus_ops: 4,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.expansions, 7);
        assert_eq!(a.pushes, 13);
        assert_eq!(a.peak_heap, 11);
        assert_eq!(a.astar_calls, 3);
        assert_eq!(a.plus_ops, 4);
    }
}
