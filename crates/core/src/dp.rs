//! `div-dp` — connected-component decomposition + dynamic programming
//! (Algorithm 7, §6).
//!
//! Independent sets never cross component boundaries, so each connected
//! component is searched independently with `div-astar` and the per-size
//! tables are folded together with the `⊕` operator (commutative and
//! associative in value, so any fold order finds the same scores). The
//! search space shrinks from exponential in `|V(G)|` to exponential in
//! the largest component.
//!
//! The component loop, `fold_components`, is shared with `div-cut`.
//! It folds components in the order `connected_components` emits them
//! (smallest node id first). Order does not move a score, but on a score
//! tie it decides which witness a table entry keeps, so the order is part
//! of the answer. A one-vertex component is not searched: `div-astar` on
//! `{v}` returns `{∅, {v}}` (or `{∅}` at score 0), and
//! `combine_vertex_in_place` folds that table in closed form, in the same
//! place in the order, through the same strict-`>` comparison (DESIGN.md
//! §6, "One-vertex components in closed form").
//!
//! The other components go through
//! [`induced_subgraph`](crate::graph::DiversityGraph::induced_subgraph),
//! which relabels to a dense `0..|component|` id space and rebuilds the
//! (component-sized) adjacency bitmap — so even a graph too large to
//! carry a bitmap itself runs its per-component `div-astar` calls on the
//! dense kernel (DESIGN.md §7). The fold uses the allocation-free
//! [`combine_disjoint_in_place`] with lazily remapped witnesses.

use crate::astar::div_astar_ledger;
use crate::components::connected_components;
use crate::error::SearchError;
use crate::graph::{DiversityGraph, NodeId};
use crate::limits::{BudgetLedger, SearchLimits};
use crate::metrics::SearchMetrics;
use crate::ops::{combine_disjoint_in_place, combine_vertex_in_place};
use crate::score::Score;
use crate::solution::SearchResult;

/// Exact diversified top-k via component decomposition, no limits.
pub fn div_dp(g: &DiversityGraph, k: usize) -> SearchResult {
    let mut metrics = SearchMetrics::default();
    let mut ledger = SearchLimits::unlimited().start();
    div_dp_ledger(g, k, &mut ledger, &mut metrics).expect("unlimited search cannot exhaust budgets")
}

pub(crate) fn div_dp_ledger(
    g: &DiversityGraph,
    k: usize,
    ledger: &mut BudgetLedger,
    metrics: &mut SearchMetrics,
) -> Result<SearchResult, SearchError> {
    fold_components(g, k, ledger, metrics, |sub, ledger, metrics| {
        div_astar_ledger(sub, k, ledger, metrics).map(Solved::Table)
    })
}

/// What a component search hands back to [`fold_components`], in the
/// component's own ids.
pub(crate) enum Solved {
    /// The component's per-size table.
    Table(SearchResult),
    /// The component is worth exactly this one vertex (Lemma 7 can shrink
    /// a near-clique that far): fold it in closed form.
    Vertex(NodeId),
}

/// `⊕` over the connected components of `g`, smallest node id first
/// (Algorithm 7's loop; `div-cut` runs it too). A one-vertex component is
/// folded in closed form; every other one is induced, handed to `search`,
/// and its answer folded. One `plus_ops` per component either way.
pub(crate) fn fold_components(
    g: &DiversityGraph,
    k: usize,
    ledger: &mut BudgetLedger,
    metrics: &mut SearchMetrics,
    mut search: impl FnMut(
        &DiversityGraph,
        &mut BudgetLedger,
        &mut SearchMetrics,
    ) -> Result<Solved, SearchError>,
) -> Result<SearchResult, SearchError> {
    let mut combined = SearchResult::empty(k);
    if k == 0 {
        return Ok(combined);
    }
    for comp in connected_components(g) {
        if let [v] = comp[..] {
            fold_vertex(&mut combined, v, g.score(v));
        } else {
            let (sub, map) = g.induced_subgraph(&comp);
            match search(&sub, ledger, metrics)? {
                Solved::Table(local) => {
                    combine_disjoint_in_place(&mut combined, &local.map_nodes(&map));
                }
                Solved::Vertex(v) => fold_vertex(&mut combined, map[v as usize], sub.score(v)),
            }
        }
        metrics.plus_ops += 1;
        ledger.check_deadline()?;
    }
    Ok(combined)
}

/// `acc ← acc ⊕ div-astar({v})` without the search. On one vertex the A\*
/// root's bound is `score`, and it is expanded only if that beats the
/// empty set's 0: the table is `{∅, {v}}` for `score > 0`, else `{∅}`,
/// which `⊕` leaves alone.
fn fold_vertex(acc: &mut SearchResult, v: NodeId, score: Score) {
    if score > Score::ZERO {
        combine_vertex_in_place(acc, v, score);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::exhaustive;
    use crate::framework::ExactAlgorithm;
    use crate::score::Score;
    use crate::testgen;

    fn s(v: u32) -> Score {
        Score::from(v)
    }

    /// Builds the two-component graph of Fig. 6: G1 = v1..v6 (scores
    /// 10,8,7,7,6,1 — the Fig. 1 graph) and G2 = u1..u5 (scores 10,9,8,7,6)
    /// wired so that D2 of G2 = {u1, u3} = 18 and D3 = {u2, u4, u5} = 22,
    /// matching the tables of Fig. 7.
    fn fig6_graph() -> DiversityGraph {
        // Global sorted scores: u1=10, v1=10, u2=9, u3=8, v2=8, u4=7, u5=6,
        // v3=7, v4=7, v5=6, v6=1 — interleaved. Easier: build unsorted and
        // let the constructor relabel.
        let scores = [
            s(10), // 0: v1
            s(8),  // 1: v2
            s(7),  // 2: v3
            s(7),  // 3: v4
            s(6),  // 4: v5
            s(1),  // 5: v6
            s(10), // 6: u1
            s(9),  // 7: u2
            s(8),  // 8: u3
            s(7),  // 9: u4
            s(6),  // 10: u5
        ];
        let edges = [
            // G1 = Fig. 1 edges.
            (0u32, 2u32),
            (0, 3),
            (0, 4),
            (1, 2),
            (1, 3),
            (1, 4),
            (3, 5),
            (4, 5),
            // G2: from Fig. 7, D1 = {u1} = 10, D2 = {u1, u3} = 18,
            // D3 = {u2, u4, u5} = 22, D4 = ∅ (no independent set of 4).
            // Edges achieving this: u1-u2, u1-u4, u1-u5, u2-u3, u3-u4, u3-u5.
            (6, 7),
            (6, 9),
            (6, 10),
            (7, 8),
            (8, 9),
            (8, 10),
        ];
        DiversityGraph::from_unsorted_scores(&scores, &edges).0
    }

    #[test]
    fn fig7_example3_combination() {
        // Example 3: k = 5, combining D1 (G1) and D2 (G2) gives
        // D.solution_5 with score 40 = 18 (2 nodes from G1) + 22 (3 from G2).
        let g = fig6_graph();
        let r = div_dp(&g, 5);
        assert_eq!(r.score(5), Some(s(40)));
        assert_eq!(r.prefix_best_score(5), s(40));
        // Fig. 7's combined table: sizes 1..5 = 10, 20, 28, 36, 40.
        assert_eq!(r.score(1), Some(s(10)));
        assert_eq!(r.score(2), Some(s(20)));
        assert_eq!(r.score(3), Some(s(28)));
        assert_eq!(r.score(4), Some(s(36)));
        r.assert_well_formed(Some(&g));
    }

    #[test]
    fn matches_astar_on_multi_component_graphs() {
        for seed in 0..25 {
            // Sparse → many components.
            let g = testgen::random_graph(16, 0.12, seed);
            for k in [1, 3, 6, 10] {
                let dp = div_dp(&g, k);
                let want = exhaustive(&g, k);
                dp.assert_well_formed(Some(&g));
                for i in 0..=k {
                    assert_eq!(
                        dp.prefix_best_score(i),
                        want.prefix_best_score(i),
                        "seed {seed} k {k} size {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn k_larger_than_graph() {
        let g = testgen::random_graph(6, 0.2, 3);
        let r = div_dp(&g, 10);
        let want = exhaustive(&g, 10);
        assert_eq!(r.best().score(), want.best().score());
    }

    #[test]
    fn empty_graph() {
        let g = DiversityGraph::from_sorted_scores(vec![], &[]);
        assert_eq!(div_dp(&g, 4).best().len(), 0);
    }

    #[test]
    fn budget_propagates_to_components() {
        let g = testgen::star_chain(50);
        let limits = SearchLimits {
            max_expansions: Some(2),
            ..SearchLimits::default()
        };
        assert!(ExactAlgorithm::Dp.search(&g, 25, &limits).is_err());
    }

    #[test]
    fn metrics_count_components() {
        // 3 isolated nodes → 3 one-vertex components → 3 ⊕ folds in
        // closed form, no A* call, nothing expanded.
        let g = DiversityGraph::from_sorted_scores(vec![s(3), s(2), s(1)], &[]);
        let (r, m) = ExactAlgorithm::Dp
            .search(&g, 2, &SearchLimits::unlimited())
            .unwrap();
        assert_eq!(r.best().score(), s(5));
        assert_eq!(m.astar_calls, 0);
        assert_eq!(m.expansions, 0);
        assert_eq!(m.plus_ops, 3);
    }

    #[test]
    fn isolated_vertices_never_trip_the_expansion_budget() {
        // Only A* is charged against `max_expansions`: a graph of one-vertex
        // components answers exactly under a budget of zero.
        let g = DiversityGraph::from_sorted_scores(vec![s(3), s(2), s(2), s(0)], &[]);
        let limits = SearchLimits {
            max_expansions: Some(0),
            ..SearchLimits::default()
        };
        let (r, m) = ExactAlgorithm::Dp.search(&g, 3, &limits).unwrap();
        assert_eq!(r, reference_dp(&g, 3));
        assert_eq!(r.best().nodes(), vec![0, 1, 2]);
        assert_eq!(m.expansions, 0);
    }

    /// The reference the closed-form fold must reproduce: every component,
    /// one vertex or not, through `div_astar`, then `⊕`, in component
    /// order.
    fn reference_dp(g: &DiversityGraph, k: usize) -> SearchResult {
        let mut acc = SearchResult::empty(k);
        for comp in connected_components(g) {
            let (sub, map) = g.induced_subgraph(&comp);
            let local = crate::astar::div_astar(&sub, k);
            combine_disjoint_in_place(&mut acc, &local.map_nodes(&map));
        }
        acc
    }

    /// Whole tables, witnesses included, against [`reference_dp`] on graphs
    /// made mostly of one-vertex components with tied scores. Planted
    /// mutations this catches (each applied, the suite run, reverted):
    /// `>=` for `>` in `combine_vertex_in_place`; its target sizes walked
    /// ascending; the one-vertex components hoisted into one prefix folded
    /// after the others (right scores, wrong witnesses); the score-0 guard
    /// in `fold_vertex` dropped.
    #[test]
    fn one_vertex_folds_match_astar_then_plus_table_for_table() {
        for seed in 0..40 {
            for g in testgen::one_vertex_heavy(seed) {
                for k in [1, 2, 3, 6, g.len()] {
                    let got = div_dp(&g, k);
                    assert_eq!(got, reference_dp(&g, k), "seed {seed} n {} k {k}", g.len());
                    got.assert_well_formed(Some(&g));
                }
            }
        }
    }
}
