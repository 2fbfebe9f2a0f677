//! Exhaustive exact search — the reference oracle for tests.
//!
//! Enumerates every independent set of size ≤ k by a straightforward
//! include/exclude recursion (implemented iteratively) with a cheap
//! score-sum pruning bound. Exponential; intended for graphs of up to a
//! few dozen nodes in tests and for validating the production algorithms.
//! Unlike `div-astar`, this oracle fills **every** size entry with the true
//! per-size optimum, making it strictly stronger than the prefix-max
//! contract — handy when tests want point-wise comparisons.

use crate::graph::{DiversityGraph, NodeId};
use crate::score::Score;
use crate::solution::SearchResult;

/// Exact per-size optima by exhaustive enumeration.
///
/// Fills `D.solution_i` with the true optimum for every feasible size
/// `i ≤ k`. Use only on small graphs (worst case `O(2^n)`).
pub fn exhaustive(g: &DiversityGraph, k: usize) -> SearchResult {
    let n = g.len();
    let mut out = SearchResult::empty(k);
    if n == 0 || k == 0 {
        return out;
    }
    // Suffix score sums for pruning: suffix[i] = sum of scores of nodes i..n.
    let mut suffix = vec![Score::ZERO; n + 1];
    for i in (0..n).rev() {
        suffix[i] = suffix[i + 1] + g.score(i as NodeId);
    }
    // Worst per-size optimum lower bound we could still improve: track the
    // minimum current entry score to prune hopeless branches.
    let mut stack: Vec<(NodeId, Vec<NodeId>, Score)> = vec![(0, Vec::new(), Score::ZERO)];
    while let Some((pos, chosen, score)) = stack.pop() {
        if pos as usize >= n || chosen.len() == k {
            continue;
        }
        // Prune: even taking every remaining node cannot beat the weakest
        // still-improvable entry... per-size enumeration needs care, so the
        // prune is conservative: skip only if no entry of any size
        // chosen.len()+1..=k could be improved.
        let optimistic = score + suffix[pos as usize];
        let improvable = ((chosen.len() + 1)..=k).any(|sz| {
            out.solution(sz).map(|s| s.score()) < Some(optimistic) || out.solution(sz).is_none()
        });
        if !improvable {
            continue;
        }
        // Branch 1: skip node `pos`.
        stack.push((pos + 1, chosen.clone(), score));
        // Branch 2: take node `pos` if compatible.
        let v = pos;
        let compatible = chosen.iter().all(|&u| !g.are_adjacent(u, v));
        if compatible {
            let mut next = chosen;
            next.push(v);
            let next_score = score + g.score(v);
            out.offer(next.clone(), next_score);
            stack.push((pos + 1, next, next_score));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: u32) -> Score {
        Score::from(v)
    }

    #[test]
    fn fig1_k2_and_k3() {
        let g = DiversityGraph::paper_fig1();
        let r2 = exhaustive(&g, 2);
        assert_eq!(r2.best().score(), s(18));
        assert_eq!(r2.best().nodes(), &[0, 1]); // {v1, v2}
        let r3 = exhaustive(&g, 3);
        assert_eq!(r3.best().score(), s(20));
        assert_eq!(r3.best().nodes(), &[2, 3, 4]); // {v3, v4, v5}
        // Per-size optima: D1 = 10, D2 = 18, D3 = 20.
        assert_eq!(r3.score(1), Some(s(10)));
        assert_eq!(r3.score(2), Some(s(18)));
        assert_eq!(r3.score(3), Some(s(20)));
        r3.assert_well_formed(Some(&g));
    }

    #[test]
    fn infeasible_sizes_stay_empty() {
        // Triangle: max independent set has 1 node.
        let g =
            DiversityGraph::from_sorted_scores(vec![s(3), s(2), s(1)], &[(0, 1), (0, 2), (1, 2)]);
        let r = exhaustive(&g, 3);
        assert_eq!(r.score(1), Some(s(3)));
        assert_eq!(r.score(2), None);
        assert_eq!(r.score(3), None);
        assert_eq!(r.max_feasible_size(), 1);
    }

    #[test]
    fn k_zero_returns_empty() {
        let g = DiversityGraph::paper_fig1();
        let r = exhaustive(&g, 0);
        assert_eq!(r.best().len(), 0);
    }

    #[test]
    fn independent_graph_takes_top_k() {
        let g = DiversityGraph::from_sorted_scores(vec![s(9), s(7), s(5), s(3)], &[]);
        let r = exhaustive(&g, 2);
        assert_eq!(r.best().nodes(), &[0, 1]);
        assert_eq!(r.best().score(), s(16));
    }

    #[test]
    fn per_size_optima_are_point_wise_exact() {
        // Star: center 0 (score 100) connected to 1..4 (scores 4,3,2,1).
        let g = DiversityGraph::from_sorted_scores(
            vec![s(100), s(4), s(3), s(2), s(1)],
            &[(0, 1), (0, 2), (0, 3), (0, 4)],
        );
        let r = exhaustive(&g, 4);
        assert_eq!(r.score(1), Some(s(100)));
        assert_eq!(r.score(2), Some(s(7))); // best *exactly-2*: {1,2}
        assert_eq!(r.score(3), Some(s(9))); // {1,2,3}
        assert_eq!(r.score(4), Some(s(10))); // {1,2,3,4}
        assert_eq!(r.best().score(), s(100));
    }
}
