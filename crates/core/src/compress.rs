//! Graph compression by dominance (Lemma 7, §7).
//!
//! A node `v_i` can be deleted when some neighbor `v_j` *dominates* it:
//! `score(v_j) ≥ score(v_i)` and `N[v_j] ⊆ N[v_i]` (closed neighborhoods).
//! Any solution using `v_i` can swap in `v_j` at no loss, so per-size optima
//! are unchanged. The paper applies this before cut-point decomposition to
//! create more cut points (e.g. Fig. 8 → Fig. 9 removes `w1`, exposing `w2`).
//!
//! Removals are applied **sequentially** against the current alive set
//! (two nodes with identical closed neighborhoods and scores dominate each
//! other; removing both would be wrong), and passes repeat to a fixpoint
//! since each removal can enable more.
//!
//! When the graph carries an adjacency bitmap (DESIGN.md §7), the
//! neighborhood-inclusion test `N[v_j] ⊆ N[v_i]` runs word-at-a-time:
//! `row(v_j) ∧ alive ∧ ¬row(v_i)` must be empty apart from `v_i` itself —
//! `O(n/64)` per candidate instead of a probe per neighbor.

use crate::graph::{DiversityGraph, NodeId};
use crate::nodeset::DenseNodeSet;

/// Returns the ids of nodes that survive compression, ascending.
///
/// `g` minus the returned set has the same per-size optimal solutions for
/// every size, by Lemma 7 applied inductively.
pub fn compress(g: &DiversityGraph) -> Vec<NodeId> {
    let n = g.len();
    let mut alive = DenseNodeSet::from_nodes(n, 0..n as NodeId);
    loop {
        let mut changed = false;
        // Visit lowest scores first (highest ids): dominated nodes are
        // usually cheap leaves, and removing them first exposes more.
        for vi in (0..n as NodeId).rev() {
            if !alive.contains(vi) {
                continue;
            }
            if find_dominator(g, &alive, vi).is_some() {
                alive.remove(vi);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    alive.to_sorted_vec()
}

/// Finds an alive neighbor of `vi` that dominates it, if any.
fn find_dominator(g: &DiversityGraph, alive: &DenseNodeSet, vi: NodeId) -> Option<NodeId> {
    g.neighbors(vi)
        .iter()
        .copied()
        .find(|&vj| alive.contains(vj) && g.score(vj) >= g.score(vi) && dominates(g, alive, vj, vi))
}

/// True iff every alive neighbor of `vj` other than `vi` also neighbors
/// `vi` (the closed-neighborhood inclusion of Lemma 7, given `vj ≈ vi` and
/// the score comparison already checked by the caller).
fn dominates(g: &DiversityGraph, alive: &DenseNodeSet, vj: NodeId, vi: NodeId) -> bool {
    if let (Some(row_j), Some(row_i)) = (g.adjacency_row(vj), g.adjacency_row(vi)) {
        // Word-level: offenders are alive neighbors of vj that vi misses.
        // vi itself always shows up in row_j (vj ≈ vi) and never in row_i
        // (no self-loops), so mask its bit out.
        let vi_word = (vi / 64) as usize;
        let vi_bit = 1u64 << (vi % 64);
        for (w, ((&rj, &ri), &al)) in row_j.iter().zip(row_i).zip(alive.words()).enumerate() {
            let mut offenders = rj & al & !ri;
            if w == vi_word {
                offenders &= !vi_bit;
            }
            if offenders != 0 {
                return false;
            }
        }
        return true;
    }
    // Fallback without a bitmap: probe per neighbor.
    for &w in g.neighbors(vj) {
        if w == vi || !alive.contains(w) {
            continue;
        }
        if !g.are_adjacent(vi, w) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::exhaustive;
    use crate::score::Score;
    use crate::testgen;

    fn s(v: u32) -> Score {
        Score::from(v)
    }

    #[test]
    fn empty_and_edgeless_graphs_untouched() {
        let g = DiversityGraph::from_sorted_scores(vec![], &[]);
        assert!(compress(&g).is_empty());
        let g = DiversityGraph::from_sorted_scores(vec![s(3), s(2)], &[]);
        assert_eq!(compress(&g), vec![0, 1]);
    }

    #[test]
    fn pendant_dominated_by_stronger_neighbor() {
        // 0(10) - 1(2): N[0] = {0,1} ⊆ N[1] = {0,1} and score(0) ≥ score(1)
        // → 1 is dominated by 0 and removed; 0 survives.
        let g = DiversityGraph::from_sorted_scores(vec![s(10), s(2)], &[(0, 1)]);
        assert_eq!(compress(&g), vec![0]);
    }

    #[test]
    fn mutual_domination_keeps_exactly_one() {
        // Twin nodes: same score, same closed neighborhood (adjacent pair).
        let g = DiversityGraph::from_sorted_scores(vec![s(5), s(5)], &[(0, 1)]);
        let kept = compress(&g);
        assert_eq!(kept.len(), 1);
    }

    #[test]
    fn no_removal_when_neighbor_has_extra_edges() {
        // 0(10)-1(5), 0(10)-2(1): can 1 be removed? Dominator must be a
        // neighbor of 1 — only 0; N[0] = {0,1,2} ⊄ N[1] = {0,1}. No.
        let g = DiversityGraph::from_sorted_scores(vec![s(10), s(5), s(1)], &[(0, 1), (0, 2)]);
        // 2 IS dominated by 0? N[0] = {0,1,2} ⊄ N[2] = {0,2}. No.
        // Nothing removable.
        assert_eq!(compress(&g), vec![0, 1, 2]);
    }

    #[test]
    fn triangle_with_descending_scores_collapses() {
        // Triangle 0(9),1(5),2(3): 2 dominated by 0 (N[0]=N[2]={0,1,2}),
        // then 1 dominated by 0 → only 0 survives.
        let g =
            DiversityGraph::from_sorted_scores(vec![s(9), s(5), s(3)], &[(0, 1), (0, 2), (1, 2)]);
        assert_eq!(compress(&g), vec![0]);
    }

    #[test]
    fn fig8_w1_is_removed() {
        // Paper Example 4: w1 is dominated by w2 (w2 ∈ N(w1),
        // score(w2)=13 ≥ 12, and every neighbor of w2 neighbors w1).
        // Minimal sub-instance around w1/w2: w1(12)–w2(13), both adjacent
        // to x(8) and y(9); w1 additionally adjacent to z(6).
        let scores = [s(12), s(13), s(8), s(9), s(6)];
        let edges = [(0u32, 1u32), (0, 2), (0, 3), (1, 2), (1, 3), (0, 4)];
        let (g, perm) = DiversityGraph::from_unsorted_scores(&scores, &edges);
        let kept = compress(&g);
        // w1 (original index 0) must be gone.
        let w1_new = perm.iter().position(|&o| o == 0).unwrap() as NodeId;
        assert!(!kept.contains(&w1_new));
    }

    #[test]
    fn compression_preserves_per_size_optima() {
        for seed in 0..40 {
            let g = testgen::random_graph(13, 0.35, seed);
            let kept = compress(&g);
            let (cg, map) = g.induced_subgraph(&kept);
            let want = exhaustive(&g, 6);
            let got = exhaustive(&cg, 6).map_nodes(&map);
            for i in 0..=6 {
                assert_eq!(
                    got.score(i),
                    want.score(i),
                    "seed {seed} size {i}: compression changed the optimum"
                );
                if let Some(sol) = got.solution(i) {
                    assert!(g.is_independent_set(&sol.nodes()));
                }
            }
        }
    }

    #[test]
    fn word_level_and_probe_paths_agree() {
        // The bitmap-free fallback (graphs past the cap) must remove
        // exactly the same nodes; the isolated pads are never dominated.
        for seed in 0..30 {
            let g = testgen::random_graph(40, 0.3, 700 + seed);
            let mut kept = compress(&testgen::pad_past_bitmap_cap(&g));
            kept.retain(|&v| (v as usize) < g.len());
            assert_eq!(compress(&g), kept, "seed {seed}");
        }
    }

    #[test]
    fn compression_is_idempotent() {
        for seed in 0..10 {
            let g = testgen::random_graph(15, 0.3, seed);
            let kept = compress(&g);
            let (cg, _) = g.induced_subgraph(&kept);
            let kept2 = compress(&cg);
            assert_eq!(kept2.len(), cg.len(), "second pass removed more");
        }
    }
}
