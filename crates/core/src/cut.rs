//! `div-cut` — the cut-point decomposition search (Algorithms 8–10, §7).
//!
//! Each connected component is first *compressed* (Lemma 7), then
//! decomposed along its cut points into a **cptree**: every tree node `o`
//! owns a cut point, an *entry graph* (the part of `o`'s territory that
//! touches the parent's cut point), a *left graph* (cut-point-free
//! remainder), and child subtrees. Results are computed bottom-up; each
//! node produces two tables — `result_0` (cut point excluded) and
//! `result_1` (included) — combined with `⊕`/`⊗`. Entry graphs are searched
//! up to four times (parent in/out × child in/out) with *mark counters*
//! suppressing nodes adjacent to included cut points; left and entry
//! graphs are searched by recursing into `div-cut` itself, so nested
//! cut structure keeps decomposing.
//!
//! There is one way to run it. Compression always applies. The root cut
//! point minimizes the largest component left without it; every other cut
//! point minimizes its entry graph, as Algorithm 9's line 2 says (the
//! paper's text and Fig. 11 take the largest). On 124 planted, path and
//! sparse random graphs the smallest rule took 7× less time (DESIGN.md
//! §6). Past `MAX_NEST_DEPTH` nested calls a subgraph runs plain
//! `div-astar`.
//!
//! Components are split and folded by `div-dp`'s loop, so a one-vertex
//! component, here or in any nested left or entry graph, is folded in
//! closed form and never searched. So is a component that compression
//! shrinks to one vertex (a near-clique keeps only its best member). On
//! this repository's text graphs that is nearly every component; the rest
//! run the cptree or A\* below. Tables and witnesses are the ones the A\*
//! path built (DESIGN.md §6, "One-vertex components in closed form").
//!
//! ## Structural invariant that makes bottom-up reuse sound
//!
//! When a child `o'` (territory `C`, a component of `territory(o) −
//! o.cut_point`) is built, its entry graph collects **every** component of
//! `C − o'.cut_point` containing a neighbor of `o.cut_point`. Hence all of
//! `o.cut_point`'s neighbors inside `C` lie in `o'.entry_graph ∪
//! {o'.cut_point}` — so `o'.result_j` (which covers `C` *minus* the entry
//! graph) is valid regardless of whether `o.cut_point` is included; the
//! parent only re-searches the entry graph under the appropriate marks and
//! forbids the `both-included` case for adjacent cut points
//! (Algorithm 10 lines 10–11).

use crate::astar::div_astar_ledger;
use crate::compress::compress;
use crate::cutpoints::articulation_points;
use crate::dp::{Solved, fold_components};
use crate::error::SearchError;
use crate::graph::{DiversityGraph, NodeId};
use crate::limits::{BudgetLedger, SearchLimits};
use crate::metrics::SearchMetrics;
use crate::ops::{combine_alternative_in_place, combine_disjoint, combine_disjoint_in_place};
use crate::solution::SearchResult;

/// At most this many candidate cut points are evaluated per selection
/// (evenly sampled) — caps the `O(|cut points| · (V + E))` selection scan
/// on adversarial graphs without affecting exactness.
const SELECTION_SCAN_CAP: usize = 32;

/// Maximum `div-cut` nesting depth (entry/left graphs recurse into
/// `div-cut`); beyond it a subgraph falls back to plain `div-astar`, which
/// is still exact.
const MAX_NEST_DEPTH: usize = 64;

/// One node of the cptree (arena-allocated; children have larger indices).
#[derive(Debug)]
pub(crate) struct CpNode {
    pub(crate) cut_point: NodeId,
    /// Nodes of the entry graph (may span several components; may be empty).
    pub(crate) entry_graph: Vec<NodeId>,
    /// Nodes of the cut-point-free remainder (may be empty / disconnected).
    pub(crate) left_graph: Vec<NodeId>,
    /// Arena indices of child cptree nodes.
    pub(crate) children: Vec<usize>,
}

/// Exact diversified top-k via cut-point decomposition, no limits.
///
/// ```
/// use divtopk_core::prelude::*;
///
/// // A path v0—v1—v2 with scores 10, 9, 1. v1 is a cut point; the best
/// // independent pair is {v0, v2} even though {v0, v1} scores higher
/// // before feasibility.
/// let g = DiversityGraph::from_sorted_scores(
///     vec![Score::new(10.0), Score::new(9.0), Score::new(1.0)],
///     &[(0, 1), (1, 2)],
/// );
/// let result = div_cut(&g, 2);
/// assert_eq!(result.best().score(), Score::new(11.0));
/// assert_eq!(result.best().nodes(), vec![0, 2]);
/// ```
pub fn div_cut(g: &DiversityGraph, k: usize) -> SearchResult {
    let mut metrics = SearchMetrics::default();
    let mut ledger = SearchLimits::unlimited().start();
    div_cut_ledger(g, k, &mut ledger, &mut metrics, 0)
        .expect("unlimited search cannot exhaust budgets")
}

/// Algorithm 8: components → compress → cptree (or astar when no cut points).
pub(crate) fn div_cut_ledger(
    g: &DiversityGraph,
    k: usize,
    ledger: &mut BudgetLedger,
    metrics: &mut SearchMetrics,
    depth: usize,
) -> Result<SearchResult, SearchError> {
    fold_components(g, k, ledger, metrics, |sub, ledger, metrics| {
        cut_component(sub, k, ledger, metrics, depth)
    })
}

/// Handles one *connected* component of at least two vertices.
fn cut_component(
    g: &DiversityGraph,
    k: usize,
    ledger: &mut BudgetLedger,
    metrics: &mut SearchMetrics,
    depth: usize,
) -> Result<Solved, SearchError> {
    let kept = compress(g);
    if kept.len() < g.len() {
        metrics.compressed_nodes += (g.len() - kept.len()) as u64;
        // A near-clique compresses to its best vertex: fold it in closed
        // form, as a one-vertex component would be.
        if let [v] = kept[..] {
            return Ok(Solved::Vertex(v));
        }
        let (cg, map) = g.induced_subgraph(&kept);
        // Compression can disconnect the component; restart the full body
        // on the strictly smaller graph (compression is idempotent, so
        // this cannot loop).
        let inner = div_cut_ledger(&cg, k, ledger, metrics, depth)?;
        return Ok(Solved::Table(inner.map_nodes(&map)));
    }
    let cut_points = articulation_points(g);
    if cut_points.is_empty() || depth >= MAX_NEST_DEPTH {
        return div_astar_ledger(g, k, ledger, metrics).map(Solved::Table);
    }
    let tree = construct_cptree(g, &cut_points);
    metrics.cptree_nodes += tree.len() as u64;
    // Left and entry graphs recurse into `div-cut` one level deeper.
    let mut search =
        |sub: &DiversityGraph, ledger: &mut BudgetLedger, metrics: &mut SearchMetrics| {
            div_cut_ledger(sub, k, ledger, metrics, depth + 1)
        };
    cp_search(g, &tree, k, ledger, metrics, &mut search).map(Solved::Table)
}

/// Membership scratch with epoch stamps (avoids reallocating per query).
struct Territory {
    stamp: Vec<u32>,
    epoch: u32,
}

impl Territory {
    fn new(n: usize) -> Territory {
        Territory {
            stamp: vec![0; n],
            epoch: 0,
        }
    }

    fn set(&mut self, nodes: &[NodeId]) {
        self.epoch += 1;
        for &v in nodes {
            self.stamp[v as usize] = self.epoch;
        }
    }

    /// Starts a fresh empty stamp generation (marks added via [`mark`](Territory::mark)).
    fn begin(&mut self) {
        self.epoch += 1;
    }

    #[inline]
    fn mark(&mut self, v: NodeId) {
        self.stamp[v as usize] = self.epoch;
    }

    #[inline]
    fn contains(&self, v: NodeId) -> bool {
        self.stamp[v as usize] == self.epoch
    }
}

/// Reusable scratch for cptree construction: territory membership stamps,
/// BFS visited stamps and the BFS work stack. The cut-point selection scan
/// calls [`sub_components`] O(|candidates|) times per territory; with the
/// stamps reused, those calls allocate only the component vectors
/// themselves.
struct CpScratch {
    membership: Territory,
    visited: Territory,
    stack: Vec<NodeId>,
}

impl CpScratch {
    fn new(n: usize) -> CpScratch {
        CpScratch {
            membership: Territory::new(n),
            visited: Territory::new(n),
            stack: Vec::new(),
        }
    }
}

/// Connected components of `territory − {excluded}` (BFS within stamps).
fn sub_components(
    g: &DiversityGraph,
    territory: &[NodeId],
    excluded: NodeId,
    scratch: &mut CpScratch,
) -> Vec<Vec<NodeId>> {
    scratch.membership.set(territory);
    scratch.visited.begin();
    scratch.visited.mark(excluded);
    let mut out = Vec::new();
    for &start in territory {
        if scratch.visited.contains(start) {
            continue;
        }
        let mut comp = vec![start];
        scratch.visited.mark(start);
        scratch.stack.clear();
        scratch.stack.push(start);
        while let Some(v) = scratch.stack.pop() {
            for &nb in g.neighbors(v) {
                if scratch.membership.contains(nb) && !scratch.visited.contains(nb) {
                    scratch.visited.mark(nb);
                    comp.push(nb);
                    scratch.stack.push(nb);
                }
            }
        }
        comp.sort_unstable();
        out.push(comp);
    }
    out
}

/// Evenly samples at most [`SELECTION_SCAN_CAP`] candidates
/// (deterministic; the first candidate is always among them).
fn sample_candidates(candidates: &[NodeId]) -> impl Iterator<Item = NodeId> + '_ {
    let cap = candidates.len().min(SELECTION_SCAN_CAP);
    let step = candidates.len() as f64 / cap as f64;
    (0..cap).map(move |i| candidates[(i as f64 * step) as usize])
}

/// Algorithm 9's cut-point selection for one territory. The root
/// minimizes the largest component left after removing it; a child
/// minimizes its entry graph (Algorithm 9 line 2 — the paper's text and
/// Fig. 11 take the largest, which measured slower, DESIGN.md §6). Ties
/// keep the earlier candidate.
fn select_cut_point(
    g: &DiversityGraph,
    territory: &[NodeId],
    candidates: &[NodeId],
    parent_cut: Option<NodeId>,
    scratch: &mut CpScratch,
) -> NodeId {
    debug_assert!(!candidates.is_empty());
    let mut best = (usize::MAX, candidates[0]);
    for v in sample_candidates(candidates) {
        let comps = sub_components(g, territory, v, scratch);
        let size = match parent_cut {
            None => comps.iter().map(|c| c.len()).max().unwrap_or(0),
            Some(p) => comps
                .iter()
                .filter(|c| c.iter().any(|&x| g.are_adjacent(x, p)))
                .map(|c| c.len())
                .sum(),
        };
        if size < best.0 {
            best = (size, v);
        }
    }
    best.1
}

/// Algorithm 9, iterative: builds the cptree arena for one connected graph.
///
/// Children are always appended after their parent, so iterating the arena
/// in reverse index order visits children before parents (a post-order).
pub(crate) fn construct_cptree(g: &DiversityGraph, cut_points: &[NodeId]) -> Vec<CpNode> {
    let n = g.len();
    let mut is_cp = vec![false; n];
    for &c in cut_points {
        is_cp[c as usize] = true;
    }
    let mut scratch = CpScratch::new(n);
    let mut arena: Vec<CpNode> = Vec::new();

    struct WorkItem {
        territory: Vec<NodeId>,
        parent: Option<usize>,
        parent_cut: Option<NodeId>,
    }
    let mut work = vec![WorkItem {
        territory: g.nodes().collect(),
        parent: None,
        parent_cut: None,
    }];

    while let Some(item) = work.pop() {
        let candidates: Vec<NodeId> = item
            .territory
            .iter()
            .copied()
            .filter(|&v| is_cp[v as usize])
            .collect();
        debug_assert!(
            !candidates.is_empty(),
            "work items are only created for territories containing cut points"
        );
        let v = select_cut_point(
            g,
            &item.territory,
            &candidates,
            item.parent_cut,
            &mut scratch,
        );
        let comps = sub_components(g, &item.territory, v, &mut scratch);
        let mut entry_graph: Vec<NodeId> = Vec::new();
        let mut rest: Vec<Vec<NodeId>> = Vec::new();
        for comp in comps {
            let is_entry = match item.parent_cut {
                Some(p) => comp.iter().any(|&x| g.are_adjacent(x, p)),
                None => false,
            };
            if is_entry {
                entry_graph.extend(comp);
            } else {
                rest.push(comp);
            }
        }
        entry_graph.sort_unstable();

        let idx = arena.len();
        arena.push(CpNode {
            cut_point: v,
            entry_graph,
            left_graph: Vec::new(),
            children: Vec::new(),
        });
        if let Some(p) = item.parent {
            arena[p].children.push(idx);
        }
        let mut left: Vec<NodeId> = Vec::new();
        for comp in rest {
            if comp.iter().any(|&x| is_cp[x as usize]) {
                work.push(WorkItem {
                    territory: comp,
                    parent: Some(idx),
                    parent_cut: Some(v),
                });
            } else {
                left.extend(comp);
            }
        }
        left.sort_unstable();
        arena[idx].left_graph = left;
    }
    arena
}

/// Adjusts the mark counters around `v`'s neighborhood.
fn mark_adjacent(g: &DiversityGraph, marks: &mut [u32], v: NodeId, add: bool) {
    for &nb in g.neighbors(v) {
        if add {
            marks[nb as usize] += 1;
        } else {
            debug_assert!(marks[nb as usize] > 0, "unbalanced unmark");
            marks[nb as usize] -= 1;
        }
    }
}

/// How `cp_search` searches a left or entry graph: recursive `div-cut`
/// (or, in tests, a reference that must agree with it).
type SubSearch<'a> = dyn FnMut(
        &DiversityGraph,
        &mut BudgetLedger,
        &mut SearchMetrics,
    ) -> Result<SearchResult, SearchError>
    + 'a;

/// `remove-mark(subgraph)` + `search`: searches the unmarked nodes of
/// `node_set` and maps the table back to this graph's ids.
fn search_filtered(
    g: &DiversityGraph,
    node_set: &[NodeId],
    marks: &[u32],
    k: usize,
    ledger: &mut BudgetLedger,
    metrics: &mut SearchMetrics,
    search: &mut SubSearch,
) -> Result<SearchResult, SearchError> {
    let keep: Vec<NodeId> = node_set
        .iter()
        .copied()
        .filter(|&v| marks[v as usize] == 0)
        .collect();
    if keep.is_empty() {
        return Ok(SearchResult::empty(k));
    }
    let (sub, map) = g.induced_subgraph(&keep);
    let local = search(&sub, ledger, metrics)?;
    Ok(local.map_nodes(&map))
}

/// Algorithm 10, iterative bottom-up over the arena.
fn cp_search(
    g: &DiversityGraph,
    tree: &[CpNode],
    k: usize,
    ledger: &mut BudgetLedger,
    metrics: &mut SearchMetrics,
    search: &mut SubSearch,
) -> Result<SearchResult, SearchError> {
    let mut marks = vec![0u32; g.len()];
    let mut results: Vec<Option<[SearchResult; 2]>> = Vec::new();
    results.resize_with(tree.len(), || None);

    for idx in (0..tree.len()).rev() {
        ledger.check_deadline()?;
        let node = &tree[idx];
        let mut pair = [SearchResult::empty(k), SearchResult::empty(k)];
        for include in [false, true] {
            if include {
                mark_adjacent(g, &mut marks, node.cut_point, true);
            }
            // Left graph under the current marks (Algorithm 10 line 6).
            let mut r = search_filtered(g, &node.left_graph, &marks, k, ledger, metrics, search)?;
            for &child_idx in &node.children {
                let child = &tree[child_idx];
                let child_results = results[child_idx]
                    .as_ref()
                    .expect("children are processed before parents");
                let mut alt: Option<SearchResult> = None;
                for child_include in [false, true] {
                    // Both cut points included but adjacent → infeasible
                    // (lines 10–11).
                    if child_include && include && g.are_adjacent(node.cut_point, child.cut_point) {
                        break;
                    }
                    if child_include {
                        mark_adjacent(g, &mut marks, child.cut_point, true);
                    }
                    let entry =
                        search_filtered(g, &child.entry_graph, &marks, k, ledger, metrics, search)?;
                    let branch =
                        combine_disjoint(&child_results[usize::from(child_include)], &entry);
                    metrics.plus_ops += 1;
                    alt = Some(match alt {
                        None => branch,
                        Some(mut prev) => {
                            metrics.otimes_ops += 1;
                            combine_alternative_in_place(&mut prev, &branch);
                            prev
                        }
                    });
                    if child_include {
                        mark_adjacent(g, &mut marks, child.cut_point, false);
                    }
                }
                let alt = alt.expect("child_include=false always runs");
                combine_disjoint_in_place(&mut r, &alt);
                metrics.plus_ops += 1;
            }
            if include {
                r = r.shift_include(node.cut_point, g.score(node.cut_point));
                mark_adjacent(g, &mut marks, node.cut_point, false);
            }
            pair[usize::from(include)] = r;
        }
        results[idx] = Some(pair);
    }

    let [mut r0, r1] = results[0].take().expect("root processed last");
    metrics.otimes_ops += 1;
    combine_alternative_in_place(&mut r0, &r1);
    Ok(r0)
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

    /// The paper's Fig. 8 graph, reconstructed from Examples 4–5 and
    /// Figs. 9/11: `G′1` is the Fig. 1 graph (v1..v6), `G′2` is Fig. 6's G2
    /// (u1..u5), the hub `w2` (13) is adjacent to v2, v4, u2, u3;
    /// `w1` (12) duplicates `w2`'s neighborhood and is dominated by it;
    /// pendant chains w4–w3 hang off v6 and w5–w6 off u5.
    ///
    /// Returns `(graph, perm)` with `perm[new_id] = index into NAMES`.
    pub(crate) fn fig8_graph() -> (DiversityGraph, Vec<u32>) {
        // Indices into `scores`: 0..5 = v1..v6, 6..10 = u1..u5,
        // 11 = w1, 12 = w2, 13 = w3, 14 = w4, 15 = w5, 16 = w6.
        let scores = [
            s(10),
            s(8),
            s(7),
            s(7),
            s(6),
            s(1), // v1..v6
            s(10),
            s(9),
            s(8),
            s(7),
            s(6), // u1..u5
            s(12),
            s(13),
            s(1),
            s(1),
            s(1),
            s(1), // w1, w2, w3, w4, w5, w6
        ];
        let edges = [
            // G′1 (Fig. 1 edges).
            (0u32, 2u32),
            (0, 3),
            (0, 4),
            (1, 2),
            (1, 3),
            (1, 4),
            (3, 5),
            (4, 5),
            // G′2 (Fig. 6's G2 edges).
            (6, 7),
            (6, 9),
            (6, 10),
            (7, 8),
            (8, 9),
            (8, 10),
            // Hub w2 and its shadow w1.
            (12, 1),
            (12, 3),
            (12, 7),
            (12, 8),
            (12, 11),
            (11, 1),
            (11, 3),
            (11, 7),
            (11, 8),
            // Pendant chains.
            (14, 5),
            (14, 13),
            (15, 10),
            (15, 16),
        ];
        DiversityGraph::from_unsorted_scores(&scores, &edges)
    }

    #[test]
    fn fig11_final_table() {
        // Fig. 11's final (⊗-combined) table for k = 5:
        // sizes 1..5 score 13, 23, 33, 36, 40.
        let (g, _) = fig8_graph();
        let r = div_cut(&g, 5);
        assert_eq!(r.prefix_best_score(1), s(13));
        assert_eq!(r.prefix_best_score(2), s(23));
        assert_eq!(r.prefix_best_score(3), s(33));
        assert_eq!(r.prefix_best_score(4), s(36));
        assert_eq!(r.prefix_best_score(5), s(40));
        assert_eq!(r.best().score(), s(40));
        r.assert_well_formed(Some(&g));
        // Cross-check the whole table against the oracle.
        let want = exhaustive(&g, 5);
        for i in 0..=5 {
            assert_eq!(r.prefix_best_score(i), want.prefix_best_score(i));
        }
    }

    #[test]
    fn fig9_compression_removes_w1() {
        // Example 4 removes w1 (dominated by w2). A *fixpoint* of Lemma 7
        // is stronger than the paper's one-step illustration: with all
        // pendant scores equal to 1, leaf w3 also dominates its support w4
        // (N[w3] = {w3, w4} ⊆ N[w4], scores tie) and w6 dominates w5 — so
        // our compression removes {w1, w4, w5}. Exactness is untouched
        // (`fig11_final_table` checks the optimum against the oracle).
        let (g, perm) = fig8_graph();
        let kept = compress(&g);
        let removed: Vec<u32> = g
            .nodes()
            .filter(|v| !kept.contains(v))
            .map(|v| perm[v as usize])
            .collect();
        let w1 = 11u32;
        assert!(removed.contains(&w1), "w1 must be compressed away");
        let mut removed = removed;
        removed.sort_unstable();
        assert_eq!(removed, vec![w1, 14, 15]); // w1, w4 (leaf w3 wins), w5
    }

    /// Fig. 8 with only Example 4's single removal (w1), the state the
    /// paper's Fig. 9/11 start from, and `perm` mapped into its ids.
    fn fig8_minus_w1() -> (DiversityGraph, Vec<u32>) {
        let (g, perm) = fig8_graph();
        let w1_new = perm.iter().position(|&o| o == 11).unwrap() as NodeId;
        let kept: Vec<NodeId> = g.nodes().filter(|&v| v != w1_new).collect();
        let (cg, map) = g.induced_subgraph(&kept);
        let perm = map.iter().map(|&v| perm[v as usize]).collect();
        (cg, perm)
    }

    #[test]
    fn fig11_cptree_shape() {
        // The paper's Fig. 11 picks each child cut point by the *largest*
        // entry graph, as its text says: w2 → {w4, w5} with entry graphs
        // G′1 / G′2. Algorithm 9's line 2 says smallest, and that is the
        // rule here: under w2, v6 (entry v1..v5) beats w4 (entry G′1) and
        // u5 (entry u1..u4) beats w5 (entry G′2); w4 and w5 then hang
        // below them, each with only its pendant leaf left.
        let (g, perm) = fig8_minus_w1();
        let tree = construct_cptree(&g, &articulation_points(&g));
        assert_cptree_invariants(&g, &tree);
        let labels = |nodes: &[NodeId]| -> Vec<u32> {
            let mut out: Vec<u32> = nodes.iter().map(|&v| perm[v as usize]).collect();
            out.sort_unstable();
            out
        };
        let mut shape: Vec<_> = tree
            .iter()
            .map(|node| {
                let children: Vec<NodeId> =
                    node.children.iter().map(|&c| tree[c].cut_point).collect();
                (
                    perm[node.cut_point as usize],
                    labels(&node.entry_graph),
                    labels(&node.left_graph),
                    labels(&children),
                )
            })
            .collect();
        assert_eq!(perm[tree[0].cut_point as usize], 12, "root must be w2");
        shape.sort();
        // Indices into `fig8_graph`'s scores: v1..v6 = 0..5, u1..u5 =
        // 6..10, w2 = 12, w3 = 13, w4 = 14, w5 = 15, w6 = 16.
        let want = vec![
            (5, vec![0, 1, 2, 3, 4], vec![], vec![14]),
            (10, vec![6, 7, 8, 9], vec![], vec![15]),
            (12, vec![], vec![], vec![5, 10]),
            (14, vec![], vec![13], vec![]),
            (15, vec![], vec![16], vec![]),
        ];
        assert_eq!(shape, want);
    }

    /// Structural invariants of the cptree over one connected graph:
    /// 1. cut points + entry graphs + left graphs partition the node set;
    /// 2. every neighbor of a node's cut point inside a child's territory
    ///    lies in that child's entry graph or is the child's cut point
    ///    (the property cp-search's bottom-up reuse relies on).
    fn assert_cptree_invariants(g: &DiversityGraph, tree: &[CpNode]) {
        use std::collections::HashSet;
        let mut seen: HashSet<NodeId> = HashSet::new();
        for node in tree {
            for &v in std::iter::once(&node.cut_point)
                .chain(&node.entry_graph)
                .chain(&node.left_graph)
            {
                assert!(seen.insert(v), "node {v} appears twice in the cptree");
            }
        }
        assert_eq!(seen.len(), g.len(), "cptree must cover every node");

        // Invariant 2: parent's cut-point neighbors within each child's
        // subtree lie in the child's entry graph ∪ {child.cut_point}.
        for (idx, node) in tree.iter().enumerate() {
            for &child_idx in &node.children {
                // Collect the child's full subtree coverage.
                let mut coverage: HashSet<NodeId> = HashSet::new();
                let mut stack = vec![child_idx];
                while let Some(i) = stack.pop() {
                    let c = &tree[i];
                    coverage.insert(c.cut_point);
                    coverage.extend(&c.entry_graph);
                    coverage.extend(&c.left_graph);
                    stack.extend(&c.children);
                }
                let child = &tree[child_idx];
                let entry: HashSet<NodeId> = child.entry_graph.iter().copied().collect();
                for &nb in g.neighbors(node.cut_point) {
                    if coverage.contains(&nb) {
                        assert!(
                            entry.contains(&nb) || nb == child.cut_point,
                            "cpnode {idx}: parent-adjacent node {nb} deep in child {child_idx}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cptree_invariants_on_random_connected_graphs() {
        for seed in 0..40 {
            let g = testgen::random_graph(18, 0.12, 3000 + seed);
            for comp in crate::components::connected_components(&g) {
                let (sub, _) = g.induced_subgraph(&comp);
                let cps = articulation_points(&sub);
                if cps.is_empty() {
                    continue;
                }
                let tree = construct_cptree(&sub, &cps);
                assert_cptree_invariants(&sub, &tree);
            }
        }
        // Paths exercise deep chains.
        for n in [10usize, 40, 120] {
            let g = testgen::path_graph(n, n as u64 + 5);
            let cps = articulation_points(&g);
            let tree = construct_cptree(&g, &cps);
            assert_cptree_invariants(&g, &tree);
        }
    }

    #[test]
    fn matches_exhaustive_on_random_graphs() {
        for seed in 0..30 {
            let g = testgen::random_graph(14, 0.2, seed);
            for k in [1, 3, 5, 9, 14] {
                let got = div_cut(&g, k);
                let want = exhaustive(&g, k);
                got.assert_well_formed(Some(&g));
                for i in 0..=k {
                    assert_eq!(
                        got.prefix_best_score(i),
                        want.prefix_best_score(i),
                        "seed {seed} k {k} size {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_exhaustive_on_clustered_graphs() {
        let config = testgen::ClusterConfig {
            clusters: 3,
            cluster_size: 5,
            intra_p: 0.7,
            bridges: 3,
            singletons: 2,
        };
        for seed in 0..20 {
            let g = testgen::planted_clusters(&config, seed);
            let got = div_cut(&g, 6);
            let want = exhaustive(&g, 6);
            for i in 0..=6 {
                assert_eq!(
                    got.prefix_best_score(i),
                    want.prefix_best_score(i),
                    "seed {seed} size {i}"
                );
            }
        }
    }

    #[test]
    fn matches_exhaustive_on_paths_and_stars() {
        for n in [2usize, 3, 5, 9, 16] {
            let g = testgen::path_graph(n, n as u64);
            let got = div_cut(&g, n);
            let want = exhaustive(&g, n);
            for i in 0..=n {
                assert_eq!(
                    got.prefix_best_score(i),
                    want.prefix_best_score(i),
                    "path n={n} i={i}"
                );
            }
        }
        let g = testgen::star_chain(12);
        let got = div_cut(&g, 12);
        let want = exhaustive(&g, 12);
        assert_eq!(got.best().score(), want.best().score());
    }

    #[test]
    fn nest_depth_fallback_is_exact() {
        // At `MAX_NEST_DEPTH` no cptree is built: a component that would
        // have been decomposed runs plain A* instead.
        let mut fell_back = 0;
        for seed in 0..8 {
            let g = testgen::random_graph(12, 0.15, seed);
            let mut ledger = SearchLimits::unlimited().start();
            let mut m = SearchMetrics::default();
            let got = div_cut_ledger(&g, 6, &mut ledger, &mut m, MAX_NEST_DEPTH).unwrap();
            assert_eq!(m.cptree_nodes, 0, "seed {seed}");
            let (_, at_top) = ExactAlgorithm::Cut
                .search(&g, 6, &SearchLimits::unlimited())
                .unwrap();
            if at_top.cptree_nodes > 0 {
                assert!(m.astar_calls >= 1, "seed {seed}");
                fell_back += 1;
            }
            let want = exhaustive(&g, 6);
            for i in 0..=6 {
                assert_eq!(
                    got.prefix_best_score(i),
                    want.prefix_best_score(i),
                    "seed {seed} size {i}"
                );
            }
        }
        assert!(fell_back >= 2, "only {fell_back} seeds build a cptree");
    }

    #[test]
    fn budgets_propagate() {
        let g = testgen::planted_clusters(&testgen::ClusterConfig::default(), 3);
        let limits = SearchLimits {
            max_expansions: Some(1),
            ..SearchLimits::default()
        };
        assert!(ExactAlgorithm::Cut.search(&g, 10, &limits).is_err());
    }

    #[test]
    fn metrics_record_decomposition() {
        let (g, _) = fig8_graph();
        let (_, m) = ExactAlgorithm::Cut
            .search(&g, 5, &SearchLimits::unlimited())
            .unwrap();
        assert_eq!(m.compressed_nodes, 3); // w1, w4, w5 (fixpoint of Lemma 7)
        assert!(m.cptree_nodes >= 1); // at least the hub w2
        assert!(m.plus_ops > 0);
        assert!(m.otimes_ops > 0);
    }

    #[test]
    fn metrics_on_paper_compressed_graph() {
        // With only w1 removed (the paper's illustration), searching the
        // cptree directly — no further compression at the top — still
        // finds Fig. 11's optimum; the left and entry graphs are searched
        // by nested `div-cut`, which compresses them as usual.
        let (g, _) = fig8_minus_w1();
        let tree = construct_cptree(&g, &articulation_points(&g));
        assert_eq!(tree.len(), 5, "w2, v6, w4, u5, w5");
        let mut ledger = SearchLimits::unlimited().start();
        let mut m = SearchMetrics::default();
        let mut nested =
            |sub: &DiversityGraph, ledger: &mut BudgetLedger, metrics: &mut SearchMetrics| {
                div_cut_ledger(sub, 5, ledger, metrics, 1)
            };
        let r = cp_search(&g, &tree, 5, &mut ledger, &mut m, &mut nested).unwrap();
        assert_eq!(r.prefix_best_score(5), s(40));
        r.assert_well_formed(Some(&g));
        assert!(m.plus_ops > 0 && m.otimes_ops > 0);
    }

    #[test]
    fn planted_clusters_compress_then_cut_by_smallest_entry() {
        // DESIGN.md §6's AB1 / AB2 input. Compression removes dominated
        // vertices, and the smallest-entry child rule with a fresh A* heap
        // per round expands 21 entries (the largest-entry rule with one
        // heap across rounds took 22; without compression, 219).
        let g = testgen::planted_clusters(
            &testgen::ClusterConfig {
                clusters: 10,
                cluster_size: 8,
                intra_p: 0.65,
                bridges: 8,
                singletons: 15,
            },
            13,
        );
        let (_, m) = ExactAlgorithm::Cut
            .search(&g, 20, &SearchLimits::unlimited())
            .unwrap();
        assert!(m.compressed_nodes > 0);
        assert_eq!(m.expansions, 21);
    }

    /// The reference the closed-form fold must reproduce: `div-cut` with
    /// every component, and every one-vertex remainder of compression,
    /// sent through `div_astar` and then `⊕`, at every level of nesting
    /// (these graphs nest far less than `MAX_NEST_DEPTH` deep).
    fn reference_cut(g: &DiversityGraph, k: usize) -> SearchResult {
        let mut acc = SearchResult::empty(k);
        for comp in crate::components::connected_components(g) {
            let (sub, map) = g.induced_subgraph(&comp);
            let kept = compress(&sub);
            let local = if kept.len() < sub.len() {
                let (cg, cmap) = sub.induced_subgraph(&kept);
                reference_cut(&cg, k).map_nodes(&cmap)
            } else {
                let cut_points = articulation_points(&sub);
                if cut_points.is_empty() {
                    crate::astar::div_astar(&sub, k)
                } else {
                    let tree = construct_cptree(&sub, &cut_points);
                    let mut ledger = SearchLimits::unlimited().start();
                    let mut nested =
                        |s: &DiversityGraph, _: &mut BudgetLedger, _: &mut SearchMetrics| {
                            Ok(reference_cut(s, k))
                        };
                    cp_search(
                        &sub,
                        &tree,
                        k,
                        &mut ledger,
                        &mut SearchMetrics::default(),
                        &mut nested,
                    )
                    .unwrap()
                }
            };
            combine_disjoint_in_place(&mut acc, &local.map_nodes(&map));
        }
        acc
    }

    /// Whole tables, witnesses included, against [`reference_cut`] on
    /// isolated vertices, 2-cliques (Lemma 7 leaves one vertex), stars,
    /// planted clusters with singletons and paths with pendant leaves, all
    /// with tied scores. `dp.rs`'s twin test lists the mutations both
    /// catch; this one also catches a one-vertex compression remainder
    /// folded with the wrong id (component-local instead of global).
    #[test]
    fn one_vertex_folds_match_astar_then_plus_table_for_table() {
        for seed in 0..40 {
            for g in testgen::one_vertex_heavy(seed) {
                for k in [1, 2, 3, 6, g.len()] {
                    let got = div_cut(&g, k);
                    let n = g.len();
                    assert_eq!(got, reference_cut(&g, k), "seed {seed} n {n} k {k}");
                    got.assert_well_formed(Some(&g));
                }
            }
        }
    }

    #[test]
    fn isolated_vertices_and_two_cliques_run_no_astar() {
        // {0, 3} and {1, 4} are 2-cliques, 2 and 5 are isolated: four
        // components, each folded in closed form after at most compression.
        let g = DiversityGraph::from_sorted_scores(
            vec![s(5), s(4), s(4), s(3), s(2), s(1)],
            &[(0, 3), (1, 4)],
        );
        let (r, m) = ExactAlgorithm::Cut
            .search(&g, 3, &SearchLimits::unlimited())
            .unwrap();
        assert_eq!(r, reference_cut(&g, 3));
        assert_eq!(r.best().nodes(), vec![0, 1, 2]);
        assert_eq!((m.astar_calls, m.expansions, m.pushes), (0, 0, 0));
        assert_eq!((m.compressed_nodes, m.plus_ops), (2, 4));
    }

    #[test]
    fn moderate_path_graph_is_exact_and_fast() {
        // Every interior node is a cut point: exercises deep cptrees.
        let g = testgen::path_graph(60, 9);
        let got = div_cut(&g, 20);
        let want = crate::dp::div_dp(&g, 20);
        for i in 0..=20 {
            assert_eq!(
                got.prefix_best_score(i),
                want.prefix_best_score(i),
                "size {i}"
            );
        }
    }
}
