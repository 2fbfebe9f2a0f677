//! `div-astar` — the A\*-based exact search (Algorithm 4, §5).
//!
//! Partial solutions live in a max-heap ranked by an admissible upper bound
//! (`astar-bound`): the best score any extension of the partial solution
//! (using only nodes at later positions, up to `k'` total) could reach.
//! Because node ids are sorted by non-increasing score, the bound simply
//! greedily sums the best *compatible* later nodes.
//!
//! Each per-size round `k' = k, k-1, …, 1` starts a **fresh** heap from
//! the empty solution. The paper instead reuses one heap across rounds
//! (Lemma 6), re-bounding every surviving entry for `k' − 1`; measured on
//! 121 graphs, restarting expanded 2.7× fewer entries in total (DESIGN.md
//! §4). A round still starts from the table the earlier rounds filled, so
//! its incumbent prunes from the first pop. After the round for `k'`, the
//! table's prefix maximum at `k'` is exact (see `solution.rs` docs for why
//! prefix-max is the right contract).
//!
//! ## The bitset kernel (DESIGN.md §7)
//!
//! The search's inner loops are compatibility tests: "which nodes after
//! `e.pos` are independent of the partial solution `S`?" On a graph that
//! carries an adjacency bitmap (at most
//! [`DENSE_ADJ_MAX_NODES`](crate::graph::DENSE_ADJ_MAX_NODES) nodes) these
//! run on dense `u64` bitsets — the exclusion set of `S` is the word-level
//! OR of the graph's precomputed adjacency bitmap rows, candidate
//! enumeration skips excluded nodes a word (64 ids) at a time, and bounding
//! a child `S ∪ {v}` needs no marking at all: the child's exclusion set is
//! just `excl | adjacency_row(v)`, evaluated on the fly. Partial solutions
//! themselves are parent-linked entries in an append-only arena (8 bytes
//! per push), so the expansion loop's steady state performs **zero
//! allocations**: no per-child `Vec`, no per-offer clone (`offer_extended`
//! copies only on improvement), only amortized arena/heap growth. Graphs
//! too large to carry a bitmap run on the epoch-stamp kernel instead; the
//! graph decides, the caller does not.

use crate::error::SearchError;
use crate::graph::{DiversityGraph, NodeId};
use crate::limits::{BudgetLedger, SearchLimits};
use crate::metrics::SearchMetrics;
use crate::score::Score;
use crate::solution::SearchResult;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Minimal word buffer for the kernel's exclusion sets: the same layout as
/// [`DenseNodeSet`](crate::nodeset::DenseNodeSet) (bit `v % 64` of word
/// `v / 64`), without the cardinality bookkeeping — the search only ever
/// scans words, and maintaining `len` would cost a popcount per word on
/// every row OR of the hottest loop.
#[derive(Debug)]
struct WordBuf {
    words: Vec<u64>,
}

impl WordBuf {
    fn new(capacity: usize) -> WordBuf {
        WordBuf {
            words: vec![0; capacity.div_ceil(64)],
        }
    }

    fn clear(&mut self) {
        self.words.fill(0);
    }

    #[inline]
    fn or_row(&mut self, row: &[u64]) {
        debug_assert_eq!(self.words.len(), row.len(), "universe mismatch");
        for (w, &r) in self.words.iter_mut().zip(row) {
            *w |= r;
        }
    }

    #[inline]
    fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Sentinel arena index for the empty solution.
const NIL: u32 = u32::MAX;

/// One parent link in the solution arena: `(node, parent index)`.
type Link = (NodeId, u32);

/// Heap-entry bytes charged to the ledger while an entry is in the heap.
const ENTRY_BYTES: usize = std::mem::size_of::<Entry>();
/// Arena bytes charged per pushed child (released when the search ends).
const LINK_BYTES: usize = std::mem::size_of::<Link>();

/// Append-only arena of parent-linked partial solutions.
///
/// A heap entry stores only the index of its last link; the full node set
/// is the chain up to [`NIL`]. Pushing a child is one 8-byte append —
/// no per-entry `Vec`, no teardown cost when entries are popped.
#[derive(Debug, Default)]
struct SolutionArena {
    links: Vec<Link>,
}

impl SolutionArena {
    fn push(&mut self, node: NodeId, parent: u32) -> u32 {
        let idx = self.links.len() as u32;
        self.links.push((node, parent));
        idx
    }

    fn len(&self) -> usize {
        self.links.len()
    }

    /// Drops all links, keeping the allocation. Only valid when no live
    /// heap entry references the arena: between rounds, each of which
    /// starts its own heap.
    fn clear(&mut self) {
        self.links.clear();
    }

    /// Materializes the chain ending at `tail` into `out`, ascending (nodes
    /// are appended in increasing id order, so the chain walks descending).
    fn materialize(&self, mut tail: u32, out: &mut Vec<NodeId>) {
        out.clear();
        while tail != NIL {
            let (node, parent) = self.links[tail as usize];
            out.push(node);
            tail = parent;
        }
        out.reverse();
    }
}

/// A partial solution in the A\* frontier.
///
/// `first_untried` is `e.pos + 1` in the paper's notation: the smallest node
/// id not yet considered for extension (all solution members have smaller
/// ids). `tail` is the solution's last link in the arena ([`NIL`] = empty).
#[derive(Debug, Clone, Copy)]
struct Entry {
    bound: Score,
    score: Score,
    first_untried: NodeId,
    len: u32,
    tail: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap by bound; ties broken by realized score (prefer more
        // complete solutions), then by position for determinism.
        self.bound
            .cmp(&other.bound)
            .then(self.score.cmp(&other.score))
            .then(other.first_untried.cmp(&self.first_untried))
    }
}

/// Kernel-specific exclusion state. Allocated once per search, reused
/// across every expansion. `Dense` runs exactly on graphs with an adjacency
/// bitmap, `Sparse` on the rest.
#[derive(Debug)]
enum KernelScratch {
    Dense {
        /// Nodes adjacent to the current popped solution (bitset).
        excl: WordBuf,
    },
    Sparse {
        /// Stamped with `epoch` for nodes adjacent to the popped solution.
        excl: Vec<u32>,
        /// Stamped with `cand_epoch` for nodes adjacent to the candidate.
        cand: Vec<u32>,
        epoch: u32,
        cand_epoch: u32,
    },
}

/// Reusable per-search state: kernel scratch, the solution arena, and the
/// materialization buffer. Nothing here is allocated per expansion.
#[derive(Debug)]
struct Scratch {
    kernel: KernelScratch,
    arena: SolutionArena,
    /// The popped entry's solution, materialized ascending.
    sol_buf: Vec<NodeId>,
}

impl Scratch {
    fn new(g: &DiversityGraph) -> Scratch {
        let n = g.len();
        let kernel = if g.has_adjacency_bitmap() {
            KernelScratch::Dense {
                excl: WordBuf::new(n),
            }
        } else {
            KernelScratch::Sparse {
                excl: vec![0; n],
                cand: vec![0; n],
                epoch: 0,
                cand_epoch: 0,
            }
        };
        Scratch {
            kernel,
            arena: SolutionArena::default(),
            sol_buf: Vec::new(),
        }
    }

    /// Materializes `tail`'s solution into `sol_buf` and marks everything
    /// adjacent to it as excluded.
    fn mark_solution(&mut self, g: &DiversityGraph, tail: u32) {
        self.arena.materialize(tail, &mut self.sol_buf);
        match &mut self.kernel {
            KernelScratch::Dense { excl } => {
                excl.clear();
                for &v in &self.sol_buf {
                    excl.or_row(bitmap_row(g, v));
                }
            }
            KernelScratch::Sparse { excl, epoch, .. } => {
                *epoch += 1;
                for &v in &self.sol_buf {
                    for &nb in g.neighbors(v) {
                        excl[nb as usize] = *epoch;
                    }
                }
            }
        }
    }

    /// Smallest node `≥ from` compatible with the marked solution, or
    /// `None`. The dense kernel skips excluded nodes 64 ids at a time.
    fn next_free(&self, g: &DiversityGraph, from: NodeId) -> Option<NodeId> {
        let n = g.len() as NodeId;
        match &self.kernel {
            KernelScratch::Dense { excl } => next_zero_bit(excl.words(), None, from, n),
            KernelScratch::Sparse { excl, epoch, .. } => {
                (from..n).find(|&v| excl[v as usize] != *epoch)
            }
        }
    }

    /// `astar-bound` for the child `solution ∪ {v}` (Algorithm 4 lines
    /// 18–26), assuming the parent solution is already marked. The dense
    /// kernel evaluates `excl | adjacency_row(v)` on the fly — no marking.
    fn child_bound(
        &mut self,
        g: &DiversityGraph,
        v: NodeId,
        size: usize,
        base_score: Score,
        k_prime: usize,
    ) -> Score {
        match &mut self.kernel {
            KernelScratch::Dense { excl } => {
                let row = Some(bitmap_row(g, v));
                bound_zero_scan(g, excl.words(), row, size, base_score, v + 1, k_prime)
            }
            KernelScratch::Sparse {
                excl,
                cand,
                epoch,
                cand_epoch,
            } => {
                *cand_epoch += 1;
                for &nb in g.neighbors(v) {
                    cand[nb as usize] = *cand_epoch;
                }
                let n = g.len() as NodeId;
                let mut bound = base_score;
                let mut size = size;
                let mut i = v + 1;
                while size < k_prime && i < n {
                    if excl[i as usize] != *epoch && cand[i as usize] != *cand_epoch {
                        bound += g.score(i);
                        size += 1;
                    }
                    i += 1;
                }
                bound
            }
        }
    }

    /// Standalone `astar-bound` for one entry (each round's root). Marks
    /// the entry's exclusions itself.
    fn solution_bound(&mut self, g: &DiversityGraph, e: &Entry, k_prime: usize) -> Score {
        self.mark_solution(g, e.tail);
        match &self.kernel {
            KernelScratch::Dense { excl } => bound_zero_scan(
                g,
                excl.words(),
                None,
                e.len as usize,
                e.score,
                e.first_untried,
                k_prime,
            ),
            KernelScratch::Sparse { excl, epoch, .. } => {
                let n = g.len() as NodeId;
                let mut bound = e.score;
                let mut size = e.len as usize;
                let mut i = e.first_untried;
                while size < k_prime && i < n {
                    if excl[i as usize] != *epoch {
                        bound += g.score(i);
                        size += 1;
                    }
                    i += 1;
                }
                bound
            }
        }
    }
}

/// `v`'s adjacency bitmap row; the dense kernel is only ever built for
/// graphs that carry one.
#[inline]
fn bitmap_row(g: &DiversityGraph, v: NodeId) -> &[u64] {
    g.adjacency_row(v)
        .expect("dense kernel runs only on graphs with an adjacency bitmap")
}

/// Smallest id `≥ from` whose bit is clear in `a | b` (b optional), or
/// `None`. Scans whole zero words with one test each.
fn next_zero_bit(a: &[u64], b: Option<&[u64]>, from: NodeId, n: NodeId) -> Option<NodeId> {
    if from >= n {
        return None;
    }
    let combined = |wi: usize| a[wi] | b.map_or(0, |b| b[wi]);
    let mut wi = (from / 64) as usize;
    let mut free = !combined(wi) & (!0u64 << (from % 64));
    loop {
        if free != 0 {
            let v = wi as u32 * 64 + free.trailing_zeros();
            // Bits at or past `n` are universe padding, not nodes; no
            // later word can hold a valid id either.
            return (v < n).then_some(v);
        }
        wi += 1;
        if wi >= a.len() {
            return None;
        }
        free = !combined(wi);
    }
}

/// Greedy bound accumulation over the zero bits of `a | b`, starting at
/// `first` with `size` nodes and `bound` score already committed.
fn bound_zero_scan(
    g: &DiversityGraph,
    a: &[u64],
    b: Option<&[u64]>,
    mut size: usize,
    mut bound: Score,
    first: NodeId,
    k_prime: usize,
) -> Score {
    let n = g.len() as NodeId;
    let mut i = first;
    while size < k_prime {
        match next_zero_bit(a, b, i, n) {
            Some(v) => {
                bound += g.score(v);
                size += 1;
                i = v + 1;
            }
            None => break,
        }
    }
    bound
}

/// Exact diversified top-k on `g` with no limits.
///
/// Infallible (no budgets); worst-case exponential time — prefer
/// [`ExactAlgorithm::AStar`](crate::framework::ExactAlgorithm::AStar)`.search`
/// with [`SearchLimits`] on untrusted inputs or use `div-dp`/`div-cut`.
pub fn div_astar(g: &DiversityGraph, k: usize) -> SearchResult {
    let mut metrics = SearchMetrics::default();
    let mut ledger = SearchLimits::unlimited().start();
    div_astar_ledger(g, k, &mut ledger, &mut metrics)
        .expect("unlimited search cannot exhaust budgets")
}

/// Core implementation with a shared ledger (so `div-dp`/`div-cut` budgets
/// span all inner calls) and accumulated metrics.
pub(crate) fn div_astar_ledger(
    g: &DiversityGraph,
    k: usize,
    ledger: &mut BudgetLedger,
    metrics: &mut SearchMetrics,
) -> Result<SearchResult, SearchError> {
    metrics.astar_calls += 1;
    let n = g.len();
    let mut result = SearchResult::empty(k);
    if n == 0 || k == 0 {
        return Ok(result);
    }
    // Solutions cannot exceed n nodes: rounds beyond n are no-ops.
    let k_cap = k.min(n);
    let mut scratch = Scratch::new(g);
    let mut heap: BinaryHeap<Entry> = BinaryHeap::new();
    for k_prime in (1..=k_cap).rev() {
        push_root(g, &mut scratch, &mut heap, k_prime, ledger, metrics)?;
        astar_search(
            g,
            &mut scratch,
            &mut heap,
            &mut result,
            k_prime,
            ledger,
            metrics,
        )?;
        // Nothing outlives the round: drop its frontier and every solution
        // chain instead of letting them accumulate against the byte budget.
        ledger.release_bytes(heap.len() * ENTRY_BYTES + scratch.arena.len() * LINK_BYTES);
        heap.clear();
        scratch.arena.clear();
    }
    Ok(result)
}

fn push_root(
    g: &DiversityGraph,
    scratch: &mut Scratch,
    heap: &mut BinaryHeap<Entry>,
    k_prime: usize,
    ledger: &mut BudgetLedger,
    metrics: &mut SearchMetrics,
) -> Result<(), SearchError> {
    let mut root = Entry {
        bound: Score::ZERO,
        score: Score::ZERO,
        first_untried: 0,
        len: 0,
        tail: NIL,
    };
    root.bound = scratch.solution_bound(g, &root, k_prime);
    ledger.add_bytes(ENTRY_BYTES)?;
    metrics.pushes += 1;
    heap.push(root);
    Ok(())
}

/// `astar-search(G, H, D, k')` (Algorithm 4 lines 9–17).
#[allow(clippy::too_many_arguments)]
fn astar_search(
    g: &DiversityGraph,
    scratch: &mut Scratch,
    heap: &mut BinaryHeap<Entry>,
    result: &mut SearchResult,
    k_prime: usize,
    ledger: &mut BudgetLedger,
    metrics: &mut SearchMetrics,
) -> Result<(), SearchError> {
    loop {
        // Stop when the frontier cannot beat the incumbent for sizes ≤ k'.
        let incumbent = result.prefix_best_score(k_prime);
        match heap.peek() {
            None => return Ok(()),
            Some(top) if top.bound <= incumbent => return Ok(()),
            Some(_) => {}
        }
        let e = heap.pop().expect("peeked entry");
        ledger.release_bytes(ENTRY_BYTES);
        ledger.record_expansion()?;
        metrics.expansions += 1;

        if e.len as usize >= k_prime {
            continue;
        }
        scratch.mark_solution(g, e.tail);
        let mut from = e.first_untried;
        while let Some(v) = scratch.next_free(g, from) {
            from = v + 1;
            // Child solution e' = e.solution ∪ {v}.
            let child_len = e.len as usize + 1;
            let child_score = e.score + g.score(v);
            let child_bound = scratch.child_bound(g, v, child_len, child_score, k_prime);
            // Line 17: a child with j elements is itself a candidate D_j.
            result.offer_extended(&scratch.sol_buf, v, child_score);
            // Push every extensible child (Algorithm 4 line 16); children
            // at size k' cannot extend. The heap dies with the round, so a
            // child whose bound trails the incumbent will never pop and
            // could be dropped here. Dropping it would still move which of
            // two equal-keyed entries pops first, and with it the witness
            // kept on a score tie, so every child is pushed (DESIGN.md §4).
            if child_len < k_prime {
                let tail = scratch.arena.push(v, e.tail);
                ledger.add_bytes(ENTRY_BYTES + LINK_BYTES)?;
                metrics.pushes += 1;
                heap.push(Entry {
                    bound: child_bound,
                    score: child_score,
                    first_untried: v + 1,
                    len: child_len as u32,
                    tail,
                });
                ledger.check_heap(heap.len())?;
                metrics.peak_heap = metrics.peak_heap.max(heap.len());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::exhaustive;
    use crate::framework::ExactAlgorithm;
    use crate::nodeset::DenseNodeSet;
    use crate::testgen;

    fn s(v: u32) -> Score {
        Score::from(v)
    }

    /// `g` as is (bitset kernel) and padded past the bitmap cap with
    /// isolated zero-score nodes (stamp kernel): the pads change no bound
    /// and no per-size optimum, so both must give the same numbers.
    fn on_both_kernels(g: &DiversityGraph) -> [DiversityGraph; 2] {
        let padded = testgen::pad_past_bitmap_cap(g);
        assert!(g.has_adjacency_bitmap() && !padded.has_adjacency_bitmap());
        [g.clone(), padded]
    }

    /// Checks the prefix-max contract of `got` against the point-wise-exact
    /// oracle `want` on `g`.
    fn assert_prefix_max_matches(g: &DiversityGraph, got: &SearchResult, want: &SearchResult) {
        got.assert_well_formed(Some(g));
        for i in 0..=got.k() {
            assert_eq!(
                got.prefix_best_score(i),
                want.prefix_best_score(i),
                "prefix-max mismatch at size {i}"
            );
        }
    }

    /// Builds a singleton entry `{v}` in `scratch`'s arena.
    fn singleton_entry(scratch: &mut Scratch, g: &DiversityGraph, v: NodeId) -> Entry {
        let tail = scratch.arena.push(v, NIL);
        Entry {
            bound: Score::ZERO,
            score: g.score(v),
            first_untried: v + 1,
            len: 1,
            tail,
        }
    }

    #[test]
    fn fig1_example2_walkthrough() {
        // Example 2: k = 3 on Fig. 1 → D3 = {v3, v4, v5} score 20;
        // then k = 2 → best score 18 ({v1, v2}).
        let g = DiversityGraph::paper_fig1();
        let r = div_astar(&g, 3);
        assert_eq!(r.best().score(), s(20));
        assert_eq!(r.best().nodes(), &[2, 3, 4]);
        assert_eq!(r.prefix_best_score(2), s(18));
        assert_eq!(r.prefix_best_score(1), s(10));
        r.assert_well_formed(Some(&g));
    }

    #[test]
    fn fig4_initial_bounds_on_every_kernel() {
        // Example 2's bound values for singleton entries at k' = 3:
        // {v1}: 19, {v2}: 9, {v3}: 20, {v4}: 13, {v5}: 6, {v6}: 1.
        let expected = [19u32, 9, 20, 13, 6, 1];
        for g in on_both_kernels(&DiversityGraph::paper_fig1()) {
            let mut scratch = Scratch::new(&g);
            for (v, &want) in expected.iter().enumerate() {
                let e = singleton_entry(&mut scratch, &g, v as NodeId);
                assert_eq!(
                    scratch.solution_bound(&g, &e, 3),
                    s(want),
                    "bound of {{v{}}} on {} nodes",
                    v + 1,
                    g.len()
                );
            }
        }
    }

    #[test]
    fn fig5_rebound_for_k2() {
        // When k' drops to 2, {v1}'s bound becomes 18 (Fig. 5).
        for g in on_both_kernels(&DiversityGraph::paper_fig1()) {
            let mut scratch = Scratch::new(&g);
            let e = singleton_entry(&mut scratch, &g, 0);
            assert_eq!(
                scratch.solution_bound(&g, &e, 2),
                s(18),
                "{} nodes",
                g.len()
            );
        }
    }

    #[test]
    fn child_bound_matches_standalone_bound() {
        // Bounding e ∪ {v} via `child_bound` must agree with building the
        // child entry and re-bounding it from scratch, on every kernel.
        for seed in 0..10 {
            for g in on_both_kernels(&testgen::random_graph(40, 0.3, 500 + seed)) {
                let mut scratch = Scratch::new(&g);
                let root = Entry {
                    bound: Score::ZERO,
                    score: Score::ZERO,
                    first_untried: 0,
                    len: 0,
                    tail: NIL,
                };
                scratch.mark_solution(&g, root.tail);
                for v in 0..6u32 {
                    let via_child = scratch.child_bound(&g, v, 1, g.score(v), 4);
                    let mut fresh = Scratch::new(&g);
                    let child = singleton_entry(&mut fresh, &g, v);
                    let standalone = fresh.solution_bound(&g, &child, 4);
                    assert_eq!(via_child, standalone, "seed {seed} v {v} n {}", g.len());
                    // `child_bound` must not disturb the parent's marks.
                    scratch.mark_solution(&g, root.tail);
                }
            }
        }
    }

    #[test]
    fn next_zero_bit_scans_words() {
        // 130-bit universe, everything excluded except 3, 64 and 129.
        let mut excl = DenseNodeSet::new(130);
        for v in 0..130u32 {
            excl.insert(v);
        }
        for v in [3u32, 64, 129] {
            excl.remove(v);
        }
        assert_eq!(next_zero_bit(excl.words(), None, 0, 130), Some(3));
        assert_eq!(next_zero_bit(excl.words(), None, 4, 130), Some(64));
        assert_eq!(next_zero_bit(excl.words(), None, 65, 130), Some(129));
        assert_eq!(next_zero_bit(excl.words(), None, 130, 130), None);
        // Padding bits past n are never reported as free.
        excl.insert(129);
        assert_eq!(next_zero_bit(excl.words(), None, 65, 130), None);
    }

    #[test]
    fn empty_graph_and_k_zero() {
        let g = DiversityGraph::from_sorted_scores(vec![], &[]);
        assert_eq!(div_astar(&g, 5).best().len(), 0);
        let g = DiversityGraph::paper_fig1();
        assert_eq!(div_astar(&g, 0).best().len(), 0);
    }

    #[test]
    fn matches_exhaustive_on_random_graphs() {
        for seed in 0..40 {
            let g = testgen::random_graph(12, 0.3, seed);
            for k in [1, 2, 4, 8, 12] {
                let got = div_astar(&g, k);
                let want = exhaustive(&g, k);
                assert_prefix_max_matches(&g, &got, &want);
            }
        }
    }

    #[test]
    fn matches_exhaustive_on_dense_graphs() {
        for seed in 100..110 {
            let g = testgen::random_graph(14, 0.7, seed);
            let got = div_astar(&g, 6);
            let want = exhaustive(&g, 6);
            assert_prefix_max_matches(&g, &got, &want);
        }
    }

    #[test]
    fn every_kernel_matches_exhaustive() {
        for seed in 200..215 {
            let small = testgen::random_graph(13, 0.35, seed);
            let want = exhaustive(&small, 6);
            for g in on_both_kernels(&small) {
                assert_prefix_max_matches(&g, &div_astar(&g, 6), &want);
            }
        }
    }

    #[test]
    fn each_round_restarts_its_heap() {
        // DESIGN.md §6's AB4 input: a fresh heap per k' round expands 134
        // entries; one heap re-bounded across rounds (Lemma 6) took 318.
        let g = testgen::random_graph(22, 0.25, 3);
        let (r, m) = ExactAlgorithm::AStar
            .search(&g, 12, &SearchLimits::unlimited())
            .unwrap();
        assert_prefix_max_matches(&g, &r, &exhaustive(&g, 12));
        assert_eq!(m.expansions, 134);
    }

    #[test]
    fn expansion_budget_aborts() {
        let g = testgen::random_graph(30, 0.1, 7);
        let limits = SearchLimits {
            max_expansions: Some(3),
            ..SearchLimits::default()
        };
        let err = ExactAlgorithm::AStar.search(&g, 10, &limits).unwrap_err();
        assert!(matches!(err, SearchError::ResourceExhausted(_)));
    }

    #[test]
    fn byte_budget_aborts_on_star_chain() {
        let g = testgen::star_chain(100);
        let limits = SearchLimits::with_max_bytes(512);
        let err = ExactAlgorithm::AStar.search(&g, 50, &limits).unwrap_err();
        assert!(matches!(err, SearchError::ResourceExhausted(_)));
    }

    #[test]
    fn metrics_are_populated() {
        let g = DiversityGraph::paper_fig1();
        let (r, m) = ExactAlgorithm::AStar
            .search(&g, 3, &SearchLimits::unlimited())
            .unwrap();
        assert_eq!(r.best().score(), s(20));
        assert!(m.expansions > 0);
        assert!(m.pushes > m.expansions / 2);
        assert_eq!(m.astar_calls, 1);
        assert!(m.peak_heap > 0);
    }
}
