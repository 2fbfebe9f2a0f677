//! The `div-search` framework (Algorithm 3, §4).
//!
//! Wraps any [`ResultSource`] (incremental or bounding) and turns its plain
//! top-k stream into an **exact diversified** top-k with early stopping:
//!
//! 1. pull results one at a time, growing the diversity graph: each
//!    arriving result is tested against every earlier one with the
//!    [`Similarity`] predicate;
//! 2. when the **necessary** condition (Lemma 3) says a stop is even
//!    possible, run `div-search-current()` (one of the exact algorithms) on
//!    the current graph;
//! 3. stop as soon as the **sufficient** condition (Lemma 1/Eq. 2) proves
//!    no unseen result can improve the answer:
//!    `score(D(S)) ≥ best(S) = max_{0≤i≤k} { score(D_i(S)) + (k−i)·u }`.
//!
//! Deviations from the paper, both on the safe side (see DESIGN.md §4):
//! the `i = 0` term (`k·u`) is included so bounding sources whose seen
//! scores all trail `u` cannot stop prematurely, and the reported unseen
//! bound is clamped to be non-increasing (Lemma 2 assumes the source
//! behaves; we do not trust it).

use crate::astar::div_astar_ledger;
use crate::cut::div_cut_ledger;
use crate::dp::div_dp_ledger;
use crate::error::SearchError;
use crate::graph::DiversityGraph;
use crate::limits::SearchLimits;
use crate::metrics::{FrameworkMetrics, SearchMetrics};
use crate::score::Score;
use crate::sim::Similarity;
use crate::solution::SearchResult;
use crate::sources::{ResultSource, Scored, UnseenBound};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Which exact algorithm implements `div-search-current()`.
///
/// All three return tables satisfying the prefix-max contract, so the
/// framework's stop conditions are sound with any of them. (The greedy
/// heuristic is deliberately *not* an option here: its table carries no
/// optimality guarantee, which would break Lemma 1's upper bound.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ExactAlgorithm {
    /// `div-astar` (Algorithm 4) on the whole graph.
    AStar,
    /// `div-dp` (Algorithm 7): per-component A\* + `⊕`.
    Dp,
    /// `div-cut` (Algorithm 8).
    #[default]
    Cut,
}

impl ExactAlgorithm {
    /// Runs the chosen algorithm on `g` under `limits`.
    pub fn search(
        &self,
        g: &DiversityGraph,
        k: usize,
        limits: &SearchLimits,
    ) -> Result<(SearchResult, SearchMetrics), SearchError> {
        let mut metrics = SearchMetrics::default();
        let mut ledger = limits.start();
        let result = match self {
            ExactAlgorithm::AStar => div_astar_ledger(g, k, &mut ledger, &mut metrics)?,
            ExactAlgorithm::Dp => div_dp_ledger(g, k, &mut ledger, &mut metrics)?,
            ExactAlgorithm::Cut => div_cut_ledger(g, k, &mut ledger, &mut metrics, 0)?,
        };
        Ok((result, metrics))
    }
}

/// Framework configuration.
#[derive(Debug, Clone)]
pub struct DivSearchConfig {
    /// How many diversified results to return (`k`).
    pub k: usize,
    /// The inner exact search.
    pub algorithm: ExactAlgorithm,
    /// Budgets applied to **each** inner `div-search-current` invocation.
    pub limits: SearchLimits,
    /// Additional throttle on top of Lemma 3: skip re-searching until the
    /// unseen bound has decayed by this relative factor since the last
    /// inner search (0.0 = paper behaviour, search whenever Lemma 3
    /// allows). The sufficient condition typically fails only because `u`
    /// is still large, so re-searching before `u` moves is wasted work;
    /// a small decay (e.g. 0.01) trades a few extra pulled results for
    /// orders of magnitude fewer inner searches at large `k`. Exactness is
    /// unaffected — stopping is only ever *delayed*.
    pub min_bound_decay: f64,
}

impl DivSearchConfig {
    /// Default configuration for a given `k` (div-cut, no budgets, gated,
    /// no bound-decay throttle — the paper's behaviour).
    pub fn new(k: usize) -> DivSearchConfig {
        DivSearchConfig {
            k,
            algorithm: ExactAlgorithm::default(),
            limits: SearchLimits::unlimited(),
            min_bound_decay: 0.0,
        }
    }

    /// Sets the bound-decay throttle (see [`DivSearchConfig::min_bound_decay`]).
    pub fn with_bound_decay(mut self, decay: f64) -> DivSearchConfig {
        assert!((0.0..1.0).contains(&decay), "decay must be in [0, 1)");
        self.min_bound_decay = decay;
        self
    }

    /// Selects the inner algorithm.
    pub fn with_algorithm(mut self, algorithm: ExactAlgorithm) -> DivSearchConfig {
        self.algorithm = algorithm;
        self
    }

    /// Sets inner-search budgets.
    pub fn with_limits(mut self, limits: SearchLimits) -> DivSearchConfig {
        self.limits = limits;
        self
    }
}

/// The outcome of a diversified top-k run.
#[derive(Debug)]
pub struct DivSearchOutput<T> {
    /// The diversified top-k results, highest score first. No two are
    /// similar; the total score is maximal among all such subsets of the
    /// *entire* result stream (seen or unseen) of size ≤ k.
    pub selected: Vec<Scored<T>>,
    /// Total score of `selected`.
    pub total_score: Score,
    /// Run statistics (results pulled, inner searches, early stop, …).
    pub metrics: FrameworkMetrics,
}

/// The `div-search` engine: a source + a similarity predicate + a config.
///
/// ```
/// use divtopk_core::prelude::*;
///
/// // A bounding source: results arrive in arbitrary order and the source
/// // reports an upper bound on unseen scores, so the engine can stop
/// // before draining the stream. Two items are similar iff same category.
/// let items = vec![
///     Scored::new(("a", 0u8), Score::new(9.0)),
///     Scored::new(("b", 0u8), Score::new(8.5)),
///     Scored::new(("c", 1u8), Score::new(7.0)),
///     Scored::new(("d", 2u8), Score::new(3.0)),
/// ];
/// let out = DivTopK::new(
///     BoundingVecSource::new(items),
///     |a: &(&str, u8), b: &(&str, u8)| a.1 == b.1,
///     DivSearchConfig::new(2),
/// )
/// .run()
/// .unwrap();
/// // One of the two category-0 near-duplicates plus "c".
/// assert_eq!(out.total_score, Score::new(16.0));
/// assert_eq!(out.selected.len(), 2);
/// ```
pub struct DivTopK<S: ResultSource, M> {
    source: S,
    similarity: M,
    config: DivSearchConfig,
}

impl<S, M> DivTopK<S, M>
where
    S: ResultSource,
    M: Similarity<S::Item>,
{
    /// Creates an engine.
    pub fn new(source: S, similarity: M, config: DivSearchConfig) -> DivTopK<S, M> {
        DivTopK {
            source,
            similarity,
            config,
        }
    }

    /// Runs Algorithm 3 to completion and returns the exact diversified
    /// top-k. Consumes the engine (selected items are moved out).
    ///
    /// `config.limits.time_budget` bounds the **whole run** (pulls,
    /// similarity checks and all inner searches together); the other
    /// budgets apply to each inner search individually.
    pub fn run(mut self) -> Result<DivSearchOutput<S::Item>, SearchError> {
        use crate::error::ExhaustedResource;
        let run_start = std::time::Instant::now();
        let total_budget = self.config.limits.time_budget;
        let k = self.config.k;
        let mut metrics = FrameworkMetrics::default();
        let mut items: Vec<Scored<S::Item>> = Vec::new();
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut scores: Vec<Score> = Vec::new();
        // Min-heap of the k largest scores seen (for Lemma 3's
        // "k-th largest score in S ≥ u" test).
        let mut topk: BinaryHeap<Reverse<Score>> = BinaryHeap::new();
        // Monotone unseen bound (clamped per Lemma 2's assumption).
        let mut unseen: Option<Score> = None; // None = unbounded
        // Snapshot from the last inner search: |S'|, max feasible size, and
        // the unseen bound at that time (for the decay throttle).
        let mut last_search_len = 0usize;
        let mut last_max_feasible = 0usize;
        let mut last_search_bound: Option<Score> = None;
        // Current D(S) in arrival-index space.
        let mut current: Option<SearchResult> = None;

        if k == 0 {
            return Ok(DivSearchOutput {
                selected: Vec::new(),
                total_score: Score::ZERO,
                metrics,
            });
        }

        loop {
            // The run-level deadline also covers the pull/similarity loop
            // (a gated stretch with no inner searches must still respect
            // the budget).
            if let Some(total) = total_budget {
                if run_start.elapsed() > total {
                    return Err(SearchError::ResourceExhausted(ExhaustedResource::Deadline));
                }
            }
            let pulled = self.source.next_result();
            let exhausted = pulled.is_none();
            if let Some(result) = pulled {
                metrics.results_generated += 1;
                let new_index = items.len() as u32;
                for (other, earlier) in items.iter().enumerate() {
                    if self.similarity.similar(&earlier.item, &result.item) {
                        edges.push((other as u32, new_index));
                    }
                }
                metrics.similarity_checks += items.len() as u64;
                scores.push(result.score);
                if topk.len() < k {
                    topk.push(Reverse(result.score));
                } else if let Some(&Reverse(smallest)) = topk.peek() {
                    if result.score > smallest {
                        topk.pop();
                        topk.push(Reverse(result.score));
                    }
                }
                items.push(result);
            }
            // Update the (clamped, monotone) unseen bound.
            if let UnseenBound::At(bound) = self.source.unseen_bound() {
                unseen = Some(match unseen {
                    Some(prev) => prev.min(bound),
                    None => bound,
                });
            }

            // necessary(): is an early stop even possible right now?
            // Always proceed when the stream ended (Lemma 3 condition 1 —
            // final search).
            let proceed = if exhausted {
                true
            } else {
                metrics.necessary_checks += 1;
                let decayed = match (last_search_bound, unseen) {
                    // LINT-ALLOW(float-eq): 0.0 is the documented
                    // sentinel for "decay gate disabled", set literally
                    // in config — an exact-representation compare, not
                    // arithmetic.
                    _ if self.config.min_bound_decay == 0.0 => true,
                    (Some(prev), Some(now)) => {
                        now.get() <= prev.get() * (1.0 - self.config.min_bound_decay)
                    }
                    _ => true,
                };
                decayed
                    && necessary_holds(
                        items.len(),
                        last_search_len,
                        last_max_feasible,
                        k,
                        &topk,
                        unseen,
                    )
            };

            // Skip a redundant final search when the stream ended right
            // after an inner search over the very same result set.
            let proceed =
                proceed && !(exhausted && current.is_some() && last_search_len == items.len());

            if proceed {
                // The run-level time budget: hand each inner search only
                // what remains of it.
                let mut limits = self.config.limits.clone();
                if let Some(total) = total_budget {
                    let remaining = total
                        .checked_sub(run_start.elapsed())
                        .ok_or(SearchError::ResourceExhausted(ExhaustedResource::Deadline))?;
                    limits.time_budget = Some(remaining);
                }
                let (graph, perm) = DiversityGraph::from_unsorted_scores(&scores, &edges);
                metrics.edges = graph.edge_count() as u64;
                // No table entry beyond the number of results seen can be
                // filled, and a caller's `k` may be arbitrarily large: size
                // the inner tables by what exists, not by what was asked.
                let (result, search_metrics) =
                    self.config
                        .algorithm
                        .search(&graph, k.min(items.len()), &limits)?;
                metrics.inner_searches += 1;
                metrics.search.absorb(&search_metrics);
                let mapped = result.map_nodes(&perm);
                last_search_len = items.len();
                last_max_feasible = mapped.max_feasible_size();
                last_search_bound = unseen;
                current = Some(mapped);

                if exhausted {
                    break;
                }
                // sufficient(): Eq. 2 with Lemma 1's bound.
                let d = current.as_ref().expect("just stored");
                if let Some(u) = unseen {
                    if d.best().score() >= best_upper_bound(d, k, u) {
                        metrics.early_stopped = true;
                        break;
                    }
                }
            } else if exhausted {
                break;
            }
        }

        // Assemble the output from the final table.
        let current = match current {
            Some(c) => c,
            None => SearchResult::empty(0), // empty stream
        };
        let mut items: Vec<Option<Scored<S::Item>>> = items.into_iter().map(Some).collect();
        let mut selected: Vec<Scored<S::Item>> = current
            .best()
            .nodes()
            .iter()
            .map(|&idx| items[idx as usize].take().expect("each node selected once"))
            .collect();
        selected.sort_by_key(|r| std::cmp::Reverse(r.score));
        let total_score = selected.iter().map(|r| r.score).sum();
        Ok(DivSearchOutput {
            selected,
            total_score,
            metrics,
        })
    }
}

/// Lemma 1 (extended with the `i = 0` term): an upper bound on the score of
/// the best diversified top-k over seen *and* unseen results.
fn best_upper_bound(d: &SearchResult, k: usize, u: Score) -> Score {
    let mut best = u.times(k); // i = 0: an entirely-unseen solution.
    for (i, sol) in d.iter() {
        best = best.max(sol.score() + u.times(k - i));
    }
    best
}

/// Lemma 3 condition 2: enough new results since the last search, and the
/// k-th largest seen score has caught up with the unseen bound.
fn necessary_holds(
    seen: usize,
    last_search_len: usize,
    last_max_feasible: usize,
    k: usize,
    topk: &BinaryHeap<Reverse<Score>>,
    unseen: Option<Score>,
) -> bool {
    let Some(u) = unseen else {
        return false; // no bound yet → cannot possibly stop.
    };
    let kth_largest = if topk.len() >= k {
        topk.peek().map(|&Reverse(s)| s).unwrap_or(Score::ZERO)
    } else {
        Score::ZERO
    };
    if kth_largest < u {
        return false;
    }
    seen >= last_search_len + k.saturating_sub(last_max_feasible)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::exhaustive;
    use crate::rng::Pcg;
    use crate::sim::ThresholdSimilarity;
    use crate::sources::{BoundingVecSource, IncrementalVecSource};

    fn s(v: u32) -> Score {
        Score::from(v)
    }

    /// Items are (id, cluster); similar iff same cluster.
    fn same_cluster(a: &(u32, u32), b: &(u32, u32)) -> bool {
        a.1 == b.1
    }

    fn make_items(seed: u64, n: usize, clusters: u32) -> Vec<Scored<(u32, u32)>> {
        let mut rng = Pcg::new(seed);
        (0..n as u32)
            .map(|i| Scored::new((i, rng.below(clusters)), Score::from(rng.range(1, 1000))))
            .collect()
    }

    /// Offline reference: build the full graph over all items and solve.
    fn offline_optimum(items: &[Scored<(u32, u32)>], k: usize) -> Score {
        let (graph, _) =
            DiversityGraph::from_items(items, |r| r.score, |a, b| same_cluster(&a.item, &b.item));
        exhaustive(&graph, k).best().score()
    }

    #[test]
    fn incremental_source_matches_offline_optimum() {
        for seed in 0..15 {
            let items = make_items(seed, 18, 5);
            let want = offline_optimum(&items, 4);
            let source = IncrementalVecSource::from_unsorted(items);
            let engine = DivTopK::new(source, same_cluster, DivSearchConfig::new(4));
            let out = engine.run().unwrap();
            assert_eq!(out.total_score, want, "seed {seed}");
            // Output really is pairwise dissimilar.
            for i in 0..out.selected.len() {
                for j in (i + 1)..out.selected.len() {
                    assert!(!same_cluster(&out.selected[i].item, &out.selected[j].item));
                }
            }
        }
    }

    #[test]
    fn bounding_source_matches_offline_optimum() {
        for seed in 20..35 {
            let items = make_items(seed, 18, 4);
            let want = offline_optimum(&items, 5);
            let source = BoundingVecSource::new(items);
            for algorithm in [
                ExactAlgorithm::AStar,
                ExactAlgorithm::Dp,
                ExactAlgorithm::Cut,
            ] {
                let config = DivSearchConfig::new(5).with_algorithm(algorithm);
                let engine = DivTopK::new(source.clone(), same_cluster, config);
                let out = engine.run().unwrap();
                assert_eq!(out.total_score, want, "seed {seed} algo {algorithm:?}");
            }
        }
    }

    #[test]
    fn early_stop_triggers_on_clustered_prefix() {
        // 3 dissimilar high scorers followed by a long tail of low scores:
        // the engine must stop long before exhausting the stream.
        let mut items = vec![
            Scored::new((0, 0), s(100)),
            Scored::new((1, 1), s(90)),
            Scored::new((2, 2), s(80)),
        ];
        for i in 3..500u32 {
            items.push(Scored::new((i, i % 3), s(10)));
        }
        let source = IncrementalVecSource::new(items);
        let engine = DivTopK::new(source, same_cluster, DivSearchConfig::new(3));
        let out = engine.run().unwrap();
        assert_eq!(out.total_score, s(270));
        assert!(out.metrics.early_stopped);
        assert!(
            out.metrics.results_generated < 50,
            "pulled {} results, expected an early stop",
            out.metrics.results_generated
        );
    }

    #[test]
    fn no_premature_stop_when_all_seen_are_similar() {
        // The first k results are all mutually similar: D(S) has one
        // element; dissimilar gold nuggets hide at lower scores. The stop
        // conditions must keep pulling until they are found.
        let mut items: Vec<Scored<(u32, u32)>> =
            (0..10u32).map(|i| Scored::new((i, 0), s(50))).collect();
        items.push(Scored::new((10, 1), s(40)));
        items.push(Scored::new((11, 2), s(30)));
        let source = IncrementalVecSource::new(items);
        let engine = DivTopK::new(source, same_cluster, DivSearchConfig::new(3));
        let out = engine.run().unwrap();
        assert_eq!(out.total_score, s(120)); // 50 + 40 + 30
    }

    #[test]
    fn necessary_gate_skips_inner_searches() {
        // DESIGN.md §6's AB3 input: 300 streamed items in 40 classes,
        // k = 10. Lemma 3's gate lets 2 inner searches run; searching
        // after every pull until the stop took 11.
        let mut rng = Pcg::new(21);
        let items: Vec<Scored<(u32, u32)>> = (0..300u32)
            .map(|i| Scored::new((i, rng.below(40)), Score::from(rng.range(1, 10_000))))
            .collect();
        // Classes are cliques: the optimum is the 10 best class maxima.
        let mut class_best = [Score::ZERO; 40];
        for r in &items {
            let best = &mut class_best[r.item.1 as usize];
            *best = (*best).max(r.score);
        }
        class_best.sort_unstable_by(|a, b| b.cmp(a));
        let want: Score = class_best[..10].iter().copied().sum();
        let out = DivTopK::new(
            IncrementalVecSource::from_unsorted(items),
            same_cluster,
            DivSearchConfig::new(10),
        )
        .run()
        .unwrap();
        assert_eq!(out.total_score, want);
        assert_eq!(out.metrics.inner_searches, 2);
    }

    #[test]
    fn bound_decay_is_sound_and_reduces_searches() {
        for seed in 0..10 {
            let items = make_items(400 + seed, 26, 5);
            let want = offline_optimum(&items, 6);
            let plain = DivTopK::new(
                IncrementalVecSource::from_unsorted(items.clone()),
                same_cluster,
                DivSearchConfig::new(6),
            )
            .run()
            .unwrap();
            let throttled = DivTopK::new(
                IncrementalVecSource::from_unsorted(items),
                same_cluster,
                DivSearchConfig::new(6).with_bound_decay(0.05),
            )
            .run()
            .unwrap();
            assert_eq!(plain.total_score, want, "seed {seed}");
            assert_eq!(throttled.total_score, want, "seed {seed} (throttled)");
            assert!(
                throttled.metrics.inner_searches <= plain.metrics.inner_searches,
                "seed {seed}: throttle increased searches"
            );
        }
    }

    #[test]
    fn empty_stream_returns_empty() {
        let source = IncrementalVecSource::new(Vec::<Scored<(u32, u32)>>::new());
        let out = DivTopK::new(source, same_cluster, DivSearchConfig::new(3))
            .run()
            .unwrap();
        assert!(out.selected.is_empty());
        assert_eq!(out.total_score, Score::ZERO);
    }

    #[test]
    fn k_zero_returns_empty() {
        let items = make_items(1, 5, 2);
        let source = IncrementalVecSource::from_unsorted(items);
        let out = DivTopK::new(source, same_cluster, DivSearchConfig::new(0))
            .run()
            .unwrap();
        assert!(out.selected.is_empty());
    }

    #[test]
    fn huge_k_costs_what_the_stream_holds() {
        // `k` far beyond the stream (a client can ask for u32::MAX): the
        // inner tables are sized by the results seen, so this neither
        // allocates `k` entries nor differs from asking for all ten.
        let run = |k: usize| {
            let source = IncrementalVecSource::from_unsorted(make_items(9, 10, 3));
            DivTopK::new(source, same_cluster, DivSearchConfig::new(k))
                .run()
                .unwrap()
        };
        let (huge, ten) = (run(usize::MAX / 2), run(10));
        assert_eq!(huge.selected, ten.selected);
        assert_eq!(huge.total_score, ten.total_score);
        assert!(!ten.selected.is_empty());
    }

    #[test]
    fn threshold_similarity_integration() {
        // Numeric items; sim = 1 - |a-b|/100, τ = 0.8 → similar iff |a-b| < 20.
        let items = vec![
            Scored::new(100.0f64, s(10)),
            Scored::new(90.0, s(9)),
            Scored::new(50.0, s(8)),
            Scored::new(10.0, s(7)),
        ];
        let sim = ThresholdSimilarity::new(|a: &f64, b: &f64| 1.0 - (a - b).abs() / 100.0, 0.8);
        let source = IncrementalVecSource::new(items);
        let out = DivTopK::new(source, sim, DivSearchConfig::new(3))
            .run()
            .unwrap();
        // 100 and 90 are similar; best is {100, 50, 10} = 25.
        assert_eq!(out.total_score, s(25));
    }

    /// A bounding source whose reported bound *rises* mid-stream
    /// (violating Lemma 2's assumption). The engine clamps the bound to be
    /// non-increasing, so the answer must stay exact.
    struct LyingSource {
        items: Vec<Scored<(u32, u32)>>,
        cursor: usize,
    }

    impl crate::sources::ResultSource for LyingSource {
        type Item = (u32, u32);

        fn next_result(&mut self) -> Option<Scored<(u32, u32)>> {
            let item = self.items.get(self.cursor).cloned();
            self.cursor += 1;
            item
        }

        fn unseen_bound(&self) -> crate::sources::UnseenBound {
            // True bound over the remainder…
            let truth = self.items[self.cursor.min(self.items.len() - 1)..]
                .iter()
                .map(|r| r.score)
                .max()
                .unwrap_or(Score::ZERO);
            // …but report a bouncing, sometimes-higher value.
            let noise = if self.cursor % 3 == 0 { 500 } else { 0 };
            crate::sources::UnseenBound::At(truth + Score::from(noise))
        }
    }

    #[test]
    fn non_monotone_bounds_are_clamped_soundly() {
        for seed in 0..10 {
            let items = make_items(700 + seed, 20, 4);
            let want = offline_optimum(&items, 5);
            let mut sorted = items.clone();
            sorted.sort_by_key(|r| std::cmp::Reverse(r.score));
            let source = LyingSource {
                items: sorted,
                cursor: 0,
            };
            let out = DivTopK::new(source, same_cluster, DivSearchConfig::new(5))
                .run()
                .unwrap();
            assert_eq!(out.total_score, want, "seed {seed}");
        }
    }

    #[test]
    fn budget_errors_propagate() {
        let items = make_items(3, 40, 2);
        let config = DivSearchConfig::new(10).with_limits(SearchLimits {
            max_expansions: Some(1),
            ..SearchLimits::default()
        });
        let source = IncrementalVecSource::from_unsorted(items);
        // Not `same_cluster`: its components are cliques, which Lemma 7
        // shrinks to one vertex each and `div-cut` then folds without an
        // A* expansion to charge. Two clusters joined across (a complete
        // bipartite graph) have no dominated vertex and no cut point.
        let across = |a: &(u32, u32), b: &(u32, u32)| a.1 != b.1;
        let result = DivTopK::new(source, across, config).run();
        assert!(matches!(result, Err(SearchError::ResourceExhausted(_))));
    }
}
