//! Diversification strategies — six functions over one result stream,
//! exact or heuristic.
//!
//! The paper's framework (§4) deliberately separates the *result source*
//! from the *diversity search*; this module completes that separation on
//! the strategy axis. Each strategy is one function that consumes a
//! [`ResultSource`] plus the one view of similarity it needs — the
//! thresholded predicate `sim(a, b) > τ` (possibly behind an `O(1)`
//! prefilter) or the raw value in `[0, 1]`, both symmetric and
//! deterministic — and returns at most `k` hits with per-call metrics:
//!
//! | function | similarity view | guarantee | cost model |
//! |----------|-----------------|-----------|------------|
//! | [`exact`] | predicate (any [`Similarity`]) | exact optimum (Lemmas 1/3) | graph growth — `n(n−1)/2` tests for a closure, the candidates it names for a join — plus NP-hard inner searches |
//! | [`none`] | — | plain relevance top-k (diversity off) | top-k pull only |
//! | [`mmr`] | value | greedy marginal-relevance ranking | `O(k·l)` sims over a top-`l` pool |
//! | [`window`] | predicate | sliding-window max-per-source spread | `O(l²)` source clustering |
//! | [`disc`] | predicate | maximal independent set + coverage | `O(k·l)` sims |
//! | [`knn`] | value | greedy relevance × knn-dissimilarity | `O(k·l)` sims |
//!
//! Which one runs is the caller's `match` (the text layer's
//! `DiversifyMode`); `limits` budget the framework run underneath and
//! `bound_decay` is its bound-decay throttle.
//!
//! Determinism is part of the contract: no seeds, no wall clock, item
//! order broken by pool position (score descending, then source arrival
//! order — which every in-repo source ties by doc id). Two runs over the
//! same stream return byte-identical selections.
//!
//! The heuristic ("rerank") strategies share a two-step shape from the
//! paper's §9 related-work family: pull the plain relevance top-`l`
//! (`l = RERANK_OVERSAMPLE · k`) through the same early-stopping
//! framework the exact path uses (an edgeless diversity graph — the
//! diversity-off oracle), then re-rank that pool. They trade the exact
//! optimum for a bounded, measured optimality gap (`figures frontier`
//! prints it) at a fraction of the cost: no graph to grow while the
//! stream does, and no NP-hard inner searches.

use crate::error::SearchError;
use crate::framework::{DivSearchConfig, DivTopK, ExactAlgorithm};
use crate::limits::SearchLimits;
use crate::metrics::FrameworkMetrics;
use crate::score::Score;
use crate::sim::Similarity;
use crate::sources::{ResultSource, Scored};

/// Pool oversampling factor for the rerank strategies: they fetch the
/// plain top-`RERANK_OVERSAMPLE · k` and select `k` from it. Fixed (not a
/// per-query knob) so cache keys and wire frames stay small; 4× is the
/// conventional `l > k` headroom of the two-step family.
pub const RERANK_OVERSAMPLE: usize = 4;

/// Per-call counters a strategy reports alongside its hits.
///
/// Integer-only (like [`FrameworkMetrics`]) so outcomes stay `Eq` and
/// cache hits can be asserted bit-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiversifierMetrics {
    /// Candidates materialized before selection (the rerank pool size;
    /// for `exact` and `none`, the results the framework pulled).
    pub candidates_pulled: u64,
    /// Similarity-oracle evaluations made during selection (predicate
    /// and value calls; `exact`'s graph-growth checks are counted
    /// in [`FrameworkMetrics::similarity_checks`] instead).
    pub sim_evaluations: u64,
    /// Selection-order edits: window rotations, or greedy picks that
    /// overtook a higher-relevance candidate.
    pub rotations: u64,
}

/// What a strategy returns: hits in its ranking order plus the run's
/// counters.
#[derive(Debug)]
pub struct DiversifyOutcome<T> {
    /// Selected results in the strategy's own ranking order (score
    /// descending for exact/none/disc; greedy selection order for
    /// MMR/KNN; rotated order for window).
    pub selected: Vec<Scored<T>>,
    /// Total relevance score of `selected`.
    pub total_score: Score,
    /// Counters of the underlying framework run (results pulled, inner
    /// searches, early stop).
    pub framework: FrameworkMetrics,
    /// The strategy's own per-call counters.
    pub diversifier: DiversifierMetrics,
}

// -------------------------------------------------------- exact and none

/// The paper's exact diversified top-k (Lemmas 1/3 early stopping around
/// `algorithm`, one of the `div-*` searches). `above` defines the
/// diversity-graph edges: a plain closure is tested against every
/// earlier result, a [`Similarity`] that overrides
/// [`similar_earlier`](Similarity::similar_earlier) names them itself.
pub fn exact<S, P>(
    source: S,
    above: P,
    algorithm: ExactAlgorithm,
    k: usize,
    limits: &SearchLimits,
    bound_decay: f64,
) -> Result<DiversifyOutcome<S::Item>, SearchError>
where
    S: ResultSource,
    P: Similarity<S::Item>,
{
    let config = DivSearchConfig::new(k)
        .with_algorithm(algorithm)
        .with_limits(limits.clone())
        .with_bound_decay(bound_decay);
    let out = DivTopK::new(source, above, config).run()?;
    Ok(streamed(out.selected, out.metrics))
}

/// Diversity off: an edgeless diversity graph, so the same source and
/// early-stop machinery returns the plain relevance top-k (score
/// descending, doc id as tie-break). The baseline every quality gate
/// compares against.
pub fn none<S: ResultSource>(
    source: S,
    k: usize,
    limits: &SearchLimits,
    bound_decay: f64,
) -> Result<DiversifyOutcome<S::Item>, SearchError> {
    let (selected, framework) = pull_plain_topk(source, k, limits, bound_decay)?;
    Ok(streamed(selected, framework))
}

/// The outcome of a strategy whose hits come straight out of the
/// framework: the candidates are the results it pulled.
fn streamed<T>(selected: Vec<Scored<T>>, framework: FrameworkMetrics) -> DiversifyOutcome<T> {
    DiversifyOutcome {
        total_score: selected.iter().map(|r| r.score).sum(),
        selected,
        framework,
        diversifier: DiversifierMetrics {
            candidates_pulled: framework.results_generated,
            ..DiversifierMetrics::default()
        },
    }
}

/// A pulled relevance pool plus the framework metrics of the pull.
type PlainPool<T> = (Vec<Scored<T>>, FrameworkMetrics);

/// Plain relevance top-`k` through the framework: a constant-`false`
/// predicate makes the diversity graph edgeless, so the diversified
/// optimum *is* the score-descending top-k and the Lemma 1/3 early stops
/// stay sound. Shared by [`none`] and the rerank pools.
fn pull_plain_topk<S>(
    source: S,
    k: usize,
    limits: &SearchLimits,
    bound_decay: f64,
) -> Result<PlainPool<S::Item>, SearchError>
where
    S: ResultSource,
{
    let config = DivSearchConfig::new(k)
        .with_limits(limits.clone())
        .with_bound_decay(bound_decay);
    let never = |_: &S::Item, _: &S::Item| false;
    let out = DivTopK::new(source, never, config).run()?;
    Ok((out.selected, out.metrics))
}

/// The two-step shape every rerank strategy shares: pull the plain
/// top-`l` pool, let `select` pick pool indices in ranking order, move
/// the picked entries out.
fn rerank<S: ResultSource>(
    source: S,
    k: usize,
    limits: &SearchLimits,
    bound_decay: f64,
    select: impl FnOnce(&[Scored<S::Item>], &mut DiversifierMetrics) -> Vec<usize>,
) -> Result<DiversifyOutcome<S::Item>, SearchError> {
    let (pool, framework) = pull_plain_topk(source, rerank_pool_size(k), limits, bound_decay)?;
    let mut diversifier = DiversifierMetrics {
        candidates_pulled: pool.len() as u64,
        ..DiversifierMetrics::default()
    };
    let order = select(&pool, &mut diversifier);
    let mut slots: Vec<Option<Scored<S::Item>>> = pool.into_iter().map(Some).collect();
    let selected: Vec<Scored<S::Item>> =
        order.into_iter().filter_map(|i| slots[i].take()).collect();
    Ok(DiversifyOutcome {
        total_score: selected.iter().map(|r| r.score).sum(),
        selected,
        framework,
        diversifier,
    })
}

// ----------------------------------------------------------------- mmr

/// Greedy Maximal Marginal Relevance over a top-`l` pool: repeatedly
/// pick `argmax λ·score/max_score − (1−λ)·max_sim(·, selected)`
/// (`lambda` = 1.0 is pure relevance, 0.0 pure anti-redundancy).
/// Penalizes redundancy but never excludes it (the defining contrast
/// with [`exact`] — see the paper's §9).
pub fn mmr<S, V>(
    source: S,
    value: V,
    lambda: f64,
    k: usize,
    limits: &SearchLimits,
    bound_decay: f64,
) -> Result<DiversifyOutcome<S::Item>, SearchError>
where
    S: ResultSource,
    V: Fn(&S::Item, &S::Item) -> f64,
{
    rerank(source, k, limits, bound_decay, |pool, metrics| {
        let order = mmr_select(
            pool,
            |a, b| {
                metrics.sim_evaluations += 1;
                value(a, b)
            },
            lambda,
            k,
        );
        metrics.rotations = out_of_relevance_order(&order);
        order
    })
}

/// The MMR greedy in index space: returns selected pool indices in
/// selection order. Utility ties break toward the smaller pool index
/// (better relevance rank), which is what makes the ranking seed-free.
/// Public so offline baselines (the `figures` harness, the
/// `baseline_comparison` example) rerank through this same function.
pub fn mmr_select<T>(
    pool: &[Scored<T>],
    mut sim: impl FnMut(&T, &T) -> f64,
    lambda: f64,
    k: usize,
) -> Vec<usize> {
    let n = pool.len();
    if n == 0 || k == 0 {
        return Vec::new();
    }
    let max_score = pool
        .iter()
        .map(|c| c.score.get())
        .fold(0.0f64, f64::max)
        .max(f64::MIN_POSITIVE);
    let mut selected: Vec<usize> = Vec::with_capacity(k.min(n));
    let mut remaining: Vec<usize> = (0..n).collect();
    // Max similarity of each remaining candidate to the selected set,
    // maintained incrementally.
    let mut max_sim = vec![0.0f64; n];
    while selected.len() < k && !remaining.is_empty() {
        let utility =
            |i: usize| lambda * pool[i].score.get() / max_score - (1.0 - lambda) * max_sim[i];
        let mut best_pos = 0usize;
        for pos in 1..remaining.len() {
            let (a, b) = (remaining[pos], remaining[best_pos]);
            let (ua, ub) = (utility(a), utility(b));
            // Strictly better utility wins; ties go to the smaller pool
            // index. NaN cannot arise (scores and sims are finite), but
            // the comparison is written to never panic on the serving
            // path regardless.
            if ua > ub || (ua == ub && a < b) {
                best_pos = pos;
            }
        }
        let best = remaining.swap_remove(best_pos);
        for &r in &remaining {
            let s = sim(&pool[r].item, &pool[best].item);
            if s > max_sim[r] {
                max_sim[r] = s;
            }
        }
        selected.push(best);
    }
    selected
}

// -------------------------------------------------------------- window

/// Sliding-window source-spread configuration (Snippet-1 defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowConfig {
    /// Window length in result positions (effective length is
    /// `min(window, result_count)`).
    pub window: usize,
    /// Maximum hits from one source cluster inside any window.
    pub max_per_source: usize,
    /// A rotation may only promote a candidate scoring at least this
    /// fraction of the hit it displaces.
    pub min_score_ratio: f64,
}

impl Default for WindowConfig {
    /// The conservative defaults: window 5, 2 per source, 0.5 floor.
    fn default() -> WindowConfig {
        WindowConfig {
            window: 5,
            max_per_source: 2,
            min_score_ratio: 0.5,
        }
    }
}

/// Sliding-window max-per-source spread over a top-`l` pool: start from
/// the plain top-k, then scan positions left to right and rotate in the
/// best different-source candidate whenever a window exceeds
/// `max_per_source` — but only when the candidate respects the score
/// floor (`min_score_ratio` of the hit it displaces). Conservative by
/// design: with no eligible candidate the concentration stands, and
/// within-source relative order is always preserved.
///
/// "Source" is not a stored label: candidates are clustered by `above`
/// (leader clustering in pool order), so a source is a near-duplicate
/// chain — the text-search analogue of Snippet 1's per-file grouping.
pub fn window<S, P>(
    source: S,
    above: P,
    config: &WindowConfig,
    k: usize,
    limits: &SearchLimits,
    bound_decay: f64,
) -> Result<DiversifyOutcome<S::Item>, SearchError>
where
    S: ResultSource,
    P: Fn(&S::Item, &S::Item) -> bool,
{
    rerank(source, k, limits, bound_decay, |pool, metrics| {
        let sources = assign_sources(pool, |a, b| {
            metrics.sim_evaluations += 1;
            above(a, b)
        });
        let scores: Vec<f64> = pool.iter().map(|c| c.score.get()).collect();
        let (order, rotations) = window_spread(&scores, &sources, config, k);
        metrics.rotations = rotations;
        order
    })
}

/// Leader clustering of a score-ordered pool under a similarity
/// predicate: each candidate joins the first (highest-relevance) leader
/// it is similar to, or founds a new cluster. Returns one cluster id
/// (the leader's pool index) per candidate. Deterministic; `O(l ·
/// clusters)` predicate calls. Exposed so invariant tests cluster
/// exactly the way [`window`] does.
pub fn assign_sources<T>(pool: &[Scored<T>], mut above: impl FnMut(&T, &T) -> bool) -> Vec<u32> {
    let mut sources: Vec<u32> = Vec::with_capacity(pool.len());
    let mut leaders: Vec<usize> = Vec::new();
    for (i, candidate) in pool.iter().enumerate() {
        let found = leaders
            .iter()
            .find(|&&l| above(&pool[l].item, &candidate.item))
            .copied();
        match found {
            Some(leader) => sources.push(leader as u32),
            None => {
                leaders.push(i);
                sources.push(i as u32);
            }
        }
    }
    sources
}

/// The sliding-window spread pass in index space: `scores` and `sources`
/// describe the pool in relevance order; returns the selected pool
/// indices in final ranking order plus the rotation count. Pure and
/// deterministic — exposed for direct unit/property testing.
pub fn window_spread(
    scores: &[f64],
    sources: &[u32],
    config: &WindowConfig,
    k: usize,
) -> (Vec<usize>, u64) {
    let n = scores.len();
    let take = k.min(n);
    let mut selection: Vec<usize> = (0..take).collect();
    // Remaining pool candidates, kept sorted by pool index so rotation
    // scans and re-insertions preserve within-source relative order.
    let mut remaining: Vec<usize> = (take..n).collect();
    let mut rotations = 0u64;
    if take == 0 || config.window == 0 || config.max_per_source == 0 {
        return (selection, rotations);
    }
    let window = config.window.min(take);
    for p in 0..take {
        let start = (p + 1).saturating_sub(window);
        let src = sources[selection[p]];
        let in_window = |sel: &[usize], wanted: u32| {
            sel[start..=p]
                .iter()
                .filter(|&&i| sources[i] == wanted)
                .count()
        };
        if in_window(&selection, src) <= config.max_per_source {
            continue;
        }
        let floor = config.min_score_ratio * scores[selection[p]];
        // A promotion must keep same-source hits in pool (relevance)
        // order: everything of the candidate's source before `p` must
        // have a smaller pool index, everything after a larger one.
        let order_ok = |sel: &[usize], r: usize| {
            sel.iter()
                .enumerate()
                .all(|(q, &m)| q == p || sources[m] != sources[r] || (q < p) == (m < r))
        };
        let candidate = remaining.iter().position(|&r| {
            sources[r] != src
                && scores[r] >= floor
                && in_window(&selection, sources[r]) < config.max_per_source
                && order_ok(&selection, r)
        });
        if let Some(pos) = candidate {
            let promoted = remaining.remove(pos);
            let displaced = selection[p];
            selection[p] = promoted;
            // The displaced hit goes back to the pool in index order so a
            // later window may still admit it after its own cluster thins
            // out — and same-source order can never invert.
            let ins = remaining
                .iter()
                .position(|&x| x > displaced)
                .unwrap_or(remaining.len());
            remaining.insert(ins, displaced);
            rotations += 1;
        }
        // No eligible candidate: the concentration stands (conservative).
    }
    (selection, rotations)
}

// ---------------------------------------------------------------- disc

/// DisC-style dissimilarity + coverage greedy (arXiv 1208.3533) over a
/// top-`l` pool: walk the pool in relevance order, select every
/// candidate not similar to an already-selected one, stop at `k`.
///
/// Guarantees (and the invariants the property suite pins):
/// * **dissimilarity** — selected hits are pairwise non-similar;
/// * **coverage** — when fewer than `k` hits come back, every pool
///   candidate is similar to some selected hit (the selection is a
///   maximal independent set of the pool's diversity graph).
pub fn disc<S, P>(
    source: S,
    above: P,
    k: usize,
    limits: &SearchLimits,
    bound_decay: f64,
) -> Result<DiversifyOutcome<S::Item>, SearchError>
where
    S: ResultSource,
    P: Fn(&S::Item, &S::Item) -> bool,
{
    rerank(source, k, limits, bound_decay, |pool, metrics| {
        let mut order: Vec<usize> = Vec::with_capacity(k.min(pool.len()));
        for i in 0..pool.len() {
            if order.len() >= k {
                break;
            }
            let independent = order.iter().all(|&s| {
                metrics.sim_evaluations += 1;
                !above(&pool[s].item, &pool[i].item)
            });
            if independent {
                order.push(i);
            }
        }
        order
    })
}

// ----------------------------------------------------------------- knn

/// Greedy relevance × KNN-dissimilarity (the Bradley–Smyth quality
/// family, arXiv cs/0310028) over a top-`l` pool: after seeding with the
/// top-scored candidate, repeatedly pick the candidate maximizing
/// `(score / max_score) · (1 − mean of its `neighbors` largest
/// similarities to the selected set)`. Redundancy is weighed against its
/// *nearest selected neighbors* only, so one distant outlier cannot
/// launder a near-duplicate.
pub fn knn<S, V>(
    source: S,
    value: V,
    neighbors: usize,
    k: usize,
    limits: &SearchLimits,
    bound_decay: f64,
) -> Result<DiversifyOutcome<S::Item>, SearchError>
where
    S: ResultSource,
    V: Fn(&S::Item, &S::Item) -> f64,
{
    rerank(source, k, limits, bound_decay, |pool, metrics| {
        let n = pool.len();
        let neighbors = neighbors.max(1);
        let mut order: Vec<usize> = Vec::with_capacity(k.min(n));
        if n == 0 || k == 0 {
            return order;
        }
        let max_score = pool
            .iter()
            .map(|c| c.score.get())
            .fold(0.0f64, f64::max)
            .max(f64::MIN_POSITIVE);
        // Per-candidate similarities to the selected set, largest kept
        // sorted descending and truncated to `neighbors`.
        let mut nearest: Vec<Vec<f64>> = vec![Vec::new(); n];
        let mut remaining: Vec<usize> = (0..n).collect();
        while order.len() < k && !remaining.is_empty() {
            let utility = |i: usize| {
                let dissim = if nearest[i].is_empty() {
                    1.0
                } else {
                    let m = nearest[i].iter().sum::<f64>() / nearest[i].len() as f64;
                    1.0 - m
                };
                (pool[i].score.get() / max_score) * dissim
            };
            let mut best_pos = 0usize;
            for pos in 1..remaining.len() {
                let (a, b) = (remaining[pos], remaining[best_pos]);
                let (ua, ub) = (utility(a), utility(b));
                if ua > ub || (ua == ub && a < b) {
                    best_pos = pos;
                }
            }
            let best = remaining.swap_remove(best_pos);
            for &r in &remaining {
                metrics.sim_evaluations += 1;
                let s = value(&pool[r].item, &pool[best].item);
                let slot = &mut nearest[r];
                let at = slot
                    .iter()
                    .position(|&existing| s > existing)
                    .unwrap_or(slot.len());
                slot.insert(at, s);
                slot.truncate(neighbors);
            }
            order.push(best);
        }
        metrics.rotations = out_of_relevance_order(&order);
        order
    })
}

// ------------------------------------------------------------- helpers

/// The rerank pool size for a given `k` (never below `k`).
pub fn rerank_pool_size(k: usize) -> usize {
    k.saturating_mul(RERANK_OVERSAMPLE).max(k)
}

/// How many adjacent pairs of the selection invert relevance order — the
/// "edits" counter for greedy rankings.
fn out_of_relevance_order(order: &[usize]) -> u64 {
    order.windows(2).filter(|w| w[0] > w[1]).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Pcg;
    use crate::sources::IncrementalVecSource;

    /// Items are (id, cluster): similar iff same cluster…
    fn above(a: &(u32, u32), b: &(u32, u32)) -> bool {
        a.1 == b.1
    }

    /// …and sim = 1.0 within a cluster, 0.0 across.
    fn value(a: &(u32, u32), b: &(u32, u32)) -> f64 {
        if a.1 == b.1 { 1.0 } else { 0.0 }
    }

    fn make_items(seed: u64, n: usize, clusters: u32) -> Vec<Scored<(u32, u32)>> {
        let mut rng = Pcg::new(seed);
        let mut items: Vec<Scored<(u32, u32)>> = (0..n as u32)
            .map(|i| Scored::new((i, rng.below(clusters)), Score::from(rng.range(1, 1000))))
            .collect();
        items.sort_by_key(|r| std::cmp::Reverse(r.score));
        items
    }

    fn source(items: &[Scored<(u32, u32)>]) -> IncrementalVecSource<(u32, u32)> {
        IncrementalVecSource::new(items.to_vec())
    }

    #[test]
    fn exact_leaf_matches_framework_byte_for_byte() {
        for seed in 0..10 {
            let items = make_items(seed, 30, 5);
            let limits = SearchLimits::unlimited();
            let got = exact(source(&items), above, ExactAlgorithm::Cut, 4, &limits, 0.0).unwrap();
            let want = DivTopK::new(source(&items), above, DivSearchConfig::new(4))
                .run()
                .unwrap();
            assert_eq!(got.selected, want.selected, "seed {seed}");
            assert_eq!(got.total_score, want.total_score);
            assert_eq!(got.framework, want.metrics);
        }
    }

    #[test]
    fn none_leaf_is_plain_topk() {
        let items = make_items(3, 25, 3);
        let out = none(source(&items), 5, &SearchLimits::unlimited(), 0.0).unwrap();
        let want: Vec<_> = items.iter().take(5).cloned().collect();
        assert_eq!(out.selected, want);
    }

    #[test]
    fn every_leaf_is_deterministic() {
        let items = make_items(11, 40, 4);
        let limits = SearchLimits::unlimited();
        let src = || source(&items);
        let twice = |name: &str, run: &dyn Fn() -> DiversifyOutcome<(u32, u32)>| {
            let (a, b) = (run(), run());
            assert_eq!(a.selected, b.selected, "{name}");
            assert_eq!(a.diversifier, b.diversifier, "{name}");
        };
        twice("exact", &|| {
            exact(src(), above, ExactAlgorithm::Cut, 6, &limits, 0.0).unwrap()
        });
        twice("none", &|| none(src(), 6, &limits, 0.0).unwrap());
        twice("mmr", &|| mmr(src(), value, 0.7, 6, &limits, 0.0).unwrap());
        twice("window", &|| {
            window(src(), above, &WindowConfig::default(), 6, &limits, 0.0).unwrap()
        });
        twice("disc", &|| disc(src(), above, 6, &limits, 0.0).unwrap());
        twice("knn", &|| knn(src(), value, 3, 6, &limits, 0.0).unwrap());
    }

    #[test]
    fn disc_selection_is_maximal_independent_set() {
        for seed in 0..10 {
            let items = make_items(100 + seed, 30, 4);
            let out = disc(source(&items), above, 3, &SearchLimits::unlimited(), 0.0).unwrap();
            // Pairwise dissimilar.
            for i in 0..out.selected.len() {
                for j in (i + 1)..out.selected.len() {
                    assert_ne!(out.selected[i].item.1, out.selected[j].item.1);
                }
            }
            // Coverage: short selections are maximal over the pool.
            if out.selected.len() < 3 {
                let pool_len = rerank_pool_size(3).min(items.len());
                for c in &items[..pool_len] {
                    assert!(
                        out.selected.iter().any(|s| s.item.1 == c.item.1),
                        "seed {seed}: {:?} uncovered",
                        c.item
                    );
                }
            }
        }
    }

    #[test]
    fn window_spread_caps_windows_when_alternates_exist() {
        // Pool: 4 candidates of source 0 up front, then distinct sources
        // with scores above the floor — every window must end up capped.
        let scores = vec![10.0, 9.9, 9.8, 9.7, 9.0, 8.9, 8.8, 8.7];
        let sources = vec![0, 0, 0, 0, 4, 5, 6, 7];
        let config = WindowConfig::default();
        let (sel, rotations) = window_spread(&scores, &sources, &config, 6);
        assert!(rotations > 0);
        let window = config.window.min(sel.len());
        for end in (window - 1)..sel.len() {
            let start = end + 1 - window;
            for src in sel[start..=end].iter().map(|&i| sources[i]) {
                let count = sel[start..=end]
                    .iter()
                    .filter(|&&i| sources[i] == src)
                    .count();
                assert!(
                    count <= config.max_per_source,
                    "window {start}..={end} has {count} of source {src}: {sel:?}"
                );
            }
        }
    }

    #[test]
    fn window_spread_respects_score_floor() {
        // The only alternates score below half the displaced hit — the
        // conservative pass must leave the concentration alone.
        let scores = vec![10.0, 9.9, 9.8, 9.7, 1.0, 1.0];
        let sources = vec![0, 0, 0, 0, 1, 2];
        let (sel, rotations) = window_spread(&scores, &sources, &WindowConfig::default(), 4);
        assert_eq!(sel, vec![0, 1, 2, 3]);
        assert_eq!(rotations, 0);
    }

    #[test]
    fn window_spread_leaves_diverse_rankings_alone() {
        let scores = vec![9.0, 8.0, 7.0, 6.0, 5.0];
        let sources = vec![0, 1, 2, 3, 4];
        let (sel, rotations) = window_spread(&scores, &sources, &WindowConfig::default(), 5);
        assert_eq!(sel, vec![0, 1, 2, 3, 4]);
        assert_eq!(rotations, 0);
    }

    #[test]
    fn window_preserves_within_source_order() {
        for seed in 0..20 {
            let mut rng = Pcg::new(300 + seed);
            let n = 24;
            let scores: Vec<f64> = {
                let mut s: Vec<f64> = (0..n).map(|_| rng.range(1, 1000) as f64).collect();
                s.sort_by(|a, b| b.total_cmp(a));
                s
            };
            let sources: Vec<u32> = (0..n).map(|_| rng.below(5)).collect();
            let (sel, _) = window_spread(&scores, &sources, &WindowConfig::default(), 10);
            // Same-source hits appear in pool (relevance) order.
            for src in 0..5u32 {
                let positions: Vec<usize> = sel
                    .iter()
                    .filter(|&&i| sources[i] == src)
                    .copied()
                    .collect();
                assert!(
                    positions.windows(2).all(|w| w[0] < w[1]),
                    "seed {seed} source {src}: {positions:?}"
                );
            }
        }
    }

    #[test]
    fn mmr_select_matches_relevance_when_lambda_is_one() {
        let items = make_items(7, 12, 3);
        let order = mmr_select(&items, |_, _| 1.0, 1.0, 4);
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn mmr_penalty_demotes_duplicates() {
        let pool = vec![
            Scored::new((0u32, 0u32), Score::new(10.0)),
            Scored::new((1, 0), Score::new(9.9)),
            Scored::new((2, 1), Score::new(6.0)),
        ];
        let order = mmr_select(&pool, |a, b| if a.1 == b.1 { 0.95 } else { 0.0 }, 0.5, 2);
        assert_eq!(order, vec![0, 2], "the duplicate must lose");
    }

    #[test]
    fn knn_leaf_prefers_distinct_clusters() {
        let items = vec![
            Scored::new((0u32, 0u32), Score::new(10.0)),
            Scored::new((1, 0), Score::new(9.9)),
            Scored::new((2, 1), Score::new(6.0)),
        ];
        let out = knn(source(&items), value, 2, 2, &SearchLimits::unlimited(), 0.0).unwrap();
        let ids: Vec<u32> = out.selected.iter().map(|r| r.item.0).collect();
        assert_eq!(ids, vec![0, 2]);
    }

    #[test]
    fn rerank_pool_size_never_shrinks_k() {
        assert_eq!(rerank_pool_size(0), 0);
        assert_eq!(rerank_pool_size(3), 12);
        assert!(rerank_pool_size(usize::MAX) >= usize::MAX / RERANK_OVERSAMPLE);
    }
}
