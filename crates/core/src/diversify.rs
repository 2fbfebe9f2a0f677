//! Diversification strategies — six functions over one result stream,
//! exact or heuristic.
//!
//! The paper's framework (§4) deliberately separates the *result source*
//! from the *diversity search*; this module completes that separation on
//! the strategy axis. Each strategy is one function that consumes a
//! [`ResultSource`] plus the one view of similarity it needs — the
//! thresholded predicate `sim(a, b) > τ` (possibly behind an `O(1)`
//! prefilter) or the raw value in `[0, 1]` *as far as it can matter*
//! (`value(a, b, floor)` is `Some(sim)` iff `sim > floor`), both
//! symmetric and deterministic — and returns at most `k` hits with
//! per-call metrics:
//!
//! | function | similarity view | guarantee | cost model |
//! |----------|-----------------|-----------|------------|
//! | [`exact`] | predicate (any [`Similarity`]) | exact optimum (Lemmas 1/3) | graph growth — `n(n−1)/2` tests for `n` results — plus NP-hard inner searches |
//! | [`none`] | — | plain relevance top-k (diversity off) | the pulls a top-k needs: `k` on an incremental source |
//! | [`mmr`] | value above a floor | greedy marginal-relevance ranking | `≤ k·l` sims over a top-`l` pool, lazily: only what the leader needs |
//! | [`window`] | predicate | sliding-window max-per-source spread | `O(l · clusters)` source clustering |
//! | [`disc`] | predicate | maximal independent set + coverage | `O(k·l)` sims |
//! | [`knn`] | value above a floor | greedy relevance × knn-dissimilarity | `≤ k·l` sims, lazily once every slot is full |
//!
//! Which one runs is the caller's `match` (the text layer's
//! `DiversifyMode`). `limits` budget the work underneath: for [`exact`]
//! the framework run and each inner search (`bound_decay` is that run's
//! throttle); for the other five, which run no inner search, the wall
//! clock of the pull loop — the deadline is the only budget they can
//! trip.
//!
//! Determinism is part of the contract: no seeds, no wall clock, item
//! order broken by pool position (score descending, then source arrival
//! order — which every in-repo source ties by doc id). Two runs over the
//! same stream return byte-identical selections.
//!
//! The heuristic ("rerank") strategies share a two-step shape from the
//! paper's §9 related-work family: pull the plain relevance top-`l`
//! (`l = RERANK_OVERSAMPLE · k`), then re-rank that pool. The pull is a
//! loop, not a framework run: it keeps the `k` largest scores seen and
//! stops when the `k`-th reaches the source's unseen bound — Lemma 3's
//! condition, which on a graph with no edges is Eq. 2's sufficient
//! condition as well — so it builds no diversity graph and runs no inner
//! search. They trade the exact optimum for a bounded, measured
//! optimality gap (`figures frontier` prints it) at a fraction of the
//! cost.

use crate::error::SearchError;
use crate::framework::{DivSearchConfig, DivTopK, ExactAlgorithm};
use crate::limits::SearchLimits;
use crate::metrics::FrameworkMetrics;
use crate::score::Score;
use crate::sim::Similarity;
use crate::sources::{ResultSource, Scored, UnseenBound};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

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
    /// for `exact` and `none`, the results pulled).
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
    /// Counters of the pull underneath — `exact`'s framework run, or the
    /// other strategies' plain pull loop (results pulled, stop tests,
    /// early stop; inner searches for `exact` only).
    pub framework: FrameworkMetrics,
    /// The strategy's own per-call counters.
    pub diversifier: DiversifierMetrics,
}

// -------------------------------------------------------- exact and none

/// The paper's exact diversified top-k (Lemmas 1/3 early stopping around
/// `algorithm`, one of the `div-*` searches). `above` defines the
/// diversity-graph edges: each pulled result is tested against every
/// earlier one.
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

/// Diversity off: the plain relevance top-k (score descending, arrival
/// order — doc id in every in-repo source — as tie-break), pulled by the
/// loop the rerank pools share. The baseline every quality gate compares
/// against.
pub fn none<S: ResultSource>(
    source: S,
    k: usize,
    limits: &SearchLimits,
) -> Result<DiversifyOutcome<S::Item>, SearchError> {
    let (selected, framework) = pull_plain_topk(source, k, limits)?;
    Ok(streamed(selected, framework))
}

/// The outcome of a strategy whose hits are the stream's own: the
/// candidates are the results it pulled.
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

/// A pulled relevance pool plus the metrics of the pull.
type PlainPool<T> = (Vec<Scored<T>>, FrameworkMetrics);

/// Plain relevance top-`k`, shared by [`none`] and the rerank pools: pull
/// until the `k`-th largest score seen reaches the source's unseen bound
/// (clamped non-increasing, as the framework clamps it) or the source
/// ends, then return the top `k` by (score descending, arrival
/// ascending). With no similarity there are no edges, the diversified
/// optimum *is* that top-k, and Lemma 3's condition is Eq. 2's as well —
/// so this is what the framework returns over a constant-`false`
/// predicate (`tests::plain_topk_by_framework`), without the graph and
/// the inner searches: an incremental source is pulled exactly `k` times.
///
/// In the metrics `results_generated` counts pulls, `necessary_checks`
/// stop tests, `early_stopped` whether the bound ended the pull; the
/// similarity, edge and inner-search counters stay 0. The deadline of
/// `limits`, polled before each pull, is the only budget a loop with no
/// inner search can trip.
fn pull_plain_topk<S>(
    mut source: S,
    k: usize,
    limits: &SearchLimits,
) -> Result<PlainPool<S::Item>, SearchError>
where
    S: ResultSource,
{
    let mut metrics = FrameworkMetrics::default();
    let mut items: Vec<Scored<S::Item>> = Vec::new();
    if k == 0 {
        return Ok((items, metrics));
    }
    let ledger = limits.start();
    // Min-heap of the k largest scores seen; its root is the k-th.
    let mut topk: BinaryHeap<Reverse<Score>> = BinaryHeap::new();
    let mut unseen: Option<Score> = None; // None = unbounded
    loop {
        ledger.check_deadline()?;
        let Some(result) = source.next_result() else {
            break;
        };
        metrics.results_generated += 1;
        topk.push(Reverse(result.score));
        if topk.len() > k {
            topk.pop();
        }
        items.push(result);
        if let UnseenBound::At(bound) = source.unseen_bound() {
            unseen = Some(unseen.map_or(bound, |prev| prev.min(bound)));
        }
        metrics.necessary_checks += 1;
        let held_kth = if topk.len() >= k { topk.peek() } else { None };
        if let (Some(&Reverse(kth)), Some(bound)) = (held_kth, unseen) {
            if kth >= bound {
                metrics.early_stopped = true;
                break;
            }
        }
    }
    // Stable: equal scores stay in arrival order.
    items.sort_by_key(|r| Reverse(r.score));
    items.truncate(k);
    Ok((items, metrics))
}

/// The two-step shape every rerank strategy shares: pull the plain
/// top-`l` pool, let `select` pick pool indices in ranking order, move
/// the picked entries out.
fn rerank<S: ResultSource>(
    source: S,
    k: usize,
    limits: &SearchLimits,
    select: impl FnOnce(&[Scored<S::Item>], &mut DiversifierMetrics) -> Vec<usize>,
) -> Result<DiversifyOutcome<S::Item>, SearchError> {
    let (pool, framework) = pull_plain_topk(source, rerank_pool_size(k), limits)?;
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

// --------------------------------------------------- lazy greedy, mmr

/// A candidate under the order both greedy rankings select by: utility
/// descending, then pool index ascending (better relevance rank), which
/// is what makes the rankings seed-free. NaN cannot arise (scores and
/// sims are finite), but the comparison is written to never panic on the
/// serving path regardless.
struct Leader {
    utility: f64,
    index: usize,
}

impl Ord for Leader {
    fn cmp(&self, other: &Leader) -> Ordering {
        self.utility
            .partial_cmp(&other.utility)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.index.cmp(&self.index))
    }
}

impl PartialOrd for Leader {
    fn partial_cmp(&self, other: &Leader) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Leader {
    fn eq(&self, other: &Leader) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Leader {}

/// Lazy greedy selection of up to `k` of `pool_len` candidates, returned
/// in selection order. `refresh(i, unseen)` brings candidate `i` up to
/// date against the picks it has not seen yet (`unseen`, in selection
/// order; possibly empty) and returns its utility.
///
/// Past the first `eager_rounds` picks the caller guarantees what makes
/// a stale utility an upper bound: a candidate's utility never rises as
/// picks are added. Then the best candidate under stale utilities, once
/// refreshed and *still* the best, beats every other candidate's true
/// utility under the very order an eager scan uses — so each round picks
/// what the eager scan picks, ties included, and the candidates that
/// never lead never pay for a refresh. After each of the first
/// `eager_rounds` picks every candidate is refreshed instead.
///
/// A max-heap holds the candidates: `O(l)` to build (and per eager
/// round), then `O(log l)` per pick and per refresh —
/// `O(l + (k + refreshes)·log l)` of selection work for `l` candidates,
/// never a scan of the pool per refresh.
fn lazy_greedy(
    pool_len: usize,
    k: usize,
    eager_rounds: usize,
    mut refresh: impl FnMut(usize, &[usize]) -> f64,
) -> Vec<usize> {
    let mut order: Vec<usize> = Vec::with_capacity(k.min(pool_len));
    // How many of `order` each candidate's state accounts for.
    let mut seen = vec![0usize; pool_len];
    let mut catch_up = |index: usize, order: &[usize], seen: &mut [usize]| {
        let utility = refresh(index, &order[seen[index]..]);
        seen[index] = order.len();
        Leader { utility, index }
    };
    let mut heap: BinaryHeap<Leader> = (0..pool_len)
        .map(|index| catch_up(index, &order, &mut seen))
        .collect();
    while order.len() < k {
        let Some(Leader { index, .. }) = heap.pop() else {
            break;
        };
        if seen[index] < order.len() {
            heap.push(catch_up(index, &order, &mut seen));
            continue;
        }
        order.push(index);
        if order.len() <= eager_rounds && order.len() < k {
            heap = heap
                .into_iter()
                .map(|stale| catch_up(stale.index, &order, &mut seen))
                .collect();
        }
    }
    order
}

/// The largest pool score, floored away from zero: the relevance
/// normalizer of both greedy utilities.
fn max_score<T>(pool: &[Scored<T>]) -> f64 {
    pool.iter()
        .map(|c| c.score.get())
        .fold(0.0f64, f64::max)
        .max(f64::MIN_POSITIVE)
}

/// Greedy Maximal Marginal Relevance over a top-`l` pool: repeatedly
/// pick `argmax λ·score/max_score − (1−λ)·max_sim(·, selected)`
/// (`lambda` in `[0, 1]`: 1.0 is pure relevance, 0.0 pure
/// anti-redundancy). Penalizes redundancy but never excludes it (the
/// defining contrast with [`exact`] — see the paper's §9).
///
/// `value(a, b, floor)` is `Some(sim(a, b))` iff `sim > floor`: a
/// candidate asks with the `max_sim` it already holds, so an answer that
/// could not raise it need not be computed. The greedy is lazy: `max_sim`
/// only grows, so a utility computed against an older selection is an
/// upper bound, and only the candidate that leads under such bounds is
/// brought up to date — the same picks in the same order as the eager
/// scan, with at most its `k·l − k(k+1)/2` evaluations and in practice
/// the ones the leaders of each round need. Each call counts once in
/// `sim_evaluations`.
pub fn mmr<S, V>(
    source: S,
    value: V,
    lambda: f64,
    k: usize,
    limits: &SearchLimits,
) -> Result<DiversifyOutcome<S::Item>, SearchError>
where
    S: ResultSource,
    V: Fn(&S::Item, &S::Item, f64) -> Option<f64>,
{
    rerank(source, k, limits, |pool, metrics| {
        let order = mmr_select_above(
            pool,
            |a, b, floor| {
                metrics.sim_evaluations += 1;
                value(a, b, floor)
            },
            lambda,
            k,
        );
        metrics.rotations = out_of_relevance_order(&order);
        order
    })
}

/// The MMR greedy in index space over a plain similarity value: returns
/// selected pool indices in selection order, `lambda` in `[0, 1]`.
/// Utility ties break toward the smaller pool index (better relevance
/// rank). Public so offline baselines (the `figures` harness, the
/// `baseline_comparison` example) rerank through the same function
/// [`mmr`] does.
pub fn mmr_select<T>(
    pool: &[Scored<T>],
    mut sim: impl FnMut(&T, &T) -> f64,
    lambda: f64,
    k: usize,
) -> Vec<usize> {
    let above = |a: &T, b: &T, floor: f64| {
        let s = sim(a, b);
        (s > floor).then_some(s)
    };
    mmr_select_above(pool, above, lambda, k)
}

/// [`mmr_select`] over the floor-aware view of [`mmr`] — the one MMR
/// implementation.
fn mmr_select_above<T>(
    pool: &[Scored<T>],
    mut value: impl FnMut(&T, &T, f64) -> Option<f64>,
    lambda: f64,
    k: usize,
) -> Vec<usize> {
    let max_score = max_score(pool);
    // Max similarity of each candidate to the picks it has seen.
    let mut max_sim = vec![0.0f64; pool.len()];
    lazy_greedy(pool.len(), k, 0, |i, unseen| {
        for &pick in unseen {
            if let Some(s) = value(&pool[i].item, &pool[pick].item, max_sim[i]) {
                max_sim[i] = s;
            }
        }
        lambda * pool[i].score.get() / max_score - (1.0 - lambda) * max_sim[i]
    })
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
) -> Result<DiversifyOutcome<S::Item>, SearchError>
where
    S: ResultSource,
    P: Fn(&S::Item, &S::Item) -> bool,
{
    rerank(source, k, limits, |pool, metrics| {
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
) -> Result<DiversifyOutcome<S::Item>, SearchError>
where
    S: ResultSource,
    P: Fn(&S::Item, &S::Item) -> bool,
{
    rerank(source, k, limits, |pool, metrics| {
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
///
/// `value(a, b, floor)` is `Some(sim(a, b))` iff `sim > floor` (a
/// negative floor asks unconditionally): a candidate whose `neighbors`
/// slots are full asks with the smallest similarity it keeps, which is
/// what a new one must beat to matter. The first `neighbors` rounds are
/// eager (a filling slot's mean can still fall), the rest lazy as in
/// [`mmr`]. Each call counts once in `sim_evaluations`.
pub fn knn<S, V>(
    source: S,
    value: V,
    neighbors: usize,
    k: usize,
    limits: &SearchLimits,
) -> Result<DiversifyOutcome<S::Item>, SearchError>
where
    S: ResultSource,
    V: Fn(&S::Item, &S::Item, f64) -> Option<f64>,
{
    rerank(source, k, limits, |pool, metrics| {
        let order = knn_select(
            pool,
            |a, b, floor| {
                metrics.sim_evaluations += 1;
                value(a, b, floor)
            },
            neighbors,
            k,
        );
        metrics.rotations = out_of_relevance_order(&order);
        order
    })
}

/// The KNN greedy in index space: selected pool indices in selection
/// order, utility ties toward the smaller pool index.
///
/// The mean over a slot that is still *filling* can fall when a pick is
/// added, so a stale utility bounds nothing yet: the first `neighbors`
/// rounds are eager — every remaining candidate meets every pick. From
/// then on every slot is full, a new similarity can only replace a
/// smaller one, the mean only rises and the utility only falls, which is
/// [`lazy_greedy`]'s requirement; `neighbors ≥ k` leaves every round
/// eager.
fn knn_select<T>(
    pool: &[Scored<T>],
    mut value: impl FnMut(&T, &T, f64) -> Option<f64>,
    neighbors: usize,
    k: usize,
) -> Vec<usize> {
    let neighbors = neighbors.max(1);
    let max_score = max_score(pool);
    // Per-candidate similarities to the picks it has seen, largest kept
    // sorted descending and truncated to `neighbors`.
    let mut nearest: Vec<Vec<f64>> = vec![Vec::new(); pool.len()];
    lazy_greedy(pool.len(), k, neighbors, |i, unseen| {
        let slot = &mut nearest[i];
        for &pick in unseen {
            let floor = match slot.get(neighbors - 1) {
                Some(&smallest_kept) => smallest_kept,
                None => f64::NEG_INFINITY,
            };
            if let Some(s) = value(&pool[i].item, &pool[pick].item, floor) {
                let at = slot
                    .iter()
                    .position(|&existing| s > existing)
                    .unwrap_or(slot.len());
                slot.insert(at, s);
                slot.truncate(neighbors);
            }
        }
        let dissim = if slot.is_empty() {
            1.0
        } else {
            let m = slot.iter().sum::<f64>() / slot.len() as f64;
            1.0 - m
        };
        (pool[i].score.get() / max_score) * dissim
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
    use crate::sources::{BoundingVecSource, IncrementalVecSource};
    use std::cell::Cell;

    /// Items are (id, cluster): similar iff same cluster…
    fn above(a: &(u32, u32), b: &(u32, u32)) -> bool {
        a.1 == b.1
    }

    /// …and sim = 1.0 within a cluster, 0.0 across.
    fn value(a: &(u32, u32), b: &(u32, u32)) -> f64 {
        if a.1 == b.1 { 1.0 } else { 0.0 }
    }

    /// [`value`] as the view `mmr` and `knn` take.
    fn value_above(a: &(u32, u32), b: &(u32, u32), floor: f64) -> Option<f64> {
        Some(value(a, b)).filter(|&s| s > floor)
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
        let out = none(source(&items), 5, &SearchLimits::unlimited()).unwrap();
        let want: Vec<_> = items.iter().take(5).cloned().collect();
        assert_eq!(out.selected, want);
    }

    // ------------------------------- the pull loop ≡ the framework run

    /// What [`pull_plain_topk`] replaced, kept as its reference: the §4
    /// framework over a constant-`false` predicate (an edgeless graph).
    fn plain_topk_by_framework<S: ResultSource>(source: S, k: usize) -> Vec<Scored<S::Item>> {
        let never = |_: &S::Item, _: &S::Item| false;
        DivTopK::new(source, never, DivSearchConfig::new(k))
            .run()
            .unwrap()
            .selected
    }

    /// A source that never reports a bound: only its end stops a pull.
    struct NeverBounded<T>(std::vec::IntoIter<Scored<T>>);

    impl<T> ResultSource for NeverBounded<T> {
        type Item = T;

        fn next_result(&mut self) -> Option<Scored<T>> {
            self.0.next()
        }

        fn unseen_bound(&self) -> UnseenBound {
            UnseenBound::Unbounded
        }
    }

    #[test]
    fn the_pull_loop_selects_what_the_framework_selects_without_edges() {
        let unlimited = SearchLimits::unlimited();
        for seed in 0..20 {
            // 30 results over six distinct scores: every k below has ties
            // straddling its k-th score. Ids record arrival order.
            let mut rng = Pcg::new(900 + seed);
            let shuffled: Vec<Scored<u32>> = (0..30)
                .map(|id| Scored::new(id, Score::from(rng.range(1, 6))))
                .collect();
            let mut sorted = shuffled.clone();
            sorted.sort_by_key(|r| Reverse(r.score));
            // k = 0, inside the stream, all of it, and more than it holds.
            for k in [0, 1, 5, 10, 29, 30, 35] {
                let case = format!("seed {seed} k {k}");
                let (got, metrics) =
                    pull_plain_topk(IncrementalVecSource::new(sorted.clone()), k, &unlimited)
                        .unwrap();
                let want = plain_topk_by_framework(IncrementalVecSource::new(sorted.clone()), k);
                assert_eq!(got, want, "incremental, {case}");
                // An incremental source's last score *is* the bound: the
                // k-th pull stops the loop, nothing is searched.
                assert_eq!(metrics.results_generated, k.min(30) as u64, "{case}");
                assert_eq!(metrics.early_stopped, (1..=30).contains(&k), "{case}");
                assert_eq!(
                    FrameworkMetrics {
                        results_generated: 0,
                        necessary_checks: 0,
                        early_stopped: false,
                        ..metrics
                    },
                    FrameworkMetrics::default(),
                    "{case}: a pull loop grows no graph and runs no inner search"
                );

                let (got, metrics) =
                    pull_plain_topk(BoundingVecSource::new(shuffled.clone()), k, &unlimited)
                        .unwrap();
                let want = plain_topk_by_framework(BoundingVecSource::new(shuffled.clone()), k);
                assert_eq!(got, want, "bounding, {case}");
                assert_eq!(metrics.inner_searches, 0);
                assert_eq!(metrics.necessary_checks, metrics.results_generated);

                let never = || NeverBounded(shuffled.clone().into_iter());
                let (got, metrics) = pull_plain_topk(never(), k, &unlimited).unwrap();
                assert_eq!(
                    got,
                    plain_topk_by_framework(never(), k),
                    "unbounded, {case}"
                );
                assert_eq!(metrics.results_generated, if k == 0 { 0 } else { 30 });
                assert!(!metrics.early_stopped);
            }
        }
    }

    #[test]
    fn the_deadline_is_the_only_budget_a_pull_loop_trips() {
        use crate::error::ExhaustedResource;
        let items = make_items(5, 25, 3);
        let starved = SearchLimits {
            max_heap_entries: Some(0),
            max_expansions: Some(0),
            max_bytes: Some(0),
            time_budget: None,
        };
        assert_eq!(none(source(&items), 5, &starved).unwrap().selected.len(), 5);
        // A spent time budget stops the loop before its first pull.
        let spent = SearchLimits::with_time_budget(std::time::Duration::ZERO);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let err = disc(source(&items), above, 5, &spent).unwrap_err();
        assert_eq!(
            err,
            SearchError::ResourceExhausted(ExhaustedResource::Deadline)
        );
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
        twice("none", &|| none(src(), 6, &limits).unwrap());
        twice("mmr", &|| mmr(src(), value_above, 0.7, 6, &limits).unwrap());
        twice("window", &|| {
            window(src(), above, &WindowConfig::default(), 6, &limits).unwrap()
        });
        twice("disc", &|| disc(src(), above, 6, &limits).unwrap());
        twice("knn", &|| knn(src(), value_above, 3, 6, &limits).unwrap());
    }

    // --------------------------------------- lazy greedy ≡ eager greedy

    /// The eager MMR greedy [`mmr_select`] replaced, kept as its
    /// reference: every remaining candidate meets every pick.
    fn mmr_select_eager<T>(
        pool: &[Scored<T>],
        mut sim: impl FnMut(&T, &T) -> f64,
        lambda: f64,
        k: usize,
    ) -> Vec<usize> {
        let n = pool.len();
        if n == 0 || k == 0 {
            return Vec::new();
        }
        let max_score = max_score(pool);
        let mut selected: Vec<usize> = Vec::with_capacity(k.min(n));
        let mut remaining: Vec<usize> = (0..n).collect();
        let mut max_sim = vec![0.0f64; n];
        while selected.len() < k && !remaining.is_empty() {
            let utility =
                |i: usize| lambda * pool[i].score.get() / max_score - (1.0 - lambda) * max_sim[i];
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
                let s = sim(&pool[r].item, &pool[best].item);
                if s > max_sim[r] {
                    max_sim[r] = s;
                }
            }
            selected.push(best);
        }
        selected
    }

    /// The eager KNN greedy [`knn_select`] replaced, kept as its reference.
    fn knn_select_eager<T>(
        pool: &[Scored<T>],
        mut sim: impl FnMut(&T, &T) -> f64,
        neighbors: usize,
        k: usize,
    ) -> Vec<usize> {
        let n = pool.len();
        let neighbors = neighbors.max(1);
        let mut order: Vec<usize> = Vec::with_capacity(k.min(n));
        if n == 0 || k == 0 {
            return order;
        }
        let max_score = max_score(pool);
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
                let s = sim(&pool[r].item, &pool[best].item);
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
        order
    }

    /// A symmetric pseudo-random number in `[0, 1)` per unordered pair.
    fn pair_noise(seed: u64, a: u32, b: u32) -> f64 {
        let (lo, hi) = (a.min(b) as u64, a.max(b) as u64);
        Pcg::new(seed ^ (lo << 32 | hi)).unit_f64()
    }

    /// A symmetric similarity over item ids.
    type Law = Box<dyn Fn(&u32, &u32) -> f64>;

    /// Pools of `l` items built to tie: scores drawn from three values
    /// (or all equal), and one of four similarity laws — values in
    /// {0, 0.5, 1}, a continuum, the continuum rounded to tenths, and
    /// tight clusters of five over a faint background.
    fn tying_pools(l: u32) -> Vec<(String, Vec<Scored<u32>>, Law)> {
        let mut pools = Vec::new();
        for seed in 0..6u64 {
            let laws: [(&str, Law); 4] = [
                (
                    "thirds",
                    Box::new(move |a, b| (pair_noise(seed, *a, *b) * 3.0).floor() / 2.0),
                ),
                ("continuum", Box::new(move |a, b| pair_noise(seed, *a, *b))),
                (
                    "tenths",
                    Box::new(move |a, b| (pair_noise(seed, *a, *b) * 10.0).floor() / 10.0),
                ),
                (
                    "clustered",
                    Box::new(move |a, b| {
                        let noise = pair_noise(seed, *a, *b);
                        if a % 5 == b % 5 {
                            0.9 + noise / 10.0
                        } else {
                            noise / 10.0
                        }
                    }),
                ),
            ];
            for (law, sim) in laws {
                let mut rng = Pcg::new(77 + seed);
                let distinct_scores = if seed % 2 == 0 { 1 } else { 3 };
                let mut pool: Vec<Scored<u32>> = (0..l)
                    .map(|id| Scored::new(id, Score::from(1 + rng.below(distinct_scores))))
                    .collect();
                pool.sort_by_key(|r| Reverse(r.score));
                pools.push((format!("{law}, seed {seed}"), pool, sim));
            }
        }
        pools
    }

    #[test]
    fn lazy_mmr_selects_what_the_eager_scan_selects() {
        const L: usize = 24;
        for (name, pool, sim) in tying_pools(L as u32) {
            for lambda in [0.0, 0.3, 0.7, 1.0] {
                for k in [1, L / 4, L, L + 3] {
                    let case = format!("{name}, λ {lambda}, k {k}");
                    let (lazy_calls, eager_calls) = (Cell::new(0u64), Cell::new(0u64));
                    let counted = |calls: &Cell<u64>, a: &u32, b: &u32| {
                        calls.set(calls.get() + 1);
                        sim(a, b)
                    };
                    let lazy = mmr_select(&pool, |a, b| counted(&lazy_calls, a, b), lambda, k);
                    let eager =
                        mmr_select_eager(&pool, |a, b| counted(&eager_calls, a, b), lambda, k);
                    assert_eq!(lazy, eager, "{case}");
                    assert_eq!(
                        eager_calls.get(),
                        (0..k.min(L))
                            .map(|picked| (L - 1 - picked) as u64)
                            .sum::<u64>()
                    );
                    assert!(lazy_calls.get() <= eager_calls.get(), "{case}");
                    // While picks remain (k < l) part of a clustered pool
                    // never leads, so never meets the later picks.
                    if name.starts_with("clustered") && k == L / 4 {
                        assert!(
                            lazy_calls.get() < eager_calls.get(),
                            "{case}: {} of {} evaluations",
                            lazy_calls.get(),
                            eager_calls.get()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lazy_knn_selects_what_the_eager_scan_selects() {
        const L: usize = 24;
        for (name, pool, sim) in tying_pools(L as u32) {
            for k in [1, L / 4, L, L + 3] {
                for neighbors in [1, 3, k, k + 2] {
                    let case = format!("{name}, k {k}, {neighbors} neighbors");
                    let (lazy_calls, eager_calls) = (Cell::new(0u64), Cell::new(0u64));
                    let lazy = knn_select(
                        &pool,
                        |a, b, floor| {
                            lazy_calls.set(lazy_calls.get() + 1);
                            Some(sim(a, b)).filter(|&s| s > floor)
                        },
                        neighbors,
                        k,
                    );
                    let eager = knn_select_eager(
                        &pool,
                        |a, b| {
                            eager_calls.set(eager_calls.get() + 1);
                            sim(a, b)
                        },
                        neighbors,
                        k,
                    );
                    assert_eq!(lazy, eager, "{case}");
                    assert!(lazy_calls.get() <= eager_calls.get(), "{case}");
                    if name.starts_with("clustered") && k == L / 4 && neighbors < k {
                        assert!(
                            lazy_calls.get() < eager_calls.get(),
                            "{case}: {} of {} evaluations",
                            lazy_calls.get(),
                            eager_calls.get()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn disc_selection_is_maximal_independent_set() {
        for seed in 0..10 {
            let items = make_items(100 + seed, 30, 4);
            let out = disc(source(&items), above, 3, &SearchLimits::unlimited()).unwrap();
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
        let out = knn(
            source(&items),
            value_above,
            2,
            2,
            &SearchLimits::unlimited(),
        )
        .unwrap();
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
