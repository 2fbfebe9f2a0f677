//! K-way merging of result sources — the sharded serving tier's core.
//!
//! A production engine partitions its corpus into `S` shards and runs one
//! top-k source per shard. [`MergedSource`] recombines them into a single
//! [`ResultSource`] that the `div-search` framework ([`crate::framework`])
//! consumes unchanged, so **every exactness guarantee (Lemmas 1–3) carries
//! over to the sharded engine for free**. The two-line soundness argument:
//!
//! 1. The union of the shards' unseen result sets *is* the merged source's
//!    unseen result set (plus any heads buffered here, which are accounted
//!    for explicitly), and
//! 2. an upper bound for a union of sets is the **max** of per-set upper
//!    bounds — so `unseen_bound() = max_i bound_i` is a valid bound, and it
//!    is monotone whenever the per-shard bounds are.
//!
//! ## The buffered-head subtlety
//!
//! A k-way merge must hold one look-ahead head per source. Pulling that head
//! moves it out of the inner source's "not yet returned" set — the shard's
//! own `unseen_bound()` **no longer covers it** (a bounding source's
//! threshold can drop below an already-emitted score). A naive
//! `max_i bound_i` is therefore *unsound* for anything buffered here; the
//! merged bound takes the max over per-source bounds **and** buffered head
//! scores. Exhausted sources are excluded entirely — their reported bound
//! (e.g. an incremental source's last emitted score) describes an empty
//! unseen set and would only loosen the merge.
//!
//! ## Two merge disciplines
//!
//! * [`MergedSource::incremental`] — for sources honoring the incremental
//!   contract (non-increasing emission). The merge emits the globally
//!   sorted sequence, so it is itself a valid incremental source and
//!   reports the classic "score of the last emitted result" bound. Merging
//!   per-shard posting-list scans this way is **behaviourally identical**
//!   to scanning the unsharded list (property-tested in `tests/engine.rs`).
//! * [`MergedSource::bounding`] — for bounding sources, whose emission
//!   order the contract leaves arbitrary. Emits the best buffered head
//!   first and reports the head-aware max bound above, clamped to be
//!   non-increasing (running min) so downstream consumers see a monotone
//!   `u` even if a shard's bound jitters. Over sources that happen to
//!   emit in score order — per-shard threshold algorithms hand out only
//!   certified results — the merge emits the global ranking, as the
//!   incremental merge does; only the bound differs.
//!
//! ## Tombstone filtering (the live-update hook)
//!
//! [`MergedSource::incremental_filtered`] / [`MergedSource::bounding_filtered`]
//! take a predicate and silently drop every merged result it rejects — the
//! segmented live-update index (DESIGN.md §9) uses this to hide tombstoned
//! (deleted) documents at read time. Filtering **never touches the bound
//! logic**: dropping a result only shrinks the unseen set, and an upper
//! bound for a set bounds every subset, so the unfiltered bound stays
//! sound verbatim. In incremental mode the last-*emitted* score is the
//! bound (skipped results do not update it), which keeps the observable
//! emission/bound sequence byte-identical to a merge over sources that
//! never contained the filtered items at all — the rebuild-equivalence
//! property the segment suite pins.
//!
//! All ties are broken by the item itself (then by source slot), which is
//! why `S::Item: Ord` is required: repeated and re-sharded runs must yield
//! identical emission orders (see DESIGN.md §8 on determinism).

use crate::score::Score;
use crate::sources::{ResultSource, Scored, UnseenBound};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A buffered head: the next result of source `slot`.
#[derive(Debug)]
struct Head<T> {
    score: Score,
    item: T,
    slot: usize,
}

impl<T: Ord> PartialEq for Head<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<T: Ord> Eq for Head<T> {}

impl<T: Ord> PartialOrd for Head<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T: Ord> Ord for Head<T> {
    /// Max-heap priority: highest score first; ties broken by **smallest**
    /// item, then smallest slot, so the pop order is deterministic and
    /// matches a globally sorted `(score desc, item asc)` sequence.
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .cmp(&other.score)
            .then_with(|| other.item.cmp(&self.item))
            .then_with(|| other.slot.cmp(&self.slot))
    }
}

/// Which bound discipline the merge uses (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MergeKind {
    Incremental,
    Bounding,
}

/// A binary-heap k-way merge of `S` result sources into one.
///
/// ```
/// use divtopk_core::merge::MergedSource;
/// use divtopk_core::prelude::*;
///
/// // Two "shards", each already sorted (incremental contract).
/// let a = IncrementalVecSource::new(vec![
///     Scored::new(10u32, Score::new(9.0)),
///     Scored::new(12, Score::new(4.0)),
/// ]);
/// let b = IncrementalVecSource::new(vec![
///     Scored::new(11u32, Score::new(7.0)),
/// ]);
/// let mut merged = MergedSource::incremental(vec![a, b]);
/// assert_eq!(merged.next_result().unwrap().item, 10);
/// assert_eq!(merged.next_result().unwrap().item, 11);
/// // The merged stream is itself incremental: bound = last emitted.
/// assert_eq!(merged.unseen_bound(), UnseenBound::At(Score::new(7.0)));
/// assert_eq!(merged.next_result().unwrap().item, 12);
/// assert!(merged.next_result().is_none());
/// ```
#[derive(Debug)]
pub struct MergedSource<S: ResultSource, F = fn(&<S as ResultSource>::Item) -> bool>
where
    S::Item: Ord,
    F: Fn(&S::Item) -> bool,
{
    sources: Vec<S>,
    /// True once `sources[i]` returned `None`; its reported bound then
    /// describes an empty set and is excluded from the merge bound.
    exhausted: Vec<bool>,
    heads: BinaryHeap<Head<S::Item>>,
    kind: MergeKind,
    /// Items this predicate rejects are dropped instead of emitted
    /// (tombstone filtering; `None` = emit everything).
    filter: Option<F>,
    /// Score of the last result this merge emitted (incremental bound).
    last_emitted: Option<Score>,
    /// Running-min clamp for the bounding discipline: the merged bound
    /// never rises, even if an inner source misbehaves (Lemma 2's
    /// assumption, enforced here rather than trusted).
    clamp: Option<Score>,
    /// Bound as of the last state change (recomputed in the constructor
    /// and after every [`MergedSource::next_result`]).
    cached_bound: UnseenBound,
}

impl<S: ResultSource> MergedSource<S>
where
    S::Item: Ord,
{
    /// Merges **incremental** sources (each must emit non-increasing
    /// scores; violations panic in debug builds). The merged emission is
    /// globally sorted `(score desc, item asc)`, and the unseen bound is
    /// the score of the last emitted result — exactly the behaviour of a
    /// single incremental source over the concatenated data.
    pub fn incremental(sources: Vec<S>) -> MergedSource<S> {
        MergedSource::with_kind(sources, MergeKind::Incremental, None)
    }

    /// Merges **bounding** sources (arbitrary emission order, explicit
    /// unseen bounds). Emits the highest-scored buffered head first and
    /// reports `max(max_i bound_i, buffered heads)` clamped non-increasing.
    pub fn bounding(sources: Vec<S>) -> MergedSource<S> {
        MergedSource::with_kind(sources, MergeKind::Bounding, None)
    }
}

impl<S: ResultSource, F> MergedSource<S, F>
where
    S::Item: Ord,
    F: Fn(&S::Item) -> bool,
{
    /// [`MergedSource::incremental`] with a tombstone filter: merged
    /// results rejected by `filter` are dropped without being emitted and
    /// **without updating the last-emitted bound**, so the observable
    /// emission/bound sequence equals that of a merge over sources that
    /// never contained the rejected items (see the module docs).
    pub fn incremental_filtered(sources: Vec<S>, filter: F) -> MergedSource<S, F> {
        MergedSource::with_kind(sources, MergeKind::Incremental, Some(filter))
    }

    /// [`MergedSource::bounding`] with a tombstone filter. Rejected
    /// results are dropped; the bound formula is unchanged (dropping a
    /// result only shrinks the unseen set, so the unfiltered bound stays
    /// sound) and still clamped non-increasing.
    pub fn bounding_filtered(sources: Vec<S>, filter: F) -> MergedSource<S, F> {
        MergedSource::with_kind(sources, MergeKind::Bounding, Some(filter))
    }

    fn with_kind(mut sources: Vec<S>, kind: MergeKind, filter: Option<F>) -> MergedSource<S, F> {
        let mut exhausted = vec![false; sources.len()];
        let mut heads = BinaryHeap::with_capacity(sources.len());
        for (slot, source) in sources.iter_mut().enumerate() {
            match source.next_result() {
                Some(r) => heads.push(Head {
                    score: r.score,
                    item: r.item,
                    slot,
                }),
                None => exhausted[slot] = true,
            }
        }
        let mut merged = MergedSource {
            sources,
            exhausted,
            heads,
            kind,
            filter,
            last_emitted: None,
            clamp: None,
            cached_bound: UnseenBound::Unbounded,
        };
        merged.recompute_bound();
        merged
    }

    fn recompute_bound(&mut self) {
        let bound = match self.kind {
            MergeKind::Incremental => match self.last_emitted {
                Some(s) => UnseenBound::At(s),
                None => UnseenBound::Unbounded,
            },
            MergeKind::Bounding => {
                // max over buffered heads and live per-source bounds; an
                // Unbounded live source makes the whole merge unbounded
                // (unless the running-min clamp already pinned a value —
                // a once-valid bound stays valid for a shrinking set).
                let mut max = Score::ZERO;
                let mut unbounded = false;
                for head in &self.heads {
                    max = max.max(head.score);
                }
                for (slot, source) in self.sources.iter().enumerate() {
                    if self.exhausted[slot] {
                        continue;
                    }
                    match source.unseen_bound() {
                        UnseenBound::At(b) => max = max.max(b),
                        UnseenBound::Unbounded => unbounded = true,
                    }
                }
                match (unbounded, self.clamp) {
                    (true, None) => UnseenBound::Unbounded,
                    (true, Some(c)) => UnseenBound::At(c),
                    (false, clamp) => {
                        let clamped = match clamp {
                            Some(c) => c.min(max),
                            None => max,
                        };
                        self.clamp = Some(clamped);
                        UnseenBound::At(clamped)
                    }
                }
            }
        };
        self.cached_bound = bound;
    }
}

impl<S: ResultSource, F> ResultSource for MergedSource<S, F>
where
    S::Item: Ord,
    F: Fn(&S::Item) -> bool,
{
    type Item = S::Item;

    fn next_result(&mut self) -> Option<Scored<S::Item>> {
        loop {
            let head = self.heads.pop()?;
            match self.sources[head.slot].next_result() {
                Some(r) => {
                    debug_assert!(
                        self.kind != MergeKind::Incremental || r.score <= head.score,
                        "incremental merge requires per-source non-increasing scores \
                         ({} after {})",
                        r.score,
                        head.score
                    );
                    self.heads.push(Head {
                        score: r.score,
                        item: r.item,
                        slot: head.slot,
                    });
                }
                None => self.exhausted[head.slot] = true,
            }
            debug_assert!(
                self.kind != MergeKind::Incremental
                    || self.last_emitted.is_none_or(|prev| head.score <= prev),
                "incremental merge emitted an increasing score"
            );
            if self.filter.as_ref().is_some_and(|keep| !keep(&head.item)) {
                // Tombstone-filtered: drop without emitting. The incremental
                // last-emitted bound must not move (the rebuilt stream never
                // saw this item); in bounding mode the dropped head no
                // longer buffers here, so the bound may legitimately
                // tighten — recompute (the running-min clamp keeps it
                // monotone either way).
                if self.kind == MergeKind::Bounding {
                    self.recompute_bound();
                }
                continue;
            }
            self.last_emitted = Some(head.score);
            self.recompute_bound();
            return Some(Scored::new(head.item, head.score));
        }
    }

    fn unseen_bound(&self) -> UnseenBound {
        self.cached_bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Pcg;
    use crate::sources::{BoundingVecSource, IncrementalVecSource};

    fn s(v: u32) -> Score {
        Score::from(v)
    }

    /// Splits `items` round-robin into `n` shards.
    fn split<T: Clone>(items: &[Scored<T>], n: usize) -> Vec<Vec<Scored<T>>> {
        let mut shards = vec![Vec::new(); n];
        for (i, item) in items.iter().enumerate() {
            shards[i % n].push(item.clone());
        }
        shards
    }

    #[test]
    fn incremental_merge_equals_global_sort_with_doc_tiebreak() {
        let mut rng = Pcg::new(42);
        for trial in 0..50 {
            let n = 1 + rng.below(40) as usize;
            let shards_n = 1 + rng.below(6) as usize;
            // Deliberately collide scores so ties are exercised.
            let mut items: Vec<Scored<u32>> = (0..n as u32)
                .map(|id| Scored::new(id, Score::from(rng.below(8))))
                .collect();
            items.sort_by(|a, b| b.score.cmp(&a.score).then(a.item.cmp(&b.item)));
            let sources: Vec<IncrementalVecSource<u32>> = split(&items, shards_n)
                .into_iter()
                .map(IncrementalVecSource::new)
                .collect();
            let mut merged = MergedSource::incremental(sources);
            let mut got = Vec::new();
            let mut last_bound = None;
            while let Some(r) = merged.next_result() {
                // Incremental bound: exactly the last emitted score.
                assert_eq!(merged.unseen_bound(), UnseenBound::At(r.score));
                if let Some(prev) = last_bound {
                    assert!(r.score <= prev, "trial {trial}: emission not sorted");
                }
                last_bound = Some(r.score);
                got.push(r);
            }
            assert_eq!(got, items, "trial {trial}: merged order != global order");
        }
    }

    #[test]
    fn bounding_merge_bound_is_sound_and_monotone() {
        let mut rng = Pcg::new(7);
        for trial in 0..50 {
            let n = 1 + rng.below(30) as usize;
            let shards_n = 1 + rng.below(5) as usize;
            let items: Vec<Scored<u32>> = (0..n as u32)
                .map(|id| Scored::new(id, Score::from(rng.below(1000))))
                .collect();
            let sources: Vec<BoundingVecSource<u32>> = split(&items, shards_n)
                .into_iter()
                .map(BoundingVecSource::new)
                .collect();
            let mut merged = MergedSource::bounding(sources);
            let mut emitted: Vec<Scored<u32>> = Vec::new();
            let mut prev_bound = f64::INFINITY;
            loop {
                let UnseenBound::At(bound) = merged.unseen_bound() else {
                    panic!("bounding merge must always report a bound");
                };
                assert!(
                    bound.get() <= prev_bound,
                    "trial {trial}: bound rose {prev_bound} -> {bound}"
                );
                prev_bound = bound.get();
                // Soundness: the bound covers every not-yet-returned item.
                let returned: std::collections::BTreeSet<u32> =
                    emitted.iter().map(|r| r.item).collect();
                for it in &items {
                    if !returned.contains(&it.item) {
                        assert!(
                            it.score <= bound,
                            "trial {trial}: unseen item {} (score {}) above bound {bound}",
                            it.item,
                            it.score
                        );
                    }
                }
                match merged.next_result() {
                    Some(r) => emitted.push(r),
                    None => break,
                }
            }
            assert_eq!(emitted.len(), items.len());
        }
    }

    #[test]
    fn exhausted_sources_stop_loosening_the_bound() {
        // Shard A emits one high result then exhausts; its incremental
        // bound stays at 9 forever. A sound-but-naive max over per-source
        // bounds would be pinned at 9; excluding exhausted sources lets the
        // merged bound keep tracking the live shard.
        let a = IncrementalVecSource::new(vec![Scored::new(0u32, s(9))]);
        let b = IncrementalVecSource::new(vec![
            Scored::new(1u32, s(5)),
            Scored::new(2, s(3)),
            Scored::new(3, s(1)),
        ]);
        let mut merged = MergedSource::bounding(vec![a, b]);
        assert_eq!(merged.next_result().unwrap().item, 0);
        // A is exhausted; bound must fall to B's remainder, not stick at 9.
        assert_eq!(merged.next_result().unwrap().item, 1);
        let UnseenBound::At(bound) = merged.unseen_bound() else {
            panic!("bounded");
        };
        assert!(
            bound <= s(3),
            "bound {bound} still pinned by exhausted shard"
        );
    }

    #[test]
    fn ties_pop_smallest_item_first() {
        let a = IncrementalVecSource::new(vec![Scored::new(7u32, s(5)), Scored::new(9, s(5))]);
        let b = IncrementalVecSource::new(vec![Scored::new(2u32, s(5)), Scored::new(8, s(5))]);
        let mut merged = MergedSource::incremental(vec![a, b]);
        let order: Vec<u32> = std::iter::from_fn(|| merged.next_result())
            .map(|r| r.item)
            .collect();
        assert_eq!(order, vec![2, 7, 8, 9]);
    }

    #[test]
    fn empty_and_single_source_edge_cases() {
        let mut empty: MergedSource<IncrementalVecSource<u32>> =
            MergedSource::incremental(Vec::new());
        assert!(empty.next_result().is_none());
        assert!(
            empty.next_result().is_none(),
            "an exhausted merge stays exhausted"
        );

        let mut empty_bounding: MergedSource<BoundingVecSource<u32>> =
            MergedSource::bounding(Vec::new());
        assert_eq!(empty_bounding.unseen_bound(), UnseenBound::At(Score::ZERO));
        assert!(empty_bounding.next_result().is_none());

        // A single-source merge is a transparent wrapper (same emission).
        let items = vec![Scored::new(1u32, s(8)), Scored::new(2, s(4))];
        let mut single = MergedSource::incremental(vec![IncrementalVecSource::new(items.clone())]);
        let got: Vec<Scored<u32>> = std::iter::from_fn(|| single.next_result()).collect();
        assert_eq!(got, items);
    }

    /// Filtered incremental merges behave exactly like a merge over
    /// sources that never contained the filtered items: same emission,
    /// same observable bound after each emission.
    #[test]
    fn filtered_incremental_merge_equals_merge_of_survivors() {
        let mut rng = Pcg::new(23);
        for trial in 0..50 {
            let n = 1 + rng.below(40) as usize;
            let shards_n = 1 + rng.below(5) as usize;
            let mut items: Vec<Scored<u32>> = (0..n as u32)
                .map(|id| Scored::new(id, Score::from(rng.below(9))))
                .collect();
            items.sort_by(|a, b| b.score.cmp(&a.score).then(a.item.cmp(&b.item)));
            // Tombstone roughly a third of the items.
            let dead: std::collections::BTreeSet<u32> =
                (0..n as u32).filter(|_| rng.chance(0.35)).collect();
            let survivors: Vec<Scored<u32>> = items
                .iter()
                .filter(|r| !dead.contains(&r.item))
                .cloned()
                .collect();
            let full_sources: Vec<IncrementalVecSource<u32>> = split(&items, shards_n)
                .into_iter()
                .map(IncrementalVecSource::new)
                .collect();
            let survivor_sources: Vec<IncrementalVecSource<u32>> = split(&survivors, shards_n)
                .into_iter()
                .map(IncrementalVecSource::new)
                .collect();
            let mut filtered =
                MergedSource::incremental_filtered(full_sources, |item: &u32| !dead.contains(item));
            let mut clean = MergedSource::incremental(survivor_sources);
            loop {
                let a = filtered.next_result();
                let b = clean.next_result();
                assert_eq!(a, b, "trial {trial}: emission diverged");
                // The *observable* bound sequence must agree too — that is
                // what makes the framework run byte-identical.
                assert_eq!(
                    filtered.unseen_bound(),
                    clean.unseen_bound(),
                    "trial {trial}: bound diverged"
                );
                if a.is_none() {
                    break;
                }
            }
        }
    }

    /// Filtered bounding merges stay sound (every live unseen item is
    /// covered) and monotone, even when the filtered item carried the
    /// highest buffered head.
    #[test]
    fn filtered_bounding_merge_is_sound_and_monotone() {
        let mut rng = Pcg::new(77);
        for trial in 0..50 {
            let n = 1 + rng.below(30) as usize;
            let shards_n = 1 + rng.below(4) as usize;
            let items: Vec<Scored<u32>> = (0..n as u32)
                .map(|id| Scored::new(id, Score::from(rng.below(1000))))
                .collect();
            // Always tombstone the single highest-scored item (the
            // bound-carrying head) plus a random sprinkle.
            let top = items.iter().max().unwrap().item;
            let dead: std::collections::BTreeSet<u32> = items
                .iter()
                .map(|r| r.item)
                .filter(|&id| id == top || rng.chance(0.25))
                .collect();
            let sources: Vec<BoundingVecSource<u32>> = split(&items, shards_n)
                .into_iter()
                .map(BoundingVecSource::new)
                .collect();
            let mut merged =
                MergedSource::bounding_filtered(sources, |item: &u32| !dead.contains(item));
            let mut emitted: std::collections::BTreeSet<u32> = Default::default();
            let mut prev_bound = f64::INFINITY;
            loop {
                let UnseenBound::At(bound) = merged.unseen_bound() else {
                    panic!("bounding merge must always report a bound");
                };
                assert!(
                    bound.get() <= prev_bound,
                    "trial {trial}: bound rose {prev_bound} -> {bound}"
                );
                prev_bound = bound.get();
                for it in &items {
                    if !dead.contains(&it.item) && !emitted.contains(&it.item) {
                        assert!(
                            it.score <= bound,
                            "trial {trial}: live unseen item {} above bound {bound}",
                            it.item
                        );
                    }
                }
                match merged.next_result() {
                    Some(r) => {
                        assert!(
                            !dead.contains(&r.item),
                            "trial {trial}: emitted a tombstone"
                        );
                        emitted.insert(r.item);
                    }
                    None => break,
                }
            }
            let live = items.iter().filter(|r| !dead.contains(&r.item)).count();
            assert_eq!(emitted.len(), live, "trial {trial}: lost live items");
        }
    }

    /// A filter that rejects everything yields an empty, well-behaved
    /// stream (the all-documents-deleted edge case).
    #[test]
    fn filter_rejecting_everything_yields_empty_stream() {
        let a = IncrementalVecSource::new(vec![Scored::new(0u32, s(9)), Scored::new(1, s(4))]);
        let mut merged = MergedSource::incremental_filtered(vec![a], |_: &u32| false);
        assert_eq!(merged.unseen_bound(), UnseenBound::Unbounded);
        assert!(merged.next_result().is_none());
        assert!(
            merged.next_result().is_none(),
            "an exhausted merge stays exhausted"
        );
        // Never emitted anything → the incremental bound never materialized,
        // exactly like a scan over an empty posting list.
        assert_eq!(merged.unseen_bound(), UnseenBound::Unbounded);
    }

    /// The merged source is consumed by the framework unchanged and yields
    /// the exact diversified optimum of the union of shards.
    #[test]
    fn framework_over_merged_shards_is_exact() {
        use crate::framework::{DivSearchConfig, DivTopK};
        use crate::graph::DiversityGraph;

        fn same_cluster(a: &(u32, u32), b: &(u32, u32)) -> bool {
            a.1 == b.1
        }
        let mut rng = Pcg::new(11);
        for trial in 0..20 {
            let items: Vec<Scored<(u32, u32)>> = (0..24u32)
                .map(|i| Scored::new((i, rng.below(5)), Score::from(rng.range(1, 500))))
                .collect();
            let (graph, _) = DiversityGraph::from_items(
                &items,
                |r| r.score,
                |a, b| same_cluster(&a.item, &b.item),
            );
            let want = crate::exhaustive::exhaustive(&graph, 4).best().score();
            for shards_n in [1usize, 2, 3, 4] {
                let sources: Vec<BoundingVecSource<(u32, u32)>> = split(&items, shards_n)
                    .into_iter()
                    .map(BoundingVecSource::new)
                    .collect();
                let merged = MergedSource::bounding(sources);
                let out = DivTopK::new(merged, same_cluster, DivSearchConfig::new(4))
                    .run()
                    .unwrap();
                assert_eq!(out.total_score, want, "trial {trial} shards {shards_n}");
            }
        }
    }
}
