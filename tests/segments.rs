//! Rebuild-equivalence property suite for the segmented live-update index
//! (`divtopk_text::segments`, DESIGN.md §9): after *any* interleaving of
//! `add_docs` / `delete_docs` / `compact`, the segmented read path serves
//! what a from-scratch `InvertedIndex::build` of the surviving documents
//! (under the same frozen statistics epoch) would serve — scans bit for
//! bit, TA queries exactly (`tests/support`'s oracle). The merged TA
//! ranking and the bounds around a tombstoned segment head are pinned
//! here too.

mod support;

use divtopk::core::{MergedSource, ResultSource, UnseenBound};
use divtopk::engine::Query;
use divtopk::text::prelude::*;
use divtopk::text::tfidf;
use support::{
    Coverage, Queries, Rebuild, Script, assert_matches_rebuild, fixture, interesting_terms,
};

/// Drains a source into its `(doc, score bits)` emission sequence.
fn ranking<S: ResultSource<Item = DocId>>(mut source: S) -> Vec<(DocId, u64)> {
    std::iter::from_fn(|| source.next_result())
        .map(|r| (r.item, r.score.get().to_bits()))
        .collect()
}

/// The satellite-1 property: random interleavings of adds, deletes, and
/// compactions, checked after every mutation against the from-scratch
/// rebuild, for scan and TA sources, k ∈ {1, 5, 10, 40}. TA hands out
/// only certified results, so its pull ends near k; k = 40 is the request
/// that takes it past 48 results.
#[test]
fn random_interleavings_serve_exactly_the_rebuilt_index() {
    let mut coverage = Coverage::default();
    for seed in [3u64, 5, 8] {
        let (base, pool) = fixture(seed, 130, 70);
        let terms = interesting_terms(&base, 3);
        assert!(terms.len() >= 2, "seed {seed}: not enough usable terms");
        let queries = Queries::over(&terms, &[1, 5, 10, 40], 0.5);
        let script = Script::random(seed, base.num_docs(), pool, 14, false);
        let mut seg = SegmentedIndex::build(base.clone());
        let case = format!("seed {seed}");
        script.run(&mut seg, SegmentedIndex::build(base), None, |seg, model| {
            coverage += assert_matches_rebuild(seg, &Rebuild::of(model), &queries, &case);
        });
    }
    assert!(
        coverage.ta_identical >= 20,
        "too few unique-optimum TA cases exercised ({})",
        coverage.ta_identical
    );
    // Some compared query must grow a long graph on both layouts, or this
    // suite no longer holds long pulls to the rebuilt index.
    assert!(
        coverage.longest_pull > 48,
        "no compared query pulled past 48 results (longest: {})",
        coverage.longest_pull
    );
}

/// Certified TA emission through the segmented read path: after random
/// adds, deletes and compactions over a base of S ∈ {1, 2, 4, 8}
/// segments, the tombstone-filtered bounding merge of the per-segment TA
/// sources emits the ranking one `TaSource` over the rebuilt index emits —
/// the same score bits in the same order, and the same documents at each
/// score. Only the order among bit-equal scores is exempt.
#[test]
fn merged_ta_emits_the_rebuilt_ranking_on_every_layout() {
    let mut compared = 0usize;
    for parts in [1usize, 2, 4, 8] {
        let (base, pool) = fixture(40 + parts as u64, 130, 70);
        let terms = interesting_terms(&base, 4);
        assert!(terms.len() >= 4, "S {parts}: not enough usable terms");
        let queries: Vec<KeywordQuery> = [[0, 1], [2, 3], [0, 3]]
            .iter()
            .map(|pair| KeywordQuery {
                terms: pair.iter().map(|&i| terms[i]).collect(),
            })
            .collect();
        let script = Script::random(parts as u64, base.num_docs(), pool, 12, false);
        let mut seg = SegmentedIndex::build_partitioned(base.clone(), parts);
        script.run(&mut seg, SegmentedIndex::build(base), None, |seg, model| {
            let rebuilt = model.rebuilt_index();
            for query in &queries {
                let got = ranking(MergedSource::bounding_filtered(
                    seg.ta_sources(query),
                    |d: &DocId| seg.is_live(*d),
                ));
                let want = ranking(TaSource::new(model.corpus(), &rebuilt, &query.terms));
                compared += 1;
                let case = format!("S {parts} query {:?}", query.terms);
                let bits = |v: &[(DocId, u64)]| v.iter().map(|&(_, b)| b).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&want), "{case}: score sequence");
                let by_score = |v: &[(DocId, u64)]| {
                    let mut v = v.to_vec();
                    v.sort_unstable_by_key(|&(d, b)| (std::cmp::Reverse(b), d));
                    v
                };
                assert_eq!(
                    by_score(&got),
                    by_score(&want),
                    "{case}: documents per score"
                );
            }
        });
    }
    assert_eq!(compared, 4 * 12 * 3);
}

/// Builds the satellite-3 fixture: two segments where the *added* segment's
/// head (its highest-partial posting for `heavy`, which also carries the
/// merged TA threshold) is then tombstoned.
fn bound_head_fixture() -> (SegmentedIndex, TermId, TermId, DocId) {
    let mut b = Corpus::builder();
    // Base epoch: moderate "heavy" docs plus filler that keeps idf > 0.
    b.add_text("b0", "heavy cargo manifest");
    b.add_text("b1", "heavy freight schedule");
    b.add_text("b2", "heavy lift crane rental");
    b.add_text("b3", "rare heavy anomaly");
    for i in 0..8 {
        b.add_text(&format!("f{i}"), "unrelated filler text entirely");
    }
    let mut seg = SegmentedIndex::build(b.build());
    let heavy = seg.corpus().term_id("heavy").unwrap();
    let rare = seg.corpus().term_id("rare").unwrap();
    // Added segment: its head doc repeats "heavy" so it tops *every* list
    // it appears in — the bound-carrying head of segment 2.
    let head = seg.add_text("head", "heavy heavy heavy heavy rare");
    seg.add_text("tail1", "heavy ballast");
    seg.add_text("tail2", "rare heavy sample");
    // Sanity: the added doc really is the global top for `heavy`.
    let rebuilt = seg.rebuilt_index();
    assert_eq!(rebuilt.postings(heavy).get(0).unwrap().doc, head);
    seg.delete_docs(&[head]);
    (seg, heavy, rare, head)
}

/// Satellite 3 (scan half): deleting the bound-carrying head of one
/// segment leaves the merged scan's reported bounds monotone
/// non-increasing and the framework run byte-identical to the rebuilt
/// oracle (same early-termination point).
#[test]
fn tombstoned_bound_head_keeps_scan_bounds_monotone_and_oracle_exact() {
    let (seg, heavy, _, head) = bound_head_fixture();
    // Manual pull: bounds must never rise, and the tombstone never emits.
    let mut merged =
        MergedSource::incremental_filtered(seg.scan_sources(heavy), |d: &DocId| seg.is_live(*d));
    let mut prev = f64::INFINITY;
    let mut emitted = 0;
    while let Some(r) = merged.next_result() {
        assert_ne!(r.item, head, "tombstoned head emitted");
        let UnseenBound::At(b) = merged.unseen_bound() else {
            panic!("bound must be known after an emission");
        };
        assert!(
            b.get() <= prev,
            "bound rose {prev} -> {} after doc {}",
            b.get(),
            r.item
        );
        assert!(r.score.get() <= prev, "emitted above the previous bound");
        prev = b.get();
        emitted += 1;
    }
    assert!(emitted >= 5, "fixture lost its live postings");
    // Early termination matches the oracle exactly (metrics included).
    let queries = Queries::new(vec![heavy], vec![], &[(2, 0.3), (3, 0.9)]);
    assert_matches_rebuild(&seg, &Rebuild::of(&seg), &queries, "bound head");
}

/// Satellite 3 (TA half): with the threshold-carrying head tombstoned,
/// the merged bounding source stays monotone and covers every live unseen
/// doc, and the framework still finds the exact live optimum.
#[test]
fn tombstoned_bound_head_keeps_ta_bounds_monotone_and_exact() {
    let (seg, heavy, rare, head) = bound_head_fixture();
    let query = KeywordQuery {
        terms: vec![heavy, rare],
    };
    // Live reference scores from the rebuild oracle.
    let rebuilt = seg.rebuilt_index();
    use std::collections::BTreeMap;
    let mut live_scores: BTreeMap<DocId, f64> = BTreeMap::new();
    for &t in &query.terms {
        for p in rebuilt.postings(t) {
            live_scores
                .entry(p.doc)
                .or_insert_with(|| tfidf::score(seg.corpus(), &query.terms, p.doc).get());
        }
    }
    let mut merged =
        MergedSource::bounding_filtered(seg.ta_sources(&query), |d: &DocId| seg.is_live(*d));
    let mut prev = f64::INFINITY;
    let mut returned: Vec<DocId> = Vec::new();
    loop {
        let UnseenBound::At(b) = merged.unseen_bound() else {
            panic!("bounding merge must always report a bound");
        };
        assert!(b.get() <= prev, "bound rose {prev} -> {}", b.get());
        prev = b.get();
        // Soundness over the live set despite the deleted head.
        for (&doc, &score) in &live_scores {
            if !returned.contains(&doc) {
                assert!(
                    score <= b.get() + 1e-9,
                    "live unseen doc {doc} (score {score}) above bound {b}"
                );
            }
        }
        match merged.next_result() {
            Some(r) => {
                assert_ne!(r.item, head, "tombstoned head emitted");
                returned.push(r.item);
            }
            None => break,
        }
    }
    assert_eq!(returned.len(), live_scores.len(), "live docs lost");
    // Exactness end to end, hits identical (fixture scores are distinct).
    let queries = Queries::new(vec![], vec![query.clone()], &[(3, 0.5)]);
    let rebuild = Rebuild::of(&seg);
    assert_matches_rebuild(&seg, &rebuild, &queries, "bound head");
    let options = SearchOptions::new(3).with_tau(0.5);
    let want = rebuild.search(&Query::Keywords(query.clone()), &options);
    assert_eq!(want.hits, seg.search_ta(&query, &options).unwrap().hits);
}

/// Compaction in the middle of a mutation stream preserves equivalence
/// even when it purges the majority of a segment.
#[test]
fn compaction_after_heavy_deletion_stays_equivalent() {
    let (base, pool) = fixture(21, 100, 40);
    let terms = interesting_terms(&base, 2);
    let mut seg = SegmentedIndex::build(base);
    // Several small segments…
    for chunk in pool.chunks(8) {
        seg.add_docs(chunk.to_vec());
    }
    // …then delete most of the added docs and compact repeatedly.
    let victims: Vec<DocId> = (100..132u32).collect();
    seg.delete_docs(&victims);
    while seg.compact() > 0 {}
    let queries = Queries::over(&terms, &[1, 5, 10], 0.4);
    assert_matches_rebuild(&seg, &Rebuild::of(&seg), &queries, "heavy deletion");
}

/// Deleting every matching document serves the empty answer, exactly like
/// a rebuild with those documents gone.
#[test]
fn deleting_every_match_yields_the_rebuilt_empty_answer() {
    let (base, _) = fixture(31, 80, 0);
    let term = interesting_terms(&base, 1)[0];
    let mut seg = SegmentedIndex::build(base);
    let victims: Vec<DocId> = seg
        .rebuilt_index()
        .postings(term)
        .iter()
        .map(|p| p.doc)
        .collect();
    assert!(!victims.is_empty());
    seg.delete_docs(&victims);
    assert!(seg.rebuilt_index().postings(term).is_empty());
    let queries = Queries::new(vec![term], vec![], &[(5, 0.5)]);
    assert_matches_rebuild(&seg, &Rebuild::of(&seg), &queries, "every match deleted");
    let options = SearchOptions::new(5).with_tau(0.5);
    assert!(seg.search_scan(term, &options).unwrap().hits.is_empty());
}
