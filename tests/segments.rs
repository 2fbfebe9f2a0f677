//! Rebuild-equivalence property suite for the segmented live-update index
//! (`divtopk_text::segments`, DESIGN.md §9).
//!
//! The load-bearing claim of the live-update path is **rebuild
//! equivalence**: after *any* interleaving of `add_docs` / `delete_docs` /
//! `compact`, the segmented read path serves exactly what a from-scratch
//! `InvertedIndex::build` of the surviving documents (under the same
//! frozen statistics epoch) would serve.
//!
//! * For **scan** (single-keyword, incremental) queries the guarantee is
//!   structural and total: the tombstone-filtered merge of per-segment
//!   scans emits the exact rebuilt posting order with the exact rebuilt
//!   bound sequence, so the whole framework run — hits, total score, *and
//!   every metric counter, including the early-stop point* — is
//!   bit-for-bit identical.
//! * For **TA** (multi-keyword, bounding) queries every per-segment source
//!   emits only certified results, in score order, so the filtered merge
//!   emits the rebuilt TA's ranking (pinned here up to the order of
//!   bit-equal scores). The merged bound trajectory, and with it the stop
//!   point, legitimately differs from the rebuilt single TA (same as the
//!   shard axis, DESIGN.md §8), so the search guarantee is exactness:
//!   equal total score, valid pairwise-dissimilar live hits — and
//!   identical hit *lists* whenever the optimum is unique, which the
//!   distinct-score check makes the common case.

use divtopk::core::rng::Pcg;
use divtopk::core::{MergedSource, ResultSource, UnseenBound};
use divtopk::text::prelude::*;
use divtopk::text::tfidf;

/// Generates a donor corpus and splits it: the first `base` docs become
/// the frozen-statistics base epoch, the rest form the add-pool (same
/// synthetic vocabulary, so every pooled doc is valid under the epoch).
fn base_and_pool(seed: u64, base: usize, extra: usize) -> (Corpus, Vec<Document>) {
    let donor = generate(&SynthConfig {
        num_docs: base + extra,
        near_dup_prob: 0.35, // plenty of near-duplicate structure
        ..SynthConfig::tiny().with_seed(seed)
    });
    let mut builder = CorpusBuilder::with_synthetic_vocab(donor.num_terms());
    for d in 0..base as DocId {
        builder.add_document(donor.doc(d).clone());
    }
    let pool = (base..base + extra)
        .map(|d| donor.doc(d as DocId).clone())
        .collect();
    (builder.build(), pool)
}

/// Busy-but-tractable query terms under the frozen epoch.
fn interesting_terms(corpus: &Corpus, count: usize) -> Vec<TermId> {
    let mut terms: Vec<TermId> = (0..corpus.num_terms() as TermId)
        .filter(|&t| (6..=60).contains(&corpus.doc_freq(t)))
        .collect();
    terms.sort_by_key(|&t| std::cmp::Reverse(corpus.doc_freq(t)));
    terms.truncate(count);
    terms
}

/// One random mutation: an add from `pool` (half the time, while it
/// lasts), a delete of up to six random docs, or a compaction.
fn random_mutation(seg: &mut SegmentedIndex, pool: &mut Vec<Document>, rng: &mut Pcg) {
    match rng.below(4) {
        0 | 1 if !pool.is_empty() => {
            let take = (1 + rng.below(10) as usize).min(pool.len());
            let batch: Vec<Document> = pool.drain(..take).collect();
            seg.add_docs(batch);
        }
        2 => {
            let n = seg.num_docs() as u32;
            let victims: Vec<DocId> = (0..1 + rng.below(6)).map(|_| rng.below(n)).collect();
            seg.delete_docs(&victims);
        }
        _ => {
            seg.compact();
        }
    }
}

/// Drains a source into its `(doc, score bits)` emission sequence.
fn ranking<S: ResultSource<Item = DocId>>(mut source: S) -> Vec<(DocId, u64)> {
    std::iter::from_fn(|| source.next_result())
        .map(|r| (r.item, r.score.get().to_bits()))
        .collect()
}

/// True when every selected hit's score is unique among all matched live
/// docs (⇒ the optimum set is unique; see `tests/engine.rs`).
fn hits_have_unique_scores(
    corpus: &Corpus,
    index: &InvertedIndex,
    terms: &[TermId],
    hits: &[Hit],
) -> bool {
    use std::collections::BTreeSet;
    let mut docs: BTreeSet<DocId> = BTreeSet::new();
    for &t in terms {
        docs.extend(index.postings(t).iter().map(|p| p.doc));
    }
    let matched: Vec<f64> = docs
        .iter()
        .map(|&d| tfidf::score(corpus, terms, d).get())
        .collect();
    hits.iter().all(|h| {
        let s = h.score.get();
        let near = matched
            .iter()
            .filter(|&&m| (m - s).abs() <= 1e-9 * s.abs().max(1.0))
            .count();
        near == 1 // the hit itself, nothing else
    })
}

/// The satellite-1 property: random interleavings of adds, deletes, and
/// compactions, checked after every mutation against the from-scratch
/// rebuild, for scan and TA sources, k ∈ {1, 5, 10, 40}. TA hands out
/// only certified results, so its pull ends near k; k = 40 is the request
/// that takes it past 48 results.
#[test]
fn random_interleavings_serve_exactly_the_rebuilt_index() {
    let mut ta_identical = 0usize;
    let mut longest_pull = 0u64;
    for seed in [3u64, 5, 8] {
        let (base, mut pool) = base_and_pool(seed, 130, 70);
        let terms = interesting_terms(&base, 3);
        assert!(terms.len() >= 2, "seed {seed}: not enough usable terms");
        let ta_query = KeywordQuery {
            terms: terms[..2].to_vec(),
        };
        let mut seg = SegmentedIndex::build(base);
        let mut rng = Pcg::new(seed ^ 0xD1CE);
        for step in 0..14 {
            // One random mutation…
            random_mutation(&mut seg, &mut pool, &mut rng);
            // …then the data-level invariant…
            seg.verify_rebuild_equivalence()
                .unwrap_or_else(|e| panic!("seed {seed} step {step}: {e}"));
            // …and the behavioural one, against the rebuild oracle.
            let rebuilt = seg.rebuilt_index();
            let searcher = DiversifiedSearcher::new(seg.corpus(), &rebuilt);
            for k in [1usize, 5, 10, 40] {
                let options = SearchOptions::new(k).with_tau(0.5);
                for &term in &terms {
                    let want = searcher.search_scan(term, &options).unwrap();
                    let got = seg.search_scan(term, &options).unwrap();
                    // Total equality: hits, scores, AND all framework
                    // metrics (results pulled, inner searches, early stop).
                    assert_eq!(want, got, "seed {seed} step {step} term {term} k {k}");
                    longest_pull = longest_pull.max(got.metrics.results_generated);
                }
                let want = searcher.search_ta(&ta_query, &options).unwrap();
                let got = seg.search_ta(&ta_query, &options).unwrap();
                longest_pull = longest_pull.max(
                    got.metrics
                        .results_generated
                        .min(want.metrics.results_generated),
                );
                assert!(
                    got.total_score.approx_eq(want.total_score, 1e-9),
                    "seed {seed} step {step} k {k}: TA optimum {} vs rebuilt {}",
                    got.total_score,
                    want.total_score
                );
                for (i, h) in got.hits.iter().enumerate() {
                    assert!(seg.is_live(h.doc), "tombstoned doc {} served", h.doc);
                    for other in &got.hits[i + 1..] {
                        let s = weighted_jaccard(
                            seg.corpus(),
                            seg.corpus().doc(h.doc),
                            seg.corpus().doc(other.doc),
                        );
                        assert!(s <= 0.5, "seed {seed} step {step}: similar hits");
                    }
                }
                if hits_have_unique_scores(seg.corpus(), &rebuilt, &ta_query.terms, &want.hits) {
                    assert_eq!(
                        want.hits, got.hits,
                        "seed {seed} step {step} k {k}: unique optimum must match"
                    );
                    ta_identical += 1;
                }
            }
        }
    }
    assert!(
        ta_identical >= 20,
        "too few unique-optimum TA cases exercised ({ta_identical})"
    );
    // Some compared query must grow a long graph on both layouts, or this
    // suite no longer holds long pulls to the rebuilt index.
    assert!(
        longest_pull > 48,
        "no compared query pulled past 48 results (longest: {longest_pull})"
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
        let (base, mut pool) = base_and_pool(40 + parts as u64, 130, 70);
        let terms = interesting_terms(&base, 4);
        assert!(terms.len() >= 4, "S {parts}: not enough usable terms");
        let queries: Vec<KeywordQuery> = [[0, 1], [2, 3], [0, 3]]
            .iter()
            .map(|pair| KeywordQuery {
                terms: pair.iter().map(|&i| terms[i]).collect(),
            })
            .collect();
        let mut seg = SegmentedIndex::build_partitioned(base, parts);
        let mut rng = Pcg::new(parts as u64 ^ 0x7A11);
        for step in 0..12 {
            random_mutation(&mut seg, &mut pool, &mut rng);
            let rebuilt = seg.rebuilt_index();
            for query in &queries {
                let got = ranking(MergedSource::bounding_filtered(
                    seg.ta_sources(query),
                    |d: &DocId| seg.is_live(*d),
                ));
                let want = ranking(TaSource::new(seg.corpus(), &rebuilt, &query.terms));
                compared += 1;
                let case = format!("S {parts} step {step} query {:?}", query.terms);
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
        }
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
    let rebuilt = seg.rebuilt_index();
    let searcher = DiversifiedSearcher::new(seg.corpus(), &rebuilt);
    for (k, tau) in [(2usize, 0.3f64), (3, 0.9)] {
        let options = SearchOptions::new(k).with_tau(tau);
        let want = searcher.search_scan(heavy, &options).unwrap();
        let got = seg.search_scan(heavy, &options).unwrap();
        assert_eq!(want, got, "k {k} τ {tau}");
    }
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
    let searcher = DiversifiedSearcher::new(seg.corpus(), &rebuilt);
    let options = SearchOptions::new(3).with_tau(0.5);
    let want = searcher.search_ta(&query, &options).unwrap();
    let got = seg.search_ta(&query, &options).unwrap();
    assert!(got.total_score.approx_eq(want.total_score, 1e-9));
    assert_eq!(want.hits, got.hits);
}

/// Compaction in the middle of a mutation stream preserves equivalence
/// even when it purges the majority of a segment.
#[test]
fn compaction_after_heavy_deletion_stays_equivalent() {
    let (base, pool) = base_and_pool(21, 100, 40);
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
    seg.verify_rebuild_equivalence().unwrap();
    let rebuilt = seg.rebuilt_index();
    let searcher = DiversifiedSearcher::new(seg.corpus(), &rebuilt);
    for &term in &terms {
        for k in [1usize, 5, 10] {
            let options = SearchOptions::new(k).with_tau(0.4);
            assert_eq!(
                searcher.search_scan(term, &options).unwrap(),
                seg.search_scan(term, &options).unwrap(),
                "term {term} k {k}"
            );
        }
    }
}

/// Deleting every matching document serves the empty answer, exactly like
/// a rebuild with those documents gone.
#[test]
fn deleting_every_match_yields_the_rebuilt_empty_answer() {
    let (base, _) = base_and_pool(31, 80, 0);
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
    let rebuilt = seg.rebuilt_index();
    assert!(rebuilt.postings(term).is_empty());
    let searcher = DiversifiedSearcher::new(seg.corpus(), &rebuilt);
    let options = SearchOptions::new(5).with_tau(0.5);
    let want = searcher.search_scan(term, &options).unwrap();
    let got = seg.search_scan(term, &options).unwrap();
    assert_eq!(want, got);
    assert!(got.hits.is_empty());
}
