//! Property tests for the sharded serving engine (`divtopk-engine`).
//!
//! The load-bearing claim of the engine is **shard transparency**: for any
//! corpus, query, `k`, `τ`, and shard count, the engine's answer is the
//! single-shard `DiversifiedSearcher`'s answer.
//!
//! * For **scan** (single-keyword, incremental) queries the guarantee is
//!   structural and total: the merged per-shard scans emit the exact
//!   unsharded posting order with the exact unsharded bound sequence, so
//!   the whole framework run — hits, total score, *and every metric
//!   counter, including the early-stop point* — is bit-for-bit identical.
//! * For **TA** (multi-keyword, bounding) queries each shard hands out
//!   certified results in score order, so the merge pulls the unsharded
//!   ranking; but the merged bound trajectory, and so the stop point,
//!   legitimately differs from the unsharded TA (the max of per-shard
//!   thresholds is tighter than the global threshold), so the guarantee
//!   is exactness: equal total score, valid
//!   pairwise-dissimilar hits — and identical hit *lists* whenever the
//!   optimum is unique, which the distinct-score precondition below makes
//!   overwhelmingly likely and the fixed seeds make reproducible.

use divtopk::core::rng::Pcg;
use divtopk::engine::prelude::*;
use divtopk::text::prelude::*;
use divtopk::{ExactAlgorithm, Score};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn corpus_for(seed: u64, num_docs: usize) -> Corpus {
    generate(&SynthConfig {
        num_docs,
        near_dup_prob: 0.35, // plenty of near-duplicate structure
        ..SynthConfig::tiny().with_seed(seed)
    })
}

/// Terms with a mid-sized posting list (interesting but tractable).
fn interesting_terms(corpus: &Corpus, index: &InvertedIndex, count: usize) -> Vec<TermId> {
    let mut terms: Vec<TermId> = (0..corpus.num_terms() as TermId)
        .filter(|&t| (6..=60).contains(&index.postings(t).len()))
        .collect();
    terms.sort_by_key(|&t| std::cmp::Reverse(index.postings(t).len()));
    terms.truncate(count);
    terms
}

/// All full scores of docs matching `terms`, for the uniqueness check.
fn matched_scores(corpus: &Corpus, index: &InvertedIndex, terms: &[TermId]) -> Vec<f64> {
    use std::collections::BTreeSet;
    let mut docs: BTreeSet<DocId> = BTreeSet::new();
    for &t in terms {
        docs.extend(index.postings(t).iter().map(|p| p.doc));
    }
    docs.iter()
        .map(|&d| divtopk::text::tfidf::score(corpus, terms, d).get())
        .collect()
}

/// True when every selected hit's score is unique among *all* matched
/// docs (⇒ no equal-score doc could swap into the optimum unnoticed, so
/// the optimum set is unique; sum collisions across distinct float score
/// sets are not realistically constructible by the generator).
fn hits_have_unique_scores(hits: &[Hit], matched: &[f64]) -> bool {
    hits.iter().all(|h| {
        let s = h.score.get();
        let near = matched
            .iter()
            .filter(|&&m| (m - s).abs() <= 1e-9 * s.abs().max(1.0))
            .count();
        near == 1 // the hit itself, nothing else
    })
}

#[test]
fn sharded_scan_is_bit_identical_to_unsharded_searcher() {
    for corpus_seed in [11u64, 12, 13] {
        let corpus = corpus_for(corpus_seed, 220);
        let index = InvertedIndex::build(&corpus);
        let searcher = DiversifiedSearcher::new(&corpus, &index);
        let terms = interesting_terms(&corpus, &index, 3);
        assert!(
            !terms.is_empty(),
            "corpus {corpus_seed} has no usable terms"
        );
        for &shards in &SHARD_COUNTS {
            let engine = Engine::new(corpus.clone(), EngineConfig::new(shards).with_threads(1));
            for &term in &terms {
                for (k, tau) in [(3usize, 0.4f64), (5, 0.6), (8, 0.3)] {
                    let options = SearchOptions::new(k).with_tau(tau);
                    let want = searcher.search_scan(term, &options).unwrap();
                    let got = engine.search(&Query::Scan(term), &options).unwrap();
                    // Total equality: hits, scores, AND all framework
                    // metrics (results pulled, inner searches, early stop).
                    assert_eq!(
                        want, got,
                        "corpus {corpus_seed} term {term} k {k} τ {tau} shards {shards}"
                    );
                }
            }
        }
    }
}

/// Crafted worst case for determinism: exact duplicate documents (equal
/// scores everywhere) split across shards. The doc-id tie-breaks in the
/// index build and the merge heap must keep the sharded scan bit-identical.
#[test]
fn sharded_scan_handles_exact_score_ties() {
    let mut b = Corpus::builder();
    for i in 0..12 {
        // Six twin pairs — twins land in different shards for S ∈ {2,4,8}.
        b.add_text(&format!("d{i}"), &format!("wheat market report v{}", i / 2));
    }
    for i in 0..8 {
        b.add_text(&format!("f{i}"), "entirely unrelated filler words");
    }
    let corpus = b.build();
    let index = InvertedIndex::build(&corpus);
    let searcher = DiversifiedSearcher::new(&corpus, &index);
    let wheat = corpus.term_id("wheat").unwrap();
    for &shards in &SHARD_COUNTS {
        let engine = Engine::new(corpus.clone(), EngineConfig::new(shards).with_threads(1));
        for tau in [0.3, 0.8] {
            let options = SearchOptions::new(4).with_tau(tau);
            let want = searcher.search_scan(wheat, &options).unwrap();
            let got = engine.search(&Query::Scan(wheat), &options).unwrap();
            assert_eq!(want, got, "shards {shards} τ {tau}");
        }
    }
}

/// One keyword query on every shard count against the unsharded
/// searcher: equal optimum, valid hits, identical hit lists when the
/// optimum is unique. Returns how many layouts were compared hit by hit
/// and the fewest results any of the runs pulled.
fn sharded_ta_agrees(
    corpus: &Corpus,
    index: &InvertedIndex,
    query: &KeywordQuery,
    k: usize,
    tau: f64,
    case: &str,
) -> (usize, u64) {
    let searcher = DiversifiedSearcher::new(corpus, index);
    let matched = matched_scores(corpus, index, &query.terms);
    let options = SearchOptions::new(k)
        .with_tau(tau)
        .with_mode(DiversifyMode::Exact(ExactAlgorithm::Cut));
    let want = searcher.search_ta(query, &options).unwrap();
    let unique = hits_have_unique_scores(&want.hits, &matched);
    let mut checked_identical = 0usize;
    let mut fewest_pulled = want.metrics.results_generated;
    for &shards in &SHARD_COUNTS {
        let engine = Engine::new(corpus.clone(), EngineConfig::new(shards).with_threads(1));
        let got = engine
            .search(&Query::Keywords(query.clone()), &options)
            .unwrap();
        fewest_pulled = fewest_pulled.min(got.metrics.results_generated);
        // Exactness: the sharded optimum equals the unsharded
        // optimum (both are the full-stream optimum).
        assert!(
            got.total_score.approx_eq(want.total_score, 1e-9),
            "{case} k {k} τ {tau} shards {shards}: {} vs {}",
            got.total_score,
            want.total_score
        );
        // Hits are pairwise dissimilar at this τ.
        for i in 0..got.hits.len() {
            for j in (i + 1)..got.hits.len() {
                let s = weighted_jaccard(
                    corpus,
                    corpus.doc(got.hits[i].doc),
                    corpus.doc(got.hits[j].doc),
                );
                assert!(s <= tau, "similar hits at shards {shards}");
            }
        }
        // Unique optimum (unique hit scores) ⇒ identical lists.
        if unique {
            assert_eq!(want.hits, got.hits, "{case} k {k} τ {tau} shards {shards}");
            checked_identical += 1;
        }
    }
    (checked_identical, fewest_pulled)
}

#[test]
fn sharded_ta_is_exact_and_deterministic() {
    let mut checked_identical = 0usize;
    for corpus_seed in [21u64, 22, 23] {
        let corpus = corpus_for(corpus_seed, 200);
        let index = InvertedIndex::build(&corpus);
        let mut rng = Pcg::new(corpus_seed ^ 0xA5);
        for band in [1u8, 2] {
            let Some(query) = query_for_band(&corpus, band, 2, rng.next_u64()) else {
                continue;
            };
            for (k, tau) in [(4usize, 0.4f64), (6, 0.6)] {
                let case = format!("corpus {corpus_seed} band {band}");
                checked_identical += sharded_ta_agrees(&corpus, &index, &query, k, tau, &case).0;
            }
        }
    }
    // One long request on every layout. TA emits only certified results,
    // so the pull runs about k plus the ties and near misses the search
    // must rule out; k = 140 takes it past 3 × 48. The merged sources
    // hand the framework the same ranking on every layout; only the stop
    // point may move.
    let corpus = corpus_for(24, 1500);
    let index = InvertedIndex::build(&corpus);
    let query = query_for_band(&corpus, 3, 2, 1).expect("band 3");
    let (_, fewest_pulled) = sharded_ta_agrees(&corpus, &index, &query, 140, 0.5, "long pull");
    assert!(
        fewest_pulled >= 3 * 48,
        "the long pull stopped after {fewest_pulled} results"
    );
    assert!(
        checked_identical >= 8,
        "too few distinct-score cases exercised ({checked_identical}) — \
         the identical-hits property was barely tested"
    );
}

#[test]
fn engine_is_deterministic_across_rebuilds() {
    let corpus = corpus_for(31, 180);
    let index = InvertedIndex::build(&corpus);
    let terms = interesting_terms(&corpus, &index, 2);
    let options = SearchOptions::new(5).with_tau(0.5);
    let a = Engine::new(corpus.clone(), EngineConfig::new(4).with_threads(2));
    let b = Engine::new(corpus.clone(), EngineConfig::new(4).with_threads(2));
    for &term in &terms {
        assert_eq!(
            a.search(&Query::Scan(term), &options).unwrap(),
            b.search(&Query::Scan(term), &options).unwrap()
        );
    }
    let query = KeywordQuery {
        terms: terms.clone(),
    };
    assert_eq!(
        a.search(&Query::Keywords(query.clone()), &options).unwrap(),
        b.search(&Query::Keywords(query), &options).unwrap()
    );
}

#[test]
fn cache_hits_return_bit_identical_output_for_both_query_kinds() {
    let corpus = corpus_for(41, 180);
    let index = InvertedIndex::build(&corpus);
    let terms = interesting_terms(&corpus, &index, 2);
    let engine = Engine::new(corpus, EngineConfig::new(4).with_threads(1));
    let options = SearchOptions::new(4).with_tau(0.5);
    let scan_query = Query::Scan(terms[0]);
    let ta_query = Query::Keywords(KeywordQuery { terms });
    for query in [&scan_query, &ta_query] {
        let first = engine.search(query, &options).unwrap();
        let second = engine.search(query, &options).unwrap();
        assert_eq!(first, second, "cache hit must be bit-identical");
    }
    let stats = engine.stats();
    assert_eq!(stats.cache_hits, 2);
    assert_eq!(stats.cache_misses, 2);
}

#[test]
fn batched_equals_sequential_under_concurrency() {
    let corpus = corpus_for(51, 200);
    let index = InvertedIndex::build(&corpus);
    let terms = interesting_terms(&corpus, &index, 3);
    // Uncached engines so the batch cannot lean on the sequential run.
    let batch_engine = Engine::new(
        corpus.clone(),
        EngineConfig::new(4).with_threads(4).with_cache_capacity(0),
    );
    let seq_engine = Engine::new(
        corpus,
        EngineConfig::new(4).with_threads(1).with_cache_capacity(0),
    );
    let mut batch: Vec<(Query, SearchOptions)> = Vec::new();
    for &term in &terms {
        for k in [2usize, 4, 6] {
            batch.push((Query::Scan(term), SearchOptions::new(k).with_tau(0.5)));
        }
    }
    batch.push((
        Query::Keywords(KeywordQuery {
            terms: terms.clone(),
        }),
        SearchOptions::new(5).with_tau(0.4),
    ));
    let got = batch_engine.search_batch(&batch);
    for ((query, options), out) in batch.iter().zip(got) {
        let want = seq_engine.search(query, options).unwrap();
        assert_eq!(want, out.unwrap());
    }
}

#[test]
fn sharded_total_scores_never_drift_from_zero() {
    // Sanity floor: even for tiny degenerate corpora the engine agrees
    // with the searcher (empty posting lists, k larger than matches, …).
    let mut b = Corpus::builder();
    b.add_text("only", "lonely term");
    let corpus = b.build();
    let index = InvertedIndex::build(&corpus);
    let searcher = DiversifiedSearcher::new(&corpus, &index);
    let term = corpus.term_id("lonely").unwrap();
    let options = SearchOptions::new(5).with_tau(0.5);
    for &shards in &SHARD_COUNTS {
        let engine = Engine::new(corpus.clone(), EngineConfig::new(shards).with_threads(1));
        let got = engine.search(&Query::Scan(term), &options).unwrap();
        let want = searcher.search_scan(term, &options).unwrap();
        assert_eq!(want, got);
        assert_eq!(got.total_score, Score::ZERO); // idf of a 1-doc corpus
    }
}

#[test]
fn a_plain_top_k_in_the_hundreds_pulls_k_results_and_searches_nothing() {
    // `none` is a pull loop, not a framework run over an edgeless graph:
    // asked for k of a term's ≥ k postings it pulls k and stops on the
    // bound, whatever k is. A count, not a timing: an inner search here
    // folds k singleton components at O(k²) each (over 100 ms at
    // k = 640), which is the "one frame pins a slot" class.
    let corpus = corpus_for(17, 4_000);
    let index = InvertedIndex::build(&corpus);
    let busiest = (0..corpus.num_terms() as TermId)
        .max_by_key(|&t| index.postings(t).len())
        .expect("a term");
    let postings = index.postings(busiest).len();
    assert!(postings >= 640, "busiest term has {postings} postings");
    for &shards in &SHARD_COUNTS {
        let engine = Engine::new(corpus.clone(), EngineConfig::new(shards).with_threads(1));
        for k in [160, 640, postings] {
            let options = SearchOptions::new(k).with_mode(DiversifyMode::None);
            let out = engine.search(&Query::Scan(busiest), &options).unwrap();
            let case = format!("{shards} shards, k {k}");
            assert_eq!(out.hits.len(), k, "{case}");
            assert!(out.hits.windows(2).all(|w| w[0].score >= w[1].score));
            assert_eq!(out.metrics.results_generated, k as u64, "{case}");
            assert_eq!(out.metrics.inner_searches, 0, "{case}");
            assert_eq!(out.metrics.similarity_checks, 0, "{case}");
            assert_eq!(out.diversifier.candidates_pulled, k as u64, "{case}");
        }
        // A rerank mode's pool is the same pull, for 4k.
        let pooled = SearchOptions::new(40).with_mode(DiversifyMode::Disc);
        let out = engine.search(&Query::Scan(busiest), &pooled).unwrap();
        assert_eq!(out.metrics.inner_searches, 0, "{shards} shards");
        assert_eq!(out.metrics.results_generated, 160, "{shards} shards");
    }
}
