//! Property tests for the sharded serving engine (`divtopk-engine`).
//!
//! The load-bearing claim of the engine is **shard transparency**: for any
//! corpus, query, `k`, `τ`, and shard count, the engine answers what the
//! single-shard `DiversifiedSearcher` does — scans bit for bit, metrics
//! and early-stop point included; TA queries with the same optimum and,
//! whenever the optimum is unique, the same hits (the merged bound
//! trajectory, and so the stop point, may differ). The unsharded index is
//! the rebuild of `tests/support`'s oracle.

mod support;

use divtopk::Score;
use divtopk::core::rng::Pcg;
use divtopk::engine::prelude::*;
use divtopk::text::prelude::*;
use support::{Coverage, Queries, Rebuild, assert_matches_rebuild, fixture, interesting_terms};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Checks an engine over `corpus` on every shard count against the
/// rebuild oracle (here: the unsharded index); returns the rebuild and
/// what it covered.
fn every_layout_matches(corpus: &Corpus, queries: &Queries, case: &str) -> (Rebuild, Coverage) {
    let rebuild = Rebuild::of(&SegmentedIndex::build(corpus.clone()));
    let mut coverage = Coverage::default();
    for shards in SHARD_COUNTS {
        let engine = Engine::new(corpus.clone(), EngineConfig::new(shards).with_threads(1));
        let case = format!("{case} shards {shards}");
        coverage += assert_matches_rebuild(&&engine, &rebuild, queries, &case);
    }
    (rebuild, coverage)
}

#[test]
fn sharded_scan_is_bit_identical_to_unsharded_searcher() {
    for corpus_seed in [11u64, 12, 13] {
        let (corpus, _) = fixture(corpus_seed, 220, 0);
        let terms = interesting_terms(&corpus, 3);
        assert!(
            !terms.is_empty(),
            "corpus {corpus_seed} has no usable terms"
        );
        let queries = Queries::new(terms, vec![], &[(3, 0.4), (5, 0.6), (8, 0.3)]);
        every_layout_matches(&corpus, &queries, &format!("corpus {corpus_seed}"));
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
    let wheat = corpus.term_id("wheat").unwrap();
    let queries = Queries::new(vec![wheat], vec![], &[(4, 0.3), (4, 0.8)]);
    every_layout_matches(&corpus, &queries, "twins");
}

#[test]
fn sharded_ta_is_exact_and_deterministic() {
    let mut checked_identical = 0usize;
    for corpus_seed in [21u64, 22, 23] {
        let (corpus, _) = fixture(corpus_seed, 200, 0);
        let mut rng = Pcg::new(corpus_seed ^ 0xA5);
        let tas = [1u8, 2]
            .into_iter()
            .filter_map(|band| query_for_band(&corpus, band, 2, rng.next_u64()))
            .collect();
        let queries = Queries::new(vec![], tas, &[(4, 0.4), (6, 0.6)]);
        let case = format!("corpus {corpus_seed}");
        let (_, coverage) = every_layout_matches(&corpus, &queries, &case);
        checked_identical += coverage.ta_identical;
    }
    // One long request on every layout. TA emits only certified results,
    // so the pull runs about k plus the ties and near misses the search
    // must rule out; k = 140 takes it past 3 × 48. The merged sources
    // hand the framework the same ranking on every layout; only the stop
    // point may move.
    let (corpus, _) = fixture(24, 1500, 0);
    let query = query_for_band(&corpus, 3, 2, 1).expect("band 3");
    let queries = Queries::new(vec![], vec![query], &[(140, 0.5)]);
    let (_, coverage) = every_layout_matches(&corpus, &queries, "long pull");
    let fewest_pulled = coverage.shortest_ta_pull.expect("a TA search ran");
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
    let (corpus, _) = fixture(31, 180, 0);
    let terms = interesting_terms(&corpus, 2);
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
    let (corpus, _) = fixture(41, 180, 0);
    let terms = interesting_terms(&corpus, 2);
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
    let (corpus, _) = fixture(51, 200, 0);
    let terms = interesting_terms(&corpus, 3);
    // Uncached engines so the batch cannot lean on the sequential run.
    let batch_engine = Engine::new(
        corpus.clone(),
        EngineConfig::new(4).with_threads(4).with_cache_capacity(0),
    );
    let seq_engine = Engine::new(
        corpus.clone(),
        EngineConfig::new(4).with_threads(1).with_cache_capacity(0),
    );
    let rebuild = Rebuild::of(&SegmentedIndex::build(corpus));
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
        // The whole output, stop point included, is the sequential
        // engine's on the same layout, and exact against the rebuild.
        let out = out.unwrap();
        assert_eq!(seq_engine.search(query, options).unwrap(), out);
        rebuild.check(query, options, &out, &format!("{query:?}"));
    }
}

#[test]
fn sharded_total_scores_never_drift_from_zero() {
    // Sanity floor: even for tiny degenerate corpora the engine agrees
    // with the searcher (empty posting lists, k larger than matches, …).
    let mut b = Corpus::builder();
    b.add_text("only", "lonely term");
    let corpus = b.build();
    let term = corpus.term_id("lonely").unwrap();
    let queries = Queries::new(vec![term], vec![], &[(5, 0.5)]);
    let (rebuild, _) = every_layout_matches(&corpus, &queries, "one document");
    // Every layout answered what the rebuild does: zero, the idf of a
    // one-document corpus.
    let out = rebuild.search(&Query::Scan(term), &SearchOptions::new(5).with_tau(0.5));
    assert_eq!(out.total_score, Score::ZERO);
}

#[test]
fn a_plain_top_k_in_the_hundreds_pulls_k_results_and_searches_nothing() {
    // `none` is a pull loop, not a framework run over an edgeless graph:
    // asked for k of a term's ≥ k postings it pulls k and stops on the
    // bound, whatever k is. A count, not a timing: an inner search here
    // folds k singleton components at O(k²) each (over 100 ms at
    // k = 640), which is the "one frame pins a slot" class.
    let (corpus, _) = fixture(17, 4_000, 0);
    let busiest = (0..corpus.num_terms() as TermId)
        .max_by_key(|&t| corpus.doc_freq(t))
        .expect("a term");
    let postings = corpus.doc_freq(busiest) as usize;
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
