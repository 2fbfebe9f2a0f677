//! Property tests for concurrent shard pulls (`divtopk-core::prefetch` +
//! the pooled search paths): the parallel pull pipeline must be
//! **byte-identical** to the sequential merge, not merely equivalent.
//! The engine itself pulls every query on its own thread; the pooled
//! paths are the comparison DESIGN.md §8 measured them against.
//!
//! The argument (DESIGN.md §8): a sequential source's unseen bound only
//! changes at a pull, so a prefetching producer that records
//! `(emission, bound-after-that-pull)` pairs and a facade that installs
//! the recorded bound at pop time replays the exact observation sequence
//! the merge would have made itself. Everything downstream — heap order,
//! tombstone filter, framework metrics, Lemma-3 early-stop point — is a
//! deterministic function of that sequence, so the whole `SearchOutput`
//! must match bit for bit, for every shard count, pool size, and mode.

use divtopk::core::WorkerPool;
use divtopk::core::rng::Pcg;
use divtopk::engine::prelude::*;
use divtopk::text::prelude::*;
use divtopk::text::segments::SegmentedIndex;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const POOL_SIZES: [usize; 3] = [1, 2, 4];

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

/// A segmented index with `shards` base segments and a deterministic set
/// of tombstones, so the filtered-merge hooks are on the tested path.
fn segmented_with_tombstones(corpus: &Corpus, shards: usize, seed: u64) -> SegmentedIndex {
    let mut segmented = SegmentedIndex::build_partitioned(corpus.clone(), shards);
    let mut rng = Pcg::new(seed);
    let victims: Vec<DocId> = (0..corpus.num_docs() / 10)
        .map(|_| rng.below(corpus.num_docs() as u32))
        .collect();
    segmented.delete_docs(&victims);
    assert!(segmented.tombstones() > 0, "tombstone hook not exercised");
    segmented
}

#[test]
fn parallel_scan_pull_is_byte_identical_to_sequential() {
    for corpus_seed in [21u64, 22] {
        let corpus = corpus_for(corpus_seed, 220);
        let index = InvertedIndex::build(&corpus);
        let terms = interesting_terms(&corpus, &index, 3);
        assert!(
            !terms.is_empty(),
            "corpus {corpus_seed} has no usable terms"
        );
        for &shards in &SHARD_COUNTS {
            let segmented = segmented_with_tombstones(&corpus, shards, corpus_seed);
            for &workers in &POOL_SIZES {
                let pool = WorkerPool::new(workers);
                for &term in &terms {
                    for (k, tau) in [(3usize, 0.4f64), (5, 0.6), (8, 0.3)] {
                        let options = SearchOptions::new(k).with_tau(tau);
                        let want = segmented.search_scan(term, &options).unwrap();
                        let got = segmented.search_scan_pooled(term, &options, &pool).unwrap();
                        // Total equality: hits, scores, AND all framework
                        // metrics, including the early-stop point.
                        assert_eq!(
                            want, got,
                            "corpus {corpus_seed} term {term} k {k} τ {tau} \
                             shards {shards} pool {workers}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn parallel_ta_pull_is_byte_identical_to_sequential() {
    for corpus_seed in [31u64, 32] {
        let corpus = corpus_for(corpus_seed, 220);
        let index = InvertedIndex::build(&corpus);
        let terms = interesting_terms(&corpus, &index, 4);
        assert!(terms.len() >= 2, "corpus {corpus_seed} has too few terms");
        let queries: Vec<KeywordQuery> = terms
            .windows(2)
            .map(|w| KeywordQuery { terms: w.to_vec() })
            .collect();
        for &shards in &SHARD_COUNTS {
            let segmented = segmented_with_tombstones(&corpus, shards, corpus_seed);
            for &workers in &POOL_SIZES {
                let pool = WorkerPool::new(workers);
                for query in &queries {
                    for (k, tau) in [(3usize, 0.5f64), (6, 0.3)] {
                        let options = SearchOptions::new(k).with_tau(tau);
                        let want = segmented.search_ta(query, &options).unwrap();
                        let got = segmented.search_ta_pooled(query, &options, &pool).unwrap();
                        assert_eq!(
                            want, got,
                            "corpus {corpus_seed} query {:?} k {k} τ {tau} \
                             shards {shards} pool {workers}",
                            query.terms
                        );
                    }
                }
            }
        }
    }
}

/// One layer up, through live mutations (fresh segments from adds, a
/// growing tombstone set): the engine pulls every query on its own
/// thread, whatever its segment count, and the pooled pulls over a
/// mirror index mutated the same way answer byte-identically to it.
#[test]
fn engine_answers_equal_pooled_pulls_through_mutations() {
    let corpus = corpus_for(41, 260);
    let index = InvertedIndex::build(&corpus);
    let terms = interesting_terms(&corpus, &index, 3);
    assert!(terms.len() >= 2, "corpus has too few usable terms");
    let donor = corpus_for(42, 40);
    let pool = WorkerPool::new(4);

    for &shards in &[2usize, 4] {
        // Cache off so every query runs the engine's real pull path.
        let engine = Engine::new(
            corpus.clone(),
            EngineConfig::new(shards).with_cache_capacity(0),
        );
        let mut mirror = SegmentedIndex::build_partitioned(corpus.clone(), shards);
        assert_eq!(engine.pull_workers(), 0);

        let mut rng = Pcg::new(0x41 + shards as u64);
        for round in 0..4 {
            for &term in &terms {
                let options = SearchOptions::new(5).with_tau(0.5);
                let want = mirror.search_scan_pooled(term, &options, &pool).unwrap();
                let got = engine.search(&Query::Scan(term), &options).unwrap();
                assert_eq!(want, got, "scan term {term} round {round} shards {shards}");
            }
            let query = KeywordQuery {
                terms: vec![terms[0], terms[1]],
            };
            let options = SearchOptions::new(4).with_tau(0.4);
            let want = mirror.search_ta_pooled(&query, &options, &pool).unwrap();
            let got = engine.search(&Query::Keywords(query), &options).unwrap();
            assert_eq!(want, got, "ta round {round} shards {shards}");

            // Identical mutations on both sides: adds create fresh
            // segments, deletes grow the tombstone filter.
            let batch: Vec<Document> = (round * 8..round * 8 + 8)
                .map(|d| donor.doc(d as DocId).clone())
                .collect();
            engine.add_docs(batch.clone());
            mirror.add_docs(batch);
            let victims: Vec<DocId> = (0..5)
                .map(|_| rng.below(corpus.num_docs() as u32))
                .collect();
            engine.delete_docs(&victims);
            mirror.delete_docs(&victims);
        }
        let stats = engine.stats();
        assert!(stats.segments > shards, "no add produced a fresh segment");
        assert_eq!(stats.parallel_pulls, 0);
    }
}
