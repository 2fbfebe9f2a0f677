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

mod support;

use divtopk::core::WorkerPool;
use divtopk::engine::prelude::*;
use divtopk::text::prelude::*;
use support::{Queries, Rebuild, Script, assert_matches_rebuild, fixture, interesting_terms};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const POOL_SIZES: [usize; 3] = [1, 2, 4];

/// `corpus` on `shards` base segments after a seeded script of adds,
/// deletes and compactions, so the filtered-merge hooks are on the
/// tested path; and the rebuild of its live documents.
fn mutated(
    corpus: &Corpus,
    pool: &[Document],
    shards: usize,
    seed: u64,
) -> (SegmentedIndex, Rebuild) {
    let script = Script::random(seed, corpus.num_docs(), pool.to_vec(), 12, false);
    let mut segmented = SegmentedIndex::build_partitioned(corpus.clone(), shards);
    let model = SegmentedIndex::build(corpus.clone());
    let model = script.run(&mut segmented, model, None, |_, _| {});
    segmented.verify_rebuild_equivalence().unwrap();
    assert!(segmented.tombstones() > 0, "tombstone hook not exercised");
    (segmented, Rebuild::of(&model))
}

#[test]
fn parallel_scan_pull_is_byte_identical_to_sequential() {
    for corpus_seed in [21u64, 22] {
        let (corpus, pool) = fixture(corpus_seed, 220, 40);
        let terms = interesting_terms(&corpus, 3);
        assert!(
            !terms.is_empty(),
            "corpus {corpus_seed} has no usable terms"
        );
        for &shards in &SHARD_COUNTS {
            let (segmented, rebuild) = mutated(&corpus, &pool, shards, corpus_seed);
            for &workers in &POOL_SIZES {
                let pool = WorkerPool::new(workers);
                for &term in &terms {
                    for (k, tau) in [(3usize, 0.4f64), (5, 0.6), (8, 0.3)] {
                        let options = SearchOptions::new(k).with_tau(tau);
                        let want = segmented.search_scan(term, &options).unwrap();
                        let got = segmented.search_scan_pooled(term, &options, &pool).unwrap();
                        // Total equality with the sequential scan and with
                        // the rebuild: hits, scores, AND all framework
                        // metrics, including the early-stop point.
                        let case = format!(
                            "corpus {corpus_seed} term {term} k {k} τ {tau} \
                             shards {shards} pool {workers}"
                        );
                        assert_eq!(want, got, "{case}");
                        rebuild.check(&Query::Scan(term), &options, &got, &case);
                    }
                }
            }
        }
    }
}

#[test]
fn parallel_ta_pull_is_byte_identical_to_sequential() {
    for corpus_seed in [31u64, 32] {
        let (corpus, pool) = fixture(corpus_seed, 220, 40);
        let terms = interesting_terms(&corpus, 4);
        assert!(terms.len() >= 2, "corpus {corpus_seed} has too few terms");
        let queries: Vec<KeywordQuery> = terms
            .windows(2)
            .map(|w| KeywordQuery { terms: w.to_vec() })
            .collect();
        for &shards in &SHARD_COUNTS {
            let (segmented, rebuild) = mutated(&corpus, &pool, shards, corpus_seed);
            for &workers in &POOL_SIZES {
                let pool = WorkerPool::new(workers);
                for query in &queries {
                    for (k, tau) in [(3usize, 0.5f64), (6, 0.3)] {
                        let options = SearchOptions::new(k).with_tau(tau);
                        let want = segmented.search_ta(query, &options).unwrap();
                        let got = segmented.search_ta_pooled(query, &options, &pool).unwrap();
                        let case = format!(
                            "corpus {corpus_seed} query {:?} k {k} τ {tau} \
                             shards {shards} pool {workers}",
                            query.terms
                        );
                        assert_eq!(want, got, "{case}");
                        rebuild.check(&Query::Keywords(query.clone()), &options, &got, &case);
                    }
                }
            }
        }
    }
}

/// One layer up, through live mutations (fresh segments from adds, a
/// growing tombstone set): the engine pulls every query on its own
/// thread, whatever its segment count, and the pooled pulls over a
/// mirror index mutated the same way answer byte-identically to it; both
/// answer what the rebuild does.
#[test]
fn engine_answers_equal_pooled_pulls_through_mutations() {
    let (corpus, pool) = fixture(41, 260, 40);
    let terms = interesting_terms(&corpus, 3);
    assert!(terms.len() >= 2, "corpus has too few usable terms");
    let queries = Queries::over(&terms, &[5], 0.5);
    let workers = WorkerPool::new(4);

    for &shards in &[2usize, 4] {
        // Cache off so every query runs the engine's real pull path.
        let engine = Engine::new(
            corpus.clone(),
            EngineConfig::new(shards).with_cache_capacity(0),
        );
        let mirror = SegmentedIndex::build_partitioned(corpus.clone(), shards);
        assert_eq!(engine.pull_workers(), 0);

        let seed = 0x41 + shards as u64;
        let script = Script::random(seed, corpus.num_docs(), pool.clone(), 8, false);
        script.run(&mut &engine, mirror, None, |engine, mirror| {
            let case = format!("shards {shards}");
            assert_matches_rebuild(engine, &Rebuild::of(mirror), &queries, &case);
            for &term in &terms {
                let options = SearchOptions::new(5).with_tau(0.5);
                let want = mirror.search_scan_pooled(term, &options, &workers).unwrap();
                let got = engine.search(&Query::Scan(term), &options).unwrap();
                assert_eq!(want, got, "{case}: scan term {term}");
            }
            let options = SearchOptions::new(4).with_tau(0.4);
            let want = mirror
                .search_ta_pooled(&queries.tas[0], &options, &workers)
                .unwrap();
            let got = engine
                .search(&Query::Keywords(queries.tas[0].clone()), &options)
                .unwrap();
            assert_eq!(want, got, "{case}: ta");
        });
        let stats = engine.stats();
        assert!(stats.tombstones > 0, "no delete grew the tombstone filter");
        assert!(stats.segments > shards, "no add produced a fresh segment");
        assert_eq!(stats.parallel_pulls, 0);
    }
}
