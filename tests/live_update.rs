//! Live-update serving tests for the snapshot/epoch layer
//! (`divtopk-engine`, DESIGN.md §9).
//!
//! Two claims are pinned here:
//!
//! 1. **Snapshot isolation.** A writer mutating the engine concurrently
//!    with readers can never produce a *torn* response: every answer is
//!    internally consistent with exactly one generation's state (each
//!    query pins one `Arc<Snapshot>` for its whole lifetime).
//! 2. **Generation-scoped caching.** The result cache can never serve a
//!    pre-mutation result to a post-mutation query — the cache key embeds
//!    the generation pinned per query at probe time, including inside
//!    `search_batch`.

mod support;

use divtopk::engine::prelude::*;
use divtopk::text::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use support::{
    Queries, Rebuild, Script, assert_matches_rebuild, fixture, interesting_terms, temp_path,
};

/// A corpus where `hot` appears in docs 0..10 with strictly decreasing
/// scores (decreasing tf), so every deletion visibly changes the top-k and
/// every generation's answer is distinguishable from every other's.
fn staircase_corpus() -> (Corpus, TermId) {
    let mut b = Corpus::builder();
    for i in 0..10usize {
        // 12-i repetitions of "hot" + per-doc filler → strictly ordered.
        let mut text = "hot ".repeat(12 - i);
        text.push_str(&format!("filler{i} padding{i}"));
        b.add_text(&format!("d{i}"), &text);
    }
    for i in 0..10 {
        b.add_text(&format!("cold{i}"), "entirely unrelated noise words");
    }
    let corpus = b.build();
    let hot = corpus.term_id("hot").unwrap();
    (corpus, hot)
}

/// Satellite 2: a writer thread deletes the current best document one
/// generation at a time while reader threads replay a query trace. Every
/// response must equal one of the per-generation references exactly — no
/// response may mix generations — and after the writer finishes, the
/// cache must serve only the final generation's answer.
#[test]
fn concurrent_readers_see_only_whole_snapshots() {
    let (corpus, hot) = staircase_corpus();
    let options = SearchOptions::new(3).with_tau(0.9);
    let mutations = 6u32;

    // Reference answers per generation, from the rebuild of an offline
    // model applying the same mutation schedule (a scan is bit-identical
    // to the rebuild's, DESIGN.md §9).
    let query = Query::Scan(hot);
    let mut model = SegmentedIndex::build(corpus.clone());
    let mut references = vec![Rebuild::of(&model).search(&query, &options)];
    for g in 0..mutations {
        model.delete_docs(&[g]);
        references.push(Rebuild::of(&model).search(&query, &options));
    }
    for (i, a) in references.iter().enumerate() {
        for b in &references[i + 1..] {
            assert_ne!(a, b, "references must be pairwise distinguishable");
        }
    }

    let engine = Engine::new(corpus, EngineConfig::new(2).with_threads(2));
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let engine = &engine;
        let references = &references;
        let done = &done;
        let options = &options;
        scope.spawn(move || {
            for g in 0..mutations {
                assert_eq!(engine.delete_docs(&[g]), 1);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            done.store(true, Ordering::Release);
        });
        for _ in 0..2 {
            scope.spawn(move || {
                let mut seen_any = false;
                while !done.load(Ordering::Acquire) {
                    let out = engine.search(&Query::Scan(hot), options).unwrap();
                    assert!(
                        references.contains(&out),
                        "torn read: response matches no single generation: {out:?}"
                    );
                    seen_any = true;
                }
                assert!(seen_any);
            });
        }
    });

    // Post-mutation: both a fresh computation and a subsequent cache hit
    // must be the final generation's answer, never a stale entry.
    let last = references.last().unwrap();
    assert_eq!(&engine.search(&Query::Scan(hot), &options).unwrap(), last);
    let hits_before = engine.stats().cache_hits;
    let cached = engine.search(&Query::Scan(hot), &options).unwrap();
    assert_eq!(&cached, last, "cache served a pre-mutation result");
    assert!(
        engine.stats().cache_hits > hits_before,
        "second read must hit"
    );
    assert_eq!(engine.stats().generation, u64::from(mutations));
}

/// Satellite 4: a mutation landing *mid-batch* may split the batch across
/// generations, but every single response must still be internally
/// consistent with one generation — the per-query generation re-check at
/// cache-probe time makes cross-generation cache hits impossible.
#[test]
fn mid_batch_mutation_cannot_serve_cross_generation_hits() {
    let (corpus, hot) = staircase_corpus();
    let options = SearchOptions::new(3).with_tau(0.9);

    let query = Query::Scan(hot);
    let mut model = SegmentedIndex::build(corpus.clone());
    let before = Rebuild::of(&model).search(&query, &options);
    model.delete_docs(&[0]);
    let after = Rebuild::of(&model).search(&query, &options);
    assert_ne!(before, after);

    for trial in 0..12 {
        let engine = Engine::new(corpus.clone(), EngineConfig::new(2).with_threads(2));
        // Warm the generation-0 cache so a stale hit is *available* if the
        // probe ever forgot to re-check the generation.
        let warm = engine.search(&Query::Scan(hot), &options).unwrap();
        assert_eq!(warm, before);
        let batch: Vec<(Query, SearchOptions)> = vec![(Query::Scan(hot), options.clone()); 64];
        std::thread::scope(|scope| {
            let engine = &engine;
            let handle = scope.spawn(move || engine.search_batch(&batch));
            // Land the mutation while the batch drains.
            std::thread::sleep(std::time::Duration::from_micros(200 * (trial % 4)));
            engine.delete_docs(&[0]);
            let outs = handle.join().unwrap();
            for out in outs {
                let out = out.unwrap();
                assert!(
                    out == before || out == after,
                    "trial {trial}: response mixes generations: {out:?}"
                );
            }
        });
        // Every query issued from now on is post-mutation and must see
        // the new state even though generation-0 entries are still cached.
        let fresh = engine.search(&Query::Scan(hot), &options).unwrap();
        assert_eq!(fresh, after, "trial {trial}: stale cache entry served");
    }
}

/// Sequential shape of the same satellite-4 claim, with exact counter
/// accounting: one computation per (query, generation), duplicates
/// single-flighted, zero hits across the generation boundary.
#[test]
fn generation_bump_orphans_every_cache_entry() {
    let (corpus, hot) = staircase_corpus();
    let options = SearchOptions::new(2).with_tau(0.9);
    let engine = Engine::new(corpus, EngineConfig::new(1).with_threads(1));
    for _ in 0..3 {
        let _ = engine.search(&Query::Scan(hot), &options).unwrap();
    }
    let s0 = engine.stats();
    assert_eq!((s0.cache_insertions, s0.cache_hits), (1, 2));
    engine.delete_docs(&[0]);
    for _ in 0..3 {
        let _ = engine.search(&Query::Scan(hot), &options).unwrap();
    }
    let s1 = engine.stats();
    assert_eq!(
        s1.cache_insertions, 2,
        "the post-mutation probe must miss and recompute"
    );
    assert_eq!(s1.cache_hits, 4, "hits only ever within one generation");
    assert_eq!(s1.cache_entries, 2, "the orphaned entry ages out via LRU");
}

/// Mutations compose with batch serving: a seeded script of adds,
/// deletes, compactions and checkpoints, with every generation's direct
/// and batch answers checked against the rebuild oracle.
#[test]
fn interleaved_mutations_and_batches_stay_equivalent() {
    let (base, pool) = fixture(9, 150, 70);
    let terms = interesting_terms(&base, 2);
    let queries = Queries::over(&terms, &[2, 5], 0.5);
    let engine = Engine::new(base.clone(), EngineConfig::new(2).with_threads(2));
    let batch: Vec<(Query, SearchOptions)> = (2..6)
        .map(|k| (Query::Scan(terms[0]), SearchOptions::new(k).with_tau(0.5)))
        .chain([(
            Query::Keywords(queries.tas[0].clone()),
            SearchOptions::new(4).with_tau(0.5),
        )])
        .collect();
    let dir = temp_path("interleaved.snapshot");
    let script = Script::random(9, base.num_docs(), pool, 16, true);
    let model = SegmentedIndex::build(base);
    script.run(&mut &engine, model, Some(&dir), |engine, model| {
        let rebuild = Rebuild::of(model);
        assert_matches_rebuild(engine, &rebuild, &queries, "direct");
        // Batch answers too, cache entries included, which re-checks
        // that every cached value is generation-correct.
        for ((query, options), out) in batch.iter().zip(engine.search_batch(&batch)) {
            rebuild.check(query, options, &out.unwrap(), &format!("batch {query:?}"));
        }
    });
    std::fs::remove_dir_all(&dir).unwrap();
    let stats = engine.stats();
    assert!(stats.generation >= 8, "every effective mutation bumps");
    assert!(stats.compactions >= 1);
}
