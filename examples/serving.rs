//! Serving demo: the sharded, cached, concurrent engine end to end.
//!
//! Builds a reuters-like synthetic corpus, shards it four ways, and serves
//! a Zipf-repeating query trace (the realistic shape of web-search
//! traffic: a few head queries dominate) through `Engine::search_batch`,
//! printing throughput and cache behaviour. Run with:
//!
//! ```text
//! cargo run --release --example serving
//! ```

use divtopk::engine::prelude::*;
use divtopk::text::prelude::*;
use std::time::Instant;

fn main() {
    // A corpus standing in for a production index (scaled to demo size).
    let corpus = generate(&SynthConfig::reuters_like().with_num_docs(4_000));
    let num_docs = corpus.num_docs();

    let build_start = Instant::now();
    let engine = Engine::new(corpus, EngineConfig::new(4).with_cache_capacity(1024));
    println!(
        "engine up: {} docs, {} base segments, {} batch worker(s), built in {:.2?}",
        num_docs,
        engine.stats().segments,
        engine.threads(),
        build_start.elapsed(),
    );

    // Distinct queries drawn from the paper's kfreq bands, then repeated
    // Zipf-style into a 60-query trace (head queries repeat often).
    let mut distinct: Vec<(Query, SearchOptions)> = Vec::new();
    for band in 1..=3u8 {
        for seed in 0..4u64 {
            if let Some(q) = query_for_band(&engine.corpus(), band, 2, 1000 + seed) {
                distinct.push((
                    Query::Keywords(q),
                    SearchOptions::new(10).with_tau(0.6).with_bound_decay(0.005),
                ));
            }
        }
    }
    // Zipf popularity: rank r served with weight 1/(r+1) — the harmonic
    // CDF behind BENCH_3.json's serving trace, so the cache-hit numbers
    // printed here are comparable to that file's.
    let mut rng = divtopk::core::rng::Pcg::new(7);
    let cdf: Vec<f64> = distinct
        .iter()
        .enumerate()
        .scan(0.0, |acc, (r, _)| {
            *acc += 1.0 / (r + 1) as f64;
            Some(*acc)
        })
        .collect();
    let trace: Vec<(Query, SearchOptions)> = (0..60)
        .map(|_| distinct[rng.sample_cdf(&cdf)].clone())
        .collect();

    let start = Instant::now();
    let results = engine.search_batch(&trace);
    let elapsed = start.elapsed();

    let ok = results.iter().filter(|r| r.is_ok()).count();
    let qps = ok as f64 / elapsed.as_secs_f64();
    println!(
        "served {ok}/{} queries in {:.2?} — {:.0} queries/sec",
        trace.len(),
        elapsed,
        qps
    );

    let stats = engine.stats();
    println!(
        "cache: {} hits / {} misses ({} entries, {} evictions) — hit rate {:.0}%",
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_entries,
        stats.cache_evictions,
        100.0 * stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses).max(1) as f64,
    );

    // Show one answer: diversified top-k for the head query.
    if let Ok(out) = &results[0] {
        println!(
            "head query: {} hits, total score {:.3}, pulled {} results{}",
            out.hits.len(),
            out.total_score.get(),
            out.metrics.results_generated,
            if out.metrics.early_stopped {
                " (early stop)"
            } else {
                ""
            },
        );
        for hit in &out.hits {
            println!(
                "  {}  score {:.3}",
                engine.corpus().doc(hit.doc).title,
                hit.score.get()
            );
        }
    }
}
