//! `perfbase` — the reproducible performance baseline behind `BENCH_*.json`.
//!
//! Runs pinned suites (planted-cluster graphs, a path graph, synthetic
//! enwiki/reuters corpora queries, and the serving-engine batch-throughput
//! trace) through the exact algorithms and emits one machine-readable JSON
//! file with wall time and allocator peak per cell, so every PR leaves a
//! comparable trajectory point (DESIGN.md §7–§8).
//!
//! The **serving throughput** suite replays a fixed Zipf-repeating query
//! trace (head queries repeat, as in real search traffic) against the
//! sharded [`Engine`] at 1/2/4/8 shards and against the naive baseline
//! (one uncached `DiversifiedSearcher` call per query): queries/sec per
//! configuration, plus the engine-vs-baseline speedup and the cache hit
//! rate, land in the summary. Worker-thread count and trace shape are
//! recorded so the numbers are interpretable on any machine (on a 1-CPU
//! container the gain is the result cache + the tighter merged TA bound;
//! on multicore the batch pool adds parallel speedup on top).
//!
//! The **live update** suite replays an interleaved add/delete/query
//! trace (with periodic compactions) against the segmented engine and
//! against the rebuild-per-mutation baseline (the pre-PR-4 serving shape:
//! a from-scratch `InvertedIndex::build` + weight table after every
//! mutation batch): queries/sec under the mutation stream, the p95
//! staleness-free read latency of the segmented engine, and the
//! segmented-vs-rebuild speedup land in the summary. Every run asserts —
//! query by query — that the segmented answers agree with the rebuilt
//! oracle (byte-identical for scans, equal optima for TA), and finishes
//! with the data-level `verify_rebuild_equivalence` check.
//!
//! The **cold start** suite measures restart both ways — snapshot load
//! (`Engine::load_snapshot`, DESIGN.md §14) versus rebuilding the same
//! serving state from the in-memory documents (vocabulary + statistics +
//! index + weights + tombstone replay) — asserting, before any timing,
//! that the loaded engine answers byte-identically to the engine that
//! saved the snapshot.
//!
//! ```text
//! cargo run --release -p divtopk-bench --bin perfbase              # full → BENCH_6.json
//! cargo run --release -p divtopk-bench --bin perfbase -- --smoke   # tiny CI variant
//! cargo run --release -p divtopk-bench --bin perfbase -- --out target/BENCH.json --runs 7
//! cargo run --release -p divtopk-bench --bin perfbase -- --verify target/BENCH.json
//! ```
//!
//! The binary validates its own output (strict JSON well-formedness and a
//! non-empty cell list) and exits non-zero on any inconsistency, including
//! a best-score disagreement between the exact algorithms on the same graph
//! and any sharded-vs-unsharded, segmented-vs-rebuilt, or loaded-vs-saved
//! answer disagreement — the measurement run doubles as an
//! oracle-equivalence check. `--verify PATH` re-reads a finished
//! trajectory file through the [`json`] DOM and asserts every expected
//! suite produced cells and every expected summary key is present and
//! finite (the CI gate).

use divtopk_bench::quality::evaluate;
use divtopk_bench::workload::QueryPack;
use divtopk_bench::{Measurement, PeakAlloc, json, measure};
use divtopk_core::prelude::*;
use divtopk_core::testgen::{self, ClusterConfig};
use divtopk_engine::prelude::*;
use divtopk_text::prelude::*;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Deterministic seed for synth-corpus query selection (shared with
/// `figures`).
const QUERY_SEED: u64 = 2012;

#[derive(Clone, Copy, PartialEq)]
enum Algo {
    AStar,
    Dp,
    Cut,
}

impl Algo {
    fn name(self) -> &'static str {
        match self {
            Algo::AStar => "div-astar",
            Algo::Dp => "div-dp",
            Algo::Cut => "div-cut",
        }
    }
}

/// One measured table cell of the baseline.
struct Cell {
    suite: &'static str,
    algo: &'static str,
    kernel: &'static str,
    seed: u64,
    n: usize,
    edges: usize,
    k: usize,
    /// Wall time per run, nanoseconds; empty when the budget tripped.
    wall_ns_runs: Vec<u128>,
    /// Median of `wall_ns_runs` (0 on INF).
    wall_ns: u128,
    /// Max allocator peak over the runs.
    peak_bytes: usize,
    /// Best solution score (cross-checked between algorithms).
    score: Option<f64>,
}

impl Cell {
    fn is_inf(&self) -> bool {
        self.wall_ns_runs.is_empty()
    }

    fn to_json(&self) -> String {
        let score = match self.score {
            Some(s) => format!("{s}"),
            None => "null".to_string(),
        };
        let runs: Vec<String> = self.wall_ns_runs.iter().map(|w| w.to_string()).collect();
        format!(
            concat!(
                "{{\"suite\": \"{}\", \"algo\": \"{}\", \"kernel\": \"{}\", ",
                "\"seed\": {}, \"n\": {}, \"edges\": {}, \"k\": {}, ",
                "\"status\": \"{}\", \"wall_ns\": {}, \"wall_ns_runs\": [{}], ",
                "\"peak_bytes\": {}, \"score\": {}}}"
            ),
            json::escape_string(self.suite),
            json::escape_string(self.algo),
            json::escape_string(self.kernel),
            self.seed,
            self.n,
            self.edges,
            self.k,
            if self.is_inf() { "inf" } else { "done" },
            self.wall_ns,
            runs.join(", "),
            self.peak_bytes,
            score,
        )
    }
}

fn median(sorted: &mut [u128]) -> u128 {
    sorted.sort_unstable();
    if sorted.is_empty() {
        0
    } else {
        sorted[sorted.len() / 2]
    }
}

/// Measures one `(graph, algorithm)` cell over `runs` repetitions.
fn graph_cell(
    suite: &'static str,
    g: &DiversityGraph,
    seed: u64,
    k: usize,
    algo: Algo,
    runs: usize,
    budget: Duration,
) -> Cell {
    let limits = SearchLimits {
        time_budget: Some(budget),
        max_bytes: Some(1 << 30),
        ..SearchLimits::default()
    };
    let mut wall_ns_runs = Vec::with_capacity(runs);
    let mut peak_bytes = 0usize;
    let mut score = None;
    for _ in 0..runs {
        let (m, result) = measure(|| match algo {
            Algo::AStar => div_astar_limited(g, k, &limits).ok().map(|r| r.0),
            Algo::Dp => div_dp_limited(g, k, &limits).ok().map(|r| r.0),
            Algo::Cut => div_cut_limited(g, k, &limits).ok().map(|r| r.0),
        });
        match (m, result) {
            (
                Measurement::Done {
                    time,
                    peak_bytes: p,
                },
                Some(r),
            ) => {
                wall_ns_runs.push(time.as_nanos());
                peak_bytes = peak_bytes.max(p);
                score = Some(r.best().score().get());
            }
            _ => {
                // Budget tripped: report the cell as INF and stop retrying.
                wall_ns_runs.clear();
                score = None;
                break;
            }
        }
    }
    let wall_ns = median(&mut wall_ns_runs.clone());
    Cell {
        suite,
        algo: algo.name(),
        kernel: "auto",
        seed,
        n: g.len(),
        edges: g.edge_count(),
        k,
        wall_ns_runs,
        wall_ns,
        peak_bytes,
        score,
    }
}

/// Measures one synthetic-corpus query cell (end-to-end framework search).
#[allow(clippy::too_many_arguments)]
fn synth_cell(
    suite: &'static str,
    corpus: &Corpus,
    index: &InvertedIndex,
    kfreq: u8,
    terms: usize,
    k: usize,
    runs: usize,
    budget: Duration,
) -> Option<Cell> {
    let query = query_for_band(corpus, kfreq, terms, QUERY_SEED)?;
    let limits = SearchLimits {
        time_budget: Some(budget),
        max_bytes: Some(1 << 30),
        ..SearchLimits::default()
    };
    let options = SearchOptions::new(k)
        .with_tau(0.6)
        .with_mode(DiversifyMode::Exact(ExactAlgorithm::Cut))
        .with_limits(limits)
        .with_bound_decay(0.005);
    let searcher = DiversifiedSearcher::new(corpus, index);
    let mut wall_ns_runs = Vec::with_capacity(runs);
    let mut peak_bytes = 0usize;
    let mut score = None;
    for _ in 0..runs {
        let (m, out) = measure(|| {
            if terms == 1 {
                searcher.search_scan(query.terms[0], &options).ok()
            } else {
                searcher.search_ta(&query, &options).ok()
            }
        });
        match (m, out) {
            (
                Measurement::Done {
                    time,
                    peak_bytes: p,
                },
                Some(out),
            ) => {
                wall_ns_runs.push(time.as_nanos());
                peak_bytes = peak_bytes.max(p);
                score = Some(out.total_score.get());
            }
            _ => {
                wall_ns_runs.clear();
                score = None;
                break;
            }
        }
    }
    let wall_ns = median(&mut wall_ns_runs.clone());
    Some(Cell {
        suite,
        algo: "div-cut",
        kernel: "auto",
        seed: QUERY_SEED,
        n: corpus.num_docs(),
        edges: 0,
        k,
        wall_ns_runs,
        wall_ns,
        peak_bytes,
        score,
    })
}

/// Outcome of the serving-throughput suite, for the JSON summary.
struct ThroughputReport {
    qps_baseline: f64,
    qps_by_shards: Vec<(usize, f64)>,
    cache_hit_rate_4_shards: f64,
    distinct_queries: usize,
    total_queries: usize,
    threads: usize,
}

/// The serving-engine batch-throughput suite (DESIGN.md §8): replays a
/// query-pack trace against the engine at several shard counts and
/// against the naive per-query searcher baseline. Asserts — run by run,
/// query by query — that sharded and unsharded optima agree.
///
/// The trace is the default pack's `torso_mix` family (DESIGN.md §12)
/// recompiled against this suite's corpus: Zipf-over-distinct draws with
/// a realistic repeat rate. The old hand-rolled trace had 10 distinct
/// queries in 96 — a ~90% cache-hit rate that flattered the engine's
/// advantage over the uncached baseline.
fn serving_throughput_suite(
    cells: &mut Vec<Cell>,
    smoke: bool,
    runs: usize,
    budget: Duration,
) -> Option<ThroughputReport> {
    let docs = if smoke { 400 } else { 4000 };
    let (n_distinct, n_total, k) = if smoke {
        (8usize, 24usize, 6usize)
    } else {
        (48, 96, 10)
    };
    let corpus = generate(&SynthConfig::reuters_like().with_num_docs(docs));
    let index = InvertedIndex::build(&corpus);
    let searcher = DiversifiedSearcher::new(&corpus, &index);
    let limits = SearchLimits {
        time_budget: Some(budget),
        max_bytes: Some(1 << 30),
        ..SearchLimits::default()
    };
    let options = SearchOptions::new(k)
        .with_tau(0.6)
        .with_limits(limits)
        .with_bound_decay(0.005);

    // The trace comes from the committed pack's torso_mix (hot queries,
    // Zipf repeats) and tail_cold (long tail of one-offs) families,
    // scaled to this suite's size, recompiled against this suite's
    // corpus, and interleaved — the production shape: a few hot queries
    // repeat over a stream of rarely repeated tail queries.
    let mut pack = QueryPack::default_pack();
    pack.families
        .retain(|f| f.name == "torso_mix" || f.name == "tail_cold");
    assert_eq!(pack.families.len(), 2, "default pack lost a trace family");
    for family in &mut pack.families {
        family.queries = n_total / 2;
        family.distinct = n_distinct / 2;
    }
    let compiled = pack
        .compile(&corpus, &index)
        .expect("trace families compile against the suite corpus");
    let hot: Vec<&Query> = compiled[0].queries().collect();
    let cold: Vec<&Query> = compiled[1].queries().collect();
    let mut queries: Vec<Query> = Vec::with_capacity(n_total);
    for i in 0..hot.len().max(cold.len()) {
        if let Some(q) = hot.get(i) {
            queries.push((*q).clone());
        }
        if let Some(q) = cold.get(i) {
            queries.push((*q).clone());
        }
    }
    let mut distinct: Vec<Query> = Vec::new();
    for q in &queries {
        if !distinct.contains(q) {
            distinct.push(q.clone());
        }
    }
    let trace: Vec<(Query, SearchOptions)> = queries
        .iter()
        .map(|q| (q.clone(), options.clone()))
        .collect();

    // Reference answers once, from the unsharded searcher.
    let reference: Vec<SearchOutput> = distinct
        .iter()
        .map(|q| match q {
            Query::Scan(t) => searcher.search_scan(*t, &options).expect("baseline query"),
            Query::Keywords(kq) => searcher.search_ta(kq, &options).expect("baseline query"),
        })
        .collect();
    let score_sum: f64 = reference.iter().map(|o| o.total_score.get()).sum();

    // Baseline: the pre-engine serving shape — one uncached searcher call
    // per trace query, sequential.
    let mut wall_ns_runs = Vec::with_capacity(runs);
    let mut peak = 0usize;
    for _ in 0..runs {
        let (m, ok) = measure(|| {
            Some(
                trace
                    .iter()
                    .filter(|(q, opt)| {
                        let out = match q {
                            Query::Scan(t) => searcher.search_scan(*t, opt),
                            Query::Keywords(kq) => searcher.search_ta(kq, opt),
                        };
                        out.is_ok()
                    })
                    .count(),
            )
        });
        let Measurement::Done { time, peak_bytes } = m else {
            unreachable!("closure always returns Some");
        };
        assert_eq!(ok, Some(trace.len()), "baseline query failed");
        wall_ns_runs.push(time.as_nanos());
        peak = peak.max(peak_bytes);
    }
    let baseline_wall = median(&mut wall_ns_runs.clone());
    cells.push(Cell {
        suite: "serving_throughput",
        algo: "searcher-sequential",
        kernel: "unsharded",
        seed: 0,
        n: docs,
        edges: n_total,
        k,
        wall_ns_runs,
        wall_ns: baseline_wall,
        peak_bytes: peak,
        score: Some(score_sum),
    });
    let qps_baseline = n_total as f64 / (baseline_wall as f64 / 1e9);
    eprintln!("[serving_throughput] baseline {qps_baseline:.1} q/s");

    // Engine at 1/2/4/8 shards: batch on the scoped pool, cold cache per
    // run (fresh engine), correctness asserted against the reference.
    let mut qps_by_shards = Vec::new();
    let mut cache_hit_rate_4_shards = 0.0;
    let mut threads = 1;
    for (shards, label) in [
        (1usize, "shards-1"),
        (2, "shards-2"),
        (4, "shards-4"),
        (8, "shards-8"),
    ] {
        // Sharded answers must agree with the unsharded searcher — byte-
        // identical for scans, equal optima for TA. A pure function of
        // (corpus, shards), so checked once per shard config, outside the
        // timing loop.
        {
            let engine = Engine::new(corpus.clone(), EngineConfig::new(shards));
            threads = engine.threads();
            for (query, want) in distinct.iter().zip(&reference) {
                let got = engine.search(query, &options).expect("engine query");
                match query {
                    Query::Scan(_) => assert_eq!(
                        want, &got,
                        "sharded scan diverged from unsharded at {shards} shards"
                    ),
                    Query::Keywords(_) => assert!(
                        got.total_score.approx_eq(want.total_score, 1e-9),
                        "sharded TA optimum diverged at {shards} shards: {} vs {}",
                        got.total_score,
                        want.total_score
                    ),
                }
            }
        }
        let mut wall_ns_runs = Vec::with_capacity(runs);
        let mut peak = 0usize;
        let mut hit_rate = 0.0;
        for _ in 0..runs {
            // Throughput measured on a fresh engine (cold cache).
            let engine = Engine::new(corpus.clone(), EngineConfig::new(shards));
            let (m, ok) = measure(|| {
                Some(
                    engine
                        .search_batch(&trace)
                        .iter()
                        .filter(|r| r.is_ok())
                        .count(),
                )
            });
            let Measurement::Done { time, peak_bytes } = m else {
                unreachable!("closure always returns Some");
            };
            assert_eq!(
                ok,
                Some(trace.len()),
                "engine query failed at {shards} shards"
            );
            wall_ns_runs.push(time.as_nanos());
            peak = peak.max(peak_bytes);
            let stats = engine.stats();
            hit_rate =
                stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses).max(1) as f64;
        }
        let wall = median(&mut wall_ns_runs.clone());
        let qps = n_total as f64 / (wall as f64 / 1e9);
        eprintln!(
            "[serving_throughput] {label}: {qps:.1} q/s (cache hit rate {:.0}%)",
            hit_rate * 100.0
        );
        if shards == 4 {
            cache_hit_rate_4_shards = hit_rate;
        }
        qps_by_shards.push((shards, qps));
        cells.push(Cell {
            suite: "serving_throughput",
            algo: "engine-batch",
            kernel: label,
            seed: shards as u64,
            n: docs,
            edges: n_total,
            k,
            wall_ns_runs,
            wall_ns: wall,
            peak_bytes: peak,
            score: Some(score_sum),
        });
    }

    Some(ThroughputReport {
        qps_baseline,
        qps_by_shards,
        cache_hit_rate_4_shards,
        distinct_queries: distinct.len(),
        total_queries: n_total,
        threads,
    })
}

/// Outcome of the live-update suite, for the JSON summary.
struct LiveUpdateReport {
    qps_segmented: f64,
    qps_rebuild: f64,
    p95_read_ns: u128,
    queries: usize,
    mutation_batches: usize,
    final_segments: usize,
    final_tombstones: usize,
    compactions: u64,
}

/// One scripted operation of the live-update trace (shared verbatim by
/// the segmented engine and the rebuild baseline, so both serve the exact
/// same interleaving).
enum LiveOp {
    /// Append this slice of the donor pool as one batch.
    Add(std::ops::Range<usize>),
    /// Tombstone these doc ids.
    Delete(Vec<DocId>),
    /// One size-tiered compaction step (a no-op for the baseline, whose
    /// from-scratch index is always fully compacted).
    Compact,
    /// Single-keyword diversified query.
    Scan(TermId),
    /// Multi-keyword diversified query.
    Ta(KeywordQuery),
}

/// The live-update suite (DESIGN.md §9): interleaved add/delete/query
/// trace with periodic compaction, segmented engine vs rebuild-per-
/// mutation baseline, equivalence asserted on every query of every run.
fn live_update_suite(
    cells: &mut Vec<Cell>,
    smoke: bool,
    runs: usize,
    budget: Duration,
) -> Option<LiveUpdateReport> {
    let base_docs = if smoke { 240 } else { 4000 };
    let rounds = if smoke { 4 } else { 24 };
    let adds_per_round = if smoke { 6 } else { 16 };
    let deletes_per_round = adds_per_round / 2;
    let k = 6;
    let pool_size = rounds * adds_per_round;

    // Donor corpus: the first `base_docs` documents become the frozen
    // statistics epoch, the rest are the live-add pool (same vocabulary).
    let donor = generate(&SynthConfig::reuters_like().with_num_docs(base_docs + pool_size));
    let mut builder = CorpusBuilder::with_synthetic_vocab(donor.num_terms());
    for d in 0..base_docs as DocId {
        builder.add_document(donor.doc(d).clone());
    }
    let base = builder.build();
    let pool: Vec<Document> = (base_docs..base_docs + pool_size)
        .map(|d| donor.doc(d as DocId).clone())
        .collect();

    // Distinct queries on the base epoch: two busy scan terms, two
    // 2-keyword TA queries from the low kfreq bands.
    let mut scan_terms: Vec<TermId> = (0..base.num_terms() as TermId)
        .filter(|&t| (8..=60).contains(&base.doc_freq(t)))
        .collect();
    scan_terms.sort_by_key(|&t| std::cmp::Reverse(base.doc_freq(t)));
    scan_terms.truncate(2);
    let mut ta_queries: Vec<KeywordQuery> = Vec::new();
    let mut seed = QUERY_SEED;
    while ta_queries.len() < 2 && seed < QUERY_SEED + 10_000 {
        seed += 1;
        let band = 1 + (seed % 3) as u8;
        if let Some(q) = query_for_band(&base, band, 2, seed) {
            if !ta_queries.contains(&q) {
                ta_queries.push(q);
            }
        }
    }
    if scan_terms.len() < 2 || ta_queries.len() < 2 {
        eprintln!("[live_update] could not assemble the query set");
        return None;
    }
    let limits = SearchLimits {
        time_budget: Some(budget),
        max_bytes: Some(1 << 30),
        ..SearchLimits::default()
    };
    let options = SearchOptions::new(k)
        .with_tau(0.6)
        .with_limits(limits)
        .with_bound_decay(0.01);

    // Deterministic script: each round adds a batch, deletes live docs,
    // compacts every 4th round, and serves 2 queries — simulated once so
    // both passes (and all runs) replay the identical interleaving.
    let mut rng = divtopk_core::rng::Pcg::new(QUERY_SEED ^ 0x11FE);
    let mut script: Vec<LiveOp> = Vec::new();
    let mut total_docs = base_docs;
    let mut dead: std::collections::HashSet<DocId> = Default::default();
    let mut queries = 0usize;
    let mut mutation_batches = 0usize;
    for round in 0..rounds {
        let start = round * adds_per_round;
        script.push(LiveOp::Add(start..start + adds_per_round));
        total_docs += adds_per_round;
        mutation_batches += 1;
        let mut victims = Vec::new();
        while victims.len() < deletes_per_round {
            let d = rng.below(total_docs as u32);
            if dead.insert(d) {
                victims.push(d);
            }
        }
        script.push(LiveOp::Delete(victims));
        mutation_batches += 1;
        if round % 4 == 3 {
            script.push(LiveOp::Compact);
            mutation_batches += 1;
        }
        script.push(LiveOp::Scan(scan_terms[round % scan_terms.len()]));
        script.push(LiveOp::Ta(ta_queries[round % ta_queries.len()].clone()));
        queries += 2;
    }

    // Segmented pass: one engine, mutations through the snapshot layer.
    // Returns (per-query outputs, per-query latencies).
    let run_segmented = |record: &mut Vec<(SearchOutput, u128)>| {
        record.clear();
        let engine = Engine::new(base.clone(), EngineConfig::new(2));
        for op in &script {
            match op {
                LiveOp::Add(r) => {
                    engine.add_docs(pool[r.clone()].to_vec());
                }
                LiveOp::Delete(v) => {
                    engine.delete_docs(v);
                }
                LiveOp::Compact => {
                    engine.compact();
                }
                LiveOp::Scan(t) => {
                    let t0 = std::time::Instant::now();
                    let out = engine.search(&Query::Scan(*t), &options).expect("scan");
                    record.push((out, t0.elapsed().as_nanos()));
                }
                LiveOp::Ta(q) => {
                    let t0 = std::time::Instant::now();
                    let out = engine
                        .search(&Query::Keywords(q.clone()), &options)
                        .expect("ta");
                    record.push((out, t0.elapsed().as_nanos()));
                }
            }
        }
        engine
            .verify_rebuild_equivalence()
            .expect("segmented state diverged from rebuild");
        engine.stats()
    };

    // Rebuild baseline: a from-scratch index + weight table after every
    // mutation batch, queried through the plain unsegmented sources.
    let run_rebuild = |record: &mut Vec<SearchOutput>| {
        record.clear();
        let mut view = base.clone();
        let mut deleted: std::collections::HashSet<DocId> = Default::default();
        let mut index = InvertedIndex::build(&view);
        let mut weights = doc_weights(&view);
        for op in &script {
            match op {
                LiveOp::Add(r) => {
                    view.append_frozen(pool[r.clone()].iter().cloned());
                    index = InvertedIndex::build_where(&view, |d| !deleted.contains(&d));
                    weights = doc_weights(&view);
                }
                LiveOp::Delete(v) => {
                    deleted.extend(v.iter().copied());
                    index = InvertedIndex::build_where(&view, |d| !deleted.contains(&d));
                    weights = doc_weights(&view);
                }
                LiveOp::Compact => {}
                LiveOp::Scan(t) => {
                    let source = ScanSource::new(&index, *t);
                    record
                        .push(search_with_source(&view, &weights, source, &options).expect("scan"));
                }
                LiveOp::Ta(q) => {
                    let source = TaSource::new(&view, &index, &q.terms);
                    record.push(search_with_source(&view, &weights, source, &options).expect("ta"));
                }
            }
        }
    };

    let mut seg_outputs: Vec<(SearchOutput, u128)> = Vec::new();
    let mut seg_walls: Vec<u128> = Vec::new();
    // Read latencies pooled across *all* runs — a tail statistic from a
    // single run would let one scheduler hiccup skew the committed p95.
    let mut latencies: Vec<u128> = Vec::new();
    let mut final_stats = None;
    for _ in 0..runs {
        let (m, stats) = measure(|| Some(run_segmented(&mut seg_outputs)));
        let Measurement::Done { time, .. } = m else {
            unreachable!("closure always returns Some");
        };
        seg_walls.push(time.as_nanos());
        latencies.extend(seg_outputs.iter().map(|(_, ns)| *ns));
        final_stats = stats;
    }
    let final_stats = final_stats.expect("at least one run");
    let mut rebuild_outputs: Vec<SearchOutput> = Vec::new();
    let mut rebuild_walls: Vec<u128> = Vec::new();
    for _ in 0..runs {
        let (m, _) = measure(|| {
            run_rebuild(&mut rebuild_outputs);
            Some(())
        });
        let Measurement::Done { time, .. } = m else {
            unreachable!("closure always returns Some");
        };
        rebuild_walls.push(time.as_nanos());
    }

    // The in-suite rebuild-equivalence assertion: the segmented engine
    // and the rebuild-per-mutation oracle answered the same trace.
    assert_eq!(seg_outputs.len(), rebuild_outputs.len());
    let mut op_index = 0usize;
    for op in &script {
        match op {
            LiveOp::Scan(_) => {
                let (got, _) = &seg_outputs[op_index];
                assert_eq!(
                    &rebuild_outputs[op_index], got,
                    "segmented scan diverged from rebuild at query {op_index}"
                );
                op_index += 1;
            }
            LiveOp::Ta(_) => {
                let (got, _) = &seg_outputs[op_index];
                let want = &rebuild_outputs[op_index];
                assert!(
                    got.total_score.approx_eq(want.total_score, 1e-9),
                    "segmented TA optimum diverged at query {op_index}: {} vs {}",
                    got.total_score,
                    want.total_score
                );
                op_index += 1;
            }
            _ => {}
        }
    }

    let seg_wall = median(&mut seg_walls.clone());
    let rebuild_wall = median(&mut rebuild_walls.clone());
    let qps_segmented = queries as f64 / (seg_wall as f64 / 1e9);
    let qps_rebuild = queries as f64 / (rebuild_wall as f64 / 1e9);
    latencies.sort_unstable();
    let p95_read_ns = latencies[((latencies.len() * 95) / 100).min(latencies.len() - 1)];
    let score_sum: f64 = rebuild_outputs.iter().map(|o| o.total_score.get()).sum();
    let read_total_ms: f64 = latencies.iter().map(|&ns| ns as f64 / 1e6).sum::<f64>() / runs as f64;
    eprintln!(
        "[live_update] segmented {qps_segmented:.1} q/s vs rebuild {qps_rebuild:.1} q/s \
         ({:.2}x) · p95 read {:.2} ms (reads {:.0} of {:.0} ms wall) · {} segments · \
         {} tombstones",
        qps_segmented / qps_rebuild,
        p95_read_ns as f64 / 1e6,
        read_total_ms,
        seg_wall as f64 / 1e6,
        final_stats.segments,
        final_stats.tombstones,
    );
    cells.push(Cell {
        suite: "live_update",
        algo: "engine-segmented",
        kernel: "segments",
        seed: 0,
        n: base_docs,
        edges: queries,
        k,
        wall_ns_runs: seg_walls,
        wall_ns: seg_wall,
        peak_bytes: 0,
        score: Some(score_sum),
    });
    cells.push(Cell {
        suite: "live_update",
        algo: "searcher-rebuild",
        kernel: "rebuild-per-mutation",
        seed: 0,
        n: base_docs,
        edges: queries,
        k,
        wall_ns_runs: rebuild_walls,
        wall_ns: rebuild_wall,
        peak_bytes: 0,
        score: Some(score_sum),
    });
    Some(LiveUpdateReport {
        qps_segmented,
        qps_rebuild,
        p95_read_ns,
        queries,
        mutation_batches,
        final_segments: final_stats.segments,
        final_tombstones: final_stats.tombstones,
        compactions: final_stats.compactions,
    })
}

/// Outcome of the serving-latency suite, for the JSON summary.
struct ServingLatencyReport {
    /// `(shards, achieved q/s, p50 ms, p95 ms, p99 ms)` per shard count.
    by_shards: Vec<(usize, f64, f64, f64, f64)>,
    /// Parallel-pull pool size the engine auto-selected (0 = sequential —
    /// the honest caveat for numbers generated on a single-core host).
    pull_workers: usize,
    requests_per_shard_count: usize,
}

/// The serving-latency suite (DESIGN.md §8): a real [`Server`] on a real
/// TCP socket per shard count, driven by the same open-loop client the
/// `loadgen` binary uses. The result cache is disabled so every request
/// pays a full search, and the engine's parallel-pull pool is auto-sized
/// — on a multi-core host the per-query latency at 4+ shards drops below
/// the 1-shard sequential merge, which is the
/// `serving_latency_shard_speedup` headline (p50@1 shard / p50@4 shards).
/// Latency is measured from each request's *scheduled* arrival, so
/// server-side queueing counts against the server.
fn serving_latency_suite(cells: &mut Vec<Cell>, smoke: bool) -> Option<ServingLatencyReport> {
    use divtopk_bench::load::{LoadSpec, run_open_loop};
    let docs = if smoke { 400 } else { 2000 };
    let shard_counts: &[usize] = if smoke { &[1, 4] } else { &[1, 2, 4, 8] };
    // The full-run arrival rate must sit below a *single-core* host's
    // service capacity (~45 q/s at k = 10 with the cache off): open-loop
    // latency is measured from the scheduled arrival, so a saturating
    // rate measures backlog growth, not service — p50 explodes into
    // seconds and drowns the per-shard signal the suite exists to
    // capture.
    let (rate, total) = if smoke { (30.0, 40usize) } else { (20.0, 200) };
    let k = if smoke { 6 } else { 10 };
    let corpus = generate(&SynthConfig::reuters_like().with_num_docs(docs));
    let mut by_shards = Vec::new();
    let mut pull_workers = 0usize;
    for &shards in shard_counts {
        let label = match shards {
            1 => "shards-1",
            2 => "shards-2",
            4 => "shards-4",
            8 => "shards-8",
            _ => unreachable!("unmeasured shard count"),
        };
        let engine = Engine::new(
            corpus.clone(),
            EngineConfig::new(shards).with_cache_capacity(0),
        );
        pull_workers = pull_workers.max(engine.pull_workers());
        let server = Server::start(
            std::sync::Arc::new(engine),
            "127.0.0.1:0",
            ServerConfig {
                workers: 2,
                queue_capacity: 64,
            },
        )
        .expect("binding the serving-latency server");
        let spec = LoadSpec {
            addr: server.addr().to_string(),
            rate,
            total,
            connections: 2,
            seed: QUERY_SEED,
            ta_fraction: 0.25,
            k: k as u32,
            tau: 0.5,
            shape: divtopk_bench::load::ArrivalShape::Uniform,
        };
        let baseline = divtopk_bench::reset_peak();
        let report = match run_open_loop(&spec) {
            Ok(report) => report,
            Err(why) => {
                eprintln!("[serving_latency] {label}: {why}");
                return None;
            }
        };
        let peak_bytes = divtopk_bench::peak_since(baseline);
        drop(server); // graceful shutdown before the next shard count binds
        assert_eq!(report.errors, 0, "serving errors at {shards} shards");
        assert!(report.ok > 0, "no served requests at {shards} shards");
        let (qps, p50, p95, p99) = (
            report.qps(),
            report.quantile_ms(0.50),
            report.quantile_ms(0.95),
            report.quantile_ms(0.99),
        );
        eprintln!(
            "[serving_latency] {label}: {qps:.1} q/s, p50 {p50:.2} ms, p95 {p95:.2} ms, \
             p99 {p99:.2} ms ({} overloaded)",
            report.overloaded
        );
        by_shards.push((shards, qps, p50, p95, p99));
        // One cell per shard count: every request is one "run", wall_ns
        // is the median (p50) request latency, score the achieved q/s.
        let wall_ns_runs: Vec<u128> = report.latencies_ns.iter().map(|&ns| ns as u128).collect();
        let wall_ns = wall_ns_runs[wall_ns_runs.len() / 2];
        cells.push(Cell {
            suite: "serving_latency",
            algo: "server-openloop",
            kernel: label,
            seed: shards as u64,
            n: docs,
            edges: total,
            k,
            wall_ns_runs,
            wall_ns,
            peak_bytes,
            score: Some(qps),
        });
    }
    Some(ServingLatencyReport {
        by_shards,
        pull_workers,
        requests_per_shard_count: total,
    })
}

struct QualityGateReport {
    families: usize,
    queries: usize,
    worst_ndcg_delta: f64,
    worst_mrr_delta: f64,
    min_unique_sources_gain: f64,
    min_dissimilarity_gain: f64,
}

/// The query-pack quality suite (DESIGN.md §12): replays the built-in
/// default pack through the engine twice per query — diversity on vs.
/// off — and records per-family diversity/relevance deltas as cells. The
/// pack's own gates are *enforced*: a failed gate aborts the perfbase
/// run, the same way the standalone `quality_gate` binary exits
/// non-zero. Identical in smoke and full runs (the pack is tiny).
fn quality_gate_suite(cells: &mut Vec<Cell>) -> Option<QualityGateReport> {
    let pack = QueryPack::default_pack();
    eprintln!(
        "[quality_gate] pack {:?} ({} families)",
        pack.name,
        pack.families.len()
    );
    let report = match evaluate(&pack) {
        Ok(report) => report,
        Err(why) => {
            eprintln!("[quality_gate] evaluation failed: {why}");
            return None;
        }
    };
    for failure in report.failures() {
        eprintln!("[quality_gate] FAIL {failure}");
    }
    assert!(
        report.pass(),
        "quality_gate suite failed: {}",
        report
            .failures()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("; ")
    );
    let mut summary = QualityGateReport {
        families: report.families.len(),
        queries: 0,
        worst_ndcg_delta: 0.0,
        worst_mrr_delta: 0.0,
        min_unique_sources_gain: f64::INFINITY,
        min_dissimilarity_gain: f64::INFINITY,
    };
    for (family, spec) in report.families.iter().zip(&pack.families) {
        summary.queries += family.queries;
        summary.worst_ndcg_delta = summary.worst_ndcg_delta.min(family.deltas.ndcg_delta);
        summary.worst_mrr_delta = summary.worst_mrr_delta.min(family.deltas.mrr_delta);
        summary.min_unique_sources_gain = summary
            .min_unique_sources_gain
            .min(family.deltas.unique_sources_gain);
        summary.min_dissimilarity_gain = summary
            .min_dissimilarity_gain
            .min(family.deltas.dissimilarity_gain);
        eprintln!(
            "[quality_gate] {}: uniq {:+.3}, dissim {:+.3}, ndcg {:+.4} — pass",
            family.name,
            family.deltas.unique_sources_gain,
            family.deltas.dissimilarity_gain,
            family.deltas.ndcg_delta
        );
        // One cell per family: wall time is the diversity-on p95 engine
        // latency; the score column carries the NDCG delta the gates
        // guard (cross-run comparable — the pack is deterministic).
        let p95_ns = (family.on.p95_ms * 1e6).max(0.0) as u128;
        cells.push(Cell {
            suite: "quality_gate",
            algo: "on-vs-off",
            kernel: Box::leak(family.name.clone().into_boxed_str()),
            seed: pack.seed,
            n: family.queries,
            edges: 0,
            k: spec.k,
            wall_ns_runs: vec![p95_ns],
            wall_ns: p95_ns,
            peak_bytes: 0,
            score: Some(family.deltas.ndcg_delta),
        });
    }
    Some(summary)
}

/// One measured frontier point: a diversify mode on a corpus shape.
struct FrontierRow {
    mode: &'static str,
    shape: &'static str,
    /// Relative optimality gap vs the exact diversified optimum:
    /// `(exact_total − mode_total) / exact_total`. Negative means the
    /// mode's raw relevance total *exceeds* the constrained optimum by
    /// ignoring the dissimilarity constraint (plain top-k does).
    gap: f64,
    /// Pairs of the selection above τ (0 for any feasible answer).
    violations: usize,
    /// Median Exact(Cut) wall over this mode's median wall.
    speedup_vs_exact: f64,
}

/// Outcome of the frontier suite, for the JSON summary.
struct FrontierReport {
    modes: usize,
    shapes: usize,
    rows: Vec<FrontierRow>,
    /// Best exact-vs-cheap speedup among the rerank modes (MMR, window,
    /// DisC, KNN) and the gap measured at that point.
    best_cheap_speedup: f64,
    best_cheap_speedup_gap: f64,
}

/// The gap × latency frontier suite (DESIGN.md §15): every
/// [`DiversifyMode`] on the two paper corpus shapes (reuters-like
/// single-keyword scan, enwiki-like 2-keyword TA), measured against the
/// exact diversified optimum that `Exact(Cut)` — provably exact —
/// produces on the same query. Before any timing, the suite asserts the
/// mode-dispatched `Exact(Cut)` answer is **byte-identical** to driving
/// the core framework directly (the pre-redesign call shape), so the
/// frontier's oracle is pinned to the old behaviour.
fn frontier_suite(
    cells: &mut Vec<Cell>,
    smoke: bool,
    runs: usize,
    budget: Duration,
) -> Option<FrontierReport> {
    let docs = if smoke { 400 } else { 4000 };
    let k = if smoke { 8 } else { 10 };
    let tau = 0.6;
    let limits = SearchLimits {
        time_budget: Some(budget),
        max_bytes: Some(1 << 30),
        ..SearchLimits::default()
    };
    let modes: [(&'static str, DiversifyMode); 6] = [
        ("exact-cut", DiversifyMode::Exact(ExactAlgorithm::Cut)),
        ("none", DiversifyMode::None),
        ("mmr", DiversifyMode::mmr(0.7)),
        ("window", DiversifyMode::window()),
        ("disc", DiversifyMode::Disc),
        ("knn", DiversifyMode::knn()),
    ];
    let mut rows: Vec<FrontierRow> = Vec::new();
    let mut shapes = 0usize;
    for (shape, config, terms) in [
        (
            "reuters_scan",
            SynthConfig::reuters_like().with_num_docs(docs),
            1usize,
        ),
        (
            "enwiki_ta",
            SynthConfig::enwiki_like().with_num_docs(docs),
            2usize,
        ),
    ] {
        let corpus = generate(&config);
        let index = InvertedIndex::build(&corpus);
        let searcher = DiversifiedSearcher::new(&corpus, &index);
        let Some(query) = query_for_band(&corpus, 3, terms, QUERY_SEED) else {
            eprintln!("[frontier] {shape}: no band-3 query, skipping shape");
            continue;
        };
        shapes += 1;
        let run_once = |mode: &DiversifyMode| {
            let options = SearchOptions::new(k)
                .with_tau(tau)
                .with_mode(mode.clone())
                .with_limits(limits.clone())
                .with_bound_decay(0.005);
            if terms == 1 {
                searcher.search_scan(query.terms[0], &options).ok()
            } else {
                searcher.search_ta(&query, &options).ok()
            }
        };
        // Oracle byte-identity: Exact(Cut) through `DiversifyMode` must be
        // the pre-redesign direct framework run, bit for bit.
        if terms == 1 {
            let via_mode = run_once(&DiversifyMode::Exact(ExactAlgorithm::Cut))
                .expect("exact frontier oracle");
            let weights = doc_weights(&corpus);
            let direct = DivTopK::new(
                ScanSource::new(&index, query.terms[0]),
                |a: &DocId, b: &DocId| {
                    similar_above(
                        corpus.idf_table(),
                        corpus.doc(*a),
                        weights[*a as usize],
                        corpus.doc(*b),
                        weights[*b as usize],
                        tau,
                    )
                },
                DivSearchConfig::new(k)
                    .with_limits(limits.clone())
                    .with_bound_decay(0.005),
            )
            .run()
            .expect("direct frontier oracle");
            assert_eq!(
                via_mode
                    .hits
                    .iter()
                    .map(|h| (h.doc, h.score))
                    .collect::<Vec<_>>(),
                direct
                    .selected
                    .iter()
                    .map(|r| (r.item, r.score))
                    .collect::<Vec<_>>(),
                "frontier oracle drifted from the direct framework run ({shape})"
            );
            assert_eq!(via_mode.total_score, direct.total_score);
        }
        // Measure every mode; Exact(Cut) goes first so its median wall
        // and total anchor the gap and speedup columns.
        let mut exact_total = 0.0f64;
        let mut exact_wall = 0u128;
        for (name, mode) in &modes {
            let mut wall_ns_runs = Vec::with_capacity(runs);
            let mut peak_bytes = 0usize;
            let mut total = None;
            let mut out_hits: Vec<Scored<DocId>> = Vec::new();
            for _ in 0..runs {
                let (m, out) = measure(|| run_once(mode));
                match (m, out) {
                    (
                        Measurement::Done {
                            time,
                            peak_bytes: p,
                        },
                        Some(out),
                    ) => {
                        wall_ns_runs.push(time.as_nanos());
                        peak_bytes = peak_bytes.max(p);
                        total = Some(out.total_score.get());
                        out_hits = out
                            .hits
                            .iter()
                            .map(|h| Scored::new(h.doc, h.score))
                            .collect();
                    }
                    _ => {
                        wall_ns_runs.clear();
                        total = None;
                        break;
                    }
                }
            }
            let wall_ns = median(&mut wall_ns_runs.clone());
            cells.push(Cell {
                suite: "frontier",
                algo: name,
                kernel: shape,
                seed: QUERY_SEED,
                n: corpus.num_docs(),
                edges: 0,
                k,
                wall_ns_runs,
                wall_ns,
                peak_bytes,
                score: total,
            });
            let Some(total) = total else { continue };
            if *name == "exact-cut" {
                exact_total = total;
                exact_wall = wall_ns;
                rows.push(FrontierRow {
                    mode: name,
                    shape,
                    gap: 0.0,
                    violations: 0,
                    speedup_vs_exact: 1.0,
                });
                continue;
            }
            let gap = if exact_total > 0.0 {
                (exact_total - total) / exact_total
            } else {
                0.0
            };
            let (violations, _) = redundancy(&corpus, &out_hits, tau);
            let speedup = if wall_ns > 0 {
                exact_wall as f64 / wall_ns as f64
            } else {
                0.0
            };
            eprintln!(
                "[frontier] {shape}/{name}: gap {gap:+.4}, {violations} violations, \
                 {speedup:.1}x vs exact-cut"
            );
            rows.push(FrontierRow {
                mode: name,
                shape,
                gap,
                violations,
                speedup_vs_exact: speedup,
            });
        }
    }
    if rows.is_empty() {
        return None;
    }
    let (mut best_cheap_speedup, mut best_cheap_speedup_gap) = (0.0f64, 0.0f64);
    for row in &rows {
        if matches!(row.mode, "mmr" | "window" | "disc" | "knn")
            && row.speedup_vs_exact > best_cheap_speedup
        {
            best_cheap_speedup = row.speedup_vs_exact;
            best_cheap_speedup_gap = row.gap;
        }
    }
    Some(FrontierReport {
        modes: modes.len(),
        shapes,
        rows,
        best_cheap_speedup,
        best_cheap_speedup_gap,
    })
}

/// Every suite a complete perfbase run records cells for.
const EXPECTED_SUITES: [&str; 11] = [
    "planted_default",
    "planted_dense_neardup",
    "path",
    "synth_reuters_scan",
    "synth_enwiki_ta",
    "serving_throughput",
    "live_update",
    "cold_start",
    "serving_latency",
    "quality_gate",
    "frontier",
];

/// Every summary key a complete perfbase run publishes (all numeric; all
/// must be finite).
const EXPECTED_SUMMARY_KEYS: [&str; 28] = [
    "frontier_modes",
    "frontier_shapes",
    "frontier_best_cheap_speedup",
    "frontier_best_cheap_speedup_gap",
    "frontier_oracle_identity_pass",
    "throughput_qps_baseline",
    "throughput_speedup_4_shards_vs_baseline",
    "throughput_cache_hit_rate_4_shards",
    "throughput_total_queries",
    "live_update_speedup",
    "live_update_p95_read_ns",
    "live_update_queries",
    "cold_start_speedup",
    "cold_start_load_ms",
    "cold_start_snapshot_bytes",
    "checkpoint_full_bytes",
    "checkpoint_delta_bytes_small",
    "checkpoint_delta_bytes_large",
    "checkpoint_delta_ratio",
    "serving_latency_qps",
    "serving_latency_p50_ms",
    "serving_latency_p95_ms",
    "serving_latency_p99_ms",
    "serving_latency_shard_speedup",
    "quality_gate_pass",
    "quality_gate_families",
    "quality_gate_worst_ndcg_delta",
    "quality_gate_min_unique_sources_gain",
];

/// `--verify PATH`: structurally validates a trajectory file via the
/// [`json::parse`] DOM — strict well-formedness, the expected schema, a
/// non-empty cell list in which **every expected suite actually ran**,
/// and a summary carrying every expected key with a finite numeric value
/// (every other numeric summary entry must be finite too). This replaces
/// the old CI grep chain, which could only assert that a substring
/// appeared somewhere in the file.
fn verify_trajectory(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = json::parse(&text)?;
    let schema = doc
        .get("schema")
        .and_then(json::Value::as_str)
        .ok_or("missing \"schema\" key")?;
    if schema != "divtopk-perfbase/1" {
        return Err(format!("unexpected schema {schema:?}"));
    }
    let cells = doc
        .get("cells")
        .and_then(json::Value::as_array)
        .ok_or("missing \"cells\" array")?;
    if cells.is_empty() {
        return Err("empty cell list".to_string());
    }
    let mut suites_seen: Vec<&str> = Vec::new();
    for (i, cell) in cells.iter().enumerate() {
        let suite = cell
            .get("suite")
            .and_then(json::Value::as_str)
            .ok_or(format!("cell {i}: missing \"suite\""))?;
        if !suites_seen.contains(&suite) {
            suites_seen.push(suite);
        }
        let status = cell
            .get("status")
            .and_then(json::Value::as_str)
            .ok_or(format!("cell {i}: missing \"status\""))?;
        if status != "done" && status != "inf" {
            return Err(format!("cell {i}: unknown status {status:?}"));
        }
        let wall = cell
            .get("wall_ns")
            .and_then(json::Value::as_f64)
            .ok_or(format!("cell {i}: missing \"wall_ns\""))?;
        if !wall.is_finite() || wall < 0.0 {
            return Err(format!("cell {i}: bad wall_ns {wall}"));
        }
    }
    for want in &EXPECTED_SUITES {
        if !suites_seen.contains(want) {
            return Err(format!("suite {want:?} produced no cells"));
        }
    }
    let summary = doc
        .get("summary")
        .and_then(json::Value::as_object)
        .ok_or("missing \"summary\" object")?;
    for want in EXPECTED_SUMMARY_KEYS {
        let value = summary
            .iter()
            .find(|(k, _)| k == want)
            .map(|(_, v)| v)
            .ok_or(format!("summary key {want:?} missing"))?;
        let n = value
            .as_f64()
            .ok_or(format!("summary key {want:?} is not a number"))?;
        if !n.is_finite() {
            return Err(format!("summary key {want:?} is not finite ({n})"));
        }
    }
    // Any other numeric summary entry must be finite too — a NaN/inf
    // statistic is always a harness bug, whatever its name.
    for (key, value) in summary {
        if let Some(n) = value.as_f64() {
            if !n.is_finite() {
                return Err(format!("summary key {key:?} is not finite ({n})"));
            }
        }
    }
    Ok(format!(
        "OK ({} cells, {} suites, {} summary keys)",
        cells.len(),
        suites_seen.len(),
        summary.len()
    ))
}

/// Outcome of the cold-start suite, for the JSON summary.
struct ColdStartReport {
    load_ns: u128,
    rebuild_ns: u128,
    snapshot_bytes: u64,
    docs: usize,
    /// First-checkpoint bytes at the full corpus size.
    checkpoint_full_bytes: u64,
    /// Incremental-checkpoint bytes after one identical mutation batch,
    /// at the small and the full corpus size. Their ratio is the
    /// O(delta) evidence: checkpoint cost must not scale with corpus
    /// size (DESIGN.md §14).
    checkpoint_delta_bytes_small: u64,
    checkpoint_delta_bytes_large: u64,
}

/// The cold-start suite (DESIGN.md §14): how fast does a serving process
/// restart from a checksummed snapshot versus rebuilding its indexes from
/// the in-memory corpus (the pre-PR-5 restart shape — and a *generous*
/// baseline: a real restart would first re-parse the documents too)?
///
/// The measured state is not a fresh build: the engine has live deletes
/// on top of the partitioned base, so the snapshot carries segments,
/// tombstones, and a non-zero generation. Every run asserts the loaded
/// engine answers **byte-identically** to the engine that saved the
/// snapshot (scans `assert_eq!` on the whole `SearchOutput`; TA on the
/// optimum) and finishes with `verify_rebuild_equivalence` on loaded
/// state.
fn cold_start_suite(
    cells: &mut Vec<Cell>,
    smoke: bool,
    runs: usize,
    budget: Duration,
) -> Option<ColdStartReport> {
    // Full size is a multiple of the document-store chunk size (1024),
    // so the base corpus fills sealed chunks exactly and the
    // incremental-checkpoint axis below measures a clean delta (the
    // mutation batch lands in a fresh tail chunk at both sizes).
    let docs = if smoke { 400 } else { 102_400 };
    let k = if smoke { 6 } else { 10 };
    let corpus = generate(&SynthConfig::reuters_like().with_num_docs(docs));
    let limits = SearchLimits {
        time_budget: Some(budget),
        max_bytes: Some(1 << 30),
        ..SearchLimits::default()
    };
    let options = SearchOptions::new(k)
        .with_tau(0.6)
        .with_limits(limits)
        .with_bound_decay(0.005);
    let config = EngineConfig::new(2);

    // The state to persist: partitioned base + a deterministic spread of
    // deletions (every 37th document). Deletion-only mutations keep the
    // rebuild baseline exact: `Engine::new` + the same `delete_docs`
    // reproduces the identical segment layout and tombstone set.
    let victims: Vec<DocId> = (0..docs as DocId).step_by(37).collect();
    let engine = Engine::new(corpus.clone(), config.clone());
    engine.delete_docs(&victims);

    let path = std::env::temp_dir().join(format!(
        "divtopk-perfbase-coldstart-{}.snapshot",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&path);
    let save_report = engine.save_snapshot(&path).expect("snapshot save");
    let snapshot_bytes = save_report.total_bytes;

    // Query set for the correctness assertion (and the score column).
    let mut queries: Vec<Query> = Vec::new();
    let mut seed = QUERY_SEED;
    while queries.len() < 4 && seed < QUERY_SEED + 10_000 {
        seed += 1;
        let band = 1 + (seed % 3) as u8;
        let terms = if queries.len() % 2 == 0 { 1 } else { 2 };
        if let Some(q) = query_for_band(&corpus, band, terms, seed) {
            let query = if q.terms.len() == 1 {
                Query::Scan(q.terms[0])
            } else {
                Query::Keywords(q)
            };
            if !queries.contains(&query) {
                queries.push(query);
            }
        }
    }
    if queries.len() < 4 {
        eprintln!("[cold_start] could not assemble the query set");
        let _ = std::fs::remove_file(&path);
        return None;
    }
    let reference: Vec<SearchOutput> = queries
        .iter()
        .map(|q| engine.search(q, &options).expect("reference query"))
        .collect();
    let score_sum: f64 = reference.iter().map(|o| o.total_score.get()).sum();

    // Correctness once, outside the timing loops: byte-equality of every
    // answer class on the loaded engine, then the data-level oracle.
    {
        let loaded = Engine::load_snapshot(&path, &config).expect("snapshot load");
        assert_eq!(
            loaded.generation(),
            engine.generation(),
            "generation must survive the round trip"
        );
        for (query, want) in queries.iter().zip(&reference) {
            let got = loaded.search(query, &options).expect("loaded query");
            match query {
                Query::Scan(_) => {
                    assert_eq!(want, &got, "loaded scan diverged from the saved engine")
                }
                Query::Keywords(_) => assert!(
                    got.total_score.approx_eq(want.total_score, 1e-9),
                    "loaded TA optimum diverged: {} vs {}",
                    got.total_score,
                    want.total_score
                ),
            }
        }
        loaded
            .verify_rebuild_equivalence()
            .expect("loaded state diverged from rebuild");
    }

    // Load path: snapshot file → serving-ready engine.
    let mut load_runs = Vec::with_capacity(runs);
    let mut load_peak = 0usize;
    for _ in 0..runs {
        let (m, ok) = measure(|| Engine::load_snapshot(&path, &config).ok().map(|_| ()));
        let Measurement::Done { time, peak_bytes } = m else {
            unreachable!("load_snapshot returns");
        };
        assert_eq!(ok, Some(()), "snapshot load failed");
        load_runs.push(time.as_nanos());
        load_peak = load_peak.max(peak_bytes);
    }
    let load_ns = median(&mut load_runs.clone());

    // Rebuild path: the same serving state from the stored documents, as
    // a restart without snapshots must produce it — vocabulary interning,
    // document frequencies and the IDF table (the frozen statistics
    // epoch), then index build + sort + the weight table + tombstone
    // replay. Still generous to the baseline: the documents arrive
    // pre-tokenized (a real restart would re-parse text first). The
    // synthetic vocabulary is deterministic, so the rebuilt epoch is
    // bit-identical to the saved one.
    let mut rebuild_runs = Vec::with_capacity(runs);
    let mut rebuild_peak = 0usize;
    for _ in 0..runs {
        let (m, ok) = measure(|| {
            let mut builder = CorpusBuilder::with_synthetic_vocab(corpus.num_terms());
            for doc in corpus.docs() {
                builder.add_document(doc.clone());
            }
            let rebuilt = Engine::new(builder.build(), config.clone());
            rebuilt.delete_docs(&victims);
            Some(())
        });
        let Measurement::Done { time, peak_bytes } = m else {
            unreachable!("closure always returns Some");
        };
        assert_eq!(ok, Some(()));
        rebuild_runs.push(time.as_nanos());
        rebuild_peak = rebuild_peak.max(peak_bytes);
    }
    let rebuild_ns = median(&mut rebuild_runs.clone());
    let _ = std::fs::remove_dir_all(&path);

    // Incremental-checkpoint axis: apply one *identical* mutation batch
    // at two corpus sizes and compare the second checkpoint's
    // bytes-written. With the segment-granular layout the delta is the
    // new segment + the tail chunk + the manifest — so the two numbers
    // must stay comparable even though the corpora differ 4x in size
    // (the old monolithic snapshot rewrote every byte, scaling 4x here).
    let checkpoint_delta = |docs_n: usize, tag: &str| -> (u64, u64, u128) {
        let corpus = generate(&SynthConfig::reuters_like().with_num_docs(docs_n));
        let n_terms = corpus.num_terms() as TermId;
        let engine = Engine::new(corpus, config.clone());
        let dir = std::env::temp_dir().join(format!(
            "divtopk-perfbase-ckpt-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let full = engine.save_snapshot(&dir).expect("full checkpoint");
        let batch: Vec<Document> = (0..64)
            .map(|i: u32| {
                Document::from_tokens(
                    format!("delta{i}"),
                    vec![(i * 7) % n_terms, (i * 13) % n_terms, (i * 29) % n_terms],
                )
            })
            .collect();
        engine.add_docs(batch);
        engine.delete_docs(&[1, 3]);
        let t0 = Instant::now();
        let delta = engine.save_snapshot(&dir).expect("incremental checkpoint");
        let delta_ns = t0.elapsed().as_nanos();
        // The incremental checkpoint must reuse the sealed prefix...
        assert!(
            delta.files_reused > 0,
            "incremental checkpoint reused nothing ({delta:?})"
        );
        // The byte bound only means something when the corpus dwarfs
        // the mutation batch and spans many chunks — at smoke scale the
        // whole doc store is one always-rewritten tail chunk, so only
        // the full run asserts it (smoke still checks reuse happened
        // and the loaded state is byte-identical).
        if !smoke {
            assert!(
                delta.bytes_written * 4 < full.bytes_written,
                "incremental checkpoint is not O(delta): wrote {} of {} bytes",
                delta.bytes_written,
                full.bytes_written
            );
        }
        // ...and still load back byte-identically.
        let loaded = Engine::load_snapshot(&dir, &config).expect("delta load");
        assert_eq!(loaded.generation(), engine.generation());
        loaded
            .verify_rebuild_equivalence()
            .expect("delta-checkpointed state diverged from rebuild");
        let _ = std::fs::remove_dir_all(&dir);
        (full.bytes_written, delta.bytes_written, delta_ns)
    };
    let (_, delta_small, delta_small_ns) = checkpoint_delta(docs / 4, "small");
    let (full_large, delta_large, delta_large_ns) = checkpoint_delta(docs, "large");
    // Same scale caveat as above: at smoke size both corpora live in a
    // single tail chunk, so the delta tracks the corpus by construction.
    if !smoke {
        assert!(
            (delta_large as f64) < (delta_small as f64) * 2.0,
            "checkpoint delta scaled with corpus size: {delta_small} -> {delta_large} bytes"
        );
    }

    eprintln!(
        "[cold_start] load {:.2} ms vs rebuild {:.2} ms ({:.2}x) · snapshot {:.2} MB · ckpt delta {:.1} KB (x4 corpus: {:.1} KB)",
        load_ns as f64 / 1e6,
        rebuild_ns as f64 / 1e6,
        rebuild_ns as f64 / load_ns as f64,
        snapshot_bytes as f64 / (1024.0 * 1024.0),
        delta_small as f64 / 1024.0,
        delta_large as f64 / 1024.0,
    );
    cells.push(Cell {
        suite: "cold_start",
        algo: "engine-load",
        kernel: "snapshot",
        seed: 0,
        n: docs,
        edges: queries.len(),
        k,
        wall_ns_runs: load_runs,
        wall_ns: load_ns,
        peak_bytes: load_peak,
        score: Some(score_sum),
    });
    cells.push(Cell {
        suite: "cold_start",
        algo: "engine-rebuild",
        kernel: "from-corpus",
        seed: 0,
        n: docs,
        edges: queries.len(),
        k,
        wall_ns_runs: rebuild_runs,
        wall_ns: rebuild_ns,
        peak_bytes: rebuild_peak,
        score: Some(score_sum),
    });
    cells.push(Cell {
        suite: "cold_start",
        algo: "checkpoint-delta",
        kernel: "small-corpus",
        seed: 0,
        n: docs / 4,
        edges: delta_small as usize,
        k,
        wall_ns_runs: vec![delta_small_ns],
        wall_ns: delta_small_ns,
        peak_bytes: 0,
        score: None,
    });
    cells.push(Cell {
        suite: "cold_start",
        algo: "checkpoint-delta",
        kernel: "large-corpus",
        seed: 0,
        n: docs,
        edges: delta_large as usize,
        k,
        wall_ns_runs: vec![delta_large_ns],
        wall_ns: delta_large_ns,
        peak_bytes: 0,
        score: None,
    });
    Some(ColdStartReport {
        load_ns,
        rebuild_ns,
        snapshot_bytes,
        docs,
        checkpoint_full_bytes: full_large,
        checkpoint_delta_bytes_small: delta_small,
        checkpoint_delta_bytes_large: delta_large,
    })
}

/// The pinned dense near-duplicate configuration (dense clusters ≈
/// near-dup chains; see DESIGN.md §3). Few large, very dense clusters:
/// independence checks dominate the search, which is exactly the regime
/// the bitset kernel targets.
fn dense_neardup_config(smoke: bool) -> ClusterConfig {
    if smoke {
        ClusterConfig {
            clusters: 3,
            cluster_size: 12,
            intra_p: 0.95,
            bridges: 3,
            singletons: 4,
        }
    } else {
        ClusterConfig {
            clusters: 4,
            cluster_size: 60,
            intra_p: 0.95,
            bridges: 4,
            singletons: 6,
        }
    }
}

fn main() {
    let mut out_path = String::from("BENCH_9.json");
    let mut smoke = false;
    let mut runs_override: Option<usize> = None;
    let mut verify_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--runs" => {
                runs_override = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--runs needs a number"),
                );
            }
            "--verify" => verify_path = Some(args.next().expect("--verify needs a path")),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: perfbase [--smoke] [--out PATH] [--runs N] | --verify PATH");
                std::process::exit(2);
            }
        }
    }
    if let Some(path) = verify_path {
        match verify_trajectory(&path) {
            Ok(report) => {
                eprintln!("[verify] {path}: {report}");
            }
            Err(e) => {
                eprintln!("[verify] {path}: FAILED: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let runs = runs_override.unwrap_or(if smoke { 1 } else { 5 });
    let seeds: &[u64] = if smoke { &[1] } else { &[1, 2, 3, 4, 5] };
    let budget = if smoke {
        Duration::from_secs(10)
    } else {
        Duration::from_secs(60)
    };

    let mut cells: Vec<Cell> = Vec::new();

    // Suite 1: the default planted-cluster shape (clusters + bridges +
    // singletons — §3's corpus shape) on all three algorithms.
    let default_k = if smoke { 8 } else { 20 };
    for &seed in seeds {
        let g = testgen::planted_clusters(&ClusterConfig::default(), seed);
        for algo in [Algo::AStar, Algo::Dp, Algo::Cut] {
            eprintln!("[planted_default] seed {seed} {}", algo.name());
            cells.push(graph_cell(
                "planted_default",
                &g,
                seed,
                default_k,
                algo,
                runs,
                budget,
            ));
        }
    }

    // Suite 2: dense near-duplicate clusters — where the independence
    // checks dominate.
    let neardup = dense_neardup_config(smoke);
    let neardup_k = if smoke { 6 } else { 12 };
    for &seed in seeds {
        let g = testgen::planted_clusters(&neardup, seed);
        for algo in [Algo::AStar, Algo::Cut] {
            eprintln!("[planted_dense_neardup] seed {seed} {}", algo.name());
            cells.push(graph_cell(
                "planted_dense_neardup",
                &g,
                seed,
                neardup_k,
                algo,
                runs,
                budget,
            ));
        }
    }

    // Suite 3: a pure path (div-cut's best case, every interior node a cut
    // point).
    let path_n = if smoke { 40 } else { 200 };
    let path_k = if smoke { 8 } else { 32 };
    for &seed in seeds {
        let g = testgen::path_graph(path_n, seed);
        for algo in [Algo::Dp, Algo::Cut] {
            cells.push(graph_cell("path", &g, seed, path_k, algo, runs, budget));
        }
    }

    // Suite 4: end-to-end framework queries on the synthetic corpora
    // (single-keyword scan on reuters-like, 2-keyword TA on enwiki-like).
    let docs = if smoke { 400 } else { 4000 };
    let synth_k = if smoke { 20 } else { 60 };
    {
        let config = SynthConfig::reuters_like().with_num_docs(docs);
        let corpus = generate(&config);
        let index = InvertedIndex::build(&corpus);
        eprintln!("[synth_reuters_scan] {} docs", corpus.num_docs());
        if let Some(cell) = synth_cell(
            "synth_reuters_scan",
            &corpus,
            &index,
            3,
            1,
            synth_k,
            runs,
            budget,
        ) {
            cells.push(cell);
        }
    }
    {
        let config = SynthConfig::enwiki_like().with_num_docs(docs);
        let corpus = generate(&config);
        let index = InvertedIndex::build(&corpus);
        eprintln!("[synth_enwiki_ta] {} docs", corpus.num_docs());
        if let Some(cell) = synth_cell(
            "synth_enwiki_ta",
            &corpus,
            &index,
            3,
            2,
            synth_k,
            runs,
            budget,
        ) {
            cells.push(cell);
        }
    }

    // Suite 5: serving-engine batch throughput vs shard count, plus the
    // naive uncached searcher baseline (DESIGN.md §8).
    let throughput = serving_throughput_suite(&mut cells, smoke, runs, budget);

    // Suite 6: live-update serving — interleaved add/delete/query trace,
    // segmented engine vs rebuild-per-mutation baseline (DESIGN.md §9).
    let live_update = live_update_suite(&mut cells, smoke, runs, budget);

    // Suite 7: cold-start persistence — snapshot load vs index rebuild
    // (DESIGN.md §14).
    let cold_start = cold_start_suite(&mut cells, smoke, runs, budget);

    // Suite 8: end-to-end serving latency over TCP — open-loop trace
    // against a live server per shard count (DESIGN.md §8).
    let serving_latency = serving_latency_suite(&mut cells, smoke);

    // Suite 9: query-pack quality gates — diversity and relevance deltas
    // per pack family, with the pack's own pass criteria enforced
    // (DESIGN.md §12).
    let quality = quality_gate_suite(&mut cells);

    // Suite 10: the diversifier gap × latency frontier — every
    // `DiversifyMode` against the exact optimum on both paper corpus
    // shapes (DESIGN.md §15).
    let frontier = frontier_suite(&mut cells, smoke, runs, budget);

    // Algorithm oracle check: within a (suite, seed), every exact
    // algorithm that finished must find the same best score.
    for suite in ["planted_default", "planted_dense_neardup"] {
        for &seed in seeds {
            let scores: Vec<f64> = cells
                .iter()
                .filter(|c| c.suite == suite && c.seed == seed)
                .filter_map(|c| c.score)
                .collect();
            for pair in scores.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                assert!(
                    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0),
                    "algorithm disagreement on {suite} seed {seed}: {a} vs {b}"
                );
            }
        }
    }

    let mut summary_lines: Vec<String> = Vec::new();
    if let Some(report) = &throughput {
        summary_lines.push(format!(
            "\"throughput_qps_baseline\": {:.3}",
            report.qps_baseline
        ));
        for (shards, qps) in &report.qps_by_shards {
            summary_lines.push(format!("\"throughput_qps_shards_{shards}\": {qps:.3}"));
        }
        let qps4 = report
            .qps_by_shards
            .iter()
            .find(|(s, _)| *s == 4)
            .map(|(_, q)| *q)
            .unwrap_or(0.0);
        let speedup = qps4 / report.qps_baseline;
        summary_lines.push(format!(
            "\"throughput_speedup_4_shards_vs_baseline\": {speedup:.3}"
        ));
        summary_lines.push(format!(
            "\"throughput_cache_hit_rate_4_shards\": {:.4}",
            report.cache_hit_rate_4_shards
        ));
        summary_lines.push(format!(
            "\"throughput_distinct_queries\": {}",
            report.distinct_queries
        ));
        summary_lines.push(format!(
            "\"throughput_total_queries\": {}",
            report.total_queries
        ));
        summary_lines.push(format!("\"throughput_threads\": {}", report.threads));
        eprintln!(
            "[summary] serving throughput: engine@4 shards {speedup:.2}x vs naive baseline \
             ({:.1} vs {:.1} q/s)",
            qps4, report.qps_baseline
        );
    }

    if let Some(report) = &live_update {
        let speedup = report.qps_segmented / report.qps_rebuild;
        summary_lines.push(format!(
            "\"live_update_qps_segmented\": {:.3}",
            report.qps_segmented
        ));
        summary_lines.push(format!(
            "\"live_update_qps_rebuild\": {:.3}",
            report.qps_rebuild
        ));
        summary_lines.push(format!("\"live_update_speedup\": {speedup:.3}"));
        summary_lines.push(format!(
            "\"live_update_p95_read_ns\": {}",
            report.p95_read_ns
        ));
        summary_lines.push(format!("\"live_update_queries\": {}", report.queries));
        summary_lines.push(format!(
            "\"live_update_mutation_batches\": {}",
            report.mutation_batches
        ));
        summary_lines.push(format!(
            "\"live_update_final_segments\": {}",
            report.final_segments
        ));
        summary_lines.push(format!(
            "\"live_update_final_tombstones\": {}",
            report.final_tombstones
        ));
        summary_lines.push(format!(
            "\"live_update_compactions\": {}",
            report.compactions
        ));
        eprintln!(
            "[summary] live update: segmented engine {speedup:.2}x vs rebuild-per-mutation \
             ({:.1} vs {:.1} q/s), p95 read {:.2} ms",
            report.qps_segmented,
            report.qps_rebuild,
            report.p95_read_ns as f64 / 1e6
        );
    }

    if let Some(report) = &cold_start {
        let speedup = report.rebuild_ns as f64 / report.load_ns as f64;
        summary_lines.push(format!("\"cold_start_speedup\": {speedup:.3}"));
        summary_lines.push(format!(
            "\"cold_start_load_ms\": {:.3}",
            report.load_ns as f64 / 1e6
        ));
        summary_lines.push(format!(
            "\"cold_start_rebuild_ms\": {:.3}",
            report.rebuild_ns as f64 / 1e6
        ));
        summary_lines.push(format!(
            "\"cold_start_snapshot_bytes\": {}",
            report.snapshot_bytes
        ));
        summary_lines.push(format!("\"cold_start_docs\": {}", report.docs));
        summary_lines.push(format!(
            "\"checkpoint_full_bytes\": {}",
            report.checkpoint_full_bytes
        ));
        summary_lines.push(format!(
            "\"checkpoint_delta_bytes_small\": {}",
            report.checkpoint_delta_bytes_small
        ));
        summary_lines.push(format!(
            "\"checkpoint_delta_bytes_large\": {}",
            report.checkpoint_delta_bytes_large
        ));
        let delta_ratio = report.checkpoint_delta_bytes_large as f64
            / report.checkpoint_delta_bytes_small.max(1) as f64;
        summary_lines.push(format!("\"checkpoint_delta_ratio\": {delta_ratio:.3}"));
        eprintln!(
            "[summary] cold start: snapshot load {speedup:.2}x vs index rebuild \
             ({:.2} vs {:.2} ms); checkpoint delta ratio {delta_ratio:.2} across a 4x corpus",
            report.load_ns as f64 / 1e6,
            report.rebuild_ns as f64 / 1e6
        );
    }

    if let Some(report) = &serving_latency {
        for (shards, qps, p50, p95, p99) in &report.by_shards {
            summary_lines.push(format!("\"serving_latency_qps_shards_{shards}\": {qps:.3}"));
            summary_lines.push(format!(
                "\"serving_latency_p50_ms_shards_{shards}\": {p50:.3}"
            ));
            summary_lines.push(format!(
                "\"serving_latency_p95_ms_shards_{shards}\": {p95:.3}"
            ));
            summary_lines.push(format!(
                "\"serving_latency_p99_ms_shards_{shards}\": {p99:.3}"
            ));
        }
        // Headline numbers from the 4-shard server (measured in both
        // smoke and full configurations).
        if let Some((_, qps, p50, p95, p99)) =
            report.by_shards.iter().find(|(s, ..)| *s == 4).copied()
        {
            summary_lines.push(format!("\"serving_latency_qps\": {qps:.3}"));
            summary_lines.push(format!("\"serving_latency_p50_ms\": {p50:.3}"));
            summary_lines.push(format!("\"serving_latency_p95_ms\": {p95:.3}"));
            summary_lines.push(format!("\"serving_latency_p99_ms\": {p99:.3}"));
            // Per-request latency speedup from concurrent shard pulls:
            // p50 at 1 shard (sequential merge) over p50 at 4 shards.
            // > 1 requires a multi-core host — `pull_workers` records
            // whether the pool was even enabled (0 = single-core run).
            let p50_1 = report
                .by_shards
                .iter()
                .find(|(s, ..)| *s == 1)
                .map(|&(_, _, p50, _, _)| p50)
                .unwrap_or(0.0);
            let speedup = if p50 > 0.0 { p50_1 / p50 } else { 0.0 };
            summary_lines.push(format!("\"serving_latency_shard_speedup\": {speedup:.3}"));
            summary_lines.push(format!(
                "\"serving_latency_pull_workers\": {}",
                report.pull_workers
            ));
            summary_lines.push(format!(
                "\"serving_latency_requests_per_shard_count\": {}",
                report.requests_per_shard_count
            ));
            eprintln!(
                "[summary] serving latency @4 shards: {qps:.1} q/s, p50 {p50:.2} ms, \
                 shard speedup {speedup:.2}x ({} pull workers)",
                report.pull_workers
            );
        }
    }

    if let Some(report) = &quality {
        // The suite asserts pass, so this key is 1 whenever it appears;
        // it exists so `--verify` can prove the gates actually ran.
        summary_lines.push("\"quality_gate_pass\": 1".to_string());
        summary_lines.push(format!("\"quality_gate_families\": {}", report.families));
        summary_lines.push(format!("\"quality_gate_queries\": {}", report.queries));
        summary_lines.push(format!(
            "\"quality_gate_worst_ndcg_delta\": {:.4}",
            report.worst_ndcg_delta
        ));
        summary_lines.push(format!(
            "\"quality_gate_worst_mrr_delta\": {:.4}",
            report.worst_mrr_delta
        ));
        summary_lines.push(format!(
            "\"quality_gate_min_unique_sources_gain\": {:.4}",
            report.min_unique_sources_gain
        ));
        summary_lines.push(format!(
            "\"quality_gate_min_dissimilarity_gain\": {:.4}",
            report.min_dissimilarity_gain
        ));
        eprintln!(
            "[summary] quality gates: {} families pass, worst NDCG delta {:+.4}, \
             min unique-source gain {:+.3}",
            report.families, report.worst_ndcg_delta, report.min_unique_sources_gain
        );
    }

    if let Some(report) = &frontier {
        summary_lines.push(format!("\"frontier_modes\": {}", report.modes));
        summary_lines.push(format!("\"frontier_shapes\": {}", report.shapes));
        // The suite asserted identity before timing; the key exists so
        // `--verify` can prove the oracle check actually ran.
        summary_lines.push("\"frontier_oracle_identity_pass\": 1".to_string());
        for row in &report.rows {
            summary_lines.push(format!(
                "\"frontier_gap_{}_{}\": {:.4}",
                row.mode, row.shape, row.gap
            ));
            summary_lines.push(format!(
                "\"frontier_speedup_{}_{}\": {:.3}",
                row.mode, row.shape, row.speedup_vs_exact
            ));
            summary_lines.push(format!(
                "\"frontier_violations_{}_{}\": {}",
                row.mode, row.shape, row.violations
            ));
        }
        summary_lines.push(format!(
            "\"frontier_best_cheap_speedup\": {:.3}",
            report.best_cheap_speedup
        ));
        summary_lines.push(format!(
            "\"frontier_best_cheap_speedup_gap\": {:.4}",
            report.best_cheap_speedup_gap
        ));
        eprintln!(
            "[summary] frontier: {} modes × {} shapes; best cheap-mode speedup {:.1}x \
             at gap {:+.4}",
            report.modes, report.shapes, report.best_cheap_speedup, report.best_cheap_speedup_gap
        );
        // The headline claim is only asserted on full runs: smoke corpora
        // are too small for stable timing ratios.
        if !smoke {
            assert!(
                report.best_cheap_speedup >= 5.0,
                "no cheap diversify mode reached 5x over Exact(Cut) \
                 (best {:.2}x)",
                report.best_cheap_speedup
            );
        }
    }

    let cell_json: Vec<String> = cells
        .iter()
        .map(|c| format!("    {}", c.to_json()))
        .collect();
    let doc = format!(
        "{{\n  \"schema\": \"divtopk-perfbase/1\",\n  \"bench_id\": 9,\n  \"smoke\": {smoke},\n  \"runs_per_cell\": {runs},\n  \"cells\": [\n{}\n  ],\n  \"summary\": {{{}}}\n}}\n",
        cell_json.join(",\n"),
        summary_lines.join(", "),
    );

    // Self-check before publishing: strict well-formedness + sanity.
    json::validate(&doc).unwrap_or_else(|e| panic!("perfbase emitted malformed JSON: {e}"));
    assert!(!cells.is_empty(), "perfbase produced no cells");
    std::fs::write(&out_path, &doc).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    // Re-read what landed on disk — CI asserts on the artifact, not the
    // in-memory string.
    let on_disk = std::fs::read_to_string(&out_path).expect("re-reading output");
    json::validate(&on_disk).expect("on-disk BENCH json is malformed");
    eprintln!("[done] {} cells → {out_path}", cells.len());
}
