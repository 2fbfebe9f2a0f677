//! The traced run (`--trace 1`): the per-layer numbers.
//!
//! Every layer is measured **from outside**, by timing calls into its
//! public functions; spans inside the program are a later change. The
//! run has four parts: the socket part (server overhead, cache counters,
//! the open loop and the rate ladder), the traced part (the first
//! requests of the `closed` stream replayed in-process on one thread,
//! each miss followed by replay spans through the lower layers), a few
//! direct comparisons (uncached vs direct call, pooled vs sequential,
//! one mode against another, one thread vs `search_batch`), and the
//! operator's part (mutations and checkpoints against the same calls on
//! a private index).

use crate::client::{Clients, PhaseResult};
use crate::json::Value;
use crate::metrics::PER_LAYER;
use crate::run::{
    self, CONNECTIONS, Metric, RunArgs, RunReport, Tally, check_live_phases, check_static_phase,
    wire_frame,
};
use crate::stats;
use crate::trace::{self, Tracer};
use crate::verify::{Op, OpLog, Oracle};
use crate::workload::{
    self, Inputs, OFFSET_CLOSED, OFFSET_LADDER, OFFSET_OPEN, OFFSET_WARMUP, Req, check_fingerprints,
};
use crate::writer::{CADENCE, Writer};
use divtopk_core::{
    DiversityGraph, ExactAlgorithm, IncrementalVecSource, MergedSource, ResultSource, Scored,
    SearchLimits, UnseenBound, WorkerPool,
};
use divtopk_engine::proto::{self, Response, WireHits};
use divtopk_engine::{Engine, Query};
use divtopk_text::persist;
use divtopk_text::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// A pass over the traced requests longer than this is not repeated.
const LONG_PASS_NS: u64 = 300_000_000;
/// Ladder rungs: 36·4^j requests per second, ascending.
const RUNGS: [f64; 6] = [36.0, 144.0, 576.0, 2_304.0, 9_216.0, 36_864.0];

type Layers = BTreeMap<&'static str, f64>;

fn ns(started: Instant) -> u64 {
    started.elapsed().as_nanos() as u64
}

fn mean(values: &[u64]) -> f64 {
    values.iter().sum::<u64>() as f64 / values.len().max(1) as f64
}

fn p(values: &[u64], q: f64, per: f64) -> f64 {
    let mut sorted: Vec<f64> = values.iter().map(|&v| v as f64 / per).collect();
    sorted.sort_by(f64::total_cmp);
    stats::percentile(&sorted, q)
}

/// Lends a source to a `MergedSource` so that its counters can be read
/// once the merge is done with it.
struct ByRef<'a, S>(&'a mut S);

impl<S: ResultSource> ResultSource for ByRef<'_, S> {
    type Item = S::Item;

    fn next_result(&mut self) -> Option<Scored<S::Item>> {
        self.0.next_result()
    }

    fn unseen_bound(&self) -> UnseenBound {
        self.0.unseen_bound()
    }
}

/// A vec source that replays a recorded pull: the same results in the
/// same order with the same unseen bound after each, so the framework
/// above it does exactly the work it did over the real sources.
struct RecordedSource {
    results: std::vec::IntoIter<Scored<DocId>>,
    /// `bounds[n]`: the bound once `n` results had been pulled.
    bounds: Vec<UnseenBound>,
    pulled: usize,
}

impl ResultSource for RecordedSource {
    type Item = DocId;

    fn next_result(&mut self) -> Option<Scored<DocId>> {
        let next = self.results.next()?;
        self.pulled += 1;
        Some(next)
    }

    fn unseen_bound(&self) -> UnseenBound {
        self.bounds[self.pulled.min(self.bounds.len() - 1)]
    }
}

/// What draining the sources of one request gave.
struct Drained {
    results: Vec<Scored<DocId>>,
    bounds: Vec<UnseenBound>,
    took_ns: u64,
    sorted_accesses: u64,
    random_accesses: u64,
}

fn direct_search(index: &SegmentedIndex, req: &Req) -> Result<SearchOutput, String> {
    let options = req.wire_options();
    match &req.query {
        Query::Scan(term) => index.search_scan(*term, &options),
        Query::Keywords(q) => index.search_ta(q, &options),
    }
    .map_err(|e| e.to_string())
}

fn pooled_search(
    index: &SegmentedIndex,
    req: &Req,
    pool: &WorkerPool,
) -> Result<SearchOutput, String> {
    let options = req.wire_options();
    match &req.query {
        Query::Scan(term) => index.search_scan_pooled(*term, &options, pool),
        Query::Keywords(q) => index.search_ta_pooled(q, &options, pool),
    }
    .map_err(|e| e.to_string())
}

/// What replaying one miss through the lower layers measured.
#[derive(Default)]
struct MissReplay {
    is_scan: bool,
    is_exact: bool,
    segments_ns: u64,
    drain_ns: u64,
    pulled: u64,
    sorted_accesses: u64,
    random_accesses: u64,
    framework_ns: u64,
    cut_ns: u64,
    cut_expansions: u64,
    diverged: bool,
    similar_ns: u64,
    similar_pairs: u64,
}

/// Pulls `depth` results from the merged per-segment sources of `req`,
/// timed, recording the unseen bound after each; TA access counters come
/// back for keyword queries.
fn drain(index: &SegmentedIndex, req: &Req, depth: u64) -> Drained {
    let live = |d: &DocId| index.is_live(*d);
    let pull = |source: &mut dyn ResultSource<Item = DocId>| {
        let mut results = Vec::with_capacity(depth as usize);
        let mut bounds = Vec::with_capacity(depth as usize + 1);
        let started = Instant::now();
        bounds.push(source.unseen_bound());
        while (results.len() as u64) < depth {
            match source.next_result() {
                Some(result) => results.push(result),
                None => break,
            }
            bounds.push(source.unseen_bound());
        }
        Drained {
            results,
            bounds,
            took_ns: ns(started),
            sorted_accesses: 0,
            random_accesses: 0,
        }
    };
    match &req.query {
        Query::Scan(term) => pull(&mut MergedSource::incremental_filtered(
            index.scan_sources(*term),
            live,
        )),
        Query::Keywords(q) => {
            let mut sources = index.ta_sources(q);
            let mut drained = {
                let lent = sources.iter_mut().map(ByRef).collect();
                pull(&mut MergedSource::bounding_filtered(lent, live))
            };
            drained.sorted_accesses = sources.iter().map(TaSource::sorted_accesses).sum();
            drained.random_accesses = sources.iter().map(TaSource::random_accesses).sum();
            drained
        }
    }
}

fn replay_miss(
    index: &SegmentedIndex,
    req: &Req,
    real: &SearchOutput,
) -> Result<MissReplay, String> {
    let options = req.wire_options();
    let corpus = index.corpus();
    let weights = index.weights();
    let mut replay = MissReplay {
        is_scan: matches!(req.query, Query::Scan(_)),
        is_exact: req.is_exact(),
        ..MissReplay::default()
    };

    let started = Instant::now();
    let direct = direct_search(index, req)?;
    replay.segments_ns = ns(started);
    if direct.total_score != real.total_score {
        return Err("the direct call reaches another total score than the engine".to_owned());
    }

    let drained = drain(index, req, real.metrics.results_generated);
    replay.drain_ns = drained.took_ns;
    replay.pulled = drained.results.len() as u64;
    replay.sorted_accesses = drained.sorted_accesses;
    replay.random_accesses = drained.random_accesses;
    let pulled = drained.results;

    // Graph growth + similarity + inner searches, no posting pulls.
    let recorded = RecordedSource {
        results: pulled.clone().into_iter(),
        bounds: drained.bounds,
        pulled: 0,
    };
    let started = Instant::now();
    let replayed =
        search_with_source(corpus, weights, recorded, &options).map_err(|e| e.to_string())?;
    replay.framework_ns = ns(started);
    replay.diverged = replayed.metrics.inner_searches != real.metrics.inner_searches;

    // The similarity work of this pull: graph growth evaluates the
    // predicate on every pair of pulled results, and so does the offline
    // construction — which also gives the final graph for the cut.
    let similar = |a: &Scored<DocId>, b: &Scored<DocId>| {
        similar_above(
            corpus.idf_table(),
            corpus.doc(a.item),
            weights.weight(a.item),
            corpus.doc(b.item),
            weights.weight(b.item),
            options.tau,
        )
    };
    let started = Instant::now();
    let (graph, _) = DiversityGraph::from_items(&pulled, |r| r.score, similar);
    replay.similar_ns = ns(started);
    replay.similar_pairs = replay.pulled * replay.pulled.saturating_sub(1) / 2;
    if replay.is_exact {
        let started = Instant::now();
        let (_, metrics) = ExactAlgorithm::Cut
            .search(&graph, options.k, &SearchLimits::unlimited())
            .map_err(|e| e.to_string())?;
        replay.cut_ns = ns(started);
        replay.cut_expansions = metrics.expansions;
    }
    Ok(replay)
}

/// One request through the five real calls of a network round trip,
/// in-process, each inside a span. Returns the engine's answer.
fn traced_request(
    tracer: &mut Tracer,
    engine: &Engine,
    number: u32,
    req: &Req,
) -> Result<(SearchOutput, u32, usize), String> {
    let root = tracer.open(None, number, "request");
    let (frame, _) = tracer.time(Some(root), number, "engine.proto.encode_request", || {
        proto::encode_request(&req.to_wire())
    });
    let frame = frame.map_err(|e| e.to_string())?;
    let (decoded, _) = tracer.time(Some(root), number, "engine.proto.decode_request", || {
        proto::decode_request(&frame)
    });
    decoded.map_err(|e| e.to_string())?;
    let options = req.wire_options();
    let (answer, search) = tracer.time(Some(root), number, "engine.engine.search", || {
        engine.search(&req.query, &options)
    });
    let answer = answer.map_err(|e| e.to_string())?;
    let response = Response::Hits(WireHits {
        generation: 0,
        hits: answer.hits.iter().map(|h| (h.doc, h.score.get())).collect(),
        total_score: answer.total_score.get(),
        results_generated: answer.metrics.results_generated,
        early_stopped: answer.metrics.early_stopped,
    });
    let (bytes, _) = tracer.time(Some(root), number, "engine.proto.encode_response", || {
        proto::encode_response(&response)
    });
    let (decoded, _) = tracer.time(Some(root), number, "engine.proto.decode_response", || {
        proto::decode_response(&bytes)
    });
    decoded.map_err(|e| e.to_string())?;
    tracer.close(root);
    Ok((answer, search, bytes.len()))
}

fn searches_total_ns(tracer: &Tracer) -> u64 {
    durations(tracer, "engine.engine.search").iter().sum()
}

fn durations(tracer: &Tracer, name: &str) -> Vec<u64> {
    tracer
        .spans
        .iter()
        .filter(|s| s.name == name)
        .map(trace::Span::duration_ns)
        .collect()
}

/// The traced part. Fills the trace-derived layer metrics and returns
/// the tracer for the span file.
fn traced_part(
    inputs: &Inputs,
    engine: &Engine,
    index: &SegmentedIndex,
    oracle: &mut Oracle<'_>,
    reqs: &[Req],
    out: &mut Layers,
    tally: &mut Tally,
) -> Result<Tracer, String> {
    let mut tracer = Tracer::new(true);
    let mut replays = Vec::new();
    let mut metrics = Vec::new();
    let mut diversifier = Vec::new();
    let mut response_bytes = Vec::new();
    let mut scaled = 0usize;
    for (number, req) in reqs.iter().enumerate() {
        let misses_before = engine.stats().cache_misses;
        let (answer, search, bytes) = traced_request(&mut tracer, engine, number as u32, req)?;
        response_bytes.push(bytes as u64);
        tally.record("traced", oracle.check_output(req, &answer));
        let missed = inputs.spec.cache_capacity == 0 || engine.stats().cache_misses > misses_before;
        if !missed {
            continue;
        }
        let replay = replay_miss(index, req, &answer)?;
        // The replay is a second measurement of the same work and comes
        // out longer than the real call about as often as shorter. Its
        // proportions are what it is for: where it would not fit inside
        // the real span it is scaled down to fit, and counted.
        let real_ns = tracer.spans[search as usize].duration_ns();
        let inner_ns = replay
            .segments_ns
            .max(replay.drain_ns + replay.framework_ns);
        let fit = if inner_ns > real_ns {
            scaled += 1;
            real_ns as f64 / inner_ns as f64
        } else {
            1.0
        };
        let fitted = |ns: u64| (ns as f64 * fit) as u64;
        let segments = tracer.place_replay(search, "text.segments.search", 0, fitted(inner_ns));
        tracer.place_replay(segments, "text.sources.drain", 0, fitted(replay.drain_ns));
        let framework = tracer.place_replay(
            segments,
            "core.framework.replay",
            fitted(replay.drain_ns),
            fitted(replay.framework_ns),
        );
        if replay.is_exact {
            let cut_ns = replay.cut_ns.min(replay.framework_ns);
            tracer.place_replay(framework, "core.cut.search", 0, fitted(cut_ns));
        }
        metrics.push(answer.metrics);
        diversifier.push(answer.diversifier);
        replays.push(replay);
    }

    // The same calls with span recording off. Every request is run both
    // ways back to back (the cache holds its key by now either way), in
    // alternating order, and the two timings are compared pair by pair:
    // the host's speed drifts by more over a pass than recording costs.
    let mut pairs = Vec::new();
    let mut plain = Vec::new();
    let rounds = if searches_total_ns(&tracer) > LONG_PASS_NS {
        1
    } else {
        3
    };
    for round in 0..rounds {
        for (number, req) in reqs.iter().enumerate() {
            let timed = |enabled: bool| -> Result<u64, String> {
                let mut scratch = Tracer::new(enabled);
                let started = Instant::now();
                traced_request(&mut scratch, engine, number as u32, req)?;
                Ok(ns(started))
            };
            let (on, off) = if (number + round) % 2 == 0 {
                let on = timed(true)?;
                (on, timed(false)?)
            } else {
                let off = timed(false)?;
                (timed(true)?, off)
            };
            pairs.push(on as f64 - off as f64);
            plain.push(off as f64);
        }
    }
    out.insert(
        "trace.overhead_share",
        stats::median(&mut pairs) / stats::median(&mut plain).max(1.0),
    );

    let summary = trace::summarize(&tracer.spans);
    if !summary.well_formed {
        return Err("the trace is malformed: a span's parent is missing".to_owned());
    }
    for (layer, key) in trace::LAYERS.iter().zip([
        "trace.share.engine.proto",
        "trace.share.engine.engine",
        "trace.share.text.segments",
        "trace.share.text.sources",
        "trace.share.core.framework",
        "trace.share.core.cut",
    ]) {
        out.insert(key, summary.layers[layer].1);
    }
    // Clamped: a replay scaled to fit its real span, or any span whose
    // children still cover more than itself.
    out.insert(
        "trace.clamped_share",
        summary.clamped_share + scaled as f64 / tracer.spans.len().max(1) as f64,
    );
    let misses = replays.len().max(1) as f64;
    out.insert(
        "trace.replay_divergence_share",
        replays.iter().filter(|r| r.diverged).count() as f64 / misses,
    );

    for (key, span) in [
        (
            "engine.proto.encode_request_ns",
            "engine.proto.encode_request",
        ),
        (
            "engine.proto.decode_request_ns",
            "engine.proto.decode_request",
        ),
        (
            "engine.proto.encode_response_ns",
            "engine.proto.encode_response",
        ),
        (
            "engine.proto.decode_response_ns",
            "engine.proto.decode_response",
        ),
    ] {
        out.insert(key, p(&durations(&tracer, span), 0.5, 1.0));
    }
    out.insert("engine.proto.response_bytes", mean(&response_bytes));
    let searches = durations(&tracer, "engine.engine.search");
    out.insert("engine.engine.search_p50_us", p(&searches, 0.5, 1e3));
    out.insert("engine.engine.search_p99_us", p(&searches, 0.99, 1e3));

    let pick = |f: &dyn Fn(&MissReplay) -> bool, g: &dyn Fn(&MissReplay) -> u64| -> Vec<u64> {
        replays.iter().filter(|r| f(r)).map(g).collect()
    };
    let scans = pick(&|r| r.is_scan, &|r| r.segments_ns);
    let tas = pick(&|r| !r.is_scan, &|r| r.segments_ns);
    out.insert("text.segments.search_scan_p50_us", p(&scans, 0.5, 1e3));
    out.insert("text.segments.search_ta_p50_us", p(&tas, 0.5, 1e3));
    out.insert("text.segments.search_ta_p99_us", p(&tas, 0.99, 1e3));
    let per_result = |scan: bool| {
        let (time, results) = replays
            .iter()
            .filter(|r| r.is_scan == scan)
            .fold((0u64, 0u64), |(t, n), r| (t + r.drain_ns, n + r.pulled));
        time as f64 / results.max(1) as f64
    };
    out.insert("text.scan.pull_ns", per_result(true));
    out.insert("text.ta.pull_us", per_result(false) / 1e3);
    let ta_count = tas.len().max(1) as f64;
    let total = |g: &dyn Fn(&MissReplay) -> u64| replays.iter().map(g).sum::<u64>() as f64;
    out.insert(
        "text.ta.sorted_accesses_per_query",
        total(&|r| r.sorted_accesses) / ta_count,
    );
    out.insert(
        "text.ta.random_accesses_per_query",
        total(&|r| r.random_accesses) / ta_count,
    );
    let direct_ns = total(&|r| r.segments_ns).max(1.0);
    out.insert(
        "text.sources.time_share",
        total(&|r| r.drain_ns) / direct_ns,
    );
    let similar_ns = total(&|r| r.similar_ns) / total(&|r| r.similar_pairs).max(1.0);
    out.insert("text.jaccard.similar_above_ns", similar_ns);
    out.insert(
        "text.jaccard.time_share",
        total(&|r| r.similar_ns) / direct_ns,
    );

    let per_miss = |f: &dyn Fn(&divtopk_core::FrameworkMetrics) -> u64| {
        metrics.iter().map(f).sum::<u64>() as f64 / misses
    };
    out.insert(
        "core.framework.results_generated_per_query",
        per_miss(&|m| m.results_generated),
    );
    out.insert(
        "core.framework.similarity_checks_per_query",
        per_miss(&|m| m.similarity_checks),
    );
    out.insert(
        "core.framework.inner_searches_per_query",
        per_miss(&|m| m.inner_searches),
    );
    out.insert(
        "core.framework.necessary_checks_per_query",
        per_miss(&|m| m.necessary_checks),
    );
    out.insert(
        "core.framework.graph_edges_per_query",
        per_miss(&|m| m.edges),
    );
    out.insert(
        "core.framework.early_stop_share",
        per_miss(&|m| u64::from(m.early_stopped)),
    );
    out.insert(
        "core.framework.replay_p50_us",
        p(&pick(&|_| true, &|r| r.framework_ns), 0.5, 1e3),
    );
    let cuts = pick(&|r| r.is_exact, &|r| r.cut_ns);
    out.insert("core.cut.search_p50_us", p(&cuts, 0.5, 1e3));
    out.insert("core.cut.search_p99_us", p(&cuts, 0.99, 1e3));
    out.insert(
        "core.cut.expansions_per_query",
        mean(&pick(&|r| r.is_exact, &|r| r.cut_expansions)),
    );
    out.insert(
        "core.diversify.candidates_pulled_per_query",
        diversifier.iter().map(|d| d.candidates_pulled).sum::<u64>() as f64 / misses,
    );
    out.insert(
        "core.diversify.sim_evaluations_per_query",
        diversifier.iter().map(|d| d.sim_evaluations).sum::<u64>() as f64 / misses,
    );

    println!(
        "# trace: {} requests, {} misses replayed; nested inside parents {:.1} % of requests",
        summary.requests,
        replays.len(),
        summary.nested_share * 100.0
    );
    println!("{:<16} {:>14} {:>10}", "layer", "self p50 us", "share");
    for layer in trace::LAYERS {
        let (p50_us, share) = summary.layers[layer];
        println!("{layer:<16} {p50_us:>14.3} {:>9.1}%", share * 100.0);
    }
    Ok(tracer)
}

/// Direct comparisons on the stream's first requests, each against the
/// same work done another way.
fn comparisons(
    inputs: &Inputs,
    engine: &Engine,
    index: &SegmentedIndex,
    reqs: &[Req],
    out: &mut Layers,
) -> Result<(), String> {
    // Uncached engine call vs the same routing called directly.
    let pool = (engine.pull_workers() > 0 && index.num_segments() > 1)
        .then(|| WorkerPool::new(engine.pull_workers()));
    let (mut sequential, mut pooled) = (0u64, 0u64);
    let mut overhead = Vec::new();
    for req in reqs {
        let options = req.wire_options();
        let started = Instant::now();
        engine
            .search_uncached(&req.query, &options)
            .map_err(|e| e.to_string())?;
        let uncached = ns(started);
        let started = Instant::now();
        direct_search(index, req)?;
        let mut routed = ns(started);
        sequential += routed;
        if let Some(pool) = &pool {
            let started = Instant::now();
            pooled_search(index, req, pool)?;
            routed = ns(started);
            pooled += routed;
        }
        overhead.push(uncached as f64 - routed as f64);
    }
    // The median difference: a mean would be whatever the heaviest
    // query's two timings happened to differ by.
    out.insert("engine.engine.overhead_ns", stats::median(&mut overhead));
    out.insert(
        "core.pool.pooled_over_sequential",
        if pool.is_some() {
            pooled as f64 / sequential.max(1) as f64
        } else {
            0.0
        },
    );

    // The k-way merge alone, over results already in memory.
    let segments = index.num_segments();
    let mut merge_ns = 0.0;
    if segments > 1 {
        let (mut took, mut items) = (0u64, 0u64);
        for req in reqs
            .iter()
            .filter(|r| matches!(r.query, Query::Scan(_)))
            .take(64)
        {
            let Query::Scan(term) = req.query else {
                continue;
            };
            let lists: Vec<Vec<Scored<DocId>>> = index
                .scan_sources(term)
                .into_iter()
                .map(|mut s| std::iter::from_fn(|| s.next_result()).take(4096).collect())
                .collect();
            let mut merged = MergedSource::incremental(
                lists.into_iter().map(IncrementalVecSource::new).collect(),
            );
            let started = Instant::now();
            while merged.next_result().is_some() {
                items += 1;
            }
            took += ns(started);
        }
        merge_ns = took as f64 / items.max(1) as f64;
    }
    out.insert("core.merge.item_ns", merge_ns);

    // One mode against another, on the stream's own queries.
    for (key, mode) in [
        ("core.diversify.exact_p50_us", DiversifyMode::exact()),
        ("core.diversify.none_p50_us", DiversifyMode::None),
        ("core.diversify.mmr_p50_us", DiversifyMode::mmr(0.7)),
        ("core.diversify.window_p50_us", DiversifyMode::window()),
        ("core.diversify.disc_p50_us", DiversifyMode::Disc),
        ("core.diversify.knn_p50_us", DiversifyMode::knn()),
    ] {
        let started = Instant::now();
        let mut took = Vec::new();
        for req in reqs {
            let options = req.wire_options().with_mode(mode.clone());
            let call = Instant::now();
            engine
                .search_uncached(&req.query, &options)
                .map_err(|e| e.to_string())?;
            took.push(ns(call));
            if took.len() >= 8 && started.elapsed() > Duration::from_millis(250) {
                break;
            }
        }
        out.insert(key, p(&took, 0.5, 1e3));
    }

    // One thread vs search_batch on the same requests (cycled up to a
    // few thousand where a request is a cache hit, or the threads' start
    // would be most of the batch).
    let copies = if inputs.spec.cache_capacity > 0 {
        4096usize.div_ceil(reqs.len().max(1))
    } else {
        1
    };
    let batch: Vec<_> = std::iter::repeat_n(reqs, copies)
        .flatten()
        .map(|r| (r.query.clone(), r.options.clone()))
        .collect();
    for (query, options) in &batch {
        engine.search(query, options).map_err(|e| e.to_string())?;
    }
    let (mut one, mut all) = (u64::MAX, u64::MAX);
    for _ in 0..3 {
        let started = Instant::now();
        for (query, options) in &batch {
            std::hint::black_box(engine.search(query, options).map_err(|e| e.to_string())?);
        }
        one = one.min(ns(started));
        run::warm_cpus(Duration::from_millis(2));
        let started = Instant::now();
        std::hint::black_box(engine.search_batch(&batch));
        all = all.min(ns(started));
        if one > LONG_PASS_NS {
            break;
        }
    }
    out.insert(
        "engine.engine.batch_scaling",
        one as f64 / all.max(1) as f64,
    );

    // A resident key.
    let mut hit_ns = 0.0;
    if inputs.spec.cache_capacity > 0 {
        if let Some(req) = reqs.first() {
            let took: Vec<u64> = (0..2_000)
                .map(|_| {
                    let started = Instant::now();
                    std::hint::black_box(engine.search(&req.query, &req.options).is_ok());
                    ns(started)
                })
                .collect();
            hit_ns = p(&took, 0.5, 1.0);
        }
    }
    out.insert("engine.cache.hit_ns", hit_ns);
    Ok(())
}

/// One ladder rung passes when its p99 is under the limit, nothing was
/// shed or failed, and the backlog did not outgrow what the limit allows.
fn rung_passes(inputs: &Inputs, rate: f64, result: &PhaseResult, p99_ms: f64) -> bool {
    let allowed_backlog = (rate * inputs.spec.limit_ms / 1e3).max(2.0 * CONNECTIONS as f64);
    let all_answered = result
        .samples
        .iter()
        .all(|s| matches!(s.outcome, crate::client::Outcome::Hits(_)));
    all_answered
        && p99_ms <= inputs.spec.limit_ms
        && result.backlog_at_end as f64 <= allowed_backlog
}

/// The operator's part: the window on a scratch engine, then the same
/// batches on a private index.
fn operator_part(
    inputs: &Inputs,
    args: &RunArgs,
    out: &mut Layers,
    tally: &mut Tally,
) -> Result<(), String> {
    let spec = &inputs.spec;
    let started = Instant::now();
    let scratch = Engine::new(inputs.base.clone(), spec.engine_config());
    out.insert("engine.engine.build_ms", ns(started) as f64 / 1e6);
    let started = Instant::now();
    std::hint::black_box(InvertedIndex::build(&inputs.base).num_postings());
    out.insert(
        "text.index.build_us_per_doc",
        ns(started) as f64 / 1e3 / inputs.base.num_docs().max(1) as f64,
    );

    let dir = run::scratch_dir(&args.out_dir, spec.name, args.seed).with_extension("layers");
    let mut writer = Writer::start(&scratch, inputs, args.seed, &dir);
    let probes: Vec<Req> = (0..8)
        .map(|i| inputs.request(args.seed, OFFSET_WARMUP + i))
        .collect();
    let mut rounds = Vec::new();
    for _ in 0..3 {
        rounds.push(writer.window_round(&probes, false));
    }
    let syncs_before = persist::audit::file_syncs();
    let last = writer.window_round(&probes, false);
    let syncs = persist::audit::file_syncs() - syncs_before;
    rounds.push(last);
    let started = Instant::now();
    persist::load_segmented(&dir).map_err(|e| e.to_string())?;
    out.insert("text.persist.load_ms", ns(started) as f64 / 1e6);
    let report = writer.last_report;
    writer.final_check(&probes);
    tally.attempted += writer.attempted() as u64;
    for why in std::mem::take(&mut writer.failures) {
        tally.fail("operator", why);
    }

    out.insert(
        "text.persist.save_full_ms",
        writer.full_save_ns as f64 / 1e6,
    );
    let deltas: Vec<u64> = rounds.iter().map(|r| r.checkpoint_ns).collect();
    out.insert("text.persist.save_delta_ms", p(&deltas, 0.5, 1e6));
    out.insert("text.persist.file_syncs_per_save", syncs as f64);
    out.insert(
        "text.persist.delta_bytes",
        report.as_ref().map_or(0.0, |r| r.bytes_written as f64),
    );
    out.insert(
        "text.persist.total_bytes",
        report.as_ref().map_or(0.0, |r| r.total_bytes as f64),
    );
    out.insert(
        "engine.engine.mutation_p50_ms",
        p(&writer.mutation_ns, 0.5, 1e6),
    );
    out.insert(
        "engine.engine.mutation_p95_ms",
        p(&writer.mutation_ns, 0.95, 1e6),
    );
    out.insert(
        "engine.engine.restart_ms",
        rounds
            .iter()
            .map(|r| r.restart_s * 1e3)
            .fold(f64::INFINITY, f64::min),
    );

    // The same batches on a private index of the same layout.
    let mut index = SegmentedIndex::build_partitioned(inputs.base.clone(), spec.shards);
    let (mut add_ns, mut delete_ns, mut compact_ns) = (Vec::new(), Vec::new(), Vec::new());
    let (mut added, mut deleted) = (0u64, 0u64);
    for (op, _) in &writer.log.ops {
        match op {
            Op::Add(range) => {
                let docs = inputs.pool[range.clone()].to_vec();
                added += docs.len() as u64;
                let started = Instant::now();
                index.add_docs(docs);
                add_ns.push(ns(started));
            }
            Op::Delete(docs) => {
                deleted += docs.len() as u64;
                let started = Instant::now();
                index.delete_docs(docs);
                delete_ns.push(ns(started));
            }
            Op::Compact => {
                let started = Instant::now();
                index.compact();
                compact_ns.push(ns(started));
            }
        }
    }
    out.insert(
        "text.segments.add_us_per_doc",
        add_ns.iter().sum::<u64>() as f64 / 1e3 / added.max(1) as f64,
    );
    out.insert(
        "text.segments.delete_us_per_doc",
        delete_ns.iter().sum::<u64>() as f64 / 1e3 / deleted.max(1) as f64,
    );
    out.insert("text.segments.compact_ms", mean(&compact_ns) / 1e6);
    out.insert("text.segments.segments_at_end", index.num_segments() as f64);
    out.insert("text.segments.tombstones_at_end", index.tombstones() as f64);
    out.insert(
        "engine.engine.mutation_overhead_us",
        p(&writer.add_ns, 0.5, 1e3) - p(&add_ns, 0.5, 1e3),
    );
    Ok(())
}

/// Brings a private index to the served engine's state: the same layout,
/// the same mutations, compactions included.
fn mirror_of(inputs: &Inputs, log: &OpLog) -> SegmentedIndex {
    let mut index = SegmentedIndex::build_partitioned(inputs.base.clone(), inputs.spec.shards);
    for (op, _) in &log.ops {
        match op {
            Op::Add(range) => {
                index.add_docs(inputs.pool[range.clone()].to_vec());
            }
            Op::Delete(docs) => {
                index.delete_docs(docs);
            }
            Op::Compact => {
                index.compact();
            }
        }
    }
    index
}

pub fn run(args: &RunArgs) -> Result<RunReport, String> {
    let spec = workload::spec(&args.workload, args.quick)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let name = spec.name;
    let seed = args.seed;
    let inputs = Inputs::generate(spec);
    if !args.quick {
        check_fingerprints(&inputs, seed)?;
    }
    let spec = &inputs.spec;
    let mut tally = Tally::default();
    let mut out = Layers::new();
    out.insert("text.synth.generate_ms", inputs.generate_ms);
    // The traced run's phases are shorter than the end-to-end run's.
    let phase = Duration::from_secs_f64(args.seconds * 0.2);
    let rung = Duration::from_secs_f64((args.seconds * 0.085).clamp(0.5, 4.0));

    // --- the socket part ---------------------------------------------
    let (stack, _) = run::set_up(&inputs)?;
    let engine = &*stack.engine;
    let mut oracle = Oracle::new(&inputs, engine);
    for req in inputs.hot_set(seed) {
        let answer = engine
            .search(&req.query, &req.options)
            .map_err(|e| e.to_string());
        tally.record(
            "warm-up",
            answer.and_then(|a| oracle.check_output(&req, &a)),
        );
    }
    let readers = if spec.live_writer { 1 } else { CONNECTIONS };
    let mut clients = Clients::connect(stack.addr(), readers, OFFSET_CLOSED)?;
    let payload = |i: u64| wire_frame(&inputs.request(seed, i));
    let dir = run::scratch_dir(&args.out_dir, name, seed).with_extension("served");
    let mut writer = spec
        .live_writer
        .then(|| Writer::start(engine, &inputs, seed, &dir));
    let before = engine.stats();
    let ticks = (2.0 * phase.as_secs_f64() / CADENCE.as_secs_f64()) as u32;
    let (closed, open) = std::thread::scope(|scope| {
        let cadence = writer
            .as_mut()
            .map(|w| scope.spawn(|| w.run_on_cadence(ticks)));
        let closed = clients.closed_slice(phase, &payload);
        let after_closed = engine.stats();
        // `open` follows `closed` at once over the same connections: a
        // connection left idle for seconds answers its next requests in
        // another TCP acknowledgement regime, and which one a gap
        // produces does not repeat.
        let open = clients.open_slice(spec.open_rate, phase, OFFSET_OPEN, &payload);
        if let Some(handle) = cadence {
            handle
                .join()
                .map_err(|_| "writer thread panicked".to_owned())?;
        }
        Ok::<_, String>(((closed?, after_closed), open?))
    })?;
    let (closed, after_closed) = closed;
    let log = match writer.as_mut() {
        Some(writer) => {
            let phases = [("closed", &closed), ("open", &open)];
            check_live_phases(&inputs, &writer.log, seed, &phases, &mut tally);
            let _ = std::fs::remove_dir_all(&dir);
            std::mem::take(&mut writer.log)
        }
        None => {
            check_static_phase("closed", &inputs, &mut oracle, seed, &closed, &mut tally);
            check_static_phase("open", &inputs, &mut oracle, seed, &open, &mut tally);
            OpLog::default()
        }
    };
    drop(writer);
    let lookups = (after_closed.cache_hits + after_closed.cache_misses)
        .saturating_sub(before.cache_hits + before.cache_misses);
    out.insert(
        "engine.cache.hit_rate",
        (after_closed.cache_hits - before.cache_hits) as f64 / lookups.max(1) as f64,
    );
    out.insert(
        "engine.cache.evictions",
        (after_closed.cache_evictions - before.cache_evictions) as f64,
    );
    let open_ms = stats::sorted_ms(&open.latencies_ns());
    out.insert(
        "engine.server.open_p50_ms",
        stats::percentile(&open_ms, 0.50),
    );
    out.insert(
        "engine.server.open_p95_ms",
        stats::percentile(&open_ms, 0.95),
    );
    out.insert("loadgen.late_p99_us", p(&open.late_ns, 0.99, 1e3));
    out.insert(
        "engine.server.handler_p50_us",
        stack.server.metrics().search_latency.quantile_ns(0.5) as f64 / 1e3,
    );

    // The ladder: ascending rungs, stop at the first that fails. Its
    // answers are not checked one by one (a rung at 36 864 q/s would take
    // longer to check than to run); the rung's own criteria stand.
    let (mut knee_qps, mut knee_p99_ms) = (0.0, 0.0);
    let mut rungs = Vec::new();
    if !spec.live_writer {
        let mut ladder = Clients::connect(stack.addr(), CONNECTIONS, OFFSET_LADDER)?;
        for rate in RUNGS {
            let result = ladder.open_slice(rate, rung, OFFSET_LADDER, &payload)?;
            let ms = stats::sorted_ms(&result.latencies_ns());
            let p99_ms = stats::percentile(&ms, 0.99);
            let passed = rung_passes(&inputs, rate, &result, p99_ms);
            rungs.push(Value::object([
                ("rate_qps", Value::Number(rate)),
                ("sent", Value::Number(ms.len() as f64)),
                ("p99_ms", Value::Number(p99_ms)),
                ("shed", Value::Number(result.shed() as f64)),
                (
                    "backlog_at_end",
                    Value::Number(result.backlog_at_end as f64),
                ),
                ("passed", Value::Bool(passed)),
            ]));
            if !passed {
                break;
            }
            (knee_qps, knee_p99_ms) = (rate, p99_ms);
        }
    }
    out.insert("engine.server.knee_qps", knee_qps);
    out.insert("engine.server.knee_p99_ms", knee_p99_ms);
    // RELAXED: diagnostics counters read once the clients are done.
    let served = stack.server.metrics().requests.load(Ordering::Relaxed);
    let shed = stack.server.metrics().overloaded.load(Ordering::Relaxed);
    out.insert(
        "engine.server.shed_share",
        shed as f64 / served.max(1) as f64,
    );
    drop(clients);

    // --- the traced part and the comparisons --------------------------
    // The engine is at rest now; a private index in the same state
    // stands in for what is below `Engine::search`.
    let index = mirror_of(&inputs, &log);
    if spec.live_writer {
        let single = log
            .mirrors(&inputs, &[engine.generation()].into())
            .remove(&engine.generation());
        oracle = Oracle::at_rest(engine, single);
    }
    let traced: Vec<Req> = (0..inputs.spec.trace_requests as u64)
        .map(|i| inputs.request(seed, OFFSET_CLOSED + i))
        .collect();
    let queries_before = engine.stats();
    let tracer = traced_part(
        &inputs,
        engine,
        &index,
        &mut oracle,
        &traced,
        &mut out,
        &mut tally,
    )?;
    let closed_p50_us = p(&closed.latencies_ns(), 0.5, 1e3);
    out.insert(
        "engine.server.overhead_p50_us",
        closed_p50_us - out["engine.engine.search_p50_us"],
    );
    comparisons(&inputs, engine, &index, &traced, &mut out)?;
    let after = engine.stats();
    out.insert(
        "core.pool.parallel_pulls_share",
        (after.parallel_pulls - queries_before.parallel_pulls) as f64
            / (after.queries - queries_before.queries).max(1) as f64,
    );
    drop(oracle);
    drop(stack);

    // --- the operator's part -------------------------------------------
    operator_part(&inputs, args, &mut out, &mut tally)?;

    let path = args.out_dir.join(format!("trace-{name}.json"));
    std::fs::write(&path, trace::to_json(name, &tracer.spans).render())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;

    let metrics = PER_LAYER
        .iter()
        .map(|m| {
            out.get(m.name)
                .map(|&value| Metric {
                    name: m.name,
                    value,
                    unit: m.unit,
                })
                .ok_or_else(|| format!("per-layer metric {} was not measured", m.name))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let detail = Value::object([
        ("trace_file", path.display().to_string().as_str().into()),
        ("traced_requests", Value::Number(traced.len() as f64)),
        ("spans", Value::Number(tracer.spans.len() as f64)),
        ("closed_p50_us", Value::Number(closed_p50_us)),
        ("ladder", Value::Array(rungs)),
    ]);
    Ok(RunReport {
        workload: name,
        quick: args.quick,
        metrics,
        tally,
        detail,
    })
}
