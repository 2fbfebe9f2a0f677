//! The figure/table harness: regenerates **every** evaluation artifact of
//! *Diversifying Top-K Results* (VLDB 2012) on the synthetic enwiki/reuters
//! stand-ins (DESIGN.md §3 and §6), plus the two tables of our own that
//! compare against the paper's exact optimum.
//!
//! ```text
//! cargo run --release -p divtopk-bench --bin figures -- all
//! cargo run --release -p divtopk-bench --bin figures -- fig13 fig16
//! cargo run --release -p divtopk-bench --bin figures -- --scale 0.25 --budget 5 all
//! cargo run --release -p divtopk-bench --bin figures -- frontier hits
//! ```
//!
//! * `fig2`  — greedy-vs-optimal star-chain family (§4, Fig. 2)
//! * `fig12` — kfreq keyword bands per dataset (Fig. 12)
//! * `fig13` — vary k on enwiki: (a/b) small-k time/memory, (c/d) large-k
//! * `fig14` — vary τ on enwiki
//! * `fig15` — vary kfreq on enwiki
//! * `fig16/17/18` — the same three sweeps on reuters
//! * `fig13large/14large/16large` — the large-k panels alone
//! * `quality` — exact vs greedy vs MMR on the paper's objective
//! * `frontier` — the six diversify modes against the exact optimum:
//!   gap, τ-violations, speedup (DESIGN.md §15)
//! * `hits` — every answer and counter of fixed request sets on the
//!   `neardup_modes` and `cold_search` corpora, one line per request: diff
//!   two builds' runs to show a change left answers alone
//!
//! `all` runs the paper's figures; `quick` is a capped smoke subset. The
//! names live in [`EXPERIMENTS`] and nowhere else.
//!
//! Time cells are seconds; memory cells are the allocation peak during the
//! diversified search (counting allocator). `INF` marks runs that blew the
//! time/byte budget — the analogue of the paper's 2 GB exhaustion.

use divtopk_bench::{Measurement, PeakAlloc, measure, print_table};
use divtopk_core::diversify::rerank_pool_size;
use divtopk_core::prelude::*;
use divtopk_core::testgen;
use divtopk_text::prelude::*;
use std::time::Duration;

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Deterministic seed for query selection (shared by EXPERIMENTS.md).
const QUERY_SEED: u64 = 2012;

#[derive(Clone)]
struct Ctx {
    /// Corpus scale factor (fraction of the preset document counts).
    scale: f64,
    /// Total wall-clock budget per run; exceeding it prints INF.
    budget: Duration,
    /// Framework bound-decay throttle (see DivSearchConfig docs).
    decay: f64,
}

impl Default for Ctx {
    fn default() -> Ctx {
        Ctx {
            scale: 1.0,
            budget: Duration::from_secs(15),
            decay: 0.005,
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Dataset {
    Enwiki,
    Reuters,
}

impl Dataset {
    fn name(self) -> &'static str {
        match self {
            Dataset::Enwiki => "enwiki-like",
            Dataset::Reuters => "reuters-like",
        }
    }
}

/// Lazily built corpora, shared across the figures of one invocation.
#[derive(Default)]
struct Datasets {
    enwiki: Option<(Corpus, InvertedIndex)>,
    reuters: Option<(Corpus, InvertedIndex)>,
}

impl Datasets {
    fn get(&mut self, which: Dataset, ctx: &Ctx) -> &(Corpus, InvertedIndex) {
        let slot = match which {
            Dataset::Enwiki => &mut self.enwiki,
            Dataset::Reuters => &mut self.reuters,
        };
        if slot.is_none() {
            let base = match which {
                Dataset::Enwiki => SynthConfig::enwiki_like(),
                Dataset::Reuters => SynthConfig::reuters_like(),
            };
            let docs = ((base.num_docs as f64 * ctx.scale) as usize).max(500);
            let config = base.with_num_docs(docs);
            eprintln!(
                "[setup] generating {} corpus ({} docs)…",
                which.name(),
                docs
            );
            let t = std::time::Instant::now();
            let corpus = generate(&config);
            let index = InvertedIndex::build(&corpus);
            eprintln!(
                "[setup] {}: {} docs, {} terms, {} postings ({:.1?})",
                which.name(),
                corpus.num_docs(),
                corpus.num_terms(),
                index.num_postings(),
                t.elapsed()
            );
            *slot = Some((corpus, index));
        }
        slot.as_ref().expect("just built")
    }
}

/// Paper parameter grids.
const SMALL_K_ENWIKI: [usize; 5] = [40, 80, 120, 160, 200];
const SMALL_K_REUTERS: [usize; 5] = [60, 80, 100, 110, 120];
const LARGE_K: [usize; 5] = [500, 700, 900, 1300, 2000];
const TAUS: [f64; 5] = [0.4, 0.5, 0.6, 0.7, 0.8];
const KFREQS: [u8; 5] = [1, 2, 3, 4, 5];
const DEFAULT_TAU: f64 = 0.6;
const DEFAULT_KFREQ: u8 = 3;

fn default_small_k(ds: Dataset) -> usize {
    match ds {
        Dataset::Enwiki => 120,
        Dataset::Reuters => 100,
    }
}
const DEFAULT_LARGE_K: usize = 900;

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

    fn exact(self) -> ExactAlgorithm {
        match self {
            Algo::AStar => ExactAlgorithm::AStar,
            Algo::Dp => ExactAlgorithm::Dp,
            Algo::Cut => ExactAlgorithm::Cut,
        }
    }
}

const SMALL_ALGOS: [Algo; 3] = [Algo::AStar, Algo::Dp, Algo::Cut];
const LARGE_ALGOS: [Algo; 2] = [Algo::Dp, Algo::Cut];

/// The per-run budgets: `--budget` seconds and the ledger analogue of the
/// paper's 2 GB.
fn budget_limits(ctx: &Ctx) -> SearchLimits {
    SearchLimits {
        time_budget: Some(ctx.budget),
        max_bytes: Some(1 << 30),
        ..SearchLimits::default()
    }
}

/// One diversified-search run; returns the measurement and, when finished,
/// the total score (for cross-algorithm consistency checks).
fn run_query(
    ds: &mut Datasets,
    which: Dataset,
    ctx: &Ctx,
    k: usize,
    tau: f64,
    kfreq: u8,
    algo: Algo,
) -> (Measurement, Option<Score>) {
    let (corpus, index) = ds.get(which, ctx);
    let options = SearchOptions::new(k)
        .with_tau(tau)
        .with_mode(DiversifyMode::Exact(algo.exact()))
        .with_limits(budget_limits(ctx))
        .with_bound_decay(ctx.decay);
    let searcher = DiversifiedSearcher::new(corpus, index);

    match which {
        Dataset::Enwiki => {
            // Multi-keyword query (2 terms) via the threshold algorithm.
            let Some(query) = query_for_band(corpus, kfreq, 2, QUERY_SEED) else {
                return (Measurement::Inf, None);
            };
            let (m, out) = measure(|| searcher.search_ta(&query, &options).ok());
            (m, out.map(|o| o.total_score))
        }
        Dataset::Reuters => {
            // Single-keyword query via the incremental scan.
            let Some(query) = query_for_band(corpus, kfreq, 1, QUERY_SEED) else {
                return (Measurement::Inf, None);
            };
            let term = query.terms[0];
            let (m, out) = measure(|| searcher.search_scan(term, &options).ok());
            (m, out.map(|o| o.total_score))
        }
    }
}

/// A parameter sweep producing the paper's 4-panel figure (time/memory ×
/// small-k/large-k — or a single pair when the sweep is over τ/kfreq).
#[allow(clippy::too_many_arguments)]
fn sweep<X: std::fmt::Display + Copy>(
    ds: &mut Datasets,
    which: Dataset,
    ctx: &Ctx,
    title: &str,
    x_label: &str,
    xs: &[X],
    algos: &[Algo],
    params: impl Fn(X) -> (usize, f64, u8),
) {
    let mut time_rows = Vec::new();
    let mut mem_rows = Vec::new();
    for &x in xs {
        let (k, tau, kfreq) = params(x);
        let mut times = Vec::new();
        let mut mems = Vec::new();
        let mut scores: Vec<Option<Score>> = Vec::new();
        for &algo in algos {
            let (m, score) = run_query(ds, which, ctx, k, tau, kfreq, algo);
            times.push(m.time_cell());
            mems.push(m.mem_cell());
            scores.push(score);
        }
        // Exactness cross-check: all finishing algorithms agree.
        let finished: Vec<Score> = scores.into_iter().flatten().collect();
        if let Some(first) = finished.first() {
            assert!(
                finished.iter().all(|s| s.approx_eq(*first, 1e-6)),
                "{title} x={x}: algorithms disagree: {finished:?}"
            );
        }
        time_rows.push((format!("{x}"), times));
        mem_rows.push((format!("{x}"), mems));
    }
    let names: Vec<&str> = algos.iter().map(|a| a.name()).collect();
    print_table(
        &format!("{title} — processing time (s)"),
        x_label,
        &names,
        &time_rows,
    );
    print_table(
        &format!("{title} — peak memory"),
        x_label,
        &names,
        &mem_rows,
    );
}

/// Fig. 2: greedy quality collapse on the star-chain family (+ AB5 sweep).
fn fig2(_ds: &mut Datasets, _ctx: &Ctx) {
    println!("\n## Fig. 2 — greedy vs optimal (star-chain family)");
    let mut rows = Vec::new();
    for m in [50usize, 100, 200, 400] {
        let g = testgen::star_chain(m);
        let k = m;
        let (_, greedy_score) = divtopk_core::greedy::greedy(&g, k);
        let (meas, result) = measure(|| Some(divtopk_core::cut::div_cut(&g, k)));
        let exact = result.expect("measured Some").best().score();
        rows.push((
            format!("{m}"),
            vec![
                format!("{greedy_score}"),
                format!("{exact}"),
                format!("{:.1}x", exact.get() / greedy_score.get()),
                meas.time_cell(),
            ],
        ));
    }
    print_table(
        "Fig. 2 family (k = m middles)",
        "m",
        &["greedy", "optimal", "ratio", "div-cut (s)"],
        &rows,
    );
    println!("(paper's instance is m = 100: greedy 199 vs optimal 9,900 — ~50x)");
}

/// Fig. 12: the kfreq keyword bands for both datasets.
fn fig12(ds: &mut Datasets, ctx: &Ctx) {
    println!("\n## Fig. 12 — representative keywords per kfreq band");
    for which in [Dataset::Enwiki, Dataset::Reuters] {
        let (corpus, _) = ds.get(which, ctx);
        let pi = corpus.max_doc_freq();
        let mut rows = Vec::new();
        for band in KFREQS {
            let cell = match query_for_band(corpus, band, 2, QUERY_SEED) {
                Some(q) => q
                    .terms
                    .iter()
                    .map(|&t| format!("{} (df {})", corpus.vocab().term(t), corpus.doc_freq(t)))
                    .collect::<Vec<_>>()
                    .join(", "),
                None => "(band empty)".to_string(),
            };
            rows.push((format!("{band}"), vec![cell]));
        }
        print_table(
            &format!("{} (π = {pi})", which.name()),
            "kfreq",
            &["keywords"],
            &rows,
        );
    }
}

fn vary_k(ds: &mut Datasets, which: Dataset, ctx: &Ctx, fig: &str) {
    println!("\n## {fig} — vary k ({})", which.name());
    let small = match which {
        Dataset::Enwiki => SMALL_K_ENWIKI,
        Dataset::Reuters => SMALL_K_REUTERS,
    };
    sweep(
        ds,
        which,
        ctx,
        &format!("{fig}(a,b) small k (τ = {DEFAULT_TAU}, kfreq = {DEFAULT_KFREQ})"),
        "k",
        &small,
        &SMALL_ALGOS,
        |k| (k, DEFAULT_TAU, DEFAULT_KFREQ),
    );
    vary_k_large(ds, which, ctx, fig);
}

/// The large-k panel alone (re-runnable with a bigger `--budget`).
fn vary_k_large(ds: &mut Datasets, which: Dataset, ctx: &Ctx, fig: &str) {
    sweep(
        ds,
        which,
        ctx,
        &format!("{fig}(c,d) large k (τ = {DEFAULT_TAU}, kfreq = {DEFAULT_KFREQ})"),
        "k",
        &LARGE_K,
        &LARGE_ALGOS,
        |k| (k, DEFAULT_TAU, DEFAULT_KFREQ),
    );
}

/// The large-k τ panel alone.
fn vary_tau_large(ds: &mut Datasets, which: Dataset, ctx: &Ctx, fig: &str) {
    sweep(
        ds,
        which,
        ctx,
        &format!("{fig}(c,d) large k = {DEFAULT_LARGE_K} (kfreq = {DEFAULT_KFREQ})"),
        "tau",
        &TAUS,
        &LARGE_ALGOS,
        |tau| (DEFAULT_LARGE_K, tau, DEFAULT_KFREQ),
    );
}

fn vary_tau(ds: &mut Datasets, which: Dataset, ctx: &Ctx, fig: &str) {
    println!("\n## {fig} — vary τ ({})", which.name());
    let small_k = default_small_k(which);
    sweep(
        ds,
        which,
        ctx,
        &format!("{fig}(a,b) small k = {small_k} (kfreq = {DEFAULT_KFREQ})"),
        "tau",
        &TAUS,
        &SMALL_ALGOS,
        |tau| (small_k, tau, DEFAULT_KFREQ),
    );
    sweep(
        ds,
        which,
        ctx,
        &format!("{fig}(c,d) large k = {DEFAULT_LARGE_K} (kfreq = {DEFAULT_KFREQ})"),
        "tau",
        &TAUS,
        &LARGE_ALGOS,
        |tau| (DEFAULT_LARGE_K, tau, DEFAULT_KFREQ),
    );
}

fn vary_kfreq(ds: &mut Datasets, which: Dataset, ctx: &Ctx, fig: &str) {
    println!("\n## {fig} — vary kfreq ({})", which.name());
    let small_k = default_small_k(which);
    sweep(
        ds,
        which,
        ctx,
        &format!("{fig}(a,b) small k = {small_k} (τ = {DEFAULT_TAU})"),
        "kfreq",
        &KFREQS,
        &SMALL_ALGOS,
        |f| (small_k, DEFAULT_TAU, f),
    );
    sweep(
        ds,
        which,
        ctx,
        &format!("{fig}(c,d) large k = {DEFAULT_LARGE_K} (τ = {DEFAULT_TAU})"),
        "kfreq",
        &KFREQS,
        &LARGE_ALGOS,
        |f| (DEFAULT_LARGE_K, DEFAULT_TAU, f),
    );
}

/// Quality comparison (AB5): exact diversified top-k vs greedy vs MMR on
/// the paper's objective (total score under the pairwise-τ constraint).
fn quality(ds: &mut Datasets, ctx: &Ctx) {
    use divtopk_core::diversify::mmr_select;
    use divtopk_core::{ResultSource, Scored};
    use divtopk_text::jaccard::weighted_jaccard;
    use divtopk_text::quality::{redundancy, total_score};

    println!("\n## Quality — exact vs greedy vs MMR (AB5)");
    for which in [Dataset::Enwiki, Dataset::Reuters] {
        let (corpus, index) = ds.get(which, ctx);
        let Some(query) = query_for_band(corpus, DEFAULT_KFREQ, 2, QUERY_SEED) else {
            continue;
        };
        let searcher = DiversifiedSearcher::new(corpus, index);
        let k = 20;
        let mut rows = Vec::new();
        for tau in [0.4, 0.6, 0.8] {
            // Exact (div-cut through the framework).
            let options = SearchOptions::new(k)
                .with_tau(tau)
                .with_bound_decay(ctx.decay)
                .with_limits(SearchLimits::with_time_budget(ctx.budget));
            let exact = searcher.search_ta(&query, &options).ok();

            // Materialize all candidates once for greedy and MMR.
            let mut ta = TaSource::new(corpus, index, &query.terms);
            let mut cands: Vec<Scored<DocId>> = Vec::new();
            while let Some(r) = ta.next_result() {
                cands.push(r);
            }
            cands.sort_by_key(|r| std::cmp::Reverse(r.score));
            cands.truncate(k * 25); // the two-step baselines' top-l prefetch

            // Greedy on the materialized diversity graph.
            let (graph, perm) = divtopk_core::DiversityGraph::from_items(
                &cands,
                |r| r.score,
                |a, b| weighted_jaccard(corpus, corpus.doc(a.item), corpus.doc(b.item)) > tau,
            );
            let (greedy_nodes, greedy_score) = divtopk_core::greedy::greedy(&graph, k);
            let greedy_sel: Vec<Scored<DocId>> = greedy_nodes
                .iter()
                .map(|&v| cands[perm[v as usize] as usize].clone())
                .collect();
            debug_assert_eq!(total_score(&greedy_sel), greedy_score);

            // MMR (λ = 0.7), then also report its constraint violations.
            let sim =
                |a: &DocId, b: &DocId| weighted_jaccard(corpus, corpus.doc(*a), corpus.doc(*b));
            let mmr_sel: Vec<Scored<DocId>> = mmr_select(&cands, sim, 0.7, k)
                .into_iter()
                .map(|i| cands[i].clone())
                .collect();
            let (mmr_viol, _) = redundancy(corpus, &mmr_sel, tau);

            rows.push((
                format!("{tau}"),
                vec![
                    exact
                        .map(|o| format!("{:.4}", o.total_score.get()))
                        .unwrap_or_else(|| "INF".into()),
                    format!("{:.4}", greedy_score.get()),
                    format!("{:.4}", total_score(&mmr_sel).get()),
                    format!("{mmr_viol}"),
                ],
            ));
        }
        print_table(
            &format!(
                "{} quality at k = 20 (kfreq = {DEFAULT_KFREQ})",
                which.name()
            ),
            "tau",
            &[
                "exact (score)",
                "greedy (score)",
                "MMR (score)",
                "MMR τ-violations",
            ],
            &rows,
        );
    }
    println!("(exact ≥ greedy always; MMR scores are not comparable when it violates τ)");
}

/// Runs behind every sub-second cell of `frontier`.
const TIMED_RUNS: usize = 5;

/// [`measure`] repeated [`TIMED_RUNS`] times: the median-time run and the
/// last output. The figure sweeps take seconds per cell and run once; the
/// frontier cells are milliseconds and need the median.
fn measure_median<T>(mut f: impl FnMut() -> Option<T>) -> (Measurement, Option<T>) {
    let mut runs = Vec::with_capacity(TIMED_RUNS);
    let mut last = None;
    for _ in 0..TIMED_RUNS {
        let (Measurement::Done { time, peak_bytes }, out) = measure(&mut f) else {
            return (Measurement::Inf, None);
        };
        runs.push((time, peak_bytes));
        last = out;
    }
    runs.sort_unstable();
    let (time, peak_bytes) = runs[TIMED_RUNS / 2];
    (Measurement::Done { time, peak_bytes }, last)
}

/// Milliseconds with µs resolution (`time_cell` rounds these cells to 0).
fn ms_cell(m: &Measurement) -> String {
    match m {
        Measurement::Done { time, .. } => format!("{:.3}", time.as_secs_f64() * 1e3),
        Measurement::Inf => "INF".to_string(),
    }
}

/// The gap × latency frontier (DESIGN.md §15): every [`DiversifyMode`] on
/// the two paper shapes (reuters-like single-keyword scan, enwiki-like
/// 2-keyword TA) against the optimum `Exact(Cut)` finds on the same query.
/// Inputs are pinned — 4 000 docs × `--scale`, k = 10, τ = 0.6, band-3
/// query, seed 2012 — and everything but the timing is seed-deterministic.
/// Before any timing, `Exact(Cut)` through the mode — whose predicate
/// filters pairs with the text layer's weight-ratio test and sketch —
/// must be byte-identical to driving the core framework directly with the
/// bare `similar_above` closure: same hits, same total, same
/// `FrameworkMetrics` field for field. That check runs at k = 60, a pull
/// of 66–76 results at `--scale` 0.05 and 1. Beside each time the table
/// prints the two counts that explain it — results pulled and similarity
/// evaluations — and no pool mode may have run an inner search or pulled
/// other than its target: their top-k / top-4k pull is a loop over a
/// source that hands out certified results in score order.
fn frontier(_ds: &mut Datasets, ctx: &Ctx) {
    const K: usize = 10;
    // The identity check's k: TA emits only certified results, so at k =
    // 10 its pull ends near 12. At k = 60 both shapes pull 66–76 results
    // (`--scale` 0.05 and 1), so the check also covers a long graph growth.
    const IDENTITY_K: usize = 60;
    let docs = ((4000.0 * ctx.scale) as usize).max(400);
    let limits = budget_limits(ctx);
    let exact_cut = DiversifyMode::Exact(ExactAlgorithm::Cut);
    let modes = [
        exact_cut.clone(),
        DiversifyMode::None,
        DiversifyMode::mmr(0.7),
        DiversifyMode::window(),
        DiversifyMode::Disc,
        DiversifyMode::knn(),
    ];
    println!(
        "\n## Frontier — diversify modes vs the exact optimum ({docs} docs, k = {K}, τ = {DEFAULT_TAU})"
    );
    for (shape, config, terms) in [
        ("reuters scan", SynthConfig::reuters_like(), 1),
        ("enwiki TA", SynthConfig::enwiki_like(), 2),
    ] {
        let corpus = generate(&config.with_num_docs(docs));
        let index = InvertedIndex::build(&corpus);
        let searcher = DiversifiedSearcher::new(&corpus, &index);
        let Some(query) = query_for_band(&corpus, DEFAULT_KFREQ, terms, QUERY_SEED) else {
            println!("({shape}: no band-{DEFAULT_KFREQ} query at this scale, skipped)");
            continue;
        };
        let run_at = |mode: &DiversifyMode, k: usize| {
            let options = SearchOptions::new(k)
                .with_tau(DEFAULT_TAU)
                .with_mode(mode.clone())
                .with_limits(limits.clone())
                .with_bound_decay(ctx.decay);
            if terms == 1 {
                searcher.search_scan(query.terms[0], &options).ok()
            } else {
                searcher.search_ta(&query, &options).ok()
            }
        };
        let run = |mode: &DiversifyMode| run_at(mode, K);

        let via_mode = run_at(&exact_cut, IDENTITY_K).expect("Exact(Cut) within budget");
        let weights = doc_weights(&corpus);
        let similar = |a: &DocId, b: &DocId| {
            similar_above(
                corpus.idf_table(),
                corpus.doc(*a),
                weights[*a as usize],
                corpus.doc(*b),
                weights[*b as usize],
                DEFAULT_TAU,
            )
        };
        let config = DivSearchConfig::new(IDENTITY_K)
            .with_limits(limits.clone())
            .with_bound_decay(ctx.decay);
        let direct = if terms == 1 {
            DivTopK::new(
                ScanSource::new(&corpus, &index, query.terms[0]),
                similar,
                config,
            )
            .run()
        } else {
            DivTopK::new(
                TaSource::new(&corpus, &index, &query.terms),
                similar,
                config,
            )
            .run()
        }
        .expect("direct framework run within budget");
        assert!(
            via_mode
                .hits
                .iter()
                .map(|h| (h.doc, h.score))
                .eq(direct.selected.iter().map(|r| (r.item, r.score)))
                && via_mode.total_score == direct.total_score
                && via_mode.metrics == direct.metrics,
            "{shape}: Exact(Cut) via the mode drifted from the direct framework run"
        );
        println!(
            "\n{shape}: Exact(Cut) via the mode ≡ the direct framework run; \
             {} results, {} similarity checks, {} edges",
            direct.metrics.results_generated,
            direct.metrics.similarity_checks,
            direct.metrics.edges
        );

        for mode in &modes[1..] {
            let out = run(mode);
            let searched = out.as_ref().map(|out| out.metrics.inner_searches);
            assert!(
                matches!(searched, None | Some(0)),
                "{shape}: {} ran {searched:?} inner searches for a plain pull",
                mode.name()
            );
            // Both sources hand out certified results in score order, so
            // a plain pull stops at its target: k for `none`, the rerank
            // pool for the rest.
            let target = if *mode == DiversifyMode::None {
                K
            } else {
                rerank_pool_size(K)
            };
            let pulled = out.map(|out| out.metrics.results_generated);
            assert!(
                pulled.is_none_or(|n| n == target as u64),
                "{shape}: {} pulled {pulled:?} results, not its target {target}",
                mode.name()
            );
        }

        let mut rows = Vec::new();
        // (total score, seconds) of exact-cut, which runs first.
        let mut exact: Option<(f64, f64)> = None;
        for mode in &modes {
            let (m, out) = measure_median(|| run(mode));
            let (Measurement::Done { time, .. }, Some(out)) = (m, out) else {
                rows.push((mode.name().to_string(), vec!["INF".to_string(); 7]));
                continue;
            };
            let wall = time.as_secs_f64();
            let total = out.total_score.get();
            let (exact_total, exact_wall) = *exact.get_or_insert((total, wall));
            let gap = if exact_total > 0.0 {
                (exact_total - total) / exact_total
            } else {
                0.0
            };
            let hits: Vec<Scored<DocId>> = out
                .hits
                .iter()
                .map(|h| Scored::new(h.doc, h.score))
                .collect();
            let (violations, _) = redundancy(&corpus, &hits, DEFAULT_TAU);
            let speedup = exact_wall / wall;
            rows.push((
                mode.name().to_string(),
                vec![
                    format!("{total:.4}"),
                    format!("{gap:.4}"),
                    format!("{violations}"),
                    ms_cell(&m),
                    format!("{speedup:.3}x"),
                    format!("{}", out.metrics.results_generated),
                    // Graph-growth tests for exact, rerank evaluations
                    // for the pool modes: one of the two is always 0.
                    format!(
                        "{}",
                        out.metrics.similarity_checks + out.diversifier.sim_evaluations
                    ),
                ],
            ));
        }
        print_table(
            &format!("{shape} (median of {TIMED_RUNS})"),
            "mode",
            &[
                "score",
                "gap",
                "τ-violations",
                "time (ms)",
                "vs exact-cut",
                "pulled",
                "sim evals",
            ],
            &rows,
        );
    }
    println!("(gap = (exact − mode) / exact; negative = more raw score by breaking τ)");
}

/// One line of the answer dump: `label`, the query, mode and k, then every
/// hit with the bits of its score, the bits of the total, and every
/// `FrameworkMetrics` / `DiversifierMetrics` field.
fn hit_line(label: &str, query: &KeywordQuery, mode: &DiversifyMode, k: usize, out: &SearchOutput) {
    let hits: Vec<String> = out
        .hits
        .iter()
        .map(|h| format!("{}:{:016x}", h.doc, h.score.get().to_bits()))
        .collect();
    println!(
        "{label}{:?} {} k={k} total={:016x} hits=[{}] {:?} {:?}",
        query.terms,
        mode.name(),
        out.total_score.get().to_bits(),
        hits.join(" "),
        out.metrics,
        out.diversifier
    );
}

/// The answer dump: one [`hit_line`] per request of two fixed request
/// sets. Seed-deterministic and untimed, so a change that claims "same
/// answers, same counters" diffs its run against the parent's.
///
/// 1. The `benchmarks/e2e` `neardup_modes` corpus: six modes × k ∈ {7, 20,
///    80} (`exact` at k ≤ 20 only), plus `exact-dp` and `exact-astar` at
///    k = 7, × every scan term of df ≥ 200 (one in `1/--scale` of them),
///    plus 40 two-term queries drawn from those terms. `div-dp` does not
///    compress, so at k = 20 its A\* meets these near-cliques whole: one
///    scan there takes 37 M expansions, a 34 M-entry heap and 85 s on a
///    2-core build host.
/// 2. Lines labelled `cold`: [`cold_hits`], the `cold_search` shape.
fn hits(_ds: &mut Datasets, ctx: &Ctx) {
    use divtopk_core::rng::Pcg;
    // `neardup_modes`: the first 20 000 of 28 192 near-duplicate-heavy
    // enwiki-like documents, τ = 0.5, the harness's bound decay.
    let donor = generate(
        &SynthConfig {
            near_dup_prob: 0.6,
            ..SynthConfig::enwiki_like()
        }
        .with_num_docs(28_192),
    );
    let mut builder = CorpusBuilder::with_synthetic_vocab(donor.num_terms());
    for d in 0..20_000 {
        builder.add_document(donor.doc(d).clone());
    }
    let corpus = builder.build();
    let index = InvertedIndex::build(&corpus);
    let searcher = DiversifiedSearcher::new(&corpus, &index);
    let stride = (1.0 / ctx.scale).round().max(1.0) as usize;
    let terms: Vec<TermId> = (0..corpus.num_terms() as TermId)
        .filter(|&t| corpus.doc_freq(t) >= 200)
        .step_by(stride)
        .collect();
    assert!(terms.len() >= 2, "fewer than two df ≥ 200 terms");
    let mut queries: Vec<KeywordQuery> = terms
        .iter()
        .map(|&t| KeywordQuery { terms: vec![t] })
        .collect();
    let mut rng = Pcg::new(QUERY_SEED);
    while queries.len() < terms.len() + 40 {
        let (a, b) = (*rng.choose(&terms).unwrap(), *rng.choose(&terms).unwrap());
        if a != b {
            queries.push(KeywordQuery {
                terms: vec![a.min(b), a.max(b)],
            });
        }
    }
    let modes = [
        DiversifyMode::exact(),
        DiversifyMode::Exact(ExactAlgorithm::Dp),
        DiversifyMode::Exact(ExactAlgorithm::AStar),
        DiversifyMode::None,
        DiversifyMode::mmr(0.7),
        DiversifyMode::window(),
        DiversifyMode::Disc,
        DiversifyMode::knn(),
    ];
    eprintln!("[hits] {} scan terms + 40 two-term queries", terms.len());
    for query in &queries {
        for k in [7, 20, 80] {
            for mode in &modes {
                let k_max = match mode {
                    DiversifyMode::Exact(ExactAlgorithm::Dp | ExactAlgorithm::AStar) => 7,
                    DiversifyMode::Exact(_) => 20,
                    _ => 80,
                };
                if k > k_max {
                    continue;
                }
                let options = SearchOptions::new(k)
                    .with_tau(0.5)
                    .with_bound_decay(0.005)
                    .with_mode(mode.clone());
                let out = match query.terms[..] {
                    [term] => searcher.search_scan(term, &options),
                    _ => searcher.search_ta(query, &options),
                }
                .expect("no limits set");
                hit_line("", query, mode, k, &out);
            }
        }
    }
    cold_hits(stride);
}

/// `hits` on the `benchmarks/e2e` `cold_search` shape: the first 50 000
/// of 58 192 enwiki-like documents in four round-robin segments,
/// `exact-cut`, k = 10, τ = 0.6, the harness's bound decay. Requests:
/// `400 / stride` scans whose terms are drawn log-uniform over
/// document-frequency rank among the df ≥ 5 terms, plus 40 two-term
/// queries drawn the same way.
fn cold_hits(stride: usize) {
    use divtopk_core::rng::Pcg;
    let donor = generate(&SynthConfig::enwiki_like().with_num_docs(58_192));
    let mut builder = CorpusBuilder::with_synthetic_vocab(donor.num_terms());
    for d in 0..50_000 {
        builder.add_document(donor.doc(d).clone());
    }
    let corpus = builder.build();
    let mut terms: Vec<TermId> = (0..corpus.num_terms() as TermId)
        .filter(|&t| corpus.doc_freq(t) >= 5)
        .collect();
    terms.sort_by_key(|&t| (std::cmp::Reverse(corpus.doc_freq(t)), t));
    let index = SegmentedIndex::build_partitioned(corpus, 4);
    let mut rng = Pcg::new(QUERY_SEED);
    let mut draw = || {
        let rank = (terms.len() as f64).powf(rng.unit_f64()) - 1.0;
        terms[(rank as usize).min(terms.len() - 1)]
    };
    let scans = (400 / stride).max(1);
    let mut queries: Vec<KeywordQuery> = (0..scans)
        .map(|_| KeywordQuery {
            terms: vec![draw()],
        })
        .collect();
    while queries.len() < scans + 40 {
        let (a, b) = (draw(), draw());
        if a != b {
            queries.push(KeywordQuery {
                terms: vec![a.min(b), a.max(b)],
            });
        }
    }
    eprintln!("[hits] cold: {scans} scans + 40 two-term queries");
    let mode = DiversifyMode::exact();
    let options = SearchOptions::new(10)
        .with_tau(0.6)
        .with_bound_decay(0.005)
        .with_mode(mode.clone());
    for query in &queries {
        let out = match query.terms[..] {
            [term] => index.search_scan(term, &options),
            _ => index.search_ta(query, &options),
        }
        .expect("no limits set");
        hit_line("cold ", query, &mode, 10, &out);
    }
}

type Experiment = fn(&mut Datasets, &Ctx);

/// Every experiment: its name, whether `all` runs it, the function. The
/// usage line, the `all` expansion and the dispatch all derive from this.
const EXPERIMENTS: &[(&str, bool, Experiment)] = &[
    ("fig2", true, fig2),
    ("fig12", true, fig12),
    ("fig13", true, |ds, ctx| {
        vary_k(ds, Dataset::Enwiki, ctx, "Fig13")
    }),
    ("fig13large", false, |ds, ctx| {
        vary_k_large(ds, Dataset::Enwiki, ctx, "Fig13")
    }),
    ("fig14", true, |ds, ctx| {
        vary_tau(ds, Dataset::Enwiki, ctx, "Fig14")
    }),
    ("fig14large", false, |ds, ctx| {
        vary_tau_large(ds, Dataset::Enwiki, ctx, "Fig14")
    }),
    ("fig15", true, |ds, ctx| {
        vary_kfreq(ds, Dataset::Enwiki, ctx, "Fig15")
    }),
    ("fig16", true, |ds, ctx| {
        vary_k(ds, Dataset::Reuters, ctx, "Fig16")
    }),
    ("fig16large", false, |ds, ctx| {
        vary_k_large(ds, Dataset::Reuters, ctx, "Fig16")
    }),
    ("fig17", true, |ds, ctx| {
        vary_tau(ds, Dataset::Reuters, ctx, "Fig17")
    }),
    ("fig18", true, |ds, ctx| {
        vary_kfreq(ds, Dataset::Reuters, ctx, "Fig18")
    }),
    ("quality", false, quality),
    ("frontier", false, frontier),
    ("hits", false, hits),
];

/// The `quick` smoke subset (scale and budget are capped as well).
const QUICK: [&str; 4] = ["fig2", "fig12", "fig13", "fig16"];

fn usage_text() -> String {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
    format!(
        "usage: figures [--scale F] [--budget SECS] [--decay F] EXP...\n\
         EXP: {} all quick",
        names.join(" ")
    )
}

fn usage() -> ! {
    eprintln!("{}", usage_text());
    std::process::exit(2);
}

/// Resolves the requested names — `all` and `quick` expanded, `quick`
/// capping `ctx` — or returns the first unknown one.
fn resolve(requested: &[String], ctx: &mut Ctx) -> Result<Vec<Experiment>, String> {
    let mut names: Vec<&str> = requested.iter().map(String::as_str).collect();
    if names.contains(&"quick") {
        // A fast smoke configuration for CI / development.
        ctx.scale = ctx.scale.min(0.1);
        ctx.budget = ctx.budget.min(Duration::from_secs(3));
        names = QUICK.to_vec();
    }
    if names.contains(&"all") {
        names = EXPERIMENTS.iter().filter(|e| e.1).map(|e| e.0).collect();
    }
    names
        .into_iter()
        .map(|name| {
            EXPERIMENTS
                .iter()
                .find(|e| e.0 == name)
                .map(|e| e.2)
                .ok_or_else(|| name.to_string())
        })
        .collect()
}

fn main() {
    let mut ctx = Ctx::default();
    let mut exps: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                ctx.scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--budget" => {
                let secs: u64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                ctx.budget = Duration::from_secs(secs);
            }
            "--decay" => {
                ctx.decay = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            other if other.starts_with("--") => usage(),
            exp => exps.push(exp.to_string()),
        }
    }
    if exps.is_empty() {
        usage();
    }
    let experiments = resolve(&exps, &mut ctx).unwrap_or_else(|unknown| {
        eprintln!("unknown experiment {unknown:?}");
        usage()
    });

    println!(
        "# divtopk figure harness (scale {:.2}, budget {:?}, decay {})",
        ctx.scale, ctx.budget, ctx.decay
    );
    let mut ds = Datasets::default();
    for experiment in experiments {
        experiment(&mut ds, &ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn usage_and_dispatch_name_the_same_experiments() {
        let usage = usage_text();
        let exp_line = usage.lines().last().unwrap().strip_prefix("EXP: ").unwrap();
        let printed: Vec<&str> = exp_line.split(' ').collect();
        // Every printed name dispatches…
        for name in &printed {
            let got = resolve(&names(&[name]), &mut Ctx::default());
            assert!(got.is_ok_and(|fns| !fns.is_empty()), "{name} does not run");
        }
        // …every dispatchable name is printed, once…
        for (name, _, _) in EXPERIMENTS {
            assert_eq!(printed.iter().filter(|p| *p == name).count(), 1, "{name}");
        }
        assert_eq!(printed.len(), EXPERIMENTS.len() + 2); // + all, quick
        // …`all` is the flagged rows, `quick` resolves, and nothing else does.
        let all = resolve(&names(&["all"]), &mut Ctx::default()).unwrap();
        assert_eq!(all.len(), EXPERIMENTS.iter().filter(|e| e.1).count());
        let quick = resolve(&names(&["quick"]), &mut Ctx::default()).unwrap();
        assert_eq!(quick.len(), QUICK.len());
        let unknown = resolve(&names(&["fig2", "fig99"]), &mut Ctx::default());
        assert_eq!(unknown.err(), Some("fig99".to_string()));
    }

    #[test]
    fn quick_caps_scale_and_budget_instead_of_assigning_them() {
        let mut small = Ctx {
            scale: 0.05,
            budget: Duration::from_secs(1),
            ..Ctx::default()
        };
        resolve(&names(&["quick"]), &mut small).unwrap();
        assert_eq!((small.scale, small.budget), (0.05, Duration::from_secs(1)));
        let mut default = Ctx::default();
        resolve(&names(&["quick"]), &mut default).unwrap();
        assert_eq!(
            (default.scale, default.budget),
            (0.1, Duration::from_secs(3))
        );
    }
}
