//! The figure/table harness: regenerates **every** evaluation artifact of
//! *Diversifying Top-K Results* (VLDB 2012) on the synthetic enwiki/reuters
//! stand-ins (DESIGN.md §3 and §6).
//!
//! ```text
//! cargo run --release -p divtopk-bench --bin figures -- all
//! cargo run --release -p divtopk-bench --bin figures -- fig13 fig16
//! cargo run --release -p divtopk-bench --bin figures -- --scale 0.25 --budget 5 all
//! ```
//!
//! * `fig2`  — greedy-vs-optimal star-chain family (§4, Fig. 2)
//! * `fig12` — kfreq keyword bands per dataset (Fig. 12)
//! * `fig13` — vary k on enwiki: (a/b) small-k time/memory, (c/d) large-k
//! * `fig14` — vary τ on enwiki
//! * `fig15` — vary kfreq on enwiki
//! * `fig16/17/18` — the same three sweeps on reuters
//!
//! Time cells are seconds; memory cells are the allocation peak during the
//! diversified search (counting allocator). `INF` marks runs that blew the
//! time/byte budget — the analogue of the paper's 2 GB exhaustion.

use divtopk_bench::{Measurement, PeakAlloc, measure, print_table};
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
    let limits = SearchLimits {
        time_budget: Some(ctx.budget),
        max_bytes: Some(1 << 30), // the ledger analogue of the paper's 2 GB
        ..SearchLimits::default()
    };
    let options = SearchOptions::new(k)
        .with_tau(tau)
        .with_mode(DiversifyMode::Exact(algo.exact()))
        .with_limits(limits)
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

fn usage() -> ! {
    eprintln!(
        "usage: figures [--scale F] [--budget SECS] [--decay F] EXP...\n\
         EXP: fig2 fig12 fig13 fig14 fig15 fig16 fig17 fig18 quality all quick"
    );
    std::process::exit(2);
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
    if exps.iter().any(|e| e == "quick") {
        // A fast smoke configuration for CI / development.
        ctx.scale = ctx.scale.min(0.1);
        ctx.budget = Duration::from_secs(3);
        exps = vec![
            "fig2".into(),
            "fig12".into(),
            "fig13".into(),
            "fig16".into(),
        ];
    }
    if exps.iter().any(|e| e == "all") {
        exps = [
            "fig2", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }

    println!(
        "# divtopk figure harness (scale {:.2}, budget {:?}, decay {})",
        ctx.scale, ctx.budget, ctx.decay
    );
    let mut ds = Datasets::default();
    for exp in &exps {
        match exp.as_str() {
            "fig2" => fig2(&mut ds, &ctx),
            "fig12" => fig12(&mut ds, &ctx),
            "fig13" => vary_k(&mut ds, Dataset::Enwiki, &ctx, "Fig13"),
            "fig13large" => vary_k_large(&mut ds, Dataset::Enwiki, &ctx, "Fig13"),
            "fig14" => vary_tau(&mut ds, Dataset::Enwiki, &ctx, "Fig14"),
            "fig14large" => vary_tau_large(&mut ds, Dataset::Enwiki, &ctx, "Fig14"),
            "fig15" => vary_kfreq(&mut ds, Dataset::Enwiki, &ctx, "Fig15"),
            "fig16large" => vary_k_large(&mut ds, Dataset::Reuters, &ctx, "Fig16"),
            "fig16" => vary_k(&mut ds, Dataset::Reuters, &ctx, "Fig16"),
            "fig17" => vary_tau(&mut ds, Dataset::Reuters, &ctx, "Fig17"),
            "fig18" => vary_kfreq(&mut ds, Dataset::Reuters, &ctx, "Fig18"),
            "quality" => quality(&mut ds, &ctx),
            other => {
                eprintln!("unknown experiment {other:?}");
                usage();
            }
        }
    }
}
