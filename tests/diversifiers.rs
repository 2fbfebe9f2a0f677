//! Property suite for the six strategies behind `DiversifyMode`:
//! every mode must be deterministic across corpus+index rebuilds, the
//! `Exact` mode must be byte-identical to driving the core framework
//! directly, and each mode's defining invariant
//! must hold on its output (pairwise τ for exact, max-per-source windows
//! for window, maximal independent sets for DisC).

use divtopk::core::diversify::{mmr_select, rerank_pool_size, window_spread};
use divtopk::core::sources::Scored;
use divtopk::text::prelude::*;
use divtopk::{DivSearchConfig, DivTopK, ExactAlgorithm, Score};
use proptest::prelude::*;
use std::collections::HashSet;

fn build(seed: u64) -> (Corpus, InvertedIndex) {
    let corpus = generate(&SynthConfig {
        seed,
        ..SynthConfig::tiny()
    });
    let index = InvertedIndex::build(&corpus);
    (corpus, index)
}

/// A term with a mid-sized posting list: enough matches to exercise
/// pools and rotation, small enough for the exhaustive checks below.
fn probe_term(corpus: &Corpus, index: &InvertedIndex) -> TermId {
    (0..corpus.num_terms() as TermId)
        .filter(|&t| (20..=120).contains(&index.postings(t).len()))
        .max_by_key(|&t| index.postings(t).len())
        .expect("tiny synth corpus has mid-frequency terms")
}

/// Every mode the redesign ships, with both λ extremes for MMR.
fn all_modes() -> Vec<DiversifyMode> {
    vec![
        DiversifyMode::Exact(ExactAlgorithm::AStar),
        DiversifyMode::Exact(ExactAlgorithm::Dp),
        DiversifyMode::Exact(ExactAlgorithm::Cut),
        DiversifyMode::None,
        DiversifyMode::mmr(0.3),
        DiversifyMode::mmr(0.7),
        DiversifyMode::window(),
        DiversifyMode::Window(WindowConfig {
            window: 3,
            max_per_source: 1,
            min_score_ratio: 0.0,
        }),
        DiversifyMode::Disc,
        DiversifyMode::knn(),
    ]
}

/// The thresholded similarity the search path uses, reconstructed the
/// way the invariant checks need it (outside `search_with_source`).
fn similar(corpus: &Corpus, weights: &[f64], a: DocId, b: DocId, tau: f64) -> bool {
    similar_above(
        corpus.idf_table(),
        corpus.doc(a),
        weights[a as usize],
        corpus.doc(b),
        weights[b as usize],
        tau,
    )
}

// ------------------------------------------------- cross-rebuild determinism

#[test]
fn every_mode_is_deterministic_across_corpus_and_index_rebuilds() {
    for seed in [0x2E07, 0xBEEF] {
        let (corpus_a, index_a) = build(seed);
        let (corpus_b, index_b) = build(seed);
        let searcher_a = DiversifiedSearcher::new(&corpus_a, &index_a);
        let searcher_b = DiversifiedSearcher::new(&corpus_b, &index_b);
        let term = probe_term(&corpus_a, &index_a);
        let query = query_for_band(&corpus_a, 2, 2, 5).expect("band 2 populated");
        for mode in all_modes() {
            let options = SearchOptions::new(7).with_tau(0.4).with_mode(mode.clone());
            assert_eq!(
                searcher_a.search_scan(term, &options).unwrap(),
                searcher_b.search_scan(term, &options).unwrap(),
                "scan/{:?} differs across rebuilds",
                mode
            );
            assert_eq!(
                searcher_a.search_ta(&query, &options).unwrap(),
                searcher_b.search_ta(&query, &options).unwrap(),
                "ta/{:?} differs across rebuilds",
                mode
            );
        }
    }
}

// -------------------------------------------- exact ≡ the direct framework

#[test]
fn exact_mode_is_byte_identical_to_driving_the_framework_directly() {
    let (corpus, index) = build(0x2E07);
    let searcher = DiversifiedSearcher::new(&corpus, &index);
    let weights = doc_weights(&corpus);
    let busiest = (0..corpus.num_terms() as TermId)
        .max_by_key(|&t| index.postings(t).len())
        .expect("a term");
    use ExactAlgorithm::{AStar, Cut, Dp};
    // A short scan, then a long one (past 48 results). Plain A* does
    // not finish a k = 50 search; the other two do.
    let cases: [(TermId, usize, f64, &[ExactAlgorithm]); 2] = [
        (probe_term(&corpus, &index), 6, 0.4, &[AStar, Dp, Cut]),
        (busiest, 50, 0.5, &[Dp, Cut]),
    ];
    for (case, (term, k, tau, algorithms)) in cases.into_iter().enumerate() {
        for &algorithm in algorithms {
            let via_mode = searcher
                .search_scan(
                    term,
                    &SearchOptions::new(k)
                        .with_tau(tau)
                        .with_mode(DiversifyMode::Exact(algorithm)),
                )
                .unwrap();
            // The pre-redesign path: DivTopK over the scan source with the
            // thresholded predicate, no trait in between.
            let direct = DivTopK::new(
                ScanSource::new(&corpus, &index, term),
                |a: &DocId, b: &DocId| similar(&corpus, &weights, *a, *b, tau),
                DivSearchConfig::new(k).with_algorithm(algorithm),
            )
            .run()
            .unwrap();
            let direct_hits: Vec<Hit> = direct
                .selected
                .iter()
                .map(|r| Hit {
                    doc: r.item,
                    score: r.score,
                })
                .collect();
            assert_eq!(via_mode.hits, direct_hits, "{:?} hits drifted", algorithm);
            assert_eq!(via_mode.total_score, direct.total_score);
            assert_eq!(
                via_mode.metrics, direct.metrics,
                "framework metrics drifted"
            );
            let n = direct.metrics.results_generated;
            assert_eq!(direct.metrics.similarity_checks, n * (n - 1) / 2);
            assert_eq!(n > 48, case == 1, "case {case} pulled {n} results");
        }
    }
}

#[test]
fn exact_hits_are_pairwise_below_tau() {
    let (corpus, index) = build(0xBEEF);
    let searcher = DiversifiedSearcher::new(&corpus, &index);
    let weights = doc_weights(&corpus);
    let term = probe_term(&corpus, &index);
    for tau in [0.2, 0.5] {
        let out = searcher
            .search_scan(term, &SearchOptions::new(8).with_tau(tau))
            .unwrap();
        for (i, a) in out.hits.iter().enumerate() {
            for b in &out.hits[i + 1..] {
                assert!(
                    !similar(&corpus, &weights, a.doc, b.doc, tau),
                    "exact hits {} and {} exceed τ={}",
                    a.doc,
                    b.doc,
                    tau
                );
            }
        }
    }
}

// ------------------------------------------- mmr ≡ the retired text rerank

/// `mmr_select` is the only MMR greedy: on the `baseline_comparison`
/// example's corpus, query and candidate pool it picks exactly the
/// documents the text layer's own rerank picked there before that second
/// implementation was deleted (ids recorded from its last run).
#[test]
fn mmr_select_reproduces_the_baseline_example_selection() {
    use divtopk::ResultSource;
    let corpus = generate(&SynthConfig::enwiki_like().with_num_docs(5_000));
    let index = InvertedIndex::build(&corpus);
    let query = query_for_band(&corpus, 2, 2, 77).expect("band 2 populated");
    let k = 12;
    let mut ta = TaSource::new(&corpus, &index, &query.terms);
    let mut cands: Vec<Scored<DocId>> = Vec::new();
    while let Some(r) = ta.next_result() {
        cands.push(r);
    }
    cands.sort_by_key(|r| std::cmp::Reverse(r.score));
    cands.truncate(k * 25);
    let sim = |a: &DocId, b: &DocId| weighted_jaccard(&corpus, corpus.doc(*a), corpus.doc(*b));
    let picked: Vec<DocId> = mmr_select(&cands, sim, 0.7, k)
        .into_iter()
        .map(|i| cands[i].item)
        .collect();
    assert_eq!(
        picked,
        [
            2182, 2817, 4733, 4324, 4856, 104, 853, 4372, 1871, 329, 626, 3124
        ]
    );
}

// ------------------------------------------------------- per-mode invariants

/// The exact pool the rerank modes see: plain top-`l` through the very
/// same framework path (`None` with `k = l`).
fn rerank_pool(searcher: &DiversifiedSearcher, term: TermId, k: usize, tau: f64) -> Vec<Hit> {
    searcher
        .search_scan(
            term,
            &SearchOptions::new(rerank_pool_size(k))
                .with_tau(tau)
                .with_mode(DiversifyMode::None),
        )
        .unwrap()
        .hits
}

#[test]
fn disc_selection_is_a_maximal_independent_set_of_its_pool() {
    let (corpus, index) = build(0x2E07);
    let searcher = DiversifiedSearcher::new(&corpus, &index);
    let weights = doc_weights(&corpus);
    let term = probe_term(&corpus, &index);
    let (k, tau) = (8, 0.2);
    let out = searcher
        .search_scan(
            term,
            &SearchOptions::new(k)
                .with_tau(tau)
                .with_mode(DiversifyMode::Disc),
        )
        .unwrap();
    let pool = rerank_pool(&searcher, term, k, tau);
    let selected: HashSet<DocId> = out.hits.iter().map(|h| h.doc).collect();
    assert!(
        selected.iter().all(|d| pool.iter().any(|h| h.doc == *d)),
        "DisC selected outside its pool"
    );
    // Dissimilarity: pairwise independent.
    for (i, a) in out.hits.iter().enumerate() {
        for b in &out.hits[i + 1..] {
            assert!(!similar(&corpus, &weights, a.doc, b.doc, tau));
        }
    }
    // Coverage: a short selection means every unselected pool candidate
    // is similar to something selected (maximality).
    if out.hits.len() < k {
        for candidate in &pool {
            if selected.contains(&candidate.doc) {
                continue;
            }
            assert!(
                out.hits
                    .iter()
                    .any(|h| similar(&corpus, &weights, h.doc, candidate.doc, tau)),
                "doc {} is dissimilar to every selected hit, yet DisC stopped short",
                candidate.doc
            );
        }
    }
}

#[test]
fn window_selection_preserves_within_source_relevance_order() {
    let (corpus, index) = build(0xBEEF);
    let searcher = DiversifiedSearcher::new(&corpus, &index);
    let weights = doc_weights(&corpus);
    let term = probe_term(&corpus, &index);
    let (k, tau) = (8, 0.2);
    let config = WindowConfig {
        window: 3,
        max_per_source: 1,
        min_score_ratio: 0.0,
    };
    let out = searcher
        .search_scan(
            term,
            &SearchOptions::new(k)
                .with_tau(tau)
                .with_mode(DiversifyMode::Window(config)),
        )
        .unwrap();
    let pool = rerank_pool(&searcher, term, k, tau);
    // Re-derive the window mode's leader clustering over the same pool.
    let scored: Vec<Scored<DocId>> = pool
        .iter()
        .map(|h| Scored {
            item: h.doc,
            score: h.score,
        })
        .collect();
    let sources = divtopk::core::diversify::assign_sources(&scored, |a, b| {
        similar(&corpus, &weights, *a, *b, tau)
    });
    let pool_index = |d: DocId| pool.iter().position(|h| h.doc == d).expect("hit in pool");
    let picked: Vec<usize> = out.hits.iter().map(|h| pool_index(h.doc)).collect();
    assert_eq!(picked.len(), k.min(pool.len()));
    for src in sources.iter().copied().collect::<HashSet<u32>>() {
        let of_source: Vec<usize> = picked
            .iter()
            .copied()
            .filter(|&m| sources[m] == src)
            .collect();
        assert!(
            of_source.windows(2).all(|w| w[0] < w[1]),
            "window rotation inverted within-source order for cluster {}",
            src
        );
    }
}

#[test]
fn window_spread_enforces_the_cap_when_candidates_are_eligible() {
    // Six same-source leaders up front, six singleton sources behind: a
    // cap of 1 with no score floor must interleave them so no length-3
    // window holds two of source 0.
    let scores: Vec<f64> = (0..12).map(|i| 100.0 - i as f64).collect();
    let sources: Vec<u32> = vec![0, 0, 0, 0, 0, 0, 6, 7, 8, 9, 10, 11];
    let config = WindowConfig {
        window: 3,
        max_per_source: 1,
        min_score_ratio: 0.0,
    };
    let (selection, rotations) = window_spread(&scores, &sources, &config, 8);
    assert!(rotations > 0, "the concentrated head must force rotations");
    for end in 0..selection.len() {
        let start = (end + 1).saturating_sub(config.window);
        let window = &selection[start..=end];
        for src in window.iter().map(|&m| sources[m]) {
            let count = window.iter().filter(|&&m| sources[m] == src).count();
            assert!(
                count <= config.max_per_source,
                "window {:?} holds {} of source {}",
                window,
                count,
                src
            );
        }
    }
}

// ------------------------------------------------- the rerank pool's size

/// The pool the rerank modes pull is `RERANK_OVERSAMPLE · k` deep, and a
/// planted stream shows it: ranks `0..2k` are near-duplicates of one
/// source, ranks `2k..4k` are distinct sources scored slightly lower.
/// Every rerank mode must reach past rank `2k` for a distinct source —
/// which only a pool deeper than `2k` holds.
///
/// Planted mutant, checked on a copy of the tree: `RERANK_OVERSAMPLE = 2`
/// (a pool of exactly the duplicates) fails this test in all four modes.
#[test]
fn every_rerank_mode_reaches_past_rank_2k_for_a_distinct_source() {
    use divtopk::core::diversify::{disc, knn, mmr, window};
    use divtopk::core::limits::SearchLimits;
    use divtopk::core::sources::IncrementalVecSource;

    let k = 5;
    // Items are (rank, source): similar iff same source.
    let items: Vec<Scored<(usize, usize)>> = (0..4 * k)
        .map(|rank| {
            let (source, score) = if rank < 2 * k {
                (0, 100.0 - rank as f64 * 0.1)
            } else {
                (rank, 90.0 - rank as f64 * 0.1)
            };
            Scored::new((rank, source), Score::new(score))
        })
        .collect();
    let stream = || IncrementalVecSource::new(items.clone());
    let above = |a: &(usize, usize), b: &(usize, usize)| a.1 == b.1;
    let value = |a: &(usize, usize), b: &(usize, usize), floor: f64| {
        Some(if a.1 == b.1 { 1.0 } else { 0.0 }).filter(|&s| s > floor)
    };
    let limits = SearchLimits::unlimited();
    let outcomes = [
        ("mmr", mmr(stream(), value, 0.5, k, &limits).unwrap()),
        (
            "window",
            window(stream(), above, &WindowConfig::default(), k, &limits).unwrap(),
        ),
        ("disc", disc(stream(), above, k, &limits).unwrap()),
        ("knn", knn(stream(), value, 2, k, &limits).unwrap()),
    ];
    for (mode, outcome) in outcomes {
        let ranks: Vec<usize> = outcome.selected.iter().map(|r| r.item.0).collect();
        assert!(
            ranks.iter().any(|&rank| rank >= 2 * k),
            "{mode} selected only near-duplicates {ranks:?} from a pool of {}",
            outcome.diversifier.candidates_pulled
        );
    }
}

// ----------------------------------------- pure-kernel properties (proptest)

/// Relevance-ordered random pool: scores descending, arbitrary labels.
fn pool_strategy() -> impl Strategy<Value = (Vec<f64>, Vec<u32>)> {
    proptest::collection::vec((1u32..1_000, 0u32..6), 0..40).prop_map(|entries| {
        let mut scores: Vec<f64> = entries.iter().map(|&(s, _)| s as f64).collect();
        scores.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
        let sources: Vec<u32> = entries.iter().map(|&(_, src)| src).collect();
        (scores, sources)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn window_spread_is_a_deterministic_valid_selection(
        pool in pool_strategy(),
        window in 1usize..8,
        cap in 1usize..4,
        ratio in 0.0f64..1.0,
        k in 1usize..12,
    ) {
        let (scores, sources) = pool;
        let config = WindowConfig { window, max_per_source: cap, min_score_ratio: ratio };
        let (selection, rotations) = window_spread(&scores, &sources, &config, k);
        prop_assert_eq!(selection.len(), k.min(scores.len()));
        let mut dedup = selection.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), selection.len(), "duplicate pool index selected");
        // Same-source relative order always survives rotation.
        for src in sources.iter().copied().collect::<HashSet<u32>>() {
            let of_source: Vec<usize> =
                selection.iter().copied().filter(|&m| sources[m] == src).collect();
            prop_assert!(of_source.windows(2).all(|w| w[0] < w[1]));
        }
        prop_assert_eq!(window_spread(&scores, &sources, &config, k), (selection, rotations));
    }

    #[test]
    fn mmr_at_lambda_one_is_pure_relevance_order(
        raw in proptest::collection::vec(1u32..1_000, 1..30),
        k in 1usize..12,
    ) {
        let pool: Vec<Scored<usize>> = raw
            .iter()
            .enumerate()
            .map(|(i, &s)| Scored { item: i, score: Score::from(s) })
            .collect();
        // λ=1 ignores similarity entirely: ranking is (score desc, pool
        // index asc) no matter what the sim function says.
        let order = mmr_select(&pool, |_, _| 1.0, 1.0, k);
        let mut want: Vec<usize> = (0..pool.len()).collect();
        want.sort_by(|&a, &b| pool[b].score.cmp(&pool[a].score).then(a.cmp(&b)));
        want.truncate(k);
        prop_assert_eq!(order, want);
    }

    #[test]
    fn mmr_selects_k_distinct_indices_for_any_lambda(
        raw in proptest::collection::vec(1u32..1_000, 0..30),
        lambda in 0.0f64..1.0,
        k in 1usize..12,
    ) {
        let pool: Vec<Scored<usize>> = raw
            .iter()
            .enumerate()
            .map(|(i, &s)| Scored { item: i, score: Score::from(s) })
            .collect();
        let sim = |a: &usize, b: &usize| {
            // Deterministic pseudo-similarity in [0, 1).
            let x = (a.wrapping_mul(31).wrapping_add(b.wrapping_mul(17))) % 97;
            x as f64 / 97.0
        };
        let order = mmr_select(&pool, |a, b| sim(a, b).max(sim(b, a)), lambda, k);
        prop_assert_eq!(order.len(), k.min(pool.len()));
        let mut dedup = order.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), order.len());
        let again = mmr_select(&pool, |a, b| sim(a, b).max(sim(b, a)), lambda, k);
        prop_assert_eq!(again, order);
    }
}
