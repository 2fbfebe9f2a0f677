//! End-to-end framework tests over the text substrate: the early-stopping
//! engine must return exactly what offline materialization returns, for
//! both source kinds (incremental scan and threshold algorithm), every
//! inner algorithm, and a range of τ and k.

use divtopk::core::exhaustive::exhaustive;
use divtopk::text::prelude::*;
use divtopk::{BoundingVecSource, DiversityGraph, ExactAlgorithm, Score, Scored};
use std::collections::HashSet;

struct Fixture {
    corpus: Corpus,
    index: InvertedIndex,
}

fn fixture() -> Fixture {
    fixture_of(SynthConfig::tiny().num_docs)
}

fn fixture_of(num_docs: usize) -> Fixture {
    let corpus = generate(&SynthConfig::tiny().with_num_docs(num_docs));
    let index = InvertedIndex::build(&corpus);
    Fixture { corpus, index }
}

/// Offline oracle over all matching documents (exhaustive for small result
/// sets, div-cut otherwise — itself validated against the oracle elsewhere).
fn offline(fix: &Fixture, terms: &[TermId], k: usize, tau: f64) -> Score {
    let mut docs: HashSet<DocId> = HashSet::new();
    for &t in terms {
        for p in fix.index.postings(t) {
            docs.insert(p.doc);
        }
    }
    let items: Vec<(DocId, Score)> = docs
        .into_iter()
        .map(|d| (d, score(&fix.corpus, terms, d)))
        .collect();
    let (graph, _) = DiversityGraph::from_items(
        &items,
        |&(_, s)| s,
        |&(a, _), &(b, _)| {
            weighted_jaccard(&fix.corpus, fix.corpus.doc(a), fix.corpus.doc(b)) > tau
        },
    );
    if graph.len() <= 22 {
        exhaustive(&graph, k).best().score()
    } else {
        divtopk::div_cut(&graph, k).best().score()
    }
}

fn mid_frequency_terms(fix: &Fixture, lo: usize, hi: usize, take: usize) -> Vec<TermId> {
    (0..fix.corpus.num_terms() as TermId)
        .filter(|&t| {
            let len = fix.index.postings(t).len();
            (lo..=hi).contains(&len)
        })
        .take(take)
        .collect()
}

#[test]
fn scan_matches_offline_across_tau() {
    let fix = fixture();
    let terms = mid_frequency_terms(&fix, 10, 30, 4);
    assert!(!terms.is_empty());
    let searcher = DiversifiedSearcher::new(&fix.corpus, &fix.index);
    for &term in &terms {
        for tau in [0.3, 0.5, 0.7] {
            let out = searcher
                .search_scan(term, &SearchOptions::new(4).with_tau(tau))
                .unwrap();
            let want = offline(&fix, &[term], 4, tau);
            assert!(
                out.total_score.approx_eq(want, 1e-9),
                "term {term} τ {tau}: got {} want {}",
                out.total_score,
                want
            );
        }
    }
}

#[test]
fn ta_matches_offline_across_k() {
    let fix = fixture();
    let searcher = DiversifiedSearcher::new(&fix.corpus, &fix.index);
    let query = query_for_band(&fix.corpus, 2, 2, 3).expect("band 2");
    for k in [1usize, 2, 5, 8] {
        let out = searcher
            .search_ta(&query, &SearchOptions::new(k).with_tau(0.4))
            .unwrap();
        let want = offline(&fix, &query.terms, k, 0.4);
        assert!(
            out.total_score.approx_eq(want, 1e-9),
            "k {k}: got {} want {}",
            out.total_score,
            want
        );
        assert!(out.hits.len() <= k);
    }
}

#[test]
fn ta_and_scan_agree_on_single_term_queries() {
    // A single-keyword query through the TA must equal the incremental
    // scan: same stream content, different framework flavour.
    let fix = fixture();
    let searcher = DiversifiedSearcher::new(&fix.corpus, &fix.index);
    let terms = mid_frequency_terms(&fix, 12, 40, 3);
    for &term in &terms {
        let options = SearchOptions::new(5).with_tau(0.5);
        let via_scan = searcher.search_scan(term, &options).unwrap();
        let via_ta = searcher
            .search_ta(&KeywordQuery { terms: vec![term] }, &options)
            .unwrap();
        assert!(
            via_scan.total_score.approx_eq(via_ta.total_score, 1e-9),
            "term {term}: scan {} vs ta {}",
            via_scan.total_score,
            via_ta.total_score
        );
    }
}

#[test]
fn inner_algorithms_agree_under_the_framework() {
    let fix = fixture();
    let searcher = DiversifiedSearcher::new(&fix.corpus, &fix.index);
    let query = query_for_band(&fix.corpus, 1, 2, 9).expect("band 1");
    let mut totals = Vec::new();
    for algorithm in [
        ExactAlgorithm::AStar,
        ExactAlgorithm::Dp,
        ExactAlgorithm::Cut,
    ] {
        let out = searcher
            .search_ta(
                &query,
                &SearchOptions::new(6)
                    .with_tau(0.45)
                    .with_mode(DiversifyMode::Exact(algorithm)),
            )
            .unwrap();
        totals.push(out.total_score);
    }
    assert!(totals[0].approx_eq(totals[1], 1e-9));
    assert!(totals[1].approx_eq(totals[2], 1e-9));
}

#[test]
fn hits_respect_the_similarity_threshold() {
    let fix = fixture();
    let searcher = DiversifiedSearcher::new(&fix.corpus, &fix.index);
    let terms = mid_frequency_terms(&fix, 20, 80, 2);
    for &term in &terms {
        for tau in [0.2, 0.6] {
            let out = searcher
                .search_scan(term, &SearchOptions::new(6).with_tau(tau))
                .unwrap();
            for i in 0..out.hits.len() {
                for j in (i + 1)..out.hits.len() {
                    let s = weighted_jaccard(
                        &fix.corpus,
                        fix.corpus.doc(out.hits[i].doc),
                        fix.corpus.doc(out.hits[j].doc),
                    );
                    assert!(s <= tau, "pair ({i},{j}) sim {s} > τ {tau}");
                }
            }
        }
    }
}

#[test]
fn early_stop_saves_work_but_not_correctness() {
    let fix = fixture();
    let searcher = DiversifiedSearcher::new(&fix.corpus, &fix.index);
    // Highest-df term → longest stream → most to save.
    let term = (0..fix.corpus.num_terms() as TermId)
        .max_by_key(|&t| fix.index.postings(t).len())
        .unwrap();
    let stream_len = fix.index.postings(term).len();
    let out = searcher
        .search_scan(term, &SearchOptions::new(3).with_tau(0.9))
        .unwrap();
    assert!(out.metrics.early_stopped);
    assert!((out.metrics.results_generated as usize) < stream_len);
    let want = offline(&fix, &[term], 3, 0.9);
    assert!(out.total_score.approx_eq(want, 1e-9));
}

#[test]
fn metrics_are_consistent() {
    let fix = fixture();
    let searcher = DiversifiedSearcher::new(&fix.corpus, &fix.index);
    let query = query_for_band(&fix.corpus, 2, 2, 17).expect("band 2");
    let out = searcher
        .search_ta(&query, &SearchOptions::new(5).with_tau(0.5))
        .unwrap();
    let m = &out.metrics;
    assert!(m.inner_searches >= 1);
    assert!(m.results_generated >= out.hits.len() as u64);
    // n results → n(n-1)/2 similarity checks.
    let n = m.results_generated;
    assert_eq!(m.similarity_checks, n * n.saturating_sub(1) / 2);
    // Every inner search folds at least one component with ⊕; it need not
    // run A*, since one-vertex components are folded in closed form.
    assert!(m.search.plus_ops >= m.inner_searches);
}

#[test]
fn a_long_unordered_pull_matches_offline() {
    // The oracle shares no code with the search's predicate: `offline`
    // grows its graph from raw `weighted_jaccard(..) > τ` over every pair
    // of matching documents and solves it with `div_cut`.
    //
    // The source is an arbitrary-order bounding source over the query's
    // matching documents, in doc-id order, with the exact bound: the
    // framework must pull until that bound falls, long after k results.
    // (`TaSource` emits only certified results, in score order, and
    // stops near k.)
    let fix = fixture_of(1500);
    let weights = doc_weights(&fix.corpus);
    let query = query_for_band(&fix.corpus, 3, 2, 1).expect("band 3");
    let mut docs: Vec<DocId> = query
        .terms
        .iter()
        .flat_map(|&t| fix.index.postings(t).iter().map(|p| p.doc))
        .collect();
    docs.sort_unstable();
    docs.dedup();
    for tau in [0.3, 0.6] {
        let source = BoundingVecSource::new(
            docs.iter()
                .map(|&d| Scored::new(d, score(&fix.corpus, &query.terms, d)))
                .collect(),
        );
        let out = search_with_source(
            &fix.corpus,
            &weights,
            source,
            &SearchOptions::new(20).with_tau(tau),
        )
        .unwrap();
        let n = out.metrics.results_generated;
        assert!(
            2 * n as usize > docs.len(),
            "τ {tau}: only {n} of {} results pulled",
            docs.len()
        );
        assert_eq!(out.metrics.similarity_checks, n * (n - 1) / 2);
        let want = offline(&fix, &query.terms, 20, tau);
        assert!(
            out.total_score.approx_eq(want, 1e-9),
            "τ {tau}: got {} want {want}",
            out.total_score
        );
    }
}
