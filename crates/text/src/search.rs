//! End-to-end diversified document search: corpus + index + framework.
//!
//! This is the layer the paper's experiments exercise: a keyword query goes
//! through either the threshold algorithm (multi-keyword, bounding) or a
//! posting-list scan (single keyword, incremental); the diversified-search
//! engine pulls results, builds the diversity graph with weighted-Jaccard
//! similarity at threshold `τ`, and stops as early as Lemmas 1/3 allow.
//!
//! [`search_with_source`] holds the one `match` on the mode and the one
//! similarity object, a [`ThresholdPredicate`], built per request: the
//! exact modes, `window` and `disc` call it as the predicate `sim > τ`,
//! and it rejects most dissimilar pairs from a per-request bucket sketch
//! before any merge (DESIGN.md §4.2). `mmr` and `knn` weigh the
//! raw value instead — asked only as far as it can matter
//! ([`weighted_jaccard_above`], no sketch). Only the exact modes run the §4
//! framework; `none` and the four rerank modes pull their plain top-k /
//! top-`4k` with a loop that stops on the source's unseen bound, so of
//! the options' budgets the deadline is the one they can trip.

use crate::corpus::Corpus;
use crate::document::{DocId, TermId};
use crate::index::InvertedIndex;
use crate::jaccard::{ThresholdPredicate, total_weight, weighted_jaccard_above};
use crate::mode::DiversifyMode;
use crate::query::KeywordQuery;
use crate::scan::ScanSource;
use crate::ta::TaSource;
use divtopk_core::diversify::{self, DiversifierMetrics};
use divtopk_core::{FrameworkMetrics, Score, SearchError, SearchLimits, Similarity};

/// A diversified hit.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    /// The document.
    pub doc: DocId,
    /// Its Eq. 3 score for the query.
    pub score: Score,
}

/// Result of a diversified search.
///
/// `Clone + PartialEq` on purpose: the serving engine caches outputs and
/// its tests assert cache hits are bit-identical to the original run.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutput {
    /// Top-k hits in the mode's ranking order. For the `Exact` modes no
    /// two hits exceed the similarity threshold pairwise and the total
    /// score is maximal (best first); cheap rerank modes emit their own
    /// deterministic ranking order (greedy selection order for MMR/KNN,
    /// rotated order for Window).
    pub hits: Vec<Hit>,
    /// Total score.
    pub total_score: Score,
    /// Framework counters (results generated, inner searches, early stop).
    pub metrics: FrameworkMetrics,
    /// The selected diversifier's own counters (pool size, similarity
    /// evaluations, rotations).
    pub diversifier: DiversifierMetrics,
}

/// A searcher bundling a corpus and its inverted index.
pub struct DiversifiedSearcher<'a> {
    corpus: &'a Corpus,
    index: &'a InvertedIndex,
    /// Per-document total IDF weight — what
    /// [`similar_above`](crate::jaccard::similar_above) rejects and budgets
    /// by.
    doc_weights: Vec<f64>,
}

/// Options for one search call.
#[derive(Debug, Clone)]
pub struct SearchOptions {
    /// Number of diversified results (`k`).
    pub k: usize,
    /// Similarity threshold `τ` (two docs are similar iff Jaccard > τ).
    pub tau: f64,
    /// Which diversification strategy runs — exact, a cheap rerank mode,
    /// or diversity off. See [`DiversifyMode`].
    pub mode: DiversifyMode,
    /// Budgets for each inner search (`INF` emulation when exceeded);
    /// the time budget also covers the pulls, in every mode.
    pub limits: SearchLimits,
    /// Framework bound-decay throttle (0.0 = the paper's per-result
    /// checking; see `DivSearchConfig::min_bound_decay`). Only the exact
    /// modes re-search, so only they read it.
    pub bound_decay: f64,
}

impl SearchOptions {
    /// Defaults matching the paper's defaults: τ = 0.6, exact div-cut,
    /// no budget.
    pub fn new(k: usize) -> SearchOptions {
        SearchOptions {
            k,
            tau: 0.6,
            mode: DiversifyMode::default(),
            limits: SearchLimits::unlimited(),
            bound_decay: 0.0,
        }
    }

    /// Selects the diversification mode.
    pub fn with_mode(mut self, mode: DiversifyMode) -> SearchOptions {
        self.mode = mode;
        self
    }

    /// Overrides the framework bound-decay throttle.
    pub fn with_bound_decay(mut self, decay: f64) -> SearchOptions {
        self.bound_decay = decay;
        self
    }

    /// Overrides τ.
    pub fn with_tau(mut self, tau: f64) -> SearchOptions {
        self.tau = tau;
        self
    }

    /// Overrides the inner-search budgets.
    pub fn with_limits(mut self, limits: SearchLimits) -> SearchOptions {
        self.limits = limits;
        self
    }

    /// Admission validation, applied by [`DiversifiedSearcher`] and the
    /// serving engine before any work happens:
    ///
    /// * `k == 0` is rejected (`SearchError::InvalidK`) instead of falling
    ///   through to the inner search as a silent no-op;
    /// * `τ` must be a number in `[0, 1]` (`SearchError::InvalidTau`) —
    ///   a NaN τ makes every `sim > τ` comparison false, silently turning
    ///   diversified search into plain top-k;
    /// * the bound-decay throttle must be a number in `[0, 1)`
    ///   (`SearchError::InvalidBoundDecay`) — the framework asserts that
    ///   range, and an assert reachable from a client frame kills a
    ///   serving worker;
    /// * every mode parameter must be in range
    ///   (`SearchError::InvalidMode`; see [`DiversifyMode::validate`]).
    pub fn validate(&self) -> Result<(), SearchError> {
        if self.k == 0 {
            return Err(SearchError::InvalidK { k: 0 });
        }
        if !self.tau.is_finite() || !(0.0..=1.0).contains(&self.tau) {
            return Err(SearchError::InvalidTau { tau: self.tau });
        }
        if !(0.0..1.0).contains(&self.bound_decay) {
            return Err(SearchError::InvalidBoundDecay {
                decay: self.bound_decay,
            });
        }
        self.mode.validate()
    }
}

/// Per-document total IDF weights (`W(d)` of
/// [`similar_above`](crate::jaccard::similar_above) and its weight-ratio
/// test), precomputed once per corpus. Exposed so long-lived owners
/// of a corpus — the serving engine — can share one table across queries.
pub fn doc_weights(corpus: &Corpus) -> Vec<f64> {
    let idf = corpus.idf_table();
    corpus.docs().map(|d| total_weight(idf, d)).collect()
}

/// A doc-id-indexed table of per-document total IDF weights — the read
/// interface [`search_with_source`] needs, abstracted so callers can
/// hand in either a dense slice ([`doc_weights`]) or the segmented
/// engine's chunked, COW-shared table
/// ([`ChunkedVec<f64>`](crate::chunked::ChunkedVec)).
pub trait WeightTable {
    /// `W(d)` — the total IDF weight of document `d`. Implementations
    /// may panic on out-of-range ids; callers index only documents of
    /// the corpus the table was built from.
    fn weight(&self, d: DocId) -> f64;
}

impl WeightTable for [f64] {
    #[inline]
    fn weight(&self, d: DocId) -> f64 {
        self[d as usize]
    }
}

impl WeightTable for Vec<f64> {
    #[inline]
    fn weight(&self, d: DocId) -> f64 {
        self[d as usize]
    }
}

impl WeightTable for crate::chunked::ChunkedVec<f64> {
    #[inline]
    fn weight(&self, d: DocId) -> f64 {
        self[d as usize]
    }
}

/// Runs one diversified search over an arbitrary
/// [`ResultSource`](divtopk_core::ResultSource) of
/// documents from `corpus` — the shared execution path behind
/// [`DiversifiedSearcher`] and the sharded engine's merged sources.
/// `weights` must be the [`doc_weights`] table of the same corpus (in
/// any [`WeightTable`] representation). Validates `options` at
/// admission.
pub fn search_with_source<S, W>(
    corpus: &Corpus,
    weights: &W,
    source: S,
    options: &SearchOptions,
) -> Result<SearchOutput, SearchError>
where
    S: divtopk_core::ResultSource<Item = DocId>,
    W: WeightTable + ?Sized,
{
    options.validate()?;
    let (k, tau) = (options.k, options.tau);
    let limits = &options.limits;
    // The thresholded view (`sim > τ`, decided by `similar_above`) drives
    // the exact modes' diversity graph, DisC and the window mode's source
    // clustering; the raw view feeds the modes that *weigh* redundancy
    // (MMR, KNN), which ask for a value only if it exceeds what the
    // candidate already holds.
    let predicate = ThresholdPredicate::new(corpus, weights, tau);
    let above = |a: &DocId, b: &DocId| predicate.similar(a, b);
    let idf = corpus.idf_table();
    let value = |a: &DocId, b: &DocId, floor: f64| {
        let (wa, wb) = (weights.weight(*a), weights.weight(*b));
        weighted_jaccard_above(idf, corpus.doc(*a), wa, corpus.doc(*b), wb, floor)
    };
    let out = match &options.mode {
        DiversifyMode::Exact(algorithm) => {
            diversify::exact(source, above, *algorithm, k, limits, options.bound_decay)
        }
        DiversifyMode::None => diversify::none(source, k, limits),
        DiversifyMode::Mmr(config) => diversify::mmr(source, value, config.lambda, k, limits),
        DiversifyMode::Window(config) => diversify::window(source, above, config, k, limits),
        DiversifyMode::Disc => diversify::disc(source, above, k, limits),
        DiversifyMode::Knn(config) => diversify::knn(source, value, config.neighbors, k, limits),
    }?;
    let hits = out
        .selected
        .iter()
        .map(|r| Hit {
            doc: r.item,
            score: r.score,
        })
        .collect();
    Ok(SearchOutput {
        hits,
        total_score: out.total_score,
        metrics: out.framework,
        diversifier: out.diversifier,
    })
}

impl<'a> DiversifiedSearcher<'a> {
    /// Creates a searcher over a prebuilt corpus and index.
    pub fn new(corpus: &'a Corpus, index: &'a InvertedIndex) -> DiversifiedSearcher<'a> {
        DiversifiedSearcher {
            corpus,
            index,
            doc_weights: doc_weights(corpus),
        }
    }

    /// Multi-keyword diversified search via the threshold algorithm
    /// (bounding framework — the paper's enwiki configuration).
    /// Rejects invalid options and out-of-vocabulary terms at admission.
    pub fn search_ta(
        &self,
        query: &KeywordQuery,
        options: &SearchOptions,
    ) -> Result<SearchOutput, SearchError> {
        options.validate()?;
        validate_terms(&query.terms, self.index)?;
        let source = TaSource::new(self.corpus, self.index, &query.terms);
        search_with_source(self.corpus, &self.doc_weights, source, options)
    }

    /// Single-keyword diversified search via a posting-list scan
    /// (incremental framework — the paper's reuters configuration).
    /// Rejects invalid options and out-of-vocabulary terms at admission.
    pub fn search_scan(
        &self,
        term: TermId,
        options: &SearchOptions,
    ) -> Result<SearchOutput, SearchError> {
        options.validate()?;
        validate_terms(&[term], self.index)?;
        let source = ScanSource::new(self.corpus, self.index, term);
        search_with_source(self.corpus, &self.doc_weights, source, options)
    }
}

/// Admission check shared with the serving engine: every query term must
/// lie inside the index vocabulary, so malformed client input surfaces as
/// a typed [`SearchError::UnknownTerm`] instead of an out-of-bounds panic
/// in a posting-list lookup.
pub fn validate_terms(terms: &[TermId], index: &InvertedIndex) -> Result<(), SearchError> {
    match terms.iter().find(|&&t| t as usize >= index.num_terms()) {
        Some(&term) => Err(SearchError::UnknownTerm { term }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jaccard::weighted_jaccard;
    use crate::query::query_for_band;
    use crate::synth::{SynthConfig, generate};
    use divtopk_core::exhaustive::exhaustive;
    use divtopk_core::{DiversityGraph, ExactAlgorithm};

    fn setup() -> (Corpus, InvertedIndex) {
        let corpus = generate(&SynthConfig::tiny());
        let index = InvertedIndex::build(&corpus);
        (corpus, index)
    }

    /// Offline oracle: materialize *all* matching docs, build the full
    /// diversity graph, solve exhaustively.
    fn offline_optimum(
        corpus: &Corpus,
        index: &InvertedIndex,
        terms: &[TermId],
        k: usize,
        tau: f64,
    ) -> Score {
        use std::collections::HashSet;
        let mut docs: HashSet<DocId> = HashSet::new();
        for &t in terms {
            for p in index.postings(t) {
                docs.insert(p.doc);
            }
        }
        let docs: Vec<DocId> = docs.into_iter().collect();
        let items: Vec<(DocId, Score)> = docs
            .iter()
            .map(|&d| (d, crate::tfidf::score(corpus, terms, d)))
            .collect();
        let (graph, _) = DiversityGraph::from_items(
            &items,
            |&(_, s)| s,
            |&(a, _), &(b, _)| weighted_jaccard(corpus, corpus.doc(a), corpus.doc(b)) > tau,
        );
        exhaustive(&graph, k).best().score()
    }

    #[test]
    fn scan_search_matches_offline_oracle() {
        let (corpus, index) = setup();
        // Pick a term with a moderately sized posting list so the oracle
        // stays tractable.
        let term = (0..corpus.num_terms() as TermId)
            .find(|&t| (8..=18).contains(&index.postings(t).len()))
            .expect("tiny corpus has mid-frequency terms");
        let options = SearchOptions::new(4).with_tau(0.3);
        let searcher = DiversifiedSearcher::new(&corpus, &index);
        let out = searcher.search_scan(term, &options).unwrap();
        let want = offline_optimum(&corpus, &index, &[term], 4, 0.3);
        assert!(
            out.total_score.approx_eq(want, 1e-9),
            "got {} want {want}",
            out.total_score
        );
        // Hits are pairwise dissimilar.
        for i in 0..out.hits.len() {
            for j in (i + 1)..out.hits.len() {
                let s = weighted_jaccard(
                    &corpus,
                    corpus.doc(out.hits[i].doc),
                    corpus.doc(out.hits[j].doc),
                );
                assert!(s <= 0.3, "hits {i},{j} too similar ({s})");
            }
        }
    }

    #[test]
    fn ta_search_matches_offline_oracle() {
        let (corpus, index) = setup();
        let query = query_for_band(&corpus, 2, 2, 5).expect("band 2 populated");
        let options = SearchOptions::new(3).with_tau(0.4);
        let searcher = DiversifiedSearcher::new(&corpus, &index);
        let out = searcher.search_ta(&query, &options).unwrap();
        let want = offline_optimum(&corpus, &index, &query.terms, 3, 0.4);
        assert!(
            out.total_score.approx_eq(want, 1e-9),
            "got {} want {want}",
            out.total_score
        );
    }

    #[test]
    fn all_algorithms_agree_end_to_end() {
        let (corpus, index) = setup();
        let query = query_for_band(&corpus, 1, 2, 11).expect("band 1 populated");
        let searcher = DiversifiedSearcher::new(&corpus, &index);
        let mut scores = Vec::new();
        for algorithm in [
            ExactAlgorithm::AStar,
            ExactAlgorithm::Dp,
            ExactAlgorithm::Cut,
        ] {
            let options = SearchOptions::new(5)
                .with_tau(0.5)
                .with_mode(DiversifyMode::Exact(algorithm));
            scores.push(searcher.search_ta(&query, &options).unwrap().total_score);
        }
        assert!(scores[0].approx_eq(scores[1], 1e-9));
        assert!(scores[1].approx_eq(scores[2], 1e-9));
    }

    #[test]
    fn early_stop_happens_on_real_corpus() {
        let (corpus, index) = setup();
        let term = (0..corpus.num_terms() as TermId)
            .max_by_key(|&t| index.postings(t).len())
            .unwrap();
        let list_len = index.postings(term).len();
        assert!(list_len > 50, "need a popular term, got {list_len}");
        let searcher = DiversifiedSearcher::new(&corpus, &index);
        let out = searcher
            .search_scan(term, &SearchOptions::new(3).with_tau(0.98))
            .unwrap();
        // τ≈1 → everything dissimilar → top-3 by score, found after ~k pulls.
        assert!(
            (out.metrics.results_generated as usize) < list_len,
            "no early stop: pulled {} of {}",
            out.metrics.results_generated,
            list_len
        );
        assert!(out.metrics.early_stopped);
        assert_eq!(out.hits.len(), 3);
    }

    #[test]
    fn diversify_off_returns_plain_topk() {
        let (corpus, index) = setup();
        let term = (0..corpus.num_terms() as TermId)
            .max_by_key(|&t| index.postings(t).len())
            .unwrap();
        let searcher = DiversifiedSearcher::new(&corpus, &index);
        let off = searcher
            .search_scan(
                term,
                &SearchOptions::new(5)
                    .with_tau(0.3)
                    .with_mode(DiversifyMode::None),
            )
            .unwrap();
        assert_eq!(off.hits.len(), 5);
        // Hits are score-descending and their scores are exactly the top-5
        // relevance scores of the whole posting list.
        let mut all: Vec<f64> = index
            .postings(term)
            .iter()
            .map(|p| crate::tfidf::score(&corpus, &[term], p.doc).get())
            .collect();
        all.sort_by(|a, b| b.partial_cmp(a).unwrap());
        for (hit, want) in off.hits.iter().zip(&all) {
            assert!(
                (hit.score.get() - want).abs() < 1e-9,
                "hit {} want {want}",
                hit.score
            );
        }
        // τ = 1.0 with diversification on is the same oracle (Jaccard can
        // never exceed 1), so the two paths must agree on total score.
        let tau_one = searcher
            .search_scan(term, &SearchOptions::new(5).with_tau(1.0))
            .unwrap();
        assert!(off.total_score.approx_eq(tau_one.total_score, 1e-9));
        // And it is deterministic run-to-run.
        let again = searcher
            .search_scan(
                term,
                &SearchOptions::new(5)
                    .with_tau(0.3)
                    .with_mode(DiversifyMode::None),
            )
            .unwrap();
        assert_eq!(off.hits, again.hits);
    }

    #[test]
    fn diversify_off_never_scores_below_diversified() {
        // The diversity-off total is an upper bound on the diversified
        // total for the same query (constraints only remove options).
        let (corpus, index) = setup();
        let searcher = DiversifiedSearcher::new(&corpus, &index);
        let query = query_for_band(&corpus, 2, 2, 5).expect("band 2 populated");
        let on = searcher
            .search_ta(&query, &SearchOptions::new(4).with_tau(0.3))
            .unwrap();
        let off = searcher
            .search_ta(
                &query,
                &SearchOptions::new(4)
                    .with_tau(0.3)
                    .with_mode(DiversifyMode::None),
            )
            .unwrap();
        assert!(
            off.total_score.get() >= on.total_score.get() - 1e-9,
            "off {} < on {}",
            off.total_score,
            on.total_score
        );
    }

    #[test]
    fn admission_rejects_invalid_k_and_tau() {
        let (corpus, index) = setup();
        let searcher = DiversifiedSearcher::new(&corpus, &index);
        let term = (0..corpus.num_terms() as TermId)
            .max_by_key(|&t| index.postings(t).len())
            .unwrap();
        let query = KeywordQuery { terms: vec![term] };

        // k == 0 must be rejected, not silently return empty.
        let k0 = SearchOptions::new(0);
        assert_eq!(
            searcher.search_scan(term, &k0).unwrap_err(),
            SearchError::InvalidK { k: 0 }
        );
        assert_eq!(
            searcher.search_ta(&query, &k0).unwrap_err(),
            SearchError::InvalidK { k: 0 }
        );

        // τ outside [0, 1] or NaN must be rejected with the typed error.
        for bad in [f64::NAN, -0.1, 1.5, f64::INFINITY] {
            let options = SearchOptions::new(3).with_tau(bad);
            match searcher.search_scan(term, &options).unwrap_err() {
                SearchError::InvalidTau { tau } => {
                    assert!(tau.is_nan() == bad.is_nan() && (bad.is_nan() || tau == bad));
                }
                other => panic!("expected InvalidTau, got {other:?}"),
            }
            assert!(matches!(
                searcher.search_ta(&query, &options).unwrap_err(),
                SearchError::InvalidTau { .. }
            ));
        }

        // The bound-decay throttle must lie in [0, 1): the framework
        // asserts it, so admission has to refuse it first.
        for bad in [1.0, 1.5, -0.1, f64::NAN, f64::INFINITY] {
            let options = SearchOptions::new(3).with_bound_decay(bad);
            assert!(matches!(
                searcher.search_scan(term, &options).unwrap_err(),
                SearchError::InvalidBoundDecay { .. }
            ));
        }
        for good in [0.0, 0.5] {
            let options = SearchOptions::new(1).with_bound_decay(good);
            assert!(options.validate().is_ok(), "decay {good}");
        }

        // Boundary values stay admissible (τ = 0 and τ = 1 are legal).
        assert!(SearchOptions::new(1).with_tau(0.0).validate().is_ok());
        assert!(SearchOptions::new(1).with_tau(1.0).validate().is_ok());

        // Out-of-vocabulary term ids are a typed error, not a panic.
        let bogus = corpus.num_terms() as TermId;
        let ok = SearchOptions::new(3);
        assert_eq!(
            searcher.search_scan(bogus, &ok).unwrap_err(),
            SearchError::UnknownTerm { term: bogus }
        );
        assert_eq!(
            searcher
                .search_ta(
                    &KeywordQuery {
                        terms: vec![term, bogus]
                    },
                    &ok
                )
                .unwrap_err(),
            SearchError::UnknownTerm { term: bogus }
        );
    }

    #[test]
    fn budget_exhaustion_surfaces_as_error() {
        let (corpus, index) = setup();
        let term = (0..corpus.num_terms() as TermId)
            .max_by_key(|&t| index.postings(t).len())
            .unwrap();
        let searcher = DiversifiedSearcher::new(&corpus, &index);
        // This graph's one edge joins a 2-clique. `div-dp` runs A* on it,
        // which expands at least its root; `div-cut` would compress it to
        // one vertex and fold it with no expansion to charge, like the
        // graph's other, one-vertex components.
        let options = SearchOptions::new(10)
            .with_tau(0.2)
            .with_mode(DiversifyMode::Exact(ExactAlgorithm::Dp))
            .with_limits(SearchLimits {
                max_expansions: Some(0),
                ..SearchLimits::default()
            });
        assert!(searcher.search_scan(term, &options).is_err());
    }
}
