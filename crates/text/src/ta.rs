//! Fagin's Threshold Algorithm as a **bounding** result source.
//!
//! For a multi-keyword query (the paper's enwiki setup, §8), the score of a
//! document is the sum of per-term partial scores (Eq. 3). The TA performs
//! sorted accesses round-robin over the query terms' posting lists; on the
//! first sighting of a document it random-accesses the remaining terms to
//! compute the full score, and the *threshold* — the sum of the partial
//! scores at the current list positions — upper-bounds every document not
//! yet seen. That threshold is exactly the `unseen` bound of the bounding
//! top-k framework (Algorithm 2), which the diversified-search engine
//! consumes unchanged.
//!
//! As in Fagin et al.'s TA, a document is handed out only once it is
//! **certified**: its score is at least the threshold, so no document
//! still unseen can outscore it. Scored documents wait in a max-heap until
//! then, and leave it in `(score desc, doc asc)` order, so the source emits
//! a prefix of the ranking and reads the lists only as far as that prefix
//! needs.

use crate::corpus::Corpus;
use crate::document::{DocId, TermId};
use crate::index::{InvertedIndex, PostingList};
use crate::tfidf;
use divtopk_core::{ResultSource, Score, Scored, UnseenBound};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

/// Threshold-algorithm source over an index for one multi-keyword query.
///
/// Order: sorted accesses proceed in complete **rounds** (one access per
/// non-exhausted list, in term order) until the best scored document
/// reaches the running-min threshold; only then is it emitted. Emission is
/// therefore by descending score over the whole matching set, bit-equal
/// scores by ascending doc id — never by the accident of which list or
/// round surfaced a document. (The one exception: a document tying the
/// threshold exactly may precede an unseen twin of smaller id.) Repeated
/// runs yield identical sequences, and
/// [`divtopk_core::MergedSource::bounding`] over per-segment sources emits
/// the same ranking whatever the segment layout; only the stop point moves.
///
/// The certification test is `≥`, not `>`: a score equal to the threshold
/// cannot be beaten by an unseen document. With a strict test, a query
/// pairing a rare term with a term of zero IDF would drain the zero-IDF
/// list (the whole corpus) before emitting a score-0 document.
///
/// Bound monotonicity: the reported unseen bound uses a **running minimum**
/// of the raw threshold, so it can never increase — not even across a
/// list-exhaustion boundary, where the raw per-round threshold jitters as
/// an exhausted list's contribution drops to zero mid-round. (The engine
/// clamps defensively per Lemma 2, but the source itself must be a valid
/// bounding source for the sharded merge, whose `max` of per-shard bounds
/// is only monotone if each input is.)
pub struct TaSource<'a> {
    corpus: &'a Corpus,
    query: Vec<TermId>,
    lists: Vec<PostingList<'a>>,
    /// `idfs[j]` is the weight of `query[j]`, read once: the threshold
    /// computes the partial at each cursor from it.
    idfs: Vec<f64>,
    cursors: Vec<usize>,
    seen: HashSet<DocId>,
    /// Fully-scored documents discovered but not yet handed out; the top
    /// is the best by `(score desc, doc asc)`.
    heap: BinaryHeap<(Score, Reverse<DocId>)>,
    /// Running minimum of the raw threshold (see type docs).
    min_threshold: f64,
    /// Sorted accesses performed (exposed for benches).
    sorted_accesses: u64,
    /// Random accesses performed (exposed for benches).
    random_accesses: u64,
}

impl<'a> TaSource<'a> {
    /// Creates a TA source for `query` (term ids; duplicates are removed).
    pub fn new(corpus: &'a Corpus, index: &'a InvertedIndex, query: &[TermId]) -> TaSource<'a> {
        let mut terms: Vec<TermId> = query.to_vec();
        terms.sort_unstable();
        terms.dedup();
        let lists = terms.iter().map(|&t| index.postings(t)).collect::<Vec<_>>();
        // A term outside the vocabulary has no postings to weigh.
        let idfs = terms
            .iter()
            .map(|&t| corpus.idf_table().get(t as usize).copied().unwrap_or(0.0))
            .collect();
        let mut source = TaSource {
            corpus,
            idfs,
            cursors: vec![0; terms.len()],
            query: terms,
            lists,
            seen: HashSet::new(),
            heap: BinaryHeap::new(),
            min_threshold: f64::INFINITY,
            sorted_accesses: 0,
            random_accesses: 0,
        };
        source.min_threshold = source.threshold();
        source
    }

    /// Raw threshold: sum of the partial scores at the current cursor
    /// positions (an exhausted list contributes 0). Upper-bounds every
    /// document no list has surfaced yet — but is *not* guaranteed
    /// monotone at exhaustion boundaries; consumers use `min_threshold`.
    fn threshold(&self) -> f64 {
        self.lists
            .iter()
            .zip(&self.idfs)
            .zip(&self.cursors)
            .map(|((list, &idf), &cur)| list.get(cur).map_or(0.0, |p| p.partial(self.corpus, idf)))
            .sum()
    }

    /// True when every list is exhausted.
    fn exhausted(&self) -> bool {
        self.lists
            .iter()
            .zip(&self.cursors)
            .all(|(list, &cur)| cur >= list.len())
    }

    /// Score of the best document scored but not yet handed out.
    fn top(&self) -> Option<f64> {
        self.heap.peek().map(|(score, _)| score.get())
    }

    /// Performs complete rounds of sorted accesses (one per non-exhausted
    /// list, in term order) until the heap's top is certified — its score
    /// is at least the running-min threshold — or all lists are exhausted.
    fn pump(&mut self) {
        while self.top().is_none_or(|top| top < self.min_threshold) && !self.exhausted() {
            for j in 0..self.lists.len() {
                let Some(posting) = self.lists[j].get(self.cursors[j]) else {
                    continue;
                };
                self.cursors[j] += 1;
                self.sorted_accesses += 1;
                if self.seen.insert(posting.doc) {
                    // Random accesses for the other query terms (Eq. 3).
                    // The full score is recomputed canonically — every
                    // term in ascending order through the same
                    // [`tfidf::score`] expression — rather than seeded
                    // from the surfacing posting's partial. Float
                    // addition is not associative, so a surfacing-order
                    // sum differs in the last ulp depending on *which
                    // list happened to see the document first*; that
                    // breaks exact hit equality between a segmented
                    // index and its from-scratch rebuild (tests/
                    // segments.rs) and between shard layouts. This way
                    // an emitted score is bit-for-bit Eq. 3.
                    let total = tfidf::score(self.corpus, &self.query, posting.doc);
                    self.random_accesses += self.query.len() as u64 - 1;
                    self.heap.push((total, Reverse(posting.doc)));
                }
            }
            self.min_threshold = self.min_threshold.min(self.threshold());
        }
    }

    /// Sorted accesses performed so far.
    pub fn sorted_accesses(&self) -> u64 {
        self.sorted_accesses
    }

    /// Random accesses performed so far.
    pub fn random_accesses(&self) -> u64 {
        self.random_accesses
    }
}

impl ResultSource for TaSource<'_> {
    type Item = DocId;

    fn next_result(&mut self) -> Option<Scored<DocId>> {
        self.pump();
        let (score, Reverse(doc)) = self.heap.pop()?;
        Some(Scored::new(doc, score))
    }

    fn unseen_bound(&self) -> UnseenBound {
        // The running-min threshold bounds documents never touched; heaped
        // documents have been scored but not yet returned, and the top
        // bounds them all. Both components are non-increasing over time
        // (a heaped score was ≤ the running-min threshold at discovery, and
        // pops only lower the top), so the reported bound is monotone.
        let bound = self
            .top()
            .map_or(self.min_threshold, |top| top.max(self.min_threshold));
        UnseenBound::At(Score::new(bound))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Corpus {
        let mut b = Corpus::builder();
        b.add_text("d0", "apple banana apple");
        b.add_text("d1", "apple cherry");
        b.add_text("d2", "banana cherry banana");
        b.add_text("d3", "durian fig");
        b.add_text("d4", "apple banana cherry");
        b.build()
    }

    /// Drains the source, checking the bound contract at every step.
    fn drain_checked(mut src: TaSource<'_>) -> Vec<Scored<DocId>> {
        let mut out = Vec::new();
        loop {
            let bound_before = match src.unseen_bound() {
                UnseenBound::At(s) => s,
                UnseenBound::Unbounded => Score::new(f64::INFINITY.min(f64::MAX)),
            };
            match src.next_result() {
                Some(r) => {
                    assert!(
                        r.score.get() <= bound_before.get() + 1e-9,
                        "emitted {} above bound {}",
                        r.score,
                        bound_before
                    );
                    out.push(r);
                }
                None => break,
            }
        }
        out
    }

    #[test]
    fn emits_each_matching_doc_exactly_once_with_correct_scores() {
        let c = corpus();
        let idx = InvertedIndex::build(&c);
        let q = vec![c.term_id("apple").unwrap(), c.term_id("banana").unwrap()];
        let src = TaSource::new(&c, &idx, &q);
        let mut results = drain_checked(src);
        results.sort_by_key(|r| r.item);
        let docs: Vec<DocId> = results.iter().map(|r| r.item).collect();
        assert_eq!(docs, vec![0, 1, 2, 4]); // d3 matches neither term
        for r in &results {
            let want = tfidf::score(&c, &q, r.item);
            assert!(r.score.approx_eq(want, 1e-12), "doc {}", r.item);
        }
    }

    #[test]
    fn bound_is_nonincreasing_over_time() {
        let c = corpus();
        let idx = InvertedIndex::build(&c);
        let q = vec![
            c.term_id("apple").unwrap(),
            c.term_id("banana").unwrap(),
            c.term_id("cherry").unwrap(),
        ];
        let mut src = TaSource::new(&c, &idx, &q);
        let mut last = f64::INFINITY;
        while src.next_result().is_some() {
            let UnseenBound::At(b) = src.unseen_bound() else {
                panic!("bound must be known after first access");
            };
            assert!(b.get() <= last + 1e-9);
            last = b.get();
        }
    }

    /// Regression (bugfix PR 3): the reported bound must be non-increasing
    /// at *every* step all the way to exhaustion, including across the
    /// boundaries where individual lists run dry mid-query. The corpus is
    /// crafted so the query's lists have very different lengths (one term
    /// in almost every document, one in exactly two, one in one), forcing
    /// staggered exhaustion while pulls continue.
    #[test]
    fn bound_monotone_to_exhaustion_across_list_boundaries() {
        let mut b = Corpus::builder();
        for i in 0..12 {
            // "common" everywhere; the rare terms only early on.
            let rare = match i {
                0 => "rare1 rare2",
                1 => "rare1",
                _ => "",
            };
            b.add_text(&format!("d{i}"), &format!("common filler{i} {rare}"));
        }
        let c = b.build();
        let idx = InvertedIndex::build(&c);
        let q = vec![
            c.term_id("common").unwrap(),
            c.term_id("rare1").unwrap(),
            c.term_id("rare2").unwrap(),
        ];
        let mut src = TaSource::new(&c, &idx, &q);
        let mut prev = match src.unseen_bound() {
            UnseenBound::At(s) => s.get(),
            UnseenBound::Unbounded => f64::INFINITY,
        };
        let mut pulled = 0;
        while let Some(r) = src.next_result() {
            pulled += 1;
            let UnseenBound::At(b) = src.unseen_bound() else {
                panic!("TA bound must always be known");
            };
            assert!(
                b.get() <= prev,
                "bound rose {prev} -> {} after pulling doc {}",
                b.get(),
                r.item
            );
            // The bound also genuinely covers the emitted result stream:
            // nothing pulled later may exceed it (checked transitively by
            // monotonicity + the per-pull check in `drain_checked`).
            prev = b.get();
        }
        assert_eq!(pulled, 12, "every matching doc must be emitted");
        assert!(src.exhausted());
    }

    /// Documents discovered in the same sorted-access round are emitted by
    /// `(score desc, doc asc)`, not by which posting list surfaced them.
    #[test]
    fn same_round_ties_emit_by_doc_id() {
        let mut b = Corpus::builder();
        // Two identical docs -> identical scores; plus filler for idf > 0.
        b.add_text("twin-a", "apple banana");
        b.add_text("twin-b", "apple banana");
        for i in 0..6 {
            b.add_text(&format!("f{i}"), "unrelated filler words");
        }
        let c = b.build();
        let idx = InvertedIndex::build(&c);
        let q = vec![c.term_id("apple").unwrap(), c.term_id("banana").unwrap()];
        let src = TaSource::new(&c, &idx, &q);
        let order: Vec<DocId> = drain_checked(src).iter().map(|r| r.item).collect();
        assert_eq!(order, vec![0, 1], "score ties must break by doc id");
    }

    /// Certified emission: drained, the source hands out every matching
    /// document exactly once, by `(score desc, doc asc)`, each with Eq. 3's
    /// canonical score bits — the whole ranking, not a round-by-round
    /// approximation of it. `drain_checked` also asserts that no emitted
    /// score exceeds the bound reported before it.
    #[test]
    fn drained_source_emits_the_whole_ranking_in_order() {
        let c = crate::synth::generate(&crate::synth::SynthConfig::tiny());
        let idx = InvertedIndex::build(&c);
        // Terms of every frequency band: the commonest ones and a spread
        // of rarer ones, paired and tripled.
        let mut by_df: Vec<TermId> = (0..c.num_terms() as TermId)
            .filter(|&t| !idx.postings(t).is_empty())
            .collect();
        by_df.sort_by_key(|&t| (std::cmp::Reverse(idx.postings(t).len()), t));
        let picks: Vec<TermId> = [0, 1, 2, 5, 11, 23, 47, 95, 191].map(|i| by_df[i]).to_vec();
        let mut queries: Vec<Vec<TermId>> = Vec::new();
        for (i, &a) in picks.iter().enumerate() {
            for &b in &picks[i + 1..] {
                queries.push(vec![a, b]);
            }
        }
        queries.push(vec![picks[0], picks[4], picks[8]]);
        queries.push(vec![picks[1], picks[2], picks[3]]);
        for q in &mut queries {
            // Eq. 3's canonical sum runs over the terms in ascending order.
            q.sort_unstable();
            let q = &*q;
            let got = drain_checked(TaSource::new(&c, &idx, q));
            let mut want: Vec<(DocId, u64)> = (0..c.num_docs() as DocId)
                .filter(|&d| q.iter().any(|&t| c.doc(d).tf(t) > 0))
                .map(|d| (d, tfidf::score(&c, q, d).get().to_bits()))
                .collect();
            // Scores are non-negative, so their bits order as they do.
            want.sort_unstable_by_key(|&(d, bits)| (std::cmp::Reverse(bits), d));
            let got: Vec<(DocId, u64)> = got
                .iter()
                .map(|r| (r.item, r.score.get().to_bits()))
                .collect();
            assert_eq!(got, want, "query {q:?}");
        }
    }

    /// A term in every document has IDF 0, so every document it alone
    /// matches scores 0 — exactly the threshold once the rare term's list
    /// runs dry. Certification by `≥` emits those documents at once; a
    /// strict test would first drain the common list, the whole corpus.
    #[test]
    fn a_zero_idf_term_does_not_drain_its_list() {
        let mut b = Corpus::builder();
        for i in 0..200 {
            let rare = if i == 77 { " rare" } else { "" };
            b.add_text(&format!("d{i}"), &format!("common filler{i}{rare}"));
        }
        let c = b.build();
        let idx = InvertedIndex::build(&c);
        let (common, rare) = (c.term_id("common").unwrap(), c.term_id("rare").unwrap());
        assert_eq!(c.idf(common), 0.0);
        let mut src = TaSource::new(&c, &idx, &[common, rare]);
        let first = src.next_result().unwrap();
        assert_eq!(first.item, 77);
        assert!(first.score.get() > 0.0);
        let second = src.next_result().unwrap();
        assert_eq!(second.score.get(), 0.0);
        assert!(
            src.sorted_accesses() <= 3,
            "{} sorted accesses before a score-0 document",
            src.sorted_accesses()
        );
        assert_eq!(drain_checked(src).len(), 198);
    }

    #[test]
    fn duplicate_query_terms_are_collapsed() {
        let c = corpus();
        let idx = InvertedIndex::build(&c);
        let apple = c.term_id("apple").unwrap();
        let src = TaSource::new(&c, &idx, &[apple, apple]);
        let results = drain_checked(src);
        assert_eq!(results.len(), 3); // d0, d1, d4
    }

    #[test]
    fn empty_query_yields_nothing() {
        let c = corpus();
        let idx = InvertedIndex::build(&c);
        let mut src = TaSource::new(&c, &idx, &[]);
        assert!(src.next_result().is_none());
    }

    #[test]
    fn access_counters_move() {
        let c = corpus();
        let idx = InvertedIndex::build(&c);
        let q = vec![c.term_id("apple").unwrap(), c.term_id("cherry").unwrap()];
        let mut src = TaSource::new(&c, &idx, &q);
        while src.next_result().is_some() {}
        assert!(src.sorted_accesses() > 0);
        assert!(src.random_accesses() > 0);
    }
}
