//! Sequential inverted-list scan as an **incremental** result source.
//!
//! For single-keyword queries (the paper's reuters setup, §8) the posting
//! list — sorted by partial score, which *is* the full Eq. 3 score for one
//! term — already enumerates results in non-increasing score order. That is
//! precisely the incremental top-k framework (Algorithm 1): the unseen
//! bound is the score of the last emitted result.

use crate::corpus::Corpus;
use crate::document::{DocId, TermId};
use crate::index::{InvertedIndex, PostingIter};
use divtopk_core::{ResultSource, Score, Scored, UnseenBound};

/// Incremental scan of one posting list.
pub struct ScanSource<'a> {
    corpus: &'a Corpus,
    /// The list's term weight, read once: a pull computes its posting's
    /// partial score from it ([`crate::index::Posting::partial`]).
    idf: f64,
    postings: PostingIter<'a>,
    last: Option<Score>,
}

impl<'a> ScanSource<'a> {
    /// Creates a scan source for a single-keyword query over `index`,
    /// whose statistics are `corpus`'s.
    pub fn new(corpus: &'a Corpus, index: &'a InvertedIndex, term: TermId) -> ScanSource<'a> {
        ScanSource {
            corpus,
            // A term outside the vocabulary has no postings to weigh.
            idf: corpus
                .idf_table()
                .get(term as usize)
                .copied()
                .unwrap_or(0.0),
            postings: index.postings(term).iter(),
            last: None,
        }
    }
}

impl ResultSource for ScanSource<'_> {
    type Item = DocId;

    fn next_result(&mut self) -> Option<Scored<DocId>> {
        let p = self.postings.next()?;
        let score = Score::new(p.partial(self.corpus, self.idf));
        self.last = Some(score);
        Some(Scored::new(p.doc, score))
    }

    fn unseen_bound(&self) -> UnseenBound {
        match self.last {
            Some(s) => UnseenBound::At(s),
            None => UnseenBound::Unbounded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::Corpus;
    use crate::tfidf;

    /// The engine's worker threads move per-shard sources across threads.
    #[test]
    fn text_sources_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ScanSource<'_>>();
        assert_send::<crate::ta::TaSource<'_>>();
        assert_send::<divtopk_core::MergedSource<ScanSource<'_>>>();
    }

    fn corpus() -> Corpus {
        let mut b = Corpus::builder();
        b.add_text("d0", "wheat prices rose");
        b.add_text("d1", "wheat wheat harvest");
        b.add_text("d2", "oil prices fell");
        b.add_text("d3", "currency markets stable");
        b.build()
    }

    #[test]
    fn emits_in_nonincreasing_score_order() {
        let c = corpus();
        let idx = InvertedIndex::build(&c);
        let wheat = c.term_id("wheat").unwrap();
        let mut src = ScanSource::new(&c, &idx, wheat);
        let mut scores = Vec::new();
        while let Some(r) = src.next_result() {
            let want = tfidf::score(&c, &[wheat], r.item);
            assert!(r.score.approx_eq(want, 1e-12));
            scores.push(r.score);
        }
        assert_eq!(scores.len(), 2); // d0 and d1
        assert!(scores.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn bound_tracks_last_emitted() {
        let c = corpus();
        let idx = InvertedIndex::build(&c);
        let prices = c.term_id("prices").unwrap();
        let mut src = ScanSource::new(&c, &idx, prices);
        assert_eq!(src.unseen_bound(), UnseenBound::Unbounded);
        let first = src.next_result().unwrap();
        assert_eq!(src.unseen_bound(), UnseenBound::At(first.score));
    }

    #[test]
    fn term_absent_from_corpus_is_empty() {
        let c = corpus();
        let idx = InvertedIndex::build(&c);
        let stable = c.term_id("stable").unwrap();
        let mut src = ScanSource::new(&c, &idx, stable);
        assert!(src.next_result().is_some()); // d3 contains it once
        assert!(src.next_result().is_none());
    }
}
