//! Length-normalized TF·IDF scoring (Eq. 3 of the paper):
//!
//! ```text
//! score(q, d) = Σ_{qi ∈ q} tf(qi, d) · idf(qi) / sqrt(len(d))
//! ```

use crate::corpus::Corpus;
use crate::document::{DocId, TermId};
use divtopk_core::Score;

/// The contribution of a single query term to a document's score,
/// `tf · idf / sqrt(len)`: the unit [`score`] sums, and so the unit of the
/// threshold algorithm's emitted scores. Zero for documents of length
/// zero. Posting lists are ordered by [`crate::index::partial`] instead,
/// `tf · idf · (1 / sqrt(len))`, which may differ from this in the last
/// ulp; each expression stays as it is, because moving either would move
/// scores or list orders.
pub fn partial_score(corpus: &Corpus, term: TermId, doc: DocId) -> f64 {
    let d = corpus.doc(doc);
    if d.len == 0 {
        return 0.0;
    }
    d.tf(term) as f64 * corpus.idf(term) / (d.len as f64).sqrt()
}

/// Eq. 3: full query score for a document.
pub fn score(corpus: &Corpus, query: &[TermId], doc: DocId) -> Score {
    let total: f64 = query.iter().map(|&t| partial_score(corpus, t, doc)).sum();
    Score::new(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus() -> Corpus {
        let mut b = Corpus::builder();
        b.add_text("d0", "apple orchard apple harvest"); // apple x2
        b.add_text("d1", "apple pie recipe");
        b.add_text("d2", "orchard visit");
        b.add_text("d3", "unrelated text entirely");
        b.build()
    }

    #[test]
    fn score_matches_manual_computation() {
        let c = corpus();
        let apple = c.term_id("apple").unwrap();
        // df(apple) = 2, N = 4 → idf = ln(4/3).
        let idf = (4.0f64 / 3.0).ln();
        assert!((c.idf(apple) - idf).abs() < 1e-12);
        // d0: tf = 2, len = 4 → 2·idf/2 = idf.
        let got = score(&c, &[apple], 0);
        assert!((got.get() - idf).abs() < 1e-12, "{got}");
    }

    #[test]
    fn multi_term_scores_add() {
        let c = corpus();
        let apple = c.term_id("apple").unwrap();
        let orchard = c.term_id("orchard").unwrap();
        let s_both = score(&c, &[apple, orchard], 0).get();
        let s_a = score(&c, &[apple], 0).get();
        let s_o = score(&c, &[orchard], 0).get();
        assert!((s_both - (s_a + s_o)).abs() < 1e-12);
    }

    #[test]
    fn absent_term_contributes_zero() {
        let c = corpus();
        let apple = c.term_id("apple").unwrap();
        assert_eq!(score(&c, &[apple], 2), Score::ZERO);
        assert_eq!(score(&c, &[apple], 3), Score::ZERO);
    }

    #[test]
    fn length_normalization_prefers_focused_docs() {
        let mut b = Corpus::builder();
        b.add_text("focused", "rust");
        b.add_text(
            "diluted",
            "rust language compiler borrow checker memory safety",
        );
        // Make "rust" rare enough for a positive idf.
        for i in 0..8 {
            b.add_text(&format!("filler{i}"), "unrelated filler words");
        }
        let c = b.build();
        let rust = c.term_id("rust").unwrap();
        assert!(score(&c, &[rust], 0) > score(&c, &[rust], 1));
    }

    #[test]
    fn scores_are_finite_nonnegative() {
        let c = corpus();
        for t in 0..c.num_terms() as TermId {
            for d in 0..c.num_docs() as DocId {
                let s = score(&c, &[t], d);
                assert!(s.get() >= 0.0 && s.get().is_finite());
            }
        }
    }
}
