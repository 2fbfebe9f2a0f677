//! Documents as term-multiset signatures.

/// Document identifier within one corpus. Dense, `0..n`.
pub type DocId = u32;

/// Term identifier within one vocabulary. Dense, `0..|V|`.
pub type TermId = u32;

/// A document reduced to what scoring and similarity need: its title, its
/// term multiset (sorted `(term, count)` pairs, stop words removed) and its
/// post-stop-word token count `len(d)` (Eq. 3's normalizer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    /// Display title (synthetic corpora use generated titles).
    pub title: String,
    /// Sorted by term id, counts ≥ 1. The multiset signature used by both
    /// TF lookup (Eq. 3) and weighted Jaccard (Eq. 4).
    pub terms: Vec<(TermId, u32)>,
    /// Total number of (non-stop-word) tokens.
    pub len: u32,
}

impl Document {
    /// Builds a document signature from an unsorted token-id list. The
    /// signature is allocated once at its exact size (the distinct ids,
    /// counted on the sorted tokens), so a corpus keeps no spare capacity.
    pub fn from_tokens(title: String, mut tokens: Vec<TermId>) -> Document {
        tokens.sort_unstable();
        let len = tokens.len() as u32;
        let distinct = tokens.first().map_or(0, |_| {
            1 + tokens.windows(2).filter(|w| w[0] != w[1]).count()
        });
        let mut terms: Vec<(TermId, u32)> = Vec::with_capacity(distinct);
        for t in tokens {
            match terms.last_mut() {
                Some((last, count)) if *last == t => *count += 1,
                _ => terms.push((t, 1)),
            }
        }
        Document { title, terms, len }
    }

    /// Term frequency `tf(t, d)`.
    #[inline]
    pub fn tf(&self, term: TermId) -> u32 {
        match self.terms.binary_search_by_key(&term, |&(t, _)| t) {
            Ok(i) => self.terms[i].1,
            Err(_) => 0,
        }
    }

    /// True iff the document contains `term`.
    #[inline]
    pub fn contains(&self, term: TermId) -> bool {
        self.tf(term) > 0
    }

    /// Number of distinct terms.
    pub fn distinct_terms(&self) -> usize {
        self.terms.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_tokens_builds_sorted_counts() {
        let d = Document::from_tokens("t".into(), vec![5, 2, 5, 9, 2, 5]);
        assert_eq!(d.terms, vec![(2, 2), (5, 3), (9, 1)]);
        assert_eq!(d.len, 6);
        assert_eq!(d.distinct_terms(), 3);
    }

    #[test]
    fn from_tokens_allocates_the_signature_at_its_exact_size() {
        for tokens in [
            vec![],
            vec![4],
            vec![9, 9, 9],
            (0..1000).map(|i| i % 37).collect(),
        ] {
            let d = Document::from_tokens("t".into(), tokens);
            assert_eq!(d.terms.capacity(), d.terms.len());
        }
    }

    #[test]
    fn tf_lookup() {
        let d = Document::from_tokens("t".into(), vec![1, 1, 7]);
        assert_eq!(d.tf(1), 2);
        assert_eq!(d.tf(7), 1);
        assert_eq!(d.tf(3), 0);
        assert!(d.contains(7));
        assert!(!d.contains(3));
    }

    #[test]
    fn empty_document() {
        let d = Document::from_tokens("empty".into(), vec![]);
        assert_eq!(d.len, 0);
        assert!(d.terms.is_empty());
    }
}
