//! The term dictionary.

use crate::document::TermId;
use divtopk_core::fxhash::FxHashMap;

/// Bidirectional string ↔ [`TermId`] mapping.
///
/// The lookup map uses the deterministic
/// [`FxHasher`](divtopk_core::fxhash::FxHasher): dictionary
/// construction sits on both the corpus build and the snapshot
/// cold-start path (DESIGN.md §14), and SipHash's DoS hardening is the
/// wrong trade for an internal map over the corpus's own terms.
#[derive(Debug, Clone, Default)]
pub struct Vocabulary {
    terms: Vec<String>,
    index: FxHashMap<String, TermId>,
}

impl Vocabulary {
    /// An empty vocabulary.
    pub fn new() -> Vocabulary {
        Vocabulary::default()
    }

    /// A synthetic vocabulary `t000000 … t(n-1)` for generated corpora.
    pub fn synthetic(n: usize) -> Vocabulary {
        let mut v = Vocabulary::new();
        for i in 0..n {
            v.intern(&format!("t{i:06}"));
        }
        v
    }

    /// Builds a vocabulary from an ordered term list in one pass — the
    /// snapshot load path ([`crate::persist`]), where the ids are already
    /// assigned by position. Returns `None` if a term repeats (interning
    /// would silently renumber everything after the duplicate).
    pub(crate) fn from_terms(terms: Vec<String>) -> Option<Vocabulary> {
        let mut index = FxHashMap::with_capacity_and_hasher(terms.len(), Default::default());
        for (i, term) in terms.iter().enumerate() {
            if index.insert(term.clone(), i as TermId).is_some() {
                return None;
            }
        }
        Some(Vocabulary { terms, index })
    }

    /// Returns the id for `term`, interning it if new.
    pub fn intern(&mut self, term: &str) -> TermId {
        if let Some(&id) = self.index.get(term) {
            return id;
        }
        let id = self.terms.len() as TermId;
        self.terms.push(term.to_owned());
        self.index.insert(term.to_owned(), id);
        id
    }

    /// Looks a term up without interning.
    pub fn get(&self, term: &str) -> Option<TermId> {
        self.index.get(term).copied()
    }

    /// The string for a term id.
    pub fn term(&self, id: TermId) -> &str {
        &self.terms[id as usize]
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when no terms are interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut v = Vocabulary::new();
        let a = v.intern("apple");
        let b = v.intern("banana");
        assert_ne!(a, b);
        assert_eq!(v.intern("apple"), a);
        assert_eq!(v.len(), 2);
        assert_eq!(v.term(a), "apple");
        assert_eq!(v.get("banana"), Some(b));
        assert_eq!(v.get("cherry"), None);
    }

    #[test]
    fn synthetic_vocab_has_stable_names() {
        let v = Vocabulary::synthetic(3);
        assert_eq!(v.len(), 3);
        assert_eq!(v.term(0), "t000000");
        assert_eq!(v.get("t000002"), Some(2));
    }
}
