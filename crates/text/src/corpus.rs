//! The document corpus: documents + vocabulary + document frequencies.

use crate::chunked::ChunkedVec;
use crate::document::{DocId, Document, TermId};
use crate::persist::FileStamp;
use crate::stopwords::is_stopword;
use crate::tokenize::tokenize;
use crate::vocab::Vocabulary;
use std::sync::{Arc, OnceLock};

/// An in-memory corpus with everything Eq. 3 / Eq. 4 need precomputed:
/// per-term document frequencies and the IDF table.
///
/// The statistics (vocabulary, df, IDF) live behind [`Arc`]s: they are
/// immutable after [`CorpusBuilder::build`] — [`Corpus::append_frozen`]
/// adds documents *without* touching them — so clones share the tables.
/// The documents themselves live in a [`ChunkedVec`]: fixed-size
/// `Arc`-shared chunks, so cloning a corpus epoch copies chunk pointers
/// only and an append batch deep-copies at most the partial tail chunk
/// (DESIGN.md §14) — never the whole document list, and never a
/// production-sized vocabulary.
#[derive(Debug, Clone)]
pub struct Corpus {
    vocab: Arc<Vocabulary>,
    docs: ChunkedVec<Document>,
    doc_freq: Arc<Vec<u32>>,
    /// `idf(t) = max(0, ln(N / (df(t) + 1)))` — clamped at zero so scores
    /// and Jaccard weights stay non-negative (terms present in almost every
    /// document otherwise get a (small) negative IDF, which would break the
    /// score invariants; ranking shape is unaffected).
    idf: Arc<Vec<f64>>,
    /// See [`Corpus::epoch_file`]; shared like the tables it describes.
    epoch_file: Arc<OnceLock<FileStamp>>,
}

impl Corpus {
    /// Starts building a corpus by adding documents.
    pub fn builder() -> CorpusBuilder {
        CorpusBuilder::default()
    }

    /// Number of documents.
    pub fn num_docs(&self) -> usize {
        self.docs.len()
    }

    /// Number of distinct terms.
    pub fn num_terms(&self) -> usize {
        self.vocab.len()
    }

    /// The document with id `d`.
    pub fn doc(&self, d: DocId) -> &Document {
        &self.docs[d as usize]
    }

    /// Iterates all documents in id order.
    pub fn docs(&self) -> impl Iterator<Item = &Document> {
        self.docs.iter()
    }

    /// The chunked document store itself — the snapshot layer persists
    /// it chunk-by-chunk so sealed chunks can be skipped on incremental
    /// checkpoints (DESIGN.md §14).
    pub fn doc_store(&self) -> &ChunkedVec<Document> {
        &self.docs
    }

    /// The vocabulary.
    pub fn vocab(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Document frequency `df(t)` — number of documents containing `t`.
    pub fn doc_freq(&self, t: TermId) -> u32 {
        self.doc_freq[t as usize]
    }

    /// Inverse document frequency (clamped at zero; see struct docs).
    #[inline]
    pub fn idf(&self, t: TermId) -> f64 {
        self.idf[t as usize]
    }

    /// The full IDF table, indexed by term id.
    pub fn idf_table(&self) -> &[f64] {
        &self.idf
    }

    /// Looks up a (lowercase) term.
    pub fn term_id(&self, term: &str) -> Option<TermId> {
        self.vocab.get(term)
    }

    /// Maximum document frequency over all terms (`π` in §8's kfreq
    /// banding). Zero for an empty corpus.
    pub fn max_doc_freq(&self) -> u32 {
        self.doc_freq.iter().copied().max().unwrap_or(0)
    }

    /// The snapshot epoch file (vocabulary + statistics) this corpus's
    /// tables were last durably written as, or loaded from, once the
    /// snapshot layer has set it. Every clone and every
    /// [`Corpus::append_frozen`] shares it: the tables never change.
    pub(crate) fn epoch_file(&self) -> &OnceLock<FileStamp> {
        &self.epoch_file
    }

    /// Reassembles a corpus from decoded snapshot parts
    /// ([`crate::persist`]); the caller has validated shape invariants
    /// (table sizes, term-id ranges, finite weights).
    pub(crate) fn from_parts(
        vocab: Vocabulary,
        docs: ChunkedVec<Document>,
        doc_freq: Vec<u32>,
        idf: Vec<f64>,
    ) -> Corpus {
        Corpus {
            vocab: Arc::new(vocab),
            docs,
            doc_freq: Arc::new(doc_freq),
            idf: Arc::new(idf),
            epoch_file: Arc::default(),
        }
    }

    /// Appends documents **without touching the statistics epoch**: the
    /// vocabulary, document frequencies, and IDF table stay exactly as
    /// [`CorpusBuilder::build`] computed them, so every already-indexed
    /// posting's partial score remains bit-exact while the new documents
    /// are scored under the same frozen weights. This is the substrate of
    /// the live-update path ([`crate::segments`]): immutable index
    /// segments are only possible if the corpus-global statistics they
    /// bake in cannot drift underneath them. Statistics are refreshed by
    /// building a fresh corpus (a new epoch), never in place.
    ///
    /// Returns the id range assigned to the new documents.
    ///
    /// # Panics
    /// Panics if a document references a term outside the frozen
    /// vocabulary (live additions cannot grow the vocabulary mid-epoch).
    pub fn append_frozen(
        &mut self,
        docs: impl IntoIterator<Item = Document>,
    ) -> std::ops::Range<DocId> {
        let start = self.docs.len() as DocId;
        for doc in docs {
            assert!(
                doc.terms
                    .iter()
                    .all(|&(t, _)| (t as usize) < self.vocab.len()),
                "appended document references a term outside the frozen vocabulary"
            );
            self.docs.push(doc);
        }
        start..self.docs.len() as DocId
    }
}

/// Incremental corpus builder.
#[derive(Debug, Default)]
pub struct CorpusBuilder {
    vocab: Vocabulary,
    docs: Vec<Document>,
}

impl CorpusBuilder {
    /// Pre-interns a synthetic vocabulary of `n` terms (`t000000` …) so
    /// generated corpora can add documents by term id directly.
    pub fn with_synthetic_vocab(n: usize) -> CorpusBuilder {
        CorpusBuilder {
            vocab: Vocabulary::synthetic(n),
            docs: Vec::new(),
        }
    }

    /// Tokenizes `text`, removes stop words, and adds the document.
    /// Returns its [`DocId`].
    pub fn add_text(&mut self, title: &str, text: &str) -> DocId {
        let tokens: Vec<TermId> = tokenize(text)
            .into_iter()
            .filter(|t| !is_stopword(t))
            .map(|t| self.vocab.intern(&t))
            .collect();
        self.add_tokens(title.to_owned(), tokens)
    }

    /// Adds a document from pre-interned token ids (synthetic corpora).
    ///
    /// # Panics
    /// Panics if a token id is outside the current vocabulary.
    pub fn add_tokens(&mut self, title: String, tokens: Vec<TermId>) -> DocId {
        assert!(
            tokens.iter().all(|&t| (t as usize) < self.vocab.len()),
            "token id outside vocabulary"
        );
        let id = self.docs.len() as DocId;
        self.docs.push(Document::from_tokens(title, tokens));
        id
    }

    /// Adds an already-built [`Document`] (e.g. one carried over from
    /// another corpus sharing the same vocabulary — how the live-update
    /// bench derives its base epoch from a larger generated corpus).
    ///
    /// # Panics
    /// Panics if the document references a term outside the vocabulary.
    pub fn add_document(&mut self, doc: Document) -> DocId {
        assert!(
            doc.terms
                .iter()
                .all(|&(t, _)| (t as usize) < self.vocab.len()),
            "document references a term outside the vocabulary"
        );
        let id = self.docs.len() as DocId;
        self.docs.push(doc);
        id
    }

    /// Number of documents added so far.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True when no documents were added.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Finalizes: computes document frequencies and the IDF table.
    pub fn build(self) -> Corpus {
        let n_terms = self.vocab.len();
        let n_docs = self.docs.len();
        let mut doc_freq = vec![0u32; n_terms];
        for d in &self.docs {
            for &(t, _) in &d.terms {
                doc_freq[t as usize] += 1;
            }
        }
        let idf = doc_freq
            .iter()
            .map(|&df| {
                if n_docs == 0 {
                    0.0
                } else {
                    (n_docs as f64 / (df as f64 + 1.0)).ln().max(0.0)
                }
            })
            .collect();
        Corpus {
            vocab: Arc::new(self.vocab),
            docs: self.docs.into_iter().collect(),
            doc_freq: Arc::new(doc_freq),
            idf: Arc::new(idf),
            epoch_file: Arc::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_corpus() -> Corpus {
        let mut b = Corpus::builder();
        b.add_text("d0", "the quick brown fox jumps over the lazy dog");
        b.add_text("d1", "the quick red fox");
        b.add_text("d2", "a lazy dog sleeps");
        b.build()
    }

    #[test]
    fn stopwords_are_removed() {
        let c = tiny_corpus();
        assert_eq!(c.term_id("the"), None);
        assert!(c.term_id("quick").is_some());
        // d0: quick brown fox jumps over? "over" is a stop word.
        assert_eq!(c.doc(0).len, 6); // quick brown fox jumps lazy dog
    }

    #[test]
    fn doc_freq_counts_documents_not_occurrences() {
        let c = tiny_corpus();
        let fox = c.term_id("fox").unwrap();
        assert_eq!(c.doc_freq(fox), 2);
        let lazy = c.term_id("lazy").unwrap();
        assert_eq!(c.doc_freq(lazy), 2);
        assert_eq!(c.max_doc_freq(), 2);
    }

    #[test]
    fn idf_is_nonnegative_and_monotone_in_rarity() {
        let c = tiny_corpus();
        let fox = c.term_id("fox").unwrap(); // df 2
        let brown = c.term_id("brown").unwrap(); // df 1
        assert!(c.idf(brown) > c.idf(fox));
        assert!(c.idf_table().iter().all(|&x| x >= 0.0));
        // idf(fox) = ln(3/3) = 0 exactly (clamped case boundary).
        assert_eq!(c.idf(fox), 0.0);
    }

    #[test]
    fn synthetic_builder_round_trip() {
        let mut b = CorpusBuilder::with_synthetic_vocab(10);
        b.add_tokens("s0".into(), vec![0, 0, 3]);
        b.add_tokens("s1".into(), vec![3, 9]);
        let c = b.build();
        assert_eq!(c.num_docs(), 2);
        assert_eq!(c.doc_freq(3), 2);
        assert_eq!(c.doc_freq(0), 1);
        assert_eq!(c.doc(0).tf(0), 2);
    }

    #[test]
    #[should_panic(expected = "outside vocabulary")]
    fn rejects_unknown_token_ids() {
        let mut b = CorpusBuilder::with_synthetic_vocab(2);
        b.add_tokens("bad".into(), vec![5]);
    }

    #[test]
    fn empty_corpus() {
        let c = Corpus::builder().build();
        assert_eq!(c.num_docs(), 0);
        assert_eq!(c.max_doc_freq(), 0);
    }

    #[test]
    fn append_frozen_keeps_the_statistics_epoch_pinned() {
        let mut c = tiny_corpus();
        let fox = c.term_id("fox").unwrap();
        let idf_before: Vec<f64> = c.idf_table().to_vec();
        let df_before = c.doc_freq(fox);
        let range = c.append_frozen(vec![
            Document::from_tokens("new".into(), vec![fox, fox]),
            Document::from_tokens("empty".into(), vec![]),
        ]);
        assert_eq!(range, 3..5);
        assert_eq!(c.num_docs(), 5);
        assert_eq!(c.doc(3).tf(fox), 2);
        // Frozen epoch: df and idf are untouched by the append.
        assert_eq!(c.doc_freq(fox), df_before);
        assert_eq!(c.idf_table(), idf_before.as_slice());
    }

    #[test]
    #[should_panic(expected = "frozen vocabulary")]
    fn append_frozen_rejects_out_of_vocabulary_terms() {
        let mut c = tiny_corpus();
        let bogus = c.num_terms() as TermId;
        c.append_frozen(vec![Document::from_tokens("bad".into(), vec![bogus])]);
    }

    #[test]
    fn builder_add_document_round_trips() {
        let mut b = CorpusBuilder::with_synthetic_vocab(6);
        let doc = Document::from_tokens("carried".into(), vec![1, 1, 5]);
        let id = b.add_document(doc.clone());
        assert_eq!(id, 0);
        let c = b.build();
        assert_eq!(c.doc(0), &doc);
        assert_eq!(c.doc_freq(1), 1);
    }
}
