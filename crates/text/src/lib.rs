//! # divtopk-text — text-search substrate for diversified top-k
//!
//! Everything the evaluation of *Diversifying Top-K Results* (VLDB 2012)
//! needs around the core algorithms: a tokenizer and stop-word list, an
//! in-memory corpus with IDF statistics, an inverted index, Eq. 3's
//! length-normalized TF·IDF scoring, Eq. 4's weighted Jaccard similarity,
//! the two §8 result sources (threshold algorithm for multi-keyword
//! queries; posting-list scan for single keywords), deterministic synthetic
//! corpora standing in for enwiki/reuters (see `DESIGN.md` §3 for why the
//! substitution preserves the evaluation's shape), kfreq query banding
//! (Fig. 12), and the [`search::DiversifiedSearcher`] glue.
//!
//! ```
//! use divtopk_text::prelude::*;
//!
//! // Build a small corpus, index it, run a diversified search.
//! let mut builder = Corpus::builder();
//! builder.add_text("a1", "rust memory safety borrow checker");
//! builder.add_text("a2", "rust memory safety borrow checker ownership");
//! builder.add_text("a3", "rust web framework async");
//! builder.add_text("a4", "gardening tips tomato");
//! for i in 0..6 {
//!     // Filler documents keep idf("rust") > 0 in this tiny corpus.
//!     builder.add_text(&format!("f{i}"), "unrelated filler text");
//! }
//! let corpus = builder.build();
//! let index = InvertedIndex::build(&corpus);
//! let searcher = DiversifiedSearcher::new(&corpus, &index);
//!
//! let rust = corpus.term_id("rust").unwrap();
//! let out = searcher
//!     .search_scan(rust, &SearchOptions::new(2).with_tau(0.5))
//!     .unwrap();
//! // a1 and a2 are near-duplicates: only one of them may appear.
//! assert_eq!(out.hits.len(), 2);
//! ```

// This crate is pure safe Rust; keep it that way. The workspace's only
// unsafe lives in divtopk-core's scoped pool and the bench allocator,
// each behind a SAFETY argument checked by divtopk-lint.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod chunked;
pub mod corpus;
pub mod document;
pub mod index;
pub mod jaccard;
pub mod mode;
pub mod persist;
pub mod quality;
pub mod query;
pub mod scan;
pub mod search;
pub mod segments;
pub mod stopwords;
pub mod synth;
pub mod ta;
pub mod tfidf;
pub mod tokenize;
pub mod vocab;

/// One-stop imports.
pub mod prelude {
    pub use crate::chunked::{CHUNK, ChunkedVec};
    pub use crate::corpus::{Corpus, CorpusBuilder};
    pub use crate::document::{DocId, Document, TermId};
    pub use crate::index::{InvertedIndex, Posting, PostingList};
    pub use crate::jaccard::{
        similar_above, total_weight, weighted_jaccard, weighted_jaccard_above,
        weighted_jaccard_with,
    };
    pub use crate::mode::{DiversifyMode, KnnConfig, MmrConfig, WindowConfig};
    pub use crate::persist::SnapshotError;
    pub use crate::quality::{diversified_score, redundancy};
    pub use crate::query::{KeywordQuery, kfreq_band, query_for_band, representative_terms};
    pub use crate::scan::ScanSource;
    pub use crate::search::{
        DiversifiedSearcher, Hit, SearchOptions, SearchOutput, WeightTable, doc_weights,
        search_with_source, validate_terms,
    };
    pub use crate::segments::{Segment, SegmentedIndex, Tombstones};
    pub use crate::synth::{SynthConfig, generate, generate_labeled};
    pub use crate::ta::TaSource;
    pub use crate::tfidf::{partial_score, score};
    pub use crate::tokenize::tokenize;
}

pub use prelude::*;
