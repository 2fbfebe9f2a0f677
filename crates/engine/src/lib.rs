//! # divtopk-engine — live-updatable concurrent serving for diversified top-k
//!
//! The paper's `div-search` framework (Algorithm 3) needs exactly one thing
//! from its retrieval tier: a [`divtopk_core::ResultSource`] with a valid
//! unseen-score bound. That contract **composes across disjoint document
//! partitions** — the max of per-partition bounds is a sound global bound
//! (see [`divtopk_core::merge`]) — and it **survives deletion** — removing
//! candidates only shrinks the unseen set, so an unchanged bound stays
//! valid. This crate leans on both halves to scale the single-machine
//! searcher into a serving engine over a *mutating* corpus without
//! touching the exactness proofs (Lemmas 1–3):
//!
//! * [`divtopk_text::segments::SegmentedIndex`] — an append-only sequence
//!   of immutable index segments with tombstoned deletes and size-tiered
//!   compaction, pinned to a from-scratch rebuild by a property suite
//!   (DESIGN.md §9); the base corpus is partitioned round-robin into
//!   `shards` segments
//!   ([`SegmentedIndex::build_partitioned`](divtopk_text::segments::SegmentedIndex::build_partitioned)).
//! * [`divtopk_core::MergedSource`] — a binary-heap k-way merge of one
//!   [`divtopk_text::ScanSource`] / [`divtopk_text::TaSource`] per
//!   segment, with tombstones filtered at the merge; the framework
//!   consumes it unchanged.
//! * [`engine::Engine`] — owns an `Arc`-swapped copy-on-write snapshot:
//!   writers ([`engine::Engine::add_docs`] /
//!   [`engine::Engine::delete_docs`] / [`engine::Engine::compact`])
//!   publish a new generation while in-flight queries finish on their
//!   pinned epoch; the LRU result cache ([`cache::LruCache`]) keys on
//!   `(generation, normalized query, k, τ bits, algorithm)`, so a
//!   mutation instantly orphans every stale entry.
//!
//! ```
//! use divtopk_engine::prelude::*;
//! use divtopk_text::prelude::*;
//!
//! let corpus = generate(&SynthConfig::tiny());
//! let engine = Engine::new(corpus, EngineConfig::new(4));
//! // Busiest term in the synthetic vocabulary.
//! let term = (0..engine.corpus().num_terms() as TermId)
//!     .max_by_key(|&t| engine.corpus().doc_freq(t))
//!     .unwrap();
//! let options = SearchOptions::new(3).with_tau(0.5);
//! let out = engine.search(&Query::Scan(term), &options).unwrap();
//! assert!(out.hits.len() <= 3);
//! // Same query again: served from the cache, bit-identical.
//! let again = engine.search(&Query::Scan(term), &options).unwrap();
//! assert_eq!(out, again);
//! assert_eq!(engine.stats().cache_hits, 1);
//! // Live update: delete the top hit — the next query (a new snapshot
//! // generation, so no stale cache entry can answer it) moves on.
//! let top = out.hits[0].doc;
//! engine.delete_docs(&[top]);
//! let fresh = engine.search(&Query::Scan(term), &options).unwrap();
//! assert!(fresh.hits.iter().all(|h| h.doc != top));
//! assert_eq!(engine.stats().generation, 1);
//! ```

// This crate is pure safe Rust; keep it that way. The workspace's only
// unsafe lives in divtopk-core's scoped pool and the bench allocator,
// each behind a SAFETY argument checked by divtopk-lint.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod cache;
pub mod engine;
pub mod histogram;
pub mod proto;
pub mod server;

/// One-stop imports.
pub mod prelude {
    pub use crate::cache::{CacheStats, LruCache};
    pub use crate::engine::{Engine, EngineConfig, EngineStats, Query};
    pub use crate::histogram::LatencyHistogram;
    pub use crate::proto::{ProtoError, Request, Response, StatsReport, WireHits};
    pub use crate::server::{Server, ServerConfig, ServerMetrics};
    pub use divtopk_text::persist::SnapshotError;
    pub use divtopk_text::segments::SegmentedIndex;
}

pub use prelude::*;
