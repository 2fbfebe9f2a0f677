//! # divtopk-core — exact diversified top-k search
//!
//! A faithful, production-grade Rust implementation of
//! *Diversifying Top-K Results* (Qin, Yu, Chang — PVLDB 5(11), 2012).
//!
//! ## The problem
//!
//! A plain top-k query returns the `k` highest-scored results, which in
//! practice are often near-duplicates of each other. The **diversified
//! top-k** instead returns at most `k` results such that *no two are
//! similar* (given a user predicate `sim(a, b) > τ`) and the total score is
//! **maximized** — an NP-hard problem equivalent to maximum-weight
//! independent set with a size constraint on the *diversity graph*
//! (results = nodes, similar pairs = edges).
//!
//! ## What this crate provides
//!
//! * [`graph::DiversityGraph`] — the score-sorted diversity graph.
//! * Three exact algorithms for a fixed result set
//!   (`div-search-current()` in the paper):
//!   [`astar::div_astar`] (A\* over partial solutions),
//!   [`dp::div_dp`] (connected components + `⊕` dynamic programming),
//!   [`cut::div_cut`] (compression + cut-point tree decomposition) —
//!   plus the [`greedy::greedy`] baseline (fast, arbitrarily bad) and an
//!   [`exhaustive::exhaustive`] oracle for testing.
//! * The early-stopping [`framework::DivTopK`] engine that wraps **any**
//!   incremental or bounding top-k [`sources::ResultSource`] and returns
//!   the exact diversified top-k of the *entire* stream while generating
//!   as few results as possible (sufficient/necessary stop conditions,
//!   Lemmas 1 and 3).
//! * Resource budgets ([`limits::SearchLimits`]) so NP-hard searches fail
//!   cleanly instead of eating the machine (the paper's `INF` runs).
//!
//! ## Quick example
//!
//! ```
//! use divtopk_core::prelude::*;
//!
//! // Results with scores; two results are similar iff same category.
//! let results = vec![
//!     Scored::new(("apple logo 1", "logo"), Score::new(10.0)),
//!     Scored::new(("apple logo 2", "logo"), Score::new(9.5)),
//!     Scored::new(("apple pie", "food"), Score::new(8.0)),
//!     Scored::new(("apple orchard", "farm"), Score::new(7.0)),
//! ];
//! let source = IncrementalVecSource::new(results);
//! let similar = |a: &(&str, &str), b: &(&str, &str)| a.1 == b.1;
//! let out = DivTopK::new(source, similar, DivSearchConfig::new(3))
//!     .run()
//!     .unwrap();
//! let names: Vec<_> = out.selected.iter().map(|r| r.item.0).collect();
//! assert_eq!(names, ["apple logo 1", "apple pie", "apple orchard"]);
//! assert_eq!(out.total_score, Score::new(25.0));
//! ```

#![warn(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod astar;
pub mod components;
pub mod compress;
pub mod cut;
pub mod cutpoints;
pub mod diversify;
pub mod dp;
pub mod error;
pub mod exhaustive;
pub mod framework;
pub mod fxhash;
pub mod graph;
pub mod greedy;
pub mod limits;
pub mod merge;
pub mod metrics;
pub mod nodeset;
pub mod ops;
pub mod pool;
pub mod prefetch;
pub mod rng;
pub mod score;
pub mod sim;
pub mod solution;
pub mod sources;
pub mod sync;
pub mod testgen;

/// One-stop imports for typical users of the crate.
pub mod prelude {
    pub use crate::astar::div_astar;
    pub use crate::cut::div_cut;
    pub use crate::diversify::{
        DiversifierMetrics, DiversifyOutcome, RERANK_OVERSAMPLE, WindowConfig,
    };
    pub use crate::dp::div_dp;
    pub use crate::error::{ExhaustedResource, SearchError};
    pub use crate::framework::{DivSearchConfig, DivSearchOutput, DivTopK, ExactAlgorithm};
    pub use crate::fxhash::{FxBuildHasher, FxHashMap, FxHasher};
    pub use crate::graph::{DENSE_ADJ_MAX_NODES, DiversityGraph, NodeId};
    pub use crate::greedy::{greedy, greedy_result};
    pub use crate::limits::SearchLimits;
    pub use crate::merge::MergedSource;
    pub use crate::metrics::{FrameworkMetrics, SearchMetrics};
    pub use crate::nodeset::{DenseNodeSet, NodeSet};
    pub use crate::pool::{Scope, WorkerPool};
    pub use crate::prefetch::{DEFAULT_PREFETCH_DEPTH, PrefetchedSource};
    pub use crate::score::Score;
    pub use crate::sim::{Similarity, ThresholdSimilarity};
    pub use crate::solution::{SearchResult, SizedSolution};
    pub use crate::sources::{
        BoundingVecSource, IncrementalVecSource, ResultSource, Scored, UnseenBound,
    };
}

pub use prelude::*;
