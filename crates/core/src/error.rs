//! Error types for diversified top-k search.

use std::fmt;

/// Why a search could not be completed.
///
/// (`PartialEq` only — [`SearchError::InvalidTau`] and
/// [`SearchError::InvalidBoundDecay`] carry the rejected `f64`, which has
/// no total equality.)
#[derive(Debug, Clone, PartialEq)]
pub enum SearchError {
    /// A configured resource budget was exhausted before the exact answer
    /// was found. This is the library analogue of the paper's `INF` entries
    /// (runs that exhausted the 2 GB testbed memory).
    ResourceExhausted(ExhaustedResource),
    /// The requested `k` is invalid for this operation (e.g. `k == 0` where
    /// a non-empty result is required).
    InvalidK {
        /// The rejected `k` value as supplied by the caller.
        k: usize,
    },
    /// The requested similarity threshold is not a number in `[0, 1]`.
    /// Rejected at admission: a NaN or out-of-range `τ` silently corrupts
    /// every `sim(a, b) > τ` comparison downstream (NaN compares false, so
    /// *nothing* is ever similar and near-duplicates sail through).
    InvalidTau {
        /// The rejected `τ` value as supplied by the caller (may be NaN).
        tau: f64,
    },
    /// The bound-decay throttle is not a number in `[0, 1)`. Rejected at
    /// admission: the framework asserts the range, and a panic inside a
    /// serving worker must not be reachable from client input.
    InvalidBoundDecay {
        /// The rejected decay as supplied by the caller (may be NaN).
        decay: f64,
    },
    /// A query referenced a term id outside the index vocabulary.
    /// Rejected at admission — malformed client input must surface as a
    /// typed error, not an out-of-bounds panic inside a serving worker.
    UnknownTerm {
        /// The rejected term id.
        term: u32,
    },
    /// A diversification-mode parameter is out of range (λ outside
    /// `[0, 1]`, a zero window, …). Rejected at admission like
    /// [`SearchError::InvalidTau`]: a bad knob must be a typed error, not
    /// a silently degenerate ranking.
    InvalidMode {
        /// Which parameter was rejected and why (static description).
        detail: &'static str,
    },
}

/// Which budget from [`crate::limits::SearchLimits`] ran out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExhaustedResource {
    /// The A* heap grew past `max_heap_entries`.
    HeapEntries,
    /// More than `max_expansions` partial solutions were expanded.
    Expansions,
    /// The wall-clock `deadline` passed.
    Deadline,
    /// Estimated working-set bytes exceeded `max_bytes`.
    Bytes,
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchError::ResourceExhausted(r) => {
                write!(f, "search aborted: resource budget exhausted ({r:?})")
            }
            SearchError::InvalidK { k } => write!(f, "invalid k: {k}"),
            SearchError::InvalidTau { tau } => {
                write!(
                    f,
                    "invalid similarity threshold τ: {tau} (must be in [0, 1])"
                )
            }
            SearchError::InvalidBoundDecay { decay } => {
                write!(f, "invalid bound decay: {decay} (must be in [0, 1))")
            }
            SearchError::UnknownTerm { term } => {
                write!(f, "unknown term id: {term} (outside the index vocabulary)")
            }
            SearchError::InvalidMode { detail } => {
                write!(f, "invalid diversify mode: {detail}")
            }
        }
    }
}

impl std::error::Error for SearchError {}

/// Convenient result alias for search entry points.
pub type SearchOutcome<T> = Result<T, SearchError>;
