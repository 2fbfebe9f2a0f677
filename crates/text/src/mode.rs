//! [`DiversifyMode`] — the single per-query selector for *how* results
//! are diversified.
//!
//! Every variant names one function of [`divtopk_core::diversify`]
//! (`search_with_source` holds the one `match`); this enum is the typed
//! handle callers, the cache-key fingerprint, and the wire protocol all
//! share.
//!
//! See DESIGN.md §15 for each mode's guarantee, cost model, and the
//! measured quality/latency frontier (`figures frontier`).

use divtopk_core::{ExactAlgorithm, SearchError};

pub use divtopk_core::diversify::WindowConfig;

/// MMR configuration (Carbonell & Goldstein's greedy marginal-relevance
/// rerank — the related-work two-step baseline of the paper's §9).
#[derive(Debug, Clone, PartialEq)]
pub struct MmrConfig {
    /// Trade-off: 1.0 = pure relevance, 0.0 = pure anti-redundancy.
    pub lambda: f64,
}

/// KNN-diversity configuration (arXiv cs/0310028).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KnnConfig {
    /// How many nearest selected neighbors the dissimilarity term
    /// averages over.
    pub neighbors: usize,
}

impl Default for KnnConfig {
    /// The conventional default: 3 nearest neighbors.
    fn default() -> KnnConfig {
        KnnConfig { neighbors: 3 }
    }
}

/// Which diversification strategy a search runs.
///
/// All modes are deterministic (seed-free, doc-id tie-breaks) and all go
/// through the same result sources and admission checks; they differ in
/// guarantee and cost (only `Exact` runs the §4 framework, so only it
/// can trip a budget other than the deadline):
///
/// * [`Exact`](DiversifyMode::Exact) — the paper's exact diversified
///   top-k (max total score s.t. pairwise similarity ≤ τ), via
///   div-astar/dp/cut under Lemma-1/3 early stopping. The quality
///   oracle; NP-hard inner searches.
/// * [`None`](DiversifyMode::None) — diversity off: the plain relevance
///   top-k (score descending, doc id as tie-break), pulled by a loop
///   that stops when the k-th score reaches the source's unseen bound —
///   no diversity graph, no inner search. The relevance oracle.
/// * [`Mmr`](DiversifyMode::Mmr) — greedy marginal-relevance rerank of
///   an oversampled top-`4k` pool (pulled by that same loop, like every
///   rerank mode's); penalizes redundancy, never forbids it.
/// * [`Window`](DiversifyMode::Window) — sliding-window max-per-source
///   spread with a score floor and deterministic rotations; the
///   production-cheap mode.
/// * [`Disc`](DiversifyMode::Disc) — DisC-style dissimilarity+coverage
///   greedy (maximal independent set of the pool in score order).
/// * [`Knn`](DiversifyMode::Knn) — greedy relevance × knn-dissimilarity
///   utility.
#[derive(Debug, Clone, PartialEq)]
pub enum DiversifyMode {
    /// Exact diversified top-k with the given inner algorithm
    /// (div-cut by default — the paper's best).
    Exact(ExactAlgorithm),
    /// Diversity off: plain relevance top-k.
    None,
    /// MMR greedy rerank.
    Mmr(MmrConfig),
    /// Sliding-window max-per-source spread.
    Window(WindowConfig),
    /// DisC dissimilarity + coverage greedy.
    Disc,
    /// KNN-diversity greedy.
    Knn(KnnConfig),
}

impl Default for DiversifyMode {
    /// The paper's default: exact diversified top-k via div-cut.
    fn default() -> DiversifyMode {
        DiversifyMode::Exact(ExactAlgorithm::default())
    }
}

impl DiversifyMode {
    /// Exact mode with the default inner algorithm (div-cut).
    pub fn exact() -> DiversifyMode {
        DiversifyMode::Exact(ExactAlgorithm::default())
    }

    /// MMR with the given λ.
    pub fn mmr(lambda: f64) -> DiversifyMode {
        DiversifyMode::Mmr(MmrConfig { lambda })
    }

    /// Window spread with the Snippet-1 defaults (window 5, 2 per
    /// source, 0.5 score floor).
    pub fn window() -> DiversifyMode {
        DiversifyMode::Window(WindowConfig::default())
    }

    /// KNN-diversity with the default neighbor count.
    pub fn knn() -> DiversifyMode {
        DiversifyMode::Knn(KnnConfig::default())
    }

    /// Stable lower-case mode name for metrics, bench tables, and logs.
    /// Exact modes are suffixed with their inner algorithm.
    pub fn name(&self) -> &'static str {
        match self {
            DiversifyMode::Exact(ExactAlgorithm::AStar) => "exact-astar",
            DiversifyMode::Exact(ExactAlgorithm::Dp) => "exact-dp",
            DiversifyMode::Exact(ExactAlgorithm::Cut) => "exact-cut",
            DiversifyMode::None => "none",
            DiversifyMode::Mmr(_) => "mmr",
            DiversifyMode::Window(_) => "window",
            DiversifyMode::Disc => "disc",
            DiversifyMode::Knn(_) => "knn",
        }
    }

    /// Admission validation of the mode's own parameters, part of
    /// `SearchOptions::validate`. Every rejected knob is a typed
    /// [`SearchError::InvalidMode`] naming the parameter — the same
    /// fail-at-admission discipline as `τ` (a NaN λ, for instance, would
    /// otherwise silently collapse MMR into relevance-only ranking).
    pub fn validate(&self) -> Result<(), SearchError> {
        match self {
            DiversifyMode::Exact(_) | DiversifyMode::None | DiversifyMode::Disc => Ok(()),
            DiversifyMode::Mmr(config) => {
                if !config.lambda.is_finite() || !(0.0..=1.0).contains(&config.lambda) {
                    return Err(SearchError::InvalidMode {
                        detail: "mmr λ must be a number in [0, 1]",
                    });
                }
                Ok(())
            }
            DiversifyMode::Window(config) => {
                if config.window == 0 {
                    return Err(SearchError::InvalidMode {
                        detail: "window size must be ≥ 1",
                    });
                }
                if config.max_per_source == 0 {
                    return Err(SearchError::InvalidMode {
                        detail: "window max-per-source must be ≥ 1",
                    });
                }
                if !config.min_score_ratio.is_finite()
                    || !(0.0..=1.0).contains(&config.min_score_ratio)
                {
                    return Err(SearchError::InvalidMode {
                        detail: "window min-score-ratio must be a number in [0, 1]",
                    });
                }
                Ok(())
            }
            DiversifyMode::Knn(config) => {
                if config.neighbors == 0 {
                    return Err(SearchError::InvalidMode {
                        detail: "knn neighbor count must be ≥ 1",
                    });
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mode_is_exact_cut() {
        assert_eq!(
            DiversifyMode::default(),
            DiversifyMode::Exact(ExactAlgorithm::Cut)
        );
        assert_eq!(DiversifyMode::default().name(), "exact-cut");
    }

    #[test]
    fn names_are_stable_and_distinct() {
        let modes = [
            DiversifyMode::Exact(ExactAlgorithm::AStar),
            DiversifyMode::Exact(ExactAlgorithm::Dp),
            DiversifyMode::exact(),
            DiversifyMode::None,
            DiversifyMode::mmr(0.7),
            DiversifyMode::window(),
            DiversifyMode::Disc,
            DiversifyMode::knn(),
        ];
        let names: Vec<&str> = modes.iter().map(|m| m.name()).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "{names:?}");
    }

    #[test]
    fn validation_rejects_bad_knobs() {
        for bad in [f64::NAN, -0.1, 1.5] {
            assert!(matches!(
                DiversifyMode::mmr(bad).validate(),
                Err(SearchError::InvalidMode { .. })
            ));
        }
        assert!(
            DiversifyMode::Window(WindowConfig {
                window: 0,
                ..WindowConfig::default()
            })
            .validate()
            .is_err()
        );
        assert!(
            DiversifyMode::Window(WindowConfig {
                max_per_source: 0,
                ..WindowConfig::default()
            })
            .validate()
            .is_err()
        );
        assert!(
            DiversifyMode::Window(WindowConfig {
                min_score_ratio: f64::NAN,
                ..WindowConfig::default()
            })
            .validate()
            .is_err()
        );
        assert!(
            DiversifyMode::Knn(KnnConfig { neighbors: 0 })
                .validate()
                .is_err()
        );
        // Good knobs pass.
        for mode in [
            DiversifyMode::exact(),
            DiversifyMode::None,
            DiversifyMode::mmr(0.0),
            DiversifyMode::mmr(1.0),
            DiversifyMode::window(),
            DiversifyMode::Disc,
            DiversifyMode::knn(),
        ] {
            assert!(mode.validate().is_ok(), "{mode:?}");
        }
    }
}
