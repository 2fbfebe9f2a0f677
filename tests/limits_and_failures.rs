//! Resource-budget behaviour — the library analogue of the paper's `INF`
//! entries (runs that exhausted the 2 GB testbed must fail cleanly, not
//! take the process down).

use divtopk::core::testgen;
use divtopk::*;
use std::time::Duration;

/// A graph family div-astar struggles with: one big dense-ish component.
fn hard_graph() -> DiversityGraph {
    testgen::random_graph(60, 0.15, 99)
}

#[test]
fn astar_respects_byte_budget() {
    let g = hard_graph();
    let limits = SearchLimits::with_max_bytes(4 * 1024);
    let err = ExactAlgorithm::AStar.search(&g, 30, &limits).unwrap_err();
    assert!(matches!(err, SearchError::ResourceExhausted(_)));
}

#[test]
fn astar_respects_heap_budget() {
    let g = hard_graph();
    let limits = SearchLimits {
        max_heap_entries: Some(16),
        ..SearchLimits::default()
    };
    let err = ExactAlgorithm::AStar.search(&g, 30, &limits).unwrap_err();
    assert_eq!(
        err,
        SearchError::ResourceExhausted(ExhaustedResource::HeapEntries)
    );
}

#[test]
fn astar_respects_deadline() {
    let g = testgen::random_graph(120, 0.08, 5);
    let limits = SearchLimits::with_time_budget(Duration::from_millis(1));
    // Either it finishes inside a millisecond (fine) or it must abort with
    // a deadline error — never hang.
    match ExactAlgorithm::AStar.search(&g, 60, &limits) {
        Ok(_) => {}
        Err(e) => assert_eq!(
            e,
            SearchError::ResourceExhausted(ExhaustedResource::Deadline)
        ),
    }
}

#[test]
fn generous_budgets_do_not_change_answers() {
    for seed in 0..8 {
        let g = testgen::random_graph(12, 0.3, seed);
        let unlimited = div_astar(&g, 6);
        let (budgeted, _) = ExactAlgorithm::AStar
            .search(
                &g,
                6,
                &SearchLimits {
                    max_heap_entries: Some(1 << 20),
                    max_expansions: Some(1 << 30),
                    time_budget: Some(Duration::from_secs(60)),
                    max_bytes: Some(1 << 30),
                },
            )
            .unwrap();
        for i in 0..=6 {
            assert_eq!(
                unlimited.prefix_best_score(i),
                budgeted.prefix_best_score(i)
            );
        }
    }
}

#[test]
fn dp_and_cut_share_budgets_across_components() {
    // Many components: per-component costs must accumulate against ONE
    // budget, so a tiny global budget fails even though each component is
    // trivial. They are 4-cycles, which need a search under both
    // algorithms: div-cut folds a 2-clique (Lemma 7 leaves one vertex) in
    // closed form, and only A* is charged against `max_expansions`.
    let scores = (0..200).map(|i| Score::from(1000 - i as u32)).collect();
    let edges: Vec<(u32, u32)> = (0..50)
        .flat_map(|c| (0..4).map(move |j| (4 * c + j, 4 * c + (j + 1) % 4)))
        .collect();
    let g = DiversityGraph::from_sorted_scores(scores, &edges);
    let limits = SearchLimits {
        max_expansions: Some(50),
        ..SearchLimits::default()
    };
    assert!(ExactAlgorithm::Dp.search(&g, 100, &limits).is_err());
    assert!(ExactAlgorithm::Cut.search(&g, 100, &limits).is_err());
    // With a budget large enough, both succeed and agree.
    let limits = SearchLimits {
        max_expansions: Some(2_000_000),
        ..SearchLimits::default()
    };
    let (dp, _) = ExactAlgorithm::Dp.search(&g, 100, &limits).unwrap();
    let (cut, _) = ExactAlgorithm::Cut.search(&g, 100, &limits).unwrap();
    assert_eq!(dp.best().score(), cut.best().score());
}

#[test]
fn framework_surfaces_inner_budget_errors() {
    let items: Vec<Scored<u32>> = (0..200)
        .map(|i| Scored::new(i, Score::from(1000 - i)))
        .collect();
    // i ≈ j iff same bucket of 4 and opposite parity: a 4-cycle per bucket.
    // (A whole bucket would be a clique, which div-cut compresses to one
    // vertex and folds without an A* expansion to charge.)
    let similar = |a: &u32, b: &u32| a / 4 == b / 4 && a.abs_diff(*b) % 2 == 1;
    let config = DivSearchConfig::new(50).with_limits(SearchLimits {
        max_expansions: Some(3),
        ..SearchLimits::default()
    });
    let out = DivTopK::new(IncrementalVecSource::new(items), similar, config).run();
    assert!(matches!(out, Err(SearchError::ResourceExhausted(_))));
}

#[test]
fn greedy_is_immune_to_budgets_by_design() {
    // The baseline must handle graphs where exact search would explode.
    let g = testgen::random_graph(5_000, 0.001, 3);
    let (nodes, score) = greedy(&g, 500);
    assert!(!nodes.is_empty());
    assert!(score > Score::ZERO);
    assert!(g.is_independent_set(&nodes));
}

#[test]
fn error_display_is_informative() {
    let e = SearchError::ResourceExhausted(ExhaustedResource::Bytes);
    let msg = format!("{e}");
    assert!(msg.contains("budget"), "{msg}");
    let e = SearchError::InvalidK { k: 0 };
    assert!(format!("{e}").contains("invalid k"));
}
