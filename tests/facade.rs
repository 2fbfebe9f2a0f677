//! Guards the facade crate's wiring: `divtopk::core` / `divtopk::text`
//! re-exports and the flattened prelude must keep resolving, so a manifest
//! or feature regression breaks this test instead of every downstream user.

use divtopk::prelude::*;

/// Every path below is written fully qualified on purpose: the test is
/// about *name resolution through the facade*, not about behavior.
#[test]
fn core_reexport_paths_resolve() {
    let g = divtopk::core::graph::DiversityGraph::from_sorted_scores(
        vec![
            divtopk::core::score::Score::new(3.0),
            divtopk::core::score::Score::new(2.0),
            divtopk::core::score::Score::new(1.0),
        ],
        &[(0, 1)],
    );
    let r = divtopk::core::dp::div_dp(&g, 2);
    assert_eq!(r.best().score(), divtopk::core::score::Score::new(4.0));
    // Submodules reachable through the alias, not just the prelude names.
    let _ = divtopk::core::testgen::path_graph(4, 7);
    let _ = divtopk::core::rng::Pcg::new(1);
}

#[test]
fn text_reexport_paths_resolve() {
    let mut builder = divtopk::text::corpus::Corpus::builder();
    builder.add_text("d1", "alpha beta gamma");
    builder.add_text("d2", "alpha beta delta");
    let corpus = builder.build();
    let index = divtopk::text::index::InvertedIndex::build(&corpus);
    assert_eq!(corpus.num_docs(), 2);
    assert!(index.num_terms() > 0);
    let toks = divtopk::text::tokenize::tokenize("Hello, World!");
    assert_eq!(toks, vec!["hello".to_string(), "world".to_string()]);
}

#[test]
fn engine_reexport_paths_resolve() {
    let mut builder = divtopk::text::corpus::Corpus::builder();
    builder.add_text("d1", "alpha beta gamma");
    builder.add_text("d2", "alpha beta delta");
    builder.add_text("d3", "unrelated filler words");
    let corpus = builder.build();
    let engine =
        divtopk::engine::engine::Engine::new(corpus, divtopk::engine::engine::EngineConfig::new(2));
    assert_eq!(engine.stats().segments, 2);
    // The segment index and its partitioner stay reachable through the
    // facade; more parts than documents just leaves a part empty.
    let segmented: divtopk::prelude::SegmentedIndex =
        divtopk::text::segments::SegmentedIndex::build_partitioned(
            {
                let mut b = divtopk::text::corpus::Corpus::builder();
                b.add_text("s0", "alpha beta");
                b.build()
            },
            2,
        );
    assert_eq!(segmented.num_segments(), 2);
    // Prelude names flattened through the facade.
    let _: divtopk::prelude::EngineConfig = divtopk::prelude::EngineConfig::default();
    let _: divtopk::prelude::CacheStats = Default::default();
    let stats: divtopk::prelude::EngineStats = engine.stats();
    assert_eq!(stats.queries, 0);
}

/// The facade flattens `divtopk_core::prelude` at its root: the names used
/// by every example must resolve without any explicit submodule path.
#[test]
fn prelude_names_resolve_at_facade_root() {
    let results = vec![
        Scored::new(("a", 0u32), Score::new(2.0)),
        Scored::new(("b", 0u32), Score::new(1.5)),
        Scored::new(("c", 1u32), Score::new(1.0)),
    ];
    let source = IncrementalVecSource::new(results);
    let out = DivTopK::new(
        source,
        |a: &(&str, u32), b: &(&str, u32)| a.1 == b.1,
        DivSearchConfig::new(2),
    )
    .run()
    .unwrap();
    assert_eq!(out.selected.len(), 2);
    assert_eq!(out.total_score, Score::new(3.0));

    // A couple of non-framework prelude names, one per module family.
    let _: NodeSet = NodeSet::empty();
    let _ = SearchLimits::unlimited();
    let _ = ExactAlgorithm::Cut;
}

/// `use divtopk::prelude::*` itself must exist and match the root flatten.
#[test]
fn prelude_module_matches_root() {
    let a: Score = Score::new(1.25);
    let b: divtopk::Score = a;
    assert_eq!(a, b);
}
