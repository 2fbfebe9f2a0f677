//! Property-based tests (proptest) on the library's core invariants.

use divtopk::core::exhaustive::exhaustive;
use divtopk::core::ops::{combine_alternative, combine_disjoint};
use divtopk::core::{components::connected_components, compress::compress};
use divtopk::text::prelude::*;
use divtopk::*;
use proptest::prelude::*;

// ---------- strategies ----------

/// A random diversity graph: n nodes, integer scores, edge probability p.
fn graph_strategy(max_n: usize) -> impl Strategy<Value = DiversityGraph> {
    (1..=max_n, 0u64..1_000_000, 0.0f64..0.9).prop_map(|(n, seed, p)| {
        let mut rng = divtopk::core::rng::Pcg::new(seed);
        let mut scores: Vec<Score> = (0..n).map(|_| Score::from(rng.range(1, 500))).collect();
        scores.sort_by(|a, b| b.cmp(a));
        let mut edges = Vec::new();
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                if rng.chance(p) {
                    edges.push((i, j));
                }
            }
        }
        DiversityGraph::from_sorted_scores(scores, &edges)
    })
}

/// A random per-size solution table over disjoint node-id ranges
/// (nodes `base..base+len` guaranteed independent: synthetic).
fn table_strategy(k: usize, base: u32) -> impl Strategy<Value = SearchResult> {
    proptest::collection::vec((1u32..400, 0u8..2), k).prop_map(move |entries| {
        let mut t = SearchResult::empty(k);
        let mut nodes: Vec<u32> = Vec::new();
        let mut score = Score::ZERO;
        for (i, (sc, present)) in entries.into_iter().enumerate() {
            nodes.push(base + i as u32);
            score += Score::from(sc);
            if present == 1 {
                t.offer(nodes.clone(), score);
            }
        }
        t
    })
}

// ---------- algorithm correctness ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn algorithms_match_oracle(g in graph_strategy(12), k in 1usize..12) {
        let want = exhaustive(&g, k);
        for (name, got) in [
            ("astar", div_astar(&g, k)),
            ("dp", div_dp(&g, k)),
            ("cut", div_cut(&g, k)),
        ] {
            got.assert_well_formed(Some(&g));
            for i in 0..=k {
                prop_assert_eq!(
                    got.prefix_best_score(i),
                    want.prefix_best_score(i),
                    "{} at size {}", name, i
                );
            }
        }
    }

    #[test]
    fn solutions_are_independent_sets(g in graph_strategy(14), k in 1usize..10) {
        let r = div_cut(&g, k);
        for (_, sol) in r.iter() {
            prop_assert!(g.is_independent_set(&sol.nodes()));
            prop_assert!(g.score_of(&sol.nodes()).approx_eq(sol.score(), 1e-9));
        }
    }

    #[test]
    fn greedy_never_beats_exact(g in graph_strategy(14), k in 1usize..10) {
        let (_, greedy_score) = greedy(&g, k);
        let exact = div_astar(&g, k).best().score();
        prop_assert!(greedy_score <= exact);
    }

    #[test]
    fn compression_preserves_prefix_optima(g in graph_strategy(12), k in 1usize..8) {
        let kept = compress(&g);
        let (cg, map) = g.induced_subgraph(&kept);
        let want = exhaustive(&g, k);
        let got = exhaustive(&cg, k).map_nodes(&map);
        for i in 0..=k {
            prop_assert_eq!(got.prefix_best_score(i), want.prefix_best_score(i));
        }
        // And compressed solutions remain valid in the original graph.
        for (_, sol) in got.iter() {
            prop_assert!(g.is_independent_set(&sol.nodes()));
        }
    }

    #[test]
    fn components_partition_the_graph(g in graph_strategy(20)) {
        let comps = connected_components(&g);
        let mut seen = vec![false; g.len()];
        for comp in &comps {
            for &v in comp {
                prop_assert!(!seen[v as usize], "node in two components");
                seen[v as usize] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
        // No edge crosses components.
        for comp in &comps {
            let set: std::collections::HashSet<_> = comp.iter().copied().collect();
            for &v in comp {
                for &nb in g.neighbors(v) {
                    prop_assert!(set.contains(&nb));
                }
            }
        }
    }
}

// ---------- the bitset kernel (DESIGN.md §7) ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `DenseNodeSet` and the persistent sorted-vec `NodeSet` agree on
    /// union / extend / len / to_sorted_vec across random op sequences.
    #[test]
    fn dense_and_persistent_nodesets_agree(seed in 0u64..1_000_000) {
        const UNIVERSE: usize = 300;
        let mut rng = divtopk::core::rng::Pcg::new(seed);
        let mut unused: Vec<u32> = (0..UNIVERSE as u32).collect();
        rng.shuffle(&mut unused);
        let mut persistent = NodeSet::empty();
        let mut dense = DenseNodeSet::new(UNIVERSE);
        for _ in 0..(1 + rng.below(40)) {
            if unused.is_empty() {
                break;
            }
            if rng.chance(0.6) {
                // Extend with one fresh node.
                let v = unused.pop().unwrap();
                persistent = NodeSet::extend(&persistent, v);
                prop_assert!(dense.insert(v));
            } else {
                // Union with a disjoint batch of fresh nodes.
                let take = (1 + rng.below(8) as usize).min(unused.len());
                let batch: Vec<u32> = unused.split_off(unused.len() - take);
                persistent = NodeSet::join(&persistent, &NodeSet::from_vec(batch.clone()));
                dense.union_with(&DenseNodeSet::from_nodes(UNIVERSE, batch));
            }
            prop_assert_eq!(persistent.len(), dense.len());
            prop_assert_eq!(persistent.to_sorted_vec(), dense.to_sorted_vec());
        }
    }

    /// Disjointness answered by word ops matches the sorted-vec answer.
    #[test]
    fn dense_disjointness_matches_sorted_vec(seed in 0u64..1_000_000) {
        const UNIVERSE: usize = 200;
        let mut rng = divtopk::core::rng::Pcg::new(seed ^ 0xD15);
        let pick = |rng: &mut divtopk::core::rng::Pcg| -> Vec<u32> {
            (0..UNIVERSE as u32).filter(|_| rng.chance(0.05)).collect()
        };
        let a = pick(&mut rng);
        let b = pick(&mut rng);
        let da = DenseNodeSet::from_nodes(UNIVERSE, a.iter().copied());
        let db = DenseNodeSet::from_nodes(UNIVERSE, b.iter().copied());
        let expect = !a.iter().any(|v| b.contains(v));
        prop_assert_eq!(da.is_disjoint(&db), expect);
        prop_assert_eq!(db.is_disjoint(&da), expect);
    }
}

/// Both `div-astar` kernels stay covered with no switch to force them: a
/// graph one node past the adjacency-bitmap cap carries no bitmap, so
/// `div_astar` on it runs the stamp kernel, while `div_dp` and `div_cut`
/// search its relabelled components, which regain their bitmaps and run
/// the bitset kernel (DESIGN.md §7). All three must agree table for
/// table. (At or under the cap `algorithms_match_oracle` pins the bitset
/// kernel to the exhaustive oracle.)
#[test]
fn both_kernels_agree_past_the_bitmap_cap() {
    let n = DENSE_ADJ_MAX_NODES as u32 + 1;
    let k = 6;
    for seed in 0..4u64 {
        let mut rng = divtopk::core::rng::Pcg::new(seed ^ 0x5BA2);
        let mut scores: Vec<Score> = (0..n).map(|_| Score::from(rng.range(1, 500))).collect();
        scores.sort_by(|a, b| b.cmp(a));
        // Sparse overall: a tangled head, where the top-k is decided,
        // and stray edges everywhere else.
        let mut edges = Vec::new();
        for i in 0..40 {
            for j in (i + 1)..40 {
                if rng.chance(0.3) {
                    edges.push((i, j));
                }
            }
        }
        for _ in 0..n / 4 {
            let (a, b) = (rng.below(n), rng.below(n));
            if a != b {
                edges.push((a, b));
            }
        }
        let g = DiversityGraph::from_sorted_scores(scores, &edges);
        assert!(!g.has_adjacency_bitmap());
        let astar = div_astar(&g, k);
        astar.assert_well_formed(Some(&g));
        for (name, other) in [("dp", div_dp(&g, k)), ("cut", div_cut(&g, k))] {
            other.assert_well_formed(Some(&g));
            for i in 0..=k {
                assert_eq!(
                    astar.prefix_best_score(i),
                    other.prefix_best_score(i),
                    "seed {seed}: astar vs {name} at size {i}"
                );
            }
        }
    }
}

// ---------- operator laws ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn plus_is_commutative(a in table_strategy(6, 0), b in table_strategy(6, 100)) {
        let ab = combine_disjoint(&a, &b);
        let ba = combine_disjoint(&b, &a);
        for i in 0..=6 {
            prop_assert_eq!(ab.score(i), ba.score(i), "size {}", i);
        }
    }

    #[test]
    fn plus_is_associative(
        a in table_strategy(5, 0),
        b in table_strategy(5, 100),
        c in table_strategy(5, 200),
    ) {
        let l = combine_disjoint(&combine_disjoint(&a, &b), &c);
        let r = combine_disjoint(&a, &combine_disjoint(&b, &c));
        for i in 0..=5 {
            prop_assert_eq!(l.score(i), r.score(i), "size {}", i);
        }
    }

    #[test]
    fn otimes_is_commutative_and_associative(
        a in table_strategy(5, 0),
        b in table_strategy(5, 0),
        c in table_strategy(5, 0),
    ) {
        let ab = combine_alternative(&a, &b);
        let ba = combine_alternative(&b, &a);
        for i in 0..=5 {
            prop_assert_eq!(ab.score(i), ba.score(i));
        }
        let l = combine_alternative(&combine_alternative(&a, &b), &c);
        let r = combine_alternative(&a, &combine_alternative(&b, &c));
        for i in 0..=5 {
            prop_assert_eq!(l.score(i), r.score(i));
        }
    }

    #[test]
    fn plus_identity_is_empty_table(a in table_strategy(6, 0)) {
        let id = SearchResult::empty(6);
        let out = combine_disjoint(&a, &id);
        for i in 0..=6 {
            prop_assert_eq!(out.score(i), a.score(i));
        }
    }
}

// ---------- framework soundness ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The streaming engine with early stopping returns the same optimum as
    /// offline materialization, for random cluster-similarity streams.
    #[test]
    fn early_stop_is_sound(
        seed in 0u64..10_000,
        n in 1usize..40,
        clusters in 1u32..8,
        k in 1usize..6,
    ) {
        let mut rng = divtopk::core::rng::Pcg::new(seed);
        let items: Vec<Scored<(u32, u32)>> = (0..n as u32)
            .map(|i| Scored::new((i, rng.below(clusters)), Score::from(rng.range(1, 1000))))
            .collect();
        let similar = |a: &(u32, u32), b: &(u32, u32)| a.1 == b.1;

        let (graph, _) = DiversityGraph::from_items(&items, |r| r.score, |a, b| similar(&a.item, &b.item));
        let want = exhaustive(&graph, k).best().score();

        // Incremental flavour.
        let inc = DivTopK::new(
            IncrementalVecSource::from_unsorted(items.clone()),
            similar,
            DivSearchConfig::new(k),
        ).run().unwrap();
        prop_assert_eq!(inc.total_score, want);

        // Bounding flavour (stream order = arrival order).
        let bnd = DivTopK::new(
            BoundingVecSource::new(items),
            similar,
            DivSearchConfig::new(k),
        ).run().unwrap();
        prop_assert_eq!(bnd.total_score, want);
    }
}

// ---------- text substrate ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn jaccard_is_symmetric_and_bounded(
        a in proptest::collection::vec(0u32..50, 0..60),
        b in proptest::collection::vec(0u32..50, 0..60),
        w in proptest::collection::vec(0.0f64..5.0, 50),
    ) {
        let d1 = Document::from_tokens("a".into(), a);
        let d2 = Document::from_tokens("b".into(), b);
        let s12 = weighted_jaccard_with(&w, &d1, &d2);
        let s21 = weighted_jaccard_with(&w, &d2, &d1);
        prop_assert_eq!(s12, s21);
        prop_assert!((0.0..=1.0).contains(&s12));
        // Self-similarity is 1 unless the doc has zero total weight.
        let s11 = weighted_jaccard_with(&w, &d1, &d1);
        prop_assert!(s11 == 1.0 || s11 == 0.0);
    }

    #[test]
    fn tokenizer_roundtrip_properties(text in ".{0,200}") {
        let tokens = tokenize(&text);
        for t in &tokens {
            prop_assert!(!t.is_empty());
            prop_assert!(t.chars().all(|c| c.is_alphanumeric()));
            prop_assert_eq!(t.clone(), t.to_lowercase());
        }
    }

    #[test]
    fn document_signature_is_canonical(tokens in proptest::collection::vec(0u32..30, 0..80)) {
        let total = tokens.len() as u32;
        let d = Document::from_tokens("t".into(), tokens.clone());
        prop_assert_eq!(d.len, total);
        prop_assert!(d.terms.windows(2).all(|w| w[0].0 < w[1].0));
        let sum: u32 = d.terms.iter().map(|&(_, c)| c).sum();
        prop_assert_eq!(sum, total);
        for &(t, c) in &d.terms {
            let direct = tokens.iter().filter(|&&x| x == t).count() as u32;
            prop_assert_eq!(c, direct);
        }
    }
}

// ---------- posting order under the computed partial ----------

/// Every list of `index` is in `(partial desc, doc asc)` order under the
/// partial score readers compute (postings store only `(doc, tf)`).
fn in_posting_order(corpus: &Corpus, index: &InvertedIndex) -> bool {
    index.lists().all(|(t, list)| {
        let idf = corpus.idf(t);
        let list: Vec<Posting> = list.iter().collect();
        list.windows(2).all(|w| {
            let (a, b) = (w[0].partial(corpus, idf), w[1].partial(corpus, idf));
            a > b || (a == b && w[0].doc < w[1].doc)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_list_is_in_posting_order_under_the_computed_partial(
        seed in 0u64..1_000_000,
        parts in 1usize..4,
    ) {
        let corpus = generate(&SynthConfig {
            num_docs: 90,
            near_dup_prob: 0.35, // duplicates tie partials: the doc order decides
            ..SynthConfig::tiny().with_seed(seed)
        });
        prop_assert!(in_posting_order(&corpus, &InvertedIndex::build(&corpus)));
        prop_assert!(in_posting_order(&corpus, &InvertedIndex::build_range(&corpus, 25..70)));
        let shard = (seed % 3) as DocId;
        prop_assert!(in_posting_order(
            &corpus,
            &InvertedIndex::build_where(&corpus, |d| d % 3 == shard),
        ));

        // Adds, deletes and compactions (tier merges and lone rewrites),
        // then a save and a load.
        let mut rng = divtopk::core::rng::Pcg::new(seed);
        let n_terms = corpus.num_terms() as u32;
        let mut seg = SegmentedIndex::build_partitioned(corpus, parts);
        for batch in 0..6 {
            let docs: Vec<Document> = (0..4)
                .map(|i| {
                    let len = rng.range(1, 12);
                    let tokens = (0..len).map(|_| rng.range(0, n_terms)).collect();
                    Document::from_tokens(format!("b{batch}d{i}"), tokens)
                })
                .collect();
            let added = seg.add_docs(docs);
            let dead: Vec<DocId> = (0..seg.corpus().num_docs() as DocId)
                .filter(|_| rng.chance(0.1))
                .collect();
            seg.delete_docs(&dead);
            if batch % 2 == 1 {
                while seg.compact() > 0 {}
            }
            prop_assert!(!added.is_empty());
        }
        prop_assert!(seg.compactions() > 0);
        for s in seg.segments() {
            prop_assert!(in_posting_order(seg.corpus(), s.index()));
        }
        let dir = std::env::temp_dir().join(format!(
            "divtopk-order-{}-{seed}-{parts}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        divtopk::text::persist::save_segmented(&dir, &seg, 0).unwrap();
        let (loaded, _) = divtopk::text::persist::load_segmented(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        prop_assert_eq!(loaded.segments().len(), seg.segments().len());
        for s in loaded.segments() {
            prop_assert!(in_posting_order(loaded.corpus(), s.index()));
        }
    }
}

// ---------- packed posting lists decode to their postings ----------

/// The postings of `docs` (strictly increasing) for each term they hold,
/// each list sorted by `(partial desc, doc asc)` — the lists an index
/// over exactly `docs` must decode to, built without the index.
fn reference_lists(
    corpus: &Corpus,
    docs: impl Iterator<Item = DocId>,
) -> std::collections::BTreeMap<TermId, Vec<Posting>> {
    let mut lists = std::collections::BTreeMap::<TermId, Vec<Posting>>::new();
    for doc in docs {
        for &(t, tf) in &corpus.doc(doc).terms {
            lists.entry(t).or_default().push(Posting { doc, tf });
        }
    }
    for (&t, list) in &mut lists {
        let key = |p: &Posting| p.partial(corpus, corpus.idf(t));
        list.sort_by(|a, b| key(b).total_cmp(&key(a)).then(a.doc.cmp(&b.doc)));
    }
    lists
}

/// Asserts every list of `index` decodes — through `lists()`, `postings`,
/// `get` and `iter` — to the reference postings of the documents it
/// holds, and that those are `want` when given.
fn assert_decodes_to_reference(corpus: &Corpus, index: &InvertedIndex, want: Option<Vec<DocId>>) {
    let mut held: Vec<DocId> = index.lists().flat_map(|(_, l)| l).map(|p| p.doc).collect();
    held.sort_unstable();
    held.dedup();
    if let Some(want) = want {
        assert_eq!(held, want);
    }
    let reference = reference_lists(corpus, held.into_iter());
    assert_eq!(index.lists().len(), reference.len());
    for ((t, list), (&u, want)) in index.lists().zip(&reference) {
        assert_eq!(t, u);
        assert_eq!(list.len(), want.len(), "term {t}");
        assert_eq!(list, index.postings(t));
        let got: Vec<Posting> = list.iter().collect();
        assert_eq!(&got, want, "term {t}");
        let by_get: Vec<Posting> = (0..list.len()).map_while(|i| list.get(i)).collect();
        assert_eq!(&by_get, want, "term {t}");
        assert_eq!(list.get(list.len()), None);
    }
    assert_eq!(
        index.num_postings(),
        reference.values().map(Vec::len).sum::<usize>()
    );
}

#[test]
fn every_posting_list_decodes_to_its_postings_across_width_boundaries() {
    // Term frequencies on both sides of 2⁸, 2¹⁶ and 2²⁴ (a document's
    // length is its tf plus two); doc spans on both sides of 2⁸ and 2¹⁶.
    // A span past 2²⁴ needs a 2²⁴-document corpus; the index unit tests
    // decode such lists without one. Term 7 is in every document, so its
    // IDF clamps to 0 and every partial of its lists ties. Term 6 is in
    // 300 duplicates of two documents, interleaved in doc order, so its
    // list holds two groups of 150 equal partials that the sort must
    // move past each other and still order by doc.
    const TFS: [u32; 7] = [1, 255, 256, 65_535, 65_536, (1 << 24) - 1, 1 << 24];
    let boundary_docs = |tag: &str| -> Vec<Document> {
        TFS.iter()
            .map(|&tf| Document {
                title: format!("{tag}{tf}"),
                terms: vec![(3, tf), (4, 1), (7, 1)],
                len: tf + 2,
            })
            .collect()
    };
    let mut b = CorpusBuilder::with_synthetic_vocab(8);
    for i in 0..3u32 {
        b.add_tokens(format!("head{i}"), vec![i % 3, 7]);
    }
    for doc in boundary_docs("base") {
        b.add_document(doc);
    }
    for i in 0..65_540u32 {
        b.add_tokens(format!("d{i}"), vec![i % 3, 5, 7]);
    }
    for i in 0..300u32 {
        let (tf, len) = if i % 2 == 0 { (1, 10) } else { (2, 2) };
        b.add_document(Document {
            title: format!("dup{}", i % 2),
            terms: vec![(6, tf), (7, 1)],
            len,
        });
    }
    let corpus = b.build();
    let n = corpus.num_docs() as DocId;
    assert_eq!(corpus.idf(7).to_bits(), 0.0f64.to_bits());
    assert!(corpus.idf(6) > 0.0);
    assert_decodes_to_reference(
        &corpus,
        &InvertedIndex::build(&corpus),
        Some((0..n).collect()),
    );
    for span in [255u32, 256, 65_535, 65_536] {
        let range = 3..3 + span + 1;
        let index = InvertedIndex::build_range(&corpus, range.clone());
        assert_decodes_to_reference(&corpus, &index, Some(range.collect()));
    }

    // Compaction: two boundary-tf batches merged as one tier, and a base
    // segment past 2¹⁶ documents rewritten once a quarter of it is dead.
    let mut seg = SegmentedIndex::build_partitioned(corpus, 1);
    seg.add_docs(boundary_docs("a"));
    seg.add_docs(boundary_docs("b"));
    let dead: Vec<DocId> = (0..n).filter(|d| d % 3 == 1).chain([n + 2]).collect();
    seg.delete_docs(&dead);
    let before = seg.compactions();
    while seg.compact() > 0 {}
    assert!(seg.compactions() >= before + 2, "{}", seg.compactions());
    seg.verify_rebuild_equivalence().unwrap();
    for s in seg.segments() {
        assert_decodes_to_reference(seg.corpus(), s.index(), None);
    }

    let dir = std::env::temp_dir().join(format!("divtopk-widths-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    divtopk::text::persist::save_segmented(&dir, &seg, 0).unwrap();
    let (loaded, _) = divtopk::text::persist::load_segmented(&dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(loaded.num_segments(), seg.num_segments());
    for (a, b) in loaded.segments().iter().zip(seg.segments()) {
        assert!(a.index().lists().eq(b.index().lists()));
        assert_decodes_to_reference(loaded.corpus(), a.index(), None);
    }
}
