//! Cross-algorithm agreement: `div-astar` ≡ `div-dp` ≡ `div-cut` ≡ the
//! exhaustive oracle on every graph family, for every size prefix.
//!
//! These are the repo's strongest correctness tests: the three production
//! algorithms take completely different routes (plain A\*, component DP,
//! cptree decomposition with compression), so agreement across families —
//! random, clustered, paths, stars, bipartite-ish — leaves little room for
//! a shared bug.

use divtopk::core::exhaustive::exhaustive;
use divtopk::core::testgen;
use divtopk::*;

/// Asserts the prefix-max contract of all three algorithms against the
/// point-wise-exact oracle.
fn assert_all_agree(g: &DiversityGraph, k: usize, label: &str) {
    let want = exhaustive(g, k);
    let astar = div_astar(g, k);
    let dp = div_dp(g, k);
    let cut = div_cut(g, k);
    for (name, got) in [("astar", &astar), ("dp", &dp), ("cut", &cut)] {
        got.assert_well_formed(Some(g));
        for i in 0..=k {
            assert_eq!(
                got.prefix_best_score(i),
                want.prefix_best_score(i),
                "{label}: {name} disagrees at size {i}"
            );
        }
    }
    // All algorithms must also agree on the max feasible size *at least*
    // up to what the oracle proves feasible through prefix improvements.
    assert_eq!(astar.best().score(), want.best().score());
    assert_eq!(dp.best().score(), want.best().score());
    assert_eq!(cut.best().score(), want.best().score());
}

#[test]
fn random_sparse_graphs() {
    for seed in 0..20 {
        let g = testgen::random_graph(15, 0.1, seed);
        assert_all_agree(&g, 8, &format!("sparse seed {seed}"));
    }
}

#[test]
fn random_medium_graphs() {
    for seed in 0..20 {
        let g = testgen::random_graph(14, 0.35, 1000 + seed);
        assert_all_agree(&g, 7, &format!("medium seed {seed}"));
    }
}

#[test]
fn random_dense_graphs() {
    for seed in 0..15 {
        let g = testgen::random_graph(13, 0.75, 2000 + seed);
        assert_all_agree(&g, 13, &format!("dense seed {seed}"));
    }
}

#[test]
fn clustered_graphs() {
    let config = testgen::ClusterConfig {
        clusters: 3,
        cluster_size: 4,
        intra_p: 0.8,
        bridges: 3,
        singletons: 3,
    };
    for seed in 0..15 {
        let g = testgen::planted_clusters(&config, seed);
        assert_all_agree(&g, 8, &format!("clusters seed {seed}"));
    }
}

#[test]
fn path_graphs_all_k() {
    for n in [1usize, 2, 3, 6, 12, 18] {
        let g = testgen::path_graph(n, 77 + n as u64);
        for k in [1, 2, n / 2 + 1, n] {
            assert_all_agree(&g, k, &format!("path n={n} k={k}"));
        }
    }
}

#[test]
fn star_chains() {
    for m in [1usize, 3, 8] {
        let g = testgen::star_chain(m);
        assert_all_agree(&g, 2 * m + 1, &format!("star m={m}"));
    }
}

#[test]
fn complete_graphs_pick_single_best() {
    // K_n: only singletons are independent.
    for n in [2usize, 5, 9] {
        let mut edges = Vec::new();
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                edges.push((i, j));
            }
        }
        let scores = (0..n).map(|i| Score::from((n - i) as u32 * 10)).collect();
        let g = DiversityGraph::from_sorted_scores(scores, &edges);
        assert_all_agree(&g, n, &format!("K{n}"));
        assert_eq!(div_cut(&g, n).best().len(), 1);
    }
}

#[test]
fn edgeless_graphs_pick_top_k() {
    let scores = (0..12).map(|i| Score::from(100 - i as u32)).collect();
    let g = DiversityGraph::from_sorted_scores(scores, &[]);
    assert_all_agree(&g, 5, "edgeless");
    let r = div_dp(&g, 5);
    assert_eq!(r.best().nodes(), &[0, 1, 2, 3, 4]);
}

#[test]
fn duplicate_scores_tie_handling() {
    // All nodes share one score; answers may differ in witness but must
    // agree in value.
    for seed in 0..10 {
        let mut edges = Vec::new();
        let mut rng = divtopk::core::rng::Pcg::new(seed);
        for i in 0..12u32 {
            for j in (i + 1)..12 {
                if rng.chance(0.3) {
                    edges.push((i, j));
                }
            }
        }
        let scores = vec![Score::from(5u32); 12];
        let g = DiversityGraph::from_sorted_scores(scores, &edges);
        assert_all_agree(&g, 6, &format!("ties seed {seed}"));
    }
}

#[test]
fn k_exceeding_graph_size() {
    let g = testgen::random_graph(8, 0.3, 42);
    assert_all_agree(&g, 20, "k > n");
}

#[test]
fn larger_graphs_algorithms_agree_with_each_other() {
    // Too big for the oracle; the three algorithms must still agree.
    let clustered = testgen::ClusterConfig {
        clusters: 6,
        cluster_size: 8,
        intra_p: 0.7,
        bridges: 6,
        singletons: 8,
    };
    // Dense near-duplicate clusters: independence checks dominate, and
    // plain A* (no decomposition) is still cheap enough to join in.
    let dense_neardup = testgen::ClusterConfig {
        clusters: 3,
        cluster_size: 12,
        intra_p: 0.95,
        bridges: 3,
        singletons: 4,
    };
    for (config, k, with_astar) in [(clustered, 15, false), (dense_neardup, 6, true)] {
        for seed in 0..5 {
            let g = testgen::planted_clusters(&config, 500 + seed);
            let dp = div_dp(&g, k);
            let cut = div_cut(&g, k);
            let astar = with_astar.then(|| div_astar(&g, k));
            for i in 0..=k {
                let want = cut.prefix_best_score(i);
                assert_eq!(dp.prefix_best_score(i), want, "dp, seed {seed} size {i}");
                if let Some(astar) = &astar {
                    assert_eq!(
                        astar.prefix_best_score(i),
                        want,
                        "astar, seed {seed} size {i}"
                    );
                }
            }
        }
    }
}
