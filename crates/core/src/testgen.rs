//! Deterministic graph generators for tests and benchmarks.
//!
//! The paper's diversity graphs (built from document-similarity on keyword
//! results) have a characteristic shape: dense clusters of mutually similar
//! results, loosely joined through a few bridge results (cut points), plus
//! isolated singletons. [`planted_clusters`] reproduces that shape directly;
//! [`random_graph`] gives unstructured Erdős–Rényi controls;
//! [`star_chain`] is the paper's Fig. 2 worst case for greedy.

use crate::graph::{DiversityGraph, NodeId};
use crate::rng::Pcg;
use crate::score::Score;

/// Erdős–Rényi `G(n, p)` with scores drawn uniformly from `[1, 100]`.
pub fn random_graph(n: usize, p: f64, seed: u64) -> DiversityGraph {
    let mut rng = Pcg::new(seed ^ 0xD1CE_0F12);
    let mut scores: Vec<Score> = (0..n).map(|_| Score::from(rng.range(1, 101))).collect();
    scores.sort_by(|a, b| b.cmp(a));
    let mut edges = Vec::new();
    for i in 0..n as NodeId {
        for j in (i + 1)..n as NodeId {
            if rng.chance(p) {
                edges.push((i, j));
            }
        }
    }
    DiversityGraph::from_sorted_scores(scores, &edges)
}

/// The Fig. 2 family: one hub of score `m + 1`… actually the paper uses
/// scores 100 / 99 / 1 with `m = 100`; we scale the same ratios for any `m`.
///
/// * 1 hub `A` with score 100,
/// * `m` middle nodes `v_i` with score 99, each adjacent to `A`,
/// * `m` leaves `u_i` with score 1, each adjacent to its `v_i`.
///
/// With `k = m`, greedy takes `A` then `m − 1` leaves (score `100 + m − 1`)
/// while the optimum takes all middles (score `99 m`).
pub fn star_chain(m: usize) -> DiversityGraph {
    let mut scores = Vec::with_capacity(2 * m + 1);
    scores.push(Score::from(100u32)); // A, node 0
    scores.extend(std::iter::repeat_n(Score::from(99u32), m)); // v_i, nodes 1..=m
    scores.extend(std::iter::repeat_n(Score::from(1u32), m)); // u_i, nodes m+1..=2m
    let mut edges = Vec::with_capacity(2 * m);
    for i in 1..=m as NodeId {
        edges.push((0, i)); // A - v_i
        edges.push((i, i + m as NodeId)); // v_i - u_i
    }
    DiversityGraph::from_sorted_scores(scores, &edges)
}

/// `g` plus enough isolated zero-score nodes to exceed
/// [`DENSE_ADJ_MAX_NODES`](crate::graph::DENSE_ADJ_MAX_NODES): the same
/// per-size optimum scores on a graph that carries no adjacency bitmap, so
/// unit tests can reach the bitmap-free code paths.
#[cfg(test)]
pub(crate) fn pad_past_bitmap_cap(g: &DiversityGraph) -> DiversityGraph {
    let n = g.len() + crate::graph::DENSE_ADJ_MAX_NODES;
    let mut scores = g.scores().to_vec();
    scores.resize(n, Score::ZERO);
    DiversityGraph::from_sorted_scores(scores, &edge_list(g))
}

/// Every edge of `g` once, as `(lower id, higher id)`.
#[cfg(test)]
fn edge_list(g: &DiversityGraph) -> Vec<(NodeId, NodeId)> {
    g.nodes()
        .flat_map(|v| g.neighbors(v).iter().map(move |&u| (v, u)))
        .filter(|&(v, u)| v < u)
        .collect()
}

/// Graphs made mostly of components that are one vertex, or that Lemma 7
/// shrinks to one, scored in four tied levels 3, 2, 1, 0 down the id
/// order: (1) isolated vertices, 2-cliques and stars, shuffled so that
/// their ids interleave; (2) [`planted_clusters`] with singletons; (3) a
/// path with pendant leaves. On ties the witness a `⊕` fold keeps depends
/// on the fold order, and score-0 vertices are the ones `div-astar` leaves
/// out of its table.
#[cfg(test)]
pub(crate) fn one_vertex_heavy(seed: u64) -> Vec<DiversityGraph> {
    let tied = |n: usize, edges: &[(NodeId, NodeId)]| {
        let scores = (0..n)
            .map(|v| Score::from(3 - (4 * v / n) as u32))
            .collect();
        DiversityGraph::from_sorted_scores(scores, edges)
    };
    let mut rng = Pcg::new(seed ^ 0x51_461E);

    let mut ids: Vec<NodeId> = (0..24).collect();
    rng.shuffle(&mut ids);
    let mut zoo = Vec::new();
    let mut rest = &ids[..];
    while !rest.is_empty() {
        // 1 = isolated, 2 = a 2-clique, 3..=4 = a star's center + leaves.
        let size = (1 + rng.below(4) as usize).min(rest.len());
        let (part, tail) = rest.split_at(size);
        zoo.extend(part[1..].iter().map(|&leaf| (part[0], leaf)));
        rest = tail;
    }

    let clusters = planted_clusters(
        &ClusterConfig {
            clusters: 3,
            cluster_size: 4,
            intra_p: 0.7,
            bridges: 2,
            singletons: 6,
        },
        seed,
    );

    let mut perm: Vec<NodeId> = (0..16).collect();
    rng.shuffle(&mut perm);
    let (path, leaves) = perm.split_at(9);
    let mut pendant: Vec<(NodeId, NodeId)> = path.windows(2).map(|w| (w[0], w[1])).collect();
    pendant.extend(
        leaves
            .iter()
            .map(|&leaf| (*rng.choose(path).unwrap(), leaf)),
    );

    vec![
        tied(24, &zoo),
        tied(clusters.len(), &edge_list(&clusters)),
        tied(16, &pendant),
    ]
}

/// Parameters for [`planted_clusters`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of dense clusters.
    pub clusters: usize,
    /// Nodes per cluster.
    pub cluster_size: usize,
    /// Probability of an edge inside a cluster (dense: e.g. 0.8).
    pub intra_p: f64,
    /// Number of bridge nodes; each joins two random clusters by one edge
    /// to a random member of each — these become cut points.
    pub bridges: usize,
    /// Number of isolated singleton nodes.
    pub singletons: usize,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            clusters: 8,
            cluster_size: 12,
            intra_p: 0.8,
            bridges: 6,
            singletons: 10,
        }
    }
}

/// Clustered graph mimicking keyword-result diversity graphs.
pub fn planted_clusters(config: &ClusterConfig, seed: u64) -> DiversityGraph {
    let mut rng = Pcg::new(seed ^ 0x0C10_57E2);
    let n = config.clusters * config.cluster_size + config.bridges + config.singletons;
    // Integer-valued scores keep cross-algorithm comparisons exact (no
    // float summation-order drift between ⊕ fold orders).
    let mut scores: Vec<Score> = (0..n).map(|_| Score::from(rng.range(1, 10_000))).collect();
    scores.sort_by(|a, b| b.cmp(a));
    // Assign cluster membership over arbitrary node ids (score order and
    // cluster structure should be uncorrelated, as in real result lists).
    let mut ids: Vec<NodeId> = (0..n as NodeId).collect();
    rng.shuffle(&mut ids);
    let mut cursor = 0usize;
    let mut clusters: Vec<&[NodeId]> = Vec::with_capacity(config.clusters);
    let mut edges = Vec::new();
    for _ in 0..config.clusters {
        let members = &ids[cursor..cursor + config.cluster_size];
        cursor += config.cluster_size;
        for a in 0..members.len() {
            for b in (a + 1)..members.len() {
                if rng.chance(config.intra_p) {
                    edges.push((members[a], members[b]));
                }
            }
        }
        clusters.push(members);
    }
    for _ in 0..config.bridges {
        let bridge = ids[cursor];
        cursor += 1;
        if config.clusters >= 1 {
            let c1 = rng.below(config.clusters as u32) as usize;
            let c2 = rng.below(config.clusters as u32) as usize;
            let m1 = *rng.choose(clusters[c1]).expect("non-empty cluster");
            edges.push((bridge, m1));
            if c2 != c1 {
                let m2 = *rng.choose(clusters[c2]).expect("non-empty cluster");
                edges.push((bridge, m2));
            }
        }
    }
    // Remaining ids (cursor..) are singletons: no edges.
    let edges: Vec<(u32, u32)> = edges.into_iter().filter(|&(a, b)| a != b).collect();
    DiversityGraph::from_sorted_scores(scores, &edges)
}

/// A path graph `0 - 1 - … - n-1` (every interior node is a cut point);
/// stresses cptree construction depth.
pub fn path_graph(n: usize, seed: u64) -> DiversityGraph {
    let mut rng = Pcg::new(seed ^ 0x9A7);
    let mut scores: Vec<Score> = (0..n).map(|_| Score::from(rng.range(1, 1000))).collect();
    scores.sort_by(|a, b| b.cmp(a));
    // The *path* is over a random permutation so score order and path order
    // are independent.
    let mut perm: Vec<NodeId> = (0..n as NodeId).collect();
    rng.shuffle(&mut perm);
    let edges: Vec<(u32, u32)> = perm.windows(2).map(|w| (w[0], w[1])).collect();
    DiversityGraph::from_sorted_scores(scores, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::connected_components;
    use crate::greedy::greedy;

    #[test]
    fn random_graph_is_deterministic() {
        let a = random_graph(20, 0.3, 5);
        let b = random_graph(20, 0.3, 5);
        assert_eq!(a, b);
        let c = random_graph(20, 0.3, 6);
        assert_ne!(a, c);
    }

    #[test]
    fn star_chain_matches_fig2() {
        // 201 nodes, 200 edges; greedy = 199, optimal = 9,900 at k = 100.
        let g = star_chain(100);
        assert_eq!(g.len(), 201);
        assert_eq!(g.edge_count(), 200);
        let (_, greedy_score) = greedy(&g, 100);
        assert_eq!(greedy_score, Score::from(199u32));
        // The optimum is all middle nodes.
        let middles: Vec<NodeId> = (1..=100).collect();
        assert!(g.is_independent_set(&middles));
        assert_eq!(g.score_of(&middles), Score::from(9900u32));
    }

    #[test]
    fn planted_clusters_shape() {
        let config = ClusterConfig::default();
        let g = planted_clusters(&config, 1);
        assert_eq!(
            g.len(),
            config.clusters * config.cluster_size + config.bridges + config.singletons
        );
        let comps = connected_components(&g);
        // At least the singletons are their own components.
        assert!(comps.len() >= config.singletons);
        assert!(g.edge_count() > 0);
    }

    #[test]
    fn path_graph_shape() {
        let g = path_graph(50, 2);
        assert_eq!(g.len(), 50);
        assert_eq!(g.edge_count(), 49);
        assert_eq!(connected_components(&g).len(), 1);
    }
}
