//! Ablation benches for the design choices called out in DESIGN.md §6:
//!
//! * AB1 — Lemma 7 compression on/off inside `div-cut`
//! * AB2 — cptree root/child selection heuristics
//! * AB3 — the `necessary()` gate on/off in the framework
//! * AB4 — A\* heap reuse across `k'` rounds on/off
//!
//! (AB5, bitset vs stamp kernel, is retired: the graph picks the kernel
//! now. Its measured number stays in `BENCH_2.json`.)

use criterion::{Criterion, criterion_group, criterion_main};
use divtopk_core::astar::{AStarConfig, div_astar_configured};
use divtopk_core::cut::{ChildHeuristic, CutConfig, RootHeuristic, div_cut_configured};
use divtopk_core::prelude::*;
use divtopk_core::testgen::{self, ClusterConfig};
use std::hint::black_box;

fn graph() -> DiversityGraph {
    testgen::planted_clusters(
        &ClusterConfig {
            clusters: 10,
            cluster_size: 8,
            intra_p: 0.65,
            bridges: 8,
            singletons: 15,
        },
        13,
    )
}

fn ab1_compression(c: &mut Criterion) {
    let g = graph();
    let mut group = c.benchmark_group("ab1_compression");
    for (label, compress) in [("on", true), ("off", false)] {
        let config = CutConfig {
            compress,
            ..CutConfig::default()
        };
        group.bench_function(label, |b| {
            b.iter(|| {
                black_box(div_cut_configured(&g, 20, &config, &SearchLimits::unlimited()).unwrap())
            })
        });
    }
    group.finish();
}

fn ab2_heuristics(c: &mut Criterion) {
    let g = graph();
    let mut group = c.benchmark_group("ab2_heuristics");
    let variants: [(&str, RootHeuristic, ChildHeuristic); 3] = [
        (
            "paper(minmax+largest)",
            RootHeuristic::MinMaxComponent,
            ChildHeuristic::LargestEntryGraph,
        ),
        (
            "pseudocode(smallest)",
            RootHeuristic::MinMaxComponent,
            ChildHeuristic::SmallestEntryGraph,
        ),
        ("first", RootHeuristic::First, ChildHeuristic::First),
    ];
    for (label, root, child) in variants {
        let config = CutConfig {
            root_heuristic: root,
            child_heuristic: child,
            ..CutConfig::default()
        };
        group.bench_function(label, |b| {
            b.iter(|| {
                black_box(div_cut_configured(&g, 20, &config, &SearchLimits::unlimited()).unwrap())
            })
        });
    }
    group.finish();
}

fn ab3_necessary_gate(c: &mut Criterion) {
    // Streamed items with cluster similarity; gate on vs off.
    let mut rng = divtopk_core::rng::Pcg::new(21);
    let items: Vec<Scored<(u32, u32)>> = (0..300u32)
        .map(|i| Scored::new((i, rng.below(40)), Score::from(rng.range(1, 10_000))))
        .collect();
    let similar = |a: &(u32, u32), b: &(u32, u32)| a.1 == b.1;
    let mut group = c.benchmark_group("ab3_necessary_gate");
    group.sample_size(20);
    for (label, gate) in [("on", true), ("off", false)] {
        let items = items.clone();
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut config = DivSearchConfig::new(10);
                config.use_necessary_gate = gate;
                let out = DivTopK::new(
                    IncrementalVecSource::from_unsorted(items.clone()),
                    similar,
                    config,
                )
                .run()
                .unwrap();
                black_box(out.total_score)
            })
        });
    }
    group.finish();
}

fn ab4_heap_reuse(c: &mut Criterion) {
    let g = testgen::random_graph(22, 0.25, 3);
    let mut group = c.benchmark_group("ab4_heap_reuse");
    group.sample_size(20);
    for (label, reuse) in [("on", true), ("off", false)] {
        let config = AStarConfig { reuse_heap: reuse };
        group.bench_function(label, |b| {
            b.iter(|| {
                let (r, _) =
                    div_astar_configured(&g, 12, &config, &SearchLimits::unlimited()).unwrap();
                black_box(r.best().score())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    ab1_compression,
    ab2_heuristics,
    ab3_necessary_gate,
    ab4_heap_reuse
);
criterion_main!(benches);
