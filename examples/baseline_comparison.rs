//! Exact diversified top-k vs the two heuristic baselines.
//!
//! * **greedy** (§4 of the paper): respects the τ constraint but can be
//!   arbitrarily far from the optimal total score;
//! * **MMR** (Carbonell & Goldstein, the related-work two-step family):
//!   penalizes redundancy instead of forbidding it — near-duplicates leak
//!   back into the answer.
//!
//! Run with: `cargo run --release --example baseline_comparison`

use divtopk::core::diversify::mmr_select;
use divtopk::core::greedy::greedy;
use divtopk::text::prelude::*;
use divtopk::text::quality::{redundancy, total_score};
use divtopk::{DiversityGraph, ResultSource, Scored};

fn main() {
    let corpus = generate(&SynthConfig::enwiki_like().with_num_docs(5_000));
    let index = InvertedIndex::build(&corpus);
    let query = query_for_band(&corpus, 2, 2, 77).expect("band 2 populated");
    let words: Vec<&str> = query
        .terms
        .iter()
        .map(|&t| corpus.vocab().term(t))
        .collect();
    println!("query {:?} over {} docs", words, corpus.num_docs());

    let (k, tau) = (12usize, 0.6);

    // Exact: the framework with div-cut.
    let searcher = DiversifiedSearcher::new(&corpus, &index);
    let exact = searcher
        .search_ta(&query, &SearchOptions::new(k).with_tau(tau))
        .expect("unbudgeted");

    // Materialize candidates for the offline baselines.
    let mut ta = TaSource::new(&corpus, &index, &query.terms);
    let mut cands: Vec<Scored<DocId>> = Vec::new();
    while let Some(r) = ta.next_result() {
        cands.push(r);
    }
    cands.sort_by_key(|r| std::cmp::Reverse(r.score));
    cands.truncate(k * 25);

    // Greedy on the materialized diversity graph.
    let (graph, perm) = DiversityGraph::from_items(
        &cands,
        |r| r.score,
        |a, b| weighted_jaccard(&corpus, corpus.doc(a.item), corpus.doc(b.item)) > tau,
    );
    let (greedy_nodes, greedy_score) = greedy(&graph, k);
    let greedy_sel: Vec<Scored<DocId>> = greedy_nodes
        .iter()
        .map(|&v| cands[perm[v as usize] as usize].clone())
        .collect();

    // MMR (λ = 0.7) over the same candidates and similarity.
    let sim = |a: &DocId, b: &DocId| weighted_jaccard(&corpus, corpus.doc(*a), corpus.doc(*b));
    let mmr_sel: Vec<Scored<DocId>> = mmr_select(&cands, sim, 0.7, k)
        .into_iter()
        .map(|i| cands[i].clone())
        .collect();

    println!(
        "\n{:<10} {:>12} {:>14} {:>12}",
        "method", "total score", "τ-violations", "max sim"
    );
    for (name, score, sel) in [
        (
            "exact",
            exact.total_score,
            exact
                .hits
                .iter()
                .map(|h| Scored::new(h.doc, h.score))
                .collect::<Vec<_>>(),
        ),
        ("greedy", greedy_score, greedy_sel),
        ("mmr", total_score(&mmr_sel), mmr_sel),
    ] {
        let (violations, max_sim) = redundancy(&corpus, &sel, tau);
        println!(
            "{:<10} {:>12.4} {:>14} {:>12.3}",
            name,
            score.get(),
            violations,
            max_sim
        );
    }
    println!("\nexact is provably maximal among τ-feasible selections of ≤ {k} docs;");
    println!("greedy is feasible but may score lower; MMR may violate τ outright.");

    assert!(greedy_score <= exact.total_score);
    let (exact_viol, _) = redundancy(
        &corpus,
        &exact
            .hits
            .iter()
            .map(|h| Scored::new(h.doc, h.score))
            .collect::<Vec<_>>(),
        tau,
    );
    assert_eq!(exact_viol, 0);
}
