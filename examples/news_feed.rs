//! Single-keyword diversified news search (the paper's reuters setup).
//!
//! A news reader wants the top stories for one keyword without seeing five
//! rewrites of the same wire item. The posting list — already sorted by
//! score — is consumed incrementally (Algorithm 1), and the engine stops
//! as soon as the diversified answer is provably final. Also contrasts the
//! exact answer with the greedy heuristic on the induced diversity graph.
//!
//! Run with: `cargo run --release --example news_feed`

use divtopk::core::exhaustive::exhaustive;
use divtopk::text::prelude::*;
use divtopk::{DiversityGraph, ExactAlgorithm, Score};

fn main() {
    let corpus = generate(&SynthConfig::reuters_like().with_num_docs(6_000));
    let index = InvertedIndex::build(&corpus);
    println!(
        "corpus: {} docs, {} postings",
        corpus.num_docs(),
        index.num_postings()
    );

    // A newsworthy keyword: the longest posting list among terms rare
    // enough to keep a meaningful IDF (df ≤ 10% of the corpus).
    let term = (0..corpus.num_terms() as TermId)
        .filter(|&t| corpus.doc_freq(t) as usize <= corpus.num_docs() / 10)
        .max_by_key(|&t| index.postings(t).len())
        .expect("non-empty corpus");
    println!(
        "keyword {:?}: {} matching stories",
        corpus.vocab().term(term),
        index.postings(term).len()
    );

    let searcher = DiversifiedSearcher::new(&corpus, &index);
    let k = 8;
    for tau in [0.4, 0.6, 0.8] {
        let options = SearchOptions::new(k)
            .with_tau(tau)
            .with_mode(DiversifyMode::Exact(ExactAlgorithm::Cut));
        let out = searcher.search_scan(term, &options).expect("unbudgeted");
        println!(
            "\nτ = {tau}: total score {:.4}, {} stories, pulled {} results, early stop {}",
            out.total_score.get(),
            out.hits.len(),
            out.metrics.results_generated,
            out.metrics.early_stopped
        );
        for h in &out.hits {
            println!("  {:<12} {:.4}", corpus.doc(h.doc).title, h.score.get());
        }
    }

    // Greedy vs exact on the full materialized graph (τ = 0.6).
    let tau = 0.6;
    let idf = corpus.idf(term);
    let items: Vec<(DocId, Score)> = index
        .postings(term)
        .iter()
        .map(|p| (p.doc, Score::new(p.partial(&corpus, idf))))
        .collect();
    let (graph, _) = DiversityGraph::from_items(
        &items,
        |&(_, s)| s,
        |&(a, _), &(b, _)| weighted_jaccard(&corpus, corpus.doc(a), corpus.doc(b)) > tau,
    );
    let (greedy_nodes, greedy_score) = divtopk::greedy(&graph, k);
    let exact = if graph.len() <= 24 {
        exhaustive(&graph, k).best().score()
    } else {
        divtopk::div_cut(&graph, k).best().score()
    };
    println!(
        "\ngreedy vs exact on the {}-node diversity graph (τ = {tau}):",
        graph.len()
    );
    println!(
        "  greedy: {:.4} with {} picks",
        greedy_score.get(),
        greedy_nodes.len()
    );
    println!("  exact : {:.4}", exact.get());
    assert!(greedy_score <= exact);
}
