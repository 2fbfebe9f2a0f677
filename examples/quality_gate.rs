//! Quality-gate demo: score a query-pack on diversity *and* relevance.
//!
//! Builds the default query pack (`QueryPack::default_pack`, the pack CI
//! gates on), replays every family through the engine twice per query —
//! diversity on vs. off against the same snapshot — and prints the
//! evidence table: unique-source@k, max-share@k, pairwise
//! dissimilarity@k, plus the NDCG/MRR relevance guards against the
//! diversity-off oracle, each beside the gate the pack declares on it.
//! The table is the committed `tests/data/quality_evidence.md`, byte for
//! byte. Then it tightens one gate past measured reality to show what a
//! CI failure looks like. Run with:
//!
//! ```text
//! cargo run --release --example quality_gate
//! ```

use divtopk_bench::quality::evaluate;
use divtopk_bench::workload::QueryPack;

fn main() {
    // The same pack CI gates on.
    let pack = QueryPack::default_pack();
    println!(
        "pack {:?}: seed {}, {} families\n",
        pack.name,
        pack.seed,
        pack.families.len()
    );

    let report = evaluate(&pack).expect("default pack evaluates");
    print!("{}", report.render());
    assert!(report.pass(), "the committed pack must pass its own gates");
    println!(
        "\nall {} families pass their declared gates\n",
        report.families.len()
    );

    // What failure looks like: demand a diversity gain the engine does
    // not deliver, and the gate names the family and the metric.
    let mut tightened = pack.clone();
    tightened.families[0].gates.min_unique_sources_gain = Some(100.0);
    let failing = evaluate(&tightened).expect("tightened pack still evaluates");
    assert!(!failing.pass());
    for failure in failing.failures() {
        println!("tightened gate trips: {failure}");
    }
}
