//! `quality_gate` — the CI quality gate: replays the default query pack
//! ([`QueryPack::default_pack`]) through the engine twice per query
//! (diversity on vs. off, same snapshot), scores diversity and relevance,
//! prints the evidence table ([`QualityReport::render`]), and exits 1
//! naming the family and metric of every gate that failed (2 on a bad
//! flag or an unwritable `--out`).
//!
//! ```text
//! quality_gate [--out PATH]
//! ```
//!
//! `--out` also writes the table, byte for byte as printed. The default
//! pack's table is committed as `tests/data/quality_evidence.md`;
//! regenerate it with
//! `cargo run --release -p divtopk-bench --bin quality_gate -- --out tests/data/quality_evidence.md`.
//!
//! [`QualityReport::render`]: divtopk_bench::quality::QualityReport::render

use divtopk_bench::quality::evaluate;
use divtopk_bench::workload::QueryPack;

/// The `--out` path, if given.
fn parse_args() -> Result<Option<String>, String> {
    let mut out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--out" => out = Some(it.next().ok_or("--out needs a value")?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(out)
}

fn main() {
    let out = match parse_args() {
        Ok(out) => out,
        Err(why) => {
            eprintln!("quality_gate: {why}");
            eprintln!("usage: quality_gate [--out PATH]");
            std::process::exit(2);
        }
    };

    let pack = QueryPack::default_pack();
    eprintln!(
        "quality_gate: evaluating pack {:?} ({} families)",
        pack.name,
        pack.families.len()
    );
    let report = match evaluate(&pack) {
        Ok(report) => report,
        Err(why) => {
            eprintln!("quality_gate: evaluation failed: {why}");
            std::process::exit(2);
        }
    };

    let table = report.render();
    print!("{table}");
    if let Some(path) = &out {
        std::fs::write(path, &table).unwrap_or_else(|e| {
            eprintln!("quality_gate: writing {path}: {e}");
            std::process::exit(2);
        });
        eprintln!("quality_gate: wrote evidence table to {path}");
    }

    if report.pass() {
        eprintln!("quality_gate: PASS ({} families)", report.families.len());
        return;
    }
    for failure in report.failures() {
        eprintln!("quality_gate: FAIL {failure}");
    }
    std::process::exit(1);
}
