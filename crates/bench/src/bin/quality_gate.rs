//! `quality_gate` — the CI quality gate: replays a query-pack through
//! the engine twice per query (diversity on vs. off, same snapshot),
//! scores diversity and relevance, and exits non-zero naming the family
//! and metric of every gate that failed.
//!
//! ```text
//! quality_gate [--pack PATH] [--out PATH]
//! ```
//!
//! With no `--pack`, the default pack (the committed
//! `benchmarks/query-pack.v1.json`, compiled in) runs. `--out` writes the
//! self-validated `divtopk-quality/1` evidence table.

use divtopk_bench::quality::evaluate;
use divtopk_bench::workload::QueryPack;

struct Args {
    pack: Option<String>,
    out: Option<String>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            pack: None,
            out: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
            match flag.as_str() {
                "--pack" => args.pack = Some(value("--pack")?),
                "--out" => args.out = Some(value("--out")?),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(args)
    }
}

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("quality_gate: {why}");
            eprintln!("usage: quality_gate [--pack PATH] [--out PATH]");
            std::process::exit(2);
        }
    };

    let pack = match &args.pack {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("quality_gate: reading {path}: {e}");
                std::process::exit(2);
            });
            match QueryPack::from_json(&text) {
                Ok(pack) => pack,
                Err(why) => {
                    eprintln!("quality_gate: {path}: {why}");
                    std::process::exit(2);
                }
            }
        }
        None => QueryPack::default_pack(),
    };

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

    println!("{}", report.render_table());
    if let Some(path) = &args.out {
        std::fs::write(path, report.to_json_pretty()).unwrap_or_else(|e| {
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
