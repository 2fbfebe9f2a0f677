//! `divtopk-e2e` — the repo's benchmark. See README.md.
//!
//! ```text
//! divtopk-e2e run    [--workload W|all] [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! divtopk-e2e trace  [--workload W|all] [--seed N] [--seconds S] [--quick]
//! divtopk-e2e repeat [--runs N] [--workload W|all] [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! divtopk-e2e manifest | glossary | fingerprints
//! ```
//!
//! `run` prints every metric by name with its unit, checks every answer,
//! writes `results-W.json`, and ends with one JSON line per workload:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--trace 0` (the default) is the end-to-end run, tracing off;
//! `--trace 1` — or `trace` — is the traced run with the per-layer
//! numbers, and writes `trace-W.json`.

mod client;
mod json;
mod layers;
mod metrics;
mod repeat;
mod rng;
mod run;
mod stats;
mod trace;
mod verify;
mod workload;
mod writer;

use json::Value;
use run::{RunArgs, RunReport};
use std::path::{Path, PathBuf};

const USAGE: &str = "usage: divtopk-e2e run|trace|repeat [--workload W|all] [--seed N] \
[--seconds S] [--trace 0|1] [--runs N] [--quick] | manifest | glossary | fingerprints";

/// Where results, traces and scratch snapshots go: `e2e/` inside the
/// cargo target directory the binary was built into, so that a run
/// reads and writes only inside its checkout.
fn out_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("e2e")))
        .unwrap_or_else(|| PathBuf::from("target/e2e"))
}

/// The checked-out commit, read from `.git` without running git; a
/// checkout that is not a repository reads "unknown".
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find_map(|l| l.strip_suffix(reference).map(str::to_owned))
            })
            .unwrap_or_default(),
        None => head.to_owned(),
    };
    match hash.trim() {
        "" => "unknown".to_owned(),
        hash => hash.to_owned(),
    }
}

fn header(args: &RunArgs, traced: bool) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Value::object([
        ("commit", commit().as_str().into()),
        ("nproc", Value::Number(nproc as f64)),
        ("rustc", env!("E2E_RUSTC_VERSION").into()),
        ("seed", Value::Number(args.seed as f64)),
        ("seconds", Value::Number(args.seconds)),
        ("traced", Value::Bool(traced)),
        ("quick", Value::Bool(args.quick)),
        (
            "phase_seconds",
            Value::object([
                ("batch", Value::Number(args.seconds * run::BATCH_SHARE)),
                ("closed", Value::Number(args.seconds * run::CLOSED_SHARE)),
            ]),
        ),
    ])
}

/// The results file; `quick` results say so and are no baseline.
fn results(args: &RunArgs, traced: bool, report: &RunReport) -> Value {
    Value::object([
        ("header", header(args, traced)),
        ("workload", report.workload.into()),
        ("quick", Value::Bool(report.quick)),
        ("correct", Value::Bool(report.correct())),
        ("attempted", Value::Number(report.tally.attempted as f64)),
        ("failed", Value::Number(report.tally.failed as f64)),
        ("metrics", report.metrics_value()),
        ("detail", report.detail.clone()),
    ])
}

fn print_report(report: &RunReport) {
    println!(
        "# {}{}",
        report.workload,
        if report.quick {
            " (quick: true — not a baseline)"
        } else {
            ""
        }
    );
    for m in &report.metrics {
        println!("{:<46} {:>18.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "attempted {} failed {}",
        report.tally.attempted, report.tally.failed
    );
    for why in &report.tally.reasons {
        println!("FAILED {why}");
    }
    println!("detail {}", report.detail.render());
}

struct Cli {
    workloads: Vec<String>,
    run: RunArgs,
    traced: bool,
    runs: usize,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: vec!["all".to_owned()],
        run: RunArgs {
            workload: String::new(),
            seed: workload::DEFAULT_SEED,
            seconds: f64::from(metrics::RUN_SECONDS),
            quick: false,
            out_dir: out_dir(),
        },
        traced: false,
        runs: 5,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workloads = vec![value()?],
            "--seed" => cli.run.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => cli.run.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--runs" => cli.runs = value()?.parse().map_err(|_| "bad --runs")?,
            "--trace" => {
                cli.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            "--quick" => cli.run.quick = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(cli.run.seconds >= 1.0 && cli.run.seconds <= 600.0) {
        return Err("--seconds must be between 1 and 600".to_owned());
    }
    if cli.workloads == ["all"] {
        cli.workloads = workload::NAMES.iter().map(|&n| n.to_owned()).collect();
    }
    if let Some(unknown) = cli
        .workloads
        .iter()
        .find(|w| !workload::NAMES.contains(&w.as_str()))
    {
        return Err(format!(
            "unknown workload {unknown}; one of {:?} or all",
            workload::NAMES
        ));
    }
    Ok(cli)
}

/// One workload in this process: report, results file, result line.
fn run_one(cli: &Cli, workload: &str) -> Result<bool, String> {
    std::fs::create_dir_all(&cli.run.out_dir)
        .map_err(|e| format!("creating the output directory: {e}"))?;
    let args = RunArgs {
        workload: workload.to_owned(),
        ..cli.run.clone()
    };
    let report = if cli.traced {
        layers::run(&args)?
    } else {
        run::run(&args)?
    };
    print_report(&report);
    let suffix = if cli.traced { "-trace" } else { "" };
    let path = args
        .out_dir
        .join(format!("results-{workload}{suffix}.json"));
    std::fs::write(&path, results(&args, cli.traced, &report).render())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("results {}", path.display());
    println!("{}", report.result_line());
    Ok(report.correct())
}

/// Several workloads: a fresh process each, as the driver runs them (in
/// one process a workload's `rss_mb` would include what the ones before
/// it left behind). Their result lines are repeated at the end.
fn run_each(cli: &Cli) -> Result<bool, String> {
    let mut correct = true;
    let mut lines = Vec::new();
    for workload in &cli.workloads {
        // `output` waits for the child to end; its stderr passes through.
        let output = repeat::child_command(workload, &cli.run, cli.traced)?
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn: {e}"))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut shown: Vec<&str> = stdout.lines().collect();
        if let Some(line) = shown.pop() {
            lines.push(line.to_owned());
        }
        for line in shown {
            println!("{line}");
        }
        correct &= output.status.success();
    }
    for line in lines {
        println!("{line}");
    }
    Ok(correct)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_default();
    let outcome = match command.as_str() {
        "manifest" => {
            println!("{}", metrics::manifest().render());
            Ok(true)
        }
        "glossary" => {
            println!("{}", metrics::glossary());
            Ok(true)
        }
        "fingerprints" => {
            for name in workload::NAMES {
                if let Some(spec) = workload::spec(name, false) {
                    let inputs = workload::Inputs::generate(spec);
                    println!(
                        "{name} corpus={:016x} stream={:016x}",
                        inputs.corpus_fingerprint(),
                        inputs.stream_fingerprint(workload::DEFAULT_SEED)
                    );
                }
            }
            Ok(true)
        }
        "run" | "trace" | "repeat" => parse(args).and_then(|mut cli| {
            cli.traced |= command == "trace";
            if command == "repeat" {
                repeat::run(&repeat::RepeatArgs {
                    workloads: cli.workloads.clone(),
                    runs: cli.runs,
                    run: cli.run.clone(),
                    traced: cli.traced,
                })
            } else if let [workload] = cli.workloads.as_slice() {
                run_one(&cli, workload)
            } else {
                run_each(&cli)
            }
        }),
        _ => Err(USAGE.to_owned()),
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(why) => {
            eprintln!("divtopk-e2e: {why}");
            std::process::exit(2);
        }
    }
}
