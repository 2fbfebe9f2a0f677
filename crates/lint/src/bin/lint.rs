//! `divtopk-lint` CLI: the invariant checker and the interleaving models
//! as one binary, wired into CI's `lint-invariants` job.
//!
//! ```text
//! lint                      # lint the workspace at the current dir
//! lint --root PATH          # lint the workspace at PATH
//! lint --models             # run the four interleaving models instead
//! lint --models --budget N  # ... with a schedule budget of N per model
//! ```
//!
//! Exit status: 0 when clean, 1 on any diagnostic / model failure /
//! under-explored model, 2 on usage or I/O errors.

use divtopk_core::sync::Gate;
use divtopk_lint::models::{self, Bug, GateShape};
use divtopk_lint::sched::{Explorer, Failure, Report, Sim};
use divtopk_lint::walk::lint_workspace;
use std::path::PathBuf;
use std::process::ExitCode;

/// Every model must clear this many schedules for a `--models` run to
/// count as meaningful coverage (the acceptance floor).
const MIN_SCHEDULES: usize = 1000;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut run_models = false;
    let mut budget = 4096usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                let Some(path) = args.next() else {
                    eprintln!("lint: --root requires a path");
                    return ExitCode::from(2);
                };
                root = PathBuf::from(path);
            }
            "--models" => run_models = true,
            "--budget" => {
                let parsed = args.next().and_then(|v| v.parse::<usize>().ok());
                let Some(value) = parsed else {
                    eprintln!("lint: --budget requires a positive integer");
                    return ExitCode::from(2);
                };
                budget = value;
            }
            "--help" | "-h" => {
                println!("usage: lint [--root PATH] [--models] [--budget N]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("lint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    if run_models {
        run_interleaving_models(budget)
    } else {
        run_linter(&root)
    }
}

fn run_linter(root: &std::path::Path) -> ExitCode {
    let diagnostics = match lint_workspace(root) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("lint: cannot walk {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if diagnostics.is_empty() {
        println!("lint: workspace clean");
        return ExitCode::SUCCESS;
    }
    for d in &diagnostics {
        println!("{d}");
    }
    println!("lint: {} violation(s)", diagnostics.len());
    ExitCode::FAILURE
}

fn run_interleaving_models(budget: usize) -> ExitCode {
    let explorer = Explorer {
        max_schedules: budget,
        ..Explorer::default()
    };
    // The prefetch protocol's interesting schedules (park → pop →
    // re-spawn races) need more context switches than the others; a
    // deeper preemption bound keeps its bounded space both meaningful
    // and exhaustible (see DESIGN.md §13).
    let deep = Explorer {
        max_preemptions: 4,
        ..explorer
    };
    type ModelRun<'a> = &'a dyn Fn() -> Result<Report, Failure>;
    let runs: [(&str, ModelRun); 4] = [
        ("pool-handshake", &|| {
            models::pool_handshake(&explorer, 2, 2, Bug::None)
        }),
        ("prefetch-pump", &|| {
            models::prefetch_pump(&deep, 1, 4, Bug::None)
        }),
        ("single-flight", &|| {
            models::single_flight(&explorer, 3, models::fill::<Sim>)
        }),
        ("admission-gate", &|| {
            models::admission_gate::<Gate<Sim>>(&explorer, GateShape::RACE)
        }),
    ];
    let mut failed = false;
    for (name, run) in runs {
        match run() {
            Ok(report) => {
                let coverage = if report.exhausted {
                    "exhausted"
                } else {
                    "budget-capped"
                };
                println!(
                    "model {name}: ok — {} schedules ({coverage}), max depth {}, fingerprint {:016x}",
                    report.schedules, report.max_decisions, report.fingerprint
                );
                if report.schedules < MIN_SCHEDULES {
                    println!(
                        "model {name}: FAIL — only {} schedules explored (< {MIN_SCHEDULES})",
                        report.schedules
                    );
                    failed = true;
                }
            }
            Err(failure) => {
                println!(
                    "model {name}: FAIL — {} after {} clean schedules; witness {:?}",
                    failure.kind, failure.schedules_before, failure.schedule
                );
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
