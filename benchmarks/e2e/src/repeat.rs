//! `repeat`: the benchmark run several times, each run a fresh process
//! with another seed, and per metric × workload the median, the
//! quartiles and the spread against the metric's bound.
//!
//! The acceptance rule is the driver's: the distance between the first
//! and the third quartile (Python's `statistics.quantiles(v, n=4)`) as a
//! share of the median must stay within the bound. `(max − min) /
//! median` is printed beside it.

use crate::json::{self, Value};
use crate::metrics::END_TO_END;
use crate::run::RunArgs;
use crate::stats;
use std::collections::BTreeMap;
use std::process::Command;

pub struct RepeatArgs {
    pub workloads: Vec<String>,
    pub runs: usize,
    /// Seed of the first run, seconds and `--quick` of every run.
    pub run: RunArgs,
    pub traced: bool,
}

/// This binary's `run` of one workload, as the driver calls it.
pub fn child_command(workload: &str, run: &RunArgs, traced: bool) -> Result<Command, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["run", "--workload", workload])
        .args(["--seed", &run.seed.to_string()])
        .args(["--seconds", &run.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if run.quick {
        command.arg("--quick");
    }
    Ok(command)
}

/// One child run; returns its metrics, or why it does not count.
fn child(args: &RepeatArgs, workload: &str, seed: u64) -> Result<BTreeMap<String, f64>, String> {
    let run = RunArgs {
        seed,
        ..args.run.clone()
    };
    // `output` waits for the child to end.
    let output = child_command(workload, &run, args.traced)?
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .next_back()
        .ok_or_else(|| format!("no output (exit {:?})", output.status.code()))?;
    let result = json::parse(line).map_err(|e| format!("result line: {e}"))?;
    if result.get("correct").and_then(Value::as_bool) != Some(true) || !output.status.success() {
        return Err(format!("seed {seed}: incorrect run: {line}"));
    }
    Ok(result
        .get("metrics")
        .map(Value::fields)
        .unwrap_or_default()
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect())
}

/// Runs everything, prints a markdown table per workload, and returns
/// whether every gated metric stayed within its bound.
pub fn run(args: &RepeatArgs) -> Result<bool, String> {
    if args.runs < 2 {
        return Err("--runs must be at least 2".to_owned());
    }
    let mut within = true;
    for workload in &args.workloads {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut order: Vec<String> = Vec::new();
        for i in 0..args.runs as u64 {
            let seed = args.run.seed + 7 * i;
            for (name, value) in child(args, workload, seed)? {
                if !values.contains_key(&name) {
                    order.push(name.clone());
                }
                values.entry(name).or_default().push(value);
            }
        }
        println!(
            "\n### {workload} — {} runs, seeds {}..{} step 7, {} s{}{}\n",
            args.runs,
            args.run.seed,
            args.run.seed + 7 * (args.runs as u64 - 1),
            args.run.seconds,
            if args.traced { ", traced" } else { "" },
            if args.run.quick {
                ", quick: true (not a baseline)"
            } else {
                ""
            },
        );
        println!("| metric | median | q1 | q3 | (q3-q1)/median | (max-min)/median | bound | |");
        println!("|---|---|---|---|---|---|---|---|");
        // Declared order for the gated metrics, first-seen otherwise.
        let declared: Vec<String> = END_TO_END.iter().map(|m| m.name.to_owned()).collect();
        order.sort_by_key(|name| {
            declared
                .iter()
                .position(|d| d == name)
                .unwrap_or(usize::MAX)
        });
        for name in &order {
            let v = &values[name];
            let [q1, median, q3] = stats::quartiles(v);
            let (lo, hi) = v
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                    (lo.min(x), hi.max(x))
                });
            let scale = if median.abs() > 0.0 {
                median.abs()
            } else {
                1.0
            };
            let (iqr, range) = ((q3 - q1) / scale, (hi - lo) / scale);
            let bound = END_TO_END.iter().find(|m| m.name == name).map(|m| m.bound);
            let verdict = match bound {
                // setup_s is held to its median's drift only, not to its spread.
                Some(bound) if iqr > bound && name != "setup_s" => {
                    within = false;
                    "BREACH"
                }
                Some(bound) if iqr > bound / 3.0 => "over a third",
                _ => "",
            };
            println!(
                "| `{name}` | {median:.6} | {q1:.6} | {q3:.6} | {iqr:.4} | {range:.4} | {} | {verdict} |",
                bound.map_or("—".to_owned(), |b| b.to_string()),
            );
        }
    }
    Ok(within)
}
