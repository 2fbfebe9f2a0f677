//! `loadgen` — the open-loop load generator: replays a deterministic
//! query trace against a running `serve` instance at a fixed arrival
//! rate and reports achieved q/s plus p50/p95/p99 latency (measured from
//! each request's *scheduled* arrival, so server-side queueing counts).
//!
//! ```text
//! loadgen --addr HOST:PORT [--rate Q/S] [--duration SECS]
//!         [--connections N] [--seed N] [--mix TA_FRACTION] [--out PATH]
//! ```
//!
//! Prints a JSON report; exits non-zero if any request drew a transport
//! failure or a typed error (backpressure rejections are *not* errors —
//! they are the server behaving as specified under overload).

use divtopk_bench::json;
use divtopk_bench::load::{LoadSpec, run_open_loop};

struct Args {
    addr: String,
    rate: f64,
    duration: f64,
    connections: usize,
    seed: u64,
    mix: f64,
    out: Option<String>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            addr: String::new(),
            rate: 200.0,
            duration: 5.0,
            connections: 4,
            seed: 1,
            mix: 0.25,
            out: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
            match flag.as_str() {
                "--addr" => args.addr = value("--addr")?,
                "--rate" => args.rate = parse(&value("--rate")?)?,
                "--duration" => args.duration = parse(&value("--duration")?)?,
                "--connections" => args.connections = parse(&value("--connections")?)?,
                "--seed" => args.seed = parse(&value("--seed")?)?,
                "--mix" => args.mix = parse(&value("--mix")?)?,
                "--out" => args.out = Some(value("--out")?),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if args.addr.is_empty() {
            return Err("--addr is required".to_owned());
        }
        if !(args.rate > 0.0 && args.duration > 0.0) {
            return Err("--rate and --duration must be positive".to_owned());
        }
        Ok(args)
    }
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad numeric value {s:?}"))
}

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("loadgen: {why}");
            eprintln!(
                "usage: loadgen --addr HOST:PORT [--rate Q/S] [--duration SECS] \
                 [--connections N] [--seed N] [--mix TA_FRACTION] [--out PATH]"
            );
            std::process::exit(2);
        }
    };
    let spec = LoadSpec {
        addr: args.addr.clone(),
        rate: args.rate,
        total: (args.rate * args.duration).ceil().max(1.0) as usize,
        connections: args.connections,
        seed: args.seed,
        ta_fraction: args.mix,
        k: 5,
        tau: 0.5,
    };
    let report = match run_open_loop(&spec) {
        Ok(report) => report,
        Err(why) => {
            eprintln!("loadgen: {why}");
            std::process::exit(1);
        }
    };
    let rendered = format!(
        "{{\n  \"addr\": \"{}\",\n  \"rate_target\": {:.3},\n  \"sent\": {},\n  \
         \"ok\": {},\n  \"overloaded\": {},\n  \"errors\": {},\n  \
         \"qps_achieved\": {:.3},\n  \"p50_ms\": {:.3},\n  \"p95_ms\": {:.3},\n  \
         \"p99_ms\": {:.3},\n  \"elapsed_s\": {:.3}\n}}",
        json::escape_string(&args.addr),
        args.rate,
        report.sent,
        report.ok,
        report.overloaded,
        report.errors,
        report.qps(),
        report.quantile_ms(0.50),
        report.quantile_ms(0.95),
        report.quantile_ms(0.99),
        report.elapsed.as_secs_f64(),
    );
    json::validate(&rendered).unwrap_or_else(|e| panic!("loadgen emitted malformed JSON: {e}"));
    println!("{rendered}");
    if let Some(path) = &args.out {
        std::fs::write(path, format!("{rendered}\n"))
            .unwrap_or_else(|e| panic!("writing {path}: {e}"));
    }
    if report.errors > 0 || report.ok == 0 {
        eprintln!(
            "loadgen: FAILED ({} errors, {} ok of {} sent)",
            report.errors, report.ok, report.sent
        );
        std::process::exit(1);
    }
    eprintln!(
        "loadgen: {} ok, {} overloaded, {:.1} q/s achieved",
        report.ok,
        report.overloaded,
        report.qps()
    );
}
