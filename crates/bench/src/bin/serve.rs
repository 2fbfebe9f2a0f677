//! `serve` — the standalone serving binary: builds (or loads) an engine,
//! binds the wire protocol on a TCP port, prints `LISTENING <addr>` on
//! stdout, and serves until stdin reaches EOF, then shuts down cleanly
//! and exits 0 — the stop signal, with no signal handling. A caller
//! keeps stdin open for as long as the server should run: a pipe, or a
//! fifo held open by the shell (`/dev/null` or a terminal left to a
//! background job will not do: the first is EOF at once, the second
//! stops the job on `SIGTTIN`).
//!
//! ```text
//! serve [--port N] [--shards N] [--docs N] [--snapshot PATH]
//!       [--cache N] [--workers N] [--queue N] [--seed N]
//! ```
//!
//! Exits 2 with the usage line on a bad flag, 1 with one `serve: …` line
//! when the snapshot cannot be loaded or the port cannot be bound.
//! `--workers` is how many searches may execute at once (0 = one per
//! CPU), `--queue` how many more may wait; one beyond that is answered
//! `Overloaded`. `--shards` (default 1) splits the base corpus into that
//! many segments. It is a layout-test knob, not a speed one: a query
//! pulls its segments one after another on its own thread, so more
//! segments buy only a k-way merge and cost memory.
//!
//! Without `--snapshot` the corpus is the deterministic reuters-like
//! synthetic collection (same generator as the benchmarks), so the same
//! flags serve the same answers on every run.
//! `tests/serve_flags.rs::serve_answers_over_tcp_and_stops_on_stdin_eof`
//! boots this binary, queries it over TCP and checks the stop.

use divtopk_engine::prelude::*;
use divtopk_text::prelude::*;
use std::io::Read;
use std::sync::Arc;

struct Args {
    port: u16,
    shards: usize,
    docs: usize,
    snapshot: Option<String>,
    cache: usize,
    workers: usize,
    queue: usize,
    seed: u64,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            port: 0,
            shards: 1,
            docs: 4000,
            snapshot: None,
            cache: 256,
            workers: 0,
            queue: 64,
            seed: 0x0600,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
            match flag.as_str() {
                "--port" => args.port = parse(&value("--port")?)?,
                "--shards" => args.shards = parse(&value("--shards")?)?,
                "--docs" => args.docs = parse(&value("--docs")?)?,
                "--snapshot" => args.snapshot = Some(value("--snapshot")?),
                "--cache" => args.cache = parse(&value("--cache")?)?,
                "--workers" => args.workers = parse(&value("--workers")?)?,
                "--queue" => args.queue = parse(&value("--queue")?)?,
                "--seed" => args.seed = parse(&value("--seed")?)?,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        // The engine, the partitioner and the generator each assert these.
        for (name, value) in [
            ("--shards", args.shards),
            ("--docs", args.docs),
            ("--queue", args.queue),
        ] {
            if value == 0 {
                return Err(format!("{name} must be at least 1"));
            }
        }
        Ok(args)
    }
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad numeric value {s:?}"))
}

/// A deployment error (as opposed to a usage error, exit 2): one line,
/// exit 1.
fn fail(why: String) -> ! {
    eprintln!("serve: {why}");
    std::process::exit(1);
}

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("serve: {why}");
            eprintln!(
                "usage: serve [--port N] [--shards N] [--docs N] [--snapshot PATH] \
                 [--cache N] [--workers N] [--queue N] [--seed N]"
            );
            std::process::exit(2);
        }
    };
    let config = EngineConfig::new(args.shards).with_cache_capacity(args.cache);
    let engine = match &args.snapshot {
        Some(path) => Engine::load_snapshot(path, &config)
            .unwrap_or_else(|e| fail(format!("loading snapshot {path}: {e}"))),
        None => {
            let corpus = generate(
                &SynthConfig::reuters_like()
                    .with_num_docs(args.docs)
                    .with_seed(args.seed),
            );
            Engine::new(corpus, config)
        }
    };
    eprintln!(
        "[serve] generation {} · {} segments · {} docs · {} terms",
        engine.generation(),
        engine.stats().segments,
        engine.corpus().num_docs(),
        engine.corpus().num_terms(),
    );
    let server_config = ServerConfig {
        workers: args.workers,
        queue_capacity: args.queue,
    };
    let server = Server::start(
        Arc::new(engine),
        &format!("127.0.0.1:{}", args.port),
        server_config,
    )
    .unwrap_or_else(|e| fail(format!("binding port {}: {e}", args.port)));
    // The machine-readable ready line scripts and CI wait for.
    println!("LISTENING {}", server.addr());
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    // Serve until stdin reaches EOF — the portable, dependency-free stop
    // signal (the caller closes its end of the pipe or fifo).
    let mut sink = Vec::new();
    std::io::stdin().read_to_end(&mut sink).ok();
    drop(server); // Drop shuts down: searches finish, connections close, threads join.
    eprintln!("[serve] stdin closed, shut down cleanly");
}
