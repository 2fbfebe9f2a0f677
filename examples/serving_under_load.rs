//! Serving under load: the TCP server, wire protocol, and backpressure
//! end to end — in one process, no flags, no network setup.
//!
//! Boots a 4-shard engine behind [`Server`], then plays three client
//! roles against it over real TCP:
//!
//! 1. a well-behaved client (ping, a few searches, stats);
//! 2. a burst that overruns the admission gate and collects the typed
//!    `Overloaded` rejections — backpressure as a protocol answer, not a
//!    hang;
//! 3. a stats read showing the latency histogram and serving counters.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example serving_under_load
//! ```
//!
//! The standalone `serve` binary hosts an engine over a real deployment
//! boundary and stops on stdin EOF (see README "Serving under load");
//! `crates/bench/tests/serve_flags.rs` drives it with this example's
//! handshake.

use divtopk::engine::prelude::*;
use divtopk::engine::proto::{Request, Response, call};
use divtopk::text::prelude::*;
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn connect(addr: &str) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.set_nodelay(true).ok();
    stream
}

fn search(term: TermId) -> Request {
    Request::Search {
        query: Query::Scan(term),
        k: 8,
        tau: 0.5,
        bound_decay: 0.005,
        mode: DiversifyMode::exact(),
    }
}

/// Terms with mid-sized posting lists — queries that do real work.
fn interesting_terms(corpus: &Corpus, count: usize) -> Vec<TermId> {
    let index = InvertedIndex::build(corpus);
    let mut terms: Vec<TermId> = (0..corpus.num_terms() as TermId)
        .filter(|&t| (8..=80).contains(&index.postings(t).len()))
        .collect();
    terms.sort_by_key(|&t| std::cmp::Reverse(index.postings(t).len()));
    terms.truncate(count);
    terms
}

fn main() {
    // An engine standing in for a production index, served over TCP on a
    // kernel-assigned port. Cache off (every search pays full price), one
    // search at a time and room for two to wait, so the burst below can
    // actually overflow it.
    let corpus = generate(&SynthConfig::reuters_like().with_num_docs(3_000));
    let terms = interesting_terms(&corpus, 12);
    let engine = Arc::new(Engine::new(
        corpus,
        EngineConfig::new(4).with_cache_capacity(0),
    ));
    let server = Server::start(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            queue_capacity: 2,
        },
    )
    .expect("bind");
    let addr = server.addr().to_string();
    println!("serving on {addr} (1 search at a time, 2 may wait)");

    // A term with a healthy posting list, discovered through the stats
    // endpoint — a client learns the vocabulary size the same way.
    let mut stream = connect(&addr);
    assert_eq!(call(&mut stream, &Request::Ping), Ok(Response::Pong));
    let Ok(Response::Stats(stats)) = call(&mut stream, &Request::Stats) else {
        panic!("stats request must draw a stats response");
    };
    println!(
        "handshake: generation {}, {} docs, {} terms",
        stats.generation, stats.num_docs, stats.num_terms
    );
    assert!(stats.num_terms > 0, "frozen vocabulary is nonempty");

    // 1. The polite client: sequential searches, every answer typed.
    for (round, &term) in terms.iter().take(3).enumerate() {
        match call(&mut stream, &search(term)).expect("round trip") {
            Response::Hits(hits) => println!(
                "search {}: {} hits, total score {:.3}, generation {}{}",
                round,
                hits.hits.len(),
                hits.total_score,
                hits.generation,
                if hits.early_stopped {
                    " (early stop)"
                } else {
                    ""
                },
            ),
            Response::Error { code, message } => {
                println!("search {round}: typed error {code:?}: {message}")
            }
            other => panic!("unexpected response {other:?}"),
        }
    }

    // 2. The burst: 12 simultaneous one-shot searches into a server that
    // holds exactly workers + queue = 3: one runs, two wait their turn in
    // arrival order. The overflow is *rejected*, immediately and typed —
    // nobody waits in an unbounded line.
    let clients = 12;
    let barrier = Arc::new(Barrier::new(clients));
    let terms = &terms;
    let outcomes: Vec<&str> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                let addr = addr.clone();
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    let mut stream = connect(&addr);
                    barrier.wait();
                    match call(&mut stream, &search(terms[i % terms.len()])).expect("round trip") {
                        Response::Hits(_) => "served",
                        Response::Overloaded { .. } => "overloaded",
                        other => panic!("unexpected burst response {other:?}"),
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let served = outcomes.iter().filter(|o| **o == "served").count();
    let shed = outcomes.iter().filter(|o| **o == "overloaded").count();
    println!("burst of {clients}: {served} served, {shed} shed with typed Overloaded");
    assert_eq!(served + shed, clients, "every request draws a response");

    // 3. Stats again: counters and the latency histogram agree with what
    // we just did.
    let Ok(Response::Stats(after)) = call(&mut stream, &Request::Stats) else {
        panic!("stats request must draw a stats response");
    };
    println!(
        "counters: {} searches measured, {} overloaded, {} protocol errors",
        after.search_count, after.overloaded, after.protocol_errors
    );
    println!(
        "latency:  p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms",
        after.search_p50_ns as f64 / 1e6,
        after.search_p95_ns as f64 / 1e6,
        after.search_p99_ns as f64 / 1e6,
    );

    drop(server); // graceful: admitted searches finish, connections close, threads join
    println!("server shut down cleanly");
}
