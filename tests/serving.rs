//! End-to-end tests for the serving binary path: the TCP server under
//! concurrent clients with a live writer (satellite: stress), and the
//! wire protocol under hostile bytes (satellite: robustness).
//!
//! * **Stress**: N client threads fire searches at a running server while
//!   a writer thread runs a seeded op script. Every `Hits` response must
//!   be the answer the rebuild of the generation *it reports* gives for
//!   that query, a scan's score bits included (no torn
//!   reads, no cross-generation mixing, no mislabelled generation);
//!   overload draws the typed backpressure
//!   rejection; every request gets *some* response (client read timeouts
//!   turn a hang into a failure).
//! * **Robustness**: truncations at every frame offset, oversized and
//!   zero length prefixes, garbage tags, and mid-frame disconnects each
//!   produce a typed error or a clean close — and the server keeps
//!   serving afterwards. Mirrors PR 5's truncate-every-offset sweep one
//!   layer up, at the frame boundary.
//! * **Reload**: a `Reload` request swaps in a saved snapshot under a
//!   generation above every one served before, so the first answer after
//!   it is computed afresh on the loaded state; a missing snapshot
//!   is a typed error that changes nothing.

mod support;

use divtopk::engine::prelude::*;
use divtopk::engine::proto::{self, Request, Response, call};
use divtopk::text::prelude::*;
use divtopk::{ExactAlgorithm, Score};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use support::{Live, Rebuild, Script, fixture, interesting_terms, temp_path};

/// Client-side guard: any server hang surfaces as a test failure, not a
/// stuck suite.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(20);

fn connect(addr: &str) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(CLIENT_TIMEOUT)).unwrap();
    stream.set_write_timeout(Some(CLIENT_TIMEOUT)).unwrap();
    stream.set_nodelay(true).ok();
    stream
}

// ------------------------------------------------------------------ stress

/// Asserts that a wire answer is what `rebuild` says serving `query`
/// with `options` must answer ([`Rebuild::check_hits`]).
fn assert_wire_answer(
    rebuild: &Rebuild,
    query: &Query,
    options: &SearchOptions,
    answer: &WireHits,
    case: &str,
) {
    let hits: Vec<Hit> = answer
        .hits
        .iter()
        .map(|&(doc, score)| Hit {
            doc,
            score: Score::new(score),
        })
        .collect();
    let total = Score::new(answer.total_score);
    let want = rebuild.search(query, options);
    rebuild.check_hits(query, options, &want, &hits, total, case);
}

#[test]
fn concurrent_clients_with_live_writer_see_single_generation_answers() {
    let (base, pool) = fixture(71, 220, 30);
    let terms = interesting_terms(&base, 3);
    assert!(terms.len() >= 2, "base corpus has too few usable terms");
    let script = Script::random(71, base.num_docs(), pool, 10, false);

    // The wire query set and the exact options the server will build.
    let (k, tau, bound_decay) = (5u32, 0.5f64, 0.005f64);
    let options = SearchOptions::new(k as usize)
        .with_tau(tau)
        .with_bound_decay(bound_decay)
        .with_mode(DiversifyMode::Exact(ExactAlgorithm::Cut));
    let request = move |query: &Query| Request::Search {
        query: query.clone(),
        k,
        tau,
        bound_decay,
        mode: DiversifyMode::exact(),
    };
    let queries: Vec<Query> = terms
        .iter()
        .map(|&t| Query::Scan(t))
        .chain([Query::Keywords(KeywordQuery {
            terms: vec![terms[0], terms[1]],
        })])
        .collect();

    // The rebuild of every state the server can possibly serve: a model
    // with the served layout replays the script, and each op that
    // changes it is one generation.
    let config = EngineConfig::new(2).with_cache_capacity(0);
    let mut model = SegmentedIndex::build_partitioned(base.clone(), 2);
    let mut by_generation = vec![Rebuild::of(&model)];
    for op in &script.ops {
        if model.apply(op, &script.pool, None) {
            by_generation.push(Rebuild::of(&model));
        }
    }

    // The live side: same base, same config, real TCP server.
    let engine = Arc::new(Engine::new(base, config));
    let server = Server::start(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            queue_capacity: 32,
        },
    )
    .expect("server start");
    let addr = server.addr().to_string();

    let clients: Vec<_> = (0..4u64)
        .map(|c| {
            let addr = addr.clone();
            let queries = queries.clone();
            std::thread::spawn(move || {
                let mut stream = connect(&addr);
                let mut answers = Vec::new();
                for round in 0..30u64 {
                    let which = ((c + round) % queries.len() as u64) as usize;
                    match call(&mut stream, &request(&queries[which])).unwrap() {
                        Response::Hits(hits) => answers.push((which, hits)),
                        Response::Overloaded { .. } => {} // typed, legal
                        other => panic!("client {c}: unexpected {other:?}"),
                    }
                }
                answers
            })
        })
        .collect();

    // The writer races the clients through the same scripted mutations.
    let writer = {
        let engine = Arc::clone(&engine);
        let script = script.clone();
        std::thread::spawn(move || {
            for op in &script.ops {
                std::thread::sleep(Duration::from_millis(5));
                (&*engine).apply(op, &script.pool, None);
            }
        })
    };
    let answers: Vec<(usize, WireHits)> = clients
        .into_iter()
        .flat_map(|client| client.join().expect("client thread"))
        .collect();
    writer.join().expect("writer thread");
    assert!(!answers.is_empty(), "nothing was served");
    assert_eq!(engine.generation() as usize, by_generation.len() - 1);
    // Every answer must be exactly the answer of the generation it
    // claims — never a mix, and never another generation's under this
    // label.
    let check = |which: usize, hits: &WireHits| {
        let rebuild = by_generation
            .get(hits.generation as usize)
            .unwrap_or_else(|| panic!("generation {} was never published", hits.generation));
        let case = format!("{:?} at generation {}", queries[which], hits.generation);
        assert_wire_answer(rebuild, &queries[which], &options, hits, &case);
    };
    for (which, hits) in &answers {
        check(*which, hits);
    }
    // The server ended on the final generation: a fresh query now matches
    // the final rebuild.
    let mut stream = connect(&addr);
    match call(&mut stream, &request(&queries[0])).unwrap() {
        Response::Hits(hits) => {
            assert_eq!(hits.generation as usize, by_generation.len() - 1);
            check(0, &hits);
        }
        other => panic!("final query: unexpected {other:?}"),
    }
}

#[test]
fn overload_draws_typed_backpressure_and_never_hangs() {
    let corpus = generate(
        &SynthConfig {
            near_dup_prob: 0.5, // dense similarity: searches do real work
            ..SynthConfig::tiny().with_seed(81)
        }
        .with_num_docs(400),
    );
    let terms = interesting_terms(&corpus, 1);
    let engine = Engine::new(
        corpus,
        EngineConfig::new(2).with_cache_capacity(0), // every request searches
    );
    let server = Server::start(
        Arc::new(engine),
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            queue_capacity: 1, // concurrency hard cap = 2
        },
    )
    .expect("server start");
    let addr = server.addr().to_string();

    // Both slots are full before the burst, whatever the machine's speed:
    // the test holds the one worker permit, and the first client's search
    // waits in the one queue slot. The other 15 clients then release one
    // search each at the same instant, and the gate must shed every one.
    let gate = server.gate();
    let held = gate.enter().expect("an idle gate admits");
    let barrier = Arc::new(std::sync::Barrier::new(16));
    let hits = Arc::new(AtomicU64::new(0));
    let overloaded = Arc::new(AtomicU64::new(0));
    let clients: Vec<_> = (0..16)
        .map(|i| {
            let addr = addr.clone();
            let barrier = Arc::clone(&barrier);
            let hits = Arc::clone(&hits);
            let overloaded = Arc::clone(&overloaded);
            let term = terms[0];
            std::thread::spawn(move || {
                let mut stream = connect(&addr);
                let request = Request::Search {
                    query: Query::Scan(term),
                    k: 8,
                    tau: 0.3,
                    bound_decay: 0.005,
                    mode: DiversifyMode::exact(),
                };
                if i > 0 {
                    barrier.wait();
                }
                match call(&mut stream, &request).unwrap() {
                    Response::Hits(_) => hits.fetch_add(1, Ordering::Relaxed),
                    Response::Overloaded { queue_capacity } => {
                        assert_eq!(queue_capacity, 1);
                        overloaded.fetch_add(1, Ordering::Relaxed)
                    }
                    other => panic!("unexpected {other:?}"),
                };
            })
        })
        .collect();
    let wait_until = |done: &dyn Fn() -> bool| {
        let started = Instant::now();
        while !done() {
            assert!(
                started.elapsed() < CLIENT_TIMEOUT,
                "the gate never got there"
            );
            std::thread::yield_now();
        }
    };
    wait_until(&|| gate.waiting() == 1);
    barrier.wait();
    wait_until(&|| server.metrics().overloaded.load(Ordering::Relaxed) == 15);
    drop(held);
    for client in clients {
        client.join().expect("client thread"); // a hang trips the timeout
    }
    let (hits, overloaded) = (
        hits.load(Ordering::Relaxed),
        overloaded.load(Ordering::Relaxed),
    );
    assert_eq!(
        (hits, overloaded),
        (1, 15),
        "the queued search ran, the burst was shed"
    );
    assert_eq!(hits + overloaded, 16, "every request drew a response");
    assert!(hits >= 1, "nothing was served under burst");
    assert!(
        overloaded >= 1,
        "burst of 16 into capacity 2 never rejected"
    );
    // Backpressure is load shedding, not failure: the next request works,
    // and stats stayed reachable under pressure (served inline).
    let mut stream = connect(&addr);
    match call(&mut stream, &Request::Stats).unwrap() {
        Response::Stats(stats) => {
            assert_eq!(stats.overloaded, overloaded);
            assert_eq!(stats.search_count, hits);
        }
        other => panic!("stats: unexpected {other:?}"),
    }
    match call(
        &mut stream,
        &Request::Search {
            query: Query::Scan(terms[0]),
            k: 3,
            tau: 0.5,
            bound_decay: 0.005,
            mode: DiversifyMode::exact(),
        },
    )
    .unwrap()
    {
        Response::Hits(_) => {}
        other => panic!("post-overload query: unexpected {other:?}"),
    }
}

#[test]
fn a_burst_of_exactly_the_capacity_into_an_idle_server_sheds_nothing() {
    // The other side of the policy: `workers + queue_capacity` searches
    // at the same instant all fit — two run, two wait their turn.
    let corpus = generate(
        &SynthConfig {
            near_dup_prob: 0.5,
            ..SynthConfig::tiny().with_seed(81)
        }
        .with_num_docs(400),
    );
    let term = interesting_terms(&corpus, 1)[0];
    let server = Server::start(
        Arc::new(Engine::new(
            corpus,
            EngineConfig::new(2).with_cache_capacity(0),
        )),
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            queue_capacity: 2,
        },
    )
    .expect("server start");
    let addr = server.addr().to_string();
    let request = Request::Search {
        query: Query::Scan(term),
        k: 8,
        tau: 0.3,
        bound_decay: 0.005,
        mode: DiversifyMode::exact(),
    };
    let barrier = std::sync::Barrier::new(4);
    let shed = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| {
                for _ in 0..200 {
                    // A connection per round: a fresh socket is not yet
                    // subject to the delayed-ACK stall (DESIGN.md §8).
                    let mut stream = connect(&addr);
                    // Every client holds its previous answer by now, and
                    // the server released that search's slot before it
                    // answered: each round starts on an idle server.
                    barrier.wait();
                    match call(&mut stream, &request).unwrap() {
                        Response::Hits(_) => {}
                        Response::Overloaded { .. } => {
                            shed.fetch_add(1, Ordering::Relaxed);
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                }
            });
        }
    });
    assert_eq!(
        shed.load(Ordering::Relaxed),
        0,
        "shed out of 800 searches in 200 bursts of exactly the capacity"
    );
}

// -------------------------------------------------------------- robustness

fn tiny_server() -> (Server, String) {
    let corpus = generate(&SynthConfig::tiny().with_seed(91).with_num_docs(120));
    let server = Server::start(
        Arc::new(Engine::new(corpus, EngineConfig::new(2))),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .expect("server start");
    let addr = server.addr().to_string();
    (server, addr)
}

fn assert_ping_works(addr: &str) {
    let mut stream = connect(addr);
    assert_eq!(call(&mut stream, &Request::Ping), Ok(Response::Pong));
}

/// A typed protocol error, or a clean close — never a hang, never junk.
fn read_error_or_close(stream: &mut TcpStream) {
    match proto::read_frame(stream) {
        Ok(Some(frame)) => match proto::decode_response(&frame).expect("decode") {
            Response::Error {
                code: proto::ErrorCode::Protocol,
                ..
            } => {}
            other => panic!("expected a protocol error, got {other:?}"),
        },
        Ok(None) => {}                      // clean close
        Err(proto::ProtoError::Io(_)) => {} // reset mid-report
        Err(e) => panic!("client-side decode failure: {e}"),
    }
}

#[test]
fn truncation_at_every_frame_offset_leaves_the_server_serving() {
    let (_server, addr) = tiny_server();
    // A representative full frame: header + search payload.
    let payload = proto::encode_request(&Request::Search {
        query: Query::Keywords(KeywordQuery {
            terms: vec![3, 1, 4],
        }),
        k: 5,
        tau: 0.5,
        bound_decay: 0.005,
        mode: DiversifyMode::exact(),
    })
    .unwrap();
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&payload);
    // Every proper prefix is a mid-frame disconnect (offset 0 is simply a
    // clean open-then-close).
    for cut in 0..frame.len() {
        let mut stream = connect(&addr);
        stream.write_all(&frame[..cut]).expect("partial write");
        stream.shutdown(std::net::Shutdown::Write).ok();
        if cut == 0 {
            assert!(
                proto::read_frame(&mut stream)
                    .expect("clean close")
                    .is_none(),
                "offset 0 must be a clean close"
            );
        } else if cut < 4 || cut < frame.len() {
            read_error_or_close(&mut stream);
        }
    }
    // The sweep must not have taken the server down.
    assert_ping_works(&addr);
    let mut stream = connect(&addr);
    match call(&mut stream, &Request::Stats).unwrap() {
        Response::Stats(stats) => assert!(
            stats.protocol_errors as usize >= frame.len() - 1,
            "every truncation should count as a protocol error"
        ),
        other => panic!("stats: unexpected {other:?}"),
    }
}

#[test]
fn oversized_and_zero_length_prefixes_are_rejected_before_allocation() {
    let (_server, addr) = tiny_server();
    // A hostile 4 GiB length prefix: typed rejection (checked before the
    // payload buffer is sized — the unit suite proves no allocation), and
    // the connection closes because framing is unrecoverable.
    let mut stream = connect(&addr);
    stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
    read_error_or_close(&mut stream);
    // A zero-length frame: same contract.
    let mut stream = connect(&addr);
    stream.write_all(&0u32.to_le_bytes()).unwrap();
    read_error_or_close(&mut stream);
    assert_ping_works(&addr);
}

#[test]
fn garbage_payloads_get_typed_errors_and_the_connection_keeps_serving() {
    let (_server, addr) = tiny_server();
    let mut stream = connect(&addr);
    // A well-framed frame full of garbage: unknown tag → typed error, and
    // because the frame boundary held, the *same connection* keeps going.
    proto::write_frame(&mut stream, &[0x7F, 0xDE, 0xAD, 0xBE, 0xEF]).unwrap();
    let frame = proto::read_frame(&mut stream).expect("recv").expect("open");
    match proto::decode_response(&frame).expect("decode") {
        Response::Error {
            code: proto::ErrorCode::Protocol,
            ..
        } => {}
        other => panic!("expected protocol error, got {other:?}"),
    }
    // Still the same stream:
    assert_eq!(call(&mut stream, &Request::Ping), Ok(Response::Pong));
    // A structurally broken search (truncated payload inside a valid
    // frame): typed error, connection still usable.
    proto::write_frame(&mut stream, &[0x02, 0x00]).unwrap();
    match proto::decode_response(&proto::read_frame(&mut stream).unwrap().unwrap()).unwrap() {
        Response::Error {
            code: proto::ErrorCode::Protocol,
            ..
        } => {}
        other => panic!("expected protocol error, got {other:?}"),
    }
    assert_eq!(call(&mut stream, &Request::Ping), Ok(Response::Pong));
    assert_ping_works(&addr);
}

/// Hand-crafted search payload (scan query for term 0, k=3, τ=0.5,
/// decay=0.005) ending in the given mode selector + parameter bytes —
/// the typed `Request` can no longer express a hostile selector, so
/// these tests speak raw bytes.
fn raw_search_payload(selector: u8, params: &[u8]) -> Vec<u8> {
    let mut payload = vec![0x02u8, 0x00]; // TAG_SEARCH, QUERY_SCAN
    payload.extend_from_slice(&0u32.to_le_bytes()); // term
    payload.extend_from_slice(&3u32.to_le_bytes()); // k
    payload.extend_from_slice(&0.5f64.to_bits().to_le_bytes()); // τ
    payload.extend_from_slice(&0.005f64.to_bits().to_le_bytes()); // decay
    payload.push(selector);
    payload.extend_from_slice(params);
    payload
}

#[test]
fn unknown_mode_selector_is_a_typed_error_not_a_crash() {
    let (_server, addr) = tiny_server();
    let mut stream = connect(&addr);
    proto::write_frame(&mut stream, &raw_search_payload(99, &[])).unwrap();
    match proto::decode_response(&proto::read_frame(&mut stream).unwrap().unwrap()).unwrap() {
        Response::Error {
            code: proto::ErrorCode::Protocol,
            message,
        } => assert!(message.contains("selector"), "{message}"),
        other => panic!("expected protocol error, got {other:?}"),
    }
    assert_eq!(call(&mut stream, &Request::Ping), Ok(Response::Pong));
}

#[test]
fn out_of_range_mode_parameters_are_typed_errors_over_live_tcp() {
    let (_server, addr) = tiny_server();
    let mut stream = connect(&addr);
    // MMR (selector 4) with λ = NaN, and window (selector 5) with a
    // zero window — both must come back as typed protocol errors while
    // the connection keeps serving.
    let bad_mmr = raw_search_payload(4, &f64::NAN.to_bits().to_le_bytes());
    let mut window_params = Vec::new();
    window_params.extend_from_slice(&0u32.to_le_bytes());
    window_params.extend_from_slice(&2u32.to_le_bytes());
    window_params.extend_from_slice(&0.5f64.to_bits().to_le_bytes());
    let bad_window = raw_search_payload(5, &window_params);
    // The wire carries the one message `DiversifyMode::validate` owns.
    for (payload, why) in [
        (bad_mmr, "mmr λ must be a number in [0, 1]"),
        (bad_window, "window size must be ≥ 1"),
    ] {
        proto::write_frame(&mut stream, &payload).unwrap();
        match proto::decode_response(&proto::read_frame(&mut stream).unwrap().unwrap()).unwrap() {
            Response::Error {
                code: proto::ErrorCode::Protocol,
                message,
            } => assert!(message.ends_with(why), "{message}"),
            other => panic!("expected protocol error, got {other:?}"),
        }
    }
    assert_eq!(call(&mut stream, &Request::Ping), Ok(Response::Pong));
}

#[test]
fn out_of_range_bound_decay_is_a_typed_error_and_the_worker_survives() {
    // The framework asserts `bound_decay ∈ [0, 1)`; a client frame must
    // never reach that assert: the panic would close the connection
    // where the client is owed a typed error.
    let corpus = generate(&SynthConfig::tiny().with_seed(91).with_num_docs(120));
    let term = interesting_terms(&corpus, 1)[0];
    let rebuild = Rebuild::of(&SegmentedIndex::build(corpus.clone()));
    let engine = Arc::new(Engine::new(corpus, EngineConfig::new(2)));
    let server = Server::start(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("server start");
    let mut stream = connect(&server.addr().to_string());
    let search = |bound_decay: f64| Request::Search {
        query: Query::Scan(term),
        k: 3,
        tau: 0.5,
        bound_decay,
        mode: DiversifyMode::exact(),
    };
    for bad in [1.0, 1.5, -0.1, f64::NAN, f64::INFINITY] {
        match call(&mut stream, &search(bad)).unwrap() {
            Response::Error { .. } => {}
            other => panic!("decay {bad}: expected an error response, got {other:?}"),
        }
    }
    // The same connection, through the same single search slot, still answers.
    let options = SearchOptions::new(3).with_tau(0.5);
    match call(&mut stream, &search(0.0)).unwrap() {
        Response::Hits(hits) => {
            assert_wire_answer(&rebuild, &Query::Scan(term), &options, &hits, "after")
        }
        other => panic!("expected hits after the rejected frames, got {other:?}"),
    }
}

#[test]
fn a_huge_k_costs_what_the_corpus_holds_and_the_worker_survives() {
    // `k` is a u32 off the wire. The inner-search tables used to be sized
    // by it: one ~30-byte frame with k = u32::MAX asked for 96 GiB and
    // aborted the process. They are sized by the results seen now, so a
    // huge k is just "everything that matches".
    let num_docs = 200usize;
    let corpus = generate(&SynthConfig::tiny().with_seed(91).with_num_docs(num_docs));
    let term = interesting_terms(&corpus, 1)[0];
    let rebuild = Rebuild::of(&SegmentedIndex::build(corpus.clone()));
    let engine = Arc::new(Engine::new(corpus, EngineConfig::new(2)));
    let server = Server::start(
        Arc::clone(&engine),
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    )
    .expect("server start");
    let mut stream = connect(&server.addr().to_string());
    let query = Query::Scan(term);
    let search = |k: u32, mode: &DiversifyMode| Request::Search {
        query: Query::Scan(term),
        k,
        tau: 0.5,
        bound_decay: 0.0,
        mode: mode.clone(),
    };
    for mode in [
        DiversifyMode::exact(),
        DiversifyMode::None,
        DiversifyMode::mmr(0.7),
        DiversifyMode::window(),
        DiversifyMode::Disc,
        DiversifyMode::knn(),
    ] {
        let options = SearchOptions::new(num_docs)
            .with_tau(0.5)
            .with_mode(mode.clone());
        assert!(!rebuild.search(&query, &options).hits.is_empty());
        for k in [u32::MAX, 1_000_000] {
            let started = Instant::now();
            match call(&mut stream, &search(k, &mode)).unwrap() {
                Response::Hits(hits) => assert_wire_answer(
                    &rebuild,
                    &query,
                    &options,
                    &hits,
                    &format!("{mode:?} k={k}"),
                ),
                other => panic!("{mode:?} k={k}: expected hits, got {other:?}"),
            }
            assert!(
                started.elapsed() < Duration::from_secs(1),
                "{mode:?} k={k} took {:?}",
                started.elapsed()
            );
        }
    }
    // The same connection, through the same single search slot, still answers.
    let options = SearchOptions::new(3).with_tau(0.5);
    match call(&mut stream, &search(3, &DiversifyMode::exact())).unwrap() {
        Response::Hits(hits) => assert_wire_answer(&rebuild, &query, &options, &hits, "after"),
        other => panic!("expected hits after the huge-k frames, got {other:?}"),
    }
}

#[test]
fn reload_over_tcp_publishes_a_fresh_generation_and_never_answers_from_the_old_cache() {
    let corpus = generate(&SynthConfig::tiny().with_seed(91).with_num_docs(120));
    let term = interesting_terms(&corpus, 1)[0];
    let query = Query::Scan(term);
    let options = SearchOptions::new(5).with_tau(0.5);
    // The state the snapshot saves, built without going through one: the
    // query's first hit is deleted, so a load that lost the tombstone
    // answers differently.
    let mut model = SegmentedIndex::build(corpus.clone());
    let first = model.search_scan(term, &options).unwrap().hits[0].doc;
    model.delete_docs(&[first]);
    let engine = Arc::new(Engine::new(corpus, EngineConfig::new(2)));
    let search = Request::Search {
        query: query.clone(),
        k: 5,
        tau: 0.5,
        bound_decay: 0.0,
        mode: DiversifyMode::exact(),
    };

    // Save at a generation past 0, then delete the query's top hit so
    // the live state runs ahead of the snapshot and answers differently.
    engine.delete_docs(&[first]);
    let dir = temp_path("reload.snapshot");
    engine.save_snapshot(&dir).expect("saving the snapshot");
    let saved = engine.generation();
    let top = engine.search(&query, &options).unwrap().hits[0].doc;
    assert_eq!(engine.delete_docs(&[top]), 1);
    let live = engine.generation();

    let server = Server::start(Arc::clone(&engine), "127.0.0.1:0", ServerConfig::default())
        .expect("server start");
    let mut stream = connect(&server.addr().to_string());
    let served = |stream: &mut TcpStream| match call(stream, &search).unwrap() {
        Response::Hits(hits) => hits,
        other => panic!("expected hits, got {other:?}"),
    };
    // Twice, so the pre-reload answer is in the cache.
    for _ in 0..2 {
        let hits = served(&mut stream);
        assert_eq!(hits.generation, live);
        assert!(hits.hits.iter().all(|&(doc, _)| doc != top));
    }

    let path = dir.to_str().expect("UTF-8 temp path").to_owned();
    let generation = match call(&mut stream, &Request::Reload { path }).unwrap() {
        Response::Reloaded { generation } => generation,
        other => panic!("expected a reload answer, got {other:?}"),
    };
    assert_eq!(generation, saved.max(live + 1));
    assert_eq!(engine.generation(), generation);

    // The first answer after the swap is computed on the loaded state,
    // not served from the cache, and is what the saved state must answer.
    let cache_hits = engine.stats().cache_hits;
    let hits = served(&mut stream);
    assert_eq!(engine.stats().cache_hits, cache_hits);
    assert_eq!(hits.generation, generation);
    assert_wire_answer(&Rebuild::of(&model), &query, &options, &hits, "reloaded");
    assert!(hits.hits.iter().any(|&(doc, _)| doc == top));

    // A snapshot that is not there is a typed search error; the serving
    // state and the connection carry on.
    let missing = Request::Reload {
        path: "/nonexistent/divtopk.snapshot".to_owned(),
    };
    match call(&mut stream, &missing).unwrap() {
        Response::Error {
            code: proto::ErrorCode::Search,
            ..
        } => {}
        other => panic!("expected a search error, got {other:?}"),
    }
    assert_eq!(engine.generation(), generation);
    assert_eq!(served(&mut stream).generation, generation);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn connection_churn_leaves_nothing_behind() {
    // 300 connections come and go; the acceptor drops each finished
    // connection's thread handle as it goes, so the server keeps serving
    // and shutdown has only live threads to join.
    let (mut server, addr) = tiny_server();
    for _ in 0..300 {
        assert_ping_works(&addr);
    }
    assert_ping_works(&addr);
    let started = Instant::now();
    server.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown took {:?}",
        started.elapsed()
    );
}
