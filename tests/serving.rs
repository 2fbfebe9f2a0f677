//! End-to-end tests for the serving binary path: the TCP server under
//! concurrent clients with a live writer (satellite: stress), and the
//! wire protocol under hostile bytes (satellite: robustness).
//!
//! * **Stress**: N client threads fire searches at a running server while
//!   a writer thread adds and deletes documents. Every `Hits` response
//!   must equal — content-for-content, score bits included — the answer
//!   the snapshot generation *it reports* gives for that query (no torn
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
//!   it is computed afresh and equals a fresh load's; a missing snapshot
//!   is a typed error that changes nothing.

use divtopk::ExactAlgorithm;
use divtopk::core::rng::Pcg;
use divtopk::engine::prelude::*;
use divtopk::engine::proto::{self, Request, Response, call};
use divtopk::text::prelude::*;
use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

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

/// Terms with mid-sized posting lists in the base corpus.
fn interesting_terms(corpus: &Corpus, count: usize) -> Vec<TermId> {
    let index = InvertedIndex::build(corpus);
    let mut terms: Vec<TermId> = (0..corpus.num_terms() as TermId)
        .filter(|&t| (6..=60).contains(&index.postings(t).len()))
        .collect();
    terms.sort_by_key(|&t| std::cmp::Reverse(index.postings(t).len()));
    terms.truncate(count);
    terms
}

// ------------------------------------------------------------------ stress

/// The comparable content of a served answer: doc ids with score bits,
/// plus the total-score bits — bit-exact equality, no float tolerance.
type AnswerKey = (Vec<(u32, u64)>, u64);

fn key_of_output(out: &SearchOutput) -> AnswerKey {
    (
        out.hits
            .iter()
            .map(|h| (h.doc, h.score.get().to_bits()))
            .collect(),
        out.total_score.get().to_bits(),
    )
}

fn key_of_wire(hits: &divtopk::engine::proto::WireHits) -> AnswerKey {
    (
        hits.hits
            .iter()
            .map(|&(doc, score)| (doc, score.to_bits()))
            .collect(),
        hits.total_score.to_bits(),
    )
}

/// The scripted mutation log the writer replays: deterministic, so a twin
/// engine can precompute every generation's reference answers.
struct MutationScript {
    batches: Vec<(Vec<Document>, Vec<DocId>)>,
}

fn build_script(base_docs: usize, donor: &Corpus, rounds: usize) -> MutationScript {
    let mut rng = Pcg::new(0x57726974);
    let mut next = base_docs as DocId;
    let batches = (0..rounds)
        .map(|_| {
            let adds: Vec<Document> = (next..next + 6).map(|d| donor.doc(d).clone()).collect();
            next += 6;
            let dels: Vec<DocId> = (0..3).map(|_| rng.below(next)).collect();
            (adds, dels)
        })
        .collect();
    MutationScript { batches }
}

#[test]
fn concurrent_clients_with_live_writer_see_single_generation_answers() {
    let base_docs = 220usize;
    let rounds = 4usize;
    let donor = generate(
        &SynthConfig {
            near_dup_prob: 0.35,
            ..SynthConfig::tiny().with_seed(71)
        }
        .with_num_docs(base_docs + rounds * 6),
    );
    let mut builder = CorpusBuilder::with_synthetic_vocab(donor.num_terms());
    for d in 0..base_docs as DocId {
        builder.add_document(donor.doc(d).clone());
    }
    let base = builder.build();
    let terms = interesting_terms(&base, 3);
    assert!(terms.len() >= 2, "base corpus has too few usable terms");
    let script = build_script(base_docs, &donor, rounds);

    // The wire query set and the exact options the server will build.
    let (k, tau, bound_decay) = (5u32, 0.5f64, 0.005f64);
    let options = SearchOptions::new(k as usize)
        .with_tau(tau)
        .with_bound_decay(bound_decay)
        .with_mode(DiversifyMode::Exact(ExactAlgorithm::Cut));
    let queries: Vec<Query> = terms
        .iter()
        .map(|&t| Query::Scan(t))
        .chain([Query::Keywords(KeywordQuery {
            terms: vec![terms[0], terms[1]],
        })])
        .collect();

    // Twin engine: replay the script generation by generation, recording
    // each query's reference answer at every snapshot the server can
    // possibly serve (each add and each delete bumps the generation).
    let config = EngineConfig::new(2).with_cache_capacity(0);
    let reference = Engine::new(base.clone(), config.clone());
    let mut by_generation: Vec<HashMap<usize, AnswerKey>> = Vec::new();
    let mut record = |engine: &Engine| {
        let answers = queries
            .iter()
            .enumerate()
            .map(|(i, q)| (i, key_of_output(&engine.search(q, &options).unwrap())))
            .collect();
        by_generation.push(answers);
    };
    record(&reference);
    for (adds, dels) in &script.batches {
        reference.add_docs(adds.clone());
        record(&reference);
        reference.delete_docs(dels);
        record(&reference);
    }
    // Every scripted step bumped the generation, so the vector index *is*
    // the generation number a response reports.
    assert_eq!(by_generation.len(), 1 + 2 * rounds);
    assert_eq!(reference.generation(), 2 * rounds as u64);

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

    let unmatched = Arc::new(AtomicU64::new(0));
    let served = Arc::new(AtomicU64::new(0));
    let clients: Vec<_> = (0..4u64)
        .map(|c| {
            let addr = addr.clone();
            let queries = queries.clone();
            let by_generation = by_generation.clone();
            let unmatched = Arc::clone(&unmatched);
            let served = Arc::clone(&served);
            std::thread::spawn(move || {
                let mut stream = connect(&addr);
                for round in 0..30u64 {
                    let which = ((c + round) % queries.len() as u64) as usize;
                    let request = Request::Search {
                        query: queries[which].clone(),
                        k,
                        tau,
                        bound_decay,
                        mode: DiversifyMode::exact(),
                    };
                    match call(&mut stream, &request).unwrap() {
                        Response::Hits(hits) => {
                            served.fetch_add(1, Ordering::Relaxed);
                            let got = key_of_wire(&hits);
                            // The answer must be exactly the answer of
                            // the generation it claims — never a mix, and
                            // never another generation's under this label.
                            let claimed = by_generation.get(hits.generation as usize);
                            if claimed.is_none_or(|g| g[&which] != got) {
                                unmatched.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Response::Overloaded { .. } => {} // typed, legal
                        other => panic!("client {c}: unexpected {other:?}"),
                    }
                }
            })
        })
        .collect();

    // The writer races the clients through the same scripted mutations.
    let writer = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            for (adds, dels) in script.batches {
                std::thread::sleep(Duration::from_millis(5));
                engine.add_docs(adds);
                std::thread::sleep(Duration::from_millis(5));
                engine.delete_docs(&dels);
            }
        })
    };
    for client in clients {
        client.join().expect("client thread");
    }
    writer.join().expect("writer thread");
    assert_eq!(
        unmatched.load(Ordering::Relaxed),
        0,
        "a response differed from the reference answer of the generation it reported"
    );
    assert!(served.load(Ordering::Relaxed) > 0, "nothing was served");
    // The server ended on the final generation: a fresh query now matches
    // the final reference exactly.
    let mut stream = connect(&addr);
    match call(
        &mut stream,
        &Request::Search {
            query: queries[0].clone(),
            k,
            tau,
            bound_decay,
            mode: DiversifyMode::exact(),
        },
    )
    .unwrap()
    {
        Response::Hits(hits) => {
            assert_eq!(
                key_of_wire(&hits),
                by_generation.last().unwrap()[&0],
                "final answer diverged from the final generation"
            );
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
    let want = engine
        .search(&Query::Scan(term), &SearchOptions::new(3).with_tau(0.5))
        .unwrap();
    match call(&mut stream, &search(0.0)).unwrap() {
        Response::Hits(hits) => assert_eq!(key_of_wire(&hits), key_of_output(&want)),
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
        let want = key_of_output(&engine.search(&Query::Scan(term), &options).unwrap());
        assert!(!want.0.is_empty());
        for k in [u32::MAX, 1_000_000] {
            let started = Instant::now();
            match call(&mut stream, &search(k, &mode)).unwrap() {
                Response::Hits(hits) => assert_eq!(key_of_wire(&hits), want, "{mode:?} k={k}"),
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
    let want = engine
        .search(&Query::Scan(term), &SearchOptions::new(3).with_tau(0.5))
        .unwrap();
    match call(&mut stream, &search(3, &DiversifyMode::exact())).unwrap() {
        Response::Hits(hits) => assert_eq!(key_of_wire(&hits), key_of_output(&want)),
        other => panic!("expected hits after the huge-k frames, got {other:?}"),
    }
}

#[test]
fn reload_over_tcp_publishes_a_fresh_generation_and_never_answers_from_the_old_cache() {
    let corpus = generate(&SynthConfig::tiny().with_seed(91).with_num_docs(120));
    let term = interesting_terms(&corpus, 1)[0];
    let last = corpus.num_docs() as DocId - 1;
    let engine = Arc::new(Engine::new(corpus, EngineConfig::new(2)));
    let query = Query::Scan(term);
    let options = SearchOptions::new(5).with_tau(0.5);
    let search = Request::Search {
        query: query.clone(),
        k: 5,
        tau: 0.5,
        bound_decay: 0.0,
        mode: DiversifyMode::exact(),
    };

    // Save at a generation past 0, then delete the query's top hit so
    // the live state runs ahead of the snapshot and answers differently.
    engine.delete_docs(&[last]);
    let dir = std::env::temp_dir().join(format!("divtopk-{}-reload.snapshot", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
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
    // not served from the cache, and equals a fresh load's.
    let cache_hits = engine.stats().cache_hits;
    let hits = served(&mut stream);
    assert_eq!(engine.stats().cache_hits, cache_hits);
    assert_eq!(hits.generation, generation);
    let fresh = Engine::load_snapshot(&dir, &EngineConfig::new(2)).expect("loading the snapshot");
    assert_eq!(
        key_of_wire(&hits),
        key_of_output(&fresh.search(&query, &options).unwrap())
    );
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
