//! The TCP serving layer: thread-per-connection framing, an **admission
//! gate** with typed backpressure around the search call, per-endpoint
//! latency histograms, and graceful snapshot-swap reloads (DESIGN.md §8).
//!
//! ## Admission and backpressure
//!
//! A search runs on the connection thread that decoded it. Search is
//! the only expensive endpoint, so it is the only gated one: the thread
//! enters the gate, runs the engine call while holding a permit, and
//! releases the permit when it drops. At most `workers` searches
//! execute at once; at most `queue_capacity` more wait, and are admitted
//! in arrival order; anything beyond that is answered **immediately**
//! with [`Response::Overloaded`] — the client gets a typed signal to
//! back off, never a hang, and the server's concurrent search load is
//! exactly capped at `workers + queue_capacity` regardless of how many
//! connections pile on. Ping/stats/reload never touch the gate (they
//! are cheap and must stay responsive *especially* under search
//! overload — that is when an operator needs the stats endpoint most).
//!
//! ## Failure containment
//!
//! A malformed frame yields a typed error response; if the failure broke
//! framing (truncation, oversized prefix, transport error) the
//! connection is closed after the response, otherwise it keeps serving.
//! Either way the *server* keeps serving — a hostile or buggy client can
//! never take down the process (`tests/serving.rs` drives this). A
//! search that panics unwinds its own connection thread only: the
//! permit and the connection's socket are both released by drop guards,
//! so the peer sees a close and the server keeps its full capacity.

use crate::engine::Engine;
use crate::histogram::LatencyHistogram;
use crate::proto::{self, ErrorCode, ProtoError, Request, Response, StatsReport, WireHits};
use divtopk_core::sync::{lock_unpoisoned, wait_unpoisoned};
use divtopk_text::search::SearchOptions;
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Server deployment configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Searches that may execute at once; 0 = one per available CPU.
    pub workers: usize,
    /// Searches that may wait for one of those slots; one more is
    /// rejected with [`Response::Overloaded`]. Must be ≥ 1.
    pub queue_capacity: usize,
}

impl Default for ServerConfig {
    /// Auto-sized workers, room for 64 waiting searches.
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 0,
            queue_capacity: 64,
        }
    }
}

/// Serving counters shared with the stats endpoint.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    /// Frames accepted across all endpoints.
    pub requests: AtomicU64,
    /// Search requests rejected by backpressure.
    pub overloaded: AtomicU64,
    /// Frames that failed to decode.
    pub protocol_errors: AtomicU64,
    /// Search latency (decode → answer, gate wait included), nanoseconds.
    pub search_latency: LatencyHistogram,
}

/// The admission gate: at most `workers` callers hold a [`Permit`], at
/// most `queue_capacity` more wait for one, in arrival order.
#[derive(Debug)]
struct Gate {
    state: Mutex<GateState>,
    freed: Condvar,
    workers: usize,
    queue_capacity: usize,
}

#[derive(Debug, Default)]
struct GateState {
    /// Permits out right now.
    running: usize,
    /// The ticket the next waiter takes.
    next_ticket: u64,
    /// The ticket at the head of the line; `next_ticket - now_serving`
    /// callers are waiting.
    now_serving: u64,
}

impl Gate {
    fn new(workers: usize, queue_capacity: usize) -> Gate {
        Gate {
            state: Mutex::new(GateState::default()),
            freed: Condvar::new(),
            workers,
            queue_capacity,
        }
    }

    /// A permit — at once if a slot is free and nobody is waiting, after
    /// waiting in line if the line has room — or `None`, without
    /// blocking, if it does not.
    fn enter(&self) -> Option<Permit<'_>> {
        let mut state = lock_unpoisoned(&self.state);
        let waiting = state.next_ticket - state.now_serving;
        if waiting == 0 && state.running < self.workers {
            state.running += 1;
            return Some(Permit { gate: self });
        }
        if waiting >= self.queue_capacity as u64 {
            return None;
        }
        let mine = state.next_ticket;
        state.next_ticket += 1;
        while state.now_serving != mine || state.running >= self.workers {
            state = wait_unpoisoned(&self.freed, state);
        }
        state.now_serving += 1;
        state.running += 1;
        drop(state);
        // The waiter behind this one may have been woken while it was
        // not yet at the head and gone back to sleep; if a second slot
        // is free it must hear that it now is.
        self.freed.notify_all();
        Some(Permit { gate: self })
    }
}

/// One of the gate's `workers` slots, given back on drop — so also when
/// the search it covers unwinds.
struct Permit<'a> {
    gate: &'a Gate,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        lock_unpoisoned(&self.gate.state).running -= 1;
        // Every waiter, not one: only the head of the line may take the
        // slot, and a single wakeup can land on somebody behind it.
        self.gate.freed.notify_all();
    }
}

/// A connection's exit path, run on every way out of its thread —
/// unwinding included: the tracked clone leaves `connections` and the
/// socket is shut down, so the peer sees FIN now rather than when the
/// last clone of the fd happens to drop.
struct ConnectionGuard<'a> {
    connections: &'a Mutex<Vec<(u64, TcpStream)>>,
    id: u64,
}

impl Drop for ConnectionGuard<'_> {
    fn drop(&mut self) {
        let mut connections = lock_unpoisoned(self.connections);
        // Absent only when `Server::shutdown` drained the list, and then
        // it shut the socket down too.
        if let Some(at) = connections.iter().position(|(id, _)| *id == self.id) {
            let (_, stream) = connections.swap_remove(at);
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

struct ServerShared {
    engine: Arc<Engine>,
    metrics: ServerMetrics,
    gate: Gate,
    shutdown: AtomicBool,
    /// One clone of every live connection's stream, keyed by connection
    /// id, so shutdown can unblock their reads.
    connections: Mutex<Vec<(u64, TcpStream)>>,
}

impl ServerShared {
    fn stats_report(&self) -> StatsReport {
        let engine = self.engine.stats();
        let corpus = self.engine.corpus();
        let hist = &self.metrics.search_latency;
        StatsReport {
            generation: engine.generation,
            segments: engine.segments as u32,
            configured_shards: engine.configured_shards as u32,
            layout_from_snapshot: engine.layout_from_snapshot,
            num_docs: corpus.num_docs() as u64,
            num_terms: corpus.num_terms() as u32,
            queries: engine.queries,
            rejected: engine.rejected,
            cache_hits: engine.cache_hits,
            cache_misses: engine.cache_misses,
            tombstones: engine.tombstones as u64,
            // RELAXED: diagnostics-only counter snapshot — each counter
            // is monotonic and a torn multi-counter view is fine.
            requests: self.metrics.requests.load(Ordering::Relaxed),
            overloaded: self.metrics.overloaded.load(Ordering::Relaxed),
            protocol_errors: self.metrics.protocol_errors.load(Ordering::Relaxed),
            search_count: hist.count(),
            search_p50_ns: hist.quantile_ns(0.50),
            search_p95_ns: hist.quantile_ns(0.95),
            search_p99_ns: hist.quantile_ns(0.99),
            search_mean_ns: hist.mean_ns(),
        }
    }

    /// Serves one connection until close, shutdown, or a framing break.
    fn serve_connection(&self, id: u64, stream: TcpStream) {
        let _guard = ConnectionGuard {
            connections: &self.connections,
            id,
        };
        let Ok(mut writer) = stream.try_clone() else {
            return;
        };
        self.serve_frames(&mut writer, BufReader::new(stream));
    }

    fn serve_frames(&self, writer: &mut TcpStream, mut reader: BufReader<TcpStream>) {
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            let frame = match proto::read_frame(&mut reader) {
                Ok(Some(frame)) => frame,
                Ok(None) => return, // clean close
                Err(error) => {
                    // RELAXED: monotonic metrics counter (see stats_report).
                    self.metrics.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    // Best-effort typed report; the stream may be gone.
                    let _ = proto::write_frame(
                        writer,
                        &proto::encode_response(&Response::Error {
                            code: ErrorCode::Protocol,
                            message: error.to_string(),
                        }),
                    );
                    // Framing is lost (truncation/oversize/transport):
                    // nothing after this point can be parsed — close.
                    return;
                }
            };
            let response = match proto::decode_request(&frame) {
                Ok(request) => {
                    // RELAXED: monotonic metrics counter (see stats_report).
                    self.metrics.requests.fetch_add(1, Ordering::Relaxed);
                    self.handle(request)
                }
                Err(error) => {
                    // The frame boundary held; only this message was bad.
                    // Report and keep serving the connection.
                    // RELAXED: monotonic metrics counter (see stats_report).
                    self.metrics.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    Response::Error {
                        code: ErrorCode::Protocol,
                        message: error.to_string(),
                    }
                }
            };
            if let Err(error) = proto::write_frame(writer, &proto::encode_response(&response)) {
                if !matches!(error, ProtoError::Io(_)) {
                    // LINT-ALLOW(panic): encode_response produced the frame,
                    // so every non-I/O write error (oversize, truncation) is
                    // impossible by construction; reaching this arm means the
                    // framing layer itself is broken — a bug, not a state.
                    unreachable!("frame writes only fail on I/O");
                }
                return;
            }
        }
    }

    fn handle(&self, request: Request) -> Response {
        match request {
            Request::Ping => Response::Pong,
            Request::Stats => Response::Stats(self.stats_report()),
            Request::Reload { path } => match self.engine.reload_snapshot(&path) {
                Ok(generation) => Response::Reloaded { generation },
                Err(error) => Response::Error {
                    code: ErrorCode::Search,
                    message: error.to_string(),
                },
            },
            Request::Search {
                query,
                k,
                tau,
                bound_decay,
                mode,
            } => {
                let started = Instant::now();
                // The decode layer already rejected unknown selectors and
                // out-of-range mode parameters; engine admission
                // re-validates (`SearchOptions::validate`) so a mode built
                // programmatically gets the same checks as one off the
                // wire.
                let options = SearchOptions::new(k as usize)
                    .with_tau(tau)
                    .with_bound_decay(bound_decay)
                    .with_mode(mode);
                // The flag is read beside the gate, not under its lock: a
                // search that slips past it is one more admitted search
                // for `Server::shutdown` to wait out.
                let permit = if self.shutdown.load(Ordering::Acquire) {
                    None
                } else {
                    self.gate.enter()
                };
                let Some(permit) = permit else {
                    // RELAXED: monotonic metrics counter (see stats_report).
                    self.metrics.overloaded.fetch_add(1, Ordering::Relaxed);
                    return Response::Overloaded {
                        queue_capacity: self.gate.queue_capacity as u32,
                    };
                };
                let result = self.engine.search_pinned(&query, &options);
                drop(permit);
                self.metrics
                    .search_latency
                    .record(started.elapsed().as_nanos() as u64);
                match result {
                    Ok((out, generation)) => Response::Hits(WireHits {
                        generation,
                        hits: out.hits.iter().map(|h| (h.doc, h.score.get())).collect(),
                        total_score: out.total_score.get(),
                        results_generated: out.metrics.results_generated,
                        early_stopped: out.metrics.early_stopped,
                    }),
                    Err(error) => Response::Error {
                        code: ErrorCode::Search,
                        message: error.to_string(),
                    },
                }
            }
        }
    }
}

/// A running server. Dropping the handle shuts it down and joins every
/// thread; [`Server::shutdown`] does the same explicitly.
#[derive(Debug)]
pub struct Server {
    shared: Arc<ServerShared>,
    addr: SocketAddr,
    /// The acceptor, which in turn joins the connection threads.
    acceptor: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ServerShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerShared")
            .field("gate", &self.gate)
            .finish()
    }
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// acceptor, which starts one thread per connection, around `engine`.
    pub fn start(engine: Arc<Engine>, addr: &str, config: ServerConfig) -> std::io::Result<Server> {
        assert!(config.queue_capacity >= 1, "admission queue needs depth");
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            config.workers
        };
        let shared = Arc::new(ServerShared {
            engine,
            metrics: ServerMetrics::default(),
            gate: Gate::new(workers, config.queue_capacity),
            shutdown: AtomicBool::new(false),
            connections: Mutex::new(Vec::new()),
        });
        let acceptor_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("divtopk-accept".to_owned())
            .spawn(move || {
                let mut connection_threads: Vec<JoinHandle<()>> = Vec::new();
                for (id, stream) in (0u64..).zip(listener.incoming()) {
                    if acceptor_shared.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    // The tracked clone is what lets shutdown unblock
                    // this connection's read; without it the thread
                    // could block forever, so refuse to serve.
                    let Ok(tracked) = stream.try_clone() else {
                        continue;
                    };
                    lock_unpoisoned(&acceptor_shared.connections).push((id, tracked));
                    let conn_shared = Arc::clone(&acceptor_shared);
                    // Finished connections need no join: drop their
                    // handles so a long-lived server holds only the
                    // live ones.
                    connection_threads.retain(|t| !t.is_finished());
                    connection_threads.push(
                        std::thread::Builder::new()
                            .name("divtopk-conn".to_owned())
                            .spawn(move || conn_shared.serve_connection(id, stream))
                            // LINT-ALLOW(panic): accept-time resource
                            // exhaustion is a fatal configuration problem,
                            // not a request error this connection could
                            // report.
                            .expect("spawn connection thread"),
                    );
                }
                for thread in connection_threads {
                    let _ = thread.join();
                }
            })
            // LINT-ALLOW(panic): the acceptor spawns once at server
            // construction, before any request is accepted — fail fast on
            // OS resource exhaustion.
            .expect("spawn acceptor");
        Ok(Server {
            shared,
            addr,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (resolve the ephemeral port here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live serving counters.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.shared.metrics
    }

    /// Graceful shutdown: stop admitting, unblock every connection's
    /// read, join all threads. Searches already in the gate — executing
    /// or waiting their turn — finish; clients see their connections
    /// close. Idempotent.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        for (_, stream) in lock_unpoisoned(&self.shared.connections).drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        // Unblock the acceptor with a wake-up connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineConfig, Query};
    use crate::proto::call;
    use divtopk_text::mode::DiversifyMode;
    use divtopk_text::synth::{SynthConfig, generate};
    use std::panic::{AssertUnwindSafe, catch_unwind};
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    fn test_server() -> Server {
        let corpus = generate(&SynthConfig {
            num_docs: 120,
            ..SynthConfig::tiny()
        });
        let engine = Arc::new(Engine::new(corpus, EngineConfig::new(2).with_threads(1)));
        Server::start(
            engine,
            "127.0.0.1:0",
            ServerConfig {
                workers: 2,
                queue_capacity: 8,
            },
        )
        .unwrap()
    }

    fn scan(term: u32) -> Request {
        Request::Search {
            query: Query::Scan(term),
            k: 3,
            tau: 0.5,
            bound_decay: 0.005,
            mode: DiversifyMode::exact(),
        }
    }

    /// Spins until `done` holds; a gate that never gets there fails the
    /// test instead of hanging it.
    fn wait_until(done: impl Fn() -> bool) {
        let started = Instant::now();
        while !done() {
            assert!(started.elapsed() < Duration::from_secs(10), "timed out");
            std::thread::yield_now();
        }
    }

    fn waiting(gate: &Gate) -> u64 {
        let state = lock_unpoisoned(&gate.state);
        state.next_ticket - state.now_serving
    }

    #[test]
    fn ping_search_stats_roundtrip() {
        let server = test_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        assert_eq!(call(&mut stream, &Request::Ping), Ok(Response::Pong));
        let response = call(&mut stream, &scan(0)).unwrap();
        let Response::Hits(hits) = response else {
            panic!("expected hits, got {response:?}");
        };
        assert!(hits.hits.len() <= 3);
        let Ok(Response::Stats(stats)) = call(&mut stream, &Request::Stats) else {
            panic!("expected stats");
        };
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.search_count, 1);
        assert!(stats.num_terms > 0);
    }

    #[test]
    fn search_errors_are_typed_not_fatal() {
        let server = test_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let response = call(&mut stream, &scan(u32::MAX));
        assert!(matches!(
            response,
            Ok(Response::Error {
                code: ErrorCode::Search,
                ..
            })
        ));
        // The connection keeps serving.
        assert_eq!(call(&mut stream, &Request::Ping), Ok(Response::Pong));
    }

    #[test]
    fn shutdown_joins_cleanly_with_open_connections() {
        let mut server = test_server();
        let stream = TcpStream::connect(server.addr()).unwrap();
        server.shutdown();
        drop(stream);
        server.shutdown(); // idempotent

        // With a search parked in the gate: it was admitted, so shutdown
        // waits for it to run rather than dropping it.
        let mut server = test_server();
        let shared = Arc::clone(&server.shared);
        let held: Vec<Permit<'_>> = (0..2).map(|_| shared.gate.enter().unwrap()).collect();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        proto::write_frame(&mut stream, &proto::encode_request(&scan(0)).unwrap()).unwrap();
        wait_until(|| waiting(&shared.gate) == 1);
        let started = Instant::now();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(50));
                drop(held);
            });
            server.shutdown();
        });
        assert!(started.elapsed() < Duration::from_secs(5));
        assert_eq!(shared.metrics.search_latency.count(), 1);
        assert_eq!(lock_unpoisoned(&shared.gate.state).running, 0);
    }

    #[test]
    fn gate_never_lets_more_than_workers_inside() {
        // Properties of the gate, not of the host's scheduling: every
        // attempt is answered one way or the other, no more than
        // `workers` are ever inside, and a thread that keeps asking gets
        // in — a refused `enter` returns rather than blocks, so the retry
        // loop ends once the others let go.
        let gate = Gate::new(2, 3);
        let inside = AtomicUsize::new(0);
        let (admitted, refused) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let visit = || {
            assert!(inside.fetch_add(1, Ordering::SeqCst) < 2);
            std::thread::yield_now();
            inside.fetch_sub(1, Ordering::SeqCst);
        };
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let mut mine = 0;
                    for _ in 0..500 {
                        match gate.enter() {
                            Some(_permit) => {
                                mine += 1;
                                visit();
                            }
                            None => {
                                refused.fetch_add(1, Ordering::SeqCst);
                            }
                        }
                    }
                    admitted.fetch_add(mine, Ordering::SeqCst);
                    while mine == 0 {
                        match gate.enter() {
                            Some(_permit) => {
                                mine += 1;
                                visit();
                            }
                            None => std::thread::yield_now(),
                        }
                    }
                });
            }
        });
        assert_eq!(
            admitted.load(Ordering::SeqCst) + refused.load(Ordering::SeqCst),
            8 * 500
        );
        assert_eq!(lock_unpoisoned(&gate.state).running, 0);
        assert_eq!(waiting(&gate), 0);
    }

    #[test]
    fn gate_holds_queue_capacity_waiters_in_ticket_order_and_refuses_the_next() {
        let gate = Gate::new(1, 3);
        let order = Mutex::new(Vec::new());
        let held = gate.enter().expect("an idle gate admits");
        std::thread::scope(|scope| {
            for i in 0..3 {
                let (gate, order) = (&gate, &order);
                scope.spawn(move || {
                    let _permit = gate.enter().expect("the line has room");
                    lock_unpoisoned(order).push(i);
                });
                // Parked before the next one starts, so ticket order is
                // spawn order.
                wait_until(|| waiting(gate) == i + 1);
            }
            // The line is full: the next caller is refused, and this
            // thread — the only one that could free a slot — got the
            // refusal, so `enter` did not block for it.
            assert!(gate.enter().is_none());
            assert!(lock_unpoisoned(&order).is_empty());
            drop(held);
        });
        assert_eq!(*lock_unpoisoned(&order), vec![0, 1, 2]);
    }

    #[test]
    fn a_panic_inside_a_permit_gives_the_slot_back() {
        let gate = Gate::new(2, 2);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        let _permit = gate.enter().expect("2 + 2 holds four callers");
                        panic!("search blew up");
                    }));
                    assert!(outcome.is_err());
                });
            }
        });
        assert_eq!(lock_unpoisoned(&gate.state).running, 0);
        assert_eq!(waiting(&gate), 0);
        let both: Vec<_> = (0..2).map(|_| gate.enter()).collect();
        assert!(both.iter().all(Option::is_some), "full capacity is back");
    }

    #[test]
    fn a_panicking_connection_thread_closes_its_socket_and_leaves_the_list() {
        use std::io::Read;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let connections = Mutex::new(vec![(7, stream.try_clone().unwrap())]);
        std::thread::scope(|scope| {
            let served = scope.spawn(|| {
                let _guard = ConnectionGuard {
                    connections: &connections,
                    id: 7,
                };
                let _stream = stream;
                panic!("search blew up");
            });
            assert!(served.join().is_err());
        });
        assert_eq!(peer.read(&mut [0u8; 1]).unwrap(), 0, "peer must see EOF");
        assert!(lock_unpoisoned(&connections).is_empty());
    }
}
