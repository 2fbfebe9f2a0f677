//! The TCP serving layer: thread-per-connection framing, a bounded
//! admission queue with **typed backpressure** in front of a fixed search
//! worker pool, per-endpoint latency histograms, and graceful
//! snapshot-swap reloads (DESIGN.md §8).
//!
//! ## Admission and backpressure
//!
//! Search is the only expensive endpoint, so it is the only queued one:
//! a connection thread decodes the frame and `try_push`es a job onto a
//! bounded queue drained by `workers` dedicated threads. A full queue is
//! answered **immediately** with [`Response::Overloaded`] — the client
//! gets a typed signal to back off, never a hang, and the server's
//! concurrent search load is hard-capped at `workers + queue_capacity`
//! regardless of how many connections pile on. Ping/stats/reload are
//! answered inline on the connection thread (they are cheap and must
//! stay responsive *especially* under search overload — that is when an
//! operator needs the stats endpoint most).
//!
//! ## Failure containment
//!
//! A malformed frame yields a typed error response; if the failure broke
//! framing (truncation, oversized prefix, transport error) the
//! connection is closed after the response, otherwise it keeps serving.
//! Either way the *server* keeps serving — a hostile or buggy client can
//! never take down the process (`tests/serving.rs` drives this).

use crate::engine::{Engine, Query};
use crate::histogram::LatencyHistogram;
use crate::proto::{self, ErrorCode, ProtoError, Request, Response, StatsReport, WireHits};
use divtopk_core::sync::{lock_unpoisoned, wait_unpoisoned};
use divtopk_text::search::{SearchOptions, SearchOutput};
use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Server deployment configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Dedicated search worker threads; 0 = one per available CPU.
    pub workers: usize,
    /// Bounded admission-queue depth; a full queue rejects with
    /// [`Response::Overloaded`]. Must be ≥ 1.
    pub queue_capacity: usize,
}

impl Default for ServerConfig {
    /// Auto-sized workers, a 64-deep admission queue.
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
    /// Connections accepted over the server's lifetime.
    pub connections: AtomicU64,
    /// Search latency (decode → response encoded), nanoseconds.
    pub search_latency: LatencyHistogram,
}

struct SearchJob {
    query: Query,
    options: SearchOptions,
    started: Instant,
    slot: Arc<ResponseSlot>,
}

#[derive(Default)]
struct ResponseSlot {
    result: Mutex<Option<Result<(SearchOutput, u64), String>>>,
    ready: Condvar,
}

impl ResponseSlot {
    fn fill(&self, value: Result<(SearchOutput, u64), String>) {
        *lock_unpoisoned(&self.result) = Some(value);
        self.ready.notify_all();
    }

    fn wait(&self) -> Result<(SearchOutput, u64), String> {
        let mut guard = lock_unpoisoned(&self.result);
        loop {
            if let Some(value) = guard.take() {
                return value;
            }
            guard = wait_unpoisoned(&self.ready, guard);
        }
    }
}

struct ServerShared {
    engine: Arc<Engine>,
    metrics: ServerMetrics,
    queue: Mutex<VecDeque<SearchJob>>,
    queue_capacity: usize,
    queue_ready: Condvar,
    shutdown: AtomicBool,
    /// Live connection streams, so shutdown can unblock their reads.
    connections: Mutex<Vec<TcpStream>>,
}

impl ServerShared {
    /// Bounded, non-blocking admission: `Err` is the backpressure signal.
    /// The rejected job rides back in the `Err` so the connection thread
    /// can answer `Overloaded` on its stream — hence the large variant.
    #[allow(clippy::result_large_err)]
    fn try_enqueue(&self, job: SearchJob) -> Result<(), SearchJob> {
        let mut queue = lock_unpoisoned(&self.queue);
        if self.shutdown.load(Ordering::Acquire) || queue.len() >= self.queue_capacity {
            return Err(job);
        }
        queue.push_back(job);
        drop(queue);
        self.queue_ready.notify_one();
        Ok(())
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut queue = lock_unpoisoned(&self.queue);
                loop {
                    if let Some(job) = queue.pop_front() {
                        break job;
                    }
                    if self.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    queue = wait_unpoisoned(&self.queue_ready, queue);
                }
            };
            let result = self
                .engine
                .search_pinned(&job.query, &job.options)
                .map_err(|e| e.to_string());
            self.metrics
                .search_latency
                .record(job.started.elapsed().as_nanos() as u64);
            job.slot.fill(result);
        }
    }

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
            parallel_pulls: engine.parallel_pulls,
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
    /// On exit the socket is shut down explicitly: the tracked clone in
    /// `connections` keeps the fd alive until the next prune, so without
    /// this the peer would not see FIN until server shutdown.
    fn serve_connection(&self, stream: TcpStream) {
        let mut writer = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => return,
        };
        self.serve_frames(&mut writer, BufReader::new(stream));
        let _ = writer.shutdown(Shutdown::Both);
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
                // The decode layer already rejected unknown selectors and
                // out-of-range mode parameters; engine admission
                // re-validates (`SearchOptions::validate`) so a mode built
                // programmatically gets the same checks as one off the
                // wire.
                let options = SearchOptions::new(k as usize)
                    .with_tau(tau)
                    .with_bound_decay(bound_decay)
                    .with_mode(mode);
                let slot = Arc::new(ResponseSlot::default());
                let job = SearchJob {
                    query,
                    options,
                    started: Instant::now(),
                    slot: Arc::clone(&slot),
                };
                if self.try_enqueue(job).is_err() {
                    // RELAXED: monotonic metrics counter (see stats_report).
                    self.metrics.overloaded.fetch_add(1, Ordering::Relaxed);
                    return Response::Overloaded {
                        queue_capacity: self.queue_capacity as u32,
                    };
                }
                match slot.wait() {
                    Ok((out, generation)) => Response::Hits(WireHits {
                        generation,
                        hits: out.hits.iter().map(|h| (h.doc, h.score.get())).collect(),
                        total_score: out.total_score.get(),
                        results_generated: out.metrics.results_generated,
                        early_stopped: out.metrics.early_stopped,
                    }),
                    Err(message) => Response::Error {
                        code: ErrorCode::Search,
                        message,
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
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ServerShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerShared")
            .field("queue_capacity", &self.queue_capacity)
            .finish()
    }
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// acceptor, the connection threads, and `config.workers` search
    /// workers around `engine`.
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
            queue: Mutex::new(VecDeque::new()),
            queue_capacity: config.queue_capacity,
            queue_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            connections: Mutex::new(Vec::new()),
        });
        let mut threads = Vec::new();
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("divtopk-search-{i}"))
                    .spawn(move || shared.worker_loop())
                    // LINT-ALLOW(panic): worker threads spawn once at server
                    // construction, before any request is accepted — fail
                    // fast on OS resource exhaustion.
                    .expect("spawn search worker"),
            );
        }
        let acceptor_shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("divtopk-accept".to_owned())
                .spawn(move || {
                    let mut connection_threads: Vec<JoinHandle<()>> = Vec::new();
                    for stream in listener.incoming() {
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
                        // RELAXED: monotonic metrics counter.
                        acceptor_shared
                            .metrics
                            .connections
                            .fetch_add(1, Ordering::Relaxed);
                        {
                            let mut connections = lock_unpoisoned(&acceptor_shared.connections);
                            // Prune finished connections opportunistically
                            // so a long-lived server doesn't hoard fds.
                            connections.retain(|c| c.take_error().is_ok() && peer_alive(c));
                            connections.push(tracked);
                        }
                        let conn_shared = Arc::clone(&acceptor_shared);
                        // Finished connections need no join: drop their
                        // handles so a long-lived server holds only the
                        // live ones.
                        connection_threads.retain(|t| !t.is_finished());
                        connection_threads.push(
                            std::thread::Builder::new()
                                .name("divtopk-conn".to_owned())
                                .spawn(move || conn_shared.serve_connection(stream))
                                // LINT-ALLOW(panic): see "spawn search worker"
                                // above — accept-time resource exhaustion is a
                                // fatal configuration problem, not a request
                                // error this connection could report.
                                .expect("spawn connection thread"),
                        );
                    }
                    for thread in connection_threads {
                        let _ = thread.join();
                    }
                })
                // LINT-ALLOW(panic): as for the worker spawns above.
                .expect("spawn acceptor"),
        );
        Ok(Server {
            shared,
            addr,
            threads,
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

    /// Graceful shutdown: stop admitting, unblock every connection and
    /// worker, join all threads. In-queue searches finish; clients see
    /// their connections close. Idempotent.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Wake the workers: they drain the admission queue first (every
        // already-accepted search still gets its answer slot filled, so
        // no connection thread is left waiting), then observe the flag
        // and exit.
        self.shared.queue_ready.notify_all();
        // Unblock connection reads.
        for stream in lock_unpoisoned(&self.shared.connections).drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        // Unblock the acceptor with a wake-up connection.
        let _ = TcpStream::connect(self.addr);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// Cheap liveness probe used only for opportunistic pruning of the
/// tracked-connection list (false negatives just delay pruning).
fn peer_alive(stream: &TcpStream) -> bool {
    stream.peer_addr().is_ok()
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use divtopk_text::mode::DiversifyMode;
    use divtopk_text::synth::{SynthConfig, generate};

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

    fn call(stream: &mut TcpStream, request: &Request) -> Response {
        proto::write_frame(stream, &proto::encode_request(request).unwrap()).unwrap();
        let frame = proto::read_frame(stream).unwrap().expect("server closed");
        proto::decode_response(&frame).unwrap()
    }

    #[test]
    fn ping_search_stats_roundtrip() {
        let server = test_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        assert_eq!(call(&mut stream, &Request::Ping), Response::Pong);
        let response = call(
            &mut stream,
            &Request::Search {
                query: Query::Scan(0),
                k: 3,
                tau: 0.5,
                bound_decay: 0.005,
                mode: DiversifyMode::exact(),
            },
        );
        let Response::Hits(hits) = response else {
            panic!("expected hits, got {response:?}");
        };
        assert!(hits.hits.len() <= 3);
        let Response::Stats(stats) = call(&mut stream, &Request::Stats) else {
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
        let response = call(
            &mut stream,
            &Request::Search {
                query: Query::Scan(u32::MAX),
                k: 3,
                tau: 0.5,
                bound_decay: 0.005,
                mode: DiversifyMode::exact(),
            },
        );
        assert!(matches!(
            response,
            Response::Error {
                code: ErrorCode::Search,
                ..
            }
        ));
        // The connection keeps serving.
        assert_eq!(call(&mut stream, &Request::Ping), Response::Pong);
    }

    #[test]
    fn shutdown_joins_cleanly_with_open_connections() {
        let mut server = test_server();
        let stream = TcpStream::connect(server.addr()).unwrap();
        server.shutdown();
        drop(stream);
        server.shutdown(); // idempotent
    }
}
