//! The shared open-loop load client: schedules request arrivals at a
//! fixed rate on a wall clock that does **not** slow down when the server
//! does (the open-loop property — closed-loop clients hide overload by
//! self-throttling), fires them over the wire protocol from a small pool
//! of sender connections, and reports achieved throughput plus
//! scheduled-time-to-response latency quantiles (queueing delay
//! included).
//!
//! Used by the `loadgen` binary (the CI `serving` job's smoke trace).

use divtopk_core::rng::Pcg;
use divtopk_engine::engine::Query;
use divtopk_engine::proto::{self, Request, Response};
use divtopk_text::mode::DiversifyMode;
use divtopk_text::query::KeywordQuery;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Scheduled send times, ns from trace start: arrival `i` at exactly
/// `i / rate` seconds.
fn offsets_ns(rate: f64, total: usize) -> Vec<u64> {
    let rate = rate.max(1e-6);
    (0..total).map(|i| (i as f64 / rate * 1e9) as u64).collect()
}

/// One open-loop trace specification.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Server address, e.g. `127.0.0.1:7071`.
    pub addr: String,
    /// Target arrival rate, requests per second.
    pub rate: f64,
    /// Total requests in the trace.
    pub total: usize,
    /// Sender connections (arrival `i` goes to sender `i % connections`).
    pub connections: usize,
    /// Trace seed (query mix is deterministic given the seed and the
    /// server's vocabulary size).
    pub seed: u64,
    /// Fraction of requests that are multi-keyword (TA) queries.
    pub ta_fraction: f64,
    /// `k` for every query.
    pub k: u32,
    /// `τ` for every query.
    pub tau: f64,
}

impl LoadSpec {
    /// A smoke trace against `addr`: 2 s at 50 q/s on 2 connections.
    pub fn smoke(addr: &str) -> LoadSpec {
        LoadSpec {
            addr: addr.to_owned(),
            rate: 50.0,
            total: 100,
            connections: 2,
            seed: 1,
            ta_fraction: 0.25,
            k: 5,
            tau: 0.5,
        }
    }
}

/// Aggregated result of one trace run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests sent.
    pub sent: u64,
    /// Requests answered with hits.
    pub ok: u64,
    /// Requests rejected with the typed backpressure response.
    pub overloaded: u64,
    /// Requests answered with a typed error (or a transport failure).
    pub errors: u64,
    /// Wall-clock duration of the whole trace.
    pub elapsed: Duration,
    /// Scheduled-time→response latencies, ns, sorted ascending.
    pub latencies_ns: Vec<u64>,
}

impl LoadReport {
    /// Achieved throughput over the trace (answered requests / elapsed).
    pub fn qps(&self) -> f64 {
        let answered = (self.ok + self.overloaded + self.errors) as f64;
        answered / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Latency at quantile `q ∈ [0, 1]`, in milliseconds (0 when empty).
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if self.latencies_ns.is_empty() {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.latencies_ns.len() as f64).ceil() as usize)
            .clamp(1, self.latencies_ns.len());
        self.latencies_ns[rank - 1] as f64 / 1e6
    }
}

/// Asks the server (via a stats request) how many terms and docs it
/// serves — what [`build_trace`] needs to synthesize valid queries.
pub fn probe_vocabulary(addr: &str) -> Result<(u32, u64), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    match proto::call(&mut stream, &Request::Stats).map_err(|e| e.to_string())? {
        Response::Stats(stats) => Ok((stats.num_terms, stats.num_docs)),
        other => Err(format!("stats probe got {other:?}")),
    }
}

/// Builds the deterministic query trace: a Zipf-flavored mix of scan and
/// keyword queries over a vocabulary of `num_terms` terms.
pub fn build_trace(spec: &LoadSpec, num_terms: u32) -> Vec<Request> {
    assert!(num_terms > 0, "server reports an empty vocabulary");
    let mut rng = Pcg::new(spec.seed ^ 0x6f70656e6c6f6f70);
    // A small pool of distinct "popular" terms plus a random tail, so the
    // trace exercises both the result cache and cold queries.
    let popular: Vec<u32> = (0..16).map(|_| rng.below(num_terms)).collect();
    (0..spec.total)
        .map(|_| {
            let term = if rng.chance(0.7) {
                popular[rng.below(popular.len() as u32) as usize]
            } else {
                rng.below(num_terms)
            };
            let query = if rng.chance(spec.ta_fraction) {
                let second = rng.below(num_terms);
                Query::Keywords(KeywordQuery {
                    terms: vec![term, second],
                })
            } else {
                Query::Scan(term)
            };
            Request::Search {
                query,
                k: spec.k,
                tau: spec.tau,
                bound_decay: 0.005,
                mode: DiversifyMode::exact(),
            }
        })
        .collect()
}

/// Runs the open-loop trace: arrival `i` is *scheduled* at
/// `start + i/rate` and its latency is measured from that scheduled
/// instant — a late send counts against the server, exactly as a queued
/// request would in production.
pub fn run_open_loop(spec: &LoadSpec) -> Result<LoadReport, String> {
    let (num_terms, _num_docs) = probe_vocabulary(&spec.addr)?;
    let trace = build_trace(spec, num_terms);
    let offsets = offsets_ns(spec.rate, trace.len());
    let connections = spec.connections.clamp(1, trace.len().max(1));
    let start = Instant::now() + Duration::from_millis(5);
    let mut senders = Vec::new();
    for c in 0..connections {
        let requests: Vec<(u64, Request)> = trace
            .iter()
            .enumerate()
            .filter(|(i, _)| i % connections == c)
            .map(|(i, r)| (offsets[i], r.clone()))
            .collect();
        let addr = spec.addr.clone();
        senders.push(std::thread::spawn(
            move || -> Result<SenderTally, String> {
                let mut stream =
                    TcpStream::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
                stream.set_nodelay(true).ok();
                let mut tally = SenderTally::default();
                for (offset_ns, request) in requests {
                    let scheduled = start + Duration::from_nanos(offset_ns);
                    if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    tally.sent += 1;
                    match proto::call(&mut stream, &request) {
                        Ok(Response::Hits(_)) => tally.ok += 1,
                        Ok(Response::Overloaded { .. }) => tally.overloaded += 1,
                        Ok(_) => {
                            tally.errors += 1;
                            continue;
                        }
                        Err(_) => {
                            tally.errors += 1;
                            return Ok(tally); // connection lost — stop this sender
                        }
                    }
                    tally
                        .latencies_ns
                        .push(scheduled.elapsed().as_nanos() as u64);
                }
                Ok(tally)
            },
        ));
    }
    let begun = Instant::now();
    let mut report = LoadReport {
        sent: 0,
        ok: 0,
        overloaded: 0,
        errors: 0,
        elapsed: Duration::ZERO,
        latencies_ns: Vec::new(),
    };
    for sender in senders {
        let tally = sender
            .join()
            .map_err(|_| "sender thread panicked".to_owned())??;
        report.sent += tally.sent;
        report.ok += tally.ok;
        report.overloaded += tally.overloaded;
        report.errors += tally.errors;
        report.latencies_ns.extend(tally.latencies_ns);
    }
    report.elapsed = begun.elapsed();
    report.latencies_ns.sort_unstable();
    Ok(report)
}

#[derive(Debug, Default)]
struct SenderTally {
    sent: u64,
    ok: u64,
    overloaded: u64,
    errors: u64,
    latencies_ns: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_offsets_are_the_classic_grid() {
        assert_eq!(
            offsets_ns(100.0, 5),
            vec![0, 10_000_000, 20_000_000, 30_000_000, 40_000_000]
        );
    }
}
