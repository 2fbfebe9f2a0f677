//! The socket load generator: closed loop and open loop, one thread per
//! connection.
//!
//! A **closed loop** sends a connection's next request only after the
//! previous answer arrived, so a slow server receives less load — the
//! behaviour of callers that each wait for a reply. An **open loop**
//! sends on a schedule regardless — independent users — and times each
//! request from when it was *due*, so a stall is charged to every
//! request it delayed; how late the generator itself ran is reported as
//! `loadgen.late_p99_us`.
//!
//! The server answers a connection's frames in order, so responses are
//! matched to requests first-in first-out.

use divtopk_engine::proto::{self, Response, WireHits};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long after a phase's end an outstanding request may still be
/// answered before it counts as failed.
pub const GRACE: Duration = Duration::from_secs(2);
/// A closed-loop read that waits longer than this is a failed request.
const CLOSED_READ_TIMEOUT: Duration = Duration::from_secs(10);
/// See `FramedReader::fill`.
const TICK_MARGIN: Duration = Duration::from_millis(6);
const POLL_SLEEP: Duration = Duration::from_micros(150);

#[derive(Debug)]
pub enum Outcome {
    Hits(WireHits),
    /// Admission queue full: the server's typed backpressure.
    Shed,
    /// Transport error, typed error, undecodable or missing answer.
    Failed(String),
}

#[derive(Debug)]
pub struct Sample {
    /// Index into the workload's request stream.
    pub index: u64,
    pub latency_ns: u64,
    pub outcome: Outcome,
}

#[derive(Debug, Default)]
pub struct PhaseResult {
    pub samples: Vec<Sample>,
    pub elapsed: Duration,
    /// Open loop: how long after its due time each request was sent.
    pub late_ns: Vec<u64>,
    /// Open loop: requests still unanswered when sending stopped.
    pub backlog_at_end: usize,
    /// Closed loop: correctly framed `Hits` per second, summed over the
    /// connections.
    pub answered_per_s: f64,
}

impl PhaseResult {
    pub fn shed(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| matches!(s.outcome, Outcome::Shed))
            .count()
    }

    /// Latencies of every request, failed ones included: a failed
    /// request waited at least that long and got nothing.
    pub fn latencies_ns(&self) -> Vec<u64> {
        self.samples.iter().map(|s| s.latency_ns).collect()
    }

    fn merge(parts: Vec<PhaseResult>, elapsed: Duration) -> PhaseResult {
        let mut all = PhaseResult {
            elapsed,
            ..PhaseResult::default()
        };
        for part in parts {
            all.samples.extend(part.samples);
            all.late_ns.extend(part.late_ns);
            all.backlog_at_end += part.backlog_at_end;
            all.answered_per_s += part.answered_per_s;
        }
        all
    }
}

fn classify(payload: &[u8]) -> Outcome {
    match proto::decode_response(payload) {
        Ok(Response::Hits(hits)) => Outcome::Hits(hits),
        Ok(Response::Overloaded { .. }) => Outcome::Shed,
        Ok(Response::Error { message, .. }) => Outcome::Failed(format!("typed error: {message}")),
        Ok(other) => Outcome::Failed(format!("unexpected response {other:?}")),
        Err(e) => Outcome::Failed(format!("undecodable response: {e}")),
    }
}

pub fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// One blocking round trip; used by set-up (`Ping`) and the closed loop.
pub fn roundtrip(stream: &mut TcpStream, payload: &[u8]) -> Result<Vec<u8>, String> {
    proto::write_frame(stream, payload).map_err(|e| format!("send: {e}"))?;
    match proto::read_frame(stream) {
        Ok(Some(frame)) => Ok(frame),
        Ok(None) => Err("connection closed".to_owned()),
        Err(e) => Err(format!("receive: {e}")),
    }
}

/// A connection read without blocking past a deadline: bytes accumulate
/// in `buffer`, complete frames are handed out in arrival order.
#[derive(Default)]
struct FramedReader {
    buffer: Vec<u8>,
    consumed: usize,
}

impl FramedReader {
    fn next_frame(&mut self) -> Option<Vec<u8>> {
        let pending = &self.buffer[self.consumed..];
        let header: [u8; 4] = pending.get(..4)?.try_into().ok()?;
        let len = u32::from_le_bytes(header) as usize;
        let frame = pending.get(4..4 + len)?.to_vec();
        self.consumed += 4 + len;
        if self.consumed == self.buffer.len() {
            self.buffer.clear();
            self.consumed = 0;
        }
        Some(frame)
    }

    /// Reads once, waiting at most until `deadline`. `Ok(false)` means
    /// the peer closed the connection.
    ///
    /// A socket timeout is rounded up to the kernel's timer tick (4 ms on
    /// the reference box), which would send the next request that much
    /// late; so the blocking read stops [`TICK_MARGIN`] short of the
    /// deadline and the rest is covered by short sleeps between
    /// non-blocking reads.
    fn fill(&mut self, stream: &mut TcpStream, deadline: Instant) -> std::io::Result<bool> {
        let wait = deadline.saturating_duration_since(Instant::now());
        let polling = wait <= TICK_MARGIN;
        if polling {
            stream.set_nonblocking(true)?;
        } else {
            stream.set_read_timeout(Some(wait - TICK_MARGIN))?;
        }
        let mut chunk = [0u8; 16 * 1024];
        let outcome = match stream.read(&mut chunk) {
            Ok(0) => Ok(false),
            Ok(n) => {
                self.buffer.extend_from_slice(&chunk[..n]);
                Ok(true)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                if polling {
                    std::thread::sleep(POLL_SLEEP.min(wait));
                }
                Ok(true)
            }
            Err(e) => Err(e),
        };
        if polling {
            stream.set_nonblocking(false)?;
        }
        outcome
    }
}

/// The client side of the socket phases: long-lived connections, one
/// thread each while a slice runs. A phase is run as several slices
/// spread over the run (see `run`), over the same connections.
pub struct Clients {
    addr: SocketAddr,
    streams: Vec<TcpStream>,
    /// Per connection: the next closed-loop stream index.
    next_closed: Vec<u64>,
    /// Open-loop requests scheduled so far.
    open_sent: u64,
}

impl Clients {
    /// Connection `c` sends closed-loop stream indices `closed_offset +
    /// c`, `closed_offset + c + connections`, …, so what a connection
    /// sends does not depend on how fast another one went.
    pub fn connect(
        addr: SocketAddr,
        connections: usize,
        closed_offset: u64,
    ) -> Result<Clients, String> {
        let streams = (0..connections)
            .map(|_| connect(addr).map_err(|e| format!("connect: {e}")))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Clients {
            addr,
            streams,
            next_closed: (0..connections as u64).map(|c| closed_offset + c).collect(),
            open_sent: 0,
        })
    }

    /// A connection that lost framing or has unanswered requests on it
    /// cannot carry the next slice; replace it.
    fn replace_broken(&mut self, parts: &[PhaseResult]) {
        for (stream, part) in self.streams.iter_mut().zip(parts) {
            let broken = part
                .samples
                .iter()
                .any(|s| matches!(s.outcome, Outcome::Failed(_)));
            if broken {
                if let Ok(fresh) = connect(self.addr) {
                    *stream = fresh;
                }
            }
        }
    }

    /// One closed-loop slice: every connection sends its next request
    /// only after the previous answer arrived, until `duration` is over.
    pub fn closed_slice(
        &mut self,
        duration: Duration,
        payload: &(dyn Fn(u64) -> Vec<u8> + Sync),
    ) -> Result<PhaseResult, String> {
        let connections = self.streams.len() as u64;
        let started = Instant::now();
        let parts = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .streams
                .iter_mut()
                .zip(self.next_closed.iter_mut())
                .map(|(stream, next)| {
                    scope.spawn(move || -> Result<PhaseResult, String> {
                        stream
                            .set_read_timeout(Some(CLOSED_READ_TIMEOUT))
                            .map_err(|e| format!("set timeout: {e}"))?;
                        let mut part = PhaseResult::default();
                        let mut answered = 0usize;
                        while started.elapsed() < duration {
                            let frame = payload(*next);
                            let sent = Instant::now();
                            let answer = roundtrip(stream, &frame);
                            let latency_ns = sent.elapsed().as_nanos() as u64;
                            let broken = answer.is_err();
                            let outcome = match answer {
                                Ok(bytes) => classify(&bytes),
                                Err(why) => Outcome::Failed(why),
                            };
                            answered += usize::from(matches!(outcome, Outcome::Hits(_)));
                            part.samples.push(Sample {
                                index: *next,
                                latency_ns,
                                outcome,
                            });
                            *next += connections;
                            if broken {
                                break; // framing is lost on this connection
                            }
                        }
                        // This connection's own rate, up to the end of
                        // its last round trip: not quantised by the
                        // slice boundary.
                        part.answered_per_s = answered as f64 / started.elapsed().as_secs_f64();
                        Ok(part)
                    })
                })
                .collect();
            join_all(handles)
        })?;
        self.replace_broken(&parts);
        Ok(PhaseResult::merge(parts, started.elapsed()))
    }

    /// One open-loop slice at `rate` requests per second in total, spread
    /// evenly over the connections: request `n` of the slice is due `n /
    /// rate` after its start and goes to connection `n mod connections`.
    /// Latency runs from the due time. Requests unanswered [`GRACE`]
    /// after the last due time are failed.
    pub fn open_slice(
        &mut self,
        rate: f64,
        duration: Duration,
        offset: u64,
        payload: &(dyn Fn(u64) -> Vec<u8> + Sync),
    ) -> Result<PhaseResult, String> {
        let total = (rate * duration.as_secs_f64()).floor() as u64;
        let offset = offset + self.open_sent;
        self.open_sent += total;
        let connections = self.streams.len();
        let started = Instant::now();
        let due = move |n: u64| started + Duration::from_secs_f64(n as f64 / rate);
        let parts = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .streams
                .iter_mut()
                .enumerate()
                .map(|(c, stream)| {
                    scope.spawn(move || {
                        open_connection(stream, c as u64, connections, total, offset, &due, payload)
                    })
                })
                .collect();
            join_all(handles)
        })?;
        self.replace_broken(&parts);
        Ok(PhaseResult::merge(parts, started.elapsed()))
    }
}

fn join_all(
    handles: Vec<std::thread::ScopedJoinHandle<'_, Result<PhaseResult, String>>>,
) -> Result<Vec<PhaseResult>, String> {
    handles
        .into_iter()
        .map(|h| h.join().map_err(|_| "client thread panicked".to_owned())?)
        .collect()
}

/// One connection's share of an open-loop slice.
fn open_connection(
    stream: &mut TcpStream,
    c: u64,
    connections: usize,
    total: u64,
    offset: u64,
    due: &(dyn Fn(u64) -> Instant + Sync),
    payload: &(dyn Fn(u64) -> Vec<u8> + Sync),
) -> Result<PhaseResult, String> {
    let mut reader = FramedReader::default();
    let mut part = PhaseResult::default();
    // (stream index, due time) of requests awaiting answers.
    let mut outstanding: VecDeque<(u64, Instant)> = VecDeque::new();
    let mut next = c;
    let give_up = due(total) + GRACE;
    let mut failure: Option<String> = None;
    loop {
        let sending = next < total;
        if !sending && outstanding.is_empty() {
            break;
        }
        if sending && Instant::now() >= due(next) {
            let due_at = due(next);
            let frame = payload(offset + next);
            let sent = Instant::now();
            part.late_ns
                .push(sent.saturating_duration_since(due_at).as_nanos() as u64);
            outstanding.push_back((offset + next, due_at));
            next += connections as u64;
            if let Err(e) = proto::write_frame(stream, &frame) {
                failure = Some(format!("send: {e}"));
                break;
            }
            if next >= total {
                part.backlog_at_end = outstanding.len();
            }
            continue;
        }
        if !sending && Instant::now() >= give_up {
            failure = Some("no answer by phase end + grace".to_owned());
            break;
        }
        let deadline = if sending { due(next) } else { give_up };
        match reader.fill(stream, deadline) {
            Ok(true) => {}
            Ok(false) => {
                failure = Some("connection closed".to_owned());
                break;
            }
            Err(e) => {
                failure = Some(format!("receive: {e}"));
                break;
            }
        }
        let arrived = Instant::now();
        while let Some(frame) = reader.next_frame() {
            let Some((index, due_at)) = outstanding.pop_front() else {
                failure = Some("answer without a request".to_owned());
                break;
            };
            part.samples.push(Sample {
                index,
                latency_ns: arrived.saturating_duration_since(due_at).as_nanos() as u64,
                outcome: classify(&frame),
            });
        }
        if failure.is_some() {
            break;
        }
    }
    // Whatever is still outstanding — and, after a broken connection,
    // whatever was never sent — got no answer.
    let why = failure.unwrap_or_else(|| "unanswered".to_owned());
    let unsent = (next..total)
        .step_by(connections)
        .map(|n| (offset + n, due(n)));
    let now = Instant::now();
    for (index, due_at) in outstanding.into_iter().chain(unsent) {
        part.samples.push(Sample {
            index,
            latency_ns: now.saturating_duration_since(due_at).as_nanos() as u64,
            outcome: Outcome::Failed(why.clone()),
        });
    }
    Ok(part)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;
    use std::net::TcpListener;

    /// A fake server: answers every frame with empty `Hits`, sleeping
    /// `stall` before the answer to frame number `stall_at`.
    fn fake_server(stall_at: usize, stall: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            let answer = proto::encode_response(&Response::Hits(WireHits {
                generation: 0,
                hits: Vec::new(),
                total_score: 0.0,
                results_generated: 0,
                early_stopped: false,
            }));
            let mut seen = 0;
            while let Ok(Some(_)) = proto::read_frame(&mut stream) {
                if seen == stall_at {
                    std::thread::sleep(stall);
                }
                seen += 1;
                if proto::write_frame(&mut stream, &answer).is_err() {
                    break;
                }
            }
        });
        (addr, handle)
    }

    fn ping(_: u64) -> Vec<u8> {
        proto::encode_request(&divtopk_engine::Request::Ping).unwrap()
    }

    #[test]
    fn open_loop_charges_a_stall_to_every_request_it_delayed() {
        // 100 q/s for 1 s; the server stalls 300 ms before answer 20.
        // Requests 20..50 were due during the stall: an open loop must
        // report them late by what remained of it, not drop them, and
        // must keep sending on schedule meanwhile.
        let (addr, server) = fake_server(20, Duration::from_millis(300));
        let mut clients = Clients::connect(addr, 1, 0).unwrap();
        let result = clients
            .open_slice(100.0, Duration::from_secs(1), 0, &ping)
            .unwrap();
        drop(clients);
        server.join().unwrap();
        assert_eq!(result.samples.len(), 100);
        assert!(
            result
                .samples
                .iter()
                .all(|s| matches!(s.outcome, Outcome::Hits(_)))
        );
        let ms = |i: usize| result.samples[i].latency_ns as f64 / 1e6;
        // (Generous limits: the other tests load both cores meanwhile.)
        assert!(ms(5) < 150.0, "before the stall: {} ms", ms(5));
        assert!(ms(20) >= 295.0, "the stalled request: {} ms", ms(20));
        assert!(
            ms(35) >= 100.0,
            "sent mid-stall, due 150 ms in: {} ms",
            ms(35)
        );
        assert!(ms(90) < 150.0, "after recovery: {} ms", ms(90));
        let inflated = result
            .samples
            .iter()
            .filter(|s| s.latency_ns > 50_000_000)
            .count();
        assert!(
            (20..=60).contains(&inflated),
            "{inflated} requests inflated"
        );
        // The generator itself stayed on schedule throughout: a sender
        // that waited for the stalled answer would run 300 ms late.
        let late = stats::sorted_ms(&result.late_ns);
        assert!(stats::percentile(&late, 0.99) < 100.0, "late p99 {late:?}");
    }

    #[test]
    fn open_loop_fails_requests_a_dead_server_never_answers() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            // Read two frames, answer none, hang up.
            let _ = proto::read_frame(&mut stream);
            let _ = proto::read_frame(&mut stream);
        });
        let mut clients = Clients::connect(addr, 1, 0).unwrap();
        let result = clients
            .open_slice(50.0, Duration::from_millis(200), 0, &ping)
            .unwrap();
        drop(clients);
        server.join().unwrap();
        assert_eq!(
            result.samples.len(),
            10,
            "every due request is accounted for"
        );
        assert!(
            result
                .samples
                .iter()
                .all(|s| matches!(s.outcome, Outcome::Failed(_)))
        );
    }

    #[test]
    fn closed_loop_waits_for_each_answer() {
        let (addr, server) = fake_server(usize::MAX, Duration::ZERO);
        let mut clients = Clients::connect(addr, 1, 7).unwrap();
        let first = clients
            .closed_slice(Duration::from_millis(100), &ping)
            .unwrap();
        let second = clients
            .closed_slice(Duration::from_millis(100), &ping)
            .unwrap();
        drop(clients);
        server.join().unwrap();
        assert!(first.samples.len() > 3 && first.answered_per_s > 30.0);
        let indices: Vec<u64> = first.samples.iter().map(|s| s.index).collect();
        assert_eq!(indices[..3], [7, 8, 9]);
        // The next slice continues the connection's sequence.
        assert_eq!(second.samples[0].index, 7 + first.samples.len() as u64);
    }

    #[test]
    fn framed_reader_reassembles_split_frames() {
        let mut reader = FramedReader::default();
        let wire = [
            &3u32.to_le_bytes()[..],
            b"abc",
            &1u32.to_le_bytes()[..],
            b"z",
        ]
        .concat();
        reader.buffer.extend_from_slice(&wire[..5]);
        assert!(reader.next_frame().is_none());
        reader.buffer.extend_from_slice(&wire[5..]);
        assert_eq!(reader.next_frame().unwrap(), b"abc");
        assert_eq!(reader.next_frame().unwrap(), b"z");
        assert!(reader.next_frame().is_none());
        assert!(reader.buffer.is_empty());
    }
}
