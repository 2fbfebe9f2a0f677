//! The serving tier's dependency-free wire protocol: length-prefixed
//! frames over any byte stream, with a fully typed, allocation-bounded
//! decoder (DESIGN.md §8).
//!
//! ## Frame layout
//!
//! ```text
//! ┌────────────────┬──────────────────────────┐
//! │ u32 LE length  │  payload (length bytes)  │
//! └────────────────┴──────────────────────────┘
//! ```
//!
//! The length covers the payload only, must be ≥ 1 (the tag byte) and
//! ≤ [`MAX_FRAME_LEN`] — checked **before** any allocation, so a hostile
//! length prefix can never size a buffer. Payloads are little-endian
//! throughout; floats travel as IEEE-754 bit patterns
//! ([`f64::to_bits`]), so a served score is bit-identical to the
//! engine's.
//!
//! ## Robustness contract
//!
//! Every malformed input — truncation at *any* byte offset, an oversized
//! or zero length prefix, an unknown tag, counts that disagree with the
//! payload size, trailing garbage — decodes to a typed [`ProtoError`],
//! never a panic and never an unbounded allocation (element counts are
//! validated against the remaining payload bytes before any `Vec` is
//! sized). `tests/serving.rs` sweeps every truncation offset at the
//! frame layer, mirroring PR 5's persistence sweep.

use crate::engine::Query;
use divtopk_core::SearchError;
use divtopk_text::mode::{DiversifyMode, KnnConfig, WindowConfig};
use divtopk_text::query::KeywordQuery;
use std::io::{Read, Write};

/// Hard ceiling on a frame's payload size (1 MiB). Generous for every
/// real message (a 10k-hit response is ~120 KiB) and small enough that a
/// hostile prefix cannot matter.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// Most terms a keyword query may carry on the wire.
pub const MAX_QUERY_TERMS: usize = 256;

/// Longest snapshot path a reload request may carry.
pub const MAX_RELOAD_PATH: usize = 4096;

/// Typed protocol failure. `Truncated`/`Oversized`/`EmptyFrame` mean the
/// stream itself lost framing (the connection cannot be resynchronized);
/// the rest are per-frame and leave the stream usable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The stream ended mid-frame (header or payload).
    Truncated {
        /// Bytes the decoder still needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    Oversized {
        /// The advertised payload length.
        len: u32,
    },
    /// A zero-length frame (no room for even the tag byte).
    EmptyFrame,
    /// The first payload byte is not a known message tag.
    UnknownTag(u8),
    /// The diversify-mode selector byte is not a known mode (see
    /// [`MODE_EXACT_ASTAR`] and friends). Per-frame: a newer client
    /// feature, not stream corruption.
    UnknownSelector(u8),
    /// A mode parameter decoded to an out-of-range value (NaN λ, zero
    /// window, …). Rejected at decode so a hostile frame cannot smuggle
    /// a degenerate configuration past admission.
    BadValue(&'static str),
    /// A structurally invalid payload (reason attached).
    Malformed(&'static str),
    /// Well-formed message followed by garbage bytes.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
    /// The underlying transport failed.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated { needed, available } => {
                write!(f, "truncated frame: needed {needed} bytes, had {available}")
            }
            ProtoError::Oversized { len } => {
                write!(f, "oversized frame: {len} bytes (max {MAX_FRAME_LEN})")
            }
            ProtoError::EmptyFrame => write!(f, "zero-length frame"),
            ProtoError::UnknownTag(tag) => write!(f, "unknown message tag {tag:#04x}"),
            ProtoError::UnknownSelector(selector) => {
                write!(f, "unknown diversify-mode selector {selector:#04x}")
            }
            ProtoError::BadValue(why) => write!(f, "bad mode parameter: {why}"),
            ProtoError::Malformed(why) => write!(f, "malformed payload: {why}"),
            ProtoError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after message")
            }
            ProtoError::Io(kind) => write!(f, "transport error: {kind:?}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl ProtoError {
    /// True when the stream can no longer be re-framed and the
    /// connection should be closed after reporting the error.
    pub fn breaks_framing(&self) -> bool {
        matches!(
            self,
            ProtoError::Truncated { .. }
                | ProtoError::Oversized { .. }
                | ProtoError::EmptyFrame
                | ProtoError::Io(_)
        )
    }
}

/// A client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// One diversified top-k search.
    Search {
        /// Scan (single term) or keyword (multi-term) query.
        query: Query,
        /// Result count `k` (validated by engine admission).
        k: u32,
        /// Similarity threshold `τ` (bit-exact over the wire).
        tau: f64,
        /// Bound decay for the framework's necessary-condition check;
        /// decoding rejects anything outside `[0, 1)`.
        bound_decay: f64,
        /// Diversification mode, carried in full (selector byte +
        /// mode-specific parameters; see [`MODE_EXACT_ASTAR`] and
        /// friends).
        mode: DiversifyMode,
    },
    /// Serving counters + latency quantiles.
    Stats,
    /// Graceful snapshot-swap reload from a path on the server.
    Reload {
        /// Snapshot path, UTF-8, ≤ [`MAX_RELOAD_PATH`] bytes.
        path: String,
    },
}

/// Diversify-mode wire selectors. The first three are byte-identical to
/// the old plain `ExactAlgorithm` selector (0 = div-astar, 1 = div-dp,
/// 2 = div-cut) and carry no parameter bytes, so frames from pre-mode
/// clients decode unchanged to the equivalent exact modes.
pub const MODE_EXACT_ASTAR: u8 = 0;
/// Exact mode, div-dp inner algorithm (legacy-compatible selector).
pub const MODE_EXACT_DP: u8 = 1;
/// Exact mode, div-cut inner algorithm (legacy-compatible selector).
pub const MODE_EXACT_CUT: u8 = 2;
/// Diversity off (plain relevance top-k). No parameter bytes.
pub const MODE_NONE: u8 = 3;
/// MMR rerank. Followed by one `f64`: λ.
pub const MODE_MMR: u8 = 4;
/// Sliding-window spread. Followed by `u32` window, `u32`
/// max-per-source, `f64` min-score-ratio.
pub const MODE_WINDOW: u8 = 5;
/// DisC dissimilarity + coverage. No parameter bytes.
pub const MODE_DISC: u8 = 6;
/// KNN-diversity. Followed by one `u32`: neighbor count.
pub const MODE_KNN: u8 = 7;

/// Appends a mode's selector byte plus its parameter bytes.
fn put_mode(out: &mut Vec<u8>, mode: &DiversifyMode) {
    use divtopk_core::ExactAlgorithm::*;
    match mode {
        DiversifyMode::Exact(AStar) => out.push(MODE_EXACT_ASTAR),
        DiversifyMode::Exact(Dp) => out.push(MODE_EXACT_DP),
        DiversifyMode::Exact(Cut) => out.push(MODE_EXACT_CUT),
        DiversifyMode::None => out.push(MODE_NONE),
        DiversifyMode::Mmr(config) => {
            out.push(MODE_MMR);
            put_f64(out, config.lambda);
        }
        DiversifyMode::Window(config) => {
            out.push(MODE_WINDOW);
            put_u32(out, config.window as u32);
            put_u32(out, config.max_per_source as u32);
            put_f64(out, config.min_score_ratio);
        }
        DiversifyMode::Disc => out.push(MODE_DISC),
        DiversifyMode::Knn(config) => {
            out.push(MODE_KNN);
            put_u32(out, config.neighbors as u32);
        }
    }
}

/// Reads a mode selector plus parameters, shape only; the legal ranges
/// are [`DiversifyMode::validate`]'s. Unknown selectors are
/// [`ProtoError::UnknownSelector`]; parameters outside their legal range
/// are [`ProtoError::BadValue`] — both per-frame errors that leave the
/// stream usable.
fn read_mode(cur: &mut Cursor<'_>) -> Result<DiversifyMode, ProtoError> {
    use divtopk_core::ExactAlgorithm::*;
    let mode = match cur.u8()? {
        MODE_EXACT_ASTAR => DiversifyMode::Exact(AStar),
        MODE_EXACT_DP => DiversifyMode::Exact(Dp),
        MODE_EXACT_CUT => DiversifyMode::Exact(Cut),
        MODE_NONE => DiversifyMode::None,
        MODE_MMR => DiversifyMode::mmr(cur.f64()?),
        MODE_WINDOW => DiversifyMode::Window(WindowConfig {
            window: cur.u32()? as usize,
            max_per_source: cur.u32()? as usize,
            min_score_ratio: cur.f64()?,
        }),
        MODE_DISC => DiversifyMode::Disc,
        MODE_KNN => DiversifyMode::Knn(KnnConfig {
            neighbors: cur.u32()? as usize,
        }),
        selector => return Err(ProtoError::UnknownSelector(selector)),
    };
    mode.validate().map_err(|e| match e {
        SearchError::InvalidMode { detail } => ProtoError::BadValue(detail),
        // `validate` has no other failure; stay a per-frame rejection.
        _ => ProtoError::BadValue("invalid diversify mode"),
    })?;
    Ok(mode)
}

/// Server-side failure class carried in an error response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request itself was malformed (decode failure).
    Protocol,
    /// The engine rejected the search (typed admission/search error).
    Search,
}

/// A search answer on the wire — the served subset of
/// [`divtopk_text::search::SearchOutput`], scores bit-exact.
#[derive(Debug, Clone, PartialEq)]
pub struct WireHits {
    /// Snapshot generation the query ran against.
    pub generation: u64,
    /// `(doc id, score)` pairs in serving order.
    pub hits: Vec<(u32, f64)>,
    /// Total diversified score.
    pub total_score: f64,
    /// Results the framework pulled before stopping.
    pub results_generated: u64,
    /// True when Lemma-3 early stopping fired.
    pub early_stopped: bool,
}

/// Serving counters + latency quantiles returned by a stats request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsReport {
    /// Current snapshot generation.
    pub generation: u64,
    /// Segments in the current snapshot.
    pub segments: u32,
    /// Shard count the operator *requested* in [`EngineConfig`].
    ///
    /// [`EngineConfig`]: crate::engine::EngineConfig
    pub configured_shards: u32,
    /// True when the serving layout came from a snapshot rather than
    /// from partitioning by `configured_shards` — the two fields
    /// together make the layout-precedence rule observable remotely.
    pub layout_from_snapshot: bool,
    /// Documents in the corpus view (live + tombstoned).
    pub num_docs: u64,
    /// Frozen vocabulary size — what a load generator needs to
    /// synthesize valid queries.
    pub num_terms: u32,
    /// Engine queries admitted.
    pub queries: u64,
    /// Engine queries rejected at admission.
    pub rejected: u64,
    /// Result-cache hits / misses.
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Tombstoned documents.
    pub tombstones: u64,
    /// Frames the server accepted (all endpoints).
    pub requests: u64,
    /// Search requests rejected by backpressure.
    pub overloaded: u64,
    /// Frames that failed to decode.
    pub protocol_errors: u64,
    /// Search responses measured by the latency histogram.
    pub search_count: u64,
    /// Search latency p50, nanoseconds.
    pub search_p50_ns: u64,
    /// Search latency p95, nanoseconds.
    pub search_p95_ns: u64,
    /// Search latency p99, nanoseconds.
    pub search_p99_ns: u64,
    /// Search latency mean, nanoseconds.
    pub search_mean_ns: u64,
}

/// A server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Liveness answer.
    Pong,
    /// A served search.
    Hits(WireHits),
    /// Typed failure (the connection stays usable unless the *transport*
    /// lost framing).
    Error {
        /// Failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Backpressure rejection: every search slot was taken and the line
    /// for one was full. Retry later.
    Overloaded {
        /// How many searches may wait (`ServerConfig::queue_capacity`).
        queue_capacity: u32,
    },
    /// Stats answer.
    Stats(StatsReport),
    /// Reload answer: the new serving generation.
    Reloaded {
        /// Generation after the snapshot swap.
        generation: u64,
    },
}

const TAG_PING: u8 = 0x01;
const TAG_SEARCH: u8 = 0x02;
const TAG_STATS: u8 = 0x03;
const TAG_RELOAD: u8 = 0x04;
const TAG_PONG: u8 = 0x81;
const TAG_HITS: u8 = 0x82;
const TAG_ERROR: u8 = 0x83;
const TAG_OVERLOADED: u8 = 0x84;
const TAG_STATS_REPORT: u8 = 0x85;
const TAG_RELOADED: u8 = 0x86;

const QUERY_SCAN: u8 = 0;
const QUERY_KEYWORDS: u8 = 1;

// ---------------------------------------------------------------- frames

/// Reads one frame. `Ok(None)` is a clean close (EOF before the first
/// header byte); EOF anywhere later is [`ProtoError::Truncated`]. The
/// length prefix is validated against [`MAX_FRAME_LEN`] **before** the
/// payload buffer is sized.
pub fn read_frame(reader: &mut impl Read) -> Result<Option<Vec<u8>>, ProtoError> {
    let mut header = [0u8; 4];
    let mut got = 0usize;
    while got < header.len() {
        match reader.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(ProtoError::Truncated {
                    needed: header.len() - got,
                    available: got,
                });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ProtoError::Io(e.kind())),
        }
    }
    let len = u32::from_le_bytes(header);
    if len == 0 {
        return Err(ProtoError::EmptyFrame);
    }
    if len > MAX_FRAME_LEN {
        return Err(ProtoError::Oversized { len });
    }
    let mut payload = vec![0u8; len as usize];
    let mut got = 0usize;
    while got < payload.len() {
        match reader.read(&mut payload[got..]) {
            Ok(0) => {
                return Err(ProtoError::Truncated {
                    needed: payload.len() - got,
                    available: got,
                });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ProtoError::Io(e.kind())),
        }
    }
    Ok(Some(payload))
}

/// Writes one frame (header + payload) and flushes.
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> Result<(), ProtoError> {
    debug_assert!(!payload.is_empty() && payload.len() <= MAX_FRAME_LEN as usize);
    let map = |e: std::io::Error| ProtoError::Io(e.kind());
    writer
        .write_all(&(payload.len() as u32).to_le_bytes())
        .map_err(map)?;
    writer.write_all(payload).map_err(map)?;
    writer.flush().map_err(map)
}

/// One client round trip: sends `request`, reads the answer. A clean
/// close before the answer is [`ProtoError::Io`] (`UnexpectedEof`).
pub fn call(stream: &mut (impl Read + Write), request: &Request) -> Result<Response, ProtoError> {
    write_frame(stream, &encode_request(request)?)?;
    let frame = read_frame(stream)?.ok_or(ProtoError::Io(std::io::ErrorKind::UnexpectedEof))?;
    decode_response(&frame)
}

// --------------------------------------------------------------- cursors

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.remaining() < n {
            return Err(ProtoError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        let bytes = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(bytes)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        // LINT-ALLOW(panic): take(2) returned exactly 2 bytes, so the
        // slice-to-array conversion is infallible (same for u32/u64).
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        // LINT-ALLOW(panic): infallible — see `u16`.
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        // LINT-ALLOW(panic): infallible — see `u16`.
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn finish(&self) -> Result<(), ProtoError> {
        if self.remaining() > 0 {
            return Err(ProtoError::TrailingBytes {
                extra: self.remaining(),
            });
        }
        Ok(())
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

// -------------------------------------------------------------- requests

/// Encodes a request payload (frame header **not** included — pair with
/// [`write_frame`]).
pub fn encode_request(request: &Request) -> Result<Vec<u8>, ProtoError> {
    let mut out = Vec::new();
    match request {
        Request::Ping => out.push(TAG_PING),
        Request::Search {
            query,
            k,
            tau,
            bound_decay,
            mode,
        } => {
            out.push(TAG_SEARCH);
            match query {
                Query::Scan(term) => {
                    out.push(QUERY_SCAN);
                    put_u32(&mut out, *term);
                }
                Query::Keywords(q) => {
                    if q.terms.len() > MAX_QUERY_TERMS {
                        return Err(ProtoError::Malformed("too many query terms"));
                    }
                    out.push(QUERY_KEYWORDS);
                    put_u16(&mut out, q.terms.len() as u16);
                    for &term in &q.terms {
                        put_u32(&mut out, term);
                    }
                }
            }
            put_u32(&mut out, *k);
            put_f64(&mut out, *tau);
            put_f64(&mut out, *bound_decay);
            put_mode(&mut out, mode);
        }
        Request::Stats => out.push(TAG_STATS),
        Request::Reload { path } => {
            if path.len() > MAX_RELOAD_PATH {
                return Err(ProtoError::Malformed("reload path too long"));
            }
            out.push(TAG_RELOAD);
            put_u16(&mut out, path.len() as u16);
            out.extend_from_slice(path.as_bytes());
        }
    }
    Ok(out)
}

/// Decodes a request payload. Every failure is a typed [`ProtoError`];
/// element counts are checked against the remaining bytes before any
/// allocation.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtoError> {
    let mut cur = Cursor::new(payload);
    let request = match cur.u8()? {
        TAG_PING => Request::Ping,
        TAG_SEARCH => {
            let query = match cur.u8()? {
                QUERY_SCAN => Query::Scan(cur.u32()?),
                QUERY_KEYWORDS => {
                    let count = cur.u16()? as usize;
                    if count > MAX_QUERY_TERMS {
                        return Err(ProtoError::Malformed("too many query terms"));
                    }
                    if cur.remaining() < count * 4 {
                        return Err(ProtoError::Truncated {
                            needed: count * 4,
                            available: cur.remaining(),
                        });
                    }
                    let terms = (0..count).map(|_| cur.u32()).collect::<Result<_, _>>()?;
                    Query::Keywords(KeywordQuery { terms })
                }
                _ => return Err(ProtoError::Malformed("unknown query kind")),
            };
            let (k, tau, bound_decay) = (cur.u32()?, cur.f64()?, cur.f64()?);
            if !(0.0..1.0).contains(&bound_decay) {
                return Err(ProtoError::BadValue("bound decay must be in [0, 1)"));
            }
            Request::Search {
                query,
                k,
                tau,
                bound_decay,
                mode: read_mode(&mut cur)?,
            }
        }
        TAG_STATS => Request::Stats,
        TAG_RELOAD => {
            let len = cur.u16()? as usize;
            if len > MAX_RELOAD_PATH {
                return Err(ProtoError::Malformed("reload path too long"));
            }
            let bytes = cur.take(len)?;
            let path = std::str::from_utf8(bytes)
                .map_err(|_| ProtoError::Malformed("reload path is not UTF-8"))?
                .to_owned();
            Request::Reload { path }
        }
        tag => return Err(ProtoError::UnknownTag(tag)),
    };
    cur.finish()?;
    Ok(request)
}

// ------------------------------------------------------------- responses

/// Encodes a response payload (frame header **not** included).
pub fn encode_response(response: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    match response {
        Response::Pong => out.push(TAG_PONG),
        Response::Hits(hits) => {
            out.push(TAG_HITS);
            put_u64(&mut out, hits.generation);
            put_u32(&mut out, hits.hits.len() as u32);
            for &(doc, score) in &hits.hits {
                put_u32(&mut out, doc);
                put_f64(&mut out, score);
            }
            put_f64(&mut out, hits.total_score);
            put_u64(&mut out, hits.results_generated);
            out.push(hits.early_stopped as u8);
        }
        Response::Error { code, message } => {
            out.push(TAG_ERROR);
            out.push(match code {
                ErrorCode::Protocol => 1,
                ErrorCode::Search => 2,
            });
            let bytes = message.as_bytes();
            let len = bytes.len().min(u16::MAX as usize);
            put_u16(&mut out, len as u16);
            out.extend_from_slice(&bytes[..len]);
        }
        Response::Overloaded { queue_capacity } => {
            out.push(TAG_OVERLOADED);
            put_u32(&mut out, *queue_capacity);
        }
        Response::Stats(s) => {
            out.push(TAG_STATS_REPORT);
            put_u64(&mut out, s.generation);
            put_u32(&mut out, s.segments);
            put_u32(&mut out, s.configured_shards);
            out.push(u8::from(s.layout_from_snapshot));
            put_u64(&mut out, s.num_docs);
            put_u32(&mut out, s.num_terms);
            put_u64(&mut out, s.queries);
            put_u64(&mut out, s.rejected);
            put_u64(&mut out, s.cache_hits);
            put_u64(&mut out, s.cache_misses);
            put_u64(&mut out, s.tombstones);
            put_u64(&mut out, s.requests);
            put_u64(&mut out, s.overloaded);
            put_u64(&mut out, s.protocol_errors);
            put_u64(&mut out, s.search_count);
            put_u64(&mut out, s.search_p50_ns);
            put_u64(&mut out, s.search_p95_ns);
            put_u64(&mut out, s.search_p99_ns);
            put_u64(&mut out, s.search_mean_ns);
        }
        Response::Reloaded { generation } => {
            out.push(TAG_RELOADED);
            put_u64(&mut out, *generation);
        }
    }
    out
}

/// Decodes a response payload with the same typed-and-bounded guarantees
/// as [`decode_request`].
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtoError> {
    let mut cur = Cursor::new(payload);
    let response = match cur.u8()? {
        TAG_PONG => Response::Pong,
        TAG_HITS => {
            let generation = cur.u64()?;
            let count = cur.u32()? as usize;
            if cur.remaining() < count * 12 {
                return Err(ProtoError::Truncated {
                    needed: count * 12,
                    available: cur.remaining(),
                });
            }
            let hits = (0..count)
                .map(|_| Ok((cur.u32()?, cur.f64()?)))
                .collect::<Result<_, ProtoError>>()?;
            Response::Hits(WireHits {
                generation,
                hits,
                total_score: cur.f64()?,
                results_generated: cur.u64()?,
                early_stopped: match cur.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(ProtoError::Malformed("early_stopped is not a bool")),
                },
            })
        }
        TAG_ERROR => {
            let code = match cur.u8()? {
                1 => ErrorCode::Protocol,
                2 => ErrorCode::Search,
                _ => return Err(ProtoError::Malformed("unknown error code")),
            };
            let len = cur.u16()? as usize;
            let message = String::from_utf8_lossy(cur.take(len)?).into_owned();
            Response::Error { code, message }
        }
        TAG_OVERLOADED => Response::Overloaded {
            queue_capacity: cur.u32()?,
        },
        TAG_STATS_REPORT => Response::Stats(StatsReport {
            generation: cur.u64()?,
            segments: cur.u32()?,
            configured_shards: cur.u32()?,
            layout_from_snapshot: match cur.u8()? {
                0 => false,
                1 => true,
                _ => return Err(ProtoError::Malformed("layout_from_snapshot is not a bool")),
            },
            num_docs: cur.u64()?,
            num_terms: cur.u32()?,
            queries: cur.u64()?,
            rejected: cur.u64()?,
            cache_hits: cur.u64()?,
            cache_misses: cur.u64()?,
            tombstones: cur.u64()?,
            requests: cur.u64()?,
            overloaded: cur.u64()?,
            protocol_errors: cur.u64()?,
            search_count: cur.u64()?,
            search_p50_ns: cur.u64()?,
            search_p95_ns: cur.u64()?,
            search_p99_ns: cur.u64()?,
            search_mean_ns: cur.u64()?,
        }),
        TAG_RELOADED => Response::Reloaded {
            generation: cur.u64()?,
        },
        tag => return Err(ProtoError::UnknownTag(tag)),
    };
    cur.finish()?;
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(request: Request) {
        let payload = encode_request(&request).unwrap();
        assert_eq!(decode_request(&payload).unwrap(), request);
    }

    fn roundtrip_response(response: Response) {
        let payload = encode_response(&response);
        assert_eq!(decode_response(&payload).unwrap(), response);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Reload {
            path: "/tmp/snap.divtopk".to_owned(),
        });
        roundtrip_request(Request::Search {
            query: Query::Scan(42),
            k: 5,
            tau: 0.4,
            bound_decay: 0.005,
            mode: DiversifyMode::exact(),
        });
        roundtrip_request(Request::Search {
            query: Query::Keywords(KeywordQuery {
                terms: vec![1, 7, 1999],
            }),
            k: 10,
            tau: 0.61803398875,
            bound_decay: 0.0,
            mode: DiversifyMode::Exact(divtopk_core::ExactAlgorithm::AStar),
        });
        // Every mode round-trips with its parameters bit-exact.
        for mode in [
            DiversifyMode::Exact(divtopk_core::ExactAlgorithm::Dp),
            DiversifyMode::None,
            DiversifyMode::mmr(0.31837250619),
            DiversifyMode::Window(WindowConfig {
                window: 7,
                max_per_source: 3,
                min_score_ratio: 0.25,
            }),
            DiversifyMode::Disc,
            DiversifyMode::Knn(KnnConfig { neighbors: 5 }),
        ] {
            roundtrip_request(Request::Search {
                query: Query::Scan(9),
                k: 4,
                tau: 0.6,
                bound_decay: 0.0,
                mode,
            });
        }
    }

    /// Byte-level frame of a search request as pre-mode clients sent it:
    /// scan query, then k/τ/decay, then the single selector byte.
    fn legacy_search_payload(selector: u8) -> Vec<u8> {
        let mut out = vec![TAG_SEARCH, QUERY_SCAN];
        put_u32(&mut out, 42);
        put_u32(&mut out, 5);
        put_f64(&mut out, 0.4);
        put_f64(&mut out, 0.005);
        out.push(selector);
        out
    }

    #[test]
    fn legacy_plain_selectors_decode_to_equivalent_modes() {
        use divtopk_core::ExactAlgorithm::*;
        for (selector, algorithm) in [(0u8, AStar), (1, Dp), (2, Cut)] {
            let request = decode_request(&legacy_search_payload(selector)).unwrap();
            let Request::Search { mode, .. } = request else {
                panic!("expected a search request");
            };
            assert_eq!(mode, DiversifyMode::Exact(algorithm));
        }
    }

    #[test]
    fn unknown_mode_selector_is_typed_and_nonfatal() {
        for selector in [8u8, 42, 255] {
            let err = decode_request(&legacy_search_payload(selector)).unwrap_err();
            assert_eq!(err, ProtoError::UnknownSelector(selector));
            assert!(!err.breaks_framing());
        }
    }

    #[test]
    fn out_of_range_mode_parameters_are_bad_values() {
        let base = |mode: &DiversifyMode| {
            encode_request(&Request::Search {
                query: Query::Scan(1),
                k: 3,
                tau: 0.5,
                bound_decay: 0.0,
                mode: mode.clone(),
            })
            .unwrap()
        };
        // Bound decay outside [0, 1): the f64 just before the selector.
        for bad in [1.0, 1.5, -0.1, f64::NAN, f64::INFINITY] {
            let mut payload = base(&DiversifyMode::Disc);
            let at = payload.len() - 9;
            payload[at..at + 8].copy_from_slice(&bad.to_bits().to_le_bytes());
            let err = decode_request(&payload).unwrap_err();
            assert!(
                matches!(err, ProtoError::BadValue(_)),
                "decay={bad}: {err:?}"
            );
            assert!(!err.breaks_framing());
        }
        // Mode parameters: decode rejects exactly what
        // `DiversifyMode::validate` rejects, in its words.
        let window = |window, max_per_source, min_score_ratio| {
            DiversifyMode::Window(WindowConfig {
                window,
                max_per_source,
                min_score_ratio,
            })
        };
        let lambda = "mmr λ must be a number in [0, 1]";
        for (bad, detail) in [
            (DiversifyMode::mmr(f64::NAN), lambda),
            (DiversifyMode::mmr(-0.25), lambda),
            (DiversifyMode::mmr(1.5), lambda),
            (DiversifyMode::mmr(f64::INFINITY), lambda),
            (window(0, 3, 0.25), "window size must be ≥ 1"),
            (window(7, 0, 0.25), "window max-per-source must be ≥ 1"),
            (
                window(7, 3, f64::NAN),
                "window min-score-ratio must be a number in [0, 1]",
            ),
            (
                DiversifyMode::Knn(KnnConfig { neighbors: 0 }),
                "knn neighbor count must be ≥ 1",
            ),
        ] {
            assert_eq!(bad.validate(), Err(SearchError::InvalidMode { detail }));
            let err = decode_request(&base(&bad)).unwrap_err();
            assert_eq!(err, ProtoError::BadValue(detail), "{bad:?}");
            assert!(!err.breaks_framing());
        }
    }

    #[test]
    fn responses_roundtrip_bit_exactly() {
        roundtrip_response(Response::Pong);
        roundtrip_response(Response::Overloaded { queue_capacity: 64 });
        roundtrip_response(Response::Reloaded { generation: 17 });
        roundtrip_response(Response::Error {
            code: ErrorCode::Search,
            message: "unknown term 9".to_owned(),
        });
        roundtrip_response(Response::Hits(WireHits {
            generation: 3,
            hits: vec![(7, f64::from_bits(1.25f64.to_bits() + 1)), (2, 0.1 + 0.2)],
            total_score: f64::from_bits(0.3f64.to_bits() - 1),
            results_generated: 121,
            early_stopped: true,
        }));
        roundtrip_response(Response::Stats(StatsReport {
            generation: 1,
            segments: 4,
            configured_shards: 2,
            layout_from_snapshot: true,
            num_docs: 4000,
            num_terms: 900,
            queries: 10,
            rejected: 1,
            cache_hits: 3,
            cache_misses: 7,
            tombstones: 2,
            requests: 15,
            overloaded: 0,
            protocol_errors: 2,
            search_count: 10,
            search_p50_ns: 1_500_000,
            search_p95_ns: 4_000_000,
            search_p99_ns: 9_000_000,
            search_mean_ns: 2_000_000,
        }));
    }

    #[test]
    fn every_payload_truncation_offset_is_a_typed_error() {
        let payloads = [
            encode_request(&Request::Search {
                query: Query::Keywords(KeywordQuery {
                    terms: vec![3, 1, 4, 1, 5],
                }),
                k: 8,
                tau: 0.5,
                bound_decay: 0.005,
                mode: DiversifyMode::Exact(divtopk_core::ExactAlgorithm::Dp),
            })
            .unwrap(),
            // The longest parameterized mode: truncation inside window /
            // max-per-source / ratio bytes must all be typed errors.
            encode_request(&Request::Search {
                query: Query::Scan(3),
                k: 8,
                tau: 0.5,
                bound_decay: 0.005,
                mode: DiversifyMode::Window(WindowConfig::default()),
            })
            .unwrap(),
            encode_request(&Request::Search {
                query: Query::Scan(3),
                k: 8,
                tau: 0.5,
                bound_decay: 0.005,
                mode: DiversifyMode::mmr(0.7),
            })
            .unwrap(),
            encode_response(&Response::Hits(WireHits {
                generation: 9,
                hits: vec![(1, 2.0), (3, 4.0)],
                total_score: 6.0,
                results_generated: 11,
                early_stopped: false,
            })),
        ];
        for (which, payload) in payloads.iter().enumerate() {
            for cut in 0..payload.len() {
                let sliced = &payload[..cut];
                let result = if which < 3 {
                    decode_request(sliced).map(|_| ())
                } else {
                    decode_response(sliced).map(|_| ())
                };
                assert!(
                    result.is_err(),
                    "payload {which} truncated at {cut} decoded"
                );
            }
        }
    }

    #[test]
    fn hostile_counts_cannot_size_allocations() {
        // A keywords request claiming 65535 terms in a 10-byte payload.
        let mut payload = vec![TAG_SEARCH, QUERY_KEYWORDS];
        put_u16(&mut payload, u16::MAX);
        payload.extend_from_slice(&[0u8; 6]);
        assert!(decode_request(&payload).is_err());
        // A hits response claiming u32::MAX entries.
        let mut payload = vec![TAG_HITS];
        put_u64(&mut payload, 1);
        put_u32(&mut payload, u32::MAX);
        assert!(matches!(
            decode_response(&payload),
            Err(ProtoError::Truncated { .. })
        ));
    }

    #[test]
    fn frame_layer_rejects_bad_lengths_before_allocating() {
        let mut cursor = std::io::Cursor::new(u32::MAX.to_le_bytes().to_vec());
        assert_eq!(
            read_frame(&mut cursor),
            Err(ProtoError::Oversized { len: u32::MAX })
        );
        let mut cursor = std::io::Cursor::new(0u32.to_le_bytes().to_vec());
        assert_eq!(read_frame(&mut cursor), Err(ProtoError::EmptyFrame));
        // Clean EOF before any header byte is a clean close.
        let mut cursor = std::io::Cursor::new(Vec::new());
        assert_eq!(read_frame(&mut cursor), Ok(None));
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut payload = encode_request(&Request::Ping).unwrap();
        payload.push(0xEE);
        assert_eq!(
            decode_request(&payload),
            Err(ProtoError::TrailingBytes { extra: 1 })
        );
    }
}
