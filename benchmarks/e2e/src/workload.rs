//! The four workloads: corpus, engine configuration and request stream.
//!
//! A workload's corpus is fixed (the synthetic presets carry their own
//! seeds); `--seed` shapes the request stream and the writer's deletes,
//! and nothing else. Request `i` of a stream is a pure function of
//! `(seed, i)`, and each phase reads from its own offset, so no phase
//! depends on how far another got.

use crate::rng::{Rng, sample, zipf_cdf};
use divtopk_core::SearchLimits;
use divtopk_engine::{EngineConfig, Query, Request};
use divtopk_text::prelude::*;
use std::time::{Duration, Instant};

/// The seed whose stream fingerprints are pinned in `FINGERPRINTS`.
pub const DEFAULT_SEED: u64 = 2012;

/// Stream offsets: one disjoint index range per phase.
pub const OFFSET_BATCH: u64 = 0;
pub const OFFSET_CLOSED: u64 = 1_000_000;
pub const OFFSET_OPEN: u64 = 2_000_000;
pub const OFFSET_LADDER: u64 = 3_000_000;
pub const OFFSET_WARMUP: u64 = 9_000_000;
/// Requests hashed into a stream fingerprint.
pub const FINGERPRINT_REQUESTS: u64 = 10_000;

const LANE_REQUEST: u64 = 1;
const LANE_HOT_SET: u64 = 2;
pub const LANE_WRITER: u64 = 3;
const LANE_EPOCH: u64 = 4;
/// Seed of the fixed request pools; not `--seed` (see `draw_pool`).
const POOL_SEED: u64 = 0x2012_0511;

const HOT_QUERIES: usize = 256;
const BOUND_DECAY: f64 = 0.005;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// 95 % Zipf(1.0) over 256 hot queries (drawn per seed), 5 % fresh
    /// single-term scans.
    Hot,
    /// A fixed pool of `pool` requests — 60 % single-term scans, 40 %
    /// two-term keyword queries, terms log-uniform over
    /// document-frequency rank — replayed in seed-shuffled epochs.
    Cold { pool: usize },
    /// A fixed pool of single-term scans over frequent terms, one of six
    /// modes each, replayed in seed-shuffled epochs.
    Neardup { pool: usize },
}

/// Everything that defines a workload. Sizes were measured on the seed
/// commit (see BASELINE.md), not guessed.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub synth: SynthConfig,
    pub base_docs: usize,
    /// Documents held back from the epoch for the writer to add.
    pub pool_docs: usize,
    pub shards: usize,
    pub cache_capacity: usize,
    pub stream: Stream,
    /// Terms below this document frequency are never queried.
    pub min_df: u32,
    pub k: usize,
    pub tau: f64,
    /// In-process time budget per search; a trip is a failed operation.
    pub time_budget: Option<Duration>,
    /// `batch` phase: requests per second of `--seconds` (fixed work).
    pub batch_per_second: usize,
    /// `open` phase: total arrival rate in requests per second.
    pub open_rate: f64,
    /// Latency limit on the ladder's p99, milliseconds.
    pub limit_ms: f64,
    /// A writer thread mutates the engine beside the socket phases.
    pub live_writer: bool,
    /// Requests of the `closed` stream the traced run replays.
    pub trace_requests: usize,
}

pub const NAMES: [&str; 4] = ["hot_serve", "cold_search", "neardup_modes", "live_mixed"];

/// Why each workload exists; copied into `BENCHMARK.json`.
pub fn spec(name: &str, quick: bool) -> Option<Spec> {
    let reuters = SynthConfig::reuters_like();
    let enwiki = SynthConfig::enwiki_like();
    let mut spec = match name {
        "hot_serve" => Spec {
            name: "hot_serve",
            why: "256 hot queries over 20k docs with the cache on: search does almost nothing, \
                  so server, wire and cache carry the time and a posting or div-search change must show none",
            synth: reuters,
            base_docs: 20_000,
            pool_docs: 8_192,
            shards: 1,
            cache_capacity: 4096,
            stream: Stream::Hot,
            min_df: 5,
            k: 10,
            tau: 0.6,
            time_budget: None,
            batch_per_second: 400_000,
            open_rate: 36.0,
            limit_ms: 100.0,
            live_writer: false,
            trace_requests: 300,
        },
        "cold_search" => Spec {
            name: "cold_search",
            why: "uncached scans and two-term queries over 50k docs in 4 shards: posting pulls, \
                  merge, pull pool and similarity checks carry the time, server and cache do little",
            synth: enwiki,
            base_docs: 50_000,
            pool_docs: 8_192,
            shards: 4,
            cache_capacity: 0,
            stream: Stream::Cold { pool: 64 },
            min_df: 5,
            k: 10,
            tau: 0.6,
            time_budget: None,
            batch_per_second: 140,
            open_rate: 24.0,
            limit_ms: 1000.0,
            live_writer: false,
            trace_requests: 64,
        },
        "neardup_modes" => Spec {
            name: "neardup_modes",
            why: "one segment of near-duplicate docs, six diversify modes, k=20: short pulls and \
                  dense diversity graphs, so the diversifier and div-search carry the time; merge and pool are bypassed",
            synth: SynthConfig {
                near_dup_prob: 0.6,
                ..enwiki
            },
            base_docs: 20_000,
            pool_docs: 8_192,
            shards: 1,
            cache_capacity: 0,
            stream: Stream::Neardup { pool: 256 },
            min_df: 200,
            k: 20,
            tau: 0.5,
            time_budget: Some(Duration::from_secs(2)),
            batch_per_second: 1_250,
            open_rate: 36.0,
            limit_ms: 100.0,
            live_writer: false,
            trace_requests: 300,
        },
        "live_mixed" => Spec {
            name: "live_mixed",
            why: "the hot stream on 4 shards while a writer adds, deletes, compacts and checkpoints: \
                  every write strands the cache and grows segments, so a read gain bought with write or restart cost shows",
            synth: reuters,
            base_docs: 20_000,
            pool_docs: 16_384,
            shards: 4,
            cache_capacity: 4096,
            stream: Stream::Hot,
            min_df: 5,
            k: 10,
            tau: 0.6,
            time_budget: None,
            batch_per_second: 60_000,
            open_rate: 18.0,
            limit_ms: 100.0,
            live_writer: true,
            trace_requests: 300,
        },
        _ => return None,
    };
    if quick {
        // Tiny corpora for the self-test; never a baseline.
        spec.synth = SynthConfig {
            near_dup_prob: spec.synth.near_dup_prob,
            ..SynthConfig::tiny()
        };
        spec.base_docs = 1_500;
        spec.min_df = if spec.min_df > 5 { 40 } else { 5 };
        spec.batch_per_second = spec.batch_per_second.min(2_000);
    }
    Some(spec)
}

impl Spec {
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig::new(self.shards).with_cache_capacity(self.cache_capacity)
    }
}

/// One search request of a stream.
#[derive(Debug, Clone)]
pub struct Req {
    pub query: Query,
    pub options: SearchOptions,
}

impl Req {
    /// The frame a network client sends for this request. Limits do not
    /// cross the wire; the socket phases enforce the budget client-side.
    pub fn to_wire(&self) -> Request {
        Request::Search {
            query: self.query.clone(),
            k: self.options.k as u32,
            tau: self.options.tau,
            bound_decay: self.options.bound_decay,
            mode: self.options.mode.clone(),
        }
    }

    /// The options the server rebuilds from the frame (no limits).
    pub fn wire_options(&self) -> SearchOptions {
        SearchOptions {
            limits: SearchLimits::unlimited(),
            ..self.options.clone()
        }
    }

    pub fn is_exact(&self) -> bool {
        matches!(self.options.mode, DiversifyMode::Exact(_))
    }

    /// Canonical bytes: the identity of a request for the oracle's memo
    /// and the stream fingerprint. Written out by hand so that neither
    /// the wire format nor a `Debug` impl can move it.
    pub fn key(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(48);
        match &self.query {
            Query::Scan(t) => {
                out.push(0);
                out.extend_from_slice(&t.to_le_bytes());
            }
            Query::Keywords(q) => {
                out.push(1);
                out.extend_from_slice(&(q.terms.len() as u32).to_le_bytes());
                for t in &q.terms {
                    out.extend_from_slice(&t.to_le_bytes());
                }
            }
        }
        out.extend_from_slice(&(self.options.k as u32).to_le_bytes());
        out.extend_from_slice(&self.options.tau.to_bits().to_le_bytes());
        out.extend_from_slice(&self.options.bound_decay.to_bits().to_le_bytes());
        match &self.options.mode {
            DiversifyMode::Exact(_) => out.push(0),
            DiversifyMode::None => out.push(1),
            DiversifyMode::Mmr(c) => {
                out.push(2);
                out.extend_from_slice(&c.lambda.to_bits().to_le_bytes());
            }
            DiversifyMode::Window(c) => {
                out.push(3);
                out.extend_from_slice(&(c.window as u32).to_le_bytes());
                out.extend_from_slice(&(c.max_per_source as u32).to_le_bytes());
                out.extend_from_slice(&c.min_score_ratio.to_bits().to_le_bytes());
            }
            DiversifyMode::Disc => out.push(4),
            DiversifyMode::Knn(c) => {
                out.push(5);
                out.extend_from_slice(&(c.neighbors as u32).to_le_bytes());
            }
        }
        out
    }
}

/// A workload's generated inputs: the epoch corpus, the add pool, and
/// the term table its stream draws from.
pub struct Inputs {
    pub spec: Spec,
    pub base: Corpus,
    pub pool: Vec<Document>,
    /// `text.synth.generate_ms`: time spent in `synth::generate`.
    pub generate_ms: f64,
    /// Queryable terms (df ≥ `min_df`), most frequent first.
    terms: Vec<TermId>,
    hot_cdf: Vec<f64>,
    pool_reqs: Vec<Req>,
}

impl Inputs {
    pub fn generate(spec: Spec) -> Inputs {
        let started = Instant::now();
        let donor = generate(
            &spec
                .synth
                .clone()
                .with_num_docs(spec.base_docs + spec.pool_docs),
        );
        let generate_ms = started.elapsed().as_secs_f64() * 1e3;
        // The first `base_docs` documents become the frozen statistics
        // epoch, the rest the add pool over the same vocabulary — the
        // pattern perfbase's `live_update` suite uses.
        let mut builder = CorpusBuilder::with_synthetic_vocab(donor.num_terms());
        for d in 0..spec.base_docs as DocId {
            builder.add_document(donor.doc(d).clone());
        }
        let base = builder.build();
        let pool = (spec.base_docs..spec.base_docs + spec.pool_docs)
            .map(|d| donor.doc(d as DocId).clone())
            .collect();
        let mut terms: Vec<TermId> = (0..base.num_terms() as TermId)
            .filter(|&t| base.doc_freq(t) >= spec.min_df)
            .collect();
        terms.sort_by_key(|&t| (std::cmp::Reverse(base.doc_freq(t)), t));
        assert!(
            terms.len() >= 2,
            "{}: fewer than two queryable terms",
            spec.name
        );
        let mut inputs = Inputs {
            spec,
            base,
            pool,
            generate_ms,
            terms,
            hot_cdf: zipf_cdf(HOT_QUERIES, 1.0),
            pool_reqs: Vec::new(),
        };
        inputs.pool_reqs = inputs.draw_pool();
        inputs
    }

    fn options(&self, mode: DiversifyMode) -> SearchOptions {
        let options = SearchOptions::new(self.spec.k)
            .with_tau(self.spec.tau)
            .with_bound_decay(BOUND_DECAY)
            .with_mode(mode);
        match self.spec.time_budget {
            Some(budget) => options.with_limits(SearchLimits::with_time_budget(budget)),
            None => options,
        }
    }

    fn uniform_term(&self, rng: &mut Rng) -> TermId {
        self.terms[rng.below(self.terms.len())]
    }

    /// Log-uniform over frequency rank: long and short posting lists
    /// both occur, each decade of rank equally often.
    fn log_uniform_term(&self, rng: &mut Rng) -> TermId {
        let n = self.terms.len() as f64;
        let rank = (n.powf(rng.unit()) - 1.0) as usize;
        self.terms[rank.min(self.terms.len() - 1)]
    }

    fn two_terms(&self, rng: &mut Rng, draw: fn(&Inputs, &mut Rng) -> TermId) -> Query {
        let a = draw(self, rng);
        let mut b = draw(self, rng);
        while b == a {
            b = draw(self, rng);
        }
        let mut terms = vec![a, b];
        terms.sort_unstable();
        Query::Keywords(KeywordQuery { terms })
    }

    /// Hot query `j` under `seed`: 75 % single-term scans, 25 % two-term.
    fn hot_query(&self, seed: u64, j: usize) -> Query {
        let mut rng = Rng::at(seed, LANE_HOT_SET, j as u64);
        if rng.unit() < 0.75 {
            Query::Scan(self.uniform_term(&mut rng))
        } else {
            self.two_terms(&mut rng, Inputs::uniform_term)
        }
    }

    /// The fixed request pool of a pool stream, drawn once from
    /// [`POOL_SEED`]: total work per epoch is then the same under every
    /// `--seed`, which only orders it. (The cost of a two-term query
    /// grows with the square of the results it pulls and has a tail of
    /// seconds; an unpooled stream does not repeat within a tenth in any
    /// run the time cap allows.)
    fn draw_pool(&self) -> Vec<Req> {
        let (size, cold) = match self.spec.stream {
            Stream::Hot => return Vec::new(),
            Stream::Cold { pool } => (pool, true),
            Stream::Neardup { pool } => (pool, false),
        };
        (0..size as u64)
            .map(|j| {
                let mut rng = Rng::at(POOL_SEED, LANE_REQUEST, j);
                let (query, mode) = if cold {
                    let query = if rng.unit() < 0.6 {
                        Query::Scan(self.log_uniform_term(&mut rng))
                    } else {
                        self.two_terms(&mut rng, Inputs::log_uniform_term)
                    };
                    (query, DiversifyMode::exact())
                } else {
                    let query = Query::Scan(self.uniform_term(&mut rng));
                    let u = rng.unit();
                    let mode = if u < 0.40 {
                        DiversifyMode::exact()
                    } else if u < 0.50 {
                        DiversifyMode::None
                    } else if u < 0.625 {
                        DiversifyMode::mmr(0.7)
                    } else if u < 0.75 {
                        DiversifyMode::window()
                    } else if u < 0.875 {
                        DiversifyMode::Disc
                    } else {
                        DiversifyMode::knn()
                    };
                    (query, mode)
                };
                Req {
                    query,
                    options: self.options(mode),
                }
            })
            .collect()
    }

    /// Distinct requests per epoch of a pool stream (0 for `Hot`).
    pub fn pool_len(&self) -> usize {
        self.pool_reqs.len()
    }

    /// Request `index` of the stream under `seed`.
    pub fn request(&self, seed: u64, index: u64) -> Req {
        if !self.pool_reqs.is_empty() {
            // Epoch `e` replays the whole pool in an order keyed by
            // `(seed, e)`.
            let len = self.pool_reqs.len() as u64;
            let (epoch, position) = (index / len, index % len);
            let mut order: Vec<u64> = (0..len).collect();
            order.sort_by_key(|&j| Rng::at(seed, LANE_EPOCH, epoch * len + j).next_u64());
            return self.pool_reqs[order[position as usize] as usize].clone();
        }
        let mut rng = Rng::at(seed, LANE_REQUEST, index);
        let query = if rng.unit() < 0.95 {
            self.hot_query(seed, sample(&self.hot_cdf, rng.unit()))
        } else {
            Query::Scan(self.uniform_term(&mut rng))
        };
        Req {
            query,
            options: self.options(DiversifyMode::exact()),
        }
    }

    /// Every hot query once, for the warm-up to make resident.
    pub fn hot_set(&self, seed: u64) -> Vec<Req> {
        match self.spec.stream {
            Stream::Hot => (0..HOT_QUERIES)
                .map(|j| Req {
                    query: self.hot_query(seed, j),
                    options: self.options(DiversifyMode::exact()),
                })
                .collect(),
            Stream::Cold { .. } | Stream::Neardup { .. } => Vec::new(),
        }
    }

    /// Hash over the epoch's and the pool's term ids and counts.
    pub fn corpus_fingerprint(&self) -> u64 {
        let mut h = Fingerprint::new();
        for doc in self.base.docs().chain(self.pool.iter()) {
            h.word(doc.terms.len() as u64);
            for &(t, c) in &doc.terms {
                h.word(u64::from(t) << 32 | u64::from(c));
            }
        }
        h.finish()
    }

    /// Hash over the first [`FINGERPRINT_REQUESTS`] requests under `seed`.
    pub fn stream_fingerprint(&self, seed: u64) -> u64 {
        let mut h = Fingerprint::new();
        for i in 0..FINGERPRINT_REQUESTS {
            for chunk in self.request(seed, i).key().chunks(8) {
                let mut word = [0u8; 8];
                word[..chunk.len()].copy_from_slice(chunk);
                h.word(u64::from_le_bytes(word));
            }
        }
        h.finish()
    }
}

/// A 64-bit multiply–rotate hash over words; fast enough to run over a
/// 100k-document corpus on every start.
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Fingerprint {
        Fingerprint(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w)
            .wrapping_mul(0x0000_0100_0000_01B3)
            .rotate_left(23);
    }

    fn finish(&self) -> u64 {
        let mut s = self.0;
        s ^= s >> 32;
        s.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// The pinned fingerprints: `workload corpus=<hex> stream=<hex>` lines.
/// `BENCHMARK.json` admits no extra keys, so they live beside the code.
const PINNED: &str = include_str!("../FINGERPRINTS");

/// Refuses inputs that differ from the pinned ones: a later change to
/// `text::synth` or `core::rng` must not silently change the workload
/// under a claim. The stream is pinned for [`DEFAULT_SEED`] only.
pub fn check_fingerprints(inputs: &Inputs, seed: u64) -> Result<(), String> {
    let name = inputs.spec.name;
    let line = PINNED
        .lines()
        .find(|l| l.split_whitespace().next() == Some(name))
        .ok_or_else(|| format!("{name}: no pinned fingerprint"))?;
    let pinned = |field: &str| -> Result<u64, String> {
        line.split_whitespace()
            .find_map(|w| w.strip_prefix(field))
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            .ok_or_else(|| format!("{name}: malformed pinned fingerprint {field}"))
    };
    let corpus = inputs.corpus_fingerprint();
    if corpus != pinned("corpus=")? {
        return Err(format!(
            "{name}: corpus fingerprint {corpus:016x} differs from the pinned one — \
             the generator changed; numbers are not comparable"
        ));
    }
    if seed == DEFAULT_SEED {
        let stream = inputs.stream_fingerprint(seed);
        if stream != pinned("stream=")? {
            return Err(format!(
                "{name}: stream fingerprint {stream:016x} differs from the pinned one"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(name: &str) -> Inputs {
        Inputs::generate(spec(name, true).unwrap())
    }

    #[test]
    fn streams_are_pure_functions_of_seed_and_index() {
        for name in NAMES {
            let inputs = quick(name);
            for i in [0, 1, OFFSET_CLOSED, OFFSET_OPEN + 17] {
                assert_eq!(inputs.request(5, i).key(), inputs.request(5, i).key());
            }
            let differ = (0..64)
                .filter(|&i| inputs.request(5, i).key() != inputs.request(6, i).key())
                .count();
            assert!(differ > 32, "{name}: seeds barely differ ({differ}/64)");
            assert_eq!(inputs.stream_fingerprint(5), inputs.stream_fingerprint(5));
            assert_ne!(inputs.stream_fingerprint(5), inputs.stream_fingerprint(6));
        }
    }

    #[test]
    fn hot_stream_repeats_and_neardup_mixes_modes() {
        let hot = quick("hot_serve");
        let mut keys: Vec<Vec<u8>> = (0..2000).map(|i| hot.request(1, i).key()).collect();
        keys.sort();
        keys.dedup();
        assert!(
            keys.len() < 400,
            "hot stream has {} distinct keys",
            keys.len()
        );
        assert_eq!(hot.hot_set(1).len(), HOT_QUERIES);

        let nd = quick("neardup_modes");
        let len = nd.pool_len() as u64;
        let exact = (0..len).filter(|&i| nd.request(1, i).is_exact()).count();
        assert!((len as usize * 3 / 10..len as usize / 2).contains(&exact));
        // Every epoch replays the whole pool, in a seed-keyed order.
        let epoch = |seed, e: u64| -> Vec<Vec<u8>> {
            (e * len..(e + 1) * len)
                .map(|i| nd.request(seed, i).key())
                .collect()
        };
        let (a, b) = (epoch(1, 0), epoch(2, 3));
        assert_ne!(a, b);
        let sorted = |mut v: Vec<Vec<u8>>| {
            v.sort();
            v
        };
        assert_eq!(sorted(a), sorted(b));
    }

    #[test]
    fn corpus_fingerprint_sees_one_changed_count() {
        let mut inputs = quick("hot_serve");
        let before = inputs.corpus_fingerprint();
        inputs.pool[0].terms[0].1 += 1;
        assert_ne!(before, inputs.corpus_fingerprint());
    }
}
