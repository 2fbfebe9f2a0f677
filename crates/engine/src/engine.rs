//! The serving engine: admission → generation-scoped cache → segmented
//! merged search, with live updates behind copy-on-write snapshots.
//!
//! [`Engine`] owns an [`Arc`]-swapped [`SegmentedIndex`] snapshot and
//! serves diversified top-k queries through the exact same
//! [`divtopk_text::search::search_with_source`] path as the single-machine
//! [`divtopk_text::DiversifiedSearcher`], with one
//! [`divtopk_core::MergedSource`] recombining one per-segment source per
//! query (tombstones filtered at the merge — DESIGN.md §9):
//!
//! * single-keyword queries merge per-segment posting-list scans in
//!   **incremental** mode — emission and bound sequence *identical* to a
//!   scan of the from-scratch rebuild of the surviving docs, so the whole
//!   framework run (hits, metrics, early-stop point) is bit-for-bit that
//!   of the rebuild;
//! * multi-keyword queries merge per-segment threshold algorithms in
//!   **bounding** mode — same exact optimum over the live set, reached
//!   down a (often cheaper) different pull sequence.
//!
//! ## Snapshots and epochs
//!
//! Mutations ([`Engine::add_docs`], [`Engine::delete_docs`],
//! [`Engine::compact`]) never touch state a reader can see: a writer
//! clones the current [`SegmentedIndex`] (cheap — segments are `Arc`s;
//! only what the mutation touches is deep-copied), applies the change, and
//! swaps a fresh `Arc<Snapshot>` with a bumped **generation** counter.
//! Every query pins one snapshot at admission and runs entirely against
//! it, so in-flight queries are never torn across generations — they
//! simply finish on the epoch they started on.
//!
//! The LRU cache key embeds the pinned generation, re-resolved **per
//! query at cache-probe time** (also inside [`Engine::search_batch`], so a
//! mutation mid-batch can never serve one query another generation's
//! result). Entries of older generations become unreachable the instant a
//! mutation lands — dead on arrival, reclaimed lazily by LRU eviction.
//!
//! Batches run on a scoped `std::thread` pool (no external dependencies):
//! workers claim queries off an atomic cursor, so a slow query never
//! convoys the rest of the batch behind it. That is the engine's only
//! parallelism: each query pulls all of its segments on its own thread.

use crate::cache::{CacheStats, LruCache};
use divtopk_core::SearchError;
use divtopk_core::sync::{
    self, lock_unpoisoned, read_unpoisoned, wait_unpoisoned, write_unpoisoned,
};
use divtopk_text::corpus::Corpus;
use divtopk_text::document::{DocId, Document, TermId};
use divtopk_text::persist::{self, SaveReport, SnapshotError};
use divtopk_text::query::KeywordQuery;
use divtopk_text::search::{SearchOptions, SearchOutput};
use divtopk_text::segments::SegmentedIndex;
use std::collections::HashSet;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

/// Engine deployment configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of base segments the initial corpus is partitioned into
    /// (round-robin, ≥ 1) — the serving-parallelism axis; live additions
    /// append further segments on top.
    pub shards: usize,
    /// LRU result-cache capacity in entries; 0 disables caching.
    pub cache_capacity: usize,
    /// Worker threads for [`Engine::search_batch`]; 0 means "one per
    /// available CPU" (`std::thread::available_parallelism`).
    pub threads: usize,
}

impl EngineConfig {
    /// A configuration with `shards` base segments, a 4096-entry cache,
    /// and auto-sized batch workers.
    pub fn new(shards: usize) -> EngineConfig {
        EngineConfig {
            shards,
            cache_capacity: 4096,
            threads: 0,
        }
    }

    /// Overrides the result-cache capacity (0 disables caching).
    pub fn with_cache_capacity(mut self, capacity: usize) -> EngineConfig {
        self.cache_capacity = capacity;
        self
    }

    /// Overrides the batch worker-thread count (0 = auto).
    pub fn with_threads(mut self, threads: usize) -> EngineConfig {
        self.threads = threads;
        self
    }
}

impl Default for EngineConfig {
    /// One base segment, 4096-entry cache, auto-sized workers.
    fn default() -> EngineConfig {
        EngineConfig::new(1)
    }
}

/// One query for the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Query {
    /// Single-keyword query served by merged posting-list scans
    /// (incremental framework).
    Scan(TermId),
    /// Multi-keyword query served by merged threshold algorithms
    /// (bounding framework).
    Keywords(KeywordQuery),
}

/// Normalized cache key:
/// `(generation, query, k, τ quantized, algorithm fingerprint)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    /// The snapshot generation the probing query pinned. Any mutation
    /// bumps the engine's generation, so entries computed against an
    /// older epoch can never be served to a younger query (and vice
    /// versa) — the stale entries are simply unreachable and age out.
    generation: u64,
    query: QueryKey,
    k: usize,
    /// `τ` quantized to 1e-9 steps — float keys need a stable identity,
    /// and operating points closer than 1e-9 in τ are indistinguishable
    /// for any realistic similarity function.
    tau_q: u64,
    /// `Debug` fingerprint of (algorithm, limits, bound decay): every
    /// knob that can change the output (including its metrics) must key
    /// the cache, or "bit-identical cache hits" would be a lie.
    algo: String,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum QueryKey {
    Scan(TermId),
    /// Sorted, deduplicated terms.
    Keywords(Vec<TermId>),
}

impl CacheKey {
    fn new(query: &Query, options: &SearchOptions, generation: u64) -> CacheKey {
        let query = match query {
            Query::Scan(term) => QueryKey::Scan(*term),
            Query::Keywords(q) => {
                let mut terms = q.terms.clone();
                terms.sort_unstable();
                terms.dedup();
                QueryKey::Keywords(terms)
            }
        };
        CacheKey {
            generation,
            query,
            k: options.k,
            tau_q: (options.tau * 1e9).round() as u64,
            // The mode's Debug form spells out every mode parameter (λ,
            // window knobs, neighbor count, cut configuration) at full
            // precision, so no two distinct configurations can collide —
            // the cross-mode/cross-λ isolation regression tests pin this.
            algo: format!(
                "{:?}|{:?}|{}",
                options.mode, options.limits, options.bound_decay
            ),
        }
    }
}

/// Aggregate serving counters ([`divtopk_core::FrameworkMetrics`]-style:
/// plain `Copy` data, snapshotted by [`Engine::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Queries admitted (cache hits included; rejected options excluded).
    pub queries: u64,
    /// Queries rejected at admission ([`SearchOptions::validate`]).
    pub rejected: u64,
    /// Batches executed via [`Engine::search_batch`].
    pub batches: u64,
    /// Result-cache lookups that hit.
    pub cache_hits: u64,
    /// Result-cache lookups that missed.
    pub cache_misses: u64,
    /// Results computed and stored (single-flighted: W concurrent
    /// duplicates of one query produce exactly one insertion).
    pub cache_insertions: u64,
    /// Result-cache evictions.
    pub cache_evictions: u64,
    /// Live result-cache entries (stale generations included until LRU
    /// eviction reclaims them).
    pub cache_entries: usize,
    /// Snapshot generation: 0 at build, +1 per effective mutation.
    pub generation: u64,
    /// Segments in the current snapshot (base partitions + live adds,
    /// minus compactions).
    pub segments: usize,
    /// Tombstoned documents in the current snapshot.
    pub tombstones: usize,
    /// Compaction merges performed over the engine's lifetime.
    pub compactions: u64,
    /// Always 0: every query pulls its segments on its own thread, none
    /// on a pool. Kept for readers compiled against the field, such as
    /// `benchmarks/e2e`'s `core.pool.parallel_pulls_share`.
    pub parallel_pulls: u64,
    /// What [`EngineConfig::shards`] asked for at construction time.
    /// Compare with [`EngineStats::segments`] and
    /// [`EngineStats::layout_from_snapshot`] to see whether the request
    /// took effect: a snapshot's layout always wins (see
    /// [`Engine::load_snapshot`]).
    pub configured_shards: usize,
    /// True when the serving segment layout came from a snapshot
    /// ([`Engine::load_snapshot`] or [`Engine::reload_snapshot`]) rather
    /// than from partitioning a corpus by `config.shards`.
    pub layout_from_snapshot: bool,
}

/// One immutable serving epoch: a generation number and the segmented
/// index state queries of that epoch run against.
#[derive(Debug)]
struct Snapshot {
    generation: u64,
    index: SegmentedIndex,
}

/// The segmented, cached, concurrent, live-updatable serving engine (see
/// module docs and the crate-level example).
#[derive(Debug)]
pub struct Engine {
    /// The copy-on-write swap point: readers clone the `Arc` (pinning an
    /// epoch), writers replace it.
    snapshot: RwLock<Arc<Snapshot>>,
    /// Serializes writers; readers never take it.
    writer: Mutex<()>,
    cache: Mutex<LruCache<CacheKey, SearchOutput>>,
    cache_capacity: usize,
    /// Keys currently being computed by some caller (single-flight).
    inflight: Mutex<HashSet<CacheKey>>,
    /// Signalled whenever an in-flight computation finishes.
    inflight_done: Condvar,
    threads: usize,
    queries: AtomicU64,
    rejected: AtomicU64,
    batches: AtomicU64,
    /// What `config.shards` asked for — surfaced via [`Engine::stats`]
    /// so a snapshot-loaded engine can't silently masquerade as a
    /// `config.shards`-partitioned one.
    configured_shards: usize,
    /// True once the serving layout came from a snapshot (construction
    /// via [`Engine::load_snapshot`], or any later
    /// [`Engine::reload_snapshot`]).
    layout_from_snapshot: AtomicBool,
}

impl Engine {
    /// Builds the engine: partitions the corpus into the base segments
    /// and sizes the cache.
    ///
    /// # Panics
    /// Panics if `config.shards == 0` (deployment configuration error).
    pub fn new(corpus: Corpus, config: EngineConfig) -> Engine {
        Engine::from_state(
            SegmentedIndex::build_partitioned(corpus, config.shards),
            0,
            &config,
            false,
        )
    }

    /// Assembles an engine around an existing serving state at a given
    /// generation — the shared path behind [`Engine::new`] and
    /// [`Engine::load_snapshot`]. `layout_from_snapshot` records where
    /// the segment layout came from (surfaced in [`EngineStats`]).
    fn from_state(
        index: SegmentedIndex,
        generation: u64,
        config: &EngineConfig,
        layout_from_snapshot: bool,
    ) -> Engine {
        let threads = if config.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            config.threads
        };
        Engine {
            snapshot: RwLock::new(Arc::new(Snapshot { generation, index })),
            writer: Mutex::new(()),
            cache: Mutex::new(LruCache::new(config.cache_capacity)),
            cache_capacity: config.cache_capacity,
            inflight: Mutex::new(HashSet::new()),
            inflight_done: Condvar::new(),
            threads,
            queries: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            configured_shards: config.shards,
            layout_from_snapshot: AtomicBool::new(layout_from_snapshot),
        }
    }

    /// Pins the current snapshot: the returned epoch stays fully readable
    /// (and internally consistent) no matter how many mutations land
    /// afterwards.
    fn pin(&self) -> Arc<Snapshot> {
        Arc::clone(&read_unpoisoned(&self.snapshot))
    }

    /// The corpus view of the current snapshot (all documents ever added,
    /// frozen statistics epoch). A shared handle: it reflects the
    /// generation current at call time and stays valid after mutations.
    pub fn corpus(&self) -> Arc<Corpus> {
        self.pin().index.shared_corpus()
    }

    /// The current snapshot generation (0 until the first mutation).
    pub fn generation(&self) -> u64 {
        self.pin().generation
    }

    /// Worker threads used by [`Engine::search_batch`].
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Always 0: the engine runs no parallel-pull pool. Kept for callers
    /// that size a pooled comparison from it (`benchmarks/e2e` runs none
    /// when it reads 0).
    pub fn pull_workers(&self) -> usize {
        0
    }

    /// Installs a mutated index as the next generation. Callers must hold
    /// the writer lock.
    fn install(&self, generation: u64, index: SegmentedIndex) {
        *write_unpoisoned(&self.snapshot) = Arc::new(Snapshot { generation, index });
    }

    /// Appends `docs` as one new immutable segment and publishes a new
    /// snapshot generation. In-flight queries keep reading their pinned
    /// epoch; queries admitted afterwards see the new documents. Returns
    /// the assigned doc-id range (empty batches are no-ops that do not
    /// bump the generation).
    ///
    /// # Panics
    /// Panics if a document references a term outside the frozen
    /// vocabulary (the statistics epoch cannot grow mid-flight).
    pub fn add_docs(&self, docs: Vec<Document>) -> Range<DocId> {
        let _writer = lock_unpoisoned(&self.writer);
        let current = self.pin();
        if docs.is_empty() {
            let n = current.index.num_docs() as DocId;
            return n..n;
        }
        let mut index = current.index.clone();
        let range = index.add_docs(docs);
        self.install(current.generation + 1, index);
        range
    }

    /// Tokenizes `text` against the frozen vocabulary (stop words and
    /// out-of-vocabulary terms dropped) and adds it as a one-document
    /// segment. Returns the new doc id.
    pub fn add_text(&self, title: &str, text: &str) -> DocId {
        let _writer = lock_unpoisoned(&self.writer);
        let current = self.pin();
        let mut index = current.index.clone();
        let id = index.add_text(title, text);
        self.install(current.generation + 1, index);
        id
    }

    /// Tombstones the given documents and publishes a new snapshot
    /// generation (unless nothing was newly deleted). Returns how many
    /// documents were newly deleted.
    ///
    /// # Panics
    /// Panics on a doc id that was never allocated.
    pub fn delete_docs(&self, docs: &[DocId]) -> usize {
        let _writer = lock_unpoisoned(&self.writer);
        let current = self.pin();
        let mut index = current.index.clone();
        let deleted = index.delete_docs(docs);
        if deleted > 0 {
            self.install(current.generation + 1, index);
        }
        deleted
    }

    /// Runs one size-tiered compaction step (merging the smallest tier of
    /// segments, purging tombstoned postings) and publishes a new
    /// generation if anything merged. Returns the number of segments
    /// merged away (0 = nothing to do).
    pub fn compact(&self) -> usize {
        let _writer = lock_unpoisoned(&self.writer);
        let current = self.pin();
        let mut index = current.index.clone();
        let merged = index.compact();
        if merged > 0 {
            self.install(current.generation + 1, index);
        }
        merged
    }

    /// Persists the current serving state — corpus epoch, weight table,
    /// every segment's posting lists (bit-exact via [`f64::to_bits`]),
    /// tombstones, compaction counter, and the snapshot generation — to
    /// the snapshot **directory** `dir` in the segment-granular layout of
    /// [`divtopk_text::persist`] (DESIGN.md §14). The save is
    /// incremental: files the directory's previous checkpoint already
    /// holds (unchanged segments, sealed document chunks, the epoch) are
    /// reused, so a steady-state checkpoint writes O(what changed) bytes.
    /// Caches and serving counters are deliberately not part of the
    /// durable state. Returns the [`SaveReport`] describing the work.
    ///
    /// The save pins one snapshot, so a concurrent mutation can never
    /// tear the directory: what lands on disk is exactly one generation.
    pub fn save_snapshot(&self, dir: impl AsRef<Path>) -> Result<SaveReport, SnapshotError> {
        let snap = self.pin();
        persist::save_segmented(dir, &snap.index, snap.generation)
    }

    /// Restores an engine from a snapshot written by
    /// [`Engine::save_snapshot`]: the loaded serving state is
    /// byte-identical to the saved one (scan outputs, metrics, early-stop
    /// points, TA optima — `tests/persistence.rs` pins this), and the
    /// generation counter resumes where the saved engine stood. The
    /// result cache starts empty and the serving counters start at zero —
    /// they are process state, not index state.
    ///
    /// **Precedence:** the snapshot's segment layout always wins over
    /// `config.shards` — the saved segments are restored as-is and the
    /// corpus is never re-partitioned (cache capacity and worker threads
    /// apply as usual). The override is not silent: [`Engine::stats`]
    /// reports both the requested `configured_shards` and
    /// `layout_from_snapshot = true`, so operators can see that the
    /// serving layout came from the snapshot directory.
    /// Corrupt input returns a typed [`SnapshotError`], never a panic.
    pub fn load_snapshot(
        path: impl AsRef<Path>,
        config: &EngineConfig,
    ) -> Result<Engine, SnapshotError> {
        let (index, generation) = persist::load_segmented(path)?;
        Ok(Engine::from_state(index, generation, config, true))
    }

    /// Swaps the serving state to the snapshot at `path` **without
    /// restarting the engine** — the serving tier's graceful reload.
    /// In-flight queries finish on their pinned epoch; queries admitted
    /// after the swap see the loaded state. Returns the new generation.
    ///
    /// The published generation is `max(loaded, current + 1)`: strictly
    /// greater than every generation this engine has ever served, so no
    /// pre-reload cache entry (keyed on generation) can ever answer a
    /// post-reload query, even when the snapshot on disk carries an older
    /// counter than the live engine. A corrupt or unreadable snapshot is
    /// a typed [`SnapshotError`] and leaves the serving state untouched.
    pub fn reload_snapshot(&self, path: impl AsRef<Path>) -> Result<u64, SnapshotError> {
        let _writer = lock_unpoisoned(&self.writer);
        let (index, loaded) = persist::load_segmented(path)?;
        let generation = loaded.max(self.pin().generation + 1);
        self.install(generation, index);
        // RELAXED: provenance flag — monotonic bool read only by
        // `stats()`, no ordering with the snapshot swap required.
        self.layout_from_snapshot.store(true, Ordering::Relaxed);
        Ok(generation)
    }

    /// Diagnostic: verifies the current snapshot's rebuild-equivalence
    /// invariant directly on the data (see
    /// [`SegmentedIndex::verify_rebuild_equivalence`]). `tests/live_update.rs`
    /// and `tests/persistence.rs` run it after mutating and after loading.
    pub fn verify_rebuild_equivalence(&self) -> Result<(), String> {
        self.pin().index.verify_rebuild_equivalence()
    }

    /// Admission, shared by every search entry: pins one epoch for the
    /// query's whole lifetime (admission, cache probe and execution all
    /// see the same generation, so a mutation landing mid-query can never
    /// tear the answer), validates options *and* query terms against it —
    /// malformed input is a typed error, never a worker panic — and
    /// counts the outcome.
    fn admit(&self, query: &Query, options: &SearchOptions) -> Result<Arc<Snapshot>, SearchError> {
        let snap = self.pin();
        let admission = options.validate().and_then(|()| {
            let terms: &[TermId] = match query {
                Query::Scan(term) => std::slice::from_ref(term),
                Query::Keywords(q) => &q.terms,
            };
            snap.index.validate_terms(terms)
        });
        if let Err(e) = admission {
            // RELAXED: monotonic stats counters — read only by `stats()`
            // snapshots, which tolerate any interleaving; nothing is
            // published or acquired through them.
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        // RELAXED: same — monotonic stats counter.
        self.queries.fetch_add(1, Ordering::Relaxed);
        Ok(snap)
    }

    /// Serves one query: admission ([`SearchOptions::validate`] plus the
    /// query terms), a snapshot pin, cache lookup under the pinned
    /// generation, then the segmented merged search on a miss. Cache hits
    /// return a clone of the original [`SearchOutput`], bit-identical
    /// metrics included. Concurrent misses on the same key are
    /// **single-flighted**: one caller computes, the rest wait and serve
    /// the cached result.
    pub fn search(
        &self,
        query: &Query,
        options: &SearchOptions,
    ) -> Result<SearchOutput, SearchError> {
        self.search_pinned(query, options).map(|(out, _)| out)
    }

    /// [`Engine::search`], also returning the generation of the snapshot
    /// the query pinned — what the server must report on the wire (a
    /// separate `generation()` read can straddle a write).
    pub(crate) fn search_pinned(
        &self,
        query: &Query,
        options: &SearchOptions,
    ) -> Result<(SearchOutput, u64), SearchError> {
        let snap = self.admit(query, options)?;
        let generation = snap.generation;
        if self.cache_capacity == 0 {
            // Caching disabled: no store to single-flight against (and no
            // point paying for key normalization on the uncached path).
            return Ok((self.execute(&snap, query, options)?, generation));
        }
        let key = CacheKey::new(query, options, generation);
        loop {
            // The cache lookup happens *under* the inflight lock: a
            // computer inserts into the cache before removing its
            // inflight key, so "key absent from both" race-freely means
            // this caller should compute. (Lock order is always
            // inflight→cache; the insert/remove paths hold one at a
            // time, so there is no inversion.)
            let mut inflight = lock_unpoisoned(&self.inflight);
            if let Some(hit) = lock_unpoisoned(&self.cache).get(&key) {
                return Ok((hit.clone(), generation));
            }
            if !inflight.contains(&key) {
                inflight.insert(key.clone());
                break; // this caller computes
            }
            // Another caller is computing this key: wait for it to finish
            // (it inserts into the cache before waking us), then re-check.
            drop(wait_unpoisoned(&self.inflight_done, inflight));
        }
        // Releases the inflight claim and wakes waiters on every exit
        // path — including a panic inside `execute` (a leaked key would
        // park every waiter on the condvar forever, and `thread::scope`
        // would then hang joining them instead of propagating the panic).
        struct InflightClaim<'a> {
            inflight: &'a Mutex<HashSet<CacheKey>>,
            done: &'a Condvar,
            key: &'a CacheKey,
        }
        impl Drop for InflightClaim<'_> {
            fn drop(&mut self) {
                let mut inflight = lock_unpoisoned(self.inflight);
                inflight.remove(self.key);
                self.done.notify_all();
            }
        }
        let claim = InflightClaim {
            inflight: &self.inflight,
            done: &self.inflight_done,
            key: &key,
        };
        // Compute outside every lock: a slow query must serialize neither
        // the serving tier (cache mutex) nor unrelated misses (inflight).
        let result = self.execute(&snap, query, options);
        if let Ok(out) = &result {
            lock_unpoisoned(&self.cache).insert(key.clone(), out.clone());
        }
        // The claim drops here — strictly after the cache insert, so a
        // woken waiter always finds the entry.
        drop(claim);
        Ok((result?, generation))
    }

    /// Serves one query **bypassing the result cache**: same admission,
    /// same snapshot pin, same segmented execution as [`Engine::search`],
    /// but the cache is neither probed nor populated. For measurement
    /// paths that must observe real execution cost every time — the
    /// quality harness's cold-cache sweeps — without disturbing the
    /// cache's contents or hit/miss counters for production traffic.
    pub fn search_uncached(
        &self,
        query: &Query,
        options: &SearchOptions,
    ) -> Result<SearchOutput, SearchError> {
        let snap = self.admit(query, options)?;
        self.execute(&snap, query, options)
    }

    /// Executes a batch concurrently on the scoped worker pool; results
    /// come back in input order. Each query is admitted, **snapshot-
    /// pinned, and generation-checked at its own cache probe** exactly as
    /// in [`Engine::search`] — a mutation landing mid-batch moves later
    /// queries to the new generation but can never serve them another
    /// epoch's cached result.
    pub fn search_batch(
        &self,
        batch: &[(Query, SearchOptions)],
    ) -> Vec<Result<SearchOutput, SearchError>> {
        // RELAXED: monotonic stats counter (see `stats()`).
        self.batches.fetch_add(1, Ordering::Relaxed);
        let workers = self.threads.min(batch.len()).max(1);
        if workers == 1 {
            return batch
                .iter()
                .map(|(query, options)| self.search(query, options))
                .collect();
        }
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<Result<SearchOutput, SearchError>>>> =
            batch.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    loop {
                        // RELAXED: the counter only claims distinct
                        // indices; slot writes are ordered by each slot's
                        // own mutex, and scope join publishes everything.
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some((query, options)) = batch.get(i) else {
                            break;
                        };
                        *lock_unpoisoned(&slots[i]) = Some(self.search(query, options));
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                // LINT-ALLOW(panic): the scope above joins every worker, and
                // the cursor hands each index to exactly one of them — an
                // empty slot here is a structural bug, not a runtime state.
                sync::unpoisoned(slot.into_inner()).expect("every batch slot is filled by a worker")
            })
            .collect()
    }

    /// Counter snapshot (queries, rejections, batches, cache behaviour,
    /// plus the live-update state: generation, segments, tombstones,
    /// compactions).
    pub fn stats(&self) -> EngineStats {
        let snap = self.pin();
        let cache = lock_unpoisoned(&self.cache);
        let cache_stats: CacheStats = cache.stats();
        EngineStats {
            // RELAXED: stats snapshot — each counter is independently
            // monotonic; a torn multi-counter view is acceptable by the
            // method's contract (diagnostics, not invariants).
            queries: self.queries.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            cache_hits: cache_stats.hits,
            cache_misses: cache_stats.misses,
            cache_insertions: cache_stats.insertions,
            cache_evictions: cache_stats.evictions,
            cache_entries: cache.len(),
            generation: snap.generation,
            segments: snap.index.num_segments(),
            tombstones: snap.index.tombstones(),
            compactions: snap.index.compactions(),
            parallel_pulls: 0,
            configured_shards: self.configured_shards,
            // RELAXED: provenance flag — monotonic bool, diagnostics.
            layout_from_snapshot: self.layout_from_snapshot.load(Ordering::Relaxed),
        }
    }

    fn execute(
        &self,
        snap: &Snapshot,
        query: &Query,
        options: &SearchOptions,
    ) -> Result<SearchOutput, SearchError> {
        // Every segment is pulled here, on the query's own thread.
        // Parallelism is across queries (`search_batch`, the server's
        // connections): pumping one query's segments on a pool answered
        // byte-identically and measured slower (DESIGN.md §8).
        match query {
            Query::Scan(term) => snap.index.search_scan(*term, options),
            Query::Keywords(q) => snap.index.search_ta(q, options),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use divtopk_text::mode::DiversifyMode;
    use divtopk_text::synth::{SynthConfig, generate};

    fn engine(shards: usize) -> Engine {
        let corpus = generate(&SynthConfig {
            num_docs: 200,
            ..SynthConfig::tiny()
        });
        Engine::new(corpus, EngineConfig::new(shards).with_threads(2))
    }

    fn popular_term(e: &Engine) -> TermId {
        let corpus = e.corpus();
        (0..corpus.num_terms() as TermId)
            .max_by_key(|&t| corpus.doc_freq(t))
            .unwrap()
    }

    fn donor_docs(range: std::ops::Range<u32>) -> Vec<Document> {
        let donor = generate(&SynthConfig {
            num_docs: range.end as usize,
            ..SynthConfig::tiny()
        });
        range.map(|d| donor.doc(d).clone()).collect()
    }

    #[test]
    fn engine_is_send_and_sync() {
        fn assert_both<T: Send + Sync>() {}
        assert_both::<Engine>();
    }

    #[test]
    fn cache_hits_are_bit_identical_and_counted() {
        let e = engine(4);
        let term = popular_term(&e);
        let options = SearchOptions::new(3).with_tau(0.5);
        let first = e.search(&Query::Scan(term), &options).unwrap();
        let second = e.search(&Query::Scan(term), &options).unwrap();
        assert_eq!(first, second);
        let stats = e.stats();
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_entries, 1);
    }

    #[test]
    fn cache_key_normalizes_term_order_but_not_operating_point() {
        let e = engine(2);
        let t1 = popular_term(&e);
        let corpus = e.corpus();
        let t2 = (0..corpus.num_terms() as TermId)
            .filter(|&t| t != t1)
            .max_by_key(|&t| corpus.doc_freq(t))
            .unwrap();
        let options = SearchOptions::new(3).with_tau(0.5);
        let ab = KeywordQuery {
            terms: vec![t1, t2],
        };
        let ba = KeywordQuery {
            terms: vec![t2, t1],
        };
        let out1 = e.search(&Query::Keywords(ab), &options).unwrap();
        let out2 = e.search(&Query::Keywords(ba), &options).unwrap();
        assert_eq!(out1, out2);
        assert_eq!(e.stats().cache_hits, 1, "term order must normalize away");
        // A different (k, τ) operating point is a different entry.
        let _ = e
            .search(&Query::Scan(t1), &SearchOptions::new(3).with_tau(0.5))
            .unwrap();
        let _ = e
            .search(&Query::Scan(t1), &SearchOptions::new(3).with_tau(0.6))
            .unwrap();
        let stats = e.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_entries, 3);
    }

    #[test]
    fn admission_rejects_and_counts_invalid_options() {
        let e = engine(2);
        let term = popular_term(&e);
        assert!(matches!(
            e.search(&Query::Scan(term), &SearchOptions::new(0)),
            Err(SearchError::InvalidK { k: 0 })
        ));
        assert!(matches!(
            e.search(
                &Query::Scan(term),
                &SearchOptions::new(3).with_tau(f64::NAN)
            ),
            Err(SearchError::InvalidTau { .. })
        ));
        let stats = e.stats();
        assert_eq!(stats.rejected, 2);
        assert_eq!(stats.queries, 0);
        assert_eq!(
            stats.cache_misses, 0,
            "rejected queries never reach the cache"
        );
    }

    #[test]
    fn batch_results_come_back_in_input_order() {
        let e = engine(4);
        let term = popular_term(&e);
        let batch: Vec<(Query, SearchOptions)> = (1..=6)
            .map(|k| (Query::Scan(term), SearchOptions::new(k).with_tau(0.7)))
            .collect();
        let outs = e.search_batch(&batch);
        assert_eq!(outs.len(), 6);
        for (i, out) in outs.iter().enumerate() {
            let out = out.as_ref().unwrap();
            assert!(
                out.hits.len() <= i + 1,
                "slot {i} answered with k > {}",
                i + 1
            );
        }
        // Batch answers equal sequential answers.
        for ((query, options), got) in batch.iter().zip(&outs) {
            let want = e.search(query, options).unwrap();
            assert_eq!(&want, got.as_ref().unwrap());
        }
        assert_eq!(e.stats().batches, 1);
    }

    #[test]
    fn batch_propagates_per_query_errors_without_poisoning_others() {
        let e = engine(2);
        let term = popular_term(&e);
        let bogus = e.corpus().num_terms() as TermId + 7;
        let batch = vec![
            (Query::Scan(term), SearchOptions::new(3).with_tau(0.7)),
            (Query::Scan(term), SearchOptions::new(0)),
            // Out-of-vocabulary term ids must come back as typed errors,
            // not panic a scoped worker and abort the whole batch.
            (Query::Scan(bogus), SearchOptions::new(3).with_tau(0.7)),
            (
                Query::Keywords(KeywordQuery {
                    terms: vec![term, bogus],
                }),
                SearchOptions::new(3).with_tau(0.7),
            ),
            (Query::Scan(term), SearchOptions::new(2).with_tau(0.7)),
        ];
        let outs = e.search_batch(&batch);
        assert!(outs[0].is_ok());
        assert!(matches!(outs[1], Err(SearchError::InvalidK { k: 0 })));
        assert!(matches!(outs[2], Err(SearchError::UnknownTerm { term }) if term == bogus));
        assert!(matches!(outs[3], Err(SearchError::UnknownTerm { term }) if term == bogus));
        assert!(outs[4].is_ok());
        assert_eq!(e.stats().rejected, 3);
    }

    #[test]
    fn concurrent_duplicate_misses_are_single_flighted() {
        let e = engine(4); // 2 worker threads
        let term = popular_term(&e);
        let batch: Vec<(Query, SearchOptions)> = (0..8)
            .map(|_| (Query::Scan(term), SearchOptions::new(4).with_tau(0.5)))
            .collect();
        let outs = e.search_batch(&batch);
        let first = outs[0].as_ref().unwrap();
        for out in &outs {
            assert_eq!(first, out.as_ref().unwrap());
        }
        // Exactly one computation happened; every other caller either hit
        // the cache or waited on the in-flight one and then hit it.
        let stats = e.stats();
        assert_eq!(stats.cache_insertions, 1);
        assert_eq!(stats.queries, 8);
    }

    #[test]
    fn mutations_bump_generation_and_surface_in_stats() {
        let e = engine(2);
        assert_eq!(e.generation(), 0);
        let stats = e.stats();
        assert_eq!((stats.generation, stats.segments), (0, 2));
        assert_eq!((stats.tombstones, stats.compactions), (0, 0));

        let range = e.add_docs(donor_docs(200..212));
        assert_eq!(range, 200..212);
        assert_eq!(e.generation(), 1);
        assert_eq!(e.stats().segments, 3);

        assert_eq!(e.delete_docs(&[201, 202]), 2);
        assert_eq!(e.generation(), 2);
        assert_eq!(e.stats().tombstones, 2);
        // Deleting nothing new does not publish a generation.
        assert_eq!(e.delete_docs(&[201]), 0);
        assert_eq!(e.generation(), 2);

        // Add two more small segments, then compact the small tier away.
        e.add_docs(donor_docs(212..220));
        e.add_docs(donor_docs(220..228));
        assert_eq!(e.stats().segments, 5);
        assert!(e.compact() >= 2);
        let stats = e.stats();
        assert_eq!(stats.compactions, 1);
        assert!(stats.segments < 5);
        e.verify_rebuild_equivalence().unwrap();
        // Empty add is a no-op.
        let g = e.generation();
        let n = e.corpus().num_docs() as DocId;
        assert_eq!(e.add_docs(Vec::new()), n..n);
        assert_eq!(e.generation(), g);
    }

    #[test]
    fn added_docs_become_searchable_and_deleted_docs_vanish() {
        let e = engine(2);
        let term = popular_term(&e);
        let options = SearchOptions::new(4).with_tau(0.5);
        let before = e.search(&Query::Scan(term), &options).unwrap();
        assert!(!before.hits.is_empty());
        let top = before.hits[0].doc;
        e.delete_docs(&[top]);
        let after = e.search(&Query::Scan(term), &options).unwrap();
        assert!(
            after.hits.iter().all(|h| h.doc != top),
            "deleted doc still served"
        );
        // Re-adding a fresh copy of the deleted doc's content brings an
        // equally scored hit back under a new id.
        let copy = e.corpus().doc(top).clone();
        let range = e.add_docs(vec![copy]);
        let readded = e.search(&Query::Scan(term), &options).unwrap();
        assert!(
            readded.hits.iter().any(|h| h.doc == range.start),
            "re-added doc not served"
        );
    }

    #[test]
    fn diversify_flag_keys_the_cache_separately() {
        let e = engine(2);
        let term = popular_term(&e);
        let on = SearchOptions::new(4).with_tau(0.3);
        let off = on.clone().with_mode(DiversifyMode::None);
        let out_on = e.search(&Query::Scan(term), &on).unwrap();
        let out_off = e.search(&Query::Scan(term), &off).unwrap();
        let stats = e.stats();
        assert_eq!(
            stats.cache_entries, 2,
            "diversify on/off must be distinct cache entries"
        );
        assert_eq!(stats.cache_hits, 0);
        // The off path is plain top-k: total score is an upper bound on
        // the diversified total for the same query.
        assert!(out_off.total_score.get() >= out_on.total_score.get() - 1e-9);
        // Repeats of each variant hit their own entry with the right bits.
        assert_eq!(e.search(&Query::Scan(term), &on).unwrap(), out_on);
        assert_eq!(e.search(&Query::Scan(term), &off).unwrap(), out_off);
        assert_eq!(e.stats().cache_hits, 2);
    }

    #[test]
    fn every_mode_parameter_keys_the_cache_separately() {
        // Regression for the mode redesign: two modes — and two λ values
        // of the *same* mode — must never serve each other's cached
        // entry, across both `search` and `search_batch`.
        let e = engine(2);
        let term = popular_term(&e);
        let variants: Vec<SearchOptions> = [
            DiversifyMode::exact(),
            DiversifyMode::None,
            DiversifyMode::mmr(0.95),
            DiversifyMode::mmr(0.05),
            DiversifyMode::window(),
            DiversifyMode::Disc,
            DiversifyMode::knn(),
        ]
        .into_iter()
        .map(|mode| SearchOptions::new(6).with_tau(0.3).with_mode(mode))
        .collect();
        let firsts: Vec<SearchOutput> = variants
            .iter()
            .map(|o| e.search(&Query::Scan(term), o).unwrap())
            .collect();
        let stats = e.stats();
        assert_eq!(stats.cache_entries, variants.len(), "one entry per mode");
        assert_eq!(stats.cache_hits, 0);
        // The two λ values must have produced *different* MMR rankings —
        // otherwise this test can't tell their cache entries apart.
        // λ=0.05 weighs redundancy heavily, λ=0.95 relevance; on the
        // near-dup-rich tiny corpus their orders diverge.
        assert_ne!(firsts[2], firsts[3], "λ must change the MMR output");
        // Repeat every variant through the single-query path: each hits
        // exactly its own entry, bit-identical.
        for (options, first) in variants.iter().zip(&firsts) {
            assert_eq!(&e.search(&Query::Scan(term), options).unwrap(), first);
        }
        assert_eq!(e.stats().cache_hits, variants.len() as u64);
        // And through the batch path: one batch carrying every variant of
        // the same query — each entry must resolve to its own cache slot.
        let batch: Vec<(Query, SearchOptions)> = variants
            .iter()
            .map(|o| (Query::Scan(term), o.clone()))
            .collect();
        for (got, first) in e.search_batch(&batch).iter().zip(&firsts) {
            assert_eq!(got.as_ref().unwrap(), first);
        }
        assert_eq!(e.stats().cache_hits, 2 * variants.len() as u64);
    }

    #[test]
    fn search_uncached_bypasses_but_matches_the_cached_path() {
        let e = engine(2);
        let term = popular_term(&e);
        let options = SearchOptions::new(4).with_tau(0.5);
        let a = e.search_uncached(&Query::Scan(term), &options).unwrap();
        let b = e.search_uncached(&Query::Scan(term), &options).unwrap();
        assert_eq!(a, b, "uncached path must be deterministic");
        let stats = e.stats();
        assert_eq!(stats.queries, 2);
        assert_eq!(
            (stats.cache_hits, stats.cache_misses, stats.cache_entries),
            (0, 0, 0),
            "uncached searches must not touch the cache"
        );
        // Same answer as the cached path, and admission still rejects.
        assert_eq!(e.search(&Query::Scan(term), &options).unwrap(), a);
        assert!(matches!(
            e.search_uncached(&Query::Scan(term), &SearchOptions::new(0)),
            Err(SearchError::InvalidK { k: 0 })
        ));
        let bogus = e.corpus().num_terms() as TermId;
        assert!(matches!(
            e.search_uncached(&Query::Scan(bogus), &SearchOptions::new(2)),
            Err(SearchError::UnknownTerm { .. })
        ));
    }

    /// The satellite bugfix pinned as a unit test: cache probes resolve
    /// the generation per query, so a mutation between two identical
    /// queries (or mid-batch) can never serve a pre-mutation result
    /// post-mutation.
    #[test]
    fn cache_cannot_serve_across_generations() {
        let e = engine(2);
        let term = popular_term(&e);
        let options = SearchOptions::new(4).with_tau(0.5);
        let batch: Vec<(Query, SearchOptions)> = vec![(Query::Scan(term), options.clone()); 3];
        let first = e.search_batch(&batch);
        let hits_before = e.stats().cache_hits;
        assert!(hits_before >= 1, "duplicates must hit within a generation");
        let top = first[0].as_ref().unwrap().hits[0].doc;
        e.delete_docs(&[top]);
        // Same batch again: the old generation's entry is unreachable, so
        // the first probe misses, recomputes against the new snapshot, and
        // only *then* duplicates hit again.
        let second = e.search_batch(&batch);
        for out in &second {
            let out = out.as_ref().unwrap();
            assert!(
                out.hits.iter().all(|h| h.doc != top),
                "post-mutation query served a pre-mutation cached result"
            );
        }
        let stats = e.stats();
        assert_eq!(
            stats.cache_insertions, 2,
            "one computation per generation, duplicates single-flighted"
        );
    }
}
