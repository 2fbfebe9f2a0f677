//! The segmented live-update index: LSM-style immutable segments,
//! tombstoned deletes, and size-tiered compaction — with from-scratch
//! rebuild equivalence as the core invariant (DESIGN.md §9).
//!
//! A [`SegmentedIndex`] is an append-only sequence of immutable
//! [`InvertedIndex`] chunks ([`Segment`]s) over **disjoint** global doc-id
//! sets, plus a [`Tombstones`] bitset marking deleted documents:
//!
//! * [`SegmentedIndex::add_docs`] appends documents to the corpus view and
//!   builds one new segment over exactly the new id range — O(batch), not
//!   O(corpus);
//! * [`SegmentedIndex::delete_docs`] only sets tombstone bits — the
//!   segments are never touched;
//! * [`SegmentedIndex::compact`] replaces the smallest size tier of
//!   segments by one **built** over their surviving documents — the
//!   sorted union of their doc ids minus tombstones — with the build
//!   every other segment comes from.
//!
//! ## Why the result is exactly a rebuild
//!
//! Scoring statistics (vocabulary, df, IDF) are **frozen at the epoch the
//! base corpus was built** ([`Corpus::append_frozen`]): every posting in
//! every segment scores with the same global IDF and length normalization
//! a from-scratch [`InvertedIndex::build_where`] over the surviving
//! documents would use, and every list is sorted by the same total
//! order `(partial desc, doc asc)`. Every segment — base, batch or
//! compacted — is that build over its own doc ids, so segment lists are
//! disjoint sorted subsequences of the rebuilt lists, and a k-way merge
//! with the same tie-break, minus tombstones, reproduces the rebuilt
//! lists *item for item, bit for bit* — `tests/segments.rs` pins this for
//! random interleavings of adds, deletes, and compactions.
//!
//! ## Why bounds stay sound under deletion
//!
//! Two lines: a deletion only **shrinks** the candidate set, and an upper
//! bound for a set bounds every subset — so the per-segment sources'
//! unchanged bounds (which still cover the tombstoned docs) remain valid
//! for the live remainder, and their monotonicity is untouched because the
//! bound trajectory never depended on the filter. Reads go through the
//! existing [`MergedSource`] with a tombstone filter
//! ([`MergedSource::incremental_filtered`] /
//! [`MergedSource::bounding_filtered`]), so Lemmas 1–3 apply verbatim.

use crate::chunked::ChunkedVec;
use crate::corpus::Corpus;
use crate::document::{DocId, Document, TermId};
use crate::index::InvertedIndex;
use crate::jaccard::total_weight;
use crate::persist::FileStamp;
use crate::query::KeywordQuery;
use crate::scan::ScanSource;
use crate::search::{SearchOptions, SearchOutput, doc_weights, search_with_source, validate_terms};
use crate::stopwords::is_stopword;
use crate::ta::TaSource;
use crate::tokenize::tokenize;
use divtopk_core::prefetch::{DEFAULT_PREFETCH_DEPTH, PrefetchedSource};
use divtopk_core::{MergedSource, SearchError, WorkerPool};
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// A dense bitset over global doc ids marking deleted documents.
///
/// Tombstone marks are **permanent**: compaction drops a deleted
/// document's postings, but its id is never reused and its mark is never
/// cleared (the id space is append-only), so `contains` answers "was this
/// document ever deleted" for the index's whole lifetime.
#[derive(Debug, Clone, Default)]
pub struct Tombstones {
    words: Vec<u64>,
    len: usize,
}

impl Tombstones {
    /// Marks `doc` deleted; returns true if it was live before.
    fn insert(&mut self, doc: DocId) -> bool {
        let (word, bit) = (doc as usize / 64, doc as usize % 64);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let mask = 1u64 << bit;
        let fresh = self.words[word] & mask == 0;
        self.words[word] |= mask;
        self.len += fresh as usize;
        fresh
    }

    /// True iff `doc` is tombstoned.
    #[inline]
    pub fn contains(&self, doc: DocId) -> bool {
        self.words
            .get(doc as usize / 64)
            .is_some_and(|w| w & (1u64 << (doc as usize % 64)) != 0)
    }

    /// Number of tombstoned documents.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is tombstoned.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates the tombstoned doc ids in increasing order — the sparse
    /// form the snapshot manifest stores (O(#deleted) bytes, part of
    /// keeping checkpoints O(delta); see [`crate::persist`]).
    pub(crate) fn iter_ids(&self) -> impl Iterator<Item = DocId> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            (0..64)
                .filter(move |bit| word & (1u64 << bit) != 0)
                .map(move |bit| (w * 64 + bit) as DocId)
        })
    }

    /// Reassembles a tombstone set from decoded sparse doc ids (the
    /// caller has validated order and range).
    pub(crate) fn from_ids(ids: &[DocId]) -> Tombstones {
        let mut t = Tombstones::default();
        for &id in ids {
            t.insert(id);
        }
        t
    }
}

/// One immutable index chunk: an [`InvertedIndex`] over a subset of the
/// corpus's documents, disjoint from every other segment's subset.
#[derive(Debug)]
pub struct Segment {
    /// Lineage-unique id, assigned monotonically by the owning
    /// [`SegmentedIndex`] and never reused — the incremental snapshot
    /// layer (DESIGN.md §14) keys segment files by it.
    id: u64,
    index: InvertedIndex,
    /// Distinct documents with at least one posting in this segment —
    /// the segment's size for the tiered compaction policy.
    doc_count: usize,
    /// The snapshot file this segment was durably written as, or loaded
    /// from: a save reuses the file a prior manifest names only when it
    /// records exactly this stamp ([`crate::persist`]). A segment never
    /// changes, so the memo never goes stale.
    file: OnceLock<FileStamp>,
}

impl Segment {
    /// A segment over the documents `ids` (strictly increasing) of
    /// `corpus`. The build gives a document a posting per term unless
    /// its length is 0, so those are the documents it counts.
    pub(crate) fn build(
        id: u64,
        corpus: &Corpus,
        ids: impl Iterator<Item = DocId> + Clone,
    ) -> Segment {
        let index = InvertedIndex::build_from_ids(corpus, ids.clone());
        let held = |d: DocId| corpus.doc(d).len != 0 && !corpus.doc(d).terms.is_empty();
        Segment {
            id,
            index,
            doc_count: ids.filter(|&d| held(d)).count(),
            file: OnceLock::new(),
        }
    }

    /// A segment holding `index` as given (test layouts).
    #[cfg(test)]
    fn new(id: u64, index: InvertedIndex) -> Segment {
        Segment {
            id,
            doc_count: index.doc_ids().len(),
            index,
            file: OnceLock::new(),
        }
    }

    /// The segment's lineage-unique id (see the field docs).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The snapshot file this segment was written as or loaded from
    /// (see the field docs).
    pub(crate) fn file(&self) -> &OnceLock<FileStamp> {
        &self.file
    }

    /// The segment's inverted index (global doc ids, frozen statistics).
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// Distinct documents materialized in this segment.
    pub fn doc_count(&self) -> usize {
        self.doc_count
    }

    /// Size tier for compaction: `⌊log2(doc_count)⌋` (tier 0 for tiny
    /// segments) — segments in the same tier are within 2× of each other.
    fn tier(&self) -> u32 {
        self.doc_count.max(1).ilog2()
    }
}

/// The segmented live-update index (see module docs).
///
/// Cloning is cheap by design — segments, the corpus view, and the weight
/// table are behind [`Arc`]s — so a serving layer can snapshot the whole
/// structure per mutation (copy-on-write: only the parts a mutation
/// touches are deep-copied, via [`Arc::make_mut`]).
#[derive(Debug, Clone)]
pub struct SegmentedIndex {
    /// All documents ever added, with the frozen statistics epoch.
    corpus: Arc<Corpus>,
    /// Per-document total IDF weight under the frozen epoch (the
    /// similarity prefilter's `W(d)`), extended incrementally on add and
    /// never stored: a snapshot load derives it ([`Self::from_parts`]).
    /// Chunked like the document store, so COW clones share sealed
    /// chunks and an append copies at most the tail chunk.
    weights: ChunkedVec<f64>,
    segments: Vec<Arc<Segment>>,
    deleted: Tombstones,
    compactions: u64,
    /// Next segment id to hand out — monotonic, never reused, so every
    /// segment this lineage ever creates has a distinct id (the
    /// snapshot layer's file key).
    next_segment_id: u64,
}

impl SegmentedIndex {
    /// Builds a segmented index whose single base segment indexes all of
    /// `corpus`. The corpus's statistics become the frozen scoring epoch.
    pub fn build(corpus: Corpus) -> SegmentedIndex {
        SegmentedIndex::build_partitioned(corpus, 1)
    }

    /// Builds the base as `parts` round-robin segments (`doc mod parts`),
    /// so a serving tier can treat base parallelism and live updates
    /// uniformly: both are just segments under one merged read path.
    ///
    /// # Panics
    /// Panics if `parts == 0` (a deployment configuration error).
    pub fn build_partitioned(corpus: Corpus, parts: usize) -> SegmentedIndex {
        assert!(parts >= 1, "segment partition count must be at least 1");
        let segments = (0..parts)
            .map(|p| {
                let ids = (0..corpus.num_docs() as DocId).filter(move |&d| d as usize % parts == p);
                Arc::new(Segment::build(p as u64, &corpus, ids))
            })
            .collect();
        SegmentedIndex::from_parts(
            Arc::new(corpus),
            segments,
            Tombstones::default(),
            0,
            parts as u64,
        )
    }

    /// Assembles a segmented index from its parts: a fresh build's, or
    /// the ones the snapshot loader ([`crate::persist`]) decoded after
    /// validating their shape (segment/corpus term-count agreement,
    /// posting order, id ranges). The weight table is derived, never
    /// stored: [`doc_weights`] under the frozen IDF computes the bits
    /// every add computed.
    pub(crate) fn from_parts(
        corpus: Arc<Corpus>,
        segments: Vec<Arc<Segment>>,
        deleted: Tombstones,
        compactions: u64,
        next_segment_id: u64,
    ) -> SegmentedIndex {
        SegmentedIndex {
            weights: doc_weights(&corpus).into_iter().collect(),
            corpus,
            segments,
            deleted,
            compactions,
            next_segment_id,
        }
    }

    /// The tombstone bitset, for snapshot serialization
    /// ([`crate::persist`]).
    pub(crate) fn tombstone_set(&self) -> &Tombstones {
        &self.deleted
    }

    /// The corpus view: every document ever added, under the frozen
    /// statistics epoch. Deleted documents remain addressable (their ids
    /// are permanent) but never surface in reads.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// The corpus view behind its shared handle (for snapshot layers that
    /// hand out corpus access outliving a borrow of `self`).
    pub fn shared_corpus(&self) -> Arc<Corpus> {
        Arc::clone(&self.corpus)
    }

    /// Per-document total IDF weights under the frozen epoch, in the
    /// chunked COW representation (a [`crate::search::WeightTable`]).
    pub fn weights(&self) -> &ChunkedVec<f64> {
        &self.weights
    }

    /// The next segment id this lineage would assign (monotonic; also
    /// an upper bound on every existing segment's id).
    pub fn next_segment_id(&self) -> u64 {
        self.next_segment_id
    }

    /// The current segments, oldest first.
    pub fn segments(&self) -> &[Arc<Segment>] {
        &self.segments
    }

    /// Number of segments.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Total documents ever added (live + tombstoned).
    pub fn num_docs(&self) -> usize {
        self.corpus.num_docs()
    }

    /// Live (non-tombstoned) documents.
    pub fn live_docs(&self) -> usize {
        self.corpus.num_docs() - self.deleted.len()
    }

    /// Number of tombstoned documents.
    pub fn tombstones(&self) -> usize {
        self.deleted.len()
    }

    /// Compaction merges performed so far.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// True iff `doc` exists and is not tombstoned.
    #[inline]
    pub fn is_live(&self, doc: DocId) -> bool {
        (doc as usize) < self.corpus.num_docs() && !self.deleted.contains(doc)
    }

    /// Appends `docs` as one new immutable segment (built over exactly the
    /// new id range — O(batch) index work) and returns the assigned id
    /// range. An empty batch is a no-op.
    ///
    /// Copy-on-write cost: when clones of this index are alive (the
    /// serving engine's snapshots), an add batch deep-copies at most the
    /// *tail chunk* of the document store and of the weight table
    /// (≤ [`crate::chunked::CHUNK`] entries each) — statistics, sealed
    /// chunks, and all segments stay `Arc`-shared, so the batch cost is
    /// O(batch), independent of corpus size (DESIGN.md §14; this closes
    /// the old §9 O(corpus) caveat). Deletes and compactions never touch
    /// the document list.
    ///
    /// # Panics
    /// Panics if a document references a term outside the frozen
    /// vocabulary.
    pub fn add_docs(&mut self, docs: Vec<Document>) -> Range<DocId> {
        if docs.is_empty() {
            let n = self.corpus.num_docs() as DocId;
            return n..n;
        }
        let id = self.alloc_segment_id();
        let corpus = Arc::make_mut(&mut self.corpus);
        let range = corpus.append_frozen(docs);
        let corpus: &Corpus = corpus;
        for d in range.clone() {
            self.weights
                .push(total_weight(corpus.idf_table(), corpus.doc(d)));
        }
        let segment = Segment::build(id, corpus, range.clone());
        self.segments.push(Arc::new(segment));
        range
    }

    /// Hands out the next lineage-unique segment id.
    fn alloc_segment_id(&mut self) -> u64 {
        let id = self.next_segment_id;
        self.next_segment_id += 1;
        id
    }

    /// Tokenizes `text` against the frozen vocabulary (stop words and
    /// out-of-vocabulary terms are dropped — the epoch cannot grow) and
    /// adds it as a single-document segment. Returns the new doc id.
    pub fn add_text(&mut self, title: &str, text: &str) -> DocId {
        let tokens: Vec<TermId> = tokenize(text)
            .into_iter()
            .filter(|t| !is_stopword(t))
            .filter_map(|t| self.corpus.term_id(&t))
            .collect();
        self.add_docs(vec![Document::from_tokens(title.to_owned(), tokens)])
            .start
    }

    /// Tombstones the given documents. Segments are untouched; reads
    /// filter the marks out. Returns how many documents were newly
    /// deleted (already-deleted ids are idempotent no-ops).
    ///
    /// # Panics
    /// Panics on a doc id that was never allocated (a caller bug, not a
    /// query-admission error).
    pub fn delete_docs(&mut self, docs: &[DocId]) -> usize {
        let n = self.corpus.num_docs() as DocId;
        let mut fresh = 0;
        for &doc in docs {
            assert!(
                doc < n,
                "delete of unallocated doc id {doc} (corpus has {n})"
            );
            fresh += self.deleted.insert(doc) as usize;
        }
        fresh
    }

    /// Size-tiered compaction: finds the smallest tier
    /// (`⌊log2(doc_count)⌋`) holding at least two segments and replaces
    /// all of that tier's segments by one, **dropping tombstoned
    /// documents**: the new segment is the build over the sorted union of
    /// their doc ids minus tombstones, the same build every segment comes
    /// from — so rebuild equivalence holds by construction.
    ///
    /// When no tier holds two segments, a heavily-tombstoned *lone*
    /// segment (≥ 1/4 of its documents deleted) is rebuilt in place the
    /// same way instead — otherwise a single-segment layout could never
    /// reclaim its deletions, and queries would filter-drop the dead
    /// postings on every read forever.
    ///
    /// Returns the number of segments compacted (≥ 2 for a tier merge, 1
    /// for a lone rewrite, 0 = nothing to do). Call repeatedly to
    /// cascade tiers; the call sequence always terminates at 0.
    pub fn compact(&mut self) -> usize {
        let mut by_tier: std::collections::BTreeMap<u32, Vec<usize>> = Default::default();
        for (i, segment) in self.segments.iter().enumerate() {
            by_tier.entry(segment.tier()).or_default().push(i);
        }
        let group = match by_tier.into_values().find(|v| v.len() >= 2) {
            Some(group) => group,
            None => {
                let rewrite = (0..self.segments.len()).find(|&i| {
                    let doc_count = self.segments[i].doc_count;
                    doc_count > 0 && self.dead_docs_in(i) * 4 >= doc_count
                });
                let Some(i) = rewrite else {
                    return 0;
                };
                vec![i]
            }
        };
        let mut ids: Vec<DocId> = group
            .iter()
            .flat_map(|&i| self.segments[i].index.doc_ids())
            .filter(|&d| !self.deleted.contains(d))
            .collect();
        ids.sort_unstable();
        let id = self.alloc_segment_id();
        self.segments[group[0]] = Arc::new(Segment::build(id, &self.corpus, ids.iter().copied()));
        for &i in group.iter().skip(1).rev() {
            self.segments.remove(i);
        }
        self.compactions += 1;
        group.len()
    }

    /// Distinct tombstoned documents still materialized in segment `i`
    /// (0 after that segment has been compacted).
    fn dead_docs_in(&self, i: usize) -> usize {
        let ids = self.segments[i].index.doc_ids();
        ids.into_iter()
            .filter(|&d| self.deleted.contains(d))
            .count()
    }

    /// One incremental posting-list scan per segment for a single keyword
    /// (tombstones **not** applied — pair with a filtered merge).
    pub fn scan_sources(&self, term: TermId) -> Vec<ScanSource<'_>> {
        self.segments
            .iter()
            .map(|s| ScanSource::new(&self.corpus, &s.index, term))
            .collect()
    }

    /// One bounding threshold-algorithm source per segment for a
    /// multi-keyword query (tombstones **not** applied — pair with a
    /// filtered merge).
    pub fn ta_sources(&self, query: &KeywordQuery) -> Vec<TaSource<'_>> {
        self.segments
            .iter()
            .map(|s| TaSource::new(&self.corpus, &s.index, &query.terms))
            .collect()
    }

    /// Admission check: every term must be inside the frozen vocabulary.
    pub fn validate_terms(&self, terms: &[TermId]) -> Result<(), SearchError> {
        validate_terms(terms, &self.segments[0].index)
    }

    /// Single-keyword diversified search over the live documents:
    /// per-segment scans, k-way merged with the tombstone filter. The
    /// whole framework run — hits, total score, and every metric — is
    /// byte-identical to [`crate::search::DiversifiedSearcher::search_scan`]
    /// over [`SegmentedIndex::rebuilt_index`] (property-tested).
    pub fn search_scan(
        &self,
        term: TermId,
        options: &SearchOptions,
    ) -> Result<SearchOutput, SearchError> {
        options.validate()?;
        self.validate_terms(&[term])?;
        let deleted = &self.deleted;
        let merged = MergedSource::incremental_filtered(self.scan_sources(term), |d: &DocId| {
            !deleted.contains(*d)
        });
        search_with_source(&self.corpus, &self.weights, merged, options)
    }

    /// Multi-keyword diversified search over the live documents:
    /// per-segment threshold algorithms, k-way merged (bounding) with the
    /// tombstone filter. Exact over the live set — same optimum as a
    /// from-scratch rebuild, pulled from the same ranking but possibly
    /// stopped at a different point, exactly as DESIGN.md §8 documents for
    /// shards.
    pub fn search_ta(
        &self,
        query: &KeywordQuery,
        options: &SearchOptions,
    ) -> Result<SearchOutput, SearchError> {
        options.validate()?;
        self.validate_terms(&query.terms)?;
        let deleted = &self.deleted;
        let merged = MergedSource::bounding_filtered(self.ta_sources(query), |d: &DocId| {
            !deleted.contains(*d)
        });
        search_with_source(&self.corpus, &self.weights, merged, options)
    }

    /// [`SegmentedIndex::search_scan`] with the per-segment pulls pumped
    /// concurrently on `pool` (one prefetching producer per segment — see
    /// [`divtopk_core::prefetch`]). **Byte-identical** to the sequential
    /// path: the prefetch facade replays each scan's emission order *and*
    /// bound trajectory exactly, so the merge, the framework run, the
    /// metrics, and the early-stop point are all bit-for-bit those of
    /// [`SegmentedIndex::search_scan`] (`tests/parallel_merge.rs`).
    pub fn search_scan_pooled(
        &self,
        term: TermId,
        options: &SearchOptions,
        pool: &WorkerPool,
    ) -> Result<SearchOutput, SearchError> {
        options.validate()?;
        self.validate_terms(&[term])?;
        let deleted = &self.deleted;
        pool.scope(|scope| {
            let prefetched: Vec<_> = self
                .scan_sources(term)
                .into_iter()
                .map(|s| PrefetchedSource::spawn(scope, s, DEFAULT_PREFETCH_DEPTH))
                .collect();
            let merged =
                MergedSource::incremental_filtered(prefetched, |d: &DocId| !deleted.contains(*d));
            search_with_source(&self.corpus, &self.weights, merged, options)
        })
    }

    /// [`SegmentedIndex::search_ta`] with the per-segment threshold
    /// algorithms pumped concurrently on `pool`. Byte-identical to the
    /// sequential path for the same reason as
    /// [`SegmentedIndex::search_scan_pooled`] — the facades replay each
    /// TA's emissions and bounds in lockstep, so the bounding merge sees
    /// the exact sequential observation sequence.
    pub fn search_ta_pooled(
        &self,
        query: &KeywordQuery,
        options: &SearchOptions,
        pool: &WorkerPool,
    ) -> Result<SearchOutput, SearchError> {
        options.validate()?;
        self.validate_terms(&query.terms)?;
        let deleted = &self.deleted;
        pool.scope(|scope| {
            let prefetched: Vec<_> = self
                .ta_sources(query)
                .into_iter()
                .map(|s| PrefetchedSource::spawn(scope, s, DEFAULT_PREFETCH_DEPTH))
                .collect();
            let merged =
                MergedSource::bounding_filtered(prefetched, |d: &DocId| !deleted.contains(*d));
            search_with_source(&self.corpus, &self.weights, merged, options)
        })
    }

    /// The rebuild oracle: a from-scratch [`InvertedIndex`] over exactly
    /// the surviving documents, under the same frozen statistics. The
    /// segmented read path is byte-equivalent to serving from this index —
    /// `tests/segments.rs` and `tests/live_update.rs` assert it.
    pub fn rebuilt_index(&self) -> InvertedIndex {
        InvertedIndex::build_where(&self.corpus, |d| !self.deleted.contains(d))
    }

    /// Verifies the core invariant directly on the data: every stored
    /// list is non-empty; each segment's lists are exactly the build over
    /// its own doc ids — the same terms, doc for doc and bit for bit; the
    /// segments' doc sets are pairwise disjoint and together hold every
    /// live document with `len > 0`; and the incremental weight table
    /// matches a from-scratch [`doc_weights`]. Those make the
    /// tombstone-filtered union of the segments the rebuilt index. Returns
    /// a description of the first discrepancy, naming its term or
    /// document, if any.
    pub fn verify_rebuild_equivalence(&self) -> Result<(), String> {
        for segment in &self.segments {
            if let Some((t, _)) = segment.index.lists().find(|(_, list)| list.is_empty()) {
                return Err(format!(
                    "term {t}: segment {} stores an empty list",
                    segment.id
                ));
            }
        }
        let num_docs = self.corpus.num_docs();
        // `holder[d]`: the segment holding document `d`, if any.
        let mut holder: Vec<Option<u64>> = vec![None; num_docs];
        for segment in &self.segments {
            let id = segment.id;
            let ids = segment.index.doc_ids();
            for &d in &ids {
                if let Some(other) = holder[d as usize].replace(id) {
                    return Err(format!("doc {d}: held by segments {other} and {id}"));
                }
            }
            let built = InvertedIndex::build_from_ids(&self.corpus, ids.iter().copied());
            let (mut a, mut b) = (segment.index.lists(), built.lists());
            loop {
                let (t, x, y) = match (a.next(), b.next()) {
                    (None, None) => break,
                    (Some((t, x)), Some((u, y))) if t == u => (t, x, y),
                    (x, y) => {
                        // The smaller term is the one the other side lacks.
                        let first =
                            |side: Option<(TermId, _)>| side.map_or(TermId::MAX, |(t, _)| t);
                        let (t, u) = (first(x), first(y));
                        return Err(if t < u {
                            format!("term {t}: in segment {id}, not in the build over its docs")
                        } else {
                            format!("term {u}: in the build over segment {id}'s docs, not in it")
                        });
                    }
                };
                if x.len() != y.len() {
                    return Err(format!(
                        "term {t}: segment {id} has {} postings, the build over its docs {}",
                        x.len(),
                        y.len()
                    ));
                }
                // Equal `(doc, tf)` under the frozen statistics is an
                // equal partial, bit for bit.
                if let Some((p, q)) = x.iter().zip(y).find(|(p, q)| p != q) {
                    return Err(format!(
                        "term {t}: segment {id} (doc {}, tf {}) vs built (doc {}, tf {})",
                        p.doc, p.tf, q.doc, q.tf
                    ));
                }
            }
        }
        let unheld = (0..num_docs as DocId).find(|&d| {
            holder[d as usize].is_none() && self.is_live(d) && self.corpus.doc(d).len > 0
        });
        if let Some(d) = unheld {
            return Err(format!("doc {d}: live, but no segment holds it"));
        }
        let fresh = doc_weights(&self.corpus);
        if fresh.len() != self.weights.len()
            || fresh
                .iter()
                .zip(self.weights.iter())
                .any(|(a, b)| a.to_bits() != b.to_bits())
        {
            return Err("incremental weight table diverged from doc_weights".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::Posting;
    use crate::search::DiversifiedSearcher;
    use crate::synth::{SynthConfig, generate};

    fn base(n: usize) -> Corpus {
        generate(&SynthConfig {
            num_docs: n,
            ..SynthConfig::tiny()
        })
    }

    fn busy_term(c: &Corpus) -> TermId {
        (0..c.num_terms() as TermId)
            .max_by_key(|&t| c.doc_freq(t))
            .unwrap()
    }

    #[test]
    fn segmented_index_is_send_sync_and_cheap_to_clone() {
        fn assert_both<T: Send + Sync + Clone>() {}
        assert_both::<SegmentedIndex>();
    }

    #[test]
    fn build_partitioned_covers_every_posting_exactly_once() {
        let corpus = base(150);
        let full = InvertedIndex::build(&corpus);
        for parts in [1usize, 3, 4] {
            let seg = SegmentedIndex::build_partitioned(corpus.clone(), parts);
            assert_eq!(seg.num_segments(), parts);
            for t in 0..corpus.num_terms() as TermId {
                let total: usize = seg
                    .segments()
                    .iter()
                    .map(|s| s.index().postings(t).len())
                    .sum();
                assert_eq!(total, full.postings(t).len(), "term {t} parts {parts}");
            }
            seg.verify_rebuild_equivalence().unwrap();
        }
    }

    #[test]
    fn add_docs_assigns_fresh_ids_and_new_segment() {
        let corpus = base(60);
        let donor = generate(&SynthConfig {
            num_docs: 80,
            ..SynthConfig::tiny()
        });
        let mut seg = SegmentedIndex::build(corpus);
        let batch: Vec<Document> = (60..70u32).map(|d| donor.doc(d).clone()).collect();
        let range = seg.add_docs(batch);
        assert_eq!(range, 60..70);
        assert_eq!(seg.num_segments(), 2);
        assert_eq!(seg.num_docs(), 70);
        assert_eq!(seg.live_docs(), 70);
        assert!(seg.is_live(65));
        seg.verify_rebuild_equivalence().unwrap();
        // Empty batch is a no-op.
        let empty = seg.add_docs(Vec::new());
        assert_eq!(empty, 70..70);
        assert_eq!(seg.num_segments(), 2);
    }

    #[test]
    fn delete_is_idempotent_and_counted() {
        let mut seg = SegmentedIndex::build(base(40));
        assert_eq!(seg.delete_docs(&[3, 7, 3]), 2);
        assert_eq!(seg.delete_docs(&[7]), 0);
        assert_eq!(seg.tombstones(), 2);
        assert_eq!(seg.live_docs(), 38);
        assert!(!seg.is_live(3));
        assert!(seg.is_live(4));
        seg.verify_rebuild_equivalence().unwrap();
    }

    #[test]
    #[should_panic(expected = "unallocated doc id")]
    fn delete_of_unallocated_id_panics() {
        let mut seg = SegmentedIndex::build(base(10));
        seg.delete_docs(&[10]);
    }

    #[test]
    fn compaction_merges_small_tiers_and_purges_tombstones() {
        let corpus = base(100);
        let donor = generate(&SynthConfig {
            num_docs: 140,
            ..SynthConfig::tiny()
        });
        let mut seg = SegmentedIndex::build(corpus);
        // Three small single-digit segments land in low tiers.
        for start in [100u32, 104, 108] {
            let batch: Vec<Document> = (start..start + 4).map(|d| donor.doc(d).clone()).collect();
            seg.add_docs(batch);
        }
        assert_eq!(seg.num_segments(), 4);
        seg.delete_docs(&[101, 109]);
        let merged = seg.compact();
        assert_eq!(merged, 3, "the three tier-2 add segments merge");
        assert_eq!(seg.num_segments(), 2);
        assert_eq!(seg.compactions(), 1);
        // Tombstoned postings were purged from the merged segment.
        for s in seg.segments() {
            for t in 0..seg.corpus().num_terms() as TermId {
                for p in s.index().postings(t) {
                    if s.doc_count() < 50 {
                        assert!(
                            p.doc != 101 && p.doc != 109,
                            "tombstone survived compaction"
                        );
                    }
                }
            }
        }
        seg.verify_rebuild_equivalence().unwrap();
        // Nothing left to merge at distinct tiers.
        assert_eq!(seg.compact(), 0);
    }

    #[test]
    fn lone_segment_with_heavy_tombstoning_is_rewritten_in_place() {
        let mut seg = SegmentedIndex::build(base(60));
        // Default layout: one base segment, no tier partner to merge with.
        assert_eq!(seg.num_segments(), 1);
        let victims: Vec<DocId> = (0..30u32).collect();
        seg.delete_docs(&victims);
        assert_eq!(seg.compact(), 1, "a half-dead lone segment must rewrite");
        assert_eq!(seg.num_segments(), 1);
        assert_eq!(seg.compactions(), 1);
        for t in 0..seg.corpus().num_terms() as TermId {
            for p in seg.segments()[0].index().postings(t) {
                assert!(p.doc >= 30, "tombstoned posting survived the rewrite");
            }
        }
        seg.verify_rebuild_equivalence().unwrap();
        // Nothing dead remains → the cascade terminates.
        assert_eq!(seg.compact(), 0);
        // A lightly-tombstoned lone segment is left alone (< 1/4 dead).
        seg.delete_docs(&[35]);
        assert_eq!(seg.compact(), 0);
    }

    #[test]
    fn snapshot_clones_are_isolated_from_later_mutations() {
        let mut seg = SegmentedIndex::build(base(80));
        let term = busy_term(seg.corpus());
        let options = SearchOptions::new(3).with_tau(0.5);
        let snapshot = seg.clone();
        let before = snapshot.search_scan(term, &options).unwrap();
        // Mutate the original: delete the current top hit.
        let top = before.hits[0].doc;
        seg.delete_docs(&[top]);
        let after = seg.search_scan(term, &options).unwrap();
        assert!(after.hits.iter().all(|h| h.doc != top));
        // The pinned snapshot still serves the pre-mutation answer.
        assert_eq!(snapshot.search_scan(term, &options).unwrap(), before);
    }

    #[test]
    fn search_scan_matches_rebuilt_searcher_bit_for_bit() {
        let mut seg = SegmentedIndex::build(base(120));
        let donor = generate(&SynthConfig {
            num_docs: 160,
            ..SynthConfig::tiny()
        });
        seg.add_docs((120..150u32).map(|d| donor.doc(d).clone()).collect());
        let term = busy_term(seg.corpus());
        seg.delete_docs(&[0, 5, 121]);
        let rebuilt = seg.rebuilt_index();
        let searcher = DiversifiedSearcher::new(seg.corpus(), &rebuilt);
        for k in [1usize, 4, 8] {
            let options = SearchOptions::new(k).with_tau(0.4);
            let want = searcher.search_scan(term, &options).unwrap();
            let got = seg.search_scan(term, &options).unwrap();
            assert_eq!(want, got, "k {k}");
        }
    }

    #[test]
    fn search_ta_is_exact_over_the_live_set() {
        let mut seg = SegmentedIndex::build(base(120));
        let c = seg.corpus().clone();
        let mut terms: Vec<TermId> = (0..c.num_terms() as TermId)
            .filter(|&t| c.doc_freq(t) >= 6)
            .collect();
        terms.sort_by_key(|&t| std::cmp::Reverse(c.doc_freq(t)));
        terms.truncate(2);
        let query = KeywordQuery { terms };
        seg.delete_docs(&[1, 2, 3]);
        let rebuilt = seg.rebuilt_index();
        let searcher = DiversifiedSearcher::new(seg.corpus(), &rebuilt);
        let options = SearchOptions::new(5).with_tau(0.4);
        let want = searcher.search_ta(&query, &options).unwrap();
        let got = seg.search_ta(&query, &options).unwrap();
        assert!(
            got.total_score.approx_eq(want.total_score, 1e-9),
            "{} vs {}",
            got.total_score,
            want.total_score
        );
        for h in &got.hits {
            assert!(seg.is_live(h.doc), "tombstoned doc {} in hits", h.doc);
        }
    }

    #[test]
    fn add_text_respects_the_frozen_vocabulary() {
        let mut b = Corpus::builder();
        b.add_text("d0", "solar panels efficiency");
        b.add_text("d1", "wind turbines offshore");
        for i in 0..6 {
            b.add_text(&format!("f{i}"), "unrelated filler words");
        }
        let mut seg = SegmentedIndex::build(b.build());
        let id = seg.add_text("new", "solar storage neologism");
        // "storage"/"neologism" are out of the frozen vocabulary → dropped.
        let solar = seg.corpus().term_id("solar").unwrap();
        assert_eq!(seg.corpus().doc(id).tf(solar), 1);
        assert_eq!(seg.corpus().doc(id).len, 1);
        seg.verify_rebuild_equivalence().unwrap();
    }

    /// `d0` = "apple pie", `d1` = "zebra crossing".
    fn two_docs() -> Corpus {
        let mut b = Corpus::builder();
        b.add_text("d0", "apple pie");
        b.add_text("d1", "zebra crossing");
        b.build()
    }

    /// A segmented index over `corpus` holding exactly `indexes`, as
    /// segments 0, 1, … — a layout no mutation sequence would produce.
    fn forged(corpus: &Corpus, indexes: Vec<InvertedIndex>) -> SegmentedIndex {
        let n = indexes.len() as u64;
        SegmentedIndex::from_parts(
            Arc::new(corpus.clone()),
            (0..)
                .zip(indexes)
                .map(|(id, index)| Arc::new(Segment::new(id, index)))
                .collect(),
            Tombstones::default(),
            0,
            n,
        )
    }

    /// `index`'s lists as `(term, postings)` pairs, for forging.
    fn unpacked(index: &InvertedIndex) -> Vec<(TermId, Vec<Posting>)> {
        index
            .lists()
            .map(|(t, l)| (t, l.iter().collect()))
            .collect()
    }

    #[test]
    fn rebuild_check_names_the_term_of_a_list_mismatch() {
        let corpus = two_docs();
        let zebra = corpus.term_id("zebra").unwrap();
        // d1's postings never made it into a segment: the partition
        // check names it.
        let err = forged(&corpus, vec![InvertedIndex::build_range(&corpus, 0..1)])
            .verify_rebuild_equivalence()
            .unwrap_err();
        assert_eq!(err, "doc 1: live, but no segment holds it");
        // A stored empty list is named by its term.
        let mut lists = unpacked(&InvertedIndex::build(&corpus));
        for (t, list) in &mut lists {
            if *t == zebra {
                list.clear();
            }
        }
        let err = forged(
            &corpus,
            vec![InvertedIndex::from_sorted_lists(corpus.num_terms(), lists)],
        )
        .verify_rebuild_equivalence()
        .unwrap_err();
        assert_eq!(err, format!("term {zebra}: segment 0 stores an empty list"));
        forged(&corpus, vec![InvertedIndex::build(&corpus)])
            .verify_rebuild_equivalence()
            .unwrap();
    }

    #[test]
    fn rebuild_check_names_a_wrong_posting_of_a_tombstoned_document() {
        // d1 is deleted but not compacted away, and its "zebra" posting
        // carries tf 2 instead of 1. Reads filter d1 out, so a check of
        // the tombstone-filtered segments cannot see the fault; the
        // segment is still not the build over its own documents.
        let corpus = two_docs();
        let zebra = corpus.term_id("zebra").unwrap();
        let mut lists = unpacked(&InvertedIndex::build(&corpus));
        for (t, list) in &mut lists {
            if *t == zebra {
                list[0].tf += 1;
            }
        }
        let mut seg = forged(
            &corpus,
            vec![InvertedIndex::from_sorted_lists(corpus.num_terms(), lists)],
        );
        seg.delete_docs(&[1]);
        assert_eq!(
            seg.verify_rebuild_equivalence().unwrap_err(),
            format!("term {zebra}: segment 0 (doc 1, tf 2) vs built (doc 1, tf 1)")
        );
    }

    #[test]
    fn rebuild_check_names_a_document_two_segments_hold() {
        let corpus = two_docs();
        let seg = forged(
            &corpus,
            vec![
                InvertedIndex::build_range(&corpus, 0..2),
                InvertedIndex::build_range(&corpus, 1..2),
            ],
        );
        assert_eq!(
            seg.verify_rebuild_equivalence().unwrap_err(),
            "doc 1: held by segments 0 and 1"
        );
    }

    #[test]
    fn a_fully_tombstoned_tier_compacts_to_one_empty_segment() {
        let donor = generate(&SynthConfig {
            num_docs: 140,
            ..SynthConfig::tiny()
        });
        let mut seg = SegmentedIndex::build(base(100));
        for start in [100u32, 104, 108] {
            seg.add_docs((start..start + 4).map(|d| donor.doc(d).clone()).collect());
        }
        seg.delete_docs(&(100..112).collect::<Vec<DocId>>());
        assert_eq!(seg.compact(), 3, "the three tier-2 add segments merge");
        assert_eq!(seg.num_segments(), 2);
        let empty = |seg: &SegmentedIndex| {
            let s = &seg.segments()[1];
            let layout = s.index().layout();
            assert_eq!(s.doc_count(), 0);
            assert_eq!(s.index().lists().len(), 0);
            assert_eq!((layout.base, layout.doc_width, layout.tf_width), (0, 1, 1));
            seg.verify_rebuild_equivalence().unwrap();
        };
        empty(&seg);
        let dir = std::env::temp_dir().join(format!(
            "divtopk-segments-empty-tier-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        crate::persist::save_segmented(&dir, &seg, 1).unwrap();
        let (mut loaded, _) = crate::persist::load_segmented(&dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        empty(&loaded);
        assert_eq!(loaded.compact(), 0);
        assert_eq!(seg.compact(), 0);
    }

    #[test]
    fn unknown_terms_are_typed_errors() {
        let seg = SegmentedIndex::build(base(30));
        let bogus = seg.corpus().num_terms() as TermId;
        assert_eq!(
            seg.search_scan(bogus, &SearchOptions::new(3)).unwrap_err(),
            SearchError::UnknownTerm { term: bogus }
        );
    }
}
