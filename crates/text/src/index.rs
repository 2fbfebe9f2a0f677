//! The inverted index: per-term posting lists sorted by score contribution.
//!
//! A posting is `(doc, tf)`. Its *partial score*, the term's
//! contribution to Eq. 3, is not stored: with IDF frozen for each
//! statistics epoch it is a pure function of `tf`, the term's IDF and the
//! document's length, and [`partial`] computes it wherever it is read — a
//! scan's pull, the threshold algorithm's threshold, the sort of a build
//! (a snapshot load is that build). One function, so all of them agree
//! to the bit. Every list is in `(partial desc, doc asc)`
//! order under it, so a list scan enumerates documents in non-increasing
//! order of their single-term score (the incremental source of §8's
//! reuters setup) and the threshold algorithm's sorted accesses are
//! exactly list positions (the enwiki setup).
//!
//! An index is **sparse in the vocabulary**: it stores one list per term
//! it actually holds — a sorted `terms` array beside one exact-size,
//! never-empty byte list per present term — and remembers only the
//! vocabulary's *size*. A one-document segment therefore costs its own
//! postings, not a list header per vocabulary term, and
//! [`InvertedIndex::postings`] answers an absent term with an empty list
//! (one binary search over `terms`).
//!
//! A list holds its postings **packed at the index's widths**: each
//! posting is `(doc − base, tf)` little-endian, the doc offset in the
//! fewest bytes (1–4) that hold the index's largest `doc − base` and the
//! tf in the fewest that hold its largest tf, `base` being its smallest
//! doc id. An index spanning fewer than 2¹⁶ documents with every tf
//! under 256 takes 3 bytes a posting. Readers see a list through the
//! `Copy` view [`PostingList`], which decodes a [`Posting`] on access. A
//! snapshot stores no postings: it saves a segment as its doc ids and
//! the load runs this build again (DESIGN.md §14). The lists stay
//! separate allocations on purpose
//! (DESIGN.md §9, "Segment layout"): one flat array per index cannot
//! reuse the heap the corpus generator freed, and measured higher RSS on
//! every serving workload.

use crate::corpus::Corpus;
use crate::document::{DocId, TermId};
use std::fmt;

/// One inverted-list entry, as a [`PostingList`] decodes it. The partial
/// score is computed, not stored: see [`Posting::partial`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    /// The document.
    pub doc: DocId,
    /// Term frequency of the list's term in `doc`.
    pub tf: u32,
}

impl Posting {
    /// `tf · idf · (1/√len(doc))` — this posting's contribution to Eq. 3,
    /// for the list whose term has weight `idf`.
    pub fn partial(&self, corpus: &Corpus, idf: f64) -> f64 {
        partial(self.tf, idf, inv_sqrt_len(corpus.doc(self.doc).len))
    }
}

/// `1/√len`: Eq. 3's length normalisation, the factor a build and a load
/// tabulate once per document.
pub fn inv_sqrt_len(len: u32) -> f64 {
    1.0 / (len as f64).sqrt()
}

/// The partial score of a posting, `tf · idf · (1/√len)`, multiplied left
/// to right. The build and loader, scans and the threshold algorithm all
/// compute it here, so a partial has one value wherever it
/// is read. (It may differ from [`crate::tfidf::partial_score`]'s
/// `tf · idf / √len` in the last ulp.)
pub fn partial(tf: u32, idf: f64, inv_sqrt_len: f64) -> f64 {
    tf as f64 * idf * inv_sqrt_len
}

/// The posting `p` of partial score `partial` as one integer whose
/// ascending order is `(partial desc, doc asc)`, the one posting order of
/// every list: `(!partial.to_bits(), doc, tf)`, high word first. A
/// partial is finite and not below zero (an IDF is clamped at 0), and the
/// bits of such floats order as their values do. A `-0.0` partial (an
/// IDF of `-0.0`, which a snapshot's range check admits) would sort
/// before every positive one, but every partial of one list shares the
/// sign of its term's IDF, so such a list is all `-0.0` and ordered by
/// doc.
fn sort_key(partial: f64, p: Posting) -> u128 {
    (u128::from(!partial.to_bits()) << 64) | (u128::from(p.doc) << 32) | u128::from(p.tf)
}

/// The fewest bytes (1–4) that hold `max` little-endian.
fn byte_width(max: u32) -> u8 {
    1 + u8::from(max > 0xFF) + u8::from(max > 0xFFFF) + u8::from(max > 0xFF_FFFF)
}

/// A little-endian `u32` stored in its low `N` bytes.
#[inline(always)]
fn le_u32<const N: usize>(bytes: &[u8]) -> u32 {
    let mut word = [0u8; 4];
    word[..N].copy_from_slice(&bytes[..N]);
    u32::from_le_bytes(word)
}

/// How an index packs its postings (module docs): every doc id as its
/// offset from `base` in `doc_width` bytes, then the tf in `tf_width`
/// bytes, both little-endian and both in 1..=4.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Layout {
    pub(crate) base: DocId,
    pub(crate) doc_width: u8,
    pub(crate) tf_width: u8,
}

impl Layout {
    /// The narrowest layout for postings whose docs span `docs`
    /// (smallest, largest; `None` for no postings) and whose largest tf
    /// is `max_tf`.
    fn fitting(docs: Option<(DocId, DocId)>, max_tf: u32) -> Layout {
        let (base, last) = docs.unwrap_or((0, 0));
        Layout {
            base,
            doc_width: byte_width(last - base),
            tf_width: byte_width(max_tf),
        }
    }

    /// Bytes per posting.
    pub(crate) fn stride(self) -> usize {
        usize::from(self.doc_width) + usize::from(self.tf_width)
    }

    /// Writes `p` into the `stride()` bytes of `entry`.
    #[inline]
    fn put(self, entry: &mut [u8], p: Posting) {
        let (doc, tf) = entry.split_at_mut(usize::from(self.doc_width));
        put_le_of_width(doc, p.doc - self.base);
        put_le_of_width(tf, p.tf);
    }

    /// Reads the posting in the `stride()` bytes of `entry`.
    #[inline]
    fn get(self, entry: &[u8]) -> Posting {
        let (doc, tf) = entry.split_at(usize::from(self.doc_width));
        Posting {
            doc: self.base + le_u32_of_width(doc),
            tf: le_u32_of_width(tf),
        }
    }
}

/// [`le_u32`] at the width of `bytes` (1–4).
#[inline(always)]
fn le_u32_of_width(bytes: &[u8]) -> u32 {
    match bytes.len() {
        1 => le_u32::<1>(bytes),
        2 => le_u32::<2>(bytes),
        3 => le_u32::<3>(bytes),
        _ => le_u32::<4>(bytes),
    }
}

/// Writes the low `bytes.len()` (1–4) bytes of `v` little-endian, each
/// width a fixed-size copy.
#[inline(always)]
fn put_le_of_width(bytes: &mut [u8], v: u32) {
    let le = v.to_le_bytes();
    match bytes.len() {
        1 => bytes[..1].copy_from_slice(&le[..1]),
        2 => bytes[..2].copy_from_slice(&le[..2]),
        3 => bytes[..3].copy_from_slice(&le[..3]),
        _ => bytes[..4].copy_from_slice(&le),
    }
}

/// One posting list as the index holds it: a `Copy` view over its packed
/// bytes that decodes a [`Posting`] on access. Equality and `Debug` are
/// over the decoded postings, whatever the widths.
#[derive(Clone, Copy)]
pub struct PostingList<'a> {
    bytes: &'a [u8],
    layout: Layout,
    /// `bytes.len() / layout.stride()`, divided once: the threshold
    /// algorithm asks every round.
    len: usize,
}

impl<'a> PostingList<'a> {
    fn new(bytes: &'a [u8], layout: Layout) -> PostingList<'a> {
        PostingList {
            bytes,
            layout,
            len: bytes.len() / layout.stride(),
        }
    }

    /// Number of postings.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the list holds no posting.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `i`-th posting, or `None` past the end.
    #[inline]
    pub fn get(&self, i: usize) -> Option<Posting> {
        if i >= self.len {
            return None;
        }
        let stride = self.layout.stride();
        Some(self.layout.get(&self.bytes[i * stride..][..stride]))
    }

    /// The postings in list order.
    pub fn iter(&self) -> PostingIter<'a> {
        PostingIter {
            entries: self.bytes.chunks_exact(self.layout.stride()),
            layout: self.layout,
        }
    }
}

impl PartialEq for PostingList<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl fmt::Debug for PostingList<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for PostingList<'a> {
    type Item = Posting;
    type IntoIter = PostingIter<'a>;

    fn into_iter(self) -> PostingIter<'a> {
        self.iter()
    }
}

/// The decoding iterator of a [`PostingList`].
pub struct PostingIter<'a> {
    entries: std::slice::ChunksExact<'a, u8>,
    layout: Layout,
}

impl Iterator for PostingIter<'_> {
    type Item = Posting;

    #[inline]
    fn next(&mut self) -> Option<Posting> {
        self.entries.next().map(|entry| self.layout.get(entry))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.entries.size_hint()
    }
}

impl ExactSizeIterator for PostingIter<'_> {}

/// Inverted index over a corpus (see the module docs for the layout).
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    /// Size of the vocabulary the term ids index into.
    num_terms: usize,
    /// How every list below packs its postings.
    layout: Layout,
    /// The terms holding at least one posting, strictly increasing.
    terms: Vec<TermId>,
    /// `lists[i]` is the non-empty posting list of `terms[i]`, packed at
    /// `layout`.
    lists: Vec<Box<[u8]>>,
}

impl InvertedIndex {
    /// Builds the index; each list is sorted by partial score descending
    /// (ties: ascending doc id, so ordering is deterministic — repeated
    /// builds and scans yield identical posting sequences).
    pub fn build(corpus: &Corpus) -> InvertedIndex {
        InvertedIndex::build_where(corpus, |_| true)
    }

    /// Builds the index restricted to the documents `keep` accepts, with
    /// **global** doc ids, IDF weights, and length normalization — the
    /// partial scores are bit-identical to the full index's. This is the
    /// shard construction primitive: because every list uses the same
    /// `(partial desc, doc asc)` comparator over a subset of the same
    /// totally ordered postings, each shard list is an exact subsequence of
    /// the full list, so a k-way merge of shard scans with the same
    /// tie-break reproduces the unsharded scan order exactly
    /// (`divtopk-engine` property-tests this).
    pub fn build_where(corpus: &Corpus, keep: impl Fn(DocId) -> bool) -> InvertedIndex {
        let keep = &keep;
        InvertedIndex::build_from_ids(
            corpus,
            (0..corpus.num_docs() as DocId).filter(move |&d| keep(d)),
        )
    }

    /// Builds the index over only the documents in `range` — the segment
    /// construction primitive of the live-update path ([`crate::segments`]):
    /// O(range) work instead of a full corpus rescan, with the exact same
    /// global statistics and `(partial desc, doc asc)` ordering as
    /// [`InvertedIndex::build_where`] over the same documents, so segment
    /// postings are bit-identical to a from-scratch rebuild's.
    pub fn build_range(corpus: &Corpus, range: std::ops::Range<DocId>) -> InvertedIndex {
        assert!(
            range.end as usize <= corpus.num_docs(),
            "doc range {range:?} outside corpus"
        );
        InvertedIndex::build_from_ids(corpus, range)
    }

    /// Builds the index over `ids` (strictly increasing).
    ///
    /// O(postings + V/64 + span): a vocabulary bitset marks the present
    /// terms, a per-word rank turns a term into its list slot in O(1), then
    /// a counting pass sizes each list and the layout, each list is
    /// allocated once at its exact packed size, filled in doc order and
    /// sorted as integers (`sort_key`, one `u128` a posting). The
    /// bitset and the rank are the only structures sized by
    /// the vocabulary; the `1/√len` table the sort reads is sized by the
    /// id span, so a batch at the top of a large corpus costs the batch.
    pub(crate) fn build_from_ids(
        corpus: &Corpus,
        ids: impl Iterator<Item = DocId> + Clone,
    ) -> InvertedIndex {
        let first = ids.clone().next().unwrap_or(0);
        let docs = || {
            ids.clone()
                .map(|d| (d, corpus.doc(d)))
                .filter(|(_, doc)| doc.len != 0)
        };
        let mut present = vec![0u64; corpus.num_terms().div_ceil(64)];
        for (_, doc) in docs() {
            for &(t, _) in &doc.terms {
                present[t as usize / 64] |= 1u64 << (t % 64);
            }
        }
        let mut rank = Vec::with_capacity(present.len());
        let mut terms = Vec::with_capacity(present.iter().map(|w| w.count_ones() as usize).sum());
        for (w, &word) in present.iter().enumerate() {
            rank.push(terms.len() as u32);
            let mut bits = word;
            while bits != 0 {
                terms.push((w * 64) as TermId + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        let slot = |t: TermId| {
            let (w, b) = (t as usize / 64, t % 64);
            rank[w] as usize + (present[w] & ((1u64 << b) - 1)).count_ones() as usize
        };
        let mut counts = vec![0usize; terms.len()];
        let (mut span, mut max_tf) = (None, 0);
        for (doc_id, doc) in docs() {
            span = Some((span.map_or(doc_id, |(lo, _)| lo), doc_id));
            for &(t, tf) in &doc.terms {
                counts[slot(t)] += 1;
                max_tf = max_tf.max(tf);
            }
        }
        let layout = Layout::fitting(span, max_tf);
        let stride = layout.stride();
        let mut lists: Vec<Box<[u8]>> = counts
            .iter()
            .map(|&n| vec![0u8; n * stride].into_boxed_slice())
            .collect();
        // `counts` becomes each list's fill cursor, in bytes.
        counts.fill(0);
        // `inv_len[d − first]` is `1/√len(d)`; ids the build skips read 0.
        let mut inv_len: Vec<f64> = Vec::new();
        for (doc_id, doc) in docs() {
            inv_len.resize((doc_id - first) as usize, 0.0);
            inv_len.push(inv_sqrt_len(doc.len));
            for &(t, tf) in &doc.terms {
                let (s, posting) = (slot(t), Posting { doc: doc_id, tf });
                layout.put(&mut lists[s][counts[s]..counts[s] + stride], posting);
                counts[s] += stride;
            }
        }
        let mut keys: Vec<u128> = Vec::new();
        for (&t, list) in terms.iter().zip(&mut lists) {
            if list.len() == stride {
                continue;
            }
            let idf = corpus.idf(t);
            keys.clear();
            keys.extend(list.chunks_exact(stride).map(|entry| {
                let p = layout.get(entry);
                sort_key(partial(p.tf, idf, inv_len[(p.doc - first) as usize]), p)
            }));
            keys.sort_unstable();
            for (entry, &key) in list.chunks_exact_mut(stride).zip(&keys) {
                let (doc, tf) = ((key >> 32) as u32, key as u32);
                layout.put(entry, Posting { doc, tf });
            }
        }
        InvertedIndex {
            num_terms: corpus.num_terms(),
            layout,
            terms,
            lists,
        }
    }

    /// An index over a vocabulary of `num_terms` terms from `(term,
    /// postings)` pairs, packed at the narrowest layout that holds them
    /// all, taken as given: the terms increasing and inside the
    /// vocabulary (checked in debug builds), each list non-empty and in
    /// `(partial desc, doc asc)` order (not checked). Tests forge the
    /// layouts [`crate::segments::SegmentedIndex::verify_rebuild_equivalence`]
    /// must reject with it.
    #[cfg(test)]
    pub(crate) fn from_sorted_lists(
        num_terms: usize,
        pairs: impl IntoIterator<Item = (TermId, Vec<Posting>)>,
    ) -> InvertedIndex {
        let (terms, postings): (Vec<TermId>, Vec<Vec<Posting>>) = pairs.into_iter().unzip();
        let docs = || postings.iter().flatten().map(|p| p.doc);
        let layout = Layout::fitting(
            docs().min().zip(docs().max()),
            postings.iter().flatten().map(|p| p.tf).max().unwrap_or(0),
        );
        let lists = postings
            .iter()
            .map(|list| {
                let mut bytes = vec![0u8; list.len() * layout.stride()].into_boxed_slice();
                for (entry, &p) in bytes.chunks_exact_mut(layout.stride()).zip(list) {
                    layout.put(entry, p);
                }
                bytes
            })
            .collect();
        debug_assert!(terms.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(terms.last().is_none_or(|&t| (t as usize) < num_terms));
        InvertedIndex {
            num_terms,
            layout,
            terms,
            lists,
        }
    }

    /// The posting list for `term` (sorted by partial score, descending);
    /// empty for a term this index holds no posting of.
    pub fn postings(&self, term: TermId) -> PostingList<'_> {
        let bytes = match self.terms.binary_search(&term) {
            Ok(i) => &self.lists[i],
            Err(_) => &[][..],
        };
        PostingList::new(bytes, self.layout)
    }

    /// The non-empty posting lists as `(term, list)` pairs, in
    /// increasing term order.
    pub fn lists(&self) -> impl ExactSizeIterator<Item = (TermId, PostingList<'_>)> + '_ {
        let layout = self.layout;
        self.terms.iter().copied().zip(
            self.lists
                .iter()
                .map(move |bytes| PostingList::new(bytes, layout)),
        )
    }

    /// The distinct documents this index holds a posting of, increasing:
    /// one pass over the postings into a bitset offset by the layout's
    /// base (no doc is below it), so an index over a small batch at the
    /// top of a large corpus costs O(postings + span/64), not O(corpus).
    /// Segment sizes, compaction, the rebuild check and the loader's
    /// overlap check all read a segment's documents here.
    pub(crate) fn doc_ids(&self) -> Vec<DocId> {
        let base = self.layout.base;
        let mut words: Vec<u64> = Vec::new();
        for (_, list) in self.lists() {
            for p in list {
                let bit = (p.doc - base) as usize;
                if bit / 64 >= words.len() {
                    words.resize(bit / 64 + 1, 0);
                }
                words[bit / 64] |= 1u64 << (bit % 64);
            }
        }
        let mut ids = Vec::with_capacity(words.iter().map(|w| w.count_ones() as usize).sum());
        for (w, &word) in words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                ids.push(base + (w * 64) as DocId + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        ids
    }

    /// How the lists pack their postings.
    #[cfg(test)]
    pub(crate) fn layout(&self) -> Layout {
        self.layout
    }

    /// Size of the vocabulary the index's term ids range over (not the
    /// number of lists it stores — that is `lists().len()`).
    pub fn num_terms(&self) -> usize {
        self.num_terms
    }

    /// Total number of postings (index size).
    pub fn num_postings(&self) -> usize {
        self.lists.iter().map(|l| l.len()).sum::<usize>() / self.layout.stride()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tfidf;

    fn corpus() -> Corpus {
        let mut b = Corpus::builder();
        b.add_text("d0", "apple apple orchard");
        b.add_text("d1", "apple pie");
        b.add_text("d2", "orchard walk trees");
        b.add_text("d3", "completely different");
        b.build()
    }

    #[test]
    fn lists_cover_exactly_the_containing_docs() {
        let c = corpus();
        let idx = InvertedIndex::build(&c);
        let apple = c.term_id("apple").unwrap();
        let docs: Vec<DocId> = idx.postings(apple).iter().map(|p| p.doc).collect();
        let mut sorted = docs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1]);
    }

    #[test]
    fn a_posting_is_a_doc_and_a_tf() {
        assert_eq!(std::mem::size_of::<Posting>(), 8);
    }

    #[test]
    fn an_index_under_2_16_documents_with_small_tfs_holds_3_bytes_a_posting() {
        let c = crate::synth::generate(&crate::synth::SynthConfig {
            num_docs: 400,
            ..crate::synth::SynthConfig::tiny()
        });
        let postings: usize = c.docs().map(|d| d.terms.len()).sum();
        assert!(c.docs().all(|d| d.terms.iter().all(|&(_, tf)| tf < 256)));
        // 400 documents: 2-byte doc offsets, 1-byte tfs.
        for idx in [
            InvertedIndex::build(&c),
            InvertedIndex::build_range(&c, 7..400),
        ] {
            let layout = idx.layout();
            assert_eq!((layout.doc_width, layout.tf_width), (2, 1));
            let payload: usize = idx.lists.iter().map(|l| l.len()).sum();
            assert_eq!(payload, 3 * idx.num_postings());
        }
        assert_eq!(InvertedIndex::build(&c).num_postings(), postings);
    }

    #[test]
    fn packed_lists_round_trip_across_width_boundaries() {
        // Doc spans on both sides of 2⁸, 2¹⁶ and 2²⁴ from a non-zero
        // base, each with tfs on both sides of every width boundary. A
        // 2²⁴-document corpus is out of reach of a unit test, so the
        // lists are packed directly, at the narrowest layout.
        let base = 5u32;
        let spans = [1u32, 255, 256, 65_535, 65_536, (1 << 24) - 1, 1 << 24];
        let doc_widths = [1u8, 1, 2, 2, 3, 3, 4];
        let tfs = [1u32, 255, 256, 65_535, 65_536, u32::MAX];
        let tf_widths = [1u8, 1, 2, 2, 3, 4];
        for (&tf, &tf_width) in tfs.iter().zip(&tf_widths) {
            for (&span, &doc_width) in spans.iter().zip(&doc_widths) {
                let near = Posting { doc: base, tf: 1 };
                let far = Posting {
                    doc: base + span,
                    tf,
                };
                let index =
                    InvertedIndex::from_sorted_lists(3, [(0, vec![far]), (2, vec![far, near])]);
                let layout = index.layout();
                let case = format!("span {span} tf {tf}");
                assert_eq!(
                    (layout.base, layout.doc_width, layout.tf_width),
                    (base, doc_width, tf_width),
                    "{case}"
                );
                assert!(index.postings(0).iter().eq([far]), "{case}");
                assert!(index.postings(2).iter().eq([far, near]), "{case}");
                assert_eq!(index.postings(2).get(1), Some(near), "{case}");
                assert_eq!(index.num_postings(), 3, "{case}");
            }
        }
    }

    #[test]
    fn lists_are_sorted_by_partial_desc() {
        let c = corpus();
        let idx = InvertedIndex::build(&c);
        for t in 0..c.num_terms() as TermId {
            let list: Vec<Posting> = idx.postings(t).iter().collect();
            assert!(
                list.windows(2)
                    .all(|w| w[0].partial(&c, c.idf(t)) >= w[1].partial(&c, c.idf(t))),
                "list for {t} unsorted"
            );
        }
    }

    #[test]
    fn partials_match_eq3() {
        let c = corpus();
        let idx = InvertedIndex::build(&c);
        for t in 0..c.num_terms() as TermId {
            for p in idx.postings(t) {
                let want = tfidf::partial_score(&c, t, p.doc);
                assert!((p.partial(&c, c.idf(t)) - want).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn equal_partials_are_ordered_by_doc_id() {
        // Identical documents produce identical partial scores; the list
        // order must still be deterministic (ascending doc id), not an
        // accident of sort internals.
        let mut b = Corpus::builder();
        for i in 0..6 {
            b.add_text(&format!("d{i}"), "wheat harvest season");
        }
        b.add_text("filler", "unrelated words entirely");
        let c = b.build();
        let idx = InvertedIndex::build(&c);
        let wheat = c.term_id("wheat").unwrap();
        let docs: Vec<DocId> = idx.postings(wheat).iter().map(|p| p.doc).collect();
        assert_eq!(docs, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn build_where_lists_are_subsequences_with_identical_partials() {
        let c = crate::synth::generate(&crate::synth::SynthConfig {
            num_docs: 120,
            ..crate::synth::SynthConfig::tiny()
        });
        let full = InvertedIndex::build(&c);
        for shards in [2usize, 3, 5] {
            let parts: Vec<InvertedIndex> = (0..shards)
                .map(|s| InvertedIndex::build_where(&c, |d| d as usize % shards == s))
                .collect();
            for t in 0..c.num_terms() as TermId {
                // Partition: every posting lands in exactly one shard, and
                // each shard list preserves the full list's relative order
                // (same comparator on a subset of a total order). Equal
                // `(doc, tf)` under the same statistics is an equal partial.
                let mut cursors = vec![0usize; shards];
                for p in full.postings(t) {
                    let s = p.doc as usize % shards;
                    assert_eq!(parts[s].postings(t).get(cursors[s]), Some(p));
                    cursors[s] += 1;
                }
                for (s, part) in parts.iter().enumerate() {
                    assert_eq!(cursors[s], part.postings(t).len());
                }
            }
        }
    }

    #[test]
    fn build_range_is_bit_identical_to_build_where_over_the_same_docs() {
        let c = crate::synth::generate(&crate::synth::SynthConfig {
            num_docs: 90,
            ..crate::synth::SynthConfig::tiny()
        });
        for (start, end) in [(0u32, 30u32), (30, 75), (75, 90), (40, 40)] {
            let ranged = InvertedIndex::build_range(&c, start..end);
            let filtered = InvertedIndex::build_where(&c, |d| (start..end).contains(&d));
            assert_eq!(ranged.num_terms(), filtered.num_terms());
            for t in 0..c.num_terms() as TermId {
                let a = ranged.postings(t);
                let b = filtered.postings(t);
                assert_eq!(a, b, "term {t} range {start}..{end}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside corpus")]
    fn build_range_rejects_out_of_bounds() {
        let c = corpus();
        let _ = InvertedIndex::build_range(&c, 0..99);
    }

    #[test]
    fn an_index_stores_only_the_terms_it_holds() {
        let c = corpus();
        let one = InvertedIndex::build_range(&c, 1..2);
        let pie = c.term_id("pie").unwrap();
        let orchard = c.term_id("orchard").unwrap();
        // d1 = "apple pie": two lists, in term order; the rest are absent.
        let terms: Vec<TermId> = one.lists().map(|(t, _)| t).collect();
        let mut want = vec![c.term_id("apple").unwrap(), pie];
        want.sort_unstable();
        assert_eq!(terms, want);
        assert!(
            one.lists()
                .all(|(t, list)| list == one.postings(t) && !list.is_empty())
        );
        assert!(one.postings(orchard).is_empty());
        assert!(one.postings(c.num_terms() as TermId).is_empty());
        assert_eq!(
            one.num_terms(),
            c.num_terms(),
            "num_terms is the vocabulary"
        );
        // The full build holds exactly the terms of positive df.
        let full = InvertedIndex::build(&c);
        let held: Vec<TermId> = full.lists().map(|(t, _)| t).collect();
        let positive: Vec<TermId> = (0..c.num_terms() as TermId)
            .filter(|&t| c.doc_freq(t) > 0)
            .collect();
        assert_eq!(held, positive);
        assert_eq!(InvertedIndex::build_range(&c, 2..2).lists().len(), 0);
    }

    #[test]
    fn doc_ids_are_the_distinct_documents_of_the_postings() {
        let c = crate::synth::generate(&crate::synth::SynthConfig {
            num_docs: 400,
            ..crate::synth::SynthConfig::tiny()
        });
        let some = |d: DocId| d % 3 != 1 && c.doc(d).len > 0;
        for (index, want) in [
            (
                InvertedIndex::build(&c),
                (0..400).filter(|&d| c.doc(d).len > 0).collect(),
            ),
            (
                InvertedIndex::build_range(&c, 330..340),
                (330..340).filter(|&d| c.doc(d).len > 0).collect(),
            ),
            (
                InvertedIndex::build_where(&c, some),
                (0..400).filter(|&d| some(d)).collect(),
            ),
            (InvertedIndex::build_range(&c, 5..5), Vec::<DocId>::new()),
        ] {
            assert_eq!(index.doc_ids(), want);
        }
    }

    #[test]
    fn postings_count() {
        let c = corpus();
        let idx = InvertedIndex::build(&c);
        // d0: 2 distinct, d1: 2, d2: 3, d3: 2.
        assert_eq!(idx.num_postings(), 9);
        assert_eq!(idx.num_terms(), c.num_terms());
    }
}
