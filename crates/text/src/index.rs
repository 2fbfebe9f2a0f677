//! The inverted index: per-term posting lists sorted by score contribution.
//!
//! A posting is `(doc, tf)`, 8 bytes. Its *partial score*, the term's
//! contribution to Eq. 3, is not stored: with IDF frozen for each
//! statistics epoch it is a pure function of `tf`, the term's IDF and the
//! document's length, and [`partial`] computes it wherever it is read — a
//! scan's pull, the threshold algorithm's threshold, the sort of a build
//! or a merge, the snapshot loader's order check. One function, so all
//! of them agree to the bit. Every list is in `(partial desc, doc asc)`
//! order under it, so a list scan enumerates documents in non-increasing
//! order of their single-term score (the incremental source of §8's
//! reuters setup) and the threshold algorithm's sorted accesses are
//! exactly list positions (the enwiki setup).
//!
//! An index is **sparse in the vocabulary**: it stores one list per term
//! it actually holds — a sorted `terms` array beside one exact-capacity,
//! never-empty `Vec<Posting>` per present term — and remembers only the
//! vocabulary's *size*. A one-document segment therefore costs its own
//! postings, not 24 bytes of `Vec` header per vocabulary term, and
//! [`InvertedIndex::postings`] answers an absent term with an empty slice
//! (one binary search over `terms`). The lists stay separate allocations
//! on purpose (DESIGN.md §9, "Segment layout"): one flat array per index
//! cannot reuse the heap the corpus generator freed, and measured higher
//! RSS on every serving workload.

use crate::corpus::Corpus;
use crate::document::{DocId, TermId};
use std::cmp::Ordering;

/// One inverted-list entry. The partial score is computed, not stored:
/// see [`Posting::partial`].
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
/// to right. Builds, merges, the loader, scans and the threshold
/// algorithm all compute it here, so a partial has one value wherever it
/// is read. (It may differ from [`crate::tfidf::partial_score`]'s
/// `tf · idf / √len` in the last ulp.)
pub fn partial(tf: u32, idf: f64, inv_sqrt_len: f64) -> f64 {
    tf as f64 * idf * inv_sqrt_len
}

/// A posting beside its computed partial score: what a build or a merge
/// sorts, and what the loader checks the stored order with.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Keyed {
    pub(crate) partial: f64,
    pub(crate) posting: Posting,
}

/// `(partial desc, doc asc)` — the one posting order of every list.
pub(crate) fn posting_order(a: &Keyed, b: &Keyed) -> Ordering {
    b.partial
        .partial_cmp(&a.partial)
        .expect("partial scores are finite")
        .then(a.posting.doc.cmp(&b.posting.doc))
}

/// Sorts `list` into the posting order under `partial_of`, through the
/// reusable `scratch`.
fn sort_list(list: &mut [Posting], scratch: &mut Vec<Keyed>, partial_of: impl Fn(&Posting) -> f64) {
    scratch.clear();
    scratch.extend(list.iter().map(|&posting| Keyed {
        partial: partial_of(&posting),
        posting,
    }));
    scratch.sort_unstable_by(posting_order);
    for (slot, keyed) in list.iter_mut().zip(scratch.iter()) {
        *slot = keyed.posting;
    }
}

/// Inverted index over a corpus (see the module docs for the layout).
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    /// Size of the vocabulary the term ids index into.
    num_terms: usize,
    /// The terms holding at least one posting, strictly increasing.
    terms: Vec<TermId>,
    /// `lists[i]` is the non-empty posting list of `terms[i]`.
    lists: Vec<Vec<Posting>>,
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
    /// each list is counted, allocated once at its exact size, filled in
    /// doc order and sorted. The bitset and the rank are the only
    /// structures sized by the vocabulary; the `1/√len` table the sort
    /// reads is sized by the id span, so a batch at the top of a large
    /// corpus costs the batch.
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
        for (_, doc) in docs() {
            for &(t, _) in &doc.terms {
                counts[slot(t)] += 1;
            }
        }
        let mut lists: Vec<Vec<Posting>> = counts.into_iter().map(Vec::with_capacity).collect();
        // `inv_len[d − first]` is `1/√len(d)`; ids the build skips read 0.
        let mut inv_len: Vec<f64> = Vec::new();
        for (doc_id, doc) in docs() {
            inv_len.resize((doc_id - first) as usize, 0.0);
            inv_len.push(inv_sqrt_len(doc.len));
            for &(t, tf) in &doc.terms {
                lists[slot(t)].push(Posting { doc: doc_id, tf });
            }
        }
        let mut scratch = Vec::new();
        for (&t, list) in terms.iter().zip(&mut lists) {
            let idf = corpus.idf(t);
            sort_list(list, &mut scratch, |p| {
                partial(p.tf, idf, inv_len[(p.doc - first) as usize])
            });
        }
        InvertedIndex {
            num_terms: corpus.num_terms(),
            terms,
            lists,
        }
    }

    /// Merges the lists of `parts` term by term, dropping the postings
    /// `keep` rejects — compaction's primitive. Walks only the union
    /// of the parts' present terms (a k-way merge of their sorted term
    /// arrays); a term whose postings are all dropped gets no list. The
    /// merged lists are re-sorted on computed partials, which equal the
    /// bits a build computes, so a merge of segments is the build over
    /// their surviving documents.
    pub(crate) fn merge<'a>(
        corpus: &Corpus,
        parts: impl IntoIterator<Item = &'a InvertedIndex>,
        keep: impl Fn(DocId) -> bool,
    ) -> InvertedIndex {
        let mut sources: Vec<_> = parts.into_iter().map(|p| p.lists().peekable()).collect();
        let (mut terms, mut lists) = (Vec::new(), Vec::new());
        let mut held: Vec<&[Posting]> = Vec::with_capacity(sources.len());
        let mut scratch = Vec::new();
        while let Some(t) = sources
            .iter_mut()
            .filter_map(|s| s.peek().map(|&(t, _)| t))
            .min()
        {
            held.clear();
            held.extend(
                sources
                    .iter_mut()
                    .filter_map(|s| s.next_if(|&(u, _)| u == t).map(|(_, list)| list)),
            );
            let mut merged: Vec<Posting> = Vec::with_capacity(held.iter().map(|l| l.len()).sum());
            merged.extend(held.iter().flat_map(|l| l.iter()).filter(|p| keep(p.doc)));
            if merged.is_empty() {
                continue;
            }
            merged.shrink_to_fit();
            let idf = corpus.idf(t);
            sort_list(&mut merged, &mut scratch, |p| p.partial(corpus, idf));
            terms.push(t);
            lists.push(merged);
        }
        InvertedIndex {
            num_terms: corpus.num_terms(),
            terms,
            lists,
        }
    }

    /// Assembles an index over a vocabulary of `num_terms` terms directly
    /// from `(term, list)` pairs in increasing term order, each list
    /// non-empty and already in `(partial desc, doc asc)` order — the
    /// load primitive. Debug builds verify the term order and range. The
    /// posting order needs the partials, so the caller checks it: the
    /// snapshot decoder checks every invariant on untrusted bytes, the
    /// posting order included, before calling this, and
    /// [`crate::segments::SegmentedIndex::verify_rebuild_equivalence`]
    /// reports an empty list.
    pub(crate) fn from_sorted_lists(
        num_terms: usize,
        pairs: impl IntoIterator<Item = (TermId, Vec<Posting>)>,
    ) -> InvertedIndex {
        let (terms, lists): (Vec<TermId>, Vec<Vec<Posting>>) = pairs.into_iter().unzip();
        debug_assert!(terms.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(terms.last().is_none_or(|&t| (t as usize) < num_terms));
        InvertedIndex {
            num_terms,
            terms,
            lists,
        }
    }

    /// The posting list for `term` (sorted by partial score, descending);
    /// empty for a term this index holds no posting of.
    pub fn postings(&self, term: TermId) -> &[Posting] {
        match self.terms.binary_search(&term) {
            Ok(i) => &self.lists[i],
            Err(_) => &[],
        }
    }

    /// The non-empty posting lists as `(term, list)` pairs, in
    /// increasing term order.
    pub fn lists(&self) -> impl ExactSizeIterator<Item = (TermId, &[Posting])> + '_ {
        self.terms
            .iter()
            .copied()
            .zip(self.lists.iter().map(Vec::as_slice))
    }

    /// Size of the vocabulary the index's term ids range over (not the
    /// number of lists it stores — that is `lists().len()`).
    pub fn num_terms(&self) -> usize {
        self.num_terms
    }

    /// Total number of postings (index size).
    pub fn num_postings(&self) -> usize {
        self.lists.iter().map(Vec::len).sum()
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
    fn lists_are_sorted_by_partial_desc() {
        let c = corpus();
        let idx = InvertedIndex::build(&c);
        for t in 0..c.num_terms() as TermId {
            let list = idx.postings(t);
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
                    assert_eq!(parts[s].postings(t)[cursors[s]], *p);
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
    fn postings_count() {
        let c = corpus();
        let idx = InvertedIndex::build(&c);
        // d0: 2 distinct, d1: 2, d2: 3, d3: 2.
        assert_eq!(idx.num_postings(), 9);
        assert_eq!(idx.num_terms(), c.num_terms());
    }
}
