//! The segment file: under [`CHUNK`] documents its doc ids (`IDS `,
//! `KIND_SEGMENT_IDS`), which the load rebuilds the lists from, and from
//! [`CHUNK`] up its posting lists (`INDX`, `KIND_SEGMENT`, DESIGN.md §14):
//! the writer copies each list's packed bytes as the index holds them,
//! and the loader validates a list's bytes and keeps them as the list.

use super::container::{
    ByteReader, Container, KIND_SEGMENT, KIND_SEGMENT_IDS, assemble, doc_ids_payload, put_gap,
    put_u64, put_varint, read_doc_ids,
};
use super::{MAX_STORED_VALUE, SnapshotError};
use crate::chunked::CHUNK;
use crate::corpus::Corpus;
use crate::document::{DocId, TermId};
use crate::index::{self, InvertedIndex, Keyed, Layout, Posting, le_u32};
use crate::segments::Segment;

const TAG_INDEX: [u8; 4] = *b"INDX";
pub(super) const TAG_IDS: [u8; 4] = *b"IDS ";

/// A segment's file: under [`CHUNK`] documents only its doc ids — the
/// load rebuilds the lists with the build that made them — and from
/// [`CHUNK`] up its posting lists, which a load keeps as read.
pub(super) fn segment_to_bytes(segment: &Segment) -> Vec<u8> {
    if segment.doc_count() < CHUNK {
        let ids = segment.index().doc_ids();
        assemble(KIND_SEGMENT_IDS, vec![(TAG_IDS, doc_ids_payload(&ids))])
    } else {
        let postings = segment_postings_payload(segment.index());
        assemble(KIND_SEGMENT, vec![(TAG_INDEX, postings)])
    }
}

/// Decodes a segment file of `kind` into the segment's doc ids and, for
/// a postings file, its index. An id file's documents must each give the
/// build that rebuilds its lists a posting: inside the corpus and not
/// empty.
pub(super) fn read_segment_file(
    c: &mut Container<'_>,
    kind: u32,
    corpus: &Corpus,
    inv_len: &[f64],
) -> Result<(Vec<DocId>, Option<InvertedIndex>), SnapshotError> {
    if kind == KIND_SEGMENT_IDS {
        let r = c.section(TAG_IDS, "segment doc id section")?;
        let num_docs = corpus.num_docs() as u64;
        let ids = read_doc_ids(r, num_docs, "segment doc id past the corpus")?;
        let empty = |d: DocId| corpus.doc(d).len == 0 || corpus.doc(d).terms.is_empty();
        if ids.iter().any(|&d| empty(d)) {
            return Err(SnapshotError::Malformed {
                context: "segment lists an empty document",
            });
        }
        return Ok((ids, None));
    }
    let r = c.section(TAG_INDEX, "segment index section")?;
    let index = read_segment_index(r, corpus.idf_table(), inv_len)?;
    Ok((index.doc_ids(), Some(index)))
}

/// Segment-file posting payload (DESIGN.md §14): the vocabulary size,
/// the number of stored lists, the segment's smallest doc id (`base`),
/// the byte widths (1–4) of a posting's doc offset and tf, then per
/// non-empty list in increasing term order its term gap, its length, and
/// its postings in the stored serving order as fixed-width little-endian
/// `(doc − base, tf)` pairs —
///
/// ```text
/// vocab_len:u64  n_lists:leb  base:leb  doc_width:u8  tf_width:u8
///     (term_gap:leb  len:leb  (doc_offset[doc_width]  tf[tf_width])×len)×n_lists
/// ```
///
/// so the payload is O(postings), whatever the vocabulary, and a posting
/// takes the bytes its segment's widest offset and tf need: two in a
/// small live-update batch. This is the index's own layout
/// ([`crate::index`]), so each list is copied as held. A term gap is the
/// term id minus one past the previous list's term (minus 0 for the
/// first). The per-posting `partial` is *not* stored: it is a
/// deterministic IEEE-754 function of data the snapshot already carries
/// (`index::partial`, the exact expression
/// `InvertedIndex::build_from_ids` evaluates), so the load recomputes
/// the identical bits.
pub(super) fn segment_postings_payload(index: &InvertedIndex) -> Vec<u8> {
    let layout = index.layout();
    let lists = index.lists();
    let mut buf = Vec::with_capacity(24 + 4 * lists.len() + layout.stride() * index.num_postings());
    put_u64(&mut buf, index.num_terms() as u64);
    put_varint(&mut buf, lists.len() as u64);
    put_varint(&mut buf, u64::from(layout.base));
    buf.push(layout.doc_width);
    buf.push(layout.tf_width);
    let mut next = 0;
    for (t, list) in lists {
        put_gap(&mut buf, &mut next, u64::from(t));
        put_varint(&mut buf, list.len() as u64);
        buf.extend_from_slice(list.as_bytes());
    }
    buf
}

/// Decodes one segment posting payload, computing each partial score
/// bit-exactly from the epoch IDF table and the per-document
/// `1/sqrt(len)` factors (`inv_len`, indexed by doc id, 0.0 for
/// zero-length docs — which never have postings, so the value is never
/// used). Validation: term ids inside the vocabulary (increasing by
/// construction), no empty list (the writer never stores one), widths in
/// 1..=4, doc ids in range, non-zero term frequencies, plausible
/// partials, and the one true `(partial desc, doc asc)` order — forged
/// CRC-valid bytes still fail typed. The index keeps each list's
/// validated bytes: the partials are checked, then dropped.
pub(super) fn read_segment_index(
    mut r: ByteReader<'_>,
    idf: &[f64],
    inv_len: &[f64],
) -> Result<InvertedIndex, SnapshotError> {
    let vocab_len = r.u64()?;
    if vocab_len != idf.len() as u64 {
        return Err(SnapshotError::Malformed {
            context: "segment vocabulary size disagrees with the corpus vocabulary",
        });
    }
    let n_lists = r.varint()?;
    let base = u32::try_from(r.varint()?).map_err(|_| SnapshotError::Malformed {
        context: "segment base doc id overflows 32 bits",
    })?;
    let (doc_width, tf_width) = (r.u8()?, r.u8()?);
    let Some(decode) = list_decoder(doc_width, tf_width) else {
        return Err(SnapshotError::Malformed {
            context: "posting field width outside 1..=4 bytes",
        });
    };
    let layout = Layout {
        base,
        doc_width,
        tf_width,
    };
    let posting_bytes = layout.stride();
    // A stored list is at least a one-byte term gap and length plus one
    // posting.
    let n_lists = r.check_count(n_lists, 2 + posting_bytes)?;
    let mut terms: Vec<TermId> = Vec::with_capacity(n_lists);
    let mut lists: Vec<Box<[u8]>> = Vec::with_capacity(n_lists);
    let mut next = 0;
    for _ in 0..n_lists {
        let term = r.gap_id(next)?;
        let Some(&term_idf) = usize::try_from(term).ok().and_then(|t| idf.get(t)) else {
            return Err(SnapshotError::Malformed {
                context: "posting list term outside the vocabulary",
            });
        };
        next = term + 1;
        let n = r.counted(posting_bytes)?;
        if n == 0 {
            return Err(SnapshotError::Malformed {
                context: "empty posting list stored",
            });
        }
        let raw = r.take(n * posting_bytes)?;
        decode(raw, base, term_idf, inv_len)?;
        terms.push(term as TermId);
        lists.push(Box::from(raw));
    }
    r.finish()?;
    Ok(InvertedIndex::from_packed(idf.len(), layout, terms, lists))
}

/// Validates one list's fixed-width postings (see
/// [`read_segment_index`]).
type DecodeList = fn(&[u8], u32, f64, &[f64]) -> Result<(), SnapshotError>;

/// The [`DecodeList`] for one `(doc_width, tf_width)` pair, or `None` for
/// a width outside 1..=4. Chosen once per segment, so the per-posting
/// loop runs with both widths as constants.
fn list_decoder(doc_width: u8, tf_width: u8) -> Option<DecodeList> {
    fn with_doc_width<const DW: usize>(tf_width: u8) -> Option<DecodeList> {
        match tf_width {
            1 => Some(decode_list::<DW, 1>),
            2 => Some(decode_list::<DW, 2>),
            3 => Some(decode_list::<DW, 3>),
            4 => Some(decode_list::<DW, 4>),
            _ => None,
        }
    }
    match doc_width {
        1 => with_doc_width::<1>(tf_width),
        2 => with_doc_width::<2>(tf_width),
        3 => with_doc_width::<3>(tf_width),
        4 => with_doc_width::<4>(tf_width),
        _ => None,
    }
}

fn decode_list<const DW: usize, const TW: usize>(
    raw: &[u8],
    base: u32,
    term_idf: f64,
    inv_len: &[f64],
) -> Result<(), SnapshotError> {
    let mut prev: Option<Keyed> = None;
    for entry in raw.chunks_exact(DW + TW) {
        let doc = base.checked_add(le_u32::<DW>(entry));
        let Some((doc, &inv)) = doc.and_then(|d| Some((d, inv_len.get(d as usize)?))) else {
            return Err(SnapshotError::Malformed {
                context: "posting references a document outside the corpus",
            });
        };
        let tf = le_u32::<TW>(&entry[DW..]);
        if tf == 0 {
            // The build never emits tf = 0 (a document signature with a
            // zero count is itself rejected), so a zero here is forged.
            return Err(SnapshotError::Malformed {
                context: "zero term frequency in a posting",
            });
        }
        // The build's own expression — the bits the saver sorted on.
        // Both factors were range-checked on load (IDF by `read_stats`,
        // doc lengths by `read_docs`), so the product is finite.
        let partial = index::partial(tf, term_idf, inv);
        if !(0.0..=MAX_STORED_VALUE).contains(&partial) {
            // The plausibility cap of every stored score-feeding value:
            // an absurd tf × a near-cap IDF can still multiply out to a
            // query-time +inf.
            return Err(SnapshotError::Malformed {
                context: "posting partial score outside the plausible range",
            });
        }
        let keyed = Keyed {
            partial,
            posting: Posting { doc, tf },
        };
        if prev.is_some_and(|prev| index::posting_order(&prev, &keyed).is_gt()) {
            return Err(SnapshotError::Malformed {
                context: "posting list not in (partial desc, doc asc) order",
            });
        }
        prev = Some(keyed);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::tests::assert_malformed;
    use super::*;

    #[test]
    fn negative_partials_are_rejected_even_with_a_valid_crc() {
        // `ScanSource` feeds partials straight into `Score::new`, which
        // panics on negatives and on the +inf an implausibly huge value
        // sums to — so a forged-but-CRC-valid (tf, IDF) pair whose
        // product leaves the plausible range must be stopped at decode,
        // not at query time.
        for (tf, idf) in [(1, -1.0), (u32::MAX, MAX_STORED_VALUE)] {
            let index = InvertedIndex::from_sorted_lists(1, [(0, vec![Posting { doc: 0, tf }])]);
            let payload = segment_postings_payload(&index);
            let reader = ByteReader::new(&payload, "segment index section");
            let decoded = read_segment_index(reader, &[idf], &[1.0]);
            assert_malformed(vec![("a forged (tf, IDF)", decoded, "partial")]);
        }
    }

    /// A segment posting payload written by hand, so a test can forge
    /// what the writer never emits: the vocabulary size, the declared
    /// list count, the base doc id and the `(doc, tf)` widths, then each
    /// `(term gap, [(doc offset, tf)])` list as given, every posting field
    /// cut to its declared width (at most 4 bytes).
    fn forged_payload(
        vocab_len: u64,
        n_lists: u64,
        base: u64,
        (doc_width, tf_width): (u8, u8),
        lists: &[(u64, &[(u32, u32)])],
    ) -> Vec<u8> {
        let (dw, tw) = (usize::from(doc_width.min(4)), usize::from(tf_width.min(4)));
        let mut buf = Vec::new();
        put_u64(&mut buf, vocab_len);
        put_varint(&mut buf, n_lists);
        put_varint(&mut buf, base);
        buf.extend_from_slice(&[doc_width, tf_width]);
        for &(gap, list) in lists {
            put_varint(&mut buf, gap);
            put_varint(&mut buf, list.len() as u64);
            for &(offset, tf) in list {
                buf.extend_from_slice(&offset.to_le_bytes()[..dw]);
                buf.extend_from_slice(&tf.to_le_bytes()[..tw]);
            }
        }
        buf
    }

    /// The vocabulary size of a forged segment payload followed by `raw`
    /// in the list-count position — for forgeries of the LEB128 itself.
    fn forged_count(raw: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        put_u64(&mut buf, 4);
        buf.extend_from_slice(raw);
        buf
    }

    /// Wraps `payload` in a segment container with valid CRCs, opens it
    /// with per-section CRC verification, and decodes it against a
    /// four-term vocabulary (IDF 1) and four documents (`1/sqrt(len)` 1).
    fn decode_forged(payload: Vec<u8>) -> Result<InvertedIndex, SnapshotError> {
        let bytes = assemble(KIND_SEGMENT, vec![(TAG_INDEX, payload)]);
        let mut container = Container::open(&bytes, &[KIND_SEGMENT], false)?.0;
        read_segment_index(
            container.section(TAG_INDEX, "segment index section")?,
            &[1.0; 4],
            &[1.0; 4],
        )
    }

    #[test]
    fn forged_segment_payloads_are_rejected_even_with_a_valid_crc() {
        // The honest control: the forger's bytes are the writer's bytes.
        let honest: &[(u64, &[(u32, u32)])] = &[(1, &[(0, 2), (3, 1)]), (1, &[(2, 1)])];
        let index = decode_forged(forged_payload(4, 2, 0, (1, 1), honest)).unwrap();
        assert_eq!(
            segment_postings_payload(&index),
            forged_payload(4, 2, 0, (1, 1), honest)
        );
        assert_eq!(index.lists().len(), 2);
        assert!(index.postings(3).iter().eq([Posting { doc: 2, tf: 1 }]));
        assert!(index.postings(0).is_empty());

        let one: &[(u32, u32)] = &[(0, 1)];
        let two: &[(u32, u32)] = &[(0, 1), (1, 1)];
        let w = (1, 1);
        assert_malformed(vec![
            (
                "term gap past the vocabulary",
                decode_forged(forged_payload(4, 1, 0, w, &[(4, one)])),
                "outside the vocabulary",
            ),
            (
                "term gap past the vocabulary after a list",
                decode_forged(forged_payload(4, 2, 0, w, &[(1, one), (2, one)])),
                "outside the vocabulary",
            ),
            (
                // Gap coding cannot express v3's "duplicate term id"; the
                // nearest forgery is a gap whose sum wraps back onto the
                // previous term, and the checked sum stops it.
                "gap sum wrapping onto the previous term",
                decode_forged(forged_payload(4, 2, 0, w, &[(0, one), (u64::MAX, one)])),
                "overflows 64 bits",
            ),
            (
                // Likewise v3's "unsorted term ids": a sum wrapping below.
                "gap sum wrapping below the previous term",
                decode_forged(forged_payload(4, 2, 0, w, &[(2, one), (u64::MAX - 1, one)])),
                "overflows 64 bits",
            ),
            (
                "overlong LEB128 list count",
                decode_forged(forged_count(&[0x81, 0x00])),
                "overlong",
            ),
            (
                "unterminated LEB128 list count",
                decode_forged(forged_count(&[0x80])),
                "unterminated",
            ),
            (
                "LEB128 list count past 64 bits",
                decode_forged(forged_count(&[
                    0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02,
                ])),
                "overflows 64 bits",
            ),
            (
                "doc width 0",
                decode_forged(forged_payload(4, 1, 0, (0, 1), &[(1, one)])),
                "width outside",
            ),
            (
                "doc width 5",
                decode_forged(forged_payload(4, 1, 0, (5, 1), &[(1, one)])),
                "width outside",
            ),
            (
                "tf width 0",
                decode_forged(forged_payload(4, 1, 0, (1, 0), &[(1, one)])),
                "width outside",
            ),
            (
                "tf width 5",
                decode_forged(forged_payload(4, 1, 0, (1, 5), &[(1, one)])),
                "width outside",
            ),
            (
                "doc offset past the corpus",
                decode_forged(forged_payload(4, 1, 0, w, &[(1, &[(4, 1)])])),
                "outside the corpus",
            ),
            (
                "base + offset past the corpus",
                decode_forged(forged_payload(4, 1, 3, w, &[(1, &[(1, 1)])])),
                "outside the corpus",
            ),
            (
                "base + offset overflowing 32 bits",
                decode_forged(forged_payload(4, 1, u32::MAX.into(), w, &[(1, &[(1, 1)])])),
                "outside the corpus",
            ),
            (
                "base past 32 bits",
                decode_forged(forged_payload(4, 1, 1 << 32, w, &[(1, one)])),
                "overflows 32 bits",
            ),
            (
                "zero tf",
                decode_forged(forged_payload(4, 1, 0, w, &[(1, &[(0, 0)])])),
                "zero term frequency",
            ),
            (
                "postings out of serving order",
                decode_forged(forged_payload(4, 1, 0, w, &[(1, &[(1, 1), (0, 2)])])),
                "(partial desc, doc asc) order",
            ),
            (
                // The second list carries two postings so the count
                // check (4 B per list at these widths) passes and the
                // empty list is what fails.
                "stored empty list",
                decode_forged(forged_payload(4, 2, 0, w, &[(1, &[]), (1, two)])),
                "empty posting list",
            ),
            (
                "list count overclaiming its section",
                decode_forged(forged_payload(4, 3, 0, w, &[(1, one)])),
                "element count larger than the section",
            ),
        ]);
    }
}
