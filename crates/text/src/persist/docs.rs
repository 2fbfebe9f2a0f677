//! The document-store chunk file (`KIND_CHUNK`): one chunk's documents
//! (`DOCS`).

use super::SnapshotError;
use super::container::{Container, KIND_CHUNK, assemble, put_gap, put_str, put_varint};
use crate::document::{Document, TermId};

const TAG_DOCS: [u8; 4] = *b"DOCS";

/// A chunk file: one `DOCS` payload, the document count, then per
/// document its title, its length, its distinct-term count and its
/// signature as gap-coded `(term, tf)` pairs in increasing term order —
///
/// ```text
/// n:leb  (title_len:leb  title[title_len]  len:leb  n_terms:leb  (term_gap:leb  tf:leb)×n_terms)×n
/// ```
///
/// where a term gap is the term id minus one past the previous term id
/// (minus 0 for the first), so a signature decodes strictly increasing
/// by construction.
pub(super) fn chunk_to_bytes(docs: &[Document]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_varint(&mut buf, docs.len() as u64);
    for doc in docs {
        put_str(&mut buf, &doc.title);
        put_varint(&mut buf, u64::from(doc.len));
        put_varint(&mut buf, doc.terms.len() as u64);
        let mut next = 0;
        for &(t, tf) in &doc.terms {
            put_gap(&mut buf, &mut next, u64::from(t));
            put_varint(&mut buf, u64::from(tf));
        }
    }
    assemble(KIND_CHUNK, vec![(TAG_DOCS, buf)])
}

/// Decodes a chunk file's documents, which must be exactly the
/// `expected` the manifest declared for the chunk.
pub(super) fn read_chunk(
    c: &mut Container<'_>,
    num_terms: usize,
    expected: usize,
) -> Result<Vec<Document>, SnapshotError> {
    let mut r = c.section(TAG_DOCS, "chunk documents section")?;
    // A document is at least a one-byte title length, length and term
    // count.
    let n = r.counted(3)?;
    if expected != n {
        return Err(SnapshotError::Malformed {
            context: "document count disagrees with the manifest's chunk length",
        });
    }
    let mut docs = Vec::with_capacity(n);
    for _ in 0..n {
        let title = r.str()?.to_owned();
        let len = r.varint_u32()?;
        // A signature entry is at least a one-byte gap and tf.
        let n_terms = r.counted(2)?;
        let mut terms: Vec<(TermId, u32)> = Vec::with_capacity(n_terms);
        let mut next = 0;
        for _ in 0..n_terms {
            let t = r.gap_id(next)?;
            if t >= num_terms as u64 {
                return Err(SnapshotError::Malformed {
                    context: "document references a term outside the vocabulary",
                });
            }
            let tf = r.varint_u32()?;
            if tf == 0 {
                return Err(SnapshotError::Malformed {
                    context: "zero term frequency in a document signature",
                });
            }
            terms.push((t as TermId, tf));
            next = t + 1;
        }
        docs.push(Document { title, terms, len });
    }
    r.finish()?;
    Ok(docs)
}

#[cfg(test)]
mod tests {
    use super::super::tests::assert_malformed;
    use super::*;

    /// One forged document: `(title length, title, len, [(term gap, tf)])`.
    type ForgedDoc<'a> = (u64, &'a str, u32, &'a [(u64, u32)]);

    /// A document-chunk payload written by hand: the declared document
    /// count, then each [`ForgedDoc`] as given.
    fn forged_docs(n: u64, docs: &[ForgedDoc<'_>]) -> Vec<u8> {
        let mut buf = Vec::new();
        put_varint(&mut buf, n);
        for &(title_len, title, len, terms) in docs {
            put_varint(&mut buf, title_len);
            buf.extend_from_slice(title.as_bytes());
            put_varint(&mut buf, len.into());
            put_varint(&mut buf, terms.len() as u64);
            for &(gap, tf) in terms {
                put_varint(&mut buf, gap);
                put_varint(&mut buf, tf.into());
            }
        }
        buf
    }

    /// Decodes `payload` as a one-document chunk over four terms.
    fn decode_docs(payload: Vec<u8>) -> Result<Vec<Document>, SnapshotError> {
        let bytes = assemble(KIND_CHUNK, vec![(TAG_DOCS, payload)]);
        read_chunk(&mut Container::open(&bytes, &[KIND_CHUNK], false)?.0, 4, 1)
    }

    #[test]
    fn forged_document_payloads_are_rejected() {
        let honest = forged_docs(1, &[(1, "a", 3, &[(1, 2), (1, 1)])]);
        let docs = decode_docs(honest.clone()).unwrap();
        assert_eq!(docs[0].terms, [(1, 2), (3, 1)]);
        assert_eq!(
            chunk_to_bytes(&docs),
            assemble(KIND_CHUNK, vec![(TAG_DOCS, honest)])
        );
        assert_malformed(vec![
            (
                "signature term gap past the vocabulary",
                decode_docs(forged_docs(1, &[(1, "a", 3, &[(1, 2), (2, 1)])])),
                "outside the vocabulary",
            ),
            (
                "signature gap sum overflowing",
                decode_docs(forged_docs(1, &[(1, "a", 3, &[(0, 2), (u64::MAX, 1)])])),
                "overflows 64 bits",
            ),
            (
                "zero tf in a signature",
                decode_docs(forged_docs(1, &[(1, "a", 3, &[(1, 0)])])),
                "zero term frequency",
            ),
            (
                "title longer than its section",
                decode_docs(forged_docs(1, &[(1_000, "a", 3, &[(1, 1)])])),
                "element count larger than the section",
            ),
            (
                "document count overclaiming its section",
                decode_docs(forged_docs(5, &[(1, "a", 3, &[(1, 1)])])),
                "element count larger than the section",
            ),
        ]);
    }
}
