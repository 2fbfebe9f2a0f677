//! The segment file (`KIND_SEGMENT_IDS`, DESIGN.md §14): the segment's
//! doc ids (`IDS `). No posting is stored: the load rebuilds the lists
//! with the build that made them, over the same documents under the same
//! epoch.

use super::SnapshotError;
use super::container::{Container, KIND_SEGMENT_IDS, assemble, doc_ids_payload, read_doc_ids};
use crate::corpus::Corpus;
use crate::document::DocId;
use crate::segments::Segment;

pub(super) const TAG_IDS: [u8; 4] = *b"IDS ";

/// A segment's file: its doc ids.
pub(super) fn segment_to_bytes(segment: &Segment) -> Vec<u8> {
    let ids = segment.index().doc_ids();
    assemble(KIND_SEGMENT_IDS, vec![(TAG_IDS, doc_ids_payload(&ids))])
}

/// Decodes a segment file into the segment's doc ids. Each must give the
/// build that rebuilds its lists a posting: inside the corpus and not
/// empty.
pub(super) fn read_segment_file(
    c: &mut Container<'_>,
    corpus: &Corpus,
) -> Result<Vec<DocId>, SnapshotError> {
    let r = c.section(TAG_IDS, "segment doc id section")?;
    let num_docs = corpus.num_docs() as u64;
    let ids = read_doc_ids(r, num_docs, "segment doc id past the corpus")?;
    let empty = |d: DocId| corpus.doc(d).len == 0 || corpus.doc(d).terms.is_empty();
    if ids.iter().any(|&d| empty(d)) {
        return Err(SnapshotError::Malformed {
            context: "segment lists an empty document",
        });
    }
    Ok(ids)
}
