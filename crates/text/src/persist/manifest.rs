//! The `MANIFEST` (`KIND_MANIFEST`): the generation and counters
//! (`META`), one entry per segment file (`SEGS`) and per chunk file
//! (`CHNK`), and the tombstones (`TOMB`) — everything that names, orders
//! and verifies the other files of a snapshot directory.

use super::container::{
    Container, KIND_MANIFEST, assemble, doc_ids_payload, put_u32, put_u64, put_varint, read_doc_ids,
};
use super::{FileStamp, SnapshotError};
use crate::chunked::CHUNK;
use crate::document::DocId;

const TAG_META: [u8; 4] = *b"META";
const TAG_SEGS: [u8; 4] = *b"SEGS";
const TAG_CHUNKS: [u8; 4] = *b"CHNK";
const TAG_TOMB: [u8; 4] = *b"TOMB";

/// One segment file's manifest entry.
#[derive(Debug, Clone, Copy)]
pub(super) struct SegmentEntry {
    pub(super) id: u64,
    pub(super) doc_count: u64,
    pub(super) file: FileStamp,
}

/// One document-store chunk file's manifest entry.
#[derive(Debug, Clone, Copy)]
pub(super) struct ChunkEntry {
    pub(super) len: u64,
    pub(super) file: FileStamp,
}

/// The decoded `MANIFEST`: everything needed to name, order, and verify
/// the other files of the snapshot directory, plus the small mutable
/// state (generation, counters, tombstones) that changes every
/// checkpoint.
#[derive(Debug, Clone)]
pub(super) struct Manifest {
    pub(super) generation: u64,
    pub(super) compactions: u64,
    pub(super) next_segment_id: u64,
    pub(super) num_docs: u64,
    pub(super) num_terms: u64,
    pub(super) epoch: FileStamp,
    pub(super) segments: Vec<SegmentEntry>,
    pub(super) chunks: Vec<ChunkEntry>,
    /// Tombstoned doc ids, strictly increasing — sparse on purpose:
    /// O(#deleted) manifest bytes, part of keeping checkpoints O(delta).
    pub(super) deleted: Vec<DocId>,
}

pub(super) fn manifest_to_bytes(m: &Manifest) -> Vec<u8> {
    let mut meta = Vec::new();
    put_u64(&mut meta, m.generation);
    put_u64(&mut meta, m.compactions);
    put_u64(&mut meta, m.next_segment_id);
    put_u64(&mut meta, m.num_docs);
    put_u64(&mut meta, m.num_terms);
    put_u64(&mut meta, CHUNK as u64);
    put_u64(&mut meta, m.epoch.0);
    put_u32(&mut meta, m.epoch.1);
    let mut segs = Vec::new();
    put_varint(&mut segs, m.segments.len() as u64);
    for e in &m.segments {
        put_u64(&mut segs, e.id);
        put_u64(&mut segs, e.doc_count);
        put_u64(&mut segs, e.file.0);
        put_u32(&mut segs, e.file.1);
    }
    let mut chunks = Vec::new();
    put_varint(&mut chunks, m.chunks.len() as u64);
    for e in &m.chunks {
        put_u64(&mut chunks, e.len);
        put_u64(&mut chunks, e.file.0);
        put_u32(&mut chunks, e.file.1);
    }
    assemble(
        KIND_MANIFEST,
        vec![
            (TAG_META, meta),
            (TAG_SEGS, segs),
            (TAG_CHUNKS, chunks),
            (TAG_TOMB, doc_ids_payload(&m.deleted)),
        ],
    )
}

pub(super) fn manifest_from_bytes(bytes: &[u8]) -> Result<Manifest, SnapshotError> {
    let mut container = Container::open(bytes, &[KIND_MANIFEST], false)?.0;
    let mut meta = container.section(TAG_META, "manifest meta section")?;
    let generation = meta.u64()?;
    let compactions = meta.u64()?;
    let next_segment_id = meta.u64()?;
    let num_docs = meta.u64()?;
    let num_terms = meta.u64()?;
    let chunk_size = meta.u64()?;
    let epoch = (meta.u64()?, meta.u32()?);
    meta.finish()?;
    if chunk_size != CHUNK as u64 {
        return Err(SnapshotError::Malformed {
            context: "manifest declares an unsupported chunk size",
        });
    }
    let mut segs = container.section(TAG_SEGS, "manifest segment table")?;
    let n = segs.counted(28)?;
    let mut segments = Vec::with_capacity(n);
    for _ in 0..n {
        segments.push(SegmentEntry {
            id: segs.u64()?,
            doc_count: segs.u64()?,
            file: (segs.u64()?, segs.u32()?),
        });
    }
    segs.finish()?;
    let mut chnk = container.section(TAG_CHUNKS, "manifest chunk table")?;
    let n = chnk.counted(20)?;
    let mut chunks = Vec::with_capacity(n);
    for _ in 0..n {
        chunks.push(ChunkEntry {
            len: chnk.u64()?,
            file: (chnk.u64()?, chnk.u32()?),
        });
    }
    chnk.finish()?;
    let deleted = read_doc_ids(
        container.section(TAG_TOMB, "manifest tombstone list")?,
        num_docs,
        // A mark past the last allocated id would make the live-document
        // accounting (`num_docs - deleted`) underflow.
        "tombstone for an unallocated document id",
    )?;
    container.finish()?;
    if segments.is_empty() {
        return Err(SnapshotError::Malformed {
            context: "snapshot declares zero segments",
        });
    }
    let mut ids: Vec<u64> = segments.iter().map(|e| e.id).collect();
    ids.sort_unstable();
    if ids.windows(2).any(|w| w[0] == w[1]) {
        return Err(SnapshotError::Malformed {
            context: "duplicate segment id in the manifest",
        });
    }
    if segments.iter().any(|e| e.id >= next_segment_id) {
        return Err(SnapshotError::Malformed {
            context: "segment id at or above the manifest's next segment id",
        });
    }
    let claimed = segments.iter().try_fold(0u64, |total, e| {
        total.checked_add(e.doc_count).filter(|&t| t <= num_docs)
    });
    if claimed.is_none() {
        // Segments cover disjoint doc sets, so their counts can never sum
        // past the corpus.
        return Err(SnapshotError::Malformed {
            context: "segments claim more documents than the corpus holds",
        });
    }
    let mut chunk_total: u64 = 0;
    for (i, e) in chunks.iter().enumerate() {
        let sealed_required = i + 1 < chunks.len();
        if e.len == 0 || e.len > CHUNK as u64 || (sealed_required && e.len != CHUNK as u64) {
            return Err(SnapshotError::Malformed {
                context: "chunk lengths violate the sealed-chunk invariant",
            });
        }
        chunk_total += e.len;
    }
    if chunk_total != num_docs {
        return Err(SnapshotError::Malformed {
            context: "chunk lengths do not sum to the document count",
        });
    }
    Ok(Manifest {
        generation,
        compactions,
        next_segment_id,
        num_docs,
        num_terms,
        epoch,
        segments,
        chunks,
        deleted,
    })
}

#[cfg(test)]
mod tests {
    use super::super::container::ByteReader;
    use super::super::tests::{
        assert_malformed, forged_ids, manifest_of, small_segmented, temp_dir,
    };
    use super::super::{MANIFEST_NAME, load_segmented, save_segmented};
    use super::*;

    #[test]
    fn a_manifest_that_leaves_out_a_live_document_is_rejected() {
        // Dropping a segment's entry leaves its live documents in no
        // segment: the snapshot must not load and quietly stop serving
        // them.
        let dir = temp_dir("unheld");
        save_segmented(&dir, &small_segmented(), 1).unwrap();
        let mut manifest = manifest_of(&dir);
        manifest.segments.remove(0);
        std::fs::write(dir.join(MANIFEST_NAME), manifest_to_bytes(&manifest)).unwrap();
        let dropped = load_segmented(&dir);
        assert_malformed(vec![("a dropped segment", dropped, "held by no segment")]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn forged_tombstone_payloads_are_rejected() {
        let decode_tomb = |payload: Vec<u8>| {
            let r = ByteReader::new(&payload, "manifest tombstone list");
            read_doc_ids(r, 5, "tombstone for an unallocated document id")
        };
        assert_eq!(decode_tomb(doc_ids_payload(&[0, 3, 4])).unwrap(), [0, 3, 4]);
        assert_eq!(doc_ids_payload(&[0, 3, 4]), forged_ids(3, &[0, 2, 0]));
        assert_malformed(vec![
            (
                "tombstone gap past the allocated ids",
                decode_tomb(forged_ids(2, &[1, 3])),
                "unallocated document id",
            ),
            (
                "tombstone gap sum overflowing",
                decode_tomb(forged_ids(2, &[0, u64::MAX])),
                "overflows 64 bits",
            ),
            (
                "tombstone count overclaiming its section",
                decode_tomb(forged_ids(3, &[0])),
                "element count larger than the section",
            ),
        ]);
    }
}
