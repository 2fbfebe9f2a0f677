//! Directory-level unit tests of the snapshot format: the save and the
//! load end to end, the container's typed errors, and forged manifests
//! and files that must fail typed.
#![cfg(test)]

use super::{container::*, dir::*, manifest::*, segment::*, *};
use crate::chunked::CHUNK;
use crate::document::{Document, TermId};
use crate::segments::{Segment, SegmentedIndex, Tombstones};
use crate::synth::{SynthConfig, generate};
use std::path::Path;
use std::sync::Arc;

#[test]
fn saves_are_atomic_and_leave_no_temp_files() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("divtopk-atomic-{}.snapshot", std::process::id()));
    // Overwriting a longer file with a shorter one must leave
    // exactly the new bytes (rename semantics, not in-place write).
    write_atomic(&path, &[7u8; 4096]).unwrap();
    write_atomic(&path, b"short").unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), b"short");
    let tmp_left = std::fs::read_dir(&dir).unwrap().any(|e| {
        e.unwrap()
            .file_name()
            .to_string_lossy()
            .starts_with(&format!(
                "divtopk-atomic-{}.snapshot.tmp",
                std::process::id()
            ))
    });
    assert!(!tmp_left, "temp file leaked");
    std::fs::remove_file(&path).unwrap();
}

/// Asserts each `(what, result, wanted context)` case failed
/// [`SnapshotError::Malformed`] with a context containing the wanted
/// text.
pub(super) fn assert_malformed<T: fmt::Debug>(cases: Vec<(&str, Result<T, SnapshotError>, &str)>) {
    for (what, result, want) in cases {
        match result {
            Err(SnapshotError::Malformed { context }) => {
                assert!(context.contains(want), "{what}: {context}");
            }
            other => panic!("{what}: expected Malformed, got {other:?}"),
        }
    }
}

/// A doc-id list payload written by hand: the declared count, then each
/// gap as given.
pub(super) fn forged_ids(n: u64, gaps: &[u64]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_varint(&mut buf, n);
    gaps.iter().for_each(|&g| put_varint(&mut buf, g));
    buf
}

/// Term frequencies on both sides of every tf width boundary.
const TF_BOUNDARIES: [u32; 6] = [1, 255, 256, 65_535, 65_536, u32::MAX];

#[test]
fn snapshots_round_trip_across_width_boundaries() {
    // A base segment of 65 540 documents (doc offsets past 2¹⁶) whose
    // first six carry the boundary tfs; a 300-document batch (past
    // 2⁸); a one-document segment of one-posting lists; and two
    // boundary-tf batches in one tier, merged by compaction after a
    // delete.
    let boundary_docs = |tag: &str| -> Vec<Document> {
        TF_BOUNDARIES
            .iter()
            .map(|&tf| Document {
                title: format!("{tag}{tf}"),
                terms: vec![(3, tf), (4, 1)],
                len: tf,
            })
            .collect()
    };
    let mut b = crate::corpus::CorpusBuilder::with_synthetic_vocab(8);
    for doc in boundary_docs("base") {
        b.add_document(doc);
    }
    for i in 0..65_534u32 {
        b.add_tokens(format!("d{i}"), vec![i % 3]);
    }
    let mut index = SegmentedIndex::build(b.build());
    index.add_docs(
        (0..300u32)
            .map(|i| Document::from_tokens(format!("batch{i}"), vec![i % 5, 6]))
            .collect(),
    );
    index.add_docs(vec![Document::from_tokens("lone".into(), vec![5, 7])]);
    index.add_docs(boundary_docs("a"));
    index.add_docs(boundary_docs("b"));
    index.delete_docs(&[2, 65_541]);
    assert!(index.compact() >= 2);

    let widths: Vec<(u8, u8)> = index
        .segments()
        .iter()
        .map(|s| (s.index().layout().doc_width, s.index().layout().tf_width))
        .collect();
    for doc_width in 1..=3 {
        assert!(widths.iter().any(|w| w.0 == doc_width), "{widths:?}");
    }
    assert!(widths.contains(&(1, 4)), "{widths:?}");
    assert!(widths.contains(&(3, 4)), "{widths:?}");

    let dir = temp_dir("widths");
    save_segmented(&dir, &index, 1).unwrap();
    let (loaded, _) = load_segmented(&dir).unwrap();
    assert_eq!(loaded.num_segments(), index.num_segments());
    for (a, b) in loaded.segments().iter().zip(index.segments()) {
        assert_eq!(a.id(), b.id());
        assert!(
            a.index().lists().eq(b.index().lists()),
            "segment {}",
            a.id()
        );
    }
    loaded.verify_rebuild_equivalence().unwrap();
    // The loaded state saves to the same bytes, file by file.
    let again = temp_dir("widths-again");
    save_segmented(&again, &loaded, 1).unwrap();
    let files = |d: &Path| -> std::collections::BTreeMap<_, _> {
        std::fs::read_dir(d)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (e.file_name(), std::fs::read(e.path()).unwrap())
            })
            .collect()
    };
    assert!(files(&dir) == files(&again));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&again);
}

/// A process-unique scratch directory for one test; removed and
/// recreated empty on each call.
pub(super) fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("divtopk-persist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The manifest of the snapshot directory `dir`.
pub(super) fn manifest_of(dir: &Path) -> Manifest {
    manifest_from_bytes(&std::fs::read(dir.join(MANIFEST_NAME)).unwrap()).unwrap()
}

/// The path of the file of segment `i` of the snapshot at `dir`.
fn segment_path(dir: &Path, i: usize) -> std::path::PathBuf {
    let e = manifest_of(dir).segments[i];
    dir.join(segment_file_name(e.id, e.file.1))
}

/// The kind a snapshot file's header declares.
fn kind_of(path: &Path) -> u32 {
    file_kind(&std::fs::read(path).unwrap()).unwrap()
}

/// A two-segment state with a live-update tail (one appended batch,
/// two deletes) — the smallest shape exercising every manifest
/// feature: multiple segments, a partial chunk, and tombstones.
pub(super) fn small_segmented() -> SegmentedIndex {
    let corpus = generate(&SynthConfig::tiny());
    let n_terms = corpus.num_terms() as TermId;
    let mut index = SegmentedIndex::build_partitioned(corpus, 2);
    let docs: Vec<Document> = (0..5)
        .map(|i| Document::from_tokens(format!("new{i}"), vec![i % n_terms, (i + 1) % n_terms]))
        .collect();
    index.add_docs(docs);
    index.delete_docs(&[1, 3]);
    index
}

#[test]
fn overlapping_segments_are_rejected() {
    // Disjoint segment doc sets are the invariant the merged-bound
    // soundness proof rests on; a snapshot whose segments share a
    // document must not load, whether the id files are under one chunk
    // of documents or past it.
    let mut b = crate::corpus::CorpusBuilder::with_synthetic_vocab(2);
    // Room for both overlapping pairs' counts, which the manifest
    // checks against the corpus before any file is read.
    for i in 0..2_300u32 {
        b.add_tokens(format!("d{i}"), vec![i % 2]);
    }
    let corpus = Arc::new(b.build());
    for (a, b) in [(0..40, 30..80), (0..1_100, 1_000..2_100)] {
        let overlapping = SegmentedIndex::from_parts(
            Arc::clone(&corpus),
            vec![
                Arc::new(Segment::build(0, &corpus, a)),
                Arc::new(Segment::build(1, &corpus, b)),
            ],
            Tombstones::default(),
            0,
            2,
        );
        let dir = temp_dir("overlap");
        save_segmented(&dir, &overlapping, 0).unwrap();
        assert_eq!(kind_of(&segment_path(&dir, 1)), KIND_SEGMENT_IDS);
        let what = format!("{} documents", overlapping.segments()[1].doc_count());
        assert_malformed(vec![(&what, load_segmented(&dir), "same document")]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A two-segment state whose corpus holds one empty document (id 2),
/// saved as two id files: what the forged id files below replace
/// segment 0's file in.
fn id_file_state(dir: &Path) -> SegmentedIndex {
    let mut b = crate::corpus::CorpusBuilder::with_synthetic_vocab(4);
    for (i, tokens) in [vec![0, 1], vec![1], vec![], vec![2, 3], vec![3], vec![0]]
        .into_iter()
        .enumerate()
    {
        b.add_tokens(format!("d{i}"), tokens);
    }
    let index = SegmentedIndex::build_partitioned(b.build(), 2);
    save_segmented(dir, &index, 1).unwrap();
    index
}

/// Replaces segment 0's file in the snapshot at `dir` by an id file
/// holding `payload`, recorded in the manifest with `doc_count`
/// documents, and loads the directory.
fn load_forged_ids(
    dir: &Path,
    payload: Vec<u8>,
    doc_count: u64,
) -> Result<(SegmentedIndex, u64), SnapshotError> {
    let mut manifest = manifest_of(dir);
    let bytes = assemble(KIND_SEGMENT_IDS, vec![(TAG_IDS, payload)]);
    let entry = &mut manifest.segments[0];
    entry.doc_count = doc_count;
    entry.file = (bytes.len() as u64, crc32(&bytes));
    let name = segment_file_name(entry.id, entry.file.1);
    std::fs::write(dir.join(name), &bytes).unwrap();
    std::fs::write(dir.join(MANIFEST_NAME), manifest_to_bytes(&manifest)).unwrap();
    load_segmented(dir)
}

#[test]
fn forged_id_files_are_rejected() {
    let dir = temp_dir("forged-ids");
    let index = id_file_state(&dir);
    // Segment 0 holds the non-empty even documents 0 and 4 (2 is
    // empty), segment 1 the odd ones.
    assert_eq!(index.segments()[0].index().doc_ids(), [0, 4]);
    assert_eq!(index.segments()[1].index().doc_ids(), [1, 3, 5]);
    // The honest payload is the gap form, and loads.
    assert_eq!(doc_ids_payload(&[0, 4]), forged_ids(2, &[0, 3]));
    load_forged_ids(&dir, forged_ids(2, &[0, 3]), 2)
        .unwrap()
        .0
        .verify_rebuild_equivalence()
        .unwrap();
    assert_malformed(vec![
        (
            // A gap counts past one more than the previous id, so an
            // id can repeat or go back only by wrapping 64 bits.
            "unsorted or duplicate ids",
            load_forged_ids(&dir, forged_ids(2, &[4, u64::MAX - 4]), 2),
            "overflows 64 bits",
        ),
        (
            "an id past the corpus",
            load_forged_ids(&dir, forged_ids(2, &[0, 5]), 2),
            "past the corpus",
        ),
        (
            "a listed empty document",
            load_forged_ids(&dir, forged_ids(2, &[0, 1]), 2),
            "empty document",
        ),
        (
            "a count that differs from the manifest",
            load_forged_ids(&dir, forged_ids(2, &[0, 3]), 1),
            "disagrees with the manifest",
        ),
        (
            "an overclaiming count",
            load_forged_ids(&dir, forged_ids(3, &[0, 3]), 3),
            "element count larger than the section",
        ),
        (
            "overlap with another segment",
            load_forged_ids(&dir, forged_ids(2, &[0, 2]), 2),
            "same document",
        ),
    ]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_segment_is_saved_as_ids() {
    // A 1 023-document segment and a 1 024-document one, on either side
    // of the chunk size that once split the two payloads, are both saved
    // as their doc ids and load to the lists they held.
    let mut b = crate::corpus::CorpusBuilder::with_synthetic_vocab(3);
    for i in 0..(CHUNK as u32 - 1) {
        b.add_tokens(format!("d{i}"), vec![i % 3]);
    }
    let mut index = SegmentedIndex::build(b.build());
    index.add_docs(
        (0..CHUNK as u32)
            .map(|i| Document::from_tokens(format!("a{i}"), vec![i % 3, 2]))
            .collect(),
    );
    let counts: Vec<usize> = index.segments().iter().map(|s| s.doc_count()).collect();
    assert_eq!(counts, [CHUNK - 1, CHUNK]);
    let dir = temp_dir("boundary");
    save_segmented(&dir, &index, 1).unwrap();
    for i in 0..2 {
        let path = segment_path(&dir, i);
        assert_eq!(kind_of(&path), KIND_SEGMENT_IDS);
        let ids = index.segments()[i].index().doc_ids();
        let bytes = assemble(KIND_SEGMENT_IDS, vec![(TAG_IDS, doc_ids_payload(&ids))]);
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
    }
    let (loaded, _) = load_segmented(&dir).unwrap();
    for (a, b) in loaded.segments().iter().zip(index.segments()) {
        assert!(
            a.index().lists().eq(b.index().lists()),
            "segment {}",
            a.id()
        );
    }
    loaded.verify_rebuild_equivalence().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kind_confusion_is_a_typed_error() {
    // The epoch file dropped in as the MANIFEST must fail by kind,
    // not by misparsing sections.
    let dir = temp_dir("kind");
    save_segmented(&dir, &small_segmented(), 1).unwrap();
    let epoch = epoch_file_name(manifest_of(&dir).epoch.1);
    std::fs::copy(dir.join(epoch), dir.join(MANIFEST_NAME)).unwrap();
    assert!(matches!(
        load_segmented(&dir),
        Err(SnapshotError::WrongKind {
            found: KIND_EPOCH,
            expected: KIND_MANIFEST
        })
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn segmented_round_trips_through_a_directory() {
    let index = small_segmented();
    let dir = temp_dir("roundtrip");
    let report = save_segmented(&dir, &index, 7).unwrap();
    assert_eq!(report.files_reused, 0);
    assert_eq!(report.bytes_written, report.total_bytes);
    let (loaded, generation) = load_segmented(&dir).unwrap();
    assert_eq!(generation, 7);
    assert_eq!(loaded.num_segments(), index.num_segments());
    assert_eq!(loaded.next_segment_id(), index.next_segment_id());
    assert_eq!(loaded.tombstone_set().len(), index.tombstone_set().len());
    assert!(loaded.corpus().docs().eq(index.corpus().docs()));
    for t in 0..index.corpus().num_terms() as TermId {
        let (a, b) = (loaded.corpus(), index.corpus());
        assert_eq!(a.vocab().term(t), b.vocab().term(t), "term {t} renamed");
        assert_eq!(a.doc_freq(t), b.doc_freq(t));
        assert_eq!(a.idf(t).to_bits(), b.idf(t).to_bits());
    }
    assert!(
        loaded
            .weights()
            .iter()
            .map(|w| w.to_bits())
            .eq(index.weights().iter().map(|w| w.to_bits()))
    );
    loaded.verify_rebuild_equivalence().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn second_save_without_changes_writes_only_the_manifest() {
    let index = small_segmented();
    let dir = temp_dir("nochange");
    let first = save_segmented(&dir, &index, 1).unwrap();
    let second = save_segmented(&dir, &index, 2).unwrap();
    assert_eq!(second.files_written, 1, "{second:?}");
    assert_eq!(second.files_reused, first.files_written - 1);
    assert_eq!(second.total_bytes, first.total_bytes);
    let (loaded, generation) = load_segmented(&dir).unwrap();
    assert_eq!(generation, 2);
    loaded.verify_rebuild_equivalence().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn incremental_save_writes_only_the_delta() {
    let mut index = small_segmented();
    let dir = temp_dir("delta");
    save_segmented(&dir, &index, 1).unwrap();
    let n_terms = index.corpus().num_terms() as TermId;
    index.add_docs(vec![Document::from_tokens(
        "tail".into(),
        vec![0, 1 % n_terms],
    )]);
    index.delete_docs(&[0]);
    let report = save_segmented(&dir, &index, 2).unwrap();
    // The batch touched: one new segment file, the (partial) tail
    // chunk, and the manifest. Epoch and the prior segments reused.
    assert_eq!(report.files_written, 3, "{report:?}");
    assert!(
        report.files_reused >= index.num_segments() - 1,
        "{report:?}"
    );
    assert!(report.bytes_written < report.total_bytes);
    let (loaded, _) = load_segmented(&dir).unwrap();
    assert!(loaded.corpus().docs().eq(index.corpus().docs()));
    loaded.verify_rebuild_equivalence().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn save_fsyncs_the_snapshot_directory() {
    // Satellite of the crash model: rename alone does not make the
    // directory entry durable — every atomic write must be followed
    // by a parent-directory fsync. The audit counters are global and
    // other tests save concurrently, so assert monotonic growth by
    // at least this save's file count.
    let index = small_segmented();
    let dir = temp_dir("fsync");
    let dirs_before = audit::dir_syncs();
    let files_before = audit::file_syncs();
    let report = save_segmented(&dir, &index, 1).unwrap();
    assert!(report.files_written > 0);
    assert!(audit::dir_syncs() - dirs_before >= report.files_written as u64);
    assert!(audit::file_syncs() - files_before >= report.files_written as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_segment_ids_in_the_manifest_are_rejected() {
    let index = small_segmented();
    let dir = temp_dir("dupid");
    save_segmented(&dir, &index, 1).unwrap();
    let mut manifest = manifest_of(&dir);
    assert!(manifest.segments.len() >= 2);
    manifest.segments[1] = manifest.segments[0];
    std::fs::write(dir.join(MANIFEST_NAME), manifest_to_bytes(&manifest)).unwrap();
    assert_malformed(vec![(
        "a repeated id",
        load_segmented(&dir),
        "duplicate segment id",
    )]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn manifest_naming_a_missing_segment_file_is_a_typed_error() {
    let index = small_segmented();
    let dir = temp_dir("missingseg");
    save_segmented(&dir, &index, 1).unwrap();
    std::fs::remove_file(segment_path(&dir, 0)).unwrap();
    assert!(matches!(load_segmented(&dir), Err(SnapshotError::Io(_))));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_segment_file_from_another_checkpoint_is_rejected() {
    // A file swap that keeps a *valid* segment container on disk —
    // but not the bytes the manifest recorded — must fail the
    // whole-file CRC, not load a wrong segment.
    let index = small_segmented();
    let dir = temp_dir("staleseg");
    save_segmented(&dir, &index, 1).unwrap();
    // A base segment's file and the 5-document batch's.
    let (a, b) = (segment_path(&dir, 0), segment_path(&dir, 2));
    // Different-length stale file: caught by the manifest's recorded
    // length before any parsing.
    let original = std::fs::read(&a).unwrap();
    std::fs::copy(&b, &a).unwrap();
    assert!(matches!(
        load_segmented(&dir),
        Err(SnapshotError::Truncated { .. } | SnapshotError::TrailingBytes { .. })
    ));
    // Same-length, different-bytes stale file: caught by the
    // whole-file CRC. Swapping two unequal adjacent payload bytes
    // keeps the length while changing the content.
    let mut swapped = original.clone();
    let i = (0..swapped.len() - 1)
        .rev()
        .find(|&i| swapped[i] != swapped[i + 1])
        .unwrap();
    swapped.swap(i, i + 1);
    std::fs::write(&a, &swapped).unwrap();
    match load_segmented(&dir) {
        Err(SnapshotError::ChecksumMismatch { tag, .. }) => assert_eq!(tag, TAG_FILE),
        other => panic!("expected whole-file ChecksumMismatch, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn overclaiming_manifest_doc_counts_are_rejected() {
    let index = small_segmented();
    let dir = temp_dir("overclaim");
    save_segmented(&dir, &index, 1).unwrap();
    let mut manifest = manifest_of(&dir);
    manifest.segments[0].doc_count = manifest.num_docs + 1;
    std::fs::write(dir.join(MANIFEST_NAME), manifest_to_bytes(&manifest)).unwrap();
    let overclaim = load_segmented(&dir);
    assert_malformed(vec![("an overclaim", overclaim, "claim more documents")]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `MANIFEST` bytes of a fresh snapshot directory — the one file
/// decoded without an outer whole-file checksum, so container-level
/// damage surfaces as the container's own typed errors.
fn manifest_bytes(tag: &str) -> Vec<u8> {
    let dir = temp_dir(tag);
    save_segmented(&dir, &small_segmented(), 1).unwrap();
    let bytes = std::fs::read(dir.join(MANIFEST_NAME)).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    bytes
}

#[test]
fn bad_magic_and_version_are_typed_errors() {
    let mut bytes = manifest_bytes("magic");
    bytes[0] ^= 0xFF;
    assert!(matches!(
        manifest_from_bytes(&bytes),
        Err(SnapshotError::BadMagic { .. })
    ));
    bytes[0] ^= 0xFF;
    bytes[8] = 99; // version field
    assert!(matches!(
        manifest_from_bytes(&bytes),
        Err(SnapshotError::UnsupportedVersion { found: 99 })
    ));
}

#[test]
fn a_version_1_snapshot_is_unsupported() {
    // Version 1 stored a list length for every vocabulary term,
    // version 2 a fingerprint, a META section and a weight table in
    // every data file, version 3 fixed-width ids, counts and
    // postings, version 4 every segment's postings under names
    // without a CRC, version 5 the postings of every segment of at
    // least one chunk of documents; this build decodes none of them
    // (rebuild on mismatch, DESIGN.md §14).
    let dir = temp_dir("v1");
    save_segmented(&dir, &small_segmented(), 1).unwrap();
    let pristine = std::fs::read(dir.join(MANIFEST_NAME)).unwrap();
    for version in 1..FORMAT_VERSION {
        let mut bytes = pristine.clone();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        std::fs::write(dir.join(MANIFEST_NAME), &bytes).unwrap();
        match load_segmented(&dir) {
            Err(SnapshotError::UnsupportedVersion { found }) => assert_eq!(found, version),
            other => panic!("version {version}: expected UnsupportedVersion, got {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_segment_file_does_not_grow_with_the_vocabulary() {
    // The same one-document batch on a 3 000-term and a 120 000-term
    // epoch is saved as segment files of equal length: the file holds
    // the batch's doc ids, nothing per vocabulary term, and loads as the
    // same lists.
    let doc = Document::from_tokens("one".into(), vec![7, 42, 42, 1_999]);
    let mut lens = Vec::new();
    for vocab in [3_000usize, 120_000] {
        let mut b = crate::corpus::CorpusBuilder::with_synthetic_vocab(vocab);
        b.add_tokens("base".into(), vec![0, 1, 2]);
        let mut index = SegmentedIndex::build(b.build());
        let dir = temp_dir(&format!("vocab{vocab}"));
        save_segmented(&dir, &index, 1).unwrap();
        index.add_docs(vec![doc.clone()]);
        let added = index.segments().last().unwrap();
        assert_eq!(added.index().lists().count(), doc.distinct_terms());
        assert_eq!(added.index().num_terms(), vocab);
        save_segmented(&dir, &index, 2).unwrap();
        lens.push(std::fs::metadata(segment_path(&dir, 1)).unwrap().len());
        let (loaded, _) = load_segmented(&dir).unwrap();
        let reloaded = loaded.segments().last().unwrap();
        assert!(reloaded.index().lists().eq(added.index().lists()));
        loaded.verify_rebuild_equivalence().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
    assert_eq!(
        lens[0], lens[1],
        "segment file length depends on the vocabulary"
    );
}

#[test]
fn empty_input_is_truncated_not_a_panic() {
    assert!(matches!(
        manifest_from_bytes(&[]),
        Err(SnapshotError::Truncated { .. })
    ));
}

#[test]
fn oversized_section_length_is_rejected_before_any_slice() {
    let mut bytes = manifest_bytes("oversized");
    // The first section header follows the file header; its u64 length
    // follows its tag.
    let len_at = HEADER_LEN + 4;
    bytes[len_at..len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(matches!(
        manifest_from_bytes(&bytes),
        Err(SnapshotError::Truncated { .. })
    ));
}

#[test]
fn payload_corruption_is_a_checksum_mismatch() {
    let mut bytes = manifest_bytes("crc");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    assert!(matches!(
        manifest_from_bytes(&bytes),
        Err(SnapshotError::ChecksumMismatch { .. })
    ));
}

#[test]
fn trailing_bytes_are_rejected() {
    let mut bytes = manifest_bytes("trailing");
    bytes.push(0);
    assert!(matches!(
        manifest_from_bytes(&bytes),
        Err(SnapshotError::TrailingBytes { extra: 1 })
    ));
}
