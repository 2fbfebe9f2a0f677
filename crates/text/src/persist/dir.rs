//! The snapshot directory: atomic writes, the incremental save, the load
//! that reads each data file through one checked reader, and garbage
//! collection of the files a new manifest no longer names.

use super::container::{Container, KIND_CHUNK, KIND_EPOCH, KIND_SEGMENT_IDS, crc32};
use super::docs::{chunk_to_bytes, read_chunk};
use super::epoch::{epoch_to_bytes, read_epoch};
use super::manifest::{ChunkEntry, Manifest, SegmentEntry, manifest_from_bytes, manifest_to_bytes};
use super::segment::{read_segment_file, segment_to_bytes};
use super::{
    FileStamp, MANIFEST_NAME, SnapshotError, chunk_file_name, epoch_file_name, segment_file_name,
};
use crate::chunked::ChunkedVec;
use crate::corpus::Corpus;
use crate::document::DocId;
use crate::segments::{Segment, SegmentedIndex, Tombstones};
use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Pseudo-tag reported in [`SnapshotError::ChecksumMismatch`] when a
/// whole referenced *file*'s bytes disagree with the CRC the manifest
/// recorded for it (as opposed to a section inside a file).
pub(super) const TAG_FILE: [u8; 4] = *b"FILE";

/// Save-path audit counters: process-wide monotone counts of the fsyncs
/// the atomic-write path has issued, split by target (data file vs
/// parent directory).
///
/// These exist so a test can assert the *crash-safety protocol itself* —
/// specifically that every atomic write fsyncs the parent
/// directory after the rename (without the directory sync, a crash can
/// lose the rename even though the temp file's data was durable) —
/// without strace or a filesystem fault injector. They are diagnostics,
/// not serving state.
pub mod audit {
    use std::sync::atomic::{AtomicU64, Ordering};

    static FILE_SYNCS: AtomicU64 = AtomicU64::new(0);
    static DIR_SYNCS: AtomicU64 = AtomicU64::new(0);

    // RELAXED: pure monotone diagnostic counters — no other memory is
    // published through them, and tests only compare before/after deltas
    // on the same thread, so no ordering beyond the RMW's own atomicity
    // is needed.
    pub(super) fn count_file_sync() {
        FILE_SYNCS.fetch_add(1, Ordering::Relaxed);
    }

    // RELAXED: same monotone-diagnostic-counter argument as above.
    pub(super) fn count_dir_sync() {
        DIR_SYNCS.fetch_add(1, Ordering::Relaxed);
    }

    /// Data-file fsyncs issued by the save path so far (process-wide).
    pub fn file_syncs() -> u64 {
        // RELAXED: monotone counter read for diagnostics/tests only.
        FILE_SYNCS.load(Ordering::Relaxed)
    }

    /// Parent-directory fsyncs issued by the save path so far
    /// (process-wide).
    pub fn dir_syncs() -> u64 {
        // RELAXED: monotone counter read for diagnostics/tests only.
        DIR_SYNCS.load(Ordering::Relaxed)
    }
}

/// Writes `bytes` to `path` atomically: a sibling temp file is written
/// and fsynced first, then renamed over the target, then the **parent
/// directory is fsynced** — so a crash mid-save can truncate only the
/// temp file, never the previous good snapshot, and a crash right after
/// the save cannot roll the rename itself back (the rename lives in the
/// directory's entries, which have their own durability; syncing only
/// the file would leave the old name durable and the new one not).
pub(super) fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    use std::io::Write;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        audit::count_file_sync();
        std::fs::rename(&tmp, path)?;
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        std::fs::File::open(parent)?.sync_all()?;
        audit::count_dir_sync();
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result.map_err(SnapshotError::Io)
}

/// The one reader of a data file (the epoch, a chunk or a segment):
/// reads `dir/name(crc)`, verifies it against the `(length, CRC32)` the
/// manifest recorded — the cross-file integrity layer that catches a
/// stale or swapped file *before* its sections are parsed — then opens
/// it as one of `kinds` without re-verifying its section CRCs, which the
/// whole-file CRC covers, and hands the container and its kind to
/// `decode`. Nothing may trail the sections `decode` reads.
fn read_data_file<T>(
    dir: &Path,
    name: impl FnOnce(u32) -> String,
    (len, crc): FileStamp,
    kinds: &[u32],
    decode: impl FnOnce(&mut Container<'_>, u32) -> Result<T, SnapshotError>,
) -> Result<T, SnapshotError> {
    let bytes = std::fs::read(dir.join(name(crc)))?;
    if (bytes.len() as u64) < len {
        return Err(SnapshotError::Truncated {
            context: "snapshot file shorter than the manifest recorded",
            needed: len,
            available: bytes.len() as u64,
        });
    }
    if bytes.len() as u64 > len {
        return Err(SnapshotError::TrailingBytes {
            extra: bytes.len() as u64 - len,
        });
    }
    let computed = crc32(&bytes);
    if computed != crc {
        return Err(SnapshotError::ChecksumMismatch {
            tag: TAG_FILE,
            stored: crc,
            computed,
        });
    }
    let (mut container, kind) = Container::open(&bytes, kinds, true)?;
    let decoded = decode(&mut container, kind)?;
    container.finish()?;
    Ok(decoded)
}

/// Removes files our naming scheme owns that the just-written manifest
/// no longer references (segments dropped by compaction, chunks from a
/// diverged lineage, leftover temp files). Best-effort: a file that
/// cannot be removed is simply left behind — it is unreferenced, so
/// correctness never depends on its absence.
fn gc_unreferenced(dir: &Path, keep: &HashSet<String>) {
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else {
            continue;
        };
        if name == MANIFEST_NAME || keep.contains(name) {
            continue;
        }
        let data_file = ["epoch", "seg-", "docs-"]
            .iter()
            .any(|p| name.starts_with(p));
        let ours = (data_file && name.ends_with(".bin")) || name.contains(".tmp.");
        if ours {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// What one [`save_segmented`] checkpoint actually did — the evidence
/// that incremental saves are O(delta): on an unchanged-prefix corpus,
/// `files_written` is the new segments + the partial tail chunk + the
/// manifest, regardless of how large the reused remainder is.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SaveReport {
    /// Files written this checkpoint (including the manifest).
    pub files_written: usize,
    /// Files whose bytes were reused from the previous checkpoint.
    pub files_reused: usize,
    /// Bytes physically written this checkpoint.
    pub bytes_written: u64,
    /// Total bytes of the complete snapshot (written + reused files).
    pub total_bytes: u64,
}

/// Writes `bytes` as `dir/name` and counts it in `report`.
fn write_counted(
    dir: &Path,
    name: &str,
    bytes: &[u8],
    report: &mut SaveReport,
) -> Result<(), SnapshotError> {
    write_atomic(&dir.join(name), bytes)?;
    report.files_written += 1;
    report.bytes_written += bytes.len() as u64;
    report.total_bytes += bytes.len() as u64;
    Ok(())
}

/// Saves the epoch, one segment or one chunk as the file `name(crc)` of
/// `dir` and returns the stamp the new manifest records for it. The file
/// is reused, not rewritten, iff `memo` — the piece's memory of the file
/// it was written as or loaded from — equals the stamp the prior
/// manifest `recorded` for this piece and a file of that length is still
/// under its name. Otherwise the bytes go to the name their own CRC
/// gives, which no manifest names unless it records these bytes (barring
/// a CRC32 collision), so the prior manifest's files stay intact until
/// the new manifest lands. Here `memo` is set only after a durable
/// write; the bytes of one piece never change, so a memo that is
/// already set keeps the same value.
fn save_data_file(
    dir: &Path,
    name: impl Fn(u32) -> String,
    memo: &OnceLock<FileStamp>,
    recorded: Option<FileStamp>,
    encode: impl FnOnce() -> Vec<u8>,
    report: &mut SaveReport,
) -> Result<FileStamp, SnapshotError> {
    let on_disk = |(len, crc)| {
        std::fs::metadata(dir.join(name(crc))).is_ok_and(|m| m.is_file() && m.len() == len)
    };
    let reusable = recorded.filter(|&r| memo.get() == Some(&r) && on_disk(r));
    if let Some(stamp) = reusable {
        report.files_reused += 1;
        report.total_bytes += stamp.0;
        return Ok(stamp);
    }
    let bytes = encode();
    let stamp = (bytes.len() as u64, crc32(&bytes));
    write_counted(dir, &name(stamp.1), &bytes, report)?;
    let _ = memo.set(stamp);
    Ok(stamp)
}

/// Writes a [`SegmentedIndex`] snapshot directory (plus the caller's
/// generation) to `dir`, creating it if needed: the epoch, every
/// document chunk, every segment as its doc ids, and the manifest. The
/// save is **incremental**: an epoch, segment or chunk file the
/// directory's previous manifest records with exactly the `(length,
/// CRC32)` the in-memory piece was written as or loaded from is reused
/// without re-encoding or rewriting, so a checkpoint writes O(what
/// changed) bytes, not O(corpus). Every
/// other file goes to a new name (its CRC is part of it), the manifest is
/// written last (atomically, with parent-directory fsync), and only then
/// are unreferenced files garbage-collected — so a save that fails or is
/// killed part-way leaves the previous snapshot loadable.
///
/// A snapshot directory belongs to **one engine lineage**: saving states
/// from diverged lineages into the same directory is safe (a file
/// another lineage wrote matches this lineage's memory of its own file
/// only on a CRC32 collision, so it is not reused), but interleaving
/// lineages forfeits the incremental savings. Concurrent saves into one
/// directory must be serialized by the caller. Returns a [`SaveReport`]
/// describing the work done.
pub fn save_segmented(
    dir: impl AsRef<Path>,
    index: &SegmentedIndex,
    generation: u64,
) -> Result<SaveReport, SnapshotError> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    // A damaged or missing prior manifest simply disables reuse — the
    // save falls back to writing everything, never to failing.
    let prior = match std::fs::read(dir.join(MANIFEST_NAME)) {
        Ok(bytes) => manifest_from_bytes(&bytes).ok(),
        Err(_) => None,
    };
    let corpus = index.corpus();
    let mut report = SaveReport::default();

    // The epoch (vocabulary + frozen statistics) never changes within a
    // lineage: it is encoded and written only when the directory does
    // not already hold the file this corpus remembers.
    let epoch = save_data_file(
        dir,
        epoch_file_name,
        corpus.epoch_file(),
        prior.as_ref().map(|p| p.epoch),
        || epoch_to_bytes(corpus),
        &mut report,
    )?;

    // Document-store chunks: sealed chunks never change, so their files
    // are reused; the partial tail chunk (and genuinely new chunks) are
    // written.
    let docs = corpus.doc_store();
    let mut chunks: Vec<ChunkEntry> = Vec::with_capacity(docs.num_chunks());
    for i in 0..docs.num_chunks() {
        let items = docs.chunk_items(i);
        let file = save_data_file(
            dir,
            |crc| chunk_file_name(i, crc),
            docs.chunk_file(i),
            prior.as_ref().and_then(|p| p.chunks.get(i)).map(|e| e.file),
            || chunk_to_bytes(items),
            &mut report,
        )?;
        chunks.push(ChunkEntry {
            len: items.len() as u64,
            file,
        });
    }

    // Segments are immutable and id-keyed, so a segment keeps its file
    // untouched across checkpoints. This is the O(delta) heart of the
    // checkpoint: the big old segments are never re-serialized, let
    // alone rewritten.
    let mut segments: Vec<SegmentEntry> = Vec::with_capacity(index.num_segments());
    for segment in index.segments() {
        let recorded = prior
            .as_ref()
            .and_then(|p| p.segments.iter().find(|e| e.id == segment.id()))
            .map(|e| e.file);
        let file = save_data_file(
            dir,
            |crc| segment_file_name(segment.id(), crc),
            segment.file(),
            recorded,
            || segment_to_bytes(segment),
            &mut report,
        )?;
        segments.push(SegmentEntry {
            id: segment.id(),
            doc_count: segment.doc_count() as u64,
            file,
        });
    }

    let manifest = Manifest {
        generation,
        compactions: index.compactions(),
        next_segment_id: index.next_segment_id(),
        num_docs: corpus.num_docs() as u64,
        num_terms: corpus.num_terms() as u64,
        epoch,
        segments,
        chunks,
        deleted: index.tombstone_set().iter_ids().collect(),
    };
    // Written last: every file it references is already durable, so a
    // crash on either side of this write leaves a loadable directory
    // (the old state before, the new state after).
    write_counted(
        dir,
        MANIFEST_NAME,
        &manifest_to_bytes(&manifest),
        &mut report,
    )?;

    let keep: HashSet<String> = std::iter::once(epoch_file_name(manifest.epoch.1))
        .chain(
            manifest
                .segments
                .iter()
                .map(|e| segment_file_name(e.id, e.file.1)),
        )
        .chain((manifest.chunks.iter().enumerate()).map(|(i, e)| chunk_file_name(i, e.file.1)))
        .collect();
    gc_unreferenced(dir, &keep);
    Ok(report)
}

/// Loads a [`SegmentedIndex`] snapshot directory (and its saved
/// generation) from `dir` in two phases. First every file is read and
/// checked: the manifest, then each referenced file against the length
/// and CRC32 the manifest records (the epoch and the document chunks in
/// parallel), and every segment's doc ids —
/// strictly increasing, inside the corpus, each a non-empty document, as
/// many as the manifest records, claimed by no other segment, and
/// together holding every live document. Any inconsistency (a missing or
/// stale file, a duplicate segment id, overlapping doc sets) is a typed
/// [`SnapshotError`], returned before any segment is built. Then every
/// segment is rebuilt with `Segment::build`, the build that made it, on
/// up to [`std::thread::available_parallelism`] threads. Each segment
/// and chunk remembers the file it was loaded from, so the next save
/// into `dir` reuses it.
///
/// The loaded index is **byte-identical** to the saved one: every scan
/// and threshold-algorithm read (hits, metrics, early-stop point)
/// reproduces the in-memory engine's bits, and
/// [`SegmentedIndex::verify_rebuild_equivalence`] holds on the loaded
/// state exactly as it did on the saved one (`tests/persistence.rs`).
pub fn load_segmented(dir: impl AsRef<Path>) -> Result<(SegmentedIndex, u64), SnapshotError> {
    let dir = dir.as_ref();
    let manifest = manifest_from_bytes(&std::fs::read(dir.join(MANIFEST_NAME))?)?;

    // The epoch and the chunks decode independently — a chunk's term ids
    // are checked against the manifest's vocabulary size, which the
    // epoch's must equal — so they are read in parallel. The epoch's
    // failure comes first, then the first chunk's in manifest order.
    let chunks: Vec<_> = manifest.chunks.iter().enumerate().collect();
    let (epoch, doc_parts) = std::thread::scope(|scope| {
        let epoch = scope.spawn(|| {
            read_data_file(
                dir,
                epoch_file_name,
                manifest.epoch,
                &[KIND_EPOCH],
                |c, _| read_epoch(c),
            )
        });
        let doc_parts = fan_out(&chunks, |&(i, entry)| {
            let name = |crc| chunk_file_name(i, crc);
            read_data_file(dir, name, entry.file, &[KIND_CHUNK], |c, _| {
                read_chunk(c, manifest.num_terms as usize, entry.len as usize)
            })
        });
        (joined(epoch), doc_parts)
    });
    let (vocab, doc_freq, idf) = epoch?;
    if vocab.len() as u64 != manifest.num_terms {
        return Err(SnapshotError::Malformed {
            context: "epoch vocabulary size disagrees with the manifest",
        });
    }
    let doc_parts = doc_parts.into_iter().collect::<Result<Vec<_>, _>>()?;
    // The manifest validation already pinned the per-chunk lengths, so
    // this cannot fail on manifest-consistent data.
    let docs = ChunkedVec::from_chunks(doc_parts).ok_or(SnapshotError::Malformed {
        context: "chunk lengths violate the sealed-chunk invariant",
    })?;
    for (i, entry) in manifest.chunks.iter().enumerate() {
        let _ = docs.chunk_file(i).set(entry.file);
    }
    let corpus = Corpus::from_parts(vocab, docs, doc_freq, idf);
    let _ = corpus.epoch_file().set(manifest.epoch);
    let num_docs = corpus.num_docs();

    // Segments must cover pairwise-disjoint doc-id sets — the invariant
    // the merged-bound soundness proof (DESIGN.md §8) rests on; an
    // overlap would serve duplicate hits, so it is rejected like every
    // other CRC-valid-but-inconsistent payload.
    let mut claimed = vec![0u64; num_docs.div_ceil(64)];
    let mut parts = Vec::with_capacity(manifest.segments.len());
    for entry in &manifest.segments {
        let name = |crc| segment_file_name(entry.id, crc);
        let ids = read_data_file(dir, name, entry.file, &[KIND_SEGMENT_IDS], |c, _| {
            read_segment_file(c, &corpus)
        })?;
        if ids.len() as u64 != entry.doc_count {
            return Err(SnapshotError::Malformed {
                context: "segment file content disagrees with the manifest",
            });
        }
        for &d in &ids {
            let (word, bit) = (d as usize / 64, 1u64 << (d % 64));
            if claimed[word] & bit != 0 {
                return Err(SnapshotError::Malformed {
                    context: "two segments claim the same document",
                });
            }
            claimed[word] |= bit;
        }
        parts.push((entry.id, entry.file, ids));
    }
    // And they must cover every live document a build would index: one
    // that no segment holds would silently drop out of every answer.
    let deleted = Tombstones::from_ids(&manifest.deleted);
    let unheld = |d: usize| claimed[d / 64] & (1u64 << (d % 64)) == 0;
    let live = |d: usize| !deleted.contains(d as DocId);
    let indexed = corpus.docs().map(|doc| doc.len > 0);
    if indexed
        .enumerate()
        .any(|(d, indexed)| indexed && live(d) && unheld(d))
    {
        return Err(SnapshotError::Malformed {
            context: "live document held by no segment",
        });
    }
    // The build that made each segment, over the same documents under
    // the same epoch: the same lists, bit for bit.
    let segments = fan_out(&parts, |(id, file, ids)| {
        let segment = Segment::build(*id, &corpus, ids.iter().copied());
        let _ = segment.file().set(*file);
        Arc::new(segment)
    });
    Ok((
        SegmentedIndex::from_parts(
            Arc::new(corpus),
            segments,
            deleted,
            manifest.compactions,
            manifest.next_segment_id,
        ),
        manifest.generation,
    ))
}

/// The result of the scoped thread `handle`; its panic resumes on the
/// caller.
fn joined<R>(handle: std::thread::ScopedJoinHandle<'_, R>) -> R {
    handle
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// `f` of every item of `items`, in `items`' order. The calls are
/// independent, so they run on up to
/// [`std::thread::available_parallelism`] scoped threads, each taking
/// the next item until none is left, as `Engine::search_batch` fans out
/// its queries; a panic in `f` resumes on the caller.
fn fan_out<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        // RELAXED: the counter only hands out distinct
                        // indices; each result travels back through its
                        // worker's join, which publishes it.
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            break;
                        };
                        mine.push((i, f(item)));
                    }
                    mine
                })
            })
            .collect();
        workers.into_iter().flat_map(joined).collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}
