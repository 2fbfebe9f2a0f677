//! Cold-start persistence: segment-granular incremental snapshots with
//! byte-equality load (DESIGN.md §14).
//!
//! A production engine must restart in milliseconds, not re-tokenize and
//! re-sort its whole corpus — and it must *checkpoint* in O(what
//! changed), not O(corpus). This module defines a **dependency-free**
//! binary container and one writer/reader pair built on it:
//! [`save_segmented`] / [`load_segmented`], which persist the full
//! [`SegmentedIndex`] serving state (vocabulary, frozen-statistics epoch,
//! document store, segments, tombstones) as a **snapshot directory** in
//! the LSM-manifest shape. Nothing derivable is stored: a snapshot holds
//! documents, not indexes. A segment is saved as its doc ids, and the
//! load rebuilds its posting lists with the build that made them, on as
//! many threads as the machine offers, once every file has been read and
//! checked; each document's weight `W(d)` is likewise computed from the
//! frozen IDF.
//!
//! ## The snapshot directory (DESIGN.md §14)
//!
//! [`save_segmented`] writes a *directory*, not one monolithic file:
//!
//! ```text
//! <dir>/MANIFEST                      generation, counters, and one entry
//!                                     (length, whole-file CRC32) per file
//!                                     below, plus the sparse tombstone list
//! <dir>/epoch-<crc>.bin               vocabulary + frozen statistics (df, IDF)
//! <dir>/seg-<id:016x>-<crc>.bin       one immutable segment: its doc ids
//!                                     (IDS)
//! <dir>/docs-<idx:08x>-<crc>.bin      one document-store chunk (DOCS)
//! ```
//!
//! A data file is just its payload: the manifest entry that names it
//! already holds its id or position, its doc count and its length. Its
//! name ends in its whole-file CRC32 (`<crc>`, 8 hex digits), so a file
//! whose bytes change gets a new name.
//!
//! Segments and sealed document chunks are immutable, so a checkpoint
//! writes **only the files that did not exist at the previous
//! checkpoint** plus the small manifest — O(delta) bytes, independent of
//! corpus size. [`save_segmented`] gives the crash-safe write order and
//! the rule by which a save reuses a file.
//!
//! ## Modules
//!
//! One module per file kind, behind one container: `container` (the
//! file grammar — header, section framing, CRC32 — and the codecs every
//! payload shares),
//! `manifest` (`MANIFEST`), `epoch` (`epoch-*.bin`), `segment`
//! (`seg-*.bin`), `docs` (`docs-*.bin`), and `dir` (atomic writes, the
//! save, the load and garbage collection). [`file_kind`] reads a file's
//! kind through the loader's own header check.
//!
//! ## Failure model
//!
//! Corrupt input — truncation at any byte, bit-flips anywhere, bad
//! magic/version, oversized section lengths, cross-file inconsistencies
//! (a manifest naming a missing or stale segment file, duplicate segment
//! ids, overlapping per-segment doc-id sets, a live document no segment
//! holds) — returns a typed [`SnapshotError`], never a panic and never
//! an attacker-sized allocation: section lengths are bounds-checked
//! against the bytes actually present before any slice is taken, and
//! element counts are checked against the owning payload's size before
//! any `Vec` is reserved. Every check runs before the first segment is
//! built, so a rejected snapshot costs no build. `tests/persistence.rs`
//! drives a truncate-every-offset + flip-every-byte suite over every
//! file of a valid snapshot directory to pin this down.
//!
//! ## Versioning policy
//!
//! [`FORMAT_VERSION`] identifies the container revision. Readers accept
//! exactly the versions they know how to decode (currently only
//! version 6; version 1 stored a list length for every vocabulary term,
//! version 2 a content fingerprint, a `META` copy of manifest fields and
//! a weight table in every data file, version 3 every id, count and
//! posting field as a fixed 4- or 8-byte word, version 4 every segment's
//! posting lists under names without a CRC, version 5 the posting lists
//! of every segment of at least [`CHUNK`] documents) and reject everything else
//! with [`SnapshotError::UnsupportedVersion`] — snapshots are cheap to
//! regenerate from the corpus, so there is no silent best-effort decoding
//! of future or past revisions. Any layout change bumps the version.
//!
//! [`CHUNK`]: crate::chunked::CHUNK
//! [`SegmentedIndex`]: crate::segments::SegmentedIndex

use std::fmt;

mod container;
mod dir;
mod docs;
mod epoch;
mod manifest;
mod segment;
#[cfg(test)]
mod tests;

pub use container::{
    FORMAT_VERSION, HEADER_LEN, KIND_CHUNK, KIND_EPOCH, KIND_MANIFEST, KIND_SEGMENT_IDS, MAGIC,
    SECTION_HEADER_LEN, crc32, file_kind,
};
pub use dir::{SaveReport, audit, load_segmented, save_segmented};

/// File name of the manifest inside a snapshot directory.
pub const MANIFEST_NAME: &str = "MANIFEST";

/// File name of the epoch (vocabulary + statistics) file whose bytes
/// have CRC32 `crc`.
pub fn epoch_file_name(crc: u32) -> String {
    format!("epoch-{crc:08x}.bin")
}

/// File name of the file of segment `id` whose bytes have CRC32 `crc`.
pub fn segment_file_name(id: u64, crc: u32) -> String {
    format!("seg-{id:016x}-{crc:08x}.bin")
}

/// File name of the file of document-store chunk `index` whose bytes
/// have CRC32 `crc`.
pub fn chunk_file_name(index: usize, crc: u32) -> String {
    format!("docs-{index:08x}-{crc:08x}.bin")
}

/// Upper bound a load accepts for a stored IDF weight, the one
/// score-feeding value a snapshot stores. Legitimate values are tiny
/// (`idf ≤ ln(N)`), but a CRC-valid forged epoch could carry anything,
/// and the load's build computes every posting's partial from it:
/// `partial = tf · idf · (1/√len)` with `tf < 2³²` and `1/√len ≤ 1`, so
/// with this cap a partial is at most 2³² · 10¹⁰⁰, and a query-time sum
/// over at most 2³² such terms stays below 2⁶⁴ · 10¹⁰⁰ ≈ 1.8 · 10¹¹⁹,
/// far under `f64::MAX` (≈ 1.8 · 10³⁰⁸). No sum reaches `+inf`, so none
/// panics `Score::new` inside the serving process. The cap admits
/// `-0.0`, whose partials are all `-0.0`: `Score::new` accepts that too.
pub const MAX_STORED_VALUE: f64 = 1e100;

/// The `(length, whole-file CRC32)` a manifest records for one data file
/// — and what an epoch, segment or chunk remembers of the file it was
/// written as or loaded from, so a save can tell whether the file a
/// prior manifest names holds exactly that piece.
pub(crate) type FileStamp = (u64, u32);

/// Why a snapshot could not be written or decoded.
///
/// Every decode failure is typed — corrupt bytes must surface as an
/// error value, never as a panic inside a serving process restoring its
/// state (see the module-level failure model).
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`] — not a divtopk snapshot.
    BadMagic {
        /// The first 8 bytes actually found.
        found: [u8; 8],
    },
    /// The container declares a format revision this build cannot decode.
    UnsupportedVersion {
        /// The version the file declares.
        found: u32,
    },
    /// The container holds a different snapshot kind than the caller
    /// asked for (e.g. an epoch file sitting where the manifest belongs).
    WrongKind {
        /// The kind the file declares.
        found: u32,
        /// The kind the load entry point expected.
        expected: u32,
    },
    /// A section appeared out of schedule for this snapshot kind.
    UnexpectedSection {
        /// The tag actually found.
        found: [u8; 4],
        /// The tag the fixed section schedule expected next.
        expected: [u8; 4],
    },
    /// A section payload does not match its stored CRC32 — bit rot,
    /// torn write, or tampering.
    ChecksumMismatch {
        /// Tag of the damaged section.
        tag: [u8; 4],
        /// The checksum stored in the section header.
        stored: u32,
        /// The checksum computed over the payload bytes present.
        computed: u32,
    },
    /// The input ended (or a declared length pointed) past the bytes
    /// actually present.
    Truncated {
        /// What was being decoded when the bytes ran out.
        context: &'static str,
        /// Bytes the decoder needed.
        needed: u64,
        /// Bytes that were available.
        available: u64,
    },
    /// The bytes decoded but violate a structural invariant (impossible
    /// counts, non-finite floats, unsorted posting lists, out-of-range
    /// ids, non-UTF-8 strings, …).
    Malformed {
        /// Which invariant failed.
        context: &'static str,
    },
    /// Well-formed sections were followed by unconsumed bytes.
    TrailingBytes {
        /// How many bytes were left over.
        extra: u64,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = |t: &[u8; 4]| String::from_utf8_lossy(t).into_owned();
        match self {
            Self::Io(e) => write!(f, "snapshot i/o error: {e}"),
            Self::BadMagic { found } => {
                write!(
                    f,
                    "bad snapshot magic {found:02x?} (not a divtopk snapshot)"
                )
            }
            Self::UnsupportedVersion { found } => write!(
                f,
                "unsupported snapshot format version {found} (this build reads {FORMAT_VERSION})"
            ),
            Self::WrongKind { found, expected } => {
                write!(f, "wrong snapshot kind {found} (expected {expected})")
            }
            Self::UnexpectedSection { found, expected } => {
                let (found, expected) = (tag(found), tag(expected));
                write!(f, "unexpected section {found:?} (expected {expected:?})")
            }
            Self::ChecksumMismatch {
                tag: t,
                stored,
                computed,
            } => write!(
                f,
                "checksum mismatch in section {:?}: stored {stored:#010x}, computed {computed:#010x}",
                tag(t)
            ),
            Self::Truncated {
                context,
                needed,
                available,
            } => write!(
                f,
                "truncated snapshot while reading {context}: needed {needed} bytes, {available} available"
            ),
            Self::Malformed { context } => write!(f, "malformed snapshot: {context}"),
            Self::TrailingBytes { extra } => {
                write!(f, "trailing garbage after the last section: {extra} bytes")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> SnapshotError {
        SnapshotError::Io(e)
    }
}
