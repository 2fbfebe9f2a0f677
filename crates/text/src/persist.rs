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
//! the LSM-manifest shape. Nothing derivable is stored: the loader
//! computes each posting's partial score and each document's weight
//! `W(d)` from the frozen IDF, as a build does, and rebuilds a segment
//! of fewer than [`CHUNK`] documents from its doc ids.
//!
//! ## Container layout (every file in the snapshot)
//!
//! ```text
//! file     := header section*
//! header   := magic[8]="DIVTOPK\0"  version:u32  kind:u32  section_count:u32
//! section  := tag[4]  payload_len:u64  crc32:u32  payload[payload_len]
//! ```
//!
//! The header and section framing are fixed-width little-endian. Inside
//! a payload, counts, lengths and small integers are unsigned LEB128
//! (shortest form only), increasing id sequences — a segment's term ids
//! or doc ids, a document's signature, the tombstones — are stored as
//! gaps, and a segment's postings are fixed-width little-endian at the
//! narrowest width (1–4 bytes) the segment needs; each payload's doc
//! comment gives its grammar. Floats travel as [`f64::to_bits`] words, so
//! a load reproduces the exact bits the writer held — the substrate of
//! the byte-equality-after-load contract. Each section's payload is
//! protected by an in-repo CRC32 ([`crc32`], the IEEE/zlib polynomial);
//! the header fields are protected structurally (magic, a pinned
//! [`FORMAT_VERSION`], a per-snapshot-kind section schedule, and an
//! exact-consumption check at every level).
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
//!                                     (IDS) under CHUNK documents, its
//!                                     posting lists (INDX) from CHUNK up
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
//! checkpoint** (new segments, the partial tail chunk) plus the small
//! manifest — O(delta) bytes, independent of corpus size. Every file is
//! written atomically (temp + fsync + rename + **parent-directory
//! fsync**) under a name no manifest has named before (barring a CRC32
//! collision), and the manifest is written last, so a failure or crash
//! at any point leaves the *previous* manifest pointing at a complete,
//! untouched file set; files the new manifest no longer references are
//! garbage-collected only after the new manifest is durable. A save
//! reuses the epoch, a segment or a chunk file only when the in-memory
//! piece remembers being written as, or loaded from, exactly the
//! `(length, CRC32)` the prior manifest records for it, so a file another
//! lineage wrote is never taken for this lineage's (barring a CRC32
//! collision).
//!
//! ## Failure model
//!
//! Corrupt input — truncation at any byte, bit-flips anywhere, bad
//! magic/version, oversized section lengths, cross-file inconsistencies
//! (a manifest naming a missing or stale segment file, duplicate segment
//! ids, overlapping per-segment doc-id sets) — returns a typed
//! [`SnapshotError`], never a panic and never an attacker-sized
//! allocation: section lengths are bounds-checked against the bytes
//! actually present before any slice is taken, and element counts are
//! checked against the owning payload's size before any `Vec` is
//! reserved. `tests/persistence.rs` drives a truncate-every-offset +
//! flip-every-byte suite over every file of a valid snapshot directory
//! to pin this down.
//!
//! ## Versioning policy
//!
//! [`FORMAT_VERSION`] identifies the container revision. Readers accept
//! exactly the versions they know how to decode (currently only
//! version 5; version 1 stored a list length for every vocabulary term,
//! version 2 a content fingerprint, a `META` copy of manifest fields and
//! a weight table in every data file, version 3 every id, count and
//! posting field as a fixed 4- or 8-byte word, version 4 every segment's
//! posting lists under names without a CRC) and reject everything else
//! with [`SnapshotError::UnsupportedVersion`] — snapshots are cheap to
//! regenerate from the corpus, so there is no silent best-effort decoding
//! of future or past revisions. Any layout change bumps the version.

use crate::chunked::{CHUNK, ChunkedVec};
use crate::corpus::Corpus;
use crate::document::{DocId, Document, TermId};
use crate::index;
use crate::segments::{Segment, SegmentedIndex, Tombstones};
use crate::vocab::Vocabulary;
use std::fmt;
use std::path::Path;
use std::sync::{Arc, OnceLock};

mod segment;
use segment::{read_segment_index, segment_postings_payload};

/// The 8-byte file magic every snapshot starts with.
pub const MAGIC: [u8; 8] = *b"DIVTOPK\0";

/// The container format revision this build writes and reads.
pub const FORMAT_VERSION: u32 = 5;

/// Snapshot kind: the `MANIFEST` of a [`SegmentedIndex`] snapshot
/// directory (what `Engine::save_snapshot` writes). Kinds 1–3 belonged to
/// retired single-file formats and are never reused, so such a file can
/// never half-decode as a manifest.
pub const KIND_MANIFEST: u32 = 4;
/// Snapshot kind: the `epoch-*.bin` file (vocabulary + frozen statistics).
pub const KIND_EPOCH: u32 = 5;
/// Snapshot kind: one `seg-*.bin` segment file holding the segment's
/// posting lists (`INDX`), written for a segment of at least [`CHUNK`]
/// documents.
pub const KIND_SEGMENT: u32 = 6;
/// Snapshot kind: one `docs-*.bin` document-store chunk file.
pub const KIND_CHUNK: u32 = 7;
/// Snapshot kind: one `seg-*.bin` segment file holding only the
/// segment's doc ids (`IDS `), written for a segment of fewer than
/// [`CHUNK`] documents; the load rebuilds its lists from the documents.
pub const KIND_SEGMENT_IDS: u32 = 8;

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

/// Upper bound accepted for any score-feeding value a load reads or
/// computes (IDF, posting partial). Legitimate values are tiny —
/// `idf ≤ ln(N)` and `partial ≤ tf·idf ≲ 10¹³` — while queries sum up
/// to `u32::MAX` of them, so admitting anything close to `f64::MAX`
/// would let a CRC-valid-but-forged snapshot overflow a query-time sum
/// to `+inf` and panic `Score::new` inside the serving process. With
/// this cap, `1e100 × 2³² ≪ f64::MAX` keeps every reachable sum finite.
const MAX_STORED_VALUE: f64 = 1e100;

const TAG_META: [u8; 4] = *b"META";
const TAG_VOCAB: [u8; 4] = *b"VOCB";
const TAG_STATS: [u8; 4] = *b"STAT";
const TAG_DOCS: [u8; 4] = *b"DOCS";
const TAG_TOMB: [u8; 4] = *b"TOMB";
const TAG_SEGS: [u8; 4] = *b"SEGS";
const TAG_CHUNKS: [u8; 4] = *b"CHNK";
const TAG_INDEX: [u8; 4] = *b"INDX";
const TAG_IDS: [u8; 4] = *b"IDS ";
/// The `(length, whole-file CRC32)` a manifest records for one data file
/// — and what an epoch, segment or chunk remembers of the file it was
/// written as or loaded from, so a save can tell whether the file a
/// prior manifest names holds exactly that piece.
pub(crate) type FileStamp = (u64, u32);

/// Pseudo-tag reported in [`SnapshotError::ChecksumMismatch`] when a
/// whole referenced *file*'s bytes disagree with the CRC the manifest
/// recorded for it (as opposed to a section inside a file).
const TAG_FILE: [u8; 4] = *b"FILE";

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
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            SnapshotError::BadMagic { found } => {
                write!(
                    f,
                    "bad snapshot magic {found:02x?} (not a divtopk snapshot)"
                )
            }
            SnapshotError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported snapshot format version {found} (this build reads {FORMAT_VERSION})"
                )
            }
            SnapshotError::WrongKind { found, expected } => {
                write!(f, "wrong snapshot kind {found} (expected {expected})")
            }
            SnapshotError::UnexpectedSection { found, expected } => {
                write!(
                    f,
                    "unexpected section {:?} (expected {:?})",
                    String::from_utf8_lossy(found),
                    String::from_utf8_lossy(expected)
                )
            }
            SnapshotError::ChecksumMismatch {
                tag,
                stored,
                computed,
            } => {
                write!(
                    f,
                    "checksum mismatch in section {:?}: stored {stored:#010x}, computed {computed:#010x}",
                    String::from_utf8_lossy(tag)
                )
            }
            SnapshotError::Truncated {
                context,
                needed,
                available,
            } => {
                write!(
                    f,
                    "truncated snapshot while reading {context}: needed {needed} bytes, {available} available"
                )
            }
            SnapshotError::Malformed { context } => {
                write!(f, "malformed snapshot: {context}")
            }
            SnapshotError::TrailingBytes { extra } => {
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

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3 / zlib polynomial), implemented in-repo — the
// workspace takes no external dependencies.
// ---------------------------------------------------------------------------

/// Slice-by-16 lookup tables: `CRC_TABLES[0]` is the classic byte
/// table; `CRC_TABLES[i]` advances a byte `i` further positions in one
/// lookup, so the hot loop folds 16 input bytes per iteration (snapshot
/// checksums sit on the cold-start path — restart latency is the whole
/// point).
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// Folds one 32-bit word `w` whose bytes sit `pos * 4` bytes before the
/// end of the 16-byte block.
#[inline]
fn crc_fold(w: u32, pos: usize) -> u32 {
    let base = pos * 4;
    CRC_TABLES[base + 3][(w & 0xFF) as usize]
        ^ CRC_TABLES[base + 2][((w >> 8) & 0xFF) as usize]
        ^ CRC_TABLES[base + 1][((w >> 16) & 0xFF) as usize]
        ^ CRC_TABLES[base][(w >> 24) as usize]
}

/// CRC32 (reflected, polynomial `0xEDB88320`, init/final-xor
/// `0xFFFFFFFF`) — bit-compatible with zlib's `crc32`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let word = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(16);
    for chunk in &mut chunks {
        crc = crc_fold(word(&chunk[0..4]) ^ crc, 3)
            ^ crc_fold(word(&chunk[4..8]), 2)
            ^ crc_fold(word(&chunk[8..12]), 1)
            ^ crc_fold(word(&chunk[12..16]), 0);
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Payload encoding helpers: fixed-width little-endian words and LEB128.
// ---------------------------------------------------------------------------

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Unsigned LEB128: seven bits per byte, low group first, the high bit
/// set on every byte but the last. The writer always emits the shortest
/// form, so one value has one encoding.
fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Writes an increasing id sequence as gaps: each id as its distance past
/// the smallest id the sequence could still take (`0` first, then one
/// past the previous id), so a strictly increasing sequence is the only
/// kind the bytes can express.
fn put_gap(buf: &mut Vec<u8>, next: &mut u64, id: u64) {
    put_varint(buf, id - *next);
    *next = id + 1;
}

/// A bounds-checked cursor over one payload (or the file header). Every
/// read returns a typed [`SnapshotError`] instead of slicing out of range.
struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    context: &'static str,
}

impl<'a> ByteReader<'a> {
    fn new(bytes: &'a [u8], context: &'static str) -> ByteReader<'a> {
        ByteReader {
            bytes,
            pos: 0,
            context,
        }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if n > self.remaining() {
            return Err(SnapshotError::Truncated {
                context: self.context,
                needed: n as u64,
                available: self.remaining() as u64,
            });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads one LEB128 integer ([`put_varint`]'s form). A value past 64
    /// bits, a redundant trailing zero group (which would give one value
    /// two encodings) and a continuation bit running off the payload are
    /// each [`SnapshotError::Malformed`].
    fn varint(&mut self) -> Result<u64, SnapshotError> {
        if self.remaining() == 0 {
            return Err(SnapshotError::Truncated {
                context: self.context,
                needed: 1,
                available: 0,
            });
        }
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let Some(&byte) = self.bytes.get(self.pos) else {
                return Err(SnapshotError::Malformed {
                    context: "unterminated LEB128 integer",
                });
            };
            self.pos += 1;
            let group = u64::from(byte & 0x7F);
            if shift == 63 && group > 1 {
                break;
            }
            value |= group << shift;
            if byte & 0x80 == 0 {
                if byte == 0 && shift > 0 {
                    return Err(SnapshotError::Malformed {
                        context: "overlong LEB128 integer",
                    });
                }
                return Ok(value);
            }
        }
        Err(SnapshotError::Malformed {
            context: "LEB128 integer overflows 64 bits",
        })
    }

    /// A LEB128 integer that must fit 32 bits (a term frequency, a
    /// document length).
    fn varint_u32(&mut self) -> Result<u32, SnapshotError> {
        u32::try_from(self.varint()?).map_err(|_| SnapshotError::Malformed {
            context: "LEB128 integer overflows 32 bits",
        })
    }

    /// Reads one gap-coded id ([`put_gap`]): `next` plus the stored gap.
    /// The caller checks the id against its range and sets `next` one
    /// past it.
    fn gap_id(&mut self, next: u64) -> Result<u64, SnapshotError> {
        let gap = self.varint()?;
        next.checked_add(gap).ok_or(SnapshotError::Malformed {
            context: "gap-coded id overflows 64 bits",
        })
    }

    fn str(&mut self) -> Result<&'a str, SnapshotError> {
        let len = self.counted(1)?;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| SnapshotError::Malformed {
            context: "non-UTF-8 string",
        })
    }

    /// Reads a LEB128 element count and validates it against the bytes
    /// still present (`elem_min_bytes` ≥ 1 per element), so a forged
    /// count can never drive an oversized allocation.
    fn counted(&mut self, elem_min_bytes: usize) -> Result<usize, SnapshotError> {
        let count = self.varint()?;
        self.check_count(count, elem_min_bytes)
    }

    fn check_count(&self, count: u64, elem_min_bytes: usize) -> Result<usize, SnapshotError> {
        let fits = count
            .checked_mul(elem_min_bytes as u64)
            .is_some_and(|total| total <= self.remaining() as u64);
        if !fits {
            return Err(SnapshotError::Malformed {
                context: "element count larger than the section holding it",
            });
        }
        Ok(count as usize)
    }

    /// Asserts the payload was consumed exactly.
    fn finish(self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::TrailingBytes {
                extra: self.remaining() as u64,
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Container: sections with tags, lengths, and CRCs.
// ---------------------------------------------------------------------------

/// Assembles a complete snapshot from `(tag, payload)` sections.
fn assemble(kind: u32, sections: Vec<([u8; 4], Vec<u8>)>) -> Vec<u8> {
    let total: usize = sections.iter().map(|(_, p)| p.len() + 16).sum();
    let mut out = Vec::with_capacity(20 + total);
    out.extend_from_slice(&MAGIC);
    put_u32(&mut out, FORMAT_VERSION);
    put_u32(&mut out, kind);
    put_u32(&mut out, sections.len() as u32);
    for (tag, payload) in sections {
        out.extend_from_slice(&tag);
        put_u64(&mut out, payload.len() as u64);
        put_u32(&mut out, crc32(&payload));
        out.extend_from_slice(&payload);
    }
    out
}

/// Sequential section reader: parses the header, then hands out
/// CRC-verified payloads in the fixed per-kind schedule.
struct Container<'a> {
    reader: ByteReader<'a>,
    sections_left: u32,
    /// When true, per-section CRCs are not re-verified: the caller has
    /// already checked the *whole file* against the manifest's length +
    /// CRC, which covers every section (payloads and stored CRC fields
    /// alike), so a second pass over the same bytes proves nothing. The
    /// manifest itself has no outer checksum and always verifies per
    /// section.
    trusted: bool,
}

impl<'a> Container<'a> {
    /// [`Container::open_any`] for bytes already authenticated by an
    /// enclosing whole-file checksum (see [`read_checked_file`]).
    fn open_trusted(bytes: &'a [u8], kinds: &[u32]) -> Result<(Container<'a>, u32), SnapshotError> {
        let (mut c, kind) = Container::open_any(bytes, kinds)?;
        c.trusted = true;
        Ok((c, kind))
    }

    fn open(bytes: &'a [u8], expected_kind: u32) -> Result<Container<'a>, SnapshotError> {
        Ok(Container::open_any(bytes, &[expected_kind])?.0)
    }

    /// Opens a container of any of `kinds` (the first is the one a
    /// [`SnapshotError::WrongKind`] names) and returns the kind it holds,
    /// for a caller that picks the decoder by kind.
    fn open_any(bytes: &'a [u8], kinds: &[u32]) -> Result<(Container<'a>, u32), SnapshotError> {
        let mut reader = ByteReader::new(bytes, "snapshot header");
        let magic = reader.take(8)?;
        if magic != MAGIC {
            let mut found = [0u8; 8];
            found.copy_from_slice(magic);
            return Err(SnapshotError::BadMagic { found });
        }
        let version = reader.u32()?;
        if version != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion { found: version });
        }
        let kind = reader.u32()?;
        if !kinds.contains(&kind) {
            return Err(SnapshotError::WrongKind {
                found: kind,
                expected: kinds[0],
            });
        }
        let sections_left = reader.u32()?;
        let container = Container {
            reader,
            sections_left,
            trusted: false,
        };
        Ok((container, kind))
    }

    /// Reads the next section, which must carry `tag`; verifies its CRC
    /// and returns a cursor over the payload.
    fn section(
        &mut self,
        tag: [u8; 4],
        context: &'static str,
    ) -> Result<ByteReader<'a>, SnapshotError> {
        if self.sections_left == 0 {
            return Err(SnapshotError::Truncated {
                context,
                needed: 1,
                available: 0,
            });
        }
        self.sections_left -= 1;
        let found_tag = self.reader.take(4)?;
        if found_tag != tag {
            let mut found = [0u8; 4];
            found.copy_from_slice(found_tag);
            return Err(SnapshotError::UnexpectedSection {
                found,
                expected: tag,
            });
        }
        let len = self.reader.u64()?;
        let stored = self.reader.u32()?;
        if len > self.reader.remaining() as u64 {
            // An oversized declared length must fail *here*, before any
            // slice or allocation happens.
            return Err(SnapshotError::Truncated {
                context,
                needed: len,
                available: self.reader.remaining() as u64,
            });
        }
        let payload = self.reader.take(len as usize)?;
        if !self.trusted {
            let computed = crc32(payload);
            if stored != computed {
                return Err(SnapshotError::ChecksumMismatch {
                    tag,
                    stored,
                    computed,
                });
            }
        }
        Ok(ByteReader::new(payload, context))
    }

    /// Asserts every declared section was consumed and nothing trails.
    fn finish(self) -> Result<(), SnapshotError> {
        if self.sections_left != 0 {
            return Err(SnapshotError::Malformed {
                context: "section count larger than the sections present",
            });
        }
        self.reader.finish()
    }
}

// ---------------------------------------------------------------------------
// Vocabulary
// ---------------------------------------------------------------------------

fn vocab_payload(v: &Vocabulary) -> Vec<u8> {
    let mut buf = Vec::new();
    put_varint(&mut buf, v.len() as u64);
    for id in 0..v.len() as TermId {
        put_str(&mut buf, v.term(id));
    }
    buf
}

fn read_vocab(mut r: ByteReader<'_>) -> Result<Vocabulary, SnapshotError> {
    // A term is at least its one-byte length.
    let n = r.counted(1)?;
    let mut terms = Vec::with_capacity(n);
    for _ in 0..n {
        terms.push(r.str()?.to_owned());
    }
    let vocab = Vocabulary::from_terms(terms).ok_or(SnapshotError::Malformed {
        // A duplicate term would silently renumber every id after it.
        context: "duplicate term in vocabulary",
    })?;
    r.finish()?;
    Ok(vocab)
}

// ---------------------------------------------------------------------------
// Frozen statistics and documents
// ---------------------------------------------------------------------------

/// Epoch statistics payload: the term count, every document frequency
/// as LEB128, then every IDF weight as its [`f64::to_bits`] word —
///
/// ```text
/// n:leb  doc_freq:leb×n  idf:u64×n
/// ```
fn stats_payload(c: &Corpus) -> Vec<u8> {
    let mut buf = Vec::new();
    let n = c.num_terms();
    put_varint(&mut buf, n as u64);
    for t in 0..n as TermId {
        put_varint(&mut buf, u64::from(c.doc_freq(t)));
    }
    for &idf in c.idf_table() {
        put_f64(&mut buf, idf);
    }
    buf
}

fn read_stats(
    mut r: ByteReader<'_>,
    num_terms: usize,
) -> Result<(Vec<u32>, Vec<f64>), SnapshotError> {
    // A term's statistics are at least a one-byte df and an 8-byte IDF.
    let n = r.counted(9)?;
    if n != num_terms {
        return Err(SnapshotError::Malformed {
            context: "statistics table size disagrees with the vocabulary",
        });
    }
    let mut doc_freq = Vec::with_capacity(n);
    for _ in 0..n {
        doc_freq.push(r.varint_u32()?);
    }
    // One bounds check for the IDF table, then a chunked decode.
    let mut idf = Vec::with_capacity(n);
    let raw_idf = r.take(n * 8)?;
    for b in raw_idf.chunks_exact(8) {
        let v = f64::from_bits(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]));
        if !v.is_finite() || !(0.0..=MAX_STORED_VALUE).contains(&v) {
            // Scores built on a negative IDF panic `Score::new` at query
            // time, and an implausibly huge one overflows the query-time
            // sum to +inf (same panic) — reject both at the door, like
            // every other CRC-valid-but-inconsistent payload.
            return Err(SnapshotError::Malformed {
                context: "IDF weight outside the plausible range",
            });
        }
        idf.push(v);
    }
    r.finish()?;
    Ok((doc_freq, idf))
}

/// Document-chunk payload: the document count, then per document its
/// title, its length, its distinct-term count and its signature as
/// gap-coded `(term, tf)` pairs in increasing term order —
///
/// ```text
/// n:leb  (title_len:leb  title[title_len]  len:leb  n_terms:leb  (term_gap:leb  tf:leb)×n_terms)×n
/// ```
///
/// where a term gap is the term id minus one past the previous term id
/// (minus 0 for the first), so a signature decodes strictly increasing
/// by construction.
fn docs_payload(docs: &[Document]) -> Vec<u8> {
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
    buf
}

/// Decodes one documents payload, which must hold exactly the `expected`
/// documents the manifest declared for its chunk.
fn read_docs(
    mut r: ByteReader<'_>,
    num_terms: usize,
    expected: usize,
) -> Result<Vec<Document>, SnapshotError> {
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
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
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

// ---------------------------------------------------------------------------
// The snapshot directory: MANIFEST + epoch + segment files + chunk files.
// ---------------------------------------------------------------------------

/// One segment file's manifest entry.
#[derive(Debug, Clone, Copy)]
struct SegmentEntry {
    id: u64,
    doc_count: u64,
    file_len: u64,
    file_crc: u32,
}

/// One document-store chunk file's manifest entry.
#[derive(Debug, Clone, Copy)]
struct ChunkEntry {
    len: u64,
    file_len: u64,
    file_crc: u32,
}

/// The decoded `MANIFEST`: everything needed to name, order, and verify
/// the other files of the snapshot directory, plus the small mutable
/// state (generation, counters, tombstones) that changes every
/// checkpoint.
#[derive(Debug, Clone)]
struct Manifest {
    generation: u64,
    compactions: u64,
    next_segment_id: u64,
    num_docs: u64,
    num_terms: u64,
    epoch_len: u64,
    epoch_crc: u32,
    segments: Vec<SegmentEntry>,
    chunks: Vec<ChunkEntry>,
    /// Tombstoned doc ids, strictly increasing — sparse on purpose:
    /// O(#deleted) manifest bytes, part of keeping checkpoints O(delta).
    deleted: Vec<DocId>,
}

/// Doc-id list payload — the manifest's tombstones (`TOMB`) and a small
/// segment's doc ids (`IDS `): the count, then the ids gap-coded in
/// increasing order —
///
/// ```text
/// n:leb  id_gap:leb×n
/// ```
fn doc_ids_payload(ids: &[DocId]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_varint(&mut buf, ids.len() as u64);
    let mut next = 0;
    for &d in ids {
        put_gap(&mut buf, &mut next, u64::from(d));
    }
    buf
}

/// Decodes a [`doc_ids_payload`]. The ids increase strictly by
/// construction (a gap is the distance past one more than the previous
/// id); one at or past `num_docs` is [`SnapshotError::Malformed`] with
/// `past_end` as its context.
fn read_doc_ids(
    mut r: ByteReader<'_>,
    num_docs: u64,
    past_end: &'static str,
) -> Result<Vec<DocId>, SnapshotError> {
    let n = r.counted(1)?;
    let mut ids: Vec<DocId> = Vec::with_capacity(n);
    let mut next = 0;
    for _ in 0..n {
        let d = r.gap_id(next)?;
        if d >= num_docs.min(u64::from(DocId::MAX) + 1) {
            return Err(SnapshotError::Malformed { context: past_end });
        }
        ids.push(d as DocId);
        next = d + 1;
    }
    r.finish()?;
    Ok(ids)
}

fn manifest_to_bytes(m: &Manifest) -> Vec<u8> {
    let mut meta = Vec::new();
    put_u64(&mut meta, m.generation);
    put_u64(&mut meta, m.compactions);
    put_u64(&mut meta, m.next_segment_id);
    put_u64(&mut meta, m.num_docs);
    put_u64(&mut meta, m.num_terms);
    put_u64(&mut meta, CHUNK as u64);
    put_u64(&mut meta, m.epoch_len);
    put_u32(&mut meta, m.epoch_crc);
    let mut segs = Vec::new();
    put_varint(&mut segs, m.segments.len() as u64);
    for e in &m.segments {
        put_u64(&mut segs, e.id);
        put_u64(&mut segs, e.doc_count);
        put_u64(&mut segs, e.file_len);
        put_u32(&mut segs, e.file_crc);
    }
    let mut chunks = Vec::new();
    put_varint(&mut chunks, m.chunks.len() as u64);
    for e in &m.chunks {
        put_u64(&mut chunks, e.len);
        put_u64(&mut chunks, e.file_len);
        put_u32(&mut chunks, e.file_crc);
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

fn manifest_from_bytes(bytes: &[u8]) -> Result<Manifest, SnapshotError> {
    let mut container = Container::open(bytes, KIND_MANIFEST)?;
    let mut meta = container.section(TAG_META, "manifest meta section")?;
    let generation = meta.u64()?;
    let compactions = meta.u64()?;
    let next_segment_id = meta.u64()?;
    let num_docs = meta.u64()?;
    let num_terms = meta.u64()?;
    let chunk_size = meta.u64()?;
    let epoch_len = meta.u64()?;
    let epoch_crc = meta.u32()?;
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
            file_len: segs.u64()?,
            file_crc: segs.u32()?,
        });
    }
    segs.finish()?;
    let mut chnk = container.section(TAG_CHUNKS, "manifest chunk table")?;
    let n = chnk.counted(20)?;
    let mut chunks = Vec::with_capacity(n);
    for _ in 0..n {
        chunks.push(ChunkEntry {
            len: chnk.u64()?,
            file_len: chnk.u64()?,
            file_crc: chnk.u32()?,
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
    let mut claimed_total: u64 = 0;
    for e in &segments {
        claimed_total = claimed_total
            .checked_add(e.doc_count)
            .filter(|&total| total <= num_docs)
            .ok_or(SnapshotError::Malformed {
                // Segments cover disjoint doc sets, so their counts can
                // never sum past the corpus.
                context: "segments claim more documents than the corpus holds",
            })?;
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
        epoch_len,
        epoch_crc,
        segments,
        chunks,
        deleted,
    })
}

fn epoch_to_bytes(c: &Corpus) -> Vec<u8> {
    assemble(
        KIND_EPOCH,
        vec![
            (TAG_VOCAB, vocab_payload(c.vocab())),
            (TAG_STATS, stats_payload(c)),
        ],
    )
}

/// A segment's file: under [`CHUNK`] documents only its doc ids — the
/// load rebuilds the lists with the build that made them — and from
/// [`CHUNK`] up its posting lists, which a load keeps as read.
fn segment_to_bytes(segment: &Segment) -> Vec<u8> {
    if segment.doc_count() < CHUNK {
        let ids = segment.index().doc_ids();
        assemble(KIND_SEGMENT_IDS, vec![(TAG_IDS, doc_ids_payload(&ids))])
    } else {
        let postings = segment_postings_payload(segment.index());
        assemble(KIND_SEGMENT, vec![(TAG_INDEX, postings)])
    }
}

fn chunk_to_bytes(docs: &[Document]) -> Vec<u8> {
    assemble(KIND_CHUNK, vec![(TAG_DOCS, docs_payload(docs))])
}

/// Size of `dir/name` if it exists as a regular file.
fn file_len(dir: &Path, name: &str) -> Option<u64> {
    std::fs::metadata(dir.join(name))
        .ok()
        .filter(|m| m.is_file())
        .map(|m| m.len())
}

/// Reads `dir/name` and verifies it against the length and whole-file
/// CRC the manifest recorded — the cross-file integrity layer that
/// catches a stale or swapped file *before* its sections are parsed.
fn read_checked_file(dir: &Path, name: &str, len: u64, crc: u32) -> Result<Vec<u8>, SnapshotError> {
    let bytes = std::fs::read(dir.join(name))?;
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
    Ok(bytes)
}

/// Removes files our naming scheme owns that the just-written manifest
/// no longer references (segments dropped by compaction, chunks from a
/// diverged lineage, leftover temp files). Best-effort: a file that
/// cannot be removed is simply left behind — it is unreferenced, so
/// correctness never depends on its absence.
fn gc_unreferenced(dir: &Path, keep: &std::collections::HashSet<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else {
            continue;
        };
        if name == MANIFEST_NAME || keep.contains(name) {
            continue;
        }
        let ours = (name.starts_with("epoch") && name.ends_with(".bin"))
            || (name.starts_with("seg-") && name.ends_with(".bin"))
            || (name.starts_with("docs-") && name.ends_with(".bin"))
            || name.contains(".tmp.");
        if ours {
            let _ = std::fs::remove_file(entry.path());
        }
    }
}

/// What one [`save_segmented`] checkpoint actually did — the evidence
/// that incremental saves are O(delta): on an unchanged-prefix corpus,
/// `files_written` is the new segments + the partial tail chunk + the
/// manifest, regardless of how large the reused remainder is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    let reusable =
        recorded.filter(|&r| memo.get() == Some(&r) && file_len(dir, &name(r.1)) == Some(r.0));
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
/// document chunk, every segment — a segment of fewer than [`CHUNK`]
/// documents as its doc ids, a larger one as its posting lists — and the
/// manifest. The save is **incremental**: an epoch, segment or chunk
/// file the directory's previous manifest records with exactly the
/// `(length, CRC32)` the in-memory piece was written as or loaded from
/// is reused without re-encoding or rewriting, so a checkpoint writes
/// O(what changed) bytes, not O(corpus). Every other file goes to a new
/// name (its CRC is part of it), the manifest is written last
/// (atomically, with parent-directory fsync), and only then are
/// unreferenced files garbage-collected — so a save that fails or is
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
    let mut report = SaveReport {
        files_written: 0,
        files_reused: 0,
        bytes_written: 0,
        total_bytes: 0,
    };

    // The epoch (vocabulary + frozen statistics) never changes within a
    // lineage: it is encoded and written only when the directory does
    // not already hold the file this corpus remembers.
    let (epoch_len, epoch_crc) = save_data_file(
        dir,
        epoch_file_name,
        corpus.epoch_file(),
        prior.as_ref().map(|p| (p.epoch_len, p.epoch_crc)),
        || epoch_to_bytes(corpus),
        &mut report,
    )?;

    // Document-store chunks: sealed chunks never change, so their files
    // are reused; the partial tail chunk (and genuinely new chunks) are
    // written.
    let docs = corpus.doc_store();
    let mut chunk_entries: Vec<ChunkEntry> = Vec::with_capacity(docs.num_chunks());
    for i in 0..docs.num_chunks() {
        let items = docs.chunk_items(i);
        let recorded = prior
            .as_ref()
            .and_then(|p| p.chunks.get(i))
            .map(|e| (e.file_len, e.file_crc));
        let (file_len, file_crc) = save_data_file(
            dir,
            |crc| chunk_file_name(i, crc),
            docs.chunk_file(i),
            recorded,
            || chunk_to_bytes(items),
            &mut report,
        )?;
        chunk_entries.push(ChunkEntry {
            len: items.len() as u64,
            file_len,
            file_crc,
        });
    }

    // Segments are immutable and id-keyed, so a segment keeps its file
    // untouched across checkpoints. This is the O(delta) heart of the
    // checkpoint: the big old segments are never re-serialized, let
    // alone rewritten.
    let mut segment_entries: Vec<SegmentEntry> = Vec::with_capacity(index.num_segments());
    for segment in index.segments() {
        let recorded = prior
            .as_ref()
            .and_then(|p| p.segments.iter().find(|e| e.id == segment.id()))
            .map(|e| (e.file_len, e.file_crc));
        let (file_len, file_crc) = save_data_file(
            dir,
            |crc| segment_file_name(segment.id(), crc),
            segment.file(),
            recorded,
            || segment_to_bytes(segment),
            &mut report,
        )?;
        segment_entries.push(SegmentEntry {
            id: segment.id(),
            doc_count: segment.doc_count() as u64,
            file_len,
            file_crc,
        });
    }

    let manifest = Manifest {
        generation,
        compactions: index.compactions(),
        next_segment_id: index.next_segment_id(),
        num_docs: corpus.num_docs() as u64,
        num_terms: corpus.num_terms() as u64,
        epoch_len,
        epoch_crc,
        segments: segment_entries,
        chunks: chunk_entries,
        deleted: index.tombstone_set().iter_ids().collect(),
    };
    let manifest_bytes = manifest_to_bytes(&manifest);
    // Written last: every file it references is already durable, so a
    // crash on either side of this write leaves a loadable directory
    // (the old state before, the new state after).
    write_counted(dir, MANIFEST_NAME, &manifest_bytes, &mut report)?;

    let mut keep: std::collections::HashSet<String> = std::collections::HashSet::with_capacity(
        2 + manifest.segments.len() + manifest.chunks.len(),
    );
    keep.insert(epoch_file_name(manifest.epoch_crc));
    for e in &manifest.segments {
        keep.insert(segment_file_name(e.id, e.file_crc));
    }
    for (i, e) in manifest.chunks.iter().enumerate() {
        keep.insert(chunk_file_name(i, e.file_crc));
    }
    gc_unreferenced(dir, &keep);
    Ok(report)
}

/// Loads a [`SegmentedIndex`] snapshot directory (and its saved
/// generation) from `dir`: the manifest is read eagerly, then each
/// referenced file is CRC-verified against the manifest and decoded —
/// no monolithic re-parse, and any cross-file inconsistency (missing or
/// stale file, duplicate segment id, overlapping per-segment doc sets)
/// is a typed [`SnapshotError`]. A segment saved as its doc ids is
/// rebuilt with [`Segment::build`] over them, once they are checked:
/// strictly increasing, inside the corpus, each a non-empty document,
/// as many as the manifest records, and claimed by no other segment.
/// Each segment and chunk remembers the file it was loaded from, so the
/// next save into `dir` reuses it.
///
/// The loaded index is **byte-identical** to the saved one: every scan
/// and threshold-algorithm read (hits, metrics, early-stop point)
/// reproduces the in-memory engine's bits, and
/// [`SegmentedIndex::verify_rebuild_equivalence`] holds on the loaded
/// state exactly as it did on the saved one (`tests/persistence.rs`).
pub fn load_segmented(dir: impl AsRef<Path>) -> Result<(SegmentedIndex, u64), SnapshotError> {
    let dir = dir.as_ref();
    let manifest = manifest_from_bytes(&std::fs::read(dir.join(MANIFEST_NAME))?)?;

    let epoch_bytes = read_checked_file(
        dir,
        &epoch_file_name(manifest.epoch_crc),
        manifest.epoch_len,
        manifest.epoch_crc,
    )?;
    let (mut container, _) = Container::open_trusted(&epoch_bytes, &[KIND_EPOCH])?;
    let vocab = read_vocab(container.section(TAG_VOCAB, "vocabulary section")?)?;
    let (doc_freq, idf) = read_stats(
        container.section(TAG_STATS, "statistics section")?,
        vocab.len(),
    )?;
    container.finish()?;
    if vocab.len() as u64 != manifest.num_terms {
        return Err(SnapshotError::Malformed {
            context: "epoch vocabulary size disagrees with the manifest",
        });
    }
    let mut doc_parts: Vec<Vec<Document>> = Vec::with_capacity(manifest.chunks.len());
    for (i, entry) in manifest.chunks.iter().enumerate() {
        let name = chunk_file_name(i, entry.file_crc);
        let bytes = read_checked_file(dir, &name, entry.file_len, entry.file_crc)?;
        let (mut c, _) = Container::open_trusted(&bytes, &[KIND_CHUNK])?;
        doc_parts.push(read_docs(
            c.section(TAG_DOCS, "chunk documents section")?,
            vocab.len(),
            entry.len as usize,
        )?);
        c.finish()?;
    }
    // The manifest validation already pinned the per-chunk lengths, so
    // this cannot fail on manifest-consistent data.
    let docs = ChunkedVec::from_chunks(doc_parts).ok_or(SnapshotError::Malformed {
        context: "chunk lengths violate the sealed-chunk invariant",
    })?;
    for (i, entry) in manifest.chunks.iter().enumerate() {
        let _ = docs.chunk_file(i).set((entry.file_len, entry.file_crc));
    }
    let corpus = Corpus::from_parts(vocab, docs, doc_freq, idf);
    let _ = corpus
        .epoch_file()
        .set((manifest.epoch_len, manifest.epoch_crc));
    let num_docs = corpus.num_docs();
    // Per-doc `1/sqrt(len)` factors, tabulated once so every segment's
    // partial-score check is a multiply, through the build's own
    // `index::inv_sqrt_len`.
    let inv_len: Vec<f64> = corpus
        .docs()
        .map(|d| {
            if d.len == 0 {
                0.0
            } else {
                index::inv_sqrt_len(d.len)
            }
        })
        .collect();

    // Segments must cover pairwise-disjoint doc-id sets — the invariant
    // the merged-bound soundness proof (DESIGN.md §8) rests on; an
    // overlap would serve duplicate hits, so it is rejected like every
    // other CRC-valid-but-inconsistent payload.
    let mut claimed = vec![0u64; num_docs.div_ceil(64)];
    let mut segments = Vec::with_capacity(manifest.segments.len());
    for entry in &manifest.segments {
        let stamp = (entry.file_len, entry.file_crc);
        let name = segment_file_name(entry.id, entry.file_crc);
        let bytes = read_checked_file(dir, &name, entry.file_len, entry.file_crc)?;
        let (mut c, kind) = Container::open_trusted(&bytes, &[KIND_SEGMENT, KIND_SEGMENT_IDS])?;
        // An id file names the segment's documents, each of which must
        // give the build a posting; a postings file holds the lists.
        let (ids, index) = if kind == KIND_SEGMENT_IDS {
            let ids = read_doc_ids(
                c.section(TAG_IDS, "segment doc id section")?,
                num_docs as u64,
                "segment doc id past the corpus",
            )?;
            let empty = |d: DocId| {
                let doc = corpus.doc(d);
                doc.len == 0 || doc.terms.is_empty()
            };
            if ids.iter().any(|&d| empty(d)) {
                return Err(SnapshotError::Malformed {
                    context: "segment lists an empty document",
                });
            }
            (ids, None)
        } else {
            let index = read_segment_index(
                c.section(TAG_INDEX, "segment index section")?,
                corpus.idf_table(),
                &inv_len,
            )?;
            (index.doc_ids(), Some(index))
        };
        c.finish()?;
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
        let segment = match index {
            Some(index) => Segment::from_trusted_parts(entry.id, ids.len(), index, stamp),
            None => {
                // The build that made the segment, over the same
                // documents under the same epoch: the same lists, bit
                // for bit.
                let segment = Segment::build(entry.id, &corpus, ids.iter().copied());
                let _ = segment.file().set(stamp);
                segment
            }
        };
        segments.push(Arc::new(segment));
    }

    let deleted = Tombstones::from_ids(&manifest.deleted);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{InvertedIndex, Posting};
    use crate::synth::{SynthConfig, generate};

    #[test]
    fn crc32_matches_the_reference_vectors() {
        // The canonical IEEE check value, plus zlib-verified spot checks.
        // "123456789" (9 bytes) covers only the byte-at-a-time remainder
        // loop; the 43-byte fox sentence drives the slice-by-16 fold
        // path (2 full blocks + 11 remainder bytes) against a pinned
        // external value, so a table-indexing bug in `crc_fold` cannot
        // hide behind writer/reader sharing one implementation.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"divtopk"), crc32(b"divtopk"));
        assert_ne!(crc32(b"divtopk"), crc32(b"divtopj"));
        // Fold path ≡ remainder path on the same input.
        let long: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let mut byte_at_a_time = 0xFFFF_FFFFu32;
        for &b in &long {
            byte_at_a_time = (byte_at_a_time >> 8)
                ^ CRC_TABLES[0][((byte_at_a_time ^ b as u32) & 0xFF) as usize];
        }
        assert_eq!(crc32(&long), byte_at_a_time ^ 0xFFFF_FFFF);
    }

    #[test]
    fn implausibly_large_idf_is_rejected_even_with_a_valid_crc() {
        // Each value individually finite is not enough: 1e200 + 1e200
        // at query time is +inf → `Score::new` panic. The plausibility
        // cap stops the forged table at decode.
        let mut b = crate::corpus::CorpusBuilder::with_synthetic_vocab(2);
        b.add_tokens("d".into(), vec![0, 1]);
        let good = b.build();
        let forged = Corpus::from_parts(
            good.vocab().clone(),
            good.doc_store().clone(),
            vec![1, 1],
            vec![1e200, 1e200],
        );
        let bytes = epoch_to_bytes(&forged);
        let mut epoch = Container::open(&bytes, KIND_EPOCH).unwrap();
        read_vocab(epoch.section(TAG_VOCAB, "vocabulary section").unwrap()).unwrap();
        match read_stats(epoch.section(TAG_STATS, "statistics section").unwrap(), 2) {
            Err(SnapshotError::Malformed { context }) => {
                assert!(context.contains("IDF"), "{context}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

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
    pub(super) fn assert_malformed<T: fmt::Debug>(
        cases: Vec<(&str, Result<T, SnapshotError>, &str)>,
    ) {
        for (what, result, want) in cases {
            match result {
                Err(SnapshotError::Malformed { context }) => {
                    assert!(context.contains(want), "{what}: {context}");
                }
                other => panic!("{what}: expected Malformed, got {other:?}"),
            }
        }
    }

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
        read_docs(ByteReader::new(&payload, "chunk documents section"), 4, 1)
    }

    #[test]
    fn forged_document_and_tombstone_payloads_are_rejected() {
        let honest = forged_docs(1, &[(1, "a", 3, &[(1, 2), (1, 1)])]);
        let docs = decode_docs(honest.clone()).unwrap();
        assert_eq!(docs[0].terms, [(1, 2), (3, 1)]);
        assert_eq!(docs_payload(&docs), honest);
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

        let decode_tomb = |payload: Vec<u8>| {
            let r = ByteReader::new(&payload, "manifest tombstone list");
            read_doc_ids(r, 5, "tombstone for an unallocated document id")
        };
        let forged_tomb = |n: u64, gaps: &[u64]| {
            let mut buf = Vec::new();
            put_varint(&mut buf, n);
            gaps.iter().for_each(|&g| put_varint(&mut buf, g));
            buf
        };
        assert_eq!(decode_tomb(doc_ids_payload(&[0, 3, 4])).unwrap(), [0, 3, 4]);
        assert_eq!(doc_ids_payload(&[0, 3, 4]), forged_tomb(3, &[0, 2, 0]));
        assert_malformed(vec![
            (
                "tombstone gap past the allocated ids",
                decode_tomb(forged_tomb(2, &[1, 3])),
                "unallocated document id",
            ),
            (
                "tombstone gap sum overflowing",
                decode_tomb(forged_tomb(2, &[0, u64::MAX])),
                "overflows 64 bits",
            ),
            (
                "tombstone count overclaiming its section",
                decode_tomb(forged_tomb(3, &[0])),
                "element count larger than the section",
            ),
        ]);
    }

    /// Term frequencies on both sides of every tf width boundary.
    const TF_BOUNDARIES: [u32; 6] = [1, 255, 256, 65_535, 65_536, u32::MAX];

    /// The `(doc_width, tf_width)` bytes of a segment posting payload.
    fn payload_widths(payload: &[u8]) -> (u8, u8) {
        let mut r = ByteReader::new(payload, "segment index section");
        r.u64().unwrap();
        r.varint().unwrap();
        r.varint().unwrap();
        (r.u8().unwrap(), r.u8().unwrap())
    }

    #[test]
    fn segment_payloads_round_trip_across_width_boundaries() {
        // Doc spans on both sides of 2⁸, 2¹⁶ and 2²⁴ from a non-zero
        // base, each with every boundary tf. A 2²⁴-document corpus is
        // out of reach of a unit test, so this one decodes the payload
        // directly against a zeroed `1/sqrt(len)` table whose pages no
        // posting touches are never written.
        let base = 5u32;
        let spans = [1u32, 255, 256, 65_535, 65_536, (1 << 24) - 1, 1 << 24];
        let doc_widths = [1u8, 1, 2, 2, 3, 3, 4];
        let tf_widths = [1u8, 1, 2, 2, 3, 4];
        let mut inv_len = vec![0.0; (base + (1 << 24)) as usize + 1];
        inv_len[base as usize] = 1.0;
        for span in spans {
            inv_len[(base + span) as usize] = 1.0;
        }
        for (&tf, &tf_width) in TF_BOUNDARIES.iter().zip(&tf_widths) {
            for (&span, &doc_width) in spans.iter().zip(&doc_widths) {
                let (near, far) = (
                    Posting { doc: base, tf: 1 },
                    Posting {
                        doc: base + span,
                        tf,
                    },
                );
                // `(partial desc, doc asc)` with every partial = tf.
                let two = if tf > 1 {
                    vec![far, near]
                } else {
                    vec![near, far]
                };
                let index = InvertedIndex::from_sorted_lists(3, [(0, vec![far]), (2, two.clone())]);
                let payload = segment_postings_payload(&index);
                assert_eq!(
                    payload_widths(&payload),
                    (doc_width, tf_width),
                    "span {span} tf {tf}"
                );
                let reader = ByteReader::new(&payload, "segment index section");
                let loaded = read_segment_index(reader, &[1.0; 3], &inv_len).unwrap();
                assert!(loaded.lists().eq(index.lists()), "span {span} tf {tf}");
                assert!(loaded.postings(2).iter().eq(two), "span {span} tf {tf}");
                assert_eq!(segment_postings_payload(&loaded), payload);
            }
        }
    }

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
            .map(|s| payload_widths(&segment_postings_payload(s.index())))
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
    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("divtopk-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The manifest of the snapshot directory `dir`.
    fn manifest_of(dir: &Path) -> Manifest {
        manifest_from_bytes(&std::fs::read(dir.join(MANIFEST_NAME)).unwrap()).unwrap()
    }

    /// The path of the file of segment `i` of the snapshot at `dir`.
    fn segment_path(dir: &Path, i: usize) -> std::path::PathBuf {
        let e = manifest_of(dir).segments[i];
        dir.join(segment_file_name(e.id, e.file_crc))
    }

    /// The kind a snapshot file's header declares.
    fn kind_of(path: &Path) -> u32 {
        let bytes = std::fs::read(path).unwrap();
        u32::from_le_bytes(bytes[12..16].try_into().unwrap())
    }

    /// A two-segment state with a live-update tail (one appended batch,
    /// two deletes) — the smallest shape exercising every manifest
    /// feature: multiple segments, a partial chunk, and tombstones.
    fn small_segmented() -> SegmentedIndex {
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
        // document must not load, whether they are saved as doc ids
        // (under one chunk of documents) or as posting lists.
        let mut b = crate::corpus::CorpusBuilder::with_synthetic_vocab(2);
        // Room for both overlapping pairs' counts, which the manifest
        // checks against the corpus before any file is read.
        for i in 0..2_300u32 {
            b.add_tokens(format!("d{i}"), vec![i % 2]);
        }
        let corpus = Arc::new(b.build());
        for (kind, a, b) in [
            (KIND_SEGMENT_IDS, 0..40, 30..80),
            (KIND_SEGMENT, 0..1_100, 1_000..2_100),
        ] {
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
            assert_eq!(kind_of(&segment_path(&dir, 1)), kind);
            match load_segmented(&dir) {
                Err(SnapshotError::Malformed { context }) => {
                    assert!(context.contains("same document"), "{context}");
                }
                other => panic!("kind {kind}: expected Malformed, got {other:?}"),
            }
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
        entry.file_len = bytes.len() as u64;
        entry.file_crc = crc32(&bytes);
        let name = segment_file_name(entry.id, entry.file_crc);
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
        let gaps = |n: u64, gaps: &[u64]| {
            let mut buf = Vec::new();
            put_varint(&mut buf, n);
            gaps.iter().for_each(|&g| put_varint(&mut buf, g));
            buf
        };
        // The honest payload is the gap form, and loads.
        assert_eq!(doc_ids_payload(&[0, 4]), gaps(2, &[0, 3]));
        load_forged_ids(&dir, gaps(2, &[0, 3]), 2)
            .unwrap()
            .0
            .verify_rebuild_equivalence()
            .unwrap();
        assert_malformed(vec![
            (
                // A gap counts past one more than the previous id, so an
                // id can repeat or go back only by wrapping 64 bits.
                "unsorted or duplicate ids",
                load_forged_ids(&dir, gaps(2, &[4, u64::MAX - 4]), 2),
                "overflows 64 bits",
            ),
            (
                "an id past the corpus",
                load_forged_ids(&dir, gaps(2, &[0, 5]), 2),
                "past the corpus",
            ),
            (
                "a listed empty document",
                load_forged_ids(&dir, gaps(2, &[0, 1]), 2),
                "empty document",
            ),
            (
                "a count that differs from the manifest",
                load_forged_ids(&dir, gaps(2, &[0, 3]), 1),
                "disagrees with the manifest",
            ),
            (
                "an overclaiming count",
                load_forged_ids(&dir, gaps(3, &[0, 3]), 3),
                "element count larger than the section",
            ),
            (
                "overlap with another segment",
                load_forged_ids(&dir, gaps(2, &[0, 2]), 2),
                "same document",
            ),
        ]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_under_one_chunk_are_saved_as_ids() {
        // A 1 023-document segment is saved as its doc ids, a 1 024-document
        // one as its posting lists; both load to the lists they held.
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
        assert_eq!(kind_of(&segment_path(&dir, 0)), KIND_SEGMENT_IDS);
        assert_eq!(kind_of(&segment_path(&dir, 1)), KIND_SEGMENT);
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
        let epoch = epoch_file_name(manifest_of(&dir).epoch_crc);
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
        let mut manifest =
            manifest_from_bytes(&std::fs::read(dir.join(MANIFEST_NAME)).unwrap()).unwrap();
        assert!(manifest.segments.len() >= 2);
        manifest.segments[1] = manifest.segments[0];
        std::fs::write(dir.join(MANIFEST_NAME), manifest_to_bytes(&manifest)).unwrap();
        match load_segmented(&dir) {
            Err(SnapshotError::Malformed { context }) => {
                assert!(context.contains("duplicate segment id"), "{context}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
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
        let mut manifest =
            manifest_from_bytes(&std::fs::read(dir.join(MANIFEST_NAME)).unwrap()).unwrap();
        manifest.segments[0].doc_count = manifest.num_docs + 1;
        std::fs::write(dir.join(MANIFEST_NAME), manifest_to_bytes(&manifest)).unwrap();
        match load_segmented(&dir) {
            Err(SnapshotError::Malformed { context }) => {
                assert!(context.contains("claim more documents"), "{context}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
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
        // without a CRC; this build decodes none of them (rebuild on
        // mismatch, DESIGN.md §14).
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
        // epoch encodes posting payloads of equal length: the payload
        // holds the batch's lists, not one length per vocabulary term.
        // (Saved, the batch is an id file, and loads as the same lists.)
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
            lens.push(segment_postings_payload(added.index()).len());
            save_segmented(&dir, &index, 2).unwrap();
            let (loaded, _) = load_segmented(&dir).unwrap();
            let reloaded = loaded.segments().last().unwrap();
            assert!(reloaded.index().lists().eq(added.index().lists()));
            loaded.verify_rebuild_equivalence().unwrap();
            let _ = std::fs::remove_dir_all(&dir);
        }
        assert_eq!(
            lens[0], lens[1],
            "segment payload length depends on the vocabulary"
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
        // First section header starts at offset 20; its u64 length at 24.
        bytes[24..32].copy_from_slice(&u64::MAX.to_le_bytes());
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
}
