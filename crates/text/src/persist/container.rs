//! The container every snapshot file is framed in, and the codecs its
//! payloads share, the doc-id list of `TOMB` and `IDS ` among them:
//!
//! ```text
//! file     := header section*
//! header   := magic[8]="DIVTOPK\0"  version:u32  kind:u32  section_count:u32
//! section  := tag[4]  payload_len:u64  crc32:u32  payload[payload_len]
//! ```
//!
//! The header and section framing are fixed-width little-endian. Inside
//! a payload, counts, lengths and small integers are unsigned LEB128
//! (shortest form only), increasing id sequences — a segment's doc ids, a
//! document's signature, the tombstones — are stored as gaps; each
//! payload's doc comment gives its grammar. Floats travel as
//! [`f64::to_bits`] words, so a load reproduces the exact bits the
//! writer held — the substrate of the byte-equality-after-load
//! contract. Each section's payload is protected by an in-repo CRC32
//! ([`crc32`], the IEEE/zlib polynomial);
//! the header fields are protected structurally (magic, a pinned
//! [`FORMAT_VERSION`], a per-snapshot-kind section schedule, and an
//! exact-consumption check at every level).

use super::SnapshotError;
use crate::document::DocId;

/// The 8-byte file magic every snapshot starts with.
pub const MAGIC: [u8; 8] = *b"DIVTOPK\0";

/// The container format revision this build writes and reads.
pub const FORMAT_VERSION: u32 = 6;

/// Snapshot kind: the `MANIFEST` of a snapshot directory (what
/// `Engine::save_snapshot` writes). Kinds 1–3 belonged to retired
/// single-file formats and kind 6 to the posting-list segment file of
/// formats 3–5; none is reused, so such a file can never half-decode as
/// another kind.
pub const KIND_MANIFEST: u32 = 4;
/// Snapshot kind: the `epoch-*.bin` file (vocabulary + frozen statistics).
pub const KIND_EPOCH: u32 = 5;
/// Snapshot kind: one `docs-*.bin` document-store chunk file.
pub const KIND_CHUNK: u32 = 7;
/// Snapshot kind: one `seg-*.bin` segment file, the segment's doc ids
/// (`IDS `); the load rebuilds its lists from the documents.
pub const KIND_SEGMENT_IDS: u32 = 8;

/// Bytes of a file header: magic, version, kind and section count.
pub const HEADER_LEN: usize = 8 + 4 + 4 + 4;

/// Bytes of a section header: tag, payload length and CRC32.
pub const SECTION_HEADER_LEN: usize = 4 + 8 + 4;

/// The kind the header of the snapshot file `bytes` declares, read by
/// the opener every load uses, so a file that is not a snapshot of this
/// format version is the typed error a load would return.
pub fn file_kind(bytes: &[u8]) -> Result<u32, SnapshotError> {
    Ok(Container::open(bytes, &[], false)?.1)
}

/// Slice-by-16 lookup tables: `CRC_TABLES[0]` is the classic byte
/// table; `CRC_TABLES[i]` advances a byte `i` further positions in one
/// lookup, so the hot loop folds 16 input bytes per iteration (snapshot
/// checksums sit on the cold-start path — restart latency is the whole
/// point). Implemented in-repo: the workspace takes no external
/// dependencies.
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

/// CRC32 (IEEE 802.3 / zlib: reflected, polynomial `0xEDB88320`,
/// init/final-xor `0xFFFFFFFF`) — bit-compatible with zlib's `crc32`.
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

pub(super) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(super) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Unsigned LEB128: seven bits per byte, low group first, the high bit
/// set on every byte but the last. The writer always emits the shortest
/// form, so one value has one encoding.
pub(super) fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

pub(super) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Writes an increasing id sequence as gaps: each id as its distance past
/// the smallest id the sequence could still take (`0` first, then one
/// past the previous id), so a strictly increasing sequence is the only
/// kind the bytes can express.
pub(super) fn put_gap(buf: &mut Vec<u8>, next: &mut u64, id: u64) {
    put_varint(buf, id - *next);
    *next = id + 1;
}

/// A bounds-checked cursor over one payload (or the file header). Every
/// read returns a typed [`SnapshotError`] instead of slicing out of range.
pub(super) struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    context: &'static str,
}

impl<'a> ByteReader<'a> {
    pub(super) fn new(bytes: &'a [u8], context: &'static str) -> ByteReader<'a> {
        ByteReader {
            bytes,
            pos: 0,
            context,
        }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    pub(super) fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
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

    pub(super) fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(super) fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads one LEB128 integer ([`put_varint`]'s form). A value past 64
    /// bits, a redundant trailing zero group (which would give one value
    /// two encodings) and a continuation bit running off the payload are
    /// each [`SnapshotError::Malformed`].
    pub(super) fn varint(&mut self) -> Result<u64, SnapshotError> {
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
    pub(super) fn varint_u32(&mut self) -> Result<u32, SnapshotError> {
        u32::try_from(self.varint()?).map_err(|_| SnapshotError::Malformed {
            context: "LEB128 integer overflows 32 bits",
        })
    }

    /// Reads one gap-coded id ([`put_gap`]): `next` plus the stored gap.
    /// The caller checks the id against its range and sets `next` one
    /// past it.
    pub(super) fn gap_id(&mut self, next: u64) -> Result<u64, SnapshotError> {
        let gap = self.varint()?;
        next.checked_add(gap).ok_or(SnapshotError::Malformed {
            context: "gap-coded id overflows 64 bits",
        })
    }

    pub(super) fn str(&mut self) -> Result<&'a str, SnapshotError> {
        let len = self.counted(1)?;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| SnapshotError::Malformed {
            context: "non-UTF-8 string",
        })
    }

    /// Reads a LEB128 element count and validates it against the bytes
    /// still present (`min_bytes` ≥ 1 per element), so a forged count can
    /// never drive an oversized allocation.
    pub(super) fn counted(&mut self, min_bytes: usize) -> Result<usize, SnapshotError> {
        let count = self.varint()?;
        let fits = count
            .checked_mul(min_bytes as u64)
            .is_some_and(|total| total <= self.remaining() as u64);
        if !fits {
            return Err(SnapshotError::Malformed {
                context: "element count larger than the section holding it",
            });
        }
        Ok(count as usize)
    }

    /// Asserts the payload was consumed exactly.
    pub(super) fn finish(self) -> Result<(), SnapshotError> {
        if self.remaining() != 0 {
            return Err(SnapshotError::TrailingBytes {
                extra: self.remaining() as u64,
            });
        }
        Ok(())
    }
}

/// Assembles a complete snapshot file from `(tag, payload)` sections.
pub(super) fn assemble(kind: u32, sections: Vec<([u8; 4], Vec<u8>)>) -> Vec<u8> {
    let payloads: usize = sections.iter().map(|(_, p)| p.len()).sum();
    let mut out = Vec::with_capacity(HEADER_LEN + SECTION_HEADER_LEN * sections.len() + payloads);
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
pub(super) struct Container<'a> {
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
    /// Opens a container of any of `kinds` (the first is the one a
    /// [`SnapshotError::WrongKind`] names; none means any kind) and
    /// returns the kind it holds, for a caller that picks the decoder by
    /// kind. `trusted` bytes were authenticated by an enclosing whole-file
    /// checksum.
    pub(super) fn open(
        bytes: &'a [u8],
        kinds: &[u32],
        trusted: bool,
    ) -> Result<(Container<'a>, u32), SnapshotError> {
        let mut reader = ByteReader::new(bytes, "snapshot header");
        let magic = reader.take(MAGIC.len())?;
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
        if !kinds.is_empty() && !kinds.contains(&kind) {
            return Err(SnapshotError::WrongKind {
                found: kind,
                expected: kinds[0],
            });
        }
        let sections_left = reader.u32()?;
        let container = Container {
            reader,
            sections_left,
            trusted,
        };
        Ok((container, kind))
    }

    /// Reads the next section, which must carry `tag`; verifies its CRC
    /// and returns a cursor over the payload.
    pub(super) fn section(
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
    pub(super) fn finish(self) -> Result<(), SnapshotError> {
        if self.sections_left != 0 {
            return Err(SnapshotError::Malformed {
                context: "section count larger than the sections present",
            });
        }
        self.reader.finish()
    }
}

/// Doc-id list payload — the manifest's tombstones (`TOMB`) and a small
/// segment's doc ids (`IDS `): the count, then the ids gap-coded in
/// increasing order —
///
/// ```text
/// n:leb  id_gap:leb×n
/// ```
pub(super) fn doc_ids_payload(ids: &[DocId]) -> Vec<u8> {
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
pub(super) fn read_doc_ids(
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
