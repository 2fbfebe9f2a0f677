//! Fixed-size Arc-shared append-only chunks — the O(1)-COW document
//! store behind [`Corpus`](crate::corpus::Corpus) and the segmented
//! weight table (DESIGN.md §14).
//!
//! The PR-4 copy-on-write add path cloned the *entire* document list on
//! every mutation batch (`Arc::make_mut` over one big `Vec<Document>`),
//! an O(corpus) cost the DESIGN §9 caveat documented. [`ChunkedVec`]
//! fixes it structurally: items live in fixed-size chunks of
//! [`CHUNK`] = 1024 elements, each behind its own [`Arc`]. Cloning the
//! vector clones `n / CHUNK` pointers (no items); appending deep-copies
//! at most the one partial tail chunk (≤ CHUNK items, O(1) amortized
//! per batch). All chunks except the last are exactly [`CHUNK`] long —
//! the invariant that makes indexing two shifts and keeps chunk
//! boundaries stable, so a full chunk's serialized form never changes
//! once sealed and incremental snapshots (DESIGN.md §14) can skip it
//! by fingerprint.
//!
//! Per-chunk content fingerprints ([`ChunkedVec::chunk_fingerprint`])
//! are memoized in a [`OnceLock`] shared through the `Arc`, so across a
//! checkpoint sequence each sealed chunk is hashed once, ever — the
//! memo survives COW clones of the vector (the `Arc` is shared) and is
//! reset only when a chunk is actually deep-copied for mutation.

use std::sync::{Arc, OnceLock};

/// Items per chunk. A power of two so indexing is a shift and a mask;
/// 1024 documents ≈ tens of KiB per chunk file, large enough that the
/// manifest stays small and small enough that the rewritten tail is
/// cheap.
pub const CHUNK: usize = 1024;
const CHUNK_SHIFT: u32 = CHUNK.trailing_zeros();
const CHUNK_MASK: usize = CHUNK - 1;

/// 64-bit FNV-1a — the in-repo content hash used for chunk and segment
/// fingerprints (persist needs no cryptographic strength here: the
/// fingerprint guards against *stale lineage* reuse, and every file is
/// additionally CRC-checked byte-for-byte on load).
#[derive(Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// Standard FNV-1a offset basis / prime.
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Fresh hasher.
    #[must_use]
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET)
    }

    /// Feeds raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    /// Feeds a `u32` (little-endian, matching the snapshot encoding).
    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Feeds a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Final hash value.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// Content types that can feed a chunk fingerprint.
///
/// Implementations must hash every field that participates in the
/// serialized form — two values that fingerprint equal must serialize
/// equal, or incremental saves could wrongly reuse a stale chunk file.
pub trait Fingerprint {
    /// Feeds this value into the hasher.
    fn fingerprint_into(&self, h: &mut Fnv1a);
}

impl Fingerprint for f64 {
    fn fingerprint_into(&self, h: &mut Fnv1a) {
        h.write_u64(self.to_bits());
    }
}

/// One fixed-size run of items plus its memoized content hash.
#[derive(Debug)]
struct Chunk<T> {
    items: Vec<T>,
    /// Lazily computed by [`ChunkedVec::chunk_fingerprint`]; shared
    /// across COW clones through the `Arc`, reset on deep copy (the
    /// clone below) because the copy is about to be mutated.
    fp: OnceLock<u64>,
}

impl<T> Chunk<T> {
    fn new() -> Self {
        Chunk {
            items: Vec::with_capacity(CHUNK),
            fp: OnceLock::new(),
        }
    }
}

impl<T: Clone> Clone for Chunk<T> {
    fn clone(&self) -> Self {
        // A chunk is only ever deep-copied (`Arc::make_mut`) on the
        // append path, right before its items change — so the memoized
        // fingerprint must NOT travel with the copy.
        Chunk {
            items: self.items.clone(),
            fp: OnceLock::new(),
        }
    }
}

/// An append-only vector of `T` stored as fixed-size `Arc`-shared
/// chunks: O(1)-ish clones (pointer-per-chunk, no items), O(CHUNK)
/// worst-case copy-on-append, two-instruction indexing.
///
/// Invariant: every chunk except the last holds exactly [`CHUNK`]
/// items; the last holds `1..=CHUNK`. (An empty vector has no chunks.)
#[derive(Debug, Clone)]
pub struct ChunkedVec<T> {
    chunks: Vec<Arc<Chunk<T>>>,
    len: usize,
}

impl<T> ChunkedVec<T> {
    /// An empty vector.
    #[must_use]
    pub fn new() -> Self {
        ChunkedVec {
            chunks: Vec::new(),
            len: 0,
        }
    }

    /// Number of items.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no items are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The item at `i`, or `None` past the end.
    #[must_use]
    pub fn get(&self, i: usize) -> Option<&T> {
        if i >= self.len {
            return None;
        }
        Some(&self.chunks[i >> CHUNK_SHIFT].items[i & CHUNK_MASK])
    }

    /// Iterates items in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks.iter().flat_map(|c| c.items.iter())
    }

    /// Number of chunks (`ceil(len / CHUNK)`).
    #[must_use]
    pub fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// The items of chunk `i` as a slice. Panics past the end.
    #[must_use]
    pub fn chunk_items(&self, i: usize) -> &[T] {
        &self.chunks[i].items
    }
}

impl<T: Clone> ChunkedVec<T> {
    /// Appends one item, deep-copying at most the shared tail chunk.
    pub fn push(&mut self, value: T) {
        let start_new = match self.chunks.last() {
            None => true,
            Some(c) => c.items.len() == CHUNK,
        };
        if start_new {
            self.chunks.push(Arc::new(Chunk::new()));
        }
        // The tail exists by construction; `make_mut` deep-copies it
        // only when another clone still shares it (O(CHUNK) worst case).
        let idx = self.chunks.len() - 1;
        Arc::make_mut(&mut self.chunks[idx]).items.push(value);
        self.len += 1;
    }

    /// Rebuilds from parsed chunks, enforcing the all-but-last-sealed
    /// invariant. Used by the snapshot loader.
    pub(crate) fn from_chunks(parts: Vec<Vec<T>>) -> Option<Self> {
        let mut len = 0usize;
        for (i, part) in parts.iter().enumerate() {
            let sealed_required = i + 1 < parts.len();
            if part.is_empty() || part.len() > CHUNK || (sealed_required && part.len() != CHUNK) {
                return None;
            }
            len += part.len();
        }
        Some(ChunkedVec {
            chunks: parts
                .into_iter()
                .map(|items| {
                    Arc::new(Chunk {
                        items,
                        fp: OnceLock::new(),
                    })
                })
                .collect(),
            len,
        })
    }
}

impl<T: Fingerprint> ChunkedVec<T> {
    /// Content fingerprint of chunk `i`, memoized per chunk and shared
    /// across COW clones — across a checkpoint sequence each sealed
    /// chunk is hashed once, keeping incremental saves O(delta) CPU.
    #[must_use]
    pub fn chunk_fingerprint(&self, i: usize) -> u64 {
        let chunk = &self.chunks[i];
        *chunk.fp.get_or_init(|| {
            let mut h = Fnv1a::new();
            h.write_u64(chunk.items.len() as u64);
            for item in &chunk.items {
                item.fingerprint_into(&mut h);
            }
            h.finish()
        })
    }
}

impl<T> Default for ChunkedVec<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Clone> Extend<T> for ChunkedVec<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }
}

impl<T: Clone> FromIterator<T> for ChunkedVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = ChunkedVec::new();
        v.extend(iter);
        v
    }
}

impl<T: PartialEq> PartialEq for ChunkedVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: Eq> Eq for ChunkedVec<T> {}

impl<T> std::ops::Index<usize> for ChunkedVec<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        &self.chunks[i >> CHUNK_SHIFT].items[i & CHUNK_MASK]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_iter_roundtrip() {
        let mut v = ChunkedVec::new();
        for i in 0..(CHUNK * 2 + 17) {
            v.push(i as f64);
        }
        assert_eq!(v.len(), CHUNK * 2 + 17);
        assert_eq!(v.num_chunks(), 3);
        assert_eq!(v.chunk_items(0).len(), CHUNK);
        assert_eq!(v.chunk_items(1).len(), CHUNK);
        assert_eq!(v.chunk_items(2).len(), 17);
        assert_eq!(v[0], 0.0);
        assert_eq!(v[CHUNK], CHUNK as f64);
        assert_eq!(v.get(v.len()), None);
        let collected: Vec<f64> = v.iter().copied().collect();
        assert_eq!(collected.len(), v.len());
        assert_eq!(collected[CHUNK + 5], (CHUNK + 5) as f64);
    }

    #[test]
    fn clone_shares_chunks_and_append_copies_only_the_tail() {
        let mut a: ChunkedVec<f64> = (0..(CHUNK + 10)).map(|i| i as f64).collect();
        let b = a.clone();
        // The sealed chunk is shared; appending to `a` must not touch it.
        assert!(Arc::ptr_eq(&a.chunks[0], &b.chunks[0]));
        a.push(-1.0);
        assert!(Arc::ptr_eq(&a.chunks[0], &b.chunks[0]));
        // The tail was deep-copied for `a` only.
        assert!(!Arc::ptr_eq(&a.chunks[1], &b.chunks[1]));
        assert_eq!(b.len(), CHUNK + 10);
        assert_eq!(a.len(), CHUNK + 11);
        assert_eq!(a[CHUNK + 10], -1.0);
        assert_eq!(b[CHUNK + 9], (CHUNK + 9) as f64);
    }

    #[test]
    fn fingerprints_are_memoized_across_clones_and_reset_on_mutation() {
        let mut a: ChunkedVec<f64> = (0..(CHUNK + 1)).map(|i| i as f64).collect();
        let sealed_fp = a.chunk_fingerprint(0);
        let tail_fp = a.chunk_fingerprint(1);
        let b = a.clone();
        // Memo travels with the shared Arc: no recompute, same value.
        assert_eq!(b.chunk_fingerprint(0), sealed_fp);
        a.push(99.0);
        // The mutated tail must re-fingerprint; the sealed chunk keeps
        // its memo and its value.
        assert_ne!(a.chunk_fingerprint(1), tail_fp);
        assert_eq!(a.chunk_fingerprint(0), sealed_fp);
        assert_eq!(b.chunk_fingerprint(1), tail_fp);
    }

    #[test]
    fn equal_content_fingerprints_equal() {
        let a: ChunkedVec<f64> = (0..10).map(|i| i as f64).collect();
        let b: ChunkedVec<f64> = (0..10).map(|i| i as f64).collect();
        let c: ChunkedVec<f64> = (0..10).map(|i| (i + 1) as f64).collect();
        assert_eq!(a, b);
        assert_eq!(a.chunk_fingerprint(0), b.chunk_fingerprint(0));
        assert_ne!(a, c);
        assert_ne!(a.chunk_fingerprint(0), c.chunk_fingerprint(0));
    }

    #[test]
    fn from_chunks_enforces_the_sealed_invariant() {
        assert!(ChunkedVec::from_chunks(vec![vec![1.0; CHUNK], vec![2.0; 3]]).is_some());
        assert!(ChunkedVec::from_chunks(vec![vec![1.0; 3], vec![2.0; 3]]).is_none());
        assert!(ChunkedVec::from_chunks(vec![vec![1.0; CHUNK + 1]]).is_none());
        assert!(ChunkedVec::from_chunks(vec![vec![], vec![2.0; 3]]).is_none());
        let ok = ChunkedVec::from_chunks(vec![vec![1.0; CHUNK], vec![2.0; 3]]).unwrap();
        assert_eq!(ok.len(), CHUNK + 3);
    }

    #[test]
    fn empty_vector_behaves() {
        let v: ChunkedVec<f64> = ChunkedVec::new();
        assert!(v.is_empty());
        assert_eq!(v.num_chunks(), 0);
        assert_eq!(v.get(0), None);
        assert_eq!(v.iter().count(), 0);
        let w = ChunkedVec::from_chunks(Vec::<Vec<f64>>::new()).unwrap();
        assert_eq!(v, w);
    }
}
