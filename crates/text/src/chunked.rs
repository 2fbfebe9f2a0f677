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
//! once sealed and incremental snapshots (DESIGN.md §14) can skip it.
//!
//! Each chunk remembers the snapshot file it was last written as or
//! loaded from (`ChunkedVec::chunk_file`): a [`OnceLock`] shared through
//! the `Arc`, so the memo survives COW clones of the vector, and cleared
//! by [`ChunkedVec::push`] whenever the chunk's items change.

use crate::persist::FileStamp;
use std::sync::{Arc, OnceLock};

/// Items per chunk. A power of two so indexing is a shift and a mask;
/// 1024 documents ≈ tens of KiB per chunk file, large enough that the
/// manifest stays small and small enough that the rewritten tail is
/// cheap.
pub const CHUNK: usize = 1024;
const CHUNK_SHIFT: u32 = CHUNK.trailing_zeros();
const CHUNK_MASK: usize = CHUNK - 1;

/// One fixed-size run of items plus the snapshot file that holds them.
#[derive(Debug, Clone)]
struct Chunk<T> {
    items: Vec<T>,
    /// See [`ChunkedVec::chunk_file`].
    file: OnceLock<FileStamp>,
}

impl<T> Chunk<T> {
    fn new(items: Vec<T>) -> Self {
        Chunk {
            items,
            file: OnceLock::new(),
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

    /// The snapshot file chunk `i` was last durably written as, or
    /// loaded from, once the snapshot layer has set it — empty while the
    /// items differ from every file this process wrote or read.
    pub(crate) fn chunk_file(&self, i: usize) -> &OnceLock<FileStamp> {
        &self.chunks[i].file
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
            self.chunks
                .push(Arc::new(Chunk::new(Vec::with_capacity(CHUNK))));
        }
        // The tail exists by construction; `make_mut` deep-copies it
        // only when another clone still shares it (O(CHUNK) worst case),
        // and that clone keeps its file memo. These items change, so
        // this chunk's memo goes.
        let idx = self.chunks.len() - 1;
        let tail = Arc::make_mut(&mut self.chunks[idx]);
        tail.items.push(value);
        tail.file.take();
        self.len += 1;
    }

    /// Rebuilds from parsed chunks, enforcing the all-but-last-sealed
    /// invariant. Used by the snapshot loader, which then records each
    /// chunk's file ([`ChunkedVec::chunk_file`]).
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
                .map(|items| Arc::new(Chunk::new(items)))
                .collect(),
            len,
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
    fn a_push_clears_the_file_memo_of_the_chunk_it_changes() {
        let stamp = (7, 0xDEAD_BEEF);
        let mut a: ChunkedVec<f64> = (0..(CHUNK + 1)).map(|i| i as f64).collect();
        a.chunk_file(0).set(stamp).unwrap();
        a.chunk_file(1).set(stamp).unwrap();
        // An unshared tail is mutated in place: the push clears its memo.
        assert_eq!(Arc::strong_count(&a.chunks[1]), 1);
        a.push(1.0);
        assert_eq!(a.chunk_file(1).get(), None);
        // A shared tail is copied first: the copy's memo is cleared, the
        // clone that still holds the old items keeps its own.
        a.chunk_file(1).set(stamp).unwrap();
        let b = a.clone();
        a.push(2.0);
        assert!(!Arc::ptr_eq(&a.chunks[1], &b.chunks[1]));
        assert_eq!(a.chunk_file(1).get(), None);
        assert_eq!(b.chunk_file(1).get(), Some(&stamp));
        // A sealed chunk never changes: both clones keep its memo.
        assert!(Arc::ptr_eq(&a.chunks[0], &b.chunks[0]));
        assert_eq!(a.chunk_file(0).get(), Some(&stamp));
        assert_eq!(b.chunk_file(0).get(), Some(&stamp));
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
