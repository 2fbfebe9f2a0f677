//! Node sets, in the two representations the engine needs.
//!
//! * [`NodeSet`] — **persistent** sets with O(1) clone, union, extend and
//!   remap. The `⊕` operator folds per-size tables across (potentially
//!   thousands of) components; materializing every intermediate solution as
//!   a flat `Vec<NodeId>` costs `O(k²)` bytes *per fold step* and was
//!   measured to dominate both time and memory at the paper's large-`k`
//!   settings (k = 2000). Witness solutions are only ever *read* at the
//!   very end of a search, so intermediates are represented structurally —
//!   a DAG of joins, extensions and lazy id-remaps over shared subtrees —
//!   and flattened once on demand. This is what keeps `div-cut`'s memory
//!   near-flat while `div-dp`'s per-size tables still blow up the A\* heap
//!   (matching the paper's Fig. 13(d)).
//! * [`DenseNodeSet`] — a **dense u64-word bitset** over one graph's
//!   `0..n` id space, for the hot paths where sets are *queried* rather
//!   than composed: Lemma 7 dominance checks, alive sets, and (via the
//!   shared word layout) `div-astar`'s internal exclusion buffers. Union,
//!   intersection and disjointness are `O(n / 64)` word operations, and
//!   "is candidate `v` compatible with partial solution `S`" collapses to
//!   a single AND-any test against the graph's adjacency bitmap row (see
//!   [`DiversityGraph::adjacency_row`] and DESIGN.md §7). Both
//!   representations agree on the set semantics (property-tested in
//!   `tests/properties.rs`).
//!
//! ```
//! use divtopk_core::nodeset::{DenseNodeSet, NodeSet};
//!
//! // The same set built both ways reads back identically.
//! let persistent = NodeSet::extend(&NodeSet::from_vec(vec![3, 70]), 64);
//! let mut dense = DenseNodeSet::new(128);
//! for v in [3, 70, 64] {
//!     dense.insert(v);
//! }
//! assert_eq!(persistent.to_sorted_vec(), dense.to_sorted_vec());
//! assert_eq!(persistent.len(), dense.len());
//!
//! // Word-level set algebra: union and disjointness are O(n / 64).
//! let other = DenseNodeSet::from_nodes(128, [5, 64]);
//! assert!(!dense.is_disjoint(&other)); // both contain 64
//! dense.union_with(&other);
//! assert_eq!(dense.to_sorted_vec(), vec![3, 5, 64, 70]);
//! ```
//!
//! [`DiversityGraph::adjacency_row`]: crate::graph::DiversityGraph::adjacency_row

use crate::graph::NodeId;
use std::rc::Rc;

/// A dense bitset over the node-id universe `0..capacity` of one graph.
///
/// One bit per node, packed into `u64` words, little-endian within a word
/// (node `v` lives at bit `v % 64` of word `v / 64` — the same layout as
/// [`DiversityGraph`](crate::graph::DiversityGraph)'s adjacency bitmap
/// rows, so sets and rows combine with plain word ops). The set tracks its
/// cardinality, so [`len`](DenseNodeSet::len) is O(1).
///
/// Unlike [`NodeSet`] this representation is mutable and bounded: it is
/// meant to be allocated once per search and reused
/// ([`clear`](DenseNodeSet::clear) is a memset, not a free), which is what
/// makes the
/// `div-astar` expansion loop allocation-free in steady state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseNodeSet {
    words: Vec<u64>,
    len: u32,
}

impl DenseNodeSet {
    /// An empty set over the universe `0..capacity`.
    pub fn new(capacity: usize) -> DenseNodeSet {
        DenseNodeSet {
            words: vec![0; capacity.div_ceil(64)],
            len: 0,
        }
    }

    /// Builds a set over `0..capacity` from distinct node ids.
    pub fn from_nodes(capacity: usize, nodes: impl IntoIterator<Item = NodeId>) -> DenseNodeSet {
        let mut set = DenseNodeSet::new(capacity);
        for v in nodes {
            set.insert(v);
        }
        set
    }

    /// Number of ids the universe can hold (a multiple of 64).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.words.len() * 64
    }

    /// Number of members — O(1).
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True for the empty set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True iff `v` is a member.
    ///
    /// # Panics
    /// Panics if `v` is outside the universe.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        self.words[(v / 64) as usize] & (1u64 << (v % 64)) != 0
    }

    /// Adds `v`; returns true if it was absent.
    ///
    /// # Panics
    /// Panics if `v` is outside the universe.
    #[inline]
    pub fn insert(&mut self, v: NodeId) -> bool {
        let word = &mut self.words[(v / 64) as usize];
        let bit = 1u64 << (v % 64);
        let fresh = *word & bit == 0;
        *word |= bit;
        // Deliberately a branch, not `len += fresh as u32`: rustc 1.95.0
        // (LLVM, opt-level ≥ 2) miscompiles the branchless form when this
        // method is inlined into a larger loop — the increment is dropped
        // and `len` goes stale (caught by `tests/properties.rs::
        // dense_and_persistent_nodesets_agree` in release builds).
        if fresh {
            self.len += 1;
        }
        fresh
    }

    /// Removes `v`; returns true if it was present.
    ///
    /// # Panics
    /// Panics if `v` is outside the universe.
    #[inline]
    pub fn remove(&mut self, v: NodeId) -> bool {
        let word = &mut self.words[(v / 64) as usize];
        let bit = 1u64 << (v % 64);
        let present = *word & bit != 0;
        *word &= !bit;
        // Branch on purpose — see `insert` for the rustc 1.95.0 codegen
        // bug the branchless `len -= present as u32` form runs into.
        if present {
            self.len -= 1;
        }
        present
    }

    /// Empties the set in place — a memset, no deallocation.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// `self ← self ∪ other` — O(words).
    ///
    /// # Panics
    /// Panics if the universes differ in word count.
    pub fn union_with(&mut self, other: &DenseNodeSet) {
        self.union_with_row(&other.words);
    }

    /// `self ← self ∪ row`, where `row` is a raw word slice in the same
    /// layout (e.g. an adjacency bitmap row) — O(words).
    ///
    /// # Panics
    /// Panics if `row` has a different word count.
    pub fn union_with_row(&mut self, row: &[u64]) {
        assert_eq!(self.words.len(), row.len(), "universe mismatch");
        let mut count = 0u32;
        for (w, &r) in self.words.iter_mut().zip(row) {
            *w |= r;
            count += w.count_ones();
        }
        self.len = count;
    }

    /// True iff `self ∩ other = ∅` — O(words), early exit.
    ///
    /// # Panics
    /// Panics if the universes differ in word count.
    pub fn is_disjoint(&self, other: &DenseNodeSet) -> bool {
        !self.intersects_row(&other.words)
    }

    /// True iff the set shares any member with the raw word slice `row` —
    /// the single AND-any test `div-astar` uses for independence checks.
    ///
    /// # Panics
    /// Panics if `row` has a different word count.
    pub fn intersects_row(&self, row: &[u64]) -> bool {
        assert_eq!(self.words.len(), row.len(), "universe mismatch");
        self.words.iter().zip(row).any(|(&a, &b)| a & b != 0)
    }

    /// The raw words, for combining with adjacency bitmap rows.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterates members ascending (trailing-zeros word scan).
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = rest.trailing_zeros();
                rest &= rest - 1;
                Some(wi as NodeId * 64 + bit)
            })
        })
    }

    /// Materializes the members, sorted ascending.
    pub fn to_sorted_vec(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.len());
        out.extend(self.iter());
        out
    }
}

impl FromIterator<NodeId> for DenseNodeSet {
    /// Collects ids into a set sized to the largest id seen.
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> DenseNodeSet {
        let nodes: Vec<NodeId> = iter.into_iter().collect();
        let capacity = nodes.iter().map(|&v| v as usize + 1).max().unwrap_or(0);
        DenseNodeSet::from_nodes(capacity, nodes)
    }
}

/// An immutable set of node ids with O(1) structural composition.
#[derive(Debug, Clone)]
pub struct NodeSet {
    repr: Rc<Repr>,
    len: u32,
}

#[derive(Debug)]
enum Repr {
    Empty,
    /// A materialized set.
    Flat(Vec<NodeId>),
    /// Disjoint union of two sets.
    Join(NodeSet, NodeSet),
    /// One additional node.
    Extend(NodeSet, NodeId),
    /// Every leaf id `x` below reads as `map[x]`.
    Mapped(NodeSet, Rc<Vec<NodeId>>),
}

/// A persistent chain of pending id-remaps during traversal.
struct MapChain {
    map: Rc<Vec<NodeId>>,
    next: Option<Rc<MapChain>>,
}

fn apply_maps(mut chain: Option<&Rc<MapChain>>, mut x: NodeId) -> NodeId {
    while let Some(link) = chain {
        x = link.map[x as usize];
        chain = link.next.as_ref();
    }
    x
}

impl NodeSet {
    /// The empty set.
    pub fn empty() -> NodeSet {
        NodeSet {
            repr: Rc::new(Repr::Empty),
            len: 0,
        }
    }

    /// A materialized set (ids need not be sorted; must be distinct).
    pub fn from_vec(nodes: Vec<NodeId>) -> NodeSet {
        let len = nodes.len() as u32;
        if len == 0 {
            return NodeSet::empty();
        }
        NodeSet {
            repr: Rc::new(Repr::Flat(nodes)),
            len,
        }
    }

    /// Disjoint union — O(1). The caller guarantees disjointness
    /// (components / subtree territories never share nodes).
    pub fn join(a: &NodeSet, b: &NodeSet) -> NodeSet {
        if a.len == 0 {
            return b.clone();
        }
        if b.len == 0 {
            return a.clone();
        }
        NodeSet {
            len: a.len + b.len,
            repr: Rc::new(Repr::Join(a.clone(), b.clone())),
        }
    }

    /// Adds one node — O(1). The caller guarantees `v` is absent.
    pub fn extend(a: &NodeSet, v: NodeId) -> NodeSet {
        NodeSet {
            len: a.len + 1,
            repr: Rc::new(Repr::Extend(a.clone(), v)),
        }
    }

    /// Lazily remaps every member `x` to `map[x]` — O(1).
    pub fn mapped(a: &NodeSet, map: Rc<Vec<NodeId>>) -> NodeSet {
        if a.len == 0 {
            return NodeSet::empty();
        }
        NodeSet {
            len: a.len,
            repr: Rc::new(Repr::Mapped(a.clone(), map)),
        }
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True for the empty set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Materializes the members, sorted ascending. Iterative traversal —
    /// join chains can be thousands deep.
    pub fn to_sorted_vec(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.len());
        let mut stack: Vec<(&NodeSet, Option<Rc<MapChain>>)> = vec![(self, None)];
        while let Some((set, chain)) = stack.pop() {
            match &*set.repr {
                Repr::Empty => {}
                Repr::Flat(v) => {
                    out.extend(v.iter().map(|&x| apply_maps(chain.as_ref(), x)));
                }
                Repr::Extend(a, v) => {
                    out.push(apply_maps(chain.as_ref(), *v));
                    stack.push((a, chain));
                }
                Repr::Join(a, b) => {
                    stack.push((a, chain.clone()));
                    stack.push((b, chain));
                }
                Repr::Mapped(a, map) => {
                    stack.push((
                        a,
                        Some(Rc::new(MapChain {
                            map: map.clone(),
                            next: chain,
                        })),
                    ));
                }
            }
        }
        out.sort_unstable();
        out
    }
}

impl PartialEq for NodeSet {
    /// Semantic equality: same members.
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.to_sorted_vec() == other.to_sorted_vec()
    }
}
impl Eq for NodeSet {}

thread_local! {
    /// Shared empty representation used to neuter nodes during teardown.
    static EMPTY_REPR: Rc<Repr> = Rc::new(Repr::Empty);
}

fn empty_repr() -> Rc<Repr> {
    EMPTY_REPR.with(Rc::clone)
}

impl Drop for NodeSet {
    /// Iterative teardown: join chains can be tens of thousands of links
    /// deep, and the default recursive `Rc` drop would overflow the stack.
    fn drop(&mut self) {
        if Rc::strong_count(&self.repr) != 1 {
            return; // shared: the field drop just decrements the count.
        }
        if matches!(&*self.repr, Repr::Empty | Repr::Flat(_)) {
            return; // shallow already.
        }
        let mut stack: Vec<Rc<Repr>> = vec![std::mem::replace(&mut self.repr, empty_repr())];
        while let Some(rc) = stack.pop() {
            if let Ok(mut repr) = Rc::try_unwrap(rc) {
                match &mut repr {
                    Repr::Join(a, b) => {
                        stack.push(std::mem::replace(&mut a.repr, empty_repr()));
                        stack.push(std::mem::replace(&mut b.repr, empty_repr()));
                    }
                    Repr::Extend(a, _) | Repr::Mapped(a, _) => {
                        stack.push(std::mem::replace(&mut a.repr, empty_repr()));
                    }
                    Repr::Empty | Repr::Flat(_) => {}
                }
                // `repr` now drops shallowly: children were detached above.
            }
        }
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> NodeSet {
        NodeSet::from_vec(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_flat() {
        assert!(NodeSet::empty().is_empty());
        let s = NodeSet::from_vec(vec![3, 1, 2]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.to_sorted_vec(), vec![1, 2, 3]);
    }

    #[test]
    fn join_and_extend() {
        let a = NodeSet::from_vec(vec![5, 1]);
        let b = NodeSet::from_vec(vec![9]);
        let j = NodeSet::join(&a, &b);
        assert_eq!(j.to_sorted_vec(), vec![1, 5, 9]);
        let e = NodeSet::extend(&j, 7);
        assert_eq!(e.len(), 4);
        assert_eq!(e.to_sorted_vec(), vec![1, 5, 7, 9]);
        // Originals are untouched (persistence).
        assert_eq!(a.to_sorted_vec(), vec![1, 5]);
    }

    #[test]
    fn join_with_empty_is_identity_sharing() {
        let a = NodeSet::from_vec(vec![2, 4]);
        let j = NodeSet::join(&a, &NodeSet::empty());
        assert_eq!(j.to_sorted_vec(), a.to_sorted_vec());
    }

    #[test]
    fn mapped_applies_lazily_and_composes() {
        let a = NodeSet::from_vec(vec![0, 2]);
        let m1 = Rc::new(vec![10, 11, 12]); // 0→10, 2→12
        let s1 = NodeSet::mapped(&a, m1);
        assert_eq!(s1.to_sorted_vec(), vec![10, 12]);
        // Second remap over the first.
        let mut m2 = vec![0u32; 20];
        m2[10] = 100;
        m2[12] = 120;
        let s2 = NodeSet::mapped(&s1, Rc::new(m2));
        assert_eq!(s2.to_sorted_vec(), vec![100, 120]);
    }

    #[test]
    fn map_only_affects_wrapped_subtree() {
        let inner = NodeSet::from_vec(vec![0, 1]);
        let mapped = NodeSet::mapped(&inner, Rc::new(vec![7, 8]));
        let outer = NodeSet::join(&mapped, &NodeSet::from_vec(vec![0]));
        // The bare leaf 0 from the right side is NOT remapped.
        assert_eq!(outer.to_sorted_vec(), vec![0, 7, 8]);
    }

    #[test]
    fn deep_join_chain_does_not_overflow() {
        let mut acc = NodeSet::empty();
        for i in 0..50_000u32 {
            acc = NodeSet::join(&acc, &NodeSet::from_vec(vec![i]));
        }
        assert_eq!(acc.len(), 50_000);
        let v = acc.to_sorted_vec();
        assert_eq!(v.len(), 50_000);
        assert_eq!(v[0], 0);
        assert_eq!(v[49_999], 49_999);
    }

    #[test]
    fn semantic_equality() {
        let a = NodeSet::from_vec(vec![1, 2, 3]);
        let b = NodeSet::join(&NodeSet::from_vec(vec![3, 1]), &NodeSet::from_vec(vec![2]));
        assert_eq!(a, b);
        assert_ne!(a, NodeSet::from_vec(vec![1, 2]));
    }

    #[test]
    fn dense_insert_remove_contains() {
        let mut s = DenseNodeSet::new(130);
        assert!(s.is_empty());
        assert_eq!(s.capacity(), 192); // rounded up to whole words
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(129)); // already present
        assert_eq!(s.len(), 2);
        assert!(s.contains(0) && s.contains(129) && !s.contains(64));
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert_eq!(s.to_sorted_vec(), vec![129]);
    }

    #[test]
    fn dense_union_and_disjointness() {
        let mut a = DenseNodeSet::from_nodes(200, [1, 63, 64, 199]);
        let b = DenseNodeSet::from_nodes(200, [2, 64, 128]);
        assert!(!a.is_disjoint(&b)); // share 64
        let c = DenseNodeSet::from_nodes(200, [3, 65]);
        assert!(a.is_disjoint(&c));
        a.union_with(&b);
        assert_eq!(a.to_sorted_vec(), vec![1, 2, 63, 64, 128, 199]);
        assert_eq!(a.len(), 6); // cardinality recounted across words
    }

    #[test]
    fn dense_row_ops_match_set_ops() {
        let mut a = DenseNodeSet::from_nodes(128, [0, 70]);
        let row = DenseNodeSet::from_nodes(128, [70, 127]);
        assert!(a.intersects_row(row.words()));
        a.union_with_row(row.words());
        assert_eq!(a.to_sorted_vec(), vec![0, 70, 127]);
        let empty_row = DenseNodeSet::new(128);
        assert!(!empty_row.intersects_row(a.words()));
    }

    #[test]
    fn dense_clear_reuses_allocation() {
        let mut s = DenseNodeSet::from_nodes(96, [5, 95]);
        let cap = s.capacity();
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.capacity(), cap);
        assert!(!s.contains(5));
    }

    #[test]
    fn dense_from_iterator_sizes_to_max_id() {
        let s: DenseNodeSet = [7u32, 300, 7].into_iter().collect();
        assert_eq!(s.len(), 2);
        assert!(s.capacity() >= 301);
        assert_eq!(s.to_sorted_vec(), vec![7, 300]);
    }

    #[test]
    #[should_panic]
    fn dense_mismatched_universe_panics() {
        let mut a = DenseNodeSet::new(64);
        let b = DenseNodeSet::new(128);
        a.union_with(&b);
    }
}
