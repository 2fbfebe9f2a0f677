//! The `⊕` and `⊗` operators (Algorithms 5 and 6).
//!
//! * `⊕` ([`combine_disjoint`]) merges results computed on **disjoint** node
//!   sets: `D.solution_i` = the best way to pick `j` nodes from `D'` and
//!   `i − j` from `D''`. Dynamic programming, `O(k²)` (and `O(k²·k)` node
//!   copying in the worst case, bounded by solution sizes).
//!   Against a one-vertex table `{∅, {v}}` it has a closed form,
//!   `combine_vertex_in_place`, which `div-dp` / `div-cut` use for every
//!   one-vertex component instead of searching it.
//! * `⊗` ([`combine_alternative`]) merges results computed on the **same**
//!   node set under different assumptions (cut point included/excluded):
//!   pointwise best per size, `O(k)`.
//!
//! Both are commutative and associative (asserted by property tests), so
//! component/cptree results can be folded in any order (Algorithm 7 line 5,
//! Algorithm 8 lines 10–11).
//!
//! ## Zero-allocation steady state
//!
//! `div-dp`/`div-cut` invoke these operators once per component / cptree
//! branch — thousands of times per query on the paper's hard instances —
//! so the in-place forms ([`combine_disjoint_in_place`],
//! [`combine_alternative_in_place`]) are written to allocate **nothing**
//! unless an entry actually improves: operand sizes are walked through
//! [`SearchResult::iter`] (no side vectors), the best `j`-split per target
//! size is chosen by score alone, and the single persistent
//! [`NodeSet`] join/clone is deferred until the
//! winning split is known (DESIGN.md §7).
//!
//! ```
//! use divtopk_core::ops::combine_disjoint_in_place;
//! use divtopk_core::prelude::*;
//!
//! // Fold a one-node component table into an accumulator, in place.
//! let mut acc = SearchResult::empty(3);
//! acc.offer(vec![0], Score::new(9.0));
//! let mut single = SearchResult::empty(3);
//! single.offer(vec![7], Score::new(5.0));
//! combine_disjoint_in_place(&mut acc, &single);
//! assert_eq!(acc.score(2), Some(Score::new(14.0))); // {0, 7}
//! assert_eq!(acc.solution(2).unwrap().nodes(), vec![0, 7]);
//! ```

use crate::graph::NodeId;
use crate::nodeset::NodeSet;
use crate::score::Score;
use crate::solution::SearchResult;

/// `D' ⊕ D''` — Algorithm 5.
///
/// Operands must target the same `k` and stem from disjoint node sets
/// (callers combine per-component or per-subgraph results that have been
/// mapped back into a common id space).
///
/// Complexity: `O(|present(a)| · |present(b)|)` score comparisons; witness
/// unions are O(1) persistent joins. For the common fold of a large
/// accumulator against a small (often single-node) component table this is
/// `O(k)`, not `O(k²)`.
pub fn combine_disjoint(a: &SearchResult, b: &SearchResult) -> SearchResult {
    assert_eq!(a.k(), b.k(), "operands must target the same k");
    let k = a.k();
    let mut out = SearchResult::empty(k);
    for (ja, sa) in a.iter() {
        for (jb, sb) in b.iter() {
            let i = ja + jb;
            if i > k {
                break; // iter() ascends: larger jb only overshoots further.
            }
            if i == 0 {
                continue;
            }
            let score = sa.score() + sb.score();
            if score > out.score_or_zero(i) || out.solution(i).is_none() {
                out.offer_set(NodeSet::join(sa.set(), sb.set()), score);
            }
        }
    }
    out
}

/// `acc ← acc ⊕ b`, in place — the fold-optimized form of Algorithm 5.
///
/// Equivalent to `acc = combine_disjoint(&acc, &b)` (property-tested), but
/// allocates nothing when entries don't improve: the classic 0/1-knapsack
/// descending-index update. Folding thousands of small component tables
/// into one accumulator is `O(components · k · |present(b)|)` with O(1)
/// persistent-set joins — this is what keeps `div-dp`/`div-cut` viable at
/// the paper's `k = 2000` settings.
pub fn combine_disjoint_in_place(acc: &mut SearchResult, b: &SearchResult) {
    assert_eq!(acc.k(), b.k(), "operands must target the same k");
    let k = acc.k();
    if b.iter().all(|(j, _)| j == 0) {
        return;
    }
    // Descending target size: reads at `i - j` see pre-update values, so
    // exactly one entry of `b` is applied per target (Algorithm 5's j-split).
    for i in (1..=k).rev() {
        // First pass picks the winning j-split by score alone; the O(1)
        // persistent join is deferred until the winner is known, so target
        // sizes that don't improve allocate nothing.
        let mut best: Option<(Score, usize)> = None;
        for (j, sb) in b.iter() {
            if j == 0 {
                continue;
            }
            if j > i {
                break; // iter() ascends: larger j only overshoots further.
            }
            let Some(sa) = acc.solution(i - j) else {
                continue;
            };
            let score = sa.score() + sb.score();
            let improves_acc = score > acc.score_or_zero(i) || acc.solution(i).is_none();
            let improves_best = match best {
                Some((s, _)) => score > s,
                None => true,
            };
            if improves_acc && improves_best {
                best = Some((score, j));
            }
        }
        if let Some((score, j)) = best {
            let sa = acc.solution(i - j).expect("chosen above");
            let sb = b.solution(j).expect("chosen above");
            let set = NodeSet::join(sa.set(), sb.set());
            acc.replace_set(set, score);
        }
    }
}

/// `acc ← acc ⊕ {∅, {v}}`, in place — Algorithm 5 against a one-vertex
/// table, in closed form.
///
/// The same descending-`i`, strict-`>` update [`combine_disjoint_in_place`]
/// makes when `b` holds only `∅` and `{v}` (score `score`): with one
/// non-empty entry there is no split to choose, so each target size reads
/// `acc[i − 1]` once and extends its witness by `v` only when that beats
/// `acc[i]`. Equal to that call, witnesses included (property-tested), with
/// no table for `{v}` built and no remap.
pub(crate) fn combine_vertex_in_place(acc: &mut SearchResult, v: NodeId, score: Score) {
    for i in (1..=acc.k()).rev() {
        let Some(sa) = acc.solution(i - 1) else {
            continue;
        };
        let total = sa.score() + score;
        if acc.score(i).is_none_or(|s| total > s) {
            let set = NodeSet::extend(sa.set(), v);
            acc.replace_set(set, total);
        }
    }
}

/// `D' ⊗ D''` — Algorithm 6: pointwise best entry per size. `O(k)`.
pub fn combine_alternative(a: &SearchResult, b: &SearchResult) -> SearchResult {
    assert_eq!(a.k(), b.k(), "operands must target the same k");
    let k = a.k();
    let mut out = SearchResult::empty(k);
    for i in 1..=k {
        let pick = match (a.solution(i), b.solution(i)) {
            (Some(sa), Some(sb)) => Some(if sa.score() >= sb.score() { sa } else { sb }),
            (Some(sa), None) => Some(sa),
            (None, Some(sb)) => Some(sb),
            (None, None) => None,
        };
        if let Some(sol) = pick {
            out.offer_set(sol.set().clone(), sol.score());
        }
    }
    out
}

/// `acc ← acc ⊗ b`, in place — the fold-optimized form of Algorithm 6.
///
/// Equivalent to `acc = combine_alternative(&acc, &b)` (property-tested)
/// without rebuilding the table: entries of `b` that don't beat `acc`'s are
/// skipped outright, and winning entries are adopted by an O(1) persistent
/// clone. `cp-search` folds the per-branch tables of every cptree child
/// through this, so the `⊗` chain allocates nothing in steady state.
pub fn combine_alternative_in_place(acc: &mut SearchResult, b: &SearchResult) {
    assert_eq!(acc.k(), b.k(), "operands must target the same k");
    for (i, sb) in b.iter() {
        if i == 0 {
            continue;
        }
        if acc.score(i).is_none_or(|s| sb.score() > s) {
            acc.offer_set(sb.set().clone(), sb.score());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::Score;

    fn s(v: u32) -> Score {
        Score::from(v)
    }

    /// Builds a result table from (nodes, score) pairs.
    fn table(k: usize, entries: &[(&[u32], u32)]) -> SearchResult {
        let mut r = SearchResult::empty(k);
        for (nodes, score) in entries {
            r.offer(nodes.to_vec(), s(*score));
        }
        r
    }

    #[test]
    fn plus_merges_disjoint_sizes() {
        // Mirrors Example 3 / Fig. 7 in spirit: G1 entries sizes 1..2,
        // G2 entries sizes 1..3.
        let d1 = table(5, &[(&[0], 10), (&[0, 1], 18), (&[2, 3, 4], 20)]);
        let d2 = table(5, &[(&[10], 10), (&[10, 11], 18), (&[11, 12, 13], 22)]);
        let d = combine_disjoint(&d1, &d2);
        assert_eq!(d.score(1), Some(s(10)));
        assert_eq!(d.score(2), Some(s(20))); // 10 + 10
        assert_eq!(d.score(3), Some(s(28))); // 10 + 18 or 18 + 10
        assert_eq!(d.score(4), Some(s(36))); // 18 + 18
        assert_eq!(d.score(5), Some(s(40))); // 18 + 22
        assert_eq!(d.solution(5).unwrap().nodes(), &[0, 1, 11, 12, 13]);
        d.assert_well_formed(None);
    }

    #[test]
    fn plus_respects_missing_entries() {
        // d2 has no size-1 entry: size-3 combinations must not use it.
        let d1 = table(3, &[(&[0], 5), (&[0, 1], 8)]);
        let d2 = table(3, &[(&[7, 8], 9)]);
        let d = combine_disjoint(&d1, &d2);
        assert_eq!(d.score(1), Some(s(5)));
        assert_eq!(d.score(2), Some(s(9))); // {7,8} beats {0,1}=8
        assert_eq!(d.score(3), Some(s(14))); // {0} + {7,8}
        assert_eq!(d.solution(3).unwrap().nodes(), &[0, 7, 8]);
    }

    #[test]
    fn plus_with_empty_is_identity() {
        let d1 = table(4, &[(&[0], 5), (&[0, 1], 8)]);
        let id = SearchResult::empty(4);
        assert_eq!(combine_disjoint(&d1, &id), d1);
        assert_eq!(combine_disjoint(&id, &d1), d1);
    }

    #[test]
    fn otimes_pointwise_best() {
        let d1 = table(3, &[(&[0], 5), (&[0, 1], 8)]);
        let d2 = table(3, &[(&[2], 7), (&[2, 3, 4], 12)]);
        let d = combine_alternative(&d1, &d2);
        assert_eq!(d.solution(1).unwrap().nodes(), &[2]);
        assert_eq!(d.solution(2).unwrap().nodes(), &[0, 1]);
        assert_eq!(d.solution(3).unwrap().nodes(), &[2, 3, 4]);
        d.assert_well_formed(None);
    }

    #[test]
    fn otimes_with_empty_is_identity() {
        let d1 = table(3, &[(&[0], 5)]);
        let id = SearchResult::empty(3);
        assert_eq!(combine_alternative(&d1, &id), d1);
        assert_eq!(combine_alternative(&id, &d1), d1);
    }

    #[test]
    #[should_panic(expected = "same k")]
    fn mismatched_k_panics() {
        let _ = combine_disjoint(&SearchResult::empty(2), &SearchResult::empty(3));
    }

    #[test]
    fn in_place_matches_functional() {
        use crate::rng::Pcg;
        // Random tables over disjoint id ranges; in-place fold must equal
        // the functional fold entry-for-entry.
        for seed in 0..200 {
            let mut rng = Pcg::new(seed);
            let k = 1 + rng.below(8) as usize;
            let make = |rng: &mut Pcg, base: u32, k: usize| {
                let mut t = SearchResult::empty(k);
                let mut nodes = Vec::new();
                let mut score = Score::ZERO;
                for i in 0..k {
                    nodes.push(base + i as u32);
                    score += Score::from(rng.range(1, 100));
                    if rng.chance(0.6) {
                        t.offer(nodes.clone(), score);
                    }
                }
                t
            };
            let a = make(&mut rng, 0, k);
            let b = make(&mut rng, 1000, k);
            let functional = combine_disjoint(&a, &b);
            let mut in_place = a.clone();
            combine_disjoint_in_place(&mut in_place, &b);
            for i in 0..=k {
                assert_eq!(
                    in_place.score(i),
                    functional.score(i),
                    "seed {seed} size {i}"
                );
            }
            in_place.assert_well_formed(None);
        }
    }

    #[test]
    fn vertex_fold_is_plus_with_a_one_vertex_table() {
        use crate::rng::Pcg;
        // Accumulators with holes and scores from {0, 1, 2} per node, so
        // most target sizes see a tie between keeping `acc[i]` and
        // extending `acc[i − 1]`: the whole tables, witnesses included,
        // must agree.
        for seed in 0..500 {
            let mut rng = Pcg::new(7_000 + seed);
            let k = 1 + rng.below(8) as usize;
            let mut acc = SearchResult::empty(k);
            for i in 1..=k {
                if rng.chance(0.7) {
                    let base = 10 * i as u32;
                    let nodes: Vec<u32> = (0..i as u32).map(|j| base + j).collect();
                    let score = (0..i).map(|_| Score::from(rng.below(3))).sum();
                    acc.offer(nodes, score);
                }
            }
            let v = 1000 + rng.below(5);
            let score = Score::from(rng.below(4));
            let mut single = SearchResult::empty(k);
            single.offer(vec![v], score);
            let mut want = acc.clone();
            combine_disjoint_in_place(&mut want, &single);
            let mut got = acc;
            combine_vertex_in_place(&mut got, v, score);
            assert_eq!(got, want, "seed {seed}");
            got.assert_well_formed(None);
        }
    }

    #[test]
    fn in_place_with_empty_is_noop() {
        let a = table(4, &[(&[0], 5), (&[0, 1], 8)]);
        let mut acc = a.clone();
        combine_disjoint_in_place(&mut acc, &SearchResult::empty(4));
        assert_eq!(acc, a);
    }

    #[test]
    fn alternative_in_place_matches_functional() {
        use crate::rng::Pcg;
        for seed in 0..100 {
            let mut rng = Pcg::new(900 + seed);
            let k = 1 + rng.below(7) as usize;
            let make = |rng: &mut Pcg, base: u32, k: usize| {
                let mut t = SearchResult::empty(k);
                let mut nodes = Vec::new();
                let mut score = Score::ZERO;
                for i in 0..k {
                    nodes.push(base + i as u32);
                    score += Score::from(rng.range(1, 100));
                    if rng.chance(0.5) {
                        t.offer(nodes.clone(), score);
                    }
                }
                t
            };
            let a = make(&mut rng, 0, k);
            let b = make(&mut rng, 0, k);
            let functional = combine_alternative(&a, &b);
            let mut in_place = a.clone();
            combine_alternative_in_place(&mut in_place, &b);
            assert_eq!(in_place, functional, "seed {seed}");
        }
    }

    #[test]
    fn alternative_in_place_prefers_acc_on_ties() {
        let a = table(2, &[(&[0], 5)]);
        let b = table(2, &[(&[9], 5)]);
        let mut acc = a.clone();
        combine_alternative_in_place(&mut acc, &b);
        assert_eq!(acc.solution(1).unwrap().nodes(), vec![0]);
    }
}
