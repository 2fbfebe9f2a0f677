//! Weighted (generalized) Jaccard similarity over term multisets
//! (Eq. 4 of the paper):
//!
//! ```text
//! sim(d1, d2) = Σ_{w ∈ d1 ∩ d2} idf(w) / Σ_{w ∈ d1 ∪ d2} idf(w)
//! ```
//!
//! where `∩`/`∪` are **multiset** intersection/union — i.e. each term `w`
//! contributes `idf(w) · min(c1, c2)` to the numerator and
//! `idf(w) · max(c1, c2)` to the denominator.
//!
//! Beside the value ([`weighted_jaccard`], [`weighted_jaccard_with`]) the
//! module holds what lets a search stop computing it (DESIGN.md §4.2),
//! all exact by construction. [`weighted_jaccard_above`] is the value
//! *only if it exceeds a floor*, through a merge that stops once the pair
//! can no longer reach the floor: `mmr` and `knn` ask it with what a
//! candidate already holds, and [`similar_above`], the predicate
//! `sim > τ` every predicate mode calls, is the same function with the
//! value dropped. [`ThresholdPredicate`] is that predicate as the
//! [`Similarity`] the exact framework, `window` and `disc` test pairs
//! with, and rejects most pairs before any merge with a per-request
//! bucket sketch that bounds their shared weight from above.
//! All of them run one merge loop, whose step is branch-free.

use crate::corpus::Corpus;
use crate::document::{DocId, Document, TermId};
use crate::search::WeightTable;
use divtopk_core::fxhash::FxHashMap;
use divtopk_core::sim::Similarity;
use std::cell::RefCell;

/// Eq. 4 over two document signatures using the corpus IDF table.
/// Returns a value in `[0, 1]`; two empty (or all-zero-IDF) documents get 0.
pub fn weighted_jaccard(corpus: &Corpus, d1: &Document, d2: &Document) -> f64 {
    weighted_jaccard_with(corpus.idf_table(), d1, d2)
}

/// Total IDF weight of a document: `W(d) = Σ_w idf(w)·count(w)`.
///
/// Upper-bound lemma used by [`similar_above`]:
/// `sim(d1, d2) ≤ min(W1, W2) / max(W1, W2)` because the multiset
/// intersection weighs at most `min(W1, W2)` and the union at least
/// `max(W1, W2)`.
pub fn total_weight(idf: &[f64], d: &Document) -> f64 {
    d.terms
        .iter()
        .map(|&(t, c)| idf[t as usize] * c as f64)
        .sum()
}

/// `sim(d1, d2) > τ`, decided without finishing the merge when it can be:
/// [`weighted_jaccard_above`] with `τ` as the floor, the value dropped.
/// `w1`/`w2` are the documents' [`total_weight`] values.
pub fn similar_above(
    idf: &[f64],
    d1: &Document,
    w1: f64,
    d2: &Document,
    w2: f64,
    tau: f64,
) -> bool {
    weighted_jaccard_above(idf, d1, w1, d2, w2, tau).is_some()
}

/// The value only as far as it can matter: `Some(sim(d1, d2))` iff
/// `sim > floor`, without finishing the merge when the answer is `None`.
/// The value is [`weighted_jaccard_with`]'s bit for bit; a negative floor
/// asks unconditionally (`Some` for every pair). `w1`/`w2` are the
/// documents' [`total_weight`] values.
///
/// Two rejections precede the exact answer, neither of which can change
/// it. First the O(1) weight-ratio test of [`total_weight`]. Then a
/// budget on the merge itself: with `S = w1 + w2 = union + inter`,
///
/// ```text
/// sim > f  ⟺  inter > f·union  ⟺  union − inter < S·(1 − f)/(1 + f)
/// ```
///
/// and `union − inter` — the weight of the symmetric difference — never
/// decreases along the merge, so the pair is rejected as soon as the
/// running difference passes that budget plus `1e-9·S`. The guard band
/// is relative to `S`, not to the budget: the rounding error of the two
/// accumulators is a few hundred ulps *of `S`* (≈ 3·10⁻¹⁴·S) whatever
/// the floor, while the budget itself vanishes as `f → 1` — and the
/// floor is data here (a candidate's `max_sim` among near-identical
/// documents), not a client's constant. The band is some 10⁴ times that
/// error for every floor in `[0, 1]`, so a pair anywhere near the floor
/// (one *at* it included) always reaches the end of the merge, where the
/// same two accumulators, filled in the same order as
/// [`weighted_jaccard_with`] fills them, are compared by the same
/// expression: the verdict is that function's `> floor`, bit for bit.
pub fn weighted_jaccard_above(
    idf: &[f64],
    d1: &Document,
    w1: f64,
    d2: &Document,
    w2: f64,
    floor: f64,
) -> Option<f64> {
    if floor < 0.0 {
        return Some(weighted_jaccard_with(idf, d1, d2));
    }
    let (lo, hi) = if w1 <= w2 { (w1, w2) } else { (w2, w1) };
    if hi <= 0.0 || lo / hi <= floor {
        return None;
    }
    let total = w1 + w2;
    let budget = total * (1.0 - floor) / (1.0 + floor) + 1e-9 * total;
    let (inter, union) = merge::<true>(idf, d1, d2, budget)?;
    let sim = ratio(inter, union);
    (sim > floor).then_some(sim)
}

/// Eq. 4 with an explicit per-term weight table.
pub fn weighted_jaccard_with(idf: &[f64], d1: &Document, d2: &Document) -> f64 {
    let (inter, union) = merge::<false>(idf, d1, d2, f64::INFINITY).expect("no budget to exceed");
    ratio(inter, union)
}

#[inline]
fn ratio(inter: f64, union: f64) -> f64 {
    if union <= 0.0 { 0.0 } else { inter / union }
}

/// The sorted merge behind Eq. 4: the weights of the multiset
/// intersection and union. With `BUDGETED`, gives up (`None`) once
/// `union − inter` exceeds `budget`; the accumulators are the same either
/// way.
///
/// Which side advances is data, not a branch: with `le = (ta ≤ tb)` and
/// `ge = (tb ≤ ta)` as integers the step weighs term `min(ta, tb)`, adds
/// `max(ca, cb)` of it to the union and `min(ca, cb)` to the intersection
/// when both hold and the advancing side's count to the union alone when
/// one does, then moves `i` by `le` and `j` by `ge`. The products that
/// reach the two accumulators, and their order, are those of a three-way
/// `match` on `ta.cmp(&tb)` (`x + 0.0` is `x` on a non-negative sum), so
/// every value is that merge's bit for bit — `tests::merge_by_match` is
/// that merge, kept as the reference — while the comparison of two
/// interleaved sorted lists, which a predictor gets wrong every other
/// step, costs no misprediction.
#[inline(always)]
fn merge<const BUDGETED: bool>(
    idf: &[f64],
    d1: &Document,
    d2: &Document,
    budget: f64,
) -> Option<(f64, f64)> {
    let mut inter = 0.0f64;
    let mut union = 0.0f64;
    let (a, b) = (&d1.terms, &d2.terms);
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (ta, ca) = a[i];
        let (tb, cb) = b[j];
        let (le, ge) = ((ta <= tb) as u32, (tb <= ta) as u32);
        let w = idf[ta.min(tb) as usize];
        let in_union = (le * ca + (1 - le) * cb).max(le * ge * cb);
        let in_inter = le * ge * ca.min(cb);
        inter += w * in_inter as f64;
        union += w * in_union as f64;
        i += le as usize;
        j += ge as usize;
        if BUDGETED && union - inter > budget {
            return None;
        }
    }
    for &(t, c) in &a[i..] {
        union += idf[t as usize] * c as f64;
    }
    for &(t, c) in &b[j..] {
        union += idf[t as usize] * c as f64;
    }
    Some((inter, union))
}

/// Buckets of a sketch row (a power of two). Of the 130 397 predicate
/// pairs of one `neardup_modes` epoch that pass the weight-ratio test,
/// 16 / 32 / 64 / 128 / 256 buckets reject 13 / 34 / 62 / 86 / 90 %
/// before any merge: 256 would double the row (1 KiB) and the bound's
/// loop for four points more.
const B: usize = 128;

/// A term's sketch bucket: the top 7 bits of a multiplicative hash of its
/// id, so neighbouring ids (a synthetic vocabulary's) spread out.
#[inline]
fn bucket(t: TermId) -> usize {
    (u64::from(t).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - B.ilog2())) as usize
}

/// `Σ_b min(a_b, b_b)` over two sketch rows. Eight running lanes let the
/// loop vectorise; the order of the sum is free (DESIGN.md §4.2).
#[inline]
fn sum_of_minima(a: &[f64], b: &[f64]) -> f64 {
    let mut lanes = [0.0f64; 8];
    for (a, b) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        for ((lane, &x), &y) in lanes.iter_mut().zip(a).zip(b) {
            *lane += if x < y { x } else { y };
        }
    }
    lanes.iter().sum()
}

/// The bucket sketches of the documents one [`ThresholdPredicate`] has
/// compared: row `r` is `rows[r·B..(r + 1)·B]`, bucket `b` of it the sum
/// of `idf·count` over the document's terms in bucket `b`.
#[derive(Default)]
struct Sketches {
    rows: Vec<f64>,
    row_of: FxHashMap<DocId, u32>,
    /// Pairs the sketch rejected, and pairs it passed to the merge.
    #[cfg(test)]
    verdicts: (u64, u64),
}

impl Sketches {
    /// Where the row of `d` starts, summing it on first use.
    fn row(&mut self, corpus: &Corpus, d: DocId) -> usize {
        let next = self.row_of.len() as u32;
        let start = *self.row_of.entry(d).or_insert(next) as usize * B;
        if start == self.rows.len() {
            self.rows.resize(start + B, 0.0);
            let (idf, row) = (corpus.idf_table(), &mut self.rows[start..]);
            for &(t, c) in &corpus.doc(d).terms {
                row[bucket(t)] += idf[t as usize] * c as f64;
            }
        }
        start
    }
}

/// The thresholded predicate `sim > τ` over documents of one corpus:
/// [`similar_above`] behind two exact rejection filters, for every pair
/// the exact framework, `window` and `disc` test.
///
/// The first is the weight-ratio test: `sim ≤ min(W1, W2) / max(W1, W2)`
/// ([`total_weight`]), read from the per-corpus `W(d)` table. The second
/// rejects what a **sketch** proves dissimilar. A document's sketch sums its
/// `idf·count` weights into `B` = 128 buckets by term hash, once per
/// request, on its first comparison past the weight-ratio test. Within a
/// bucket the minimum of the sums is at least the sum of the minima, so
/// `U = Σ_b min(A_b, B_b)` bounds the shared weight `inter` from above,
/// and since `sim > τ ⟺ inter·(1 + τ) > τ·S` the pair is dissimilar if
/// `U·(1 + τ) < τ·S·(1 − 1e-9)`. The band is 10⁴ times the rounding of
/// `U`, `S` and the merge's own accumulators, so a pair the sketch
/// rejects is one the merge would have rejected: every verdict, edge and
/// counter is [`similar_above`]'s.
pub struct ThresholdPredicate<'a, W: ?Sized> {
    corpus: &'a Corpus,
    weights: &'a W,
    tau: f64,
    /// Behind a cell because [`Similarity::similar`] takes `&self`.
    sketches: RefCell<Sketches>,
}

impl<'a, W: WeightTable + ?Sized> ThresholdPredicate<'a, W> {
    /// The predicate at threshold `tau` over `corpus`, whose
    /// [`doc_weights`](crate::search::doc_weights) table is `weights`.
    pub fn new(corpus: &'a Corpus, weights: &'a W, tau: f64) -> ThresholdPredicate<'a, W> {
        ThresholdPredicate {
            corpus,
            weights,
            tau,
            sketches: RefCell::default(),
        }
    }

    /// The sketch's bound `U ≥ inter` on what `a` and `b` share.
    fn shared_bound(&self, a: DocId, b: DocId) -> f64 {
        let sketches = &mut *self.sketches.borrow_mut();
        let (a, b) = (sketches.row(self.corpus, a), sketches.row(self.corpus, b));
        sum_of_minima(&sketches.rows[a..a + B], &sketches.rows[b..b + B])
    }

    /// True if the sketch proves `sim(a, b) ≤ τ`; `total` is `W(a) + W(b)`.
    fn sketch_rejects(&self, a: DocId, b: DocId, total: f64) -> bool {
        let rejects = self.shared_bound(a, b) * (1.0 + self.tau) < self.tau * total * (1.0 - 1e-9);
        #[cfg(test)]
        {
            let verdicts = &mut self.sketches.borrow_mut().verdicts;
            *verdicts = (verdicts.0 + rejects as u64, verdicts.1 + !rejects as u64);
        }
        rejects
    }
}

impl<W: WeightTable + ?Sized> Similarity<DocId> for ThresholdPredicate<'_, W> {
    /// [`similar_above`], behind the weight-ratio test it opens with and
    /// the sketch's reject test — which only ever answer `false` where
    /// it would.
    fn similar(&self, a: &DocId, b: &DocId) -> bool {
        let (wa, wb) = (self.weights.weight(*a), self.weights.weight(*b));
        let (lo, hi) = if wa <= wb { (wa, wb) } else { (wb, wa) };
        if hi <= 0.0 || lo / hi <= self.tau || self.sketch_rejects(*a, *b, wa + wb) {
            return false;
        }
        let (da, db) = (self.corpus.doc(*a), self.corpus.doc(*b));
        similar_above(self.corpus.idf_table(), da, wa, db, wb, self.tau)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(tokens: &[u32]) -> Document {
        Document::from_tokens("t".into(), tokens.to_vec())
    }

    #[test]
    fn identical_docs_have_similarity_one() {
        let idf = vec![1.0; 10];
        let d = doc(&[1, 2, 2, 5]);
        assert_eq!(weighted_jaccard_with(&idf, &d, &d), 1.0);
    }

    #[test]
    fn disjoint_docs_have_similarity_zero() {
        let idf = vec![1.0; 10];
        assert_eq!(
            weighted_jaccard_with(&idf, &doc(&[1, 2]), &doc(&[3, 4])),
            0.0
        );
    }

    #[test]
    fn multiset_counts_matter() {
        // d1 = {a:2}, d2 = {a:1}: inter = 1, union = 2 → 0.5.
        let idf = vec![1.0; 4];
        let s = weighted_jaccard_with(&idf, &doc(&[0, 0]), &doc(&[0]));
        assert!((s - 0.5).abs() < 1e-12);
    }

    #[test]
    fn weights_tilt_the_ratio() {
        // Shared term has weight 3, the unshared ones weight 1:
        // d1 = {0,1}, d2 = {0,2} → inter = 3, union = 3 + 1 + 1 = 5.
        let idf = vec![3.0, 1.0, 1.0];
        let s = weighted_jaccard_with(&idf, &doc(&[0, 1]), &doc(&[0, 2]));
        assert!((s - 0.6).abs() < 1e-12);
    }

    #[test]
    fn symmetric() {
        let idf = vec![0.5, 2.0, 1.5, 1.0];
        let d1 = doc(&[0, 1, 1, 3]);
        let d2 = doc(&[1, 2, 3, 3]);
        assert_eq!(
            weighted_jaccard_with(&idf, &d1, &d2),
            weighted_jaccard_with(&idf, &d2, &d1)
        );
    }

    #[test]
    fn bounded_in_unit_interval() {
        let idf = vec![1.0, 0.3, 2.5, 0.0, 4.0];
        let docs = [
            doc(&[0, 1, 2]),
            doc(&[2, 3, 4]),
            doc(&[0, 0, 0, 4]),
            doc(&[]),
        ];
        for a in &docs {
            for b in &docs {
                let s = weighted_jaccard_with(&idf, a, b);
                assert!((0.0..=1.0).contains(&s), "sim {s}");
            }
        }
    }

    #[test]
    fn empty_docs_are_dissimilar_not_nan() {
        let idf = vec![1.0];
        assert_eq!(weighted_jaccard_with(&idf, &doc(&[]), &doc(&[])), 0.0);
    }

    /// An IDF table and documents that exercise every shape of merge,
    /// plus the index of the first *crafted* document (pairs at, just
    /// below and just above a threshold) and of the first *twin*
    /// (2 000-term near-identical pairs).
    fn assorted() -> (Vec<f64>, Vec<Document>, usize, usize) {
        use divtopk_core::rng::Pcg;
        let mut rng = Pcg::new(31);
        // Terms 0..40 carry random weights, every fifth of them none
        // (a zero-IDF term); 50..450 are for the long documents;
        // 450..460 weigh exactly 1, 460 a hair less, 461 a hair more;
        // 500..2500 are for the twins.
        let mut idf: Vec<f64> = (0..2500)
            .map(|t| {
                if t % 5 == 0 {
                    0.0
                } else {
                    rng.unit_f64() * 3.0
                }
            })
            .collect();
        idf[450..460].fill(1.0);
        (idf[460], idf[461]) = (1.0 - 1e-12, 1.0 + 1e-12);
        // Random documents: up to 40 tokens over 40 terms, so counts
        // above 1 and shared zero-IDF terms are the rule.
        let mut docs: Vec<Document> = (0..30)
            .map(|i| {
                let len = rng.range(1, 40) as usize;
                let tokens: Vec<u32> = (0..len).map(|_| rng.below(40)).collect();
                Document::from_tokens(format!("d{i}"), tokens)
            })
            .collect();
        // One document a sub-multiset of another; an identical pair.
        let once_each: Vec<u32> = docs[0].terms.iter().map(|&(t, _)| t).collect();
        docs.push(doc(&once_each));
        docs.push(docs[1].clone());
        // Nothing to weigh: no terms, and zero-IDF terms only.
        docs.push(doc(&[]));
        docs.push(doc(&[0, 5, 5, 10]));
        // 200-term documents: four fifths shared, and a copy.
        let long: Vec<u32> = (50..250).collect();
        let shifted: Vec<u32> = (90..290).collect();
        docs.extend([doc(&long), doc(&shifted), doc(&long)]);
        // Pairs whose similarity is *exactly* a threshold (unit weights),
        // which `>` must call dissimilar on both paths; then a pair a
        // hair below 0.5 and one a hair above it, which the budget's
        // margin must leave to the exact comparison.
        let crafted = docs.len();
        let pairs: [(&[u32], &[u32]); 8] = [
            (&[450, 451, 452], &[450, 453, 454]),
            (&[450, 451, 452], &[450, 451, 453]),
            (&[450, 450], &[450]),
            (&[450, 451, 452, 453], &[450, 451, 452, 454]),
            (
                &[450, 451, 452, 453, 454, 455, 456, 457, 458],
                &[450, 451, 452, 453, 454, 455, 456, 457, 459],
            ),
            (&[450, 451, 451, 452], &[450, 451, 451, 452]),
            (&[460, 451, 452], &[460, 451, 453]),
            (&[461, 451, 452], &[461, 451, 453]),
        ];
        for (a, b) in pairs {
            docs.extend([doc(a), doc(b)]);
        }
        // Twins: 2 000 terms, the second document without one of them —
        // a term that weighs 10⁻⁵ to 10⁻¹¹ of the whole and comes early
        // in the merge, midway or late — so sim ≥ 0.9999 and the merge
        // budget of a floor near that similarity is a vanishing share of
        // `S`, reached (or not) long before the accumulators stop moving.
        let twins = docs.len();
        let all: Vec<u32> = (500..2500).collect();
        let dropped = [
            (501, 3e-2),
            (1502, 3e-4),
            (2498, 3e-6),
            (503, 3e-6),
            (509, 3e-6),
            (517, 3e-6),
            (523, 3e-6),
            (531, 3e-8),
            (547, 3e-8),
            (553, 3e-8),
            (1004, 3e-8),
            (1013, 3e-8),
        ];
        for (at, weight) in dropped {
            idf[at as usize] = weight;
        }
        for (at, _) in dropped {
            let without: Vec<u32> = all.iter().copied().filter(|&t| t != at).collect();
            docs.extend([doc(&all), doc(&without)]);
        }
        (idf, docs, crafted, twins)
    }

    /// The neighbours of `x` among the doubles, nearest first: a few ulps
    /// below it and a few above.
    fn ulps_around(x: f64) -> Vec<f64> {
        let step = |from: f64, up: bool| {
            if from == 0.0 {
                if up {
                    f64::from_bits(1)
                } else {
                    -f64::from_bits(1)
                }
            } else if (from > 0.0) == up {
                f64::from_bits(from.to_bits() + 1)
            } else {
                f64::from_bits(from.to_bits() - 1)
            }
        };
        let mut out = Vec::new();
        for up in [false, true] {
            let mut at = x;
            for _ in 0..4 {
                at = step(at, up);
                out.push(at);
            }
        }
        out
    }

    #[test]
    fn prefilter_agrees_with_full_computation() {
        let (idf, docs, crafted, twins) = assorted();
        let sim_of = |pair: usize| {
            weighted_jaccard_with(
                &idf,
                &docs[crafted + 2 * pair],
                &docs[crafted + 2 * pair + 1],
            )
        };
        for (pair, tau) in [0.2, 0.5, 0.5, 0.6, 0.8, 1.0].into_iter().enumerate() {
            assert_eq!(sim_of(pair), tau, "pair {pair}");
        }
        assert!(sim_of(6) < 0.5 && sim_of(6) > 0.5 - 1e-9);
        assert!(sim_of(7) > 0.5 && sim_of(7) < 0.5 + 1e-9);

        let weights: Vec<f64> = docs.iter().map(|d| total_weight(&idf, d)).collect();
        let mut similar = 0usize;
        for tau in [0.0, 0.2, 0.5, 0.6, 0.8, 1.0] {
            for i in 0..docs.len() {
                for j in 0..docs.len() {
                    let fast = similar_above(&idf, &docs[i], weights[i], &docs[j], weights[j], tau);
                    let slow = weighted_jaccard_with(&idf, &docs[i], &docs[j]) > tau;
                    assert_eq!(fast, slow, "docs {i},{j} τ {tau}");
                    similar += fast as usize;
                }
            }
        }
        assert!(
            similar > docs.len(),
            "the inputs must exercise both answers"
        );

        // The floor as data: near-identical long documents asked with
        // floors a few ulps either side of their own similarity, where
        // the budget is ~10⁻⁵…10⁻⁹ of `S` and a guard band relative to
        // the *budget* would be smaller than the accumulators' rounding.
        for pair in (twins..docs.len()).step_by(2) {
            let (i, j) = (pair, pair + 1);
            let sim = weighted_jaccard_with(&idf, &docs[i], &docs[j]);
            assert!((0.9999..1.0).contains(&sim), "twins {i},{j}: {sim}");
            for floor in ulps_around(sim).into_iter().chain([sim]) {
                for (a, b) in [(i, j), (j, i)] {
                    assert_eq!(
                        similar_above(&idf, &docs[a], weights[a], &docs[b], weights[b], floor),
                        sim > floor,
                        "twins {a},{b}: sim {sim:e}, floor {floor:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_value_above_a_floor_is_the_full_value_filtered_by_it() {
        let (idf, docs, _, _) = assorted();
        let weights: Vec<f64> = docs.iter().map(|d| total_weight(&idf, d)).collect();
        let (mut some, mut none) = (0usize, 0usize);
        for i in 0..docs.len() {
            for j in 0..docs.len() {
                let sim = weighted_jaccard_with(&idf, &docs[i], &docs[j]);
                let mut floors = vec![-1.0, -f64::MIN_POSITIVE, 0.0, sim, 1.0];
                floors.extend(ulps_around(sim));
                for floor in floors {
                    let got = weighted_jaccard_above(
                        &idf, &docs[i], weights[i], &docs[j], weights[j], floor,
                    );
                    let want = (sim > floor).then_some(sim);
                    assert_eq!(
                        got.map(f64::to_bits),
                        want.map(f64::to_bits),
                        "docs {i},{j}: sim {sim:e}, floor {floor:e}"
                    );
                    some += got.is_some() as usize;
                    none += got.is_none() as usize;
                }
            }
        }
        assert!(some > docs.len() && none > docs.len());
    }

    /// The merge as a three-way `match` on the term comparison — what the
    /// branch-free step of [`merge`] replaced, kept as its reference.
    fn merge_by_match<const BUDGETED: bool>(
        idf: &[f64],
        d1: &Document,
        d2: &Document,
        budget: f64,
    ) -> Option<(f64, f64)> {
        let mut inter = 0.0f64;
        let mut union = 0.0f64;
        let (a, b) = (&d1.terms, &d2.terms);
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            let (ta, ca) = a[i];
            let (tb, cb) = b[j];
            match ta.cmp(&tb) {
                std::cmp::Ordering::Less => {
                    union += idf[ta as usize] * ca as f64;
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    union += idf[tb as usize] * cb as f64;
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    let w = idf[ta as usize];
                    inter += w * ca.min(cb) as f64;
                    union += w * ca.max(cb) as f64;
                    i += 1;
                    j += 1;
                }
            }
            if BUDGETED && union - inter > budget {
                return None;
            }
        }
        for &(t, c) in &a[i..] {
            union += idf[t as usize] * c as f64;
        }
        for &(t, c) in &b[j..] {
            union += idf[t as usize] * c as f64;
        }
        Some((inter, union))
    }

    #[test]
    fn the_branch_free_step_is_the_three_way_match() {
        // Random multisets with counts above 1, an empty document, an
        // identical pair, disjoint pairs, a sub-multiset — `assorted` has
        // them all; every ordered pair, unbudgeted and under budgets from
        // "exits on the first step" to "never exits".
        let (idf, docs, _, _) = assorted();
        let bits =
            |r: Option<(f64, f64)>| r.map(|(inter, union)| (inter.to_bits(), union.to_bits()));
        let (mut finished, mut gave_up) = (0usize, 0usize);
        for d1 in &docs {
            for d2 in &docs {
                let full = merge::<false>(&idf, d1, d2, f64::INFINITY);
                assert_eq!(
                    bits(full),
                    bits(merge_by_match::<false>(&idf, d1, d2, f64::INFINITY)),
                    "{} vs {}",
                    d1.title,
                    d2.title
                );
                let (inter, union) = full.expect("unbudgeted");
                for share in [0.0, 0.01, 0.3, 0.7, 1.0, 1.5] {
                    let budget = (union - inter) * share;
                    let got = merge::<true>(&idf, d1, d2, budget);
                    assert_eq!(
                        bits(got),
                        bits(merge_by_match::<true>(&idf, d1, d2, budget)),
                        "{} vs {} under budget {budget}",
                        d1.title,
                        d2.title
                    );
                    finished += got.is_some() as usize;
                    gave_up += got.is_none() as usize;
                }
            }
        }
        assert!(finished > docs.len() && gave_up > docs.len());
    }

    /// `docs` over `idf` as a corpus — the predicate reads both from one — and
    /// its `W(d)` table.
    fn corpus_of(idf: Vec<f64>, docs: Vec<Document>) -> (Corpus, Vec<f64>) {
        let mut doc_freq = vec![0u32; idf.len()];
        for d in &docs {
            for &(t, _) in &d.terms {
                doc_freq[t as usize] += 1;
            }
        }
        let vocab = crate::vocab::Vocabulary::synthetic(idf.len());
        let corpus = Corpus::from_parts(vocab, docs.into_iter().collect(), doc_freq, idf);
        let weights = crate::search::doc_weights(&corpus);
        (corpus, weights)
    }

    /// The merge's verdict and its shared weight, for pair `(a, b)`.
    fn by_merge(corpus: &Corpus, weights: &[f64], a: DocId, b: DocId, tau: f64) -> (bool, f64) {
        let (idf, da, db) = (corpus.idf_table(), corpus.doc(a), corpus.doc(b));
        let (wa, wb) = (weights[a as usize], weights[b as usize]);
        let verdict = similar_above(idf, da, wa, db, wb, tau);
        let (inter, _) = merge::<false>(idf, da, db, f64::INFINITY).expect("unbudgeted");
        (verdict, inter)
    }

    /// Planted mutations this catches: `max` for `min` in the bound (the
    /// sketch rejects nothing), `(1 + τ)` dropped from the reject test
    /// (similar pairs rejected), rows keyed by arrival instead of doc id
    /// (a bound under `inter`).
    #[test]
    fn the_sketch_rejects_only_pairs_the_merge_rejects() {
        // Every ordered pair of `assorted`: counts above 1, zero-IDF
        // terms, pairs crafted at a threshold, 2 000-term twins (whose
        // buckets each hold some sixteen terms).
        let (idf, docs, _, _) = assorted();
        let (corpus, weights) = corpus_of(idf, docs);
        let n = corpus.num_docs() as DocId;
        let (mut rejected, mut merged_out) = (0u64, 0u64);
        for tau in [0.0, 0.2, 0.5, 0.6, 0.8, 1.0] {
            let predicate = ThresholdPredicate::new(&corpus, &weights, tau);
            let mut similar = 0u64;
            // Descending `a`: documents are first sketched in an order
            // unlike their ids, so a row found under the wrong key shows.
            for a in (0..n).rev() {
                for b in 0..n {
                    let (want, inter) = by_merge(&corpus, &weights, a, b, tau);
                    assert_eq!(predicate.similar(&a, &b), want, "docs {a},{b} τ {tau}");
                    // `U ≥ inter` exactly; as computed, up to rounding
                    // far inside the reject test's 1e-9 band.
                    let total = weights[a as usize] + weights[b as usize];
                    let bound = predicate.shared_bound(a, b);
                    assert!(
                        bound >= inter - 1e-12 * total,
                        "docs {a},{b}: bound {bound:e} under inter {inter:e}"
                    );
                    similar += want as u64;
                }
            }
            // Only pairs past the weight-ratio test meet the sketch; a
            // pair it passes is similar or rejected by the merge.
            let (sketch_rejected, sketch_passed) = predicate.sketches.borrow().verdicts;
            rejected += sketch_rejected;
            merged_out += sketch_passed - similar;
        }
        assert!(rejected > n as u64, "the sketch rejected {rejected} pairs");
        assert!(
            merged_out > n as u64,
            "the merge rejected {merged_out} passed pairs"
        );
    }

    /// Planted mutations this catches: the band dropped with `<` → `≤`
    /// (pairs exactly at τ rejected by the sketch — the same answer, but
    /// not the merge's), `max` for `min`, `(1 + τ)` dropped.
    #[test]
    fn where_the_sketch_is_tight_pairs_at_the_threshold_reach_the_merge() {
        // Documents whose terms fall in distinct buckets, so a bucket sum
        // is one term's weight and `U` equals `inter` up to the order of
        // the sum: the reject test then meets each pair at its own
        // similarity. `assorted`'s crafted pairs (exactly at τ; a hair
        // below and above 0.5 through the 460 / 461 weights), and random
        // multisets over one term per bucket asked at their similarity
        // and a few ulps either side.
        let (idf, mut docs, crafted, _) = assorted();
        let mut one_per_bucket: Vec<TermId> = Vec::new();
        for t in 0..450 {
            if one_per_bucket.iter().all(|&u| bucket(u) != bucket(t)) {
                one_per_bucket.push(t);
            }
        }
        assert_eq!(one_per_bucket.len(), B);
        let crafted_end = crafted + 16;
        docs.truncate(crafted_end);
        let mut rng = divtopk_core::rng::Pcg::new(7);
        for i in 0..12 {
            // Shared stock, so pairs land near each other's similarity.
            let len = rng.range(20, 120) as usize;
            let tokens: Vec<u32> = (0..len)
                .map(|_| one_per_bucket[rng.below(if i % 2 == 0 { 40 } else { 128 }) as usize])
                .collect();
            docs.push(Document::from_tokens(format!("spread{i}"), tokens));
        }
        let (corpus, weights) = corpus_of(idf, docs);
        let tight = |a: DocId, b: DocId| {
            let (da, db) = (&corpus.doc(a).terms, &corpus.doc(b).terms);
            let mut terms: Vec<TermId> = da.iter().chain(db).map(|&(t, _)| t).collect();
            terms.sort_unstable();
            terms.dedup();
            let mut buckets: Vec<usize> = terms.iter().map(|&t| bucket(t)).collect();
            buckets.sort_unstable();
            buckets.dedup();
            buckets.len() == terms.len()
        };
        let mut asked: Vec<(DocId, DocId, f64)> = Vec::new();
        let taus = [0.2, 0.5, 0.5, 0.6, 0.8, 1.0, 0.5, 0.5];
        for (pair, tau) in taus.into_iter().enumerate() {
            let (x, y) = (
                (crafted + 2 * pair) as DocId,
                (crafted + 2 * pair + 1) as DocId,
            );
            asked.extend([(x, y, tau), (y, x, tau)]);
        }
        let spread = crafted_end as DocId..corpus.num_docs() as DocId;
        for a in spread.clone() {
            for b in spread.clone() {
                let (da, db) = (corpus.doc(a), corpus.doc(b));
                let sim = weighted_jaccard_with(corpus.idf_table(), da, db);
                for tau in ulps_around(sim).into_iter().chain([sim]) {
                    if (0.0..=1.0).contains(&tau) {
                        asked.push((a, b, tau));
                    }
                }
            }
        }
        for (a, b, tau) in asked {
            assert!(tight(a, b), "docs {a},{b} share a bucket");
            let predicate = ThresholdPredicate::new(&corpus, &weights, tau);
            let (want, inter) = by_merge(&corpus, &weights, a, b, tau);
            let total = weights[a as usize] + weights[b as usize];
            let bound = predicate.shared_bound(a, b);
            assert!(
                (bound - inter).abs() <= 1e-14 * total,
                "docs {a},{b}: bound {bound:e} vs inter {inter:e}"
            );
            assert_eq!(predicate.similar(&a, &b), want, "docs {a},{b} τ {tau:e}");
            // A pair at τ, or an ulp from it, lies inside the band: the
            // sketch leaves its verdict to the merge. (One sharing
            // nothing has `U = 0` exactly and may be rejected at any
            // τ > 0.)
            if inter > 0.0 {
                assert!(
                    !predicate.sketch_rejects(a, b, total),
                    "docs {a},{b} τ {tau:e}"
                );
            }
        }
    }

    #[test]
    fn corpus_integration() {
        let mut b = crate::corpus::Corpus::builder();
        b.add_text("a", "databases store structured data");
        b.add_text("b", "databases store structured data"); // duplicate
        b.add_text("c", "poetry about mountains");
        // Filler so the duplicated terms keep a positive IDF
        // (idf = ln(N/(df+1)) clamps to 0 when df + 1 ≥ N).
        for i in 0..4 {
            b.add_text(&format!("f{i}"), "filler noise words everywhere");
        }
        let c = b.build();
        let s_dup = weighted_jaccard(&c, c.doc(0), c.doc(1));
        let s_diff = weighted_jaccard(&c, c.doc(0), c.doc(2));
        assert_eq!(s_dup, 1.0);
        assert_eq!(s_diff, 0.0);
    }
}
