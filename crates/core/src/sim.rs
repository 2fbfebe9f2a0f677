//! Similarity predicates (`v_i ≈ v_j ⇔ sim(v_i, v_j) > τ`, §2).
//!
//! The framework's only assumption about the application domain is that any
//! two results can be tested for similarity. [`Similarity`] captures that;
//! [`ThresholdSimilarity`] adapts a real-valued similarity function and a
//! threshold `τ` into the predicate, which is how both the paper's
//! experiments (weighted Jaccard over documents, Eq. 4) and the examples in
//! this repo define `≈`.
//!
//! The framework never calls the predicate pair by pair itself: for each
//! arriving result it asks [`Similarity::similar_earlier`] for that
//! result's neighbours among the earlier ones. The provided body tests
//! every earlier result ([`all_pairs`], the only such loop in this
//! crate); a domain that can name the neighbours without testing every
//! pair — the text layer's threshold join — overrides it, and owes the
//! framework exactly the list the provided body would have produced.

use crate::sources::Scored;

/// A symmetric similarity predicate over items of type `T`.
///
/// Implementations must be symmetric (`similar(a, b) == similar(b, a)`);
/// reflexivity is irrelevant because the framework never compares an item
/// with itself.
pub trait Similarity<T: ?Sized> {
    /// True iff the two results are similar (and therefore may not both
    /// appear in the diversified top-k).
    fn similar(&self, a: &T, b: &T) -> bool;

    /// Graph growth: appends to `out` the **ascending** positions in
    /// `earlier` of the results similar to `new`, and returns how many
    /// pairs were tested to find them.
    ///
    /// One framework run calls this once per arriving result, with
    /// `earlier` the results that arrived before it in arrival order — a
    /// slice that only ever grows at its end — so an implementation may
    /// keep an index over it between calls. An override must append
    /// exactly what this body appends; only the returned count may be
    /// smaller.
    fn similar_earlier(&mut self, earlier: &[Scored<T>], new: &T, out: &mut Vec<u32>) -> u64
    where
        T: Sized,
    {
        all_pairs(&*self, earlier, new, out)
    }
}

/// The body of [`Similarity::similar_earlier`]: tests `new` against every
/// earlier result. Public so an override can fall back to it while its
/// own structure would cost more than it saves.
pub fn all_pairs<T, M>(similarity: &M, earlier: &[Scored<T>], new: &T, out: &mut Vec<u32>) -> u64
where
    M: Similarity<T> + ?Sized,
{
    for (position, other) in earlier.iter().enumerate() {
        if similarity.similar(&other.item, new) {
            out.push(position as u32);
        }
    }
    earlier.len() as u64
}

/// `sim(a, b) > τ` for a user-supplied scoring function.
#[derive(Debug, Clone)]
pub struct ThresholdSimilarity<F> {
    function: F,
    tau: f64,
}

impl<F> ThresholdSimilarity<F> {
    /// Builds the predicate; `tau` must lie in `(0, 1]` (Definition 1's
    /// range for the threshold).
    pub fn new(function: F, tau: f64) -> ThresholdSimilarity<F> {
        assert!(tau > 0.0 && tau <= 1.0, "τ must be in (0, 1], got {tau}");
        ThresholdSimilarity { function, tau }
    }

    /// The threshold `τ`.
    pub fn tau(&self) -> f64 {
        self.tau
    }
}

impl<T: ?Sized, F: Fn(&T, &T) -> f64> Similarity<T> for ThresholdSimilarity<F> {
    #[inline]
    fn similar(&self, a: &T, b: &T) -> bool {
        (self.function)(a, b) > self.tau
    }
}

/// Blanket impl so plain closures `Fn(&T, &T) -> bool` work as predicates.
impl<T: ?Sized, F: Fn(&T, &T) -> bool> Similarity<T> for F {
    #[inline]
    fn similar(&self, a: &T, b: &T) -> bool {
        self(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::Score;

    #[test]
    fn threshold_is_strict() {
        let sim = ThresholdSimilarity::new(|a: &f64, b: &f64| 1.0 - (a - b).abs(), 0.6);
        assert!(sim.similar(&0.5, &0.6)); // sim = 0.9 > 0.6
        assert!(!sim.similar(&0.0, &0.4)); // sim = 0.6, not > 0.6
        assert_eq!(sim.tau(), 0.6);
    }

    #[test]
    #[should_panic(expected = "τ must be in (0, 1]")]
    fn rejects_out_of_range_tau() {
        let _ = ThresholdSimilarity::new(|_: &i32, _: &i32| 0.0, 0.0);
    }

    #[test]
    fn closures_are_similarities() {
        let mut pred = |a: &i32, b: &i32| (a - b).abs() <= 1;
        assert!(pred.similar(&3, &4));
        assert!(!pred.similar(&3, &5));
        // …and grow the graph by testing every earlier result.
        let earlier: Vec<Scored<i32>> = [4, 9, 2, 3].map(|v| Scored::new(v, Score::ZERO)).into();
        let mut out = vec![7];
        assert_eq!(pred.similar_earlier(&earlier, &3, &mut out), 4);
        assert_eq!(out, [7, 0, 2, 3]);
    }
}
