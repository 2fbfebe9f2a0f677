//! Similarity predicates (`v_i ≈ v_j ⇔ sim(v_i, v_j) > τ`, §2).
//!
//! The framework's only assumption about the application domain is that any
//! two results can be tested for similarity. [`Similarity`] captures that;
//! [`ThresholdSimilarity`] adapts a real-valued similarity function and a
//! threshold `τ` into the predicate, which is how both the paper's
//! experiments (weighted Jaccard over documents, Eq. 4) and the examples in
//! this repo define `≈`.

/// A symmetric similarity predicate over items of type `T`.
///
/// Implementations must be symmetric (`similar(a, b) == similar(b, a)`);
/// reflexivity is irrelevant because the framework never compares an item
/// with itself.
pub trait Similarity<T: ?Sized> {
    /// True iff the two results are similar (and therefore may not both
    /// appear in the diversified top-k).
    fn similar(&self, a: &T, b: &T) -> bool;
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
        let pred = |a: &i32, b: &i32| (a - b).abs() <= 1;
        assert!(pred.similar(&3, &4));
        assert!(!pred.similar(&3, &5));
    }
}
