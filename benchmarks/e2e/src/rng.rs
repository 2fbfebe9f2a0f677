//! The harness's own PRNG. Request `i` of a stream is a pure function of
//! `(seed, lane, i)`, so no phase depends on how far another phase got,
//! and nothing here moves when `divtopk_core::rng` or `text::synth` do.

/// SplitMix64 (Steele, Lea, Flood 2014).
#[derive(Debug, Clone)]
pub struct Rng(u64);

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// The generator for item `i` of stream `lane` under `seed`.
    pub fn at(seed: u64, lane: u64, i: u64) -> Rng {
        let mut s = seed;
        let a = splitmix(&mut s) ^ lane.wrapping_mul(0xD6E8_FEB8_6659_FD93);
        let mut s = a;
        let b = splitmix(&mut s) ^ i.wrapping_mul(0xA076_1D64_78BD_642F);
        Rng(b)
    }

    pub fn next_u64(&mut self) -> u64 {
        splitmix(&mut self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive. The modulo bias is
    /// below 2^-40 for every `n` the workloads use.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Cumulative Zipf(`exponent`) weights over ranks `0..n`, for [`sample`].
pub fn zipf_cdf(n: usize, exponent: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|r| {
            acc += 1.0 / (r as f64).powf(exponent);
            acc
        })
        .collect();
    for c in &mut cdf {
        *c /= acc;
    }
    cdf
}

/// Rank drawn from a cumulative distribution built by [`zipf_cdf`].
pub fn sample(cdf: &[f64], u: f64) -> usize {
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn items_are_pure_functions_of_seed_lane_index() {
        let a: Vec<u64> = (0..4).map(|i| Rng::at(7, 1, i).next_u64()).collect();
        let b: Vec<u64> = (0..4).rev().map(|i| Rng::at(7, 1, i).next_u64()).collect();
        assert_eq!(a, b.into_iter().rev().collect::<Vec<_>>());
        assert_ne!(Rng::at(7, 1, 0).next_u64(), Rng::at(8, 1, 0).next_u64());
        assert_ne!(Rng::at(7, 1, 0).next_u64(), Rng::at(7, 2, 0).next_u64());
    }

    #[test]
    fn zipf_favours_low_ranks_and_covers_all() {
        let cdf = zipf_cdf(256, 1.0);
        assert_eq!(sample(&cdf, 0.0), 0);
        assert_eq!(sample(&cdf, 0.999_999_9), 255);
        let head = (0..10_000)
            .filter(|&i| sample(&cdf, Rng::at(1, 0, i).unit()) < 16)
            .count();
        // H(16)/H(256) ≈ 0.55.
        assert!((5000..6000).contains(&head), "head share {head}");
    }
}
