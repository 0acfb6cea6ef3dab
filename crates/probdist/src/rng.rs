/// Deterministic random number generator used throughout the simulation
/// stack.
///
/// `SimRng` is a self-contained xoshiro256++ generator (seeded through a
/// SplitMix64 expansion, as its authors recommend) with *stream
/// derivation*: from a single experiment seed, independent child streams can
/// be derived for each replication, each submodel, or each parameter point
/// so that changing the number of replications (or running them in
/// parallel) never perturbs the sample path of any other replication. This
/// is the property the paper's Möbius experiments rely on for reproducible
/// confidence intervals, and the property the `Study` runner relies on for
/// bit-identical serial and parallel statistics.
///
/// # Example
///
/// ```
/// use probdist::SimRng;
///
/// let mut a = SimRng::seed_from_u64(7).derive_stream(0);
/// let mut b = SimRng::seed_from_u64(7).derive_stream(0);
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// let mut c = SimRng::seed_from_u64(7).derive_stream(1);
/// assert_ne!(SimRng::seed_from_u64(7).derive_stream(0).next_u64(), c.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    seed: u64,
    state: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        // Expand the seed into four non-zero state words with SplitMix64.
        let mut expander = seed;
        let mut state = [0u64; 4];
        for word in &mut state {
            expander = expander.wrapping_add(0x9E37_79B9_7F4A_7C15);
            *word = split_mix64(expander);
        }
        SimRng { seed, state }
    }

    /// Returns the seed this generator (or its parent stream) was created
    /// with. Derived streams report the derived seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child stream identified by `stream`.
    ///
    /// The derivation uses a SplitMix64-style mix of the parent seed and the
    /// stream index, which gives well-separated seeds even for consecutive
    /// stream indices.
    pub fn derive_stream(&self, stream: u64) -> SimRng {
        let derived =
            split_mix64(self.seed ^ split_mix64(stream.wrapping_add(0x9E37_79B9_7F4A_7C15)));
        SimRng::seed_from_u64(derived)
    }

    /// Returns the next 64 random bits (one xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.state = s;
        result
    }

    /// Samples a uniform value in the half-open interval `[0, 1)`.
    pub fn uniform01(&mut self) -> f64 {
        // 53 random bits scaled by 2^-53: every double in [0, 1) with a
        // dyadic denominator is reachable, and 1.0 is not.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Samples a uniform value in the open interval `(0, 1)`.
    ///
    /// Useful for inverse-CDF sampling of distributions whose quantile
    /// function is unbounded at 0 or 1 (e.g. the exponential at 1).
    pub(crate) fn uniform_open01(&mut self) -> f64 {
        loop {
            let u = self.uniform01();
            if u > 0.0 && u < 1.0 {
                return u;
            }
        }
    }

    /// Samples a uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is not finite.
    pub(crate) fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi, "invalid range [{lo}, {hi})");
        if lo == hi {
            return lo;
        }
        lo + (hi - lo) * self.uniform01()
    }

    /// Samples an integer uniformly from `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn uniform_index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot sample an index from an empty range");
        // Rejection sampling over the largest multiple of `n` that fits in
        // 64 bits, so every index is exactly equally likely.
        let n = n as u64;
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let v = self.next_u64();
            if v < zone {
                return (v % n) as usize;
            }
        }
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    #[cfg(feature = "chaos")]
    pub(crate) fn bernoulli(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of range");
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform01() < p
        }
    }
}

/// SplitMix64 finalizer used for state expansion and stream derivation.
fn split_mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::seed_from_u64(123);
        let mut b = SimRng::seed_from_u64(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "independent seeds should rarely collide");
    }

    #[test]
    fn derived_streams_are_deterministic_and_distinct() {
        let root = SimRng::seed_from_u64(99);
        let mut s0a = root.derive_stream(0);
        let mut s0b = root.derive_stream(0);
        let mut s1 = root.derive_stream(1);
        assert_eq!(s0a.next_u64(), s0b.next_u64());
        let mut s0c = root.derive_stream(0);
        assert_ne!(s0c.next_u64(), s1.next_u64());
    }

    #[test]
    #[cfg_attr(miri, ignore)] // heavy sampling loop
    fn uniform01_is_in_range() {
        let mut rng = SimRng::seed_from_u64(5);
        for _ in 0..10_000 {
            let u = rng.uniform01();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // heavy sampling loop
    fn uniform01_mean_is_about_half() {
        let mut rng = SimRng::seed_from_u64(5);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| rng.uniform01()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    #[cfg(feature = "chaos")]
    fn bernoulli_extremes() {
        let mut rng = SimRng::seed_from_u64(5);
        assert!(!rng.bernoulli(0.0));
        assert!(rng.bernoulli(1.0));
    }

    #[test]
    #[cfg(feature = "chaos")]
    #[cfg_attr(miri, ignore)] // heavy sampling loop
    fn bernoulli_frequency_matches_p() {
        let mut rng = SimRng::seed_from_u64(8);
        let n = 20_000;
        let hits = (0..n).filter(|_| rng.bernoulli(0.3)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.3).abs() < 0.02, "freq {freq}");
    }

    #[test]
    fn uniform_range_degenerate_is_lo() {
        let mut rng = SimRng::seed_from_u64(3);
        assert_eq!(rng.uniform_range(4.0, 4.0), 4.0);
    }

    #[test]
    #[should_panic(expected = "invalid range")]
    fn uniform_range_panics_on_reversed_bounds() {
        let mut rng = SimRng::seed_from_u64(3);
        let _ = rng.uniform_range(5.0, 4.0);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // heavy sampling loop
    fn uniform_index_covers_all_values() {
        let mut rng = SimRng::seed_from_u64(17);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[rng.uniform_index(7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
