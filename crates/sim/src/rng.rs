//! Deterministic random-number streams.
//!
//! Every stochastic model in the workspace (droop events, failure outcomes,
//! workload arrivals, static process variation) draws from an
//! [`RngStream`]. Streams are derived from a root seed plus a label, so
//! independent models never share state and adding a new consumer cannot
//! perturb existing ones — the classic "random stream per model" discipline
//! from simulation practice.
//!
//! The generator is xoshiro256++ seeded through SplitMix64, the algorithm
//! behind `rand`'s `SmallRng` on 64-bit targets. The module also holds the
//! workspace's one FNV-1a: [`fnv1a_64`] over bytes and [`fnv1a_fold`] over
//! words, both starting from [`FNV_OFFSET_BASIS`].

/// A named, deterministic random stream.
///
/// ```
/// use avfs_sim::RngStream;
///
/// let mut a = RngStream::from_root(7, "workload-gen");
/// let mut b = RngStream::from_root(7, "workload-gen");
/// assert_eq!(a.next_u64(), b.next_u64());
///
/// // A different label yields an independent stream.
/// let mut c = RngStream::from_root(7, "droop-model");
/// let _ = c.next_u64(); // deterministic, but unrelated to `a`
/// ```
#[derive(Debug, Clone)]
pub struct RngStream {
    /// xoshiro256++ state.
    s: [u64; 4],
}

/// FNV-1a's 64-bit offset basis: the state of an empty digest.
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one word into an FNV-1a digest `h` (one xor-multiply round).
/// Digests of structured state start at [`FNV_OFFSET_BASIS`] and fold
/// their fields in a fixed order.
pub fn fnv1a_fold(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME)
}

/// Stable 64-bit FNV-1a hash, used to fold stream labels into seeds.
///
/// We hand-roll this instead of using `std::hash` because `DefaultHasher`
/// is not guaranteed stable across Rust releases, and seeds must be.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(FNV_OFFSET_BASIS, |h, &b| fnv1a_fold(h, u64::from(b)))
}

/// The increment SplitMix64 adds to its state per output (the 64-bit
/// golden ratio).
pub const SPLITMIX64_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64 step; used to decorrelate seed material. This is the
/// output a SplitMix64 generator in state `state` produces; its next
/// state is `state + SPLITMIX64_GAMMA`.
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(SPLITMIX64_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl RngStream {
    /// Derives a stream from a root seed and a label.
    pub fn from_root(root_seed: u64, label: &str) -> Self {
        RngStream::seeded(splitmix64(root_seed ^ fnv1a_64(label.as_bytes())))
    }

    /// Derives a sub-stream, e.g. one per run index or per core.
    pub fn substream(&self, index: u64) -> Self {
        // Independent of this stream's current position: derive from a
        // snapshot of nothing but the index (streams are forked eagerly).
        let mut probe = self.clone();
        let base = probe.next_u64();
        RngStream::seeded(splitmix64(base ^ splitmix64(index)))
    }

    /// A generator whose state is the first four outputs of a SplitMix64
    /// generator started at `seed`. The finalizer is a bijection, so at
    /// most one of the four words is zero and the all-zero fixed point
    /// of xoshiro256++ is unreachable.
    fn seeded(seed: u64) -> Self {
        let s = [0u64, 1, 2, 3]
            .map(|i| splitmix64(seed.wrapping_add(i.wrapping_mul(SPLITMIX64_GAMMA))));
        RngStream { s }
    }

    /// Next raw 64-bit value (one xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)`: the top 53 bits of one draw as a mantissa.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Unbiased draw in `[0, bound)` for `bound >= 1`: a mask for powers
    /// of two; otherwise draws at or above the largest multiple of
    /// `bound` not exceeding `u64::MAX` are rejected.
    fn below(&mut self, bound: u64) -> u64 {
        if bound.is_power_of_two() {
            return self.next_u64() & (bound - 1);
        }
        let zone = u64::MAX - (u64::MAX % bound) - 1;
        loop {
            let v = self.next_u64();
            if v <= zone {
                return v % bound;
            }
        }
    }

    /// Uniform in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "uniform range is empty: [{lo}, {hi})");
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "uniform_u64 range is empty: [{lo}, {hi}]");
        match hi - lo {
            u64::MAX => self.next_u64(),
            span => lo + self.below(span + 1),
        }
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Exponentially distributed value with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive: {mean}");
        // Inverse CDF; 1-u avoids ln(0).
        -mean * (1.0 - self.next_f64()).ln()
    }

    /// Standard normal draw (Box–Muller).
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal draw with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "negative std dev: {std_dev}");
        mean + std_dev * self.standard_normal()
    }

    /// Poisson draw with the given mean (Knuth's method; fine for small
    /// means, which is all the droop model needs).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is negative or not finite.
    pub fn poisson(&mut self, mean: f64) -> u64 {
        assert!(
            mean.is_finite() && mean >= 0.0,
            "invalid poisson mean: {mean}"
        );
        if mean == 0.0 {
            return 0;
        }
        if mean > 64.0 {
            // Normal approximation for large means keeps this O(1).
            return self.normal(mean, mean.sqrt()).round().max(0.0) as u64;
        }
        let l = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.next_f64();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    /// Picks an index in `[0, len)` uniformly.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn pick_index(&mut self, len: usize) -> usize {
        assert!(len > 0, "cannot pick from an empty range");
        self.below(len as u64) as usize
    }

    /// Picks a uniformly random element of a slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.pick_index(items.len())]
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = RngStream::from_root(1, "x");
        let mut b = RngStream::from_root(1, "x");
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn labels_decorrelate() {
        let mut a = RngStream::from_root(1, "x");
        let mut b = RngStream::from_root(1, "y");
        // Not a proof of independence, but identical prefixes would indicate
        // the label is ignored.
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn substreams_are_deterministic() {
        let root = RngStream::from_root(9, "model");
        let mut s1 = root.substream(3);
        let mut s2 = root.substream(3);
        assert_eq!(s1.next_u64(), s2.next_u64());
        let mut s3 = root.substream(4);
        assert_ne!(s1.next_u64(), s3.next_u64());
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut r = RngStream::from_root(2, "u");
        for _ in 0..1000 {
            let v = r.uniform(5.0, 6.0);
            assert!((5.0..6.0).contains(&v));
        }
    }

    #[test]
    fn chance_edges() {
        let mut r = RngStream::from_root(3, "c");
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = RngStream::from_root(4, "e");
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exponential(2.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean was {mean}");
    }

    #[test]
    fn poisson_mean_is_close() {
        let mut r = RngStream::from_root(5, "p");
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| r.poisson(3.0)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean was {mean}");
    }

    #[test]
    fn poisson_large_mean_uses_normal_path() {
        let mut r = RngStream::from_root(6, "p2");
        let n = 5_000;
        let sum: u64 = (0..n).map(|_| r.poisson(100.0)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 100.0).abs() < 1.0, "mean was {mean}");
    }

    #[test]
    fn normal_moments_are_close() {
        let mut r = RngStream::from_root(7, "n");
        let n = 20_000;
        let vals: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = vals.iter().sum::<f64>() / n as f64;
        let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean was {mean}");
        assert!((var - 4.0).abs() < 0.3, "var was {var}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = RngStream::from_root(8, "s");
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn pick_covers_all_indices() {
        let mut r = RngStream::from_root(10, "pick");
        let items = [0usize, 1, 2, 3];
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[*r.pick(&items)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn fnv_is_stable() {
        // Golden values: must never change, or every seed shifts.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    // Golden outputs: every seeded result in the workspace flows through
    // these streams, so any drift here moves every digest.

    #[test]
    fn from_root_is_pinned() {
        let mut r = RngStream::from_root(2024, "golden");
        let got = [r.next_u64(), r.next_u64(), r.next_u64()];
        assert_eq!(
            got,
            [
                0x896c_50d7_927b_d292,
                0x716a_ea56_983e_57f7,
                0x0540_6868_466b_92a1
            ]
        );
    }

    #[test]
    fn substream_is_pinned() {
        let mut s = RngStream::from_root(2024, "golden").substream(7);
        assert_eq!(
            [s.next_u64(), s.next_u64()],
            [0x0706_5f77_9074_f3c4, 0x9165_7e19_d199_5a9b]
        );
    }

    #[test]
    fn next_f64_is_pinned() {
        let mut r = RngStream::from_root(7, "f64");
        let bits = [r.next_f64(), r.next_f64(), r.next_f64()].map(f64::to_bits);
        assert_eq!(
            bits,
            [
                0x3fd9_4874_0704_f34c,
                0x3fd2_f0a1_1537_3eb4,
                0x3fe1_60e1_270e_74d5
            ]
        );
    }

    #[test]
    fn uniform_u64_is_pinned() {
        let mut r = RngStream::from_root(11, "uniform");
        // Rejection path (11 values), mask path (8), full span, point.
        let odd: Vec<u64> = (0..8).map(|_| r.uniform_u64(10, 20)).collect();
        assert_eq!(odd, [10, 11, 10, 15, 10, 12, 17, 17]);
        let pow2: Vec<u64> = (0..8).map(|_| r.uniform_u64(0, 7)).collect();
        assert_eq!(pow2, [0, 6, 1, 6, 0, 2, 7, 0]);
        assert_eq!(r.uniform_u64(0, u64::MAX), 0xf400_caca_9a09_5667);
        assert_eq!(r.uniform_u64(5, 5), 5);
        // A bound just above 2^63 rejects about half of all draws.
        let mut r = RngStream::from_root(19, "reject");
        let wide: Vec<u64> = (0..6).map(|_| r.uniform_u64(0, 1 << 63)).collect();
        assert_eq!(
            wide,
            [
                0x1fff_1fa3_1e55_c114,
                0x6bac_acf5_d485_fad2,
                0x48e6_84b4_409f_7ed3,
                0x1c8e_8bba_f098_d86d,
                0x3982_a782_80fd_6d1b,
                0x2ece_2f22_4ceb_92d7,
            ]
        );
    }

    #[test]
    fn pick_index_is_pinned() {
        let mut r = RngStream::from_root(13, "pick");
        let five: Vec<usize> = (0..10).map(|_| r.pick_index(5)).collect();
        assert_eq!(five, [3, 0, 2, 3, 0, 0, 4, 0, 1, 4]);
        let eight: Vec<usize> = (0..10).map(|_| r.pick_index(8)).collect();
        assert_eq!(eight, [7, 3, 1, 7, 0, 4, 2, 1, 2, 1]);
    }

    #[test]
    fn shuffle_is_pinned() {
        let mut r = RngStream::from_root(17, "shuffle");
        let mut items: Vec<u32> = (0..10).collect();
        r.shuffle(&mut items);
        assert_eq!(items, [0, 2, 6, 9, 1, 8, 4, 5, 7, 3]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn pick_from_empty_panics() {
        let mut r = RngStream::from_root(11, "bad");
        let empty: [u8; 0] = [];
        let _ = r.pick(&empty);
    }
}
