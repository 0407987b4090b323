//! splitmix64: the benchmark's only source of randomness. Every input a
//! workload generates comes from a stream seeded by `--seed`, so one
//! seed always gives the same grid order, request mix and traces.

/// A splitmix64 stream.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream for `seed`, separated from other streams of the same
    /// seed by `stream` (so adding a consumer never shifts another's
    /// draws).
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut s = SplitMix64(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        s.next_u64();
        s
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// One element of `items`.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// Index drawn with probability proportional to `weights`.
    pub fn weighted(&mut self, weights: &[u32]) -> usize {
        let total: u32 = weights.iter().sum();
        let mut r = self.below(total as usize) as u32;
        for (i, &w) in weights.iter().enumerate() {
            if r < w {
                return i;
            }
            r -= w;
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_separated() {
        let a: Vec<u64> = (0..4).map(|_| SplitMix64::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            SplitMix64::new(7, 1).next_u64(),
            SplitMix64::new(7, 2).next_u64()
        );
        assert_ne!(
            SplitMix64::new(7, 1).next_u64(),
            SplitMix64::new(8, 1).next_u64()
        );
    }

    #[test]
    fn weighted_respects_zero_weights() {
        let mut r = SplitMix64::new(1, 0);
        for _ in 0..1000 {
            assert_ne!(r.weighted(&[3, 0, 5]), 1);
        }
    }
}
