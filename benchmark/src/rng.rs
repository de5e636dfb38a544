//! The benchmark's own random numbers.
//!
//! Inputs must be identical on every commit a comparison spans, so they
//! cannot come from `vendor/rand` or the generators in `rlc-graph`: a change
//! to either would silently change what is measured. SplitMix64 is small
//! enough to own outright.

/// SplitMix64 (Steele, Lea, Flood 2014): one 64-bit state word, full period.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; `stream` separates the independent uses of
    /// one benchmark seed (graph, labels, queries, ...).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`), by 128-bit multiply; the bias is
    /// below 2^-32 for every bound used here.
    pub fn below(&mut self, bound: usize) -> usize {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A Zipf distribution over ranks `0..n`: `P(rank r) ∝ 1 / (r + 1)^exponent`,
/// sampled by binary search over the cumulative weights.
#[derive(Debug, Clone)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n >= 1` ranks.
    pub fn new(n: usize, exponent: f64) -> Self {
        assert!(n >= 1, "a Zipf distribution needs at least one rank");
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|r| {
                total += 1.0 / ((r + 1) as f64).powf(exponent);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    /// Draws a rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("n >= 1");
        let x = rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }
}

/// FNV-1a over a byte stream: the `inputs_hash` of a run.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` in.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Folds one `u32` in, little-endian.
    pub fn write_u32(&mut self, value: u32) {
        self.write(&value.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_repeats_and_streams_differ() {
        let draw = |seed, stream| {
            let mut rng = Rng::new(seed, stream);
            [rng.next_u64(), rng.next_u64(), rng.next_u64()]
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
        assert_ne!(draw(7, 1), draw(8, 1));
    }

    #[test]
    fn below_stays_in_range_and_zipf_prefers_low_ranks() {
        let mut rng = Rng::new(1, 0);
        assert!((0..10_000).all(|_| rng.below(13) < 13));
        let zipf = Zipf::new(8, 2.0);
        let mut counts = [0usize; 8];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // P(0) = 1 / 1.5274 = 0.655 for eight ranks at exponent 2.
        assert!((12_500..13_700).contains(&counts[0]), "{counts:?}");
        assert!(counts[0] > counts[1] && counts[1] > counts[3]);
    }
}
