//! The benchmark's input generator: SplitMix64, so every input is a
//! pure function of `--seed` and independent of any library's RNG.

/// A SplitMix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, salted so each input family draws its own
    /// sequence from one seed.
    pub fn new(seed: u64, salt: u64) -> Self {
        Rng(seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `count` distinct values from `0..n`, in draw order.
    pub fn sample(&mut self, n: usize, count: usize) -> Vec<usize> {
        assert!(count <= n, "cannot draw {count} distinct values from {n}");
        let mut pool: Vec<usize> = (0..n).collect();
        for i in 0..count {
            let j = i + self.below(n - i);
            pool.swap(i, j);
        }
        pool.truncate(count);
        pool
    }

    /// `len` random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next_u64() as u8).collect()
    }
}
