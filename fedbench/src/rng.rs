//! Seeded input generation: a SplitMix64 generator and a Zipf sampler.
//!
//! The benchmark carries its own generator so that its inputs depend on
//! nothing but `--seed` and this file, not on a random-number crate or
//! on the repository's bench helpers.

/// SplitMix64 (Steele, Lea and Flood): tiny, fast and fully determined
/// by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `stream` (a client index, a tree index).
    pub fn derive(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup; rank 0 is hottest.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += 1.0 / (k as f64).powf(s);
            cdf.push(total);
        }
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..5).map(|_| Rng::derive(9, 0).next_u64()).collect();
        let mut r = Rng::derive(9, 0);
        assert_eq!(a[0], r.next_u64());
        let mut x = Rng::derive(9, 1);
        let mut y = Rng::derive(9, 2);
        assert_ne!(x.next_u64(), y.next_u64());
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(100, 1.0);
        let mut r = Rng::derive(3, 0);
        let mut counts = [0usize; 100];
        for _ in 0..5000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[0] > 3 * counts[50]);
        assert_eq!(counts.iter().sum::<usize>(), 5000);
    }
}
