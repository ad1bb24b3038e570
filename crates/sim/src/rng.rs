//! Deterministic random numbers for reproducible simulations.
//!
//! Every run is seeded explicitly; two runs with the same seed and the same
//! configuration produce byte-identical results, which is what lets the
//! experiment harnesses and the test-suite assert on simulation outcomes.

use crate::time::Nanos;

/// A seeded random number generator with the distribution helpers the
/// workloads need.
///
/// Implemented as a self-contained xoshiro256** generator seeded through
/// SplitMix64 (the reference seeding procedure), so the simulator has no
/// external dependencies and its streams are stable across toolchains — a
/// prerequisite for the byte-identical `Record` determinism the experiment
/// API guarantees.
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
}

/// One SplitMix64 step: advances `x` and returns the mixed output. Used for
/// seeding xoshiro state and for deriving stable per-flow seeds.
pub fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut s = seed;
        SimRng {
            state: [splitmix64(&mut s), splitmix64(&mut s), splitmix64(&mut s), splitmix64(&mut s)],
        }
    }

    /// The next raw 64-bit output (xoshiro256**).
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
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

    /// Uniform floating point value in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 high bits → the standard uniform double in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        // Debiased multiply-shift (Lemire); the retry loop terminates fast
        // for every range size.
        let span = hi - lo;
        let mut x = self.next_u64();
        let mut m = (x as u128) * (span as u128);
        let mut low = m as u64;
        if low < span {
            let threshold = span.wrapping_neg() % span;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (span as u128);
                low = m as u64;
            }
        }
        lo + (m >> 64) as u64
    }

    /// Uniform duration in `[lo, hi)`.
    pub fn uniform_time(&mut self, lo: Nanos, hi: Nanos) -> Nanos {
        self.uniform_u64(lo, hi)
    }

    /// Exponentially distributed value with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u: f64 = self.unit().max(1e-12);
        -mean * u.ln()
    }

    /// Pareto distributed value with scale `xm` and shape `alpha`.
    pub fn pareto(&mut self, xm: f64, alpha: f64) -> f64 {
        let u: f64 = self.unit().max(1e-12);
        xm / u.powf(1.0 / alpha)
    }

    /// Fork a new generator whose seed is derived from this one (used to
    /// give every flow its own stream so that adding a flow does not perturb
    /// the others).
    pub fn fork(&mut self, salt: u64) -> SimRng {
        SimRng::new(self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.uniform_u64(0, 1000), b.uniform_u64(0, 1000));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same =
            (0..32).filter(|_| a.uniform_u64(0, 1 << 30) == b.uniform_u64(0, 1 << 30)).count();
        assert!(same < 4);
    }

    #[test]
    fn exponential_mean() {
        let mut r = SimRng::new(42);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.exponential(5.0)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.2, "sample mean {mean}");
    }

    #[test]
    fn pareto_bounds_and_heavy_tail() {
        let mut r = SimRng::new(42);
        let mut max = 0.0f64;
        for _ in 0..20_000 {
            let v = r.pareto(2.0, 1.2);
            assert!(v >= 2.0);
            max = max.max(v);
        }
        assert!(max > 50.0, "a heavy tail should produce large samples, max {max}");
    }

    #[test]
    fn forked_streams_are_independent_but_deterministic() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        let mut fa = a.fork(1);
        let mut fb = b.fork(1);
        assert_eq!(fa.uniform_u64(0, 1 << 20), fb.uniform_u64(0, 1 << 20));
        let mut fa2 = a.fork(2);
        assert_ne!(fa.uniform_u64(0, 1 << 20), fa2.uniform_u64(0, 1 << 20));
    }
}
