//! Web-like workload generation (§6.3.2 of the paper).
//!
//! The paper draws web-transfer sizes "from a mixture of Pareto and
//! exponential distributions as in \[28\]", caps the maximum file size at
//! 150 KB, and makes the interval between two transfers uniformly
//! distributed between 0.1 and 0.2 seconds. This module reproduces that
//! generator.

use crate::rng::SimRng;
use crate::time::{Nanos, MILLI};

/// Probability that a transfer size is drawn from the exponential (body)
/// component rather than the Pareto (tail) component.
pub const BODY_PROBABILITY: f64 = 0.83;
/// Mean of the exponential body, bytes.
pub const BODY_MEAN: f64 = 8_000.0;
/// Scale of the Pareto tail, bytes.
pub const TAIL_SCALE: f64 = 10_000.0;
/// Shape of the Pareto tail.
pub const TAIL_SHAPE: f64 = 1.2;
/// Smallest transfer generated, bytes.
pub const MIN_BYTES: u64 = 1_000;
/// Largest transfer generated, bytes (§6.3.2: capped at 150 KB).
pub const MAX_BYTES: u64 = 150_000;
/// Lower bound of the think time between transfers (§6.3.2: 0.1 s).
pub const THINK_MIN: Nanos = 100 * MILLI;
/// Upper bound of the think time between transfers (§6.3.2: 0.2 s).
pub const THINK_MAX: Nanos = 200 * MILLI;

/// Draw a transfer size in bytes.
pub fn draw_size(rng: &mut SimRng) -> u64 {
    let raw = if rng.unit() < BODY_PROBABILITY {
        rng.exponential(BODY_MEAN)
    } else {
        rng.pareto(TAIL_SCALE, TAIL_SHAPE)
    };
    (raw as u64).clamp(MIN_BYTES, MAX_BYTES)
}

/// Draw a think time between transfers.
pub fn draw_think(rng: &mut SimRng) -> Nanos {
    rng.uniform_time(THINK_MIN, THINK_MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_respect_bounds() {
        let mut rng = SimRng::new(11);
        for _ in 0..10_000 {
            assert!((MIN_BYTES..=MAX_BYTES).contains(&draw_size(&mut rng)));
        }
    }

    #[test]
    fn size_distribution_has_body_and_tail() {
        let mut rng = SimRng::new(11);
        let samples: Vec<u64> = (0..20_000).map(|_| draw_size(&mut rng)).collect();
        let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        // Mean around 8–25 kB: dominated by the body, inflated by the tail.
        assert!((5_000.0..40_000.0).contains(&mean), "mean {mean}");
        // The 150 kB cap is actually hit by the heavy tail sometimes.
        let capped = samples.iter().filter(|&&s| s == MAX_BYTES).count();
        assert!(capped > 10, "cap hit {capped} times");
        // But most transfers are small.
        let small = samples.iter().filter(|&&s| s < 20_000).count();
        assert!(small as f64 / samples.len() as f64 > 0.6);
    }

    #[test]
    fn think_times_are_in_range() {
        let mut rng = SimRng::new(5);
        for _ in 0..1000 {
            assert!((THINK_MIN..THINK_MAX).contains(&draw_think(&mut rng)));
        }
    }
}
