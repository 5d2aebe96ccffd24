//! Deterministic randomness for workloads.
//!
//! All stochastic behaviour in the simulation (request inter-arrival times,
//! key popularity, value sizes, service-time jitter) flows through
//! [`DetRng`], a small seeded PRNG, so every experiment is exactly
//! reproducible from its seed.
//!
//! The generator is a self-contained xoshiro256++ (Blackman & Vigna), seeded
//! through splitmix64 so that nearby seeds still yield independent streams.
//! Keeping the implementation in-tree removes the only external dependency
//! the simulation substrate had and guarantees the bit stream never changes
//! under our feet.

use crate::time::SimDuration;

/// A deterministic, seedable random source.
///
/// # Examples
///
/// ```
/// use svt_sim::DetRng;
///
/// let mut a = DetRng::seed(7);
/// let mut b = DetRng::seed(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    state: [u64; 4],
}

// A restored generator continues the exact bit stream.
crate::snap_fields! { DetRng { state } }

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        let mut sm = seed;
        DetRng {
            state: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next raw 64-bit value (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
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

    /// Uniform value in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        // Lemire's nearly-divisionless unbiased bounded generation.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 high bits give a uniform dyadic rational in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Exponentially distributed duration with the given mean (used for
    /// open-loop Poisson arrivals in the memcached experiment).
    pub fn exp_duration(&mut self, mean: SimDuration) -> SimDuration {
        // Inverse-CDF sampling; clamp the uniform draw away from 0 to avoid
        // an infinite log.
        let u = self.unit().max(1e-12);
        SimDuration::from_ns_f64(-mean.as_ns() * u.ln())
    }

    /// Normally distributed duration (Box-Muller), truncated at zero, used
    /// for small service-time jitter.
    pub fn norm_duration(&mut self, mean: SimDuration, stddev: SimDuration) -> SimDuration {
        let u1 = self.unit().max(1e-12);
        let u2 = self.unit();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        SimDuration::from_ns_f64(mean.as_ns() + z * stddev.as_ns())
    }

    /// Zipf-distributed rank in `[0, n)` with skew `s` (used for key
    /// popularity in the ETC workload). Uses rejection-inversion-free
    /// direct CDF sampling over a precomputed table for small `n`, or
    /// approximate inversion for large `n`.
    pub fn zipf(&mut self, n: u64, s: f64) -> u64 {
        debug_assert!(n > 0);
        // Approximate inversion for the Zipf CDF: valid for s != 1; for the
        // common s ~ 1 case fall back to the harmonic approximation.
        let u = self.unit().max(1e-12);
        if (s - 1.0).abs() < 1e-9 {
            // CDF(k) ~ ln(k+1)/ln(n+1)
            let k = ((n as f64 + 1.0).powf(u) - 1.0).floor() as u64;
            k.min(n - 1)
        } else {
            let t = ((n as f64).powf(1.0 - s) - 1.0) * u + 1.0;
            let k = t.powf(1.0 / (1.0 - s)).floor() as u64;
            k.min(n - 1).max(1) - 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed(42);
        let mut b = DetRng::seed(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::seed(1);
        let mut b = DetRng::seed(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = DetRng::seed(3);
        for _ in 0..1000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn below_covers_small_range() {
        let mut r = DetRng::seed(9);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[r.below(5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn unit_in_half_open_interval() {
        let mut r = DetRng::seed(10);
        for _ in 0..10_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn exp_duration_mean_close() {
        let mut r = DetRng::seed(4);
        let mean = SimDuration::from_us(100);
        let n = 20_000;
        let total: SimDuration = (0..n).map(|_| r.exp_duration(mean)).sum();
        let avg_ns = total.as_ns() / n as f64;
        assert!((avg_ns - 100_000.0).abs() < 3_000.0, "avg {avg_ns}");
    }

    #[test]
    fn norm_duration_clamps_negative() {
        let mut r = DetRng::seed(5);
        let d = r.norm_duration(SimDuration::from_ns(1), SimDuration::from_ns(1000));
        // from_ns_f64 clamps below zero; just ensure no panic and sane value.
        assert!(d.as_ns() >= 0.0);
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let mut r = DetRng::seed(6);
        let n = 10_000u64;
        let draws = 50_000;
        let low = (0..draws).filter(|_| r.zipf(n, 0.99) < n / 100).count();
        // With skew ~1, the top 1% of keys should absorb far more than 1%
        // of draws.
        assert!(low as f64 / draws as f64 > 0.3, "low fraction {low}");
    }

    #[test]
    fn zipf_stays_in_range() {
        let mut r = DetRng::seed(7);
        for &s in &[0.5, 0.99, 1.0, 1.2] {
            for _ in 0..2000 {
                assert!(r.zipf(100, s) < 100);
            }
        }
        assert_eq!(r.zipf(1, 0.99), 0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::seed(8);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }
}
