//! Deterministic randomness.
//!
//! Experiments must be reproducible from a seed. [`SimRng`] wraps a
//! counter-derived SplitMix64 generator: cheap, seedable, and — unlike
//! library defaults — guaranteed stable across dependency upgrades, so
//! recorded experiment outputs stay comparable.

use serde::{Deserialize, Serialize};

/// A small, stable, seedable pseudo-random generator (SplitMix64).
///
/// # Examples
///
/// ```
/// use easis_sim::rng::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn seed_from(seed: u64) -> Self {
        SimRng { state: seed }
    }

    /// Derives an independent child generator, e.g. one per campaign trial.
    /// Children of the same parent with different tags are decorrelated.
    pub fn derive(&self, tag: u64) -> SimRng {
        let mut child = SimRng {
            state: self.state ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        };
        // Burn one output so `derive(0)` differs from the parent stream.
        child.next_u64();
        child
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Rejection sampling to avoid modulo bias.
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Uniform value in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn next_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range must be non-empty");
        if lo == hi {
            return lo;
        }
        lo + self.next_below(hi - lo + 1)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Picks a uniformly random element of `items`.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "cannot pick from an empty slice");
        &items[self.next_below(items.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_streams() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn derived_children_are_decorrelated() {
        let parent = SimRng::seed_from(9);
        let mut c0 = parent.derive(0);
        let mut c1 = parent.derive(1);
        assert_ne!(c0.next_u64(), c1.next_u64());
    }

    #[test]
    fn next_below_stays_in_bounds() {
        let mut rng = SimRng::seed_from(3);
        for _ in 0..1000 {
            assert!(rng.next_below(7) < 7);
        }
    }

    #[test]
    fn next_in_covers_full_inclusive_range() {
        let mut rng = SimRng::seed_from(4);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[rng.next_in(0, 4) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values should occur: {seen:?}");
        assert_eq!(rng.next_in(9, 9), 9);
    }

    #[test]
    fn next_f64_is_unit_interval() {
        let mut rng = SimRng::seed_from(5);
        for _ in 0..1000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn pick_returns_member() {
        let mut rng = SimRng::seed_from(8);
        let items = ["a", "b", "c"];
        for _ in 0..20 {
            assert!(items.contains(rng.pick(&items)));
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        SimRng::seed_from(1).next_below(0);
    }
}
