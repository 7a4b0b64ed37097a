//! Sensor and actuator models.
//!
//! The fault-tolerant sensor/actuator nodes of the validator, reduced to
//! behavioural models: quantisation + optional deterministic noise on the
//! sensing side, rate limiting on the actuation side.

use easis_sim::rng::SimRng;
use serde::{Deserialize, Serialize};

/// A scalar sensor with quantisation and noise.
#[derive(Debug, Clone)]
pub struct Sensor {
    resolution: f64,
    noise_amplitude: f64,
    rng: SimRng,
}

impl Sensor {
    /// Creates a sensor quantising to `resolution` with uniform noise of
    /// ±`noise_amplitude`, seeded deterministically.
    ///
    /// # Panics
    ///
    /// Panics if `resolution` is not positive or `noise_amplitude` is
    /// negative.
    pub fn new(resolution: f64, noise_amplitude: f64, seed: u64) -> Self {
        assert!(resolution > 0.0, "resolution must be positive");
        assert!(
            noise_amplitude >= 0.0,
            "noise amplitude must be non-negative"
        );
        Sensor {
            resolution,
            noise_amplitude,
            rng: SimRng::seed_from(seed),
        }
    }

    /// A wheel-speed sensor: 0.05 m/s resolution, 0.02 m/s noise.
    pub fn speed_sensor(seed: u64) -> Self {
        Sensor::new(0.05, 0.02, seed)
    }

    /// A camera-based lateral-position sensor: 2 cm resolution, 1 cm noise.
    pub fn lateral_sensor(seed: u64) -> Self {
        Sensor::new(0.02, 0.01, seed)
    }

    /// Measures `truth`, applying noise and quantisation.
    pub fn measure(&mut self, truth: f64) -> f64 {
        let noise = (self.rng.next_f64() * 2.0 - 1.0) * self.noise_amplitude;
        ((truth + noise) / self.resolution).round() * self.resolution
    }
}

/// A rate-limited scalar actuator (throttle/brake servo).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Actuator {
    position: f64,
    max_rate_per_s: f64,
    lo: f64,
    hi: f64,
}

impl Actuator {
    /// Creates an actuator limited to `[lo, hi]` with a maximum slew rate.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or the rate not positive.
    pub fn new(lo: f64, hi: f64, max_rate_per_s: f64) -> Self {
        assert!(lo < hi, "range must be non-empty");
        assert!(max_rate_per_s > 0.0, "rate must be positive");
        Actuator {
            position: lo,
            max_rate_per_s,
            lo,
            hi,
        }
    }

    /// A throttle/brake servo: full travel in 0.2 s.
    pub fn pedal_servo() -> Self {
        Actuator::new(0.0, 1.0, 5.0)
    }

    /// Current actuator position.
    pub fn position(&self) -> f64 {
        self.position
    }

    /// Commands a new target; the actuator slews toward it for `dt_s`
    /// seconds and returns the reached position.
    pub fn command(&mut self, target: f64, dt_s: f64) -> f64 {
        let target = target.clamp(self.lo, self.hi);
        let max_step = self.max_rate_per_s * dt_s;
        let delta = (target - self.position).clamp(-max_step, max_step);
        self.position += delta;
        self.position
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_is_quantised_and_near_truth() {
        let mut s = Sensor::speed_sensor(1);
        let m = s.measure(13.9);
        assert!((m - 13.9).abs() <= 0.05 + 0.02, "measured {m}");
        let steps = m / 0.05;
        assert!((steps - steps.round()).abs() < 1e-9, "not quantised: {m}");
    }

    #[test]
    fn measurement_is_deterministic_per_seed() {
        let mut a = Sensor::speed_sensor(7);
        let mut b = Sensor::speed_sensor(7);
        for i in 0..50 {
            assert_eq!(a.measure(i as f64), b.measure(i as f64));
        }
    }

    #[test]
    fn actuator_slews_at_bounded_rate() {
        let mut a = Actuator::pedal_servo();
        let p = a.command(1.0, 0.1); // max 0.5 travel in 0.1s
        assert!((p - 0.5).abs() < 1e-9);
        let p = a.command(1.0, 0.1);
        assert!((p - 1.0).abs() < 1e-9);
    }

    #[test]
    fn actuator_clamps_targets() {
        let mut a = Actuator::pedal_servo();
        a.command(5.0, 10.0);
        assert_eq!(a.position(), 1.0);
        a.command(-5.0, 10.0);
        assert_eq!(a.position(), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_resolution_rejected() {
        let _ = Sensor::new(0.0, 0.0, 1);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_actuator_range_rejected() {
        let _ = Actuator::new(1.0, 1.0, 1.0);
    }
}
