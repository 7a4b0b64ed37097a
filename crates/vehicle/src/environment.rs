//! Road environment and external commands.
//!
//! The environment-simulation node of the EASIS validator: position-indexed
//! speed limits (the "externally commanded maximum value" SafeSpeed
//! enforces).

use serde::{Deserialize, Serialize};

/// A piecewise-constant, position-indexed profile (speed limits, curvature).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PositionProfile {
    /// Breakpoints as `(from_position_m, value)`, sorted by position.
    points: Vec<(f64, f64)>,
    default: f64,
}

impl PositionProfile {
    /// Creates a profile that returns `default` everywhere.
    pub fn constant(default: f64) -> Self {
        PositionProfile {
            points: Vec::new(),
            default,
        }
    }

    /// Adds a breakpoint: from `position` on, the profile returns `value`.
    ///
    /// # Panics
    ///
    /// Panics if breakpoints are not added in increasing position order.
    pub fn then_at(mut self, position: f64, value: f64) -> Self {
        if let Some(&(last, _)) = self.points.last() {
            assert!(position > last, "breakpoints must increase");
        }
        self.points.push((position, value));
        self
    }

    /// Value of the profile at `position`.
    pub fn at(&self, position: f64) -> f64 {
        self.points
            .iter()
            .rev()
            .find(|&&(from, _)| position >= from)
            .map(|&(_, v)| v)
            .unwrap_or(self.default)
    }
}

/// The road/traffic environment around the vehicle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Environment {
    /// Commanded maximum speed by position \[m/s\] (SafeSpeed input).
    pub speed_limit: PositionProfile,
}

impl Default for Environment {
    fn default() -> Self {
        Environment {
            speed_limit: PositionProfile::constant(27.8), // 100 km/h
        }
    }
}

impl Environment {
    /// Creates the default motorway environment.
    pub fn new() -> Self {
        Environment::default()
    }

    /// A scenario with a speed-limit drop: `high` m/s until `at_position`,
    /// `low` m/s afterwards — the canonical SafeSpeed test.
    pub fn with_limit_drop(high: f64, low: f64, at_position: f64) -> Self {
        Environment {
            speed_limit: PositionProfile::constant(high).then_at(at_position, low),
        }
    }

    /// Commanded maximum speed at a position.
    pub fn limit_at(&self, position: f64) -> f64 {
        self.speed_limit.at(position)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_profile_is_flat() {
        let p = PositionProfile::constant(5.0);
        assert_eq!(p.at(-100.0), 5.0);
        assert_eq!(p.at(1e9), 5.0);
    }

    #[test]
    fn breakpoints_apply_from_their_position() {
        let p = PositionProfile::constant(27.8)
            .then_at(500.0, 13.9)
            .then_at(1200.0, 22.2);
        assert_eq!(p.at(0.0), 27.8);
        assert_eq!(p.at(499.9), 27.8);
        assert_eq!(p.at(500.0), 13.9);
        assert_eq!(p.at(1199.0), 13.9);
        assert_eq!(p.at(5000.0), 22.2);
    }

    #[test]
    #[should_panic(expected = "increase")]
    fn out_of_order_breakpoints_rejected() {
        let _ = PositionProfile::constant(1.0)
            .then_at(10.0, 2.0)
            .then_at(5.0, 3.0);
    }

    #[test]
    fn limit_drop_scenario() {
        let env = Environment::with_limit_drop(27.8, 13.9, 1000.0);
        assert_eq!(env.limit_at(900.0), 27.8);
        assert_eq!(env.limit_at(1100.0), 13.9);
    }
}
