//! Longitudinal + lateral vehicle dynamics.
//!
//! The driving-dynamics node of the EASIS validator, reduced to what the
//! SafeSpeed (speed limiting) and SafeLane (lane departure) applications
//! need: a point-mass longitudinal model with engine/brake/drag forces and
//! a kinematic single-track lateral model tracked relative to the lane
//! centre line. Step sizes are the caller's (typically 1–10 ms), keeping
//! the plant integration on the same deterministic clock as the ECUs.

use serde::{Deserialize, Serialize};

/// Physical parameters of the vehicle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VehicleParams {
    /// Vehicle mass \[kg\].
    pub mass: f64,
    /// Peak tractive force \[N\].
    pub max_engine_force: f64,
    /// Peak braking force \[N\].
    pub max_brake_force: f64,
    /// Aerodynamic drag factor \[N·s²/m²\] (`0.5·ρ·c_d·A`).
    pub drag: f64,
    /// Rolling-resistance coefficient \[-\].
    pub rolling_resistance: f64,
    /// Wheelbase \[m\].
    pub wheelbase: f64,
}

impl Default for VehicleParams {
    /// A mid-size passenger car.
    fn default() -> Self {
        VehicleParams {
            mass: 1500.0,
            max_engine_force: 6000.0,
            max_brake_force: 12000.0,
            drag: 0.38,
            rolling_resistance: 0.012,
            wheelbase: 2.7,
        }
    }
}

/// Instantaneous state of the vehicle.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct VehicleState {
    /// Longitudinal speed \[m/s\], never negative.
    pub speed: f64,
    /// Distance travelled along the lane \[m\].
    pub position: f64,
    /// Lateral offset from the lane centre \[m\], positive = left.
    pub lateral_offset: f64,
    /// Heading relative to the lane direction \[rad\].
    pub heading: f64,
}

/// Driver/controller inputs for one integration step.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ControlInput {
    /// Throttle command in `[0, 1]`.
    pub throttle: f64,
    /// Brake command in `[0, 1]`.
    pub brake: f64,
    /// Front-wheel steering angle \[rad\].
    pub steer: f64,
}

impl ControlInput {
    /// Clamps all components into their physical ranges.
    pub fn clamped(self) -> ControlInput {
        ControlInput {
            throttle: self.throttle.clamp(0.0, 1.0),
            brake: self.brake.clamp(0.0, 1.0),
            steer: self.steer.clamp(-0.6, 0.6),
        }
    }
}

/// The plant model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Vehicle {
    params: VehicleParams,
    state: VehicleState,
}

const GRAVITY: f64 = 9.81;

impl Vehicle {
    /// Creates a vehicle at rest on the lane centre.
    pub fn new(params: VehicleParams) -> Self {
        Vehicle {
            params,
            state: VehicleState::default(),
        }
    }

    /// Creates a vehicle already rolling at `speed` m/s.
    pub fn with_speed(params: VehicleParams, speed: f64) -> Self {
        assert!(speed >= 0.0, "speed must be non-negative");
        Vehicle {
            params,
            state: VehicleState {
                speed,
                ..VehicleState::default()
            },
        }
    }

    /// Current state.
    pub fn state(&self) -> VehicleState {
        self.state
    }

    /// Integrates one step of `dt_s` seconds under `input`.
    ///
    /// # Panics
    ///
    /// Panics if `dt_s` is not positive and finite.
    pub fn step(&mut self, input: ControlInput, dt_s: f64) {
        assert!(dt_s.is_finite() && dt_s > 0.0, "dt must be positive");
        let input = input.clamped();
        let p = &self.params;
        let s = &mut self.state;
        // Longitudinal forces.
        let f_engine = input.throttle * p.max_engine_force;
        let f_brake = input.brake * p.max_brake_force;
        let f_drag = p.drag * s.speed * s.speed;
        let f_roll = if s.speed > 0.0 {
            p.rolling_resistance * p.mass * GRAVITY
        } else {
            0.0
        };
        let accel = (f_engine - f_brake - f_drag - f_roll) / p.mass;
        s.speed = (s.speed + accel * dt_s).max(0.0);
        s.position += s.speed * dt_s;
        // Kinematic single-track lateral motion relative to the lane.
        s.heading += s.speed / p.wheelbase * input.steer.tan() * dt_s;
        s.lateral_offset += s.speed * s.heading.sin() * dt_s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coast(vehicle: &mut Vehicle, secs: f64) {
        let steps = (secs / 0.01) as usize;
        for _ in 0..steps {
            vehicle.step(ControlInput::default(), 0.01);
        }
    }

    #[test]
    fn full_throttle_accelerates_from_rest() {
        let mut v = Vehicle::new(VehicleParams::default());
        for _ in 0..500 {
            v.step(
                ControlInput {
                    throttle: 1.0,
                    ..ControlInput::default()
                },
                0.01,
            );
        }
        // 5s of full throttle: roughly 0–60 km/h territory.
        let speed = v.state().speed;
        assert!(speed > 10.0 && speed < 30.0, "speed {speed}");
        assert!(v.state().position > 0.0);
    }

    #[test]
    fn coasting_decays_speed() {
        let mut v = Vehicle::with_speed(VehicleParams::default(), 30.0);
        coast(&mut v, 10.0);
        let speed = v.state().speed;
        assert!(speed < 30.0 && speed > 0.0, "speed {speed}");
    }

    #[test]
    fn braking_stops_the_car_and_speed_never_goes_negative() {
        let mut v = Vehicle::with_speed(VehicleParams::default(), 20.0);
        for _ in 0..1000 {
            v.step(
                ControlInput {
                    brake: 1.0,
                    ..ControlInput::default()
                },
                0.01,
            );
        }
        assert_eq!(v.state().speed, 0.0);
    }

    #[test]
    fn terminal_speed_under_full_throttle_is_bounded() {
        let mut v = Vehicle::new(VehicleParams::default());
        for _ in 0..20_000 {
            v.step(
                ControlInput {
                    throttle: 1.0,
                    ..ControlInput::default()
                },
                0.01,
            );
        }
        let v1 = v.state().speed;
        v.step(
            ControlInput {
                throttle: 1.0,
                ..ControlInput::default()
            },
            0.01,
        );
        let v2 = v.state().speed;
        assert!((v2 - v1).abs() < 1e-3, "terminal speed reached");
        // F = drag·v² + rr·m·g at terminal: v ≈ sqrt((6000-176.6)/0.38) ≈ 124
        assert!(v1 > 100.0 && v1 < 130.0, "terminal {v1}");
    }

    #[test]
    fn steering_drifts_laterally() {
        let mut v = Vehicle::with_speed(VehicleParams::default(), 20.0);
        for _ in 0..100 {
            v.step(
                ControlInput {
                    steer: 0.02,
                    throttle: 0.3,
                    ..ControlInput::default()
                },
                0.01,
            );
        }
        assert!(v.state().lateral_offset > 0.0);
        assert!(v.state().heading > 0.0);
    }

    #[test]
    fn counter_steering_recovers_the_lane() {
        let mut v = Vehicle::with_speed(VehicleParams::default(), 20.0);
        for _ in 0..100 {
            v.step(
                ControlInput {
                    steer: 0.02,
                    ..ControlInput::default()
                },
                0.01,
            );
        }
        let drift = v.state().lateral_offset;
        for _ in 0..250 {
            // Simple proportional lane-keeping on offset + heading.
            let s = v.state();
            let steer = -0.5 * s.lateral_offset - 2.0 * s.heading;
            v.step(
                ControlInput {
                    steer,
                    throttle: 0.3,
                    ..ControlInput::default()
                },
                0.01,
            );
        }
        assert!(v.state().lateral_offset.abs() < drift.abs() / 2.0);
    }

    #[test]
    fn inputs_are_clamped() {
        let c = ControlInput {
            throttle: 7.0,
            brake: -3.0,
            steer: 2.0,
        }
        .clamped();
        assert_eq!(c.throttle, 1.0);
        assert_eq!(c.brake, 0.0);
        assert_eq!(c.steer, 0.6);
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn zero_dt_rejected() {
        let mut v = Vehicle::new(VehicleParams::default());
        v.step(ControlInput::default(), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_initial_speed_rejected() {
        let _ = Vehicle::with_speed(VehicleParams::default(), -1.0);
    }
}
