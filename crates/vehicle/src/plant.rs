//! The assembled HIL plant.
//!
//! [`Plant`] combines vehicle, driver, environment, sensors and actuators
//! into the closed loop the validator's central node controls: each step,
//! the driver produces nominal inputs, the safety controller's commands
//! (throttle ceiling / brake request, as computed by SafeSpeed) are
//! overlaid, the servos slew, and the dynamics integrate.

use crate::driver::Driver;
use crate::dynamics::{ControlInput, Vehicle, VehicleParams, VehicleState};
use crate::environment::Environment;
use crate::sensors::{Actuator, Sensor};
use serde::{Deserialize, Serialize};

/// Safety-controller overlay applied on top of the driver's request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SafetyOverlay {
    /// Upper bound imposed on the driver's throttle (1.0 = no limit).
    pub throttle_ceiling: f64,
    /// Additional brake demand (0.0 = none).
    pub brake_request: f64,
}

impl Default for SafetyOverlay {
    fn default() -> Self {
        SafetyOverlay {
            throttle_ceiling: 1.0,
            brake_request: 0.0,
        }
    }
}

/// The closed-loop plant.
#[derive(Debug, Clone)]
pub struct Plant {
    vehicle: Vehicle,
    driver: Driver,
    environment: Environment,
    speed_sensor: Sensor,
    lateral_sensor: Sensor,
    throttle_servo: Actuator,
    brake_servo: Actuator,
    time_s: f64,
}

impl Plant {
    /// Assembles a plant with default sensors/servos.
    pub fn new(vehicle: Vehicle, driver: Driver, environment: Environment, seed: u64) -> Self {
        Plant {
            vehicle,
            driver,
            environment,
            speed_sensor: Sensor::speed_sensor(seed),
            lateral_sensor: Sensor::lateral_sensor(seed.wrapping_add(1)),
            throttle_servo: Actuator::pedal_servo(),
            brake_servo: Actuator::pedal_servo(),
            time_s: 0.0,
        }
    }

    /// A ready-made motorway scenario: car at `speed` m/s, driver holding
    /// `desired` m/s, limit dropping from `desired + margin` to `limit_low`
    /// at 500 m.
    pub fn motorway(speed: f64, desired: f64, limit_low: f64, seed: u64) -> Self {
        Plant::new(
            Vehicle::with_speed(VehicleParams::default(), speed),
            Driver::new(desired),
            Environment::with_limit_drop(desired + 5.0, limit_low, 500.0),
            seed,
        )
    }

    /// Advances the loop by `dt_s` under the given safety overlay.
    pub fn step(&mut self, overlay: SafetyOverlay, dt_s: f64) {
        let nominal = self.driver.control(self.time_s, self.vehicle.state());
        let throttle_target = nominal
            .throttle
            .min(overlay.throttle_ceiling.clamp(0.0, 1.0));
        let brake_target = nominal.brake.max(overlay.brake_request.clamp(0.0, 1.0));
        let input = ControlInput {
            throttle: self.throttle_servo.command(throttle_target, dt_s),
            brake: self.brake_servo.command(brake_target, dt_s),
            steer: nominal.steer,
        };
        self.vehicle.step(input, dt_s);
        self.time_s += dt_s;
    }

    /// Measured vehicle speed (sensor model applied).
    pub fn measured_speed(&mut self) -> f64 {
        self.speed_sensor.measure(self.vehicle.state().speed)
    }

    /// Measured lateral offset.
    pub fn measured_lateral_offset(&mut self) -> f64 {
        self.lateral_sensor
            .measure(self.vehicle.state().lateral_offset)
    }

    /// Commanded speed limit at the current position.
    pub fn current_limit(&self) -> f64 {
        self.environment.limit_at(self.vehicle.state().position)
    }

    /// Ground-truth vehicle state.
    pub fn state(&self) -> VehicleState {
        self.vehicle.state()
    }

    /// Elapsed plant time \[s\].
    pub fn time_s(&self) -> f64 {
        self.time_s
    }

    /// The environment (for thresholds).
    pub fn environment(&self) -> &Environment {
        &self.environment
    }

    /// Mutable driver access (scenario scripting).
    pub fn driver_mut(&mut self) -> &mut Driver {
        &mut self.driver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn without_overlay_driver_exceeds_the_dropped_limit() {
        let mut plant = Plant::motorway(25.0, 25.0, 13.9, 1);
        for _ in 0..6000 {
            plant.step(SafetyOverlay::default(), 0.01);
        }
        // Past the 500m limit drop, the unassisted driver still does ~25.
        assert!(plant.state().position > 500.0);
        assert_eq!(plant.current_limit(), 13.9);
        assert!(plant.state().speed > 20.0);
    }

    #[test]
    fn overlay_enforces_the_limit() {
        let mut plant = Plant::motorway(25.0, 25.0, 13.9, 1);
        for _ in 0..9000 {
            // A trivial always-on limiter (the real SafeSpeed runs on the
            // simulated ECU; this verifies the plant-side mechanism).
            let over = plant.state().speed - plant.current_limit();
            let overlay = if over > 0.0 {
                SafetyOverlay {
                    throttle_ceiling: 0.0,
                    brake_request: (over * 0.3).min(1.0),
                }
            } else {
                SafetyOverlay::default()
            };
            plant.step(overlay, 0.01);
        }
        let speed = plant.state().speed;
        assert!(speed <= 14.8, "limited speed {speed}");
    }

    #[test]
    fn measurements_track_truth() {
        let mut plant = Plant::motorway(20.0, 20.0, 13.9, 2);
        let measured = plant.measured_speed();
        assert!((measured - 20.0).abs() < 0.1);
        let lat = plant.measured_lateral_offset();
        assert!(lat.abs() < 0.05);
    }

    #[test]
    fn time_advances_with_steps() {
        let mut plant = Plant::motorway(10.0, 10.0, 5.0, 3);
        for _ in 0..100 {
            plant.step(SafetyOverlay::default(), 0.01);
        }
        assert!((plant.time_s() - 1.0).abs() < 1e-9);
    }
}
