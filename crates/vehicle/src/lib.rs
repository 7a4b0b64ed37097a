//! # easis-vehicle — HIL plant models
//!
//! The physical side of the EASIS architecture validator (paper §4.1):
//! driving dynamics, environment simulation and the fault-tolerant
//! sensor/actuator nodes, reduced to deterministic behavioural models that
//! close the loop around the simulated ECUs:
//!
//! * [`dynamics`] — longitudinal point-mass + kinematic single-track
//!   lateral vehicle model;
//! * [`driver`] — desired-speed + lane-keeping driver with scripted
//!   distraction episodes;
//! * [`environment`] — position-indexed speed limits (SafeSpeed's external
//!   command);
//! * [`sensors`] — quantising/noisy sensors, rate-limited actuators;
//! * [`plant`] — the assembled closed loop with the safety-controller
//!   overlay interface.
//!
//! # Examples
//!
//! ```
//! use easis_vehicle::plant::{Plant, SafetyOverlay};
//!
//! let mut plant = Plant::motorway(25.0, 25.0, 13.9, 42);
//! for _ in 0..100 {
//!     plant.step(SafetyOverlay::default(), 0.01);
//! }
//! assert!(plant.state().position > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod dynamics;
pub mod environment;
pub mod plant;
pub mod sensors;

pub use driver::{DriftEpisode, Driver};
pub use dynamics::{ControlInput, Vehicle, VehicleParams, VehicleState};
pub use environment::{Environment, PositionProfile};
pub use plant::{Plant, SafetyOverlay};
pub use sensors::{Actuator, Sensor};
